//! Decoupling queues (Figure 1 of the paper).

use std::collections::VecDeque;

/// Capacity of a decoupling queue.
///
/// The paper studies both practical finite queues (32-entry event queue,
/// 16-entry unfiltered event queue) and an idealized infinite queue for
/// the burstiness analysis of Figure 3(a,b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDepth {
    /// A finite queue of the given number of entries.
    Bounded(usize),
    /// The idealized infinite queue of Section 3.2.
    Unbounded,
}

impl QueueDepth {
    /// Returns the capacity, or `None` if unbounded.
    pub fn capacity(self) -> Option<usize> {
        match self {
            QueueDepth::Bounded(n) => Some(n),
            QueueDepth::Unbounded => None,
        }
    }
}

/// A FIFO with an optional bound.
///
/// # Example
///
/// ```
/// use fade_sim::{BoundedQueue, QueueDepth};
/// let mut q = BoundedQueue::new(QueueDepth::Bounded(2));
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert!(q.push(3).is_err()); // full, value handed back
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    depth: QueueDepth,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue with the given depth.
    pub fn new(depth: QueueDepth) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            depth,
        }
    }

    /// Attempts to enqueue; on a full queue the value is handed back.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` if the queue is full, modelling backpressure
    /// on the producer.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if self.is_full() {
            return Err(value);
        }
        self.items.push_back(value);
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest entry without dequeuing.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` when at capacity (never for unbounded queues).
    #[inline]
    pub fn is_full(&self) -> bool {
        match self.depth {
            QueueDepth::Bounded(n) => self.items.len() >= n,
            QueueDepth::Unbounded => false,
        }
    }

    /// Free slots remaining (`usize::MAX` for unbounded queues).
    pub fn free(&self) -> usize {
        match self.depth {
            QueueDepth::Bounded(n) => n.saturating_sub(self.items.len()),
            QueueDepth::Unbounded => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(QueueDepth::Bounded(4));
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn bounded_rejects_when_full() {
        let mut q = BoundedQueue::new(QueueDepth::Bounded(1));
        q.push('a').unwrap();
        assert_eq!(q.push('b'), Err('b'));
        assert!(q.is_full());
        assert_eq!(q.free(), 0);
    }

    #[test]
    fn unbounded_never_fills() {
        let mut q = BoundedQueue::new(QueueDepth::Unbounded);
        for i in 0..10_000 {
            q.push(i).unwrap();
        }
        assert!(!q.is_full());
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.free(), usize::MAX);
    }

    #[test]
    fn occupancy_tracking() {
        let mut q = BoundedQueue::new(QueueDepth::Bounded(8));
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.pop();
        q.push(3).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.front(), Some(&2));
    }

    #[test]
    fn depth_capacity_accessors() {
        assert_eq!(QueueDepth::Bounded(32).capacity(), Some(32));
        assert_eq!(QueueDepth::Unbounded.capacity(), None);
    }
}

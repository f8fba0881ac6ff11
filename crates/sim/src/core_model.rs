//! Core timing models.
//!
//! Table 1 of the paper evaluates three core microarchitectures: in-order
//! 1-way, lean OoO 2-way with a 48-entry ROB, and aggressive OoO 4-way
//! with a 96-entry ROB. For FADE, only two properties of a core matter:
//!
//! 1. **How it retires application instructions** — bursty commit is what
//!    fills the event queue (Figure 3). [`CommitModel`] models commit as
//!    a run/stall renewal process: during a *run* the core commits at
//!    full width every cycle (ROB drain / cache-resident loop); during a
//!    *stall* it commits nothing (miss stall). Run and stall lengths are
//!    geometrically distributed and scaled so long-run IPC matches the
//!    per-benchmark target.
//! 2. **How fast it executes monitor handlers** — Section 7.3 observes
//!    handlers run up to 3x faster on the 4-way OoO core than in-order
//!    because they are short, cache-resident instruction sequences.
//!    [`HandlerExec`] models handler execution at a per-core handler IPC.
//!
//! [`SmtArbiter`] models the fine-grained dual-threaded core of the
//! single-core system (Figure 8(b)): when both hardware threads are
//! active they share issue bandwidth.

use crate::rng::Rng;

/// The three evaluated core microarchitectures (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// In-order, 1-wide.
    InOrder1,
    /// Lean out-of-order, 2-wide, 48-entry ROB.
    LeanOoO2,
    /// Aggressive out-of-order, 4-wide, 96-entry ROB.
    AggrOoO4,
}

impl CoreKind {
    /// All core kinds, in increasing aggressiveness.
    pub const ALL: [CoreKind; 3] = [CoreKind::InOrder1, CoreKind::LeanOoO2, CoreKind::AggrOoO4];

    /// Commit width (instructions per cycle at peak).
    pub const fn width(self) -> u32 {
        match self {
            CoreKind::InOrder1 => 1,
            CoreKind::LeanOoO2 => 2,
            CoreKind::AggrOoO4 => 4,
        }
    }

    /// Reorder-buffer capacity (1 models the in-order pipeline).
    pub const fn rob(self) -> u32 {
        match self {
            CoreKind::InOrder1 => 1,
            CoreKind::LeanOoO2 => 48,
            CoreKind::AggrOoO4 => 96,
        }
    }

    /// Sustained IPC when executing monitor handlers standalone.
    ///
    /// Handlers are short, branchy but cache-resident sequences; the
    /// paper reports up to 3x faster handler execution on the 4-way OoO
    /// core than in-order (Section 7.3).
    pub const fn handler_ipc(self) -> f64 {
        match self {
            CoreKind::InOrder1 => 1.0,
            CoreKind::LeanOoO2 => 2.0,
            CoreKind::AggrOoO4 => 3.0,
        }
    }

    /// Application IPC on this core relative to the 4-way OoO core.
    ///
    /// The paper notes applications generate up to 2x fewer events per
    /// cycle on the in-order core (Section 7.3).
    pub const fn app_ipc_scale(self) -> f64 {
        match self {
            CoreKind::InOrder1 => 0.5,
            CoreKind::LeanOoO2 => 0.75,
            CoreKind::AggrOoO4 => 1.0,
        }
    }

    /// Short display name used in experiment tables.
    pub const fn name(self) -> &'static str {
        match self {
            CoreKind::InOrder1 => "in-order",
            CoreKind::LeanOoO2 => "2-way OoO",
            CoreKind::AggrOoO4 => "4-way OoO",
        }
    }
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-benchmark commit behaviour on the reference (4-way OoO) core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommitProfile {
    /// Application IPC on the aggressive 4-way OoO core.
    pub ipc_4way: f64,
    /// Mean length of a full-width commit burst, in cycles. Longer runs
    /// model cache-resident phases and produce deeper event-queue
    /// occupancy (compare omnetpp vs mcf in Figure 3(b)).
    pub run_len_mean: f64,
}

impl CommitProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `ipc_4way` is not positive or `run_len_mean < 1`.
    pub fn new(ipc_4way: f64, run_len_mean: f64) -> Self {
        assert!(ipc_4way > 0.0, "IPC must be positive");
        assert!(run_len_mean >= 1.0, "runs last at least one cycle");
        CommitProfile {
            ipc_4way,
            run_len_mean,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CommitState {
    Run(u64),
    Stall(u64),
}

/// The run/stall commit process of one application hardware thread.
///
/// Each cycle, [`CommitModel::tick`] deposits newly committable
/// instructions into an internal window bounded by the ROB size (during
/// backpressure the window fills and the core stalls, exactly like a real
/// ROB); the system retires instructions from the window with
/// [`CommitModel::retire`].
///
/// Two entry points advance the process a phase at a time instead of a
/// cycle at a time, with the same state and random draws as the
/// equivalent `tick`/`retire` sequence: [`CommitModel::fast_forward`]
/// retires instructions with nothing impeding retirement, and
/// [`CommitModel::skip_idle_stall`] advances through an idle stall.
/// Only the interiors of phases are advanced in bulk — inside a run
/// whose window cannot clamp at the ROB every cycle retires exactly the
/// commit width, and inside a stall with an empty window no cycle
/// retires anything. Phase ends (which draw the next phase), draining
/// windows and ROB-clamped cycles go through `tick` one cycle at a time.
#[derive(Clone, Debug)]
pub struct CommitModel {
    kind: CoreKind,
    run_len_mean: f64,
    stall_len_mean: f64,
    state: CommitState,
    pending: u32,
    rng: Rng,
    target_ipc: f64,
}

impl CommitModel {
    /// Creates a commit model for the given core and benchmark profile.
    pub fn new(kind: CoreKind, profile: CommitProfile, rng: Rng) -> Self {
        let width = kind.width() as f64;
        // IPC on this core, saturated just below peak so stalls exist.
        let target_ipc = (profile.ipc_4way * kind.app_ipc_scale()).min(width * 0.98);
        let run_frac = target_ipc / width;
        // Scale run length with the ROB: small windows cannot sustain
        // long full-width bursts.
        let rob_scale = (kind.rob() as f64 / CoreKind::AggrOoO4.rob() as f64).max(0.05);
        let run_len_mean = (profile.run_len_mean * rob_scale).max(1.0);
        let stall_len_mean = (run_len_mean * (1.0 - run_frac) / run_frac).max(0.0);
        let mut model = CommitModel {
            kind,
            run_len_mean,
            stall_len_mean,
            state: CommitState::Run(1),
            pending: 0,
            rng,
            target_ipc,
        };
        model.state = CommitState::Run(model.draw_run());
        model
    }

    fn draw_run(&mut self) -> u64 {
        1 + self.rng.geometric(1.0 / self.run_len_mean)
    }

    fn draw_stall(&mut self) -> u64 {
        if self.stall_len_mean <= 0.0 {
            0
        } else {
            // geometric(p) has mean (1-p)/p, so p = 1/(1+s) gives mean s.
            self.rng.geometric(1.0 / (1.0 + self.stall_len_mean))
        }
    }

    /// The long-run IPC this model targets on its core.
    pub fn target_ipc(&self) -> f64 {
        self.target_ipc
    }

    /// Window capacity: the ROB, or one full commit group on a core
    /// whose ROB is narrower than its width.
    fn window_cap(&self) -> u32 {
        self.kind.rob().max(self.kind.width())
    }

    /// Advances one cycle: commit-eligible instructions accumulate in the
    /// window (bounded by the ROB).
    pub fn tick(&mut self) {
        let produce = match &mut self.state {
            CommitState::Run(left) => {
                *left -= 1;
                self.kind.width()
            }
            CommitState::Stall(left) => {
                *left -= 1;
                0
            }
        };
        self.pending = (self.pending + produce).min(self.window_cap());
        // State transition when the current phase expires.
        let expired = matches!(self.state, CommitState::Run(0) | CommitState::Stall(0));
        if expired {
            self.state = if matches!(self.state, CommitState::Run(0)) {
                let s = self.draw_stall();
                if s == 0 {
                    CommitState::Run(self.draw_run())
                } else {
                    CommitState::Stall(s)
                }
            } else {
                CommitState::Run(self.draw_run())
            };
        }
    }

    /// Retires instructions with nothing impeding retirement — each
    /// cycle is a [`CommitModel::tick`] followed by retiring everything
    /// [`CommitModel::retirable`] — until at least `n` have retired,
    /// and returns `(cycles, retired)`. With `exact`, the last cycle
    /// retires only what is left, so exactly `n` retire; without it the
    /// last cycle retires everything retirable and may overshoot `n`.
    /// `n == 0` advances nothing.
    ///
    /// Costs O(phases), not O(cycles): run and idle-stall interiors are
    /// advanced in bulk (see the type docs), with the same resulting
    /// state and random draws as the per-cycle loop.
    pub fn fast_forward(&mut self, n: u64, exact: bool) -> (u64, u64) {
        let width = self.kind.width();
        let (mut cycles, mut retired) = (0u64, 0u64);
        while retired < n {
            let left = n - retired;
            let bulk = match self.state {
                // Run interior: every cycle deposits and retires a full
                // commit group, leaving the window unchanged.
                CommitState::Run(run) if run > 1 && self.pending + width <= self.window_cap() => {
                    let k = (run - 1).min(left / width as u64);
                    self.state = CommitState::Run(run - k);
                    retired += k * width as u64;
                    k
                }
                CommitState::Run(_) => 0,
                CommitState::Stall(_) => self.skip_idle_stall(),
            };
            if bulk > 0 {
                cycles += bulk;
                continue;
            }
            self.tick();
            let avail = self.retirable();
            let take = if exact {
                avail.min(left.min(u32::MAX as u64) as u32)
            } else {
                avail
            };
            self.retire(take);
            retired += take as u64;
            cycles += 1;
        }
        (cycles, retired)
    }

    /// Advances through all but the last cycle of an idle stall — a
    /// stall with an empty window, where no cycle can retire anything —
    /// and returns the cycles advanced: exactly what that many `tick`s
    /// do. The stall's last cycle, which draws the next run, is left to
    /// [`CommitModel::tick`]. Returns 0, changing nothing, outside an
    /// idle stall or on its last cycle.
    pub fn skip_idle_stall(&mut self) -> u64 {
        match self.state {
            CommitState::Stall(stall) if stall > 1 && self.pending == 0 => {
                self.state = CommitState::Stall(1);
                stall - 1
            }
            _ => 0,
        }
    }

    /// Instructions available to retire this cycle (bounded by width).
    pub fn retirable(&self) -> u32 {
        self.pending.min(self.kind.width())
    }

    /// Instructions currently waiting in the window.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Consumes `n` retired instructions from the window.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`CommitModel::retirable`].
    pub fn retire(&mut self, n: u32) {
        assert!(n <= self.retirable(), "cannot retire beyond window");
        self.pending -= n;
    }

    /// The modelled core kind.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }
}

/// Executes software handlers on the monitor's hardware context.
///
/// A handler is a straight-line instruction count; each cycle the
/// executor retires `min(ipc, slots)` of its instructions, where
/// `slots` is the issue slots the monitor thread got that cycle (the
/// whole width when it has the core to itself, fewer under SMT
/// contention — see [`SmtArbiter`]).
#[derive(Clone, Debug)]
pub struct HandlerExec {
    ipc: f64,
    credit: f64,
    remaining: f64,
}

impl HandlerExec {
    /// Creates an idle executor for a core kind.
    pub fn new(kind: CoreKind) -> Self {
        HandlerExec {
            ipc: kind.handler_ipc(),
            credit: 0.0,
            remaining: 0.0,
        }
    }

    /// Returns `true` while a handler is in flight.
    #[inline]
    pub fn busy(&self) -> bool {
        self.remaining > 0.0
    }

    /// Starts a handler of `instrs` instructions.
    ///
    /// # Panics
    ///
    /// Panics if a handler is already in flight.
    pub fn start(&mut self, instrs: u32) {
        assert!(!self.busy(), "handler executor is busy");
        self.remaining = instrs as f64;
        self.credit = 0.0;
    }

    /// Advances one cycle with `slots` issue slots available to the
    /// monitor thread this cycle (SMT slot-level sharing): the handler
    /// retires `min(ipc, slots)` instructions. Returns `true` on
    /// completion.
    pub fn tick_slots(&mut self, slots: u32) -> bool {
        if !self.busy() {
            return false;
        }
        self.credit += self.ipc.min(slots as f64);
        if self.credit >= self.remaining {
            self.remaining = 0.0;
            self.credit = 0.0;
            true
        } else {
            false
        }
    }
}

/// Issue-bandwidth arbitration for the fine-grained dual-threaded core
/// (single-core system, Figure 8(b)).
///
/// Slot-level sharing: when both hardware threads have work, the
/// application thread may use up to half the issue width and the
/// monitor thread runs in whatever slots remain; a thread alone gets
/// the whole core. On a 1-wide core the threads alternate cycles.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmtArbiter {
    app_credit: f64,
}

impl SmtArbiter {
    /// Creates an arbiter.
    pub fn new() -> Self {
        SmtArbiter::default()
    }

    /// Computes this cycle's allocation.
    ///
    /// Returns `(app_slots, monitor_slots)`: how many instructions the
    /// application may retire this cycle, and the issue slots left for
    /// the monitor thread (feed to [`HandlerExec::tick_slots`]).
    pub fn arbitrate(
        &mut self,
        width: u32,
        app_wants: u32,
        monitor_active: bool,
    ) -> (u32, u32) {
        if !monitor_active {
            self.app_credit = 0.0;
            return (app_wants.min(width), width);
        }
        if app_wants == 0 {
            self.app_credit = 0.0;
            return (0, width);
        }
        if width == 1 {
            // Fine-grained alternation on a 1-wide core.
            self.app_credit += 0.5;
            let slots = (self.app_credit.floor() as u32).min(1);
            self.app_credit -= slots as f64;
            return (slots, 1 - slots);
        }
        // Both active on a wider core: the app is capped at half the
        // width; the monitor runs in the remaining slots.
        let slots = app_wants.min(width / 2);
        (slots, width - slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_kind_tables() {
        assert_eq!(CoreKind::InOrder1.width(), 1);
        assert_eq!(CoreKind::AggrOoO4.rob(), 96);
        assert!(CoreKind::AggrOoO4.handler_ipc() > CoreKind::InOrder1.handler_ipc());
        assert_eq!(CoreKind::AggrOoO4.app_ipc_scale(), 1.0);
        for k in CoreKind::ALL {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn commit_model_hits_target_ipc() {
        for &(kind, ipc) in &[
            (CoreKind::AggrOoO4, 1.1),
            (CoreKind::LeanOoO2, 1.1),
            (CoreKind::InOrder1, 0.9),
        ] {
            let profile = CommitProfile::new(ipc, 100.0);
            let mut m = CommitModel::new(kind, profile, Rng::seed_from(7));
            let cycles = 2_000_000u64;
            let mut retired = 0u64;
            for _ in 0..cycles {
                m.tick();
                let n = m.retirable();
                m.retire(n);
                retired += n as u64;
            }
            let got = retired as f64 / cycles as f64;
            let want = m.target_ipc();
            assert!(
                (got - want).abs() / want < 0.08,
                "{kind:?}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn commit_window_respects_rob_under_backpressure() {
        let profile = CommitProfile::new(2.0, 50.0);
        let mut m = CommitModel::new(CoreKind::AggrOoO4, profile, Rng::seed_from(3));
        for _ in 0..10_000 {
            m.tick(); // never retire: window must saturate at the ROB
        }
        assert_eq!(m.pending(), CoreKind::AggrOoO4.rob());
        assert_eq!(m.retirable(), CoreKind::AggrOoO4.width());
    }

    #[test]
    #[should_panic(expected = "cannot retire beyond window")]
    fn retire_beyond_window_panics() {
        let profile = CommitProfile::new(1.0, 10.0);
        let mut m = CommitModel::new(CoreKind::AggrOoO4, profile, Rng::seed_from(3));
        m.retire(1);
    }

    /// Cycles `h` takes to finish a fresh `instrs`-instruction handler
    /// with `slots` issue slots every cycle.
    fn handler_cycles(h: &mut HandlerExec, instrs: u32, slots: u32) -> u32 {
        h.start(instrs);
        let mut cycles = 1;
        while !h.tick_slots(slots) {
            cycles += 1;
        }
        assert!(!h.busy(), "completion leaves the executor idle");
        cycles
    }

    #[test]
    fn handler_exec_takes_expected_cycles() {
        // IPC 3 on the whole 4-wide core: IPC is the limit.
        let mut h = HandlerExec::new(CoreKind::AggrOoO4);
        assert_eq!(handler_cycles(&mut h, 9, CoreKind::AggrOoO4.width()), 3);
        // An idle executor ignores ticks.
        assert!(!h.tick_slots(4));
    }

    #[test]
    fn handler_exec_smt_scale_slows_execution() {
        // One slot per cycle (SMT contention): one instruction a cycle,
        // below the core's handler IPC of 3.
        let mut h = HandlerExec::new(CoreKind::AggrOoO4);
        assert_eq!(handler_cycles(&mut h, 9, 1), 9);
    }

    #[test]
    #[should_panic(expected = "handler executor is busy")]
    fn handler_start_while_busy_panics() {
        let mut h = HandlerExec::new(CoreKind::InOrder1);
        h.start(10);
        h.start(10);
    }

    #[test]
    fn smt_arbiter_splits_bandwidth() {
        let mut arb = SmtArbiter::new();
        // Monitor inactive: app gets everything.
        assert_eq!(arb.arbitrate(4, 4, false), (4, 4));
        // Both active: app capped at half, monitor gets the rest.
        assert_eq!(arb.arbitrate(4, 4, true), (2, 2));
        // Light app demand leaves the monitor almost the whole core.
        assert_eq!(arb.arbitrate(4, 1, true), (1, 3));
    }

    #[test]
    fn smt_arbiter_alternates_on_narrow_core() {
        let mut arb = SmtArbiter::new();
        let mut app = 0;
        let mut monitor = 0;
        for _ in 0..10 {
            let (a, m) = arb.arbitrate(1, 1, true);
            app += a;
            monitor += m;
        }
        assert_eq!(app, 5, "width-1 SMT app thread gets every other cycle");
        assert_eq!(monitor, 5);
    }

    #[test]
    fn smt_arbiter_app_idle_gives_monitor_full_core() {
        let mut arb = SmtArbiter::new();
        assert_eq!(arb.arbitrate(4, 0, true), (0, 4));
    }

    #[test]
    fn handler_tick_slots_limits_throughput() {
        let mut h = HandlerExec::new(CoreKind::AggrOoO4); // IPC 3
        h.start(9);
        // 2 slots per cycle: 9 instrs need ceil(9/2) = 5 cycles.
        let mut cycles = 0;
        while !h.tick_slots(2) {
            cycles += 1;
        }
        cycles += 1;
        assert_eq!(cycles, 5);
        // With ample slots, IPC is the limit.
        h.start(9);
        let mut cycles = 0;
        while !h.tick_slots(8) {
            cycles += 1;
        }
        cycles += 1;
        assert_eq!(cycles, 3);
    }
}

//! The pluggable monitor registry: name → monitor factory.
//!
//! FADE is a *programmable* accelerator — the hardware is fixed, the
//! monitors are software. The registry is where that programmability
//! meets the harness: every place a monitor is named (session builders,
//! experiment matrices, CLI flags, trace-replay drivers) resolves the
//! name here, so an out-of-tree tool registers itself once and is then
//! usable everywhere a paper monitor is.
//!
//! # Example
//!
//! ```
//! use fade_system::{MonitorRegistry, Session};
//! use fade_trace::bench;
//!
//! // The five paper monitors are pre-registered…
//! let mut registry = MonitorRegistry::builtin();
//! assert!(registry.contains("MemLeak"));
//!
//! // …and a custom tool joins them with one call (here: a fresh
//! // AddrCheck standing in for an out-of-tree monitor type).
//! registry.register(|| Box::new(fade_monitors::AddrCheck::new()));
//! let monitor = registry.create("AddrCheck").unwrap();
//! assert_eq!(monitor.name(), "AddrCheck");
//!
//! // Unknown names fail with a typed error that lists what exists.
//! let err = registry.create("NoSuchCheck").err().unwrap();
//! assert!(err.known.iter().any(|n| n == "TaintCheck"));
//! ```

use fade_monitors::Monitor;

/// A monitor constructor: each call returns a fresh, independent
/// instance (sessions own their monitor exclusively, so a shared
/// instance would alias state across runs).
pub(crate) type MonitorFactory = Box<dyn Fn() -> Box<dyn Monitor> + Send + Sync>;

/// A name was not found in a [`MonitorRegistry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownMonitor {
    /// The name that failed to resolve.
    pub(crate) name: String,
    /// Every name the registry does know, in registration order.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown monitor {:?} (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownMonitor {}

/// An extensible, thread-shareable table of monitor factories.
///
/// Lookup is case-insensitive (matching the historical
/// `monitor_by_name` behavior); registration keeps the monitor's own
/// spelling for display. Registering a name that already exists
/// replaces the old factory, so downstream code can override a builtin.
pub struct MonitorRegistry {
    factories: Vec<(String, MonitorFactory)>,
}

impl MonitorRegistry {
    /// An empty registry (no monitors at all).
    pub fn empty() -> Self {
        MonitorRegistry { factories: Vec::new() }
    }

    /// The registry of the five paper monitors (Section 6).
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(|| Box::new(fade_monitors::AddrCheck::new()));
        r.register(|| Box::new(fade_monitors::AtomCheck::new()));
        r.register(|| Box::new(fade_monitors::MemCheck::new()));
        r.register(|| Box::new(fade_monitors::MemLeak::new()));
        r.register(|| Box::new(fade_monitors::TaintCheck::new()));
        r
    }

    /// Registers a factory under the name its monitors report
    /// ([`Monitor::name`] of a probe instance — the name cannot drift
    /// from the monitor it constructs). Replaces any previous factory
    /// with the same (case-insensitive) name.
    pub fn register(
        &mut self,
        factory: impl Fn() -> Box<dyn Monitor> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = factory().name().to_string();
        self.factories
            .retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.factories.push((name, Box::new(factory)));
        self
    }

    /// Constructs a fresh monitor by (case-insensitive) name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownMonitor`] — including every registered name —
    /// when nothing matches.
    pub fn create(&self, name: &str) -> Result<Box<dyn Monitor>, UnknownMonitor> {
        self.factories
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, f)| f())
            .ok_or_else(|| UnknownMonitor {
                name: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// `true` if `name` resolves (case-insensitively).
    pub fn contains(&self, name: &str) -> bool {
        self.factories
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl Default for MonitorRegistry {
    /// The builtin (paper-monitor) registry.
    fn default() -> Self {
        Self::builtin()
    }
}

impl std::fmt::Debug for MonitorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matches_paper_set() {
        let r = MonitorRegistry::builtin();
        assert_eq!(
            r.names(),
            vec!["AddrCheck", "AtomCheck", "MemCheck", "MemLeak", "TaintCheck"]
        );
        for name in r.names() {
            assert_eq!(r.create(name).unwrap().name(), name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let r = MonitorRegistry::builtin();
        assert_eq!(r.create("memleak").unwrap().name(), "MemLeak");
        assert!(r.contains("ADDRCHECK"));
    }

    #[test]
    fn unknown_name_reports_known_set() {
        let r = MonitorRegistry::builtin();
        let err = match r.create("nope") {
            Ok(m) => panic!("'nope' resolved to {}", m.name()),
            Err(e) => e,
        };
        assert_eq!(err.name, "nope");
        assert_eq!(err.known.len(), 5);
        assert!(err.to_string().contains("MemCheck"));
    }

    #[test]
    fn register_replaces_same_name() {
        let mut r = MonitorRegistry::builtin();
        let before = r.names().len();
        r.register(|| Box::new(fade_monitors::MemLeak::new()));
        assert_eq!(r.names().len(), before);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MonitorRegistry>();
    }
}

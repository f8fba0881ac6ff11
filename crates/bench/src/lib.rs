//! # fade-bench
//!
//! The benchmark harness: one binary per paper table, figure or study
//! (run with `cargo run -p fade-bench --release --bin
//! <figN|table2|power|ablation|sensitivity>`) and shared table-printing
//! helpers.
//!
//! The paper's sections share one [`experiments::Runs`] table, so each
//! distinct (monitor, benchmark, configuration, FADE program) point
//! runs once however many sections read it. `Runs` runs each batch of
//! new points sharded across [`default_workers`] threads
//! (`FADE_WORKERS`, default: all cores) unless it is given a count.

pub mod experiments;
mod table;

pub use table::Table;

/// Default warmup instructions per measurement.
pub(crate) const WARMUP: u64 = 30_000;
/// Default measured instructions per run (binaries may scale this with
/// the `FADE_MEASURE` environment variable).
pub(crate) const MEASURE: u64 = 150_000;

/// Reads the measurement length, honouring `FADE_MEASURE`.
///
/// # Panics
///
/// Panics if `FADE_MEASURE` is set to anything but an instruction
/// count.
pub(crate) fn measure_len() -> u64 {
    env_setting("FADE_MEASURE", "an instruction count").unwrap_or(MEASURE)
}

/// Reads the warmup length, honouring `FADE_WARMUP`.
///
/// # Panics
///
/// Panics if `FADE_WARMUP` is set to anything but an instruction
/// count.
pub(crate) fn warmup_len() -> u64 {
    env_setting("FADE_WARMUP", "an instruction count").unwrap_or(WARMUP)
}

/// Worker count for a batch of experiments: `FADE_WORKERS` if set,
/// else the machine's available parallelism.
///
/// # Panics
///
/// Panics if `FADE_WORKERS` is set to anything but a positive count.
pub fn default_workers() -> usize {
    env_setting::<std::num::NonZeroUsize>("FADE_WORKERS", "a positive worker count")
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, |n| n.get())
}

/// The harness setting in environment variable `name`, parsed; `None`
/// when it is unset or empty (the caller's default applies).
///
/// # Panics
///
/// Panics when the variable is set but does not parse (`what` names
/// the expected value in the message): silently running the default on
/// a typo would be worse.
pub(crate) fn env_setting<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => None,
        Ok(v) if v.is_empty() => None,
        Ok(v) => match v.parse() {
            Ok(x) => Some(x),
            Err(_) => panic!("{name} must be {what}, got {v:?}"),
        },
        Err(e) => panic!("{name} must be {what}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "FADE_TEST_SETTING_BAD must be an instruction count, got \"10k\"")]
    fn garbage_harness_setting_fails_loudly() {
        std::env::set_var("FADE_TEST_SETTING_BAD", "10k");
        env_setting::<u64>("FADE_TEST_SETTING_BAD", "an instruction count");
    }
}

//! # fade-bench
//!
//! The benchmark harness: one binary per paper table/figure (run with
//! `cargo run -p fade-bench --release --bin <figN|table2|power>`) and
//! shared table-printing helpers.
//!
//! Experiments are declared as data ([`Experiment`]) and executed by
//! the sharded [`ExperimentMatrix`] driver — every paper figure is one
//! matrix, run across `FADE_WORKERS` threads (default: all cores).

pub mod experiments;
mod matrix;
mod table;

pub use matrix::{
    default_workers, drain_timings, Experiment, ExperimentMatrix, MatrixResult, MatrixTiming,
};
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

//! # fade-sim
//!
//! Cycle-level simulation substrate for the FADE reproduction.
//!
//! The paper evaluates FADE with Flexus full-system simulation (Section
//! 6). This crate provides the equivalent laptop-scale substrate:
//!
//! * [`Rng`] — deterministic in-crate RNG (SplitMix64 seeding +
//!   xoshiro256++ stream) so every experiment is bit-reproducible,
//! * [`BoundedQueue`] — the decoupling queues of Figure 1: FIFOs with
//!   an optional bound that hand a rejected value back (backpressure),
//! * [`CoreKind`] / [`CommitModel`] / [`HandlerExec`] — the three core
//!   microarchitectures of Table 1 (in-order 1-way, lean OoO 2-way/48-ROB,
//!   aggressive OoO 4-way/96-ROB), modelled at the level FADE cares
//!   about: bursty retirement and handler execution throughput,
//! * [`MemLatency`] — Table 1 memory-hierarchy latencies,
//! * statistics helpers ([`LogHistogram`], [`gmean`]),
//! * the sampling estimator behind batched timing
//!   ([`RatioEstimator`]) and the [`CongestionCarry`] that seeds its
//!   windows.

mod cache;
mod core_model;
mod queue;
mod rng;
mod stats;

pub use cache::MemLatency;
pub use core_model::{CommitModel, CommitProfile, CoreKind, HandlerExec, SmtArbiter};
pub use queue::{BoundedQueue, QueueDepth};
pub use rng::Rng;
pub use stats::{
    gmean, t_critical_975, Cdf, CongestionCarry, CycleCi, CycleEstimate, LogHistogram,
    RatioEstimator, WindowSample,
};

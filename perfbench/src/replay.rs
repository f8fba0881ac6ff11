//! The replay workloads: a pool of `.fadet` traces recorded from the
//! seed, each replayed whole through a batched [`fade_system::Session`]
//! back to back by one client thread (a closed loop), every session
//! checked against the trace's cycle-accurate reference.

use fade_system::{Engine, Session, SessionRunError};
use fade_trace::bench;

use crate::probe::probe;
use crate::trace::{
    mix_seed, record, reference, replay, RecordTimes, Reference, Simulated, Trace, Tracing, Verdict,
};
use crate::{closed_loop, end_to_end, ratio, timed_setups, Outcome};

/// Traces in a replay pool.
pub const POOL: usize = 12;
/// Monitored events per replayed trace.
pub const EVENTS: u64 = 100_000;

/// A replay workload's inputs and references.
pub struct Pool {
    /// The recorded traces.
    pub traces: Vec<Trace>,
    /// Their cycle-accurate references, index-aligned.
    pub refs: Vec<Reference>,
    /// Host time recording took.
    pub times: RecordTimes,
}

/// Records `POOL` traces of `bench_name` sized for `monitor` and
/// computes their references.
pub fn setup(bench_name: &str, monitor: &'static str, seed: u64, pool: usize, events: u64) -> Pool {
    let bench = bench::by_name(bench_name).expect("workload benchmarks exist");
    let mut times = RecordTimes::default();
    let traces: Vec<Trace> = (0..pool as u64)
        .map(|i| record(&bench, monitor, mix_seed(seed, i), events, &mut times))
        .collect();
    let refs = traces.iter().map(reference).collect();
    Pool {
        traces,
        refs,
        times,
    }
}

/// Checks one finished session against its trace's reference and the
/// simulated statistics earlier replays of the same trace produced.
fn gate(session: &fade_system::Session, r: &Reference, seen: &mut Option<Simulated>) -> bool {
    let simulated = Simulated::of(session);
    let repeat_ok = match seen {
        Some(first) => *first == simulated,
        None => {
            *seen = Some(simulated);
            true
        }
    };
    repeat_ok && Verdict::of(session) == r.verdict && *session.state() == r.state
}

/// Runs the timed closed loop for `seconds`; with `trace`, alternates
/// traced and untraced replays of each trace and reports per-layer
/// metrics instead of end-to-end ones.
pub fn run(pool: &Pool, setup_s: f64, seconds: f64, trace_mode: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut seen: Vec<Option<Simulated>> = vec![None; pool.traces.len()];
    let mut check = |k: usize, session: Result<Session, SessionRunError>| match session {
        Ok(s) if gate(&s, &pool.refs[k], &mut seen[k]) => Some(s.events_seen()),
        _ => None,
    };
    // One untimed pass over the pool first: host allocations settle and
    // each trace's simulated statistics are on record before timing.
    for (k, trace) in pool.traces.iter().enumerate() {
        out.attempted += 1;
        if check(k, replay(trace, Engine::batched(), None)).is_none() {
            out.failed += 1;
        }
    }
    let run =
        |k: usize, tracing: Option<&Tracing>| replay(&pool.traces[k], Engine::batched(), tracing);
    let t = closed_loop(&mut out, pool.traces.len(), seconds, trace_mode, run, check);
    if !trace_mode {
        end_to_end(&mut out, setup_s, t.events, t.wall_s, &t.latencies_ms);
        return out;
    }

    let mut l = t.layers();
    probe(&pool.traces, Some(&pool.refs)).fill(&mut l);
    l.decode_ns_per_record = ratio(t.source.ns as f64, t.source.units as f64);
    l.decode_share = ratio(t.source.ns as f64, t.traced_ns());
    let generate = pool.times.generate;
    l.generate_ns_per_record = ratio(generate.ns as f64, generate.units as f64);
    l.record_s = pool.times.encode_s;
    l.unattributed_share = 1.0 - l.decode_share - l.handler_share - l.window_share;
    l.render(&mut out);
    out
}

/// Runs a replay workload end to end: set-up (timed `setups` times),
/// then the timed loop.
pub fn workload(
    bench_name: &str,
    monitor: &'static str,
    seed: u64,
    seconds: f64,
    trace_mode: bool,
    setups: usize,
) -> Outcome {
    let (pool, setup_s) = timed_setups(setups, || setup(bench_name, monitor, seed, POOL, EVENTS));
    run(&pool, setup_s, seconds, trace_mode)
}

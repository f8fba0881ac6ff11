//! Load harness: drive a `faded` daemon with N concurrent tenants and
//! measure sustained aggregate event throughput and report latency.
//!
//! [`measure_service_throughput`] spawns an in-process daemon on a
//! temporary socket; [`measure_service_throughput_at`] points the same
//! load at an already-running daemon (what the CI smoke step does with
//! the real `faded` binary).
//!
//! Each tenant speaks [`crate::stream_session`]'s own send and reply
//! halves (a rejected upload surfaces as the daemon's typed ERROR) with
//! a clock between them: report latency runs from FINISH sent to END
//! received, how long after submitting a trace the verdict arrives.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fade_system::record_trace_prefix;
use fade_trace::{bench, encode_trace, TraceMeta};

use crate::client::{self, ClientError};
use crate::protocol::{EngineSel, Hello};
use crate::server::{engine_name, Faded, ServerConfig};

/// The (benchmark, monitor) mix tenants cycle through — one point per
/// FADE monitor class so the load is heterogeneous, like real
/// multi-tenant traffic.
pub const LOAD_POINTS: [(&str, &str); 4] = [
    ("hmmer", "AddrCheck"),
    ("gcc", "MemLeak"),
    ("mcf", "MemCheck"),
    ("hmmer", "AtomCheck"),
];

/// Knobs for one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Concurrent tenant connections.
    pub tenants: usize,
    /// Daemon worker threads (only used when the harness spawns the
    /// daemon itself).
    pub workers: usize,
    /// Monitored events recorded into each tenant's trace.
    pub events_per_tenant: u64,
    /// Engine every tenant requests.
    pub engine: EngineSel,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            tenants: 8,
            workers: 4,
            events_per_tenant: 50_000,
            engine: EngineSel::Batched,
        }
    }
}

/// What one load run measured.
#[derive(Clone, Debug)]
pub struct ServiceThroughputReport {
    /// Concurrent tenant connections driven.
    pub tenants: usize,
    /// Daemon worker threads serving them.
    pub workers: usize,
    /// Engine the tenants requested.
    pub engine: &'static str,
    /// Total monitored events across all tenants.
    pub events: u64,
    /// Total application instructions across all tenants.
    pub instrs: u64,
    /// Total REPORT lines received across all tenants.
    pub reports: u64,
    /// Wall-clock seconds from first connect to last END.
    pub wall_s: f64,
    /// Median FINISH→END latency (seconds).
    pub p50_latency_s: f64,
    /// Worst FINISH→END latency (seconds).
    pub max_latency_s: f64,
}

impl ServiceThroughputReport {
    /// Sustained aggregate throughput in monitored events per second.
    pub fn aggregate_rate(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A collision-free socket path under the system temp directory.
pub fn temp_socket_path(tag: &str) -> PathBuf {
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("faded-{tag}-{}-{seq}.sock", std::process::id()))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (((sorted.len() - 1) as f64) * p).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Pre-encodes one `.fadet` buffer per tenant, cycling [`LOAD_POINTS`].
fn tenant_traces(opts: &LoadOptions) -> Vec<(Hello, Vec<u8>)> {
    (0..opts.tenants)
        .map(|i| {
            let (bench_name, monitor) = LOAD_POINTS[i % LOAD_POINTS.len()];
            let b = bench::by_name(bench_name).expect("load point benchmark exists");
            let seed = 1000 + i as u64;
            let (records, _instrs) =
                record_trace_prefix(&b, monitor, seed, opts.events_per_tenant);
            let bytes = encode_trace(&TraceMeta::new(bench_name, seed), &records);
            let hello = Hello {
                engine: opts.engine,
                seed: Some(seed),
                ..Hello::new(format!("tenant-{i}"), monitor)
            };
            (hello, bytes)
        })
        .collect()
}

/// Drives `opts.tenants` concurrent sessions against the daemon at
/// `socket` and aggregates the result. Every tenant must succeed — a
/// load run with failed tenants is not a throughput number.
pub fn measure_service_throughput_at(
    socket: &Path,
    opts: &LoadOptions,
) -> Result<ServiceThroughputReport, ClientError> {
    let sessions = tenant_traces(opts);
    let started = Instant::now();
    let outcomes: Vec<Result<(u64, u64, u64, f64), ClientError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .map(|(hello, trace)| {
                    scope.spawn(move || {
                        let mut reader = client::send(socket, hello, trace)?;
                        let finish_at = Instant::now();
                        let mut reports = 0u64;
                        let end = client::replies(&mut reader, |_| reports += 1)?;
                        Ok((end.events, end.instrs, reports, finish_at.elapsed().as_secs_f64()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread must not panic"))
                .collect()
        });
    let wall_s = started.elapsed().as_secs_f64();
    let (mut events, mut instrs, mut reports) = (0u64, 0u64, 0u64);
    let mut latencies = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (e, i, r, l) = outcome?;
        events += e;
        instrs += i;
        reports += r;
        latencies.push(l);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Ok(ServiceThroughputReport {
        tenants: opts.tenants,
        workers: opts.workers,
        engine: engine_name(opts.engine),
        events,
        instrs,
        reports,
        wall_s,
        p50_latency_s: percentile(&latencies, 0.50),
        max_latency_s: percentile(&latencies, 1.0),
    })
}

/// Spawns an in-process daemon on a temporary socket, runs
/// [`measure_service_throughput_at`] against it, and shuts it down.
pub fn measure_service_throughput(
    opts: &LoadOptions,
) -> Result<ServiceThroughputReport, ClientError> {
    let socket = temp_socket_path("load");
    let daemon = Faded::spawn(ServerConfig::new(&socket).workers(opts.workers))
        .map_err(ClientError::Io)?;
    let result = measure_service_throughput_at(&socket, opts);
    daemon.shutdown();
    result
}

#[cfg(test)]
mod tests {
    /// For up to 100 samples the 99th percentile is the max, so the
    /// report carries only the median and the max.
    #[test]
    fn p99_of_eight_samples_is_the_max() {
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(super::percentile(&xs, 0.99), 8.0);
    }
}

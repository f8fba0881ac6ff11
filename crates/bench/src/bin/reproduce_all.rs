//! Runs every experiment of the paper's evaluation section in order,
//! then the design-choice ablations and hardware sensitivity sweeps,
//! printing paper-style tables, then measures full-system and serving
//! throughput and dumps everything to
//! `BENCH_pipeline.json` (the machine-readable seed of the repo's
//! performance trajectory). Scale the window with FADE_MEASURE /
//! FADE_WARMUP (instructions).
//!
//! The sections share one `Runs` table, so each distinct (monitor,
//! benchmark, configuration, FADE program) point runs once: a section
//! runs only the points no earlier section ran, as one batch sharded
//! across `--workers N` threads (default: `FADE_WORKERS`, else all
//! cores; the service section uses the same count). The JSON's
//! `matrix_results` rows record, for each section that ran new points,
//! their count, the worker count, the sharded wall-clock and the
//! serial-equivalent time (the sum of per-run wall clocks — what one
//! worker would have paid). A section that only reads earlier points
//! writes no row.
//!
//! Stdout carries only section banners, figures and tables, so at
//! defaults it is the figure golden `tests/golden/figures.txt`. Every
//! line with a wall-clock time or a host-dependent count (worker count,
//! matrix timings, throughput rows) goes to stderr; those numbers are
//! in `BENCH_pipeline.json` too.
//!
//! Every figure and table runs the exact cycle engine; the batched
//! engine appears only in the system and service throughput rows.
//!
//! `--record-dir DIR` freezes each throughput point's trace prefix to
//! `DIR/<bench>-<monitor>.fadet`; `--replay-dir DIR` drives the system
//! throughput section from those files instead of the generator (both
//! flags together record then immediately replay). Replayed runs keep
//! the differential checks: both engines consume the identical frozen
//! trace and must agree on every monitor-visible result.

use std::path::{Path, PathBuf};

use fade_bench::experiments::{self as ex, MatrixTiming, Runs};
use fade_report::{JsonDocument, JsonObject};
use fade_service::{measure_service_throughput, EngineSel, LoadOptions};
use fade_system::{measure_system_throughput_records, record_trace_prefix, SystemConfig};
use fade_trace::{bench, read_trace_file, write_trace_file, TraceMeta, TraceRecord};

/// (benchmark, monitor) points for the throughput dump: one
/// high-filtering and one low-filtering workload.
const PIPELINE_POINTS: [(&str, &str); 2] = [("hmmer", "AddrCheck"), ("gcc", "MemLeak")];
const PIPELINE_EVENTS: u64 = 200_000;

#[derive(Debug, Default)]
struct Args {
    workers: Option<usize>,
    record_dir: Option<PathBuf>,
    replay_dir: Option<PathBuf>,
}

/// Parses the arguments after the program name, rejecting unknown
/// flags, missing values and flags given as values.
fn parse_args(args: &[String]) -> Result<Args, String> {
    const FLAGS: [&str; 3] = ["--workers", "--record-dir", "--replay-dir"];
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().filter(|v| !v.starts_with("--"));
        match (flag.as_str(), value.map(String::as_str)) {
            ("--workers", Some(n)) => match n.parse::<usize>() {
                Ok(n) if n > 0 => out.workers = Some(n),
                _ => return Err("--workers expects a positive integer".into()),
            },
            ("--record-dir", Some(d)) => out.record_dir = Some(d.into()),
            ("--replay-dir", Some(d)) => out.replay_dir = Some(d.into()),
            (f, None) if FLAGS.contains(&f) => return Err(format!("{flag} expects a value")),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

/// The `.fadet` path a pipeline point records to / replays from.
fn trace_path(dir: &Path, bench_name: &str, monitor: &str) -> PathBuf {
    dir.join(format!("{bench_name}-{monitor}.fadet"))
}

/// One pre-generated pipeline-point prefix, shared by the record and
/// (live) system sections so the trace is generated once.
struct PointPrefix {
    records: Vec<TraceRecord>,
    instrs: u64,
}

fn point_prefixes() -> Vec<PointPrefix> {
    let cfg = SystemConfig::fade_single_core();
    PIPELINE_POINTS
        .iter()
        .map(|(bench_name, monitor)| {
            let b = bench::by_name(bench_name).unwrap();
            let (records, instrs) = record_trace_prefix(&b, monitor, cfg.seed, PIPELINE_EVENTS);
            PointPrefix { records, instrs }
        })
        .collect()
}

/// Freezes each pipeline point's trace prefix to `dir`.
fn record_traces(dir: &Path, prefixes: &[PointPrefix]) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    for ((bench_name, monitor), p) in PIPELINE_POINTS.iter().zip(prefixes) {
        let cfg = SystemConfig::fade_single_core();
        let path = trace_path(dir, bench_name, monitor);
        let meta = TraceMeta::new(*bench_name, cfg.seed);
        write_trace_file(&path, &meta, &p.records)
            .unwrap_or_else(|e| panic!("record {}: {e}", path.display()));
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "  recorded {} ({} records, {} instrs, {:.1} MiB, {:.2} B/record)",
            path.display(),
            p.records.len(),
            p.instrs,
            bytes as f64 / (1 << 20) as f64,
            bytes as f64 / p.records.len() as f64,
        );
    }
}

/// Loads a recorded pipeline point back, validating its provenance.
fn load_trace(dir: &Path, bench_name: &str, monitor: &str, seed: u64) -> (Vec<TraceRecord>, u64) {
    let path = trace_path(dir, bench_name, monitor);
    let (meta, records) =
        read_trace_file(&path).unwrap_or_else(|e| panic!("replay {}: {e}", path.display()));
    assert_eq!(
        (meta.bench.as_str(), meta.seed),
        (bench_name, seed),
        "{} was recorded for a different workload",
        path.display()
    );
    let instrs = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Instr(_)))
        .count() as u64;
    (records, instrs)
}

/// Full-system (commit process + queues + monitor thread) throughput:
/// cycle-accurate vs batched execution over the same 200k-event trace
/// prefix — generated live, or replayed from `--replay-dir`'s recorded
/// files. Each measurement also differentially checks bit-exactness of
/// monitor-visible results between the two engines.
fn system_json(replay_dir: Option<&Path>, prefixes: Vec<PointPrefix>) -> Vec<String> {
    let mut rows = Vec::new();
    for ((bench_name, monitor), p) in PIPELINE_POINTS.iter().copied().zip(prefixes) {
        let b = bench::by_name(bench_name).unwrap();
        let cfg = SystemConfig::fade_single_core();
        let (records, instrs) = match replay_dir {
            Some(dir) => load_trace(dir, bench_name, monitor, cfg.seed),
            None => (p.records, p.instrs),
        };
        let source = if replay_dir.is_some() { "replay" } else { "live" };
        let r = measure_system_throughput_records(&b, monitor, &cfg, records, instrs);
        eprintln!(
            "  {bench_name}/{monitor} system ({source}): {:>6.2} Mev/s batched, {:>6.2} Mev/s cycle ({:.2}x, {:.0}% fast path, cycle est err {:.1}%)",
            r.batched_rate() / 1e6,
            r.cycle_rate() / 1e6,
            r.speedup(),
            100.0 * r.fast_path_fraction(),
            100.0 * r.cycle_error(),
        );
        rows.push(
            JsonObject::new()
                .str("benchmark", &r.benchmark)
                .str("monitor", &r.monitor)
                .uint("events", r.events)
                .str("source", source)
                .float("events_per_sec_batched", r.batched_rate(), 0)
                .float("events_per_sec_cycle", r.cycle_rate(), 0)
                .float("speedup", r.speedup(), 3)
                .float("fast_path_fraction", r.fast_path_fraction(), 4)
                .uint("exact_cycles", r.exact_cycles)
                .uint("estimated_cycles", r.estimated_cycles)
                .float("cycle_error", r.cycle_error(), 4)
                .opt_float("rel_half_width", r.rel_half_width, 4)
                .uint("sampling_windows", r.windows as u64)
                .uint("carried_seed_cycles", r.carried_seed_cycles)
                .uint("sample_period", r.sample_period)
                .uint("sample_window", r.sample_window)
                .render(),
        );
    }
    rows
}

type Section = (&'static str, fn(&mut Runs) -> String);

/// One JSON row per batch of new points a section ran: the sharding
/// evidence (since schema v4).
fn matrix_json(rows: &[(&str, MatrixTiming)]) -> Vec<String> {
    rows.iter()
        .map(|(section, t)| {
            JsonObject::new()
                .str("section", section)
                .str("matrix", &t.label)
                .uint("experiments", t.experiments as u64)
                .uint("workers", t.workers as u64)
                .float("wall_s", t.wall_s, 3)
                .float("serial_s", t.serial_s, 3)
                .float("speedup", t.speedup(), 3)
                .render()
        })
        .collect()
}

/// Multi-tenant serving throughput (since schema v8): an in-process
/// `faded` daemon on a temporary socket, N concurrent tenants
/// streaming recorded `.fadet` sessions, sustained aggregate event
/// rate and FINISH→END report latency (median and max), on `workers`
/// pool threads (clamped to 2..=8).
fn service_json(workers: usize) -> Vec<String> {
    let opts = LoadOptions {
        tenants: 8,
        workers: workers.clamp(2, 8),
        events_per_tenant: 50_000,
        engine: EngineSel::Batched,
    };
    let r = measure_service_throughput(&opts)
        .unwrap_or_else(|e| panic!("service load run failed: {e}"));
    eprintln!(
        "  {} tenants on {} workers: {:>6.2} Mev/s aggregate, p50 {:.1} ms, max {:.1} ms latency ({} report lines, {:.2}s wall)",
        r.tenants,
        r.workers,
        r.aggregate_rate() / 1e6,
        r.p50_latency_s * 1e3,
        r.max_latency_s * 1e3,
        r.reports,
        r.wall_s,
    );
    vec![JsonObject::new()
        .uint("tenants", r.tenants as u64)
        .uint("workers", r.workers as u64)
        .str("engine", r.engine)
        .uint("events", r.events)
        .uint("instrs", r.instrs)
        .uint("reports", r.reports)
        .float("events_per_sec_aggregate", r.aggregate_rate(), 0)
        .float("p50_latency_s", r.p50_latency_s, 4)
        .float("max_latency_s", r.max_latency_s, 4)
        .float("wall_s", r.wall_s, 3)
        .render()]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("reproduce_all: {e}");
        std::process::exit(2);
    });
    let workers = args.workers.unwrap_or_else(fade_bench::default_workers);
    eprintln!("{workers} workers (override with --workers N)");
    let sections: [Section; 10] = [
        ("Figure 2", ex::fig2),
        ("Figure 3", ex::fig3),
        ("Figure 4", ex::fig4),
        ("Table 2", ex::table2),
        ("Figure 9", ex::fig9),
        ("Figure 10", ex::fig10),
        ("Figure 11", ex::fig11),
        ("Section 7.6", |_| ex::power()),
        ("Ablations", ex::ablation),
        ("Sensitivity", ex::sensitivity),
    ];
    let mut runs = Runs::new(workers);
    let mut matrix_rows: Vec<(&str, MatrixTiming)> = Vec::new();
    for (name, f) in sections {
        println!("================================================================");
        println!("{name}");
        println!("================================================================");
        let ran = runs.timings().len();
        println!("{}", f(&mut runs));
        for t in &runs.timings()[ran..] {
            eprintln!(
                "  [matrix {}: {} experiments on {} workers, {:.2}s sharded vs {:.2}s serial = {:.2}x]",
                t.label,
                t.experiments,
                t.workers,
                t.wall_s,
                t.serial_s,
                t.speedup(),
            );
            matrix_rows.push((name, t.clone()));
        }
    }
    // One generation pass feeds recording and the live system section.
    let prefixes = point_prefixes();
    if let Some(dir) = &args.record_dir {
        println!("================================================================");
        println!("Trace recording ({})", dir.display());
        println!("================================================================");
        record_traces(dir, &prefixes);
    }
    println!("================================================================");
    println!("System throughput (batched engine vs. cycle engine)");
    println!("================================================================");
    let system_rows = system_json(args.replay_dir.as_deref(), prefixes);
    println!("================================================================");
    println!("Service throughput (faded daemon, concurrent tenants)");
    println!("================================================================");
    let service_rows = service_json(workers);
    let matrix_rows = matrix_json(&matrix_rows);
    let json = JsonDocument::new("fade-pipeline-throughput/v12")
        .section("system_results", system_rows)
        .section("matrix_results", matrix_rows)
        .section("service_results", service_rows)
        .render();
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse("--workers 4 --record-dir r --replay-dir p").unwrap();
        assert_eq!(a.workers, Some(4));
        assert_eq!((a.record_dir, a.replay_dir), (Some("r".into()), Some("p".into())));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for (line, names) in [
            ("--mdoe batched", "--mdoe"),
            ("--help", "unknown argument"),
            ("--record-dir --replay-dir d", "--record-dir"),
            ("--workers 2 --replay-dir", "--replay-dir"),
            ("--workers", "--workers"),
            ("--mode batched", "unknown argument \"--mode\""),
            ("--workers 0", "--workers"),
        ] {
            let e = parse(line).unwrap_err();
            assert!(e.contains(names), "{line}: {e}");
        }
    }
}

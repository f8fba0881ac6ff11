//! The paper's experiments, one function per table, figure or study:
//! the evaluation's figures and Table 2, Section 7.6's area and power,
//! the design-choice ablations and the hardware sensitivity sweeps.
//!
//! Each function *declares* its grid of simulation points with one
//! [`Runs::run`] call, then renders paper-style text table(s) from
//! [`Runs::get`]. Table 2 and Section 7.6 also print the paper's
//! reference values. The `reproduce_all` binary calls every one of
//! these; its stdout is the figure golden `tests/golden/figures.txt`.
//!
//! Sections share one [`Runs`] table keyed by (monitor, benchmark,
//! [`SystemConfig`], FADE program): a point that an earlier section (or
//! an earlier entry of the same grid) already ran is read back, not run
//! again. Every run is deterministic, so sharing moves no figure cell.
//! A section that reads a point it never declared panics with the
//! point's name.

use std::time::Instant;

use fade::{FadeProgram, FilterMode, InvId};
use fade_isa::event_ids;
use fade_monitors::{all_monitors, monitor_by_name};
use fade_sim::{gmean, CoreKind, QueueDepth};
use fade_system::{Engine, RunReport, RunStats, Session, SystemConfig};
use fade_trace::{bench, BenchProfile};

use crate::table::Table;
use crate::{default_workers, measure_len, warmup_len};

/// The benchmark suite a monitor is evaluated on (Section 6).
pub fn suite_for(monitor: &str) -> Vec<BenchProfile> {
    match monitor {
        "AtomCheck" => bench::parallel_suite(),
        "TaintCheck" => bench::taint_suite(),
        _ => bench::spec_int_suite(),
    }
}

/// Every builtin monitor's name, in registry order.
fn monitor_names() -> Vec<&'static str> {
    all_monitors().iter().map(|m| m.name()).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One entry of a section's grid: each of `monitors` under `config`,
/// on the monitor's [`suite_for`] benchmarks with its own FADE program
/// unless the entry names others.
pub struct Entry<'a> {
    monitors: &'a [&'a str],
    config: SystemConfig,
    benches: Option<&'a [&'a str]>,
    program: Option<FadeProgram>,
}

impl<'a> Entry<'a> {
    /// `monitors` on their suites under `config`, with their own
    /// programs.
    pub fn new(monitors: &'a [&'a str], config: SystemConfig) -> Self {
        Entry { monitors, config, benches: None, program: None }
    }

    /// Runs only the named benchmarks.
    pub fn on(mut self, benches: &'a [&'a str]) -> Self {
        self.benches = Some(benches);
        self
    }

    /// Loads `program` instead of the monitor's own (ablations).
    pub fn program(mut self, program: FadeProgram) -> Self {
        self.program = Some(program);
        self
    }
}

/// What identifies one experiment. `program` is `None` for the
/// monitor's own program, so an unedited program is the default point.
#[derive(PartialEq)]
struct Key {
    monitor: String,
    bench: String,
    config: SystemConfig,
    program: Option<FadeProgram>,
}

impl Key {
    fn new(monitor: &str, bench: &str, config: SystemConfig, edit: Option<&FadeProgram>) -> Self {
        let own = || monitor_by_name(monitor).map(|m| m.program());
        Key {
            monitor: monitor.to_string(),
            bench: bench.to_string(),
            config,
            program: edit.filter(|&p| own().as_ref() != Some(p)).cloned(),
        }
    }

    /// Runs this point on `bench` through the exact cycle engine:
    /// `warmup` instructions, then `measure` measured ones.
    fn run(&self, bench: &BenchProfile, warmup: u64, measure: u64) -> Result<RunReport, String> {
        let mut builder = Session::builder()
            .monitor(self.monitor.as_str())
            .source(bench.clone())
            .engine(Engine::Cycle)
            .config(self.config);
        if let Some(p) = &self.program {
            builder = builder.program(p.clone());
        }
        let session = builder.build().map_err(|e| format!("build failed: {e}"))?;
        session.run_measured(warmup, measure).map_err(|e| format!("run failed: {e}"))
    }

    /// The point as panic messages name it.
    fn describe(&self) -> String {
        let edited = if self.program.is_some() { " with an edited program" } else { "" };
        format!("{} on {} under {}{edited}", self.monitor, self.bench, self.config.label())
    }
}

/// The timing of one batch of experiments (see [`Runs::timings`]).
#[derive(Clone, Debug)]
pub struct MatrixTiming {
    /// The section the batch ran for.
    pub label: String,
    /// Experiments in the batch.
    pub experiments: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Sharded wall-clock seconds.
    pub wall_s: f64,
    /// Serial-equivalent seconds (sum of per-run wall clocks).
    pub serial_s: f64,
}

impl MatrixTiming {
    /// Sharded-over-serial wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.wall_s.max(1e-12)
    }
}

/// Every experiment the sections have run, keyed by (monitor,
/// benchmark, [`SystemConfig`], FADE program), plus the timing of each
/// batch that ran them.
pub struct Runs {
    workers: usize,
    points: Vec<(Key, RunStats)>,
    timings: Vec<MatrixTiming>,
}

impl Default for Runs {
    /// An empty table on [`default_workers`] threads.
    fn default() -> Self {
        Runs::new(default_workers())
    }
}

impl Runs {
    /// An empty table whose batches shard over `workers` threads (at
    /// least one).
    pub fn new(workers: usize) -> Self {
        Runs { workers: workers.max(1), points: Vec::new(), timings: Vec::new() }
    }

    /// Runs every point of `grid` that the table does not hold yet: each
    /// [`Entry`] expands to every monitor on each of its benchmarks, and
    /// the new points run as one batch, each a cycle-engine [`Session`]
    /// over the `FADE_WARMUP`/`FADE_MEASURE` window, sharded over the
    /// table's workers. The batch's timing is recorded under `section`.
    /// A grid with no new point runs nothing and records no timing.
    ///
    /// Results do not depend on the worker count: each run's RNG seeds
    /// derive from its own [`SystemConfig::seed`], never from which
    /// worker ran it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name, or, after the batch, on the
    /// first new point in declaration order that failed (the grids are
    /// static, so a failure is a harness bug), naming its monitor,
    /// benchmark, config and whether its program was edited.
    pub fn run(&mut self, section: &str, grid: &[Entry]) {
        let mut fresh: Vec<(Key, BenchProfile)> = Vec::new();
        for entry in grid {
            for &monitor in entry.monitors {
                let benches = match entry.benches {
                    Some(names) => names
                        .iter()
                        .map(|&n| {
                            bench::by_name(n).unwrap_or_else(|| panic!("unknown benchmark {n}"))
                        })
                        .collect(),
                    None => suite_for(monitor),
                };
                for b in benches {
                    let key = Key::new(monitor, b.name, entry.config, entry.program.as_ref());
                    if !fresh.iter().any(|(k, _)| *k == key) && self.find(&key).is_none() {
                        fresh.push((key, b));
                    }
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let (warmup, measure) = (warmup_len(), measure_len());
        let experiments = fresh.len();
        let workers = self.workers.min(experiments);
        let start = Instant::now();
        let outcomes = fade_system::pool::run_indexed(workers, experiments, |i| {
            let (key, b) = &fresh[i];
            key.run(b, warmup, measure)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut serial_s = 0.0;
        for ((key, _), outcome) in fresh.into_iter().zip(outcomes) {
            let report = outcome.unwrap_or_else(|e| panic!("{}: {e}", key.describe()));
            serial_s += report.wall_s;
            self.points.push((key, report.stats));
        }
        self.timings.push(MatrixTiming {
            label: section.to_string(),
            experiments,
            workers,
            wall_s,
            serial_s,
        });
    }

    /// The statistics of `monitor` on benchmark `bench` under `config`,
    /// running `program` (`None`: the monitor's own).
    ///
    /// # Panics
    ///
    /// Panics, naming the point, if no [`Runs::run`] declared it.
    pub fn get(
        &self,
        monitor: &str,
        bench: &str,
        config: &SystemConfig,
        program: Option<&FadeProgram>,
    ) -> &RunStats {
        let key = Key::new(monitor, bench, *config, program);
        self.find(&key)
            .unwrap_or_else(|| panic!("no section declared {} ({config:?})", key.describe()))
    }

    /// One timing per batch [`Runs::run`] ran, in run order.
    pub fn timings(&self) -> &[MatrixTiming] {
        &self.timings
    }

    fn find(&self, key: &Key) -> Option<&RunStats> {
        self.points.iter().find(|(k, _)| k == key).map(|(_, stats)| stats)
    }

    /// The mean of `f` over `monitor`'s suite under `config`.
    fn mean(&self, monitor: &str, config: &SystemConfig, f: impl Fn(&RunStats) -> f64) -> f64 {
        let xs: Vec<f64> = suite_for(monitor)
            .iter()
            .map(|b| f(self.get(monitor, b.name, config, None)))
            .collect();
        mean(&xs)
    }
}

/// Figure 2: application IPC split into monitored and unmonitored.
pub fn fig2(runs: &mut Runs) -> String {
    let fade = SystemConfig::fade_single_core();
    let monitors = monitor_names();
    runs.run("fig2", &[Entry::new(&monitors, fade)]);

    let mut out = String::new();
    out.push_str("Figure 2(a): app IPC split, averaged per monitor (4-way OoO)\n");
    let mut t = Table::new(["monitor", "app IPC", "monitored IPC", "unmonitored IPC"]);
    for name in monitors {
        let a = runs.mean(name, &fade, RunStats::app_ipc);
        let m = runs.mean(name, &fade, RunStats::monitored_ipc);
        t.row([
            name.to_string(),
            format!("{a:.2}"),
            format!("{m:.2}"),
            format!("{:.2}", a - m),
        ]);
    }
    out.push_str(&t.render());
    for (title, monitor) in [
        ("\nFigure 2(b): AddrCheck per benchmark", "AddrCheck"),
        ("\nFigure 2(c): MemLeak per benchmark", "MemLeak"),
    ] {
        out.push_str(title);
        out.push('\n');
        let mut t = Table::new(["bench", "app IPC", "monitored IPC"]);
        for b in suite_for(monitor) {
            let s = runs.get(monitor, b.name, &fade, None);
            t.row([
                b.name.to_string(),
                format!("{:.2}", s.app_ipc()),
                format!("{:.2}", s.monitored_ipc()),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Figure 3: event-queue occupancy (infinite queue) and the effect of
/// queue size on MemLeak's slowdown.
pub fn fig3(runs: &mut Runs) -> String {
    let ideal = |depth: QueueDepth| {
        SystemConfig::fade_single_core()
            .with_event_queue(depth)
            .with_ideal_consumer()
    };
    let unbounded = ideal(QueueDepth::Unbounded);
    let big = ideal(QueueDepth::Bounded(32 * 1024));
    let small = ideal(QueueDepth::Bounded(32));
    runs.run(
        "fig3",
        &[
            Entry::new(&["AddrCheck", "MemLeak"], unbounded),
            Entry::new(&["MemLeak"], big),
            Entry::new(&["MemLeak"], small),
        ],
    );

    let mut out = String::new();
    for (title, monitor) in [
        ("Figure 3(a): infinite event-queue occupancy CDF, AddrCheck", "AddrCheck"),
        ("\nFigure 3(b): infinite event-queue occupancy CDF, MemLeak", "MemLeak"),
    ] {
        out.push_str(title);
        out.push('\n');
        let mut t = Table::new(["bench", "p50", "p90", "p99", "p99.9", "max-bucket"]);
        for b in suite_for(monitor) {
            let s = runs.get(monitor, b.name, &unbounded, None);
            t.row([
                b.name.to_string(),
                s.occupancy.percentile(50.0).to_string(),
                s.occupancy.percentile(90.0).to_string(),
                s.occupancy.percentile(99.0).to_string(),
                s.occupancy.percentile(99.9).to_string(),
                s.occupancy.percentile(100.0).to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out.push_str("\nFigure 3(c): MemLeak slowdown vs event-queue size\n");
    let mut t = Table::new(["bench", "32K entries", "32 entries"]);
    let mut big_all = Vec::new();
    let mut small_all = Vec::new();
    for b in suite_for("MemLeak") {
        let big = runs.get("MemLeak", b.name, &big, None).slowdown();
        let small = runs.get("MemLeak", b.name, &small, None).slowdown();
        big_all.push(big);
        small_all.push(small);
        t.row([
            b.name.to_string(),
            format!("{big:.2}"),
            format!("{small:.2}"),
        ]);
    }
    t.row([
        "gmean".to_string(),
        format!("{:.2}", gmean(&big_all)),
        format!("{:.2}", gmean(&small_all)),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 4: monitor time breakdown, unfiltered-event distances, burst
/// sizes.
pub fn fig4(runs: &mut Runs) -> String {
    let unacc = SystemConfig::unaccelerated_single_core();
    let fade = SystemConfig::fade_single_core();
    let monitors = monitor_names();
    runs.run("fig4", &[Entry::new(&monitors, unacc), Entry::new(&monitors, fade)]);

    let mut out = String::new();
    out.push_str("Figure 4(a): software monitor time breakdown (% of handler instructions)\n");
    let mut t = Table::new(["monitor", "CC%", "RU%", "complex%", "stack%", "high-level%"]);
    for &name in &monitors {
        let mut acc = fade_system::ClassInstrs::default();
        for b in suite_for(name) {
            let c = &runs.get(name, b.name, &unacc, None).class_instrs;
            acc.cc += c.cc;
            acc.ru += c.ru;
            acc.partial += c.partial;
            acc.complex += c.complex;
            acc.stack += c.stack;
            acc.high_level += c.high_level;
        }
        t.row([
            name.to_string(),
            format!("{:.1}", acc.pct(acc.cc + acc.partial)),
            format!("{:.1}", acc.pct(acc.ru)),
            format!("{:.1}", acc.pct(acc.complex)),
            format!("{:.1}", acc.pct(acc.stack)),
            format!("{:.1}", acc.pct(acc.high_level)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 4(b): distance between unfiltered events, MemLeak (CDF)\n");
    let mut t = Table::new(["bench", "%<=2", "%<=8", "%<=16", "%<=64", "mean"]);
    for b in suite_for("MemLeak") {
        let s = runs.get("MemLeak", b.name, &fade, None);
        let cdf = s.unfiltered_distances.cdf();
        t.row([
            b.name.to_string(),
            format!("{:.0}", cdf.percent_at(2)),
            format!("{:.0}", cdf.percent_at(8)),
            format!("{:.0}", cdf.percent_at(16)),
            format!("{:.0}", cdf.percent_at(64)),
            format!("{:.1}", s.unfiltered_distances.mean()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 4(c): mean unfiltered burst size (gap <= 16 filterable events)\n");
    let mut t = Table::new(["monitor", "per-bench mean burst sizes"]);
    for name in monitors {
        let cells: Vec<String> = suite_for(name)
            .iter()
            .map(|b| {
                let mean = runs.get(name, b.name, &fade, None).burst_sizes.mean();
                format!("{}={mean:.0}", b.name)
            })
            .collect();
        t.row([name.to_string(), cells.join(" ")]);
    }
    out.push_str(&t.render());
    out
}

/// Table 2: filtering efficiency per monitor.
pub fn table2(runs: &mut Runs) -> String {
    let paper = [
        ("AddrCheck", 99.5),
        ("AtomCheck", 85.5),
        ("MemCheck", 98.0),
        ("MemLeak", 87.0),
        ("TaintCheck", 84.0),
    ];
    let fade = SystemConfig::fade_single_core();
    runs.run("table2", &[Entry::new(&paper.map(|(name, _)| name), fade)]);

    let mut out = String::new();
    out.push_str("Table 2: FADE filtering efficiency\n");
    let mut t = Table::new(["monitor", "measured", "paper"]);
    for (name, paper_val) in paper {
        let avg = runs.mean(name, &fade, |s| 100.0 * s.filtering_ratio());
        t.row([
            name.to_string(),
            format!("{avg:.1}%"),
            format!("{paper_val:.1}%"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 9: FADE vs the unaccelerated system, per benchmark, for
/// AddrCheck, MemLeak and AtomCheck (plus the per-monitor averages the
/// text quotes for MemCheck and TaintCheck).
pub fn fig9(runs: &mut Runs) -> String {
    let unacc = SystemConfig::unaccelerated_single_core();
    let fade = SystemConfig::fade_single_core();
    let monitors = monitor_names();
    runs.run("fig9", &[Entry::new(&monitors, unacc), Entry::new(&monitors, fade)]);

    let mut out = String::new();
    for (fig, monitor) in [
        ("Figure 9(a): AddrCheck", "AddrCheck"),
        ("Figure 9(b): MemLeak", "MemLeak"),
        ("Figure 9(c): AtomCheck", "AtomCheck"),
    ] {
        out.push_str(fig);
        out.push('\n');
        let mut t = Table::new(["bench", "unaccelerated", "FADE"]);
        for b in suite_for(monitor) {
            t.row([
                b.name.to_string(),
                format!("{:.2}", runs.get(monitor, b.name, &unacc, None).slowdown()),
                format!("{:.2}", runs.get(monitor, b.name, &fade, None).slowdown()),
            ]);
        }
        t.row([
            "mean".to_string(),
            format!("{:.2}", runs.mean(monitor, &unacc, RunStats::slowdown)),
            format!("{:.2}", runs.mean(monitor, &fade, RunStats::slowdown)),
        ]);
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("Per-monitor averages (Section 7.2 text)\n");
    let mut t = Table::new(["monitor", "unaccelerated", "FADE"]);
    let mut all_u = Vec::new();
    let mut all_f = Vec::new();
    for name in monitors {
        let u = runs.mean(name, &unacc, RunStats::slowdown);
        let f = runs.mean(name, &fade, RunStats::slowdown);
        all_u.push(u);
        all_f.push(f);
        t.row([name.to_string(), format!("{u:.2}"), format!("{f:.2}")]);
    }
    t.row([
        "average".to_string(),
        format!("{:.2}", mean(&all_u)),
        format!("{:.2}", mean(&all_f)),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 10: sensitivity to the core microarchitecture.
pub fn fig10(runs: &mut Runs) -> String {
    let cores = [CoreKind::AggrOoO4, CoreKind::LeanOoO2, CoreKind::InOrder1];
    let configs: Vec<SystemConfig> = [
        SystemConfig::unaccelerated_single_core(),
        SystemConfig::fade_single_core(),
    ]
    .iter()
    .flat_map(|cfg| cores.map(|core| cfg.with_core(core)))
    .collect();
    let monitors = monitor_names();
    let grid: Vec<_> = configs.iter().map(|&cfg| Entry::new(&monitors, cfg)).collect();
    runs.run("fig10", &grid);

    let mut out = String::new();
    out.push_str("Figure 10: slowdown per monitor and core type (single-core system)\n");
    let mut t = Table::new([
        "monitor",
        "unacc 4-way",
        "unacc 2-way",
        "unacc in-ord",
        "FADE 4-way",
        "FADE 2-way",
        "FADE in-ord",
    ]);
    for name in monitors {
        let mut cells = vec![name.to_string()];
        for cfg in &configs {
            cells.push(format!("{:.2}", runs.mean(name, cfg, RunStats::slowdown)));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Figure 11: single vs two-core FADE, two-core utilization, and
/// blocking vs non-blocking filtering.
pub fn fig11(runs: &mut Runs) -> String {
    let one = SystemConfig::fade_single_core();
    let two = SystemConfig::fade_two_core();
    let blocking = SystemConfig::fade_single_core().with_mode(FilterMode::Blocking);
    let monitors = monitor_names();
    runs.run(
        "fig11",
        &[Entry::new(&monitors, one), Entry::new(&monitors, two), Entry::new(&monitors, blocking)],
    );

    let mut out = String::new();
    out.push_str("Figure 11(a): single-core vs two-core FADE (average slowdown)\n");
    let mut t = Table::new(["monitor", "single-core", "two-core", "two-core gain"]);
    for &name in &monitors {
        let o = runs.mean(name, &one, RunStats::slowdown);
        let w = runs.mean(name, &two, RunStats::slowdown);
        t.row([
            name.to_string(),
            format!("{o:.2}"),
            format!("{w:.2}"),
            format!("{:.0}%", 100.0 * (o / w - 1.0)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 11(b): two-core utilization breakdown (% of cycles)\n");
    let mut t = Table::new(["monitor", "app core idle", "monitor core idle", "both utilized"]);
    for &name in &monitors {
        t.row([
            name.to_string(),
            format!("{:.1}", runs.mean(name, &two, |s| s.util.percentages().0)),
            format!("{:.1}", runs.mean(name, &two, |s| s.util.percentages().1)),
            format!("{:.1}", runs.mean(name, &two, |s| s.util.percentages().2)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 11(c): blocking vs non-blocking FADE (average slowdown)\n");
    let mut t = Table::new(["monitor", "blocking", "non-blocking", "NB benefit"]);
    for name in monitors {
        let bk = runs.mean(name, &blocking, RunStats::slowdown);
        let n = runs.mean(name, &one, RunStats::slowdown);
        t.row([
            name.to_string(),
            format!("{bk:.2}"),
            format!("{n:.2}"),
            format!("{:.2}x", bk / n),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Section 7.6: area and power.
pub fn power() -> String {
    let mut out = String::new();
    out.push_str("Section 7.6: FADE area and power at 40nm, 2 GHz\n");
    let report = fade_power::fade_logic_report(2.0);
    let mut t = Table::new(["structure", "area (mm^2)", "peak power (mW)"]);
    for (name, area, mw) in report.rows() {
        t.row([name.to_string(), format!("{area:.4}"), format!("{mw:.1}")]);
    }
    t.row([
        "FADE logic total".to_string(),
        format!("{:.3}", report.area_mm2()),
        format!("{:.0}", report.peak_power_mw()),
    ]);
    let cache = fade_power::cache_model(4096, 2, 64, 2.0);
    t.row([
        "MD cache (4KB 2-way)".to_string(),
        format!("{:.3}", cache.area_mm2),
        format!("{:.0}", cache.peak_power_mw),
    ]);
    t.row([
        "total".to_string(),
        format!("{:.3}", report.area_mm2() + cache.area_mm2),
        format!("{:.0}", report.peak_power_mw() + cache.peak_power_mw),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "MD cache access: {:.2} ns (paper: 0.3 ns)\n\
         Paper reference: logic 0.09 mm^2 / 122 mW; cache 0.03 mm^2 / 151 mW; total 0.12 mm^2 / 273 mW\n",
        cache.access_ns
    ));
    out
}

/// `monitor`'s own FADE program, with `edit` applied.
fn edited_program(monitor: &str, edit: impl FnOnce(&mut FadeProgram)) -> FadeProgram {
    let mut program =
        monitor_by_name(monitor).unwrap_or_else(|| panic!("unknown monitor {monitor}")).program();
    edit(&mut program);
    program
}

/// Clears the partial bit on AtomCheck's load/store entries and makes
/// the clean check unsatisfiable, so every dispatch runs the long
/// handler (clearing the bit alone would over-filter, see below).
fn no_partial(p: &mut FadeProgram) {
    for id in [event_ids::LOAD, event_ids::STORE] {
        let mut raw = *p.table().entry(id).expect("AtomCheck programs loads/stores");
        raw.partial = false;
        // Without the partial bit a passing check would filter the
        // event outright and lose the access-type update; force
        // dispatch by making the check unsatisfiable.
        raw.operands[0].inv_id = raw.operands[0].inv_id.map(|_| InvId::new(31));
        raw.operands[2].inv_id = raw.operands[2].inv_id.map(|_| InvId::new(31));
        p.set_entry(id, raw);
        p.set_invariant(InvId::new(31), 0xfe); // never matches
    }
}

/// Ablations of FADE's design choices, each against the design point:
///
/// 1. **Stack-Update Unit** (Section 4.2): with the SUU removed, stack
///    updates run as software handlers on the monitor core.
/// 2. **Partial filtering** (Section 4.1): with the partial bit
///    cleared, every AtomCheck event takes the full handler.
/// 3. **Non-blocking filtering** (Section 5): the blocking baseline of
///    Figure 11(c), per benchmark.
/// 4. **Multi-shot encoding** (Section 4.1): MemCheck re-encoded as
///    two-shot chains — same filtering, one extra cycle per chained
///    event.
pub fn ablation(runs: &mut Runs) -> String {
    const SUU: [(&str, &str); 3] =
        [("MemCheck", "gcc"), ("MemLeak", "gcc"), ("MemLeak", "astar")];
    const PARTIAL: [&str; 3] = ["water", "ocean", "stream."];
    const BLOCKING: [&str; 4] = ["astar", "gcc", "mcf", "omnet"];
    const MULTI_SHOT: [&str; 2] = ["gcc", "hmmer"];
    let fade = SystemConfig::fade_single_core();
    let blocking = fade.with_mode(FilterMode::Blocking);
    let no_suu = |monitor| edited_program(monitor, FadeProgram::clear_suu);
    let no_partial = edited_program("AtomCheck", no_partial);
    let multi_shot = fade_monitors::MemCheck::new().program_multi_shot();
    let mut grid = vec![
        Entry::new(&["AtomCheck"], fade).on(&PARTIAL),
        Entry::new(&["AtomCheck"], fade).on(&PARTIAL).program(no_partial.clone()),
        Entry::new(&["MemLeak"], fade).on(&BLOCKING),
        Entry::new(&["MemLeak"], blocking).on(&BLOCKING),
        Entry::new(&["MemCheck"], fade).on(&MULTI_SHOT),
        Entry::new(&["MemCheck"], fade).on(&MULTI_SHOT).program(multi_shot.clone()),
    ];
    for (monitor, bench) in &SUU {
        let (monitors, benches) = (std::slice::from_ref(monitor), std::slice::from_ref(bench));
        grid.push(Entry::new(monitors, fade).on(benches));
        grid.push(Entry::new(monitors, fade).on(benches).program(no_suu(monitor)));
    }
    runs.run("ablation", &grid);

    let slow = |monitor: &str, bench: &str, config: &SystemConfig, program: Option<&FadeProgram>| {
        format!("{:.2}", runs.get(monitor, bench, config, program).slowdown())
    };
    let mut out = String::from("Ablation 1: Stack-Update Unit (monitors that shadow the stack)\n");
    let mut t = Table::new(["monitor/bench", "with SUU", "SUU disabled (software)"]);
    for (monitor, bench) in SUU {
        t.row([
            format!("{monitor}/{bench}"),
            slow(monitor, bench, &fade, None),
            slow(monitor, bench, &fade, Some(&no_suu(monitor))),
        ]);
    }
    out.push_str(&t.render());
    for (title, header, monitor, benches, config, program) in [
        (
            "Ablation 2: partial filtering (AtomCheck)",
            ["bench", "partial filtering", "full handler always"],
            "AtomCheck",
            &PARTIAL[..],
            &fade,
            Some(&no_partial),
        ),
        (
            "Ablation 3: non-blocking filtering (per benchmark, MemLeak)",
            ["bench", "non-blocking", "blocking"],
            "MemLeak",
            &BLOCKING,
            &blocking,
            None,
        ),
        (
            "Ablation 4: single-shot vs multi-shot encoding (MemCheck)",
            ["bench", "single-shot", "two-shot chain"],
            "MemCheck",
            &MULTI_SHOT,
            &fade,
            Some(&multi_shot),
        ),
    ] {
        out.push_str(&format!("\n{title}\n"));
        let mut t = Table::new(header);
        for &bench in benches {
            t.row([
                bench.to_string(),
                slow(monitor, bench, &fade, None),
                slow(monitor, bench, config, program),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Sensitivity of MemLeak on gcc to FADE's hardware parameters — the
/// study the paper performed but left out for space ("A sensitivity
/// analysis for these two structures ... shows that this design point
/// offers the best cost-performance ratio", Section 6): MD cache
/// capacity (with its area), M-TLB reach, FSQ depth and the two
/// decoupling queues.
pub fn sensitivity(runs: &mut Runs) -> String {
    const MONITOR: &str = "MemLeak";
    const WORKLOAD: &str = "gcc";
    let fade = SystemConfig::fade_single_core();
    let md_cache = [1, 2, 4, 8, 16].map(|kb: u32| (kb, fade.with_md_cache_bytes(kb * 1024)));
    let unfiltered_queue = |n| {
        let mut cfg = fade;
        cfg.unfiltered_queue = QueueDepth::Bounded(n);
        cfg
    };
    let sweeps = [
        (
            "M-TLB entries (paper design point: 16)",
            [4, 8, 16, 32, 64].map(|n| (n, fade.with_tlb_entries(n))).to_vec(),
        ),
        (
            "FSQ entries (non-blocking filtering; paper design point: 16)",
            [1, 2, 4, 8, 16, 32].map(|n| (n, fade.with_fsq_entries(n))).to_vec(),
        ),
        (
            "Event queue depth (paper design point: 32)",
            [8, 16, 32, 64, 128, 1024]
                .map(|n| (n, fade.with_event_queue(QueueDepth::Bounded(n))))
                .to_vec(),
        ),
        (
            "Unfiltered queue depth (paper design point: 16)",
            [2, 4, 8, 16, 32, 64].map(|n| (n, unfiltered_queue(n))).to_vec(),
        ),
    ];
    let configs = md_cache.iter().map(|(_, cfg)| cfg);
    let configs = configs.chain(sweeps.iter().flat_map(|(_, s)| s.iter().map(|(_, cfg)| cfg)));
    let grid: Vec<_> = configs.map(|&cfg| Entry::new(&[MONITOR], cfg).on(&[WORKLOAD])).collect();
    runs.run("sensitivity", &grid);

    let slow = |cfg| format!("{:.2}", runs.get(MONITOR, WORKLOAD, cfg, None).slowdown());
    let mut out =
        format!("Sensitivity sweeps ({MONITOR} on {WORKLOAD}, single-core 4-way OoO FADE)\n\n");
    out.push_str("MD cache capacity (2-way, 64B lines; paper design point: 4KB)\n");
    let mut t = Table::new(["capacity", "slowdown", "cache area (mm^2)"]);
    for (kb, cfg) in &md_cache {
        let area = fade_power::cache_model(u64::from(*kb) * 1024, 2, 64, 2.0).area_mm2;
        t.row([format!("{kb} KB"), slow(cfg), format!("{area:.4}")]);
    }
    out.push_str(&t.render());
    for (title, sweep) in &sweeps {
        out.push_str(&format!("\n{title}\n"));
        let mut t = Table::new(["entries", "slowdown"]);
        for (n, cfg) in sweep {
            t.row([n.to_string(), slow(cfg)]);
        }
        out.push_str(&t.render());
    }
    out
}

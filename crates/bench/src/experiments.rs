//! The paper's experiments, one function per table/figure.
//!
//! Each function *declares* its grid of simulation points as
//! [`Experiment`] data, hands the whole grid to the sharded
//! [`ExperimentMatrix`] driver (all points of a figure run concurrently
//! across `FADE_WORKERS` threads), then renders the paper-style text
//! table(s) from the results — with the paper's reference values in the
//! last column(s) so paper-vs-measured comparison is immediate. The
//! `reproduce_all` binary calls every one of these and is the source of
//! EXPERIMENTS.md.
//!
//! Declaration and consumption walk the same loops in the same order,
//! so adding a point means adding it to both walks — the `Results`
//! consumer panics if the two ever disagree in length.

use fade::FilterMode;
use fade_monitors::all_monitors;
use fade_sim::{gmean, CoreKind, QueueDepth};
use fade_system::{RunStats, SystemConfig};
use fade_trace::{bench, BenchProfile};

use crate::table::Table;
use crate::{Experiment, ExperimentMatrix};

/// The benchmark suite a monitor is evaluated on (Section 6).
pub fn suite_for(monitor: &str) -> Vec<BenchProfile> {
    match monitor {
        "AtomCheck" => bench::parallel_suite(),
        "TaintCheck" => bench::taint_suite(),
        _ => bench::spec_int_suite(),
    }
}

/// One grid point with the harness-default window.
fn point(b: &BenchProfile, monitor: &str, cfg: &SystemConfig) -> Experiment {
    Experiment::new(b.clone(), monitor, *cfg)
}

/// Results of a section's matrix, consumed in declaration order.
struct Results(std::vec::IntoIter<RunStats>);

impl Results {
    fn next(&mut self) -> RunStats {
        self.0
            .next()
            .expect("consumption must walk the same points as declaration")
    }
}

impl Drop for Results {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            assert!(
                self.0.next().is_none(),
                "declared experiments were left unconsumed"
            );
        }
    }
}

/// Runs a section's declared points through the sharded driver.
fn run_section(section: &str, points: Vec<Experiment>) -> Results {
    let mut m = ExperimentMatrix::new().timed(section);
    m.extend(points);
    Results(m.run_stats().into_iter())
}

/// Figure 2: application IPC split into monitored and unmonitored.
pub fn fig2() -> String {
    let mut points = Vec::new();
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::fade_single_core()));
        }
    }
    for monitor in ["AddrCheck", "MemLeak"] {
        for b in suite_for(monitor) {
            points.push(point(&b, monitor, &SystemConfig::fade_single_core()));
        }
    }
    let mut runs = run_section("fig2", points);

    let mut out = String::new();
    out.push_str("Figure 2(a): app IPC split, averaged per monitor (4-way OoO)\n");
    let mut t = Table::new(["monitor", "app IPC", "monitored IPC", "unmonitored IPC"]);
    for mon in all_monitors() {
        let mut app = Vec::new();
        let mut monit = Vec::new();
        for _ in suite_for(mon.name()) {
            let s = runs.next();
            app.push(s.app_ipc());
            monit.push(s.monitored_ipc());
        }
        let a = app.iter().sum::<f64>() / app.len() as f64;
        let m = monit.iter().sum::<f64>() / monit.len() as f64;
        t.row([
            mon.name().to_string(),
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
            let s = runs.next();
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
pub fn fig3() -> String {
    let ideal = |depth: QueueDepth| {
        SystemConfig::fade_single_core()
            .with_event_queue(depth)
            .with_ideal_consumer()
    };
    let mut points = Vec::new();
    for monitor in ["AddrCheck", "MemLeak"] {
        for b in suite_for(monitor) {
            points.push(point(&b, monitor, &ideal(QueueDepth::Unbounded)));
        }
    }
    for b in suite_for("MemLeak") {
        points.push(point(&b, "MemLeak", &ideal(QueueDepth::Bounded(32 * 1024))));
        points.push(point(&b, "MemLeak", &ideal(QueueDepth::Bounded(32))));
    }
    let mut runs = run_section("fig3", points);

    let mut out = String::new();
    for (title, monitor) in [
        ("Figure 3(a): infinite event-queue occupancy CDF, AddrCheck", "AddrCheck"),
        ("\nFigure 3(b): infinite event-queue occupancy CDF, MemLeak", "MemLeak"),
    ] {
        out.push_str(title);
        out.push('\n');
        let mut t = Table::new(["bench", "p50", "p90", "p99", "p99.9", "max-bucket"]);
        for b in suite_for(monitor) {
            let s = runs.next();
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
        let big = runs.next();
        let small = runs.next();
        big_all.push(big.slowdown());
        small_all.push(small.slowdown());
        t.row([
            b.name.to_string(),
            format!("{:.2}", big.slowdown()),
            format!("{:.2}", small.slowdown()),
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
pub fn fig4() -> String {
    let mut points = Vec::new();
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::unaccelerated_single_core()));
        }
    }
    for b in suite_for("MemLeak") {
        points.push(point(&b, "MemLeak", &SystemConfig::fade_single_core()));
    }
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::fade_single_core()));
        }
    }
    let mut runs = run_section("fig4", points);

    let mut out = String::new();
    out.push_str("Figure 4(a): software monitor time breakdown (% of handler instructions)\n");
    let mut t = Table::new(["monitor", "CC%", "RU%", "complex%", "stack%", "high-level%"]);
    for mon in all_monitors() {
        let mut acc = fade_system::ClassInstrs::default();
        for _ in suite_for(mon.name()) {
            let s = runs.next();
            acc.cc += s.class_instrs.cc;
            acc.ru += s.class_instrs.ru;
            acc.partial += s.class_instrs.partial;
            acc.complex += s.class_instrs.complex;
            acc.stack += s.class_instrs.stack;
            acc.high_level += s.class_instrs.high_level;
        }
        t.row([
            mon.name().to_string(),
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
        let s = runs.next();
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
    for mon in all_monitors() {
        let mut cells = Vec::new();
        for b in suite_for(mon.name()) {
            let s = runs.next();
            cells.push(format!("{}={:.0}", b.name, s.burst_sizes.mean()));
        }
        t.row([mon.name().to_string(), cells.join(" ")]);
    }
    out.push_str(&t.render());
    out
}

/// Table 2: filtering efficiency per monitor.
pub fn table2() -> String {
    let paper = [
        ("AddrCheck", 99.5),
        ("AtomCheck", 85.5),
        ("MemCheck", 98.0),
        ("MemLeak", 87.0),
        ("TaintCheck", 84.0),
    ];
    let mut points = Vec::new();
    for (name, _) in paper {
        for b in suite_for(name) {
            points.push(point(&b, name, &SystemConfig::fade_single_core()));
        }
    }
    let mut runs = run_section("table2", points);

    let mut out = String::new();
    out.push_str("Table 2: FADE filtering efficiency\n");
    let mut t = Table::new(["monitor", "measured", "paper"]);
    for (name, paper_val) in paper {
        let mut ratios = Vec::new();
        for _ in suite_for(name) {
            ratios.push(100.0 * runs.next().filtering_ratio());
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
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
pub fn fig9() -> String {
    let mut points = Vec::new();
    for monitor in ["AddrCheck", "MemLeak", "AtomCheck"] {
        for b in suite_for(monitor) {
            points.push(point(&b, monitor, &SystemConfig::unaccelerated_single_core()));
            points.push(point(&b, monitor, &SystemConfig::fade_single_core()));
        }
    }
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::unaccelerated_single_core()));
            points.push(point(&b, mon.name(), &SystemConfig::fade_single_core()));
        }
    }
    let mut runs = run_section("fig9", points);

    let mut out = String::new();
    for (fig, monitor) in [
        ("Figure 9(a): AddrCheck", "AddrCheck"),
        ("Figure 9(b): MemLeak", "MemLeak"),
        ("Figure 9(c): AtomCheck", "AtomCheck"),
    ] {
        out.push_str(fig);
        out.push('\n');
        let mut t = Table::new(["bench", "unaccelerated", "FADE"]);
        let mut un = Vec::new();
        let mut fa = Vec::new();
        for b in suite_for(monitor) {
            let u = runs.next();
            let f = runs.next();
            un.push(u.slowdown());
            fa.push(f.slowdown());
            t.row([
                b.name.to_string(),
                format!("{:.2}", u.slowdown()),
                format!("{:.2}", f.slowdown()),
            ]);
        }
        t.row([
            "mean".to_string(),
            format!("{:.2}", un.iter().sum::<f64>() / un.len() as f64),
            format!("{:.2}", fa.iter().sum::<f64>() / fa.len() as f64),
        ]);
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("Per-monitor averages (Section 7.2 text)\n");
    let mut t = Table::new(["monitor", "unaccelerated", "FADE"]);
    let mut all_u = Vec::new();
    let mut all_f = Vec::new();
    for mon in all_monitors() {
        let mut un = Vec::new();
        let mut fa = Vec::new();
        for _ in suite_for(mon.name()) {
            un.push(runs.next().slowdown());
            fa.push(runs.next().slowdown());
        }
        let (u, f) = (
            un.iter().sum::<f64>() / un.len() as f64,
            fa.iter().sum::<f64>() / fa.len() as f64,
        );
        all_u.push(u);
        all_f.push(f);
        t.row([mon.name().to_string(), format!("{u:.2}"), format!("{f:.2}")]);
    }
    t.row([
        "average".to_string(),
        format!("{:.2}", all_u.iter().sum::<f64>() / all_u.len() as f64),
        format!("{:.2}", all_f.iter().sum::<f64>() / all_f.len() as f64),
    ]);
    out.push_str(&t.render());
    out
}

/// Figure 10: sensitivity to the core microarchitecture.
pub fn fig10() -> String {
    let cfg_for = |accel: bool, core: CoreKind| {
        if accel {
            SystemConfig::fade_single_core().with_core(core)
        } else {
            SystemConfig::unaccelerated_single_core().with_core(core)
        }
    };
    let mut points = Vec::new();
    for mon in all_monitors() {
        for accel in [false, true] {
            for core in [CoreKind::AggrOoO4, CoreKind::LeanOoO2, CoreKind::InOrder1] {
                for b in suite_for(mon.name()) {
                    points.push(point(&b, mon.name(), &cfg_for(accel, core)));
                }
            }
        }
    }
    let mut runs = run_section("fig10", points);

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
    for mon in all_monitors() {
        let mut cells = vec![mon.name().to_string()];
        for _accel in [false, true] {
            for _core in [CoreKind::AggrOoO4, CoreKind::LeanOoO2, CoreKind::InOrder1] {
                let mut sl = Vec::new();
                for _ in suite_for(mon.name()) {
                    sl.push(runs.next().slowdown());
                }
                cells.push(format!("{:.2}", sl.iter().sum::<f64>() / sl.len() as f64));
            }
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Figure 11: single vs two-core FADE, two-core utilization, and
/// blocking vs non-blocking filtering.
pub fn fig11() -> String {
    let mut points = Vec::new();
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::fade_single_core()));
            points.push(point(&b, mon.name(), &SystemConfig::fade_two_core()));
        }
    }
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(&b, mon.name(), &SystemConfig::fade_two_core()));
        }
    }
    for mon in all_monitors() {
        for b in suite_for(mon.name()) {
            points.push(point(
                &b,
                mon.name(),
                &SystemConfig::fade_single_core().with_mode(FilterMode::Blocking),
            ));
            points.push(point(&b, mon.name(), &SystemConfig::fade_single_core()));
        }
    }
    let mut runs = run_section("fig11", points);

    let mut out = String::new();
    out.push_str("Figure 11(a): single-core vs two-core FADE (average slowdown)\n");
    let mut t = Table::new(["monitor", "single-core", "two-core", "two-core gain"]);
    for mon in all_monitors() {
        let mut one = Vec::new();
        let mut two = Vec::new();
        for _ in suite_for(mon.name()) {
            one.push(runs.next().slowdown());
            two.push(runs.next().slowdown());
        }
        let (o, w) = (
            one.iter().sum::<f64>() / one.len() as f64,
            two.iter().sum::<f64>() / two.len() as f64,
        );
        t.row([
            mon.name().to_string(),
            format!("{o:.2}"),
            format!("{w:.2}"),
            format!("{:.0}%", 100.0 * (o / w - 1.0)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 11(b): two-core utilization breakdown (% of cycles)\n");
    let mut t = Table::new(["monitor", "app core idle", "monitor core idle", "both utilized"]);
    for mon in all_monitors() {
        let mut acc = (0.0, 0.0, 0.0);
        let mut n = 0.0;
        for _ in suite_for(mon.name()) {
            let s = runs.next();
            let (a, m, both) = s.util.percentages();
            acc = (acc.0 + a, acc.1 + m, acc.2 + both);
            n += 1.0;
        }
        t.row([
            mon.name().to_string(),
            format!("{:.1}", acc.0 / n),
            format!("{:.1}", acc.1 / n),
            format!("{:.1}", acc.2 / n),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nFigure 11(c): blocking vs non-blocking FADE (average slowdown)\n");
    let mut t = Table::new(["monitor", "blocking", "non-blocking", "NB benefit"]);
    for mon in all_monitors() {
        let mut blk = Vec::new();
        let mut nb = Vec::new();
        for _ in suite_for(mon.name()) {
            blk.push(runs.next().slowdown());
            nb.push(runs.next().slowdown());
        }
        let (bk, n) = (
            blk.iter().sum::<f64>() / blk.len() as f64,
            nb.iter().sum::<f64>() / nb.len() as f64,
        );
        t.row([
            mon.name().to_string(),
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

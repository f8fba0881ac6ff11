//! Ablations of FADE's design choices:
//!
//! 1. **Stack-Update Unit** (Section 4.2): with the SUU removed, stack
//!    updates run as software handlers on the monitor core.
//! 2. **Partial filtering** (Section 4.1): with the partial bit
//!    cleared, every AtomCheck event takes the full handler.
//! 3. **Non-blocking filtering** (Section 5): blocking baseline —
//!    also in Figure 11(c); repeated here per benchmark.
//! 4. **Multi-shot encoding** (Section 4.1): MemCheck re-encoded as
//!    two-shot chains — same filtering, one extra cycle per chained
//!    event.
//!
//! Each ablated point is an `Experiment` carrying its edited FADE
//! program; the whole grid runs through the sharded matrix driver.

use fade::{EventTableEntry, FadeProgram, FilterMode};
use fade_bench::{Experiment, ExperimentMatrix, Table};
use fade_isa::event_ids;
use fade_monitors::monitor_by_name;
use fade_system::SystemConfig;
use fade_trace::bench;

/// The monitor's own program, with an edit applied.
fn edited_program(monitor: &str, edit: impl FnOnce(&mut FadeProgram)) -> FadeProgram {
    let mut program = monitor_by_name(monitor)
        .unwrap_or_else(|| panic!("unknown monitor {monitor}"))
        .program();
    edit(&mut program);
    program
}

/// Clears the partial bit on AtomCheck's load/store entries and makes
/// the clean check unsatisfiable, so every dispatch runs the long
/// handler (clearing the bit alone would over-filter, see below).
fn no_partial(p: &mut FadeProgram) {
    for id in [event_ids::LOAD, event_ids::STORE] {
        let e = *p.table().entry(id).expect("AtomCheck programs loads/stores");
        let mut raw: EventTableEntry = e;
        raw.partial = false;
        // Without the partial bit a passing check would filter the
        // event outright and lose the access-type update; force
        // dispatch by making the check unsatisfiable.
        raw.operands[0].inv_id = raw.operands[0].inv_id.map(|_| fade::InvId::new(31));
        raw.operands[2].inv_id = raw.operands[2].inv_id.map(|_| fade::InvId::new(31));
        p.set_entry(id, raw);
        p.set_invariant(fade::InvId::new(31), 0xfe); // never matches
    }
}

fn main() {
    let cfg = SystemConfig::fade_single_core();
    let pt = |monitor: &str, workload: &str, cfg: &SystemConfig, program: FadeProgram| {
        Experiment::new(bench::by_name(workload).unwrap(), monitor, *cfg).program(program)
    };

    const SUU_POINTS: [(&str, &str); 3] =
        [("MemCheck", "gcc"), ("MemLeak", "gcc"), ("MemLeak", "astar")];
    const PARTIAL_POINTS: [&str; 3] = ["water", "ocean", "stream."];
    const BLOCKING_POINTS: [&str; 4] = ["astar", "gcc", "mcf", "omnet"];
    const MULTI_SHOT_POINTS: [&str; 2] = ["gcc", "hmmer"];

    let mut matrix = ExperimentMatrix::new();
    for (monitor, workload) in SUU_POINTS {
        matrix.push(pt(monitor, workload, &cfg, edited_program(monitor, |_| {})));
        matrix.push(pt(monitor, workload, &cfg, edited_program(monitor, |p| p.clear_suu())));
    }
    for workload in PARTIAL_POINTS {
        matrix.push(pt("AtomCheck", workload, &cfg, edited_program("AtomCheck", |_| {})));
        matrix.push(pt("AtomCheck", workload, &cfg, edited_program("AtomCheck", no_partial)));
    }
    for workload in BLOCKING_POINTS {
        matrix.push(pt("MemLeak", workload, &cfg, edited_program("MemLeak", |_| {})));
        matrix.push(pt(
            "MemLeak",
            workload,
            &cfg.with_mode(FilterMode::Blocking),
            edited_program("MemLeak", |_| {}),
        ));
    }
    for workload in MULTI_SHOT_POINTS {
        matrix.push(pt("MemCheck", workload, &cfg, edited_program("MemCheck", |_| {})));
        matrix.push(pt(
            "MemCheck",
            workload,
            &cfg,
            fade_monitors::MemCheck::new().program_multi_shot(),
        ));
    }

    let mut runs = matrix.run_stats().into_iter();
    let mut slow = || -> f64 { runs.next().expect("one result per ablation point").slowdown() };

    println!("Ablation 1: Stack-Update Unit (monitors that shadow the stack)");
    let mut t = Table::new(["monitor/bench", "with SUU", "SUU disabled (software)"]);
    for (monitor, workload) in SUU_POINTS {
        let (with_suu, without) = (slow(), slow());
        t.row([
            format!("{monitor}/{workload}"),
            format!("{with_suu:.2}"),
            format!("{without:.2}"),
        ]);
    }
    t.print();

    println!("\nAblation 2: partial filtering (AtomCheck)");
    let mut t = Table::new(["bench", "partial filtering", "full handler always"]);
    for workload in PARTIAL_POINTS {
        let (with_partial, without) = (slow(), slow());
        t.row([
            workload.to_string(),
            format!("{with_partial:.2}"),
            format!("{without:.2}"),
        ]);
    }
    t.print();

    println!("\nAblation 3: non-blocking filtering (per benchmark, MemLeak)");
    let mut t = Table::new(["bench", "non-blocking", "blocking"]);
    for workload in BLOCKING_POINTS {
        let (nb, blocking) = (slow(), slow());
        t.row([
            workload.to_string(),
            format!("{nb:.2}"),
            format!("{blocking:.2}"),
        ]);
    }
    t.print();

    println!("\nAblation 4: single-shot vs multi-shot encoding (MemCheck)");
    let mut t = Table::new(["bench", "single-shot", "two-shot chain"]);
    for workload in MULTI_SHOT_POINTS {
        let (single, multi) = (slow(), slow());
        t.row([
            workload.to_string(),
            format!("{single:.2}"),
            format!("{multi:.2}"),
        ]);
    }
    t.print();
}

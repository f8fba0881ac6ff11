//! Calibration diagnostic: per monitor × benchmark, print the raw
//! quantities the paper's figures depend on, plus the accelerator's
//! stall breakdown. Not a paper figure itself — a tuning aid.
//!
//! The whole monitor × benchmark × {FADE, unaccelerated} grid is one
//! `Runs::run` call, sharded across workers.

use fade_bench::experiments::{suite_for, Entry, Runs};
use fade_bench::Table;
use fade_monitors::all_monitors;
use fade_system::SystemConfig;

fn usage() -> ! {
    eprintln!(
        "usage: calibrate [MONITOR]\n\
         \n\
         Print the calibration table of one monitor (default: all five)."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 {
        eprintln!("calibrate: unexpected argument {:?}", args[1]);
        usage();
    }
    let only_monitor = args.first().cloned();
    let selected = |name: &str| match &only_monitor {
        Some(m) => name.eq_ignore_ascii_case(m),
        None => true,
    };
    let monitors = all_monitors();
    if !monitors.iter().any(|m| selected(m.name())) {
        let known: Vec<&str> = monitors.iter().map(|m| m.name()).collect();
        eprintln!(
            "calibrate: unknown monitor {:?} (known: {})",
            args[0],
            known.join(", ")
        );
        usage();
    }

    let names: Vec<&str> = monitors
        .iter()
        .map(|m| m.name())
        .filter(|&n| selected(n))
        .collect();
    let fade = SystemConfig::fade_single_core();
    let unacc = SystemConfig::unaccelerated_single_core();
    let mut runs = Runs::default();
    runs.run("calibrate", &[Entry::new(&names, fade), Entry::new(&names, unacc)]);

    for name in names {
        println!("== {name} ==");
        let mut t = Table::new([
            "bench", "appIPC", "monIPC", "filt%", "sw-slow", "fade-slow", "ufq%", "drain%",
            "suu%", "md%", "tlb%", "appblk%", "occ",
        ]);
        for b in suite_for(name) {
            let f = runs.get(name, b.name, &fade, None);
            let u = runs.get(name, b.name, &unacc, None);
            let fs = f.fade.unwrap();
            let cyc = f.cycles.max(1) as f64;
            t.row([
                b.name.to_string(),
                format!("{:.2}", f.app_ipc()),
                format!("{:.2}", f.monitored_ipc()),
                format!("{:.1}", 100.0 * f.filtering_ratio()),
                format!("{:.2}", u.slowdown()),
                format!("{:.2}", f.slowdown()),
                format!("{:.1}", 100.0 * fs.ufq_full_stall_cycles as f64 / cyc),
                format!("{:.1}", 100.0 * fs.drain_stall_cycles as f64 / cyc),
                format!("{:.1}", 100.0 * fs.suu_busy_cycles as f64 / cyc),
                format!("{:.1}", 100.0 * fs.md_miss_stall_cycles as f64 / cyc),
                format!("{:.1}", 100.0 * fs.tlb_miss_stall_cycles as f64 / cyc),
                format!("{:.1}", 100.0 * f.util.app_idle as f64 / cyc),
                format!("{:.0}", f.occupancy.mean()),
            ]);
        }
        t.print();
        println!();
    }
}

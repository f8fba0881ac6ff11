//! Calibration diagnostic: sample the register-metadata population and
//! report breakdowns per monitor. Not a paper figure — a tuning aid.
//!
//! Demonstrates the incremental `Session` driving style: step the
//! run, inspect live state, repeat.

use fade_isa::Reg;
use fade_system::{Session, SystemConfig};
use fade_trace::bench;

fn usage() -> ! {
    eprintln!(
        "usage: diag [MONITOR [BENCHMARK]]\n\
         \n\
         Sample the register-metadata population of one monitor on one\n\
         benchmark (default: MemCheck gcc) and print its dirty fraction."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        eprintln!("diag: unexpected argument {:?}", args[2]);
        usage();
    }
    let mon = args.first().map(String::as_str).unwrap_or("MemCheck");
    let bname = args.get(1).map(String::as_str).unwrap_or("gcc");
    let Some(b) = bench::by_name(bname) else {
        eprintln!("diag: unknown benchmark {bname:?}");
        usage();
    };
    let mut session = Session::builder()
        .monitor(mon)
        .source(b)
        .config(SystemConfig::fade_single_core())
        .build()
        .unwrap_or_else(|e| {
            eprintln!("diag: {e}");
            usage();
        });
    // A register's clean value: MemCheck's is INIT (3), every other
    // monitor's is 0. Keyed on the resolved name, so any spelling the
    // registry accepts gives the same answer.
    let clean_value = match session.monitor().name() {
        "MemCheck" => 3,
        _ => 0,
    };
    let mut dirty_regs = 0u64;
    let mut samples = 0u64;
    for _ in 0..200 {
        session.run(1000).expect("diag run");
        for r in Reg::all() {
            if session.state().reg_meta(r) != clean_value {
                dirty_regs += 1;
            }
            samples += 1;
        }
    }
    println!(
        "{}/{}: dirty register fraction = {:.3}",
        session.monitor().name(),
        session.bench().name,
        dirty_regs as f64 / samples as f64
    );
    for r in session.monitor().reports().iter().take(10) {
        println!("{r}");
    }
}

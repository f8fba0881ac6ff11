//! Golden digests of every generated benchmark stream.
//!
//! For each profile of the three paper suites (`spec_int_suite`,
//! `taint_suite`, `parallel_suite`) at two seeds, the synthetic program
//! generates records until it has produced the first [`INSTRS`]
//! instructions. The snapshot line holds the record count, the
//! generator's own `instrs()`, `calls()` and `mallocs()` counters, and
//! an FNV-1a digest of every record, into
//! `tests/golden/generator_streams.txt`.
//!
//! The generator is deterministic, so any diff is a change to the
//! workload every figure, table and recorded trace is built from: a
//! generator refactor must leave this file byte-identical.
//!
//! To regenerate after an *intentional* workload change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p fade-repro --test golden_generator
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use fade_repro::trace::{bench, BenchProfile, SyntheticProgram};

/// Instructions generated per stream.
const INSTRS: u64 = 20_000;
/// The default session seed and a second, unrelated one.
const SEEDS: [u64; 2] = [0x5eed, 4242];

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/repro; the golden files live in the
    // repository-root tests/ directory next to this test's source.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/generator_streams.txt")
}

/// FNV-1a, fed the `Debug` rendering of each record: every field of
/// every record kind takes part.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn stream_line(profile: &BenchProfile, seed: u64, out: &mut String) {
    let mut prog = SyntheticProgram::new(profile, seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut records = 0u64;
    while prog.instrs() < INSTRS {
        let r = prog.next_record();
        write!(h, "{r:?};").unwrap();
        records += 1;
    }
    writeln!(
        out,
        "{} seed={seed:#x} records={records} instrs={} calls={} mallocs={} digest={:016x}",
        profile.name,
        prog.instrs(),
        prog.calls(),
        prog.mallocs(),
        h.0
    )
    .unwrap();
}

fn snapshot() -> String {
    let mut out = String::new();
    let profiles = bench::spec_int_suite()
        .into_iter()
        .chain(bench::taint_suite())
        .chain(bench::parallel_suite());
    for p in profiles {
        for seed in SEEDS {
            stream_line(&p, seed, &mut out);
        }
    }
    out
}

#[test]
fn generated_streams_match_golden_digests() {
    let snap = snapshot();
    assert_eq!(
        snap.lines().count(),
        17 * SEEDS.len(),
        "17 profiles × seeds"
    );
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &snap).expect("write golden file");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (g, s) in golden.lines().zip(snap.lines()) {
        assert_eq!(g, s, "generated stream drifted from the golden digest");
    }
    assert_eq!(
        golden, snap,
        "generator_streams.txt drifted; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

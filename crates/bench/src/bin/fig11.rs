//! Regenerates the paper's Figure 11.

fn main() {
    print!("{}", fade_bench::experiments::fig11());
}

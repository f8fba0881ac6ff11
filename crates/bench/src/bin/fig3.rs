//! Regenerates the paper's Figure 3.

fn main() {
    print!("{}", fade_bench::experiments::fig3());
}

//! Regenerates the paper's Figure 2.

fn main() {
    print!("{}", fade_bench::experiments::fig2());
}

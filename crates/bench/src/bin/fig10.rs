//! Regenerates the paper's Figure 10.

fn main() {
    print!("{}", fade_bench::experiments::fig10());
}

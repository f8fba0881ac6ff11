//! Regenerates the paper's Figure 4.

fn main() {
    print!("{}", fade_bench::experiments::fig4());
}

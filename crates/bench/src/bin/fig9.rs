//! Regenerates the paper's Figure 9.

fn main() {
    print!("{}", fade_bench::experiments::fig9());
}

//! Regenerates the paper's Table 2.

fn main() {
    print!("{}", fade_bench::experiments::table2());
}

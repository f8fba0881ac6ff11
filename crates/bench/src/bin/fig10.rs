//! Regenerates the paper's Figure 10.

use fade_bench::experiments::{fig10, Runs};

fn main() {
    print!("{}", fig10(&mut Runs::default()));
}

//! Regenerates the paper's Figure 2.

use fade_bench::experiments::{fig2, Runs};

fn main() {
    print!("{}", fig2(&mut Runs::default()));
}

//! Regenerates the paper's Figure 3.

use fade_bench::experiments::{fig3, Runs};

fn main() {
    print!("{}", fig3(&mut Runs::default()));
}

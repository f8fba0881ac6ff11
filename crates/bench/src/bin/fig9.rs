//! Regenerates the paper's Figure 9.

use fade_bench::experiments::{fig9, Runs};

fn main() {
    print!("{}", fig9(&mut Runs::default()));
}

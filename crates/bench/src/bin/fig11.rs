//! Regenerates the paper's Figure 11.

use fade_bench::experiments::{fig11, Runs};

fn main() {
    print!("{}", fig11(&mut Runs::default()));
}

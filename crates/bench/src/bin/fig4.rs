//! Regenerates the paper's Figure 4.

use fade_bench::experiments::{fig4, Runs};

fn main() {
    print!("{}", fig4(&mut Runs::default()));
}

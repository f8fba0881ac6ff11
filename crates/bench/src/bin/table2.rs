//! Regenerates the paper's Table 2.

use fade_bench::experiments::{table2, Runs};

fn main() {
    print!("{}", table2(&mut Runs::default()));
}

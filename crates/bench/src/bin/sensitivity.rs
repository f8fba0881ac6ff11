//! Prints the sensitivity sweeps of FADE's hardware parameters.

use fade_bench::experiments::{sensitivity, Runs};

fn main() {
    print!("{}", sensitivity(&mut Runs::default()));
}

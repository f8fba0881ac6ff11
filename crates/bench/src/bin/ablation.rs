//! Prints the ablations of FADE's design choices.

use fade_bench::experiments::{ablation, Runs};

fn main() {
    print!("{}", ablation(&mut Runs::default()));
}

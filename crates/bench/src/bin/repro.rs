//! `repro <table1|fig7|fig8|fig9|fig10|fig11|ablation|all> [--smoke]`:
//! prints the reproduction report (see the `bench` crate docs) to stdout;
//! measured seconds go to stderr. The paper's sizes by default, `--smoke`
//! for the seconds-long preset.

use bench::{report, Preset, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--smoke")
        .collect();
    match names[..] {
        [which] if which == "all" || EXPERIMENTS.contains(&which) => {
            let preset = if smoke { Preset::Smoke } else { Preset::Paper };
            print!("{}", report(preset, which));
        }
        _ => {
            eprintln!("usage: repro <{}|all> [--smoke]", EXPERIMENTS.join("|"));
            std::process::exit(2)
        }
    }
}

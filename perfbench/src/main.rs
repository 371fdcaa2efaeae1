//! `perfbench --workload <wide_examples|serve_warm> --seed <n>
//! --seconds <n> --trace <0|1> [--size full|tiny]`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 when an
//! attempt failed (an output check, a timeout, exhaustion, an error reply
//! or a panic), 2 on bad arguments or a set-up failure.

use std::process::ExitCode;

use perfbench::{run, Config, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", config.workload.name());
            return ExitCode::from(2);
        }
    };
    for message in &result.tally.messages {
        eprintln!("perfbench: {}: {message}", config.workload.name());
    }
    let spec = if config.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result.to_json_line(spec));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

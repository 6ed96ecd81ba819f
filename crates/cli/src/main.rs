//! `wsyn` — command-line interface for deterministic maximum-error wavelet
//! synopses.
//!
//! ```text
//! wsyn generate --kind zipf --n 256 --seed 7 --out data.txt
//! wsyn transform --input data.txt
//! wsyn build --input data.txt --budget 16 --metric rel:1.0 --algo minmax --out syn.json
//! wsyn eval --synopsis syn.json --input data.txt --metric rel:1.0
//! wsyn query --synopsis syn.json point 5
//! wsyn query --synopsis syn.json range 0 64
//! ```
//!
//! Input files hold one `f64` per line (blank lines and `#` comments
//! ignored); synopses are stored as JSON.

#![forbid(unsafe_code)]
// The CLI sits outside every guarantee-carrying path: it may time
// commands and keep its flag table in a `HashMap`.
#![allow(clippy::disallowed_types)]

use std::process::ExitCode;

mod args;
mod commands;
mod io;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}

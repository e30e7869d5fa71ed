//! `amped` — command line interface to the AMPeD performance model.
//!
//! Subcommands:
//!
//! * `presets` — list built-in model/accelerator presets
//! * `estimate` — predict training time and breakdown for one mapping
//! * `search` — rank every parallelism mapping on a system
//! * `simulate` — run the discrete-event simulator on one mapping
//! * `memory` — per-device memory footprint of a mapping
//! * `resilience` — expected time under failures (checkpoint/restart model)
//!
//! Run `amped help` for flags.
//!
//! Exit codes: 0 success, 2 for usage errors (bad flags, unknown names),
//! 1 for everything else (unreadable files, model-layer failures).

mod args;
mod commands;

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = args::Args::parse(std::env::args().skip(1));
    match commands::dispatch(&parsed) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // A reader that stops early (`amped … | head -1`) closed the
                // pipe on purpose: nothing is left to report.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: writing output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(error) => {
            eprintln!("error: {error}");
            match error {
                amped_core::Error::Usage { .. } => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
    }
}

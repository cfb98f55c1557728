//! Regenerates the paper's tables and figures: the rows of
//! `footprint_bench::figures::FIGURES`.
//!
//! ```bash
//! cargo run --release -p footprint-bench --bin figures                # list the rows
//! cargo run --release -p footprint-bench --bin figures -- fig2 fig5   # print those rows
//! cargo run --release -p footprint-bench --bin figures -- --all       # write results/<row>.txt for every row
//! ```
//!
//! The environment sets the mode: `FOOTPRINT_QUICK` (short phases, sparse
//! axes), `FOOTPRINT_OBSERVE` (probe artefacts where a row offers them)
//! and `FOOTPRINT_RESULTS_DIR` (where files land; default `results`).

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use footprint_bench::figures::{Figure, FIGURES};
use footprint_bench::Mode;

/// The one place the figures read the environment.
fn mode_from_env() -> Mode {
    Mode {
        quick: std::env::var_os("FOOTPRINT_QUICK").is_some(),
        observe: std::env::var_os("FOOTPRINT_OBSERVE").is_some(),
        results: std::env::var_os("FOOTPRINT_RESULTS_DIR")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from),
    }
}

fn list() -> String {
    FIGURES
        .iter()
        .map(|f| format!("  {:<13} {}\n", f.name, f.about))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("usage: figures <row>... | --all\n\nrows:\n{}", list());
        return ExitCode::SUCCESS;
    }
    let all = args == ["--all"];
    let mut rows: Vec<&Figure> = Vec::new();
    if all {
        rows.extend(FIGURES);
    } else {
        for name in &args {
            let Some(row) = FIGURES.iter().find(|f| f.name == name) else {
                eprint!("figures: unknown row `{name}`\n\nrows:\n{}", list());
                return ExitCode::FAILURE;
            };
            rows.push(row);
        }
    }
    let mode = mode_from_env();
    for row in rows {
        if let Err(e) = emit(row, &mode, all) {
            eprintln!("figures: {}: {e}", row.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs `row` and prints its report, or with `--all` writes it to
/// `<row>.txt` in the results directory.
fn emit(row: &Figure, mode: &Mode, all: bool) -> io::Result<()> {
    let report = row.run(mode)?;
    if all {
        let path = mode.write(&format!("{}.txt", row.name), report)?;
        println!("{}: wrote {}", row.name, path.display());
    } else {
        print!("{report}");
    }
    Ok(())
}

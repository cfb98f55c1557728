//! The figure table against the committed `results/`: every result file
//! belongs to a row, and the rows that do not depend on phase lengths
//! reproduce their files byte for byte.

use std::collections::HashSet;
use std::path::PathBuf;

use footprint_bench::figures::FIGURES;
use footprint_bench::Mode;

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn row_names_are_unique() {
    let mut seen = HashSet::new();
    for row in FIGURES {
        assert!(seen.insert(row.name), "row `{}` appears twice", row.name);
    }
}

#[test]
fn every_committed_result_names_a_row() {
    let mut checked = 0;
    for entry in std::fs::read_dir(results()).expect("results/ is committed") {
        let path = entry.expect("results/ is readable").path();
        if path.extension().is_some_and(|e| e == "txt") {
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
            assert!(
                FIGURES.iter().any(|row| row.name == stem),
                "{} names no row of the figure table",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no results/*.txt found");
}

/// `table1`, `table2`, `table3` and `cost` run no timed simulation, and
/// `fig2` runs fixed cycle counts: their output is the same in every mode,
/// so their committed files must match the code exactly.
#[test]
fn phase_independent_rows_reproduce_their_committed_results() {
    let mode = Mode {
        quick: false,
        observe: false,
        results: std::env::temp_dir(),
    };
    for name in ["table1", "table2", "table3", "cost", "fig2"] {
        let row = FIGURES.iter().find(|row| row.name == name).expect("row exists");
        let committed = std::fs::read_to_string(results().join(format!("{name}.txt")))
            .expect("result is committed");
        let report = row.run(&mode).expect("row writes no files");
        assert!(
            report == committed,
            "results/{name}.txt is stale: regenerate it with \
             `cargo run --release -p footprint-bench --bin figures -- {name} > results/{name}.txt`\n\
             --- committed\n{committed}\n--- current\n{report}"
        );
    }
}

//! The paper's evaluation as one table: every table, figure and campaign
//! is a [`Figure`] row of [`FIGURES`], run by the `figures` binary.

use std::io;

use footprint_core::{JobSet, RoutingSpec};
use footprint_stats::{Curve, Table};
use footprint_topology::TopologySpec;

use crate::{write_curves, Mode};

mod ablation;
mod burst_sweep;
mod chaos;
mod curves;
mod fault_sweep;
mod fig10;
mod fig2;
mod fig9;
mod tables;

/// One artefact of the evaluation.
pub struct Figure {
    /// The row's name: `figures <name>` prints it, `figures --all` writes
    /// it to `results/<name>.txt`.
    pub name: &'static str,
    /// One line saying what the row reproduces.
    pub about: &'static str,
    write: fn(&Mode, &mut Vec<u8>) -> io::Result<()>,
}

impl Figure {
    /// Runs the row and returns its report.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from rows that write result files.
    pub fn run(&self, mode: &Mode) -> io::Result<String> {
        let mut out = Vec::new();
        (self.write)(mode, &mut out)?;
        String::from_utf8(out).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Every row, in the order `figures --all` runs them.
pub const FIGURES: &[Figure] = &[
    row("table1", "Table 1: qualitative and measured two-level adaptiveness", tables::table1),
    row("table2", "Table 2: the simulation configuration", tables::table2),
    row("table3", "Table 3: the hotspot flow set", tables::table3),
    row("cost", "§4.4: Footprint's storage overhead", tables::cost),
    row("fig2", "Figure 2: congestion-tree shape and its HoL impact", fig2::fig2),
    row("fig5", "Figure 5: latency-throughput, single-flit packets", curves::fig5),
    row("fig6", "Figure 6: latency-throughput, 1..6-flit packets", curves::fig6),
    row("fig7", "Figure 7: DBAR vs Footprint at 2..16 VCs", curves::fig7),
    row("fig8", "Figure 8: DBAR vs Footprint on 4x4, 8x8, 16x16", curves::fig8),
    row("fig9", "Figure 9: hotspot vs background traffic", fig9::fig9),
    row("fig10", "Figure 10: PARSEC-like pairs, purity, HoL", fig10::fig10),
    row("ablation", "Footprint's tiering, joins and threshold", ablation::ablation),
    row("fig_topology", "8x8 torus vs 8x8 mesh, plus a ring", curves::fig_topology),
    row("fault_sweep", "latency-throughput under link faults", fault_sweep::fault_sweep),
    row("chaos", "seeded Monte-Carlo fault campaign", chaos::chaos),
    row("burst_sweep", "steady vs bursty load", burst_sweep::burst_sweep),
];

const fn row(
    name: &'static str,
    about: &'static str,
    write: fn(&Mode, &mut Vec<u8>) -> io::Result<()>,
) -> Figure {
    Figure { name, about, write }
}

/// The paper's four headline algorithms: the ones that carry over to
/// wrapping fabrics (the static class→VC collapses are mesh-only).
const HEADLINE: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
];

/// The fabrics the fault rows sweep, with their VC budgets.
const FABRICS: [(TopologySpec, usize); 3] = [
    (TopologySpec::Mesh { width: 8, height: 8 }, 10),
    (TopologySpec::Torus { width: 8, height: 8 }, 10),
    (TopologySpec::Ring { nodes: 16 }, 6),
];

/// Runs a job set of table rows and collects them under `header`.
fn table<const N: usize>(header: [&str; N], jobs: JobSet<'_, [String; N]>) -> Table {
    let mut t = Table::new(header);
    for row in jobs.run() {
        t.row(row);
    }
    t
}

/// Takes the next curve per algorithm of `algos` off `curves`, writes them
/// as one block under `title`, and adds a summary row per curve: `key`,
/// the algorithm's name, its saturation throughput.
fn curve_block(
    out: &mut Vec<u8>,
    title: &str,
    curves: &mut impl Iterator<Item = Curve>,
    algos: &[RoutingSpec],
    key: &[String],
    summary: &mut Table,
) -> io::Result<()> {
    let block: Vec<Curve> = algos
        .iter()
        .map(|_| curves.next().expect("one curve per queued spec"))
        .collect();
    write_curves(out, title, &block)?;
    for (spec, c) in algos.iter().zip(&block) {
        let mut row = key.to_vec();
        row.extend([spec.name().to_string(), c.saturation(3.0).to_string()]);
        summary.row(row);
    }
    Ok(())
}

/// Footprint's and DBAR's saturation throughputs, then `compare(fp, dbar)`.
/// The comparison is "n/a" unless both curves reached saturation: a curve
/// that never saturated gives only a lower bound, and comparing bounds
/// would print a made-up number as data.
fn saturation_pair(
    footprint: &Curve,
    dbar: &Curve,
    compare: impl Fn(f64, f64) -> Option<String>,
) -> [String; 3] {
    let (fp, db) = (footprint.saturation(3.0), dbar.saturation(3.0));
    let cell = match (fp.reached(), db.reached()) {
        (Some(fp), Some(db)) => compare(fp, db),
        _ => None,
    };
    [fp.to_string(), db.to_string(), cell.unwrap_or_else(|| "n/a".to_string())]
}

//! Fault sweep: latency-throughput curves for the paper's four headline
//! algorithms under 0, 1 and 2 injected link faults — on the 8×8 mesh,
//! the 8×8 torus, and the 16-node ring.
//!
//! The fault scenarios cut duplex links near the fabric's center (where
//! the damage to minimal-path diversity is largest on the 2-D fabrics):
//!
//! * `0 faults` — the baseline curve (empty [`FaultPlan`]).
//! * `1 fault`  — one grid link down from cycle 0 (n27↔n28 on the 2-D
//!   fabrics, n5↔n6 on the ring).
//! * `2 faults` — a second grid cut (n36↔n44, or n11↔n12 on the ring —
//!   which *partitions* the ring, so the curves document degraded-mode
//!   delivery on the two surviving arcs).
//!
//! All cuts are grid (non-wraparound) links, so every scenario passes the
//! wrap-safety check on the torus and ring without degraded-escape mode;
//! the dateline-cut regime is the chaos campaign's job (`chaos`).
//!
//! Adaptive algorithms route around the cuts and only drop the provably
//! unreachable pairs; DOR drops every pair whose XY path needs a dead hop.
//! Each point reports accepted throughput, mean latency and the drop
//! fraction; everything lands in `fault_sweep.csv` alongside the stdout
//! tables.
//!
//! Quick mode switches to the sparse rate axis and short phases.

use std::io::{self, Write};

use footprint_core::{JobSet, RoutingSpec, RunError, RunOptions, SimulationBuilder, TrafficSpec};
use footprint_topology::{Direction, FaultEvent, FaultPlan, NodeId, TopologySpec};

use super::{FABRICS, HEADLINE};
use crate::{default_rates, phased, quick_rates, Mode, Phases};

fn scenarios(fabric: TopologySpec) -> Vec<(&'static str, FaultPlan)> {
    let (one, two) = if let TopologySpec::Ring { .. } = fabric {
        let one = FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let two = one
            .clone()
            .with(FaultEvent::link_down(NodeId(11), Direction::East, 0));
        (one, two)
    } else {
        let one = FaultPlan::new().with(FaultEvent::link_down(NodeId(27), Direction::East, 0));
        let two = one
            .clone()
            .with(FaultEvent::link_down(NodeId(36), Direction::North, 0));
        (one, two)
    };
    vec![
        ("0_faults", FaultPlan::new()),
        ("1_fault", one),
        ("2_faults", two),
    ]
}

/// Runs one point and returns its CSV fields from `accepted` on, and its
/// line in the printed table.
fn run_point(
    builder: &SimulationBuilder,
    algo: &str,
    index: usize,
    rate: f64,
    plan: &FaultPlan,
) -> (String, String) {
    let point = builder.sweep_point(index, rate);
    match point.run_with(RunOptions::new().faults(plan.clone()).watchdog(10_000)) {
        Ok(report) => {
            let (accepted, latency) = (report.latency.throughput, report.latency.mean_latency);
            let (delivered, dropped) = (report.faults.delivered(), report.faults.dropped());
            let pairs = report.faults.unreachable_pairs.len();
            (
                format!("{accepted:.4},{latency:.2},{delivered},{dropped},{pairs},ok"),
                format!("{algo:<12} {rate:>8.3} {accepted:>9.4} {latency:>9.2} {dropped:>9} {pairs:>6}"),
            )
        }
        // The watchdog tripped (wedged wormholes past saturation with the
        // escape path cut) — recorded, not fatal.
        Err(RunError::Stalled(_)) => (
            ",,,,,stalled".to_string(),
            format!("{algo:<12} {rate:>8.3} {:>9} {:>9} {:>9} {:>6}", "stalled", "-", "-", "-"),
        ),
        Err(e) => panic!("fault sweep configuration must be valid: {e}"),
    }
}

fn fault_builder(fabric: TopologySpec, vcs: usize, spec: RoutingSpec, phases: Phases) -> SimulationBuilder {
    let builder = SimulationBuilder::paper_default()
        .topology(fabric)
        .vcs(vcs)
        .routing(spec)
        .traffic(TrafficSpec::UniformRandom);
    // Whole-run measurement (warmup 0) with a drain phase, so the fault
    // accounting in each report satisfies `generated = delivered + dropped`.
    phased(builder, phases, 0x0F00)
        .warmup(0)
        .measurement(phases.warmup + phases.measurement)
        .drain(phases.measurement)
}

pub(super) fn fault_sweep(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let rates = if mode.quick {
        quick_rates()
    } else {
        default_rates()
    };

    // One flat job set over every (fabric × scenario × algorithm × rate)
    // point, so the whole figure saturates the worker pool at once.
    let mut jobs = JobSet::new();
    for (fabric, vcs) in FABRICS {
        for (name, plan) in scenarios(fabric) {
            let faults = plan.events().len();
            for spec in HEADLINE {
                let builder = fault_builder(fabric, vcs, spec, mode.phases());
                for (index, &rate) in rates.iter().enumerate() {
                    let (plan, builder) = (plan.clone(), builder.clone());
                    jobs.push(move || {
                        let algo = spec.name();
                        let (fields, line) = run_point(&builder, algo, index, rate, &plan);
                        let csv = format!("{fabric},{name},{faults},{algo},{rate:.3},{fields}\n");
                        (fabric, name, csv, line)
                    });
                }
            }
        }
    }
    let rows = jobs.run();

    let mut csv = String::from(
        "fabric,scenario,faults,algorithm,offered,accepted,latency,delivered,dropped,unreachable_pairs,status\n",
    );
    csv.extend(rows.iter().map(|r| r.2.as_str()));
    let path = mode.write("fault_sweep.csv", &csv)?;

    for (fabric, _) in FABRICS {
        for (name, plan) in scenarios(fabric) {
            writeln!(
                out,
                "## Fault sweep ({fabric}, {name}: {} link fault(s)) — uniform random",
                plan.events().len()
            )?;
            writeln!(out, "{:<12} {:>8} {:>9} {:>9} {:>9} {:>6}", "algorithm", "offered", "accepted", "latency", "dropped", "pairs")?;
            for r in rows.iter().filter(|r| r.0 == fabric && r.1 == name) {
                writeln!(out, "{}", r.3)?;
            }
            writeln!(out)?;
        }
    }
    writeln!(out, "# fault_sweep: wrote {}", path.display())
}

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
//! fraction; everything lands in `results/fault_sweep.csv` alongside the
//! stdout tables.
//!
//! `FOOTPRINT_QUICK=1` switches to the sparse rate axis and short phases.

use std::fmt::Write as _;

use footprint_bench::{
    default_rates, paper_builder, phases_from_env, quick, quick_rates, results_dir, Phases,
};
use footprint_core::{
    JobSet, RoutingSpec, RunError, RunOptions, SimulationBuilder, TrafficSpec,
};
use footprint_topology::{Direction, FaultEvent, FaultPlan, NodeId};

/// Algorithms compared under faults: the paper's main adaptive trio plus
/// the oblivious baseline.
const ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
];

/// The swept fabrics. The mesh and torus share the 8×8 scale (and the
/// same center cuts); the ring gets 1-D cuts of its own.
const FABRICS: [&str; 3] = ["mesh:8x8", "torus:8x8", "ring:16"];

fn scenarios(fabric: &str) -> Vec<(&'static str, FaultPlan)> {
    let (one, two) = if fabric == "ring:16" {
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

/// One completed sweep point plus its fault accounting.
struct Row {
    fabric: &'static str,
    scenario: &'static str,
    faults: usize,
    algo: &'static str,
    offered: f64,
    outcome: Outcome,
}

enum Outcome {
    Done {
        accepted: f64,
        latency: f64,
        delivered: u64,
        dropped: u64,
        unreachable_pairs: usize,
    },
    /// The watchdog tripped (wedged wormholes past saturation with the
    /// escape path cut) — recorded, not fatal.
    Stalled,
}

fn run_point(
    builder: &SimulationBuilder,
    index: usize,
    rate: f64,
    plan: &FaultPlan,
) -> Outcome {
    let point = builder.sweep_point(index, rate);
    match point.run_with(RunOptions::new().faults(plan.clone()).watchdog(10_000)) {
        Ok(report) => Outcome::Done {
            accepted: report.latency.throughput,
            latency: report.latency.mean_latency,
            delivered: report.faults.delivered(),
            dropped: report.faults.dropped(),
            unreachable_pairs: report.faults.unreachable_pairs.len(),
        },
        Err(RunError::Stalled(_)) => Outcome::Stalled,
        Err(e) => panic!("fault sweep configuration must be valid: {e}"),
    }
}

fn main() {
    let phases = phases_from_env();
    let rates = if quick() {
        quick_rates()
    } else {
        default_rates()
    };

    // One flat job set over every (fabric × scenario × algorithm × rate)
    // point, so the whole figure saturates the worker pool at once.
    let mut jobs = JobSet::new();
    for fabric in FABRICS {
        for (name, plan) in scenarios(fabric) {
            let faults = plan.events().len();
            for spec in ALGOS {
                let builder = fault_builder(fabric, spec, phases);
                for (index, &rate) in rates.iter().enumerate() {
                    let (plan, builder) = (plan.clone(), builder.clone());
                    jobs.push(move || Row {
                        fabric,
                        scenario: name,
                        faults,
                        algo: spec.name(),
                        offered: rate,
                        outcome: run_point(&builder, index, rate, &plan),
                    });
                }
            }
        }
    }
    let rows = jobs.run();

    let mut csv = String::from(
        "fabric,scenario,faults,algorithm,offered,accepted,latency,delivered,dropped,unreachable_pairs,status\n",
    );
    for r in &rows {
        match &r.outcome {
            Outcome::Done {
                accepted,
                latency,
                delivered,
                dropped,
                unreachable_pairs,
            } => writeln!(
                csv,
                "{},{},{},{},{:.3},{accepted:.4},{latency:.2},{delivered},{dropped},{unreachable_pairs},ok",
                r.fabric, r.scenario, r.faults, r.algo, r.offered
            )
            .unwrap(),
            Outcome::Stalled => writeln!(
                csv,
                "{},{},{},{},{:.3},,,,,,stalled",
                r.fabric, r.scenario, r.faults, r.algo, r.offered
            )
            .unwrap(),
        }
    }
    let path = results_dir()
        .expect("results/ must be writable")
        .join("fault_sweep.csv");
    std::fs::write(&path, &csv).expect("results/ must be writable");

    for fabric in FABRICS {
        for (name, plan) in scenarios(fabric) {
            println!(
                "## Fault sweep ({fabric}, {name}: {} link fault(s)) — uniform random",
                plan.events().len()
            );
            println!("{:<12} {:>8} {:>9} {:>9} {:>9} {:>6}", "algorithm", "offered", "accepted", "latency", "dropped", "pairs");
            for r in rows.iter().filter(|r| r.fabric == fabric && r.scenario == name) {
                match &r.outcome {
                    Outcome::Done {
                        accepted,
                        latency,
                        dropped,
                        unreachable_pairs,
                        ..
                    } => println!(
                        "{:<12} {:>8.3} {:>9.4} {:>9.2} {:>9} {:>6}",
                        r.algo, r.offered, accepted, latency, dropped, unreachable_pairs
                    ),
                    Outcome::Stalled => println!(
                        "{:<12} {:>8.3} {:>9} {:>9} {:>9} {:>6}",
                        r.algo, r.offered, "stalled", "-", "-", "-"
                    ),
                }
            }
            println!();
        }
    }
    println!("# fault_sweep: wrote {}", path.display());
}

fn fault_builder(fabric: &str, spec: RoutingSpec, phases: Phases) -> SimulationBuilder {
    // Whole-run measurement (warmup 0) with a drain phase, so the fault
    // accounting in each report satisfies `generated = delivered + dropped`.
    let base = match fabric {
        "mesh:8x8" => paper_builder(spec, TrafficSpec::UniformRandom, phases),
        "torus:8x8" => SimulationBuilder::torus(8)
            .vcs(10)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .warmup(phases.warmup)
            .measurement(phases.measurement)
            .seed(0x0F00),
        "ring:16" => SimulationBuilder::ring(16)
            .vcs(6)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .warmup(phases.warmup)
            .measurement(phases.measurement)
            .seed(0x0F00),
        other => panic!("unknown fabric {other}"),
    };
    base.warmup(0)
        .measurement(phases.warmup + phases.measurement)
        .drain(phases.measurement)
}

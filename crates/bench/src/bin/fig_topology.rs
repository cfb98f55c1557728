//! Topology comparison: latency-throughput on an 8×8 torus vs the paper's
//! 8×8 mesh (plus a 16-node ring for scale), same algorithms, same
//! patterns, same VC budget.
//!
//! The torus halves the network diameter (wraparound links) at the cost of
//! two dateline escape classes, so its curves should show lower zero-load
//! latency and later saturation on distance-heavy patterns — most visibly
//! on tornado, which is adversarial for meshes (every packet travels
//! half the ring in x) and nearly free for tori.
//!
//! Run with `FOOTPRINT_QUICK=1` for a fast smoke pass.

use footprint_bench::{
    default_rates, paper_builder, phases_from_env, print_curves, quick, quick_rates, CurveSet,
};
use footprint_core::{SimulationBuilder, TrafficSpec};
use footprint_routing::RoutingSpec;
use footprint_stats::Table;
use footprint_topology::TopologySpec;

/// The algorithms that carry over to wrapping fabrics (the static
/// class→VC collapses are mesh-only and excluded).
const ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
];

const PATTERNS: [TrafficSpec; 3] = [
    TrafficSpec::UniformRandom,
    TrafficSpec::Tornado,
    TrafficSpec::Transpose,
];

fn fabrics() -> [TopologySpec; 2] {
    [TopologySpec::mesh(8), TopologySpec::torus(8)]
}

fn main() {
    let phases = phases_from_env();
    let rates = if quick() {
        quick_rates()
    } else {
        default_rates()
    };
    let mut set = CurveSet::new(&rates);
    for traffic in PATTERNS {
        for topo in fabrics() {
            for spec in ALGOS {
                set.add_labeled(
                    format!("{} @ {topo}", spec.name()),
                    paper_builder(spec, traffic, phases).topology(topo),
                );
            }
        }
    }
    let mut curves = set.run().into_iter();

    let mut summary = Table::new(["pattern", "topology", "algorithm", "saturation throughput"]);
    for traffic in PATTERNS {
        for topo in fabrics() {
            let block: Vec<_> = ALGOS
                .iter()
                .map(|_| curves.next().expect("one curve per queued spec"))
                .collect();
            print_curves(
                &format!("Topology figure ({traffic} on {topo}) — 10 VCs, single-flit"),
                &block,
            );
            for (spec, c) in ALGOS.iter().zip(&block) {
                summary.row([
                    traffic.name().to_string(),
                    topo.to_string(),
                    spec.name().to_string(),
                    c.saturation(3.0).to_string(),
                ]);
            }
        }
    }
    println!("{}", summary.render());

    // Ring scale point: one curve at matched VC budget, Footprint only —
    // the 16-node ring is a diameter stress, not a paper configuration.
    let ring = SimulationBuilder::ring(16)
        .vcs(10)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .warmup(phases.warmup)
        .measurement(phases.measurement)
        .seed(0x0F00)
        .sweep_with(&rates, footprint_core::SweepOptions::new())
        .expect("ring configuration must be valid");
    print_curves("Topology figure (uniform random on ring:16)", &[ring]);
}

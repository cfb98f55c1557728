//! Figure 8: scalability — DBAR's saturation throughput normalized to
//! Footprint's on 4×4, 8×8 and 16×16 meshes (10 VCs).

use footprint_bench::{default_rates, phases_from_env, CurveSet};
use footprint_core::{SimulationBuilder, TrafficSpec};
use footprint_routing::RoutingSpec;
use footprint_stats::Table;
use footprint_topology::TopologySpec;

fn main() {
    let phases = phases_from_env();
    let rates = default_rates();
    // Every (pattern, mesh, algorithm) sweep is queued as one batch; the
    // saturation criterion is applied to the returned curves.
    let mut set = CurveSet::new(&rates);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for k in [4u16, 8, 16] {
            for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
                set.add(
                    SimulationBuilder::paper_default()
                        .topology(TopologySpec::mesh(k))
                        .routing(spec)
                        .traffic(traffic)
                        .warmup(phases.warmup)
                        .measurement(phases.measurement)
                        .seed(0x0F16 + k as u64),
                );
            }
        }
    }
    let mut curves = set.run().into_iter();
    let mut t = Table::new([
        "pattern",
        "mesh",
        "footprint sat.",
        "dbar sat.",
        "dbar normalized",
    ]);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for k in [4u16, 8, 16] {
            let sats: Vec<footprint_stats::Saturation> = (0..2)
                .map(|_| {
                    curves
                        .next()
                        .expect("one curve per queued spec")
                        .saturation(3.0)
                })
                .collect();
            // Normalization only makes sense between two *measured*
            // crossings: a curve that never saturated yields a lower
            // bound, and dividing bounds (or the old 0.0 sentinel) would
            // print a meaningless ratio as if it were data.
            let normalized = match (sats[0].reached(), sats[1].reached()) {
                (Some(fp), Some(dbar)) if fp > 0.0 => format!("{:.3}", dbar / fp),
                _ => "n/a".to_string(),
            };
            t.row([
                traffic.name(),
                format!("{k}x{k}"),
                sats[0].to_string(),
                sats[1].to_string(),
                normalized,
            ]);
        }
    }
    println!("Figure 8 — DBAR saturation throughput normalized to Footprint\n");
    println!("{}", t.render());
    println!("Expectation (paper): normalized DBAR < 1 everywhere, and smaller on 16x16");
    println!("than 4x4 (Footprint's margin grows with network size).");
}

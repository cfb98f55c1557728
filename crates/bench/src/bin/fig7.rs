//! Figure 7: impact of the number of VCs — DBAR vs Footprint with 2, 4, 8
//! and 16 VCs per physical channel (plus the 10-VC baseline), 8×8 mesh.

use footprint_bench::{default_rates, gain, paper_builder, phases_from_env, print_curves, CurveSet};
use footprint_core::TrafficSpec;
use footprint_routing::RoutingSpec;
use footprint_stats::table::pct;
use footprint_stats::Table;

fn main() {
    let phases = phases_from_env();
    let rates = default_rates();
    let vc_counts = [2usize, 4, 8, 16];
    let mut set = CurveSet::new(&rates);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for &vcs in &vc_counts {
            for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
                set.add(paper_builder(spec, traffic, phases).vcs(vcs));
            }
        }
    }
    let mut curves = set.run().into_iter();
    let mut summary = Table::new([
        "pattern",
        "VCs",
        "footprint sat.",
        "dbar sat.",
        "footprint gain",
    ]);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for &vcs in &vc_counts {
            let block: Vec<_> = (0..2)
                .map(|_| curves.next().expect("one curve per queued spec"))
                .collect();
            let sats: Vec<footprint_stats::Saturation> =
                block.iter().map(|c| c.saturation(3.0)).collect();
            // A gain only makes sense between two *measured* crossings: an
            // empty or unsaturated curve has no saturation point, and
            // collapsing it to 0.0 would print a made-up +0.0% as data.
            let fp_gain = match (sats[0].reached(), sats[1].reached()) {
                (Some(fp), Some(dbar)) => pct(gain(fp, dbar)),
                _ => "n/a".to_string(),
            };
            print_curves(
                &format!("Figure 7 ({traffic}, {vcs} VCs) — DBAR vs Footprint"),
                &block,
            );
            summary.row([
                traffic.name(),
                vcs.to_string(),
                sats[0].to_string(),
                sats[1].to_string(),
                fp_gain,
            ]);
        }
    }
    println!("{}", summary.render());
}

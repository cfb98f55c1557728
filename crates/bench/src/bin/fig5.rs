//! Figure 5: latency-throughput comparison of all seven routing algorithms
//! on uniform random, transpose and shuffle traffic with single-flit
//! packets (8×8 mesh, 10 VCs).

use footprint_bench::{
    default_rates, observe_from_env, observed_run, paper_builder, phases_from_env, print_artifacts,
    print_curves, CurveSet,
};
use footprint_core::TrafficSpec;
use footprint_routing::RoutingSpec;
use footprint_stats::Table;

fn main() {
    let phases = phases_from_env();
    let rates = default_rates();
    // All pattern × algorithm curves go into one job set: the full figure
    // is a single flat batch of (curve, rate) simulations.
    let mut set = CurveSet::new(&rates);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for spec in RoutingSpec::PAPER_SET {
            set.add(paper_builder(spec, traffic, phases));
        }
    }
    let mut curves = set.run().into_iter();
    let mut summary = Table::new(["pattern", "algorithm", "saturation throughput"]);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        let block: Vec<_> = RoutingSpec::PAPER_SET
            .iter()
            .map(|_| curves.next().expect("one curve per queued spec"))
            .collect();
        print_curves(
            &format!("Figure 5 ({traffic}) — single-flit packets, 8x8, 10 VCs"),
            &block,
        );
        for c in &block {
            summary.row([
                traffic.name(),
                c.label.clone(),
                c.saturation(3.0).to_string(),
            ]);
        }
    }
    println!("{}", summary.render());

    // With FOOTPRINT_OBSERVE set, rerun one representative mid-load point
    // per pattern (Footprint routing) with the full observability stack and
    // drop occupancy timelines + flit-event traces under results/.
    if let Some(opts) = observe_from_env() {
        for traffic in TrafficSpec::PAPER_PATTERNS {
            let label = format!("fig5_{}_footprint", traffic.name());
            let builder =
                paper_builder(RoutingSpec::Footprint, traffic, phases).injection_rate(0.30);
            let (report, paths) =
                observed_run(&label, &builder, opts).expect("results/ must be writable");
            println!("# {label}: {report}");
            print_artifacts(&label, &paths);
        }
    }
}

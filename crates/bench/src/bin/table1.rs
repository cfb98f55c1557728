//! Table 1: qualitative comparison of routing algorithms, backed by the
//! *measured* two-level adaptiveness of our implementations.
//!
//! The paper's Table 1 is qualitative (+/o/-). This binary reproduces that
//! table and augments it with the quantitative metrics of §3.1 computed
//! from the actual routing functions: mean path-level port adaptiveness on
//! the 8×8 mesh and the Eq. (3) VC adaptiveness at 10 VCs. The per-
//! algorithm measurements (an all-pairs path walk each) run as one job
//! set.

use footprint_core::JobSet;
use footprint_routing::adaptiveness::{mean_path_adaptiveness, vc_adaptiveness};
use footprint_routing::RoutingSpec;
use footprint_stats::Table;
use footprint_topology::AnyTopology;

fn main() {
    let mesh = AnyTopology::mesh(8, 8);
    let num_vcs = 10;

    println!("Table 1 — qualitative comparison (paper rows for the algorithms we implement)\n");
    let mut qual = Table::new([
        "",
        "DBAR",
        "XORDET",
        "Odd-Even",
        "Footprint",
    ]);
    qual.row(["P_adapt", "+", "N/A", "+", "+"]);
    qual.row(["VC_adapt", "-", "N/A", "-", "+"]);
    qual.row(["Network congestion", "+", "-", "o", "o"]);
    qual.row(["Endpoint congestion", "-", "+", "-", "o"]);
    qual.row(["HoL blocking", "-", "o", "-", "+"]);
    println!("{}", qual.render());

    println!("Measured two-level adaptiveness (8x8 mesh, {num_vcs} VCs):\n");
    let mut jobs = JobSet::new();
    for spec in [
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
        RoutingSpec::Footprint,
        RoutingSpec::DorXordet,
    ] {
        jobs.push(move || {
            let algo = spec.build();
            let p = mean_path_adaptiveness(mesh, &*algo);
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "N/A".to_string(),
            };
            [
                spec.name().to_string(),
                format!("{p:.4}"),
                fmt(vc_adaptiveness(&*algo, num_vcs, false)),
                fmt(vc_adaptiveness(&*algo, num_vcs, true)),
            ]
        });
    }
    let mut t = Table::new([
        "algorithm",
        "mean P_adapt (paths)",
        "VC_adapt (adaptive ch.)",
        "VC_adapt (escape ch.)",
    ]);
    for row in jobs.run() {
        t.row(row);
    }
    println!("{}", t.render());
    println!("(Footprint: Eq. (3) — escape channel 1.0, adaptive channels (V-1)/V.)");
}

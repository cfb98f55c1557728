//! Two-level adaptiveness report (§3.1): quantify each routing algorithm's
//! port adaptiveness (path diversity) and VC adaptiveness on any mesh.
//!
//! ```bash
//! cargo run --release --example adaptiveness_report -- 8
//! ```
//!
//! The optional argument is the mesh radix (default 8).

use footprint_suite::routing::adaptiveness::{
    mean_path_adaptiveness, path_adaptiveness, vc_adaptiveness,
};
use footprint_suite::prelude::{NodeId, RoutingSpec};
use footprint_suite::topology::AnyTopology;

fn main() {
    let k: u16 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mesh = AnyTopology::mesh(k, k);
    let num_vcs = 10;
    println!("Two-level adaptiveness on the {mesh} with {num_vcs} VCs\n");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>12}",
        "algorithm", "mean P_adapt", "corner-corner", "VC_adapt", "VC_adapt esc"
    );
    let corner_a = NodeId(0);
    let corner_b = NodeId((mesh.len() - 1) as u16);
    for spec in [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
        RoutingSpec::DorXordet,
    ] {
        let algo = spec.build();
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "N/A".to_string(),
        };
        println!(
            "{:<16} {:>12.4} {:>14.6} {:>12} {:>12}",
            spec.name(),
            mean_path_adaptiveness(mesh, &*algo),
            path_adaptiveness(mesh, &*algo, corner_a, corner_b),
            fmt(vc_adaptiveness(&*algo, num_vcs, false)),
            fmt(vc_adaptiveness(&*algo, num_vcs, true)),
        );
    }
    println!("\nmean P_adapt: allowed minimal paths / all minimal paths, averaged over");
    println!("all source-destination pairs. corner-corner: the single hardest pair —");
    println!("deterministic routing allows one of C(2(k-1), k-1) paths.");
}

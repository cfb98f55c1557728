//! Figure 2: congestion-tree shape and HoL impact under different routing
//! algorithms.
//!
//! Reproduces the paper's motivating example: the four-flow permutation
//! `{f1: n0→n10, f2: n1→n15, f3: n4→n13, f4: n12→n13}` on a 4×4 mesh.
//! `f1`/`f2` create *network* congestion; `f3`/`f4` oversubscribe `n13`
//! (*endpoint* congestion). Two measurements:
//!
//! 1. **Tree shape** — steady-state congestion tree of `n13`: links, VCs
//!    and mean branch thickness. DOR saturates all VCs of few links (thick,
//!    narrow); adaptive routing spreads over more links; XORDET pins the
//!    tree to one VC per link (thin).
//! 2. **HoL impact** — the *functional* meaning of a slim tree: mean
//!    latency of light uniform background traffic sharing the mesh with the
//!    hotspot flows. Under sustained oversubscription every work-conserving
//!    algorithm eventually fills all the VCs it ever touched (the backlog
//!    must sit somewhere), so the background latency — how much the tree
//!    hurts everyone else — is the discriminating metric, and is where
//!    Footprint beats the fully adaptive baseline.
//!
//! Both parts run fixed cycle counts, so the row does not depend on the
//! mode.

use std::io::{self, Write};

use footprint_core::{JobSet, RoutingSpec, SimulationBuilder, TrafficSpec};
use footprint_stats::{table::f1 as fmt1, TreeAnalysis};
use footprint_topology::NodeId;
use footprint_traffic::{Overlay, PacketSize, Pattern, SyntheticWorkload, FIGURE2};

use super::table;
use crate::Mode;

const ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Dor,
    RoutingSpec::Dbar,
    RoutingSpec::DorXordet,
    RoutingSpec::Footprint,
];

pub(super) fn fig2(_: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    for vcs in [4usize, 10] {
        tree_shape(out, vcs)?;
    }
    hol_impact(out)
}

/// Part 1: the congestion tree of the oversubscribed endpoint. Each
/// algorithm's drive-and-sample loop is one job in the set.
fn tree_shape(out: &mut Vec<u8>, vcs: usize) -> io::Result<()> {
    writeln!(out, "Figure 2 — congestion tree of the oversubscribed endpoint n13 (4x4 mesh, {vcs} VCs)\n")?;
    let mut jobs = JobSet::new();
    for spec in ALGOS {
        jobs.push(move || {
            let (mut net, mut wl) = SimulationBuilder::mesh(4)
                .vcs(vcs)
                .routing(spec)
                .traffic(TrafficSpec::Figure2)
                .injection_rate(1.0)
                .seed(0xF16)
                .build()
                .expect("static experiment config");
            net.run(&mut *wl, 500);
            let (mut links, mut vcs_sum, mut occ) = (0usize, 0usize, 0usize);
            let samples = 20;
            let mut snapshot = Vec::new();
            for _ in 0..samples {
                net.run(&mut *wl, 25);
                net.occupancy_snapshot_into(&mut snapshot);
                let analysis = TreeAnalysis::from_snapshot(&snapshot);
                if let Some(tree) = analysis.tree(NodeId(13)) {
                    links += tree.links;
                    vcs_sum += tree.vcs;
                }
                occ += analysis.occupied_vcs;
            }
            let links = links as f64 / samples as f64;
            let vcs_avg = vcs_sum as f64 / samples as f64;
            [
                spec.name().to_string(),
                fmt1(links),
                fmt1(vcs_avg),
                fmt1(if links > 0.0 { vcs_avg / links } else { 0.0 }),
                fmt1(occ as f64 / samples as f64),
            ]
        });
    }
    let t = table(
        ["algorithm", "links", "VCs", "thickness", "total occupied VCs"],
        jobs,
    );
    writeln!(out, "{}", t.render())
}

/// Part 2: the impact of the congestion tree on background traffic.
fn hol_impact(out: &mut Vec<u8>) -> io::Result<()> {
    writeln!(out, "Figure 2 (impact) — background latency beside the hotspot flows (4x4, 10 VCs)\n")?;
    let mut jobs = JobSet::new();
    for spec in ALGOS {
        jobs.push(move || {
            let (mut net, _) = SimulationBuilder::mesh(4)
                .vcs(10)
                .routing(spec)
                .seed(0xF16)
                .build()
                .expect("static experiment config");
            let mesh = footprint_topology::AnyTopology::mesh(4, 4);
            let fg = SyntheticWorkload::new(mesh, Pattern::Flows(FIGURE2), PacketSize::SINGLE, 1.0)
                .expect("the Figure 2 flows fit the 4x4 mesh")
                .with_class(1);
            let bg = SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::SINGLE, 0.15)
                .expect("uniform runs on any fabric");
            let mut wl = Overlay::new(fg, bg);
            net.run(&mut wl, 500);
            net.metrics_mut().reset_window();
            net.run(&mut wl, 3000);
            let m = net.metrics();
            [
                spec.name().to_string(),
                format!("{:.1}", m.class(0).mean_latency()),
                format!("{:.3}", m.throughput(0, 16)),
            ]
        });
    }
    let t = table(["algorithm", "bg latency", "bg throughput"], jobs);
    writeln!(out, "{}", t.render())?;
    writeln!(out, "Expectation (paper): XORDET isolates best (thin static branches); Footprint")?;
    writeln!(out, "beats the fully adaptive and deterministic baselines by regulating the")?;
    writeln!(out, "hotspot flows onto footprint VCs.")
}

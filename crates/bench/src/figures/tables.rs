//! Tables 1–3 and the §4.4 cost model: the rows that run no timed
//! simulation.

use std::io::{self, Write};

use footprint_core::{JobSet, SimConfig};
use footprint_routing::adaptiveness::{mean_path_adaptiveness, vc_adaptiveness};
use footprint_routing::cost::{
    ceil_log2, cost_in_flit_entries, footprint_storage_bits_per_port,
    footprint_storage_bits_per_router,
};
use footprint_routing::RoutingSpec;
use footprint_stats::Table;
use footprint_topology::AnyTopology;
use footprint_traffic::TABLE3;

use super::table;
use crate::Mode;

/// Table 1: qualitative comparison of routing algorithms, backed by the
/// *measured* two-level adaptiveness of our implementations.
///
/// The paper's Table 1 is qualitative (+/o/-). This row reproduces that
/// table and augments it with the quantitative metrics of §3.1 computed
/// from the actual routing functions: mean path-level port adaptiveness on
/// the 8×8 mesh and the Eq. (3) VC adaptiveness at 10 VCs. The per-
/// algorithm measurements (an all-pairs path walk each) run as one job
/// set.
pub(super) fn table1(_: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let mesh = AnyTopology::mesh(8, 8);
    let num_vcs = 10;

    writeln!(out, "Table 1 — qualitative comparison (paper rows for the algorithms we implement)\n")?;
    let mut qual = Table::new(["", "DBAR", "XORDET", "Odd-Even", "Footprint"]);
    qual.row(["P_adapt", "+", "N/A", "+", "+"]);
    qual.row(["VC_adapt", "-", "N/A", "-", "+"]);
    qual.row(["Network congestion", "+", "-", "o", "o"]);
    qual.row(["Endpoint congestion", "-", "+", "-", "o"]);
    qual.row(["HoL blocking", "-", "o", "-", "+"]);
    writeln!(out, "{}", qual.render())?;

    writeln!(out, "Measured two-level adaptiveness (8x8 mesh, {num_vcs} VCs):\n")?;
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
    let t = table(
        [
            "algorithm",
            "mean P_adapt (paths)",
            "VC_adapt (adaptive ch.)",
            "VC_adapt (escape ch.)",
        ],
        jobs,
    );
    writeln!(out, "{}", t.render())?;
    writeln!(out, "(Footprint: Eq. (3) — escape channel 1.0, adaptive channels (V-1)/V.)")
}

/// Table 2: the network simulation configuration, printed from the live
/// defaults so documentation can never drift from the code.
pub(super) fn table2(_: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let cfg = SimConfig::paper_default();
    writeln!(out, "Table 2 — network simulation configuration (defaults in bold in the paper)\n")?;
    let mut t = Table::new(["parameter", "value"]);
    let topology = format!("4x4, **{}**, 16x16 2D meshes", cfg.topo());
    let vcs = format!(
        "2, 4, 8, **{}**, 16 VCs per physical channel; buffer depth {}",
        cfg.num_vcs, cfg.vc_buffer_depth
    );
    let speedup = format!("internal speedup = {}.0", cfg.speedup);
    t.row(["Network topology", &topology]);
    t.row([
        "Routing algorithms",
        "**Footprint**, DBAR, Odd-Even, DOR, DBAR+XORDET, Odd-Even+XORDET, DOR+XORDET",
    ]);
    t.row(["Virtual channels", &vcs]);
    t.row(["Traffic patterns", "**Uniform random**, transpose, shuffle, hotspot, PARSEC-like traces"]);
    t.row(["Packet size", "**single-flit**, {1..6}-flit uniformly distributed"]);
    t.row(["Flow control", "credit-based, wormhole"]);
    t.row(["Allocators", "priority-based VC allocator, round-robin switch allocator"]);
    t.row(["Speedup", &speedup]);
    writeln!(out, "{}", t.render())
}

/// Table 3: the hotspot traffic configuration, printed from the live flow
/// set used by the Figure 9 experiment.
pub(super) fn table3(_: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    writeln!(out, "Table 3 — hotspot traffic flows (8x8 mesh)\n")?;
    let mut t = Table::new(["flow", "source", "destination"]);
    for (i, (src, dest)) in TABLE3.iter().enumerate() {
        t.row([format!("f{}", i + 1), src.to_string(), dest.to_string()]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(out, "Background: uniform random at 0.30 flits/node/cycle from all other nodes.")?;
    writeln!(out, "Latency is measured on the background traffic only (paper §4.2.5).")
}

/// §4.4: the implementation-cost model of Footprint routing.
pub(super) fn cost(_: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    writeln!(out, "§4.4 — Footprint storage overhead\n")?;
    let mut t = Table::new([
        "mesh",
        "VCs",
        "bits/port",
        "bits/router (5 ports)",
        "flit entries @128b",
        "flit entries @256b",
    ]);
    for (nodes, label) in [(16usize, "4x4"), (64, "8x8"), (256, "16x16")] {
        for vcs in [2usize, 4, 8, 10, 16] {
            let bits = footprint_storage_bits_per_port(nodes, vcs);
            t.row([
                label.to_string(),
                vcs.to_string(),
                bits.to_string(),
                footprint_storage_bits_per_router(nodes, vcs, 5).to_string(),
                format!("{:.2}", cost_in_flit_entries(bits, 128)),
                format!("{:.2}", cost_in_flit_entries(bits, 256)),
            ]);
        }
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Paper check: 8x8 mesh, 16 VCs → {} bits/port (paper: 132; owner register \
         log2(64)={} bits + 2 state bits per VC, idle counter log2(16)={} bits per port).",
        footprint_storage_bits_per_port(64, 16),
        ceil_log2(64),
        ceil_log2(16),
    )
}

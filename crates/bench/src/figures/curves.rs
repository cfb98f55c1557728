//! The latency-throughput figures: Figures 5–8 and the topology
//! comparison. Each queues all of its curves in one [`CurveSet`].

use std::io::{self, Write};

use footprint_core::{PacketSize, SimulationBuilder, SweepOptions, TrafficSpec};
use footprint_routing::RoutingSpec;
use footprint_stats::table::pct;
use footprint_stats::Table;
use footprint_topology::TopologySpec;

use super::{curve_block, saturation_pair, HEADLINE};
use crate::{
    default_rates, gain, observed_run, paper_builder, phased, quick_rates, write_curves,
    CurveSet, Mode,
};

/// Figure 5: latency-throughput comparison of all seven routing algorithms
/// on uniform random, transpose and shuffle traffic with single-flit
/// packets (8×8 mesh, 10 VCs).
///
/// With [`Mode::observe`], one representative mid-load point per pattern
/// (Footprint routing) reruns with the full observability stack and drops
/// occupancy timelines and flit-event traces into the results directory.
pub(super) fn fig5(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    paper_patterns(mode, out, "Figure 5", "single-flit packets", PacketSize::SINGLE)?;
    if mode.observe {
        for traffic in TrafficSpec::PAPER_PATTERNS {
            let label = format!("fig5_{}_footprint", traffic.name());
            let builder = paper_builder(RoutingSpec::Footprint, traffic, mode.phases())
                .injection_rate(0.30);
            let (report, paths) = observed_run(&label, &builder, mode)?;
            writeln!(out, "# {label}: {report}")?;
            for p in paths {
                writeln!(out, "# {label}: wrote {}", p.display())?;
            }
        }
    }
    Ok(())
}

/// Figure 6: latency-throughput comparison with variable packet sizes
/// (1–6 flits, uniformly distributed), 8×8 mesh, 10 VCs.
pub(super) fn fig6(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    paper_patterns(mode, out, "Figure 6", "1..6-flit packets", PacketSize::PAPER_VARIABLE)
}

/// Every paper algorithm on every paper pattern at `size`: one block of
/// curves per pattern, then a saturation summary. `Saturation` renders
/// ">= x" for curves that never crossed 3× zero-load latency in the
/// measured range (and "n/a" for empty curves) instead of a fake 0.000.
fn paper_patterns(
    mode: &Mode,
    out: &mut Vec<u8>,
    figure: &str,
    packets: &str,
    size: PacketSize,
) -> io::Result<()> {
    let mut set = CurveSet::new(&default_rates());
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for spec in RoutingSpec::PAPER_SET {
            set.add(paper_builder(spec, traffic, mode.phases()).packet_size(size));
        }
    }
    let mut curves = set.run().into_iter();
    let mut summary = Table::new(["pattern", "algorithm", "saturation throughput"]);
    for traffic in TrafficSpec::PAPER_PATTERNS {
        curve_block(
            out,
            &format!("{figure} ({traffic}) — {packets}, 8x8, 10 VCs"),
            &mut curves,
            &RoutingSpec::PAPER_SET,
            &[traffic.name()],
            &mut summary,
        )?;
    }
    writeln!(out, "{}", summary.render())
}

/// Figure 7: impact of the number of VCs — DBAR vs Footprint with 2, 4, 8
/// and 16 VCs per physical channel, 8×8 mesh.
pub(super) fn fig7(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let vc_counts = [2usize, 4, 8, 16];
    let mut set = CurveSet::new(&default_rates());
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for &vcs in &vc_counts {
            for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
                set.add(paper_builder(spec, traffic, mode.phases()).vcs(vcs));
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
            let block: Vec<_> = curves.by_ref().take(2).collect();
            let [fp, db, fp_gain] =
                saturation_pair(&block[0], &block[1], |fp, db| Some(pct(gain(fp, db))));
            write_curves(
                out,
                &format!("Figure 7 ({traffic}, {vcs} VCs) — DBAR vs Footprint"),
                &block,
            )?;
            summary.row([traffic.name(), vcs.to_string(), fp, db, fp_gain]);
        }
    }
    writeln!(out, "{}", summary.render())
}

/// Figure 8: scalability — DBAR's saturation throughput normalized to
/// Footprint's on 4×4, 8×8 and 16×16 meshes (10 VCs).
pub(super) fn fig8(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let mut set = CurveSet::new(&default_rates());
    for traffic in TrafficSpec::PAPER_PATTERNS {
        for k in [4u16, 8, 16] {
            for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
                let builder = SimulationBuilder::paper_default()
                    .topology(TopologySpec::mesh(k))
                    .routing(spec)
                    .traffic(traffic);
                set.add(phased(builder, mode.phases(), 0x0F16 + k as u64));
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
            let block: Vec<_> = curves.by_ref().take(2).collect();
            let [fp, db, normalized] = saturation_pair(&block[0], &block[1], |fp, db| {
                (fp > 0.0).then(|| format!("{:.3}", db / fp))
            });
            t.row([traffic.name(), format!("{k}x{k}"), fp, db, normalized]);
        }
    }
    writeln!(out, "Figure 8 — DBAR saturation throughput normalized to Footprint\n")?;
    writeln!(out, "{}", t.render())?;
    writeln!(out, "Expectation (paper): normalized DBAR < 1 everywhere, and smaller on 16x16")?;
    writeln!(out, "than 4x4 (Footprint's margin grows with network size).")
}

/// Topology comparison: latency-throughput on an 8×8 torus vs the paper's
/// 8×8 mesh (plus a 16-node ring for scale), same algorithms, same
/// patterns, same VC budget.
///
/// The torus halves the network diameter (wraparound links) at the cost of
/// two dateline escape classes, so its curves should show lower zero-load
/// latency and later saturation on distance-heavy patterns — most visibly
/// on tornado, which is adversarial for meshes (every packet travels
/// half the ring in x) and nearly free for tori.
pub(super) fn fig_topology(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    const PATTERNS: [TrafficSpec; 3] = [
        TrafficSpec::UniformRandom,
        TrafficSpec::Tornado,
        TrafficSpec::Transpose,
    ];
    let fabrics = [TopologySpec::mesh(8), TopologySpec::torus(8)];
    let rates = if mode.quick {
        quick_rates()
    } else {
        default_rates()
    };
    let mut set = CurveSet::new(&rates);
    for traffic in PATTERNS {
        for topo in fabrics {
            for spec in HEADLINE {
                set.add_labeled(
                    format!("{} @ {topo}", spec.name()),
                    paper_builder(spec, traffic, mode.phases()).topology(topo),
                );
            }
        }
    }
    let mut curves = set.run().into_iter();

    let mut summary = Table::new(["pattern", "topology", "algorithm", "saturation throughput"]);
    for traffic in PATTERNS {
        for topo in fabrics {
            curve_block(
                out,
                &format!("Topology figure ({traffic} on {topo}) — 10 VCs, single-flit"),
                &mut curves,
                &HEADLINE,
                &[traffic.name(), topo.to_string()],
                &mut summary,
            )?;
        }
    }
    writeln!(out, "{}", summary.render())?;

    // Ring scale point: one curve at matched VC budget, Footprint only —
    // the 16-node ring is a diameter stress, not a paper configuration.
    let ring = SimulationBuilder::ring(16)
        .vcs(10)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom);
    let ring = phased(ring, mode.phases(), 0x0F00)
        .sweep_with(&rates, SweepOptions::new())
        .expect("ring configuration must be valid");
    write_curves(out, "Topology figure (uniform random on ring:16)", &[ring])
}

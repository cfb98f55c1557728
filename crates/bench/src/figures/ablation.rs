//! Ablation study of Footprint's design choices (the knobs DESIGN.md's
//! calibration notes call out):
//!
//! * **Tiering** — behaviour-matched footprint-first vs Algorithm 1's
//!   literal priority labels (idle above footprint).
//! * **Joins** — strict atomic reallocation (standing requests) vs joining
//!   still-draining footprint VCs, bounded and unbounded.
//! * **Congestion threshold** — the idle-VC count below which a port is
//!   treated as congested (paper: V/2).
//!
//! Each variant runs the two discriminating workloads: saturated shuffle
//! (stability of permutation traffic) and the Figure 9 hotspot mix
//! (isolation quality, background latency/throughput). All variants of a
//! workload run as one job set.

use std::io::{self, Write};

use footprint_core::JobSet;
use footprint_routing::{AnyRouting, Tiers};
use footprint_sim::{Network, SimConfig};
use footprint_traffic::{HotspotWorkload, PacketSize, Pattern, SyntheticWorkload};

use super::table;
use crate::Mode;

struct Variant {
    label: &'static str,
    tiers: Tiers,
}

const VARIANTS: [Variant; 7] = [
    Variant {
        label: "default (fp-first, no join)",
        tiers: Tiers::new(),
    },
    Variant {
        label: "literal Algorithm-1 tiers",
        tiers: Tiers::new().with_literal_tiering(),
    },
    Variant {
        label: "with joins (unbounded)",
        tiers: Tiers::new().with_join(),
    },
    Variant {
        label: "with joins, max 1 fp VC",
        tiers: Tiers::new().with_join().with_max_footprint_vcs(1),
    },
    Variant {
        label: "threshold 0 (never congested)",
        tiers: Tiers::with_threshold(0),
    },
    Variant {
        label: "threshold 2",
        tiers: Tiers::with_threshold(2),
    },
    Variant {
        label: "threshold V (always congested)",
        tiers: Tiers::with_threshold(usize::MAX >> 1),
    },
];

pub(super) fn ablation(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let phases = mode.phases();
    let cfg = SimConfig::paper_default();

    writeln!(out, "Footprint ablation — saturated shuffle (rate 0.54, 8x8, 10 VCs)\n")?;
    let mut jobs = JobSet::new();
    for v in &VARIANTS {
        let tiers = v.tiers;
        let label = v.label;
        jobs.push(move || {
            let mut net = Network::new(cfg, Box::new(AnyRouting::footprint(tiers)), 0xAB1).expect("valid config");
            let mut wl =
                SyntheticWorkload::new(cfg.topo(), Pattern::Shuffle, PacketSize::SINGLE, 0.54)
                    .expect("64 nodes are a power of two");
            net.run(&mut wl, phases.warmup);
            net.metrics_mut().reset_window();
            net.run(&mut wl, phases.measurement);
            let m = net.metrics();
            [
                label.to_string(),
                format!("{:.3}", m.total_throughput(64)),
                format!("{:.1}", m.total().mean_latency()),
                m.va_blocks.to_string(),
            ]
        });
    }
    let t = table(["variant", "throughput", "latency", "VA blocks"], jobs);
    writeln!(out, "{}", t.render())?;

    writeln!(out, "Footprint ablation — hotspot isolation (hotspot 0.5, background 0.3)\n")?;
    let mut jobs = JobSet::new();
    for v in &VARIANTS {
        let tiers = v.tiers;
        let label = v.label;
        jobs.push(move || {
            let mut net = Network::new(cfg, Box::new(AnyRouting::footprint(tiers)), 0xAB2).expect("valid config");
            let mut wl = HotspotWorkload::new(cfg.topo(), 0.5, 0.30, PacketSize::SINGLE)
                .expect("Table 3 fits the 8x8 mesh");
            net.run(&mut wl, phases.warmup);
            net.metrics_mut().reset_window();
            net.run(&mut wl, phases.measurement);
            let m = net.metrics();
            [
                label.to_string(),
                format!("{:.1}", m.class(0).mean_latency()),
                format!("{:.3}", m.throughput(0, 64)),
            ]
        });
    }
    let t = table(["variant", "bg latency", "bg throughput"], jobs);
    writeln!(out, "{}", t.render())?;
    writeln!(out, "Reading: the default keeps shuffle stable AND isolates the hotspot;")?;
    writeln!(out, "literal tiers lose isolation; unbounded joins destabilize shuffle;")?;
    writeln!(out, "the threshold mainly shifts when footprint-following engages.")
}

//! Figure 9: hotspot traffic — the latency of the *background* traffic
//! (uniform random at a fixed 0.30 flits/node/cycle) as the hotspot flows'
//! injection rate sweeps up. Compares Footprint against DBAR on the
//! Table 3 flow set (8×8 mesh, 10 VCs, single-flit packets).
//!
//! The paper reports DBAR's background traffic collapsing at ≈0.39 hotspot
//! rate while Footprint holds to ≈0.56 (>40% improvement).

use std::io::{self, Write};

use footprint_core::{JobSet, RoutingSpec, SimulationBuilder, TrafficSpec};
use footprint_stats::table::pct;
use footprint_stats::{Table, TreeTimeline};
use footprint_traffic::{BACKGROUND_CLASS, TABLE3};

use super::table;
use crate::{gain, phased, CurveSet, Mode};

pub(super) fn fig9(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let phases = mode.phases();
    // Dense sampling around the collapse region (the latency cliff is
    // sharp, so coarse steps would hide the algorithms' separation).
    let mut rates = Vec::new();
    let mut r = 0.05;
    while r < 0.299 {
        rates.push((r * 1000.0_f64).round() / 1000.0);
        r += 0.05;
    }
    while r < 0.699 {
        rates.push((r * 1000.0_f64).round() / 1000.0);
        r += 0.02;
    }
    while r <= 1.0001 {
        rates.push((r * 1000.0_f64).round() / 1000.0);
        r += 0.1;
    }
    writeln!(out, "Figure 9 — background-traffic latency vs hotspot injection rate\n")?;
    // Both algorithms' hotspot sweeps (summarized on the background
    // class) run as one job set.
    let mut set = CurveSet::new(&rates);
    for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
        let builder = SimulationBuilder::paper_default()
            .routing(spec)
            .traffic(TrafficSpec::PAPER_HOTSPOT);
        let builder = phased(builder, phases, 0x0F19).measurement(2 * phases.measurement);
        set.add_class(spec.name(), builder, Some(BACKGROUND_CLASS));
    }
    let curves = set.run();
    let mut sat_points = Vec::new();
    for curve in &curves {
        // Collapse criterion: the first hotspot rate at which the
        // background stops being delivered at (88% of) its offered load.
        // The paper's figure reads the same way: the point where the
        // background latency curve leaves the plot. A pure latency
        // threshold would misread Footprint's graceful degradation as
        // early saturation.
        let bg_offered = curve.points.first().map_or(0.0, |p| p.accepted);
        let sat = curve
            .points
            .iter()
            .find(|p| p.accepted < 0.88 * bg_offered)
            .map_or(
                curve.points.last().map_or(0.0, |p| p.offered),
                |p| p.offered,
            );
        sat_points.push(sat);
        writeln!(out, "{curve}# background collapses at hotspot rate ~{sat:.3}\n")?;
    }
    let mut t = Table::new(["algorithm", "bg collapse point", "vs DBAR"]);
    t.row([
        "footprint".to_string(),
        format!("{:.3}", sat_points[0]),
        pct(gain(sat_points[0], sat_points[1])),
    ]);
    t.row([
        "dbar".to_string(),
        format!("{:.3}", sat_points[1]),
        "-".to_string(),
    ]);
    writeln!(out, "{}", t.render())?;
    writeln!(out, "(Paper: DBAR ≈ 0.39, Footprint ≈ 0.56, >40% improvement.)")?;
    postponement(out)
}

/// Part 2: tree-formation postponement. §4.2.5 says Footprint "could
/// postpone but not prevent the formation of the congestion tree" — here we
/// measure the postponement directly: at a fixed hotspot rate past both
/// collapse points, how many cycles does the background survive before its
/// per-window latency degrades, and how fast does the n63 tree grow?
fn postponement(out: &mut Vec<u8>) -> io::Result<()> {
    const HS_RATE: f64 = 0.48;
    const WINDOW: u64 = 250;
    const HORIZON: u64 = 20_000;
    writeln!(out, "\nFigure 9 (postponement) — hotspot rate {HS_RATE}, background 0.3\n")?;
    // The two algorithms' drive loops are independent: one job each.
    let mut jobs = JobSet::new();
    for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
        jobs.push(move || {
            let (mut net, mut wl) = SimulationBuilder::paper_default()
                .routing(spec)
                .traffic(TrafficSpec::PAPER_HOTSPOT)
                .injection_rate(HS_RATE)
                .seed(0x0F19)
                .build()
                .expect("static experiment config");
            let mut timeline = TreeTimeline::new(TABLE3[0].1);
            let mut collapse_cycle = None;
            let mut baseline: Option<f64> = None;
            let mut snapshot = Vec::new();
            while net.cycle() < HORIZON {
                net.metrics_mut().reset_window();
                net.run(&mut *wl, WINDOW);
                net.occupancy_snapshot_into(&mut snapshot);
                timeline.record(net.cycle(), &snapshot);
                let lat = net.metrics().class(BACKGROUND_CLASS).mean_latency();
                if lat > 0.0 {
                    let base = *baseline.get_or_insert(lat);
                    if collapse_cycle.is_none() && lat > 5.0 * base {
                        collapse_cycle = Some(net.cycle());
                    }
                }
            }
            [
                spec.name().to_string(),
                collapse_cycle.map_or(format!(">{HORIZON}"), |c| c.to_string()),
                timeline.peak_vcs().to_string(),
                format!("{:.1}", timeline.growth_rate()),
            ]
        });
    }
    let t = table(
        [
            "algorithm",
            "bg survives (cycles)",
            "tree peak VCs",
            "tree growth (VCs/kcycle)",
        ],
        jobs,
    );
    writeln!(out, "{}", t.render())?;
    writeln!(out, "Reading: Footprint's tree forms later and grows more slowly — the")?;
    writeln!(out, "postponement §4.2.5 describes — even where both eventually saturate.")
}

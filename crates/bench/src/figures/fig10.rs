//! Figure 10: PARSEC-like trace workloads (substitution — see
//! `footprint-traffic::parsec`).
//!
//! * (a) mean packet latency of Footprint vs DBAR for application pairs run
//!   simultaneously;
//! * (b) purity of blocking per application (10,000 tracked packets);
//! * (c) degree of HoL blocking per application.

use std::io::{self, Write};

use footprint_core::{App, JobSet, RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
use footprint_stats::table::pct;
use footprint_stats::{PurityProbe, Table};
use footprint_traffic::APPS;

use crate::{gain, phased, Mode, Phases};

fn run_pair(a: App, b: App, spec: RoutingSpec, phases: Phases, vcs: usize) -> (f64, PurityProbe) {
    let mut probe = PurityProbe::paper();
    let builder = SimulationBuilder::paper_default()
        .vcs(vcs)
        .routing(spec)
        .traffic(TrafficSpec::ParsecPair(a, b));
    let report = phased(builder, phases, 0x0F10)
        .run_with(RunOptions::new().probe(&mut probe))
        .expect("static experiment config");
    (report.latency.mean_latency, probe)
}

/// Percentage formatter that reports "n/a" when the baseline carries no
/// signal instead of a nonsense percentage.
fn pct_or_na(ours: f64, baseline: f64) -> String {
    if baseline < 1e-6 && ours < 1e-6 {
        "n/a".to_string()
    } else if baseline < 1e-6 {
        "new".to_string()
    } else {
        pct(gain(ours, baseline))
    }
}

pub(super) fn fig10(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let phases = mode.phases();

    // (a) Latency difference on simultaneous pairs. Both algorithms' runs
    // of every pair go into one job set ((pair × algorithm) jobs).
    writeln!(out, "Figure 10(a) — mean latency, Footprint vs DBAR, simultaneous pairs\n")?;
    let mut pair_list = Vec::new();
    for (i, &a) in APPS.iter().enumerate() {
        for &b in &APPS[i..] {
            pair_list.push((a, b));
        }
    }
    let mut jobs = JobSet::new();
    for &(a, b) in &pair_list {
        for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
            jobs.push(move || run_pair(a, b, spec, phases, 10).0);
        }
    }
    let latencies = jobs.run();
    let mut ta = Table::new(["pair", "footprint", "dbar", "improvement"]);
    let mut best = (0.0f64, String::new());
    let mut sum_gain = 0.0;
    let mut pairs = 0u32;
    for (k, &(a, b)) in pair_list.iter().enumerate() {
        let (fp, db) = (latencies[2 * k], latencies[2 * k + 1]);
        // Positive improvement = Footprint's latency is lower.
        let improvement = gain(db, fp);
        sum_gain += improvement;
        pairs += 1;
        if improvement > best.0 {
            best = (improvement, format!("{}+{}", a.name(), b.name()));
        }
        ta.row([
            format!("{}+{}", a.name(), b.name()),
            format!("{fp:.1}"),
            format!("{db:.1}"),
            pct(improvement),
        ]);
    }
    writeln!(out, "{}", ta.render())?;
    writeln!(
        out,
        "mean improvement {:.1}%, best {} ({:.1}%)\n",
        100.0 * sum_gain / pairs as f64,
        best.1,
        100.0 * best.0
    )?;

    // (b)/(c) Purity and HoL degree per application. Each app is paired
    // with fluidanimate (the heaviest app) at 4 VCs so the network actually
    // blocks — a single light app at 10 VCs generates too few blocking
    // events for the statistics to mean anything (the paper's real traces
    // are heavier than our substitutes).
    writeln!(out, "Figure 10(b,c) — blocking purity and HoL degree per application")?;
    writeln!(out, "(each app paired with fluidanimate, 4 VCs, 10,000 tracked packets)\n")?;
    let mut jobs = JobSet::new();
    for &app in &APPS {
        for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
            jobs.push(move || run_pair(app, App::Fluidanimate, spec, phases, 4).1);
        }
    }
    let probes = jobs.run();
    let mut tb = Table::new([
        "app",
        "purity (footprint)",
        "purity (dbar)",
        "purity gain",
        "HoL deg (footprint)",
        "HoL deg (dbar)",
        "HoL reduction",
    ]);
    for (k, &app) in APPS.iter().enumerate() {
        let (p_fp, p_db) = (&probes[2 * k], &probes[2 * k + 1]);
        tb.row([
            app.name().to_string(),
            format!("{:.3}", p_fp.mean_purity()),
            format!("{:.3}", p_db.mean_purity()),
            pct_or_na(p_fp.mean_purity(), p_db.mean_purity()),
            format!("{:.2}", p_fp.hol_degree()),
            format!("{:.2}", p_db.hol_degree()),
            pct_or_na(p_db.hol_degree(), p_fp.hol_degree()),
        ]);
    }
    writeln!(out, "{}", tb.render())?;
    writeln!(out, "(Paper: Footprint improves purity by up to 294% / avg 44%,")?;
    writeln!(out, " reduces HoL blocking by up to 22% / avg 10%.)")
}

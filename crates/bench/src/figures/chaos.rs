//! Chaos campaign: seeded Monte-Carlo fault injection across every
//! fabric × algorithm pair.
//!
//! Each trial draws a deterministic [`FaultPlan`] from one of four
//! scenario families and runs a whole-run-measured, drained simulation
//! under the Retry recovery policy:
//!
//! * `random_cuts`    — duplex link cuts chosen uniformly from the
//!   fabric's edges ([`FaultPlan::random_link_faults`]).
//! * `dateline`       — cuts biased onto wraparound edges
//!   ([`FaultPlan::random_link_faults_biased`]); wrapping fabrics only.
//!   These trials are expected to trip the wrap-safety check — the run is
//!   first attempted normally so the typed [`RunError::EscapeCompromised`]
//!   verdict is exercised, then retried in degraded-escape mode.
//! * `router_burst`   — two routers fail in a staggered burst; one
//!   recovers mid-run.
//! * `repair`         — a mid-run duplex cut with a scheduled repair, the
//!   scenario that exercises time-to-recover and backlog re-admission.
//!
//! Every trial is deterministic in `(fabric, family, trial)`: the
//! campaign is a fixed experiment, not a fuzzer — rerunning it reproduces
//! the CSV bit for bit. Results land in `chaos_campaign.csv`: delivery
//! accounting, retry totals, partition-epoch counts, time-to-recover and
//! worst-window availability per trial.
//!
//! Quick mode shortens the phases and cuts the trial count from 5 to 2.

use std::io::{self, Write};

use footprint_core::{
    JobSet, RoutingSpec, RunError, RunOptions, RunReport, SimulationBuilder, TrafficSpec,
    UnreachablePolicy,
};
use footprint_topology::{splitmix64, Direction, FaultEvent, FaultPlan, NodeId, TopologySpec};

use super::{FABRICS, HEADLINE};
use crate::Mode;

const FAMILIES: [&str; 4] = ["random_cuts", "dateline", "router_burst", "repair"];

/// The deterministic plan for one `(fabric, family, trial)` cell. `None`
/// when the family does not apply to the fabric (dateline cuts on a mesh).
fn plan_for(fabric: TopologySpec, family: &str, trial: u64) -> Option<FaultPlan> {
    let topo = fabric.validate().expect("FABRICS are valid specs");
    let nodes = topo.len() as u64;
    // The seed mixes in the length of the fabric's textual form, so
    // every trial keeps the plan it has always drawn.
    let salt = fabric.to_string().len() as u64 ^ (family.len() as u64) << 8;
    let seed = splitmix64(trial ^ splitmix64(salt));
    match family {
        "random_cuts" => Some(FaultPlan::random_link_faults(topo, 2, seed)),
        "dateline" => FaultPlan::random_link_faults_biased(topo, 1, 1, seed).ok(),
        "router_burst" => {
            let a = NodeId((splitmix64(seed) % nodes) as u16);
            let mut b = NodeId((splitmix64(seed ^ 1) % nodes) as u16);
            if b == a {
                b = NodeId(((b.0 as u64 + 1) % nodes) as u16);
            }
            Some(
                FaultPlan::new()
                    .with(FaultEvent::router_down(a, 100))
                    .with(FaultEvent::router_down(b, 200).repaired_at(700)),
            )
        }
        "repair" => {
            // A mid-run duplex cut on a random East edge, healed later.
            let mut n = NodeId((splitmix64(seed ^ 2) % nodes) as u16);
            while topo.neighbor(n, Direction::East).is_none() {
                n = NodeId(((n.0 as u64 + 1) % nodes) as u16);
            }
            Some(FaultPlan::new().with(
                FaultEvent::link_down(n, Direction::East, 150).repaired_at(650),
            ))
        }
        other => panic!("unknown family {other}"),
    }
}

fn builder(fabric: TopologySpec, vcs: usize, spec: RoutingSpec, measurement: u64) -> SimulationBuilder {
    SimulationBuilder::paper_default()
        .topology(fabric)
        .vcs(vcs)
        .routing(spec)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.08)
        .warmup(0)
        .measurement(measurement)
        .drain(2 * measurement)
        .seed(0xC4A0_5EED)
}

struct Row {
    fabric: TopologySpec,
    family: &'static str,
    algo: &'static str,
    trial: u64,
    events: usize,
    status: &'static str,
    severed_pairs: usize,
    masked_wrap_channels: usize,
    report: Option<RunReport>,
}

fn run_trial(
    (fabric, vcs): (TopologySpec, usize),
    family: &'static str,
    spec: RoutingSpec,
    trial: u64,
    plan: FaultPlan,
    measurement: u64,
) -> Row {
    // Retry is the recovery policy for the family with scheduled repairs
    // (the repair re-admits the parked backlog, so the books close).
    // Against permanent cuts a retry is just a slow drop that would leave
    // the backlog parked past the drain budget, so those families drop
    // unreachable packets at the source.
    let policy = if family == "repair" {
        UnreachablePolicy::Retry {
            max_attempts: 8,
            backoff: 32,
        }
    } else {
        UnreachablePolicy::Drop
    };
    let options = |degraded: bool| {
        RunOptions::new()
            .faults(plan.clone())
            .on_unreachable(policy)
            .degraded_escape(degraded)
            .watchdog(20_000)
    };
    let mut row = Row {
        fabric,
        family,
        algo: spec.name(),
        trial,
        events: plan.events().len(),
        status: "ok",
        severed_pairs: 0,
        masked_wrap_channels: 0,
        report: None,
    };
    // Mid-run router deaths can wedge wormholes that were already in
    // flight through the failed router; those packets are neither
    // delivered nor dropped, and uniform background traffic keeps the
    // global-progress watchdog from tripping. Such trials are recorded as
    // `inflight_wedged` rather than asserted away — surviving them
    // gracefully is exactly what the campaign measures.
    let classify = |report: &RunReport| {
        if report.faults.fully_accounted() {
            "ok"
        } else {
            "inflight_wedged"
        }
    };
    let builder = builder(fabric, vcs, spec, measurement);
    match builder.run_with(options(false)) {
        Ok(report) => {
            row.status = classify(&report);
            row.report = Some(report);
        }
        Err(RunError::Stalled(_)) => row.status = "stalled",
        Err(RunError::EscapeCompromised {
            severed,
            masked_wrap_channels,
        }) => {
            // The typed verdict is the result of record; the degraded-mode
            // rerun documents what delivery survives under watchdog cover.
            row.severed_pairs = severed.len();
            row.masked_wrap_channels = masked_wrap_channels;
            match builder.run_with(options(true)) {
                Ok(report) => {
                    row.status = if report.faults.fully_accounted() {
                        "degraded_ok"
                    } else {
                        "degraded_wedged"
                    };
                    row.report = Some(report);
                }
                Err(RunError::Stalled(_)) => row.status = "degraded_stalled",
                Err(e) => panic!("degraded rerun must not be refused: {e}"),
            }
        }
        Err(e) => panic!("chaos trial configuration must be valid: {e}"),
    }
    row
}

pub(super) fn chaos(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let (trials, measurement) = if mode.quick { (2u64, 500) } else { (5u64, 1_500) };

    let mut jobs = JobSet::new();
    let mut scheduled = 0usize;
    for fabric in FABRICS {
        for family in FAMILIES {
            for trial in 0..trials {
                let Some(plan) = plan_for(fabric.0, family, trial) else {
                    continue; // dateline cuts have no target on a mesh
                };
                for spec in HEADLINE {
                    let plan = plan.clone();
                    scheduled += 1;
                    jobs.push(move || run_trial(fabric, family, spec, trial, plan, measurement));
                }
            }
        }
    }
    let rows = jobs.run();
    assert_eq!(rows.len(), scheduled);

    let mut csv = Vec::from(
        "fabric,family,algorithm,trial,events,status,generated,delivered,dropped,retries,\
         delivered_frac,partition_epochs,max_components,ttr_mean,min_availability,\
         severed_pairs,masked_wrap_channels\n",
    );
    for r in &rows {
        // Nine fields, empty when the trial produced no report.
        let stats = r.report.as_ref().map_or_else(
            || ",".repeat(8),
            |report| {
                let (f, recovery) = (&report.faults, &report.recovery);
                let frac = if f.generated() == 0 {
                    1.0
                } else {
                    f.delivered() as f64 / f.generated() as f64
                };
                format!(
                    "{},{},{},{},{frac:.4},{},{},{},{}",
                    f.generated(),
                    f.delivered(),
                    f.dropped(),
                    f.retry_attempts(),
                    report.partitions.epochs.len(),
                    report.partitions.max_components(),
                    recovery.mean_ttr().map_or(String::new(), |t| format!("{t:.1}")),
                    recovery.min_availability().map_or(String::new(), |a| format!("{a:.4}")),
                )
            },
        );
        writeln!(
            csv,
            "{},{},{},{},{},{},{stats},{},{}",
            r.fabric, r.family, r.algo, r.trial, r.events, r.status, r.severed_pairs, r.masked_wrap_channels,
        )?;
    }
    let path = mode.write("chaos_campaign.csv", &csv)?;

    writeln!(out, "## Chaos campaign — {} trials", rows.len())?;
    writeln!(
        out,
        "{:<10} {:<13} {:<12} {:>6} {:>10} {:>8} {:>7}",
        "fabric", "family", "algorithm", "trial", "status", "dropped", "epochs"
    )?;
    for r in &rows {
        let (dropped, epochs) = r.report.as_ref().map_or((String::from("-"), 0), |rep| {
            (rep.faults.dropped().to_string(), rep.partitions.epochs.len())
        });
        writeln!(
            out,
            "{:<10} {:<13} {:<12} {:>6} {:>10} {:>8} {:>7}",
            r.fabric.to_string(),
            r.family,
            r.algo,
            r.trial,
            r.status,
            dropped,
            epochs
        )?;
    }
    let count = |statuses: &[&str]| rows.iter().filter(|r| statuses.contains(&r.status)).count();
    let (degraded, stalled) = (count(&["degraded_ok", "degraded_stalled"]), count(&["stalled"]));
    writeln!(out, "# chaos: {} trials, {degraded} degraded-escape, {stalled} stalled", rows.len())?;
    writeln!(out, "# chaos: wrote {}", path.display())
}

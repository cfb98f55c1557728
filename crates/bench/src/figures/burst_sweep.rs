//! Steady-vs-bursty latency curves at equal mean load.
//!
//! For each routing algorithm and each mean load `m`, two runs:
//!
//! * **steady** — a constant-rate workload at `m` flits/node/cycle.
//! * **bursty** — the same workload at peak rate `2m`, gated by a
//!   geometric on/off modulator with equal mean on- and off-phases
//!   (50% duty), so the *mean* offered load is the same `m` while the
//!   instantaneous load alternates between `2m` and zero.
//!
//! Both modes run as a single-tenant experiment so the per-tenant probe
//! supplies p50/p99 latency quantiles and the windowed offered/delivered
//! series. The comparison answers the question the steady-state sweeps
//! cannot: how much latency does an algorithm give back when the same
//! traffic arrives in bursts — adaptive routers should absorb the peaks
//! that push deterministic routing past saturation.
//!
//! Artifacts (in the results directory):
//!
//! * `burst_sweep.csv` — `algorithm,mode,mean_load,peak_rate,accepted,
//!   mean_latency,p50,p99` per (algorithm × mode × load) point.
//! * `burst_timeline.csv` — the per-window offered/delivered series for
//!   one representative load under Footprint, steady vs bursty, showing
//!   the on/off structure the modulator imprints on delivery.
//!
//! Quick mode shrinks the load axis and the phases.

use std::io::{self, Write};

use footprint_core::{
    DurationDist, JobSet, ModulationSpec, RoutingSpec, RunOptions, RunReport, SimulationBuilder,
    TenantSpec, TrafficSpec,
};

use crate::{phased, Mode, Phases};

/// Algorithms compared (deterministic, partially adaptive, fully adaptive).
const ALGOS: [RoutingSpec; 3] = [RoutingSpec::Dor, RoutingSpec::OddEven, RoutingSpec::Footprint];

/// Mean on/off phase length of the bursty gate, in cycles.
const BURST_MEAN: f64 = 50.0;

/// How the traffic of one run arrives.
#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    Steady,
    Bursty,
}

impl Arrival {
    fn label(self) -> &'static str {
        match self {
            Arrival::Steady => "steady",
            Arrival::Bursty => "bursty",
        }
    }

    /// Peak injection rate that averages out to `mean_load`.
    fn peak(self, mean_load: f64) -> f64 {
        match self {
            Arrival::Steady => mean_load,
            Arrival::Bursty => 2.0 * mean_load,
        }
    }

    fn modulation(self) -> ModulationSpec {
        match self {
            Arrival::Steady => ModulationSpec::Steady,
            // Equal geometric on/off means → 50% duty at memoryless
            // burst boundaries; peak 2m × duty 0.5 = mean m.
            Arrival::Bursty => ModulationSpec::OnOff {
                on: DurationDist::Geometric { mean: BURST_MEAN },
                off: DurationDist::Geometric { mean: BURST_MEAN },
            },
        }
    }
}

fn run(algo: RoutingSpec, arrival: Arrival, mean_load: f64, phases: Phases) -> RunReport {
    // Single-tenant so the report carries the tenant probe's quantiles
    // and windowed counters for this run.
    let tenant = TenantSpec::new("traffic", TrafficSpec::UniformRandom, arrival.peak(mean_load))
        .modulation(arrival.modulation());
    let builder = SimulationBuilder::paper_default()
        .routing(algo)
        .tenants(vec![tenant]);
    phased(builder, phases, 0xB5E7)
        .run_with(RunOptions::new().watchdog(100_000))
        .expect("experiment configuration must be valid")
}

pub(super) fn burst_sweep(mode: &Mode, out: &mut Vec<u8>) -> io::Result<()> {
    let phases = mode.phases();
    let loads: Vec<f64> = if mode.quick {
        vec![0.05, 0.15, 0.25]
    } else {
        vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35]
    };

    // Every (algorithm × arrival × load) run is independent: flatten the
    // whole figure into one job set, reassemble in submission order.
    let mut jobs = JobSet::new();
    let mut keys = Vec::new();
    for &algo in &ALGOS {
        for arrival in [Arrival::Steady, Arrival::Bursty] {
            for &m in &loads {
                keys.push((algo, arrival, m));
                jobs.push(move || run(algo, arrival, m, phases));
            }
        }
    }
    let reports = jobs.run();

    let mut csv = Vec::from("algorithm,mode,mean_load,peak_rate,accepted,mean_latency,p50,p99\n");
    writeln!(out, "## steady vs bursty at equal mean load ({} on/off mean cycles)", BURST_MEAN)?;
    writeln!(out, "# algorithm mode load accepted latency p50 p99")?;
    for ((algo, arrival, m), report) in keys.iter().zip(&reports) {
        let t = report.tenant("traffic").expect("single-tenant run");
        let fmt_q = |q: Option<u64>| q.map_or_else(|| "nan".into(), |v| v.to_string());
        writeln!(
            csv,
            "{},{},{:.3},{:.3},{:.4},{:.2},{},{}",
            algo.name(),
            arrival.label(),
            m,
            arrival.peak(*m),
            t.throughput,
            t.mean_latency,
            fmt_q(t.p50_latency),
            fmt_q(t.p99_latency),
        )?;
        writeln!(
            out,
            "{:<10} {:<6} {:.3} {:.4} {:>8.2} {:>5} {:>5}",
            algo.name(),
            arrival.label(),
            m,
            t.throughput,
            t.mean_latency,
            fmt_q(t.p50_latency),
            fmt_q(t.p99_latency),
        )?;
    }

    // Timeline at one representative load: the windowed offered/delivered
    // series makes the burst structure visible (steady rows are flat,
    // bursty rows alternate between ~2m and ~0).
    let rep_load = loads[loads.len() / 2];
    let mut timeline = Vec::from("mode,window,window_cycles,offered_packets,delivered_packets\n");
    for arrival in [Arrival::Steady, Arrival::Bursty] {
        let report = keys
            .iter()
            .position(|&(a, ar, m)| a == RoutingSpec::Footprint && ar == arrival && m == rep_load)
            .map(|i| &reports[i])
            .expect("representative point was swept");
        let t = report.tenant("traffic").expect("single-tenant run");
        for (i, w) in t.windows.iter().enumerate() {
            writeln!(
                timeline,
                "{},{},{},{},{}",
                arrival.label(),
                i,
                t.window_cycles,
                w.offered,
                w.delivered
            )?;
        }
    }

    for (name, body) in [("burst_sweep.csv", &csv), ("burst_timeline.csv", &timeline)] {
        let path = mode.write(name, body)?;
        writeln!(out, "# burst_sweep: wrote {}", path.display())?;
    }
    Ok(())
}

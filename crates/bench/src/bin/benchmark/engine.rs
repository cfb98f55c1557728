//! Running one op: through the public entry points (passes V and T), or
//! driven cycle by cycle with wrapped traits (pass X), and the rules that
//! decide whether its output is correct.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use footprint_core::{
    exec, FaultStats, PartitionReport, RecoveryStats, RunOptions, RunReport, Scheduler,
    SweepOptions,
};
use footprint_sim::{EventTrace, Network, NoTraffic, ProbePair, Workload};
use footprint_stats::{Curve, SweepPoint, TimelineProbe};

use crate::fingerprint;
use crate::timed::{Clocks, Counts, Tally, Timed};
use crate::trace::{Recorder, SpanId};
use crate::workloads::{Extras, Kind, Op, RunSpec, Sweep, SWEEP_RATES};

/// Cycles per `Network::run_probed` call of the traced pass: short enough
/// that every workload yields the hundred slices a p90 needs, long enough
/// (hundreds of microseconds) that reading the clocks around it is free.
pub const SLICE: u64 = 32;

/// How the public entry points are configured for a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pass V: the dense reference loop with the invariant sentinel armed.
    Verify,
    /// Pass T: the defaults a user gets, set explicitly.
    Timed,
    /// The dense loop without the sentinel (for the scheduler ratio).
    Dense,
}

impl Mode {
    fn scheduler(self) -> Scheduler {
        match self {
            Mode::Timed => Scheduler::Active,
            Mode::Verify | Mode::Dense => Scheduler::Dense,
        }
    }
}

/// What an op returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Report(Box<RunReport>),
    Curve(Curve),
}

impl Outcome {
    pub fn fingerprint(&self) -> u64 {
        match self {
            Outcome::Report(r) => fingerprint::of_report(r),
            Outcome::Curve(c) => fingerprint::of_curve(c),
        }
    }
}

/// Runs `op` through `run_with` / `sweep_with`. `tmp` holds the op's cache
/// directory and journal; it is shared by the ops of one repetition so
/// `sweep_cache_warm` and `sweep_resume` find what their predecessors left.
pub fn run_public(op: &Op, seed: u64, mode: Mode, tmp: &Path) -> Result<Outcome, String> {
    let builder = op.spec.builder(seed);
    let verify = mode == Mode::Verify;
    match op.kind {
        Kind::Run(extras) => {
            let opts = RunOptions::new()
                .scheduler(mode.scheduler())
                .sentinel(verify || extras == Extras::Audited)
                .faults(op.spec.faults.clone())
                .on_unreachable(op.spec.on_unreachable);
            let report = match extras {
                Extras::None => builder.run_with(opts),
                Extras::Audited => builder.run_with(opts.watchdog(20_000)),
                Extras::Probed => {
                    let mut timeline = TimelineProbe::new(100);
                    let mut events = EventTrace::with_capacity(65_536);
                    let mut both = ProbePair::new(&mut timeline, &mut events);
                    builder.run_with(opts.probe(&mut both))
                }
            };
            report
                .map(|r| Outcome::Report(Box::new(r)))
                .map_err(|e| e.to_string())
        }
        Kind::Sweep(sweep) => {
            let opts = SweepOptions::new()
                .scheduler(mode.scheduler())
                .sentinel(verify)
                .threads(if sweep == Sweep::T2 { 2 } else { 1 });
            let opts = match sweep {
                Sweep::T1 | Sweep::T2 => opts,
                Sweep::Lanes => opts.ensemble(4),
                Sweep::CacheCold | Sweep::CacheWarm => opts.snapshot_cache(tmp.join("snapcache")),
                Sweep::Journal | Sweep::Resume => opts.checkpoint(tmp.join("sweep.journal")),
            };
            builder
                .sweep_with(&SWEEP_RATES, opts)
                .map(Outcome::Curve)
                .map_err(|e| e.to_string())
        }
    }
}

/// The failure rules: `Ok` when `outcome` is a plausible result of `op`
/// and, given the pass-V fingerprint, identical to the reference.
pub fn check(op: &Op, outcome: &Outcome, reference: Option<u64>) -> Result<(), String> {
    match outcome {
        Outcome::Report(r) => {
            let window = op.spec.measurement + op.spec.drain;
            if r.cycles != window {
                return Err(format!("reported {} cycles, window is {window}", r.cycles));
            }
            if r.latency.ejected_flits == 0 {
                return Err("ejected no flits".to_owned());
            }
            if !r.latency.mean_latency.is_finite() {
                return Err("mean latency is not finite".to_owned());
            }
            if op.spec.accounted() && !r.faults.fully_accounted() {
                return Err(format!(
                    "books do not close: generated {} != delivered {} + dropped {}",
                    r.faults.generated(),
                    r.faults.delivered(),
                    r.faults.dropped()
                ));
            }
        }
        Outcome::Curve(c) => {
            if c.points.len() != SWEEP_RATES.len() {
                return Err(format!(
                    "{} of {} sweep points",
                    c.points.len(),
                    SWEEP_RATES.len()
                ));
            }
            let delivered = |p: &&SweepPoint| p.accepted > 0.0 && p.latency.is_finite();
            if let Some(p) = c.points.iter().find(|p| !delivered(p)) {
                return Err(format!("sweep point at {} delivered nothing", p.offered));
            }
        }
    }
    match reference {
        Some(want) if want != outcome.fingerprint() => Err(format!(
            "fingerprint {:016x} differs from pass V's {want:016x}",
            outcome.fingerprint()
        )),
        _ => Ok(()),
    }
}

/// What the wrapped traits and the counting probe saw while one op was
/// hand-driven.
#[derive(Debug, Clone, Copy, Default)]
pub struct Driven {
    pub cycles: u64,
    pub route: Tally,
    pub inject: Tally,
    pub generate: Tally,
    pub counts: Counts,
}

impl std::ops::AddAssign for Driven {
    fn add_assign(&mut self, rhs: Driven) {
        self.cycles += rhs.cycles;
        self.route += rhs.route;
        self.inject += rhs.inject;
        self.generate += rhs.generate;
        self.counts += rhs.counts;
    }
}

/// A network being driven by hand, with everything a slice records into.
struct Drive<'a> {
    net: Network,
    counts: Counts,
    clocks: Arc<Clocks>,
    rec: &'a mut Recorder,
    parent: SpanId,
}

impl Drive<'_> {
    /// Steps `cycles` cycles in [`SLICE`]-cycle `run_probed` calls,
    /// recording one `sim.run` span per slice with the wrapped traits'
    /// share as aggregated children.
    fn run(&mut self, workload: &mut dyn Workload, cycles: u64) {
        let clocks = &self.clocks;
        let sites = [
            ("routing.route", &clocks.route),
            ("routing.injection_requests", &clocks.inject),
            ("traffic.generate", &clocks.generate),
        ];
        let mut remaining = cycles;
        while remaining > 0 {
            let step = remaining.min(SLICE);
            let before = sites.map(|(_, clock)| clock.read());
            let slice = self.rec.open(self.parent, "sim.run", step);
            self.net.run_probed(workload, step, &mut self.counts);
            self.rec.close(slice);
            for ((name, clock), earlier) in sites.into_iter().zip(before) {
                let delta = clock.read() - earlier;
                if delta.calls > 0 {
                    self.rec.push_aggregate(slice, name, delta.calls, delta.ns);
                }
            }
            remaining -= step;
        }
    }
}

/// Drives one single run by hand — the schedule of `run_with`, spelled out
/// against the public `Network` API — with the routing algorithm and the
/// workload wrapped in [`Timed`] and a counting probe attached from cycle
/// 0. The report it assembles must equal pass V's.
fn drive_run(
    spec: &RunSpec,
    seed: u64,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<(RunReport, Driven), String> {
    let clocks = Arc::new(Clocks::default());
    // The builder knows how to compose the workload (modulation, seeds);
    // its network is discarded for one built around the wrapped algorithm.
    let (_, workload) = spec
        .builder(seed)
        .build_with(spec.faults.clone(), spec.on_unreachable)
        .map_err(|e| e.to_string())?;
    let mut workload = Timed::new(workload, Arc::clone(&clocks));
    let algorithm = Timed::new(spec.routing.build(), Arc::clone(&clocks));
    let mut net = Network::with_faults(
        spec.sim_config(),
        Box::new(algorithm),
        seed,
        spec.faults.clone(),
        spec.on_unreachable,
    )
    .map_err(|e| e.to_string())?;
    net.set_scheduler(Scheduler::Active);
    let mut drive = Drive {
        net,
        counts: Counts::default(),
        clocks,
        rec,
        parent,
    };

    drive.run(&mut workload, spec.warmup);
    let boundary = drive.net.cycle();
    drive.net.metrics_mut().reset_window_at(boundary);
    drive.run(&mut workload, spec.measurement);
    drive.run(&mut NoTraffic, spec.drain);

    let Drive {
        net,
        counts,
        clocks,
        rec,
        ..
    } = drive;
    let assembling = rec.open(parent, "stats.report", 1);
    let mut report = RunReport::from_metrics(net.metrics(), spec.topology.nodes(), spec.rate);
    report.topology = spec.topology.to_string();
    report.faults = FaultStats::collect(&net);
    report.partitions = PartitionReport::collect(&net);
    report.recovery = RecoveryStats::collect(&net);
    rec.close(assembling);
    let driven = Driven {
        cycles: spec.cycles(),
        route: clocks.route.read(),
        inject: clocks.inject.read(),
        generate: clocks.generate.read(),
        counts,
    };
    Ok((report, driven))
}

/// Pass X for a hand-driven op: a single run, or every point of the
/// sequential sweep (each point is the base configuration at its rate with
/// the seed `sweep_with` derives for its index).
pub fn hand_drive(
    op: &Op,
    seed: u64,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<(Outcome, Driven), String> {
    match op.kind {
        Kind::Run(_) => {
            let (report, driven) = drive_run(&op.spec, seed, rec, parent)?;
            Ok((Outcome::Report(Box::new(report)), driven))
        }
        Kind::Sweep(_) => {
            let mut curve = Curve::new(op.spec.routing.name());
            let mut total = Driven::default();
            for (index, &rate) in SWEEP_RATES.iter().enumerate() {
                let point = RunSpec {
                    rate,
                    ..op.spec.clone()
                };
                let point_seed = exec::derive_seed(seed, index as u64);
                let (report, driven) = drive_run(&point, point_seed, rec, parent)?;
                curve.push(SweepPoint {
                    offered: rate,
                    accepted: report.latency.throughput,
                    latency: report.latency.mean_latency,
                });
                total += driven;
            }
            Ok((Outcome::Curve(curve), total))
        }
    }
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn op(workload: &str, name: &str) -> Op {
        let w = WORKLOADS.iter().find(|w| w.name == workload).unwrap();
        let mut op = (w.ops)().into_iter().find(|o| o.name == name).unwrap();
        // Keep debug-build tests quick, but let parked retries run out.
        op.spec.warmup = op.spec.warmup.min(100);
        op.spec.measurement = 200;
        op.spec.drain = if op.spec.accounted() { 2000 } else { 0 };
        op
    }

    #[test]
    fn hand_driven_run_matches_both_public_passes() {
        let tmp = std::env::temp_dir();
        for (workload, name) in [
            ("steady_mid", "uni_footprint_varsize"),
            ("idle_low", "mesh16_onoff_footprint"),
            ("scenario_mix", "mesh_faults_retry"),
            ("scenario_mix", "parsec_pair"),
        ] {
            let op = op(workload, name);
            let verify = run_public(&op, 9, Mode::Verify, &tmp).unwrap();
            check(&op, &verify, None).unwrap();
            let reference = Some(verify.fingerprint());
            let timed = run_public(&op, 9, Mode::Timed, &tmp).unwrap();
            check(&op, &timed, reference).unwrap();
            let mut rec = Recorder::new();
            let root = rec.open_root("bench.op", 0);
            let (traced, driven) = hand_drive(&op, 9, &mut rec, root).unwrap();
            check(&op, &traced, reference).unwrap();
            assert_eq!(traced, timed, "{name}");
            assert_eq!(driven.cycles, op.spec.cycles());
            let nodes = op.spec.topology.nodes() as u64;
            assert_eq!(
                driven.generate.calls,
                nodes * (op.spec.warmup + op.spec.measurement)
            );
            assert!(driven.route.calls >= driven.counts.vc_grants && driven.counts.flit_hops > 0);
            let stepped: u64 = rec
                .spans()
                .iter()
                .filter(|s| s.name == "sim.run")
                .map(|s| s.count)
                .sum();
            assert_eq!(stepped, op.spec.cycles());
            // Another seed is another result.
            assert!(check(
                &op,
                &run_public(&op, 10, Mode::Timed, &tmp).unwrap(),
                reference
            )
            .is_err());
        }
    }

    #[test]
    fn hand_driven_sweep_reproduces_the_public_curve() {
        let op = op("sweep_campaign", "sweep_t1");
        let public = run_public(&op, 5, Mode::Timed, Path::new(".")).unwrap();
        let mut rec = Recorder::new();
        let root = rec.open_root("bench.op", 0);
        let (traced, driven) = hand_drive(&op, 5, &mut rec, root).unwrap();
        assert_eq!(traced, public);
        assert_eq!(driven.cycles, op.cycles_stepped());
        check(&op, &traced, Some(public.fingerprint())).unwrap();
    }

    #[test]
    fn implausible_results_fail() {
        let op = op("steady_mid", "uni_dor");
        let Outcome::Report(good) = run_public(&op, 3, Mode::Timed, Path::new(".")).unwrap() else {
            panic!("a run returns a report");
        };
        let broken = |edit: fn(&mut RunReport)| {
            let mut r = good.clone();
            edit(&mut r);
            check(&op, &Outcome::Report(r), None)
        };
        assert!(check(&op, &Outcome::Report(good.clone()), None).is_ok());
        assert!(broken(|r| r.cycles -= 1).is_err());
        assert!(broken(|r| r.latency.ejected_flits = 0).is_err());
        assert!(broken(|r| r.latency.mean_latency = f64::NAN).is_err());
        let mut short = Curve::new("footprint");
        short.push(SweepPoint {
            offered: 0.05,
            accepted: 0.05,
            latency: 20.0,
        });
        assert!(check(&op, &Outcome::Curve(short), None).is_err());
    }
}

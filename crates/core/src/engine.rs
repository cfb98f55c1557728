//! The run engine: one warmup → measurement → drain driver ([`Run`]) that
//! executes a single run, a sweep point and every member of an ensemble
//! group alike, plus the sweep scheduling built on it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::exec::{JobOutcome, JobSet};
use crate::journal::SweepJournal;
use crate::options::ExecOptions;
use crate::{snapcache, RunError, RunOptions, RunReport, SimulationBuilder, SweepOptions};
use footprint_sim::{
    ConfigError, Network, NoTraffic, NullProbe, Probe, ProbePair, Sentinel, StallWatchdog,
    UnreachablePolicy, Workload,
};
use footprint_stats::{Curve, FaultStats, PartitionReport, RecoveryStats, SweepPoint, TenantProbe};
use footprint_traffic::ModulationSpec;

/// Cycles simulated per [`Run::advance`] call (at most; a phase's last
/// slice is shorter). Slicing is invisible to the simulation — the
/// network's run loops are stateless between calls — so any slice length
/// reports bit-identically; this one keeps sentinel-trip checks and the
/// turn-taking of an ensemble group coarse enough to cost nothing.
const CHUNK: u64 = 1024;
/// Accounting-window length for per-tenant offered/delivered timelines.
const TENANT_WINDOW: u64 = 256;

/// The phase a [`Run`] is in; `Run::left` counts its remaining cycles.
enum Phase {
    Warmup,
    Measure,
    Drain,
}

/// One execution of a configuration: a private network and workload, its
/// observers, and its position in the warmup → measurement → drain
/// schedule. `start`, then `advance` until it returns `false`, then
/// `finish`. Several runs may be advanced in any interleaving: a run
/// touches nothing outside itself, so its report is the same bit for bit.
struct Run<'a> {
    cfg: &'a SimulationBuilder,
    exec: &'a ExecOptions,
    probe: Option<&'a mut dyn Probe>,
    net: Network,
    wl: Box<dyn Workload>,
    watchdog: Option<StallWatchdog>,
    sentinel: Option<Sentinel>,
    tenants: Option<TenantProbe>,
    phase: Phase,
    left: u64,
    /// Cache slot to fill with the post-warmup snapshot (set on a cache
    /// miss of an eligible configuration).
    store: Option<(PathBuf, String)>,
}

impl<'a> Run<'a> {
    /// Checks wrap safety, builds the network and workload, and consults
    /// the warm-start cache: a hit restores the post-warmup state so the
    /// warmup phase has no cycles left to run.
    fn start(
        cfg: &'a SimulationBuilder,
        exec: &'a ExecOptions,
        probe: Option<&'a mut dyn Probe>,
    ) -> Result<Self, RunError> {
        check_options(exec, &[])?;
        check_wrap_safety(cfg, exec)?;
        let build = || -> Result<(Network, Box<dyn Workload>), ConfigError> {
            let (mut net, wl) = cfg.build_with(exec.faults.clone(), exec.on_unreachable)?;
            net.set_scheduler(exec.scheduler);
            Ok((net, wl))
        };
        let (mut net, mut wl) = build()?;
        // The sentinel attaches from cycle 0: its flit census must see
        // every injection, so it spans warmup, measurement and drain.
        let sentinel = exec
            .sentinel
            .unwrap_or_else(Sentinel::env_enabled)
            .then(Sentinel::new);
        // Warm start: an eligible configuration with a cached post-warmup
        // snapshot restores it and skips the warmup phase outright; a miss
        // remembers the key so this run's warmed state fills the cache.
        let mut left = cfg.warmup;
        let mut store = None;
        if let Some(dir) = &exec.snapshot_dir {
            if snapshot_eligible(cfg, exec, sentinel.is_some()) {
                let key = cfg.snapshot_key(exec.scheduler);
                match snapcache::load(dir, &key) {
                    Some(bytes) => match net.restore(&bytes) {
                        Ok(()) if net.cycle() == cfg.warmup => left = 0,
                        // A failed restore may have partially overwritten
                        // the network: rebuild and warm up from scratch
                        // (and overwrite the bad cache entry).
                        _ => {
                            (net, wl) = build()?;
                            store = Some((dir.clone(), key));
                        }
                    },
                    None => store = Some((dir.clone(), key)),
                }
            }
        }
        Ok(Run {
            cfg,
            exec,
            probe,
            net,
            wl,
            watchdog: exec.stall_threshold.map(StallWatchdog::new),
            sentinel,
            tenants: None,
            phase: Phase::Warmup,
            left,
            store,
        })
    }

    /// Applies any due phase transition, then simulates one slice of at
    /// most [`CHUNK`] cycles. Returns `Ok(false)` once every phase is done.
    fn advance(&mut self) -> Result<bool, RunError> {
        while self.left == 0 {
            match self.phase {
                Phase::Warmup => {
                    if let Some((dir, key)) = self.store.take() {
                        if let Ok(blob) = self.net.snapshot() {
                            snapcache::store(&dir, &key, &blob);
                        }
                    }
                    let boundary = self.net.cycle();
                    self.net.metrics_mut().reset_window_at(boundary);
                    // Multi-tenant runs carry their own accounting probe
                    // from the measurement boundary: offered counts then
                    // equal the metrics window's generated counts exactly.
                    self.tenants = (!self.cfg.tenants.is_empty())
                        .then(|| TenantProbe::new(boundary, TENANT_WINDOW));
                    self.phase = Phase::Measure;
                    self.left = self.cfg.measurement;
                }
                Phase::Measure => {
                    self.wl = Box::new(NoTraffic);
                    self.phase = Phase::Drain;
                    self.left = self.cfg.drain;
                }
                Phase::Drain => return Ok(false),
            }
        }
        let step = self.left.min(CHUNK);
        let result = {
            // The probe stack, outermost first: sentinel ▸ tenants ▸ user.
            // The user's probe attaches at the warmup boundary; pairs nest.
            let mut null = NullProbe;
            let mut probe: &mut dyn Probe = match self.probe.as_deref_mut() {
                Some(p) if !matches!(self.phase, Phase::Warmup) => p,
                _ => &mut null,
            };
            let mut with_tenants;
            if let Some(t) = self.tenants.as_mut() {
                with_tenants = ProbePair::new(t, probe);
                probe = &mut with_tenants;
            }
            let mut with_sentinel;
            if let Some(s) = self.sentinel.as_mut() {
                with_sentinel = ProbePair::new(s, probe);
                probe = &mut with_sentinel;
            }
            match self.watchdog.as_mut() {
                Some(w) => self
                    .net
                    .run_watched(&mut *self.wl, step, probe, w)
                    .map_err(RunError::from),
                None => {
                    self.net.run_probed(&mut *self.wl, step, probe);
                    Ok(())
                }
            }
        };
        // A sentinel violation outranks the stall it may have caused:
        // the report names the origin of the corruption, the stall is
        // only its symptom.
        if let Some(s) = self.sentinel.as_mut() {
            if s.tripped() {
                let report = s.take_report().expect("tripped sentinel holds a report");
                return Err(RunError::InvariantViolated(report));
            }
        }
        result?;
        self.left -= step;
        Ok(true)
    }

    /// Distills the finished network into the [`RunReport`].
    fn finish(self) -> Result<RunReport, RunError> {
        let cfg = self.cfg;
        let nodes = cfg.topology.nodes();
        let mut report = RunReport::from_metrics(self.net.metrics(), nodes, cfg.rate);
        report.topology = cfg.topology.to_string();
        report.faults = FaultStats::collect(&self.net);
        report.partitions = PartitionReport::collect(&self.net);
        report.recovery = RecoveryStats::collect(&self.net);
        if let Some(tp) = self.tenants {
            report.tenants = cfg
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let class = i as u8;
                    let dropped = report
                        .faults
                        .classes
                        .iter()
                        .find(|c| c.class == class)
                        .map_or(0, |c| c.dropped);
                    tp.summary(class, &t.name, dropped, report.cycles, nodes)
                })
                .collect();
        }
        if self.exec.on_unreachable == UnreachablePolicy::Error
            && !report.faults.unreachable_pairs.is_empty()
        {
            return Err(RunError::Unreachable(Box::new(report.faults)));
        }
        Ok(report)
    }
}

/// Wrap safety: on a wrapping fabric whose deadlock-freedom argument
/// rests on deterministic escape or dateline routes
/// ([`WrapStrategy::EscapeVcs`](footprint_routing::WrapStrategy) /
/// `DatelineVcClasses`), a fault plan that masks any wraparound
/// channel may sever escape routes without creating a CDG cycle — a
/// masked acyclic graph stays acyclic, but a pair with no surviving
/// escape path has no deadlock-free fallback, which is a livelock
/// hazard, not a loss the per-packet drop accounting can absorb.
/// Rebuilds the escape CDG under the plan's full channel mask and
/// refuses the run with [`RunError::EscapeCompromised`] unless the
/// caller opted into the degraded fallback. Plans that leave every
/// wraparound channel alive (and every mesh plan) skip the check:
/// grid-only cuts are covered by the existing per-packet
/// deliverability quarantine.
fn check_wrap_safety(cfg: &SimulationBuilder, exec: &ExecOptions) -> Result<(), RunError> {
    use footprint_routing::cdg::{check_escape_under_mask, EscapeMaskVerdict};
    use footprint_routing::{RoutingAlgorithm, WrapStrategy};
    let faults = &exec.faults;
    if faults.is_empty() {
        return Ok(());
    }
    let topo = cfg.topology.validate().map_err(ConfigError::from)?;
    if !topo.wraps() {
        return Ok(());
    }
    let strategy = cfg.routing.routing().wrap_strategy();
    if !matches!(
        strategy,
        WrapStrategy::EscapeVcs | WrapStrategy::DatelineVcClasses
    ) {
        return Ok(());
    }
    faults.validate(topo).map_err(ConfigError::from)?;
    let dead = faults.down_channels(topo);
    if !dead.iter().any(|&(n, d)| topo.is_wrap_channel(n, d)) {
        return Ok(());
    }
    match check_escape_under_mask(topo, &dead) {
        EscapeMaskVerdict::StillAcyclic => Ok(()),
        EscapeMaskVerdict::EscapeCompromised {
            severed,
            masked_wrap_channels,
        } => {
            if exec.degraded_escape {
                return Ok(());
            }
            Err(RunError::EscapeCompromised {
                severed,
                masked_wrap_channels,
            })
        }
    }
}

/// `true` when the configuration's post-warmup state is exactly
/// reproducible from a snapshot: no fault plan (fault bookkeeping is
/// not serialized), sentinel off (its cycle-0 flit census cannot skip
/// warmup), a nonzero warmup to actually skip, steady modulation and
/// no tenants (their schedules live outside the network), and a
/// workload that keeps no state of its own.
fn snapshot_eligible(cfg: &SimulationBuilder, exec: &ExecOptions, sentinel_on: bool) -> bool {
    exec.faults.is_empty()
        && !sentinel_on
        && cfg.warmup > 0
        && cfg.modulation == ModulationSpec::Steady
        && cfg.tenants.is_empty()
        && cfg.traffic.stateless_workload()
}

/// Refuses options no run can honour, before anything is built or
/// journalled: a zero watchdog threshold, or a sweep grid that does not
/// strictly ascend (a descent, a repeat or a NaN).
fn check_options(exec: &ExecOptions, rates: &[f64]) -> Result<(), ConfigError> {
    if exec.stall_threshold == Some(0) {
        return Err(ConfigError::Workload("watchdog stall threshold must be nonzero".into()));
    }
    if rates.iter().any(|r| r.is_nan()) || rates.windows(2).any(|w| w[0] >= w[1]) {
        return Err(ConfigError::Workload(format!("sweep rates {rates:?} must strictly ascend")));
    }
    Ok(())
}

/// Runs one sweep group — the points one worker job owns — to completion:
/// start every point, advance them round-robin one slice each until none
/// is live, finish each. A group of one is the sequential path.
fn run_sweep_group(
    points: &[SimulationBuilder],
    opts: &SweepOptions,
) -> Result<Vec<SweepPoint>, RunError> {
    let mut runs = points
        .iter()
        .map(|cfg| Run::start(cfg, &opts.exec, None))
        .collect::<Result<Vec<Run>, RunError>>()?;
    let mut live = true;
    while live {
        live = false;
        for run in &mut runs {
            live |= run.advance()?;
        }
    }
    runs.into_iter()
        .map(|run| {
            let offered = run.cfg.rate;
            let report = run.finish()?;
            let s = match opts.latency_class {
                Some(c) => report.class(c),
                None => report.latency,
            };
            Ok(SweepPoint {
                offered,
                accepted: s.throughput,
                latency: s.mean_latency,
            })
        })
        .collect()
}

impl SimulationBuilder {
    /// The canonical execution entry point: runs warmup + measurement
    /// (+ optional drain) under `opts` and reports the measurement window.
    ///
    /// The probe attaches at the warmup boundary (measurement + drain);
    /// the watchdog, when configured, guards the whole run including
    /// warmup. Probes and the watchdog only observe, so any completing
    /// combination reports bit-identically to the plain run. A fault plan
    /// reshapes the simulated network itself, so its effects *are* part of
    /// the report ([`RunReport::faults`]) — but an empty plan is
    /// bit-identical to no fault subsystem at all.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] for configuration errors (including a fault
    /// plan that does not fit the topology, and a zero watchdog
    /// threshold), [`RunError::Stalled`] when a configured watchdog trips,
    /// [`RunError::Unreachable`] when [`UnreachablePolicy::Error`] is set
    /// and the fault state made any generated packet undeliverable.
    pub fn run_with(&self, opts: RunOptions<'_>) -> Result<RunReport, RunError> {
        let RunOptions { probe, exec } = opts;
        // The cast shortens the probe's trait-object lifetime to `exec`'s.
        let mut run = Run::start(self, &exec, probe.map(|p| p as &mut dyn Probe))?;
        while run.advance()? {}
        run.finish()
    }

    /// The canonical sweep entry point: sweeps offered load over `rates`
    /// in parallel under `opts`, producing a latency-throughput curve.
    ///
    /// The rate points run concurrently on the worker pool
    /// ([`SweepOptions::threads`], defaulting to the machine's available
    /// parallelism, overridable with `FOOTPRINT_THREADS`). Each point gets its own seed, derived
    /// deterministically from this builder's seed and the rate's index
    /// ([`crate::exec::derive_seed`]), so the curve is bit-identical
    /// whatever the thread count or completion order — with or without a
    /// fault plan, since the fault state is itself a pure function of the
    /// plan and the cycle.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] before any point runs or is journalled when
    /// `rates` does not strictly ascend (a descent, a repeat or a NaN) or
    /// the options are refused as [`Self::run_with`] refuses them; else
    /// any [`RunError`] from the individual points.
    pub fn sweep_with(&self, rates: &[f64], opts: SweepOptions) -> Result<Curve, RunError> {
        check_options(&opts.exec, rates)?;
        let threads = opts.threads.unwrap_or_else(crate::exec::num_threads);
        // With a checkpoint journal, restore the completed points and
        // submit only the missing ones; each finishing job appends its
        // record (fsync'd) before reporting success, so a kill at any
        // instant loses at most the points still in flight.
        let journal: Option<Mutex<SweepJournal>> = match &opts.checkpoint {
            Some(path) => {
                let key = self.campaign_key(&opts.exec, opts.latency_class);
                let journal = SweepJournal::open_keyed(path, self.seed, rates, Some(&key));
                Some(Mutex::new(journal.map_err(RunError::Checkpoint)?))
            }
            None => None,
        };
        let mut done: BTreeMap<usize, SweepPoint> = journal
            .as_ref()
            .map(|j| j.lock().expect("journal lock").completed().clone())
            .unwrap_or_default();
        // Missing points are grouped into ensembles of up to
        // `opts.ensemble` points; each group is one worker job. The
        // default width of 1 is one job per point.
        let missing: Vec<usize> = (0..rates.len())
            .filter(|index| !done.contains_key(index))
            .collect();
        let width = opts.ensemble.max(1);
        let mut jobs = JobSet::new();
        let (opts, journal) = (&opts, &journal);
        for group in missing.chunks(width) {
            let points: Vec<SimulationBuilder> = group
                .iter()
                .map(|&index| self.sweep_point(index, rates[index]))
                .collect();
            jobs.push(move || {
                let sps = run_sweep_group(&points, opts)?;
                if let Some(j) = journal {
                    let mut j = j.lock().expect("journal lock");
                    for (&index, sp) in group.iter().zip(&sps) {
                        j.record(index, sp).map_err(RunError::Checkpoint)?;
                    }
                }
                Ok::<Vec<SweepPoint>, RunError>(sps)
            });
        }
        // Quarantined execution: a panicking or failing point cannot tear
        // down the pool, so every other point still completes — and, with
        // a journal, is durably recorded for the next resume.
        let outcomes = jobs.run_quarantined_on(threads);
        let mut first_error: Option<RunError> = None;
        for (group, outcome) in missing.chunks(width).zip(outcomes) {
            match outcome {
                JobOutcome::Completed(Ok(sps)) => done.extend(group.iter().copied().zip(sps)),
                JobOutcome::Completed(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                JobOutcome::Panicked(msg) => {
                    let loads: Vec<f64> = group.iter().map(|&i| rates[i]).collect();
                    first_error.get_or_insert(RunError::JobPanicked(format!(
                        "sweep points {group:?} (offered loads {loads:?}): {msg}"
                    )));
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut curve = Curve::new(self.routing.name());
        for (_, point) in done {
            curve.push(point);
        }
        Ok(curve)
    }

    /// Runs this builder as one point of a sweep under `opts` (its
    /// execution settings and class selection; no probe). Combined with
    /// [`Self::sweep_point`], this is the unit of work batch runners
    /// submit to a [`crate::exec::JobSet`].
    ///
    /// # Errors
    ///
    /// Any [`RunError`] from the underlying run.
    pub fn run_sweep_point_with(&self, opts: &SweepOptions) -> Result<SweepPoint, RunError> {
        let mut points = run_sweep_group(std::slice::from_ref(self), opts)?;
        Ok(points.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::quick;
    use crate::{RoutingSpec, Scheduler, TenantSpec, TrafficSpec};
    use footprint_topology::FaultPlan;

    #[test]
    fn run_produces_traffic_and_latency() {
        let r = quick()
            .routing(RoutingSpec::Footprint)
            .injection_rate(0.2)
            .run_with(RunOptions::new())
            .unwrap();
        assert!(r.latency.ejected_packets > 50);
        assert!(r.latency.mean_latency > 4.0, "{}", r.latency.mean_latency);
        assert!(r.latency.throughput > 0.1);
        assert_eq!(r.nodes, 16);
        assert_eq!(r.cycles, 400);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick().injection_rate(0.3).run_with(RunOptions::new()).unwrap();
        let b = quick().injection_rate(0.3).run_with(RunOptions::new()).unwrap();
        assert_eq!(a, b);
        let c = quick().injection_rate(0.3).seed(4).run_with(RunOptions::new()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_identical_across_thread_counts() {
        // The default pool (`FOOTPRINT_THREADS` or the machine's cores)
        // reproduces the sequential curve; tests/differential.rs checks
        // explicit thread counts.
        let rates = [0.05, 0.15, 0.25];
        let sequential = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        assert_eq!(sequential, quick().sweep_with(&rates, SweepOptions::new()).unwrap());
    }

    #[test]
    fn sweep_builds_monotonic_curve() {
        let curve = quick()
            .routing(RoutingSpec::Dor)
            .sweep_with(&[0.05, 0.2], SweepOptions::new())
            .unwrap();
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].latency <= curve.points[1].latency * 1.5);
        assert!(curve.points[1].accepted > curve.points[0].accepted);
    }

    #[test]
    fn watched_run_propagates_config_errors() {
        let err = quick()
            .vcs(0)
            .run_with(RunOptions::new().probe(&mut footprint_sim::NullProbe).watchdog(100))
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn latency_population_excludes_warmup_born_packets() {
        let r = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        assert!(r.latency.measured_packets > 0);
        // Warmup-born packets drain into the window: they are counted as
        // ejections (throughput) but not in the latency population.
        assert!(r.latency.measured_packets <= r.latency.ejected_packets);
    }

    #[test]
    fn faulted_run_accounts_for_every_packet() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        // Cut a bottom-row link: same-row pairs across it become
        // unreachable, everything else routes around; a drained run must
        // account for every generated packet as delivered or dropped.
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(1), Direction::East, 0));
        // warmup(0): accounting is over the measurement window, so the
        // window must cover every packet for generated = delivered + dropped
        // to hold after the drain.
        let report = quick()
            .warmup(0)
            .injection_rate(0.15)
            .drain(2_000)
            .run_with(RunOptions::new().faults(plan).watchdog(10_000))
            .unwrap();
        assert!(!report.faults.is_clean());
        assert!(report.faults.fully_accounted());
        assert!(report.faults.dropped() > 0);
        assert!(report.latency.ejected_packets > 0);
        assert!(!report.faults.unreachable_pairs.is_empty());
    }

    #[test]
    fn error_policy_turns_unreachable_pairs_into_a_typed_failure() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(1), Direction::East, 0));
        let err = quick()
            .injection_rate(0.15)
            .run_with(
                RunOptions::new()
                    .faults(plan)
                    .on_unreachable(UnreachablePolicy::Error),
            )
            .unwrap_err();
        assert!(err.to_string().contains("unreachable under the fault plan"));
        match err {
            RunError::Unreachable(stats) => {
                assert!(!stats.unreachable_pairs.is_empty());
                assert!(stats.dropped() > 0);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn longer_links_increase_latency() {
        let short = quick().injection_rate(0.1).run_with(RunOptions::new()).unwrap();
        let long = quick().injection_rate(0.1).link_latency(4).run_with(RunOptions::new()).unwrap();
        assert!(
            long.latency.mean_latency > short.latency.mean_latency + 3.0,
            "short {} vs long {}",
            short.latency.mean_latency,
            long.latency.mean_latency
        );
    }

    #[test]
    fn drain_improves_delivery_ratio() {
        let no_drain = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        let with_drain = quick().injection_rate(0.2).drain(300).run_with(RunOptions::new()).unwrap();
        assert!(with_drain.delivery_ratio() >= no_drain.delivery_ratio());
        assert!(with_drain.delivery_ratio() > 0.97);
    }

    #[test]
    fn sentinel_stays_quiet_across_algorithms() {
        // Every algorithm of the comparison set, with and without XORDET,
        // passes a fully audited run: zero invariant violations.
        for spec in [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
            RoutingSpec::DbarXordet,
            RoutingSpec::OddEvenXordet,
            RoutingSpec::DorXordet,
        ] {
            let result = quick()
                .routing(spec)
                .injection_rate(0.2)
                .run_with(RunOptions::new().sentinel(true));
            assert!(
                result.is_ok(),
                "{}: {}",
                spec.name(),
                result.unwrap_err()
            );
        }
    }

    #[test]
    fn sentinel_stays_quiet_under_a_fault_plan() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let report = quick()
            .injection_rate(0.15)
            .drain(1_000)
            .run_with(RunOptions::new().faults(plan).sentinel(true).watchdog(10_000))
            .unwrap();
        assert!(!report.faults.is_clean());
        assert!(report.latency.ejected_packets > 0);
    }

    #[test]
    fn corrupt_cache_entry_degrades_to_a_cold_run_and_is_overwritten() {
        let dir = std::env::temp_dir().join(format!("footprint-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = quick().injection_rate(0.2);
        let run = || {
            cfg.run_with(RunOptions::new().sentinel(false).snapshot_cache(&dir))
                .unwrap()
        };
        let key = cfg.snapshot_key(Scheduler::default());
        // Right key, wrong body: the restore fails part-way, so the run
        // must rebuild, warm up from scratch and replace the entry.
        snapcache::store(&dir, &key, b"not a snapshot");
        let cold = cfg.run_with(RunOptions::new().sentinel(false)).unwrap();
        assert_eq!(cold, run());
        let healed = snapcache::load(&dir, &key).unwrap();
        assert_ne!(healed, b"not a snapshot");
        assert_eq!(cold, run(), "the rewritten entry restores");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_config_error_survives_quarantine() {
        // Quarantined execution still surfaces per-point errors.
        let err = quick()
            .vcs(0)
            .sweep_with(&[0.05, 0.15], SweepOptions::new().threads(2))
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
    }

    fn tmp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "footprint-builder-test-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_sweep_matches_plain_sweep() {
        let rates = [0.05, 0.15, 0.25];
        let plain = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        let path = tmp_journal("match");
        let journaled = quick()
            .sweep_with(&rates, SweepOptions::new().threads(2).checkpoint(&path))
            .unwrap();
        assert_eq!(plain, journaled);
        // A second invocation over a complete journal reruns nothing and
        // restores the identical curve.
        let restored = quick()
            .sweep_with(&rates, SweepOptions::new().threads(2).checkpoint(&path))
            .unwrap();
        assert_eq!(plain, restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_sweep_resumes_bit_identically() {
        // Simulate a `kill -9` after two points: truncate the journal to
        // header + 2 records plus a torn half-written line, then resume at
        // both thread counts. The resumed curve must be bit-identical to an
        // uninterrupted sequential sweep — including its rendered output.
        let rates = [0.05, 0.15, 0.25, 0.35];
        let baseline = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        for threads in [1usize, 4] {
            let path = tmp_journal(&format!("resume-{threads}"));
            let full = quick()
                .sweep_with(
                    &rates,
                    SweepOptions::new().threads(threads).checkpoint(&path),
                )
                .unwrap();
            assert_eq!(full, baseline);
            let contents = std::fs::read_to_string(&path).unwrap();
            let keep: Vec<&str> = contents.lines().take(3).collect();
            std::fs::write(&path, format!("{}\npoint 3 3fd3", keep.join("\n"))).unwrap();
            let resumed = quick()
                .sweep_with(
                    &rates,
                    SweepOptions::new().threads(threads).checkpoint(&path),
                )
                .unwrap();
            assert_eq!(resumed, baseline);
            assert_eq!(format!("{resumed}"), format!("{baseline}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn modulated_run_reports_reduced_load() {
        use footprint_traffic::DurationDist;
        // A 50%-duty on/off gate at rate r must accept ≈ r/2 — the
        // end-to-end version of the workload-layer thinning test.
        let steady = quick()
            .injection_rate(0.2)
            .measurement(4_000)
            .run_with(RunOptions::new())
            .unwrap();
        let bursty = quick()
            .injection_rate(0.2)
            .measurement(4_000)
            .modulation(ModulationSpec::OnOff {
                on: DurationDist::Fixed(100),
                off: DurationDist::Fixed(100),
            })
            .run_with(RunOptions::new())
            .unwrap();
        let ratio = bursty.latency.throughput / steady.latency.throughput;
        assert!((ratio - 0.5).abs() < 0.08, "throughput ratio {ratio}");
    }

    #[test]
    fn tenant_run_reports_per_tenant_summaries() {
        // warmup(0) + drain: the window covers every packet, so the
        // per-tenant accounting invariant closes exactly.
        let report = quick()
            .warmup(0)
            .tenants(vec![
                TenantSpec::new("web", TrafficSpec::UniformRandom, 0.1),
                TenantSpec::new("batch", TrafficSpec::Transpose, 0.1),
            ])
            .drain(500)
            .run_with(RunOptions::new())
            .unwrap();
        assert_eq!(report.tenants.len(), 2);
        let web = report.tenant("web").unwrap();
        let batch = report.tenant("batch").unwrap();
        assert_eq!((web.class, batch.class), (0, 1));
        // Tenant accounting must agree exactly with the per-class window
        // counters the simulator keeps independently.
        for t in &report.tenants {
            let c = report.class(t.class);
            assert_eq!(t.offered_packets, c.generated_packets, "{}", t.name);
            assert_eq!(t.delivered_packets, c.ejected_packets, "{}", t.name);
            assert_eq!(t.measured_packets, c.measured_packets, "{}", t.name);
            assert!(t.delivered_packets > 0, "{}", t.name);
            assert!(t.fully_accounted(), "{}", t.name);
            assert!(t.windows.iter().map(|w| w.offered).sum::<u64>() == t.offered_packets);
            assert_eq!(t.window_cycles, TENANT_WINDOW);
        }
        assert!(report.tenant("nope").is_none());
    }

    #[test]
    fn foreign_journal_is_refused() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let rates = [0.05, 0.15];
        let path = tmp_journal("foreign");
        let opts = || SweepOptions::new().threads(1).checkpoint(&path);
        let original = quick().sweep_with(&rates, opts()).unwrap();
        // Same path, seed and grid where not stated otherwise — but a
        // different campaign each time, never to be merged.
        let cut = FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let tenant = TenantSpec::new("web", TrafficSpec::UniformRandom, 0.1);
        let foreign = [
            ("seed", quick().seed(99), opts()),
            ("algorithm", quick().routing(RoutingSpec::Dor), opts()),
            ("topology", quick().topology(footprint_topology::TopologySpec::torus(4)), opts()),
            ("fault plan", quick(), opts().faults(cut)),
            ("geometry", quick().vcs(6), opts()),
            ("traffic", quick().traffic(TrafficSpec::Transpose), opts()),
            ("window", quick().measurement(401), opts()),
            ("drain", quick().drain(1), opts()),
            ("tenants", quick().tenants(vec![tenant]), opts()),
            ("latency class", quick(), opts().latency_class(Some(0))),
        ];
        for (what, builder, opts) in foreign {
            match builder.sweep_with(&rates, opts) {
                Err(RunError::Checkpoint(msg)) => {
                    assert!(msg.contains("different sweep"), "{what}: {msg}");
                }
                other => panic!("changed {what}: expected Checkpoint, got {other:?}"),
            }
        }
        // The refusals left the journal intact for its own campaign, under
        // any schedule: what is bit-identical by contract is not in the key.
        let rescheduled = opts().threads(2).ensemble(2).sentinel(true).scheduler(Scheduler::Dense);
        assert_eq!(original, quick().sweep_with(&rates, rescheduled).unwrap());
        // A key-less journal (standalone `open`, or one written before the
        // header carried the campaign key) is refused the same way.
        std::fs::remove_file(&path).unwrap();
        drop(SweepJournal::open(&path, quick().seed, &rates).unwrap());
        let err = quick().sweep_with(&rates, opts()).unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

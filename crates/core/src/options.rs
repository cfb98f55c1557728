//! [`RunOptions`] and [`SweepOptions`]: how a configuration is executed.
//!
//! Both carry the same per-run execution settings — one private
//! [`ExecOptions`] value the engine takes by reference — so the seven
//! setters they share are written once (`exec_setters!`) and a sweep
//! point is executed under exactly the value a single run would be.

use std::path::PathBuf;

use footprint_sim::{Probe, Scheduler, UnreachablePolicy};
use footprint_topology::FaultPlan;

#[cfg(doc)]
use crate::{RunError, SimulationBuilder};
#[cfg(doc)]
use footprint_sim::Sentinel;
#[cfg(doc)]
use footprint_stats::SweepPoint;

/// The execution settings of one run, shared by [`RunOptions`] and
/// [`SweepOptions`] (where they apply to every point).
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecOptions {
    pub(crate) stall_threshold: Option<u64>,
    pub(crate) faults: FaultPlan,
    pub(crate) on_unreachable: UnreachablePolicy,
    pub(crate) sentinel: Option<bool>,
    pub(crate) scheduler: Scheduler,
    pub(crate) degraded_escape: bool,
    pub(crate) snapshot_dir: Option<PathBuf>,
}

/// The setters over the embedded [`ExecOptions`], expanded in both option
/// types; on [`SweepOptions`] each applies to every point of the sweep.
macro_rules! exec_setters {
    () => {
        /// Guards the whole run (warmup included) with a stall watchdog: if no
        /// flit moves for `stall_threshold` consecutive cycles while packets
        /// are in flight, the run aborts with [`RunError::Stalled`] instead of
        /// spinning to the cycle limit. A zero threshold is refused with
        /// [`RunError::Config`] before cycle 0.
        #[must_use]
        pub fn watchdog(mut self, stall_threshold: u64) -> Self {
            self.exec.stall_threshold = Some(stall_threshold);
            self
        }

        /// Runs under a fault schedule. The plan is validated against the
        /// topology when the network is built.
        #[must_use]
        pub fn faults(mut self, plan: FaultPlan) -> Self {
            self.exec.faults = plan;
            self
        }

        /// Disposition of packets whose destination the fault state makes
        /// unreachable (default: drop with accounting). With
        /// [`UnreachablePolicy::Error`], a run that observes any unreachable
        /// generation fails with [`RunError::Unreachable`] after completing.
        #[must_use]
        pub fn on_unreachable(mut self, policy: UnreachablePolicy) -> Self {
            self.exec.on_unreachable = policy;
            self
        }

        /// Explicitly enables (or disables) the runtime invariant sentinel
        /// for the whole run — warmup, measurement and drain. When never
        /// called, the `FOOTPRINT_SENTINEL` environment variable decides
        /// ([`Sentinel::env_enabled`]).
        ///
        /// The sentinel only observes, so an untripped sentinel-on run
        /// reports bit-identically to a sentinel-off run; a violation aborts
        /// with [`RunError::InvariantViolated`].
        #[must_use]
        pub fn sentinel(mut self, enabled: bool) -> Self {
            self.exec.sentinel = Some(enabled);
            self
        }

        /// Which cycle loop the network runs ([`Scheduler::Active`] by
        /// default). [`Scheduler::Dense`] is the reference loop the active
        /// set must reproduce bit for bit, not a tuning knob: select it
        /// only to cross-check a result or to measure the active set's
        /// speedup.
        #[must_use]
        pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
            self.exec.scheduler = scheduler;
            self
        }

        /// Opts into the degraded-escape fallback: a fault plan that masks
        /// wraparound channels and severs deterministic escape routes
        /// normally refuses to run ([`RunError::EscapeCompromised`]) because
        /// the algorithm's wrapping deadlock-freedom argument no longer
        /// covers every pair. With this flag the run proceeds anyway — the
        /// severed pairs are quarantined by the per-packet deliverability
        /// check, and a watchdog or sentinel should cover the in-flight
        /// worst case (a wedged wormhole across the mask) since the escape
        /// network is no longer a complete fallback.
        #[must_use]
        pub fn degraded_escape(mut self, allow: bool) -> Self {
            self.exec.degraded_escape = allow;
            self
        }

        /// Enables the warm-start snapshot cache rooted at `dir`: the first
        /// eligible run of a configuration serializes its post-warmup network
        /// state there, and later runs of the *same* configuration restore it
        /// and skip straight to measurement. The cache key covers everything
        /// that shapes the warmed state — topology, router geometry, routing,
        /// traffic, packet mix, injection rate, seed, warmup length and
        /// scheduler — so a hit reports **bit-identically** to a cold run.
        ///
        /// Ineligible runs (fault plans, sentinel on, tenants, modulation,
        /// stateful workloads, zero warmup) silently take the cold path; a
        /// missing, corrupt or stale cache file likewise degrades to a plain
        /// warmup. The cache never changes results, only how fast they arrive.
        #[must_use]
        pub fn snapshot_cache(mut self, dir: impl Into<PathBuf>) -> Self {
            self.exec.snapshot_dir = Some(dir.into());
            self
        }
    };
}

/// Options for one execution of a [`SimulationBuilder`]: which observers
/// to attach and which fault schedule to run under.
///
/// Consumed by [`SimulationBuilder::run_with`]. `RunOptions::default()` is
/// the plain run: no probe, no watchdog, no faults.
///
/// ```
/// use footprint_core::{RunOptions, SimulationBuilder};
///
/// let report = SimulationBuilder::mesh(4)
///     .vcs(4)
///     .warmup(100)
///     .measurement(200)
///     .run_with(RunOptions::new().watchdog(10_000))?;
/// assert!(report.latency.ejected_packets > 0);
/// # Ok::<(), footprint_core::RunError>(())
/// ```
#[derive(Default)]
pub struct RunOptions<'a> {
    pub(crate) probe: Option<&'a mut dyn Probe>,
    pub(crate) exec: ExecOptions,
}

impl<'a> RunOptions<'a> {
    /// No probe, no watchdog, no faults — the plain run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a probe from the warmup boundary onward (measurement and
    /// drain phases).
    #[must_use]
    pub fn probe(mut self, probe: &'a mut dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    exec_setters!();
}

/// Options for a latency-throughput sweep ([`SimulationBuilder::sweep_with`]):
/// the per-point execution settings of [`RunOptions`] plus sweep-level knobs.
///
/// `SweepOptions::default()` is the plain sweep: total latency over all
/// classes, default worker pool, no faults.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    pub(crate) latency_class: Option<u8>,
    pub(crate) threads: Option<usize>,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) ensemble: usize,
    pub(crate) exec: ExecOptions,
}

impl SweepOptions {
    /// Total-latency curve on the default worker pool, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarizes class `class` instead of the total over all classes.
    #[must_use]
    pub fn latency_class(mut self, class: Option<u8>) -> Self {
        self.latency_class = class;
        self
    }

    /// Explicit worker count (`<= 1` runs sequentially on the calling
    /// thread). Defaults to the machine's available parallelism, or
    /// `FOOTPRINT_THREADS` when set.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Journals completed sweep points to `path`
    /// ([`crate::journal::SweepJournal`]) so a crashed or killed campaign
    /// resumes where it left off: re-running the same sweep with the same
    /// journal skips the recorded points and produces a curve
    /// bit-identical to an uninterrupted run, at any thread count. The
    /// journal is bound to the whole campaign configuration; pointing a
    /// different sweep at it fails with [`RunError::Checkpoint`].
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Runs the sweep in ensembles of width `n`: up to `n` sweep points
    /// (same topology and geometry, different rates and derived seeds)
    /// share one worker job, which advances them round-robin, one
    /// 1024-cycle slice per point per round. Each point is a complete
    /// private run, so its [`SweepPoint`] is **bit-identical** to the one
    /// a standalone [`SimulationBuilder::run_with`] of that point would
    /// produce — the ensemble only changes the execution schedule, never
    /// the numbers, whatever else is configured (sentinel, tenants,
    /// watchdog, cache). `n <= 1` (the default) runs one point
    /// per job.
    #[must_use]
    pub fn ensemble(mut self, n: usize) -> Self {
        self.ensemble = n;
        self
    }

    exec_setters!();
}

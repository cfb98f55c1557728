//! High-level public API of the Footprint NoC reproduction.
//!
//! This crate ties the substrates together behind one builder:
//!
//! * [`SimulationBuilder`] — configure topology, routing, traffic, load and
//!   measurement phases; run one experiment or sweep a latency-throughput
//!   curve.
//! * [`TrafficSpec`] — the paper's workloads by name (synthetic patterns,
//!   the Table 3 hotspot workload, PARSEC-like pairs, the Figure 2
//!   permutation).
//! * [`RunReport`] — per-class latency/throughput plus the §4.3 blocking
//!   purity metrics.
//!
//! * [`exec`] — the parallel experiment engine: fan independent runs
//!   out over a scoped worker pool ([`exec::JobSet`]) with
//!   deterministic per-job seeds, so sweeps use every core while
//!   staying bit-identical to sequential execution.
//!
//! * [`RunOptions`] / [`SweepOptions`] — the execution options: one struct
//!   carries the probe, the stall watchdog and the fault plan, consumed by
//!   [`SimulationBuilder::run_with`] / [`SimulationBuilder::sweep_with`],
//!   the only two ways to execute a configuration. Both drive the same
//!   engine, and every failure routes through [`RunError`].
//!
//! * [`Scheduler`] — which cycle loop the network runs: the active-set
//!   scheduler (default) walks only components with pending work and is
//!   bit-identical to [`Scheduler::Dense`], the reference loop the
//!   differential tests and the benchmark compare it against (selectable
//!   per run via [`RunOptions::scheduler`] / [`SweepOptions::scheduler`]).
//!
//! * Observability — attach any [`Probe`] subscriber to a run
//!   ([`RunOptions::probe`]; for every point of a sweep, run the points
//!   yourself via [`SimulationBuilder::sweep_point`]), and guard long runs
//!   with the forward-progress watchdog ([`RunOptions::watchdog`], which
//!   turns a hang into a [`StallDiagnostic`] bundle).
//!
//! * Dynamic workloads — modulate any traffic spec with on/off bursts,
//!   rate ramps or piecewise schedules ([`SimulationBuilder::modulation`],
//!   [`ModulationSpec`]), or share the mesh between named tenants with
//!   distinct patterns, rates and schedules
//!   ([`SimulationBuilder::tenants`], [`TenantSpec`]); per-tenant SLO
//!   summaries (p50/p99 latency, windowed offered/delivered) come back in
//!   [`RunReport::tenants`].
//!
//! * Fault injection — run any experiment under a deterministic
//!   [`FaultPlan`] (link/router failures with optional repair times) via
//!   [`RunOptions::faults`]; per-class delivery/drop accounting and the
//!   observed unreachable pairs come back in [`RunReport::faults`].
//!
//! Re-exported: [`RoutingSpec`] (thirteen algorithms; the seven of
//! Table 2 are [`RoutingSpec::PAPER_SET`]), [`PacketSize`], [`App`].
//!
//! # Example
//!
//! ```
//! use footprint_core::{RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
//!
//! // Compare Footprint against DBAR on transpose traffic (tiny run).
//! let mut results = Vec::new();
//! for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
//!     let report = SimulationBuilder::mesh(4)
//!         .vcs(4)
//!         .routing(spec)
//!         .traffic(TrafficSpec::Transpose)
//!         .injection_rate(0.15)
//!         .warmup(200)
//!         .measurement(400)
//!         .run_with(RunOptions::new())?;
//!     results.push((spec.name(), report.latency.throughput));
//! }
//! assert_eq!(results.len(), 2);
//! # Ok::<(), footprint_core::RunError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod engine;
mod error;
pub mod exec;
pub mod journal;
mod options;
mod report;
mod snapcache;
mod traffic_spec;

pub use builder::SimulationBuilder;
pub use error::RunError;
pub use options::{RunOptions, SweepOptions};
pub use exec::JobSet;
pub use journal::SweepJournal;
pub use report::{ClassSummary, RunReport};
pub use traffic_spec::{ParseTrafficSpecError, TenantSpec, TrafficSpec};

pub use footprint_routing::RoutingSpec;
pub use footprint_sim::{
    ConfigError, EventTrace, NullProbe, Probe, Scheduler, Sentinel, SentinelReport,
    SentinelViolation, SimConfig, StallDiagnostic, StallWatchdog, UnreachablePolicy,
};
pub use footprint_stats::{
    FaultStats, PartitionReport, RecoveryStats, SweepProgress, TenantProbe, TenantSummary,
    WindowCounts,
};
pub use footprint_topology::{FaultEvent, FaultKind, FaultPlan, FaultTarget};
pub use footprint_traffic::{App, DurationDist, ModulationSpec, PacketSize};

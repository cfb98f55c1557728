//! # footprint-suite
//!
//! Umbrella crate for the reproduction of *"Footprint: Regulating Routing
//! Adaptiveness in Networks-on-Chip"* (Fu & Kim, ISCA 2017).
//!
//! Re-exports the public API of the member crates so that examples and
//! integration tests can use a single dependency:
//!
//! * [`topology`] — fabric geometry: mesh, torus and ring as one grid value.
//! * [`routing`] — DOR / Odd-Even / DBAR / Footprint / XORDET, the
//!   adaptiveness metrics and the cost model.
//! * [`sim`] — the cycle-accurate NoC simulator.
//! * [`traffic`] — synthetic traffic patterns, hotspot and trace workloads.
//! * [`stats`] — measurement, saturation search and congestion analysis.
//! * [`core`](mod@core) — the high-level builder API tying it all together.
//!
//! The blessed surface for applications is [`prelude`]: one import line
//! gives the builder, the execution options and the report types.
//!
//! # Quickstart
//!
//! ```
//! use footprint_suite::prelude::*;
//!
//! let report = SimulationBuilder::mesh(4)
//!     .vcs(4)
//!     .routing(RoutingSpec::Footprint)
//!     .traffic(TrafficSpec::UniformRandom)
//!     .injection_rate(0.1)
//!     .warmup(500)
//!     .measurement(1000)
//!     .seed(7)
//!     .run_with(RunOptions::new())
//!     .expect("valid configuration");
//! assert!(report.latency.mean() > 0.0);
//! ```

#![warn(missing_docs)]

pub use footprint_core as core;
pub use footprint_routing as routing;
pub use footprint_sim as sim;
pub use footprint_stats as stats;
pub use footprint_topology as topology;
pub use footprint_traffic as traffic;

/// The blessed import surface: everything a typical experiment needs.
///
/// ```
/// use footprint_suite::prelude::*;
///
/// let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(0), Direction::East, 0));
/// let report = SimulationBuilder::mesh(4)
///     .vcs(4)
///     .warmup(100)
///     .measurement(200)
///     .run_with(RunOptions::new().faults(plan))?;
/// assert!(report.latency.ejected_packets > 0);
/// # Ok::<(), RunError>(())
/// ```
///
/// Anything deeper (router internals, probes beyond the re-exported ones,
/// analysis helpers) stays behind the member-crate paths
/// ([`crate::sim`], [`crate::stats`], …).
pub mod prelude {
    pub use footprint_core::{
        ClassSummary, ConfigError, FaultStats, NullProbe, Probe, PartitionReport, RecoveryStats,
        RoutingSpec, RunError, RunOptions, RunReport, Scheduler, SimulationBuilder,
        StallDiagnostic, SweepOptions, TenantSpec, TenantSummary, TrafficSpec, UnreachablePolicy,
    };
    pub use footprint_topology::{Direction, FaultEvent, FaultKind, FaultPlan, NodeId, TopologySpec};
    pub use footprint_traffic::{App, DurationDist, ModulationSpec, PacketSize};
}

//! Cycle-accurate NoC simulator substrate for the Footprint reproduction.
//!
//! This crate plays the role BookSim 2.0 plays in the paper: an
//! input-queued, virtual-channel router microarchitecture with credit-based
//! flow control and wormhole switching, simulated cycle by cycle:
//!
//! * [`Network`] — a fabric of routers (a 2D mesh, a torus or a ring, per
//!   [`SimConfig::topology`]), each with a source and a sink endpoint,
//!   connected by links of [`SimConfig::link_latency`] cycles (one in the
//!   paper's configuration). A [`Workload`] offers packets to the sources,
//!   and a [`Probe`] observes the cycle; the router datapath behind them is
//!   private to this crate.
//! * Routing is pluggable through `footprint-routing`'s `RoutingAlgorithm`
//!   trait; the router's **priority-based VC allocator** consumes the
//!   prioritized request sets that Footprint's Algorithm 1 emits, and
//!   supports the *footprint join* (granting a draining VC to a packet with
//!   the same destination) that forms the paper's virtual set-aside queues.
//! * VC reallocation honours the paper's §4.2.1 distinction: atomic for
//!   Duato-based algorithms (a VC is reusable only after all credits
//!   return), non-atomic for turn-model/deterministic ones.
//! * Internal speedup 2.0 is modeled as dual switch grants per port with a
//!   staging FIFO draining one flit per cycle onto each link.
//! * Endpoints eject at link bandwidth (one flit per cycle), so
//!   oversubscribed endpoints grow genuine congestion trees through
//!   backpressure — the phenomenon Footprint regulates.
//!
//! # Example
//!
//! ```
//! use footprint_sim::{Network, SimConfig, SingleFlow, FlowSet, NoTraffic};
//! use footprint_routing::RoutingSpec;
//! use footprint_topology::NodeId;
//!
//! let mut net = Network::new(
//!     SimConfig::small(),
//!     RoutingSpec::Footprint.build(),
//!     42,
//! )?;
//! let mut flow = FlowSet::new(vec![SingleFlow {
//!     src: NodeId(0), dest: NodeId(15), rate: 0.3, size: 1,
//! }]);
//! net.run(&mut flow, 500);
//! net.run(&mut NoTraffic, 200); // drain
//! assert!(net.metrics().total().ejected_packets > 0);
//! # Ok::<(), footprint_sim::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cast;
mod config;
mod dump;
mod endpoint;
mod fault;
mod input;
mod metrics;
mod network;
mod observe;
mod recovery;
mod output;
mod packet;
mod router;
mod sched;
mod sentinel;
mod sideband;
mod snapshot;
mod soa;
mod view;
mod wire;
mod workload;

pub use config::{ConfigError, SimConfig};
pub use fault::{FaultState, PartitionEpoch, UnreachablePolicy};
pub use metrics::{ClassStats, EjectedPacket, Metrics, NullProbe, Probe, VaBlockInfo};
pub use network::{Network, OccupiedVcEntry};
pub use recovery::{AvailabilityWindow, RecoveryTracker, TtrRecord};
pub use observe::{
    EventTrace, FlitEvent, FlitEventKind, InFlightPacket, ProbePair, StallDiagnostic,
    StallWatchdog, TraceRecord,
};
pub use packet::{NewPacket, PacketId};
pub use sched::Scheduler;
pub use sentinel::{
    DeadlockFinding, DeadlockMember, Sentinel, SentinelChannel, SentinelReport, SentinelViolation,
};
pub use workload::{FlowSet, NoTraffic, SingleFlow, Workload};

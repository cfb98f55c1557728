//! Measurement and analysis for the Footprint NoC reproduction.
//!
//! * [`OnlineStats`] / [`Histogram`] — streaming latency statistics.
//! * [`Curve`] — latency-throughput curves with the conventional
//!   3×-zero-load saturation-throughput extraction used by Figures 5–8.
//! * [`TreeAnalysis`] — congestion-tree extraction from simulator
//!   occupancy snapshots: branch count and VC thickness per destination
//!   (the paper's thin-vs-thick branch measure, Figure 2).
//! * [`PurityProbe`] — blocking purity and HoL-blocking degree over tracked
//!   packets (§4.3, Figure 10(b)/(c)).
//! * [`Table`] — plain-text table rendering for the experiment binaries.
//!
//! # Example
//!
//! ```
//! use footprint_stats::{Curve, SweepPoint};
//!
//! let mut curve = Curve::new("footprint");
//! for (o, a, l) in [(0.1, 0.1, 20.0), (0.3, 0.3, 35.0), (0.5, 0.42, 300.0)] {
//!     curve.push(SweepPoint { offered: o, accepted: a, latency: l });
//! }
//! let sat = curve.saturation(3.0).reached().unwrap();
//! assert!(sat > 0.3 && sat < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod congestion_tree;
mod fault_stats;
mod latency;
mod observers;
mod probes;
mod purity;
mod resilience;
mod sweep;
pub mod table;
mod tenant;
mod timeline;

pub use congestion_tree::{CongestionTree, TreeAnalysis};
pub use fault_stats::{ClassFaultCounts, FaultStats};
pub use latency::{Histogram, OnlineStats};
pub use observers::{MeshSample, TimelineProbe};
pub use probes::{load_balance, LatencyHistogramProbe, LoadBalance};
pub use purity::PurityProbe;
pub use resilience::{PartitionReport, RecoveryStats};
pub use sweep::{Curve, Saturation, SweepPoint, SweepProgress};
pub use tenant::{TenantProbe, TenantSummary, WindowCounts};
pub use timeline::{TreeSample, TreeTimeline};
pub use table::Table;

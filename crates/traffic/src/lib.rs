//! Traffic generation for the Footprint NoC reproduction.
//!
//! Everything the paper's evaluation injects into the network:
//!
//! * [`Pattern`] — one value per destination function: the synthetic
//!   patterns of Figures 5–8 (uniform random, transpose, shuffle), the
//!   classic extras, and explicit flow lists — the [`FIGURE2`] permutation
//!   and the [`TABLE3`] hotspot flows. [`Pattern::check`] is the one
//!   pattern/fabric shape check.
//! * [`PacketSize`] — single-flit and 1–6-flit-uniform size mixes (Table 2).
//! * [`SyntheticWorkload`] — Bernoulli injection over a pattern at an
//!   offered load in flits/node/cycle; the one injection draw site for
//!   synthetic, Figure 2 and hotspot traffic.
//! * [`HotspotWorkload`] — the Table 3 hotspot + background workload of
//!   Figure 9.
//! * [`ParsecPairWorkload`] — bursty per-application workloads standing in
//!   for the PARSEC/Netrace traces of Figure 10 (`src/parsec.rs` gives the
//!   substitution rationale).
//! * [`TraceWorkload`] — generic timestamped trace replay.
//! * [`Modulation`] — on/off (bursty) gating, rate ramps and piecewise
//!   schedules: the gate beside a source.
//! * [`Tenants`] — the workload value: a list of [`Tenant`]s, each a
//!   closed-enum [`Source`] with an optional gate and class. A plain,
//!   modulated or multi-tenant configuration is one.
//!
//! # Example
//!
//! ```
//! use footprint_traffic::{PacketSize, Pattern, SyntheticWorkload};
//! use footprint_sim::{Network, SimConfig, Workload};
//! use footprint_routing::RoutingSpec;
//!
//! let cfg = SimConfig::small();
//! let mut net = Network::new(cfg, RoutingSpec::Footprint.build(), 1)?;
//! let mut wl = SyntheticWorkload::new(cfg.topo(), Pattern::Transpose, PacketSize::SINGLE, 0.2)?;
//! net.run(&mut wl, 1000);
//! assert!(net.metrics().total().ejected_packets > 0);
//! // Transpose needs a square grid: a ring is refused when the workload is built.
//! let ring = footprint_topology::AnyTopology::ring(16);
//! assert!(SyntheticWorkload::new(ring, Pattern::Transpose, PacketSize::SINGLE, 0.2).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod hotspot;
mod modulate;
mod overlay;
mod parsec;
mod patterns;
mod size;
mod synthetic;
mod tenants;
mod trace;

pub use hotspot::{HotspotWorkload, BACKGROUND_CLASS, HOTSPOT_CLASS};
pub use modulate::{DurationDist, Modulation, ModulationError, ModulationSpec};
pub use overlay::Overlay;
pub use parsec::{App, AppProfile, ParsecPairWorkload, APPS};
pub use patterns::{Pattern, PatternError, FIGURE2, TABLE3};
pub use size::PacketSize;
pub use synthetic::SyntheticWorkload;
pub use tenants::{Source, Tenant, Tenants};
pub use trace::{
    parse_trace, write_trace, ParseTraceError, TraceEvent, TraceRegression, TraceWorkload,
};


//! Topology substrate for the Footprint NoC reproduction.
//!
//! The paper ("Footprint: Regulating Routing Adaptiveness in
//! Networks-on-Chip", ISCA 2017) evaluates exclusively on 2D meshes; this
//! crate models the mesh, and the torus and ring the same machinery runs
//! on, as one grid value:
//!
//! * [`AnyTopology`] — a `width × height` router grid that wraps (torus,
//!   and the `n × 1` ring) or does not (mesh): node/channel enumeration,
//!   neighbor map, coordinate and hop metric, and the canonical
//!   deadlock-free escape routing (one escape VC on a mesh, two dateline
//!   classes when the fabric wraps; the module docs hold the acyclicity
//!   argument).
//! * [`TopologySpec`] — the validated, canonically-printable configuration
//!   form ([`TopologySpec::validate`] returns typed [`TopologyError`]s).
//!
//! Supporting types: [`NodeId`] (dense row-major index), [`Coord`],
//! [`Direction`]/[`Port`] (the four-direction port alphabet plus the local
//! port), [`Channel`], [`MinimalDirs`], the deterministic fault-plan
//! model ([`FaultPlan`]) and the workspace's one seed mixer
//! ([`splitmix64`]).
//!
//! # Example
//!
//! ```
//! use footprint_topology::{AnyTopology, NodeId, TopologySpec};
//!
//! let torus = TopologySpec::torus(8).validate().unwrap();
//! assert_eq!(torus, AnyTopology::torus(8, 8));
//! // Wraparound makes the far corner adjacent in both dimensions.
//! assert_eq!(torus.hops(NodeId(0), NodeId(63)), 2);
//! // Wrapping fabrics reserve two dateline escape-VC classes.
//! assert_eq!(torus.escape_vcs(), 2);
//! assert_eq!("torus:8x8".parse::<TopologySpec>().unwrap().validate().unwrap(), torus);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod any;
mod coord;
mod fault;
mod port;
mod spec;

// Shape-by-shape tests of the one grid value.
mod mesh;
mod ring;
mod torus;

pub use any::{AnyTopology, Channel, ChannelIter, MinimalDirs, NodeIter};
pub use coord::{Coord, NodeId};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError, FaultTarget};
pub use port::{Direction, Port, DIRECTIONS, PORTS, PORT_COUNT};
pub use spec::{TopologyError, TopologySpec};

/// The splitmix64 finalizer: a well-mixed, deterministic function of `x`,
/// used wherever a seed or a coin must be a pure function of its inputs
/// (per-job seeds, per-node gate seeds, fault placement, retry jitter)
/// rather than a draw from a shared stream.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

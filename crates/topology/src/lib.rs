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
//! port), [`Channel`], [`MinimalDirs`], and the deterministic fault-plan
//! model ([`FaultPlan`]).
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

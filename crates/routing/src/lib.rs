//! Routing algorithms for the Footprint NoC reproduction.
//!
//! This crate implements every routing algorithm evaluated in *"Footprint:
//! Regulating Routing Adaptiveness in Networks-on-Chip"* (Fu & Kim, ISCA
//! 2017):
//!
//! * [`Footprint`] — the paper's contribution (Algorithm 1): fully adaptive
//!   routing that regulates its own adaptiveness by preferring *footprint
//!   VCs* (VCs already occupied by packets to the same destination) when the
//!   network is congested.
//! * [`Dbar`] — the fully adaptive baseline (destination-based adaptive
//!   routing, Duato escape channel, side-band congestion selection).
//! * [`OddEven`] — the partially adaptive turn-model baseline.
//! * [`Dor`] — dimension-order routing, the deterministic baseline.
//! * [`VcOverlay`] — a VC rule layered over any of the above: the static
//!   HoL-blocking-aware XORDET mapping (`DOR+XORDET`, `Odd-Even+XORDET`,
//!   `DBAR+XORDET`), VOQ_sw, or Footprint's own VC tiering.
//!
//! A routing decision is not a single output; it is a **prioritized set of
//! VC requests** ([`VcRequest`]) handed to the router's priority-based VC
//! allocator — the representation Algorithm 1 is written in.
//!
//! The crate also provides the paper's analytical tooling: the two-level
//! adaptiveness metrics of §3.1 ([`adaptiveness`]) and the hardware cost
//! model of §4.4 ([`cost`]).
//!
//! # Example
//!
//! ```
//! use footprint_routing::{Footprint, RoutingAlgorithm, RoutingCtx, VcId,
//!                         TablePortView, NoCongestionInfo, AllLinksUp};
//! use footprint_topology::{AnyTopology, NodeId, Port};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let view = TablePortView::all_idle(10, 4);
//! let ctx = RoutingCtx {
//!     topo: AnyTopology::mesh(8, 8),
//!     current: NodeId(0),
//!     src: NodeId(0),
//!     dest: NodeId(63),
//!     input_port: Port::Local,
//!     input_vc: VcId(1),
//!     on_escape: false,
//!     num_vcs: 10,
//!     ports: &view,
//!     congestion: &NoCongestionInfo,
//!     links: &AllLinksUp,
//! };
//! let mut out = Vec::new();
//! Footprint::new().route(&ctx, &mut SmallRng::seed_from_u64(1), &mut out);
//! assert!(!out.is_empty());
//! ```

#![warn(missing_docs)]

pub mod adaptiveness;
mod algorithm;
pub mod cdg;
pub mod cost;
mod dbar;
mod dor;
mod footprint;
pub mod invariant;
mod odd_even;
mod overlay;
mod request;
mod spec;
mod turn_model;
mod view;
mod voqsw;
mod xordet;

pub use algorithm::{
    DirSet, RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcSelection, WrapStrategy,
};
pub use dbar::{dbar_threshold, Dbar};
pub use dor::{Dor, RandomMinimal};
pub use footprint::Footprint;
pub use invariant::{escape_request, escape_request_within, neighbor_checked, InvariantError};
pub use odd_even::OddEven;
pub use overlay::{VcOverlay, VcRule};
pub use request::{Priority, VcId, VcRequest};
pub use spec::{ParseRoutingSpecError, RoutingSpec};
pub use turn_model::{NorthLast, WestFirst};
pub use view::{
    AllLinksUp, CongestionView, DownLinks, LinkStateView, NoCongestionInfo, PortStateView,
    TablePortView, VcClass, VcView,
};
pub use voqsw::dor_output_port;
pub use xordet::xordet_class;

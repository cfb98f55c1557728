//! Routing algorithms for the Footprint NoC reproduction.
//!
//! Every routing algorithm evaluated in *"Footprint: Regulating Routing
//! Adaptiveness in Networks-on-Chip"* (Fu & Kim, ISCA 2017) is one
//! [`AnyRouting`] value, described — as the paper describes it (§3.1,
//! Table 1) — by two levels of adaptiveness:
//!
//! * a port selector: Footprint (Algorithm 1 steps 1–2), DBAR (the
//!   fully adaptive baseline: Duato escape channel, side-band congestion
//!   selection), Odd-Even (the partially adaptive turn model), DOR (the
//!   deterministic baseline), and the reference extras random-minimal,
//!   West-First and North-Last;
//! * a VC rule for the chosen port: oblivious, Footprint's
//!   tiers (Algorithm 1 step 3: prefer *footprint VCs*, those already
//!   occupied by packets to the same destination, when the network is
//!   congested), or the static XORDET and VOQ_sw mappings.
//!
//! [`RoutingSpec::routing`] names the thirteen combinations the
//! experiments use; [`AnyRouting::footprint`] takes the Footprint tiering
//! knobs ([`Tiers`]) the ablations vary.
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
//! use footprint_routing::{AllLinksUp, NoCongestionInfo, RoutingAlgorithm, RoutingCtx,
//!                         RoutingSpec, TablePortView, VcId};
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
//! RoutingSpec::Footprint.routing().route(&ctx, &mut SmallRng::seed_from_u64(1), &mut out);
//! assert!(!out.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod adaptiveness;
mod algorithm;
mod any;
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
pub use any::AnyRouting;
pub use dbar::dbar_threshold;
pub use footprint::Tiers;
pub use invariant::InvariantError;
pub use request::{Priority, VcId, VcRequest};
pub use spec::{ParseRoutingSpecError, RoutingSpec};
pub use view::{
    AllLinksUp, CongestionView, DownLinks, LinkStateView, NoCongestionInfo, PortStateView,
    TablePortView, VcClass, VcView,
};
pub use xordet::xordet_class;

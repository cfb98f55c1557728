//! XY dimension-order routing (DOR) — the oblivious, deterministic
//! baseline, [`crate::any::Selector::Dor`].
//!
//! Packets first travel along X to the destination column, then along Y.
//! On meshes all VCs of a channel are usable (the paper's Figure 2(a): DOR
//! saturates *all* VCs of a congested link) and the CDG of XY routing is
//! acyclic outright, so no escape channel is reserved and VCs are
//! reallocated non-atomically.
//!
//! On wrapping topologies (torus, ring) minimal dimension-order routes
//! close cycles through the wraparound channels, so each channel's VCs are
//! split into two dateline half-classes: the lower half while the packet
//! still has the wrap crossing of that dimension ahead of it, the upper
//! half once it no longer does. Class transitions are one-way, which keeps
//! the VC-level dependency graph acyclic (see
//! [`footprint_topology::AnyTopology::escape_class`] for the full argument).
//!
//! ```
//! use footprint_routing::{RoutingAlgorithm, RoutingSpec};
//! use footprint_topology::{AnyTopology, Direction, NodeId};
//!
//! let dor = RoutingSpec::Dor.routing();
//! let dirs = dor.allowed_dirs(AnyTopology::mesh(4, 4), NodeId(0), NodeId(0), NodeId(10));
//! assert!(dirs.contains(Direction::East));
//! assert_eq!(dirs.len(), 1); // deterministic: only the X direction
//! ```

use crate::RoutingCtx;
use footprint_topology::{AnyTopology, Direction, NodeId};

/// The one direction DOR takes at `cur` toward `dest`: X first, then Y;
/// `None` at the destination.
#[inline]
pub(crate) fn dir(topo: AnyTopology, cur: NodeId, dest: NodeId) -> Option<Direction> {
    let dirs = topo.minimal_dirs(cur, dest);
    dirs.x.or(dirs.y)
}

/// The VC index range DOR may request on the channel `ctx.current → dir`:
/// all VCs on acyclic topologies, the dateline half-class on wrapping ones.
#[inline]
pub(crate) fn vc_band(ctx: &RoutingCtx<'_>, dir: Direction) -> core::ops::Range<usize> {
    if !ctx.topo.wraps() {
        return 0..ctx.num_vcs;
    }
    let half = ctx.num_vcs / 2;
    if ctx.topo.escape_class(ctx.current, ctx.dest, dir) == 0 {
        0..half
    } else {
        half..ctx.num_vcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AllLinksUp, DownLinks, NoCongestionInfo, Priority, RoutingAlgorithm, RoutingSpec,
        TablePortView, VcId, VcReallocationPolicy, VcRequest,
    };
    use footprint_topology::Port;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn route_at(cur: u16, dest: u16) -> Vec<VcRequest> {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(cur),
            src: NodeId(0),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 4,
            ports: &view,
            congestion: &cong,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        RoutingSpec::Dor.routing().route(&ctx, &mut rng, &mut out);
        out
    }

    #[test]
    fn dor_goes_x_first() {
        // n0=(0,0) → n10=(2,2): East.
        let reqs = route_at(0, 10);
        assert!(reqs.iter().all(|r| r.port == Port::Dir(Direction::East)));
        assert_eq!(reqs.len(), 4); // all VCs
    }

    #[test]
    fn dor_goes_y_when_column_matches() {
        // n2=(2,0) → n10=(2,2): North.
        let reqs = route_at(2, 10);
        assert!(reqs.iter().all(|r| r.port == Port::Dir(Direction::North)));
    }

    #[test]
    fn dor_ejects_at_destination() {
        let reqs = route_at(10, 10);
        assert!(reqs.iter().all(|r| r.port == Port::Local));
        assert_eq!(reqs.len(), 4);
    }

    #[test]
    fn dor_properties() {
        let dor = RoutingSpec::Dor.routing();
        assert_eq!(dor.policy(), VcReallocationPolicy::NonAtomic);
        assert!(!dor.has_escape());
        assert!(!dor.allows_footprint_join());
        assert_eq!(dor.name(), "dor");
    }

    #[test]
    fn dor_keeps_requesting_its_only_route_under_faults() {
        // DOR is deterministic by definition: a fault on its one legal
        // channel does not reroute it (the simulator reports such pairs as
        // unreachable instead).
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
        let ctx = RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(10),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 4,
            ports: &view,
            congestion: &cong,
            links: &faults,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        RoutingSpec::Dor.routing().route(&ctx, &mut rng, &mut out);
        assert!(out.iter().all(|r| r.port == Port::Dir(Direction::East)));
    }

    #[test]
    fn random_minimal_avoids_faulted_direction() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
        let ctx = RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(10),
            input_port: Port::Local,
            input_vc: VcId(1),
            on_escape: false,
            num_vcs: 4,
            ports: &view,
            congestion: &cong,
            links: &faults,
        };
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out = Vec::new();
            RoutingSpec::RandomMinimal.routing().route(&ctx, &mut rng, &mut out);
            assert!(!out.is_empty());
            assert!(
                out.iter().all(|r| r.port == Port::Dir(Direction::North)),
                "seed {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn dor_allowed_dirs_is_singleton_off_destination() {
        let mesh = AnyTopology::mesh(8, 8);
        let dirs = RoutingSpec::Dor.routing().allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63));
        assert_eq!(dirs.len(), 1);
        assert!(dirs.contains(Direction::East));
    }

    #[test]
    fn random_minimal_requests_adaptive_vcs_plus_escape() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(10),
            input_port: Port::Local,
            input_vc: VcId(1),
            on_escape: false,
            num_vcs: 4,
            ports: &view,
            congestion: &cong,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut out = Vec::new();
        RoutingSpec::RandomMinimal.routing().route(&ctx, &mut rng, &mut out);
        // 3 adaptive requests + 1 escape request.
        assert_eq!(out.len(), 4);
        assert_eq!(
            out.iter()
                .filter(|r| r.vc == VcId::ESCAPE && r.priority == Priority::Lowest)
                .count(),
            1
        );
        assert!(out.iter().filter(|r| r.vc != VcId::ESCAPE).all(|r| {
            r.port == Port::Dir(Direction::East) || r.port == Port::Dir(Direction::North)
        }));
    }
}

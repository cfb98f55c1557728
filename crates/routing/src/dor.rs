//! Dimension-order routing (DOR) — the oblivious, deterministic baseline.

use crate::algorithm::{eject_requests, prefer, DirSet, WrapStrategy};
use crate::{Priority, RoutingAlgorithm, RoutingCtx, VcId, VcRequest, VcReallocationPolicy};
use core::cmp::Ordering;
use footprint_topology::{AnyTopology, NodeId, Port};
use rand::RngCore;

/// XY dimension-order routing.
///
/// Packets first travel along X to the destination column, then along Y.
/// On meshes all VCs of a channel are usable (the paper's Figure 2(a): DOR
/// saturates *all* VCs of a congested link) and the CDG of XY routing is
/// acyclic outright, so no escape channel is reserved and VCs are
/// reallocated non-atomically.
///
/// On wrapping topologies (torus, ring) minimal dimension-order routes
/// close cycles through the wraparound channels, so each channel's VCs are
/// split into two dateline half-classes: the lower half while the packet
/// still has the wrap crossing of that dimension ahead of it, the upper
/// half once it no longer does. Class transitions are one-way, which keeps
/// the VC-level dependency graph acyclic (see
/// [`footprint_topology::AnyTopology::escape_class`] for the full argument).
///
/// ```
/// use footprint_routing::{Dor, RoutingAlgorithm};
/// use footprint_topology::{AnyTopology, NodeId, Direction};
///
/// let dor = Dor;
/// let dirs = dor.allowed_dirs(AnyTopology::mesh(4, 4), NodeId(0), NodeId(0), NodeId(10));
/// assert!(dirs.contains(Direction::East));
/// assert_eq!(dirs.len(), 1); // deterministic: only the X direction
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dor;

/// The VC index range DOR may request on the channel `ctx.current → dir`:
/// all VCs on acyclic topologies, the dateline half-class on wrapping ones.
fn dor_vc_band(ctx: &RoutingCtx<'_>, dir: footprint_topology::Direction) -> core::ops::Range<usize> {
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

impl RoutingAlgorithm for Dor {
    fn name(&self) -> &'static str {
        "dor"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::NonAtomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn wrap_strategy(&self) -> WrapStrategy {
        WrapStrategy::DatelineVcClasses
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let _ = rng;
        let dirs = ctx.topo.minimal_dirs(ctx.current, ctx.dest);
        let dir = match dirs.x.or(dirs.y) {
            Some(d) => d,
            None => return eject_requests(ctx, out),
        };
        for v in dor_vc_band(ctx, dir) {
            out.push(VcRequest::new(Port::Dir(dir), VcId::from_index(v), Priority::Low));
        }
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, _src: NodeId, dest: NodeId) -> DirSet {
        let dirs = topo.minimal_dirs(cur, dest);
        dirs.x.or(dirs.y).into_iter().collect()
    }
}

/// Minimal fully-adaptive random routing without congestion awareness.
///
/// Not one of the paper's evaluated algorithms, but a useful reference point
/// and test fixture: it requests every VC on a uniformly chosen productive
/// direction, with a Duato escape channel for deadlock freedom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomMinimal;

impl RoutingAlgorithm for RandomMinimal {
    fn name(&self) -> &'static str {
        "random-minimal"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::Atomic
    }

    fn has_escape(&self) -> bool {
        true
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let dirs = ctx.topo.minimal_dirs(ctx.current, ctx.dest);
        if dirs.count() == 0 {
            return eject_requests(ctx, out);
        }
        // Faulted or dead-end candidates are excluded.
        let ux = dirs.x.filter(|&d| ctx.usable(d));
        let uy = dirs.y.filter(|&d| ctx.usable(d));
        let dir = match (ux, uy) {
            // No congestion awareness: two survivors always tie.
            (Some(x), Some(y)) => prefer(x, y, Ordering::Equal, rng),
            (Some(d), None) | (None, Some(d)) => d,
            // Every productive direction is masked: stand down and wait
            // (the simulator's reachability gate keeps such packets from
            // being injected; mid-run fault onsets land in the watchdog).
            (None, None) => return,
        };
        for v in ctx.adaptive_lo(true)..ctx.num_vcs {
            out.push(VcRequest::new(Port::Dir(dir), VcId::from_index(v), Priority::Low));
        }
        ctx.push_escape_request(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllLinksUp, DownLinks, NoCongestionInfo, TablePortView};
    use footprint_topology::Direction;
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
        Dor.route(&ctx, &mut rng, &mut out);
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
        assert_eq!(Dor.policy(), VcReallocationPolicy::NonAtomic);
        assert!(!Dor.has_escape());
        assert!(!Dor.allows_footprint_join());
        assert_eq!(Dor.name(), "dor");
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
        Dor.route(&ctx, &mut rng, &mut out);
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
            RandomMinimal.route(&ctx, &mut rng, &mut out);
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
        let dirs = Dor.allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63));
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
        RandomMinimal.route(&ctx, &mut rng, &mut out);
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

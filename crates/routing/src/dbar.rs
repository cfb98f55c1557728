//! DBAR's side-band selection (Ma, Enright Jerger & Wang, ISCA 2011) —
//! the paper's fully adaptive baseline, [`crate::any::Selector::Dbar`].
//!
//! DBAR is minimal, fully adaptive and built on Duato's theory (the lowest
//! VCs are the escape channel, routed dimension-order). Its contribution
//! is the *selection function*: each node receives per-dimension occupancy
//! bits through a side band ([`crate::CongestionView`], threshold V/2 as
//! in the paper's methodology) and compares only the part of each
//! dimension the packet would actually traverse. Ties break on the local
//! idle-VC count, then randomly. VC selection within the port is oblivious
//! — precisely the "poor VC adaptiveness" Table 1 ascribes to DBAR.

use crate::RoutingCtx;
use footprint_topology::Direction;

/// Number of congested channels on the segment `cur → turn point` in
/// direction `dir` (the destination-relevant part of the dimension).
pub(crate) fn segment_congestion(ctx: &RoutingCtx<'_>, dir: Direction) -> u32 {
    let topo = ctx.topo;
    let mut node = ctx.current;
    let dest = topo.coord(ctx.dest);
    let mut count = 0;
    loop {
        let c = topo.coord(node);
        let done = match dir {
            Direction::East | Direction::West => c.x == dest.x,
            Direction::North | Direction::South => c.y == dest.y,
        };
        if done {
            break;
        }
        if ctx.congestion.channel_congested(node, dir) {
            count += 1;
        }
        node = match topo.neighbor(node, dir) {
            Some(n) => n,
            None => break,
        };
    }
    count
}

/// The DBAR congestion threshold used in the paper's methodology: half the
/// VCs of a physical channel.
pub fn dbar_threshold(num_vcs: usize) -> usize {
    num_vcs / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CongestionView, NoCongestionInfo, Priority, RoutingAlgorithm, RoutingSpec, TablePortView,
        VcId,
    };
    use footprint_topology::{AnyTopology, NodeId, Port};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct EastCongested;
    impl CongestionView for EastCongested {
        fn channel_congested(&self, _node: NodeId, dir: Direction) -> bool {
            dir == Direction::East
        }
    }

    fn mk_ctx<'a>(
        view: &'a TablePortView,
        cong: &'a dyn CongestionView,
        cur: u16,
        dest: u16,
        on_escape: bool,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(8, 8),
            current: NodeId(cur),
            src: NodeId(cur),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(1),
            on_escape,
            num_vcs: 4,
            ports: view,
            congestion: cong,
            links: &crate::AllLinksUp,
        }
    }

    #[test]
    fn faulted_dimension_is_never_selected() {
        use crate::DownLinks;
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
        let mut ctx = mk_ctx(&view, &cong, 0, 63, false);
        ctx.links = &faults;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out = Vec::new();
            RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
            assert!(!out.is_empty(), "seed {seed}");
            assert!(
                out.iter().all(|r| r.port == Port::Dir(Direction::North)),
                "seed {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn avoids_congested_dimension() {
        let view = TablePortView::all_idle(4, 4);
        let cong = EastCongested;
        let ctx = mk_ctx(&view, &cong, 0, 63, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        let adaptive: Vec<_> = out.iter().filter(|r| r.vc != VcId::ESCAPE).collect();
        assert!(!adaptive.is_empty());
        assert!(adaptive
            .iter()
            .all(|r| r.port == Port::Dir(Direction::North)));
    }

    #[test]
    fn requests_all_adaptive_vcs_plus_escape() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 0, 63, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4); // 3 adaptive + escape
        assert_eq!(out.iter().filter(|r| r.vc == VcId::ESCAPE).count(), 1);
        let esc = crate::invariant::escape_request(&out, NodeId(0), NodeId(63)).unwrap();
        assert_eq!(esc.priority, Priority::Lowest);
        // Escape follows DOR: X first.
        assert_eq!(esc.port, Port::Dir(Direction::East));
    }

    #[test]
    fn escape_arrivals_reenter_adaptive_channels() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 0, 63, true);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        // Full adaptive request set, not just the escape continuation.
        assert!(out.iter().any(|r| r.vc != VcId::ESCAPE));
        // The escape network stays requested (deadlock-freedom invariant).
        assert!(out
            .iter()
            .any(|r| r.vc == VcId::ESCAPE && r.priority == Priority::Lowest));
    }

    #[test]
    fn single_productive_dimension_is_forced() {
        let view = TablePortView::all_idle(4, 4);
        let cong = EastCongested; // congestion cannot re-route a forced dim
        let ctx = mk_ctx(&view, &cong, 0, 7, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        assert!(out
            .iter()
            .all(|r| r.port == Port::Dir(Direction::East)));
    }

    #[test]
    fn ejects_at_destination() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 9, 9, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        assert!(out.iter().all(|r| r.port == Port::Local));
    }

    #[test]
    fn idle_vc_tiebreak_prefers_freer_port() {
        use crate::VcView;
        let mut view = TablePortView::all_idle(4, 4);
        // Make East's adaptive VCs busy; North stays idle.
        for v in 1..4 {
            view.set(
                Port::Dir(Direction::East),
                VcId(v),
                VcView {
                    idle: false,
                    owner: Some(NodeId(1)),
                    credits: 0,
                    joinable: false,
                },
            );
        }
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 0, 63, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        RoutingSpec::Dbar.routing().route(&ctx, &mut rng, &mut out);
        let adaptive: Vec<_> = out.iter().filter(|r| r.vc != VcId::ESCAPE).collect();
        assert!(adaptive
            .iter()
            .all(|r| r.port == Port::Dir(Direction::North)));
    }

    #[test]
    fn threshold_is_half_the_vcs() {
        assert_eq!(dbar_threshold(10), 5);
        assert_eq!(dbar_threshold(2), 1);
    }
}

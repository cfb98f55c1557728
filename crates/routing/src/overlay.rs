//! VC rules: the second level of adaptiveness, layered over any port
//! selector — the paper's own structure: its evaluation layers XORDET over
//! three port selectors, and §5 claims that "the Footprint approach is not
//! limited to any particular routing algorithm".
//!
//! A rule only narrows or re-prioritizes the VCs of the port the selector
//! chose — no new channel dependencies — so on meshes the selector's
//! deadlock-freedom argument carries over unchanged.

/// The VC rule of an [`crate::AnyRouting`]: which VCs of the chosen port
/// are requested. `None` in [`crate::AnyRouting::rule`] is oblivious
/// selection — every VC past the escape classes, or DOR's dateline
/// half-class on a wrapping fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum VcRule {
    /// The XORDET static destination→VC mapping ([`crate::xordet_class`]):
    /// one VC per port, e.g. `DBAR + XORDET` in the paper's evaluation.
    Xordet,
    /// The VOQ_sw mapping: one VC per port, chosen by the packet's output
    /// port at the downstream router ([`crate::voqsw::dor_output_port`]).
    VoqSw,
    /// Algorithm 1 step 3: idle / footprint / busy tiers, gated by the
    /// local congestion estimate and configured by
    /// [`crate::AnyRouting::tiers`]. Over e.g. Odd-Even this yields
    /// "Odd-Even + Footprint": partial port adaptiveness with full VC
    /// adaptiveness.
    Footprint,
}

#[cfg(test)]
mod tests {
    use crate::{
        NoCongestionInfo, Priority, RoutingAlgorithm, RoutingCtx, RoutingSpec, TablePortView,
        VcId, VcReallocationPolicy, VcSelection, VcView,
    };
    use footprint_topology::{AnyTopology, Direction, NodeId, Port};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn busy_vc(owner: u16) -> VcView {
        VcView {
            idle: false,
            owner: Some(NodeId(owner)),
            credits: 2,
            joinable: true,
        }
    }

    fn mk_ctx<'a>(view: &'a TablePortView, cong: &'a NoCongestionInfo) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(8, 8),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(63),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 4,
            ports: view,
            congestion: cong,
            links: &crate::AllLinksUp,
        }
    }

    #[test]
    fn ports_come_from_inner_vcs_get_reprioritized() {
        let mut view = TablePortView::all_idle(4, 4);
        // Saturate both candidate ports; VC1 carries traffic to our dest.
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            view.set(port, VcId(0), busy_vc(5));
            view.set(port, VcId(1), busy_vc(63));
            view.set(port, VcId(2), busy_vc(5));
            view.set(port, VcId(3), busy_vc(6));
        }
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let algo = RoutingSpec::OddEvenFootprint.routing();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        // Only the footprint VC is requested (saturated port, fp present).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vc, VcId(1));
        assert_eq!(out[0].priority, Priority::High);
        // Direction came from odd-even's legal set.
        let legal = RoutingSpec::OddEven.routing().allowed_dirs(ctx.topo, ctx.current, ctx.src, ctx.dest);
        let Port::Dir(d) = out[0].port else {
            panic!("expected a direction port")
        };
        assert!(legal.contains(d));
    }

    #[test]
    fn uncongested_state_requests_everything_low() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let algo = RoutingSpec::OddEvenFootprint.routing();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4, "all VCs of the chosen port");
        assert!(out.iter().all(|r| r.priority == Priority::Low));
    }

    #[test]
    fn delegates_structure_to_inner() {
        let algo = RoutingSpec::OddEvenFootprint.routing();
        assert_eq!(algo.name(), "odd-even+footprint");
        assert_eq!(algo.policy(), VcReallocationPolicy::NonAtomic);
        assert!(!algo.has_escape());
        assert_eq!(algo.vc_selection(), VcSelection::Adaptive);
        let mesh = AnyTopology::mesh(8, 8);
        assert_eq!(
            algo.allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63)),
            RoutingSpec::OddEven.routing().allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63))
        );
    }

    #[test]
    fn ejection_is_untouched() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let mut ctx = mk_ctx(&view, &cong);
        ctx.current = ctx.dest;
        let algo = RoutingSpec::OddEvenFootprint.routing();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.port == Port::Local));
    }
}

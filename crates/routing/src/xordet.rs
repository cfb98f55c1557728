//! XORDET static VC mapping (Peñaranda et al., HPCC 2014) — the
//! [`crate::overlay::VcRule::Xordet`] rule, composable with any port selector.

use crate::{RoutingCtx, VcId};
use footprint_topology::{AnyTopology, NodeId};

/// Computes the XORDET VC class of a destination: the XOR of its mesh
/// coordinates. Destinations in the same class share a VC, which bounds the
/// HoL interference any single endpoint can cause.
///
/// ```
/// use footprint_routing::xordet_class;
/// use footprint_topology::{AnyTopology, NodeId};
/// let mesh = AnyTopology::mesh(4, 4);
/// // n10 = (2,2) and n15 = (3,3) share a class; n13 = (1,3) does not
/// // (the paper's Figure 2(c) grouping, up to VC renumbering).
/// assert_eq!(xordet_class(mesh, NodeId(10)), xordet_class(mesh, NodeId(15)));
/// assert_ne!(xordet_class(mesh, NodeId(13)), xordet_class(mesh, NodeId(10)));
/// ```
pub fn xordet_class(topo: AnyTopology, dest: NodeId) -> u16 {
    let c = topo.coord(dest);
    c.x ^ c.y
}

/// The VC that XORDET maps the packet's destination to when the mappable
/// VCs start at `lo` (past the escape VCs of a Duato-based selector):
/// `lo + class(dest) mod (num_vcs - lo)`.
///
/// Because the mapping is static, the branches of a congestion tree stay
/// thin (Figure 2(c)) — but buffer utilization suffers on skewed traffic,
/// which is exactly the XORDET weakness the paper's Figures 5–6 expose.
pub(crate) fn mapped_vc(ctx: &RoutingCtx<'_>, lo: usize) -> VcId {
    let range = ctx.num_vcs - lo;
    debug_assert!(range > 0, "XORDET needs at least one mappable VC");
    let class = xordet_class(ctx.topo, ctx.dest) as usize;
    VcId::from_index(lo + class % range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        NoCongestionInfo, Priority, RoutingAlgorithm, RoutingSpec, TablePortView,
        VcReallocationPolicy,
    };
    use footprint_topology::{Direction, Port};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mk_ctx<'a>(
        view: &'a TablePortView,
        cong: &'a NoCongestionInfo,
        num_vcs: usize,
        dest: u16,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs,
            ports: view,
            congestion: cong,
            links: &crate::AllLinksUp,
        }
    }

    #[test]
    fn class_is_coordinate_xor() {
        let mesh = AnyTopology::mesh(4, 4);
        assert_eq!(xordet_class(mesh, NodeId(0)), 0); // (0,0)
        assert_eq!(xordet_class(mesh, NodeId(13)), 1 ^ 3); // (1,3)
        assert_eq!(xordet_class(mesh, NodeId(10)), 0); // (2,2)
    }

    #[test]
    fn dor_xordet_requests_single_mapped_vc() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 4, 13);
        let algo = RoutingSpec::DorXordet.routing();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        // class(n13) = 2, no escape → vc = 2 % 4 = 2.
        assert_eq!(out[0].vc, VcId(2));
        assert_eq!(out[0].port, Port::Dir(Direction::East));
    }

    #[test]
    fn dbar_xordet_preserves_escape_request() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 4, 13);
        let algo = RoutingSpec::DbarXordet.routing();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        // One mapped adaptive request + one escape request.
        assert_eq!(out.len(), 2);
        let esc = crate::invariant::escape_request(&out, NodeId(0), NodeId(13)).unwrap();
        assert_eq!(esc.priority, Priority::Lowest);
        let adaptive = out.iter().find(|r| r.vc != VcId::ESCAPE).unwrap();
        // class 2, escape layout → vc = 1 + 2 % 3 = 3.
        assert_eq!(adaptive.vc, VcId(3));
    }

    #[test]
    fn same_class_destinations_share_a_vc() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let algo = RoutingSpec::OddEvenXordet.routing();
        let mesh = AnyTopology::mesh(4, 4);
        let ctx_a = mk_ctx(&view, &cong, 4, 10);
        let ctx_b = mk_ctx(&view, &cong, 4, 15);
        assert_eq!(xordet_class(mesh, NodeId(10)), xordet_class(mesh, NodeId(15)));
        assert_eq!(mapped_vc(&ctx_a, 0), mapped_vc(&ctx_b, 0));
        let mut rng = SmallRng::seed_from_u64(5);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        algo.route(&ctx_a, &mut rng, &mut a);
        algo.route(&ctx_b, &mut rng, &mut b);
        assert_eq!(a[0].vc, b[0].vc);
    }

    #[test]
    fn ejection_is_not_remapped() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let mut ctx = mk_ctx(&view, &cong, 4, 13);
        ctx.current = NodeId(13);
        let algo = RoutingSpec::DorXordet.routing();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4); // all local VCs for ejection
        assert!(out.iter().all(|r| r.port == Port::Local));
    }

    #[test]
    fn injection_maps_by_destination() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 4, 13);
        let algo = RoutingSpec::DorXordet.routing();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = Vec::new();
        algo.injection_requests(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vc, VcId(2));
        assert_eq!(out[0].port, Port::Local);
    }

    #[test]
    fn name_and_policy_delegate() {
        let algo = RoutingSpec::DorXordet.routing();
        assert_eq!(algo.name(), "dor+xordet");
        assert_eq!(algo.policy(), VcReallocationPolicy::NonAtomic);
        assert!(!algo.has_escape());
    }
}

//! VOQ_sw-style VC mapping (McKeown et al., INFOCOM 1996; applied to NoCs
//! as in the Footprint paper's footnote 5).
//!
//! VOQ_sw dedicates the VCs of each input port to the *output ports* of the
//! local switch, removing head-of-line blocking between packets that leave
//! through different outputs. The paper configured 10 VCs per channel
//! partly "to facilitate the implementation of VOQ_sw" (two VCs per output
//! port of a 5-port router), though it reports XORDET results instead.
//! This implementation completes that comparison point, as the
//! [`crate::overlay::VcRule::VoqSw`] rule.

use crate::{RoutingCtx, VcId};
use footprint_topology::{AnyTopology, NodeId, Port, PORT_COUNT};

/// The output port a packet will take at router `node` under
/// dimension-order routing (`Local` at the destination). This is the
/// downstream output that VOQ_sw keys its VC classes on: it must be
/// computable by the *upstream* router, hence the deterministic routing
/// function.
pub(crate) fn dor_output_port(topo: AnyTopology, node: NodeId, dest: NodeId) -> Port {
    crate::dor::dir(topo, node, dest).map_or(Port::Local, Port::Dir)
}

/// The VC that VOQ_sw maps a packet to on the channel out of `port` when
/// the mappable VCs start at `lo` (past the escape VCs of a Duato-based
/// selector): the VC is chosen by the packet's output port at the
/// *downstream* router, so packets leaving through different switch
/// outputs never share a VC FIFO.
///
/// With `V` mappable VCs, each of the five downstream outputs gets
/// `⌊V/5⌋`-or-so of them (`class * range / PORT_COUNT` striping).
pub(crate) fn mapped_vc(ctx: &RoutingCtx<'_>, lo: usize, port: Port) -> VcId {
    let range = ctx.num_vcs - lo;
    debug_assert!(range > 0, "VOQ_sw needs at least one mappable VC");
    let downstream = match port {
        Port::Local => ctx.current, // injection: the local router itself
        Port::Dir(d) => {
            match crate::invariant::neighbor_checked(ctx.topo, ctx.current, d) {
                Ok(n) => n,
                Err(e) => {
                    // Minimal ports always have a neighbor; degrade to
                    // the local class instead of aborting the sweep.
                    crate::invariant::report_violation(&e);
                    ctx.current
                }
            }
        }
    };
    let class = dor_output_port(ctx.topo, downstream, ctx.dest).index();
    // Stripe the available VCs across the five output classes.
    VcId::from_index(lo + class * range / PORT_COUNT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        NoCongestionInfo, RoutingAlgorithm, RoutingSpec, TablePortView, VcReallocationPolicy,
    };
    use footprint_topology::Direction;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mk_ctx<'a>(
        view: &'a TablePortView,
        cong: &'a NoCongestionInfo,
        cur: u16,
        dest: u16,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(cur),
            src: NodeId(cur),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 10,
            ports: view,
            congestion: cong,
            links: &crate::AllLinksUp,
        }
    }

    #[test]
    fn dor_output_port_matches_xy_routing() {
        let mesh = AnyTopology::mesh(4, 4);
        // n0 → n10 = (2,2): X first.
        assert_eq!(
            dor_output_port(mesh, NodeId(0), NodeId(10)),
            Port::Dir(Direction::East)
        );
        // n2 → n10: same column → North.
        assert_eq!(
            dor_output_port(mesh, NodeId(2), NodeId(10)),
            Port::Dir(Direction::North)
        );
        // At the destination: Local.
        assert_eq!(dor_output_port(mesh, NodeId(10), NodeId(10)), Port::Local);
    }

    #[test]
    fn packets_to_different_downstream_outputs_use_different_vcs() {
        let view = TablePortView::all_idle(10, 4);
        let cong = NoCongestionInfo;
        // From n0, both packets go East to n1; at n1 the n3 packet continues
        // East while the n5 packet turns North → distinct VC classes.
        let ctx_a = mk_ctx(&view, &cong, 0, 3);
        let ctx_b = mk_ctx(&view, &cong, 0, 5);
        let east = Port::Dir(Direction::East);
        let vc_a = mapped_vc(&ctx_a, 0, east);
        let vc_b = mapped_vc(&ctx_b, 0, east);
        assert_ne!(vc_a, vc_b);
    }

    #[test]
    fn packets_ejecting_downstream_get_the_local_class() {
        let view = TablePortView::all_idle(10, 4);
        let cong = NoCongestionInfo;
        // n0 → n1: at n1 the packet ejects (Local class = 0 → VC 0).
        let ctx = mk_ctx(&view, &cong, 0, 1);
        let vc = mapped_vc(&ctx, 0, Port::Dir(Direction::East));
        assert_eq!(vc, VcId(0));
    }

    #[test]
    fn route_requests_one_mapped_vc() {
        let view = TablePortView::all_idle(10, 4);
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong, 0, 10);
        let algo = RoutingSpec::DorVoqSw.routing();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, Port::Dir(Direction::East));
        assert_eq!(out[0].vc, mapped_vc(&ctx, 0, out[0].port));
    }

    #[test]
    fn injection_maps_by_the_output_port_at_the_source_router() {
        let view = TablePortView::all_idle(10, 4);
        let cong = NoCongestionInfo;
        let injection_vc = |spec: RoutingSpec, dest: u16| {
            let ctx = mk_ctx(&view, &cong, 0, dest);
            let mut out = Vec::new();
            let mut rng = SmallRng::seed_from_u64(1);
            spec.routing().injection_requests(&ctx, &mut rng, &mut out);
            assert_eq!(out[0].port, Port::Local);
            out[0].vc
        };
        for spec in [RoutingSpec::DorVoqSw, RoutingSpec::DbarVoqSw] {
            // At n0, n3 leaves East and n12 leaves North: distinct classes.
            assert_ne!(injection_vc(spec, 3), injection_vc(spec, 12), "{spec}");
            // n5 leaves East too (X first), so it shares n3's VC.
            assert_eq!(injection_vc(spec, 3), injection_vc(spec, 5), "{spec}");
        }
    }

    #[test]
    fn name_and_policy_delegate() {
        let algo = RoutingSpec::DorVoqSw.routing();
        assert_eq!(algo.name(), "dor+voqsw");
        assert_eq!(algo.policy(), VcReallocationPolicy::NonAtomic);
        assert_eq!(algo.vc_selection(), crate::VcSelection::StaticMapped);
    }
}

//! The [`PortStateView`] over live simulator state.
//!
//! [`RouterOutputsView`] is backed by the struct-of-arrays store and
//! overrides the trait's bulk scan methods (`idle_count`, `class_masks`)
//! with reads of the packed per-port masks and owner array — the routing
//! algorithms' per-cycle class scans never touch a per-VC object or a
//! vtable entry per VC. The per-VC [`vc`] accessor remains for the rare
//! single-VC probes (and as the semantic reference the bulk overrides are
//! tested against).
//!
//! [`vc`]: PortStateView::vc

use crate::output::OutVcState;
use crate::soa::NocSoa;
use footprint_routing::{PortStateView, VcId, VcReallocationPolicy, VcView};
use footprint_topology::{NodeId, Port, PORT_COUNT};

/// View over the output VCs a routing decision at one node may read: a
/// router's five output ports, or a source's injection channel.
pub(crate) struct RouterOutputsView<'a> {
    soa: &'a NocSoa,
    /// Output row of port index 0.
    base: usize,
    /// Rows the view spans from `base`.
    ports: usize,
    policy: VcReallocationPolicy,
    num_vcs: usize,
}

impl<'a> RouterOutputsView<'a> {
    /// Wraps the output-VC state of router `node`.
    pub(crate) fn new(soa: &'a NocSoa, node: NodeId, policy: VcReallocationPolicy) -> Self {
        RouterOutputsView {
            soa,
            base: soa.np(node, 0),
            ports: PORT_COUNT,
            policy,
            num_vcs: soa.num_vcs(),
        }
    }

    /// Wraps the injection channel of `node`'s source: [`Port::Local`] has
    /// index 0, so this is the same view over a one-row window.
    pub(crate) fn injection(soa: &'a NocSoa, node: NodeId, policy: VcReallocationPolicy) -> Self {
        RouterOutputsView {
            base: soa.inj_np(node),
            ports: 1,
            ..Self::new(soa, node, policy)
        }
    }

    #[inline]
    fn np(&self, port: Port) -> usize {
        assert!(port.index() < self.ports, "injection view has only the local port");
        self.base + port.index()
    }
}

impl PortStateView for RouterOutputsView<'_> {
    fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    fn vc(&self, port: Port, vc: VcId) -> VcView {
        let ivc = self.np(port) * self.num_vcs + vc.index();
        VcView {
            idle: self.soa.out_idle_for(ivc, self.policy),
            owner: self.soa.out_owner(ivc),
            credits: self.soa.out_credits(ivc),
            joinable: self.soa.out_state(ivc) == OutVcState::Draining
                && self.soa.out_credits(ivc) > 0,
        }
    }

    fn idle_count(&self, port: Port, lo: usize, hi: usize) -> usize {
        let range = NocSoa::vc_range_mask(lo, hi);
        (self.soa.out_idle_mask_for(self.np(port), self.policy) & range).count_ones() as usize
    }

    fn class_masks(&self, port: Port, dest: NodeId, lo: usize, hi: usize) -> (u64, u64) {
        let np = self.np(port);
        let range = NocSoa::vc_range_mask(lo, hi);
        // Footprint VCs are the owner-register matches; the owner mask
        // narrows the scan to VCs that ever carried a packet.
        let owners = self.soa.out_port_owners(np);
        let d = u32::from(dest.0);
        let mut fp = 0u64;
        let mut m = self.soa.out_owned_mask(np) & range;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            // Branch-free: the match is data-dependent and unpredictable.
            fp |= u64::from(owners[v] == d) << v;
        }
        let idle = self.soa.out_idle_mask_for(np, self.policy) & range & !fp;
        (idle, fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use footprint_routing::VcClass;
    use footprint_topology::Direction;

    fn soa() -> NocSoa {
        NocSoa::new(1, 4, 4, 2)
    }

    #[test]
    fn router_view_reflects_vc_state() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), Port::Dir(Direction::East).index(), 1);
        s.out_allocate(ivc, PacketId(1), NodeId(9));
        s.out_consume_credit(ivc);
        let view = RouterOutputsView::new(&s, NodeId(0), VcReallocationPolicy::Atomic);
        let v = view.vc(Port::Dir(Direction::East), VcId(1));
        assert!(!v.idle);
        assert_eq!(v.owner, Some(NodeId(9)));
        assert_eq!(v.credits, 3);
        assert!(!v.joinable, "active, not draining");
        let free = view.vc(Port::Dir(Direction::East), VcId(0));
        assert!(free.idle);
        assert_eq!(view.num_vcs(), 4);
    }

    #[test]
    fn draining_vc_is_joinable_in_view() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), Port::Dir(Direction::West).index(), 1);
        s.out_allocate(ivc, PacketId(1), NodeId(9));
        s.out_consume_credit(ivc);
        s.out_tail_sent(ivc, VcReallocationPolicy::Atomic);
        let view = RouterOutputsView::new(&s, NodeId(0), VcReallocationPolicy::Atomic);
        let v = view.vc(Port::Dir(Direction::West), VcId(1));
        assert!(v.joinable);
        assert!(!v.idle);
        assert!(v.is_footprint_for(NodeId(9)));
    }

    /// The bulk overrides must agree exactly with the per-VC defaults they
    /// replaced (which still run through `vc`).
    #[test]
    fn bulk_scans_match_per_vc_classification() {
        let mut s = soa();
        let e = Port::Dir(Direction::East);
        let ep = e.index();
        // VC0 idle, VC1 active to dest 9, VC2 draining to dest 7 (footprint
        // for 7, non-atomic-idle otherwise), VC3 active to dest 7.
        s.out_allocate(s.ivc(NodeId(0), ep, 1), PacketId(1), NodeId(9));
        let v2 = s.ivc(NodeId(0), ep, 2);
        s.out_allocate(v2, PacketId(2), NodeId(7));
        s.out_consume_credit(v2);
        s.out_tail_sent(v2, VcReallocationPolicy::Atomic);
        s.out_allocate(s.ivc(NodeId(0), ep, 3), PacketId(3), NodeId(7));
        for policy in [VcReallocationPolicy::Atomic, VcReallocationPolicy::NonAtomic] {
            let view = RouterOutputsView::new(&s, NodeId(0), policy);
            for dest in [NodeId(7), NodeId(9), NodeId(5)] {
                for lo in 0..2 {
                    // The raw masks drive the routing crate's port pick and
                    // tiering: each bit must match the per-VC
                    // classification exactly.
                    let (idle_mask, fp_mask) = view.class_masks(e, dest, lo, 4);
                    for v in lo..4 {
                        let class = view.vc(e, VcId::from_index(v)).class_for(dest);
                        assert_eq!(idle_mask >> v & 1 == 1, class == VcClass::Idle);
                        assert_eq!(fp_mask >> v & 1 == 1, class == VcClass::Footprint);
                    }
                    let ref_idle = (lo..4)
                        .filter(|&v| view.vc(e, VcId::from_index(v)).idle)
                        .count();
                    assert_eq!(view.idle_count(e, lo, 4), ref_idle);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "only the local port")]
    fn injection_view_rejects_direction_ports() {
        let s = soa();
        let view = RouterOutputsView::injection(&s, NodeId(0), VcReallocationPolicy::Atomic);
        let _ = view.vc(Port::Dir(Direction::East), VcId(0));
    }

    #[test]
    fn injection_view_reads_local_port() {
        let mut s = NocSoa::new(2, 2, 4, 2);
        // Node 1's injection VC 1 is busy; node 0's, and node 1's router
        // outputs, are not what the view reads.
        s.out_allocate(s.inj_ivc(NodeId(1), 1), PacketId(1), NodeId(0));
        let view = RouterOutputsView::injection(&s, NodeId(1), VcReallocationPolicy::NonAtomic);
        assert!(view.vc(Port::Local, VcId(0)).idle);
        assert!(!view.vc(Port::Local, VcId(1)).idle);
        assert_eq!(view.class_masks(Port::Local, NodeId(0), 0, 2), (0b01, 0b10));
        assert_eq!(view.idle_count(Port::Local, 0, 2), 1);
        assert_eq!(view.num_vcs(), 2);
        let other = RouterOutputsView::injection(&s, NodeId(0), VcReallocationPolicy::NonAtomic);
        assert!(other.vc(Port::Local, VcId(1)).idle);
    }
}

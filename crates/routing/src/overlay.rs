//! VC-selection rules as a composable overlay on any port selector — the
//! paper's own structure: its evaluation layers XORDET over three port
//! selectors, and §5 claims that "the Footprint approach is not limited to
//! any particular routing algorithm".
//!
//! [`VcOverlay`] keeps the *port* decisions of an inner algorithm and
//! replaces the VCs it requested on each port by one of three
//! [`VcRule`]s. A rule only narrows or re-prioritizes the VCs of ports the
//! inner algorithm already chose — no new channel dependencies — so on
//! meshes the inner algorithm's deadlock-freedom argument carries over
//! unchanged.

use crate::footprint::class_masks;
use crate::{voqsw, xordet, DirSet, Footprint, Priority, RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcRequest, VcSelection, WrapStrategy};
use footprint_topology::{AnyTopology, NodeId, Port, PORT_COUNT};
use rand::RngCore;

/// The VC rule a [`VcOverlay`] applies on every port its inner algorithm
/// requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcRule {
    /// The XORDET static destination→VC mapping ([`crate::xordet_class`]):
    /// one VC per port, e.g. `DBAR + XORDET` in the paper's evaluation.
    Xordet,
    /// The VOQ_sw mapping: one VC per port, chosen by the packet's output
    /// port at the downstream router ([`crate::dor_output_port`]).
    VoqSw,
    /// Footprint's Algorithm 1 step 3 (idle / footprint / busy tiers,
    /// congestion-gated) with [`Footprint::new`]'s configuration. Over
    /// e.g. Odd-Even this yields "Odd-Even + Footprint": partial port
    /// adaptiveness with full VC adaptiveness.
    Footprint,
}

/// Wraps a routing algorithm and replaces its VC selection by a [`VcRule`].
/// Port selection, the reallocation policy and the escape mechanism (whose
/// requests pass through untouched) come from the inner algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcOverlay<A> {
    inner: A,
    rule: VcRule,
    name: &'static str,
}

impl<A: RoutingAlgorithm> VcOverlay<A> {
    /// Wraps `inner` under a display name (e.g. `"dbar+xordet"`).
    pub fn new(inner: A, rule: VcRule, name: &'static str) -> Self {
        VcOverlay { inner, rule, name }
    }

    /// Rewrites the requests appended after `start`: escape requests pass
    /// through, every other port keeps only the VCs the rule gives it.
    ///
    /// Only the tail `reqs[start..]` is touched: the routing buffer is
    /// shared by every requester at a router, and earlier entries belong to
    /// other packets. The rewrite is in place (per-port state lives in a
    /// fixed array) — this runs per packet per cycle, so it must not
    /// allocate: escapes are compacted to the front of the tail, the
    /// per-port requests appended, and a final rotation puts the tail in
    /// `[by rule..., escapes...]` order.
    fn remap(&self, ctx: &RoutingCtx<'_>, reqs: &mut Vec<VcRequest>, start: usize) {
        let lo = ctx.adaptive_lo(self.inner.has_escape());
        // Requested ports in first-seen order, each with the highest
        // priority the inner algorithm gave it.
        let mut ports = [(Port::Local, Priority::Lowest); PORT_COUNT];
        let mut num_ports = 0;
        let mut write = start;
        for read in start..reqs.len() {
            let r = reqs[read];
            if r.vc.index() < lo {
                reqs[write] = r;
                write += 1;
            } else if let Some(seen) = ports[..num_ports].iter_mut().find(|p| p.0 == r.port) {
                seen.1 = seen.1.max(r.priority);
            } else {
                ports[num_ports] = (r.port, r.priority);
                num_ports += 1;
            }
        }
        let num_escapes = write - start;
        reqs.truncate(write);
        for &(port, pri) in &ports[..num_ports] {
            match self.rule {
                VcRule::Xordet => {
                    reqs.push(VcRequest::new(port, xordet::mapped_vc(ctx, lo, ctx.dest), pri));
                }
                VcRule::VoqSw => {
                    reqs.push(VcRequest::new(port, voqsw::mapped_vc(ctx, lo, port, ctx.dest), pri));
                }
                VcRule::Footprint => {
                    let masks = class_masks(ctx, port, ctx.dest, lo);
                    Footprint::new().add_vc_requests(ctx, port, masks, reqs);
                }
            }
        }
        // [escapes..., by rule...] → [by rule..., escapes...].
        reqs[start..].rotate_left(num_escapes);
    }
}

impl<A: RoutingAlgorithm> RoutingAlgorithm for VcOverlay<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn policy(&self) -> VcReallocationPolicy {
        self.inner.policy()
    }

    fn has_escape(&self) -> bool {
        self.inner.has_escape()
    }

    fn allows_footprint_join(&self) -> bool {
        // A static mapping relies on same-class packets sharing a VC, so
        // they must be able to queue behind each other even under an
        // atomic inner policy, mirroring how XORDET deployments dedicate
        // the VC to the class. The footprint rule claims VCs through
        // standing requests, as `Footprint::new()` does.
        self.rule != VcRule::Footprint
    }

    fn vc_selection(&self) -> VcSelection {
        match self.rule {
            VcRule::Xordet | VcRule::VoqSw => VcSelection::StaticMapped,
            VcRule::Footprint => VcSelection::Adaptive,
        }
    }

    fn wrap_strategy(&self) -> WrapStrategy {
        match self.rule {
            // A static collapse to one VC per port discards the
            // dateline/escape VC freedom the wrap arguments rely on, so
            // XORDET and VOQ_sw stay mesh-only.
            VcRule::Xordet | VcRule::VoqSw => WrapStrategy::Unsupported,
            // VC preferences within the inner algorithm's own range leave
            // its wrap argument intact.
            VcRule::Footprint => self.inner.wrap_strategy(),
        }
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let start = out.len();
        self.inner.route(ctx, rng, out);
        if ctx.current == ctx.dest {
            return; // ejection untouched
        }
        self.remap(ctx, out, start);
    }

    fn injection_requests(
        &self,
        ctx: &RoutingCtx<'_>,
        rng: &mut dyn RngCore,
        out: &mut Vec<VcRequest>,
    ) {
        let start = out.len();
        self.inner.injection_requests(ctx, rng, out);
        self.remap(ctx, out, start);
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        self.inner.allowed_dirs(topo, cur, src, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoCongestionInfo, OddEven, TablePortView, VcId, VcView};
    use footprint_topology::Direction;
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
        let algo = VcOverlay::new(OddEven, VcRule::Footprint, "odd-even+footprint");
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        // Only the footprint VC is requested (saturated port, fp present).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vc, VcId(1));
        assert_eq!(out[0].priority, Priority::High);
        // Direction came from odd-even's legal set.
        let legal = OddEven::legal_dirs(ctx.topo, ctx.current, ctx.src, ctx.dest);
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
        let algo = VcOverlay::new(OddEven, VcRule::Footprint, "odd-even+footprint");
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4, "all VCs of the chosen port");
        assert!(out.iter().all(|r| r.priority == Priority::Low));
    }

    #[test]
    fn delegates_structure_to_inner() {
        let algo = VcOverlay::new(OddEven, VcRule::Footprint, "odd-even+footprint");
        assert_eq!(algo.name(), "odd-even+footprint");
        assert_eq!(algo.policy(), VcReallocationPolicy::NonAtomic);
        assert!(!algo.has_escape());
        assert_eq!(algo.vc_selection(), VcSelection::Adaptive);
        let mesh = AnyTopology::mesh(8, 8);
        assert_eq!(
            algo.allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63)),
            OddEven.allowed_dirs(mesh, NodeId(0), NodeId(0), NodeId(63))
        );
    }

    #[test]
    fn ejection_is_untouched() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let mut ctx = mk_ctx(&view, &cong);
        ctx.current = ctx.dest;
        let algo = VcOverlay::new(OddEven, VcRule::Footprint, "odd-even+footprint");
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.port == Port::Local));
    }
}

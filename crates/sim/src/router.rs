//! The input-queued VC router: route computation, priority-based VC
//! allocation and round-robin switch allocation with internal speedup.
//!
//! The router owns no datapath state: flit buffers, route registers,
//! credits and stages live in the network-wide [`NocSoa`] arrays, and the
//! router's allocators walk them through per-port bitmasks (waiting heads,
//! active grants) instead of per-VC objects. Only the arbiter pointers and
//! the per-cycle scratch buffers are per-router.

use crate::metrics::{Metrics, Probe, VaBlockInfo};
use crate::packet::{Flit, PacketId};
use crate::snapshot::{Snap, SnapResult};
use crate::soa::NocSoa;
use crate::view::RouterOutputsView;
use footprint_routing::{
    CongestionView, LinkStateView, Priority, RoutingAlgorithm, RoutingCtx, VcId,
    VcReallocationPolicy, VcRequest,
};
use footprint_topology::{AnyTopology, NodeId, Port, PORT_COUNT};
use rand::rngs::SmallRng;

/// A buffer slot freed by switch traversal; the network converts these into
/// upstream credit messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FreedSlot {
    /// Input port whose VC freed a slot.
    pub in_port: usize,
    /// The VC index.
    pub vc: u8,
}

/// The routing algorithm's VC-allocation rules. They are constants of the
/// algorithm and the fabric, so the network derives them once, at
/// construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllocRules {
    /// When a drained-but-uncredited output VC may be claimed afresh.
    pub policy: VcReallocationPolicy,
    /// VCs `0..escape_lo` are the deadlock-free escape network (one VC on
    /// a mesh, one per dateline class on a wrapping fabric). Zero when the
    /// algorithm routes without an escape layer.
    pub escape_lo: usize,
    /// A head may join a draining VC that carries its destination.
    pub allows_join: bool,
}

impl AllocRules {
    /// The rules of `algo` on `topo`.
    pub(crate) fn of(algo: &dyn RoutingAlgorithm, topo: AnyTopology) -> Self {
        AllocRules {
            policy: algo.policy(),
            escape_lo: if algo.has_escape() { topo.escape_vcs() } else { 0 },
            allows_join: algo.allows_footprint_join(),
        }
    }
}

/// One head packet competing in VC allocation this cycle.
#[derive(Debug, Clone, Copy)]
struct Requester {
    in_port: usize,
    in_vc: usize,
    packet: PacketId,
    src: NodeId,
    dest: NodeId,
    class: u8,
    /// Bit `p` set iff the head may still win a priority-`p` request this
    /// cycle: in a congested router, iff such a request names an output
    /// VC of `avail` (see [`Router::vc_allocate`]) — zero for a head that
    /// cannot win anything; otherwise iff the slice holds such a request
    /// at all. Cleared once the head is granted.
    pri_mask: u8,
    reqs: (u32, u32), // [start, end) into the flat request buffer
}

/// A five-port VC router (four directions + local), one VC allocator and
/// one switch allocator, all operating on the shared [`NocSoa`] state.
#[derive(Debug)]
pub(crate) struct Router {
    node: NodeId,
    num_vcs: usize,
    va_rr: usize,
    sa_port_rr: usize,
    sa_vc_rr: usize,
    // Scratch buffers reused every cycle to avoid per-cycle allocation.
    scratch_reqs: Vec<VcRequest>,
    scratch_requesters: Vec<Requester>,
}

impl Router {
    /// Creates the router logic for `node` with `num_vcs` VCs per port
    /// (the buffers themselves live in the [`NocSoa`] store).
    pub(crate) fn new(node: NodeId, num_vcs: usize) -> Self {
        Router {
            node,
            num_vcs,
            va_rr: 0,
            sa_port_rr: 0,
            sa_vc_rr: 0,
            scratch_reqs: Vec::new(),
            scratch_requesters: Vec::new(),
        }
    }

    /// Pops the next flit to launch from output port `port` (one per cycle
    /// per link).
    pub(crate) fn launch(&self, soa: &mut NocSoa, port: usize) -> Option<Flit> {
        soa.stage_pop(soa.np(self.node, port))
    }

    /// `true` when no flits or grants are outstanding anywhere in the
    /// router.
    pub(crate) fn is_quiescent(&self, soa: &NocSoa) -> bool {
        soa.router_quiescent(self.node)
    }

    /// Flits currently resident in the router: buffered in input VCs or
    /// staged at output ports. The active-set scheduler keeps a running
    /// copy of this count and processes the router only while it is
    /// nonzero.
    pub(crate) fn resident_flits(&self, soa: &NocSoa) -> usize {
        soa.resident_flits(self.node)
    }

    /// Advances the switch-allocator round-robin pointers as if
    /// [`Router::switch_allocate`] had run for `skipped` idle cycles.
    ///
    /// Those pointers rotate unconditionally at the end of every dense
    /// tick, even when the router moved nothing; an idle router skipped by
    /// the active-set scheduler must catch them up before its next real
    /// tick so arbitration resumes exactly where the dense loop would be.
    /// (`va_rr` needs no catch-up: it only advances when heads competed.)
    pub(crate) fn advance_arbiters(&mut self, skipped: u64) {
        self.sa_port_rr = (self.sa_port_rr + (skipped % PORT_COUNT as u64) as usize) % PORT_COUNT;
        let m = self.num_vcs.max(1);
        self.sa_vc_rr = (self.sa_vc_rr + (skipped % m as u64) as usize) % m;
    }

    /// Moves the arbiter pointers (the router's only persistent state —
    /// the datapath lives in [`NocSoa`], scratch is per-cycle).
    pub(crate) fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        s.usize(&mut self.va_rr)?;
        s.usize(&mut self.sa_port_rr)?;
        s.usize(&mut self.sa_vc_rr)
    }

    /// Route computation + VC allocation for every waiting head packet.
    ///
    /// Requests are standing: they are recomputed every cycle from current
    /// VC state (which is what lets Footprint's priorities track congestion)
    /// and arbitrated by priority with round-robin fairness among inputs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn vc_allocate(
        &mut self,
        soa: &mut NocSoa,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        rules: AllocRules,
        congestion: &dyn CongestionView,
        links: &dyn LinkStateView,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
        probe: &mut dyn Probe,
    ) {
        let np0 = soa.np(self.node, 0);
        // Fast path: no waiting heads anywhere — nothing to arbitrate, no
        // RNG draws, and `va_rr` would not advance either way.
        if (0..PORT_COUNT).all(|p| soa.waiting_mask(np0 + p) == 0) {
            return;
        }
        let AllocRules {
            policy,
            escape_lo,
            allows_join,
        } = rules;
        let events = probe.wants_flit_events_of(crate::observe::FlitEventKind::VcGrant);

        // Per output port, the VCs a grant could still land on: idle under
        // the policy, or — when the algorithm allows joins — draining above
        // the escape band (escape VCs must drain by the acyclic escape
        // relation alone). Only grants touch output state in this function
        // and each clears its bit, so `avail` only shrinks: a request whose
        // bit is clear now cannot be granted later in the cycle.
        let join_band = if allows_join {
            NocSoa::vc_range_mask(escape_lo, self.num_vcs)
        } else {
            0
        };
        let mut avail = [0u64; PORT_COUNT];
        for (p, mask) in avail.iter_mut().enumerate() {
            *mask = soa.out_idle_mask_for(np0 + p, policy)
                | soa.out_drain_mask(np0 + p) & join_band;
        }
        // A port with nothing left to grant marks a congested router, where
        // most heads are blocked: there it pays to test every request
        // against `avail` once, up front, and keep the heads that cannot
        // win anything out of the grant loop. Elsewhere nearly every head
        // is granted on its first request and the test would be wasted.
        // Either mask admits every head and tier that could be granted.
        let congested = avail.contains(&0);

        // Phase 1 (read-only): evaluate the routing function for every
        // waiting head, in ascending (port, vc) order.
        let mut reqs = std::mem::take(&mut self.scratch_reqs);
        let mut requesters = std::mem::take(&mut self.scratch_requesters);
        reqs.clear();
        requesters.clear();
        {
            let view = RouterOutputsView::new(soa, self.node, policy);
            for ip in 0..PORT_COUNT {
                let mut wmask = soa.waiting_mask(np0 + ip);
                while wmask != 0 {
                    let iv = wmask.trailing_zeros() as usize;
                    wmask &= wmask - 1;
                    let ivc = (np0 + ip) * self.num_vcs + iv;
                    let head = soa.in_front(ivc).expect("waiting implies a front flit");
                    debug_assert!(head.is_head());
                    let ctx =
                        self.head_ctx(head, ip, iv, topo, escape_lo, &view, congestion, links);
                    let start = reqs.len();
                    algo.route(&ctx, rng, &mut reqs);
                    let mut pri_mask = 0u8;
                    if congested {
                        for req in &reqs[start..] {
                            let live = (avail[req.port.index()] >> req.vc.index() & 1) as u8;
                            pri_mask |= live << req.priority as u8;
                        }
                    } else {
                        for req in &reqs[start..] {
                            pri_mask |= 1 << req.priority as u8;
                        }
                    }
                    requesters.push(Requester {
                        in_port: ip,
                        in_vc: iv,
                        packet: head.packet,
                        src: head.src,
                        dest: head.dest,
                        class: head.class,
                        pri_mask,
                        reqs: (crate::cast::idx_u32(start), crate::cast::idx_u32(reqs.len())),
                    });
                }
            }
        }

        // Phase 2: priority-ordered grant loop over the heads that can
        // still win something. A head with no candidate request in a tier
        // is skipped on one mask test; scanning it would grant nothing,
        // step no arbiter and draw no coin.
        let n = requesters.len();
        let vc_base = np0 * self.num_vcs;
        let start = self.va_rr % n;
        let mut live = requesters.iter().filter(|r| r.pri_mask != 0).count();
        let all_pris = requesters.iter().fold(0u8, |m, r| m | r.pri_mask);
        'tiers: for pri in Priority::DESCENDING {
            let tier = 1u8 << pri as u8;
            if all_pris & tier == 0 {
                continue;
            }
            for i in (start..n).chain(0..start) {
                if live == 0 {
                    break 'tiers;
                }
                let r = requesters[i];
                if r.pri_mask & tier == 0 {
                    continue;
                }
                let slice = &reqs[r.reqs.0 as usize..r.reqs.1 as usize];
                // Rotate the scan start per requester and per cycle so
                // equal-priority requests behave like a round-robin VC
                // allocator (first-fit would serialize all traffic on
                // VC 0 and artificially thin every congestion tree).
                let (wrapped, first) = slice.split_at(self.va_rr.wrapping_add(i) % slice.len());
                'scan: for part in [first, wrapped] {
                    for req in part {
                        if req.priority != pri {
                            continue;
                        }
                        let p = req.port.index();
                        let v = req.vc.index();
                        if avail[p] >> v & 1 == 0 {
                            continue;
                        }
                        // An `avail` VC is idle under the policy, or it is
                        // draining inside the join band: only the owner
                        // and credit half of the join test is left.
                        let ovc = vc_base + p * self.num_vcs + v;
                        if !soa.out_idle_for(ovc, policy) && !soa.out_joinable_by(ovc, r.dest) {
                            continue;
                        }
                        // Backstop for algorithms that keep requesting a
                        // faulted port (deliberately, like strict DOR):
                        // never grant onto a dead channel — the packet
                        // waits, and the watchdog names it if it wedges.
                        // Asked last, so once per grant, and at most once
                        // for a dead port.
                        if let Port::Dir(d) = req.port {
                            if !links.link_up(self.node, d) {
                                avail[p] = 0;
                                continue;
                            }
                        }
                        let vc = crate::cast::vc_u8(v);
                        soa.out_allocate(ovc, r.packet, r.dest);
                        soa.in_grant((np0 + r.in_port) * self.num_vcs + r.in_vc, req.port, vc);
                        if events {
                            probe.flit_event(&crate::observe::FlitEvent {
                                kind: crate::observe::FlitEventKind::VcGrant,
                                node: self.node,
                                packet: r.packet,
                                src: r.src,
                                dest: r.dest,
                                class: r.class,
                                port: req.port,
                                vc,
                                head: true,
                            });
                        }
                        avail[p] &= !(1 << v);
                        requesters[i].pri_mask = 0;
                        live -= 1;
                        break 'scan;
                    }
                }
            }
        }
        self.va_rr = self.va_rr.wrapping_add(1);

        // Phase 3: account blocking (and its purity, §4.3) for the heads
        // still waiting: footprint and busy VCs over the distinct ports of
        // the request set, read from the post-grant output masks.
        let all_vcs = NocSoa::vc_range_mask(0, self.num_vcs);
        for r in &requesters {
            if soa.waiting_mask(np0 + r.in_port) >> r.in_vc & 1 == 0 {
                continue;
            }
            let mut ports = 0u8;
            for req in &reqs[r.reqs.0 as usize..r.reqs.1 as usize] {
                ports |= 1 << req.port.index();
            }
            if ports == 0 {
                continue;
            }
            let d = u32::from(r.dest.0);
            let (mut fp, mut busy) = (0, 0);
            while ports != 0 {
                let np = np0 + ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let mut busy_vcs = all_vcs & !soa.out_idle_mask_for(np, policy);
                busy += busy_vcs.count_ones();
                let owners = soa.out_port_owners(np);
                while busy_vcs != 0 {
                    fp += u32::from(owners[busy_vcs.trailing_zeros() as usize] == d);
                    busy_vcs &= busy_vcs - 1;
                }
            }
            let info = VaBlockInfo {
                node: self.node,
                packet: r.packet,
                dest: r.dest,
                class: r.class,
                footprint_vcs: fp,
                busy_vcs: busy,
            };
            metrics.record_va_block(&info);
            probe.va_blocked(&info);
        }

        self.scratch_reqs = reqs;
        self.scratch_requesters = requesters;
    }

    /// The routing context of `head`, the packet at the front of input VC
    /// `(in_port, in_vc)` — the one place both the allocator's phase 1 and
    /// the sentinel's re-evaluation get it from.
    #[allow(clippy::too_many_arguments)]
    fn head_ctx<'a>(
        &self,
        head: &Flit,
        in_port: usize,
        in_vc: usize,
        topo: AnyTopology,
        escape_lo: usize,
        ports: &'a RouterOutputsView<'a>,
        congestion: &'a dyn CongestionView,
        links: &'a dyn LinkStateView,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            topo,
            current: self.node,
            src: head.src,
            dest: head.dest,
            input_port: Port::from_index(in_port),
            input_vc: VcId(crate::cast::vc_u8(in_vc)),
            on_escape: in_vc < escape_lo,
            num_vcs: self.num_vcs,
            ports,
            congestion,
            links,
        }
    }

    /// Re-evaluates the routing function for one waiting head — exactly
    /// what phase 1 of [`Router::vc_allocate`] computes for `(in_port,
    /// in_vc)` — without mutating any allocator state.
    ///
    /// The sentinel's deadlock detector uses this to learn which output
    /// VCs a `Waiting` head could accept, so it can distinguish a true
    /// protocol deadlock (no live alternative exists) from transient
    /// congestion. Callers pass a deterministic `rng` (the routing
    /// function only draws coins for two-way tie-breaks) and union the
    /// requests across coin outcomes.
    ///
    /// Appends to `out`; returns `false` (appending nothing) when the VC
    /// holds no waiting head.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recompute_requests(
        &self,
        soa: &NocSoa,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        rules: AllocRules,
        congestion: &dyn CongestionView,
        links: &dyn LinkStateView,
        in_port: usize,
        in_vc: usize,
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<VcRequest>,
    ) -> bool {
        let ivc = soa.ivc(self.node, in_port, in_vc);
        if !soa.waiting(ivc) {
            return false;
        }
        let head = soa.in_front(ivc).expect("waiting implies a front flit");
        let view = RouterOutputsView::new(soa, self.node, rules.policy);
        let ctx = self.head_ctx(
            head,
            in_port,
            in_vc,
            topo,
            rules.escape_lo,
            &view,
            congestion,
            links,
        );
        algo.route(&ctx, rng, out);
        true
    }

    /// Switch allocation + traversal: moves up to `speedup` flits per input
    /// and output port from input VCs into output stages, gated by credits
    /// and stage space. Returns the freed buffer slots through `freed`.
    pub(crate) fn switch_allocate(
        &mut self,
        soa: &mut NocSoa,
        policy: VcReallocationPolicy,
        speedup: usize,
        freed: &mut Vec<FreedSlot>,
        probe: &mut dyn Probe,
    ) {
        let events = probe.wants_flit_events_of(crate::observe::FlitEventKind::SaGrant);
        let np0 = soa.np(self.node, 0);
        let vc_base = np0 * self.num_vcs;
        let mut out_budget = [speedup; PORT_COUNT];
        let mut stage_space = [0usize; PORT_COUNT];
        for (p, space) in stage_space.iter_mut().enumerate() {
            *space = soa.stage_space(np0 + p);
        }
        for k in 0..PORT_COUNT {
            let ip = (self.sa_port_rr + k) % PORT_COUNT;
            // Ports with no active grants have nothing to traverse. The
            // rotated scan visits exactly the granted VCs, in the order the
            // dense `(sa_vc_rr + j) % num_vcs` walk would reach them:
            // ascending from the rotation point, then the wrapped prefix.
            let amask = soa.active_mask(np0 + ip);
            if amask == 0 {
                continue;
            }
            let rot = NocSoa::vc_range_mask(self.sa_vc_rr % self.num_vcs, self.num_vcs);
            let mut in_budget = speedup;
            'inputs: for mut bits in [amask & rot, amask & !rot] {
                while bits != 0 {
                    if in_budget == 0 {
                        break 'inputs;
                    }
                    let iv = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ivc = (np0 + ip) * self.num_vcs + iv;
                    let (p, out_vc) = soa.route_target(ivc);
                    if out_budget[p] == 0 || stage_space[p] == 0 {
                        continue;
                    }
                    if soa.in_len(ivc) == 0 {
                        continue;
                    }
                    let ovc = vc_base + p * self.num_vcs + out_vc as usize;
                    if soa.out_credits(ovc) == 0 {
                        continue;
                    }
                    // Grant: traverse the switch.
                    let flit = soa.switch_traverse(ivc, np0 + p, out_vc);
                    soa.out_consume_credit(ovc);
                    if flit.is_tail() {
                        soa.out_tail_sent(ovc, policy);
                    }
                    if events {
                        probe.flit_event(&crate::observe::FlitEvent {
                            kind: crate::observe::FlitEventKind::SaGrant,
                            node: self.node,
                            packet: flit.packet,
                            src: flit.src,
                            dest: flit.dest,
                            class: flit.class,
                            port: Port::from_index(p),
                            vc: out_vc,
                            head: flit.is_head(),
                        });
                    }
                    stage_space[p] -= 1;
                    out_budget[p] -= 1;
                    in_budget -= 1;
                    freed.push(FreedSlot {
                        in_port: ip,
                        vc: crate::cast::vc_u8(iv),
                    });
                }
            }
        }
        self.sa_port_rr = (self.sa_port_rr + 1) % PORT_COUNT;
        self.sa_vc_rr = (self.sa_vc_rr + 1) % self.num_vcs.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::RouteState;
    use crate::metrics::NullProbe;
    use crate::packet::FlitKind;
    use footprint_routing::{AllLinksUp, AnyRouting, DownLinks, NoCongestionInfo, RoutingSpec, Tiers};
    use footprint_topology::{Direction, DIRECTIONS};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn flit_to(dest: u16, packet: u64) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind: FlitKind::Single,
            src: NodeId(0),
            dest: NodeId(dest),
            seq: 0,
            size: 1,
            birth: 0,
            class: 0,
            vc: 0,
        }
    }

    fn setup() -> (Router, NocSoa, AnyTopology, SmallRng, Metrics, NullProbe) {
        (
            Router::new(NodeId(0), 4),
            NocSoa::new(1, 4, 4, 2),
            AnyTopology::mesh(4, 4),
            SmallRng::seed_from_u64(9),
            Metrics::new(),
            NullProbe,
        )
    }

    /// One VC-allocation cycle on a healthy, uncongested fabric.
    #[allow(clippy::too_many_arguments)]
    fn allocate(
        r: &mut Router,
        soa: &mut NocSoa,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        rng: &mut SmallRng,
        m: &mut Metrics,
        probe: &mut NullProbe,
    ) {
        let rules = AllocRules::of(algo, topo);
        r.vc_allocate(soa, algo, topo, rules, &NoCongestionInfo, &AllLinksUp, rng, m, probe);
    }

    #[test]
    fn dor_head_gets_granted_and_traverses() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        // Head arrives on the local input VC 0, destined to n3 (east).
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 0), flit_to(3, 1));
        allocate(&mut r, &mut soa, &RoutingSpec::Dor.routing(), mesh, &mut rng, &mut m, &mut probe);
        let east = Port::Dir(Direction::East).index();
        // Granted: the local VC is now active.
        assert!(matches!(
            soa.route(soa.ivc(NodeId(0), Port::Local.index(), 0)),
            RouteState::Active { .. }
        ));
        let mut freed = Vec::new();
        r.switch_allocate(&mut soa, VcReallocationPolicy::NonAtomic, 2, &mut freed, &mut probe);
        assert_eq!(freed.len(), 1);
        assert_eq!(freed[0].in_port, Port::Local.index());
        // Flit staged at the east output.
        let f = r.launch(&mut soa, east).expect("flit staged");
        assert_eq!(f.dest, NodeId(3));
        assert_eq!(m.va_blocks, 0);
    }

    #[test]
    fn exhausted_outputs_block_and_are_accounted() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        let east = Port::Dir(Direction::East).index();
        // Saturate all 4 east VCs with other-destination packets.
        for v in 0..4 {
            soa.out_allocate(
                soa.ivc(NodeId(0), east, v),
                PacketId(100 + v as u64),
                NodeId(1),
            );
        }
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 0), flit_to(3, 1));
        allocate(&mut r, &mut soa, &RoutingSpec::Dor.routing(), mesh, &mut rng, &mut m, &mut probe);
        assert!(soa.waiting(soa.ivc(NodeId(0), Port::Local.index(), 0)));
        assert_eq!(m.va_blocks, 1);
        assert_eq!(m.purity_events, 1);
        assert!((m.mean_purity() - 0.0).abs() < 1e-12, "no footprints");
    }

    #[test]
    fn footprint_join_grants_draining_vc_to_same_destination() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        let algo = AnyRouting::footprint(Tiers::new().with_join());
        let east = Port::Dir(Direction::East).index();
        // All adaptive east VCs busy; VC1 is draining traffic to n3.
        for v in 1..4 {
            let ovc = soa.ivc(NodeId(0), east, v);
            soa.out_allocate(
                ovc,
                PacketId(100 + v as u64),
                if v == 1 { NodeId(3) } else { NodeId(1) },
            );
            soa.out_consume_credit(ovc);
            if v == 1 {
                soa.out_tail_sent(ovc, algo.policy());
            }
        }
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 1), flit_to(3, 1));
        allocate(&mut r, &mut soa, &algo, mesh, &mut rng, &mut m, &mut probe);
        // Granted via join onto VC1 (the footprint VC).
        match soa.route(soa.ivc(NodeId(0), Port::Local.index(), 1)) {
            RouteState::Active { out_vc, out_port, .. } => {
                assert_eq!(out_vc, 1);
                assert_eq!(out_port, Port::Dir(Direction::East));
            }
            s => panic!("expected grant, got {s:?}"),
        }
    }

    #[test]
    fn dbar_cannot_reuse_draining_vc() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        let algo = RoutingSpec::Dbar.routing();
        let east = Port::Dir(Direction::East).index();
        let north = Port::Dir(Direction::North).index();
        for port in [east, north] {
            for v in 1..4 {
                let ovc = soa.ivc(NodeId(0), port, v);
                soa.out_allocate(ovc, PacketId(100 + (port * 4 + v) as u64), NodeId(3));
                soa.out_consume_credit(ovc);
                soa.out_tail_sent(ovc, algo.policy());
            }
        }
        // Also block the escape VC on the DOR port (east).
        soa.out_allocate(soa.ivc(NodeId(0), east, 0), PacketId(99), NodeId(1));
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 1), flit_to(3, 1));
        allocate(&mut r, &mut soa, &algo, mesh, &mut rng, &mut m, &mut probe);
        // DBAR has no footprint joins: the packet stays blocked even though
        // draining VCs to its destination exist.
        assert!(soa.waiting(soa.ivc(NodeId(0), Port::Local.index(), 1)));
        assert_eq!(m.va_blocks, 1);
        // Purity: all busy VCs at east + escape... footprint share is high
        // but DBAR cannot exploit it.
        assert!(m.mean_purity() > 0.5);
    }

    #[test]
    fn speedup_limits_switch_grants_per_port() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        // Three packets from three different input ports all heading east.
        let dests = 3u16;
        for (ip, pkt) in [(Port::Local.index(), 1u64), (2, 2), (3, 3)] {
            let mut f = flit_to(dests, pkt);
            f.vc = 1;
            soa.in_push(soa.ivc(NodeId(0), ip, 1), f);
        }
        allocate(&mut r, &mut soa, &RoutingSpec::Dor.routing(), mesh, &mut rng, &mut m, &mut probe);
        let mut freed = Vec::new();
        r.switch_allocate(&mut soa, VcReallocationPolicy::NonAtomic, 2, &mut freed, &mut probe);
        // Only 2 can cross to the east output this cycle (speedup 2).
        assert_eq!(freed.len(), 2);
        let east = Port::Dir(Direction::East).index();
        assert_eq!(soa.staged(soa.np(NodeId(0), east)), 2);
    }

    #[test]
    fn switch_respects_credits() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        let east = Port::Dir(Direction::East).index();
        // Put a granted packet on local VC0 → east with zero credits.
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 0), flit_to(3, 1));
        allocate(&mut r, &mut soa, &RoutingSpec::Dor.routing(), mesh, &mut rng, &mut m, &mut probe);
        let RouteState::Active { out_vc, .. } =
            soa.route(soa.ivc(NodeId(0), Port::Local.index(), 0))
        else {
            panic!("expected grant");
        };
        for _ in 0..4 {
            soa.out_consume_credit(soa.ivc(NodeId(0), east, out_vc as usize));
        }
        let mut freed = Vec::new();
        r.switch_allocate(&mut soa, VcReallocationPolicy::NonAtomic, 2, &mut freed, &mut probe);
        assert!(freed.is_empty(), "no credits, no traversal");
    }

    #[test]
    fn arbiter_catchup_matches_idle_dense_ticks() {
        let (mut a, mut soa, _mesh, _rng, _m, mut probe) = setup();
        let mut b = Router::new(NodeId(0), 4);
        let mut freed = Vec::new();
        for _ in 0..7 {
            a.switch_allocate(&mut soa, VcReallocationPolicy::NonAtomic, 2, &mut freed, &mut probe);
        }
        assert!(freed.is_empty(), "idle router must move nothing");
        b.advance_arbiters(7);
        assert_eq!((a.sa_port_rr, a.sa_vc_rr), (b.sa_port_rr, b.sa_vc_rr));
        assert_eq!(a.va_rr, b.va_rr, "va_rr must not advance while idle");
    }

    #[test]
    fn resident_flits_counts_inputs_and_stages() {
        let (mut r, mut soa, mesh, mut rng, mut m, mut probe) = setup();
        assert_eq!(r.resident_flits(&soa), 0);
        soa.in_push(soa.ivc(NodeId(0), Port::Local.index(), 0), flit_to(3, 1));
        assert_eq!(r.resident_flits(&soa), 1);
        allocate(&mut r, &mut soa, &RoutingSpec::Dor.routing(), mesh, &mut rng, &mut m, &mut probe);
        let mut freed = Vec::new();
        r.switch_allocate(&mut soa, VcReallocationPolicy::NonAtomic, 2, &mut freed, &mut probe);
        // Traversal moves the flit input → output stage: still resident.
        assert_eq!(r.resident_flits(&soa), 1);
        let east = Port::Dir(Direction::East).index();
        r.launch(&mut soa, east).expect("flit staged");
        assert_eq!(r.resident_flits(&soa), 0);
    }

    #[test]
    fn quiescence_detects_outstanding_state() {
        let (r, mut soa, _mesh, _rng, _m, _probe) = setup();
        assert!(r.is_quiescent(&soa));
        soa.in_push(soa.ivc(NodeId(0), 0, 0), flit_to(3, 1));
        assert!(!r.is_quiescent(&soa));
    }

    /// The flat tier × head × request allocator that the mask-driven loop
    /// of [`Router::vc_allocate`] replaced, kept as its oracle: no `avail`
    /// gate, a `link_up` call, a `taken` test and the full `fresh || join`
    /// test per request, and purity counted over the per-VC accessors.
    #[allow(clippy::too_many_arguments)]
    fn vc_allocate_flat(
        r: &mut Router,
        soa: &mut NocSoa,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        rules: AllocRules,
        links: &dyn LinkStateView,
        rng: &mut SmallRng,
        metrics: &mut Metrics,
    ) {
        let (node, num_vcs) = (r.node, r.num_vcs);
        let mut reqs = Vec::new();
        let mut heads = Vec::new();
        {
            let view = RouterOutputsView::new(soa, node, rules.policy);
            for ip in 0..PORT_COUNT {
                for iv in 0..num_vcs {
                    let ivc = soa.ivc(node, ip, iv);
                    if !soa.waiting(ivc) {
                        continue;
                    }
                    let head = *soa.in_front(ivc).expect("waiting implies a front flit");
                    let ctx = r.head_ctx(
                        &head, ip, iv, topo, rules.escape_lo, &view, &NoCongestionInfo, links,
                    );
                    let start = reqs.len();
                    algo.route(&ctx, rng, &mut reqs);
                    heads.push((ivc, head, start..reqs.len()));
                }
            }
        }
        let n = heads.len();
        if n == 0 {
            return;
        }
        let mut granted = vec![false; n];
        let mut taken = [0u64; PORT_COUNT];
        for pri in Priority::DESCENDING {
            for k in 0..n {
                let i = (r.va_rr % n + k) % n;
                if granted[i] {
                    continue;
                }
                let (ivc, head, range) = heads[i].clone();
                let slice = &reqs[range];
                for j in 0..slice.len() {
                    let req = slice[(r.va_rr.wrapping_add(i) + j) % slice.len()];
                    if req.priority != pri {
                        continue;
                    }
                    if let Port::Dir(d) = req.port {
                        if !links.link_up(node, d) {
                            continue;
                        }
                    }
                    let (p, v) = (req.port.index(), req.vc.index());
                    if taken[p] & (1 << v) != 0 {
                        continue;
                    }
                    let ovc = soa.ivc(node, p, v);
                    let fresh = soa.out_idle_for(ovc, rules.policy);
                    let join = rules.allows_join
                        && v >= rules.escape_lo
                        && soa.out_joinable_by(ovc, head.dest);
                    if fresh || join {
                        soa.out_allocate(ovc, head.packet, head.dest);
                        soa.in_grant(ivc, req.port, crate::cast::vc_u8(v));
                        taken[p] |= 1 << v;
                        granted[i] = true;
                        break;
                    }
                }
            }
        }
        r.va_rr = r.va_rr.wrapping_add(1);
        for (i, (_, head, range)) in heads.iter().enumerate() {
            if granted[i] || range.is_empty() {
                continue;
            }
            let mut seen = [false; PORT_COUNT];
            let (mut fp, mut busy) = (0, 0);
            for req in &reqs[range.clone()] {
                let p = req.port.index();
                if std::mem::replace(&mut seen[p], true) {
                    continue;
                }
                for v in 0..num_vcs {
                    let ovc = soa.ivc(node, p, v);
                    if !soa.out_idle_for(ovc, rules.policy) {
                        busy += 1;
                        fp += u32::from(soa.out_owner(ovc) == Some(head.dest));
                    }
                }
            }
            metrics.record_va_block(&VaBlockInfo {
                node,
                packet: head.packet,
                dest: head.dest,
                class: head.class,
                footprint_vcs: fp,
                busy_vcs: busy,
            });
        }
    }

    /// The centre router of a 3×3 mesh in a random state drawn from `seed`:
    /// every output VC idle (with or without a stale owner), active or
    /// draining with random owner and credits, and a random set of waiting
    /// heads. `busy` and `heads` set how dense the two are; half of all
    /// owners and destinations are one node, so joins and footprint VCs
    /// are common.
    fn random_router(
        seed: u64,
        num_vcs: usize,
        policy: VcReallocationPolicy,
        busy: f64,
        heads: f64,
        va_rr: usize,
    ) -> (Router, NocSoa) {
        const DEPTH: usize = 4;
        let node = NodeId(4);
        let mut g = SmallRng::seed_from_u64(seed);
        let hot = g.gen_range(0..9u16);
        let endpoint = move |g: &mut SmallRng| {
            NodeId(if g.gen_bool(0.5) { hot } else { g.gen_range(0..9u16) })
        };
        let mut soa = NocSoa::new(9, num_vcs, DEPTH, 2);
        let mut packet = 0u64;
        for p in 0..PORT_COUNT {
            for v in 0..num_vcs {
                if !g.gen_bool(busy) {
                    continue;
                }
                packet += 1;
                let ovc = soa.ivc(node, p, v);
                soa.out_allocate(ovc, PacketId(packet), endpoint(&mut g));
                match g.gen_range(0..3u8) {
                    // Active, any number of credits out.
                    0 => (0..g.gen_range(0..=DEPTH)).for_each(|_| soa.out_consume_credit(ovc)),
                    // Draining, down to zero credits left (not joinable).
                    1 => {
                        (0..g.gen_range(1..=DEPTH)).for_each(|_| soa.out_consume_credit(ovc));
                        soa.out_tail_sent(ovc, policy);
                    }
                    // Idle again, the owner register left behind.
                    _ => {
                        soa.out_consume_credit(ovc);
                        soa.out_tail_sent(ovc, policy);
                        soa.out_return_credit(ovc);
                    }
                }
            }
        }
        for ip in 0..PORT_COUNT {
            for iv in 0..num_vcs {
                if g.gen_bool(heads) {
                    packet += 1;
                    soa.in_push(soa.ivc(node, ip, iv), flit_to(endpoint(&mut g).0, packet));
                }
            }
        }
        let mut router = Router::new(node, num_vcs);
        router.va_rr = va_rr;
        (router, soa)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mask-driven allocator and the flat scan leave the same
        /// datapath (so the same grants), arbiter pointer, RNG stream,
        /// block count and purity sum on any router state.
        #[test]
        fn mask_allocator_matches_flat_scan(
            seed in any::<u64>(),
            num_vcs in prop_oneof![Just(2usize), Just(4usize), Just(10usize), Just(64usize)],
            algo in 0usize..4,
            atomic in any::<bool>(),
            allows_join in any::<bool>(),
            down in 0usize..16,
            busy in 0.0f64..1.0,
            heads in 0.0f64..1.0,
            va_rr in 0usize..1000,
        ) {
            let algo: Box<dyn RoutingAlgorithm> = match algo {
                0 => RoutingSpec::Footprint.build(),
                1 => RoutingSpec::Dbar.build(),
                2 => RoutingSpec::OddEven.build(),
                _ => RoutingSpec::Dor.build(),
            };
            let topo = AnyTopology::mesh(3, 3);
            let policy = if atomic {
                VcReallocationPolicy::Atomic
            } else {
                VcReallocationPolicy::NonAtomic
            };
            let rules = AllocRules { policy, allows_join, ..AllocRules::of(&*algo, topo) };
            let links = DownLinks::new(
                DIRECTIONS
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| down >> i & 1 != 0)
                    .map(|(_, d)| (NodeId(4), d))
                    .collect(),
            );
            let (mut new_r, mut new_soa) = random_router(seed, num_vcs, policy, busy, heads, va_rr);
            let (mut old_r, mut old_soa) = random_router(seed, num_vcs, policy, busy, heads, va_rr);
            let mut new_rng = SmallRng::seed_from_u64(seed);
            let mut old_rng = SmallRng::seed_from_u64(seed);
            let (mut new_m, mut old_m) = (Metrics::new(), Metrics::new());
            new_r.vc_allocate(
                &mut new_soa, &*algo, topo, rules, &NoCongestionInfo, &links, &mut new_rng,
                &mut new_m, &mut NullProbe,
            );
            vc_allocate_flat(
                &mut old_r, &mut old_soa, &*algo, topo, rules, &links, &mut old_rng, &mut old_m,
            );
            prop_assert!(format!("{new_soa:?}") == format!("{old_soa:?}"), "datapath (grants) differ");
            prop_assert_eq!(new_r.va_rr, old_r.va_rr);
            prop_assert_eq!(new_rng.state(), old_rng.state());
            prop_assert_eq!(new_m.va_blocks, old_m.va_blocks);
            prop_assert_eq!(new_m.purity_events, old_m.purity_events);
            prop_assert_eq!(new_m.purity_sum.to_bits(), old_m.purity_sum.to_bits());
        }
    }
}

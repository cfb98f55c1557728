//! Endpoints: packet sources (injection) and sinks (ejection).

use std::collections::VecDeque;

use crate::metrics::{EjectedPacket, Metrics, Probe};
use crate::packet::{Flit, NewPacket, PacketId, PendingPacket};
use crate::snapshot::{Snap, SnapResult};
use crate::soa::{NocSoa, VACANT};
use crate::view::RouterOutputsView;
use crate::wire::CreditMsg;
use footprint_routing::{
    CongestionView, LinkStateView, Priority, RoutingAlgorithm, RoutingCtx, VcId,
};
use footprint_topology::{AnyTopology, NodeId, Port};
use rand::rngs::SmallRng;

/// A packet source: an unbounded generation queue feeding the router's
/// local input port over a credit-controlled channel with its own VCs —
/// the injection row of the [`NocSoa`] store, under the same output-VC
/// state machine as a router port.
///
/// The source runs the routing algorithm's *injection* VC selection, so a
/// Footprint network starts forming footprints from the very first hop.
#[derive(Debug)]
pub(crate) struct Source {
    node: NodeId,
    queue: VecDeque<PendingPacket>,
    num_vcs: usize,
    /// VC granted to the front packet, if any.
    active_vc: Option<usize>,
    /// Rotating scan offset so equal-priority injection requests spread
    /// across VCs (round-robin VC allocation).
    rr: usize,
    scratch_reqs: Vec<footprint_routing::VcRequest>,
}

impl Source {
    /// Creates a source for `node` with `num_vcs` injection VCs.
    pub(crate) fn new(node: NodeId, num_vcs: usize) -> Self {
        Source {
            node,
            queue: VecDeque::new(),
            num_vcs,
            active_vc: None,
            rr: 0,
            scratch_reqs: Vec::new(),
        }
    }

    /// Enqueues a freshly generated packet.
    pub(crate) fn enqueue(&mut self, id: PacketId, p: NewPacket, cycle: u64) {
        self.queue.push_back(PendingPacket {
            id,
            src: self.node,
            dest: p.dest,
            size: p.size,
            birth: cycle,
            class: p.class,
            sent: 0,
        });
    }

    /// Packets waiting (including the one currently streaming).
    pub(crate) fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// One source cycle: allocate a VC for the front packet if needed, then
    /// stream at most one flit onto the injection channel — the flit
    /// returned, for the caller to send.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        congestion: &dyn CongestionView,
        links: &dyn LinkStateView,
        rng: &mut SmallRng,
        soa: &mut NocSoa,
        probe: &mut dyn Probe,
    ) -> Option<Flit> {
        if self.active_vc.is_none() {
            self.try_allocate(algo, topo, congestion, links, rng, soa);
        }
        let vc = self.active_vc?;
        let ovc = soa.inj_ivc(self.node, vc);
        if soa.out_credits(ovc) == 0 {
            return None;
        }
        let front = self.queue.front_mut().expect("active VC implies a packet");
        let flit = front.next_flit(crate::cast::vc_u8(vc));
        soa.out_consume_credit(ovc);
        if flit.is_tail() {
            soa.out_tail_sent(ovc, algo.policy());
            self.queue.pop_front();
            self.active_vc = None;
        }
        if probe.wants_flit_events_of(crate::observe::FlitEventKind::Inject) {
            probe.flit_event(&crate::observe::FlitEvent {
                kind: crate::observe::FlitEventKind::Inject,
                node: self.node,
                packet: flit.packet,
                src: flit.src,
                dest: flit.dest,
                class: flit.class,
                port: Port::Local,
                vc: flit.vc,
                head: flit.is_head(),
            });
        }
        Some(flit)
    }

    /// Runs the injection VC selection for the front packet.
    fn try_allocate(
        &mut self,
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        congestion: &dyn CongestionView,
        links: &dyn LinkStateView,
        rng: &mut SmallRng,
        soa: &mut NocSoa,
    ) {
        let Some(front) = self.queue.front() else {
            return;
        };
        let mut reqs = std::mem::take(&mut self.scratch_reqs);
        reqs.clear();
        {
            let view = RouterOutputsView::injection(soa, self.node, algo.policy());
            let ctx = RoutingCtx {
                topo,
                current: self.node,
                src: self.node,
                dest: front.dest,
                input_port: Port::Local,
                input_vc: VcId(0),
                on_escape: false,
                num_vcs: self.num_vcs,
                ports: &view,
                congestion,
                links,
            };
            algo.injection_requests(&ctx, rng, &mut reqs);
        }
        let policy = algo.policy();
        let escape_lo = if algo.has_escape() { topo.escape_vcs() } else { 0 };
        let allows_join = algo.allows_footprint_join();
        self.rr = self.rr.wrapping_add(1);
        let len = reqs.len();
        'pri: for pri in Priority::DESCENDING {
            for j in 0..len {
                let req = &reqs[(self.rr + j) % len];
                if req.priority != pri {
                    continue;
                }
                debug_assert_eq!(req.port, Port::Local);
                let v = req.vc.index();
                let ovc = soa.inj_ivc(self.node, v);
                let fresh = soa.out_idle_for(ovc, policy);
                let join = allows_join && v >= escape_lo && soa.out_joinable_by(ovc, front.dest);
                if fresh || join {
                    soa.out_allocate(ovc, front.id, front.dest);
                    self.active_vc = Some(v);
                    break 'pri;
                }
            }
        }
        self.scratch_reqs = reqs;
    }

    /// `true` when a [`Source::step`] would be an exact no-op: nothing
    /// queued and no VC granted. In this state `step` returns before its
    /// first RNG draw or round-robin bump, so the active-set scheduler may
    /// skip the call without perturbing the simulation's random stream.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active_vc.is_none()
    }

    /// `true` when the queue is empty and all injection VCs have drained.
    pub(crate) fn is_quiescent(&self, soa: &NocSoa) -> bool {
        self.queue.is_empty() && soa.injection(self.node).is_quiescent()
    }

    /// Moves the generation queue, active grant and round-robin pointer
    /// (the injection VCs are in the [`NocSoa`] image; scratch is
    /// per-cycle and omitted). A restored active VC must exist and have a
    /// packet to send.
    pub(crate) fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        let n = s.len(self.queue.len(), "source queue length")?;
        let blank = PendingPacket {
            id: PacketId(0),
            src: self.node,
            dest: self.node,
            size: 0,
            birth: 0,
            class: 0,
            sent: 0,
        };
        self.queue.resize(n, blank);
        s.each(&mut self.queue, |s, p| {
            s.u64(&mut p.id.0)?;
            s.u16(&mut p.src.0)?;
            s.u16(&mut p.dest.0)?;
            s.u16(&mut p.size)?;
            s.u64(&mut p.birth)?;
            s.u8(&mut p.class)?;
            s.u16(&mut p.sent)
        })?;
        let mut tag = u8::from(self.active_vc.is_some());
        let mut v = self.active_vc.unwrap_or(0);
        s.u8(&mut tag)?;
        s.usize(&mut v)?;
        self.active_vc = match (tag, v) {
            (0, _) => None,
            // `step` indexes the injection row with it and takes the
            // queue's front.
            (_, v) if v >= self.num_vcs || self.queue.is_empty() => {
                return Err(format!(
                    "snapshot names active source VC {v} at a source with {} VCs and {} queued \
                     packets",
                    self.num_vcs,
                    self.queue.len()
                ));
            }
            (_, v) => Some(v),
        };
        s.usize(&mut self.rr)
    }
}

/// A packet sink: per-VC buffers drained at the endpoint ejection bandwidth
/// of one flit per cycle — the finite rate that makes oversubscribed
/// endpoints (Figure 9's hotspots) grow genuine congestion trees.
#[derive(Debug)]
pub(crate) struct Sink {
    node: NodeId,
    vcs: Vec<VecDeque<Flit>>,
    capacity: usize,
    rr: usize,
}

impl Sink {
    /// Creates a sink with `num_vcs` buffers of `capacity` flits.
    pub(crate) fn new(node: NodeId, num_vcs: usize, capacity: usize) -> Self {
        Sink {
            node,
            vcs: (0..num_vcs).map(|_| VecDeque::new()).collect(),
            capacity,
            rr: 0,
        }
    }

    /// Accepts a flit from the ejection channel.
    ///
    /// # Panics
    ///
    /// Panics on buffer overflow (credit protocol violation).
    pub(crate) fn push(&mut self, flit: Flit) {
        let q = &mut self.vcs[flit.vc as usize];
        assert!(q.len() < self.capacity, "sink VC overflow");
        q.push_back(flit);
    }

    /// Consumes up to one flit this cycle (round-robin over non-empty VCs);
    /// returns the credit to send back and records finished packets.
    pub(crate) fn step(
        &mut self,
        cycle: u64,
        metrics: &mut Metrics,
        probe: &mut dyn Probe,
    ) -> Option<CreditMsg> {
        let n = self.vcs.len();
        for k in 0..n {
            let v = (self.rr + k) % n;
            if let Some(flit) = self.vcs[v].pop_front() {
                self.rr = (v + 1) % n;
                debug_assert_eq!(flit.dest, self.node, "flit ejected at wrong node");
                if probe.wants_flit_events_of(crate::observe::FlitEventKind::Eject) {
                    probe.flit_event(&crate::observe::FlitEvent {
                        kind: crate::observe::FlitEventKind::Eject,
                        node: self.node,
                        packet: flit.packet,
                        src: flit.src,
                        dest: flit.dest,
                        class: flit.class,
                        port: Port::Local,
                        vc: flit.vc,
                        head: flit.is_head(),
                    });
                }
                if flit.is_tail() {
                    let pkt = EjectedPacket {
                        id: flit.packet,
                        src: flit.src,
                        dest: flit.dest,
                        birth: flit.birth,
                        ejected: cycle,
                        size: flit.size,
                        class: flit.class,
                    };
                    metrics.record_ejected(&pkt);
                    probe.packet_ejected(&pkt);
                }
                return Some(CreditMsg {
                    vc: crate::cast::vc_u8(v),
                });
            }
        }
        None
    }

    /// Buffered flits across all VCs.
    pub(crate) fn buffered(&self) -> usize {
        self.vcs.iter().map(VecDeque::len).sum()
    }

    /// Buffered flits waiting in VC `vc` (sentinel credit audit).
    pub(crate) fn buffered_in(&self, vc: usize) -> usize {
        self.vcs[vc].len()
    }

    /// `true` when no flits are buffered.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.vcs.iter().all(VecDeque::is_empty)
    }

    /// Moves the per-VC buffers and the round-robin pointer; the VC count
    /// and capacity echoes must match.
    pub(crate) fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        s.echo(self.vcs.len(), "sink VC count")?;
        for q in &mut self.vcs {
            let n = s.len(q.len(), "sink buffer length")?;
            if n > self.capacity {
                return Err(format!(
                    "snapshot sink buffer of {n} flits exceeds capacity {}",
                    self.capacity
                ));
            }
            q.resize(n, VACANT);
            s.each(q, S::flit)?;
        }
        s.usize(&mut self.rr)?;
        s.echo(self.capacity, "sink capacity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NullProbe;
    use crate::packet::FlitKind;
    use footprint_routing::{AllLinksUp, AnyRouting, NoCongestionInfo, RoutingSpec, Tiers};
    use footprint_topology::AnyTopology;
    use rand::SeedableRng;

    /// A source at node 0 of a 4×4 mesh, with the store holding its
    /// injection VCs (`depth` credits each).
    fn source(num_vcs: usize, depth: usize) -> (Source, NocSoa) {
        (Source::new(NodeId(0), num_vcs), NocSoa::new(16, num_vcs, depth, 2))
    }

    fn new_packet(dest: u16, size: u16) -> NewPacket {
        NewPacket {
            dest: NodeId(dest),
            size,
            class: 0,
            origin: None,
        }
    }

    #[test]
    fn source_streams_a_packet() {
        let mesh = AnyTopology::mesh(4, 4);
        let dor = RoutingSpec::Dor.routing();
        let (mut src, mut soa) = source(4, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        src.enqueue(PacketId(1), new_packet(3, 2), 0);
        assert_eq!(src.backlog(), 1);
        let flits: Vec<_> = (0..2)
            .filter_map(|_| {
                src.step(&dor, mesh, &NoCongestionInfo, &AllLinksUp, &mut rng, &mut soa, &mut NullProbe)
            })
            .collect();
        assert_eq!(src.backlog(), 0);
        assert_eq!(flits.len(), 2);
        assert!(flits[0].is_head());
        assert!(flits[1].is_tail());
        assert_eq!(flits[0].vc, flits[1].vc);
    }

    #[test]
    fn source_respects_credits() {
        let mesh = AnyTopology::mesh(4, 4);
        let dor = RoutingSpec::Dor.routing();
        let (mut src, mut soa) = source(2, 1); // 1-credit VCs
        let mut rng = SmallRng::seed_from_u64(1);
        src.enqueue(PacketId(1), new_packet(3, 3), 0);
        let mut step = |soa: &mut NocSoa| {
            src.step(&dor, mesh, &NoCongestionInfo, &AllLinksUp, &mut rng, soa, &mut NullProbe)
        };
        let head = step(&mut soa).expect("head goes");
        assert!(step(&mut soa).is_none(), "second flit must stall on zero credits");
        // Head slot freed downstream.
        soa.out_return_credit(soa.inj_ivc(NodeId(0), head.vc as usize));
        let body = step(&mut soa).expect("the returned credit sends the body");
        assert_eq!(body.kind, FlitKind::Body);
    }

    #[test]
    fn footprint_source_joins_same_destination_stream() {
        let mesh = AnyTopology::mesh(4, 4);
        let algo = AnyRouting::footprint(Tiers::new().with_join());
        let (mut src, mut soa) = source(3, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut flits = Vec::new();
        let mut step = |src: &mut Source, soa: &mut NocSoa| {
            flits.extend(src.step(
                &algo,
                mesh,
                &NoCongestionInfo,
                &AllLinksUp,
                &mut rng,
                soa,
                &mut NullProbe,
            ));
        };
        // Packet 1 to n5 claims adaptive VC; packet 2 to n7 claims the
        // other adaptive VC (3 VCs total: escape + 2 adaptive). Both end up
        // draining, so the channel is congested (no idle adaptive VCs).
        src.enqueue(PacketId(1), new_packet(5, 1), 0);
        step(&mut src, &mut soa);
        src.enqueue(PacketId(2), new_packet(7, 1), 1);
        step(&mut src, &mut soa);
        assert_eq!(src.backlog(), 0);
        // Packet 3 to n5 finds idle = ∅ and a footprint VC for n5 → joins
        // it instead of waiting or escaping.
        src.enqueue(PacketId(3), new_packet(5, 1), 2);
        step(&mut src, &mut soa);
        assert_eq!(src.backlog(), 0, "joined the draining footprint VC");
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[0].vc, flits[2].vc, "same footprint VC for n5");
        assert_ne!(flits[0].vc, flits[1].vc, "different destinations split");
        assert_ne!(flits[2].vc, 0, "not the escape VC");
    }

    #[test]
    fn sink_drains_one_flit_per_cycle_and_records_packets() {
        let mut sink = Sink::new(NodeId(3), 2, 4);
        let mut metrics = Metrics::new();
        let mut probe = NullProbe;
        let mk = |vc: u8, packet: u64| Flit {
            packet: PacketId(packet),
            kind: FlitKind::Single,
            src: NodeId(0),
            dest: NodeId(3),
            seq: 0,
            size: 1,
            birth: 0,
            class: 0,
            vc,
        };
        sink.push(mk(0, 1));
        sink.push(mk(1, 2));
        assert_eq!(sink.buffered(), 2);
        let c1 = sink.step(10, &mut metrics, &mut probe).unwrap();
        let c2 = sink.step(11, &mut metrics, &mut probe).unwrap();
        assert!(sink.step(12, &mut metrics, &mut probe).is_none());
        assert_ne!(c1.vc, c2.vc, "round-robin over VCs");
        assert_eq!(metrics.total().ejected_packets, 2);
        assert_eq!(metrics.class(0).latency_max, 11);
        assert!(sink.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "sink VC overflow")]
    fn sink_overflow_panics() {
        let mut sink = Sink::new(NodeId(3), 1, 1);
        let f = Flit {
            packet: PacketId(1),
            kind: FlitKind::Single,
            src: NodeId(0),
            dest: NodeId(3),
            seq: 0,
            size: 1,
            birth: 0,
            class: 0,
            vc: 0,
        };
        sink.push(f);
        sink.push(f);
    }
}

//! Struct-of-arrays backing store for the per-cycle datapath.
//!
//! The routers' per-VC state — input FIFOs, route state, output credit
//! counters and owner registers, staging FIFOs — lives in flat per-network
//! arrays indexed by a `(router, port, vc)` id, not in per-router objects.
//! The dense per-cycle walks (switch allocation's route-state scan, VC
//! allocation's waiting-head scan, the routing function's class scans, the
//! side band's occupancy reads) then traverse contiguous `u8`/`u16` arrays
//! and per-port bitmasks instead of chasing one heap object per VC.
//!
//! [`Router`](crate::router::Router) keeps only its arbiter pointers and scratch
//! buffers; everything it arbitrates over is read from and written through
//! this store. Read-only consumers (the sentinel, state dumps, probes) go
//! through the [`InPortRef`]/[`OutPortRef`] view structs.
//!
//! # Indexing
//!
//! * port id: `np = node * PORT_COUNT + port`
//! * VC id:   `ivc = np * num_vcs + vc`
//! * The output side has one more row per node after the router rows:
//!   `inj_np(node) = num_nodes * PORT_COUNT + node` is the upstream end of
//!   the source → router injection channel, so a source's injection VCs
//!   are ordinary `out_*` entries under the same state machine.
//!
//! # Invariants
//!
//! * `waiting_mask[np]` bit `v` is set iff `route_kind[ivc] == Waiting`.
//! * `active_mask[np]` bit `v` is set iff `route_kind[ivc] == Active`
//!   (masks fit because the config validator caps `num_vcs` at 64).
//! * `out_idle_mask[np]` / `out_drain_mask[np]` bit `v` is set iff
//!   `out_state[ivc]` is `Idle` / `Draining`; `out_owned_mask[np]` bit `v`
//!   is set iff the VC's owner register holds a destination. The routing
//!   view's per-port class scans read these instead of walking the state
//!   bytes.
//! * `in_occupied[np]` equals the number of VCs at the port whose input
//!   FIFO is nonempty (the DBAR side band's occupancy measure, O(1) here).
//! * Input FIFOs and output stages are fixed-capacity rings of `u32`
//!   handles (`inputs`/`stages`); each ring's head and length delimit its
//!   live window. The flits themselves live in one network-wide slab: a
//!   ring slot inside a live window holds the handle of a slab entry, a
//!   slot outside it holds nothing meaningful.
//! * Every slab entry is held by exactly one live ring slot or sits on the
//!   free list: `slab.len() - free.len()` equals the buffered flits, the
//!   sum of every ring's length (the sentinel checks it).
//!
//! # The flit slab
//!
//! A push takes a handle off the LIFO free list, or appends to the slab
//! when the list is empty; a pop gives its handle back. The slab grows
//! only to the peak number of flits buffered at once — a small fraction of
//! the rings' capacity — and the most recently freed, cache-hot entry is
//! reused first. Construction fills no flit: the rings are zeroed `u32`s.

use crate::input::RouteState;
use crate::output::OutVcState;
use crate::packet::{Flit, FlitKind, PacketId};
use crate::snapshot::{Snap, SnapResult};
use footprint_routing::VcReallocationPolicy;
use footprint_topology::{NodeId, Port, PORT_COUNT};
use std::fmt;

/// Packed route state (`route_kind` values).
const ROUTE_IDLE: u8 = 0;
const ROUTE_WAITING: u8 = 1;
const ROUTE_ACTIVE: u8 = 2;

/// Packed output-VC state (`out_state` values).
const OUT_IDLE: u8 = 0;
const OUT_ACTIVE: u8 = 1;
const OUT_DRAINING: u8 = 2;

/// Owner-register sentinel for "no owner yet".
const NO_OWNER: u32 = u32::MAX;

/// A placeholder flit for what a snapshot restore fills before overwriting
/// it from the stream — the calendar's stages, the sinks' queues and the
/// rebuilt flit slab (never observable).
pub(crate) const VACANT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::Single,
    src: NodeId(0),
    dest: NodeId(0),
    seq: 0,
    size: 1,
    birth: 0,
    class: 0,
    vc: 0,
};

/// The network-wide struct-of-arrays datapath state (see module docs).
pub(crate) struct NocSoa {
    num_nodes: usize,
    num_vcs: usize,
    depth: usize,

    // ---- the flit slab, shared by every ring ----
    /// Every buffered flit, wherever it sits; rings hold indices into it.
    slab: Vec<Flit>,
    /// Handles of slab entries no ring holds, the most recently freed last.
    free: Vec<u32>,

    // ---- input VCs (indexed by `ivc`) ----
    /// One FIFO of `depth` slots per input VC.
    inputs: Rings,
    route_kind: Vec<u8>,
    route_port: Vec<u8>,
    route_vc: Vec<u8>,
    route_packet: Vec<u64>,

    // ---- output VCs (indexed by `ivc`, injection rows included) ----
    out_state: Vec<u8>,
    /// The destination "owner" register Footprint routing reads (§4.4
    /// prices it at `log2(N)` bits). It **persists** after the VC drains
    /// and is only overwritten by the next allocation: that is what lets a
    /// drained VC remain "the footprint VC" for its destination (the
    /// paper's Figure 3 grants VC0 to successive node-A packets precisely
    /// because the register still holds A after each packet drains).
    out_owner: Vec<u32>,
    out_packet: Vec<u64>,
    out_credits: Vec<u32>,

    // ---- per input port (indexed by `np`) ----
    waiting_mask: Vec<u64>,
    active_mask: Vec<u64>,
    in_occupied: Vec<u16>,

    // ---- per output port (indexed by `np`, injection rows included) ----
    /// Bit `v` set iff `out_state[ivc] == OUT_IDLE`.
    out_idle_mask: Vec<u64>,
    /// Bit `v` set iff `out_state[ivc] == OUT_DRAINING`.
    out_drain_mask: Vec<u64>,
    /// Bit `v` set iff `out_owner[ivc] != NO_OWNER`.
    out_owned_mask: Vec<u64>,
    /// One FIFO of `speedup` slots per output row.
    stages: Rings,
}

impl NocSoa {
    /// Creates the store for `num_nodes` routers with `num_vcs` VCs of
    /// `depth` flits per port and `speedup`-deep output stages.
    pub(crate) fn new(num_nodes: usize, num_vcs: usize, depth: usize, speedup: usize) -> Self {
        assert!((1..=64).contains(&num_vcs), "num_vcs out of mask range");
        assert!(depth >= 1 && depth <= u16::MAX as usize);
        assert!(speedup >= 1 && speedup <= u16::MAX as usize);
        let nps = num_nodes * PORT_COUNT;
        let ivcs = nps * num_vcs;
        // Output side: the router rows, then one injection row per node.
        let out_nps = nps + num_nodes;
        let out_vcs = out_nps * num_vcs;
        NocSoa {
            num_nodes,
            num_vcs,
            depth,
            slab: Vec::new(),
            free: Vec::new(),
            inputs: Rings::new(ivcs, depth),
            route_kind: vec![ROUTE_IDLE; ivcs],
            route_port: vec![0; ivcs],
            route_vc: vec![0; ivcs],
            route_packet: vec![0; ivcs],
            out_state: vec![OUT_IDLE; out_vcs],
            out_owner: vec![NO_OWNER; out_vcs],
            out_packet: vec![0; out_vcs],
            out_credits: vec![crate::cast::idx_u32(depth); out_vcs],
            waiting_mask: vec![0; nps],
            active_mask: vec![0; nps],
            in_occupied: vec![0; nps],
            out_idle_mask: vec![Self::vc_range_mask(0, num_vcs); out_nps],
            out_drain_mask: vec![0; out_nps],
            out_owned_mask: vec![0; out_nps],
            stages: Rings::new(out_nps, speedup),
        }
    }

    /// Moves what a later cycle can read, after the geometry echo: the
    /// input rings' heads and lengths, then each input VC's live flits
    /// oldest first, then the route, output-state, owner, packet and
    /// credit arrays verbatim, then the same for the output stages. Ring
    /// slots outside the live windows hold nothing and are not written,
    /// and neither are the per-port masks and occupancy counts: they are
    /// functions of the rest, which a restore recomputes after the walk
    /// ([`NocSoa::rebuild_port_masks`]).
    ///
    /// The walk rebuilds a compact slab in either direction — the input
    /// VCs' flits in `ivc` order, then the stages' in `np` order, no free
    /// handle — so a restored store and the one it was taken from hold the
    /// same slab, and writing changes nothing the simulation can observe.
    /// A stored head or length outside the ring is refused, naming it.
    pub(crate) fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        s.echo(self.num_nodes, "soa nodes")?;
        s.echo(self.num_vcs, "soa vcs")?;
        s.echo(self.depth, "soa depth")?;
        s.echo(self.stages.cap, "soa stage cap")?;
        let old = std::mem::take(&mut self.slab);
        self.free.clear();
        self.inputs.snap(s, "input VC", &old, &mut self.slab)?;
        s.each(&mut self.route_kind, S::u8)?;
        s.each(&mut self.route_port, S::u8)?;
        s.each(&mut self.route_vc, S::u8)?;
        s.each(&mut self.route_packet, S::u64)?;
        s.each(&mut self.out_state, S::u8)?;
        s.each(&mut self.out_owner, S::u32)?;
        s.each(&mut self.out_packet, S::u64)?;
        s.each(&mut self.out_credits, S::u32)?;
        self.stages.snap(s, "output stage", &old, &mut self.slab)
    }

    /// Recomputes every per-port mask and occupancy count from the input
    /// rings, the route states, the output states and the owner registers
    /// (the module's invariants, stated as code): what a restore does
    /// after the walk, which carries none of them. A route or output state
    /// with no code is refused, naming its VC.
    pub(crate) fn rebuild_port_masks(&mut self) -> SnapResult {
        if let Some(ivc) = self.route_kind.iter().position(|&k| k > ROUTE_ACTIVE) {
            let k = self.route_kind[ivc];
            return Err(format!("snapshot input VC {ivc} route state {k} has no code"));
        }
        if let Some(ivc) = self.out_state.iter().position(|&k| k > OUT_DRAINING) {
            let k = self.out_state[ivc];
            return Err(format!("snapshot output VC {ivc} state {k} has no code"));
        }
        // Branch-free: the states are unpredictable, and this walks every
        // VC of the network.
        fn bits<T>(row: &[T], set: impl Fn(&T) -> bool) -> u64 {
            (row.iter().enumerate()).fold(0, |m, (v, x)| m | u64::from(set(x)) << v)
        }
        let nv = self.num_vcs;
        let rows = self.route_kind.chunks_exact(nv).zip(self.inputs.lens.chunks_exact(nv));
        for (np, (kinds, lens)) in rows.enumerate() {
            self.waiting_mask[np] = bits(kinds, |&k| k == ROUTE_WAITING);
            self.active_mask[np] = bits(kinds, |&k| k == ROUTE_ACTIVE);
            self.in_occupied[np] = lens.iter().map(|&l| u16::from(l > 0)).sum();
        }
        let rows = self.out_state.chunks_exact(nv).zip(self.out_owner.chunks_exact(nv));
        for (np, (states, owners)) in rows.enumerate() {
            self.out_idle_mask[np] = bits(states, |&s| s == OUT_IDLE);
            self.out_drain_mask[np] = bits(states, |&s| s == OUT_DRAINING);
            self.out_owned_mask[np] = bits(owners, |&o| o != NO_OWNER);
        }
        Ok(())
    }

    /// VCs per physical channel.
    #[inline]
    pub(crate) fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    /// Flat port id of `(node, port)`.
    #[inline]
    pub(crate) fn np(&self, node: NodeId, port: usize) -> usize {
        node.index() * PORT_COUNT + port
    }

    /// Flat VC id of `(node, port, vc)`.
    #[inline]
    pub(crate) fn ivc(&self, node: NodeId, port: usize, vc: usize) -> usize {
        (node.index() * PORT_COUNT + port) * self.num_vcs + vc
    }

    /// Output row of `node`'s injection channel (the source's end of the
    /// source → router link).
    #[inline]
    pub(crate) fn inj_np(&self, node: NodeId) -> usize {
        self.num_nodes * PORT_COUNT + node.index()
    }

    /// Flat output-VC id of VC `vc` of `node`'s injection channel.
    #[inline]
    pub(crate) fn inj_ivc(&self, node: NodeId, vc: usize) -> usize {
        self.inj_np(node) * self.num_vcs + vc
    }

    // ------------------------------------------------------------------
    // The flit slab
    // ------------------------------------------------------------------

    /// The flit behind `handle`.
    #[inline]
    fn flit(&self, handle: u32) -> &Flit {
        &self.slab[handle as usize]
    }

    /// Stores `flit` under a free handle — the most recently freed one, or
    /// a new entry when none is free.
    #[inline]
    fn alloc(&mut self, flit: Flit) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                self.slab[handle as usize] = flit;
                handle
            }
            None => {
                self.slab.push(flit);
                crate::cast::idx_u32(self.slab.len() - 1)
            }
        }
    }

    /// Gives `handle` back and returns the flit it held.
    #[inline]
    fn release(&mut self, handle: u32) -> Flit {
        self.free.push(handle);
        self.slab[handle as usize]
    }

    /// Slab handles a ring holds: entries allocated and not given back.
    pub(crate) fn handles_in_use(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Flits in every input VC and output stage, summed over the rings'
    /// live windows — equal to [`NocSoa::handles_in_use`] unless a handle
    /// leaked.
    pub(crate) fn buffered_flits(&self) -> usize {
        let sum = |lens: &[u16]| lens.iter().map(|&l| usize::from(l)).sum::<usize>();
        sum(&self.inputs.lens) + sum(&self.stages.lens)
    }

    /// Takes a handle that no ring will ever give back: the fault the
    /// sentinel's pool census exists to catch.
    #[cfg(test)]
    pub(crate) fn leak_handle(&mut self) {
        self.alloc(VACANT);
    }

    // ------------------------------------------------------------------
    // Input VCs
    // ------------------------------------------------------------------

    /// Number of buffered flits in input VC `ivc`.
    #[inline]
    pub(crate) fn in_len(&self, ivc: usize) -> usize {
        self.inputs.len(ivc)
    }

    /// The front flit of input VC `ivc`, if any.
    #[inline]
    pub(crate) fn in_front(&self, ivc: usize) -> Option<&Flit> {
        self.inputs.front(ivc).map(|h| self.flit(h))
    }

    /// The buffered flits of input VC `ivc`, front first.
    pub(crate) fn in_flits(&self, ivc: usize) -> impl Iterator<Item = &Flit> {
        self.inputs.live(ivc).map(|h| self.flit(h))
    }

    /// Routing/allocation state of input VC `ivc`.
    #[inline]
    pub(crate) fn route(&self, ivc: usize) -> RouteState {
        match self.route_kind[ivc] {
            ROUTE_IDLE => RouteState::Idle,
            ROUTE_WAITING => RouteState::Waiting,
            _ => RouteState::Active {
                packet: PacketId(self.route_packet[ivc]),
                out_port: Port::from_index(self.route_port[ivc] as usize),
                out_vc: self.route_vc[ivc],
            },
        }
    }

    /// `true` if a head flit waits for VC allocation in `ivc`.
    #[inline]
    pub(crate) fn waiting(&self, ivc: usize) -> bool {
        self.route_kind[ivc] == ROUTE_WAITING
    }

    /// The `(out_port, out_vc)` of an *active* grant, without rebuilding
    /// the [`RouteState`] enum — the switch allocator's inner loop reads
    /// this once per granted VC per cycle.
    ///
    /// Callers must know the VC is active (e.g. from [`active_mask`]);
    /// debug builds verify it.
    ///
    /// [`active_mask`]: NocSoa::active_mask
    #[inline]
    pub(crate) fn route_target(&self, ivc: usize) -> (usize, u8) {
        debug_assert_eq!(self.route_kind[ivc], ROUTE_ACTIVE);
        (self.route_port[ivc] as usize, self.route_vc[ivc])
    }

    /// Bitmask of the port's VCs holding a waiting head.
    #[inline]
    pub(crate) fn waiting_mask(&self, np: usize) -> u64 {
        self.waiting_mask[np]
    }

    /// Bitmask of the port's VCs streaming under an active grant.
    #[inline]
    pub(crate) fn active_mask(&self, np: usize) -> u64 {
        self.active_mask[np]
    }

    /// Number of the port's input VCs holding at least one flit (the DBAR
    /// side band's congestion measure).
    #[inline]
    pub(crate) fn in_occupied(&self, np: usize) -> usize {
        self.in_occupied[np] as usize
    }

    /// Accepts an arriving flit into input VC `ivc`; transitions
    /// `Idle → Waiting` when a head flit reaches the front.
    ///
    /// # Panics
    ///
    /// Panics on buffer overflow — arrivals are gated by credits upstream,
    /// so an overflow indicates a flow-control bug.
    pub(crate) fn in_push(&mut self, ivc: usize, flit: Flit) {
        let len = self.inputs.len(ivc);
        assert!(len < self.depth, "input VC overflow");
        let handle = self.alloc(flit);
        self.inputs.push(ivc, handle);
        if len == 0 {
            self.in_occupied[ivc / self.num_vcs] += 1;
        }
        self.refresh_route_state(ivc);
    }

    /// Records a VC-allocation grant for the waiting head in `ivc`.
    ///
    /// # Panics
    ///
    /// Panics if the VC holds no waiting head.
    pub(crate) fn in_grant(&mut self, ivc: usize, out_port: Port, out_vc: u8) {
        assert_eq!(
            self.route_kind[ivc], ROUTE_WAITING,
            "grant without a waiting head"
        );
        let head = self.in_front(ivc).expect("waiting implies non-empty");
        self.route_packet[ivc] = head.packet.0;
        self.route_port[ivc] = out_port.index() as u8;
        self.route_vc[ivc] = out_vc;
        self.route_kind[ivc] = ROUTE_ACTIVE;
        let (np, bit) = (ivc / self.num_vcs, 1u64 << (ivc % self.num_vcs));
        self.waiting_mask[np] &= !bit;
        self.active_mask[np] |= bit;
    }

    /// Moves the front flit of `ivc` across the switch onto port `np`'s
    /// stage, relabelled with its output VC `out_vc`, and returns a copy.
    /// Its handle changes rings and the flit stays put in the slab. When a
    /// tail leaves, the route state resets so a queued-behind packet's
    /// head can be routed next.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty or not `Active`, or if the stage is full.
    pub(crate) fn switch_traverse(&mut self, ivc: usize, np: usize, out_vc: u8) -> Flit {
        assert!(self.stage_space(np) > 0, "stage overflow");
        let handle = self.in_unlink_granted(ivc);
        self.stages.push(np, handle);
        let flit = &mut self.slab[handle as usize];
        flit.vc = out_vc;
        *flit
    }

    /// Takes the front handle off active input VC `ivc`, keeping the
    /// occupancy count, the route state and the masks in step.
    fn in_unlink_granted(&mut self, ivc: usize) -> u32 {
        assert_eq!(
            self.route_kind[ivc], ROUTE_ACTIVE,
            "pop without an active grant"
        );
        let handle = self.inputs.pop(ivc).expect("pop from empty input VC");
        let flit = self.flit(handle);
        debug_assert_eq!(
            flit.packet.0, self.route_packet[ivc],
            "front flit not of the active packet"
        );
        let tail = flit.is_tail();
        let (np, bit) = (ivc / self.num_vcs, 1u64 << (ivc % self.num_vcs));
        if self.inputs.len(ivc) == 0 {
            self.in_occupied[np] -= 1;
        }
        if tail {
            self.route_kind[ivc] = ROUTE_IDLE;
            self.active_mask[np] &= !bit;
            self.refresh_route_state(ivc);
        }
        handle
    }

    /// `Idle → Waiting` when a head flit sits at the front of `ivc`.
    fn refresh_route_state(&mut self, ivc: usize) {
        if self.route_kind[ivc] == ROUTE_IDLE {
            if let Some(f) = self.in_front(ivc) {
                if f.is_head() {
                    self.route_kind[ivc] = ROUTE_WAITING;
                    self.waiting_mask[ivc / self.num_vcs] |= 1 << (ivc % self.num_vcs);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Output VCs
    // ------------------------------------------------------------------

    /// Allocation state of output VC `ivc`.
    #[inline]
    pub(crate) fn out_state(&self, ivc: usize) -> OutVcState {
        match self.out_state[ivc] {
            OUT_IDLE => OutVcState::Idle,
            OUT_ACTIVE => OutVcState::Active(PacketId(self.out_packet[ivc])),
            _ => OutVcState::Draining,
        }
    }

    /// Owner register of output VC `ivc` (persists after the VC drains).
    #[inline]
    pub(crate) fn out_owner(&self, ivc: usize) -> Option<NodeId> {
        let o = self.out_owner[ivc];
        (o != NO_OWNER).then_some(NodeId(o as u16))
    }

    /// Remaining downstream credits of output VC `ivc`.
    #[inline]
    pub(crate) fn out_credits(&self, ivc: usize) -> u32 {
        self.out_credits[ivc]
    }

    /// `true` if a fresh (non-join) allocation of `ivc` is permitted under
    /// `policy`.
    #[inline]
    pub(crate) fn out_idle_for(&self, ivc: usize, policy: VcReallocationPolicy) -> bool {
        match self.out_state[ivc] {
            OUT_IDLE => true,
            OUT_ACTIVE => false,
            _ => policy == VcReallocationPolicy::NonAtomic,
        }
    }

    /// `true` if a packet destined to `dest` may join output VC `ivc`
    /// right now (draining, owner matches, a credit available).
    #[inline]
    pub(crate) fn out_joinable_by(&self, ivc: usize, dest: NodeId) -> bool {
        self.out_state[ivc] == OUT_DRAINING
            && self.out_owner[ivc] == u32::from(dest.0)
            && self.out_credits[ivc] > 0
    }

    /// Allocates output VC `ivc` to packet `pkt` destined to `dest`.
    ///
    /// # Panics
    ///
    /// Panics if a packet is still streaming through the VC.
    pub(crate) fn out_allocate(&mut self, ivc: usize, pkt: PacketId, dest: NodeId) {
        assert_ne!(self.out_state[ivc], OUT_ACTIVE, "allocating an active VC");
        self.out_state[ivc] = OUT_ACTIVE;
        self.out_packet[ivc] = pkt.0;
        self.out_owner[ivc] = u32::from(dest.0);
        let (np, bit) = (ivc / self.num_vcs, 1u64 << (ivc % self.num_vcs));
        self.out_idle_mask[np] &= !bit;
        self.out_drain_mask[np] &= !bit;
        self.out_owned_mask[np] |= bit;
    }

    /// Consumes one credit of `ivc` as a flit commits to it.
    ///
    /// # Panics
    ///
    /// Panics if no credits remain.
    pub(crate) fn out_consume_credit(&mut self, ivc: usize) {
        assert!(self.out_credits[ivc] > 0, "credit underflow");
        self.out_credits[ivc] -= 1;
    }

    /// Marks the current packet's tail as forwarded on `ivc`.
    pub(crate) fn out_tail_sent(&mut self, ivc: usize, policy: VcReallocationPolicy) {
        debug_assert_eq!(self.out_state[ivc], OUT_ACTIVE);
        let all_credits = self.out_credits[ivc] as usize == self.depth;
        let next = match policy {
            VcReallocationPolicy::Atomic => OUT_DRAINING,
            VcReallocationPolicy::NonAtomic if all_credits => OUT_IDLE,
            VcReallocationPolicy::NonAtomic => OUT_DRAINING,
        };
        self.out_state[ivc] = next;
        let (np, bit) = (ivc / self.num_vcs, 1u64 << (ivc % self.num_vcs));
        if next == OUT_IDLE {
            self.out_idle_mask[np] |= bit;
        } else {
            self.out_drain_mask[np] |= bit;
        }
    }

    /// Returns one credit to `ivc` (a downstream slot freed); may complete
    /// a drain.
    ///
    /// # Panics
    ///
    /// Panics on credit overflow.
    pub(crate) fn out_return_credit(&mut self, ivc: usize) {
        assert!((self.out_credits[ivc] as usize) < self.depth, "credit overflow");
        self.out_credits[ivc] += 1;
        if self.out_state[ivc] == OUT_DRAINING && self.out_credits[ivc] as usize == self.depth {
            // The owner register persists: the VC stays this destination's
            // footprint VC until another packet claims it.
            self.out_state[ivc] = OUT_IDLE;
            let (np, bit) = (ivc / self.num_vcs, 1u64 << (ivc % self.num_vcs));
            self.out_drain_mask[np] &= !bit;
            self.out_idle_mask[np] |= bit;
        }
    }

    /// The owner registers of port `np`'s output VCs, `num_vcs` long (raw:
    /// a destination id, or the no-owner sentinel that matches none).
    #[inline]
    pub(crate) fn out_port_owners(&self, np: usize) -> &[u32] {
        &self.out_owner[np * self.num_vcs..(np + 1) * self.num_vcs]
    }

    /// Bits `lo..hi` set (the caller-visible VC index window of a scan).
    #[inline]
    pub(crate) fn vc_range_mask(lo: usize, hi: usize) -> u64 {
        debug_assert!(lo <= hi && hi <= 64);
        let upto = if hi >= 64 { !0u64 } else { (1u64 << hi) - 1 };
        upto & !((1u64 << lo) - 1)
    }

    /// Bitmask of port `np`'s output VCs a fresh allocation may claim under
    /// `policy` — the incremental equivalent of [`NocSoa::out_idle_for`]
    /// over the whole port.
    #[inline]
    pub(crate) fn out_idle_mask_for(&self, np: usize, policy: VcReallocationPolicy) -> u64 {
        match policy {
            VcReallocationPolicy::Atomic => self.out_idle_mask[np],
            VcReallocationPolicy::NonAtomic => self.out_idle_mask[np] | self.out_drain_mask[np],
        }
    }

    /// Bitmask of port `np`'s output VCs whose packet has left but whose
    /// credits are not all home.
    #[inline]
    pub(crate) fn out_drain_mask(&self, np: usize) -> u64 {
        self.out_drain_mask[np]
    }

    /// Bitmask of port `np`'s output VCs whose owner register is set.
    #[inline]
    pub(crate) fn out_owned_mask(&self, np: usize) -> u64 {
        self.out_owned_mask[np]
    }

    // ------------------------------------------------------------------
    // Output stages
    // ------------------------------------------------------------------

    /// Free slots in the staging FIFO of port `np`.
    #[inline]
    pub(crate) fn stage_space(&self, np: usize) -> usize {
        self.stages.cap - self.stages.len(np)
    }

    /// Number of staged flits at port `np`.
    #[inline]
    pub(crate) fn staged(&self, np: usize) -> usize {
        self.stages.len(np)
    }

    /// The staged flits of port `np`, next-to-launch first.
    pub(crate) fn staged_flits(&self, np: usize) -> impl Iterator<Item = &Flit> {
        self.stages.live(np).map(|h| self.flit(h))
    }

    /// Pops the next flit to launch onto port `np`'s link.
    pub(crate) fn stage_pop(&mut self, np: usize) -> Option<Flit> {
        let handle = self.stages.pop(np)?;
        Some(self.release(handle))
    }

    // ------------------------------------------------------------------
    // Per-router aggregates
    // ------------------------------------------------------------------

    /// Flits resident in `node`'s router: buffered in input VCs or staged
    /// at output ports (the active-set scheduler's work measure).
    pub(crate) fn resident_flits(&self, node: NodeId) -> usize {
        let np0 = node.index() * PORT_COUNT;
        let vc0 = np0 * self.num_vcs;
        let in_sum: usize = self.inputs.lens[vc0..vc0 + PORT_COUNT * self.num_vcs]
            .iter()
            .map(|&l| l as usize)
            .sum();
        let staged: usize = self.stages.lens[np0..np0 + PORT_COUNT]
            .iter()
            .map(|&l| l as usize)
            .sum();
        in_sum + staged
    }

    /// `true` when no flits, grants or outstanding credits remain anywhere
    /// in `node`'s router.
    pub(crate) fn router_quiescent(&self, node: NodeId) -> bool {
        let np0 = node.index() * PORT_COUNT;
        let vc0 = np0 * self.num_vcs;
        let nvc = PORT_COUNT * self.num_vcs;
        self.in_occupied[np0..np0 + PORT_COUNT].iter().all(|&c| c == 0)
            && self.waiting_mask[np0..np0 + PORT_COUNT].iter().all(|&m| m == 0)
            && self.active_mask[np0..np0 + PORT_COUNT].iter().all(|&m| m == 0)
            && self.stages.lens[np0..np0 + PORT_COUNT].iter().all(|&l| l == 0)
            && self.out_state[vc0..vc0 + nvc].iter().all(|&s| s == OUT_IDLE)
            && self.out_credits[vc0..vc0 + nvc]
                .iter()
                .all(|&c| c as usize == self.depth)
    }

    /// Read-only view of one input port.
    #[inline]
    pub(crate) fn input(&self, node: NodeId, port: usize) -> InPortRef<'_> {
        self.in_row(self.np(node, port))
    }

    /// Read-only view of one router output port.
    #[inline]
    pub(crate) fn output(&self, node: NodeId, port: usize) -> OutPortRef<'_> {
        self.out_row(self.np(node, port))
    }

    /// Read-only view of `node`'s injection channel: the source's output
    /// VCs (its stage is always empty — sources send straight to the wire).
    #[inline]
    pub(crate) fn injection(&self, node: NodeId) -> OutPortRef<'_> {
        self.out_row(self.inj_np(node))
    }

    /// Read-only view of input row `np`.
    #[inline]
    pub(crate) fn in_row(&self, np: usize) -> InPortRef<'_> {
        InPortRef { soa: self, np }
    }

    /// Read-only view of output row `np` (router port or injection row).
    #[inline]
    pub(crate) fn out_row(&self, np: usize) -> OutPortRef<'_> {
        OutPortRef { soa: self, np }
    }
}

/// Prints each ring's live flits, oldest first, in place of slab handles
/// and the free list: two stores that buffer the same flits print the
/// same, however their slabs are laid out.
impl fmt::Debug for NocSoa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let in_flits: Vec<Vec<&Flit>> = (0..self.inputs.lens.len())
            .map(|ivc| self.in_flits(ivc).collect())
            .collect();
        let staged_flits: Vec<Vec<&Flit>> = (0..self.stages.lens.len())
            .map(|np| self.staged_flits(np).collect())
            .collect();
        f.debug_struct("NocSoa")
            .field("num_nodes", &self.num_nodes)
            .field("num_vcs", &self.num_vcs)
            .field("depth", &self.depth)
            .field("stage_cap", &self.stages.cap)
            .field("in_flits", &in_flits)
            .field("in_head", &self.inputs.heads)
            .field("route_kind", &self.route_kind)
            .field("route_port", &self.route_port)
            .field("route_vc", &self.route_vc)
            .field("route_packet", &self.route_packet)
            .field("out_state", &self.out_state)
            .field("out_owner", &self.out_owner)
            .field("out_packet", &self.out_packet)
            .field("out_credits", &self.out_credits)
            .field("waiting_mask", &self.waiting_mask)
            .field("active_mask", &self.active_mask)
            .field("in_occupied", &self.in_occupied)
            .field("out_idle_mask", &self.out_idle_mask)
            .field("out_drain_mask", &self.out_drain_mask)
            .field("out_owned_mask", &self.out_owned_mask)
            .field("staged_flits", &staged_flits)
            .field("stage_head", &self.stages.heads)
            .finish()
    }
}

/// One family of fixed-capacity FIFOs of slab handles — the input VCs or
/// the output stages: `cap` slots per ring, and each ring's live window
/// of `lens[r]` handles from slot `heads[r]`. Slots outside the window hold
/// nothing meaningful.
struct Rings {
    slot: Vec<u32>,
    heads: Vec<u16>,
    lens: Vec<u16>,
    cap: usize,
}

impl Rings {
    /// `count` empty rings of `cap` slots: zeroed integers, no flit.
    fn new(count: usize, cap: usize) -> Self {
        Rings {
            slot: vec![0; count * cap],
            heads: vec![0; count],
            lens: vec![0; count],
            cap,
        }
    }

    /// The slot of ring `r`'s `k`-th oldest handle. A head is below `cap`
    /// and `k < cap`, so one conditional subtraction wraps the index.
    #[inline]
    fn at(&self, r: usize, k: usize) -> usize {
        let i = usize::from(self.heads[r]) + k;
        r * self.cap + if i >= self.cap { i - self.cap } else { i }
    }

    #[inline]
    fn len(&self, r: usize) -> usize {
        usize::from(self.lens[r])
    }

    /// Ring `r`'s oldest handle, if any.
    #[inline]
    fn front(&self, r: usize) -> Option<u32> {
        (self.lens[r] > 0).then(|| self.slot[self.at(r, 0)])
    }

    /// Ring `r`'s handles, oldest first.
    fn live(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.len(r)).map(move |k| self.slot[self.at(r, k)])
    }

    /// Appends `handle` to ring `r`; the caller has checked for room.
    #[inline]
    fn push(&mut self, r: usize, handle: u32) {
        debug_assert!(self.len(r) < self.cap);
        let at = self.at(r, self.len(r));
        self.slot[at] = handle;
        self.lens[r] += 1;
    }

    /// Removes and returns ring `r`'s oldest handle, if any.
    #[inline]
    fn pop(&mut self, r: usize) -> Option<u32> {
        let handle = self.front(r)?;
        let next = usize::from(self.heads[r]) + 1;
        self.heads[r] = if next == self.cap { 0 } else { next as u16 };
        self.lens[r] -= 1;
        Some(handle)
    }

    /// Moves the heads, the lengths and then each ring's live flits oldest
    /// first, appending those flits to `slab` and pointing the live slots
    /// at them. `old` is the slab the handles index before the walk (when
    /// reading, a live slot's handle is stale and its flit overwritten).
    fn snap<S: Snap>(
        &mut self,
        s: &mut S,
        what: &str,
        old: &[Flit],
        slab: &mut Vec<Flit>,
    ) -> SnapResult {
        s.each(&mut self.heads, S::u16)?;
        s.each(&mut self.lens, S::u16)?;
        let cap = self.cap;
        for r in 0..self.lens.len() {
            let (head, len) = (usize::from(self.heads[r]), self.len(r));
            if head >= cap {
                return Err(format!(
                    "snapshot {what} {r} head {head} outside its {cap} slots"
                ));
            }
            if len > cap {
                return Err(format!(
                    "snapshot {what} {r} length {len} exceeds its {cap} slots"
                ));
            }
            for k in 0..len {
                let at = self.at(r, k);
                let mut flit = old.get(self.slot[at] as usize).copied().unwrap_or(VACANT);
                s.flit(&mut flit)?;
                self.slot[at] = crate::cast::idx_u32(slab.len());
                slab.push(flit);
            }
        }
        Ok(())
    }
}

/// Read-only view of one input VC.
#[derive(Clone, Copy)]
pub(crate) struct InVcRef<'a> {
    soa: &'a NocSoa,
    ivc: usize,
}

impl<'a> InVcRef<'a> {
    /// Number of buffered flits.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.soa.in_len(self.ivc)
    }

    /// `true` when no flits are buffered.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer capacity in flits.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.soa.depth
    }

    /// The front flit, if any.
    #[inline]
    pub(crate) fn front(&self) -> Option<&'a Flit> {
        self.soa.in_front(self.ivc)
    }

    /// Current routing state.
    #[inline]
    pub(crate) fn route(&self) -> RouteState {
        self.soa.route(self.ivc)
    }

    /// The buffered flits, front first.
    pub(crate) fn flits(&self) -> impl Iterator<Item = &'a Flit> {
        self.soa.in_flits(self.ivc)
    }

    /// Appends the buffered flit destinations to `out` (FIFO order).
    pub(crate) fn dests_into(&self, out: &mut Vec<NodeId>) {
        out.extend(self.flits().map(|f| f.dest));
    }
}

/// Read-only view of one output VC (a router's or a source's).
#[derive(Clone, Copy)]
pub(crate) struct OutVcRef<'a> {
    soa: &'a NocSoa,
    ivc: usize,
}

impl OutVcRef<'_> {
    /// Current allocation state.
    #[inline]
    pub(crate) fn state(&self) -> OutVcState {
        self.soa.out_state(self.ivc)
    }

    /// Destination owner register.
    #[inline]
    pub(crate) fn owner(&self) -> Option<NodeId> {
        self.soa.out_owner(self.ivc)
    }

    /// Remaining downstream credits.
    #[inline]
    pub(crate) fn credits(&self) -> u32 {
        self.soa.out_credits(self.ivc)
    }

    /// Downstream buffer capacity.
    #[inline]
    pub(crate) fn capacity(&self) -> u32 {
        crate::cast::idx_u32(self.soa.depth)
    }

    /// `true` if the VC holds no traffic and all credits are home.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.state() == OutVcState::Idle && self.credits() as usize == self.soa.depth
    }
}

/// Read-only view of one input port.
#[derive(Clone, Copy)]
pub(crate) struct InPortRef<'a> {
    soa: &'a NocSoa,
    np: usize,
}

impl<'a> InPortRef<'a> {
    /// One VC.
    #[inline]
    pub(crate) fn vc(&self, vc: usize) -> InVcRef<'a> {
        debug_assert!(vc < self.soa.num_vcs);
        InVcRef {
            soa: self.soa,
            ivc: self.np * self.soa.num_vcs + vc,
        }
    }

    /// All VCs, ascending.
    pub(crate) fn vcs(&self) -> impl Iterator<Item = InVcRef<'a>> + '_ {
        (0..self.soa.num_vcs).map(|v| self.vc(v))
    }
}

/// Read-only view of one output port (a router's, or a source's injection
/// channel).
#[derive(Clone, Copy)]
pub(crate) struct OutPortRef<'a> {
    soa: &'a NocSoa,
    np: usize,
}

impl<'a> OutPortRef<'a> {
    /// One VC.
    #[inline]
    pub(crate) fn vc(&self, vc: usize) -> OutVcRef<'a> {
        debug_assert!(vc < self.soa.num_vcs);
        OutVcRef {
            soa: self.soa,
            ivc: self.np * self.soa.num_vcs + vc,
        }
    }

    /// All VCs, ascending.
    pub(crate) fn vcs(&self) -> impl Iterator<Item = OutVcRef<'a>> + '_ {
        (0..self.soa.num_vcs).map(|v| self.vc(v))
    }

    /// Number of staged flits.
    #[inline]
    pub(crate) fn staged(&self) -> usize {
        self.soa.staged(self.np)
    }

    /// The staged flits, next-to-launch first.
    pub(crate) fn staged_flits(&self) -> impl Iterator<Item = &'a Flit> {
        self.soa.staged_flits(self.np)
    }

    /// `true` when every VC is quiescent and the stage is empty.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.soa.staged(self.np) == 0 && self.vcs().all(|v| v.is_quiescent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::Direction;

    fn flit(packet: u64, kind: FlitKind, seq: u16) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            src: NodeId(0),
            dest: NodeId(3),
            seq,
            size: 3,
            birth: 0,
            class: 0,
            vc: 0,
        }
    }

    fn soa() -> NocSoa {
        NocSoa::new(1, 4, 4, 2)
    }

    /// Moves the front flit of active `ivc` across the switch onto output
    /// row 0's stage and launches it from there, as one router cycle does.
    fn traverse(s: &mut NocSoa, ivc: usize) -> Flit {
        let f = s.switch_traverse(ivc, 0, 0);
        assert_eq!(s.stage_pop(0), Some(f));
        f
    }

    #[test]
    fn head_arrival_triggers_waiting_and_masks() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), 0, 1);
        assert_eq!(s.route(ivc), RouteState::Idle);
        s.in_push(ivc, flit(1, FlitKind::Head, 0));
        assert!(s.waiting(ivc));
        assert_eq!(s.waiting_mask(0), 0b10);
        assert_eq!(s.in_occupied(0), 1);
    }

    #[test]
    fn grant_then_stream_then_reset_on_tail() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), 0, 0);
        s.in_push(ivc, flit(1, FlitKind::Head, 0));
        s.in_push(ivc, flit(1, FlitKind::Body, 1));
        s.in_push(ivc, flit(1, FlitKind::Tail, 2));
        s.in_grant(ivc, Port::Dir(Direction::East), 2);
        assert!(matches!(s.route(ivc), RouteState::Active { out_vc: 2, .. }));
        assert_eq!(s.active_mask(0), 0b1);
        assert!(traverse(&mut s, ivc).is_head());
        assert_eq!(traverse(&mut s, ivc).kind, FlitKind::Body);
        assert!(traverse(&mut s, ivc).is_tail());
        assert_eq!(s.route(ivc), RouteState::Idle);
        assert_eq!((s.waiting_mask(0), s.active_mask(0)), (0, 0));
        assert_eq!(s.in_occupied(0), 0);
        assert!(s.router_quiescent(NodeId(0)));
    }

    #[test]
    fn queued_packet_becomes_waiting_after_tail_leaves() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), 0, 0);
        let mut single = flit(1, FlitKind::Single, 0);
        single.size = 1;
        s.in_push(ivc, single);
        s.in_grant(ivc, Port::Dir(Direction::East), 1);
        let mut f = flit(2, FlitKind::Single, 0);
        f.size = 1;
        s.in_push(ivc, f);
        assert!(matches!(
            s.route(ivc),
            RouteState::Active { packet: PacketId(1), .. }
        ));
        assert!(traverse(&mut s, ivc).is_tail());
        assert!(s.waiting(ivc), "queued head promoted");
        assert_eq!(s.waiting_mask(0), 0b1);
        assert_eq!(s.active_mask(0), 0);
    }

    #[test]
    fn ring_wraps_across_capacity() {
        let mut s = soa();
        let ivc = s.ivc(NodeId(0), 2, 3);
        for round in 0..3u64 {
            for k in 0..4u64 {
                let mut f = flit(round * 4 + k, FlitKind::Single, 0);
                f.size = 1;
                s.in_push(ivc, f);
            }
            assert_eq!(s.in_len(ivc), 4);
            let dests: Vec<u64> = s.in_flits(ivc).map(|f| f.packet.0).collect();
            assert_eq!(dests, (round * 4..round * 4 + 4).collect::<Vec<_>>());
            for _ in 0..4 {
                s.in_grant(ivc, Port::Local, 0);
                traverse(&mut s, ivc);
            }
        }
        assert!(s.router_quiescent(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut s = NocSoa::new(1, 1, 1, 1);
        let ivc = s.ivc(NodeId(0), 0, 0);
        let mut f = flit(1, FlitKind::Single, 0);
        f.size = 1;
        s.in_push(ivc, f);
        s.in_push(ivc, f);
    }

    #[test]
    #[should_panic(expected = "grant without a waiting head")]
    fn grant_without_head_panics() {
        let mut s = soa();
        s.in_grant(0, Port::Local, 0);
    }

    /// Output-VC ids of one router row and one injection row of a
    /// two-node store with `depth`-flit buffers: the state machine is the
    /// same code on both, and every test below runs on both.
    fn out_rows(depth: usize) -> (NocSoa, [usize; 2]) {
        let s = NocSoa::new(2, 4, depth, 2);
        let rows = [s.ivc(NodeId(0), 1, 2), s.inj_ivc(NodeId(1), 2)];
        (s, rows)
    }

    #[test]
    fn atomic_out_vc_lifecycle() {
        let (mut s, rows) = out_rows(2);
        for ivc in rows {
            assert!(s.out_idle_for(ivc, VcReallocationPolicy::Atomic));
            s.out_allocate(ivc, PacketId(1), NodeId(9));
            assert_eq!(s.out_state(ivc), OutVcState::Active(PacketId(1)));
            assert_eq!(s.out_owner(ivc), Some(NodeId(9)));
            s.out_consume_credit(ivc);
            s.out_tail_sent(ivc, VcReallocationPolicy::Atomic);
            assert_eq!(s.out_state(ivc), OutVcState::Draining);
            // Draining is not idle under the atomic policy...
            assert!(!s.out_idle_for(ivc, VcReallocationPolicy::Atomic));
            // ...but it is joinable by the same destination.
            assert!(s.out_joinable_by(ivc, NodeId(9)));
            assert!(!s.out_joinable_by(ivc, NodeId(8)));
            s.out_return_credit(ivc);
            assert_eq!(s.out_state(ivc), OutVcState::Idle);
            assert_eq!(s.out_owner(ivc), Some(NodeId(9)), "owner register persists");
        }
        assert!(s.output(NodeId(0), 1).vc(2).is_quiescent());
        assert!(s.injection(NodeId(1)).is_quiescent());
    }

    #[test]
    fn non_atomic_reallocates_before_drain() {
        let (mut s, rows) = out_rows(2);
        for ivc in rows {
            s.out_allocate(ivc, PacketId(1), NodeId(9));
            s.out_consume_credit(ivc);
            s.out_tail_sent(ivc, VcReallocationPolicy::NonAtomic);
            // Tail forwarded, credits outstanding → still reallocatable.
            assert!(s.out_idle_for(ivc, VcReallocationPolicy::NonAtomic));
            s.out_allocate(ivc, PacketId(2), NodeId(4));
            assert_eq!(s.out_state(ivc), OutVcState::Active(PacketId(2)));
            assert_eq!(s.out_owner(ivc), Some(NodeId(4)));
        }
    }

    #[test]
    fn join_reactivates_draining_vc() {
        let (mut s, rows) = out_rows(2);
        for ivc in rows {
            s.out_allocate(ivc, PacketId(1), NodeId(9));
            s.out_consume_credit(ivc);
            s.out_tail_sent(ivc, VcReallocationPolicy::Atomic);
            assert!(s.out_joinable_by(ivc, NodeId(9)));
            s.out_allocate(ivc, PacketId(2), NodeId(9)); // the footprint join
            assert_eq!(s.out_state(ivc), OutVcState::Active(PacketId(2)));
            assert_eq!(s.out_owner(ivc), Some(NodeId(9)));
        }
    }

    #[test]
    fn join_requires_credits() {
        let (mut s, rows) = out_rows(1);
        for ivc in rows {
            s.out_allocate(ivc, PacketId(1), NodeId(9));
            s.out_consume_credit(ivc);
            s.out_tail_sent(ivc, VcReallocationPolicy::Atomic);
            assert!(!s.out_joinable_by(ivc, NodeId(9)), "no credits → not joinable");
            s.out_return_credit(ivc);
            // Credit return completed the drain → idle, not joinable.
            assert!(!s.out_joinable_by(ivc, NodeId(9)));
            assert!(s.out_idle_for(ivc, VcReallocationPolicy::Atomic));
        }
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn credit_underflow_panics() {
        let (mut s, [router, _]) = out_rows(1);
        s.out_consume_credit(router);
        s.out_consume_credit(router);
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn injection_credit_underflow_panics() {
        let (mut s, [_, injection]) = out_rows(1);
        s.out_consume_credit(injection);
        s.out_consume_credit(injection);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_panics() {
        let (mut s, [router, _]) = out_rows(1);
        s.out_return_credit(router);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn injection_credit_overflow_panics() {
        let (mut s, [_, injection]) = out_rows(1);
        s.out_return_credit(injection);
    }

    /// Pushes one single-flit packet per `seq` into `ivc`, then grants and
    /// moves each across the switch onto stage `np`.
    fn stage_singles(s: &mut NocSoa, ivc: usize, np: usize, seqs: std::ops::Range<u16>) {
        for seq in seqs.clone() {
            s.in_push(ivc, flit(u64::from(seq), FlitKind::Single, seq));
        }
        for _ in seqs {
            s.in_grant(ivc, Port::Local, 0);
            s.switch_traverse(ivc, np, 0);
        }
    }

    #[test]
    fn stage_ring_respects_capacity_and_order() {
        let mut s = NocSoa::new(1, 2, 4, 2);
        let np = s.np(NodeId(0), 3);
        assert_eq!(s.stage_space(np), 2);
        stage_singles(&mut s, 0, np, 0..2);
        assert_eq!(s.stage_space(np), 0);
        let seqs: Vec<u16> = s.staged_flits(np).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(s.stage_pop(np).unwrap().seq, 0);
        assert_eq!(s.stage_pop(np).unwrap().seq, 1);
        assert!(s.stage_pop(np).is_none());
    }

    #[test]
    #[should_panic(expected = "stage overflow")]
    fn stage_overflow_panics() {
        let mut s = NocSoa::new(1, 1, 4, 1);
        stage_singles(&mut s, 0, 0, 0..2);
    }

    /// The census holds and every live window reads back what was pushed.
    fn check_against_model(
        s: &NocSoa,
        inputs: &[std::collections::VecDeque<u64>],
        stages: &[std::collections::VecDeque<u64>],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        for (ivc, want) in inputs.iter().enumerate() {
            let got: Vec<u64> = s.in_flits(ivc).map(|f| f.packet.0).collect();
            prop_assert_eq!(&got, &want.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(s.in_front(ivc).map(|f| f.packet.0), want.front().copied());
        }
        for (np, want) in stages.iter().enumerate() {
            let got: Vec<u64> = s.staged_flits(np).map(|f| f.packet.0).collect();
            prop_assert_eq!(&got, &want.iter().copied().collect::<Vec<_>>());
        }
        let buffered = inputs.iter().chain(stages).map(|q| q.len()).sum::<usize>();
        prop_assert_eq!(s.buffered_flits(), buffered);
        prop_assert_eq!(s.handles_in_use(), buffered);
        Ok(())
    }

    proptest::proptest! {
        /// Random pushes, grants, switch traversals and stage pops over
        /// every input VC and output stage of a one-router store, with
        /// `depth` and the stage capacity in 1..=4, against a `VecDeque`
        /// per ring:
        /// each ring is a FIFO, the slab's handles in use equal the
        /// buffered flits, a push appends to the slab only when no handle
        /// is free, and a traversal moves a handle without touching the
        /// slab's length or the free list.
        #[test]
        fn rings_over_the_slab_match_a_deque_model(
            depth in 1usize..=4,
            cap in 1usize..=4,
            ops in proptest::collection::vec((0u8..4, 0usize..64), 1..200),
        ) {
            use std::collections::VecDeque;
            let mut s = NocSoa::new(1, 2, depth, cap);
            let (ivcs, nps) = (PORT_COUNT * 2, PORT_COUNT + 1);
            let mut inputs = vec![VecDeque::new(); ivcs];
            let mut stages = vec![VecDeque::new(); nps];
            let mut next = 0u64;
            for (op, at) in ops {
                let (slab, free) = (s.slab.len(), s.free.len());
                let (ivc, np) = (at % ivcs, at % nps);
                let pushed = match op {
                    0 if inputs[ivc].len() < depth => {
                        next += 1;
                        let mut f = flit(next, FlitKind::Single, 0);
                        f.size = 1;
                        s.in_push(ivc, f);
                        inputs[ivc].push_back(next);
                        true
                    }
                    1 if s.waiting(ivc) => {
                        s.in_grant(ivc, Port::Local, 0);
                        false
                    }
                    2 => {
                        let f = s.stage_pop(np).map(|f| f.packet.0);
                        proptest::prop_assert_eq!(f, stages[np].pop_front());
                        false
                    }
                    3 if s.route_kind[ivc] == ROUTE_ACTIVE && stages[np].len() < cap => {
                        let out_vc = (at % 2) as u8;
                        let f = s.switch_traverse(ivc, np, out_vc);
                        let moved = inputs[ivc].pop_front();
                        proptest::prop_assert_eq!(Some(f.packet.0), moved);
                        stages[np].extend(moved);
                        let staged = s.staged_flits(np).last().map(|f| (f.packet.0, f.vc));
                        proptest::prop_assert_eq!(staged, Some((f.packet.0, out_vc)));
                        proptest::prop_assert_eq!((s.slab.len(), s.free.len()), (slab, free));
                        false
                    }
                    _ => false,
                };
                if pushed && free > 0 {
                    proptest::prop_assert_eq!(s.slab.len(), slab, "grew with a free handle");
                }
                check_against_model(&s, &inputs, &stages)?;
            }
        }
    }

    #[test]
    fn occupancy_counter_matches_scan() {
        let mut s = soa();
        assert_eq!(s.in_occupied(0), 0);
        s.in_push(s.ivc(NodeId(0), 0, 1), flit(1, FlitKind::Head, 0));
        s.in_push(s.ivc(NodeId(0), 0, 1), flit(1, FlitKind::Body, 1));
        s.in_push(s.ivc(NodeId(0), 0, 3), flit(2, FlitKind::Head, 0));
        assert_eq!(s.in_occupied(0), 2);
        let port = s.input(NodeId(0), 0);
        assert_eq!(port.vcs().filter(|v| !v.is_empty()).count(), s.in_occupied(0));
        assert!(!s.router_quiescent(NodeId(0)));
    }

    // The flow-control state machines under random operation sequences:
    // the output VC lifecycle and the input VC FIFO discipline.
    use proptest::prelude::*;

    /// Random operation against an output VC.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Allocate(u16, u16), // packet id, dest
        Consume,
        TailSent,
        ReturnCredit,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u16..100, 0u16..16).prop_map(|(p, d)| Op::Allocate(p, d)),
            Just(Op::Consume),
            Just(Op::TailSent),
            Just(Op::ReturnCredit),
        ]
    }

    proptest! {
        /// Credits never under/overflow and the state machine never wedges when
        /// operations are applied only in legal states (as the router does).
        #[test]
        fn outvc_invariants(
            ops in prop::collection::vec(arb_op(), 1..200),
            atomic in any::<bool>(),
            injection in any::<bool>(),
        ) {
            let policy = if atomic {
                VcReallocationPolicy::Atomic
            } else {
                VcReallocationPolicy::NonAtomic
            };
            let capacity = 4;
            // One VC of a router output row or of a source's injection row:
            // the same state machine either way.
            let mut soa = NocSoa::new(2, 2, capacity as usize, 1);
            let vc = if injection {
                soa.inj_ivc(NodeId(1), 1)
            } else {
                soa.ivc(NodeId(1), 3, 1)
            };
            let mut outstanding = 0u32; // flits sent minus credits returned
            for op in ops {
                match op {
                    Op::Allocate(p, d) => {
                        let fresh = soa.out_idle_for(vc, policy);
                        let join = soa.out_joinable_by(vc, NodeId(d));
                        if fresh || join {
                            soa.out_allocate(vc, PacketId(p as u64), NodeId(d));
                            prop_assert_eq!(soa.out_owner(vc), Some(NodeId(d)));
                            prop_assert!(matches!(soa.out_state(vc), OutVcState::Active(_)));
                        }
                    }
                    Op::Consume => {
                        if matches!(soa.out_state(vc), OutVcState::Active(_))
                            && soa.out_credits(vc) > 0
                        {
                            soa.out_consume_credit(vc);
                            outstanding += 1;
                        }
                    }
                    Op::TailSent => {
                        if matches!(soa.out_state(vc), OutVcState::Active(_)) {
                            soa.out_tail_sent(vc, policy);
                            prop_assert!(!matches!(soa.out_state(vc), OutVcState::Active(_)));
                        }
                    }
                    Op::ReturnCredit => {
                        if outstanding > 0 {
                            soa.out_return_credit(vc);
                            outstanding -= 1;
                        }
                    }
                }
                prop_assert!(soa.out_credits(vc) <= capacity);
                prop_assert_eq!(soa.out_credits(vc) + outstanding, capacity, "credit conservation");
                // Atomic policy: a drained VC in Idle state implies full credits.
                if soa.out_state(vc) == OutVcState::Idle && policy == VcReallocationPolicy::Atomic {
                    prop_assert!(soa.out_idle_for(vc, policy));
                }
            }
        }

        /// Input VC FIFO (one ring of the SoA store): packets stream in order,
        /// route state resets exactly at tails, and buffered flit count is
        /// conserved.
        #[test]
        fn invc_fifo_discipline(sizes in prop::collection::vec(1u16..4, 1..6)) {
            let capacity: usize = sizes.iter().map(|&s| s as usize).sum();
            let mut soa = NocSoa::new(1, 1, capacity.max(1), 1);
            let ivc = soa.ivc(NodeId(0), 0, 0);
            // Enqueue all packets back to back (multi-packet FIFO).
            for (pid, &size) in sizes.iter().enumerate() {
                for seq in 0..size {
                    soa.in_push(ivc, Flit {
                        packet: PacketId(pid as u64),
                        kind: FlitKind::for_position(seq, size),
                        src: NodeId(0),
                        dest: NodeId(1),
                        seq,
                        size,
                        birth: 0,
                        class: 0,
                        vc: 0,
                    });
                }
            }
            prop_assert_eq!(soa.in_len(ivc), capacity);
            // Drain packet by packet.
            for (pid, &size) in sizes.iter().enumerate() {
                prop_assert!(soa.waiting(ivc), "head of packet {pid} must be waiting");
                soa.in_grant(ivc, Port::Local, 0);
                for seq in 0..size {
                    let f = traverse(&mut soa, ivc);
                    prop_assert_eq!(f.packet, PacketId(pid as u64));
                    prop_assert_eq!(f.seq, seq);
                }
            }
            prop_assert!(soa.router_quiescent(NodeId(0)));
        }
    }
}

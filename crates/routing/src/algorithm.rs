//! The routing-algorithm abstraction.

use crate::{CongestionView, LinkStateView, PortStateView, Priority, VcId, VcRequest};
use core::cmp::Ordering;
use footprint_topology::{AnyTopology, Direction, NodeId, Port};
use rand::RngCore;

/// How output VCs may be reallocated to new packets.
///
/// The paper (§4.2.1) points out that routing algorithms based on Duato's
/// theory "cannot reallocate an VC unless the credit of the tail flit has
/// been received" — that is [`VcReallocationPolicy::Atomic`] — while
/// Odd-Even (and DOR) have no such restriction and reallocate as soon as the
/// tail has been forwarded ([`VcReallocationPolicy::NonAtomic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcReallocationPolicy {
    /// A VC may be reallocated only once it is completely drained (all
    /// credits returned). Required by Duato-based deadlock avoidance.
    Atomic,
    /// A VC may be reallocated as soon as the previous packet's tail flit
    /// has been forwarded, letting multiple packets queue in one VC FIFO.
    NonAtomic,
}

/// Everything a routing algorithm may inspect when routing one head packet.
pub struct RoutingCtx<'a> {
    /// The topology (mesh, torus, ring, ...; a two-word `Copy` value).
    pub topo: AnyTopology,
    /// The router making the decision.
    pub current: NodeId,
    /// Source endpoint of the packet.
    pub src: NodeId,
    /// Destination endpoint of the packet.
    pub dest: NodeId,
    /// Input port the packet arrived on (`Local` at injection).
    pub input_port: Port,
    /// Input VC the packet occupies.
    pub input_vc: VcId,
    /// The packet is currently traveling on the escape channel and must obey
    /// the escape routing function (sticky escape under Duato's theory).
    pub on_escape: bool,
    /// VCs per physical channel.
    pub num_vcs: usize,
    /// Local output-VC state (credits, owners).
    pub ports: &'a dyn PortStateView,
    /// Remote congestion side-band (used by DBAR only).
    pub congestion: &'a dyn CongestionView,
    /// Link liveness under the active fault state ([`crate::AllLinksUp`]
    /// outside the simulator / without a fault plan).
    pub links: &'a dyn LinkStateView,
}

impl<'a> RoutingCtx<'a> {
    /// First adaptive VC index for this algorithm layout: the indices below
    /// it are the escape classes — the topology's escape-class count (1 on
    /// meshes, 2 on wrapping fabrics) when an escape layer exists, else 0.
    #[inline]
    pub fn adaptive_lo(&self, has_escape: bool) -> usize {
        if has_escape {
            self.topo.escape_vcs()
        } else {
            0
        }
    }

    /// `true` if taking `dir` here is useful for this packet: the link is
    /// up and the downstream router can still reach the destination (see
    /// [`LinkStateView::usable`]). Adaptive algorithms filter their
    /// candidate sets through this before selection.
    #[inline]
    pub fn usable(&self, dir: Direction) -> bool {
        self.links.usable(self.current, dir, self.src, self.dest)
    }

    /// The escape-channel direction for this packet: dimension-order (X
    /// first), the deadlock-free baseline route of Duato's theory.
    /// `None` when the packet is already at its destination router.
    ///
    /// Under faults the escape path degrades gracefully: if the X-first
    /// step is unusable the Y step is offered instead (the dimension-order
    /// restriction is what keeps the escape network acyclic, and the
    /// reduced channel set preserves acyclicity), and `None` is returned
    /// when neither productive step survives the mask.
    pub fn escape_dir(&self) -> Option<Direction> {
        let dirs = self.topo.minimal_dirs(self.current, self.dest);
        [dirs.x, dirs.y]
            .into_iter()
            .flatten()
            .find(|&d| self.usable(d))
    }

    /// The canonical lowest-priority escape request (Duato's
    /// always-requestable escape channel) for the escape hop `dir` (see
    /// [`RoutingCtx::escape_dir`]), on the escape-VC class of that
    /// channel. On meshes the class is always [`VcId::ESCAPE`]; wrapping
    /// topologies return class 0 or 1 by the dateline rule
    /// ([`footprint_topology::AnyTopology::escape_class`]).
    #[inline]
    pub fn escape_request(&self, dir: Direction) -> VcRequest {
        let class = self.topo.escape_class(self.current, self.dest, dir);
        VcRequest::new(Port::Dir(dir), VcId::from_index(usize::from(class)), Priority::Lowest)
    }
}

/// How an algorithm's deadlock-freedom argument extends to wrapping
/// topologies (torus, ring), where minimal routes can close cycles through
/// the wraparound channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WrapStrategy {
    /// The algorithm routes only on the acyclic (non-wraparound) channel
    /// subgraph — [`footprint_topology::AnyTopology::acyclic_minimal_dirs`] —
    /// so its mesh CDG argument applies verbatim (turn models).
    AcyclicSubgraph,
    /// Duato escape VCs with dateline classes: the topology's
    /// `escape_vcs()` lowest VC indices form a layered acyclic escape
    /// network (fully adaptive algorithms).
    EscapeVcs,
    /// Every channel's VCs are split into two dateline half-classes and the
    /// crossing rule picks the class per hop (DOR on tori and rings).
    DatelineVcClasses,
    /// No deadlock-freedom argument exists for this algorithm on wrapping
    /// topologies; network construction rejects the combination.
    Unsupported,
}

/// How an algorithm chooses virtual channels, used by the adaptiveness
/// metrics (§3.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcSelection {
    /// All usable VCs are requested indiscriminately — VC adaptiveness 0 by
    /// the paper's convention (DOR, Odd-Even, DBAR).
    Oblivious,
    /// VCs are classified and prioritized dynamically (Footprint) — VC
    /// adaptiveness per the paper's Eq. (3).
    Adaptive,
    /// A static destination→VC mapping (XORDET) — the two-level
    /// adaptiveness metrics are "N/A" per Table 1's footnote.
    StaticMapped,
}

/// A minimal routing algorithm producing prioritized VC requests.
///
/// Implementations are stateless with respect to individual packets: all
/// dynamic inputs arrive through the [`RoutingCtx`], so the same object can
/// be shared by every router in the network and re-evaluated every cycle
/// while a head packet waits for a VC grant (standing requests).
pub trait RoutingAlgorithm: Send + Sync {
    /// Short name used in reports and tables ("footprint", "dbar", ...).
    fn name(&self) -> &'static str;

    /// VC reallocation policy required for this algorithm's deadlock-freedom
    /// argument.
    fn policy(&self) -> VcReallocationPolicy;

    /// `true` if the lowest VC indices of every channel are reserved as
    /// Duato escape channels (VC 0 on meshes; the topology's `escape_vcs()`
    /// dateline classes on wrapping fabrics).
    fn has_escape(&self) -> bool;

    /// How this algorithm stays deadlock-free on wrapping topologies. The
    /// default matches the common cases: Duato-based algorithms extend via
    /// dateline escape classes, escape-free ones by restricting themselves
    /// to the acyclic channel subgraph.
    fn wrap_strategy(&self) -> WrapStrategy {
        if self.has_escape() {
            WrapStrategy::EscapeVcs
        } else {
            WrapStrategy::AcyclicSubgraph
        }
    }

    /// Minimum VCs per channel this algorithm needs on `topo` for its
    /// deadlock-freedom argument: every escape class plus one adaptive VC
    /// for Duato-based algorithms, two dateline half-classes for
    /// [`WrapStrategy::DatelineVcClasses`], one otherwise.
    fn min_vcs_on(&self, topo: AnyTopology) -> usize {
        if self.has_escape() {
            return topo.escape_vcs() + 1;
        }
        if topo.wraps() && self.wrap_strategy() == WrapStrategy::DatelineVcClasses {
            return 2;
        }
        1
    }

    /// How this algorithm selects VCs (for the adaptiveness metrics).
    fn vc_selection(&self) -> VcSelection {
        VcSelection::Oblivious
    }

    /// `true` if a busy VC whose owner destination matches the packet's
    /// destination may be granted to the packet (the footprint join of §3.3,
    /// which forms virtual set-aside queues).
    fn allows_footprint_join(&self) -> bool {
        false
    }

    /// Computes the VC requests for the head packet described by `ctx`,
    /// appending them to `out` (`out` is cleared by the caller).
    ///
    /// The destination router case (`ctx.current == ctx.dest`) must emit
    /// requests on [`Port::Local`].
    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>);

    /// Computes the VC requests used at packet *injection* (selecting a VC
    /// on the source-to-router channel). The default requests every VC the
    /// algorithm may use, at `Low` priority, with the escape VC at `Lowest`.
    fn injection_requests(
        &self,
        ctx: &RoutingCtx<'_>,
        _rng: &mut dyn RngCore,
        out: &mut Vec<VcRequest>,
    ) {
        let lo = ctx.adaptive_lo(self.has_escape());
        for v in lo..ctx.num_vcs {
            out.push(VcRequest::new(Port::Local, VcId::from_index(v), Priority::Low));
        }
        // Every escape class is requestable at injection (one on meshes).
        for v in 0..lo {
            out.push(VcRequest::new(Port::Local, VcId::from_index(v), Priority::Lowest));
        }
    }

    /// The set of output directions this algorithm could ever select at
    /// `cur` for a packet `src → dest`, independent of network state. Used
    /// by the adaptiveness metrics (§3.1); the default is fully adaptive
    /// (all minimal directions, wrap-aware on wrapping topologies).
    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        let _ = src;
        let mut set = DirSet::EMPTY;
        for d in topo.minimal_dirs(cur, dest).iter() {
            set.insert(d);
        }
        set
    }
}

/// Emits ejection requests at the destination router: every VC on the local
/// port. Shared by all algorithms (ejection is terminal, so no deadlock
/// restriction applies).
pub(crate) fn eject_requests(ctx: &RoutingCtx<'_>, out: &mut Vec<VcRequest>) {
    for v in 0..ctx.num_vcs {
        out.push(VcRequest::new(Port::Local, VcId::from_index(v), Priority::High));
    }
}

/// A small set of mesh directions (bitmask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DirSet(u8);

impl DirSet {
    /// The empty set.
    pub const EMPTY: DirSet = DirSet(0);

    fn bit(d: Direction) -> u8 {
        1 << (Port::Dir(d).index() - 1)
    }

    /// Inserts a direction.
    #[inline]
    pub fn insert(&mut self, d: Direction) {
        self.0 |= Self::bit(d);
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, d: Direction) -> bool {
        self.0 & Self::bit(d) != 0
    }

    /// Number of directions in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if no direction is allowed.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained directions.
    pub fn iter(self) -> impl Iterator<Item = Direction> {
        footprint_topology::DIRECTIONS
            .into_iter()
            .filter(move |&d| self.contains(d))
    }
}

impl FromIterator<Direction> for DirSet {
    fn from_iter<T: IntoIterator<Item = Direction>>(iter: T) -> Self {
        let mut s = DirSet::EMPTY;
        for d in iter {
            s.insert(d);
        }
        s
    }
}

/// The two-candidate pick every port selector ends in: `a` if `a_vs_b`
/// ranks it above `b`, `b` if below, and a coin flip — `Random(1)` in
/// Algorithm 1, the only RNG draw — on a full tie, so a run where one
/// candidate is masked or dominated consumes the same RNG sequence as one
/// where it never existed.
#[inline]
pub(crate) fn prefer<T>(a: T, b: T, a_vs_b: Ordering, rng: &mut dyn RngCore) -> T {
    match a_vs_b {
        Ordering::Greater => a,
        Ordering::Less => b,
        Ordering::Equal if rng.next_u32() & 1 == 1 => a,
        Ordering::Equal => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::AllLinksUp;
    use crate::DownLinks;
    use crate::NoCongestionInfo;
    use crate::TablePortView;

    fn ctx<'a>(
        view: &'a TablePortView,
        cong: &'a NoCongestionInfo,
        cur: u16,
        dest: u16,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(4, 4),
            current: NodeId(cur),
            src: NodeId(0),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 4,
            ports: view,
            congestion: cong,
            links: &AllLinksUp,
        }
    }

    #[test]
    fn dirset_insert_and_iter() {
        let mut s = DirSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Direction::East);
        s.insert(Direction::North);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Direction::East));
        assert!(!s.contains(Direction::West));
        let dirs: Vec<_> = s.iter().collect();
        assert_eq!(dirs, vec![Direction::East, Direction::North]);
    }

    #[test]
    fn dirset_from_iterator() {
        let s: DirSet = [Direction::South, Direction::South, Direction::West]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn escape_dir_is_dimension_order() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        // (0,0) → (2,2): X first.
        let c = ctx(&view, &cong, 0, 10);
        assert_eq!(c.escape_dir(), Some(Direction::East));
        // Same column: Y.
        let c = ctx(&view, &cong, 2, 10);
        assert_eq!(c.escape_dir(), Some(Direction::North));
        // At destination: none.
        let c = ctx(&view, &cong, 10, 10);
        assert_eq!(c.escape_dir(), None);
    }

    #[test]
    fn escape_dir_falls_back_to_y_under_faults() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        // (0,0) → (2,2) with the East link out of n0 dead: escape falls
        // back to the Y step.
        let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
        let mut c = ctx(&view, &cong, 0, 10);
        c.links = &faults;
        assert_eq!(c.escape_dir(), Some(Direction::North));
        assert!(!c.usable(Direction::East));
        assert!(c.usable(Direction::North));
        // Both productive steps dead: no escape direction survives.
        let faults = DownLinks::new(vec![
            (NodeId(0), Direction::East),
            (NodeId(0), Direction::North),
        ]);
        let mut c = ctx(&view, &cong, 0, 10);
        c.links = &faults;
        assert_eq!(c.escape_dir(), None);
    }

    #[test]
    fn adaptive_lo_depends_on_escape() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let c = ctx(&view, &cong, 0, 10);
        assert_eq!(c.adaptive_lo(true), 1);
        assert_eq!(c.adaptive_lo(false), 0);
    }

    #[test]
    fn eject_requests_cover_all_local_vcs() {
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        let c = ctx(&view, &cong, 10, 10);
        let mut out = Vec::new();
        eject_requests(&c, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.port == Port::Local));
        assert!(out.iter().all(|r| r.priority == Priority::High));
    }
}

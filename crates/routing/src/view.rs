//! Read-only views of router and network state consumed by routing
//! algorithms.
//!
//! The simulator implements these traits; the routing crate only consumes
//! them, which keeps the dependency arrow pointing from `footprint-sim` to
//! `footprint-routing` (and never back).

use crate::VcId;
use footprint_topology::{Direction, NodeId, Port};

/// Snapshot of one output VC's state, as visible to the local router.
///
/// Everything here is *local* knowledge: credit counters and the VC-owner
/// registers that the paper's §4.4 costs out (a `log2(N)`-bit "owner" per VC).
/// Footprint explicitly uses no remote congestion notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VcView {
    /// The VC is available for a fresh allocation under the active
    /// reallocation policy (atomic for Duato-based algorithms: fully drained
    /// with all credits returned; non-atomic otherwise: tail forwarded).
    pub idle: bool,
    /// Destination of the packet(s) currently occupying the VC, if any.
    /// This is the "owner" register that footprint-VC detection compares
    /// against the packet's destination.
    pub owner: Option<NodeId>,
    /// Free downstream buffer slots.
    pub credits: u32,
    /// A same-destination packet could be appended right now (previous tail
    /// already forwarded and at least one credit available).
    pub joinable: bool,
}

impl VcView {
    /// `true` if the VC currently holds (or is draining) traffic — i.e. it is
    /// not idle.
    #[inline]
    pub fn busy(&self) -> bool {
        !self.idle
    }

    /// `true` if the VC is a footprint VC for destination `dest`: its owner
    /// register holds the same destination (§3.2). The register persists
    /// after the VC drains, so a freshly drained VC remains its
    /// destination's footprint until another packet claims it.
    #[inline]
    pub fn is_footprint_for(&self, dest: NodeId) -> bool {
        self.owner == Some(dest)
    }

    /// Classifies this VC relative to destination `dest`. An owner-register
    /// match is a footprint regardless of occupancy (a drained VC stays
    /// this destination's footprint until another packet claims it).
    #[inline]
    pub fn class_for(&self, dest: NodeId) -> VcClass {
        if self.is_footprint_for(dest) {
            VcClass::Footprint
        } else if self.idle {
            VcClass::Idle
        } else {
            VcClass::Busy
        }
    }
}

/// Classification of one VC relative to a packet's destination — the three
/// tiers of Algorithm 1 step 3 (shared by Footprint and the overlay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcClass {
    /// Available for fresh allocation, no owner match.
    Idle,
    /// Owner register matches the destination (§3.2).
    Footprint,
    /// Occupied by another destination's traffic.
    Busy,
}

/// Per-router view of all output-port VC states.
pub trait PortStateView {
    /// Number of VCs per physical channel.
    fn num_vcs(&self) -> usize;

    /// Snapshot of VC `vc` at output port `port`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the port has no attached channel (e.g. a
    /// mesh-edge direction); routing algorithms only query minimal —
    /// therefore attached — ports, plus `Local`.
    fn vc(&self, port: Port, vc: VcId) -> VcView;

    /// Number of idle VCs at `port` among the VC index range `[lo, hi)`.
    fn idle_count(&self, port: Port, lo: usize, hi: usize) -> usize {
        (lo..hi)
            .filter(|&v| self.vc(port, VcId::from_index(v)).idle)
            .count()
    }

    /// Packed per-class VC bitmasks for destination `dest` at `port` over
    /// `[lo, hi)`: bit `v` of the first mask marks an idle VC, of the
    /// second a footprint VC; busy VCs are the remaining bits of the
    /// range. One bulk call per port instead of a virtual
    /// [`PortStateView::vc`] dispatch per VC — callers derive the class
    /// counts with `count_ones` and emit requests by ascending bit
    /// iteration (grant arbitration depends on that VC-index order).
    /// Backing stores with contiguous per-port state override this with a
    /// flat array scan; the default walks `vc` so table-backed test views
    /// stay correct for free. Requires `hi <= 64` (the simulator's
    /// VC-count ceiling).
    fn class_masks(&self, port: Port, dest: NodeId, lo: usize, hi: usize) -> (u64, u64) {
        debug_assert!(hi <= 64, "class_masks packs VC indices into u64 bits");
        let (mut idle, mut fp) = (0u64, 0u64);
        for v in lo..hi {
            match self.vc(port, VcId::from_index(v)).class_for(dest) {
                VcClass::Idle => idle |= 1 << v,
                VcClass::Footprint => fp |= 1 << v,
                VcClass::Busy => {}
            }
        }
        (idle, fp)
    }
}

/// Link liveness and usability, as surfaced to routing algorithms by the
/// fault-injection subsystem.
///
/// Routing algorithms consult this view to exclude faulted output ports
/// from their candidate sets (via [`crate::RoutingCtx::usable`]). The
/// default implementation — and the [`AllLinksUp`] fixture — reports every
/// link healthy, so a network without a fault plan never pays for the
/// indirection in changed behaviour.
pub trait LinkStateView {
    /// `true` if the directed channel leaving `node` toward `dir` currently
    /// accepts new traffic (it may still be degraded in bandwidth).
    fn link_up(&self, node: NodeId, dir: Direction) -> bool {
        let _ = (node, dir);
        true
    }

    /// `true` if taking `dir` at `node` is *useful* for a packet
    /// `src → dest`: the link is up and the downstream router can still
    /// reach `dest` under this network's routing function and fault state.
    /// This keeps adaptive packets from entering dead-end regions a healthy
    /// first hop would otherwise hide.
    fn usable(&self, node: NodeId, dir: Direction, src: NodeId, dest: NodeId) -> bool {
        let _ = (src, dest);
        self.link_up(node, dir)
    }
}

/// A [`LinkStateView`] with no faults anywhere — the state of a healthy
/// network, and the default for contexts built outside the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllLinksUp;

impl LinkStateView for AllLinksUp {}

/// Network-level congestion information used by DBAR's selection function.
///
/// DBAR propagates per-channel occupancy along each dimension through a
/// side-band network; the simulator models that side band and exposes it
/// through this trait. Algorithms that use only local state (DOR, Odd-Even,
/// Footprint) never call it.
pub trait CongestionView {
    /// `true` if the channel leaving `node` in direction `dir` is congested
    /// (downstream input-buffer occupancy at or above the DBAR threshold,
    /// V/2 in the paper's configuration).
    fn channel_congested(&self, node: NodeId, dir: Direction) -> bool;
}

/// A [`CongestionView`] that reports no congestion anywhere. Useful for unit
/// tests and for algorithms that ignore remote state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCongestionInfo;

impl CongestionView for NoCongestionInfo {
    fn channel_congested(&self, _node: NodeId, _dir: Direction) -> bool {
        false
    }
}

/// An in-memory [`LinkStateView`] for tests: an explicit list of dead
/// directed channels. `usable` inherits the default (liveness only).
///
/// ```
/// use footprint_routing::{DownLinks, LinkStateView};
/// use footprint_topology::{Direction, NodeId};
///
/// let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
/// assert!(!faults.link_up(NodeId(0), Direction::East));
/// assert!(faults.link_up(NodeId(0), Direction::North));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DownLinks {
    down: Vec<(NodeId, Direction)>,
}

impl DownLinks {
    /// Creates a view where exactly the listed directed channels are down.
    pub fn new(down: Vec<(NodeId, Direction)>) -> Self {
        DownLinks { down }
    }
}

impl LinkStateView for DownLinks {
    fn link_up(&self, node: NodeId, dir: Direction) -> bool {
        !self.down.contains(&(node, dir))
    }
}

/// An in-memory [`PortStateView`] for tests: a table of [`VcView`]s.
///
/// ```
/// use footprint_routing::{TablePortView, VcView, VcId, PortStateView};
/// use footprint_topology::{Port, Direction};
///
/// let mut t = TablePortView::new(4);
/// t.set(Port::Dir(Direction::East), VcId(1), VcView { idle: true, credits: 4, ..Default::default() });
/// assert_eq!(t.idle_count(Port::Dir(Direction::East), 0, 4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TablePortView {
    num_vcs: usize,
    table: Vec<VcView>, // [port][vc]
}

impl TablePortView {
    /// Creates a view with `num_vcs` VCs per port, all defaulted (busy,
    /// no owner, zero credits).
    pub fn new(num_vcs: usize) -> Self {
        TablePortView {
            num_vcs,
            table: vec![VcView::default(); footprint_topology::PORT_COUNT * num_vcs],
        }
    }

    /// Creates a view where every VC is idle with `credits` credits — the
    /// zero-load network state.
    pub fn all_idle(num_vcs: usize, credits: u32) -> Self {
        let mut v = Self::new(num_vcs);
        for slot in &mut v.table {
            *slot = VcView {
                idle: true,
                owner: None,
                credits,
                joinable: false,
            };
        }
        v
    }

    /// Sets the state of one VC.
    pub fn set(&mut self, port: Port, vc: VcId, view: VcView) {
        let idx = port.index() * self.num_vcs + vc.index();
        self.table[idx] = view;
    }
}

impl PortStateView for TablePortView {
    fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    fn vc(&self, port: Port, vc: VcId) -> VcView {
        self.table[port.index() * self.num_vcs + vc.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::Direction;

    #[test]
    fn footprint_detection_requires_busy_and_matching_owner() {
        let v = VcView {
            idle: false,
            owner: Some(NodeId(13)),
            credits: 2,
            joinable: true,
        };
        assert!(v.is_footprint_for(NodeId(13)));
        assert!(!v.is_footprint_for(NodeId(12)));
        let idle = VcView {
            idle: true,
            owner: None,
            credits: 4,
            joinable: false,
        };
        assert!(!idle.is_footprint_for(NodeId(13)));
    }

    #[test]
    fn table_view_counts() {
        let mut t = TablePortView::new(4);
        let e = Port::Dir(Direction::East);
        t.set(
            e,
            VcId(0),
            VcView {
                idle: true,
                credits: 4,
                ..Default::default()
            },
        );
        t.set(
            e,
            VcId(1),
            VcView {
                idle: false,
                owner: Some(NodeId(7)),
                credits: 1,
                joinable: true,
            },
        );
        assert_eq!(t.idle_count(e, 0, 4), 1);
        assert_eq!(t.idle_count(e, 1, 4), 0);
        assert_eq!(t.class_masks(e, NodeId(7), 0, 4), (0b0001, 0b0010));
        assert_eq!(t.class_masks(e, NodeId(8), 0, 4), (0b0001, 0));
    }

    #[test]
    fn all_idle_view_is_uncongested() {
        let t = TablePortView::all_idle(10, 4);
        assert_eq!(t.idle_count(Port::Local, 0, 10), 10);
        assert_eq!(t.num_vcs(), 10);
    }

    #[test]
    fn no_congestion_info_is_always_clear() {
        let info = NoCongestionInfo;
        assert!(!info.channel_congested(NodeId(0), Direction::East));
    }
}

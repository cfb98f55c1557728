//! The [`Topology`] trait: the contract every fabric shape implements.
//!
//! The simulator, the routing algorithms and the fault subsystem consume
//! topology through this interface (usually via the [`AnyTopology`]
//! dispatch enum), so adding a fabric shape means implementing this trait
//! — not touching the datapath.
//!
//! The contract has three parts:
//!
//! * **Geometry** — node enumeration, `(x, y)` coordinates, per-direction
//!   neighbor lookup and directed-channel enumeration. All current
//!   topologies use the four-direction port alphabet ([`Direction`]); a
//!   dimension a topology does not use (e.g. Y on a ring) simply has no
//!   neighbors.
//! * **Metric** — minimal hop count ([`Topology::hops`]), the productive
//!   directions toward a destination ([`Topology::minimal_dirs`], which is
//!   wraparound-aware on tori and rings) and the number of minimal paths.
//! * **Escape routing** — the canonical deadlock-free baseline of Duato's
//!   theory: how many escape VCs the topology needs
//!   ([`Topology::escape_vcs`]) and which escape VC class a given hop must
//!   use ([`Topology::escape_class`]). Meshes need one escape VC; wrapping
//!   topologies need two, assigned by the dateline rule (see the torus
//!   module docs for the acyclicity argument).
//!
//! [`AnyTopology`]: crate::AnyTopology

use crate::{Channel, Coord, Direction, MinimalDirs, NodeId, DIRECTIONS};
use core::fmt;

/// A network fabric shape: node/channel enumeration, neighbor map,
/// coordinate and hop metric, and the canonical deadlock-free escape
/// routing function.
///
/// Implementations are small `Copy` value types (a couple of dimension
/// fields); every method takes `&self` so the trait stays usable in
/// generic property tests, while the hot paths dispatch through the
/// [`crate::AnyTopology`] enum.
pub trait Topology: Copy + fmt::Display {
    /// Short identifier used in reports and error messages
    /// ("mesh", "torus", "ring", ...).
    fn kind_name(&self) -> &'static str;

    /// Extent in X (number of columns).
    fn width(&self) -> u16;

    /// Extent in Y (number of rows). 1 for one-dimensional topologies.
    fn height(&self) -> u16;

    /// Total number of nodes.
    fn len(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// `true` for the degenerate single-node fabric (never constructible
    /// through a validated [`crate::TopologySpec`]).
    fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Iterates over all node ids in index order.
    fn nodes(&self) -> NodeIter {
        NodeIter(0..self.len() as u32)
    }

    /// The coordinate of `node` (row-major: `id = y * width + x`).
    fn coord(&self, node: NodeId) -> Coord {
        debug_assert!(node.index() < self.len(), "node out of range");
        Coord {
            x: node.0 % self.width(),
            y: node.0 / self.width(),
        }
    }

    /// The node at coordinate `c`.
    fn node_at(&self, c: Coord) -> NodeId {
        debug_assert!(self.contains(c), "coord out of range");
        NodeId(c.y * self.width() + c.x)
    }

    /// `true` if `c` lies inside the coordinate grid.
    fn contains(&self, c: Coord) -> bool {
        c.x < self.width() && c.y < self.height()
    }

    /// The neighbor of `node` in direction `dir`, or `None` when the
    /// topology has no channel there (a mesh edge, the Y dimension of a
    /// ring). Wrapping topologies return the wrapped node.
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Minimal hop count between two routers under this topology's metric
    /// (Manhattan on meshes, wrap-reduced per dimension on tori/rings).
    fn hops(&self, a: NodeId, b: NodeId) -> u32;

    /// The productive (distance-reducing) directions from `cur` toward
    /// `dst`: at most one X and one Y direction. Wrap-aware: on a torus the
    /// shorter way around each dimension is chosen, with a deterministic
    /// tie-break (East / North) at exactly half the ring.
    fn minimal_dirs(&self, cur: NodeId, dst: NodeId) -> MinimalDirs;

    /// The productive directions *on the acyclic (non-wraparound) subgraph*
    /// — the grid directions a mesh of the same dimensions would offer.
    /// Turn-model algorithms (Odd-Even, West-First, North-Last) route on
    /// this subgraph when the topology wraps: their turn restrictions prove
    /// deadlock freedom only for the spanning grid, so they trade the
    /// wraparound shortcut for the existing acyclicity argument.
    fn acyclic_minimal_dirs(&self, cur: NodeId, dst: NodeId) -> MinimalDirs;

    /// Number of minimal paths between `a` and `b` (used by the
    /// adaptiveness metrics). On wrapping topologies this counts the paths
    /// inside the quadrant selected by [`Topology::minimal_dirs`].
    fn minimal_path_count(&self, a: NodeId, b: NodeId) -> u64;

    /// Iterates over every directed inter-router channel.
    fn channels(&self) -> ChannelIter<Self> {
        ChannelIter {
            topo: *self,
            node: 0,
            dir: 0,
            len: self.len() as u32,
        }
    }

    /// `true` if any dimension wraps around (torus, ring).
    /// Wrapping fabrics need dateline escape-VC classes; meshes do not.
    fn wraps(&self) -> bool;

    /// `true` if the directed channel leaving `node` toward `dir` is a
    /// wraparound (dateline) channel. Always `false` on acyclic fabrics.
    ///
    /// The default implementation covers every current fabric: node ids
    /// grow along each positive direction (East, North), so a
    /// positive-direction hop is a wrap exactly when the downstream id
    /// *decreases*, and mirrored for the negative directions. These are
    /// precisely the channels excluded from escape class 0 by the dateline
    /// rule, which is what makes cutting one interesting: the class-1
    /// subgraph loses its acyclicity *witness* structure and must be
    /// re-checked under the fault mask.
    fn is_wrap_channel(&self, node: NodeId, dir: Direction) -> bool {
        if !self.wraps() {
            return false;
        }
        match self.neighbor(node, dir) {
            None => false,
            Some(next) => match dir {
                Direction::East | Direction::North => next.0 < node.0,
                Direction::West | Direction::South => next.0 > node.0,
            },
        }
    }

    /// Number of VCs reserved for the Duato escape layer by algorithms
    /// that use one: 1 on acyclic fabrics, 2 on wrapping fabrics (the
    /// dateline needs a pre-crossing and a post-crossing class).
    fn escape_vcs(&self) -> usize {
        if self.wraps() {
            2
        } else {
            1
        }
    }

    /// The escape-VC class (`0..escape_vcs`) a packet destined to `dst`
    /// must use on the channel leaving `cur` in direction `dir`.
    ///
    /// Always 0 on acyclic fabrics. On wrapping fabrics this implements
    /// the dateline rule *statelessly* — the class is a pure function of
    /// the channel's downstream coordinate and the destination, so
    /// adaptive algorithms need no per-packet crossing history:
    ///
    /// * eastbound channel into `next`: class 0 while `next.x > dst.x`
    ///   (the wrap edge still ahead), class 1 once `next.x <= dst.x`;
    /// * westbound: class 0 while `next.x < dst.x`, class 1 once
    ///   `next.x >= dst.x`; North/South identically on Y.
    ///
    /// Class 0 therefore never contains a wrap channel, class transitions
    /// are one-way (0 → 1 exactly at the dateline crossing), and dimension
    /// order adds only X → Y edges — the escape channel-dependence graph
    /// is acyclic. See `DESIGN.md` for the full argument.
    fn escape_class(&self, cur: NodeId, dst: NodeId, dir: Direction) -> u8;
}

/// Iterator over a topology's node ids (see [`Topology::nodes`]).
#[derive(Debug, Clone)]
pub struct NodeIter(core::ops::Range<u32>);

impl Iterator for NodeIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|i| NodeId(i as u16))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for NodeIter {}

/// Iterator over a topology's directed channels (see
/// [`Topology::channels`]).
#[derive(Debug, Clone)]
pub struct ChannelIter<T> {
    topo: T,
    node: u32,
    dir: usize,
    len: u32,
}

impl<T: Topology> Iterator for ChannelIter<T> {
    type Item = Channel;

    fn next(&mut self) -> Option<Channel> {
        while self.node < self.len {
            if self.dir >= DIRECTIONS.len() {
                self.dir = 0;
                self.node += 1;
                continue;
            }
            let dir = DIRECTIONS[self.dir];
            self.dir += 1;
            let src = NodeId(self.node as u16);
            if let Some(dst) = self.topo.neighbor(src, dir) {
                return Some(Channel { src, dir, dst });
            }
        }
        None
    }
}

/// Shared per-dimension wrap arithmetic for torus-like topologies.
///
/// `k` is the dimension extent, `cur`/`dst` positions in it, and
/// (`pos`, `neg`) the direction pair for increasing/decreasing positions
/// (East/West on X, North/South on Y).
pub(crate) mod wrap {
    use crate::Direction;

    /// Distance traveling in the increasing (`pos`) direction.
    #[inline]
    pub fn fwd_dist(cur: u16, dst: u16, k: u16) -> u16 {
        (dst + k - cur) % k
    }

    /// Wrap-reduced distance: the shorter way around.
    #[inline]
    pub fn dist(cur: u16, dst: u16, k: u16) -> u32 {
        let f = fwd_dist(cur, dst, k);
        u32::from(f.min(k - f))
    }

    /// The minimal direction in this dimension, `None` at the destination
    /// position. Ties at exactly `k/2` break toward `pos` (East / North),
    /// deterministically.
    #[inline]
    pub fn minimal_dir(cur: u16, dst: u16, k: u16, pos: Direction, neg: Direction) -> Option<Direction> {
        let f = fwd_dist(cur, dst, k);
        if f == 0 {
            None
        } else if f <= k - f {
            Some(pos)
        } else {
            Some(neg)
        }
    }

    /// The dateline escape-VC class for the channel from `cur` into `next`
    /// traveling `forward` (`true` = the increasing direction): 0 while the
    /// wrap edge is still ahead of `next`, 1 from the wrap channel onward
    /// (and for journeys that never cross). See
    /// [`Topology::escape_class`](super::Topology::escape_class).
    #[inline]
    pub fn escape_class(next: u16, dst: u16, forward: bool) -> u8 {
        let pre_dateline = if forward { next > dst } else { next < dst };
        u8::from(!pre_dateline)
    }
}

#[cfg(test)]
mod tests {
    use super::wrap;
    use crate::Direction;

    #[test]
    fn fwd_dist_wraps() {
        assert_eq!(wrap::fwd_dist(6, 1, 8), 3);
        assert_eq!(wrap::fwd_dist(1, 6, 8), 5);
        assert_eq!(wrap::fwd_dist(3, 3, 8), 0);
    }

    #[test]
    fn dist_takes_shorter_way() {
        assert_eq!(wrap::dist(0, 7, 8), 1);
        assert_eq!(wrap::dist(0, 4, 8), 4);
        assert_eq!(wrap::dist(2, 5, 8), 3);
    }

    #[test]
    fn minimal_dir_breaks_ties_forward() {
        use Direction::{East, West};
        // Distance 4 both ways on k=8: East wins deterministically.
        assert_eq!(wrap::minimal_dir(0, 4, 8, East, West), Some(East));
        assert_eq!(wrap::minimal_dir(0, 7, 8, East, West), Some(West));
        assert_eq!(wrap::minimal_dir(0, 2, 8, East, West), Some(East));
        assert_eq!(wrap::minimal_dir(5, 5, 8, East, West), None);
    }

    #[test]
    fn escape_class_crosses_exactly_once() {
        // Eastbound 6 → 2 on k=8: hops into 7 (class 0), 0 (wrap: class 1),
        // 1 (class 1), 2 (class 1).
        assert_eq!(wrap::escape_class(7, 2, true), 0);
        assert_eq!(wrap::escape_class(0, 2, true), 1);
        assert_eq!(wrap::escape_class(1, 2, true), 1);
        // Non-crossing eastbound journeys stay in class 1 throughout.
        assert_eq!(wrap::escape_class(1, 3, true), 1);
        // Westbound mirror: 2 → 6 crosses at the 0 → 7 wrap channel.
        assert_eq!(wrap::escape_class(1, 6, false), 0);
        assert_eq!(wrap::escape_class(7, 6, false), 1);
        assert_eq!(wrap::escape_class(6, 6, false), 1);
    }
}

//! [`AnyTopology`]: every fabric shape as one grid value.
//!
//! A fabric is a `width × height` grid of routers, numbered row-major
//! (`id = y * width + x`), with East/West channels along X and
//! North/South along Y. A mesh stops at its edges; a torus closes every
//! row and column with a wraparound channel; a ring is the `n × 1` torus.
//! BookSim models mesh and torus the same way — one k-ary n-cube class
//! with a `mesh` flag — and so does this module: every query is written
//! once, per dimension, and asks only whether the fabric wraps. A step off
//! an edge wraps only when `wraps && extent > 1`, so a ring's one-node Y
//! dimension has no channels.
//!
//! # Deadlock-free escape on a wrapping fabric (the dateline argument)
//!
//! Each wrapping dimension is a ring, and a ring's channel-dependence
//! graph is a cycle — dimension-order routing alone is *not* deadlock-free
//! the way it is on a mesh. The classical fix (Dally's dateline) splits
//! every escape channel into two VC classes: a packet travels in class 0
//! until it crosses the wrap edge of the dimension, then switches to
//! class 1 and stays there; packets whose journey never crosses use
//! class 1 throughout.
//!
//! The dateline is implemented *statelessly*: the class of a hop is a
//! pure function of the hop's downstream coordinate and the packet's
//! destination ([`AnyTopology::escape_class`]), so adaptive algorithms
//! need no per-packet crossing flag. Acyclicity, per dimension and
//! direction of travel:
//!
//! * **Class 0** (`next` still on the far side of the destination in the
//!   travel direction) never contains the wrap channel — eastbound the
//!   wrap channel lands on column 0, and `0 > dst.x` is impossible. A set
//!   of same-direction ring channels minus the wrap edge is a line:
//!   acyclic.
//! * **Class 1** contains the wrap channel, but the only request for the
//!   wrap channel in class 1 comes from a packet *currently in class 0*
//!   (at the node just before the dateline, `next > dst.x` still held one
//!   hop earlier). Within class 1 every dependency steps monotonically
//!   toward the destination without re-crossing, so class 1 is a line
//!   rooted at the wrap channel: acyclic.
//! * Transitions are one-way (0 → 1 exactly at the dateline) and the
//!   escape route is dimension-ordered, adding only X → Y edges.
//!
//! Layering the classes `X₀ < X₁ < Y₀ < Y₁` with only forward edges makes
//! the full escape channel-dependence graph acyclic, which is what
//! [`AnyTopology::escape_vcs`]` == 2` buys. The property tests in the
//! workspace root verify the acyclicity claim by explicit CDG
//! construction.

use crate::{Coord, Direction, NodeId, DIRECTIONS};
use core::cmp::Ordering;
use core::fmt;

/// A fabric: a `width × height` router grid that wraps or does not.
///
/// Built by [`AnyTopology::mesh`], [`AnyTopology::torus`],
/// [`AnyTopology::ring`] or [`crate::TopologySpec::validate`]; a small
/// `Copy` value the simulator and the routing algorithms pass by value.
///
/// ```
/// use footprint_topology::{AnyTopology, Direction, NodeId};
/// let m = AnyTopology::mesh(4, 4);
/// let t = AnyTopology::torus(4, 4);
/// assert_eq!(m.neighbor(NodeId(3), Direction::East), None);
/// assert_eq!(t.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
/// // n13 = (1, 3): the endpoint oversubscribed in the paper's Figure 2.
/// assert_eq!(m.coord(NodeId(13)).x, 1);
/// // The wrap halves worst-case distance vs. the 4x4 mesh (6 hops).
/// assert_eq!(t.hops(NodeId(0), NodeId(15)), 2);
/// assert_eq!(m.escape_vcs(), 1);
/// assert_eq!(t.escape_vcs(), 2);
/// let r = AnyTopology::ring(8);
/// assert_eq!(r.neighbor(NodeId(0), Direction::North), None);
/// assert_eq!(r.hops(NodeId(1), NodeId(7)), 2); // the short way around
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnyTopology {
    width: u16,
    height: u16,
    wraps: bool,
}

/// The minimal (productive) directions from a node toward a destination:
/// at most one X direction and one Y direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinimalDirs {
    /// The productive X direction, if the destination is in a different column.
    pub x: Option<Direction>,
    /// The productive Y direction, if the destination is in a different row.
    pub y: Option<Direction>,
}

impl MinimalDirs {
    /// Number of productive directions (0, 1 or 2). Zero means the packet has
    /// arrived at its destination router.
    #[inline]
    pub fn count(self) -> usize {
        self.x.is_some() as usize + self.y.is_some() as usize
    }

    /// Iterates over the productive directions, X first.
    pub fn iter(self) -> impl Iterator<Item = Direction> {
        self.x.into_iter().chain(self.y)
    }

    /// `true` if `dir` is one of the productive directions.
    #[inline]
    pub fn contains(self, dir: Direction) -> bool {
        self.x == Some(dir) || self.y == Some(dir)
    }
}

/// A directed inter-router channel `src → dst`, identified by its source
/// router and output direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Upstream router.
    pub src: NodeId,
    /// Direction of travel (output port of `src`).
    pub dir: Direction,
    /// Downstream router.
    pub dst: NodeId,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.src, self.dst)
    }
}

impl AnyTopology {
    /// Minimum extent of a wrapping dimension (every torus dimension, the
    /// ring's node count): below 3 the wrap channel would double a direct
    /// channel.
    pub const MIN_WRAP_EXTENT: u16 = 3;

    /// A `width × height` 2D mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count would overflow
    /// `u16` ids.
    pub fn mesh(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        Self::grid(width, height, false)
    }

    /// A `width × height` 2D torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below [`Self::MIN_WRAP_EXTENT`] or
    /// the node count would overflow `u16` ids. Use
    /// [`crate::TopologySpec::validate`] for a non-panicking, typed check.
    pub fn torus(width: u16, height: u16) -> Self {
        assert!(
            width >= Self::MIN_WRAP_EXTENT && height >= Self::MIN_WRAP_EXTENT,
            "torus dimensions must be at least {}",
            Self::MIN_WRAP_EXTENT
        );
        Self::grid(width, height, true)
    }

    /// An `n`-node bidirectional ring: the `n × 1` torus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below [`Self::MIN_WRAP_EXTENT`].
    pub fn ring(nodes: u16) -> Self {
        assert!(
            nodes >= Self::MIN_WRAP_EXTENT,
            "ring needs at least {} nodes",
            Self::MIN_WRAP_EXTENT
        );
        Self::grid(nodes, 1, true)
    }

    fn grid(width: u16, height: u16, wraps: bool) -> Self {
        let t = AnyTopology { width, height, wraps };
        assert!(t.len() <= usize::from(u16::MAX) + 1, "{} too large for u16 node ids", t.kind_name());
        t
    }

    /// Short identifier ("mesh", "torus", "ring").
    #[inline]
    pub fn kind_name(self) -> &'static str {
        match (self.wraps, self.height) {
            (false, _) => "mesh",
            (true, 1) => "ring",
            (true, _) => "torus",
        }
    }

    /// Extent in X (number of columns).
    #[inline]
    pub fn width(self) -> u16 {
        self.width
    }

    /// Extent in Y (1 on a ring).
    #[inline]
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// `true` only for the degenerate single-node fabric (never
    /// constructible through a validated [`crate::TopologySpec`]).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() <= 1
    }

    /// Iterates over all node ids in index order.
    #[inline]
    pub fn nodes(self) -> NodeIter {
        NodeIter(0..self.len() as u32)
    }

    /// The coordinate of `node` (row-major: `id = y * width + x`).
    #[inline]
    pub fn coord(self, node: NodeId) -> Coord {
        debug_assert!(node.index() < self.len(), "node out of range");
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// The node at coordinate `c`.
    #[inline]
    pub fn node_at(self, c: Coord) -> NodeId {
        debug_assert!(self.contains(c), "coord out of range");
        NodeId(c.y * self.width + c.x)
    }

    /// `true` if `c` lies inside the coordinate grid.
    #[inline]
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// The neighbor of `node` in `dir`, or `None` where no channel exists
    /// (a mesh edge, the Y dimension of a ring). Wrapping fabrics return
    /// the wrapped node.
    #[inline]
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let Coord { x, y } = self.coord(node);
        let c = match dir {
            Direction::East => Coord::new(self.step(x, self.width, true)?, y),
            Direction::West => Coord::new(self.step(x, self.width, false)?, y),
            Direction::North => Coord::new(x, self.step(y, self.height, true)?),
            Direction::South => Coord::new(x, self.step(y, self.height, false)?),
        };
        Some(self.node_at(c))
    }

    /// One step from `pos` along a dimension of extent `k`.
    #[inline]
    fn step(self, pos: u16, k: u16, forward: bool) -> Option<u16> {
        let next = if forward { pos + 1 } else { pos.wrapping_sub(1) };
        if next < k {
            Some(next)
        } else {
            (self.wraps && k > 1).then_some(if forward { 0 } else { k - 1 })
        }
    }

    /// Distance from `cur` to `dst` along a dimension of extent `k`.
    #[inline]
    fn dist(self, cur: u16, dst: u16, k: u16) -> u32 {
        if self.wraps {
            wrap::dist(cur, dst, k)
        } else {
            u32::from(cur.abs_diff(dst))
        }
    }

    /// Minimal hop count: `|Δ|` per dimension on a mesh, the wrap
    /// distance per dimension on a wrapping fabric.
    #[inline]
    pub fn hops(self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        self.dist(ca.x, cb.x, self.width) + self.dist(ca.y, cb.y, self.height)
    }

    /// The productive (distance-reducing) directions from `cur` toward
    /// `dst`: at most one X and one Y direction. Wrap-aware: on a wrapping
    /// fabric the shorter way around each dimension is chosen, with a
    /// deterministic tie-break (East / North) at exactly half the ring.
    ///
    /// ```
    /// use footprint_topology::{AnyTopology, Direction, NodeId};
    /// let mesh = AnyTopology::mesh(4, 4);
    /// let dirs = mesh.minimal_dirs(NodeId(0), NodeId(10)); // (0,0) → (2,2)
    /// assert_eq!(dirs.x, Some(Direction::East));
    /// assert_eq!(dirs.y, Some(Direction::North));
    /// assert_eq!(dirs.count(), 2);
    /// ```
    #[inline]
    pub fn minimal_dirs(self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        if !self.wraps {
            return self.acyclic_minimal_dirs(cur, dst);
        }
        let (c, d) = (self.coord(cur), self.coord(dst));
        MinimalDirs {
            x: wrap::minimal_dir(c.x, d.x, self.width, Direction::East, Direction::West),
            y: wrap::minimal_dir(c.y, d.y, self.height, Direction::North, Direction::South),
        }
    }

    /// The productive directions *on the acyclic (non-wraparound) subgraph*
    /// — the grid directions a mesh of the same dimensions would offer.
    /// Turn-model algorithms (Odd-Even, West-First, North-Last) route on
    /// this subgraph when the fabric wraps: their turn restrictions prove
    /// deadlock freedom only for the spanning grid, so they trade the
    /// wraparound shortcut for the existing acyclicity argument.
    #[inline]
    pub fn acyclic_minimal_dirs(self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        let (c, d) = (self.coord(cur), self.coord(dst));
        let toward = |cur: u16, dst: u16, pos, neg| match dst.cmp(&cur) {
            Ordering::Greater => Some(pos),
            Ordering::Less => Some(neg),
            Ordering::Equal => None,
        };
        MinimalDirs {
            x: toward(c.x, d.x, Direction::East, Direction::West),
            y: toward(c.y, d.y, Direction::North, Direction::South),
        }
    }

    /// Number of minimal paths between `a` and `b`, `C(dx + dy, min(dx,
    /// dy))` over the distances of [`AnyTopology::hops`] — on a wrapping
    /// fabric, inside the quadrant [`AnyTopology::minimal_dirs`] selects.
    /// Saturates at `u64::MAX`.
    pub fn minimal_path_count(self, a: NodeId, b: NodeId) -> u64 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let dx = u64::from(self.dist(ca.x, cb.x, self.width));
        let dy = u64::from(self.dist(ca.y, cb.y, self.height));
        binomial(dx + dy, dx.min(dy))
    }

    /// Iterates over every directed inter-router channel, by source node
    /// and then in [`DIRECTIONS`] order.
    #[inline]
    pub fn channels(self) -> ChannelIter {
        ChannelIter { topo: self, next: 0 }
    }

    /// `true` if the fabric wraps around (torus, ring). Wrapping fabrics
    /// need dateline escape-VC classes; meshes do not.
    #[inline]
    pub fn wraps(self) -> bool {
        self.wraps
    }

    /// `true` if the directed channel leaving `node` toward `dir` is a
    /// wraparound (dateline) channel: a positive-direction hop whose
    /// downstream id *decreases*, or mirrored. Always `false` on meshes.
    /// These are the channels the dateline rule keeps out of escape
    /// class 0, so cutting one must re-check the class-1 subgraph.
    #[inline]
    pub fn is_wrap_channel(self, node: NodeId, dir: Direction) -> bool {
        self.wraps
            && match self.neighbor(node, dir) {
                None => false,
                Some(next) => match dir {
                    Direction::East | Direction::North => next.0 < node.0,
                    Direction::West | Direction::South => next.0 > node.0,
                },
            }
    }

    /// Number of VCs reserved for the Duato escape layer by algorithms
    /// that use one: 1 on meshes, 2 on wrapping fabrics (the dateline
    /// needs a pre-crossing and a post-crossing class).
    #[inline]
    pub fn escape_vcs(self) -> usize {
        1 + usize::from(self.wraps)
    }

    /// The escape-VC class (`0..escape_vcs`) a packet destined to `dst`
    /// must use on the channel leaving `cur` in direction `dir`.
    ///
    /// Always 0 on meshes, and 0 where no channel exists. On wrapping
    /// fabrics this is the stateless dateline rule (the acyclicity
    /// argument heads this module's source):
    ///
    /// * eastbound channel into `next`: class 0 while `next.x > dst.x`
    ///   (the wrap edge still ahead), class 1 once `next.x <= dst.x`;
    /// * westbound: class 0 while `next.x < dst.x`, class 1 once
    ///   `next.x >= dst.x`; North/South identically on Y.
    #[inline]
    pub fn escape_class(self, cur: NodeId, dst: NodeId, dir: Direction) -> u8 {
        if !self.wraps {
            return 0;
        }
        let Some(next) = self.neighbor(cur, dir) else {
            return 0;
        };
        let (n, d) = (self.coord(next), self.coord(dst));
        match dir {
            Direction::East => wrap::escape_class(n.x, d.x, true),
            Direction::West => wrap::escape_class(n.x, d.x, false),
            Direction::North => wrap::escape_class(n.y, d.y, true),
            Direction::South => wrap::escape_class(n.y, d.y, false),
        }
    }
}

impl fmt::Display for AnyTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind_name() {
            "ring" => write!(f, "{}-node ring", self.width),
            kind => write!(f, "{}x{} {kind}", self.width, self.height),
        }
    }
}

/// Iterator over a fabric's node ids (see [`AnyTopology::nodes`]).
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

/// Iterator over a fabric's directed channels (see
/// [`AnyTopology::channels`]).
#[derive(Debug, Clone)]
pub struct ChannelIter {
    topo: AnyTopology,
    /// `node * 4 + direction index` of the next candidate channel.
    next: usize,
}

impl Iterator for ChannelIter {
    type Item = Channel;

    fn next(&mut self) -> Option<Channel> {
        while self.next < self.topo.len() * DIRECTIONS.len() {
            let src = NodeId((self.next / DIRECTIONS.len()) as u16);
            let dir = DIRECTIONS[self.next % DIRECTIONS.len()];
            self.next += 1;
            if let Some(dst) = self.topo.neighbor(src, dir) {
                return Some(Channel { src, dir, dst });
            }
        }
        None
    }
}

/// `C(n, k)` with saturation.
fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k.min(n));
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Per-dimension wrap arithmetic.
///
/// `k` is the dimension extent, `cur`/`dst` positions in it, and
/// (`pos`, `neg`) the direction pair for increasing/decreasing positions
/// (East/West on X, North/South on Y). Sums are taken in `u32`: a ring
/// may have up to 65 535 nodes, so `dst + k` can exceed `u16`.
mod wrap {
    use crate::Direction;

    /// Distance traveling in the increasing (`pos`) direction.
    #[inline]
    pub(super) fn fwd_dist(cur: u16, dst: u16, k: u16) -> u32 {
        (u32::from(dst) + u32::from(k) - u32::from(cur)) % u32::from(k)
    }

    /// Wrap-reduced distance: the shorter way around.
    #[inline]
    pub(super) fn dist(cur: u16, dst: u16, k: u16) -> u32 {
        let f = fwd_dist(cur, dst, k);
        f.min(u32::from(k) - f)
    }

    /// The minimal direction in this dimension, `None` at the destination
    /// position. Ties at exactly `k/2` break toward `pos` (East / North),
    /// deterministically.
    #[inline]
    pub(super) fn minimal_dir(cur: u16, dst: u16, k: u16, pos: Direction, neg: Direction) -> Option<Direction> {
        let f = fwd_dist(cur, dst, k);
        if f == 0 {
            None
        } else if f <= u32::from(k) - f {
            Some(pos)
        } else {
            Some(neg)
        }
    }

    /// The dateline escape-VC class for the channel from `cur` into `next`
    /// traveling `forward` (`true` = the increasing direction): 0 while the
    /// wrap edge is still ahead of `next`, 1 from the wrap channel onward
    /// (and for journeys that never cross). See
    /// [`AnyTopology::escape_class`](super::AnyTopology::escape_class).
    #[inline]
    pub(super) fn escape_class(next: u16, dst: u16, forward: bool) -> u8 {
        let pre_dateline = if forward { next > dst } else { next < dst };
        u8::from(!pre_dateline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_minimal_dirs_are_wrap_free_under_dispatch() {
        let any = AnyTopology::mesh(4, 4);
        assert_eq!(
            any.minimal_dirs(NodeId(0), NodeId(3)).x,
            Some(Direction::East)
        );
        assert_eq!(any.minimal_dirs(NodeId(0), NodeId(3)), any.acyclic_minimal_dirs(NodeId(0), NodeId(3)));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        for t in [
            AnyTopology::mesh(5, 3),
            AnyTopology::torus(5, 3),
            AnyTopology::ring(7),
        ] {
            for n in t.nodes() {
                for d in DIRECTIONS {
                    if let Some(m) = t.neighbor(n, d) {
                        assert_eq!(t.neighbor(m, d.opposite()), Some(n), "{t}");
                    }
                }
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(AnyTopology::mesh(8, 8).to_string(), "8x8 mesh");
        assert_eq!(AnyTopology::torus(8, 8).to_string(), "8x8 torus");
        assert_eq!(AnyTopology::ring(16).to_string(), "16-node ring");
        assert_eq!(AnyTopology::mesh(8, 8).kind_name(), "mesh");
        assert_eq!(AnyTopology::torus(8, 8).kind_name(), "torus");
        assert_eq!(AnyTopology::ring(16).kind_name(), "ring");
        let ch = Channel {
            src: NodeId(1),
            dir: Direction::East,
            dst: NodeId(2),
        };
        assert_eq!(ch.to_string(), "n1→n2");
    }

    #[test]
    fn large_fabrics_count_every_node() {
        // 256×256 fills the u16 id space exactly.
        let m = AnyTopology::mesh(256, 256);
        assert_eq!(m.nodes().count(), 65_536);
        assert_eq!(m.channels().count(), 261_120);
        assert!(AnyTopology::mesh(1, 1).is_empty());
        assert!(!AnyTopology::mesh(2, 1).is_empty());
    }

    #[test]
    fn rings_past_half_the_id_space_take_the_short_way() {
        let r = AnyTopology::ring(40_000);
        assert_eq!(r.hops(NodeId(0), NodeId(30_000)), 10_000);
        assert_eq!(r.minimal_dirs(NodeId(0), NodeId(30_000)).x, Some(Direction::West));
        assert_eq!(r.hops(NodeId(39_999), NodeId(0)), 1);
    }

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

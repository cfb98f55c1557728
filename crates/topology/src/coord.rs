//! Node identifiers and coordinates.

use core::fmt;

/// A dense node index in row-major order: `id = y * width + x`.
///
/// This matches the numbering the paper uses in its examples and in the
/// Table 3 hotspot flow definitions (e.g. on the 8×8 mesh, node 63 is the
/// top-right corner `(7, 7)`).
///
/// ```
/// use footprint_topology::{AnyTopology, NodeId};
/// let mesh = AnyTopology::mesh(4, 4);
/// assert_eq!(mesh.node_at(mesh.coord(NodeId(13))), NodeId(13));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a `usize`, for indexing dense per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u16 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// An `(x, y)` grid coordinate. `x` grows East, `y` grows North.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u16,
    /// Row (0 = south edge).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    ///
    /// ```
    /// use footprint_topology::Coord;
    /// let c = Coord::new(3, 5);
    /// assert_eq!((c.x, c.y), (3, 5));
    /// ```
    #[inline]
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord { x, y }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_u16() {
        let n = NodeId::from(42u16);
        assert_eq!(u16::from(n), 42);
        assert_eq!(n.index(), 42);
    }

    #[test]
    fn node_id_display_matches_paper_notation() {
        assert_eq!(NodeId(13).to_string(), "n13");
    }

    #[test]
    fn coord_display_is_tuple_like() {
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
    }

    #[test]
    fn coord_from_tuple() {
        assert_eq!(Coord::from((3, 4)), Coord::new(3, 4));
    }
}

//! Tests of [`crate::AnyTopology`] as the paper's 2D mesh.

#[cfg(test)]
mod tests {
    use crate::{AnyTopology, Coord, Direction, NodeId};

    #[test]
    fn row_major_numbering() {
        let mesh = AnyTopology::mesh(4, 4);
        assert_eq!(mesh.coord(NodeId(0)), Coord::new(0, 0));
        assert_eq!(mesh.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(mesh.coord(NodeId(15)), Coord::new(3, 3));
        assert_eq!(mesh.node_at(Coord::new(2, 3)), NodeId(14));
    }

    #[test]
    fn neighbors_at_edges_are_none() {
        let mesh = AnyTopology::mesh(4, 4);
        assert_eq!(mesh.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(mesh.neighbor(NodeId(0), Direction::South), None);
        assert_eq!(mesh.neighbor(NodeId(0), Direction::East), Some(NodeId(1)));
        assert_eq!(mesh.neighbor(NodeId(0), Direction::North), Some(NodeId(4)));
        assert_eq!(mesh.neighbor(NodeId(15), Direction::East), None);
        assert_eq!(mesh.neighbor(NodeId(15), Direction::North), None);
        assert!(!mesh.is_wrap_channel(NodeId(3), Direction::East));
        assert_eq!(mesh.escape_class(NodeId(0), NodeId(5), Direction::East), 0);
    }

    #[test]
    fn minimal_dirs_zero_at_destination() {
        let mesh = AnyTopology::mesh(8, 8);
        let dirs = mesh.minimal_dirs(NodeId(20), NodeId(20));
        assert_eq!(dirs.count(), 0);
        assert_eq!(dirs.iter().count(), 0);
    }

    #[test]
    fn minimal_dirs_point_toward_destination() {
        let mesh = AnyTopology::mesh(8, 8);
        // n63 = (7,7) from n0 = (0,0): East + North.
        let dirs = mesh.minimal_dirs(NodeId(0), NodeId(63));
        assert!(dirs.contains(Direction::East));
        assert!(dirs.contains(Direction::North));
        // n0 from n63: West + South.
        let dirs = mesh.minimal_dirs(NodeId(63), NodeId(0));
        assert!(dirs.contains(Direction::West));
        assert!(dirs.contains(Direction::South));
    }

    #[test]
    fn channel_count_matches_formula() {
        let mesh = AnyTopology::mesh(8, 8);
        // 2 directed channels per mesh edge; edges = 2 * k * (k-1).
        assert_eq!(mesh.channels().count(), 2 * 2 * 8 * 7);
        let mesh = AnyTopology::mesh(4, 2);
        assert_eq!(mesh.channels().count(), 2 * (3 * 2 + 4));
    }

    #[test]
    fn hops_is_manhattan() {
        let mesh = AnyTopology::mesh(8, 8);
        assert_eq!(mesh.hops(NodeId(0), NodeId(63)), 14);
        assert_eq!(mesh.hops(NodeId(7), NodeId(56)), 14);
        assert_eq!(mesh.hops(NodeId(12), NodeId(13)), 1);
    }

    #[test]
    fn minimal_path_count_small_cases() {
        let mesh = AnyTopology::mesh(8, 8);
        // Same row: exactly one minimal path.
        assert_eq!(mesh.minimal_path_count(NodeId(0), NodeId(3)), 1);
        // 1×1 offset: two minimal paths.
        assert_eq!(mesh.minimal_path_count(NodeId(0), NodeId(9)), 2);
        // (0,0)→(2,2): C(4,2) = 6.
        assert_eq!(mesh.minimal_path_count(NodeId(0), NodeId(18)), 6);
        // Self: one (empty) path.
        assert_eq!(mesh.minimal_path_count(NodeId(5), NodeId(5)), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = AnyTopology::mesh(0, 4);
    }
}

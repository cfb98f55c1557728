//! Tests of [`crate::AnyTopology`] as a bidirectional ring: the `n × 1`
//! torus, whose one-node Y dimension has no channels.

#[cfg(test)]
mod tests {
    use crate::{AnyTopology, Direction, NodeId, DIRECTIONS};

    #[test]
    fn ring_geometry() {
        let r = AnyTopology::ring(6);
        assert_eq!(r.len(), 6);
        assert_eq!(r.width(), 6);
        assert_eq!(r.height(), 1);
        assert_eq!(r.channels().count(), 12); // 2 directed channels per node
        assert_eq!(r.neighbor(NodeId(5), Direction::East), Some(NodeId(0)));
        assert_eq!(r.neighbor(NodeId(0), Direction::West), Some(NodeId(5)));
        assert_eq!(r.neighbor(NodeId(2), Direction::North), None);
        assert_eq!(r.neighbor(NodeId(2), Direction::South), None);
    }

    #[test]
    fn ring_has_one_wrap_edge() {
        let r = AnyTopology::ring(6);
        assert!(r.is_wrap_channel(NodeId(5), Direction::East));
        assert!(r.is_wrap_channel(NodeId(0), Direction::West));
        assert!(!r.is_wrap_channel(NodeId(2), Direction::East));
        assert!(!r.is_wrap_channel(NodeId(0), Direction::North));
        let wraps: usize = r
            .nodes()
            .map(|n| DIRECTIONS.iter().filter(|&&d| r.is_wrap_channel(n, d)).count())
            .sum();
        assert_eq!(wraps, 2, "one physical wrap edge, two directed channels");
    }

    #[test]
    fn hops_and_dirs_take_the_short_way() {
        let r = AnyTopology::ring(8);
        assert_eq!(r.hops(NodeId(0), NodeId(7)), 1);
        assert_eq!(r.minimal_dirs(NodeId(0), NodeId(7)).x, Some(Direction::West));
        assert_eq!(r.minimal_dirs(NodeId(0), NodeId(3)).x, Some(Direction::East));
        // Antipodal tie: East.
        assert_eq!(r.minimal_dirs(NodeId(0), NodeId(4)).x, Some(Direction::East));
        assert_eq!(r.minimal_dirs(NodeId(3), NodeId(3)).count(), 0);
    }

    #[test]
    fn escape_class_matches_dateline() {
        let r = AnyTopology::ring(8);
        // 6 → 2 eastbound: class 0 until the wrap, then class 1.
        assert_eq!(r.escape_class(NodeId(6), NodeId(2), Direction::East), 0);
        assert_eq!(r.escape_class(NodeId(7), NodeId(2), Direction::East), 1);
        assert_eq!(r.escape_class(NodeId(0), NodeId(2), Direction::East), 1);
        // No channel leaves a ring node North or South.
        assert_eq!(r.escape_class(NodeId(6), NodeId(2), Direction::North), 0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        let _ = AnyTopology::ring(2);
    }
}

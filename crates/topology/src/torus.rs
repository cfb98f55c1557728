//! Tests of [`crate::AnyTopology`] as a 2D torus: a mesh whose rows and
//! columns wrap around.

#[cfg(test)]
mod tests {
    use crate::{AnyTopology, Direction, NodeId, DIRECTIONS};

    #[test]
    fn every_node_has_four_neighbors() {
        let t = AnyTopology::torus(4, 4);
        for n in t.nodes() {
            for d in DIRECTIONS {
                assert!(t.neighbor(n, d).is_some(), "{n} {d}");
            }
        }
        assert_eq!(t.channels().count(), 4 * t.len());
    }

    #[test]
    fn wrap_channels_are_exactly_the_dateline_edges() {
        let t = AnyTopology::torus(4, 4);
        let mut wraps = 0;
        for n in t.nodes() {
            for d in DIRECTIONS {
                if t.is_wrap_channel(n, d) {
                    wraps += 1;
                    // Every wrap hop must be the one that re-enters at the
                    // opposite edge of its dimension.
                    let next = t.neighbor(n, d).unwrap();
                    assert_eq!(t.hops(n, next), 1);
                }
            }
        }
        // One wrap edge per row (X) and per column (Y), two directed
        // channels each: 2·(4 + 4).
        assert_eq!(wraps, 16);
        assert!(t.is_wrap_channel(NodeId(3), Direction::East));
        assert!(t.is_wrap_channel(NodeId(0), Direction::West));
        assert!(t.is_wrap_channel(NodeId(12), Direction::North));
        assert!(t.is_wrap_channel(NodeId(0), Direction::South));
        assert!(!t.is_wrap_channel(NodeId(0), Direction::East));
    }

    #[test]
    fn wraparound_neighbors() {
        let t = AnyTopology::torus(4, 4);
        // Row 0 wraps in X.
        assert_eq!(t.neighbor(NodeId(0), Direction::West), Some(NodeId(3)));
        assert_eq!(t.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
        // Column 0 wraps in Y.
        assert_eq!(t.neighbor(NodeId(0), Direction::South), Some(NodeId(12)));
        assert_eq!(t.neighbor(NodeId(12), Direction::North), Some(NodeId(0)));
    }

    #[test]
    fn hops_uses_wrap_distance() {
        let t = AnyTopology::torus(8, 8);
        // The far corner (7,7) is wrap-adjacent in both dimensions.
        assert_eq!(t.hops(NodeId(0), NodeId(63)), 2);
        // The true antipode (4,4) sits at the half-ring distance 4 + 4.
        assert_eq!(t.hops(NodeId(0), NodeId(36)), 8);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 1);
        assert_eq!(t.hops(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn minimal_dirs_take_shorter_way() {
        let t = AnyTopology::torus(8, 8);
        // (0,0) → (7,0): West through the wrap, not 7 hops East.
        let dirs = t.minimal_dirs(NodeId(0), NodeId(7));
        assert_eq!(dirs.x, Some(Direction::West));
        assert_eq!(dirs.y, None);
        // Half-ring tie (distance 4 both ways): East deterministically.
        let dirs = t.minimal_dirs(NodeId(0), NodeId(4));
        assert_eq!(dirs.x, Some(Direction::East));
    }

    #[test]
    fn acyclic_dirs_ignore_the_wrap() {
        let t = AnyTopology::torus(8, 8);
        // The wrap-aware choice is West; the grid subgraph says East.
        assert_eq!(
            t.acyclic_minimal_dirs(NodeId(0), NodeId(7)).x,
            Some(Direction::East)
        );
    }

    #[test]
    fn escape_class_is_zero_before_the_dateline_and_one_after() {
        let t = AnyTopology::torus(8, 8);
        // n6 → n2 eastbound (wrap crossing ahead): class 0 at n6, class 1
        // on the wrap channel out of n7 and beyond.
        assert_eq!(t.escape_class(NodeId(6), NodeId(2), Direction::East), 0);
        assert_eq!(t.escape_class(NodeId(7), NodeId(2), Direction::East), 1);
        assert_eq!(t.escape_class(NodeId(0), NodeId(2), Direction::East), 1);
        // A journey that never wraps stays in class 1.
        assert_eq!(t.escape_class(NodeId(0), NodeId(2), Direction::East), 1);
        assert_eq!(t.escape_class(NodeId(1), NodeId(2), Direction::East), 1);
    }

    #[test]
    fn escape_class_never_puts_the_wrap_channel_in_class_zero() {
        let t = AnyTopology::torus(5, 5);
        for src in t.nodes() {
            for dst in t.nodes() {
                for d in DIRECTIONS {
                    let next = t.neighbor(src, d).unwrap();
                    let (cs, cn) = (t.coord(src), t.coord(next));
                    let is_wrap = match d {
                        Direction::East => cn.x < cs.x,
                        Direction::West => cn.x > cs.x,
                        Direction::North => cn.y < cs.y,
                        Direction::South => cn.y > cs.y,
                    };
                    if is_wrap {
                        assert_eq!(
                            t.escape_class(src, dst, d),
                            1,
                            "wrap channel {src}->{next} must be class 1"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_torus_panics() {
        let _ = AnyTopology::torus(2, 4);
    }
}

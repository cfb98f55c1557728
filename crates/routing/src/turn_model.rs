//! Classic turn-model routing algorithms (Glass & Ni, ISCA 1992):
//! West-First and North-Last ([`crate::any::Selector::WestFirst`],
//! [`crate::any::Selector::NorthLast`]).
//!
//! Not evaluated in the Footprint paper, but standard reference points for
//! partially adaptive routing on meshes — useful for extending the
//! comparison and for validating the adaptiveness metrics (their
//! adaptiveness is asymmetric by construction: fully adaptive for some
//! quadrants, deterministic for others). On wrapping topologies both
//! relations live on the acyclic (non-wraparound) channel subgraph,
//! preserving the mesh CDG argument.

use crate::algorithm::DirSet;
use footprint_topology::{AnyTopology, Direction, NodeId};

/// The minimal directions permitted by the west-first turn model: all
/// turns *into* West are banned, so any westward travel must happen
/// first. Eastbound packets are fully adaptive; westbound packets are
/// deterministic (west first, then as DOR).
#[inline]
pub(crate) fn west_first(topo: AnyTopology, cur: NodeId, dest: NodeId) -> DirSet {
    let dirs = topo.acyclic_minimal_dirs(cur, dest);
    match dirs.x {
        // Westward travel must come first and alone.
        Some(Direction::West) => [Direction::West].into_iter().collect(),
        // Eastbound (or same column): fully adaptive among productive
        // directions.
        _ => dirs.iter().collect(),
    }
}

/// The minimal directions permitted by the north-last turn model: all
/// turns *out of* North are banned, so any northward travel must happen
/// last. Southbound packets are fully adaptive; northbound packets finish
/// deterministically.
#[inline]
pub(crate) fn north_last(topo: AnyTopology, cur: NodeId, dest: NodeId) -> DirSet {
    let dirs = topo.acyclic_minimal_dirs(cur, dest);
    match (dirs.x, dirs.y) {
        // Northward travel is only allowed once no other productive
        // direction remains.
        (None, Some(Direction::North)) => [Direction::North].into_iter().collect(),
        (Some(x), Some(Direction::North)) => [x].into_iter().collect(),
        // No northward component: fully adaptive.
        _ => dirs.iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::AnyTopology;

    #[test]
    fn west_first_goes_west_alone() {
        let mesh = AnyTopology::mesh(8, 8);
        // (5,5) → (2,2): westward component → only West.
        let d = west_first(mesh, NodeId(5 + 5 * 8), NodeId(2 + 2 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::West));
    }

    #[test]
    fn west_first_is_adaptive_eastbound() {
        let mesh = AnyTopology::mesh(8, 8);
        // (0,0) → (3,3): both East and North allowed.
        let d = west_first(mesh, NodeId(0), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 2);
        assert!(d.contains(Direction::East));
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn west_first_same_column_moves_vertically() {
        let mesh = AnyTopology::mesh(8, 8);
        let d = west_first(mesh, NodeId(2), NodeId(2 + 3 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn west_first_never_turns_into_west() {
        // Once a packet has moved any non-West direction, its remaining
        // legal sets must never contain West: equivalently, the legal set
        // contains West only as a singleton.
        let mesh = AnyTopology::mesh(6, 6);
        for cur in mesh.nodes() {
            for dest in mesh.nodes() {
                let d = west_first(mesh, cur, dest);
                if d.contains(Direction::West) {
                    assert_eq!(d.len(), 1, "West must be exclusive at {cur}→{dest}");
                }
            }
        }
    }

    #[test]
    fn north_last_goes_north_alone_and_last() {
        let mesh = AnyTopology::mesh(8, 8);
        // Northward + eastward: East only (north deferred).
        let d = north_last(mesh, NodeId(0), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::East));
        // Same column north: North allowed (it is last).
        let d = north_last(mesh, NodeId(3), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn north_last_is_adaptive_southbound() {
        let mesh = AnyTopology::mesh(8, 8);
        // (3,3) → (0,0): West + South.
        let d = north_last(mesh, NodeId(3 + 3 * 8), NodeId(0));
        assert_eq!(d.len(), 2);
        assert!(d.contains(Direction::West));
        assert!(d.contains(Direction::South));
    }

    #[test]
    fn both_models_connect_all_pairs() {
        let mesh = AnyTopology::mesh(5, 5);
        for (name, legal) in [
            (
                "west-first",
                west_first as fn(AnyTopology, NodeId, NodeId) -> DirSet,
            ),
            ("north-last", north_last),
        ] {
            for src in mesh.nodes() {
                for dest in mesh.nodes() {
                    if src == dest {
                        continue;
                    }
                    let mut cur = src;
                    let mut hops = 0;
                    while cur != dest {
                        let d = legal(mesh, cur, dest)
                            .iter()
                            .next()
                            .unwrap_or_else(|| panic!("{name}: stuck at {cur} for {src}→{dest}"));
                        cur = crate::invariant::neighbor_checked(mesh, cur, d).unwrap();
                        hops += 1;
                        assert!(hops <= mesh.hops(src, dest), "{name}: non-minimal walk");
                    }
                }
            }
        }
    }

    #[test]
    fn legal_dirs_always_minimal() {
        let mesh = AnyTopology::mesh(6, 6);
        for cur in mesh.nodes() {
            for dest in mesh.nodes() {
                let minimal = mesh.minimal_dirs(cur, dest);
                for d in west_first(mesh, cur, dest).iter() {
                    assert!(minimal.contains(d));
                }
                for d in north_last(mesh, cur, dest).iter() {
                    assert!(minimal.contains(d));
                }
            }
        }
    }

    #[test]
    fn adaptiveness_is_between_dor_and_full() {
        use crate::adaptiveness::mean_path_adaptiveness;
        use crate::{RoutingAlgorithm, RoutingSpec};
        let mesh = AnyTopology::mesh(8, 8);
        let dor = mean_path_adaptiveness(mesh, &RoutingSpec::Dor.routing());
        let full = mean_path_adaptiveness(mesh, &RoutingSpec::Dbar.routing());
        for spec in [RoutingSpec::WestFirst, RoutingSpec::NorthLast] {
            let algo = spec.routing();
            let a = mean_path_adaptiveness(mesh, &algo);
            assert!(a > dor && a < full, "{}: {a}", algo.name());
        }
    }
}

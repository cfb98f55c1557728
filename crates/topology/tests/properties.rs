//! Property-based tests for the mesh topology invariants.

use footprint_topology::{AnyTopology, Coord, NodeId, DIRECTIONS};
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = AnyTopology> {
    (1u16..=16, 1u16..=16).prop_map(|(w, h)| AnyTopology::mesh(w, h))
}

proptest! {
    #[test]
    fn coord_node_roundtrip(mesh in arb_mesh()) {
        for n in mesh.nodes() {
            prop_assert_eq!(mesh.node_at(mesh.coord(n)), n);
            prop_assert!(mesh.contains(mesh.coord(n)));
        }
    }

    #[test]
    fn neighbor_symmetry((mesh, seed) in arb_mesh().prop_flat_map(|m| (Just(m), 0..m.len() as u16))) {
        let n = NodeId(seed);
        for d in DIRECTIONS {
            if let Some(m2) = mesh.neighbor(n, d) {
                prop_assert_eq!(mesh.neighbor(m2, d.opposite()), Some(n));
                prop_assert_eq!(mesh.hops(n, m2), 1);
            }
        }
    }

    #[test]
    fn minimal_dirs_reduce_distance(
        (mesh, a, b) in arb_mesh().prop_flat_map(|m| {
            (Just(m), 0..m.len() as u16, 0..m.len() as u16)
        })
    ) {
        let (a, b) = (NodeId(a), NodeId(b));
        let dirs = mesh.minimal_dirs(a, b);
        if a == b {
            prop_assert_eq!(dirs.count(), 0);
        }
        for d in dirs.iter() {
            let next = mesh.neighbor(a, d).expect("productive direction stays in mesh");
            prop_assert_eq!(mesh.hops(next, b), mesh.hops(a, b) - 1);
        }
        // Non-productive directions never reduce the distance.
        for d in DIRECTIONS {
            if !dirs.contains(d) {
                if let Some(next) = mesh.neighbor(a, d) {
                    prop_assert_eq!(mesh.hops(next, b), mesh.hops(a, b) + 1);
                }
            }
        }
    }

    #[test]
    fn walking_minimal_dirs_reaches_destination(
        (mesh, a, b) in arb_mesh().prop_flat_map(|m| {
            (Just(m), 0..m.len() as u16, 0..m.len() as u16)
        })
    ) {
        let (mut cur, dst) = (NodeId(a), NodeId(b));
        let mut steps = 0u32;
        while cur != dst {
            let d = mesh.minimal_dirs(cur, dst).iter().next().unwrap();
            cur = mesh.neighbor(cur, d).unwrap();
            steps += 1;
            prop_assert!(steps <= 64, "walk must terminate");
        }
        prop_assert_eq!(steps, mesh.hops(NodeId(a), dst));
    }

    #[test]
    fn channels_are_valid(mesh in arb_mesh()) {
        for ch in mesh.channels() {
            prop_assert_eq!(mesh.neighbor(ch.src, ch.dir), Some(ch.dst));
        }
    }
}

#[test]
fn direction_delta_moves_one_step() {
    let mesh = AnyTopology::mesh(3, 3);
    let center = mesh.node_at(Coord::new(1, 1));
    for d in DIRECTIONS {
        let n = mesh.neighbor(center, d).unwrap();
        let (dx, dy) = d.delta();
        let c = mesh.coord(center);
        assert_eq!(mesh.coord(n).x as i32, c.x as i32 + dx);
        assert_eq!(mesh.coord(n).y as i32, c.y as i32 + dy);
    }
}

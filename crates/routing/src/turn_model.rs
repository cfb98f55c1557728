//! Classic turn-model routing algorithms (Glass & Ni, ISCA 1992):
//! West-First and North-Last.
//!
//! Not evaluated in the Footprint paper, but standard reference points for
//! partially adaptive routing on meshes — useful for extending the
//! comparison and for validating the adaptiveness metrics (their
//! adaptiveness is asymmetric by construction: fully adaptive for some
//! quadrants, deterministic for others).

use crate::algorithm::{select_and_request, DirSet};
use crate::{RoutingAlgorithm, RoutingCtx, VcRequest, VcReallocationPolicy};
use footprint_topology::{AnyTopology, Direction, NodeId};
use rand::RngCore;

/// West-First turn model: all turns *into* West are banned, so any westward
/// travel must happen first. Eastbound packets are fully adaptive;
/// westbound packets are deterministic (west first, then as DOR).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WestFirst;

impl WestFirst {
    /// The minimal directions permitted by the west-first turn model. On
    /// wrapping topologies the relation lives on the acyclic
    /// (non-wraparound) channel subgraph, preserving the mesh CDG argument.
    pub fn legal_dirs(topo: AnyTopology, cur: NodeId, dest: NodeId) -> DirSet {
        let dirs = topo.acyclic_minimal_dirs(cur, dest);
        let mut set = DirSet::EMPTY;
        match dirs.x {
            // Westward travel must come first and alone.
            Some(Direction::West) => set.insert(Direction::West),
            // Eastbound (or same column): fully adaptive among productive
            // directions.
            _ => {
                for d in dirs.iter() {
                    set.insert(d);
                }
            }
        }
        set
    }
}

impl RoutingAlgorithm for WestFirst {
    fn name(&self) -> &'static str {
        "west-first"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::NonAtomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let legal = Self::legal_dirs(ctx.topo, ctx.current, ctx.dest);
        select_and_request(ctx, legal, rng, out);
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, _src: NodeId, dest: NodeId) -> DirSet {
        Self::legal_dirs(topo, cur, dest)
    }
}

/// North-Last turn model: all turns *out of* North are banned, so any
/// northward travel must happen last. Southbound packets are fully
/// adaptive; northbound packets finish deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NorthLast;

impl NorthLast {
    /// The minimal directions permitted by the north-last turn model. On
    /// wrapping topologies the relation lives on the acyclic
    /// (non-wraparound) channel subgraph, preserving the mesh CDG argument.
    pub fn legal_dirs(topo: AnyTopology, cur: NodeId, dest: NodeId) -> DirSet {
        let dirs = topo.acyclic_minimal_dirs(cur, dest);
        let mut set = DirSet::EMPTY;
        match (dirs.x, dirs.y) {
            // Northward travel is only allowed once no other productive
            // direction remains.
            (None, Some(Direction::North)) => set.insert(Direction::North),
            (Some(x), Some(Direction::North)) => set.insert(x),
            // No northward component: fully adaptive.
            _ => {
                for d in dirs.iter() {
                    set.insert(d);
                }
            }
        }
        set
    }
}

impl RoutingAlgorithm for NorthLast {
    fn name(&self) -> &'static str {
        "north-last"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::NonAtomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let legal = Self::legal_dirs(ctx.topo, ctx.current, ctx.dest);
        select_and_request(ctx, legal, rng, out);
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, _src: NodeId, dest: NodeId) -> DirSet {
        Self::legal_dirs(topo, cur, dest)
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
        let d = WestFirst::legal_dirs(mesh, NodeId(5 + 5 * 8), NodeId(2 + 2 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::West));
    }

    #[test]
    fn west_first_is_adaptive_eastbound() {
        let mesh = AnyTopology::mesh(8, 8);
        // (0,0) → (3,3): both East and North allowed.
        let d = WestFirst::legal_dirs(mesh, NodeId(0), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 2);
        assert!(d.contains(Direction::East));
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn west_first_same_column_moves_vertically() {
        let mesh = AnyTopology::mesh(8, 8);
        let d = WestFirst::legal_dirs(mesh, NodeId(2), NodeId(2 + 3 * 8));
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
                let d = WestFirst::legal_dirs(mesh, cur, dest);
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
        let d = NorthLast::legal_dirs(mesh, NodeId(0), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::East));
        // Same column north: North allowed (it is last).
        let d = NorthLast::legal_dirs(mesh, NodeId(3), NodeId(3 + 3 * 8));
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn north_last_is_adaptive_southbound() {
        let mesh = AnyTopology::mesh(8, 8);
        // (3,3) → (0,0): West + South.
        let d = NorthLast::legal_dirs(mesh, NodeId(3 + 3 * 8), NodeId(0));
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
                WestFirst::legal_dirs as fn(AnyTopology, NodeId, NodeId) -> DirSet,
            ),
            ("north-last", NorthLast::legal_dirs),
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
                for d in WestFirst::legal_dirs(mesh, cur, dest).iter() {
                    assert!(minimal.contains(d));
                }
                for d in NorthLast::legal_dirs(mesh, cur, dest).iter() {
                    assert!(minimal.contains(d));
                }
            }
        }
    }

    #[test]
    fn adaptiveness_is_between_dor_and_full() {
        use crate::adaptiveness::mean_path_adaptiveness;
        use crate::{Dbar, Dor};
        let mesh = AnyTopology::mesh(8, 8);
        let dor = mean_path_adaptiveness(mesh, &Dor);
        let full = mean_path_adaptiveness(mesh, &Dbar);
        for algo in [
            &WestFirst as &dyn RoutingAlgorithm,
            &NorthLast as &dyn RoutingAlgorithm,
        ] {
            let a = mean_path_adaptiveness(mesh, algo);
            assert!(a > dor && a < full, "{}: {a}", algo.name());
        }
    }
}

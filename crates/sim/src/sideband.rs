//! The congestion side-band network consumed by DBAR's selection function.

use crate::soa::NocSoa;
use footprint_routing::CongestionView;
use footprint_topology::{AnyTopology, Direction, NodeId, Port, DIRECTIONS};

/// Per-channel congestion bits, recomputed every cycle from downstream
/// input-buffer occupancy (occupied VCs at or above the threshold — V/2 in
/// the paper's methodology).
///
/// This models DBAR's dimension-propagated occupancy information with a
/// one-cycle-old global view, which is the fidelity level the Footprint
/// paper's comparison needs.
#[derive(Debug, Clone)]
pub(crate) struct Sideband {
    bits: Vec<[bool; 4]>,
    threshold: usize,
}

impl Sideband {
    /// Creates a side band for `nodes` routers with the given occupancy
    /// `threshold` (number of occupied VCs that marks a channel congested).
    pub(crate) fn new(nodes: usize, threshold: usize) -> Self {
        Sideband {
            bits: vec![[false; 4]; nodes],
            threshold: threshold.max(1),
        }
    }

    /// Recomputes every congestion bit from current router state.
    pub(crate) fn update(&mut self, topo: AnyTopology, soa: &NocSoa) {
        for node in topo.nodes() {
            for (di, dir) in DIRECTIONS.into_iter().enumerate() {
                let congested = match topo.neighbor(node, dir) {
                    Some(nb) => {
                        let in_port = Port::Dir(dir.opposite()).index();
                        soa.in_occupied(soa.np(nb, in_port)) >= self.threshold
                    }
                    None => false,
                };
                self.bits[node.index()][di] = congested;
            }
        }
    }

    /// Refreshes only the bits derived from router `dirty`'s input
    /// occupancy: for each direction `e` with an upstream neighbor `m`,
    /// the bit `m` reads for its channel toward `dirty`.
    ///
    /// Calling this for every router whose input occupancy changed since
    /// the last refresh is equivalent to a full [`Sideband::update`] —
    /// bits whose source occupancy did not change cannot flip, and edge
    /// bits stay `false` forever.
    pub(crate) fn refresh_from(&mut self, topo: AnyTopology, soa: &NocSoa, dirty: NodeId) {
        for dir in DIRECTIONS {
            let Some(upstream) = topo.neighbor(dirty, dir) else {
                continue;
            };
            let in_port = Port::Dir(dir).index();
            let congested = soa.in_occupied(soa.np(dirty, in_port)) >= self.threshold;
            self.bits[upstream.index()][Self::dir_index(dir.opposite())] = congested;
        }
    }

    /// `dir`'s index in [`DIRECTIONS`] (which lists the variants in
    /// declaration order, as `sideband::tests` pins).
    #[inline]
    fn dir_index(dir: Direction) -> usize {
        dir as usize
    }
}

impl CongestionView for Sideband {
    fn channel_congested(&self, node: NodeId, dir: Direction) -> bool {
        self.bits[node.index()][Self::dir_index(dir)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flit, FlitKind, PacketId};
    use footprint_topology::AnyTopology;

    fn flit(dest: u16, vc: u8) -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Single,
            src: NodeId(0),
            dest: NodeId(dest),
            seq: 0,
            size: 1,
            birth: 0,
            class: 0,
            vc,
        }
    }

    #[test]
    fn congestion_bit_tracks_downstream_occupancy() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut soa = NocSoa::new(mesh.len(), 4, 4, 2);
        let mut sb = Sideband::new(mesh.len(), 2);
        sb.update(mesh, &soa);
        assert!(!sb.channel_congested(NodeId(0), Direction::East));
        // Fill two VCs of n1's west input (fed by n0's east output).
        let west = Port::Dir(Direction::West).index();
        soa.in_push(soa.ivc(NodeId(1), west, 0), flit(3, 0));
        soa.in_push(soa.ivc(NodeId(1), west, 1), flit(3, 1));
        sb.update(mesh, &soa);
        assert!(sb.channel_congested(NodeId(0), Direction::East));
        assert!(!sb.channel_congested(NodeId(1), Direction::East));
    }

    #[test]
    fn mesh_edges_never_congested() {
        let mesh = AnyTopology::mesh(4, 4);
        let soa = NocSoa::new(mesh.len(), 4, 4, 2);
        let mut sb = Sideband::new(mesh.len(), 1);
        sb.update(mesh, &soa);
        assert!(!sb.channel_congested(NodeId(0), Direction::West));
        assert!(!sb.channel_congested(NodeId(0), Direction::South));
    }

    /// `dir_index` is the discriminant, so the bit a direction reads is
    /// the bit `update` writes at its position in `DIRECTIONS`.
    #[test]
    fn dir_index_is_the_position_in_directions() {
        for (i, dir) in DIRECTIONS.into_iter().enumerate() {
            assert_eq!(dir as usize, i, "{dir:?}");
            assert_eq!(Sideband::dir_index(dir), i, "{dir:?}");
        }
    }

    #[test]
    fn threshold_is_at_least_one() {
        let sb = Sideband::new(4, 0);
        assert_eq!(sb.threshold, 1);
    }

    #[test]
    fn incremental_refresh_matches_full_update() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut soa = NocSoa::new(mesh.len(), 4, 4, 2);
        // Occupy inputs at an interior node (5) and an edge node (0).
        for (node, port, vcs) in [
            (5u16, Direction::West, 2u8),
            (5, Direction::North, 1),
            (0, Direction::East, 2),
        ] {
            for v in 0..vcs {
                let ivc = soa.ivc(NodeId(node), Port::Dir(port).index(), v as usize);
                soa.in_push(ivc, flit(9, v));
            }
        }
        let mut full = Sideband::new(mesh.len(), 2);
        full.update(mesh, &soa);
        let mut incr = Sideband::new(mesh.len(), 2);
        incr.refresh_from(mesh, &soa, NodeId(5));
        incr.refresh_from(mesh, &soa, NodeId(0));
        for node in mesh.nodes() {
            for dir in DIRECTIONS {
                assert_eq!(
                    full.channel_congested(node, dir),
                    incr.channel_congested(node, dir),
                    "bit mismatch at {node:?} {dir:?}"
                );
            }
        }
    }
}

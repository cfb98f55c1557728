//! The Odd-Even turn model (Chiu, 2000) — the paper's partially adaptive
//! baseline, [`crate::any::Selector::OddEven`].
//!
//! Turn restrictions (Chiu's odd-even turn model, with East = +x and
//! columns indexed from 0):
//!
//! * **Rule 1** — no East→North turn at a node in an even column; no
//!   North→West turn at a node in an odd column.
//! * **Rule 2** — no East→South turn at a node in an even column; no
//!   South→West turn at a node in an odd column.
//!
//! The allowed-direction computation below is the classic minimal `ROUTE`
//! function from the odd-even paper. Deadlock-free without VCs, so all VCs
//! of a channel are adaptively usable and reallocation is non-atomic
//! (the buffer-utilization advantage the Footprint paper notes in §4.2.1).
//! Output selection follows the paper's methodology section: "for Odd-Even
//! routing, the number of idle VCs is used to select output ports."

use crate::algorithm::DirSet;
use footprint_topology::{AnyTopology, Direction, NodeId};

/// The minimal directions permitted by the odd-even turn model for a
/// packet injected at `src`, currently at `cur`, destined to `dest`.
///
/// The rules are stated over coordinate deltas, so on wrapping
/// topologies this is exactly the odd-even relation on the acyclic
/// (non-wraparound) channel subgraph — the mesh CDG argument carries
/// over verbatim and wrap channels are simply never used.
#[inline]
pub(crate) fn legal_dirs(topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
    let c = topo.coord(cur);
    let s = topo.coord(src);
    let d = topo.coord(dest);
    let e0 = d.x as i32 - c.x as i32;
    let e1 = d.y as i32 - c.y as i32;
    let mut avail = DirSet::EMPTY;
    if e0 == 0 && e1 == 0 {
        return avail; // at destination
    }
    let vertical = if e1 > 0 {
        Direction::North
    } else {
        Direction::South
    };
    if e0 == 0 {
        // Same column: only the vertical direction is minimal.
        avail.insert(vertical);
    } else if e0 > 0 {
        // Eastbound.
        if e1 == 0 {
            avail.insert(Direction::East);
        } else {
            // A N/S move here implies a later N→E / S→E turn (always
            // allowed) *unless* we would need a forbidden E→N / E→S turn
            // later; taking the vertical move now is allowed only in odd
            // columns or in the source column.
            if c.x % 2 == 1 || c.x == s.x {
                avail.insert(vertical);
            }
            // Continuing East is allowed unless the destination column is
            // even and exactly one hop away (we would be forced into an
            // E→N / E→S turn at an even column).
            if d.x % 2 == 1 || e0 != 1 {
                avail.insert(Direction::East);
            }
        }
    } else {
        // Westbound: West is always permitted; vertical moves only in
        // even columns (N→W / S→W turns are banned in odd columns).
        avail.insert(Direction::West);
        if e1 != 0 && c.x.is_multiple_of(2) {
            avail.insert(vertical);
        }
    }
    avail
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::AnyTopology;

    fn dirs(mesh: AnyTopology, cur: u16, src: u16, dest: u16) -> DirSet {
        legal_dirs(mesh, NodeId(cur), NodeId(src), NodeId(dest))
    }

    #[test]
    fn at_destination_no_dirs() {
        let mesh = AnyTopology::mesh(8, 8);
        assert!(dirs(mesh, 9, 0, 9).is_empty());
    }

    #[test]
    fn same_column_goes_vertical() {
        let mesh = AnyTopology::mesh(8, 8);
        let d = dirs(mesh, 2, 2, 18); // (2,0) → (2,2)
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::North));
    }

    #[test]
    fn same_row_eastbound_goes_east() {
        let mesh = AnyTopology::mesh(8, 8);
        let d = dirs(mesh, 0, 0, 5);
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::East));
    }

    #[test]
    fn no_east_to_vertical_turn_prepared_in_even_non_source_column() {
        let mesh = AnyTopology::mesh(8, 8);
        // Packet from (0,0) now at (2,0), dest (5,3): even column, not the
        // source column → vertical not allowed, must continue East.
        let d = dirs(mesh, 2, 0, 29);
        assert!(!d.contains(Direction::North));
        assert!(d.contains(Direction::East));
        // Same position but odd column (3,0): both allowed.
        let d = dirs(mesh, 3, 0, 29);
        assert!(d.contains(Direction::North));
        assert!(d.contains(Direction::East));
    }

    #[test]
    fn eastbound_must_turn_before_even_destination_column() {
        let mesh = AnyTopology::mesh(8, 8);
        // At (3,0), dest (4,3): destination column even and one hop East →
        // East would force an E→N turn at an even column, so East is banned.
        let d = dirs(mesh, 3, 0, 4 + 3 * 8);
        assert!(!d.contains(Direction::East));
        assert!(d.contains(Direction::North));
        // Destination column odd and one hop away → East allowed.
        let d = dirs(mesh, 4, 4, 5 + 3 * 8);
        assert!(d.contains(Direction::East));
    }

    #[test]
    fn westbound_vertical_only_in_even_columns() {
        let mesh = AnyTopology::mesh(8, 8);
        // At (5,5) going to (2,2): odd column → only West.
        let d = dirs(mesh, 5 + 5 * 8, 63, 2 + 2 * 8);
        assert_eq!(d.len(), 1);
        assert!(d.contains(Direction::West));
        // At (4,5) same dest: even column → West and South.
        let d = dirs(mesh, 4 + 5 * 8, 63, 2 + 2 * 8);
        assert!(d.contains(Direction::West));
        assert!(d.contains(Direction::South));
    }

    #[test]
    fn legal_dirs_are_always_minimal() {
        let mesh = AnyTopology::mesh(6, 6);
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                for cur in mesh.nodes() {
                    // Only positions that lie on some minimal path matter,
                    // but minimality of the output must hold everywhere.
                    let legal = legal_dirs(mesh, cur, src, dest);
                    let minimal = mesh.minimal_dirs(cur, dest);
                    for d in legal.iter() {
                        assert!(
                            minimal.contains(d),
                            "non-minimal direction {d} at {cur} for {src}->{dest}"
                        );
                    }
                }
            }
        }
    }

    /// Every packet can always make progress: the legal set is non-empty at
    /// every node on any partially-routed minimal walk.
    #[test]
    fn routing_function_is_connected() {
        let mesh = AnyTopology::mesh(5, 5);
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if src == dest {
                    continue;
                }
                // Walk greedily following the first legal direction; must
                // arrive within the minimal hop count.
                let mut cur = src;
                let mut hops = 0;
                while cur != dest {
                    let legal = legal_dirs(mesh, cur, src, dest);
                    let d = legal
                        .iter()
                        .next()
                        .unwrap_or_else(|| panic!("stuck at {cur} for {src}->{dest}"));
                    cur = crate::invariant::neighbor_checked(mesh, cur, d).unwrap();
                    hops += 1;
                    assert!(hops <= mesh.hops(src, dest));
                }
            }
        }
    }

    #[test]
    fn route_excludes_faulted_directions() {
        use crate::{
            DownLinks, NoCongestionInfo, RoutingAlgorithm, RoutingCtx, RoutingSpec, TablePortView,
            VcId,
        };
        use footprint_topology::Port;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mesh = AnyTopology::mesh(8, 8);
        let view = TablePortView::all_idle(4, 4);
        let cong = NoCongestionInfo;
        // From (3,0) to (5,3): odd column, both East and North legal.
        let faults = DownLinks::new(vec![(NodeId(3), Direction::East)]);
        let ctx = RoutingCtx {
            topo: mesh,
            current: NodeId(3),
            src: NodeId(0),
            dest: NodeId(29),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 4,
            ports: &view,
            congestion: &cong,
            links: &faults,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        RoutingSpec::OddEven.routing().route(&ctx, &mut rng, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.port == Port::Dir(Direction::North)));
    }

    /// The odd-even turn model bans E→N and E→S turns in even columns and
    /// N→W and S→W turns in odd columns; verify on all (prev, cur) pairs of
    /// every greedy walk.
    #[test]
    fn forbidden_turns_never_taken() {
        let mesh = AnyTopology::mesh(6, 6);
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if src == dest {
                    continue;
                }
                // Enumerate all (cur, incoming-dir) states reachable by legal
                // moves and check turn legality.
                let mut stack = vec![(src, None::<Direction>)];
                let mut seen = std::collections::HashSet::new();
                while let Some((cur, incoming)) = stack.pop() {
                    if !seen.insert((cur, incoming)) {
                        continue;
                    }
                    let legal = legal_dirs(mesh, cur, src, dest);
                    for out in legal.iter() {
                        if let Some(inc) = incoming {
                            let x = mesh.coord(cur).x;
                            let even = x.is_multiple_of(2);
                            let banned = match (inc, out) {
                                (Direction::East, Direction::North)
                                | (Direction::East, Direction::South) => even,
                                (Direction::North, Direction::West)
                                | (Direction::South, Direction::West) => !even,
                                _ => false,
                            };
                            assert!(
                                !banned,
                                "forbidden turn {inc}->{out} at {cur} ({src}->{dest})"
                            );
                        }
                        stack.push((
                            crate::invariant::neighbor_checked(mesh, cur, out).unwrap(),
                            Some(out),
                        ));
                    }
                }
            }
        }
    }
}

//! Synthetic traffic patterns.
//!
//! Every workload the paper evaluates picks a packet's destination as a
//! function of its source: uniform random, transpose and shuffle (Figures
//! 5–8), the eight flows of Table 3 (Figure 9) and the four-flow
//! permutation of Figure 2. [`Pattern`] is that function as one value;
//! bit-complement, bit-reverse and tornado are provided for wider testing
//! and ablations.

use core::fmt;
use footprint_topology::{AnyTopology, Coord, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// The four-flow permutation of the paper's Figure 2 on a 4×4 mesh:
/// `{n0→n10, n1→n15, n4→n13, n12→n13}`. `n0→n10` and `n1→n15` cause
/// network congestion; `n4` and `n12` oversubscribe endpoint `n13`.
pub const FIGURE2: &[(NodeId, NodeId)] = &[
    (NodeId(0), NodeId(10)),
    (NodeId(1), NodeId(15)),
    (NodeId(4), NodeId(13)),
    (NodeId(12), NodeId(13)),
];

/// The eight hotspot flows of the paper's Table 3 on an 8×8 mesh,
/// `f1` to `f8`: two flows into each of the four corner endpoints.
pub const TABLE3: &[(NodeId, NodeId)] = &[
    (NodeId(0), NodeId(63)),
    (NodeId(32), NodeId(63)),
    (NodeId(7), NodeId(56)),
    (NodeId(39), NodeId(56)),
    (NodeId(63), NodeId(0)),
    (NodeId(31), NodeId(0)),
    (NodeId(56), NodeId(7)),
    (NodeId(24), NodeId(7)),
];

/// A destination-selection function over a fabric.
///
/// Patterns are pure given the RNG: only [`Pattern::Uniform`] draws from
/// it (one draw per destination). A source whose destination would be
/// itself — a fixed point of a permutation — does not inject. Patterns
/// address nodes by id and grid coordinate, so the same pattern drives a
/// mesh, a torus of the same dimensions, or a ring (which presents as an
/// `n×1` grid) wherever [`Pattern::check`] accepts the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniform random: every other node is equally likely.
    Uniform,
    /// Transpose: `(x, y) → (y, x)`. Needs a square grid.
    Transpose,
    /// Shuffle: the destination id is the source id rotated left by one
    /// bit. Needs a power-of-two node count.
    Shuffle,
    /// Bit-complement: the destination id is the bitwise complement of the
    /// source id. Needs a power-of-two node count.
    BitComplement,
    /// Bit-reverse: the destination id is the bit-reversed source id.
    /// Needs a power-of-two node count.
    BitReverse,
    /// Tornado: halfway around the X dimension,
    /// `(x, y) → (x + ⌈w/2⌉ - 1 mod w, y)`.
    Tornado,
    /// Explicit `(source, destination)` flows ([`FIGURE2`], [`TABLE3`]).
    /// A node that is no flow's source does not inject; a source listed
    /// twice sends on its first flow.
    Flows(&'static [(NodeId, NodeId)]),
}

impl Pattern {
    /// Short display name ("uniform", "transpose", ...).
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::Shuffle => "shuffle",
            Pattern::BitComplement => "bit-complement",
            Pattern::BitReverse => "bit-reverse",
            Pattern::Tornado => "tornado",
            Pattern::Flows(flows) if flows == FIGURE2 => "figure2-permutation",
            Pattern::Flows(flows) if flows == TABLE3 => "table3",
            Pattern::Flows(_) => "flows",
        }
    }

    /// Checks that the pattern is defined on `topo`.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] naming the unmet requirement: a
    /// power-of-two node count for the three bit patterns, a square grid
    /// for transpose, every endpoint inside the fabric for flows.
    pub fn check(self, topo: AnyTopology) -> Result<(), PatternError> {
        let requirement = match self {
            Pattern::Shuffle | Pattern::BitComplement | Pattern::BitReverse
                if !topo.len().is_power_of_two() =>
            {
                "a power-of-two node count"
            }
            Pattern::Transpose if topo.width() != topo.height() => "a square grid",
            Pattern::Flows(flows)
                if flows
                    .iter()
                    .any(|&(s, d)| s.index().max(d.index()) >= topo.len()) =>
            {
                "every flow endpoint inside the fabric"
            }
            _ => return Ok(()),
        };
        Err(PatternError {
            pattern: self.name(),
            requirement,
            topology: topo,
        })
    }

    /// Picks the destination for a packet injected at `src`, or `None` if
    /// `src` does not inject. Defined on every fabric [`Pattern::check`]
    /// accepts.
    pub fn dest(self, topo: AnyTopology, src: NodeId, rng: &mut SmallRng) -> Option<NodeId> {
        let n = topo.len();
        let s = src.index();
        let bits = n.trailing_zeros();
        let dest = match self {
            Pattern::Uniform => {
                let n = n as u16;
                if n <= 1 {
                    return None;
                }
                let d = rng.gen_range(0..n - 1);
                return Some(NodeId(d + u16::from(d >= src.0))); // skip self
            }
            Pattern::Transpose => {
                let c = topo.coord(src);
                topo.node_at(Coord::new(c.y, c.x))
            }
            Pattern::Shuffle => NodeId((((s << 1) | (s >> (bits - 1))) & (n - 1)) as u16),
            Pattern::BitComplement => NodeId((!s & (n - 1)) as u16),
            Pattern::BitReverse => NodeId(
                s.reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0) as u16,
            ),
            Pattern::Tornado => {
                let c = topo.coord(src);
                let w = topo.width();
                topo.node_at(Coord::new((c.x + w.div_ceil(2) - 1) % w, c.y))
            }
            Pattern::Flows(flows) => flows.iter().find(|&&(from, _)| from == src)?.1,
        };
        (dest != src).then_some(dest)
    }
}

/// A pattern/fabric mismatch caught when the workload is built (see
/// [`Pattern::check`]), so it is an ordinary configuration error instead
/// of a panic the first time the pattern computes a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternError {
    /// The pattern's display name.
    pub pattern: &'static str,
    /// What the pattern needs of the fabric, e.g. "a square grid".
    pub requirement: &'static str,
    /// The fabric that does not meet it.
    pub topology: AnyTopology,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern `{}` needs {}, not the {}",
            self.pattern, self.requirement, self.topology
        )
    }
}

impl std::error::Error for PatternError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn square4() -> AnyTopology {
        AnyTopology::mesh(4, 4)
    }

    #[test]
    fn uniform_never_self_and_covers_nodes() {
        let mesh = square4();
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = Pattern::Uniform.dest(mesh, NodeId(5), &mut r).unwrap();
            assert_ne!(d, NodeId(5));
            seen[d.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = AnyTopology::mesh(8, 8);
        let mut r = rng();
        // (5,1) = n13 → (1,5) = n41.
        assert_eq!(
            Pattern::Transpose.dest(mesh, NodeId(13), &mut r),
            Some(NodeId(41))
        );
        // Diagonal nodes idle.
        assert_eq!(Pattern::Transpose.dest(mesh, NodeId(9), &mut r), None); // (1,1)
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mesh = square4(); // 16 nodes, 4 bits
        let mut r = rng();
        // 0b0011 → 0b0110
        assert_eq!(
            Pattern::Shuffle.dest(mesh, NodeId(3), &mut r),
            Some(NodeId(6))
        );
        // 0b1000 → 0b0001
        assert_eq!(
            Pattern::Shuffle.dest(mesh, NodeId(8), &mut r),
            Some(NodeId(1))
        );
        // Fixed points (0, 15) idle.
        assert_eq!(Pattern::Shuffle.dest(mesh, NodeId(0), &mut r), None);
        assert_eq!(Pattern::Shuffle.dest(mesh, NodeId(15), &mut r), None);
    }

    #[test]
    fn bit_complement_is_involutive() {
        let mesh = square4();
        let mut r = rng();
        for n in mesh.nodes() {
            let d = Pattern::BitComplement.dest(mesh, n, &mut r).unwrap();
            assert_eq!(Pattern::BitComplement.dest(mesh, d, &mut r), Some(n));
            assert_ne!(d, n);
        }
    }

    #[test]
    fn bit_reverse_examples() {
        let mesh = square4();
        let mut r = rng();
        // 0b0001 → 0b1000
        assert_eq!(
            Pattern::BitReverse.dest(mesh, NodeId(1), &mut r),
            Some(NodeId(8))
        );
        // 0b0011 → 0b1100
        assert_eq!(
            Pattern::BitReverse.dest(mesh, NodeId(3), &mut r),
            Some(NodeId(12))
        );
        // Palindromes idle: 0b0110.
        assert_eq!(Pattern::BitReverse.dest(mesh, NodeId(6), &mut r), None);
    }

    #[test]
    fn tornado_moves_half_way() {
        let mesh = AnyTopology::mesh(8, 8);
        let mut r = rng();
        // shift = ceil(8/2) - 1 = 3: (0,0) → (3,0).
        assert_eq!(
            Pattern::Tornado.dest(mesh, NodeId(0), &mut r),
            Some(NodeId(3))
        );
        assert_eq!(
            Pattern::Tornado.dest(mesh, NodeId(7), &mut r),
            Some(NodeId(2))
        );
    }

    #[test]
    fn patterns_agree_across_same_shape_topologies() {
        // Destination functions depend only on ids and grid coordinates, so
        // a torus of the same dimensions sees the identical pattern.
        let mesh = AnyTopology::mesh(4, 4);
        let torus = AnyTopology::torus(4, 4);
        let mut r1 = rng();
        let mut r2 = rng();
        for n in mesh.nodes() {
            for p in [Pattern::Transpose, Pattern::Tornado] {
                assert_eq!(p.dest(mesh, n, &mut r1), p.dest(torus, n, &mut r2));
            }
        }
    }

    #[test]
    fn ring_presents_as_flat_grid_to_patterns() {
        let ring = AnyTopology::ring(16);
        let mut r = rng();
        // Tornado walks the ring east with wraparound: shift 7.
        assert_eq!(
            Pattern::Tornado.dest(ring, NodeId(15), &mut r),
            Some(NodeId(6))
        );
        // Bit patterns work off the node count alone.
        assert_eq!(
            Pattern::Shuffle.dest(ring, NodeId(3), &mut r),
            Some(NodeId(6))
        );
        assert!(Pattern::Shuffle.check(ring).is_ok());
        // A 16×1 grid is not square, so transpose refuses the ring.
        let err = Pattern::Transpose.check(ring).unwrap_err();
        assert_eq!(err.requirement, "a square grid");
        assert!(err.to_string().contains("16-node ring"), "{err}");
    }

    #[test]
    fn figure2_permutation_matches_paper() {
        let mesh = square4();
        let p = Pattern::Flows(FIGURE2);
        let mut r = rng();
        assert_eq!(p.name(), "figure2-permutation");
        assert_eq!(p.dest(mesh, NodeId(0), &mut r), Some(NodeId(10)));
        assert_eq!(p.dest(mesh, NodeId(1), &mut r), Some(NodeId(15)));
        assert_eq!(p.dest(mesh, NodeId(4), &mut r), Some(NodeId(13)));
        assert_eq!(p.dest(mesh, NodeId(12), &mut r), Some(NodeId(13)));
        assert_eq!(p.dest(mesh, NodeId(2), &mut r), None);
        // Any fabric holding all six endpoints runs it, a ring included.
        assert!(p.check(AnyTopology::ring(16)).is_ok());
        let err = p.check(AnyTopology::mesh(3, 3)).unwrap_err();
        assert_eq!(err.requirement, "every flow endpoint inside the fabric");
    }

    #[test]
    fn fixed_points_do_not_inject() {
        let mesh = square4();
        let active = |p: Pattern| {
            let mut r = rng();
            mesh.nodes()
                .filter(|&n| p.dest(mesh, n, &mut r).is_some())
                .count()
        };
        assert_eq!(active(Pattern::Uniform), 16);
        // Transpose: 4 diagonal nodes idle out of 16.
        assert_eq!(active(Pattern::Transpose), 12);
        assert_eq!(active(Pattern::Flows(FIGURE2)), 4);
    }

    #[test]
    fn power_of_two_patterns_reject_odd_meshes_at_build() {
        // 6×6 = 36 nodes: not a power of two, so the bit patterns must be
        // rejected when the workload is built instead of misbehaving mid-run.
        let odd = AnyTopology::mesh(6, 6);
        let pow2 = AnyTopology::mesh(8, 8);
        for p in [
            Pattern::Shuffle,
            Pattern::BitComplement,
            Pattern::BitReverse,
        ] {
            let err = p.check(odd).expect_err("6x6 must be rejected");
            assert_eq!(
                err,
                PatternError {
                    pattern: p.name(),
                    requirement: "a power-of-two node count",
                    topology: odd,
                }
            );
            assert!(err.to_string().contains(p.name()));
            assert!(err.to_string().contains("6x6 mesh"));
            assert!(p.check(pow2).is_ok());
        }
        // Patterns without the structural requirement accept any topology.
        for p in [Pattern::Uniform, Pattern::Transpose, Pattern::Tornado] {
            assert!(p.check(odd).is_ok());
        }
    }

    #[test]
    fn only_uniform_draws_from_the_rng() {
        let mesh = AnyTopology::mesh(8, 8);
        for p in [
            Pattern::Transpose,
            Pattern::Shuffle,
            Pattern::BitComplement,
            Pattern::BitReverse,
            Pattern::Tornado,
            Pattern::Flows(TABLE3),
        ] {
            let mut r = rng();
            for n in mesh.nodes() {
                p.dest(mesh, n, &mut r);
            }
            assert_eq!(r.next_u64(), rng().next_u64(), "{} drew", p.name());
        }
    }
}

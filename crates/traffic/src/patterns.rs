//! Synthetic traffic patterns.
//!
//! The paper evaluates uniform random, transpose and shuffle (Figures 5–8);
//! the extra classics (bit-complement, bit-reverse, tornado, neighbor) are
//! provided for wider testing and ablations.

use core::fmt;
use footprint_topology::{AnyTopology, Coord, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// A destination-selection function over a topology.
///
/// Patterns are *pure* given the RNG: all state lives in the caller. A
/// pattern may exclude a node from participation by returning `None`.
/// Patterns address nodes by id and grid coordinate, so the same pattern
/// drives a mesh, a torus of the same dimensions, or a ring (which presents
/// as a `n×1` grid).
pub trait TrafficPattern: Send + Sync {
    /// Short display name ("uniform", "transpose", ...).
    fn name(&self) -> &'static str;

    /// Picks the destination for a packet injected at `src`, or `None` if
    /// `src` does not participate (e.g. fixed points of a permutation).
    fn dest(&self, topo: AnyTopology, src: NodeId, rng: &mut SmallRng) -> Option<NodeId>;

    /// Fraction of nodes that actively inject (1.0 for the classics;
    /// permutations with fixed points inject from fewer nodes).
    fn active_fraction(&self, topo: AnyTopology) -> f64 {
        let active = topo
            .nodes()
            .filter(|n| {
                // A node participates if it has any possible destination;
                // deterministic patterns are probed directly.
                let mut probe = crate::pattern_probe_rng();
                self.dest(topo, *n, &mut probe).is_some()
            })
            .count();
        active as f64 / topo.len() as f64
    }
}

/// Uniform random: every other node is equally likely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uniform;

impl TrafficPattern for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, rng: &mut SmallRng) -> Option<NodeId> {
        let n = topo.len() as u16;
        if n <= 1 {
            return None;
        }
        let mut d = rng.gen_range(0..n - 1);
        if d >= src.0 {
            d += 1; // skip self
        }
        Some(NodeId(d))
    }
}

/// Transpose: `(x, y) → (y, x)`. Diagonal nodes do not inject.
/// Requires a square grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transpose;

impl TrafficPattern for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        assert_eq!(topo.width(), topo.height(), "transpose needs a square grid");
        let c = topo.coord(src);
        if c.x == c.y {
            return None;
        }
        Some(topo.node_at(Coord::new(c.y, c.x)))
    }
}

/// Shuffle: destination id is the source id rotated left by one bit
/// (`d_i = s_{i-1 mod b}`). Requires a power-of-two node count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shuffle;

impl TrafficPattern for Shuffle {
    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        let n = topo.len();
        assert!(n.is_power_of_two(), "shuffle needs a power-of-two node count");
        let bits = n.trailing_zeros();
        let s = src.0 as usize;
        let d = ((s << 1) | (s >> (bits - 1) as usize)) & (n - 1);
        if d == s {
            return None;
        }
        Some(NodeId(d as u16))
    }
}

/// Bit-complement: destination id is the bitwise complement of the source.
/// Requires a power-of-two node count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitComplement;

impl TrafficPattern for BitComplement {
    fn name(&self) -> &'static str {
        "bit-complement"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        let n = topo.len();
        assert!(n.is_power_of_two(), "bit-complement needs a power-of-two node count");
        Some(NodeId((!(src.0 as usize) & (n - 1)) as u16))
    }
}

/// Bit-reverse: destination id is the bit-reversed source id.
/// Requires a power-of-two node count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitReverse;

impl TrafficPattern for BitReverse {
    fn name(&self) -> &'static str {
        "bit-reverse"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        let n = topo.len();
        assert!(n.is_power_of_two(), "bit-reverse needs a power-of-two node count");
        let bits = n.trailing_zeros();
        let mut s = src.0 as usize;
        let mut d = 0usize;
        for _ in 0..bits {
            d = (d << 1) | (s & 1);
            s >>= 1;
        }
        if d == src.0 as usize {
            None
        } else {
            Some(NodeId(d as u16))
        }
    }
}

/// Tornado: halfway around each dimension
/// (`(x, y) → (x + ⌈w/2⌉ - 1 mod w, y)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tornado;

impl TrafficPattern for Tornado {
    fn name(&self) -> &'static str {
        "tornado"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        let c = topo.coord(src);
        let w = topo.width();
        let shift = w.div_ceil(2) - 1;
        if shift == 0 {
            return None;
        }
        Some(topo.node_at(Coord::new((c.x + shift) % w, c.y)))
    }
}

/// Neighbor: one hop east, wrapping (stresses single links uniformly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Neighbor;

impl TrafficPattern for Neighbor {
    fn name(&self) -> &'static str {
        "neighbor"
    }

    fn dest(&self, topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        let c = topo.coord(src);
        Some(topo.node_at(Coord::new((c.x + 1) % topo.width(), c.y)))
    }
}

/// An explicit permutation (e.g. the four-flow example of the paper's
/// Figure 2). Nodes without a mapping do not inject.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<Option<NodeId>>,
}

impl Permutation {
    /// Builds a permutation over `topo` from explicit `(src, dest)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a source appears twice or a pair maps a node to itself.
    pub fn from_pairs(topo: AnyTopology, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut map = vec![None; topo.len()];
        for &(s, d) in pairs {
            assert_ne!(s, d, "self-pair in permutation");
            assert!(map[s.index()].is_none(), "duplicate source {s}");
            map[s.index()] = Some(d);
        }
        Permutation { map }
    }

    /// The paper's Figure 2 example on a 4×4 mesh:
    /// `{n0→n10, n1→n15, n4→n13, n12→n13}`.
    pub fn figure2_example(topo: AnyTopology) -> Self {
        assert!(
            topo.width() >= 4 && topo.height() >= 4,
            "figure 2 example needs at least a 4x4 grid"
        );
        Self::from_pairs(
            topo,
            &[
                (NodeId(0), NodeId(10)),
                (NodeId(1), NodeId(15)),
                (NodeId(4), NodeId(13)),
                (NodeId(12), NodeId(13)),
            ],
        )
    }
}

impl TrafficPattern for Permutation {
    fn name(&self) -> &'static str {
        "permutation"
    }

    fn dest(&self, _topo: AnyTopology, src: NodeId, _rng: &mut SmallRng) -> Option<NodeId> {
        self.map.get(src.index()).copied().flatten()
    }
}

/// A pattern/topology mismatch caught at construction time: the pattern's
/// destination function is only defined on a power-of-two node count, and
/// the fabric has `nodes` nodes.
///
/// Catching this when the workload is *built* turns what used to be a
/// mid-simulation panic (the first time the pattern computed a destination)
/// into an ordinary configuration error the caller can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternError {
    /// The pattern's display name.
    pub pattern: &'static str,
    /// The offending node count.
    pub nodes: usize,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern `{}` requires a power-of-two node count, got {}",
            self.pattern, self.nodes
        )
    }
}

impl std::error::Error for PatternError {}

/// The named patterns, for CLI/config parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternSpec {
    /// Uniform random.
    Uniform,
    /// Matrix transpose.
    Transpose,
    /// Bit shuffle.
    Shuffle,
    /// Bit complement.
    BitComplement,
    /// Bit reverse.
    BitReverse,
    /// Tornado.
    Tornado,
    /// Nearest neighbor.
    Neighbor,
}

impl PatternSpec {
    /// The three patterns used in the paper's Figures 5–8.
    pub const PAPER_SET: [PatternSpec; 3] = [
        PatternSpec::Uniform,
        PatternSpec::Transpose,
        PatternSpec::Shuffle,
    ];

    /// Instantiates the pattern after checking it is defined on `topo`.
    ///
    /// The bit-manipulating patterns (shuffle, bit-complement, bit-reverse)
    /// only make sense on a power-of-two node count; [`PatternSpec::build`]
    /// defers that check to the first destination computation (a panic deep
    /// inside the simulation), while this constructor rejects the mismatch
    /// up front.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] naming the pattern and node count when the
    /// topology does not satisfy the pattern's structural requirement.
    pub fn build_for(
        self,
        topo: AnyTopology,
    ) -> Result<Box<dyn TrafficPattern>, PatternError> {
        let needs_power_of_two = matches!(
            self,
            PatternSpec::Shuffle | PatternSpec::BitComplement | PatternSpec::BitReverse
        );
        if needs_power_of_two && !topo.len().is_power_of_two() {
            return Err(PatternError {
                pattern: self.name(),
                nodes: topo.len(),
            });
        }
        Ok(self.build())
    }

    /// Instantiates the pattern.
    pub fn build(self) -> Box<dyn TrafficPattern> {
        match self {
            PatternSpec::Uniform => Box::new(Uniform),
            PatternSpec::Transpose => Box::new(Transpose),
            PatternSpec::Shuffle => Box::new(Shuffle),
            PatternSpec::BitComplement => Box::new(BitComplement),
            PatternSpec::BitReverse => Box::new(BitReverse),
            PatternSpec::Tornado => Box::new(Tornado),
            PatternSpec::Neighbor => Box::new(Neighbor),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PatternSpec::Uniform => "uniform",
            PatternSpec::Transpose => "transpose",
            PatternSpec::Shuffle => "shuffle",
            PatternSpec::BitComplement => "bit-complement",
            PatternSpec::BitReverse => "bit-reverse",
            PatternSpec::Tornado => "tornado",
            PatternSpec::Neighbor => "neighbor",
        }
    }
}

impl fmt::Display for PatternSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
            let d = Uniform.dest(mesh, NodeId(5), &mut r).unwrap();
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
        assert_eq!(Transpose.dest(mesh, NodeId(13), &mut r), Some(NodeId(41)));
        // Diagonal nodes idle.
        assert_eq!(Transpose.dest(mesh, NodeId(9), &mut r), None); // (1,1)
    }

    #[test]
    fn shuffle_rotates_bits() {
        let mesh = square4(); // 16 nodes, 4 bits
        let mut r = rng();
        // 0b0011 → 0b0110
        assert_eq!(Shuffle.dest(mesh, NodeId(3), &mut r), Some(NodeId(6)));
        // 0b1000 → 0b0001
        assert_eq!(Shuffle.dest(mesh, NodeId(8), &mut r), Some(NodeId(1)));
        // Fixed points (0, 15) idle.
        assert_eq!(Shuffle.dest(mesh, NodeId(0), &mut r), None);
        assert_eq!(Shuffle.dest(mesh, NodeId(15), &mut r), None);
    }

    #[test]
    fn bit_complement_is_involutive() {
        let mesh = square4();
        let mut r = rng();
        for n in mesh.nodes() {
            let d = BitComplement.dest(mesh, n, &mut r).unwrap();
            assert_eq!(BitComplement.dest(mesh, d, &mut r), Some(n));
            assert_ne!(d, n);
        }
    }

    #[test]
    fn bit_reverse_examples() {
        let mesh = square4();
        let mut r = rng();
        // 0b0001 → 0b1000
        assert_eq!(BitReverse.dest(mesh, NodeId(1), &mut r), Some(NodeId(8)));
        // Palindromes idle: 0b0110.
        assert_eq!(BitReverse.dest(mesh, NodeId(6), &mut r), None);
    }

    #[test]
    fn tornado_moves_half_way() {
        let mesh = AnyTopology::mesh(8, 8);
        let mut r = rng();
        // shift = ceil(8/2) - 1 = 3: (0,0) → (3,0).
        assert_eq!(Tornado.dest(mesh, NodeId(0), &mut r), Some(NodeId(3)));
        assert_eq!(Tornado.dest(mesh, NodeId(7), &mut r), Some(NodeId(2)));
    }

    #[test]
    fn neighbor_wraps_east() {
        let mesh = square4();
        let mut r = rng();
        assert_eq!(Neighbor.dest(mesh, NodeId(0), &mut r), Some(NodeId(1)));
        assert_eq!(Neighbor.dest(mesh, NodeId(3), &mut r), Some(NodeId(0)));
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
            assert_eq!(
                Transpose.dest(mesh, n, &mut r1),
                Transpose.dest(torus, n, &mut r2)
            );
            assert_eq!(
                Tornado.dest(mesh, n, &mut r1),
                Tornado.dest(torus, n, &mut r2)
            );
        }
    }

    #[test]
    fn ring_presents_as_flat_grid_to_patterns() {
        let ring = AnyTopology::ring(16);
        let mut r = rng();
        // Neighbor walks the ring east with wraparound.
        assert_eq!(Neighbor.dest(ring, NodeId(15), &mut r), Some(NodeId(0)));
        // Bit patterns work off the node count alone.
        assert_eq!(Shuffle.dest(ring, NodeId(3), &mut r), Some(NodeId(6)));
        assert!(PatternSpec::Shuffle.build_for(ring).is_ok());
    }

    #[test]
    fn figure2_permutation_matches_paper() {
        let mesh = square4();
        let p = Permutation::figure2_example(mesh);
        let mut r = rng();
        assert_eq!(p.dest(mesh, NodeId(0), &mut r), Some(NodeId(10)));
        assert_eq!(p.dest(mesh, NodeId(1), &mut r), Some(NodeId(15)));
        assert_eq!(p.dest(mesh, NodeId(4), &mut r), Some(NodeId(13)));
        assert_eq!(p.dest(mesh, NodeId(12), &mut r), Some(NodeId(13)));
        assert_eq!(p.dest(mesh, NodeId(2), &mut r), None);
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn permutation_rejects_duplicate_sources() {
        let mesh = square4();
        let _ = Permutation::from_pairs(
            mesh,
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))],
        );
    }

    #[test]
    fn active_fraction_reflects_fixed_points() {
        let mesh = square4();
        assert!((Uniform.active_fraction(mesh) - 1.0).abs() < 1e-12);
        // Transpose: 4 diagonal nodes idle out of 16.
        assert!((Transpose.active_fraction(mesh) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn power_of_two_patterns_reject_odd_meshes_at_build() {
        // 6×6 = 36 nodes: not a power of two, so the bit patterns must be
        // rejected at construction instead of panicking mid-run.
        let odd = AnyTopology::mesh(6, 6);
        for spec in [
            PatternSpec::Shuffle,
            PatternSpec::BitComplement,
            PatternSpec::BitReverse,
        ] {
            let err = spec.build_for(odd).err().expect("6x6 must be rejected");
            assert_eq!(err, PatternError { pattern: spec.name(), nodes: 36 });
            assert!(err.to_string().contains(spec.name()));
            assert!(err.to_string().contains("36"));
        }
        // 8×8 = 64 nodes: accepted.
        let pow2 = AnyTopology::mesh(8, 8);
        for spec in [
            PatternSpec::Shuffle,
            PatternSpec::BitComplement,
            PatternSpec::BitReverse,
        ] {
            assert_eq!(spec.build_for(pow2).unwrap().name(), spec.name());
        }
        // Patterns without the structural requirement accept any topology.
        assert!(PatternSpec::Uniform.build_for(odd).is_ok());
        assert!(PatternSpec::Tornado.build_for(odd).is_ok());
    }

    #[test]
    fn spec_builds_matching_names() {
        for spec in [
            PatternSpec::Uniform,
            PatternSpec::Transpose,
            PatternSpec::Shuffle,
            PatternSpec::BitComplement,
            PatternSpec::BitReverse,
            PatternSpec::Tornado,
            PatternSpec::Neighbor,
        ] {
            assert_eq!(spec.build().name(), spec.name());
        }
        assert_eq!(PatternSpec::PAPER_SET.len(), 3);
    }
}

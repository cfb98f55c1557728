//! Synthetic Bernoulli workloads over a traffic pattern.

use crate::{PacketSize, Pattern, PatternError};
use footprint_sim::{NewPacket, Workload};
use footprint_topology::{AnyTopology, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// A Bernoulli injection process: every active node generates a packet per
/// cycle with probability `rate / mean_size`, so the *offered load* is
/// `rate` flits per node per cycle — the x-axis of the paper's
/// latency-throughput figures.
///
/// Per node and cycle the draws are the coin, then the pattern's
/// destination, then the packet size. Synthetic, Figure 2 and hotspot
/// traffic all inject through this one draw site.
#[derive(Debug)]
pub struct SyntheticWorkload {
    topo: AnyTopology,
    pattern: Pattern,
    size: PacketSize,
    rate: f64,
    /// The per-call packet probability, `rate / mean size` capped at 1.
    packet_p: f64,
    class: u8,
}

impl SyntheticWorkload {
    /// Creates a workload over `pattern` at `rate` flits/node/cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] when `pattern` is not defined on `topo`
    /// ([`Pattern::check`]).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or exceeds 1.0 (a node cannot inject
    /// more than one flit per cycle).
    pub fn new(
        topo: AnyTopology,
        pattern: Pattern,
        size: PacketSize,
        rate: f64,
    ) -> Result<Self, PatternError> {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0, 1]");
        pattern.check(topo)?;
        Ok(SyntheticWorkload {
            topo,
            pattern,
            size,
            rate,
            packet_p: (rate / size.mean()).min(1.0),
            class: 0,
        })
    }

    /// Tags generated packets with a traffic class (default 0).
    pub fn with_class(mut self, class: u8) -> Self {
        self.class = class;
        self
    }

    /// The configured offered load in flits/node/cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Workload for SyntheticWorkload {
    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let p = self.packet_p;
        if p <= 0.0 || !rng.gen_bool(p) {
            return None;
        }
        let dest = self.pattern.dest(self.topo, node, rng)?;
        Some(NewPacket {
            dest,
            size: self.size.sample(rng),
            class: self.class,
            origin: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::AnyTopology;
    use rand::SeedableRng;

    #[test]
    fn offered_load_matches_rate() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut wl =
            SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::SINGLE, 0.25).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut flits = 0u64;
        let cycles = 20_000;
        for c in 0..cycles {
            for n in mesh.nodes() {
                if let Some(p) = wl.generate(n, c, &mut rng) {
                    flits += p.size as u64;
                }
            }
        }
        let rate = flits as f64 / (cycles as f64 * mesh.len() as f64);
        assert!((rate - 0.25).abs() < 0.01, "measured rate {rate}");
    }

    #[test]
    fn variable_sizes_keep_flit_rate() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut wl =
            SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::PAPER_VARIABLE, 0.5)
                .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut flits = 0u64;
        let cycles = 20_000;
        for c in 0..cycles {
            for n in mesh.nodes() {
                if let Some(p) = wl.generate(n, c, &mut rng) {
                    assert!((1..=6).contains(&p.size));
                    flits += p.size as u64;
                }
            }
        }
        let rate = flits as f64 / (cycles as f64 * mesh.len() as f64);
        assert!((rate - 0.5).abs() < 0.02, "measured rate {rate}");
    }

    #[test]
    fn fixed_points_never_generate() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut wl =
            SyntheticWorkload::new(mesh, Pattern::Transpose, PacketSize::SINGLE, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for c in 0..100 {
            assert!(wl.generate(NodeId(0), c, &mut rng).is_none()); // (0,0)
            assert!(wl.generate(NodeId(5), c, &mut rng).is_none()); // (1,1)
        }
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn excessive_rate_rejected() {
        let mesh = AnyTopology::mesh(4, 4);
        let _ = SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::SINGLE, 1.5);
    }

    #[test]
    fn class_tag_propagates() {
        let mesh = AnyTopology::mesh(4, 4);
        let mut wl = SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::SINGLE, 1.0)
            .unwrap()
            .with_class(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let p = wl.generate(NodeId(0), 0, &mut rng).unwrap();
        assert_eq!(p.class, 2);
        assert_eq!(wl.rate(), 1.0);
    }
}

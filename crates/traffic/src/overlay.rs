//! Workload composition.

use footprint_sim::{NewPacket, Workload};
use footprint_topology::NodeId;
use rand::rngs::SmallRng;

/// Composes two workloads: at each node and cycle the primary workload is
/// consulted first; the secondary only injects where the primary declined.
///
/// This is how foreground/background mixes are built — e.g. the Figure 2
/// flows over a light uniform background:
///
/// ```
/// use footprint_traffic::{Overlay, PacketSize, Pattern, SyntheticWorkload, FIGURE2};
/// use footprint_topology::AnyTopology;
///
/// let mesh = AnyTopology::mesh(4, 4);
/// let fg = SyntheticWorkload::new(mesh, Pattern::Flows(FIGURE2), PacketSize::SINGLE, 1.0)?
///     .with_class(1);
/// let bg = SyntheticWorkload::new(mesh, Pattern::Uniform, PacketSize::SINGLE, 0.15)?;
/// let _mix = Overlay::new(fg, bg);
/// # Ok::<(), footprint_traffic::PatternError>(())
/// ```
#[derive(Debug)]
pub struct Overlay<A, B> {
    primary: A,
    secondary: B,
}

impl<A: Workload, B: Workload> Overlay<A, B> {
    /// Composes `primary` over `secondary`.
    pub fn new(primary: A, secondary: B) -> Self {
        Overlay { primary, secondary }
    }
}

impl<A: Workload, B: Workload> Workload for Overlay<A, B> {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        self.primary
            .generate(node, cycle, rng)
            .or_else(|| self.secondary.generate(node, cycle, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_sim::{SingleFlow, NoTraffic};
    use rand::SeedableRng;

    #[test]
    fn primary_takes_precedence() {
        let a = SingleFlow {
            src: NodeId(0),
            dest: NodeId(1),
            rate: 1.0,
            size: 1,
        };
        let b = SingleFlow {
            src: NodeId(0),
            dest: NodeId(2),
            rate: 1.0,
            size: 1,
        };
        let mut o = Overlay::new(a, b);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = o.generate(NodeId(0), 0, &mut rng).unwrap();
        assert_eq!(p.dest, NodeId(1));
    }

    #[test]
    fn secondary_fills_gaps() {
        let b = SingleFlow {
            src: NodeId(3),
            dest: NodeId(2),
            rate: 1.0,
            size: 1,
        };
        let mut o = Overlay::new(NoTraffic, b);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = o.generate(NodeId(3), 0, &mut rng).unwrap();
        assert_eq!(p.dest, NodeId(2));
        assert!(o.generate(NodeId(0), 0, &mut rng).is_none());
    }
}

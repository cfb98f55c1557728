//! The paper's hotspot workload (Table 3, Figure 9).
//!
//! Eight persistent flows ([`TABLE3`]) oversubscribe four endpoints while
//! every non-participating node injects uniform-random *background*
//! traffic at a fixed rate (0.30 in the paper). The experiment measures
//! the latency of the background traffic only — the hotspot flows exist
//! to grow a congestion tree and expose HoL blocking.

use crate::{PacketSize, Pattern, PatternError, SyntheticWorkload, TABLE3};
use footprint_sim::{NewPacket, Workload};
use footprint_topology::{AnyTopology, NodeId};
use rand::rngs::SmallRng;

/// Traffic class of background packets (latency is measured on this class).
pub const BACKGROUND_CLASS: u8 = 0;
/// Traffic class of hotspot packets (excluded from latency measurement).
pub const HOTSPOT_CLASS: u8 = 1;

/// The hotspot + background workload of Figure 9: the [`TABLE3`] flows
/// and the uniform background are two [`SyntheticWorkload`]s, and each
/// node injects through the one its role selects.
#[derive(Debug)]
pub struct HotspotWorkload {
    hotspot: SyntheticWorkload,
    background: SyntheticWorkload,
}

impl HotspotWorkload {
    /// Creates the workload: the Table 3 flows inject at `hotspot_rate`
    /// flits/cycle, everyone else injects uniform background at
    /// `background_rate` (0.30 in the paper).
    ///
    /// # Errors
    ///
    /// Returns a [`PatternError`] when a flow endpoint lies outside
    /// `topo` (the flows are defined on the 8×8 mesh's node ids).
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`.
    pub fn new(
        topo: AnyTopology,
        hotspot_rate: f64,
        background_rate: f64,
        size: PacketSize,
    ) -> Result<Self, PatternError> {
        let flows = SyntheticWorkload::new(topo, Pattern::Flows(TABLE3), size, hotspot_rate)?;
        let uniform = SyntheticWorkload::new(topo, Pattern::Uniform, size, background_rate)?;
        Ok(HotspotWorkload {
            hotspot: flows.with_class(HOTSPOT_CLASS),
            background: uniform.with_class(BACKGROUND_CLASS),
        })
    }
}

impl Workload for HotspotWorkload {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if TABLE3.iter().any(|&(src, _)| src == node) {
            self.hotspot.generate(node, cycle, rng)
        } else {
            self.background.generate(node, cycle, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn paper(hotspot_rate: f64) -> HotspotWorkload {
        HotspotWorkload::new(
            AnyTopology::mesh(8, 8),
            hotspot_rate,
            0.30,
            PacketSize::SINGLE,
        )
        .expect("Table 3 fits the 8x8 mesh")
    }

    #[test]
    fn paper_flows_match_table_3() {
        assert_eq!(TABLE3.len(), 8);
        assert_eq!(TABLE3[0], (NodeId(0), NodeId(63)));
        assert_eq!(TABLE3[7], (NodeId(24), NodeId(7)));
        // Four hotspot destinations, each hit by exactly two flows.
        let mut dests: Vec<_> = TABLE3.iter().map(|f| f.1).collect();
        dests.sort();
        dests.dedup();
        assert_eq!(dests.len(), 4);
        for d in dests {
            assert_eq!(TABLE3.iter().filter(|f| f.1 == d).count(), 2);
        }
    }

    #[test]
    fn hotspot_sources_send_only_their_flow() {
        let mut wl = paper(1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..50 {
            let p = wl.generate(NodeId(0), c, &mut rng).unwrap();
            assert_eq!(p.dest, NodeId(63));
            assert_eq!(p.class, HOTSPOT_CLASS);
        }
    }

    #[test]
    fn background_nodes_send_uniform_class_0() {
        let mut wl = paper(1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut saw = 0;
        for c in 0..500 {
            if let Some(p) = wl.generate(NodeId(10), c, &mut rng) {
                assert_eq!(p.class, BACKGROUND_CLASS);
                assert_ne!(p.dest, NodeId(10));
                saw += 1;
            }
        }
        // Background rate 0.30 → about 150 packets.
        assert!((100..=200).contains(&saw), "saw {saw}");
    }

    #[test]
    fn zero_hotspot_rate_silences_flows() {
        let mut wl = paper(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..100 {
            assert!(wl.generate(NodeId(0), c, &mut rng).is_none());
        }
    }

    #[test]
    fn table3_flows_need_their_endpoints_in_the_fabric() {
        let small = AnyTopology::mesh(4, 4);
        let err = HotspotWorkload::new(small, 0.5, 0.30, PacketSize::SINGLE).unwrap_err();
        assert_eq!(err.pattern, "table3");
        assert_eq!(err.requirement, "every flow endpoint inside the fabric");
        // Any fabric with node ids up to n63 runs them.
        assert!(
            HotspotWorkload::new(AnyTopology::mesh(16, 16), 0.5, 0.30, PacketSize::SINGLE).is_ok()
        );
    }
}

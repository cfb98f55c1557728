//! The paper's hotspot workload (Table 3, Figure 9).
//!
//! Eight persistent flows oversubscribe four endpoints while every
//! non-participating node injects uniform-random *background* traffic at a
//! fixed rate (0.30 in the paper). The experiment measures the latency of
//! the background traffic only — the hotspot flows exist to grow a
//! congestion tree and expose HoL blocking.

use crate::patterns::{TrafficPattern, Uniform};
use crate::PacketSize;
use footprint_sim::{NewPacket, Workload};
use footprint_topology::{AnyTopology, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Traffic class of background packets (latency is measured on this class).
pub const BACKGROUND_CLASS: u8 = 0;
/// Traffic class of hotspot packets (excluded from latency measurement).
pub const HOTSPOT_CLASS: u8 = 1;

/// A persistent flow `src → dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
}

/// The eight flows of the paper's Table 3 (8×8 mesh):
/// `f1: n0→n63, f2: n32→n63, f3: n7→n56, f4: n39→n56,
///  f5: n63→n0, f6: n31→n0, f7: n56→n7, f8: n24→n7`.
pub fn paper_flows() -> Vec<Flow> {
    [
        (0u16, 63u16),
        (32, 63),
        (7, 56),
        (39, 56),
        (63, 0),
        (31, 0),
        (56, 7),
        (24, 7),
    ]
    .into_iter()
    .map(|(s, d)| Flow {
        src: NodeId(s),
        dest: NodeId(d),
    })
    .collect()
}

/// The hotspot + background workload of Figure 9.
#[derive(Debug)]
pub struct HotspotWorkload {
    topo: AnyTopology,
    flows: Vec<Flow>,
    hotspot_rate: f64,
    background_rate: f64,
    size: PacketSize,
    is_hotspot_src: Vec<bool>,
}

impl HotspotWorkload {
    /// Creates the workload: flows inject at `hotspot_rate` flits/cycle,
    /// everyone else injects uniform background at `background_rate`.
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint lies outside the fabric or a rate is
    /// outside `[0, 1]`.
    pub fn new(
        topo: AnyTopology,
        flows: Vec<Flow>,
        hotspot_rate: f64,
        background_rate: f64,
        size: PacketSize,
    ) -> Self {
        assert!((0.0..=1.0).contains(&hotspot_rate), "hotspot rate");
        assert!((0.0..=1.0).contains(&background_rate), "background rate");
        let mut is_hotspot_src = vec![false; topo.len()];
        for f in &flows {
            assert!(f.src.index() < topo.len(), "flow source outside fabric");
            assert!(f.dest.index() < topo.len(), "flow dest outside fabric");
            is_hotspot_src[f.src.index()] = true;
        }
        HotspotWorkload {
            topo,
            flows,
            hotspot_rate,
            background_rate,
            size,
            is_hotspot_src,
        }
    }

    /// The paper's configuration on an 8×8 mesh: Table 3 flows, background
    /// at 0.30, single-flit packets; hotspot rate is the sweep variable.
    pub fn paper(topo: AnyTopology, hotspot_rate: f64) -> Self {
        assert!(
            topo.len() == 64,
            "the Table 3 flow set is defined on the 8x8 mesh"
        );
        Self::new(
            topo,
            paper_flows(),
            hotspot_rate,
            0.30,
            PacketSize::SINGLE,
        )
    }

    /// The flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }
}

impl Workload for HotspotWorkload {
    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if self.is_hotspot_src[node.index()] {
            let p = (self.hotspot_rate / self.size.mean()).min(1.0);
            if p > 0.0 && rng.gen_bool(p) {
                let dest = self
                    .flows
                    .iter()
                    .find(|f| f.src == node)
                    .expect("marked source has a flow")
                    .dest;
                return Some(NewPacket {
                    dest,
                    size: self.size.sample(rng),
                    class: HOTSPOT_CLASS,
                    origin: None,
                });
            }
            None
        } else {
            let p = (self.background_rate / self.size.mean()).min(1.0);
            if p > 0.0 && rng.gen_bool(p) {
                let dest = Uniform.dest(self.topo, node, rng)?;
                Some(NewPacket {
                    dest,
                    size: self.size.sample(rng),
                    class: BACKGROUND_CLASS,
                    origin: None,
                })
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::AnyTopology;
    use rand::SeedableRng;

    #[test]
    fn paper_flows_match_table_3() {
        let flows = paper_flows();
        assert_eq!(flows.len(), 8);
        assert_eq!(flows[0], Flow { src: NodeId(0), dest: NodeId(63) });
        assert_eq!(flows[7], Flow { src: NodeId(24), dest: NodeId(7) });
        // Four hotspot destinations, each hit by exactly two flows.
        let mut dests: Vec<_> = flows.iter().map(|f| f.dest).collect();
        dests.sort();
        dests.dedup();
        assert_eq!(dests.len(), 4);
        for d in dests {
            assert_eq!(flows.iter().filter(|f| f.dest == d).count(), 2);
        }
    }

    #[test]
    fn hotspot_sources_send_only_their_flow() {
        let mesh = AnyTopology::mesh(8, 8);
        let mut wl = HotspotWorkload::paper(mesh, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..50 {
            let p = wl.generate(NodeId(0), c, &mut rng).unwrap();
            assert_eq!(p.dest, NodeId(63));
            assert_eq!(p.class, HOTSPOT_CLASS);
        }
    }

    #[test]
    fn background_nodes_send_uniform_class_0() {
        let mesh = AnyTopology::mesh(8, 8);
        let mut wl = HotspotWorkload::paper(mesh, 1.0);
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
        let mesh = AnyTopology::mesh(8, 8);
        let mut wl = HotspotWorkload::paper(mesh, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..100 {
            assert!(wl.generate(NodeId(0), c, &mut rng).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "8x8")]
    fn paper_config_requires_8x8() {
        let _ = HotspotWorkload::paper(AnyTopology::mesh(4, 4), 0.5);
    }
}

//! Blocking-purity tracking (§4.3, Figure 10(b)/(c)).
//!
//! The paper tracks 10,000 packets per trace and measures the *purity of
//! blocking*: of the busy VCs a blocked packet saw, what fraction were
//! footprint VCs (same destination)? High purity means blocking is benign
//! (waiting behind your own flow); low purity means HoL blocking by other
//! flows. The *degree of HoL blocking* multiplies impurity by how often
//! blocking occurred.

use footprint_sim::{EjectedPacket, PacketId, Probe, VaBlockInfo};
use std::collections::HashMap;

/// A [`Probe`] that tracks blocking purity for the first `limit` packets
/// that experience blocking (the paper tracks 10,000).
#[derive(Debug)]
pub struct PurityProbe {
    limit: usize,
    per_packet: HashMap<PacketId, (u64, f64, u64)>, // (blocks, purity_sum, purity_events)
    ejected: u64,
}

impl PurityProbe {
    /// Tracks up to `limit` distinct blocked packets.
    pub fn new(limit: usize) -> Self {
        PurityProbe {
            limit,
            per_packet: HashMap::new(),
            ejected: 0,
        }
    }

    /// The paper's configuration: 10,000 tracked packets.
    pub fn paper() -> Self {
        Self::new(10_000)
    }

    /// Number of distinct packets that experienced blocking (capped).
    pub fn tracked(&self) -> usize {
        self.per_packet.len()
    }

    /// Packets ejected while the probe was attached.
    pub fn ejected(&self) -> u64 {
        self.ejected
    }

    /// Mean blocking purity over tracked packets (each packet contributes
    /// its own mean purity; packets whose blocks never saw a busy VC are
    /// skipped).
    pub fn mean_purity(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(_, purity_sum, events) in self.per_packet.values() {
            if events > 0 {
                sum += purity_sum / events as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Degree of HoL blocking: impurity × blocking events per tracked
    /// packet (Figure 10(c)).
    pub fn hol_degree(&self) -> f64 {
        let tracked = self.per_packet.len();
        if tracked == 0 {
            return 0.0;
        }
        let blocks: u64 = self.per_packet.values().map(|&(b, _, _)| b).sum();
        (1.0 - self.mean_purity()) * blocks as f64 / tracked as f64
    }
}

impl Probe for PurityProbe {
    fn va_blocked(&mut self, info: &VaBlockInfo) {
        let full = self.per_packet.len() >= self.limit;
        let entry = match self.per_packet.get_mut(&info.packet) {
            Some(e) => e,
            None if full => return,
            None => self.per_packet.entry(info.packet).or_insert((0, 0.0, 0)),
        };
        entry.0 += 1;
        if let Some(p) = info.purity() {
            entry.1 += p;
            entry.2 += 1;
        }
    }

    fn packet_ejected(&mut self, _packet: &EjectedPacket) {
        self.ejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::NodeId;

    fn block(packet: u64, fp: u32, busy: u32) -> VaBlockInfo {
        VaBlockInfo {
            node: NodeId(0),
            packet: PacketId(packet),
            dest: NodeId(1),
            class: 0,
            footprint_vcs: fp,
            busy_vcs: busy,
        }
    }

    #[test]
    fn purity_averages_per_packet_then_across_packets() {
        let mut p = PurityProbe::new(10);
        // Packet 1: purities 1.0 and 0.0 → mean 0.5.
        p.va_blocked(&block(1, 4, 4));
        p.va_blocked(&block(1, 0, 4));
        // Packet 2: purity 1.0.
        p.va_blocked(&block(2, 2, 2));
        assert_eq!(p.tracked(), 2);
        assert!((p.mean_purity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hol_degree_combines_impurity_and_block_rate() {
        let mut p = PurityProbe::new(10);
        p.va_blocked(&block(1, 0, 4)); // purity 0
        p.va_blocked(&block(1, 0, 4));
        // 2 blocks over 1 tracked packet, impurity 1.0 → degree 2.0.
        assert!((p.hol_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn limit_caps_tracked_packets_but_not_block_count() {
        let mut p = PurityProbe::new(2);
        for pkt in 0..5 {
            p.va_blocked(&block(pkt, 1, 2));
        }
        assert_eq!(p.tracked(), 2);
        // One block per tracked packet at purity 0.5.
        assert!((p.hol_degree() - 0.5).abs() < 1e-12);
        // Existing packets keep accumulating past the cap: 3 blocks over 2.
        p.va_blocked(&block(0, 1, 2));
        assert_eq!(p.tracked(), 2);
        assert!((p.hol_degree() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_probe_is_zero() {
        let p = PurityProbe::paper();
        assert_eq!(p.mean_purity(), 0.0);
        assert_eq!(p.hol_degree(), 0.0);
        assert_eq!(p.ejected(), 0);
    }
}

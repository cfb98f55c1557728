//! Reusable instrumentation probes built on the simulator's `Probe` hook.

use crate::{Histogram, OnlineStats};
use footprint_sim::{EjectedPacket, Probe};
use std::collections::BTreeMap;

/// Records the full latency distribution of ejected packets, per traffic
/// class, as fixed-width histograms plus exact streaming moments.
///
/// Attach to a run via `RunOptions::probe` (or `Network::run_probed`) to
/// get percentiles the mean-only metrics can't provide — e.g. tail latency
/// under hotspot interference.
#[derive(Debug)]
pub struct LatencyHistogramProbe {
    bucket_width: u64,
    buckets: usize,
    classes: BTreeMap<u8, (Histogram, OnlineStats)>,
}

impl LatencyHistogramProbe {
    /// Creates a probe with per-class histograms of `buckets` buckets of
    /// `bucket_width` cycles each (latencies beyond the range land in the
    /// overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0 && buckets > 0, "empty histogram shape");
        LatencyHistogramProbe {
            bucket_width,
            buckets,
            classes: BTreeMap::new(),
        }
    }

    /// The histogram for `class`, if any packet of that class ejected.
    pub fn histogram(&self, class: u8) -> Option<&Histogram> {
        self.classes.get(&class).map(|(h, _)| h)
    }

    /// Streaming latency moments for `class`.
    pub fn stats(&self, class: u8) -> Option<&OnlineStats> {
        self.classes.get(&class).map(|(_, s)| s)
    }

    /// The classes observed, in ascending order.
    pub fn classes(&self) -> Vec<u8> {
        self.classes.keys().copied().collect()
    }

    /// Latency below which a fraction `q` of class `class` packets finished
    /// (bucket-granular).
    pub fn quantile(&self, class: u8, q: f64) -> Option<u64> {
        self.histogram(class)?.quantile(q)
    }
}

impl Probe for LatencyHistogramProbe {
    fn packet_ejected(&mut self, packet: &EjectedPacket) {
        let (hist, stats) = self
            .classes
            .entry(packet.class)
            .or_insert_with(|| (Histogram::new(self.bucket_width, self.buckets), OnlineStats::new()));
        hist.push(packet.latency());
        stats.push(packet.latency());
    }
}

/// Summary of per-channel load distribution — how evenly a routing
/// algorithm spreads traffic over the physical links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Number of channels considered.
    pub channels: usize,
    /// Mean flits per channel.
    pub mean: f64,
    /// Maximum flits on any channel.
    pub max: u64,
    /// Max-over-mean ratio (1.0 = perfectly balanced; the bottleneck factor).
    pub imbalance: f64,
}

/// Computes load balance from `(anything, anything, flits)` channel loads
/// (the shape `Network::channel_loads` returns).
pub fn load_balance<A, B>(loads: &[(A, B, u64)]) -> Option<LoadBalance> {
    if loads.is_empty() {
        return None;
    }
    let total: u64 = loads.iter().map(|&(_, _, f)| f).sum();
    let max = loads.iter().map(|&(_, _, f)| f).max().unwrap_or(0);
    let mean = total as f64 / loads.len() as f64;
    Some(LoadBalance {
        channels: loads.len(),
        mean,
        max,
        imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_sim::PacketId;
    use footprint_topology::NodeId;

    fn pkt(class: u8, latency: u64) -> EjectedPacket {
        EjectedPacket {
            id: PacketId(0),
            src: NodeId(0),
            dest: NodeId(1),
            birth: 0,
            ejected: latency,
            size: 1,
            class,
        }
    }

    #[test]
    fn histogram_probe_separates_classes() {
        let mut p = LatencyHistogramProbe::new(10, 10);
        p.packet_ejected(&pkt(0, 5));
        p.packet_ejected(&pkt(0, 15));
        p.packet_ejected(&pkt(1, 95));
        assert_eq!(p.classes(), vec![0, 1]);
        assert_eq!(p.histogram(0).unwrap().total(), 2);
        assert_eq!(p.histogram(1).unwrap().total(), 1);
        assert!((p.stats(0).unwrap().mean() - 10.0).abs() < 1e-9);
        assert_eq!(p.quantile(0, 0.5), Some(10));
        assert!(p.histogram(7).is_none());
    }

    #[test]
    fn load_balance_math() {
        let loads = [((), (), 10u64), ((), (), 20), ((), (), 30)];
        let lb = load_balance(&loads).unwrap();
        assert_eq!(lb.channels, 3);
        assert!((lb.mean - 20.0).abs() < 1e-12);
        assert_eq!(lb.max, 30);
        assert!((lb.imbalance - 1.5).abs() < 1e-12);
        assert!(load_balance::<(), ()>(&[]).is_none());
    }

    #[test]
    fn zero_load_has_zero_imbalance() {
        let loads = [((), (), 0u64), ((), (), 0)];
        let lb = load_balance(&loads).unwrap();
        assert_eq!(lb.imbalance, 0.0);
    }
}

//! Congestion-tree time series: how a destination's tree grows, migrates
//! and collapses over a run — the dynamic view behind the paper's §4.2.5
//! observation that Footprint "could postpone but not prevent the formation
//! of the congestion tree".

use crate::TreeAnalysis;
use footprint_sim::OccupiedVcEntry;
use footprint_topology::NodeId;

/// One sample of a destination's congestion tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSample {
    /// Cycle the snapshot was taken.
    pub cycle: u64,
    /// Links in the tree.
    pub links: usize,
    /// VCs in the tree.
    pub vcs: usize,
    /// Flits buffered for the destination.
    pub flits: usize,
}

/// Records the evolution of one destination's congestion tree across
/// periodic snapshots.
///
/// ```
/// use footprint_stats::TreeTimeline;
/// use footprint_topology::NodeId;
///
/// let mut tl = TreeTimeline::new(NodeId(13));
/// tl.record(100, &[]); // sample from Network::occupancy_snapshot()
/// assert_eq!(tl.len(), 1);
/// assert_eq!(tl.peak_vcs(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TreeTimeline {
    dest: NodeId,
    samples: Vec<TreeSample>,
}

impl TreeTimeline {
    /// A timeline for the tree rooted at `dest`.
    pub fn new(dest: NodeId) -> Self {
        TreeTimeline {
            dest,
            samples: Vec::new(),
        }
    }

    /// The tracked destination.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Adds a sample from an occupancy snapshot taken at `cycle`.
    pub fn record(&mut self, cycle: u64, snapshot: &[OccupiedVcEntry]) {
        let analysis = TreeAnalysis::from_snapshot(snapshot);
        let (links, vcs, flits) = analysis
            .tree(self.dest)
            .map_or((0, 0, 0), |t| (t.links, t.vcs, t.flits));
        if let Some(last) = self.samples.last() {
            assert!(cycle > last.cycle, "samples must advance in time");
        }
        self.samples.push(TreeSample {
            cycle,
            links,
            vcs,
            flits,
        });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` before any sample is recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in time order.
    pub fn samples(&self) -> &[TreeSample] {
        &self.samples
    }

    /// Largest VC count any sample saw.
    pub fn peak_vcs(&self) -> usize {
        self.samples.iter().map(|s| s.vcs).max().unwrap_or(0)
    }

    /// Growth rate between the first and the peak sample, VCs per kilocycle
    /// (0 for flat or empty timelines).
    pub fn growth_rate(&self) -> f64 {
        let Some(first) = self.samples.first() else {
            return 0.0;
        };
        let Some(peak) = self
            .samples
            .iter()
            .max_by_key(|s| (s.vcs, std::cmp::Reverse(s.cycle)))
        else {
            return 0.0;
        };
        if peak.cycle <= first.cycle || peak.vcs <= first.vcs {
            return 0.0;
        }
        (peak.vcs - first.vcs) as f64 * 1000.0 / (peak.cycle - first.cycle) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::{Direction, Port};

    fn entry(node: u16, vc: u8, dests: &[u16]) -> OccupiedVcEntry {
        OccupiedVcEntry {
            node: NodeId(node),
            in_port: Port::Dir(Direction::West),
            vc,
            dests: dests.iter().map(|&d| NodeId(d)).collect(),
        }
    }

    #[test]
    fn timeline_tracks_growth() {
        let mut tl = TreeTimeline::new(NodeId(13));
        tl.record(100, &[]);
        tl.record(200, &[entry(1, 0, &[13])]);
        tl.record(300, &[entry(1, 0, &[13]), entry(1, 1, &[13, 13])]);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.peak_vcs(), 2);
        // 2 VCs gained over 200 cycles → 10 VCs/kcycle.
        assert!((tl.growth_rate() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn other_destinations_are_ignored() {
        let mut tl = TreeTimeline::new(NodeId(13));
        tl.record(50, &[entry(1, 0, &[9]), entry(2, 1, &[9, 13])]);
        assert_eq!(tl.samples()[0].vcs, 1);
        assert_eq!(tl.samples()[0].flits, 1);
    }

    #[test]
    fn flat_timeline_has_zero_growth() {
        let mut tl = TreeTimeline::new(NodeId(13));
        tl.record(10, &[entry(1, 0, &[13])]);
        tl.record(20, &[entry(1, 0, &[13])]);
        assert_eq!(tl.growth_rate(), 0.0);
        assert_eq!(TreeTimeline::new(NodeId(0)).growth_rate(), 0.0);
        assert!(TreeTimeline::new(NodeId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "advance in time")]
    fn non_monotonic_samples_rejected() {
        let mut tl = TreeTimeline::new(NodeId(13));
        tl.record(100, &[]);
        tl.record(100, &[]);
    }
}

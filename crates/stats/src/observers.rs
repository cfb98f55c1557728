//! Timeline subscribers for the simulator's probe bus: per-mesh and
//! per-router occupancy / link-utilization time series sampled on a
//! configurable stride, with CSV exporters for the `results/` directory.

use std::io::{self, Write};

use footprint_sim::{Network, OccupiedVcEntry, Probe};
use footprint_topology::NodeId;

/// One mesh-wide timeline sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSample {
    /// Cycle the sample was taken.
    pub cycle: u64,
    /// Flits buffered across all router inputs.
    pub buffered_flits: usize,
    /// Input VCs holding at least one flit.
    pub occupied_vcs: usize,
    /// Flits launched onto links since the previous sample (all channels).
    pub link_flits: u64,
}

/// One per-router timeline row (only routers holding flits are recorded —
/// the series is sparse, long-format: `cycle,node,buffered,occupied_vcs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouterSample {
    cycle: u64,
    node: NodeId,
    /// Flits buffered at this router's inputs.
    buffered_flits: usize,
    /// Input VCs holding at least one flit.
    occupied_vcs: usize,
}

/// A [`Probe`] that samples network occupancy and link utilization every
/// `stride` cycles, building mesh-wide and (optionally) per-router
/// timelines.
///
/// The probe leaves [`Probe::wants_flit_events`] at `false`: it costs one
/// no-op virtual call per cycle off-stride, and one occupancy snapshot
/// (into a reused scratch buffer) on-stride.
#[derive(Debug)]
pub struct TimelineProbe {
    stride: u64,
    per_router: bool,
    scratch: Vec<OccupiedVcEntry>,
    mesh: Vec<MeshSample>,
    routers: Vec<RouterSample>,
    last_link_flits: u64,
}

impl TimelineProbe {
    /// A probe sampling every `stride` cycles (mesh-wide series only).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: u64) -> Self {
        assert!(stride > 0, "sampling stride must be positive");
        TimelineProbe {
            stride,
            per_router: false,
            scratch: Vec::new(),
            mesh: Vec::new(),
            routers: Vec::new(),
            last_link_flits: 0,
        }
    }

    /// Also records the sparse per-router series.
    pub fn with_router_rows(mut self) -> Self {
        self.per_router = true;
        self
    }

    /// The sampling stride in cycles.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The mesh-wide samples, in time order.
    pub fn mesh_samples(&self) -> &[MeshSample] {
        &self.mesh
    }

    /// Writes the mesh-wide series as CSV
    /// (`cycle,buffered_flits,occupied_vcs,link_flits`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_mesh_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "cycle,buffered_flits,occupied_vcs,link_flits")?;
        for s in &self.mesh {
            writeln!(
                w,
                "{},{},{},{}",
                s.cycle, s.buffered_flits, s.occupied_vcs, s.link_flits
            )?;
        }
        Ok(())
    }

    /// Writes the per-router series as long-format CSV
    /// (`cycle,node,buffered_flits,occupied_vcs`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_router_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "cycle,node,buffered_flits,occupied_vcs")?;
        for s in &self.routers {
            writeln!(
                w,
                "{},{},{},{}",
                s.cycle,
                s.node.index(),
                s.buffered_flits,
                s.occupied_vcs
            )?;
        }
        Ok(())
    }

    /// Writes the mesh-wide CSV to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_mesh_csv(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_mesh_csv(&mut f)?;
        f.flush()
    }

    /// Writes the per-router CSV to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_router_csv(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_router_csv(&mut f)?;
        f.flush()
    }
}

impl Probe for TimelineProbe {
    fn sample(&mut self, cycle: u64, net: &Network) {
        if !cycle.is_multiple_of(self.stride) {
            return;
        }
        net.occupancy_snapshot_into(&mut self.scratch);
        let buffered: usize = self.scratch.iter().map(|e| e.dests.len()).sum();
        let total_link_flits: u64 = net.channel_loads().iter().map(|&(_, _, f)| f).sum();
        self.mesh.push(MeshSample {
            cycle,
            buffered_flits: buffered,
            occupied_vcs: self.scratch.len(),
            link_flits: total_link_flits - self.last_link_flits,
        });
        self.last_link_flits = total_link_flits;
        if self.per_router {
            // The snapshot is grouped by router, so one linear pass folds
            // consecutive entries into per-router rows.
            let mut i = 0;
            while i < self.scratch.len() {
                let node = self.scratch[i].node;
                let (mut flits, mut vcs) = (0usize, 0usize);
                while i < self.scratch.len() && self.scratch[i].node == node {
                    flits += self.scratch[i].dests.len();
                    vcs += 1;
                    i += 1;
                }
                self.routers.push(RouterSample {
                    cycle,
                    node,
                    buffered_flits: flits,
                    occupied_vcs: vcs,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_routing::RoutingSpec;
    use footprint_sim::{FlowSet, Network, SimConfig, SingleFlow};

    fn hotspot_net() -> (Network, FlowSet) {
        let net = Network::new(SimConfig::small(), RoutingSpec::Footprint.build(), 11).unwrap();
        let wl = FlowSet::new(vec![
            SingleFlow {
                src: NodeId(0),
                dest: NodeId(5),
                rate: 1.0,
                size: 1,
            },
            SingleFlow {
                src: NodeId(10),
                dest: NodeId(5),
                rate: 1.0,
                size: 1,
            },
        ]);
        (net, wl)
    }

    #[test]
    fn stride_controls_sample_count() {
        let (mut net, mut wl) = hotspot_net();
        let mut tl = TimelineProbe::new(25);
        net.run_probed(&mut wl, 200, &mut tl);
        // Cycles 0, 25, ..., 175.
        assert_eq!(tl.mesh_samples().len(), 8);
        let cycles: Vec<u64> = tl.mesh_samples().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 25, 50, 75, 100, 125, 150, 175]);
    }

    #[test]
    fn oversubscription_shows_up_in_the_series() {
        let (mut net, mut wl) = hotspot_net();
        let mut tl = TimelineProbe::new(50).with_router_rows();
        net.run_probed(&mut wl, 400, &mut tl);
        let last = tl.mesh_samples().last().unwrap();
        assert!(last.buffered_flits > 0, "hotspot must back up");
        assert!(last.link_flits > 0, "links must carry traffic");
        // Per-router rows exist and sum to the mesh totals per cycle.
        let per_router: usize = (tl.routers.iter())
            .filter(|r| r.cycle == last.cycle)
            .map(|r| r.buffered_flits)
            .sum();
        assert_eq!(per_router, last.buffered_flits);
    }

    #[test]
    fn csv_exports_are_well_formed() {
        let (mut net, mut wl) = hotspot_net();
        let mut tl = TimelineProbe::new(50).with_router_rows();
        net.run_probed(&mut wl, 200, &mut tl);
        let mut mesh = Vec::new();
        tl.write_mesh_csv(&mut mesh).unwrap();
        let mesh = String::from_utf8(mesh).unwrap();
        assert!(mesh.starts_with("cycle,buffered_flits,occupied_vcs,link_flits\n"));
        assert_eq!(mesh.lines().count(), tl.mesh_samples().len() + 1);
        let mut routers = Vec::new();
        tl.write_router_csv(&mut routers).unwrap();
        let routers = String::from_utf8(routers).unwrap();
        assert!(routers.starts_with("cycle,node,buffered_flits,occupied_vcs\n"));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = TimelineProbe::new(0);
    }
}

//! Deterministic fault schedules for resilience experiments.
//!
//! A [`FaultPlan`] is a topology-level description of *what breaks and
//! when*: a list of [`FaultEvent`]s, each taking a link (directed or
//! duplex) or a whole router down — or degrading a link's bandwidth — at a
//! given cycle, with an optional repair time. The plan is pure data: the
//! simulator owns the dynamic fault state derived from it, and the routing
//! crate only ever sees the resulting channel mask through its view traits.
//!
//! Plans are deterministic by construction. [`FaultPlan::random_link_faults`]
//! derives its link choices from a caller-provided seed through a splitmix64
//! stream, so the same `(mesh, count, seed)` triple always yields the same
//! plan — a requirement for the bit-identical-across-threads guarantee of
//! the experiment engine.

use crate::{AnyTopology, Direction, NodeId, DIRECTIONS};
use core::fmt;

/// What happens to the faulted component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The component stops carrying new traffic entirely.
    Down,
    /// The link's bandwidth drops to one flit every `period` cycles
    /// (`period ≥ 2`; a healthy link launches one flit per cycle).
    Degraded {
        /// Cycles between permitted flit launches.
        period: u64,
    },
}

/// The component a fault event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// One directed inter-router channel: the output of `node` toward `dir`.
    Link {
        /// Upstream router of the channel.
        node: NodeId,
        /// Direction of travel.
        dir: Direction,
    },
    /// Both directed channels of a mesh edge (the physical-cut model used
    /// by the fault-sweep experiments).
    DuplexLink {
        /// One endpoint of the edge.
        node: NodeId,
        /// Direction from `node` to the other endpoint.
        dir: Direction,
    },
    /// A whole router: every inter-router channel into or out of it goes
    /// down, isolating the attached endpoint. The local injection/ejection
    /// port itself is never modeled as faulty.
    Router(NodeId),
}

/// One scheduled fault: a target, a kind, an onset cycle and an optional
/// repair cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// Cycle the fault takes effect (applied before that cycle executes).
    pub at: u64,
    /// Cycle the fault is repaired, or `None` for a permanent fault.
    /// Must be strictly greater than `at`.
    pub until: Option<u64>,
    /// The faulted component.
    pub target: FaultTarget,
    /// Failure mode.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A permanent duplex link cut starting at cycle `at`.
    pub fn link_down(node: NodeId, dir: Direction, at: u64) -> Self {
        FaultEvent {
            at,
            until: None,
            target: FaultTarget::DuplexLink { node, dir },
            kind: FaultKind::Down,
        }
    }

    /// A permanent degradation of the duplex link to one flit every
    /// `period` cycles, starting at cycle `at`.
    pub fn link_degraded(node: NodeId, dir: Direction, at: u64, period: u64) -> Self {
        FaultEvent {
            at,
            until: None,
            target: FaultTarget::DuplexLink { node, dir },
            kind: FaultKind::Degraded { period },
        }
    }

    /// A permanent router failure starting at cycle `at`.
    pub fn router_down(node: NodeId, at: u64) -> Self {
        FaultEvent {
            at,
            until: None,
            target: FaultTarget::Router(node),
            kind: FaultKind::Down,
        }
    }

    /// Adds a repair time: the fault heals at the start of cycle `until`.
    pub fn repaired_at(mut self, until: u64) -> Self {
        self.until = Some(until);
        self
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            FaultTarget::Link { node, dir } => write!(f, "link {node}→{dir}")?,
            FaultTarget::DuplexLink { node, dir } => write!(f, "duplex link {node}↔{dir}")?,
            FaultTarget::Router(node) => write!(f, "router {node}")?,
        }
        match self.kind {
            FaultKind::Down => write!(f, " down")?,
            FaultKind::Degraded { period } => write!(f, " degraded (1 flit / {period} cycles)")?,
        }
        write!(f, " @ cycle {}", self.at)?;
        if let Some(u) = self.until {
            write!(f, ", repaired @ {u}")?;
        }
        Ok(())
    }
}

/// A malformed fault plan, detected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A link target points off the edge of the mesh.
    LinkOffMesh {
        /// Upstream router of the offending target.
        node: NodeId,
        /// Direction with no neighbor.
        dir: Direction,
    },
    /// A router target does not exist on the mesh.
    RouterOffMesh {
        /// The out-of-range node id.
        node: NodeId,
    },
    /// A repair time at or before the onset cycle.
    RepairBeforeOnset {
        /// Onset cycle.
        at: u64,
        /// Offending repair cycle.
        until: u64,
    },
    /// A degraded link with `period < 2` (period 1 is a healthy link;
    /// period 0 is meaningless).
    DegradePeriodTooShort {
        /// The offending period.
        period: u64,
    },
    /// A wrap-targeted fault plan was requested on a fabric with no
    /// wraparound channels (a mesh): there is no dateline to bias toward.
    NoWrapChannels {
        /// The fabric kind ("mesh").
        kind: &'static str,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::LinkOffMesh { node, dir } => {
                write!(f, "fault plan targets a link {node}→{dir} that leaves the mesh")
            }
            FaultPlanError::RouterOffMesh { node } => {
                write!(f, "fault plan targets router {node}, which is not on the mesh")
            }
            FaultPlanError::RepairBeforeOnset { at, until } => write!(
                f,
                "fault repair cycle {until} is not after its onset cycle {at}"
            ),
            FaultPlanError::DegradePeriodTooShort { period } => write!(
                f,
                "degraded-link period {period} is too short (must be ≥ 2 cycles per flit)"
            ),
            FaultPlanError::NoWrapChannels { kind } => write!(
                f,
                "wrap-biased fault plan requested on a {kind}, which has no wraparound channels"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic schedule of fault events.
///
/// The empty plan (the [`Default`]) injects no faults and is guaranteed to
/// leave simulation behaviour bit-identical to a run with no fault
/// subsystem at all.
///
/// ```
/// use footprint_topology::{AnyTopology, Direction, FaultEvent, FaultPlan, NodeId};
///
/// let plan = FaultPlan::new()
///     .with(FaultEvent::link_down(NodeId(27), Direction::East, 0))
///     .with(FaultEvent::router_down(NodeId(9), 500).repaired_at(1500));
/// assert_eq!(plan.len(), 2);
/// plan.validate(AnyTopology::mesh(8, 8)).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an event, builder-style.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Appends an event in place.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every directed channel some event of this plan takes fully down
    /// ([`FaultKind::Down`]; degraded links still carry traffic), over the
    /// plan's whole lifetime regardless of onset and repair times — the
    /// channel mask escape-safety checks run against. Sorted and
    /// deduplicated.
    pub fn down_channels(&self, topo: AnyTopology) -> Vec<(NodeId, Direction)> {
        let mut out: Vec<(NodeId, Direction)> = Vec::new();
        for e in self.events.iter().filter(|e| e.kind == FaultKind::Down) {
            Self::directed_channels(topo, e, &mut out);
        }
        out.sort_unstable_by_key(|&(n, d)| (n.0, crate::Port::Dir(d).index()));
        out.dedup();
        out
    }

    /// How many of this plan's [down channels](Self::down_channels) are
    /// wraparound (dateline) channels of `topo`. Always 0 on a mesh.
    pub fn masked_wrap_channels(&self, topo: AnyTopology) -> usize {
        self.down_channels(topo)
            .into_iter()
            .filter(|&(n, d)| topo.is_wrap_channel(n, d))
            .count()
    }

    /// `count` distinct permanent duplex-link cuts at cycle 0, chosen
    /// uniformly from the topology's edges by a splitmix64 stream over
    /// `seed`. Deterministic: the same `(topology, count, seed)` always
    /// yields the same plan. `count` is clamped to the number of edges.
    pub fn random_link_faults(topo: AnyTopology, count: usize, seed: u64) -> Self {
        let mut edges: Vec<_> = edges(topo).collect();
        let mut plan = FaultPlan::new();
        plan.sample_cuts(&mut Splitmix64(seed), &mut edges, count);
        plan
    }

    /// The dateline-aware variant of [`FaultPlan::random_link_faults`]:
    /// `wrap_cuts` permanent duplex cuts chosen uniformly from the
    /// topology's *wraparound* edges plus `other_cuts` from the remaining
    /// (grid) edges, all at cycle 0. Deterministic in
    /// `(topology, wrap_cuts, other_cuts, seed)`; counts are clamped to
    /// their pool sizes.
    ///
    /// Cutting wrap edges specifically is what stresses the dateline
    /// escape argument — a random uniform cut on an 8×8 torus only hits a
    /// wrap edge 1 time in 8.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::NoWrapChannels`] when `wrap_cuts > 0` on
    /// a fabric without wraparound edges (a mesh): the bias target does
    /// not exist, and silently returning grid cuts would misreport what
    /// the experiment exercised.
    pub fn random_link_faults_biased(
        topo: AnyTopology,
        wrap_cuts: usize,
        other_cuts: usize,
        seed: u64,
    ) -> Result<Self, FaultPlanError> {
        let (mut wrap_edges, mut grid_edges): (Vec<_>, Vec<_>) =
            edges(topo).partition(|&(node, dir)| topo.is_wrap_channel(node, dir));
        if wrap_cuts > 0 && wrap_edges.is_empty() {
            return Err(FaultPlanError::NoWrapChannels {
                kind: topo.kind_name(),
            });
        }
        let mut rng = Splitmix64(seed);
        let mut plan = FaultPlan::new();
        plan.sample_cuts(&mut rng, &mut wrap_edges, wrap_cuts);
        plan.sample_cuts(&mut rng, &mut grid_edges, other_cuts);
        Ok(plan)
    }

    /// Appends `count` (clamped) permanent duplex cuts at cycle 0, drawn
    /// from `edges` without replacement by a partial Fisher-Yates shuffle.
    fn sample_cuts(&mut self, rng: &mut Splitmix64, edges: &mut [(NodeId, Direction)], count: usize) {
        for i in 0..count.min(edges.len()) {
            let j = i + (rng.next() % (edges.len() - i) as u64) as usize;
            edges.swap(i, j);
            let (node, dir) = edges[i];
            self.push(FaultEvent::link_down(node, dir, 0));
        }
    }

    /// Checks every event against the topology's channel set: a link
    /// target is valid exactly when the topology has that directed
    /// channel, so wrap links on a torus are faultable and the missing Y
    /// dimension of a ring is not.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found: a target off the
    /// topology, a repair at or before its onset, or a degenerate degrade
    /// period.
    pub fn validate(&self, topo: AnyTopology) -> Result<(), FaultPlanError> {
        for e in &self.events {
            match e.target {
                FaultTarget::Link { node, dir } | FaultTarget::DuplexLink { node, dir } => {
                    if node.index() >= topo.len() || topo.neighbor(node, dir).is_none() {
                        return Err(FaultPlanError::LinkOffMesh { node, dir });
                    }
                }
                FaultTarget::Router(node) => {
                    if node.index() >= topo.len() {
                        return Err(FaultPlanError::RouterOffMesh { node });
                    }
                }
            }
            if let Some(until) = e.until {
                if until <= e.at {
                    return Err(FaultPlanError::RepairBeforeOnset { at: e.at, until });
                }
            }
            if let FaultKind::Degraded { period } = e.kind {
                if period < 2 {
                    return Err(FaultPlanError::DegradePeriodTooShort { period });
                }
            }
        }
        Ok(())
    }

    /// The directed channels taken down or degraded by `event`, as
    /// `(upstream, dir)` pairs pushed into `out`. Router faults expand to
    /// every attached channel in both directions, whatever the topology's
    /// degree at that node.
    pub fn directed_channels(
        topo: AnyTopology,
        event: &FaultEvent,
        out: &mut Vec<(NodeId, Direction)>,
    ) {
        match event.target {
            FaultTarget::Link { node, dir } => out.push((node, dir)),
            FaultTarget::DuplexLink { node, dir } => {
                out.push((node, dir));
                if let Some(nb) = topo.neighbor(node, dir) {
                    out.push((nb, dir.opposite()));
                }
            }
            FaultTarget::Router(node) => {
                for dir in DIRECTIONS {
                    if let Some(nb) = topo.neighbor(node, dir) {
                        out.push((node, dir));
                        out.push((nb, dir.opposite()));
                    }
                }
            }
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "no faults");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Canonical (undirected) edges: East/North channels only. On wrapping
/// fabrics this still covers every physical edge exactly once — the
/// West/South channels are the same edges seen from the other endpoint.
fn edges(topo: AnyTopology) -> impl Iterator<Item = (NodeId, Direction)> {
    topo.nodes().flat_map(move |node| {
        [Direction::East, Direction::North]
            .into_iter()
            .filter(move |&dir| topo.neighbor(node, dir).is_some())
            .map(move |dir| (node, dir))
    })
}

/// Minimal splitmix64 stream — the topology crate carries no RNG
/// dependency, and fault placement only needs a small, well-mixed,
/// deterministic sequence.
struct Splitmix64(u64);

impl Splitmix64 {
    fn next(&mut self) -> u64 {
        let z = crate::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnyTopology;

    #[test]
    fn empty_plan_is_default_and_validates() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
        plan.validate(AnyTopology::mesh(4, 4)).unwrap();
        assert_eq!(plan.to_string(), "no faults");
    }

    #[test]
    fn builder_collects_events_in_order() {
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(0), Direction::East, 10))
            .with(FaultEvent::router_down(NodeId(5), 20));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, 10);
        assert_eq!(plan.events()[1].target, FaultTarget::Router(NodeId(5)));
    }

    #[test]
    fn validate_rejects_edge_links() {
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(0), Direction::West, 0));
        assert_eq!(
            plan.validate(AnyTopology::mesh(4, 4)),
            Err(FaultPlanError::LinkOffMesh {
                node: NodeId(0),
                dir: Direction::West
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_router() {
        let plan = FaultPlan::new().with(FaultEvent::router_down(NodeId(99), 0));
        assert_eq!(
            plan.validate(AnyTopology::mesh(4, 4)),
            Err(FaultPlanError::RouterOffMesh { node: NodeId(99) })
        );
    }

    #[test]
    fn validate_rejects_repair_before_onset() {
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(0), Direction::East, 100).repaired_at(100));
        assert_eq!(
            plan.validate(AnyTopology::mesh(4, 4)),
            Err(FaultPlanError::RepairBeforeOnset { at: 100, until: 100 })
        );
    }

    #[test]
    fn validate_rejects_degenerate_degrade_period() {
        let plan =
            FaultPlan::new().with(FaultEvent::link_degraded(NodeId(0), Direction::East, 0, 1));
        assert_eq!(
            plan.validate(AnyTopology::mesh(4, 4)),
            Err(FaultPlanError::DegradePeriodTooShort { period: 1 })
        );
    }

    #[test]
    fn random_link_faults_are_deterministic_and_distinct() {
        let mesh = AnyTopology::mesh(8, 8);
        let a = FaultPlan::random_link_faults(mesh, 3, 42);
        let b = FaultPlan::random_link_faults(mesh, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        a.validate(mesh).unwrap();
        let targets: std::collections::HashSet<_> =
            a.events().iter().map(|e| e.target).collect();
        assert_eq!(targets.len(), 3, "faults must hit distinct links");
        // A different seed reshuffles.
        let c = FaultPlan::random_link_faults(mesh, 3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn biased_faults_target_wrap_edges_on_torus() {
        let torus = AnyTopology::torus(8, 8);
        let plan = FaultPlan::random_link_faults_biased(torus, 3, 2, 7).unwrap();
        assert_eq!(plan.len(), 5);
        plan.validate(torus).unwrap();
        let wraps = plan
            .events()
            .iter()
            .filter(|e| match e.target {
                FaultTarget::DuplexLink { node, dir } => torus.is_wrap_channel(node, dir),
                _ => false,
            })
            .count();
        assert_eq!(wraps, 3, "exactly the requested wrap cuts");
        // Deterministic in the full tuple.
        assert_eq!(
            plan,
            FaultPlan::random_link_faults_biased(torus, 3, 2, 7).unwrap()
        );
        assert_ne!(
            plan,
            FaultPlan::random_link_faults_biased(torus, 3, 2, 8).unwrap()
        );
        // A ring has exactly one wrap edge; the count clamps to it.
        let ring = AnyTopology::ring(8);
        let p = FaultPlan::random_link_faults_biased(ring, 4, 0, 1).unwrap();
        assert_eq!(p.len(), 1);
        p.validate(ring).unwrap();
    }

    #[test]
    fn biased_faults_reject_mesh_wrap_requests() {
        let mesh = AnyTopology::mesh(4, 4);
        assert_eq!(
            FaultPlan::random_link_faults_biased(mesh, 1, 0, 0),
            Err(FaultPlanError::NoWrapChannels { kind: "mesh" })
        );
        // Zero wrap cuts is fine on a mesh — it degrades to a grid sample.
        let p = FaultPlan::random_link_faults_biased(mesh, 0, 2, 0).unwrap();
        assert_eq!(p.len(), 2);
        p.validate(mesh).unwrap();
    }

    #[test]
    fn random_link_faults_clamp_to_edge_count() {
        let mesh = AnyTopology::mesh(2, 2); // 4 edges
        let plan = FaultPlan::random_link_faults(mesh, 100, 1);
        assert_eq!(plan.len(), 4);
        plan.validate(mesh).unwrap();
    }

    #[test]
    fn duplex_link_expands_to_both_directions() {
        let mesh = AnyTopology::mesh(4, 4);
        let e = FaultEvent::link_down(NodeId(0), Direction::East, 0);
        let mut out = Vec::new();
        FaultPlan::directed_channels(mesh, &e, &mut out);
        assert_eq!(
            out,
            vec![(NodeId(0), Direction::East), (NodeId(1), Direction::West)]
        );
    }

    #[test]
    fn router_fault_expands_to_all_incident_channels() {
        let mesh = AnyTopology::mesh(4, 4);
        let e = FaultEvent::router_down(NodeId(5), 0); // interior node: 4 neighbors
        let mut out = Vec::new();
        FaultPlan::directed_channels(mesh, &e, &mut out);
        assert_eq!(out.len(), 8);
        // Corner node: 2 neighbors → 4 directed channels.
        let e = FaultEvent::router_down(NodeId(0), 0);
        out.clear();
        FaultPlan::directed_channels(mesh, &e, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn display_renders_schedule() {
        let e = FaultEvent::link_down(NodeId(3), Direction::North, 100).repaired_at(400);
        let s = e.to_string();
        assert!(s.contains("n3"), "{s}");
        assert!(s.contains("100"), "{s}");
        assert!(s.contains("400"), "{s}");
        let d = FaultEvent::link_degraded(NodeId(1), Direction::East, 0, 4).to_string();
        assert!(d.contains("degraded"), "{d}");
    }
}

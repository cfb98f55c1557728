//! Runtime fault state: the live view a [`FaultPlan`] schedule induces on
//! the network, and the policy for packets whose destination becomes
//! unreachable.
//!
//! The plan is pure topology-level data; this module owns its dynamic
//! interpretation. [`FaultState::advance`] applies onsets and repairs at
//! cycle boundaries, maintaining a mask of dead directed channels, degraded
//! launch periods and down routers. [`FaultView`] projects that mask into
//! the routing crate's `LinkStateView`, augmenting raw liveness with an
//! algorithm-aware reachability check: a channel is *usable* for a packet
//! only if its downstream router can still reach the destination through
//! the surviving minimal-path DAG. Because every masked candidate set then
//! contains only links that lead somewhere, adaptive packets never wander
//! into dead ends — they either route around the fault or are never
//! injected at all.
//!
//! Determinism: the fault state is a pure function of `(plan, cycle)`, and
//! the reachability memo is a cache of a pure function, so fault handling
//! introduces no new RNG draws and cannot perturb the simulation's random
//! stream. A run with an empty plan takes the fast path everywhere and is
//! bit-identical to a build without the fault subsystem.

use std::cell::RefCell;
use std::collections::HashMap;

use footprint_routing::{LinkStateView, RoutingAlgorithm};
use footprint_topology::{AnyTopology, Direction, FaultKind, FaultPlan, NodeId, Port, PORT_COUNT};

/// Disposition of packets generated for a destination the routing function
/// can no longer reach under the current fault state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnreachablePolicy {
    /// Drop the packet at the source, with accounting
    /// ([`crate::ClassStats::dropped_packets`]). The default.
    #[default]
    Drop,
    /// Hold the packet at the source and retry, up to `max_attempts` total
    /// attempts, then drop. Lets traffic survive transient faults with
    /// scheduled repairs.
    ///
    /// The delay before attempt *n* is `backoff << (n-1)` cycles (capped
    /// at 64× the base) plus a deterministic jitter in `[0, backoff)`
    /// derived from the run seed, packet id and attempt number — never
    /// from the shared RNG — so retry timing is bit-identical at any
    /// worker count and under either scheduler. A fault-mask change
    /// (a repair in particular) re-checks every parked packet immediately
    /// and re-admits the ones whose destination became reachable, without
    /// charging an attempt to those still cut off.
    Retry {
        /// Attempts before the packet is dropped (0 drops immediately).
        max_attempts: u32,
        /// Base backoff in cycles (doubles per attempt, capped at 64×).
        backoff: u64,
    },
    /// Treat any unreachable generation as a run-level error. The network
    /// drops the packet exactly like [`UnreachablePolicy::Drop`] (a cycle
    /// loop has no error channel); the experiment layer turns the recorded
    /// unreachable pairs into a typed failure after the run.
    Error,
}

/// Memo key for algorithm-aware reachability: `(algorithm, cur, src, dest)`.
type ReachKey = (&'static str, u16, u16, u16);

/// The connected components of the live channel set over one fault epoch
/// (the span between two mask recomputations).
///
/// Components are *weak*: two routers share a component when a surviving
/// channel joins them in either direction, so a single-direction cut does
/// not partition (traffic still flows the other way). A pair in different
/// components is unreachable under **every** routing algorithm — no
/// directed path can cross a weak cut — which is what lets the fault state
/// answer partition queries without consulting the routing function.
/// Routers taken down by `FaultTarget::Router` events lose all incident
/// channels and appear as singleton components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEpoch {
    /// First cycle the epoch's mask was in effect.
    pub from_cycle: u64,
    /// The components: each sorted by node id, ordered by smallest member.
    /// A healthy fabric is one component covering every node.
    pub components: Vec<Vec<NodeId>>,
}

impl PartitionEpoch {
    /// `true` when the fabric was split into more than one component.
    pub fn is_partitioned(&self) -> bool {
        self.components.len() > 1
    }

    /// Total routers across all components (always the fabric size — the
    /// components are a partition of the node set).
    pub fn node_count(&self) -> usize {
        self.components.iter().map(Vec::len).sum()
    }
}

/// Live fault state derived from a [`FaultPlan`], advanced once per cycle.
#[derive(Debug)]
pub struct FaultState {
    topo: AnyTopology,
    plan: FaultPlan,
    /// Dead directed channels, indexed `node * PORT_COUNT + port`.
    link_down: Vec<bool>,
    /// Degraded-launch period per directed channel (0 = full rate).
    degrade: Vec<u64>,
    /// Routers currently down.
    router_down: Vec<bool>,
    /// `true` while any mask bit is set — the fast-path gate.
    any_active: bool,
    /// Memoized algorithm-aware reachability, keyed
    /// `(algorithm, cur, src, dest)` — one state may be queried under
    /// several algorithms (e.g. when comparing reachability maps), and
    /// their DAGs differ. Cleared whenever the mask changes.
    memo: RefCell<HashMap<ReachKey, bool>>,
    /// Weak-component label per node under the current mask (the smallest
    /// node id in the component). Identity labels while no fault is active.
    component: Vec<u16>,
    /// Partition history: one epoch per *distinct* component structure, in
    /// onset order. Empty for an empty plan; any non-empty plan starts
    /// with its cycle-0 structure (the healthy baseline when nothing fires
    /// at 0), so the history reads baseline → onset → … → repair.
    history: Vec<PartitionEpoch>,
}

impl FaultState {
    /// Builds the state for `plan` on `topo`, applying any cycle-0 events.
    pub fn new(topo: AnyTopology, plan: FaultPlan) -> Self {
        let n = topo.len();
        let mut state = FaultState {
            topo,
            plan,
            link_down: vec![false; n * PORT_COUNT],
            degrade: vec![0; n * PORT_COUNT],
            router_down: vec![false; n],
            any_active: false,
            memo: RefCell::new(HashMap::new()),
            component: (0..n as u16).collect(),
            history: Vec::new(),
        };
        if !state.plan.is_empty() {
            state.recompute(0);
        }
        state
    }

    /// The schedule this state interprets.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// `true` while any fault is active.
    pub fn any_active(&self) -> bool {
        self.any_active
    }

    /// Applies onsets and repairs scheduled for `cycle`. Cheap when nothing
    /// changes (and free for an empty plan).
    ///
    /// Returns `true` when the fault masks were recomputed — the signal
    /// the active-set scheduler uses to run a full tick, so onsets take
    /// effect on stranded traffic immediately and repairs re-arm routers
    /// that were idling behind a dead channel.
    pub fn advance(&mut self, cycle: u64) -> bool {
        if self.plan.is_empty() || cycle == 0 {
            return false; // cycle 0 was applied at construction
        }
        let changes = self
            .plan
            .events()
            .iter()
            .any(|e| e.at == cycle || e.until == Some(cycle));
        if changes {
            self.recompute(cycle);
        }
        changes
    }

    /// Rebuilds the masks from every event active at `cycle`.
    fn recompute(&mut self, cycle: u64) {
        self.link_down.iter_mut().for_each(|b| *b = false);
        self.degrade.iter_mut().for_each(|p| *p = 0);
        self.router_down.iter_mut().for_each(|b| *b = false);
        let mut channels = Vec::new();
        let mut active = false;
        for e in self.plan.events() {
            if e.at > cycle || e.until.is_some_and(|u| cycle >= u) {
                continue;
            }
            active = true;
            if let footprint_topology::FaultTarget::Router(node) = e.target {
                self.router_down[node.index()] = true;
            }
            channels.clear();
            FaultPlan::directed_channels(self.topo, e, &mut channels);
            for &(node, dir) in &channels {
                let idx = Self::ch(node, dir);
                match e.kind {
                    FaultKind::Down => self.link_down[idx] = true,
                    FaultKind::Degraded { period } => self.degrade[idx] = period,
                }
            }
        }
        self.any_active = active;
        self.memo.borrow_mut().clear();
        self.recompute_components(cycle);
    }

    /// Rebuilds the weak-component labels from the current channel mask
    /// and appends a [`PartitionEpoch`] when the structure changed.
    /// Union-find over the live edges; labels are canonicalized to the
    /// smallest node id in each component so they are stable across
    /// identical masks.
    fn recompute_components(&mut self, cycle: u64) {
        let n = self.topo.len();
        let mut parent: Vec<u16> = (0..n as u16).collect();
        fn find(parent: &mut [u16], mut x: u16) -> u16 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        // Every live directed channel joins its endpoints; iterating all
        // directed channels covers "alive in either direction" without a
        // separate reverse lookup.
        for ch in self.topo.channels() {
            if !self.link_down[Self::ch(ch.src, ch.dir)] {
                let (a, b) = (find(&mut parent, ch.src.0), find(&mut parent, ch.dst.0));
                if a != b {
                    // Union toward the smaller root: the final root of each
                    // set is its smallest member.
                    let (lo, hi) = (a.min(b), a.max(b));
                    parent[hi as usize] = lo;
                }
            }
        }
        for i in 0..n as u16 {
            self.component[i as usize] = find(&mut parent, i);
        }
        // Record the epoch only when the structure actually changed.
        let changed = match self.history.last() {
            None => true,
            Some(last) => {
                let mut labels = vec![u16::MAX; n];
                for c in &last.components {
                    for &node in c {
                        labels[node.index()] = c[0].0;
                    }
                }
                labels != self.component
            }
        };
        if changed {
            let mut components: Vec<Vec<NodeId>> = Vec::new();
            let mut slot = vec![usize::MAX; n];
            for i in 0..n as u16 {
                let root = self.component[i as usize] as usize;
                if slot[root] == usize::MAX {
                    slot[root] = components.len();
                    components.push(Vec::new());
                }
                components[slot[root]].push(NodeId(i));
            }
            self.history.push(PartitionEpoch {
                from_cycle: cycle,
                components,
            });
        }
    }

    /// The weak-component label of `node` under the current mask (the
    /// smallest node id in its component).
    #[inline]
    pub fn component(&self, node: NodeId) -> u16 {
        self.component[node.index()]
    }

    /// `true` when `a` and `b` lie in different weak components — in which
    /// case no routing algorithm can deliver between them in either
    /// direction.
    #[inline]
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.any_active && self.component[a.index()] != self.component[b.index()]
    }

    /// `true` if the current mask splits the fabric at all.
    pub fn is_partitioned(&self) -> bool {
        self.any_active && self.component.iter().any(|&c| c != self.component[0])
    }

    /// The recorded partition epochs, in onset order: one entry per
    /// distinct component structure the mask passed through (including the
    /// initial structure of a cycle-0 plan). Empty for an empty plan.
    pub fn partition_history(&self) -> &[PartitionEpoch] {
        &self.history
    }

    #[inline]
    fn ch(node: NodeId, dir: Direction) -> usize {
        node.index() * PORT_COUNT + Port::Dir(dir).index()
    }

    /// `true` if the directed channel leaving `node` toward `dir` is alive.
    #[inline]
    pub fn link_up(&self, node: NodeId, dir: Direction) -> bool {
        !self.any_active || !self.link_down[Self::ch(node, dir)]
    }

    /// `true` if `node`'s router is down.
    #[inline]
    pub fn router_down(&self, node: NodeId) -> bool {
        self.any_active && self.router_down[node.index()]
    }

    /// `true` if output `port` of `node` may launch a flit this cycle:
    /// healthy (or `Local`) ports always, dead ports never, degraded ports
    /// once per period.
    #[inline]
    pub fn launch_allowed(&self, node: NodeId, port: usize, cycle: u64) -> bool {
        if !self.any_active || port == Port::Local.index() {
            return true;
        }
        let idx = node.index() * PORT_COUNT + port;
        if self.link_down[idx] {
            return false;
        }
        match self.degrade[idx] {
            0 => true,
            period => cycle.is_multiple_of(period),
        }
    }

    /// `true` if a packet `src → dest` currently standing at `cur` can
    /// still reach `dest` through `algo`'s allowed minimal directions over
    /// the surviving links. Memoized; the recursion runs over the minimal
    /// DAG so it terminates on any mask.
    fn can_reach(
        &self,
        algo: &dyn RoutingAlgorithm,
        cur: NodeId,
        src: NodeId,
        dest: NodeId,
    ) -> bool {
        if cur == dest || !self.any_active {
            return true;
        }
        if self.partitioned(cur, dest) {
            // Weak cut between the components: no directed path exists, so
            // no algorithm's DAG can contain one. Skip the recursion (and
            // the memo — the component test is already O(1)).
            return false;
        }
        let key = (algo.name(), cur.0, src.0, dest.0);
        if let Some(&cached) = self.memo.borrow().get(&key) {
            return cached;
        }
        let mut ok = false;
        for d in algo.allowed_dirs(self.topo, cur, src, dest).iter() {
            if self.link_down[Self::ch(cur, d)] {
                continue;
            }
            let Some(nb) = self.topo.neighbor(cur, d) else {
                continue;
            };
            if self.can_reach(algo, nb, src, dest) {
                ok = true;
                break;
            }
        }
        self.memo.borrow_mut().insert(key, ok);
        ok
    }

    /// `true` if a packet generated at `src` for `dest` is deliverable
    /// under the current fault state: both routers alive and a surviving
    /// routed path between them.
    pub fn deliverable(&self, algo: &dyn RoutingAlgorithm, src: NodeId, dest: NodeId) -> bool {
        !self.router_down(src) && !self.router_down(dest) && self.can_reach(algo, src, src, dest)
    }
}

/// The routing-facing projection of a [`FaultState`]: liveness plus
/// algorithm-aware reachability (see the module docs).
pub(crate) struct FaultView<'a> {
    state: &'a FaultState,
    algo: &'a dyn RoutingAlgorithm,
}

impl<'a> FaultView<'a> {
    /// Couples the fault state with the routing function whose allowed
    /// directions define reachability.
    pub(crate) fn new(state: &'a FaultState, algo: &'a dyn RoutingAlgorithm) -> Self {
        FaultView { state, algo }
    }
}

impl LinkStateView for FaultView<'_> {
    fn link_up(&self, node: NodeId, dir: Direction) -> bool {
        self.state.link_up(node, dir)
    }

    fn usable(&self, node: NodeId, dir: Direction, src: NodeId, dest: NodeId) -> bool {
        if !self.state.any_active {
            return true;
        }
        if !self.state.link_up(node, dir) {
            return false;
        }
        match self.state.topo.neighbor(node, dir) {
            Some(nb) => self.state.can_reach(self.algo, nb, src, dest),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_routing::RoutingAlgorithm;
    use footprint_routing::RoutingSpec::{Dor, OddEven, RandomMinimal};
    use footprint_topology::FaultEvent;

    fn mesh() -> AnyTopology {
        AnyTopology::mesh(4, 4)
    }

    #[test]
    fn empty_plan_reports_everything_healthy() {
        let s = FaultState::new(mesh(), FaultPlan::new());
        assert!(!s.any_active());
        assert!(s.link_up(NodeId(0), Direction::East));
        assert!(s.launch_allowed(NodeId(0), Port::Dir(Direction::East).index(), 7));
        assert!(s.deliverable(&Dor.routing(), NodeId(0), NodeId(15)));
    }

    #[test]
    fn cycle_zero_cut_masks_both_directions() {
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(0), Direction::East, 0));
        let s = FaultState::new(mesh(), plan);
        assert!(s.any_active());
        assert!(!s.link_up(NodeId(0), Direction::East));
        assert!(!s.link_up(NodeId(1), Direction::West));
        assert!(s.link_up(NodeId(0), Direction::North));
        assert!(!s.launch_allowed(NodeId(0), Port::Dir(Direction::East).index(), 3));
    }

    #[test]
    fn onset_and_repair_follow_the_schedule() {
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(0), Direction::East, 10).repaired_at(20));
        let mut s = FaultState::new(mesh(), plan);
        assert!(s.link_up(NodeId(0), Direction::East), "before onset");
        s.advance(10);
        assert!(!s.link_up(NodeId(0), Direction::East), "after onset");
        s.advance(15); // no event this cycle: state unchanged
        assert!(!s.link_up(NodeId(0), Direction::East));
        s.advance(20);
        assert!(s.link_up(NodeId(0), Direction::East), "after repair");
        assert!(!s.any_active());
    }

    #[test]
    fn degraded_link_launches_once_per_period() {
        let plan =
            FaultPlan::new().with(FaultEvent::link_degraded(NodeId(0), Direction::East, 0, 4));
        let s = FaultState::new(mesh(), plan);
        let east = Port::Dir(Direction::East).index();
        assert!(s.link_up(NodeId(0), Direction::East), "degraded is not dead");
        assert!(s.launch_allowed(NodeId(0), east, 0));
        assert!(!s.launch_allowed(NodeId(0), east, 1));
        assert!(!s.launch_allowed(NodeId(0), east, 3));
        assert!(s.launch_allowed(NodeId(0), east, 4));
        // The reverse direction of the duplex link is throttled too.
        assert!(!s.launch_allowed(NodeId(1), Port::Dir(Direction::West).index(), 2));
        // Other channels launch freely.
        assert!(s.launch_allowed(NodeId(0), Port::Dir(Direction::North).index(), 1));
    }

    #[test]
    fn same_row_pairs_across_a_cut_are_unreachable_minimally() {
        // n0 -(dead)- n1 on the bottom row: minimal paths between
        // same-row nodes never leave the row, so n0→n1 and n0→n3 are
        // unreachable even for fully adaptive minimal routing, while any
        // off-row destination routes around.
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(0), Direction::East, 0));
        let s = FaultState::new(mesh(), plan);
        let full = RandomMinimal.routing();
        assert!(!s.deliverable(&full, NodeId(0), NodeId(1)));
        assert!(!s.deliverable(&full, NodeId(0), NodeId(3)));
        assert!(s.deliverable(&full, NodeId(0), NodeId(5)));
        assert!(s.deliverable(&full, NodeId(0), NodeId(15)));
        assert!(s.deliverable(&full, NodeId(4), NodeId(7)), "other rows unaffected");
    }

    #[test]
    fn dor_loses_more_pairs_than_adaptive_routing() {
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let s = FaultState::new(AnyTopology::mesh(4, 4), plan);
        let count_unreachable = |algo: &dyn RoutingAlgorithm| {
            let m = AnyTopology::mesh(4, 4);
            let mut n = 0;
            for src in m.nodes() {
                for dest in m.nodes() {
                    if src != dest && !s.deliverable(algo, src, dest) {
                        n += 1;
                    }
                }
            }
            n
        };
        let dor = count_unreachable(&Dor.routing());
        let oe = count_unreachable(&OddEven.routing());
        let full = count_unreachable(&RandomMinimal.routing());
        assert!(dor > oe, "XY loses more pairs than odd-even ({dor} vs {oe})");
        assert!(oe >= full, "odd-even cannot beat fully adaptive");
        assert!(full > 0, "same-row pairs across the cut are always lost");
    }

    #[test]
    fn router_fault_isolates_the_node() {
        let plan = FaultPlan::new().with(FaultEvent::router_down(NodeId(5), 0));
        let s = FaultState::new(mesh(), plan);
        assert!(s.router_down(NodeId(5)));
        let full = RandomMinimal.routing();
        assert!(!s.deliverable(&full, NodeId(5), NodeId(0)), "source down");
        assert!(!s.deliverable(&full, NodeId(0), NodeId(5)), "dest down");
        // Traffic not involving n5 routes around it when the minimal
        // rectangle leaves room.
        assert!(s.deliverable(&full, NodeId(0), NodeId(15)));
        assert!(s.deliverable(&full, NodeId(2), NodeId(9)));
        // But a same-column pair whose every minimal path runs through n5
        // is lost even to fully adaptive minimal routing.
        assert!(!s.deliverable(&full, NodeId(1), NodeId(9)));
    }

    #[test]
    fn fault_view_usable_rejects_dead_end_first_hops() {
        // Cut n1↔n2 and n1↔n5: entering n1 from n0 strands a packet bound
        // for n2 (its only onward minimal links are gone), so East at n0
        // must be reported unusable even though n0→n1 itself is healthy.
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(1), Direction::East, 0))
            .with(FaultEvent::link_down(NodeId(1), Direction::North, 0));
        let s = FaultState::new(mesh(), plan);
        let full = RandomMinimal.routing();
        let view = FaultView::new(&s, &full);
        assert!(view.link_up(NodeId(0), Direction::East));
        assert!(!view.usable(NodeId(0), Direction::East, NodeId(0), NodeId(2)));
        // For a packet to n1 itself the link is still the way home.
        assert!(view.usable(NodeId(0), Direction::East, NodeId(0), NodeId(1)));
        // North at n0 keeps n2 reachable (around the cut).
        assert!(view.usable(NodeId(0), Direction::North, NodeId(0), NodeId(2)));
    }

    #[test]
    fn healthy_state_is_one_component_with_no_history() {
        let s = FaultState::new(mesh(), FaultPlan::new());
        assert!(!s.is_partitioned());
        assert!(!s.partitioned(NodeId(0), NodeId(15)));
        assert!(s.partition_history().is_empty());
    }

    #[test]
    fn ring_cut_in_two_places_partitions() {
        // Two duplex cuts split a ring: cutting 1↔2 and 5↔6 on an 8-ring
        // leaves components {0,1,6,7} and {2,3,4,5}.
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(1), Direction::East, 0))
            .with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let s = FaultState::new(AnyTopology::ring(8), plan);
        assert!(s.is_partitioned());
        assert!(s.partitioned(NodeId(2), NodeId(7)));
        assert!(!s.partitioned(NodeId(6), NodeId(1)));
        let h = s.partition_history();
        assert_eq!(h.len(), 1);
        assert!(h[0].is_partitioned());
        assert_eq!(h[0].node_count(), 8);
        assert_eq!(
            h[0].components,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(6), NodeId(7)],
                vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)],
            ]
        );
        // Cross-component pairs are unreachable under every algorithm.
        assert!(!s.deliverable(&Dor.routing(), NodeId(3), NodeId(7)));
        assert!(!s.deliverable(&RandomMinimal.routing(), NodeId(3), NodeId(7)));
    }

    #[test]
    fn down_router_is_a_singleton_component() {
        let plan = FaultPlan::new().with(FaultEvent::router_down(NodeId(5), 0));
        let s = FaultState::new(mesh(), plan);
        assert!(s.is_partitioned());
        let h = s.partition_history();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].components.len(), 2);
        assert!(h[0].components.iter().any(|c| c == &vec![NodeId(5)]));
    }

    #[test]
    fn single_direction_cut_does_not_partition() {
        // Only the directed channel n0→East dies; the reverse direction
        // still joins the nodes weakly, so no partition is declared even
        // though n0→n1 minimal traffic is lost.
        let plan = FaultPlan::new().with(FaultEvent {
            at: 0,
            until: None,
            target: footprint_topology::FaultTarget::Link {
                node: NodeId(0),
                dir: Direction::East,
            },
            kind: FaultKind::Down,
        });
        let s = FaultState::new(mesh(), plan);
        assert!(!s.is_partitioned());
        assert!(!s.partitioned(NodeId(0), NodeId(1)));
    }

    #[test]
    fn repair_records_a_recovery_epoch() {
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(0), Direction::East, 10).repaired_at(50))
            .with(FaultEvent::link_down(NodeId(2), Direction::East, 10).repaired_at(50));
        let mut s = FaultState::new(AnyTopology::ring(6), plan);
        // A non-empty plan records its healthy baseline at construction.
        assert_eq!(s.partition_history().len(), 1);
        assert!(!s.partition_history()[0].is_partitioned());
        s.advance(10);
        assert!(s.is_partitioned());
        assert_eq!(s.partition_history().len(), 2);
        s.advance(30); // no event: no new epoch
        assert_eq!(s.partition_history().len(), 2);
        s.advance(50);
        assert!(!s.is_partitioned());
        let h = s.partition_history();
        assert_eq!(h.len(), 3, "repair epoch recorded");
        assert_eq!(h[1].from_cycle, 10);
        assert!(h[1].is_partitioned());
        assert_eq!(h[2].from_cycle, 50);
        assert!(!h[2].is_partitioned());
        assert_eq!(h[2].components.len(), 1);
    }

    #[test]
    fn fully_partitioned_mesh_isolates_every_node() {
        // Take down every router: every node becomes a singleton and every
        // pair is partition-unreachable — the degenerate worst case a
        // graceful run must survive.
        let mut plan = FaultPlan::new();
        for n in mesh().nodes() {
            plan.push(FaultEvent::router_down(n, 0));
        }
        let s = FaultState::new(mesh(), plan);
        let h = s.partition_history();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].components.len(), 16);
        assert_eq!(h[0].node_count(), 16);
        assert!(s.partitioned(NodeId(0), NodeId(1)));
    }

    #[test]
    fn reachability_respects_the_algorithms_own_dag() {
        // Cut the East link out of n0: XY routing from n0 to n6 = (2,1)
        // needs East first, so DOR loses the pair while odd-even (which may
        // go North first from an even column) keeps it.
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(0), Direction::East, 0));
        let s = FaultState::new(mesh(), plan);
        assert!(!s.deliverable(&Dor.routing(), NodeId(0), NodeId(6)));
        assert!(s.deliverable(&OddEven.routing(), NodeId(0), NodeId(6)));
    }
}

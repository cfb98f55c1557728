//! The complete simulated network: routers, endpoints, the delivery
//! calendar and the cycle loop.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::config::{ConfigError, SimConfig};
use crate::endpoint::{Sink, Source};
use crate::fault::{FaultState, FaultView, UnreachablePolicy};
use crate::metrics::{Metrics, NullProbe, Probe};
use crate::packet::{NewPacket, PacketId};
use crate::recovery::RecoveryTracker;
use crate::router::{AllocRules, FreedSlot, Router};
use crate::sched::{SchedState, Scheduler};
use crate::sideband::Sideband;
use crate::snapshot::{Snap, SnapReader, SnapResult, SnapWriter, SNAPSHOT_LAYOUT};
use crate::soa::NocSoa;
use crate::wire::Calendar;
use crate::workload::Workload;
use footprint_routing::{dbar_threshold, RoutingAlgorithm, WrapStrategy};
use footprint_topology::{
    splitmix64, AnyTopology, FaultPlan, NodeId, Port, DIRECTIONS, PORT_COUNT,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// "No input row" in the channel table: the `down` entry of an ejection
/// channel (its flits land in the node's sink) and the `up` entry of a
/// mesh-edge input port (no channel feeds it).
pub(crate) const SINK: usize = usize::MAX;

/// The `down` entry of a channel that does not exist: a direction port
/// with no neighbour (a mesh edge).
const NO_LINK: usize = usize::MAX - 1;

/// A generated packet parked by [`UnreachablePolicy::Retry`], waiting for
/// its next reachability check.
#[derive(Debug, Clone)]
struct RetryEntry {
    ready_at: u64,
    node: NodeId,
    id: PacketId,
    packet: NewPacket,
    birth: u64,
    attempts: u32,
}

/// Snapshot of one occupied input VC, used for congestion-tree analysis
/// (Figure 2 / Figure 4 style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupiedVcEntry {
    /// Router holding the flits.
    pub node: NodeId,
    /// Input port of that router.
    pub in_port: Port,
    /// VC index.
    pub vc: u8,
    /// Destinations of the buffered flits, in FIFO order.
    pub dests: Vec<NodeId>,
}

/// A cycle-accurate simulated network on any [`AnyTopology`] fabric.
///
/// Construction wires up one router, one source and one sink per node, with
/// fixed-latency links (single-cycle by default) and credit-based flow
/// control throughout (the injection and ejection channels use the same
/// machinery as inter-router channels, as in BookSim).
pub struct Network {
    cfg: SimConfig,
    /// The live topology resolved from `cfg.topology` at construction.
    topo: AnyTopology,
    algo: Box<dyn RoutingAlgorithm>,
    /// `algo`'s VC-allocation rules on `topo`, derived once.
    rules: AllocRules,
    /// The struct-of-arrays datapath state all routers operate on.
    soa: NocSoa,
    routers: Vec<Router>,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    /// Every flit and credit in flight, on every channel. Channels are
    /// indexed like [`NocSoa`]'s output rows: the router outputs at
    /// `node * PORT_COUNT + port` (`port == 0` is the ejection channel),
    /// then each node's injection channel. One rule serves all three
    /// kinds: a channel's credits go home to its own output row, its flits
    /// land in the input row at its far end.
    calendar: Calendar,
    /// `down[channel]`: the input row its flits land in, [`SINK`], or
    /// [`NO_LINK`] where the channel does not exist (a direction port
    /// without a neighbour).
    down: Vec<usize>,
    /// `up[input row]`: the channel feeding it, on which its credits
    /// return ([`SINK`] at a mesh edge).
    up: Vec<usize>,
    sideband: Sideband,
    /// Flits launched per output channel (`node * PORT_COUNT + port`), for
    /// utilization analysis.
    link_flits: Vec<u64>,
    rng: SmallRng,
    cycle: u64,
    next_packet: u64,
    metrics: Metrics,
    freed_scratch: Vec<FreedSlot>,
    faults: FaultState,
    policy: UnreachablePolicy,
    retries: VecDeque<RetryEntry>,
    /// The construction seed, kept for seed-derived retry jitter (the
    /// shared RNG cannot be used: a jitter draw would shift every
    /// subsequent Bernoulli sample and break the empty-plan bit-identity).
    seed: u64,
    /// Recovery observation (TTR + availability); driven only when the
    /// run has a fault plan.
    recovery: RecoveryTracker,
    /// `true` when a fault plan is present: gates all recovery tracking.
    track_recovery: bool,
    /// Source/destination pairs observed unreachable at generation time.
    unreachable: BTreeSet<(u16, u16)>,
    /// Which cycle loop runs: dense (every component, every cycle) or the
    /// active-set walk. Bit-identical either way.
    scheduler: Scheduler,
    /// Per-node activity state for the active-set scheduler, maintained in
    /// both modes so the scheduler can be switched mid-run.
    sched: SchedState,
    /// Set by white-box router access; forces the activity state to be
    /// rebuilt from actual component state at the next step.
    sched_resync_pending: bool,
}

impl Network {
    /// Builds a network.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations, including too
    /// few VCs for a Duato-based routing algorithm (escape + adaptive needs
    /// at least 2).
    pub fn new(
        cfg: SimConfig,
        algo: Box<dyn RoutingAlgorithm>,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        Self::with_faults(cfg, algo, seed, FaultPlan::new(), UnreachablePolicy::Drop)
    }

    /// Builds a network with a fault schedule and an unreachable-packet
    /// policy. An empty plan behaves exactly like [`Network::new`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations or a fault plan
    /// that does not fit the topology.
    pub fn with_faults(
        cfg: SimConfig,
        algo: Box<dyn RoutingAlgorithm>,
        seed: u64,
        plan: FaultPlan,
        policy: UnreachablePolicy,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let topo = cfg.topo();
        plan.validate(topo)?;
        if topo.wraps() && algo.wrap_strategy() == WrapStrategy::Unsupported {
            return Err(ConfigError::UnsupportedRouting {
                algorithm: algo.name(),
                topology: cfg.topology,
            });
        }
        let required = algo.min_vcs_on(topo);
        if cfg.num_vcs < required {
            return Err(ConfigError::TooFewVcsForRouting {
                algorithm: algo.name(),
                required,
                configured: cfg.num_vcs,
            });
        }
        let n = topo.len();
        let soa = NocSoa::new(n, cfg.num_vcs, cfg.vc_buffer_depth, cfg.speedup);
        let routers = topo
            .nodes()
            .map(|node| Router::new(node, cfg.num_vcs))
            .collect();
        let sources = topo
            .nodes()
            .map(|node| Source::new(node, cfg.num_vcs))
            .collect();
        let sinks = topo
            .nodes()
            .map(|node| Sink::new(node, cfg.num_vcs, cfg.vc_buffer_depth))
            .collect();
        let rows = n * PORT_COUNT;
        let mut down = vec![SINK; rows + n];
        let mut up = vec![SINK; rows];
        for node in topo.nodes() {
            for d in DIRECTIONS {
                let c = soa.np(node, Port::Dir(d).index());
                down[c] = NO_LINK;
                if let Some(nb) = topo.neighbor(node, d) {
                    let row = soa.np(nb, Port::Dir(d.opposite()).index());
                    (down[c], up[row]) = (row, c);
                }
            }
            let (c, row) = (soa.inj_np(node), soa.np(node, Port::Local.index()));
            (down[c], up[row]) = (row, c);
        }
        Ok(Network {
            topo,
            rules: AllocRules::of(&*algo, topo),
            algo,
            soa,
            routers,
            sources,
            sinks,
            calendar: Calendar::new(cfg.link_latency),
            down,
            up,
            link_flits: vec![0; n * PORT_COUNT],
            sideband: Sideband::new(n, dbar_threshold(cfg.num_vcs)),
            rng: SmallRng::seed_from_u64(seed),
            cycle: 0,
            next_packet: 0,
            metrics: Metrics::new(),
            freed_scratch: Vec::new(),
            track_recovery: !plan.is_empty(),
            faults: FaultState::new(topo, plan),
            policy,
            retries: VecDeque::new(),
            seed,
            recovery: RecoveryTracker::new(),
            unreachable: BTreeSet::new(),
            scheduler: Scheduler::default(),
            sched: SchedState::new(n),
            sched_resync_pending: false,
            cfg,
        })
    }

    /// The cycle loop in use.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Selects the cycle loop. Safe to call mid-run: the activity
    /// bookkeeping runs in both modes, so the active-set state is always
    /// current. Results are bit-identical under either scheduler.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        self.scheduler = scheduler;
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The live topology the network runs on.
    pub fn topo(&self) -> AnyTopology {
        self.topo
    }

    /// The routing algorithm in use.
    pub fn algorithm(&self) -> &dyn RoutingAlgorithm {
        &*self.algo
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Measurement counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable measurement counters (e.g. to reset the window).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Advances one cycle with [`NullProbe`].
    pub fn step(&mut self, workload: &mut dyn Workload) {
        self.step_probed(workload, &mut NullProbe);
    }

    /// Advances one cycle, reporting events to `probe`.
    ///
    /// Both schedulers run the same stage sequence; the active-set walk
    /// merely restricts stages 2 to 5 to the components with work (stage 1
    /// visits only what arrives, in either mode).
    /// Skipped components are exact no-ops under the dense loop (the
    /// private `sched` module's docs give the argument), so the two modes
    /// are bit-identical.
    pub fn step_probed(&mut self, workload: &mut dyn Workload, probe: &mut dyn Probe) {
        if self.sched_resync_pending {
            self.sched_resync_pending = false;
            self.sched
                .resync(&mut self.routers, &self.soa, &self.sinks, self.cycle);
        }
        let topo = self.topo;
        probe.cycle_start(self.cycle);

        // 0. Scheduled fault onsets/repairs take effect at the cycle
        //    boundary (free for an empty plan). Any mask change forces a
        //    full tick: onsets act on in-flight traffic immediately, and
        //    repairs re-arm routers that idled behind a dead channel.
        let fault_change = self.faults.advance(self.cycle);
        if fault_change
            && self.track_recovery
            && self
                .faults
                .plan()
                .events()
                .iter()
                .any(|e| e.until == Some(self.cycle))
        {
            self.recovery.on_repair(self.cycle);
        }
        let full = self.scheduler == Scheduler::Dense
            || fault_change
            || probe.wants_full_tick(self.cycle);

        // 1. What was sent `latency` cycles ago arrives: credits at their
        //    channel's own output row, flits in the input row (or sink) at
        //    its far end, waking that router. Each output VC, input VC and
        //    sink has one feeding channel, whose entries arrive in send
        //    order; every other effect is a set insert or a counter, so
        //    the order across channels is immaterial.
        let num_vcs = self.cfg.num_vcs;
        let (credits, flits) = self.calendar.due(self.cycle);
        for (c, vc) in credits {
            self.soa.out_return_credit(c as usize * num_vcs + vc as usize);
        }
        for (c, f) in flits {
            let c = c as usize;
            match self.down[c] {
                SINK => {
                    let ni = c / PORT_COUNT;
                    self.sinks[ni].push(f);
                    self.sched.sink_live.insert(ni);
                }
                row => {
                    // Flit arrivals wake the router and dirty its
                    // occupancy as seen by the side band.
                    let ni = row / PORT_COUNT;
                    self.soa.in_push(row * num_vcs + f.vc as usize, f);
                    self.sched.router_work[ni] += 1;
                    self.sched.live.insert(ni);
                    self.sched.sideband_dirty.insert(ni);
                }
            }
        }

        // 2. Side-band congestion state (one-cycle-old view). A full tick
        //    recomputes everything; otherwise only the bits fed by routers
        //    whose input occupancy changed since the last refresh.
        let mut order = std::mem::take(&mut self.sched.scratch);
        if full {
            self.sideband.update(topo, &self.soa);
            self.sched.sideband_dirty.clear();
        } else {
            order.clear();
            self.sched.sideband_dirty.collect_into(&mut order);
            for &ni in &order {
                self.sideband
                    .refresh_from(topo, &self.soa, NodeId(crate::cast::idx_u16(ni)));
            }
            self.sched.sideband_dirty.clear();
        }

        // 3. Packet generation and source injection. Parked retries are
        //    re-checked first (FIFO) so their order relative to fresh
        //    generation is deterministic. A mask change re-checks *every*
        //    parked entry, not just the due ones: a repair re-admits its
        //    quarantined pairs the cycle it lands — including a packet
        //    whose backoff expires that same cycle — while entries still
        //    unreachable keep their schedule and burn no attempt.
        let faulty = self.faults.any_active();
        if !self.retries.is_empty() {
            let pending = self.retries.len();
            for _ in 0..pending {
                let entry = self.retries.pop_front().expect("counted above");
                let due = entry.ready_at <= self.cycle;
                if due || fault_change {
                    if self
                        .faults
                        .deliverable(&*self.algo, entry.node, entry.packet.dest)
                    {
                        self.sources[entry.node.index()].enqueue(
                            entry.id,
                            entry.packet,
                            entry.birth,
                        );
                        continue;
                    }
                    if due {
                        self.park_or_drop(
                            entry.node,
                            entry.id,
                            entry.packet,
                            entry.birth,
                            entry.attempts,
                        );
                        continue;
                    }
                }
                self.retries.push_back(entry);
            }
        }
        // Packet generation can never be skipped: the Bernoulli draw per
        // node per cycle comes from the shared RNG, so the loop stays
        // dense in every mode. Idle sources (nothing queued, no VC held)
        // return before any RNG draw, so their step may be skipped.
        for node in topo.nodes() {
            let ni = node.index();
            if let Some(np) = workload.generate(node, self.cycle, &mut self.rng) {
                debug_assert!(np.size > 0, "packets must have at least one flit");
                // Workloads that replay recorded traffic carry the cycle
                // the packet was *meant* to enter the network; backlogged
                // injection then shows up as source-queue latency.
                let birth = np.origin.unwrap_or(self.cycle);
                debug_assert!(birth <= self.cycle, "packets cannot be born in the future");
                let id = PacketId(self.next_packet);
                self.next_packet += 1;
                self.metrics.record_generated(np.class, np.size);
                probe.packet_generated(node, &np, self.cycle);
                if faulty && !self.faults.deliverable(&*self.algo, node, np.dest) {
                    self.unreachable.insert((node.0, np.dest.0));
                    self.park_or_drop(node, id, np, birth, 0);
                } else {
                    self.sources[ni].enqueue(id, np, birth);
                }
            }
            if full || !self.sources[ni].is_idle() {
                if let Some(f) = self.sources[ni].step(
                    &*self.algo,
                    topo,
                    &self.sideband,
                    &FaultView::new(&self.faults, &*self.algo),
                    &mut self.rng,
                    &mut self.soa,
                    probe,
                ) {
                    self.calendar.send_flit(self.soa.inj_np(node), f);
                }
            }
        }

        // 4. Routers: launch previously staged flits, then VA, then SA.
        // Dead output channels launch nothing; degraded channels launch on
        // their period. Credits keep flowing regardless (the credit
        // side-band is modeled as reliable), so repaired links resume
        // cleanly with a consistent credit count.
        let rules = self.rules;
        order.clear();
        if full {
            order.extend(0..topo.len());
        } else {
            self.sched.live.collect_into(&mut order);
        }
        for &ni in &order {
            let node = NodeId(crate::cast::idx_u16(ni));
            // Catch the switch arbiters up over the cycles this router was
            // skipped: the dense loop rotates them unconditionally every
            // cycle, and arbitration must resume exactly where it would be.
            let lag = self.cycle.saturating_sub(self.sched.next_expected[ni]);
            if lag > 0 {
                self.routers[ni].advance_arbiters(lag);
            }
            self.sched.next_expected[ni] = self.cycle + 1;
            for port in 0..PORT_COUNT {
                // Nothing staged means nothing to launch: skip the fault
                // checks entirely (`launch_allowed` is pure).
                let c = self.soa.np(node, port);
                if self.soa.staged(c) == 0 || self.down[c] == NO_LINK {
                    continue;
                }
                if self.faults.launch_allowed(node, port, self.cycle) {
                    if let Some(f) = self.routers[ni].launch(&mut self.soa, port) {
                        self.link_flits[c] += 1;
                        self.calendar.send_flit(c, f);
                        self.sched.router_work[ni] =
                            self.sched.router_work[ni].saturating_sub(1);
                    }
                }
            }
            self.routers[ni].vc_allocate(
                &mut self.soa,
                &*self.algo,
                topo,
                rules,
                &self.sideband,
                &FaultView::new(&self.faults, &*self.algo),
                &mut self.rng,
                &mut self.metrics,
                probe,
            );
            let mut freed = std::mem::take(&mut self.freed_scratch);
            freed.clear();
            self.routers[ni].switch_allocate(
                &mut self.soa,
                rules.policy,
                self.cfg.speedup,
                &mut freed,
                probe,
            );
            if !freed.is_empty() {
                // Switch traversal drained input slots: the occupancy the
                // side band reads from this router changed.
                self.sched.sideband_dirty.insert(ni);
            }
            for slot in &freed {
                let c = self.up[self.soa.np(node, slot.in_port)];
                debug_assert_ne!(c, SINK, "a flit arrived on this channel");
                self.calendar.send_credit(c, slot.vc);
            }
            self.freed_scratch = freed;
            if self.sched.router_work[ni] == 0 {
                // Nothing resident: the router is an exact no-op until the
                // next flit arrival re-arms it.
                self.sched.live.remove(ni);
            }
        }

        // 5. Sinks consume at the endpoint ejection bandwidth.
        order.clear();
        if full {
            order.extend(0..topo.len());
        } else {
            self.sched.sink_live.collect_into(&mut order);
        }
        for &ni in &order {
            let node = NodeId(crate::cast::idx_u16(ni));
            if let Some(credit) = self.sinks[ni].step(self.cycle, &mut self.metrics, probe) {
                self.calendar
                    .send_credit(self.soa.np(node, Port::Local.index()), credit.vc);
            }
            if self.sinks[ni].buffered() == 0 {
                self.sched.sink_live.remove(ni);
            }
        }
        self.sched.scratch = order;

        // 6. Cycle bookkeeping. Recovery tracking is pure observation
        //    (no RNG draws, no feedback into routing), driven only for
        //    faulted runs.
        if self.track_recovery {
            let t = self.metrics.total();
            self.recovery.tick(
                self.cycle,
                t.generated_packets,
                t.ejected_packets,
                self.retries.is_empty(),
            );
        }
        self.metrics.cycles += 1;
        probe.sample(self.cycle, self);
        probe.cycle_end(self.cycle);
        self.cycle += 1;
    }

    /// Disposes of an unreachable packet according to the configured
    /// policy: park it for another attempt, or drop it with accounting.
    /// `attempts` counts the checks already made for this packet.
    ///
    /// Retry delays grow exponentially — `backoff << attempts`, capped at
    /// 64× the base so a long outage cannot push wake-ups past the run —
    /// plus a deterministic jitter in `[0, backoff)` derived from the run
    /// seed, the packet id and the attempt number. The jitter decorrelates
    /// the retry herd after a repair without touching the shared RNG, so
    /// retry timing is a pure function of the run's inputs: bit-identical
    /// at any worker count and under either scheduler.
    fn park_or_drop(
        &mut self,
        node: NodeId,
        id: PacketId,
        packet: NewPacket,
        birth: u64,
        attempts: u32,
    ) {
        if let UnreachablePolicy::Retry {
            max_attempts,
            backoff,
        } = self.policy
        {
            if attempts + 1 < max_attempts {
                let base = backoff.max(1);
                let step = base.saturating_mul(1u64 << attempts.min(6));
                let jitter = splitmix64(
                    self.seed ^ id.0.rotate_left(17) ^ u64::from(attempts).rotate_left(41),
                ) % base;
                self.metrics.record_retry(packet.class);
                self.retries.push_back(RetryEntry {
                    ready_at: self.cycle.saturating_add(step).saturating_add(jitter),
                    node,
                    id,
                    packet,
                    birth,
                    attempts: attempts + 1,
                });
                return;
            }
        }
        self.metrics.record_dropped(packet.class, packet.size);
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, workload: &mut dyn Workload, cycles: u64) {
        for _ in 0..cycles {
            self.step(workload);
        }
    }

    /// Runs `cycles` cycles with a probe attached.
    pub fn run_probed(
        &mut self,
        workload: &mut dyn Workload,
        cycles: u64,
        probe: &mut dyn Probe,
    ) {
        for _ in 0..cycles {
            self.step_probed(workload, probe);
        }
    }

    /// Runs `cycles` cycles under a stall watchdog (with an additional
    /// probe attached; pass [`NullProbe`] if none is needed).
    ///
    /// The watchdog observes every flit movement; the cycle after it trips,
    /// the run stops and returns the full diagnostic bundle instead of
    /// spinning to the cycle limit — turning a hung sweep into an artifact
    /// that names the stuck routers and packets.
    ///
    /// # Errors
    ///
    /// Returns the [`StallDiagnostic`](crate::observe::StallDiagnostic)
    /// when no flit has moved for the watchdog's threshold while packets
    /// were in flight.
    pub fn run_watched(
        &mut self,
        workload: &mut dyn Workload,
        cycles: u64,
        probe: &mut dyn Probe,
        watchdog: &mut crate::observe::StallWatchdog,
    ) -> Result<(), Box<crate::observe::StallDiagnostic>> {
        for _ in 0..cycles {
            {
                let mut pair = crate::observe::ProbePair::new(watchdog, probe);
                self.step_probed(workload, &mut pair);
            }
            if watchdog.stalled() {
                return Err(Box::new(watchdog.diagnose(self)));
            }
        }
        Ok(())
    }

    /// `true` when nothing is in flight anywhere: channels, routers,
    /// sources and sinks are all empty. Used by drain phases and deadlock
    /// checks.
    pub fn is_quiescent(&self) -> bool {
        self.calendar.is_empty()
            && self.routers.iter().all(|r| r.is_quiescent(&self.soa))
            && self.sources.iter().all(|s| s.is_quiescent(&self.soa))
            && self.sinks.iter().all(Sink::is_quiescent)
            && self.retries.is_empty()
    }

    /// Serializes the complete dynamic state of a fault-free network —
    /// cycle counter, packet-id counter, RNG stream, every flit, buffer,
    /// credit, arbiter pointer and channel stage — for warm-start restore via
    /// [`Network::restore`].
    ///
    /// **Not** serialized, by argument rather than accident:
    ///
    /// * metrics — the warm-start consumer resets the window at the
    ///   restore boundary on both the cold and the warm path;
    /// * the congestion side band and the active-set live sets — restore
    ///   schedules a full resync, which recomputes them from the restored
    ///   datapath before the next cycle reads them (and recomputation is
    ///   exact wherever the incremental path would have kept a cached
    ///   value, so the two paths stay bit-identical);
    /// * the datapath's per-port masks and occupancy counts — restore
    ///   recomputes them from the rings and the VC states before it
    ///   returns;
    /// * per-cycle scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns an error when the network runs under a fault plan or holds
    /// parked retries — fault/recovery/retry state is deliberately outside
    /// the snapshot inventory, so such a network must not be checkpointed.
    ///
    /// Takes `&mut self` only because it shares one walk with `restore`;
    /// it changes nothing a later cycle can observe (the calendar's slots
    /// come back grouped by channel, each channel's order kept).
    pub fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        if self.track_recovery || !self.retries.is_empty() || !self.unreachable.is_empty() {
            return Err("snapshots require a fault-free network".into());
        }
        let mut w = SnapWriter(Vec::new());
        self.snap(&mut w)?;
        Ok(w.0)
    }

    /// Restores a [`Network::snapshot`] image into this network, which
    /// must have been built with the same configuration (geometry echoes
    /// are validated; the caller's cache key must bind everything else —
    /// routing algorithm, traffic, seed). Metrics are cleared; the next
    /// step resyncs the scheduler's activity state and the congestion
    /// side band from the restored datapath.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the network in an unspecified but
    /// rebuild-able state — callers should discard it and run cold) when
    /// the image is truncated, corrupt, of another snapshot layout or from
    /// a different geometry.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.track_recovery {
            return Err("cannot restore into a faulted network".into());
        }
        let mut r = SnapReader::new(bytes);
        self.snap(&mut r)?;
        r.done()?;
        self.soa.rebuild_port_masks()?;
        self.metrics = Metrics::new();
        self.sched_resync_pending = true;
        Ok(())
    }

    /// The one walk [`Network::snapshot`] writes and [`Network::restore`]
    /// reads: the layout word, the geometry echoes, the counters and the
    /// RNG stream, then every component in a fixed order.
    fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        let mut layout = SNAPSHOT_LAYOUT;
        s.u64(&mut layout)?;
        if layout != SNAPSHOT_LAYOUT {
            return Err(format!(
                "snapshot layout {layout}, this build reads {SNAPSHOT_LAYOUT}"
            ));
        }
        s.echo(self.topo.len(), "node count")?;
        s.echo(self.cfg.num_vcs, "VC count")?;
        s.echo(self.cfg.vc_buffer_depth, "buffer depth")?;
        s.u64(&mut self.cycle)?;
        s.u64(&mut self.next_packet)?;
        let mut rng = self.rng.state();
        s.each(&mut rng, S::u64)?;
        self.rng = SmallRng::from_state(rng);
        self.soa.snap(s)?;
        s.each(&mut self.routers, |s, r| r.snap(s))?;
        s.each(&mut self.sources, |s, src| src.snap(s))?;
        s.each(&mut self.sinks, |s, sink| sink.snap(s))?;
        let channels = (0..self.down.len()).filter(|&c| self.down[c] != NO_LINK);
        self.calendar.snap(s, self.cycle, channels)?;
        s.each(&mut self.link_flits, S::u64)?;
        s.each(&mut self.sched.next_expected, S::u64)
    }

    /// The live fault state derived from the network's fault plan.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Recovery observations for this run (TTR and availability windows).
    /// Empty for a run without a fault plan.
    pub fn recovery(&self) -> &RecoveryTracker {
        &self.recovery
    }

    /// Packets currently parked awaiting a retry.
    pub fn parked_retries(&self) -> usize {
        self.retries.len()
    }

    /// Every `(src, dest)` pair observed unreachable at generation time so
    /// far, in sorted order. Empty for a fault-free run.
    pub fn unreachable_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.unreachable
            .iter()
            .map(|&(s, d)| (NodeId(s), NodeId(d)))
            .collect()
    }

    /// Total packets waiting in source queues.
    pub fn source_backlog(&self) -> usize {
        self.sources.iter().map(Source::backlog).sum()
    }

    /// Snapshot of every input VC currently holding flits, with the
    /// destinations of the buffered flits — the raw material for
    /// congestion-tree analysis in `footprint-stats`.
    pub fn occupancy_snapshot(&self) -> Vec<OccupiedVcEntry> {
        let mut entries = Vec::new();
        self.occupancy_snapshot_into(&mut entries);
        entries
    }

    /// Writes the occupancy snapshot into `out`, reusing its entries (and
    /// their inner `dests` buffers) from the previous sample. Periodic
    /// samplers (`fig2`, `fig9` timelines) call this every interval, so
    /// after the first sample the steady state allocates nothing beyond
    /// occasional capacity growth.
    pub fn occupancy_snapshot_into(&self, out: &mut Vec<OccupiedVcEntry>) {
        let mut used = 0;
        for node in self.topo.nodes() {
            // Ports whose input FIFOs are all empty contribute nothing; the
            // O(1) occupancy sideband skips them without scanning VCs.
            for pi in 0..PORT_COUNT {
                if self.soa.in_occupied(self.soa.np(node, pi)) == 0 {
                    continue;
                }
                let port = self.soa.input(node, pi);
                for vi in 0..self.cfg.num_vcs {
                    let vc = port.vc(vi);
                    if vc.is_empty() {
                        continue;
                    }
                    if used < out.len() {
                        let e = &mut out[used];
                        e.node = node;
                        e.in_port = Port::from_index(pi);
                        e.vc = crate::cast::vc_u8(vi);
                        e.dests.clear();
                        vc.dests_into(&mut e.dests);
                    } else {
                        let mut dests = Vec::new();
                        vc.dests_into(&mut dests);
                        out.push(OccupiedVcEntry {
                            node,
                            in_port: Port::from_index(pi),
                            vc: crate::cast::vc_u8(vi),
                            dests,
                        });
                    }
                    used += 1;
                }
            }
        }
        out.truncate(used);
    }

    /// Direct read access to a router (tests and white-box analysis).
    pub(crate) fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Direct read access to the struct-of-arrays datapath state (tests,
    /// sentinel, white-box analysis).
    pub(crate) fn datapath(&self) -> &NocSoa {
        &self.soa
    }

    /// Direct mutable access to the struct-of-arrays datapath state: the
    /// sentinel's negative tests corrupt credit counters or plant
    /// counterfeit flits through it and check the violation is caught.
    ///
    /// Mutating the datapath behind the scheduler's back invalidates the
    /// active-set bookkeeping, so the next step rebuilds it from actual
    /// component state before running.
    #[cfg(test)]
    pub(crate) fn datapath_mut(&mut self) -> &mut NocSoa {
        self.sched_resync_pending = true;
        &mut self.soa
    }

    /// All sinks, in node-index order (sentinel census).
    pub(crate) fn sinks(&self) -> &[Sink] {
        &self.sinks
    }

    /// Every channel that exists, as `(channel, down)`: `channel` is its
    /// output row in the datapath store, `down` the input row at its far
    /// end or [`SINK`] (sentinel audits).
    pub(crate) fn channels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.down.iter().copied().enumerate()).filter(|&(_, down)| down != NO_LINK)
    }

    /// Every flit and credit in flight (sentinel census).
    pub(crate) fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// The routing algorithm's VC-allocation rules on this fabric.
    pub(crate) fn rules(&self) -> AllocRules {
        self.rules
    }

    /// The side-band congestion view (one-cycle-old, as routing sees it).
    pub(crate) fn sideband(&self) -> &Sideband {
        &self.sideband
    }

    /// A routing-facing view of the live fault masks.
    pub(crate) fn fault_view(&self) -> FaultView<'_> {
        FaultView::new(&self.faults, &*self.algo)
    }

    /// Flits launched on each output channel since construction, as
    /// `(node, port, flits)` triples — the raw material for link-utilization
    /// analysis. Channels that do not exist (mesh edges) are omitted;
    /// wrapping fabrics report every direction port.
    pub fn channel_loads(&self) -> Vec<(NodeId, Port, u64)> {
        let mut loads = Vec::new();
        for node in self.topo.nodes() {
            for port in 0..PORT_COUNT {
                let c = self.soa.np(node, port);
                if self.down[c] != NO_LINK {
                    loads.push((node, Port::from_index(port), self.link_flits[c]));
                }
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{NoTraffic, SingleFlow};
    use footprint_routing::RoutingSpec;

    fn build(spec: RoutingSpec) -> Network {
        Network::new(SimConfig::small(), spec.build(), 42).unwrap()
    }

    /// The channel table pairs up: every channel but the ejection ones has
    /// a far-end input row whose credits return on it, every input row
    /// with a neighbour has exactly one feeder, and a mesh edge has
    /// neither channel nor feeder.
    #[test]
    fn channel_table_pairs_every_input_row_with_its_feeder() {
        use footprint_topology::{TopologySpec, DIRECTIONS};
        for spec in [TopologySpec::mesh(4), TopologySpec::torus(4), TopologySpec::ring(8)] {
            let cfg = SimConfig { topology: spec, ..SimConfig::small() };
            let net = Network::new(cfg, RoutingSpec::Footprint.build(), 1).unwrap();
            let (topo, n) = (net.topo(), net.topo().len());
            assert_eq!(net.down.len(), n * (PORT_COUNT + 1));
            let mut feeders = vec![0; n * PORT_COUNT];
            for (c, down) in net.channels() {
                let ejection = c < n * PORT_COUNT && c % PORT_COUNT == Port::Local.index();
                assert_eq!(down == SINK, ejection, "{spec}: channel {c}");
                if !ejection {
                    assert_eq!(net.up[down], c, "{spec}: channel {c}");
                    feeders[down] += 1;
                }
            }
            for node in topo.nodes() {
                assert_eq!(feeders[net.soa.np(node, Port::Local.index())], 1, "{spec}");
                for d in DIRECTIONS {
                    let row = net.soa.np(node, Port::Dir(d).index());
                    let linked = topo.neighbor(node, d).is_some();
                    assert_eq!(net.down[row] != NO_LINK, linked, "{spec}: {node} {d}");
                    assert_eq!(feeders[row], usize::from(linked), "{spec}: {node} {d}");
                    assert_eq!(net.up[row] == SINK, !linked, "{spec}: {node} {d}");
                }
            }
        }
    }

    #[test]
    fn empty_network_stays_quiescent() {
        let mut net = build(RoutingSpec::Dor);
        net.run(&mut NoTraffic, 50);
        assert!(net.is_quiescent());
        assert_eq!(net.metrics().total().ejected_packets, 0);
        assert_eq!(net.cycle(), 50);
    }

    #[test]
    fn single_packet_reaches_destination_under_all_algorithms() {
        for spec in RoutingSpec::PAPER_SET {
            let mut net = build(spec);
            let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
                src: NodeId(0),
                dest: NodeId(15),
                rate: 1.0,
                size: 1,
            }]);
            // One cycle of generation, then drain.
            net.step(&mut wl);
            let mut none = NoTraffic;
            net.run(&mut none, 100);
            let m = net.metrics().total();
            assert!(
                m.ejected_packets >= 1,
                "{}: no packet delivered",
                spec.name()
            );
            assert!(net.is_quiescent(), "{}: not drained", spec.name());
        }
    }

    #[test]
    fn continuous_flow_is_delivered_loss_free() {
        let mut net = build(RoutingSpec::Footprint);
        let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
            src: NodeId(0),
            dest: NodeId(15),
            rate: 0.5,
            size: 1,
        }]);
        net.run(&mut wl, 1000);
        let mut none = NoTraffic;
        net.run(&mut none, 500);
        assert!(net.is_quiescent(), "flow did not drain");
        let m = net.metrics().total();
        assert_eq!(m.generated_packets, m.ejected_packets);
        assert!(m.generated_packets > 300, "got {}", m.generated_packets);
    }

    #[test]
    fn multiflit_packets_arrive_intact() {
        let mut net = build(RoutingSpec::Footprint);
        let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
            src: NodeId(3),
            dest: NodeId(12),
            rate: 0.6,
            size: 4,
        }]);
        net.run(&mut wl, 600);
        let mut none = NoTraffic;
        net.run(&mut none, 400);
        assert!(net.is_quiescent());
        let m = net.metrics().total();
        assert_eq!(m.generated_packets, m.ejected_packets);
        assert_eq!(m.ejected_flits, 4 * m.ejected_packets);
    }

    #[test]
    fn rejects_single_vc_for_duato_routing() {
        let mut cfg = SimConfig::small();
        cfg.num_vcs = 1;
        let err = match Network::new(cfg, RoutingSpec::Footprint.build(), 1) {
            Err(e) => e,
            Ok(_) => panic!("expected a configuration error"),
        };
        assert!(matches!(err, ConfigError::TooFewVcsForRouting { .. }));
        // DOR is fine with a single VC.
        assert!(Network::new(cfg, RoutingSpec::Dor.build(), 1).is_ok());
    }

    #[test]
    fn oversubscribed_endpoint_backs_up_but_keeps_delivering() {
        let mut net = build(RoutingSpec::Footprint);
        // Two full-rate flows into n5: 2.0 flits/cycle offered, 1.0 drained.
        let mut wl = crate::workload::FlowSet::new(vec![
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
        net.run(&mut wl, 1000);
        let m = net.metrics().total();
        // The endpoint ejects at its port bandwidth (≈1 flit/cycle).
        let ejected_rate = m.ejected_flits as f64 / net.cycle() as f64;
        assert!(
            ejected_rate > 0.85 && ejected_rate <= 1.01,
            "ejection rate {ejected_rate}"
        );
        assert!(net.source_backlog() > 100, "hotspot must back up");
    }

    #[test]
    fn link_latency_delays_delivery_proportionally() {
        let mut cfg_fast = SimConfig::small();
        cfg_fast.link_latency = 1;
        let mut cfg_slow = SimConfig::small();
        cfg_slow.link_latency = 4;
        let mut latencies = Vec::new();
        for cfg in [cfg_fast, cfg_slow] {
            let mut net = Network::new(cfg, RoutingSpec::Dor.build(), 7).unwrap();
            let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
                src: NodeId(0),
                dest: NodeId(3),
                rate: 0.05,
                size: 1,
            }]);
            net.run(&mut wl, 600);
            let mut none = NoTraffic;
            net.run(&mut none, 200);
            assert!(net.is_quiescent());
            let m = net.metrics().total();
            assert!(m.ejected_packets > 0);
            latencies.push(m.latency_sum as f64 / m.ejected_packets as f64);
        }
        // 3 hops + injection + ejection ≈ 5 link traversals; each extra
        // latency cycle adds ≈5 cycles end to end.
        assert!(
            latencies[1] > latencies[0] + 10.0,
            "lat(ll=1)={} lat(ll=4)={}",
            latencies[0],
            latencies[1]
        );
    }

    #[test]
    fn channel_loads_count_launched_flits() {
        let mut net = build(RoutingSpec::Dor);
        let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
            src: NodeId(0),
            dest: NodeId(2),
            rate: 0.5,
            size: 1,
        }]);
        net.run(&mut wl, 400);
        let mut none = NoTraffic;
        net.run(&mut none, 200);
        let loads = net.channel_loads();
        let flits = net.metrics().total().ejected_flits;
        // DOR: n0 →E n1 →E n2 →eject. Each flit crosses exactly two
        // inter-router channels and one ejection channel.
        let get = |node: u16, port: Port| {
            loads
                .iter()
                .find(|&&(n, p, _)| n == NodeId(node) && p == port)
                .map(|&(_, _, f)| f)
                .unwrap()
        };
        use footprint_topology::Direction;
        assert_eq!(get(0, Port::Dir(Direction::East)), flits);
        assert_eq!(get(1, Port::Dir(Direction::East)), flits);
        assert_eq!(get(2, Port::Local), flits);
        assert_eq!(get(5, Port::Dir(Direction::East)), 0);
        // Edge channels are omitted entirely.
        assert!(!loads
            .iter()
            .any(|&(n, p, _)| n == NodeId(0) && p == Port::Dir(Direction::West)));
    }

    #[test]
    fn occupancy_snapshot_reflects_buffered_traffic() {
        let mut net = build(RoutingSpec::Dor);
        let mut wl = crate::workload::FlowSet::new(vec![
            SingleFlow {
                src: NodeId(0),
                dest: NodeId(5),
                rate: 1.0,
                size: 1,
            },
            SingleFlow {
                src: NodeId(2),
                dest: NodeId(5),
                rate: 1.0,
                size: 1,
            },
        ]);
        net.run(&mut wl, 200);
        let snap = net.occupancy_snapshot();
        assert!(!snap.is_empty());
        assert!(snap
            .iter()
            .all(|e| !e.dests.is_empty()));
        // Every buffered destination in this workload is n5.
        assert!(snap
            .iter()
            .flat_map(|e| e.dests.iter())
            .all(|&d| d == NodeId(5)));
    }

    /// A snapshot taken mid-run and restored into a freshly built network
    /// must continue bit-identically to the uninterrupted run — same
    /// window metrics, same final cycle, same quiescence — under either
    /// scheduler (the restore path schedules a resync, which must agree
    /// with the never-resynced reference walk).
    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        for sched in [Scheduler::Dense, Scheduler::Active] {
            let mk = || {
                let mut net = build(RoutingSpec::Footprint);
                net.set_scheduler(sched);
                net
            };
            let wl = || {
                crate::workload::FlowSet::new(vec![
                    SingleFlow {
                        src: NodeId(0),
                        dest: NodeId(15),
                        rate: 0.4,
                        size: 2,
                    },
                    SingleFlow {
                        src: NodeId(12),
                        dest: NodeId(3),
                        rate: 0.3,
                        size: 1,
                    },
                ])
            };
            // Reference: run 300 cycles straight, measuring the last 150.
            let mut a = mk();
            let mut wa = wl();
            a.run(&mut wa, 150);
            a.metrics_mut().reset_window_at(150);
            a.run(&mut wa, 150);
            // Interrupted: run 150, snapshot, restore into a fresh build,
            // measure the next 150 there.
            let mut b0 = mk();
            let mut wb = wl();
            b0.run(&mut wb, 150);
            let blob = b0.snapshot().expect("fault-free snapshot");
            let mut b = mk();
            b.restore(&blob).expect("restore");
            assert_eq!(b.cycle(), 150);
            b.metrics_mut().reset_window_at(150);
            let mut wb2 = wl();
            b.run(&mut wb2, 150);
            let ta = a.metrics().total();
            let tb = b.metrics().total();
            assert_eq!(ta, tb, "{sched:?}: window metrics diverged");
            assert_eq!(a.cycle(), b.cycle());
            assert_eq!(
                format!("{:?}", a.datapath()),
                format!("{:?}", b.datapath()),
                "{sched:?}: datapath state diverged"
            );
        }
    }

    /// The same with three-cycle links, snapshotted at a cycle that is not
    /// a multiple of 3, so the stream's stage `k` maps to calendar slot
    /// `(cycle + k) % 3` with a nonzero offset: the restored run's metrics
    /// match the uninterrupted run's, and so does its final snapshot, byte
    /// for byte.
    #[test]
    fn restore_with_a_multi_slot_calendar_resumes_bit_identically() {
        let mk = || {
            let cfg = SimConfig { link_latency: 3, ..SimConfig::small() };
            Network::new(cfg, RoutingSpec::Footprint.build(), 5).unwrap()
        };
        let wl = || {
            let flow = |src, dest, rate, size| SingleFlow { src: NodeId(src), dest: NodeId(dest), rate, size };
            crate::workload::FlowSet::new(vec![
                flow(0, 15, 0.5, 3),
                flow(12, 3, 0.4, 1),
                flow(5, 10, 0.6, 2),
                flow(15, 0, 0.3, 4),
            ])
        };
        let at = 200;
        assert_ne!(at % 3, 0);
        let mut a = mk();
        let mut wa = wl();
        a.run(&mut wa, at);
        a.metrics_mut().reset_window_at(at);
        a.run(&mut wa, 300);

        let mut b0 = mk();
        let mut wb = wl();
        b0.run(&mut wb, at);
        assert!(!b0.calendar.is_empty(), "the snapshot must catch entries in flight");
        let blob = b0.snapshot().expect("fault-free snapshot");
        let mut b = mk();
        b.restore(&blob).expect("restore");
        b.metrics_mut().reset_window_at(at);
        b.run(&mut wb, 300);

        assert!(a.metrics().total().ejected_packets > 0);
        assert_eq!(a.metrics().total(), b.metrics().total(), "window metrics diverged");
        assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap(), "final snapshots differ");
    }

    #[test]
    fn snapshot_rejects_faulted_networks_and_wrong_geometry() {
        use footprint_topology::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new().with(FaultEvent::router_down(NodeId(3), 0));
        let mut faulted = Network::with_faults(
            SimConfig::small(),
            RoutingSpec::Footprint.build(),
            1,
            plan,
            UnreachablePolicy::Drop,
        )
        .unwrap();
        assert!(faulted.snapshot().is_err());
        let mut net = build(RoutingSpec::Footprint);
        let blob = net.snapshot().unwrap();
        let mut cfg = SimConfig::small();
        cfg.num_vcs += 1;
        let mut other = Network::new(cfg, RoutingSpec::Footprint.build(), 42).unwrap();
        assert!(other.restore(&blob).is_err(), "geometry echo must catch this");
        assert!(other.restore(&blob[..blob.len() - 3]).is_err());

        // Offsets into `net`'s stream: source 0's queue length, its
        // active-VC tag, and the first channel's first stage length.
        let offsets = |net: &mut Network| {
            use crate::snapshot::{Snap, SnapWriter};
            // Before the sources: the layout word, three geometry echoes,
            // the cycle and packet counters and four RNG words, then the
            // datapath image and the routers' arbiters.
            let mut w = SnapWriter(vec![0; 10 * 8]);
            net.soa.snap(&mut w).unwrap();
            w.each(&mut net.routers, |w, r| r.snap(w)).unwrap();
            let queue = w.0.len();
            net.sources[0].snap(&mut w).unwrap();
            // The tag byte, then the VC index and `rr` as u64.
            let tag = w.0.len() - 17;
            w.each(&mut net.sources[1..], |w, s| s.snap(w)).unwrap();
            w.each(&mut net.sinks, |w, s| s.snap(w)).unwrap();
            // Past the channel's latency echo.
            (queue, tag, w.0.len() + 8)
        };
        let mut other = build(RoutingSpec::Footprint);
        let mut bad = blob.clone();
        bad[0] ^= 1;
        let err = other.restore(&bad).unwrap_err();
        assert!(err.contains("snapshot layout 5, this build reads 4"), "{err}");

        // A ring head or length outside its ring is refused by name, not
        // left for a later push or pop to panic on. `net` is idle, so its
        // datapath image holds no flits: the input rings' heads and
        // lengths follow the four datapath echoes, and the stages' heads
        // and lengths end the image.
        let cfg = SimConfig::small();
        let (depth, cap) = (cfg.vc_buffer_depth, cfg.speedup);
        let nodes = net.topo().len();
        let (ivcs, out_nps) = (nodes * PORT_COUNT * cfg.num_vcs, nodes * (PORT_COUNT + 1));
        let image_end = {
            let mut w = crate::snapshot::SnapWriter(vec![0; 10 * 8]);
            net.soa.snap(&mut w).unwrap();
            w.0.len()
        };
        let heads = 10 * 8 + 4 * 8;
        for (at, value, want) in [
            (heads, depth, format!("input VC 0 head {depth} outside its {depth} slots")),
            (heads + 2 * ivcs, depth + 1, format!("input VC 0 length {} exceeds", depth + 1)),
            (image_end - 4 * out_nps, cap, format!("output stage 0 head {cap} outside")),
            (image_end - 2 * out_nps, cap + 1, format!("output stage 0 length {}", cap + 1)),
        ] {
            let mut bad = blob.clone();
            bad[at..at + 2].copy_from_slice(&(value as u16).to_le_bytes());
            let err = other.restore(&bad).unwrap_err();
            assert!(err.contains(&want), "{want}: {err}");
        }
        // So is a route state with no code, which would leave the masks
        // recomputed from it meaningless; the route states follow the
        // input rings' heads and lengths.
        let mut bad = blob.clone();
        bad[heads + 4 * ivcs] = 7;
        let err = other.restore(&bad).unwrap_err();
        assert!(err.contains("input VC 0 route state 7 has no code"), "{err}");

        // A corrupt length prefix must be an error before anything is
        // allocated for it, not a 2^40-element resize.
        let (queue, tag, stage) = offsets(&mut net);
        for (at, field) in [(queue, "source queue length"), (stage, "channel stage length")] {
            let mut bad = blob.clone();
            bad[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
            let err = other.restore(&bad).unwrap_err();
            assert!(
                err.contains("snapshot truncated") && err.contains(field),
                "{err}"
            );
        }

        // A flipped byte in a source's active-VC field: `Source::step`
        // would expect a packet its queue does not hold, or index past its
        // VCs, and panic the sweep worker — it must be a restore error.
        let mut bad = blob.clone();
        bad[tag] = 1;
        let err = other.restore(&bad).unwrap_err();
        assert!(err.contains("active source VC 0"), "nothing queued: {err}");
        let mut busy = build(RoutingSpec::Footprint);
        let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
            src: NodeId(0),
            dest: NodeId(15),
            rate: 1.0,
            size: 4,
        }]);
        let (blob, tag) = (0..100)
            .find_map(|_| {
                busy.step(&mut wl);
                let blob = busy.snapshot().unwrap();
                let tag = offsets(&mut busy).1;
                (blob[tag] == 1).then_some((blob, tag))
            })
            .expect("source 0 is mid-packet within 100 cycles");
        let mut bad = blob.clone();
        bad[tag + 1] = SimConfig::small().num_vcs as u8;
        let err = other.restore(&bad).unwrap_err();
        assert!(err.contains("active source VC"), "one past the last VC: {err}");
        other.restore(&blob).expect("the unflipped blob restores");
    }

    /// Regression: a parked packet whose destination's router is repaired
    /// must be re-admitted in the repair cycle itself — not one backoff
    /// round later. The backoff here is far longer than the outage, so
    /// only the fault-change re-check can re-admit the packet; the test
    /// pins the exact cycle it happens.
    #[test]
    fn repair_readmits_parked_packets_in_the_repair_cycle() {
        use footprint_topology::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new().with(FaultEvent::router_down(NodeId(3), 0).repaired_at(50));
        let mut net = Network::with_faults(
            SimConfig::small(),
            RoutingSpec::Footprint.build(),
            9,
            plan,
            UnreachablePolicy::Retry {
                max_attempts: 10,
                backoff: 10_000,
            },
        )
        .unwrap();
        let mut wl = crate::workload::FlowSet::new(vec![SingleFlow {
            src: NodeId(0),
            dest: NodeId(3),
            rate: 1.0,
            size: 1,
        }]);
        // Cycles 0..=49: the destination router is down, every generated
        // packet parks, and no retry comes due (backoff 10 000).
        net.run(&mut wl, 50);
        assert!(net.parked_retries() > 0, "outage must park packets");
        assert_eq!(net.metrics().total().ejected_packets, 0);
        // Cycle 50 is the repair cycle: the mask change re-checks every
        // parked entry and re-injects the whole backlog that same cycle.
        net.step(&mut wl);
        assert_eq!(net.cycle(), 51);
        assert_eq!(
            net.parked_retries(),
            0,
            "repair cycle must re-admit the entire retry backlog"
        );
        // The re-admitted packets drain to the destination.
        net.run(&mut NoTraffic, 300);
        let m = net.metrics().total();
        assert_eq!(m.generated_packets, m.ejected_packets);
        assert_eq!(m.dropped_packets, 0);
    }
}

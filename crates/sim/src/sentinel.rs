//! The runtime invariant sentinel: an opt-in, always-compilable checker
//! that audits conservation and protocol invariants of the live network
//! every few cycles and turns the first violation into a typed report.
//!
//! The simulator's unit tests check behaviour at module boundaries; the
//! sentinel checks the *global* properties that hold across them on every
//! cycle of a real run:
//!
//! 1. **Flit conservation** — every injected flit is either resident
//!    somewhere (a wire, an input FIFO, an output stage, a sink buffer) or
//!    has been ejected. Packets dropped by the fault subsystem never become
//!    flits (they are discarded at generation, before the source queue), so
//!    the census is exact under any fault plan. The flit slab behind the
//!    input FIFOs and output stages must balance too: its handles in use
//!    equal the flits those rings hold.
//! 2. **Credit conservation** — for every (channel, VC), the sum of
//!    upstream credits, staged flits, in-flight flits, in-flight credits
//!    and downstream buffered flits equals the buffer capacity. A leak
//!    here is the classic silent NoC bug: throughput quietly degrades
//!    with no crash to bisect.
//! 3. **VC state legality** — input route state, output allocation state,
//!    the holder relation between them, and Algorithm 1's owner-register
//!    discipline (audited through
//!    [`footprint_routing::invariant::audit_footprint_owner`]).
//! 4. **Protocol deadlock** — a liveness fixpoint over the wait-for
//!    structure of input-VC buffers that distinguishes a true cyclic
//!    deadlock (or an unroutable head) from watchdog-visible congestion.
//!
//! The sentinel is a [`Probe`]: attach it with
//! [`Network::run_probed`](crate::Network::run_probed) (or opt in through
//! the experiment layer's `FOOTPRINT_SENTINEL=1`). It observes only —
//! attaching it never perturbs RNG draws or simulation state, so a
//! sentinel-on run produces bit-identical results to a sentinel-off run.
//! On the first violation it stops checking and holds a
//! [`SentinelReport`] carrying the violation, the cycle it was detected,
//! and a state excerpt rendered through the dump machinery.

use std::fmt;

use crate::input::RouteState;
use crate::metrics::Probe;
use crate::network::{Network, SINK};
use crate::observe::{FlitEvent, FlitEventKind};
use crate::output::OutVcState;
use crate::packet::PacketId;
use footprint_routing::{invariant, VcId, VcRequest};
use footprint_topology::{NodeId, Port, PORT_COUNT};
use rand::RngCore;

/// Upper bound on VCs per channel (mirrors the config validator's cap);
/// sizes the stack-allocated per-VC counting buffers.
const MAX_VCS: usize = 64;

/// The channel a credit-conservation violation was found on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelChannel {
    /// The source → router injection channel of the node.
    Injection,
    /// A router output channel (`Local` = the ejection channel).
    Output(Port),
}

impl fmt::Display for SentinelChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelChannel::Injection => f.write_str("injection channel"),
            SentinelChannel::Output(p) => write!(f, "output channel {p}"),
        }
    }
}

/// One input-VC buffer participating in a deadlock finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockMember {
    /// Router holding the buffer.
    pub node: NodeId,
    /// Input port of the buffer.
    pub in_port: Port,
    /// VC index.
    pub vc: u8,
    /// The packet at the front of the buffer.
    pub packet: PacketId,
    /// Its destination.
    pub dest: NodeId,
}

impl fmt::Display for DeadlockMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}/vc{} (packet {} -> {})",
            self.node, self.in_port, self.vc, self.packet.0, self.dest
        )
    }
}

/// What the deadlock detector found: a genuine wait-for cycle, or a head
/// that can never route at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockFinding {
    /// A cyclic wait: every member waits (directly or through a holder) on
    /// the next, and the last waits on the first. This is a protocol
    /// deadlock — no arbitration order can make progress.
    Cycle(Vec<DeadlockMember>),
    /// A waiting head whose routing function emits an empty request set:
    /// it will never be granted anything, cycles or not.
    DeadRoute(DeadlockMember),
    /// A waiting head stranded by the active fault mask: it has no viable
    /// route because its destination is unreachable under the algorithm's
    /// routing relation with the dead channels removed. Expected on
    /// faulted runs — severed routes strand packets by design — so the
    /// sentinel reports it as a classification, never as a violation.
    FaultStranded(DeadlockMember),
}

impl fmt::Display for DeadlockFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockFinding::Cycle(members) => {
                write!(f, "wait-for cycle over {} input VCs: ", members.len())?;
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" -> ")?;
                    }
                    write!(f, "{m}")?;
                }
                f.write_str(" -> (back to start)")
            }
            DeadlockFinding::DeadRoute(m) => write!(
                f,
                "dead route: {m} has an empty request set — the routing \
                 function can never grant it an output"
            ),
            DeadlockFinding::FaultStranded(m) => write!(
                f,
                "fault-stranded head: {m} cannot reach its destination \
                 under the active fault mask (expected under faults, not a \
                 protocol deadlock)"
            ),
        }
    }
}

/// A violated runtime invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum SentinelViolation {
    /// The flit census does not balance: `injected != ejected + resident`.
    FlitConservation {
        /// Flits injected since the sentinel attached.
        injected: u64,
        /// Flits ejected since the sentinel attached.
        ejected: u64,
        /// Flits currently resident in wires, buffers, stages and sinks.
        resident: u64,
    },
    /// The flit slab does not balance: the handles in use differ from the
    /// flits the input VCs and output stages hold, so a handle leaked or
    /// one was given back twice.
    FlitPool {
        /// Slab entries handed out and not given back.
        in_use: u64,
        /// Flits in the rings' live windows.
        buffered: u64,
    },
    /// A (channel, VC) credit equation does not balance.
    CreditConservation {
        /// Upstream node of the channel.
        node: NodeId,
        /// Which channel of the node.
        channel: SentinelChannel,
        /// The VC.
        vc: u8,
        /// Upstream free-slot credits.
        upstream_credits: u32,
        /// Flits staged at the output port for this VC.
        staged: u32,
        /// Flits in flight on the forward wire.
        wire_flits: u32,
        /// Credits in flight on the reverse wire.
        wire_credits: u32,
        /// Flits buffered downstream.
        downstream: u32,
        /// The downstream buffer capacity the equation must sum to.
        capacity: u32,
    },
    /// An input or output VC is in a state the protocol cannot produce.
    IllegalVcState {
        /// Router (or source endpoint) with the illegal state.
        node: NodeId,
        /// The port of the offending VC (input or output per `detail`).
        port: Port,
        /// The VC.
        vc: u8,
        /// Human-readable description of the illegality.
        detail: String,
    },
    /// The wait-for analysis found buffers that can never make progress.
    ProtocolDeadlock(DeadlockFinding),
}

impl fmt::Display for SentinelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelViolation::FlitConservation {
                injected,
                ejected,
                resident,
            } => write!(
                f,
                "flit conservation broken: {injected} injected != {ejected} ejected + \
                 {resident} resident (delta {})",
                *injected as i128 - (*ejected as i128 + *resident as i128)
            ),
            SentinelViolation::FlitPool { in_use, buffered } => write!(
                f,
                "flit pool out of balance: {in_use} slab handles in use != {buffered} flits \
                 buffered in input VCs and output stages"
            ),
            SentinelViolation::CreditConservation {
                node,
                channel,
                vc,
                upstream_credits,
                staged,
                wire_flits,
                wire_credits,
                downstream,
                capacity,
            } => write!(
                f,
                "credit conservation broken on {channel} VC {vc} at {node}: \
                 {upstream_credits} credits + {staged} staged + {wire_flits} wire flits + \
                 {wire_credits} wire credits + {downstream} downstream = {}, capacity {capacity}",
                upstream_credits + staged + wire_flits + wire_credits + downstream
            ),
            SentinelViolation::IllegalVcState {
                node,
                port,
                vc,
                detail,
            } => write!(f, "illegal VC state at {node} {port}/vc{vc}: {detail}"),
            SentinelViolation::ProtocolDeadlock(finding) => {
                write!(f, "protocol deadlock: {finding}")
            }
        }
    }
}

/// The sentinel's first-failure report: what was violated, when, and a
/// rendered excerpt of the implicated state.
#[derive(Debug, Clone)]
pub struct SentinelReport {
    /// Cycle the violation was detected (checks run at cycle end, so this
    /// is the first cycle whose post-state is inconsistent, up to the
    /// configured check interval).
    pub cycle: u64,
    /// The violated invariant.
    pub violation: SentinelViolation,
    /// State excerpt (router dumps / occupancy map) for the report.
    pub excerpt: String,
}

impl fmt::Display for SentinelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SENTINEL: invariant violated at cycle {}: {}",
            self.cycle, self.violation
        )?;
        if !self.excerpt.is_empty() {
            writeln!(f, "\n{}", self.excerpt)?;
        }
        Ok(())
    }
}

impl std::error::Error for SentinelReport {}

/// The runtime invariant checker. See the [module docs](self) for the
/// invariants it audits.
///
/// First-failure semantics: after the first violation the sentinel stops
/// checking (the report describes the *origin* of the corruption; later
/// cycles would only report its propagation) and keeps the report until
/// [`Sentinel::take_report`] is called.
#[derive(Debug)]
pub struct Sentinel {
    injected: u64,
    ejected: u64,
    /// Conservation/state checks run on cycles `c % interval == 0`.
    interval: u64,
    /// The deadlock fixpoint runs on cycles `c % deadlock_interval == 0`
    /// (deadlocks are persistent, so a coarser stride loses nothing but
    /// detection latency).
    deadlock_interval: u64,
    report: Option<Box<SentinelReport>>,
}

impl Default for Sentinel {
    fn default() -> Self {
        Self::new()
    }
}

impl Sentinel {
    /// Default check cadence: conservation and state legality every 8
    /// cycles, the deadlock fixpoint every 64. All audited conditions are
    /// persistent (a leaked credit or a dead cycle does not self-heal), so
    /// the stride only bounds detection latency, never detection itself —
    /// these defaults keep the audit within a few percent of wall-clock
    /// while still catching any corruption within 64 cycles.
    pub fn new() -> Self {
        Self::with_intervals(8, 64)
    }

    /// A sentinel with explicit check strides. Tests asserting exact
    /// first-failure cycles use `with_intervals(1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if either interval is zero.
    pub fn with_intervals(interval: u64, deadlock_interval: u64) -> Self {
        assert!(
            interval > 0 && deadlock_interval > 0,
            "sentinel intervals must be positive"
        );
        Sentinel {
            injected: 0,
            ejected: 0,
            interval,
            deadlock_interval,
            report: None,
        }
    }

    /// `true` when `FOOTPRINT_SENTINEL` is set to a truthy value
    /// (`1`/`true`/`on`/`yes`) — the opt-in the experiment layer honours.
    pub fn env_enabled() -> bool {
        matches!(
            std::env::var("FOOTPRINT_SENTINEL").ok().as_deref(),
            Some("1") | Some("true") | Some("on") | Some("yes")
        )
    }

    /// `true` once a violation has been recorded.
    pub fn tripped(&self) -> bool {
        self.report.is_some()
    }

    /// The recorded violation, if any.
    pub fn report(&self) -> Option<&SentinelReport> {
        self.report.as_deref()
    }

    /// Takes the recorded violation, leaving the sentinel armed again.
    pub fn take_report(&mut self) -> Option<Box<SentinelReport>> {
        self.report.take()
    }

    /// Flits injected while the sentinel was attached.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Flits ejected while the sentinel was attached.
    pub fn ejected(&self) -> u64 {
        self.ejected
    }

    /// Runs every enabled check against the current network state,
    /// recording (and returning) the first violation found. Exposed for
    /// tests and tools that want an on-demand audit; the [`Probe`] wiring
    /// calls it automatically on the configured strides.
    pub fn audit(&mut self, cycle: u64, net: &Network) -> Option<&SentinelReport> {
        if self.report.is_some() {
            return self.report();
        }
        let violation = check_flit_conservation(net, self.injected, self.ejected)
            .or_else(|| check_credit_conservation(net))
            .or_else(|| check_vc_states(net))
            .or_else(|| deadlock_violation(net))?;
        let excerpt = render_excerpt(net, &violation);
        self.report = Some(Box::new(SentinelReport {
            cycle,
            violation,
            excerpt,
        }));
        self.report()
    }
}

impl Probe for Sentinel {
    fn wants_flit_events(&self) -> bool {
        true
    }

    /// Only the census endpoints matter here: the conservation ledger
    /// counts injects and ejects, so the allocators' grant events can stay
    /// un-constructed — which is most of an audited run's overhead now
    /// that the datapath itself is cheap.
    fn wants_flit_events_of(&self, kind: FlitEventKind) -> bool {
        matches!(kind, FlitEventKind::Inject | FlitEventKind::Eject)
    }

    /// The census must see the whole network on audit cycles: the
    /// active-set scheduler falls back to a full tick on every
    /// conservation and deadlock stride so no router state is stale when
    /// [`Sentinel::audit`] walks the mesh.
    fn wants_full_tick(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.interval) || cycle.is_multiple_of(self.deadlock_interval)
    }

    fn flit_event(&mut self, ev: &FlitEvent) {
        match ev.kind {
            FlitEventKind::Inject => self.injected += 1,
            FlitEventKind::Eject => self.ejected += 1,
            _ => {}
        }
    }

    fn sample(&mut self, cycle: u64, net: &Network) {
        if self.report.is_some() {
            return;
        }
        let check = cycle.is_multiple_of(self.interval);
        let check_deadlock = cycle.is_multiple_of(self.deadlock_interval);
        if !check && !check_deadlock {
            return;
        }
        let violation = if check {
            check_flit_conservation(net, self.injected, self.ejected)
                .or_else(|| check_credit_conservation(net))
                .or_else(|| check_vc_states(net))
        } else {
            None
        }
        .or_else(|| {
            if check_deadlock {
                deadlock_violation(net)
            } else {
                None
            }
        });
        if let Some(violation) = violation {
            let excerpt = render_excerpt(net, &violation);
            self.report = Some(Box::new(SentinelReport {
                cycle,
                violation,
                excerpt,
            }));
        }
    }
}

/// Runs the deadlock detector and decides whether its finding is a
/// violation:
///
/// * a [`DeadlockFinding::FaultStranded`] head is expected under an
///   active mask (severed routes strand packets by design) — never a
///   violation;
/// * a [`DeadlockFinding::Cycle`] under an active mask can be
///   fault-induced (escape routes severed while packets are mid-flight),
///   so only the fault-free network must stay cycle-free;
/// * a [`DeadlockFinding::DeadRoute`] — an unroutable head whose
///   destination the routing relation can still reach — is a routing bug
///   and is reported even on faulted runs.
fn deadlock_violation(net: &Network) -> Option<SentinelViolation> {
    find_protocol_deadlock(net).and_then(|finding| match finding {
        DeadlockFinding::FaultStranded(_) => None,
        DeadlockFinding::Cycle(_) if net.fault_state().any_active() => None,
        other => Some(SentinelViolation::ProtocolDeadlock(other)),
    })
}

/// Renders the state excerpt for a violation: the implicated router dumps
/// plus the occupancy map for network-wide findings.
fn render_excerpt(net: &Network, violation: &SentinelViolation) -> String {
    const MAX_DUMPS: usize = 4;
    let mut out = String::new();
    let dump = |node: NodeId, out: &mut String| {
        out.push_str(&net.dump_router(node));
        out.push('\n');
    };
    match violation {
        SentinelViolation::FlitConservation { .. } | SentinelViolation::FlitPool { .. } => {
            out.push_str(&net.occupancy_map());
        }
        SentinelViolation::CreditConservation { node, channel, .. } => {
            dump(*node, &mut out);
            if let SentinelChannel::Output(Port::Dir(d)) = channel {
                if let Some(nb) = net.topo().neighbor(*node, *d) {
                    dump(nb, &mut out);
                }
            }
        }
        SentinelViolation::IllegalVcState { node, .. } => dump(*node, &mut out),
        SentinelViolation::ProtocolDeadlock(finding) => {
            out.push_str(&net.occupancy_map());
            out.push('\n');
            let members: &[DeadlockMember] = match finding {
                DeadlockFinding::Cycle(ms) => ms,
                DeadlockFinding::DeadRoute(m) | DeadlockFinding::FaultStranded(m) => {
                    std::slice::from_ref(m)
                }
            };
            let mut dumped: Vec<NodeId> = Vec::new();
            for m in members {
                if dumped.len() >= MAX_DUMPS {
                    break;
                }
                if !dumped.contains(&m.node) {
                    dumped.push(m.node);
                    dump(m.node, &mut out);
                }
            }
        }
    }
    out
}

/// Invariant 1: `injected == ejected + resident`, where residency counts
/// every place a flit can legally sit at cycle end, and the flit slab's
/// handles in use equal the flits buffered in routers.
fn check_flit_conservation(net: &Network, injected: u64, ejected: u64) -> Option<SentinelViolation> {
    let mut resident = net.calendar().flits().count() as u64;
    for node in net.topo().nodes() {
        // Inputs + output stages, exactly the router-resident places.
        resident += net.datapath().resident_flits(node) as u64;
    }
    for sink in net.sinks() {
        resident += sink.buffered() as u64;
    }
    if injected != ejected + resident {
        return Some(SentinelViolation::FlitConservation {
            injected,
            ejected,
            resident,
        });
    }
    // The buffered flits above are counted by the rings; the slab behind
    // them must hold exactly as many.
    let soa = net.datapath();
    let (in_use, buffered) = (soa.handles_in_use() as u64, soa.buffered_flits() as u64);
    (in_use != buffered).then_some(SentinelViolation::FlitPool { in_use, buffered })
}

/// Invariant 2: per-(channel, VC) credit conservation — one equation for
/// every channel of the table: upstream credits + staged flits + wire
/// flits + wire credits + downstream occupancy = capacity. One pass over
/// the calendar counts what is in flight per (channel, VC).
fn check_credit_conservation(net: &Network) -> Option<SentinelViolation> {
    let num_vcs = net.config().num_vcs;
    let soa = net.datapath();
    let router_rows = net.topo().len() * PORT_COUNT;
    // `wire[c * num_vcs + v]`: (flits, credits) in flight on channel `c`
    // for VC `v`.
    let mut wire = vec![(0u32, 0u32); (router_rows + net.topo().len()) * num_vcs];
    for (c, f) in net.calendar().flits() {
        wire[c * num_vcs + f.vc as usize].0 += 1;
    }
    for (c, vc) in net.calendar().credits() {
        wire[c * num_vcs + vc as usize].1 += 1;
    }
    let mut staged = [0u32; MAX_VCS];
    for (c, down) in net.channels() {
        staged[..num_vcs].fill(0);
        let output = soa.out_row(c);
        for f in output.staged_flits() {
            staged[f.vc as usize] += 1;
        }
        // Router outputs come first, then one injection channel per node.
        let (ni, channel) = if c < router_rows {
            let port = Port::from_index(c % PORT_COUNT);
            (c / PORT_COUNT, SentinelChannel::Output(port))
        } else {
            (c - router_rows, SentinelChannel::Injection)
        };
        for v in 0..num_vcs {
            let up = output.vc(v);
            // The far end: a router's input buffer, or the sink for the
            // ejection channel.
            let downstream = if down == SINK {
                net.sinks()[ni].buffered_in(v) as u32
            } else {
                soa.in_row(down).vc(v).len() as u32
            };
            let (wire_flits, wire_credits) = wire[c * num_vcs + v];
            let sum = up.credits() + staged[v] + wire_flits + wire_credits + downstream;
            if sum != up.capacity() {
                return Some(SentinelViolation::CreditConservation {
                    node: NodeId(crate::cast::idx_u16(ni)),
                    channel,
                    vc: crate::cast::vc_u8(v),
                    upstream_credits: up.credits(),
                    staged: staged[v],
                    wire_flits,
                    wire_credits,
                    downstream,
                    capacity: up.capacity(),
                });
            }
        }
    }
    None
}

/// Invariant 3: VC state-machine legality — input route states, output
/// allocation states, the holder relation between them, and the owner
/// register discipline.
fn check_vc_states(net: &Network) -> Option<SentinelViolation> {
    let num_vcs = net.config().num_vcs;
    // holder[out_port * num_vcs + out_vc] = (in_port, in_vc, packet)
    let mut holders: Vec<Option<(usize, usize, PacketId)>> = vec![None; PORT_COUNT * num_vcs];
    let soa = net.datapath();
    for node in net.topo().nodes() {
        holders.iter_mut().for_each(|h| *h = None);
        for pi in 0..PORT_COUNT {
            let input = soa.input(node, pi);
            let in_port = Port::from_index(pi);
            for (vi, invc) in input.vcs().enumerate() {
                let illegal = |detail: String| {
                    Some(SentinelViolation::IllegalVcState {
                        node,
                        port: in_port,
                        vc: crate::cast::vc_u8(vi),
                        detail,
                    })
                };
                if invc.len() > invc.capacity() {
                    return illegal(format!(
                        "input buffer holds {} flits, capacity {}",
                        invc.len(),
                        invc.capacity()
                    ));
                }
                match invc.route() {
                    RouteState::Idle => {
                        if !invc.is_empty() {
                            return illegal(format!(
                                "route state Idle with {} buffered flit(s) — orphaned flits \
                                 with no head packet",
                                invc.len()
                            ));
                        }
                    }
                    RouteState::Waiting => match invc.front() {
                        None => {
                            return illegal(
                                "route state Waiting with an empty buffer".to_string(),
                            )
                        }
                        Some(f) if !f.is_head() => {
                            return illegal(format!(
                                "route state Waiting but the front flit (packet {}, {:?}) \
                                 is not a head",
                                f.packet.0, f.kind
                            ))
                        }
                        Some(_) => {}
                    },
                    RouteState::Active {
                        packet,
                        out_port,
                        out_vc,
                    } => {
                        let ov = out_vc as usize;
                        if ov >= num_vcs {
                            return illegal(format!(
                                "grant to out VC {ov} beyond the configured {num_vcs} VCs"
                            ));
                        }
                        if let Some(f) = invc.front() {
                            if f.packet != packet {
                                return illegal(format!(
                                    "active on packet {} but the front flit belongs to \
                                     packet {}",
                                    packet.0, f.packet.0
                                ));
                            }
                        }
                        let out_state = soa.output(node, out_port.index()).vc(ov).state();
                        if out_state != OutVcState::Active(packet) {
                            return illegal(format!(
                                "holds a grant on {out_port}/vc{ov} for packet {} but that \
                                 VC is {:?}",
                                packet.0, out_state
                            ));
                        }
                        let slot = &mut holders[out_port.index() * num_vcs + ov];
                        if let Some((opi, ovi, opk)) = *slot {
                            return illegal(format!(
                                "output VC {out_port}/vc{ov} granted to two inputs at once: \
                                 {}/vc{} (packet {}) and {}/vc{} (packet {})",
                                Port::from_index(opi),
                                ovi,
                                opk.0,
                                in_port,
                                vi,
                                packet.0
                            ));
                        }
                        *slot = Some((pi, vi, packet));
                    }
                }
            }
        }
        // Output side, the source's injection channel included: credits
        // within capacity, busy VCs carry an owner (Algorithm 1's
        // register), a router's Active VCs held by exactly one input (an
        // injection VC is held by its source, not by an input VC).
        for pi in (0..PORT_COUNT).map(Some).chain([None]) {
            let (output, port, what) = match pi {
                Some(pi) => (soa.output(node, pi), Port::from_index(pi), "output"),
                None => (soa.injection(node), Port::Local, "injection"),
            };
            for (vi, ovc) in output.vcs().enumerate() {
                let illegal = |detail: String| {
                    Some(SentinelViolation::IllegalVcState {
                        node,
                        port,
                        vc: crate::cast::vc_u8(vi),
                        detail,
                    })
                };
                if ovc.credits() > ovc.capacity() {
                    return illegal(format!(
                        "{what} VC carries {} credits, capacity {}",
                        ovc.credits(),
                        ovc.capacity()
                    ));
                }
                if let Err(e) = invariant::audit_footprint_owner(
                    node,
                    port,
                    VcId(crate::cast::vc_u8(vi)),
                    ovc.state() == OutVcState::Idle,
                    ovc.owner(),
                ) {
                    return illegal(e.to_string());
                }
                if let (Some(pi), OutVcState::Active(pkt)) = (pi, ovc.state()) {
                    match holders[pi * num_vcs + vi] {
                        Some((_, _, held)) if held == pkt => {}
                        Some((_, _, held)) => {
                            return illegal(format!(
                                "output VC active on packet {} but its holder streams \
                                 packet {}",
                                pkt.0, held.0
                            ));
                        }
                        None => {
                            return illegal(format!(
                                "output VC active on packet {} with no holding input VC",
                                pkt.0
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// An RNG that returns a constant — used to evaluate both outcomes of the
/// routing function's tie-break coin deterministically.
struct ConstRng(u64);

impl RngCore for ConstRng {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Per-buffer state for the liveness fixpoint.
#[derive(Clone, Copy)]
enum BufState {
    /// Empty buffer: trivially live.
    Empty,
    /// Streaming through a granted output VC.
    Active { out_port: usize, out_vc: usize },
    /// Head waiting for a grant; requests live in `reqs[lo..hi]`.
    Waiting { lo: usize, hi: usize },
    /// Non-empty with no head and no grant (orphaned flits). Never live;
    /// the state-legality check reports it before the detector runs.
    Orphan,
}

/// Invariant 4: the protocol-deadlock detector.
///
/// Computes the least fixpoint of "this input-VC buffer can eventually
/// drain" over the wait-for structure of the network:
///
/// * an empty buffer is live;
/// * an `Active` buffer is live iff its downstream buffer is live (the
///   sink always drains, so ejection grants are always live);
/// * a `Waiting` head is live iff some alternative it requests — or any
///   adaptive VC at a requested port, since standing requests re-widen as
///   VC states change — can eventually accept it: an unallocated VC whose
///   downstream is live, or an allocated VC whose holder *and* downstream
///   are live.
///
/// Buffers left dead by the fixpoint can provably never move again.
/// Following dead dependencies from any dead buffer either reaches a head
/// with an empty request set ([`DeadlockFinding::DeadRoute`]) or closes a
/// wait-for cycle ([`DeadlockFinding::Cycle`]).
///
/// The analysis is *sound* (a finding is a true deadlock) but not complete
/// in one corner: liveness through an escape VC is only credited where the
/// routing function actually requests it, and port-wide widening skips the
/// escape VC on non-escape ports, so some exotic stuck states may go
/// unreported here — the stall watchdog still names them as stalls.
pub(crate) fn find_protocol_deadlock(net: &Network) -> Option<DeadlockFinding> {
    let mesh = net.topo();
    let num_vcs = net.config().num_vcs;
    let n = mesh.len();
    let total = n * PORT_COUNT * num_vcs;
    let buf = |node: NodeId, port: usize, vc: usize| (node.index() * PORT_COUNT + port) * num_vcs + vc;

    // Pass 1: classify buffers, collect request sets for waiting heads and
    // the holder of every granted output VC.
    let mut state = vec![BufState::Empty; total];
    let mut live = vec![false; total];
    let mut holders: Vec<Option<usize>> = vec![None; total];
    let mut members: Vec<Option<DeadlockMember>> = vec![None; total];
    let mut reqs: Vec<VcRequest> = Vec::new();
    let mut scratch: Vec<VcRequest> = Vec::new();
    let mut any_waiting_or_active = false;
    let algo = net.algorithm();
    let sideband = net.sideband();
    let fault_view = net.fault_view();
    let soa = net.datapath();
    for node in mesh.nodes() {
        for pi in 0..PORT_COUNT {
            let input = soa.input(node, pi);
            for (vi, invc) in input.vcs().enumerate() {
                let b = buf(node, pi, vi);
                let mut record = |packet: PacketId, dest: NodeId| {
                    members[b] = Some(DeadlockMember {
                        node,
                        in_port: Port::from_index(pi),
                        vc: crate::cast::vc_u8(vi),
                        packet,
                        dest,
                    });
                };
                state[b] = match invc.route() {
                    RouteState::Idle if invc.is_empty() => {
                        live[b] = true;
                        BufState::Empty
                    }
                    RouteState::Idle => {
                        let f = invc.front().expect("orphan buffers are non-empty");
                        record(f.packet, f.dest);
                        BufState::Orphan
                    }
                    RouteState::Active {
                        packet,
                        out_port,
                        out_vc,
                    } => {
                        any_waiting_or_active = true;
                        let ov = out_vc as usize;
                        if ov < num_vcs {
                            holders[buf(node, out_port.index(), ov)] = Some(b);
                        }
                        // The buffer may legally be empty mid-stream (flits
                        // in flight upstream); fall back to the granted
                        // VC's owner register for the destination.
                        let dest = invc
                            .front()
                            .map(|f| f.dest)
                            .or_else(|| {
                                if ov < num_vcs {
                                    soa.output(node, out_port.index()).vc(ov).owner()
                                } else {
                                    None
                                }
                            })
                            .unwrap_or(node);
                        record(packet, dest);
                        BufState::Active {
                            out_port: out_port.index(),
                            out_vc: ov,
                        }
                    }
                    RouteState::Waiting => {
                        any_waiting_or_active = true;
                        let f = invc.front().expect("waiting buffers hold a head");
                        record(f.packet, f.dest);
                        let lo = reqs.len();
                        // Union the request sets over both coin outcomes:
                        // the tie-break is the only RNG draw in route(), so
                        // two constant RNGs cover every reachable set.
                        for coin in [ConstRng(0), ConstRng(u64::MAX)] {
                            scratch.clear();
                            let mut rng = coin;
                            net.router(node).recompute_requests(
                                soa, algo, mesh, net.rules(), sideband, &fault_view, pi, vi,
                                &mut rng, &mut scratch,
                            );
                            for r in &scratch {
                                if !reqs[lo..].iter().any(|q| q.port == r.port && q.vc == r.vc)
                                {
                                    reqs.push(*r);
                                }
                            }
                        }
                        BufState::Waiting { lo, hi: reqs.len() }
                    }
                };
            }
        }
    }
    if !any_waiting_or_active {
        return None; // nothing is blocked anywhere
    }

    // The downstream buffer a grant on (node, out_port, out_vc) feeds:
    // `None` = the sink, which always drains.
    let downstream = |node: NodeId, out_port: usize, out_vc: usize| -> Option<usize> {
        match Port::from_index(out_port) {
            Port::Local => None,
            Port::Dir(d) => mesh
                .neighbor(node, d)
                .map(|nb| buf(nb, Port::Dir(d.opposite()).index(), out_vc)),
        }
    };
    let faults = net.fault_state();
    let adaptive_lo = net.rules().escape_lo;

    // Pass 2: least fixpoint of liveness.
    loop {
        let mut changed = false;
        for node in mesh.nodes() {
            // Can the alternative (out_port, out_vc) eventually accept a
            // new packet, given current liveness knowledge?
            let alt_live = |q: usize, w: usize, live: &[bool]| -> bool {
                if let Port::Dir(d) = Port::from_index(q) {
                    if !faults.link_up(node, d) {
                        return false;
                    }
                }
                let down_live = match downstream(node, q, w) {
                    None => true,
                    Some(db) => live[db],
                };
                if !down_live {
                    return false;
                }
                match soa.output(node, q).vc(w).state() {
                    OutVcState::Idle | OutVcState::Draining => true,
                    OutVcState::Active(_) => holders[buf(node, q, w)]
                        .map(|h| live[h])
                        .unwrap_or(false),
                }
            };
            for pi in 0..PORT_COUNT {
                for vi in 0..num_vcs {
                    let b = buf(node, pi, vi);
                    if live[b] {
                        continue;
                    }
                    let now_live = match state[b] {
                        BufState::Empty => true,
                        BufState::Orphan => false,
                        BufState::Active { out_port, out_vc } => {
                            match downstream(node, out_port, out_vc) {
                                None => true,
                                Some(db) => live[db],
                            }
                        }
                        BufState::Waiting { lo, hi } => {
                            let set = &reqs[lo..hi];
                            set.iter()
                                .any(|r| alt_live(r.port.index(), r.vc.index(), &live))
                                || set.iter().any(|r| {
                                    // Port-wide widening: standing requests
                                    // re-target any adaptive VC of a
                                    // requested port once it frees up.
                                    let q = r.port.index();
                                    (adaptive_lo..num_vcs).any(|w| alt_live(q, w, &live))
                                })
                        }
                    };
                    if now_live {
                        live[b] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: pick apart the dead set (if any).
    let first_dead = (0..total).find(|&b| !live[b] && !matches!(state[b], BufState::Empty))?;
    let member = |b: usize| -> DeadlockMember {
        members[b].expect("non-empty dead buffers were recorded during classification")
    };
    // The first dead dependency of a dead buffer: the thing it waits on.
    let succ = |b: usize| -> Option<usize> {
        let node = NodeId(crate::cast::idx_u16(b / (PORT_COUNT * num_vcs)));
        match state[b] {
            BufState::Empty | BufState::Orphan => None,
            BufState::Active { out_port, out_vc } => {
                downstream(node, out_port, out_vc).filter(|&db| !live[db])
            }
            BufState::Waiting { lo, hi } => {
                if lo == hi {
                    return None; // empty request set: a dead route
                }
                for r in &reqs[lo..hi] {
                    let (q, w) = (r.port.index(), r.vc.index());
                    if let Some(db) = downstream(node, q, w) {
                        if !live[db] {
                            return Some(db);
                        }
                    }
                    if let OutVcState::Active(_) = soa.output(node, q).vc(w).state() {
                        if let Some(h) = holders[buf(node, q, w)] {
                            if !live[h] {
                                return Some(h);
                            }
                        }
                    }
                }
                None
            }
        }
    };
    // Walk dead dependencies until the path closes a cycle or bottoms out
    // at a buffer with no dead successor (an unroutable or orphaned head).
    let mut path: Vec<usize> = vec![first_dead];
    loop {
        let cur = *path.last().expect("path is non-empty");
        match succ(cur) {
            None => {
                let m = member(cur);
                // Distinguish a head the fault mask stranded (no route to
                // its destination survives the mask — expected on faulted
                // runs) from a genuinely unroutable head, which is a
                // routing bug whether or not a fault is active.
                if faults.any_active() && !faults.deliverable(algo, m.node, m.dest) {
                    return Some(DeadlockFinding::FaultStranded(m));
                }
                return Some(DeadlockFinding::DeadRoute(m));
            }
            Some(next) => {
                if let Some(pos) = path.iter().position(|&b| b == next) {
                    return Some(DeadlockFinding::Cycle(
                        path[pos..].iter().map(|&b| member(b)).collect(),
                    ));
                }
                path.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::workload::{FlowSet, SingleFlow};
    use footprint_routing::RoutingSpec;

    /// A slab handle taken and never given back moves no flit, so the
    /// flit census still balances; the pool census catches it, under its
    /// own violation, in the audit right after the leak.
    #[test]
    fn leaked_slab_handle_trips_the_pool_census() {
        let mut net = Network::new(SimConfig::small(), RoutingSpec::Footprint.build(), 9).unwrap();
        let flow = |src, dest| SingleFlow {
            src: NodeId(src),
            dest: NodeId(dest),
            rate: 0.4,
            size: 3,
        };
        let mut wl = FlowSet::new(vec![flow(0, 15), flow(12, 3)]);
        let mut sentinel = Sentinel::with_intervals(1, 1);
        for _ in 0..60 {
            net.step_probed(&mut wl, &mut sentinel);
        }
        assert!(!sentinel.tripped(), "clean phase must stay clean");
        assert!(net.datapath().slab_len() > 0, "the slab must have been used");
        net.datapath_mut().leak_handle();
        let report = sentinel.audit(net.cycle(), &net).expect("the leak went unnoticed");
        let SentinelViolation::FlitPool { in_use, buffered } = report.violation else {
            panic!("expected a flit-pool violation, got: {}", report.violation);
        };
        assert_eq!(in_use, buffered + 1);
        assert!(report.violation.to_string().contains("flit pool out of balance"));
    }
}

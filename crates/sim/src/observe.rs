//! The observability layer: flit lifecycle events, a bounded event tracer
//! with JSONL/CSV export, a stall watchdog that turns a hung network into a
//! diagnostic bundle, and a probe fan-out combinator.
//!
//! Everything here rides on the [`Probe`] hook. The per-flit event sites in
//! the network are gated by [`Probe::wants_flit_events`], sampled once per
//! cycle, so a run without a subscriber pays nothing beyond a few virtual
//! no-op calls per cycle — the hot path stays within noise of the committed
//! perf baseline.
//!
//! ```
//! use footprint_sim::{EventTrace, Network, SimConfig, SingleFlow, FlowSet};
//! use footprint_routing::RoutingSpec;
//! use footprint_topology::NodeId;
//!
//! let mut net = Network::new(SimConfig::small(), RoutingSpec::Dor.build(), 1)?;
//! let mut wl = FlowSet::new(vec![SingleFlow {
//!     src: NodeId(0), dest: NodeId(3), rate: 1.0, size: 1,
//! }]);
//! let mut trace = EventTrace::with_capacity(256);
//! net.run_probed(&mut wl, 50, &mut trace);
//! assert!(trace.len() > 0);
//! # Ok::<(), footprint_sim::ConfigError>(())
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

use crate::metrics::{EjectedPacket, Probe, VaBlockInfo};
use crate::network::Network;
use crate::packet::PacketId;
use footprint_topology::{NodeId, Port};

/// What happened to a flit (or head packet) at an event site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitEventKind {
    /// A flit left its source onto the injection channel.
    Inject,
    /// A waiting head packet was granted an output VC (the outcome of
    /// route computation + VC allocation).
    VcGrant,
    /// A flit won switch allocation and traversed to an output stage.
    SaGrant,
    /// A flit was consumed by the destination sink.
    Eject,
    /// A head packet requested VCs and got none — carries the §4.3
    /// blocking-purity inputs. Emitted by the tracer from the
    /// [`Probe::va_blocked`] hook (not gated by `wants_flit_events`).
    VaBlock,
}

impl FlitEventKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FlitEventKind::Inject => "inject",
            FlitEventKind::VcGrant => "vc_grant",
            FlitEventKind::SaGrant => "sa_grant",
            FlitEventKind::Eject => "eject",
            FlitEventKind::VaBlock => "va_block",
        }
    }
}

/// One flit lifecycle event, delivered through [`Probe::flit_event`].
///
/// The cycle number is not part of the event: subscribers receive
/// [`Probe::cycle_start`] and track it themselves (the network fires it
/// before any event of the cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitEvent {
    /// Event kind.
    pub kind: FlitEventKind,
    /// Node where the event occurred.
    pub node: NodeId,
    /// Packet involved.
    pub packet: PacketId,
    /// The packet's source endpoint.
    pub src: NodeId,
    /// The packet's destination endpoint.
    pub dest: NodeId,
    /// Traffic class.
    pub class: u8,
    /// Output port involved (`Local` for inject/eject).
    pub port: Port,
    /// VC involved (granted VC for `VcGrant`, carrying VC otherwise).
    pub vc: u8,
    /// `true` when the flit is a head (or single-flit) flit.
    pub head: bool,
}

/// One record of the bounded event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// Event kind.
    pub kind: FlitEventKind,
    /// Node where the event occurred.
    pub node: NodeId,
    /// Packet involved.
    pub packet: PacketId,
    /// The packet's source endpoint.
    pub src: NodeId,
    /// The packet's destination endpoint.
    pub dest: NodeId,
    /// Traffic class.
    pub class: u8,
    /// Output port involved.
    pub port: Port,
    /// VC involved.
    pub vc: u8,
    /// Busy VCs owned by the packet's destination (`VaBlock` only).
    pub footprint_vcs: u32,
    /// All busy VCs at the requested ports (`VaBlock` only).
    pub busy_vcs: u32,
}

/// A bounded flit/packet event tracer.
///
/// Keeps the most recent `capacity` events in a ring buffer (the tail of a
/// run is what matters when diagnosing a stall) and counts what it had to
/// drop. Export the buffer as JSON lines ([`EventTrace::write_jsonl`]) or
/// CSV ([`EventTrace::write_csv`]).
#[derive(Debug)]
pub struct EventTrace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    cycle: u64,
}

impl EventTrace {
    /// A tracer retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        EventTrace {
            records: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            cycle: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Events discarded because the buffer was full (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    fn record(&mut self, rec: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    /// Writes the buffer as JSON lines (one object per event).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for r in &self.records {
            writeln!(
                w,
                "{{\"cycle\":{},\"kind\":\"{}\",\"node\":{},\"packet\":{},\
                 \"src\":{},\"dest\":{},\"class\":{},\"port\":{},\"vc\":{},\
                 \"footprint_vcs\":{},\"busy_vcs\":{}}}",
                r.cycle,
                r.kind.label(),
                r.node.index(),
                r.packet.0,
                r.src.index(),
                r.dest.index(),
                r.class,
                r.port.index(),
                r.vc,
                r.footprint_vcs,
                r.busy_vcs,
            )?;
        }
        Ok(())
    }

    /// Writes the buffer as CSV with a header row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "cycle,kind,node,packet,src,dest,class,port,vc,footprint_vcs,busy_vcs"
        )?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{},{}",
                r.cycle,
                r.kind.label(),
                r.node.index(),
                r.packet.0,
                r.src.index(),
                r.dest.index(),
                r.class,
                r.port.index(),
                r.vc,
                r.footprint_vcs,
                r.busy_vcs,
            )?;
        }
        Ok(())
    }

    /// Writes the JSONL export to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_jsonl(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut f)?;
        f.flush()
    }
}

impl Probe for EventTrace {
    fn cycle_start(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn wants_flit_events(&self) -> bool {
        true
    }

    fn flit_event(&mut self, ev: &FlitEvent) {
        self.record(TraceRecord {
            cycle: self.cycle,
            kind: ev.kind,
            node: ev.node,
            packet: ev.packet,
            src: ev.src,
            dest: ev.dest,
            class: ev.class,
            port: ev.port,
            vc: ev.vc,
            footprint_vcs: 0,
            busy_vcs: 0,
        });
    }

    fn va_blocked(&mut self, info: &VaBlockInfo) {
        self.record(TraceRecord {
            cycle: self.cycle,
            kind: FlitEventKind::VaBlock,
            node: info.node,
            packet: info.packet,
            src: info.node,
            dest: info.dest,
            class: info.class,
            port: Port::Local,
            vc: 0,
            footprint_vcs: info.footprint_vcs,
            busy_vcs: info.busy_vcs,
        });
    }
}

/// A packet the watchdog saw enter the network and not (yet) leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightPacket {
    /// Packet id.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// Traffic class.
    pub class: u8,
    /// Cycle the head flit was injected.
    pub injected: u64,
}

/// Detects global forward-progress loss: no flit moved anywhere (inject,
/// switch traversal or eject) for `threshold` consecutive cycles while
/// packets were in flight.
///
/// The watchdog is a [`Probe`]: attach it with
/// [`Network::run_watched`](crate::Network::run_watched), which checks it
/// every cycle and returns a [`StallDiagnostic`] bundle instead of spinning
/// forever — the debugging artifact a broken routing function or
/// flow-control bug should produce, rather than a hung multi-hour sweep.
#[derive(Debug)]
pub struct StallWatchdog {
    threshold: u64,
    cycle: u64,
    last_progress: u64,
    progressed: bool,
    in_flight: Vec<InFlightPacket>,
    stalled_at: Option<u64>,
}

impl StallWatchdog {
    /// A watchdog that trips after `threshold` cycles without any flit
    /// movement while packets are in flight.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "watchdog threshold must be positive");
        StallWatchdog {
            threshold,
            cycle: 0,
            last_progress: 0,
            progressed: false,
            in_flight: Vec::new(),
            stalled_at: None,
        }
    }

    /// The configured no-progress threshold in cycles.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// `true` once the watchdog has tripped.
    pub fn stalled(&self) -> bool {
        self.stalled_at.is_some()
    }

    /// Packets currently in flight (injected, not yet fully ejected), in
    /// injection order — the front entries are the oldest.
    pub fn in_flight(&self) -> &[InFlightPacket] {
        &self.in_flight
    }

    /// Builds the full diagnostic bundle for the current network state:
    /// occupancy map, per-router VC dumps of the congested routers, and the
    /// oldest in-flight packets.
    pub fn diagnose(&self, net: &Network) -> StallDiagnostic {
        const MAX_ROUTERS: usize = 8;
        const MAX_PACKETS: usize = 16;
        let snapshot = net.occupancy_snapshot();
        let mut congested: Vec<NodeId> = Vec::new();
        for e in &snapshot {
            if !congested.contains(&e.node) {
                congested.push(e.node);
            }
        }
        congested.truncate(MAX_ROUTERS);
        StallDiagnostic {
            cycle: net.cycle(),
            threshold: self.threshold,
            last_progress: self.last_progress,
            in_flight: self.in_flight.len(),
            source_backlog: net.source_backlog(),
            occupancy_map: net.occupancy_map(),
            router_dumps: congested.iter().map(|&n| net.dump_router(n)).collect(),
            oldest_packets: self
                .in_flight
                .iter()
                .take(MAX_PACKETS)
                .copied()
                .collect(),
            // The sentinel's wait-for analysis settles the first question a
            // stall raises: protocol deadlock, or congestion/livelock?
            deadlock: crate::sentinel::find_protocol_deadlock(net),
        }
    }
}

impl Probe for StallWatchdog {
    fn cycle_start(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.progressed = false;
    }

    fn wants_flit_events(&self) -> bool {
        true
    }

    fn flit_event(&mut self, ev: &FlitEvent) {
        self.progressed = true;
        if ev.kind == FlitEventKind::Inject && ev.head {
            self.in_flight.push(InFlightPacket {
                id: ev.packet,
                src: ev.src,
                dest: ev.dest,
                class: ev.class,
                injected: self.cycle,
            });
        }
    }

    fn packet_ejected(&mut self, packet: &EjectedPacket) {
        if let Some(pos) = self.in_flight.iter().position(|p| p.id == packet.id) {
            self.in_flight.remove(pos);
        }
    }

    fn cycle_end(&mut self, cycle: u64) {
        if self.progressed || self.in_flight.is_empty() {
            self.last_progress = cycle;
        } else if cycle - self.last_progress >= self.threshold && self.stalled_at.is_none() {
            self.stalled_at = Some(cycle);
        }
    }
}

/// Everything known about a detected stall: where flits sit, which routers
/// hold them, and which packets have been waiting longest. Rendered through
/// `Display` as the human-readable bundle.
#[derive(Debug, Clone)]
pub struct StallDiagnostic {
    /// Cycle the stall was detected.
    pub cycle: u64,
    /// The watchdog threshold that tripped.
    pub threshold: u64,
    /// Last cycle any flit moved.
    pub last_progress: u64,
    /// Packets in flight at detection time.
    pub in_flight: usize,
    /// Packets still queued at sources.
    pub source_backlog: usize,
    /// ASCII occupancy map of the mesh (from `Network::occupancy_map`).
    pub occupancy_map: String,
    /// Full VC-state dumps of the routers holding flits (capped).
    pub router_dumps: Vec<String>,
    /// The oldest in-flight packets (capped), injection order.
    pub oldest_packets: Vec<InFlightPacket>,
    /// The sentinel's wait-for-graph verdict: `Some` when a true protocol
    /// deadlock (or unroutable head) underlies the stall, `None` when no
    /// wait-for cycle exists and the stall is livelock or congestion.
    pub deadlock: Option<crate::sentinel::DeadlockFinding>,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "STALL: no flit moved for {} cycles (detected at cycle {}, last progress at {})",
            self.cycle - self.last_progress,
            self.cycle,
            self.last_progress
        )?;
        writeln!(
            f,
            "{} packet(s) in flight, {} queued at sources; watchdog threshold {} cycles",
            self.in_flight, self.source_backlog, self.threshold
        )?;
        match &self.deadlock {
            Some(finding) => writeln!(f, "verdict: protocol deadlock cycle found — {finding}")?,
            None => writeln!(
                f,
                "verdict: no wait-for cycle: livelock or congestion (all blocked flits \
                 still have a live path forward)"
            )?,
        }
        writeln!(f, "\noccupancy map:\n{}", self.occupancy_map)?;
        if !self.oldest_packets.is_empty() {
            writeln!(f, "oldest in-flight packets:")?;
            for p in &self.oldest_packets {
                writeln!(
                    f,
                    "  packet {} {} -> {} (class {}), injected at cycle {}",
                    p.id.0, p.src, p.dest, p.class, p.injected
                )?;
            }
        }
        for dump in &self.router_dumps {
            writeln!(f, "\n{dump}")?;
        }
        Ok(())
    }
}

impl std::error::Error for StallDiagnostic {}

/// Fans events out to two probes — compose subscribers without boxing:
/// `ProbePair::new(&mut watchdog, &mut trace)`.
pub struct ProbePair<'a> {
    a: &'a mut dyn Probe,
    b: &'a mut dyn Probe,
}

impl<'a> ProbePair<'a> {
    /// Combines two probes; both receive every event.
    pub fn new(a: &'a mut dyn Probe, b: &'a mut dyn Probe) -> Self {
        ProbePair { a, b }
    }
}

impl Probe for ProbePair<'_> {
    fn cycle_start(&mut self, cycle: u64) {
        self.a.cycle_start(cycle);
        self.b.cycle_start(cycle);
    }

    fn packet_ejected(&mut self, packet: &EjectedPacket) {
        self.a.packet_ejected(packet);
        self.b.packet_ejected(packet);
    }

    fn packet_generated(&mut self, node: NodeId, packet: &crate::packet::NewPacket, cycle: u64) {
        self.a.packet_generated(node, packet, cycle);
        self.b.packet_generated(node, packet, cycle);
    }

    fn va_blocked(&mut self, info: &VaBlockInfo) {
        self.a.va_blocked(info);
        self.b.va_blocked(info);
    }

    fn wants_flit_events(&self) -> bool {
        self.a.wants_flit_events() || self.b.wants_flit_events()
    }

    fn wants_flit_events_of(&self, kind: FlitEventKind) -> bool {
        self.a.wants_flit_events_of(kind) || self.b.wants_flit_events_of(kind)
    }

    fn wants_full_tick(&self, cycle: u64) -> bool {
        self.a.wants_full_tick(cycle) || self.b.wants_full_tick(cycle)
    }

    fn flit_event(&mut self, event: &FlitEvent) {
        self.a.flit_event(event);
        self.b.flit_event(event);
    }

    fn sample(&mut self, cycle: u64, net: &Network) {
        self.a.sample(cycle, net);
        self.b.sample(cycle, net);
    }

    fn cycle_end(&mut self, cycle: u64) {
        self.a.cycle_end(cycle);
        self.b.cycle_end(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FlowSet, SingleFlow};
    use crate::{Network, SimConfig};
    use footprint_routing::RoutingSpec;

    fn flow_net() -> (Network, FlowSet) {
        let net = Network::new(SimConfig::small(), RoutingSpec::Footprint.build(), 5).unwrap();
        let wl = FlowSet::new(vec![SingleFlow {
            src: NodeId(0),
            dest: NodeId(15),
            rate: 0.8,
            size: 2,
        }]);
        (net, wl)
    }

    #[test]
    fn trace_records_full_flit_lifecycle() {
        let (mut net, mut wl) = flow_net();
        let mut trace = EventTrace::with_capacity(4096);
        net.run_probed(&mut wl, 120, &mut trace);
        let kinds: Vec<FlitEventKind> = trace.records().map(|r| r.kind).collect();
        for kind in [
            FlitEventKind::Inject,
            FlitEventKind::VcGrant,
            FlitEventKind::SaGrant,
            FlitEventKind::Eject,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} events");
        }
        // Cycles are recorded and non-decreasing.
        let cycles: Vec<u64> = trace.records().map(|r| r.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn trace_is_bounded_and_keeps_the_tail() {
        let (mut net, mut wl) = flow_net();
        let mut trace = EventTrace::with_capacity(16);
        net.run_probed(&mut wl, 200, &mut trace);
        assert_eq!(trace.len(), 16);
        assert!(trace.dropped() > 0);
        // The retained events are the most recent ones.
        let first_kept = trace.records().next().unwrap().cycle;
        assert!(first_kept > 0);
    }

    #[test]
    fn trace_exports_jsonl_and_csv() {
        let (mut net, mut wl) = flow_net();
        let mut trace = EventTrace::with_capacity(64);
        net.run_probed(&mut wl, 60, &mut trace);
        let mut jsonl = Vec::new();
        trace.write_jsonl(&mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), trace.len());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"cycle\":")));
        assert!(jsonl.contains("\"kind\":\"inject\""));
        let mut csv = Vec::new();
        trace.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("cycle,kind,node,"));
        assert_eq!(csv.lines().count(), trace.len() + 1);
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_traffic() {
        let (mut net, mut wl) = flow_net();
        let mut dog = StallWatchdog::new(50);
        assert!(net.run_watched(&mut wl, 400, &mut crate::NullProbe, &mut dog).is_ok());
        assert!(!dog.stalled());
    }

    #[test]
    fn watchdog_tracks_in_flight_packets() {
        let (mut net, mut wl) = flow_net();
        let mut dog = StallWatchdog::new(1_000);
        net.run_probed(&mut wl, 50, &mut dog);
        let mut none = crate::NoTraffic;
        net.run_probed(&mut none, 200, &mut dog);
        assert!(net.is_quiescent());
        assert!(dog.in_flight().is_empty(), "drained network has no in-flight packets");
    }

    #[test]
    fn probe_pair_fans_out() {
        let (mut net, mut wl) = flow_net();
        let mut t1 = EventTrace::with_capacity(1024);
        let mut t2 = EventTrace::with_capacity(1024);
        {
            let mut pair = ProbePair::new(&mut t1, &mut t2);
            net.run_probed(&mut wl, 40, &mut pair);
        }
        assert!(!t1.is_empty());
        assert_eq!(t1.len(), t2.len());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_trace_panics() {
        let _ = EventTrace::with_capacity(0);
    }
}

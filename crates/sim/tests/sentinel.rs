//! Integration tests for the invariant sentinel: a clean run stays quiet,
//! a broken routing function trips the wait-for-graph detector, and
//! deliberate state corruption is caught at the exact cycle it happens.

use footprint_routing::{
    Priority, RoutingAlgorithm, RoutingCtx, RoutingSpec, VcId, VcReallocationPolicy, VcRequest,
};
use footprint_sim::{
    DeadlockFinding, FlowSet, Network, OutVcState, Sentinel, SentinelViolation, SimConfig,
    SingleFlow, StallWatchdog,
};
use footprint_topology::{NodeId, Port, TopologySpec, DIRECTIONS, PORT_COUNT};
use rand::RngCore;

/// A deliberately broken algorithm (the same as in
/// `tests/observability.rs`): injection works, but `route` never emits a
/// request, so every head waits forever at its first router with an empty
/// request set.
struct BlackHole;

impl RoutingAlgorithm for BlackHole {
    fn name(&self) -> &'static str {
        "blackhole"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::Atomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn route(&self, _ctx: &RoutingCtx<'_>, _rng: &mut dyn RngCore, _out: &mut Vec<VcRequest>) {}
}

/// A clockwise unidirectional ring over the 2×2 mesh (0 → 1 → 3 → 2 → 0)
/// with a single VC and no escape channel: the textbook cyclic-dependency
/// deadlock that VC ordering exists to prevent.
struct BadRing;

impl BadRing {
    fn next(node: NodeId) -> NodeId {
        match node.0 {
            0 => NodeId(1),
            1 => NodeId(3),
            3 => NodeId(2),
            2 => NodeId(0),
            n => panic!("BadRing is a 2x2 fixture, got node {n}"),
        }
    }
}

impl RoutingAlgorithm for BadRing {
    fn name(&self) -> &'static str {
        "bad-ring"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::NonAtomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn route(&self, ctx: &RoutingCtx<'_>, _rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        if ctx.current == ctx.dest {
            for v in 0..ctx.num_vcs {
                out.push(VcRequest::new(Port::Local, VcId::from_index(v), Priority::High));
            }
            return;
        }
        let next = Self::next(ctx.current);
        let dir = DIRECTIONS
            .into_iter()
            .find(|&d| ctx.topo.neighbor(ctx.current, d) == Some(next))
            .expect("ring successor is a mesh neighbor");
        for v in 0..ctx.num_vcs {
            out.push(VcRequest::new(Port::Dir(dir), VcId::from_index(v), Priority::Low));
        }
    }
}

fn small_footprint_net(seed: u64) -> Network {
    let algo = RoutingSpec::Footprint.build();
    Network::new(SimConfig::small(), algo, seed).expect("valid config")
}

fn crossing_flows(rate: f64, size: u16) -> FlowSet {
    FlowSet::new(vec![
        SingleFlow {
            src: NodeId(0),
            dest: NodeId(15),
            rate,
            size,
        },
        SingleFlow {
            src: NodeId(5),
            dest: NodeId(10),
            rate,
            size,
        },
        SingleFlow {
            src: NodeId(12),
            dest: NodeId(3),
            rate,
            size,
        },
    ])
}

/// A healthy footprint run, audited every cycle, reports nothing.
#[test]
fn clean_run_reports_no_violation() {
    let mut net = small_footprint_net(0xC1EA);
    let mut wl = crossing_flows(0.3, 4);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    for _ in 0..600 {
        net.step_probed(&mut wl, &mut sentinel);
        assert!(
            !sentinel.tripped(),
            "spurious violation at cycle {}: {}",
            net.cycle(),
            sentinel.report().unwrap()
        );
    }
    assert!(sentinel.injected() > 0, "workload never injected");
}

/// The BlackHole router yields a `DeadRoute` finding — an input VC whose
/// request set is empty — at the first audit after the head goes waiting,
/// and the report pins the first failing cycle.
#[test]
fn black_hole_router_trips_dead_route() {
    let algo: Box<dyn RoutingAlgorithm> = Box::new(BlackHole);
    let mut net = Network::new(SimConfig::small(), algo, 7).expect("valid config");
    let mut wl = FlowSet::new(vec![SingleFlow {
        src: NodeId(0),
        dest: NodeId(15),
        rate: 1.0,
        size: 1,
    }]);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    let mut tripped_after = None;
    for _ in 0..100 {
        net.step_probed(&mut wl, &mut sentinel);
        if sentinel.tripped() {
            tripped_after = Some(net.cycle());
            break;
        }
    }
    let tripped_after = tripped_after.expect("sentinel never tripped on BlackHole");
    let report = sentinel.report().expect("tripped implies report");
    // The sample for cycle N runs before the cycle counter advances to N+1,
    // so the first failing cycle is exactly the step that tripped.
    assert_eq!(report.cycle, tripped_after - 1, "first-failure cycle");
    assert!(
        tripped_after < 20,
        "detection should follow the first stuck head within a few cycles, took {tripped_after}"
    );
    match &report.violation {
        SentinelViolation::ProtocolDeadlock(DeadlockFinding::DeadRoute(m)) => {
            assert_eq!(m.node, NodeId(0), "head is stuck at its first router");
            assert_eq!(m.dest, NodeId(15));
        }
        other => panic!("expected a dead-route finding, got: {other}"),
    }
    let rendered = report.to_string();
    assert!(rendered.contains("dead route"), "{rendered}");
    assert!(!report.excerpt.is_empty(), "excerpt should dump state");
}

/// Four packets chasing each other around a one-VC ring produce a true
/// wait-for cycle; both the sentinel and the stall watchdog report it.
#[test]
fn ring_deadlock_trips_wait_for_cycle() {
    let cfg = SimConfig {
        topology: TopologySpec::mesh(2),
        num_vcs: 1,
        vc_buffer_depth: 2,
        speedup: 2,
        link_latency: 1,
    };
    let algo: Box<dyn RoutingAlgorithm> = Box::new(BadRing);
    let mut net = Network::new(cfg, algo, 3).expect("valid config");
    let mut wl = FlowSet::new(vec![
        SingleFlow {
            src: NodeId(0),
            dest: NodeId(3),
            rate: 1.0,
            size: 8,
        },
        SingleFlow {
            src: NodeId(1),
            dest: NodeId(2),
            rate: 1.0,
            size: 8,
        },
        SingleFlow {
            src: NodeId(3),
            dest: NodeId(0),
            rate: 1.0,
            size: 8,
        },
        SingleFlow {
            src: NodeId(2),
            dest: NodeId(1),
            rate: 1.0,
            size: 8,
        },
    ]);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    for _ in 0..4000 {
        net.step_probed(&mut wl, &mut sentinel);
        if sentinel.tripped() {
            break;
        }
    }
    let report = sentinel.report().expect("ring never deadlocked");
    let members = match &report.violation {
        SentinelViolation::ProtocolDeadlock(DeadlockFinding::Cycle(members)) => members,
        other => panic!("expected a wait-for cycle, got: {other}"),
    };
    assert!(
        members.len() >= 2,
        "a cycle involves at least two waiters, got {}",
        members.len()
    );
    // Once deadlocked, the watchdog's diagnosis agrees with the sentinel.
    let diag = StallWatchdog::new(16).diagnose(&net);
    let rendered = diag.to_string();
    assert!(
        rendered.contains("protocol deadlock cycle found"),
        "{rendered}"
    );
}

/// A congested-but-live network gets the livelock/congestion verdict, not
/// a deadlock verdict.
#[test]
fn live_network_diagnosis_reports_no_cycle() {
    let mut net = small_footprint_net(11);
    let mut wl = crossing_flows(0.8, 4);
    net.run(&mut wl, 300);
    let diag = StallWatchdog::new(16).diagnose(&net);
    let rendered = diag.to_string();
    assert!(rendered.contains("no wait-for cycle"), "{rendered}");
}

/// Stealing one credit from an active output VC breaks per-channel credit
/// conservation at exactly the corrupted cycle.
#[test]
fn stolen_credit_is_caught_at_the_corrupted_cycle() {
    let mut net = small_footprint_net(42);
    let mut wl = crossing_flows(0.4, 4);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    let num_vcs = net.config().num_vcs;
    let nodes: Vec<NodeId> = net.topo().nodes().collect();
    let mut target = None;
    for _ in 0..500 {
        net.step_probed(&mut wl, &mut sentinel);
        assert!(!sentinel.tripped(), "clean phase must stay clean");
        'scan: for &node in &nodes {
            let soa = net.datapath();
            for p in 0..PORT_COUNT {
                for v in 0..num_vcs {
                    let vc = soa.output(node, p).vc(v);
                    if matches!(vc.state(), OutVcState::Active(_)) && vc.credits() > 0 {
                        target = Some((node, p, v));
                        break 'scan;
                    }
                }
            }
        }
        if target.is_some() {
            break;
        }
    }
    let (node, p, v) = target.expect("traffic never activated an output VC");
    let ivc = net.datapath().ivc(node, p, v);
    net.datapath_mut().out_consume_credit(ivc);
    let corrupted_at = net.cycle();
    net.step_probed(&mut wl, &mut sentinel);
    let report = sentinel.report().expect("stolen credit went unnoticed");
    assert_eq!(report.cycle, corrupted_at, "first-failure cycle");
    match &report.violation {
        SentinelViolation::CreditConservation { node: n, .. } => assert_eq!(*n, node),
        other => panic!("expected a credit-conservation violation, got: {other}"),
    }
}

/// A counterfeit flit materialising in an input buffer breaks global flit
/// conservation (resident flits exceed injected minus ejected).
#[test]
fn counterfeit_flit_breaks_flit_conservation() {
    use footprint_sim::{Flit, FlitKind, PacketId};
    let mut net = small_footprint_net(9);
    let mut wl = crossing_flows(0.3, 2);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    for _ in 0..50 {
        net.step_probed(&mut wl, &mut sentinel);
    }
    assert!(!sentinel.tripped(), "clean phase must stay clean");
    // Find an empty input VC anywhere and conjure a flit into it.
    let num_vcs = net.config().num_vcs;
    let nodes: Vec<NodeId> = net.topo().nodes().collect();
    let mut slot = None;
    'scan: for &node in &nodes {
        let soa = net.datapath();
        for p in 0..PORT_COUNT {
            for v in 0..num_vcs {
                if soa.input(node, p).vc(v).is_empty() {
                    slot = Some((node, p, v));
                    break 'scan;
                }
            }
        }
    }
    let (node, p, v) = slot.expect("no empty input VC in a lightly loaded mesh");
    let ivc = net.datapath().ivc(node, p, v);
    net.datapath_mut().in_push(ivc, Flit {
        packet: PacketId(999_999),
        kind: FlitKind::Single,
        src: NodeId(0),
        dest: NodeId(15),
        seq: 0,
        size: 1,
        birth: 0,
        class: 0,
        vc: footprint_routing::VcId::from_index(v).0,
    });
    let corrupted_at = net.cycle();
    net.step_probed(&mut wl, &mut sentinel);
    let report = sentinel.report().expect("counterfeit flit went unnoticed");
    assert_eq!(report.cycle, corrupted_at, "first-failure cycle");
    assert!(
        matches!(report.violation, SentinelViolation::FlitConservation { .. }),
        "expected a flit-conservation violation, got: {}",
        report.violation
    );
}

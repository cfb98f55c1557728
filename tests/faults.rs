//! Integration tests for the fault-injection subsystem: graceful
//! degradation of the adaptive algorithms, typed unreachability for DOR,
//! and the guarantee that even a partitioning fault plan never hangs or
//! panics the stack. Faulted runs' scheduler and thread bit-identity is
//! the differential oracle's (`tests/differential.rs`).

use footprint_suite::prelude::*;
use footprint_suite::sim::{FlowSet, Network, SimConfig, SingleFlow, StallWatchdog};
use footprint_suite::topology::AnyTopology;
use proptest::prelude::*;

/// An 8×8 run whose whole lifetime is the measurement window, drained to
/// quiescence — the configuration under which `generated = delivered +
/// dropped` must hold exactly.
fn accounted(spec: RoutingSpec) -> SimulationBuilder {
    SimulationBuilder::paper_default()
        .routing(spec)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.08)
        .warmup(0)
        .measurement(1_200)
        .drain(3_000)
        .seed(0xFA17)
}

/// One link fault on the 8×8 mesh: the duplex link n9↔n10 (row 1).
fn single_link_fault() -> FaultPlan {
    FaultPlan::new().with(FaultEvent::link_down(NodeId(9), Direction::East, 0))
}

#[test]
fn adaptive_algorithms_deliver_every_deliverable_packet_around_a_fault() {
    for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar, RoutingSpec::OddEven] {
        let report = accounted(spec)
            .run_with(
                RunOptions::new()
                    .faults(single_link_fault())
                    .watchdog(20_000),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        let f = &report.faults;
        assert!(
            f.fully_accounted(),
            "{}: generated {} != delivered {} + dropped {}",
            spec.name(),
            f.generated(),
            f.delivered(),
            f.dropped()
        );
        assert!(report.latency.ejected_packets > 500, "{}", spec.name());
        // The only losses are the provably unreachable pairs (same-row
        // pairs crossing the cut); everything else routed around, so
        // drops are a small fraction of the traffic.
        assert!(
            (f.dropped() as f64) < 0.1 * f.generated() as f64,
            "{}: dropped {} of {}",
            spec.name(),
            f.dropped(),
            f.generated()
        );
        // Soundness: every reported pair is genuinely unreachable under
        // the algorithm's own routing DAG with the link removed — no
        // packet was dropped that the algorithm could have delivered.
        let state = footprint_suite::sim::FaultState::new(AnyTopology::mesh(8, 8), single_link_fault());
        let algo = spec.build();
        for &(src, dest) in &f.unreachable_pairs {
            assert!(
                !state.deliverable(&*algo, src, dest),
                "{}: {src}→{dest} was deliverable but dropped",
                spec.name()
            );
        }
    }
}

#[test]
fn dor_reports_unreachable_pairs_as_a_typed_error() {
    let err = accounted(RoutingSpec::Dor)
        .run_with(
            RunOptions::new()
                .faults(single_link_fault())
                .on_unreachable(UnreachablePolicy::Error)
                .watchdog(20_000),
        )
        .unwrap_err();
    match err {
        RunError::Unreachable(stats) => {
            assert!(!stats.unreachable_pairs.is_empty());
            // XY routing loses every pair that needs the dead hop on its
            // X leg — strictly more than the same-row pairs an adaptive
            // algorithm loses. All of them start left of the cut in row 1
            // or target columns beyond it from row-1 sources.
            assert!(stats.unreachable_pairs.iter().any(|&(s, d)| s.0 / 8 != d.0 / 8));
            assert!(stats.dropped() > 0);
        }
        other => panic!("expected RunError::Unreachable, got {other}"),
    }
}

#[test]
fn partitioning_fault_plan_never_hangs_or_panics() {
    // Cutting every East link out of column 1 splits the 4×4 mesh in two.
    // Onset at cycle 150 — mid-run, with packets in flight across the cut,
    // the worst case for wedged wormholes. The contract: the run either
    // completes with the losses accounted, trips the watchdog with a
    // well-formed diagnostic, or reports typed unreachability — never a
    // panic, never a hang.
    let mut plan = FaultPlan::new();
    for row in 0..4u16 {
        plan.push(FaultEvent::link_down(NodeId(row * 4 + 1), Direction::East, 150));
    }
    for spec in [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
    ] {
        let result = SimulationBuilder::mesh(4)
            .vcs(4)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.2)
            .warmup(0)
            .measurement(800)
            .drain(800)
            .seed(9)
            .run_with(RunOptions::new().faults(plan.clone()).watchdog(300));
        match result {
            Ok(report) => {
                assert!(
                    !report.faults.unreachable_pairs.is_empty(),
                    "{}: a partition must make pairs unreachable",
                    spec.name()
                );
            }
            Err(RunError::Stalled(diag)) => {
                // Wedged in-flight wormholes are legitimate — but the
                // diagnostic must be well-formed.
                assert!(diag.in_flight > 0, "{}", spec.name());
                assert!(diag.to_string().starts_with("STALL"), "{}", spec.name());
            }
            Err(other) => panic!("{}: unexpected error {other}", spec.name()),
        }
    }
    // The case with one right answer: a saturating single flow crosses
    // n5→n6 and the link dies at cycle 60 with flits in flight. DOR has no
    // detour, so the wormhole wedges and only the watchdog can turn the
    // freeze into a diagnostic.
    let cut = FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 60));
    let mut net = Network::with_faults(
        SimConfig::small(),
        RoutingSpec::Dor.build(),
        7,
        cut,
        UnreachablePolicy::Drop,
    )
    .unwrap();
    let mut flow = FlowSet::new(vec![SingleFlow {
        src: NodeId(4),
        dest: NodeId(7),
        rate: 1.0,
        size: 8,
    }]);
    let diag = net
        .run_watched(&mut flow, 5_000, &mut NullProbe, &mut StallWatchdog::new(150))
        .expect_err("a mid-stream cut must wedge the DOR wormhole");
    assert!(diag.in_flight > 0);
    assert!(diag.to_string().starts_with("STALL"));
}

#[test]
fn fully_partitioned_ring_completes_with_a_partition_report() {
    // Cutting the wraparound edge 15↔0 and the grid edge 7↔8 splits a
    // 16-ring into {0..=7} and {8..=15}. The wrap cut severs deterministic
    // escape routes, so the run is refused with the typed verdict unless
    // the caller opts into degraded-escape mode — and in that mode it
    // completes without tripping the watchdog, with a partition history
    // covering every node.
    let plan = FaultPlan::new()
        .with(FaultEvent::link_down(NodeId(15), Direction::East, 0))
        .with(FaultEvent::link_down(NodeId(7), Direction::East, 0));
    let build = || {
        SimulationBuilder::ring(16)
            .vcs(4)
            .routing(RoutingSpec::Footprint)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.1)
            .warmup(0)
            .measurement(600)
            .drain(1_500)
            .seed(21)
    };
    // Without the opt-in: refused up front, before any cycle simulates.
    let err = build()
        .run_with(RunOptions::new().faults(plan.clone()).watchdog(20_000))
        .unwrap_err();
    match err {
        RunError::EscapeCompromised {
            severed,
            masked_wrap_channels,
        } => {
            assert!(!severed.is_empty());
            assert_eq!(masked_wrap_channels, 2, "both directions of 15↔0");
        }
        other => panic!("expected EscapeCompromised, got {other}"),
    }
    // Degraded mode: the partitioned run completes gracefully.
    let report = build()
        .run_with(
            RunOptions::new()
                .faults(plan)
                .degraded_escape(true)
                .watchdog(20_000),
        )
        .expect("partitioned ring run must complete in degraded mode");
    assert!(report.partitions.was_partitioned());
    assert_eq!(report.partitions.final_components(), 2);
    assert!(report.partitions.covers_all_nodes(16));
    assert!(report.faults.fully_accounted());
    assert!(report.faults.dropped() > 0, "cross-partition pairs drop");
    assert!(report.latency.ejected_packets > 0, "same-side pairs deliver");
}

#[test]
fn dateline_cut_on_a_torus_yields_a_typed_verdict() {
    // A dateline-biased plan on a 4×4 torus: every cut targets a
    // wraparound edge. The wrap-safety gate rebuilds the escape CDG under
    // the mask and refuses the run with the typed verdict for every
    // escape-classed algorithm; the turn-model algorithms route on the
    // acyclic subgraph and are admitted (their deadlock argument never
    // used the wrap channels).
    let plan = FaultPlan::random_link_faults_biased(AnyTopology::torus(4, 4), 2, 0, 0xDA7E).unwrap();
    for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar, RoutingSpec::Dor] {
        let result = SimulationBuilder::torus(4)
            .vcs(6)
            .routing(spec)
            .warmup(0)
            .measurement(300)
            .seed(4)
            .run_with(RunOptions::new().faults(plan.clone()).watchdog(20_000));
        match result {
            Err(RunError::EscapeCompromised {
                severed,
                masked_wrap_channels,
            }) => {
                assert!(!severed.is_empty(), "{}", spec.name());
                assert!(masked_wrap_channels > 0, "{}", spec.name());
            }
            Ok(_) => panic!(
                "{}: a dateline cut must not be admitted silently",
                spec.name()
            ),
            Err(other) => panic!("{}: unexpected error {other}", spec.name()),
        }
    }
    // Odd-Even never routes on wrap channels: the same plan is admitted.
    let report = SimulationBuilder::torus(4)
        .vcs(6)
        .routing(RoutingSpec::OddEven)
        .warmup(0)
        .measurement(300)
        .drain(1_000)
        .seed(4)
        .run_with(RunOptions::new().faults(plan).watchdog(20_000))
        .expect("acyclic-subgraph routing is unaffected by dateline cuts");
    assert!(report.faults.fully_accounted());
}

#[test]
fn repaired_outage_reports_recovery_stats() {
    // A mid-run outage with a scheduled repair: the report carries a
    // completed time-to-recover record and an availability timeline that
    // dips during the outage and recovers after the repair.
    let plan = FaultPlan::new()
        .with(FaultEvent::link_down(NodeId(9), Direction::East, 300).repaired_at(900));
    let report = accounted(RoutingSpec::Footprint)
        .run_with(
            RunOptions::new()
                .faults(plan)
                .on_unreachable(UnreachablePolicy::Retry {
                    max_attempts: 50,
                    backoff: 64,
                })
                .watchdog(20_000),
        )
        .unwrap();
    assert!(report.faults.fully_accounted());
    assert_eq!(report.recovery.ttr.len(), 1, "{:?}", report.recovery.ttr);
    assert_eq!(report.recovery.ttr[0].repair_cycle, 900);
    assert!(report.recovery.pending_repair.is_none());
    assert!(!report.recovery.windows.is_empty());
    // Everything offered was eventually delivered (drained run, repairs
    // re-admit the backlog), so the availability books close.
    let (offered, delivered) = report.recovery.totals();
    assert_eq!(offered, delivered);
    // A single mesh link cut never partitions: one epoch, one component.
    assert!(!report.partitions.was_partitioned());
    assert!(report.partitions.covers_all_nodes(64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single-link fault plan, any algorithm: short faulted runs never
    /// panic and never hang (the watchdog bounds them).
    #[test]
    fn random_single_fault_plans_never_panic(
        node in 0u16..16,
        dir_ix in 0usize..4,
        onset in 0u64..200,
        algo_ix in 0usize..4,
    ) {
        let dir = [Direction::East, Direction::West, Direction::North, Direction::South][dir_ix];
        let spec = [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
        ][algo_ix];
        let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(node), dir, onset));
        let result = SimulationBuilder::mesh(4)
            .vcs(4)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.15)
            .warmup(0)
            .measurement(250)
            .seed(u64::from(node) ^ (onset << 8))
            .run_with(RunOptions::new().faults(plan).watchdog(400));
        match result {
            Ok(_) | Err(RunError::Stalled(_)) => {}
            // A link target off the mesh edge is rejected up front.
            Err(RunError::Config(ConfigError::Fault(_))) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Arbitrary biased fault plans on the wrapping fabrics, audited by
    /// the sentinel: every run either completes fully accounted, stalls
    /// inside the watchdog bound, or is refused with the typed
    /// escape verdict — never a panic, never a hang.
    #[test]
    fn random_fault_plans_on_wrapping_fabrics_are_audited_and_bounded(
        topo_ix in 0usize..2,
        wrap_cuts in 0usize..3,
        grid_cuts in 0usize..3,
        algo_ix in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let spec = [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
        ][algo_ix];
        let (plan, nodes, build): (_, usize, fn() -> SimulationBuilder) = if topo_ix == 0 {
            (
                FaultPlan::random_link_faults_biased(AnyTopology::torus(4, 4), wrap_cuts, grid_cuts, seed),
                16,
                || SimulationBuilder::torus(4).vcs(6),
            )
        } else {
            (
                FaultPlan::random_link_faults_biased(AnyTopology::ring(8), wrap_cuts, grid_cuts, seed),
                8,
                || SimulationBuilder::ring(8).vcs(4),
            )
        };
        let plan = plan.expect("wrapping fabrics always have wrap edges");
        let result = build()
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.1)
            .warmup(0)
            .measurement(250)
            .drain(600)
            .seed(seed ^ 0x5EED)
            .run_with(RunOptions::new().faults(plan).sentinel(true).watchdog(2_000));
        match result {
            Ok(report) => {
                prop_assert!(report.faults.fully_accounted());
                prop_assert!(report.partitions.covers_all_nodes(nodes));
            }
            Err(RunError::Stalled(_)) => {}
            Err(RunError::EscapeCompromised { severed, .. }) => {
                prop_assert!(!severed.is_empty());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

//! Integration tests for the observability layer: probes must be pure
//! observers (bit-identical results with or without them), the event
//! trace must capture the full flit lifecycle end to end, and the stall
//! watchdog must turn a hung network into a diagnostic bundle.

use footprint_suite::prelude::*;
use footprint_suite::sim::StallWatchdog;
use footprint_suite::routing::{RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcRequest};
use footprint_suite::sim::{
    EventTrace, FlitEventKind, FlowSet, Network, Sentinel, SimConfig, SingleFlow,
};
use footprint_suite::stats::TimelineProbe;
use rand::RngCore;

fn quick() -> SimulationBuilder {
    SimulationBuilder::mesh(4)
        .vcs(4)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.2)
        .warmup(200)
        .measurement(600)
        .seed(0x0B5E)
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    // The whole observability stack attached vs. nothing attached: the
    // reported metrics must be bit-identical (probes are pure observers).
    let plain = quick().run_with(RunOptions::new()).unwrap();
    let mut timeline = TimelineProbe::new(25).with_router_rows();
    let probed = quick().run_with(RunOptions::new().probe(&mut timeline)).unwrap();
    assert_eq!(plain, probed);
    let mut trace = EventTrace::with_capacity(1 << 16);
    let traced = quick().run_with(RunOptions::new().probe(&mut trace)).unwrap();
    assert_eq!(plain, traced);
    let watched = quick().run_with(RunOptions::new().probe(&mut NullProbe).watchdog(10_000)).unwrap();
    assert_eq!(plain, watched);
}

#[test]
fn event_trace_captures_the_full_flit_lifecycle() {
    let mut trace = EventTrace::with_capacity(1 << 16);
    let report = quick().run_with(RunOptions::new().probe(&mut trace)).unwrap();
    assert!(report.latency.ejected_packets > 0);
    assert_eq!(trace.dropped(), 0, "trace capacity too small for the run");
    for kind in [
        FlitEventKind::Inject,
        FlitEventKind::VcGrant,
        FlitEventKind::SaGrant,
        FlitEventKind::Eject,
    ] {
        assert!(
            trace.records().any(|r| r.kind == kind),
            "no {kind:?} events recorded"
        );
    }
    // Every ejected packet's lifecycle is ordered: inject <= grant <= eject.
    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert_eq!(jsonl.lines().count(), trace.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"cycle\":")));
}

#[test]
fn timelines_track_the_measurement_window() {
    let mut timeline = TimelineProbe::new(50).with_router_rows();
    quick().run_with(RunOptions::new().probe(&mut timeline)).unwrap();
    // Probes attach at the warmup boundary (cycle 200) and sample every
    // 50 cycles of the 600-cycle measurement window.
    assert_eq!(timeline.mesh_samples().len(), 12);
    assert!(timeline.mesh_samples().iter().all(|s| s.cycle >= 200));
    assert!(
        timeline.mesh_samples().iter().skip(1).any(|s| s.link_flits > 0),
        "links must carry traffic at 0.2 flits/node/cycle"
    );
}

/// A routing function that never routes: heads freeze at their first
/// router, which is exactly the failure mode the watchdog exists for.
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

#[test]
fn watchdog_turns_a_hung_network_into_a_diagnostic_bundle() {
    let mut net = Network::new(SimConfig::small(), Box::new(BlackHole), 7).unwrap();
    let mut wl = FlowSet::new(vec![SingleFlow {
        src: NodeId(0),
        dest: NodeId(5),
        rate: 1.0,
        size: 1,
    }]);
    let mut watchdog = StallWatchdog::new(50);
    let diag = net
        .run_watched(&mut wl, 10_000, &mut NullProbe, &mut watchdog)
        .unwrap_err();
    // The run aborted at the trip point instead of spinning to the limit.
    assert!(net.cycle() < 200, "aborted at cycle {}", net.cycle());
    assert!(diag.in_flight > 0);
    assert!(!diag.router_dumps.is_empty());
    let text = diag.to_string();
    assert!(text.starts_with("STALL: no flit moved for"));
    assert!(text.contains("occupancy map:"));
    assert!(text.contains("oldest in-flight packets:"));
    assert!(text.contains("router n0"));
    // The same hang under the sentinel: its report converts into the typed
    // run error and keeps the `SENTINEL` rendering.
    let mut net = Network::new(SimConfig::small(), Box::new(BlackHole), 7).unwrap();
    let mut sentinel = Sentinel::with_intervals(1, 1);
    while !sentinel.tripped() && net.cycle() < 100 {
        net.step_probed(&mut wl, &mut sentinel);
    }
    let err = RunError::from(sentinel.take_report().expect("the sentinel must trip"));
    assert!(matches!(err, RunError::InvariantViolated(_)), "{err}");
    assert!(err.to_string().starts_with("SENTINEL"), "{err}");
}

#[test]
fn healthy_traffic_never_trips_the_builder_watchdog() {
    match quick().run_with(RunOptions::new().probe(&mut NullProbe).watchdog(200)) {
        Ok(report) => assert!(report.latency.ejected_packets > 0),
        Err(e) => panic!("unexpected failure: {e}"),
    }
}

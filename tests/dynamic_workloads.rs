//! Integration tests for the dynamic-workload layer: modulated and
//! multi-tenant runs through the public builder API, pinned to exact
//! accounting and typed errors. Scheduler and thread bit-identity of
//! these runs is the differential oracle's (`tests/differential.rs`).

use footprint_suite::prelude::*;

fn base() -> SimulationBuilder {
    SimulationBuilder::mesh(4)
        .vcs(4)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .seed(0xD1_5EED)
}

fn two_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("web", TrafficSpec::UniformRandom, 0.2).modulation(ModulationSpec::OnOff {
            on: DurationDist::Geometric { mean: 40.0 },
            off: DurationDist::Geometric { mean: 40.0 },
        }),
        TenantSpec::new("batch", TrafficSpec::Transpose, 0.1),
    ]
}

/// Whole-run measurement plus a drain closes the per-tenant books
/// exactly, and the latency quantiles are ordered.
#[test]
fn drained_tenant_books_close_exactly() {
    let report = base()
        .tenants(two_tenants())
        .warmup(0)
        .measurement(1_000)
        .drain(4_000)
        .run_with(RunOptions::new().watchdog(20_000))
        .expect("valid configuration");
    for name in ["web", "batch"] {
        let t = report.tenant(name).expect("tenant in report");
        assert!(t.offered_packets > 0, "{name}: no traffic");
        assert!(
            t.fully_accounted() && t.in_flight() == 0,
            "{name}: offered {} != delivered {} + in-flight {} + dropped {}",
            t.offered_packets,
            t.delivered_packets,
            t.in_flight(),
            t.dropped_packets
        );
        let (p50, p99) = (t.p50_latency.unwrap(), t.p99_latency.unwrap());
        assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");
        assert!(t.mean_latency > 0.0);
    }
    // Unknown tenants stay unknown.
    assert!(report.tenant("nosuch").is_none());
}

/// A 50%-duty gate at rate `r` must offer ≈ `r/2` — modulation thins
/// the offered load, it does not reshape packets into fewer, larger
/// bursts of the same mass.
#[test]
fn half_duty_offers_half_the_load() {
    let run = |m: ModulationSpec| {
        base()
            .injection_rate(0.2)
            .modulation(m)
            .warmup(200)
            .measurement(4_000)
            .run_with(RunOptions::new().watchdog(20_000))
            .expect("valid configuration")
    };
    let steady = run(ModulationSpec::Steady);
    let bursty = run(ModulationSpec::OnOff {
        on: DurationDist::Fixed(64),
        off: DurationDist::Fixed(64),
    });
    let ratio = bursty.latency.generated_packets as f64 / steady.latency.generated_packets as f64;
    assert!(
        (ratio - 0.5).abs() < 0.08,
        "50% duty offered {ratio:.3}x the steady load"
    );
}

/// Bad dynamic-workload configurations surface as typed configuration
/// errors at run time, not panics or silent clamps.
#[test]
fn invalid_dynamic_configs_are_typed_errors() {
    let cases: Vec<SimulationBuilder> = vec![
        // A zero-length on-phase can never fire.
        base().injection_rate(0.1).modulation(ModulationSpec::OnOff {
            on: DurationDist::Fixed(0),
            off: DurationDist::Fixed(10),
        }),
        // Tenant rates over the per-node injection budget.
        base().tenants(vec![
            TenantSpec::new("a", TrafficSpec::UniformRandom, 0.7),
            TenantSpec::new("b", TrafficSpec::Transpose, 0.6),
        ]),
        // A negative tenant rate.
        base().tenants(vec![TenantSpec::new("a", TrafficSpec::UniformRandom, -0.1)]),
    ];
    for b in cases {
        match b.warmup(10).measurement(20).run_with(RunOptions::new()) {
            Err(RunError::Config(e)) => {
                assert!(e.to_string().contains("workload"), "unexpected error: {e}");
            }
            other => panic!("expected a typed config error, got {other:?}"),
        }
    }
}

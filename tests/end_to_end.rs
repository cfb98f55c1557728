//! End-to-end integration tests: every routing algorithm delivers every
//! workload loss-free, deterministically, on multiple mesh sizes.

use footprint_suite::prelude::*;

const ALL_ALGOS: [RoutingSpec; 8] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
    RoutingSpec::DbarXordet,
    RoutingSpec::OddEvenXordet,
    RoutingSpec::DorXordet,
    RoutingSpec::RandomMinimal,
];

fn quick(k: u16) -> SimulationBuilder {
    SimulationBuilder::mesh(k)
        .vcs(4)
        .warmup(200)
        .measurement(600)
        .drain(800)
        .seed(0xE2E)
}

#[test]
fn every_algorithm_delivers_uniform_traffic_loss_free() {
    for spec in ALL_ALGOS {
        let r = quick(4)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.15)
            .run_with(RunOptions::new())
            .unwrap();
        assert!(
            r.latency.ejected_packets >= r.latency.generated_packets,
            "{}: {} generated vs {} ejected",
            spec.name(),
            r.latency.generated_packets,
            r.latency.ejected_packets
        );
        assert!(r.latency.generated_packets > 100, "{}", spec.name());
    }
}

#[test]
fn every_algorithm_handles_every_pattern() {
    let patterns = [
        TrafficSpec::UniformRandom,
        TrafficSpec::Transpose,
        TrafficSpec::Shuffle,
        TrafficSpec::BitComplement,
        TrafficSpec::BitReverse,
        TrafficSpec::Tornado,
    ];
    for spec in ALL_ALGOS {
        for traffic in patterns {
            let r = quick(4)
                .routing(spec)
                .traffic(traffic)
                .injection_rate(0.1)
                .run_with(RunOptions::new())
                .unwrap();
            assert!(
                r.latency.ejected_packets > 0,
                "{} x {}: nothing delivered",
                spec.name(),
                traffic
            );
            assert!(
                r.delivery_ratio() > 0.95,
                "{} x {}: delivery ratio {}",
                spec.name(),
                traffic,
                r.delivery_ratio()
            );
        }
    }
}

#[test]
fn extended_reference_algorithms_deliver() {
    // The reference extras beyond the paper's Table 2 set.
    for spec in [
        RoutingSpec::WestFirst,
        RoutingSpec::NorthLast,
        RoutingSpec::DorVoqSw,
        RoutingSpec::DbarVoqSw,
        RoutingSpec::OddEvenFootprint,
    ] {
        for traffic in [TrafficSpec::UniformRandom, TrafficSpec::Transpose] {
            let r = quick(4)
                .routing(spec)
                .traffic(traffic)
                .injection_rate(0.12)
                .run_with(RunOptions::new())
                .unwrap();
            assert!(
                r.delivery_ratio() > 0.95,
                "{} x {}: delivery {}",
                spec.name(),
                traffic,
                r.delivery_ratio()
            );
        }
    }
}

#[test]
fn turn_models_have_expected_asymmetry() {
    // West-first is deterministic westbound, adaptive eastbound — tornado
    // (all-eastward on rows) should route fine; a west-heavy permutation
    // degrades to DOR-like behavior but still delivers.
    let east = quick(4)
        .routing(RoutingSpec::WestFirst)
        .traffic(TrafficSpec::Tornado)
        .injection_rate(0.2)
        .run_with(RunOptions::new())
        .unwrap();
    assert!(east.delivery_ratio() > 0.95);
}

#[test]
fn runs_are_deterministic_per_seed() {
    for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar, RoutingSpec::OddEven] {
        let mk = || {
            quick(4)
                .routing(spec)
                .traffic(TrafficSpec::Shuffle)
                .injection_rate(0.3)
                .run_with(RunOptions::new())
                .unwrap()
        };
        assert_eq!(mk(), mk(), "{} not deterministic", spec.name());
    }
}

#[test]
fn different_seeds_differ() {
    let a = quick(4)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.2)
        .seed(1)
        .run_with(RunOptions::new())
        .unwrap();
    let b = quick(4)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.2)
        .seed(2)
        .run_with(RunOptions::new())
        .unwrap();
    assert_ne!(a, b);
}

#[test]
fn multi_flit_packets_deliver_on_all_algorithms() {
    for spec in ALL_ALGOS {
        let r = quick(4)
            .routing(spec)
            .traffic(TrafficSpec::UniformRandom)
            .packet_size(PacketSize::PAPER_VARIABLE)
            .injection_rate(0.2)
            .run_with(RunOptions::new())
            .unwrap();
        assert!(
            r.delivery_ratio() > 0.95,
            "{}: ratio {}",
            spec.name(),
            r.delivery_ratio()
        );
        // Mean flits per packet ≈ 3.5.
        let fpp = r.latency.ejected_flits as f64 / r.latency.ejected_packets as f64;
        assert!((2.5..=4.5).contains(&fpp), "{}: {fpp} flits/packet", spec.name());
    }
}

#[test]
fn larger_meshes_work() {
    for k in [2u16, 3, 8] {
        let r = quick(k)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.1)
            .run_with(RunOptions::new())
            .unwrap();
        assert!(r.latency.ejected_packets > 0, "{k}x{k}");
        assert_eq!(r.nodes, (k as usize).pow(2));
    }
}

#[test]
fn rectangular_mesh_works() {
    let r = SimulationBuilder::paper_default()
        .topology(TopologySpec::Mesh { width: 8, height: 2 })
        .vcs(4)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.1)
        .warmup(200)
        .measurement(400)
        .drain(400)
        .seed(5)
        .run_with(RunOptions::new())
        .unwrap();
    assert!(r.delivery_ratio() > 0.95);
}

#[test]
fn latency_grows_with_load() {
    let low = quick(4)
        .traffic(TrafficSpec::Transpose)
        .injection_rate(0.05)
        .run_with(RunOptions::new())
        .unwrap();
    let high = quick(4)
        .traffic(TrafficSpec::Transpose)
        .injection_rate(0.35)
        .run_with(RunOptions::new())
        .unwrap();
    assert!(
        high.latency.mean_latency > low.latency.mean_latency,
        "{} !> {}",
        high.latency.mean_latency,
        low.latency.mean_latency
    );
}

#[test]
fn zero_load_latency_close_to_hop_count() {
    // A single source-destination pair at trivial load: latency should be
    // within a small factor of the hop count (pipelined router, ~4
    // cycles/hop + injection/ejection).
    let r = quick(4)
        .traffic(TrafficSpec::Figure2)
        .injection_rate(0.02)
        .run_with(RunOptions::new())
        .unwrap();
    assert!(
        r.latency.mean_latency < 40.0,
        "zero-load latency {} too high",
        r.latency.mean_latency
    );
    assert!(r.latency.mean_latency > 5.0);
}

//! Deadlock-freedom stress tests (§3.4).
//!
//! Deadlock cannot be proven by simulation, but these tests drive every
//! algorithm far past saturation with adversarial patterns and verify the
//! two observable consequences of deadlock freedom:
//!
//! 1. **Forward progress**: the network keeps ejecting flits in every
//!    window even when totally saturated.
//! 2. **Drainability**: once injection stops, the network empties
//!    completely — no cyclically-blocked flits remain.

use footprint_suite::prelude::*;
use footprint_suite::sim::NoTraffic;

const DUATO_ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::DbarXordet,
    RoutingSpec::RandomMinimal,
];

const NON_ESCAPE_ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
    RoutingSpec::OddEvenXordet,
    RoutingSpec::DorXordet,
];

fn stress(spec: RoutingSpec, traffic: TrafficSpec, vcs: usize, rate: f64, seed: u64) {
    let (mut net, mut wl) = SimulationBuilder::mesh(4)
        .vcs(vcs)
        .routing(spec)
        .traffic(traffic)
        .injection_rate(rate)
        .seed(seed)
        .build()
        .unwrap();
    // Saturate.
    net.run(&mut *wl, 800);
    // Forward progress under saturation: every window ejects something.
    for window in 0..6 {
        let before = net.metrics().total().ejected_flits;
        net.run(&mut *wl, 250);
        let after = net.metrics().total().ejected_flits;
        assert!(
            after > before,
            "{} x {} (V={vcs}, rate {rate}): no ejections in window {window}",
            spec.name(),
            traffic,
        );
    }
    // Drainability.
    let mut idle = NoTraffic;
    for _ in 0..40 {
        net.run(&mut idle, 250);
        if net.is_quiescent() {
            break;
        }
    }
    assert!(
        net.is_quiescent(),
        "{} x {} (V={vcs}, rate {rate}): network failed to drain",
        spec.name(),
        traffic,
    );
}

#[test]
fn duato_algorithms_survive_saturated_transpose() {
    for spec in DUATO_ALGOS {
        stress(spec, TrafficSpec::Transpose, 4, 0.9, 0xD1);
    }
}

#[test]
fn duato_algorithms_survive_saturated_shuffle() {
    for spec in DUATO_ALGOS {
        stress(spec, TrafficSpec::Shuffle, 4, 0.9, 0xD2);
    }
}

#[test]
fn turn_model_algorithms_survive_saturated_transpose() {
    for spec in NON_ESCAPE_ALGOS {
        stress(spec, TrafficSpec::Transpose, 4, 0.9, 0xD3);
    }
}

#[test]
fn turn_model_algorithms_survive_saturated_tornado() {
    for spec in NON_ESCAPE_ALGOS {
        stress(spec, TrafficSpec::Tornado, 4, 0.9, 0xD4);
    }
}

#[test]
fn minimum_vc_configurations_are_live() {
    // Duato-based algorithms need exactly 2 VCs (escape + 1 adaptive);
    // turn-model algorithms work with a single VC.
    for spec in DUATO_ALGOS {
        stress(spec, TrafficSpec::Transpose, 2, 0.8, 0xD5);
    }
    for spec in NON_ESCAPE_ALGOS {
        stress(spec, TrafficSpec::Transpose, 1, 0.8, 0xD6);
    }
}

#[test]
fn footprint_survives_oversubscribed_hotspots() {
    // Dedicated endpoint-congestion stress: the footprint chains of §3.4
    // must terminate at the endpoint and never block indefinitely.
    let (mut net, mut wl) = SimulationBuilder::mesh(4)
        .vcs(4)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::Figure2) // includes 2 flows into n13
        .injection_rate(1.0)
        .seed(0xD7)
        .build()
        .unwrap();
    net.run(&mut *wl, 2_000);
    let before = net.metrics().total().ejected_flits;
    net.run(&mut *wl, 500);
    assert!(net.metrics().total().ejected_flits > before);
    let mut idle = NoTraffic;
    for _ in 0..60 {
        net.run(&mut idle, 250);
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "footprint chains failed to drain");
}

#[test]
fn footprint_join_extension_is_also_live() {
    use footprint_suite::routing::{AnyRouting, Tiers};
    use footprint_suite::sim::{Network, SimConfig};
    use footprint_suite::traffic::{PacketSize, Pattern, SyntheticWorkload, FIGURE2};

    let mut cfg = SimConfig::small();
    cfg.num_vcs = 4;
    let mut net = Network::new(cfg, Box::new(AnyRouting::footprint(Tiers::new().with_join())), 0xD8).unwrap();
    let mut wl =
        SyntheticWorkload::new(cfg.topo(), Pattern::Flows(FIGURE2), PacketSize::SINGLE, 1.0)
            .unwrap();
    net.run(&mut wl, 2_000);
    let before = net.metrics().total().ejected_flits;
    net.run(&mut wl, 500);
    assert!(net.metrics().total().ejected_flits > before, "join variant stalled");
    let mut idle = NoTraffic;
    for _ in 0..60 {
        net.run(&mut idle, 250);
        if net.is_quiescent() {
            break;
        }
    }
    assert!(net.is_quiescent(), "join variant failed to drain");
}

#[test]
fn structural_deadlock_freedom_is_proven_not_just_stressed() {
    // The CDG checker proves the acyclicity half of §3.4's argument for
    // every shipped algorithm on meshes up to 6x6.
    use footprint_suite::routing::cdg::{check_deadlock_freedom, DeadlockVerdict};
    use footprint_suite::topology::AnyTopology;
    for k in [3u16, 4, 6] {
        let mesh = AnyTopology::mesh(k, k);
        for spec in [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
            RoutingSpec::WestFirst,
            RoutingSpec::NorthLast,
            RoutingSpec::DorXordet,
            RoutingSpec::DbarXordet,
        ] {
            let verdict = check_deadlock_freedom(mesh, &*spec.build());
            assert!(
                matches!(
                    verdict,
                    DeadlockVerdict::AcyclicCdg | DeadlockVerdict::EscapeNetworkAcyclic
                ),
                "{} on {mesh}: {verdict:?}",
                spec.name()
            );
        }
    }
}

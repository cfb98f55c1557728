//! Property-based integration tests: flow conservation, latency sanity and
//! drainability over randomized workloads and configurations (determinism
//! is the differential oracle's, `tests/differential.rs`).

use footprint_suite::prelude::*;
use footprint_suite::sim::{FlowSet, Network, NoTraffic, SimConfig, SingleFlow};
use footprint_suite::topology::AnyTopology;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = RoutingSpec> {
    prop_oneof![
        Just(RoutingSpec::Footprint),
        Just(RoutingSpec::Dbar),
        Just(RoutingSpec::OddEven),
        Just(RoutingSpec::Dor),
        Just(RoutingSpec::DorXordet),
        Just(RoutingSpec::DbarXordet),
    ]
}

fn arb_flows(nodes: u16, max_flows: usize) -> impl Strategy<Value = Vec<SingleFlow>> {
    prop::collection::vec(
        (0..nodes, 0..nodes, 0.05f64..0.5, 1u16..4),
        1..=max_flows,
    )
    .prop_map(|v| {
        // Respect the FlowSet contract: flows sharing a source may not
        // offer more than 1.0 flit/cycle in aggregate. Drop any flow that
        // would push its source over budget (keeps the generator simple
        // and the surviving set always valid — the first flow per source,
        // at rate < 0.5, always survives).
        let mut budget = std::collections::HashMap::new();
        v.into_iter()
            .filter(|(s, d, _, _)| s != d)
            .filter_map(|(s, d, rate, size)| {
                let used = budget.entry(s).or_insert(0.0);
                if *used + rate > 1.0 {
                    return None;
                }
                *used += rate;
                Some(SingleFlow {
                    src: NodeId(s),
                    dest: NodeId(d),
                    rate,
                    size,
                })
            })
            .collect()
    })
}

fn cfg(k: u16, vcs: usize) -> SimConfig {
    SimConfig {
        topology: TopologySpec::mesh(k),
        num_vcs: vcs,
        vc_buffer_depth: 4,
        speedup: 2,
        link_latency: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flow conservation: whatever is generated is eventually ejected, once,
    /// with the right flit count, for arbitrary flow sets and algorithms.
    #[test]
    fn conservation_of_packets(
        spec in arb_spec(),
        flows in arb_flows(16, 6),
        seed in 0u64..1000,
    ) {
        prop_assume!(!flows.is_empty());
        let mut net = Network::new(cfg(4, 4), spec.build(), seed).unwrap();
        let mut wl = FlowSet::new(flows);
        net.run(&mut wl, 400);
        let mut idle = NoTraffic;
        for _ in 0..60 {
            net.run(&mut idle, 200);
            if net.is_quiescent() {
                break;
            }
        }
        prop_assert!(net.is_quiescent(), "{}: failed to drain", spec.name());
        let m = net.metrics().total();
        prop_assert_eq!(m.generated_packets, m.ejected_packets);
        prop_assert_eq!(m.generated_flits, m.ejected_flits);
    }

    /// Latency sanity: every delivered packet's latency is at least its
    /// minimal hop count (it can't teleport).
    #[test]
    fn latency_at_least_distance(
        spec in arb_spec(),
        src in 0u16..16,
        dest in 0u16..16,
        seed in 0u64..100,
    ) {
        prop_assume!(src != dest);
        let mesh = AnyTopology::mesh(4, 4);
        let mut net = Network::new(cfg(4, 4), spec.build(), seed).unwrap();
        let mut wl = FlowSet::new(vec![SingleFlow {
            src: NodeId(src),
            dest: NodeId(dest),
            rate: 0.2,
            size: 1,
        }]);
        net.run(&mut wl, 300);
        let mut idle = NoTraffic;
        net.run(&mut idle, 400);
        let m = net.metrics().total();
        prop_assume!(m.ejected_packets > 0);
        let min_lat = m.latency_sum as f64 / m.ejected_packets as f64;
        prop_assert!(
            min_lat >= mesh.hops(NodeId(src), NodeId(dest)) as f64,
            "{}: mean latency {} below hop count",
            spec.name(),
            min_lat
        );
    }

    /// Occupancy snapshots never contain empty entries or foreign flits.
    #[test]
    fn snapshot_consistency(
        spec in arb_spec(),
        flows in arb_flows(16, 5),
        seed in 0u64..100,
    ) {
        prop_assume!(!flows.is_empty());
        let mut net = Network::new(cfg(4, 4), spec.build(), seed).unwrap();
        let mut wl = FlowSet::new(flows.clone());
        net.run(&mut wl, 250);
        let valid_dests: std::collections::HashSet<_> =
            flows.iter().map(|f| f.dest).collect();
        for entry in net.occupancy_snapshot() {
            prop_assert!(!entry.dests.is_empty());
            for d in &entry.dests {
                prop_assert!(valid_dests.contains(d), "unknown destination {d}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Duato-based algorithms drain even at the 2-VC floor.
    #[test]
    fn minimum_vcs_drain(flows in arb_flows(16, 4), seed in 0u64..50) {
        prop_assume!(!flows.is_empty());
        for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar] {
            let mut net = Network::new(cfg(4, 2), spec.build(), seed).unwrap();
            let mut wl = FlowSet::new(flows.clone());
            net.run(&mut wl, 300);
            let mut idle = NoTraffic;
            for _ in 0..80 {
                net.run(&mut idle, 200);
                if net.is_quiescent() {
                    break;
                }
            }
            prop_assert!(net.is_quiescent(), "{} stuck at 2 VCs", spec.name());
        }
    }
}

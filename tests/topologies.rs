//! Topology-generalisation acceptance tests (0.8.0).
//!
//! Mesh, torus and ring are one grid value, and all three ride the same
//! datapath. These tests pin the structural properties
//! every fabric must satisfy (neighbor symmetry, hop-metric sanity, escape
//! CDG acyclicity) and then drive the paper's four algorithms end-to-end on
//! the new fabrics under the runtime sentinel — the same acceptance bar the
//! mesh clears in `deadlock_freedom.rs`.

use footprint_suite::prelude::*;
use footprint_suite::routing::cdg::ChannelDependencyGraph;
use footprint_suite::topology::{AnyTopology, DIRECTIONS};
use proptest::prelude::*;

/// Any fabric small enough for exhaustive node×node iteration in a test.
fn arb_topo() -> impl Strategy<Value = AnyTopology> {
    prop_oneof![
        (2u16..=6, 2u16..=6).prop_map(|(w, h)| AnyTopology::mesh(w, h)),
        (3u16..=6, 3u16..=6).prop_map(|(w, h)| AnyTopology::torus(w, h)),
        (3u16..=16).prop_map(AnyTopology::ring),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Links are bidirectional on every fabric: if `d` leads from `n` to
    /// `m`, then `d.opposite()` leads from `m` back to `n`.
    #[test]
    fn neighbor_symmetry(topo in arb_topo()) {
        for n in topo.nodes() {
            for d in DIRECTIONS {
                if let Some(m) = topo.neighbor(n, d) {
                    prop_assert_eq!(
                        topo.neighbor(m, d.opposite()),
                        Some(n),
                        "{topo}: {n} --{d:?}--> {m} has no reverse link"
                    );
                }
            }
        }
    }

    /// The hop count is a metric: zero on the diagonal, symmetric, and
    /// obeying the triangle inequality through every relay node.
    #[test]
    fn hops_is_a_metric(topo in arb_topo(), seed in 0u64..1000) {
        // Exhaustive pairs are O(n²); sample the relay to keep n³ in check.
        let n = topo.len() as u64;
        let relay = NodeId((seed % n) as u16);
        for a in topo.nodes() {
            prop_assert_eq!(topo.hops(a, a), 0);
            for b in topo.nodes() {
                let ab = topo.hops(a, b);
                prop_assert_eq!(ab, topo.hops(b, a), "{topo}: asymmetric {a}->{b}");
                prop_assert!(
                    ab <= topo.hops(a, relay) + topo.hops(relay, b),
                    "{topo}: {a}->{b} violates triangle via {relay}"
                );
                if a != b {
                    prop_assert!(ab > 0, "{topo}: distinct {a},{b} at distance 0");
                }
            }
        }
    }

    /// Every minimal direction actually makes progress: stepping along it
    /// decreases the hop count by exactly one.
    #[test]
    fn minimal_dirs_descend_hops(topo in arb_topo()) {
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a == b {
                    continue;
                }
                let dirs = topo.minimal_dirs(a, b);
                let mut productive = 0;
                for d in [dirs.x, dirs.y].into_iter().flatten() {
                    let m = topo.neighbor(a, d).expect("minimal dir must have a link");
                    prop_assert_eq!(
                        topo.hops(m, b) + 1,
                        topo.hops(a, b),
                        "{topo}: minimal dir {d:?} from {a} toward {b} not descending"
                    );
                    productive += 1;
                }
                prop_assert!(productive > 0, "{topo}: no minimal dir from {a} to {b}");
            }
        }
    }

    /// The escape network's channel-dependency graph is acyclic on every
    /// fabric — the Duato base case the adaptive layers rest on. On wrapping
    /// fabrics this is exactly the dateline argument: DOR order plus the
    /// pre/post-dateline VC split must leave no dependency cycle.
    #[test]
    fn escape_cdg_is_acyclic(topo in arb_topo()) {
        let cdg = ChannelDependencyGraph::build_escape_classed(topo);
        prop_assert!(
            cdg.is_acyclic(),
            "{topo}: escape CDG has a cycle: {:?}",
            cdg.find_cycle()
        );
    }
}

/// Supported algorithms on wrapping fabrics (xordet/VOQ-SW collapse the
/// dateline freedom and stay mesh-only).
const WRAP_ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
];

fn accept(builder: SimulationBuilder, label: &str) {
    for spec in WRAP_ALGOS {
        let report = builder
            .clone()
            .routing(spec)
            .run_with(RunOptions::new().sentinel(true).watchdog(20_000))
            .unwrap_or_else(|e| panic!("{label}/{}: {e}", spec.name()));
        assert!(
            report.latency.ejected_packets > 0,
            "{label}/{}: nothing delivered",
            spec.name()
        );
        // Books close: with the drain phase every window-generated packet
        // ejects (warmup-born packets draining in can push ejected higher).
        assert!(
            report.latency.ejected_packets >= report.latency.generated_packets,
            "{label}/{}: {} generated vs {} ejected after drain",
            spec.name(),
            report.latency.generated_packets,
            report.latency.ejected_packets
        );
    }
}

/// All four paper algorithms complete a sentinel-audited run on a torus,
/// with the books closing exactly.
#[test]
fn torus_runs_all_algorithms_under_sentinel() {
    accept(
        SimulationBuilder::torus(4)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .drain(2_000)
            .injection_rate(0.10)
            .seed(7),
        "torus:4x4",
    );
}

/// Same acceptance bar on a ring.
#[test]
fn ring_runs_all_algorithms_under_sentinel() {
    accept(
        SimulationBuilder::ring(8)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .drain(2_000)
            .injection_rate(0.10)
            .seed(7),
        "ring:8",
    );
}

/// Reports carry the fabric identity in `TopologySpec` display form.
#[test]
fn reports_record_topology_identity() {
    let report = SimulationBuilder::torus(4)
        .vcs(4)
        .warmup(50)
        .measurement(100)
        .injection_rate(0.05)
        .run_with(RunOptions::new().watchdog(20_000))
        .expect("torus run");
    assert_eq!(report.topology, "torus:4x4");
    let report = SimulationBuilder::mesh(4)
        .warmup(50)
        .measurement(100)
        .injection_rate(0.05)
        .run_with(RunOptions::new().watchdog(20_000))
        .expect("mesh run");
    assert_eq!(report.topology, "mesh:4x4");
}

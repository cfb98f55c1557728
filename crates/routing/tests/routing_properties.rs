//! Property tests over the routing algorithms: minimality, escape-network
//! reachability, and request-set well-formedness under arbitrary VC states.

use footprint_routing::{
    AllLinksUp, NoCongestionInfo, Priority, RoutingCtx, RoutingSpec, TablePortView, VcId, VcView,
};
use footprint_topology::{AnyTopology, NodeId, Port, DIRECTIONS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_spec() -> impl Strategy<Value = RoutingSpec> {
    prop_oneof![
        Just(RoutingSpec::Footprint),
        Just(RoutingSpec::Dbar),
        Just(RoutingSpec::OddEven),
        Just(RoutingSpec::Dor),
        Just(RoutingSpec::DorXordet),
        Just(RoutingSpec::OddEvenXordet),
        Just(RoutingSpec::DbarXordet),
        Just(RoutingSpec::RandomMinimal),
    ]
}

/// An arbitrary port-state table: every VC independently idle/busy with a
/// random owner and credits.
fn arb_view(num_vcs: usize) -> impl Strategy<Value = TablePortView> {
    prop::collection::vec(
        (any::<bool>(), 0u16..64, 0u32..=4, any::<bool>()),
        footprint_topology::PORT_COUNT * num_vcs,
    )
    .prop_map(move |cells| {
        let mut view = TablePortView::new(num_vcs);
        let mut it = cells.into_iter();
        for p in 0..footprint_topology::PORT_COUNT {
            for v in 0..num_vcs {
                let (idle, owner, credits, joinable) = it.next().unwrap();
                view.set(
                    Port::from_index(p),
                    VcId(v as u8),
                    VcView {
                        idle,
                        owner: if idle { None } else { Some(NodeId(owner)) },
                        credits,
                        joinable: joinable && !idle,
                    },
                );
            }
        }
        view
    })
}

proptest! {
    /// All requested direction ports are minimal (productive) ports, and
    /// requested VCs are within range. At the destination, only the local
    /// port is requested.
    #[test]
    fn requests_are_minimal_and_well_formed(
        spec in arb_spec(),
        view in arb_view(6),
        cur in 0u16..64,
        src in 0u16..64,
        dest in 0u16..64,
        seed in 0u64..64,
        on_escape in any::<bool>(),
    ) {
        let mesh = AnyTopology::mesh(8, 8);
        let algo = spec.build();
        let ctx = RoutingCtx {
            topo: mesh,
            current: NodeId(cur),
            src: NodeId(src),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: on_escape && algo.has_escape(),
            num_vcs: 6,
            ports: &view,
            congestion: &NoCongestionInfo,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        prop_assert!(!out.is_empty(), "{}: empty request set", spec.name());
        let minimal = mesh.minimal_dirs(NodeId(cur), NodeId(dest));
        for req in &out {
            prop_assert!(req.vc.index() < 6, "{}: vc out of range", spec.name());
            match req.port {
                Port::Local => prop_assert_eq!(
                    cur, dest,
                    "{}: local port requested away from destination", spec.name()
                ),
                Port::Dir(d) => {
                    prop_assert!(
                        minimal.contains(d),
                        "{}: non-minimal direction {} for {}→{} at {}",
                        spec.name(), d, src, dest, cur
                    );
                }
            }
        }
    }

    /// Duato-based algorithms always keep the escape network reachable: an
    /// in-flight packet's request set contains the escape VC on the
    /// dimension-order port (the deadlock-freedom invariant).
    #[test]
    fn escape_network_always_requested(
        view in arb_view(6),
        cur in 0u16..64,
        dest in 0u16..64,
        seed in 0u64..64,
    ) {
        prop_assume!(cur != dest);
        let mesh = AnyTopology::mesh(8, 8);
        for spec in [RoutingSpec::Footprint, RoutingSpec::Dbar, RoutingSpec::DbarXordet] {
            let algo = spec.build();
            let ctx = RoutingCtx {
                topo: mesh,
                current: NodeId(cur),
                src: NodeId(cur),
                dest: NodeId(dest),
                input_port: Port::Local,
                input_vc: VcId(1),
                on_escape: false,
                num_vcs: 6,
                ports: &view,
                congestion: &NoCongestionInfo,
                links: &AllLinksUp,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out = Vec::new();
            algo.route(&ctx, &mut rng, &mut out);
            let escape = out.iter().find(|r| r.vc == VcId::ESCAPE);
            prop_assert!(escape.is_some(), "{}: no escape request", spec.name());
            let escape = escape.unwrap();
            prop_assert_eq!(escape.priority, Priority::Lowest);
            // Escape port = dimension order: X first.
            let dirs = mesh.minimal_dirs(NodeId(cur), NodeId(dest));
            let esc_dir = dirs.x.or(dirs.y).unwrap();
            prop_assert_eq!(escape.port, Port::Dir(esc_dir), "{}", spec.name());
        }
    }

    /// Footprint never requests the escape VC as an adaptive VC: VC 0 only
    /// ever appears as the dimension-order escape request.
    #[test]
    fn escape_vc_reserved(
        view in arb_view(6),
        cur in 0u16..64,
        dest in 0u16..64,
        seed in 0u64..64,
    ) {
        prop_assume!(cur != dest);
        let mesh = AnyTopology::mesh(8, 8);
        let algo = RoutingSpec::Footprint.build();
        let ctx = RoutingCtx {
            topo: mesh,
            current: NodeId(cur),
            src: NodeId(cur),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(2),
            on_escape: false,
            num_vcs: 6,
            ports: &view,
            congestion: &NoCongestionInfo,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        for req in out.iter().filter(|r| r.vc == VcId::ESCAPE) {
            prop_assert_eq!(req.priority, Priority::Lowest);
        }
    }

    /// Injection requests only target the local port.
    #[test]
    fn injection_targets_local_port(
        spec in arb_spec(),
        view in arb_view(6),
        node in 0u16..64,
        dest in 0u16..64,
        seed in 0u64..64,
    ) {
        prop_assume!(node != dest);
        let mesh = AnyTopology::mesh(8, 8);
        let algo = spec.build();
        let ctx = RoutingCtx {
            topo: mesh,
            current: NodeId(node),
            src: NodeId(node),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 6,
            ports: &view,
            congestion: &NoCongestionInfo,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        algo.injection_requests(&ctx, &mut rng, &mut out);
        prop_assert!(!out.is_empty(), "{}", spec.name());
        prop_assert!(
            out.iter().all(|r| r.port == Port::Local),
            "{}: injection request off the local port", spec.name()
        );
    }

    /// Odd-even's allowed set equals what its route() actually uses.
    #[test]
    fn odd_even_route_within_allowed_dirs(
        view in arb_view(6),
        cur in 0u16..64,
        src in 0u16..64,
        dest in 0u16..64,
        seed in 0u64..64,
    ) {
        prop_assume!(cur != dest);
        let mesh = AnyTopology::mesh(8, 8);
        let algo = RoutingSpec::OddEven.build();
        let allowed = algo.allowed_dirs(mesh, NodeId(cur), NodeId(src), NodeId(dest));
        let ctx = RoutingCtx {
            topo: mesh,
            current: NodeId(cur),
            src: NodeId(src),
            dest: NodeId(dest),
            input_port: Port::Local,
            input_vc: VcId(0),
            on_escape: false,
            num_vcs: 6,
            ports: &view,
            congestion: &NoCongestionInfo,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        algo.route(&ctx, &mut rng, &mut out);
        for req in &out {
            if let Port::Dir(d) = req.port {
                prop_assert!(allowed.contains(d), "odd-even used banned dir {d}");
            }
        }
        let _ = DIRECTIONS; // keep import used on all cfgs
    }
}

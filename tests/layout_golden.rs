//! Golden fingerprints of `RunReport`s captured on the pre-SoA
//! (object-of-arrays) datapath.
//!
//! The struct-of-arrays restructuring of the flit/credit datapath is a pure
//! layout change: every run must produce **byte-equal** reports to the
//! object-per-router implementation it replaced. These fingerprints were
//! recorded from the last object-layout build (PR 5); any divergence means
//! the SoA walk changed simulation semantics, not just memory layout.
//!
//! The fingerprint is an FNV-1a hash over the `Debug` rendering of the
//! full `RunReport` (which prints every counter and every f64 with
//! shortest-roundtrip precision), so a single flipped latency sample or
//! purity term shows up as a mismatch.

use footprint_core::{
    PacketSize, RoutingSpec, RunOptions, RunReport, Scheduler, SimulationBuilder, SweepOptions,
    TrafficSpec,
};
use footprint_routing::{
    AnyRouting, CongestionView, DownLinks, RoutingCtx, TablePortView, Tiers, VcId, VcView,
    WrapStrategy,
};
use footprint_sim::{Network, SimConfig};
use footprint_topology::{
    AnyTopology, Direction, FaultEvent, FaultPlan, NodeId, Port, TopologySpec, DIRECTIONS, PORTS,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a report's Debug rendering against the pinned capture. Report
/// fields added *after* the object-layout capture (and always empty in
/// these single-workload configurations) are erased from the rendering
/// first, so the goldens keep pinning the simulation datapath rather
/// than the report struct's shape:
///
/// * `tenants` (0.7.0) — per-tenant summaries, empty without
///   `SimulationBuilder::tenants`.
/// * `topology` (0.8.0) — the fabric's display name; all goldens ran on
///   the 4×4 / 8×8 meshes the captures were taken on.
/// * `partitions` / `recovery` (0.9.0) — resilience observations,
///   appended at the end of the struct; pure observation, so erasing the
///   rendering suffix restores the 0.8.0 shape byte for byte even for
///   the faulted goldens.
fn golden_hash(debug: &str) -> u64 {
    let stripped = match debug.find(", partitions: ") {
        Some(i) => format!("{} }}", &debug[..i]),
        None => debug.to_string(),
    };
    fnv1a(
        stripped
            .replace(", tenants: []", "")
            .replace(", topology: \"mesh:4x4\"", "")
            .replace(", topology: \"mesh:8x8\"", "")
            .as_bytes(),
    )
}

fn base() -> SimulationBuilder {
    SimulationBuilder::mesh(4)
        .vcs(4)
        .warmup(200)
        .measurement(400)
        .seed(3)
        .injection_rate(0.15)
        .drain(500)
}

fn repair_plan() -> FaultPlan {
    FaultPlan::new()
        .with(FaultEvent::link_down(NodeId(5), Direction::East, 100).repaired_at(250))
}

/// The pinned matrix: (label, fingerprint) per configuration. Captured
/// once on the object-layout build; never regenerate these from a build
/// you are trying to validate.
const GOLDEN: &[(&str, u64)] = &[
    ("footprint", 0xca246d83340da0ec),
    ("footprint+faults", 0x4bd7a34c1716ffbc),
    ("dbar", 0xaa74bb175f6c8571),
    ("dbar+faults", 0xdbb1acb63a17c3a0),
    ("odd-even", 0x25fb0374dc0bdc36),
    ("odd-even+faults", 0x33d6af9a7ef2e545),
    ("dor", 0xa8f5ab1569213023),
    ("dor+faults", 0xde34b7163223f55c),
    ("footprint-multiflit", 0x96585ae002c7c9a0),
    ("paper-8x8-footprint", 0x320b98dd76d27652),
    ("sweep-2pt", 0x454646bffddf8b78),
];

fn fingerprint(spec: RoutingSpec, faults: Option<FaultPlan>, scheduler: Scheduler) -> u64 {
    let mut o = RunOptions::new().scheduler(scheduler).watchdog(10_000);
    if let Some(p) = faults {
        o = o.faults(p);
    }
    let report = base().routing(spec).run_with(o).expect("golden run");
    golden_hash(&format!("{report:?}"))
}

#[test]
fn reports_match_object_layout_goldens() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for spec in [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
    ] {
        for faults in [None, Some(repair_plan())] {
            let label = if faults.is_some() {
                format!("{}+faults", spec.name())
            } else {
                spec.name().to_string()
            };
            // Both schedulers must agree with the recorded value, so the
            // golden table stores one fingerprint per configuration.
            let dense = fingerprint(spec, faults.clone(), Scheduler::Dense);
            let active = fingerprint(spec, faults, Scheduler::Active);
            assert_eq!(dense, active, "{label}: dense vs active diverged");
            got.push((label, dense));
        }
    }
    // Multi-flit packets exercise body/tail streaming, joins and drains.
    let multi = base()
        .routing(RoutingSpec::Footprint)
        .packet_size(PacketSize::Fixed(4))
        .injection_rate(0.05)
        .run_with(RunOptions::new().watchdog(10_000))
        .expect("multiflit run");
    got.push(("footprint-multiflit".into(), golden_hash(&format!("{multi:?}"))));
    // The paper's 8×8/10-VC configuration on a short window.
    let paper = SimulationBuilder::paper_default()
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.30)
        .warmup(100)
        .measurement(200)
        .seed(0xBE_5C)
        .run_with(RunOptions::new().watchdog(10_000))
        .expect("paper run");
    got.push(("paper-8x8-footprint".into(), golden_hash(&format!("{paper:?}"))));
    // A two-point sweep through the canonical sweep path (derived seeds).
    let curve = base()
        .routing(RoutingSpec::Footprint)
        .sweep_with(&[0.05, 0.15], SweepOptions::new().threads(1))
        .expect("sweep");
    got.push(("sweep-2pt".into(), golden_hash(&format!("{curve:?}"))));
    // The same sweep as a two-lane lockstep ensemble must reproduce the
    // object-layout golden bit for bit: lane-parallel execution is an
    // execution schedule, not a semantic change.
    let ensemble = base()
        .routing(RoutingSpec::Footprint)
        .sweep_with(&[0.05, 0.15], SweepOptions::new().threads(1).ensemble(2))
        .expect("ensemble sweep");
    assert_eq!(
        golden_hash(&format!("{ensemble:?}")),
        golden_hash(&format!("{curve:?}")),
        "ensemble sweep diverged from the sequential sweep"
    );

    check(&got, GOLDEN, "object-layout");
}

/// Compares the fingerprints in `got` with their pins in `table` — or,
/// under `FOOTPRINT_GOLDEN_PRINT`, prints them in table syntax instead.
fn check(got: &[(String, u64)], table: &[(&str, u64)], captured_on: &str) {
    if std::env::var("FOOTPRINT_GOLDEN_PRINT").is_ok() {
        for (label, h) in got {
            println!("    (\"{label}\", {h:#018x}),");
        }
        return;
    }
    for (label, h) in got {
        let expected = table
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no golden for {label}"));
        assert_eq!(
            *h, expected.1,
            "{label}: report fingerprint diverged from the {captured_on} golden"
        );
    }
}

/// Past-saturation pins for the VC allocator's blocked-head path: the
/// loser scan, the dead-link backstop and the purity accounting, none of
/// which the matrix above reaches (its loads stay at or below 0.30, where
/// `va_blocks` is 0). Captured on the flat tier × request grant loop (PR
/// 12), before the allocator was rebuilt on the output-VC masks.
const SATURATED: &[(&str, u64)] = &[
    ("sat-footprint", 0x0e3cc10bc710de65),
    ("sat-dbar", 0x729244e7be78f682),
    ("sat-odd-even", 0x1efce486480669ea),
    ("sat-dor", 0x826cde9ca2164516),
    ("sat-dor+cut", 0xc465bfc87592b3f5),
    ("sat-footprint-join", 0x90a774276e645699),
];

const SAT_RATE: f64 = 0.55;
const SAT_WARMUP: u64 = 100;
const SAT_MEASURE: u64 = 150;

fn saturated() -> SimulationBuilder {
    SimulationBuilder::paper_default()
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(SAT_RATE)
        .warmup(SAT_WARMUP)
        .measurement(SAT_MEASURE)
        .seed(0x5A7)
}

/// Footprint with joins has no `RoutingSpec` variant, so this run is
/// driven by hand: the paper's 8×8 geometry, warmup, window reset,
/// measurement, report straight from the metrics.
fn join_report(scheduler: Scheduler) -> RunReport {
    let cfg = SimConfig::paper_default();
    let topo = cfg.topo();
    let mut net = Network::new(cfg, Box::new(AnyRouting::footprint(Tiers::new().with_join())), 0x5A7)
        .expect("paper config fits Footprint");
    net.set_scheduler(scheduler);
    let mut wl = TrafficSpec::UniformRandom
        .build(topo, PacketSize::Fixed(3), SAT_RATE)
        .expect("uniform is defined on every mesh");
    net.run(&mut *wl, SAT_WARMUP);
    let at = net.cycle();
    net.metrics_mut().reset_window_at(at);
    net.run(&mut *wl, SAT_MEASURE);
    RunReport::from_metrics(net.metrics(), topo.len(), SAT_RATE)
}

/// Runs `builder` under both schedulers, which must agree on a report with
/// blocked heads in it, and fingerprints that report.
fn blocked_head_pin(
    label: String,
    builder: SimulationBuilder,
    faults: Option<FaultPlan>,
) -> (String, u64) {
    let [dense, active] = [Scheduler::Dense, Scheduler::Active].map(|scheduler| {
        let mut o = RunOptions::new().scheduler(scheduler).watchdog(10_000);
        if let Some(p) = faults.clone() {
            o = o.faults(p);
        }
        builder.clone().run_with(o).expect("pinned run")
    });
    assert_eq!(dense, active, "{label}: dense vs active diverged");
    assert!(dense.va_blocks > 0, "{label}: no blocked head, the pin is vacuous");
    let hash = golden_hash(&format!("{dense:?}"));
    (label, hash)
}

#[test]
fn saturated_reports_match_flat_scan_goldens() {
    // A link that dies mid-window and comes back: heads already committed
    // to it wait on the allocator's `link_up` backstop, idle VCs or not.
    let cut = FaultPlan::new()
        .with(FaultEvent::link_down(NodeId(27), Direction::East, 120).repaired_at(200));
    let mut runs: Vec<(String, RoutingSpec, Option<FaultPlan>)> = [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
    ]
    .into_iter()
    .map(|spec| (format!("sat-{}", spec.name()), spec, None))
    .collect();
    runs.push(("sat-dor+cut".into(), RoutingSpec::Dor, Some(cut)));

    let mut got: Vec<(String, u64)> = runs
        .into_iter()
        .map(|(label, spec, faults)| blocked_head_pin(label, saturated().routing(spec), faults))
        .collect();
    let join = join_report(Scheduler::Dense);
    assert_eq!(join, join_report(Scheduler::Active), "join: dense vs active diverged");
    assert!(join.va_blocks > 0, "join: no blocked head, the pin is vacuous");
    got.push(("sat-footprint-join".into(), golden_hash(&format!("{join:?}"))));

    check(&got, SATURATED, "flat-scan");
}

/// The nine specs the two tables above leave out — the XORDET / VOQ_sw /
/// Footprint-on-X overlays and the reference selectors — on the
/// `saturated()` builder, plus `odd-even+footprint` on a torus for the
/// wrap strategy the rule inherits. Captured on the three separate
/// wrapper types, before they became one `VcOverlay`; the two
/// VOQ_sw entries were re-pinned when injection began keying its VC on
/// the source router's output port instead of always the local class.
const OTHER_SPECS: &[(&str, u64)] = &[
    ("dbar+xordet", 0xfd4e03b092f084f9),
    ("odd-even+xordet", 0x0da23e70a8625a98),
    ("dor+xordet", 0x49eae442fc85e561),
    ("random-minimal", 0x4c4d1ed35fa747e2),
    ("west-first", 0x25a8430c79949352),
    ("north-last", 0xf79929d1b7cb2579),
    ("dor+voqsw", 0xf46d6f7e6521d746),
    ("dbar+voqsw", 0xa176a8b647f434e5),
    ("odd-even+footprint", 0x8f6b163395fc776a),
    ("torus-odd-even+footprint", 0x3dade5eb311ffca3),
];

#[test]
fn other_specs_match_separate_wrapper_goldens() {
    let mut runs: Vec<(String, SimulationBuilder)> = [
        RoutingSpec::DbarXordet,
        RoutingSpec::OddEvenXordet,
        RoutingSpec::DorXordet,
        RoutingSpec::RandomMinimal,
        RoutingSpec::WestFirst,
        RoutingSpec::NorthLast,
        RoutingSpec::DorVoqSw,
        RoutingSpec::DbarVoqSw,
        RoutingSpec::OddEvenFootprint,
    ]
    .into_iter()
    .map(|spec| (spec.name().to_string(), saturated().routing(spec)))
    .collect();
    runs.push((
        "torus-odd-even+footprint".into(),
        SimulationBuilder::torus(4)
            .vcs(4)
            .routing(RoutingSpec::OddEvenFootprint)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(0.45)
            .warmup(100)
            .measurement(300)
            .seed(9),
    ));

    let got: Vec<(String, u64)> = runs
        .into_iter()
        .map(|(label, builder)| blocked_head_pin(label, builder, None))
        .collect();
    check(&got, OTHER_SPECS, "separate-wrapper");
}

/// Byte-layout pins for the warm-start snapshot stream (`SNAPSHOT_LAYOUT`
/// 3): FNV-1a and length of `Network::snapshot` taken mid-run, with flits
/// on the wires, in the buffers and in the source queues. Cache entries
/// written by one build are read by the next, so a change to what a
/// component writes or in which order must show here. Captured when the
/// datapath image began writing only each ring's live flits. The mesh
/// case snapshots its two-cycle links at an odd cycle, so calendar stage
/// `k` is slot `(cycle + k) % 2` with a nonzero offset and a walk that
/// mapped stage `k` to slot `k` would change the blob.
const SNAPSHOTS: &[(&str, u64)] = &[
    ("mesh-footprint", 0xe02c2dc18c5a09bf),
    ("mesh-footprint-bytes", 26_801),
    ("torus-odd-even+footprint", 0x6bccef0d737b5e35),
    ("torus-odd-even+footprint-bytes", 24_288),
    ("ring-dbar", 0xd5e863471a5b969c),
    ("ring-dbar-bytes", 11_121),
];

#[test]
fn snapshot_blobs_match_layout_3_goldens() {
    let cases = [
        (
            "mesh-footprint",
            SimulationBuilder::mesh(4)
                .routing(RoutingSpec::Footprint)
                .packet_size(PacketSize::Uniform { lo: 1, hi: 6 })
                .link_latency(2)
                .injection_rate(0.45)
                .seed(11),
            601,
        ),
        (
            "torus-odd-even+footprint",
            SimulationBuilder::torus(4)
                .routing(RoutingSpec::OddEvenFootprint)
                .packet_size(PacketSize::Fixed(3))
                .injection_rate(0.40)
                .seed(12),
            500,
        ),
        (
            "ring-dbar",
            SimulationBuilder::ring(8)
                .routing(RoutingSpec::Dbar)
                .injection_rate(0.30)
                .seed(13),
            400,
        ),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for (label, builder, cycles) in cases {
        let builder = builder.vcs(4).traffic(TrafficSpec::UniformRandom);
        let fresh = || builder.build().expect("pinned config builds");
        let (mut net, mut wl) = fresh();
        net.run(&mut *wl, cycles);
        assert!(!net.is_quiescent(), "{label}: an idle network pins nothing");
        let blob = net.snapshot().expect("fault-free snapshot");
        got.push((label.to_string(), fnv1a(&blob)));
        got.push((format!("{label}-bytes"), blob.len() as u64));
        // A short stream is an error wherever it is cut, never a panic.
        for cut in (0..blob.len()).step_by(97) {
            let (mut net, _) = fresh();
            assert!(
                net.restore(&blob[..cut]).is_err(),
                "{label}: {cut}-byte prefix restored"
            );
        }
        let (mut restored, _) = fresh();
        restored.restore(&blob).expect("the full blob restores");
        assert!(
            restored.snapshot().expect("fault-free snapshot") == blob,
            "{label}: round trip"
        );
    }
    check(&got, SNAPSHOTS, "live-window");
}

/// Geometry pins: FNV-1a over every query of each fabric — size, wrap,
/// escape VCs and channel count, then per node its coordinate, per
/// direction its neighbor, wrap flag and escape class toward every
/// destination, and per destination the hop count, both direction sets
/// and the minimal-path count. Captured on the `Topology` trait with one
/// implementation per shape, before the shapes became one grid value.
const FABRICS: &[(&str, u64)] = &[
    ("mesh:4x4", 0xa97c9f1ec399f2b6),
    ("mesh:5x3", 0x57d0b3421fdbaef0),
    ("mesh:8x8", 0x980034bf53456e9b),
    ("torus:4x4", 0x48770bc957de611b),
    ("torus:5x3", 0xfd745867d59a96dd),
    ("torus:8x8", 0xf2201e13e1aba55b),
    ("ring:8", 0xf1cf4e87e19ac638),
    ("ring:9", 0xfbff6221a0506c93),
];

#[test]
fn fabric_geometry_matches_goldens() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (label, _) in FABRICS {
        let t = label
            .parse::<TopologySpec>()
            .and_then(TopologySpec::validate)
            .expect("pinned fabric is valid");
        let mut s = format!(
            "{t} {}x{} {} {} {} {}\n",
            t.width(),
            t.height(),
            t.len(),
            t.wraps(),
            t.escape_vcs(),
            t.channels().count()
        );
        for a in t.nodes() {
            write!(s, "{a} {}", t.coord(a)).unwrap();
            for d in DIRECTIONS {
                let next = t.neighbor(a, d);
                write!(s, " {d}:{next:?}:{}:", t.is_wrap_channel(a, d)).unwrap();
                if next.is_some() {
                    for b in t.nodes() {
                        write!(s, "{}", t.escape_class(a, b, d)).unwrap();
                    }
                }
            }
            for b in t.nodes() {
                write!(
                    s,
                    " {}/{:?}/{:?}/{}",
                    t.hops(a, b),
                    t.minimal_dirs(a, b),
                    t.acyclic_minimal_dirs(a, b),
                    t.minimal_path_count(a, b)
                )
                .unwrap();
            }
            s.push('\n');
        }
        got.push((label.to_string(), fnv1a(s.as_bytes())));
    }
    check(&got, FABRICS, "per-shape trait");
}

/// Decision pins: per routing spec, FNV-1a over everything the
/// `RoutingAlgorithm` seam answers on four fabrics. Per fabric a header
/// line of the declared facts, then for 4 and 10 VCs, three port-state
/// levels and every (current, destination) pair with a seeded source: the
/// allowed directions and — where the spec runs on the fabric — the
/// `route` and `injection_requests` outputs over seeded VC states and
/// side-band congestion (the busiest level also takes a seeded subset of
/// the current router's links down), followed by one draw of the routing
/// RNG so the number of coin flips is pinned too. Captured on the seven
/// algorithm types and the `VcOverlay` wrapper, before they became one
/// routing value; the two VOQ_sw entries re-pinned with the injection
/// fix noted at `OTHER_SPECS`.
const DECISIONS: &[(&str, u64)] = &[
    ("footprint", 0xa22412f69e6fe48b),
    ("dbar", 0xcbec6d334d38d1ce),
    ("odd-even", 0x1988ffad020e1bed),
    ("dor", 0xb7e07ecc16dfbcdc),
    ("dbar+xordet", 0x59a800e3ecc064a6),
    ("odd-even+xordet", 0x0570d89cce11b78e),
    ("dor+xordet", 0x499493f40f10fd6c),
    ("random-minimal", 0xa510579097646e18),
    ("west-first", 0xda3f28a3cd2fef8d),
    ("north-last", 0x87d2bfa29599bb63),
    ("dor+voqsw", 0xd13052def5cebed0),
    ("dbar+voqsw", 0x94e7d588867f9552),
    ("odd-even+footprint", 0x3e74516c69958271),
];

const ALL_SPECS: [RoutingSpec; 13] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
    RoutingSpec::DbarXordet,
    RoutingSpec::OddEvenXordet,
    RoutingSpec::DorXordet,
    RoutingSpec::RandomMinimal,
    RoutingSpec::WestFirst,
    RoutingSpec::NorthLast,
    RoutingSpec::DorVoqSw,
    RoutingSpec::DbarVoqSw,
    RoutingSpec::OddEvenFootprint,
];

/// Seeded side-band state: one congested flag per (node, direction).
struct SeededCongestion(Vec<bool>);

impl CongestionView for SeededCongestion {
    fn channel_congested(&self, node: NodeId, dir: Direction) -> bool {
        self.0[usize::from(node.0) * DIRECTIONS.len() + Port::Dir(dir).index() - 1]
    }
}

/// One head's seeded surroundings at `cur`: a source, the VC states of
/// every port (owner none / the destination / another node), the links
/// of `cur` that are down, and the seed of its routing RNG.
fn seeded_head(
    state: &mut SmallRng,
    topo: AnyTopology,
    cur: NodeId,
    dest: NodeId,
    num_vcs: usize,
    idle_p: f64,
    cut_p: f64,
) -> (NodeId, TablePortView, DownLinks, u64) {
    let len = u16::try_from(topo.len()).expect("pinned fabrics are small");
    let src = NodeId(state.gen_range(0..len));
    let mut ports = TablePortView::new(num_vcs);
    for port in PORTS {
        for v in 0..num_vcs {
            let owner = match state.gen_range(0..3u32) {
                0 => None,
                1 => Some(dest),
                _ => Some(NodeId(state.gen_range(0..len))),
            };
            let view = VcView {
                idle: state.gen_bool(idle_p),
                owner,
                credits: state.gen_range(0..5u32),
                joinable: state.gen_bool(0.5),
            };
            ports.set(port, VcId::from_index(v), view);
        }
    }
    let down = DIRECTIONS
        .into_iter()
        .filter(|_| state.gen_bool(cut_p))
        .map(|d| (cur, d))
        .collect();
    (src, ports, DownLinks::new(down), state.next_u64())
}

#[test]
fn routing_decisions_match_goldens() {
    let fabrics = ["mesh:4x4", "mesh:5x3", "torus:4x4", "ring:8"].map(|f| {
        f.parse::<TopologySpec>()
            .and_then(TopologySpec::validate)
            .expect("pinned fabric is valid")
    });
    // (idle probability, congested-channel probability, link-cut probability)
    let levels = [(0.9, 0.1, 0.0), (0.5, 0.4, 0.0), (0.1, 0.7, 0.3)];
    let mut got: Vec<(String, u64)> = Vec::new();
    for spec in ALL_SPECS {
        let algo = spec.build();
        let mut s = String::new();
        for topo in fabrics {
            writeln!(
                s,
                "{topo} {} / {:?} / {} / {:?} / {} / {:?} / {}",
                algo.name(),
                algo.policy(),
                algo.has_escape(),
                algo.wrap_strategy(),
                algo.min_vcs_on(topo),
                algo.vc_selection(),
                algo.allows_footprint_join()
            )
            .unwrap();
            let runs = !(topo.wraps() && algo.wrap_strategy() == WrapStrategy::Unsupported);
            for num_vcs in [4, 10] {
                for (level, (idle_p, cong_p, cut_p)) in levels.into_iter().enumerate() {
                    let mut state = SmallRng::seed_from_u64((num_vcs * 10 + level) as u64);
                    let congestion = SeededCongestion(
                        (0..topo.len() * DIRECTIONS.len())
                            .map(|_| state.gen_bool(cong_p))
                            .collect(),
                    );
                    for cur in topo.nodes() {
                        for dest in topo.nodes() {
                            let (src, ports, links, seed) =
                                seeded_head(&mut state, topo, cur, dest, num_vcs, idle_p, cut_p);
                            let allowed = algo.allowed_dirs(topo, cur, src, dest);
                            write!(s, "{cur}>{dest}@{src} {allowed:?}").unwrap();
                            if runs {
                                let ctx = RoutingCtx {
                                    topo,
                                    current: cur,
                                    src,
                                    dest,
                                    input_port: Port::Local,
                                    input_vc: VcId(0),
                                    on_escape: false,
                                    num_vcs,
                                    ports: &ports,
                                    congestion: &congestion,
                                    links: &links,
                                };
                                let mut rng = SmallRng::seed_from_u64(seed);
                                let (mut route, mut inject) = (Vec::new(), Vec::new());
                                algo.route(&ctx, &mut rng, &mut route);
                                algo.injection_requests(&ctx, &mut rng, &mut inject);
                                write!(s, " {route:?} {inject:?} {}", rng.next_u32()).unwrap();
                            }
                            s.push('\n');
                        }
                    }
                }
            }
        }
        got.push((spec.name().to_string(), fnv1a(s.as_bytes())));
    }
    check(&got, DECISIONS, "per-algorithm type");
}

/// Traffic pins: per (traffic spec, fabric, packet-size mix), FNV-1a over
/// every `Workload::generate` outcome of the built workload for 200 cycles
/// × all nodes at 0.4 flits/node/cycle from a seeded RNG, followed by one
/// draw of that RNG so the number of draws is pinned too. Only the
/// combinations a spec runs on are listed. Captured on the boxed
/// pattern trait objects, one type per pattern, before the patterns
/// became one value.
const TRAFFIC: &[(&str, u64)] = &[
    ("uniform@mesh:8x8/single", 0x31d1a08af75ec44d),
    ("uniform@mesh:8x8/variable", 0xa3441c03fc8755fd),
    ("uniform@mesh:4x4/single", 0x85429ddcaf4bd808),
    ("uniform@mesh:4x4/variable", 0x6c03fff157ad3199),
    ("uniform@torus:4x4/single", 0x85429ddcaf4bd808),
    ("uniform@torus:4x4/variable", 0x6c03fff157ad3199),
    ("uniform@ring:16/single", 0x85429ddcaf4bd808),
    ("uniform@ring:16/variable", 0x6c03fff157ad3199),
    ("uniform@mesh:5x3/single", 0xab127a1c6eb99ed6),
    ("uniform@mesh:5x3/variable", 0xc7ca662b14b2660e),
    ("transpose@mesh:8x8/single", 0xf0b7c2735d8d311a),
    ("transpose@mesh:8x8/variable", 0x2cb8a7b39c9d3787),
    ("transpose@mesh:4x4/single", 0x862f820a957de5a5),
    ("transpose@mesh:4x4/variable", 0x4a85d89bb569a7fa),
    ("transpose@torus:4x4/single", 0x862f820a957de5a5),
    ("transpose@torus:4x4/variable", 0x4a85d89bb569a7fa),
    ("shuffle@mesh:8x8/single", 0x524ae81d10c153ac),
    ("shuffle@mesh:8x8/variable", 0x2cad29d1781ccdf2),
    ("shuffle@mesh:4x4/single", 0x1ca9695f80142c5c),
    ("shuffle@mesh:4x4/variable", 0xf7c20e34004f2e51),
    ("shuffle@torus:4x4/single", 0x1ca9695f80142c5c),
    ("shuffle@torus:4x4/variable", 0xf7c20e34004f2e51),
    ("shuffle@ring:16/single", 0x1ca9695f80142c5c),
    ("shuffle@ring:16/variable", 0xf7c20e34004f2e51),
    ("bit-complement@mesh:8x8/single", 0x0a5deba3316b7612),
    ("bit-complement@mesh:8x8/variable", 0xb2b0df909e940786),
    ("bit-complement@mesh:4x4/single", 0x91616b4627f2d3f7),
    ("bit-complement@mesh:4x4/variable", 0xc6d1f356ca041e31),
    ("bit-complement@torus:4x4/single", 0x91616b4627f2d3f7),
    ("bit-complement@torus:4x4/variable", 0xc6d1f356ca041e31),
    ("bit-complement@ring:16/single", 0x91616b4627f2d3f7),
    ("bit-complement@ring:16/variable", 0xc6d1f356ca041e31),
    ("bit-reverse@mesh:8x8/single", 0x6727ee3845f3e57f),
    ("bit-reverse@mesh:8x8/variable", 0x871da971fc5c9518),
    ("bit-reverse@mesh:4x4/single", 0xe5522529f28dd156),
    ("bit-reverse@mesh:4x4/variable", 0x97fdd3b55f0f24fe),
    ("bit-reverse@torus:4x4/single", 0xe5522529f28dd156),
    ("bit-reverse@torus:4x4/variable", 0x97fdd3b55f0f24fe),
    ("bit-reverse@ring:16/single", 0xe5522529f28dd156),
    ("bit-reverse@ring:16/variable", 0x97fdd3b55f0f24fe),
    ("tornado@mesh:8x8/single", 0x6cc21553fd4dde99),
    ("tornado@mesh:8x8/variable", 0xb16fc360935d58ff),
    ("tornado@mesh:4x4/single", 0x7c4ba598ff494b1d),
    ("tornado@mesh:4x4/variable", 0x00cf7c7eb716a2c1),
    ("tornado@torus:4x4/single", 0x7c4ba598ff494b1d),
    ("tornado@torus:4x4/variable", 0x00cf7c7eb716a2c1),
    ("tornado@ring:16/single", 0x0a0031826001dfbe),
    ("tornado@ring:16/variable", 0xd7c16b0ef3367864),
    ("tornado@mesh:5x3/single", 0x7d8047aca47a5800),
    ("tornado@mesh:5x3/variable", 0x59e50bd82d9c4ccf),
    ("hotspot@mesh:8x8/single", 0xf7efbd65712054fb),
    ("hotspot@mesh:8x8/variable", 0x2412809719ddc1cf),
    ("fluidanimate+bodytrack@mesh:8x8/single", 0xcf216b1927907125),
    ("fluidanimate+bodytrack@mesh:8x8/variable", 0xcf216b1927907125),
    ("fluidanimate+bodytrack@mesh:4x4/single", 0xc252ebdea9ef1cf4),
    ("fluidanimate+bodytrack@mesh:4x4/variable", 0xc252ebdea9ef1cf4),
    ("fluidanimate+bodytrack@torus:4x4/single", 0xc252ebdea9ef1cf4),
    ("fluidanimate+bodytrack@torus:4x4/variable", 0xc252ebdea9ef1cf4),
    ("fluidanimate+bodytrack@ring:16/single", 0x846a61b5559944a5),
    ("fluidanimate+bodytrack@ring:16/variable", 0x846a61b5559944a5),
    ("fluidanimate+bodytrack@mesh:5x3/single", 0xdae4e95740df42af),
    ("fluidanimate+bodytrack@mesh:5x3/variable", 0xdae4e95740df42af),
    ("figure2-permutation@mesh:8x8/single", 0x95a7112a7d63d0e3),
    ("figure2-permutation@mesh:8x8/variable", 0x3b86b9cde7e29a75),
    ("figure2-permutation@mesh:4x4/single", 0x046a826b3a86f173),
    ("figure2-permutation@mesh:4x4/variable", 0xbaeb623bc12c3a5d),
    ("figure2-permutation@torus:4x4/single", 0x046a826b3a86f173),
    ("figure2-permutation@torus:4x4/variable", 0xbaeb623bc12c3a5d),
];

const TRAFFIC_SPECS: [TrafficSpec; 9] = [
    TrafficSpec::UniformRandom,
    TrafficSpec::Transpose,
    TrafficSpec::Shuffle,
    TrafficSpec::BitComplement,
    TrafficSpec::BitReverse,
    TrafficSpec::Tornado,
    TrafficSpec::Hotspot { background_rate: 0.5 },
    TrafficSpec::ParsecPair(footprint_core::App::Fluidanimate, footprint_core::App::Bodytrack),
    TrafficSpec::Figure2,
];

#[test]
fn traffic_generation_matches_goldens() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (label, _) in TRAFFIC {
        let (spec, rest) = label.split_once('@').expect("label is spec@fabric/size");
        let (fabric, size) = rest.split_once('/').expect("label is spec@fabric/size");
        let spec = TRAFFIC_SPECS
            .into_iter()
            .find(|s| s.name() == spec)
            .expect("pinned spec is listed");
        let topo = fabric
            .parse::<TopologySpec>()
            .and_then(TopologySpec::validate)
            .expect("pinned fabric is valid");
        let size = match size {
            "single" => PacketSize::SINGLE,
            _ => PacketSize::PAPER_VARIABLE,
        };
        let mut wl = spec.build(topo, size, 0.4).expect("pinned spec runs on its fabric");
        let mut rng = SmallRng::seed_from_u64(0x7AFF1C);
        let mut s = String::new();
        for cycle in 0..200 {
            for node in topo.nodes() {
                writeln!(s, "{:?}", wl.generate(node, cycle, &mut rng)).unwrap();
            }
        }
        write!(s, "{}", rng.next_u64()).unwrap();
        got.push((label.to_string(), fnv1a(s.as_bytes())));
    }
    check(&got, TRAFFIC, "per-pattern type");
}


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
use footprint_routing::Footprint;
use footprint_sim::{Network, SimConfig};
use footprint_topology::{Direction, FaultEvent, FaultPlan, NodeId};

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

/// `Footprint::with_join` has no `RoutingSpec` variant, so this run is
/// driven by hand: the paper's 8×8 geometry, warmup, window reset,
/// measurement, report straight from the metrics.
fn join_report(scheduler: Scheduler) -> RunReport {
    let cfg = SimConfig::paper_default();
    let topo = cfg.topo();
    let mut net = Network::new(cfg, Box::new(Footprint::new().with_join()), 0x5A7)
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
/// wrap strategy the overlay inherits. Captured on the three separate
/// wrapper types (PR 14), before they became one `VcOverlay`.
const OTHER_SPECS: &[(&str, u64)] = &[
    ("dbar+xordet", 0xfd4e03b092f084f9),
    ("odd-even+xordet", 0x0da23e70a8625a98),
    ("dor+xordet", 0x49eae442fc85e561),
    ("random-minimal", 0x4c4d1ed35fa747e2),
    ("west-first", 0x25a8430c79949352),
    ("north-last", 0xf79929d1b7cb2579),
    ("dor+voqsw", 0xa08061680702a89f),
    ("dbar+voqsw", 0x739c3b79edec1595),
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
/// 2): FNV-1a and length of `Network::snapshot` taken mid-run, with flits
/// on the wires, in the buffers and in the source queues. Cache entries
/// written by one build are read by the next, so a change to what a
/// component writes or in which order must show here. Captured on the
/// mirrored per-component writer / reader pairs, before they became one
/// walk.
const SNAPSHOTS: &[(&str, u64)] = &[
    ("mesh-footprint", 0x719ff4b3bed8bdb7),
    ("mesh-footprint-bytes", 64_931),
    ("torus-odd-even+footprint", 0xed6c61860d77f886),
    ("torus-odd-even+footprint-bytes", 63_114),
    ("ring-dbar", 0x7295c418b16bacea),
    ("ring-dbar-bytes", 30_804),
];

#[test]
fn snapshot_blobs_match_layout_2_goldens() {
    let cases = [
        (
            "mesh-footprint",
            SimulationBuilder::mesh(4)
                .routing(RoutingSpec::Footprint)
                .packet_size(PacketSize::Uniform { lo: 1, hi: 6 })
                .link_latency(2)
                .injection_rate(0.45)
                .seed(11),
            600,
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
    check(&got, SNAPSHOTS, "writer / reader pair");
}

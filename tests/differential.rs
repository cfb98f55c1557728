//! The differential oracle: a run is a pure function of its configuration
//! and seed, and no configuration can panic the stack.
//!
//! Case `i` draws one configuration as a pure function of `i`
//! ([`valid_case`]). Each dimension cycles through all of its values as
//! `i` advances, and [`valid_half`] checks that every value appeared in a
//! case that ejected packets.
//!
//! * **Valid half.** An unarmed reference — the dense loop, one thread, no
//!   sentinel, no watchdog — two-rate `sweep_with` must equal every armed
//!   cell: sentinel and watchdog on, {Dense, Active} × {1, 4 threads}. A
//!   plain Dense `run_with` must equal an armed Active one carrying a probe
//!   on the full `RunReport`. A typed error must be the same in every cell.
//! * **Invalid half.** The same generator breaks one dimension; `build_with`
//!   and a short `run_with`, each under `catch_unwind`, must return the same
//!   typed `ConfigError` and never unwind. A broken option — a zero
//!   watchdog, a sweep grid that descends, repeats or holds NaN — must be
//!   refused with a typed error before a checkpointed `sweep_with` opens
//!   its journal, and a zero watchdog before `run_with`'s cycle 0.
//!
//! A failure prints the case index and the drawn configuration. To rerun
//! one case alone, set [`RERUN`] to its index and run
//! `cargo test --test differential rerun_one_case -- --ignored`.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use footprint_suite::prelude::*;
use footprint_suite::routing::{RoutingAlgorithm, WrapStrategy};
use footprint_suite::stats::LatencyHistogramProbe;
use footprint_suite::topology::{AnyTopology, DIRECTIONS};
use footprint_suite::traffic::APPS;

/// Valid cases, spread over [`WORKERS`] threads.
const VALID_CASES: u64 = 200;
const WORKERS: u64 = 2;
/// Invalid cases: every broken value on two different drawn configurations.
const INVALID_CASES: u64 = 2 * INVALID.len() as u64;
/// The case [`rerun_one_case`] checks.
const RERUN: u64 = 0;
/// Measured cycles per run. The 8×8 mesh runs every phase a third as
/// long, which keeps its node-cycles near the 16-node fabrics'.
const MEASUREMENT: u64 = 300;
/// Longer than any case's run: the armed watchdog observes every cycle and
/// never trips.
const WATCHDOG: u64 = 10_000;

const ROUTINGS: [RoutingSpec; 13] = [
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

/// The six synthetic patterns, Figure 2, the Table 3 hotspot (its
/// background rate is drawn) and a PARSEC pair (its apps are drawn).
const TRAFFIC: [TrafficSpec; 9] = [
    TrafficSpec::UniformRandom,
    TrafficSpec::Transpose,
    TrafficSpec::Shuffle,
    TrafficSpec::BitComplement,
    TrafficSpec::BitReverse,
    TrafficSpec::Tornado,
    TrafficSpec::Figure2,
    TrafficSpec::PAPER_HOTSPOT,
    TrafficSpec::ParsecPair(App::Canneal, App::X264),
];

/// Every spec but the hotspot, whose Table 3 flows need the 8×8 mesh.
const FABRICS: [&str; 3] = ["mesh:4x4", "torus:4x4", "ring:8"];

/// Each dimension and its number of values, all of which [`valid_half`]
/// requires among the cases that ejected packets.
const DIMENSIONS: [(&str, usize); 14] = [
    ("fabric", FABRICS.len() + 1),
    ("routing", ROUTINGS.len()),
    ("vcs", 6),
    ("depth", 4),
    ("speedup", 2),
    ("link latency", 3),
    ("traffic", TRAFFIC.len()),
    ("packet size", 2),
    ("warmup", 2),
    ("drain", 2),
    ("modulation", 7),
    ("tenants", 3),
    ("faults", 5),
    ("unreachable", 3),
];

/// One drawn configuration and how to execute it.
#[derive(Debug, Clone)]
struct Case {
    builder: SimulationBuilder,
    rates: [f64; 2],
    faults: FaultPlan,
    policy: UnreachablePolicy,
    /// The drawn value of each of [`DIMENSIONS`].
    labels: Vec<(&'static str, String)>,
}

/// splitmix64 over `(i, salt)`: the case's private random stream.
fn mix(i: u64, salt: u64) -> u64 {
    let mut z = i
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw in `[0, 1)`.
fn unit(i: u64, salt: u64) -> f64 {
    (mix(i, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// The value of an `n`-valued dimension at case `i`: every block of `n`
/// consecutive cases visits all `n` values, and successive blocks shift by
/// `k`, so dimensions of equal size do not move in lockstep.
fn pick(i: u64, n: usize, k: u64) -> usize {
    let n = n as u64;
    ((i % n + (i / n) * k) % n) as usize
}

fn validate(fabric: TopologySpec) -> AnyTopology {
    fabric.validate().expect("drawn fabrics are valid")
}

/// `true` when `routing` and `traffic` both run on `fabric`.
fn hosts(fabric: TopologySpec, routing: RoutingSpec, traffic: TrafficSpec) -> bool {
    let topo = validate(fabric);
    let wraps_ok = !topo.wraps() || routing.routing().wrap_strategy() != WrapStrategy::Unsupported;
    wraps_ok && traffic.pattern().is_none_or(|p| p.check(topo).is_ok())
}

fn on_off(on: DurationDist, off: DurationDist) -> ModulationSpec {
    ModulationSpec::OnOff { on, off }
}

/// Case `i` of the valid half.
fn valid_case(i: u64) -> Case {
    let routing = ROUTINGS[pick(i, ROUTINGS.len(), 1)];
    let traffic = match TRAFFIC[pick(i, TRAFFIC.len(), 2)] {
        TrafficSpec::Hotspot { .. } => TrafficSpec::Hotspot { background_rate: 0.05 + 0.25 * unit(i, 1) },
        TrafficSpec::ParsecPair(..) => {
            TrafficSpec::ParsecPair(APPS[(mix(i, 2) % 9) as usize], APPS[(mix(i, 3) % 9) as usize])
        }
        t => t,
    };
    let fault_kind = pick(i, 5, 0);
    let fabric = if matches!(traffic, TrafficSpec::Hotspot { .. }) {
        TopologySpec::mesh(8)
    } else {
        // A dateline cut needs wraparound links: try the torus first.
        let first = if fault_kind == 4 { 1 } else { pick(i, FABRICS.len(), 1) };
        (0..FABRICS.len())
            .map(|k| FABRICS[(first + k) % FABRICS.len()].parse().expect("fabric parses"))
            .find(|&f| hosts(f, routing, traffic))
            .expect("the 4x4 mesh hosts every spec")
    };
    let topo = validate(fabric);
    let min_vcs = routing.routing().min_vcs_on(topo);
    let vcs = min_vcs + pick(i, 6, 5) % (7 - min_vcs);
    let (depth, speedup, link) = (1 + pick(i, 4, 1), 1 + pick(i, 2, 1), 1 + pick(i, 3, 2));
    let size = [PacketSize::SINGLE, PacketSize::PAPER_VARIABLE][pick(i, 2, 0)];
    let (warmup, drain) = [(0, 0), (100, 0), (0, 200), (100, 200)][pick(i, 4, 3)];
    let scale = if topo.len() > 16 { 3 } else { 1 };
    let low = 0.02 + 0.23 * unit(i, 4);
    let rates = [low, low + (0.5 - low) * (0.1 + 0.9 * unit(i, 5))];
    let (modulation_label, modulation) = match pick(i, 7, 3) {
        0 => ("steady", ModulationSpec::Steady),
        1 => ("on/off fixed", on_off(DurationDist::Fixed(40), DurationDist::Fixed(60))),
        2 => (
            "on/off uniform",
            on_off(DurationDist::Uniform { min: 10, max: 90 }, DurationDist::Uniform { min: 20, max: 60 }),
        ),
        3 => (
            "on/off geometric",
            on_off(DurationDist::Geometric { mean: 30.0 }, DurationDist::Geometric { mean: 60.0 }),
        ),
        // Off ≥ 8× on: stretches with no router busy, then a simultaneous
        // wake — the active-set scheduler's adversarial case.
        4 => ("long off", on_off(DurationDist::Fixed(30), DurationDist::Fixed(240))),
        5 => ("ramp", ModulationSpec::Ramp { from: 0.1, to: 1.0, over: 250 }),
        _ => ("piecewise", ModulationSpec::Piecewise(vec![(0, 1.0), (120, 0.2), (240, 0.9)])),
    };
    let tenant_count = [0, 2, 3][pick(i, 3, 1)];
    let share = rates[0] / 3.0;
    let mut tenants = vec![
        TenantSpec::new("lead", traffic, share).modulation(modulation.clone()),
        TenantSpec::new("uniform", TrafficSpec::UniformRandom, share)
            .modulation(on_off(DurationDist::Geometric { mean: 40.0 }, DurationDist::Geometric { mean: 40.0 })),
        TenantSpec::new("tornado", TrafficSpec::Tornado, share),
    ];
    tenants.truncate(tenant_count);
    let h = mix(i, 6);
    let (at, until) = (40 + h % 100, 140 + h % 100 + h % 97);
    let node = NodeId((h % topo.len() as u64) as u16);
    let (faults_label, faults) = match fault_kind {
        0 => ("none", FaultPlan::new()),
        1 => {
            let dir = DIRECTIONS.into_iter().find(|&d| topo.neighbor(node, d).is_some());
            let event = FaultEvent::link_down(node, dir.expect("every node has a link"), at);
            ("link", FaultPlan::new().with(event.repaired_at(until)))
        }
        2 => ("router", FaultPlan::new().with(FaultEvent::router_down(node, at).repaired_at(until))),
        4 if topo.wraps() => {
            ("dateline", FaultPlan::random_link_faults_biased(topo, 1, 0, h).expect("the fabric wraps"))
        }
        _ => ("random", FaultPlan::random_link_faults(topo, 1 + (h % 2) as usize, h)),
    };
    let policy = [
        UnreachablePolicy::Drop,
        UnreachablePolicy::Retry { max_attempts: 4, backoff: 16 },
        UnreachablePolicy::Error,
    ][pick(i, 3, 2)];
    let labels = vec![
        ("fabric", fabric.to_string()),
        ("routing", routing.name().to_string()),
        ("vcs", vcs.to_string()),
        ("depth", depth.to_string()),
        ("speedup", speedup.to_string()),
        ("link latency", link.to_string()),
        ("traffic", if matches!(traffic, TrafficSpec::ParsecPair(..)) { "parsec".into() } else { traffic.name() }),
        ("packet size", format!("{size:?}")),
        ("warmup", warmup.to_string()),
        ("drain", drain.to_string()),
        ("modulation", modulation_label.to_string()),
        ("tenants", tenant_count.to_string()),
        ("faults", faults_label.to_string()),
        ("unreachable", format!("{policy:?}")),
    ];
    let builder = SimulationBuilder::paper_default()
        .topology(fabric)
        .vcs(vcs)
        .buffer_depth(depth)
        .speedup(speedup)
        .link_latency(link)
        .routing(routing)
        .traffic(traffic)
        .packet_size(size)
        .injection_rate(rates[1])
        .warmup(warmup / scale)
        .measurement(MEASUREMENT / scale)
        .drain(drain / scale)
        .seed(mix(i, 0))
        .modulation(modulation)
        .tenants(tenants);
    Case { builder, rates, faults, policy, labels }
}

/// Checks valid case `i`; returns it with its reference run's ejected
/// packets (0 when the configuration ends in a typed error).
fn check_valid(i: u64) -> (Case, u64) {
    let case = valid_case(i);
    let sweep = |scheduler: Scheduler, threads: usize, armed: bool| {
        let opts = SweepOptions::new()
            .scheduler(scheduler)
            .threads(threads)
            .sentinel(armed)
            .faults(case.faults.clone())
            .on_unreachable(case.policy);
        let opts = if armed { opts.watchdog(WATCHDOG) } else { opts };
        format!("{:?}", case.builder.sweep_with(&case.rates, opts))
    };
    let reference = sweep(Scheduler::Dense, 1, false);
    for (scheduler, threads) in [(Scheduler::Dense, 1), (Scheduler::Active, 1), (Scheduler::Dense, 4), (Scheduler::Active, 4)] {
        let armed = sweep(scheduler, threads, true);
        assert!(
            reference == armed,
            "case {i}: armed sweep under {scheduler:?} × {threads} thread(s) diverged from the \
             reference\nreference: {reference}\narmed:     {armed}\n{case:#?}"
        );
    }
    let run = |opts: RunOptions| {
        case.builder.run_with(opts.faults(case.faults.clone()).on_unreachable(case.policy))
    };
    let plain = run(RunOptions::new().scheduler(Scheduler::Dense).sentinel(false));
    let mut probe = LatencyHistogramProbe::new(8, 64);
    let armed = run(RunOptions::new()
        .scheduler(Scheduler::Active)
        .sentinel(true)
        .watchdog(WATCHDOG)
        .probe(&mut probe));
    let (plain_text, armed_text) = (format!("{plain:?}"), format!("{armed:?}"));
    assert!(
        plain_text == armed_text,
        "case {i}: the armed Active run diverged from the plain Dense run\n\
         plain: {plain_text}\narmed: {armed_text}\n{case:#?}"
    );
    let ejected = plain.map_or(0, |r| r.latency.ejected_packets);
    (case, ejected)
}

/// The valid half: every case matches its reference in every cell, and
/// every value of every dimension appears in a case that ejected packets.
#[test]
fn valid_half() {
    // Workers take alternate cases; a failing case panics its worker, and
    // with it the scope.
    let covered: BTreeSet<(&str, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    (w..VALID_CASES)
                        .step_by(WORKERS as usize)
                        .map(check_valid)
                        .filter(|&(_, ejected)| ejected > 0)
                        .flat_map(|(case, _)| case.labels)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker finished")).collect()
    });
    for (dim, values) in DIMENSIONS {
        let seen: Vec<&String> = covered.iter().filter(|(d, _)| *d == dim).map(|(_, v)| v).collect();
        assert_eq!(seen.len(), values, "{dim}: only {seen:?} appear in cases that ejected packets");
    }
}

/// Reruns case [`RERUN`] of the valid half alone.
#[test]
#[ignore = "a debugging aid: set RERUN to the failing case's index"]
fn rerun_one_case() {
    check_valid(RERUN);
}

/// The drawn case as a lone uniform spec, the kind a rate or packet size
/// applies to (a PARSEC pair sets its own load and sizes).
fn lone(c: &Case) -> SimulationBuilder {
    c.builder.clone().tenants(Vec::new()).traffic(TrafficSpec::UniformRandom)
}

/// One broken dimension: its name and how to break a drawn case. The case
/// reaches it with an empty fault plan, so the broken value is the only
/// thing wrong.
type Breaker = fn(&mut Case);

const INVALID: [(&str, Breaker); 22] = [
    ("rate > 1", |c| c.builder = lone(c).injection_rate(1.5)),
    ("rate < 0", |c| c.builder = lone(c).injection_rate(-0.2)),
    ("rate NaN", |c| c.builder = lone(c).injection_rate(f64::NAN)),
    ("hotspot background > 1", |c| {
        c.builder = lone(c).topology(TopologySpec::mesh(8)).traffic(TrafficSpec::Hotspot { background_rate: 1.5 })
    }),
    ("hotspot background < 0", |c| {
        c.builder = lone(c).topology(TopologySpec::mesh(8)).traffic(TrafficSpec::Hotspot { background_rate: -0.3 })
    }),
    ("tenant rates over 1", |c| {
        c.builder = c.builder.clone().tenants(vec![
            TenantSpec::new("a", TrafficSpec::UniformRandom, 0.6),
            TenantSpec::new("b", TrafficSpec::Tornado, 0.7),
        ])
    }),
    ("0 VCs", |c| c.builder = c.builder.clone().vcs(0)),
    ("65 VCs", |c| c.builder = c.builder.clone().vcs(65)),
    // Footprint needs an escape VC plus an adaptive one on every fabric.
    ("VCs below the spec's minimum", |c| c.builder = c.builder.clone().routing(RoutingSpec::Footprint).vcs(1)),
    ("depth 0", |c| c.builder = c.builder.clone().buffer_depth(0)),
    ("speedup 0", |c| c.builder = c.builder.clone().speedup(0)),
    ("link latency 0", |c| c.builder = c.builder.clone().link_latency(0)),
    ("1x1 mesh", |c| c.builder = c.builder.clone().topology(TopologySpec::Mesh { width: 1, height: 1 })),
    ("2-node ring", |c| c.builder = c.builder.clone().topology(TopologySpec::ring(2))),
    ("pattern the fabric cannot host", |c| {
        c.builder = lone(c).topology(TopologySpec::mesh(6)).traffic(TrafficSpec::Shuffle)
    }),
    ("packet size 0", |c| c.builder = lone(c).packet_size(PacketSize::Fixed(0))),
    ("packet size lo > hi", |c| c.builder = lone(c).packet_size(PacketSize::Uniform { lo: 4, hi: 2 })),
    ("packet size lo 0", |c| c.builder = lone(c).packet_size(PacketSize::Uniform { lo: 0, hi: 3 })),
    ("invalid modulation", |c| {
        c.builder = lone(c).modulation(on_off(DurationDist::Fixed(0), DurationDist::Fixed(10)))
    }),
    ("fault plan outside the fabric", |c| {
        c.faults = FaultPlan::new().with(FaultEvent::router_down(NodeId(4096), 10))
    }),
    ("XORDET on a wrapping fabric", |c| {
        c.builder = lone(c).topology(TopologySpec::torus(4)).routing(RoutingSpec::DbarXordet).vcs(6)
    }),
    ("VOQ_sw on a wrapping fabric", |c| {
        c.builder = lone(c).topology(TopologySpec::ring(8)).routing(RoutingSpec::DorVoqSw).vcs(6)
    }),
];

/// One broken option: its name, the watchdog threshold and the sweep grid.
const INVALID_OPTIONS: [(&str, u64, &[f64]); 4] = [
    ("watchdog 0", 0, &[0.1, 0.2]),
    ("grid descends", WATCHDOG, &[0.2, 0.1]),
    ("grid repeats", WATCHDOG, &[0.1, 0.1]),
    ("grid holds NaN", WATCHDOG, &[0.1, f64::NAN]),
];

/// The invalid half: each broken value makes `build_with` and a short
/// `run_with` return the same typed configuration error, never unwind; each
/// broken option is a typed error before any work, never an unwind.
#[test]
fn invalid_half() {
    for i in 0..INVALID_CASES {
        let (what, breaker) = INVALID[i as usize % INVALID.len()];
        let mut case = valid_case(i);
        case.faults = FaultPlan::new();
        breaker(&mut case);
        let built = catch_unwind(AssertUnwindSafe(|| {
            case.builder.build_with(case.faults.clone(), case.policy).map(drop)
        }));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let opts = RunOptions::new().faults(case.faults.clone()).on_unreachable(case.policy);
            case.builder.clone().warmup(10).measurement(20).drain(0).run_with(opts).map(drop)
        }));
        match (built, ran) {
            (Ok(Err(build)), Ok(Err(RunError::Config(run)))) => {
                assert_eq!(build, run, "case {i} ({what}): build_with and run_with disagree\n{case:#?}")
            }
            (built, ran) => panic!(
                "case {i} ({what}): expected one typed config error, got build_with {:?} and \
                 run_with {:?}\n{case:#?}",
                built.map_err(|_| "a panic"),
                ran.map_err(|_| "a panic"),
            ),
        }
    }
    for i in 0..2 * INVALID_OPTIONS.len() as u64 {
        let (what, watchdog, rates) = INVALID_OPTIONS[i as usize % INVALID_OPTIONS.len()];
        let builder = valid_case(i).builder.warmup(10).measurement(20).drain(0);
        let journal = std::env::temp_dir()
            .join(format!("footprint-differential-{}-{i}.journal", std::process::id()));
        let swept = catch_unwind(AssertUnwindSafe(|| {
            let opts = SweepOptions::new().watchdog(watchdog).checkpoint(&journal);
            builder.sweep_with(rates, opts).map(drop)
        }));
        let opened = journal.exists();
        let _ = std::fs::remove_file(&journal);
        assert!(
            matches!(swept, Ok(Err(RunError::Config(_)))) && !opened,
            "case {i} ({what}): expected sweep_with to refuse before opening its journal, got \
             {:?} (journal opened: {opened})",
            swept.map_err(|_| "a panic"),
        );
        if watchdog == 0 {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                builder.run_with(RunOptions::new().watchdog(watchdog)).map(drop)
            }));
            assert!(
                matches!(ran, Ok(Err(RunError::Config(_)))),
                "case {i} ({what}): expected a typed error from run_with, got {:?}",
                ran.map_err(|_| "a panic"),
            );
        }
    }
}

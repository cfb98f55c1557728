//! The five workloads: what each op runs, spelled out field by field.
//!
//! A workload is a fixed, ordered list of ops; one op is one `run_with` or
//! one `sweep_with` call. Nothing here depends on a builder default: a
//! later change to `SimulationBuilder::paper_default` must not change what
//! the benchmark measures.

use footprint_core::{
    App, DurationDist, FaultEvent, FaultPlan, ModulationSpec, PacketSize, RoutingSpec, SimConfig,
    SimulationBuilder, TenantSpec, TrafficSpec, UnreachablePolicy,
};
use footprint_topology::{Direction, NodeId, TopologySpec};

/// Every phase length and fault time below is the issue's figure times
/// 2/5: the driver's time cap leaves one run about fifteen seconds, and the
/// full-length repetitions (2–5 s each) would fit fewer than the three a
/// median needs. Repetitions were cut first, then every length by the same
/// factor.
pub const SCALE: (u64, u64) = (2, 5);

const fn scaled(cycles: u64) -> u64 {
    cycles * SCALE.0 / SCALE.1
}

/// The `idle_low` op that the traced pass runs once more under
/// `Scheduler::Dense`, for `sim.sched.dense_over_active`.
pub const DENSE_REFERENCE_OP: &str = "mesh16_uni02_footprint";

/// The offered loads of every `sweep_campaign` op.
pub const SWEEP_RATES: [f64; 8] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40];

/// One fully explicit single-run configuration (the seed comes from the
/// harness).
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub topology: TopologySpec,
    pub vcs: usize,
    pub depth: usize,
    pub speedup: usize,
    pub link_latency: usize,
    pub routing: RoutingSpec,
    pub traffic: TrafficSpec,
    pub packet_size: PacketSize,
    pub rate: f64,
    pub modulation: ModulationSpec,
    pub tenants: Vec<TenantSpec>,
    pub warmup: u64,
    pub measurement: u64,
    pub drain: u64,
    pub faults: FaultPlan,
    pub on_unreachable: UnreachablePolicy,
}

impl RunSpec {
    /// The paper's Table 2 router on an 8×8 mesh with single-flit packets,
    /// no modulation, tenants, drain or faults.
    fn paper(routing: RoutingSpec, traffic: TrafficSpec, rate: f64, phases: (u64, u64)) -> Self {
        RunSpec {
            topology: TopologySpec::mesh(8),
            vcs: 10,
            depth: 4,
            speedup: 2,
            link_latency: 1,
            routing,
            traffic,
            packet_size: PacketSize::SINGLE,
            rate,
            modulation: ModulationSpec::Steady,
            tenants: Vec::new(),
            warmup: scaled(phases.0),
            measurement: scaled(phases.1),
            drain: 0,
            faults: FaultPlan::new(),
            on_unreachable: UnreachablePolicy::Drop,
        }
    }

    /// Whole-run measurement drained to quiescence — the only shape in
    /// which `FaultStats::fully_accounted` is meaningful.
    fn whole_run_drained(mut self) -> Self {
        self.drain = self.measurement;
        self.warmup = 0;
        self
    }

    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            topology: self.topology,
            num_vcs: self.vcs,
            vc_buffer_depth: self.depth,
            speedup: self.speedup,
            link_latency: self.link_latency,
        }
    }

    /// The builder for this configuration, every field set.
    pub fn builder(&self, seed: u64) -> SimulationBuilder {
        SimulationBuilder::paper_default()
            .topology(self.topology)
            .vcs(self.vcs)
            .buffer_depth(self.depth)
            .speedup(self.speedup)
            .link_latency(self.link_latency)
            .routing(self.routing)
            .traffic(self.traffic)
            .packet_size(self.packet_size)
            .injection_rate(self.rate)
            .modulation(self.modulation.clone())
            .tenants(self.tenants.clone())
            .warmup(self.warmup)
            .measurement(self.measurement)
            .drain(self.drain)
            .seed(seed)
    }

    /// Cycles one run of this configuration steps.
    pub fn cycles(&self) -> u64 {
        self.warmup + self.measurement + self.drain
    }

    /// `true` when the run must close its books: a fault plan or tenants.
    pub fn accounted(&self) -> bool {
        !self.faults.is_empty() || !self.tenants.is_empty()
    }
}

/// What a single-run op attaches on top of its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extras {
    None,
    /// `sentinel(true).watchdog(20000)`.
    Audited,
    /// `TimelineProbe` stride 100 + `EventTrace` capacity 65536.
    Probed,
}

/// Which execution machinery a sweep op exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `threads(1)`: the sequential reference.
    T1,
    /// `threads(2)`: the worker pool.
    T2,
    /// `threads(1).ensemble(4)`, no cache: lockstep lanes.
    Lanes,
    /// `threads(1).snapshot_cache(fresh dir)`: every point misses and stores.
    CacheCold,
    /// The same directory again: every point restores its warm state.
    CacheWarm,
    /// `threads(1).checkpoint(fresh file)`: every point journaled.
    Journal,
    /// The same finished journal again: nothing left to simulate.
    Resume,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run(Extras),
    Sweep(Sweep),
}

/// One op of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    pub name: &'static str,
    pub spec: RunSpec,
    pub kind: Kind,
    /// The op repeats the previous op's configuration under different
    /// machinery and takes its seed, so the pair differs in nothing else.
    pub paired: bool,
}

impl Op {
    fn run(name: &'static str, spec: RunSpec) -> Op {
        Op {
            name,
            spec,
            kind: Kind::Run(Extras::None),
            paired: false,
        }
    }

    /// The previous op's configuration again, with `extras` attached.
    fn paired_run(name: &'static str, spec: RunSpec, extras: Extras) -> Op {
        Op {
            name,
            spec,
            kind: Kind::Run(extras),
            paired: true,
        }
    }

    /// Cycles the op actually steps. Cycles restored from a snapshot or a
    /// journal are not simulated and not counted.
    pub fn cycles_stepped(&self) -> u64 {
        let points = SWEEP_RATES.len() as u64;
        match self.kind {
            Kind::Run(_) => self.spec.cycles(),
            Kind::Sweep(Sweep::CacheWarm) => points * self.spec.measurement,
            Kind::Sweep(Sweep::Resume) => 0,
            Kind::Sweep(_) => points * self.spec.cycles(),
        }
    }

    /// `true` when the traced pass can drive the op cycle by cycle with
    /// wrapped traits: a plain single run without tenants (their accounting
    /// probe lives inside `core`), or the sequential sweep, whose points
    /// are plain single runs.
    pub fn hand_driven(&self) -> bool {
        match self.kind {
            Kind::Run(extras) => extras == Extras::None && self.spec.tenants.is_empty(),
            Kind::Sweep(sweep) => sweep == Sweep::T1,
        }
    }
}

/// A named workload and why it exists (the `why` of `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ops: fn() -> Vec<Op>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady_mid",
        why: "below saturation at load 0.30: the flit datapath does most of the work and routing runs once per head",
        ops: steady_mid,
    },
    Workload {
        name: "saturated",
        why: "past saturation at load 0.55: thousands of blocked heads re-route every cycle, so routing and VC allocation dominate",
        ops: saturated,
    },
    Workload {
        name: "idle_low",
        why: "load 0.02 and long off-phases on 16x16 and 8x8: per-cycle fixed costs (generation loop, wire scan, scheduler) dominate",
        ops: idle_low,
    },
    Workload {
        name: "sweep_campaign",
        why: "one 8-point curve through threads, lanes, snapshot cache and journal: only the core layer differs between ops",
        ops: sweep_campaign,
    },
    Workload {
        name: "scenario_mix",
        why: "torus, ring, faults with retry, tenants, trace workload, sentinel and probes: a gain bought for the plain mesh at another use's expense shows",
        ops: scenario_mix,
    },
];

use RoutingSpec::{Dbar, Dor, Footprint, OddEven};
use TrafficSpec::{Shuffle, Tornado, Transpose, UniformRandom};

fn steady_mid() -> Vec<Op> {
    let at = |routing, traffic| RunSpec::paper(routing, traffic, 0.30, (1000, 4000));
    vec![
        Op::run("uni_footprint", at(Footprint, UniformRandom)),
        Op::run("uni_dbar", at(Dbar, UniformRandom)),
        Op::run("uni_odd_even", at(OddEven, UniformRandom)),
        Op::run("uni_dor", at(Dor, UniformRandom)),
        Op::run("transpose_footprint", at(Footprint, Transpose)),
        Op::run("shuffle_footprint", at(Footprint, Shuffle)),
        // Body flits use the datapath without the router's route stage.
        Op::run(
            "uni_footprint_varsize",
            RunSpec {
                packet_size: PacketSize::PAPER_VARIABLE,
                ..at(Footprint, UniformRandom)
            },
        ),
    ]
}

fn saturated() -> Vec<Op> {
    let at = |routing| RunSpec::paper(routing, UniformRandom, 0.55, (1000, 1500));
    vec![
        Op::run("uni55_footprint", at(Footprint)),
        Op::run("uni55_dbar", at(Dbar)),
        Op::run("uni55_odd_even", at(OddEven)),
        Op::run("uni55_dor", at(Dor)),
        // Figure 9: the rate drives the hotspot flows over a 0.30 background.
        Op::run(
            "hotspot_footprint",
            RunSpec::paper(Footprint, TrafficSpec::PAPER_HOTSPOT, 0.50, (1000, 1500)),
        ),
    ]
}

fn idle_low() -> Vec<Op> {
    let at = |routing, rate| RunSpec::paper(routing, UniformRandom, rate, (1000, 19000));
    // 16×16: four times the 8×8's state, outside L2.
    let mesh16 = |rate| RunSpec {
        topology: TopologySpec::mesh(16),
        ..at(Footprint, rate)
    };
    vec![
        Op::run(DENSE_REFERENCE_OP, mesh16(0.02)),
        // Long sleeps and wake-ups: a tenth of the nodes on at any time.
        Op::run(
            "mesh16_onoff_footprint",
            RunSpec {
                modulation: ModulationSpec::OnOff {
                    on: DurationDist::Geometric { mean: 50.0 },
                    off: DurationDist::Geometric { mean: 450.0 },
                },
                ..mesh16(0.10)
            },
        ),
        Op::run("mesh8_uni02_footprint", at(Footprint, 0.02)),
        Op::run("mesh8_uni02_dor", at(Dor, 0.02)),
    ]
}

fn sweep_campaign() -> Vec<Op> {
    let sweep = |name, sweep| Op {
        name,
        // The rate is overridden per point.
        spec: RunSpec::paper(Footprint, UniformRandom, SWEEP_RATES[0], (500, 1500)),
        kind: Kind::Sweep(sweep),
        // One seed for all seven, or their curves could not be equal.
        paired: sweep != Sweep::T1,
    };
    vec![
        sweep("sweep_t1", Sweep::T1),
        sweep("sweep_t2", Sweep::T2),
        sweep("sweep_lanes", Sweep::Lanes),
        sweep("sweep_cache_cold", Sweep::CacheCold),
        sweep("sweep_cache_warm", Sweep::CacheWarm),
        sweep("sweep_journal", Sweep::Journal),
        sweep("sweep_resume", Sweep::Resume),
    ]
}

fn scenario_mix() -> Vec<Op> {
    let at = |routing, traffic, rate| RunSpec::paper(routing, traffic, rate, (1000, 4000));
    let tornado = RunSpec {
        topology: TopologySpec::torus(8),
        ..at(Footprint, Tornado, 0.25)
    };
    let plain = at(Footprint, UniformRandom, 0.30);
    vec![
        Op::run("torus_tornado", tornado.clone()),
        Op::paired_run("torus_tornado_audited", tornado, Extras::Audited),
        Op::run(
            "ring_uniform",
            RunSpec {
                topology: TopologySpec::ring(16),
                ..at(Dor, UniformRandom, 0.10)
            },
        ),
        // One link down for good, one repaired mid-run; packets cut off
        // from their destination wait at the source and retry.
        Op::run(
            "mesh_faults_retry",
            RunSpec {
                faults: FaultPlan::new()
                    .with(FaultEvent::link_down(NodeId(36), Direction::North, 0))
                    .with(
                        FaultEvent::link_down(NodeId(27), Direction::East, scaled(500))
                            .repaired_at(scaled(3000)),
                    ),
                on_unreachable: UnreachablePolicy::Retry {
                    max_attempts: 4,
                    backoff: 16,
                },
                ..at(Dbar, UniformRandom, 0.25).whole_run_drained()
            },
        ),
        Op::run(
            "tenants_bursty",
            RunSpec {
                tenants: vec![
                    TenantSpec::new("web", UniformRandom, 0.20).modulation(ModulationSpec::OnOff {
                        on: DurationDist::Geometric { mean: 40.0 },
                        off: DurationDist::Geometric { mean: 40.0 },
                    }),
                    TenantSpec::new("batch", Transpose, 0.08),
                ],
                ..at(Footprint, UniformRandom, 0.28).whole_run_drained()
            },
        ),
        // The stateful trace workload sets its own load; the rate is unused.
        Op::run(
            "parsec_pair",
            at(
                Footprint,
                TrafficSpec::ParsecPair(App::Fluidanimate, App::Bodytrack),
                0.10,
            ),
        ),
        Op::run("plain_reference", plain.clone()),
        Op::paired_run("probed_timeline", plain, Extras::Probed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lists_are_the_documented_sizes() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| (w.ops)().len()).collect();
        assert_eq!(sizes, [7, 5, 4, 7, 8]);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|w| (w.ops)())
            .map(|op| op.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn paired_ops_follow_the_op_they_repeat() {
        for w in &WORKLOADS {
            let ops = (w.ops)();
            assert!(!ops[0].paired, "{}", w.name);
        }
        let paired = |ops: Vec<Op>| -> Vec<&str> {
            ops.iter().filter(|o| o.paired).map(|o| o.name).collect()
        };
        assert_eq!(
            paired(scenario_mix()),
            ["torus_tornado_audited", "probed_timeline"]
        );
        assert_eq!(paired(sweep_campaign()).len(), 6);
        assert!(paired(steady_mid()).is_empty());
    }

    #[test]
    fn every_workload_has_a_hand_driven_op() {
        for w in &WORKLOADS {
            assert!((w.ops)().iter().any(Op::hand_driven), "{}", w.name);
        }
    }

    #[test]
    fn only_simulated_cycles_are_counted() {
        let ops = sweep_campaign();
        let point = scaled(500) + scaled(1500);
        let by_name = |name: &str| {
            ops.iter()
                .find(|o| o.name == name)
                .unwrap()
                .cycles_stepped()
        };
        assert_eq!(by_name("sweep_t1"), 8 * point);
        assert_eq!(by_name("sweep_cache_cold"), 8 * point);
        assert_eq!(by_name("sweep_cache_warm"), 8 * scaled(1500));
        assert_eq!(by_name("sweep_resume"), 0);
        let faults = scenario_mix().remove(3);
        assert_eq!(faults.name, "mesh_faults_retry");
        assert_eq!(faults.spec.warmup, 0);
        assert_eq!(faults.cycles_stepped(), 2 * scaled(4000));
        assert!(faults.spec.accounted());
    }

    #[test]
    fn every_configuration_builds() {
        for w in &WORKLOADS {
            for op in (w.ops)() {
                let built = op
                    .spec
                    .builder(1)
                    .build_with(op.spec.faults.clone(), op.spec.on_unreachable);
                assert!(built.is_ok(), "{}: {:?}", op.name, built.err());
            }
        }
    }
}

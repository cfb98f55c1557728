//! Dynamic-workload modulation: on/off (bursty) gating, linear rate ramps
//! and piecewise schedules.
//!
//! Every source elsewhere in this crate is a *stationary* Bernoulli
//! process; the paper's headline claim — regulated adaptiveness pays off
//! under **transient** congestion — needs sources whose offered load moves
//! over time. A [`Modulation`] is a gate a [`Tenant`](crate::Tenant) keeps
//! beside its source, not a wrapper around it, and scales the source's
//! injection probability by a time-varying factor in `[0, 1]`:
//!
//! * [`ModulationSpec::OnOff`] — alternate between full rate and silence
//!   with per-node seeded on/off durations (the FlowForge "toggler" shape).
//! * [`ModulationSpec::Ramp`] — linear scale from one factor to another
//!   over a cycle span (then hold).
//! * [`ModulationSpec::Piecewise`] — an explicit step schedule.
//!
//! # Determinism: poll first, thin second
//!
//! The network's generation loop is dense in every scheduler mode: every
//! source is polled for every node on every cycle from the shared
//! simulation RNG (see [`Workload`](footprint_sim::Workload)). The gate
//! keeps that contract: [`Modulation::admit`] runs only *after* the source
//! has drawn, so the shared-stream consumption per call is the source's
//! alone whatever the scale. When the scale is fractional the gate *thins*
//! the source with an accept-coin from its **own per-node RNG**; when it is
//! zero it drops the packet without drawing at all. Gate state advances as
//! a pure function of the cycle number, so a source waking after a long
//! off-period produces the same packets whether the active-set scheduler
//! skipped its idle routers or not, and whether the sweep ran on one
//! thread or eight.
//!
//! Thinning is exact: accepting a Bernoulli(`p`) event with an independent
//! Bernoulli(`s`) coin yields Bernoulli(`s·p`), so a 50%-duty on/off source
//! at rate `r` offers mean load `r/2`.

use footprint_sim::NewPacket;
use footprint_topology::{splitmix64, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A distribution over phase durations (in cycles) for on/off gating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationDist {
    /// Every phase lasts exactly this many cycles.
    Fixed(u64),
    /// Durations drawn uniformly from `min..=max`.
    Uniform {
        /// Shortest phase, ≥ 1.
        min: u64,
        /// Longest phase, ≥ `min`.
        max: u64,
    },
    /// Geometric durations with the given mean (memoryless bursts — the
    /// classic two-state Markov-modulated process).
    Geometric {
        /// Mean phase length in cycles, ≥ 1.
        mean: f64,
    },
}

impl DurationDist {
    /// Validates the distribution parameters.
    pub fn validate(self) -> Result<(), ModulationError> {
        match self {
            DurationDist::Fixed(0) => Err(ModulationError::ZeroDuration),
            DurationDist::Uniform { min, max } if min == 0 || max < min => {
                Err(ModulationError::BadUniform { min, max })
            }
            DurationDist::Geometric { mean } if !mean.is_finite() || mean < 1.0 => {
                Err(ModulationError::BadGeometricMean(mean))
            }
            _ => Ok(()),
        }
    }

    /// The mean phase duration in cycles.
    pub fn mean(self) -> f64 {
        match self {
            DurationDist::Fixed(n) => n as f64,
            DurationDist::Uniform { min, max } => (min + max) as f64 / 2.0,
            DurationDist::Geometric { mean } => mean,
        }
    }

    /// Draws a phase duration (always ≥ 1 cycle).
    fn sample(self, rng: &mut SmallRng) -> u64 {
        match self {
            DurationDist::Fixed(n) => n,
            DurationDist::Uniform { min, max } => rng.gen_range(min..=max),
            DurationDist::Geometric { mean } => {
                // Inversion: ceil(ln U / ln(1 - 1/mean)) is Geometric with
                // the given mean; mean == 1.0 degenerates to constant 1.
                if mean <= 1.0 {
                    return 1;
                }
                let u: f64 = rng.gen_range(0.0..1.0);
                let q = 1.0 - 1.0 / mean;
                let d = (1.0 - u).ln() / q.ln();
                (d.ceil() as u64).clamp(1, u64::MAX / 4)
            }
        }
    }
}

/// A time-varying injection-scale schedule applied by a [`Modulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModulationSpec {
    /// No modulation: the source passes through untouched.
    Steady,
    /// Two-state bursting: alternate between full rate (scale 1) and
    /// silence (scale 0) with independently drawn phase durations per
    /// node. The initial state is randomized per node with probability
    /// equal to the duty cycle, so an ensemble of sources starts in
    /// steady-state rather than synchronized bursts.
    OnOff {
        /// On-phase duration distribution.
        on: DurationDist,
        /// Off-phase duration distribution.
        off: DurationDist,
    },
    /// Linear scale from `from` to `to` over the first `over` cycles,
    /// holding `to` afterwards. Scales are in `[0, 1]`.
    Ramp {
        /// Initial injection scale.
        from: f64,
        /// Final injection scale.
        to: f64,
        /// Ramp length in cycles, ≥ 1.
        over: u64,
    },
    /// Explicit step schedule: `(start_cycle, scale)` pairs with strictly
    /// increasing start cycles, the first at cycle 0. Each scale holds
    /// until the next entry's start cycle.
    Piecewise(Vec<(u64, f64)>),
}

impl ModulationSpec {
    /// Validates schedule parameters.
    pub fn validate(&self) -> Result<(), ModulationError> {
        match self {
            ModulationSpec::Steady => Ok(()),
            ModulationSpec::OnOff { on, off } => {
                on.validate()?;
                off.validate()
            }
            ModulationSpec::Ramp { from, to, over } => {
                for s in [*from, *to] {
                    if !(0.0..=1.0).contains(&s) {
                        return Err(ModulationError::ScaleOutOfRange(s));
                    }
                }
                if *over == 0 {
                    return Err(ModulationError::ZeroDuration);
                }
                Ok(())
            }
            ModulationSpec::Piecewise(steps) => {
                if steps.is_empty() {
                    return Err(ModulationError::EmptySchedule);
                }
                if steps[0].0 != 0 {
                    return Err(ModulationError::ScheduleMustStartAtZero(steps[0].0));
                }
                for w in steps.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err(ModulationError::ScheduleNotIncreasing(w[1].0));
                    }
                }
                for &(_, s) in steps {
                    if !(0.0..=1.0).contains(&s) {
                        return Err(ModulationError::ScaleOutOfRange(s));
                    }
                }
                Ok(())
            }
        }
    }

    /// The long-run mean injection scale (duty cycle for on/off; the held
    /// final value for ramps; the last step for piecewise schedules).
    pub fn steady_state_scale(&self) -> f64 {
        match self {
            ModulationSpec::Steady => 1.0,
            ModulationSpec::OnOff { on, off } => {
                let (m_on, m_off) = (on.mean(), off.mean());
                m_on / (m_on + m_off)
            }
            ModulationSpec::Ramp { to, .. } => *to,
            ModulationSpec::Piecewise(steps) => steps.last().map_or(1.0, |&(_, s)| s),
        }
    }
}

/// Validation error for a [`ModulationSpec`] or [`DurationDist`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModulationError {
    /// A phase or ramp duration of zero cycles.
    ZeroDuration,
    /// `Uniform` bounds with `min == 0` or `max < min`.
    BadUniform {
        /// Offending lower bound.
        min: u64,
        /// Offending upper bound.
        max: u64,
    },
    /// A geometric mean below 1.0 or non-finite.
    BadGeometricMean(f64),
    /// An injection scale outside `[0, 1]`.
    ScaleOutOfRange(f64),
    /// A piecewise schedule with no steps.
    EmptySchedule,
    /// A piecewise schedule whose first step is not at cycle 0.
    ScheduleMustStartAtZero(u64),
    /// A piecewise schedule with non-increasing start cycles.
    ScheduleNotIncreasing(u64),
}

impl fmt::Display for ModulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModulationError::ZeroDuration => f.write_str("durations must be at least one cycle"),
            ModulationError::BadUniform { min, max } => {
                write!(f, "uniform duration bounds {min}..={max} are invalid")
            }
            ModulationError::BadGeometricMean(m) => {
                write!(f, "geometric mean duration {m} must be a finite value >= 1")
            }
            ModulationError::ScaleOutOfRange(s) => {
                write!(f, "injection scale {s} out of [0, 1]")
            }
            ModulationError::EmptySchedule => f.write_str("piecewise schedule has no steps"),
            ModulationError::ScheduleMustStartAtZero(c) => {
                write!(f, "piecewise schedule must start at cycle 0, got {c}")
            }
            ModulationError::ScheduleNotIncreasing(c) => {
                write!(f, "piecewise schedule start cycles must strictly increase (at {c})")
            }
        }
    }
}

impl std::error::Error for ModulationError {}

/// Per-node two-state gate for [`ModulationSpec::OnOff`]. Lazily advanced:
/// `until` is the first cycle of the *next* phase.
#[derive(Debug, Clone)]
struct Gate {
    on: bool,
    until: u64,
    rng: SmallRng,
}

/// A time-varying injection scale: the gate a [`Tenant`](crate::Tenant)
/// puts beside its source.
///
/// A gated source is bit-identical across Dense/Active schedulers and
/// sweep thread counts whenever the source is: the gate thins only after
/// the source has drawn, all modulation randomness comes from private
/// per-node RNGs derived from `seed`, and the gate never touches the
/// shared stream.
#[derive(Debug, Clone)]
pub struct Modulation {
    spec: ModulationSpec,
    seed: u64,
    gates: Vec<Option<Gate>>,
}

impl Modulation {
    /// A gate applying `spec`. `seed` drives all gate randomness (phase
    /// durations, initial on/off states, thinning coins) through per-node
    /// private RNGs.
    pub fn new(spec: ModulationSpec, seed: u64) -> Result<Self, ModulationError> {
        spec.validate()?;
        Ok(Modulation {
            spec,
            seed,
            gates: Vec::new(),
        })
    }

    fn gate_rng(&self, node: NodeId) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(node.index() as u64)))
    }

    /// The injection scale for `node` at `cycle`, advancing gate state.
    fn scale(&mut self, node: NodeId, cycle: u64) -> f64 {
        match &self.spec {
            ModulationSpec::Steady => 1.0,
            ModulationSpec::Ramp { from, to, over } => {
                if cycle >= *over {
                    *to
                } else {
                    from + (to - from) * (cycle as f64 / *over as f64)
                }
            }
            ModulationSpec::Piecewise(steps) => steps
                .iter()
                .rev()
                .find(|&&(start, _)| start <= cycle)
                .map_or(0.0, |&(_, s)| s),
            ModulationSpec::OnOff { on, off } => {
                let (on, off) = (*on, *off);
                let ni = node.index();
                if self.gates.len() <= ni {
                    self.gates.resize_with(ni + 1, || None);
                }
                if self.gates[ni].is_none() {
                    let mut rng = self.gate_rng(node);
                    let duty = self.spec.steady_state_scale();
                    let starts_on = rng.gen_bool(duty.clamp(0.0, 1.0));
                    let first = if starts_on { on } else { off }.sample(&mut rng);
                    self.gates[ni] = Some(Gate {
                        on: starts_on,
                        until: first,
                        rng,
                    });
                }
                let gate = self.gates[ni].as_mut().expect("gate initialized above");
                // Lazily roll the gate forward to `cycle`; each flip draws
                // exactly one duration, so the state at any cycle is a pure
                // function of (seed, node, cycle) regardless of how many
                // calls were skipped in between.
                while cycle >= gate.until {
                    gate.on = !gate.on;
                    let d = if gate.on { on } else { off }.sample(&mut gate.rng);
                    gate.until += d;
                }
                if gate.on {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Admits or drops what the source drew for `node` at `cycle`, after
    /// the source has drawn from the shared RNG. Its coins come only from
    /// its private RNGs, and a poll where the source did not fire touches
    /// no state: the on/off phase at a cycle is a pure function of the
    /// seed, the node and the cycle, however many polls the lazy roll
    /// forward skipped.
    pub fn admit(
        &mut self,
        node: NodeId,
        cycle: u64,
        packet: Option<NewPacket>,
    ) -> Option<NewPacket> {
        let packet = packet?;
        let s = self.scale(node, cycle);
        if s >= 1.0 {
            return Some(packet);
        }
        if s <= 0.0 {
            return None;
        }
        // Thin with a private coin: Bernoulli(p) accepted w.p. s is exactly
        // Bernoulli(s·p).
        let ni = node.index();
        if self.gates.len() <= ni {
            self.gates.resize_with(ni + 1, || None);
        }
        let gate = self.gates[ni].get_or_insert_with(|| Gate {
            on: true,
            until: u64::MAX,
            rng: SmallRng::seed_from_u64(splitmix64(self.seed ^ splitmix64(ni as u64))),
        });
        if gate.rng.gen_bool(s) {
            Some(packet)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_sim::{SingleFlow, Workload};
    use footprint_topology::AnyTopology;

    /// A source with a gate beside it, polled the way a tenant polls them.
    struct Gated<W> {
        source: W,
        gate: Modulation,
    }

    impl<W: Workload> Workload for Gated<W> {
        fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
            let packet = self.source.generate(node, cycle, rng);
            self.gate.admit(node, cycle, packet)
        }
    }

    fn gated<W>(source: W, spec: ModulationSpec, seed: u64) -> Gated<W> {
        Gated {
            source,
            gate: Modulation::new(spec, seed).unwrap(),
        }
    }

    fn count_flits<W: Workload>(wl: &mut W, mesh: AnyTopology, cycles: u64, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut flits = 0u64;
        for c in 0..cycles {
            for n in mesh.nodes() {
                if let Some(p) = wl.generate(n, c, &mut rng) {
                    flits += p.size as u64;
                }
            }
        }
        flits
    }

    #[test]
    fn fifty_percent_duty_halves_offered_load() {
        // The ISSUE acceptance test: a 50%-duty bursty source at rate r
        // must deliver mean load r/2, for every duration family.
        let mesh = AnyTopology::mesh(4, 4);
        let r = 0.4;
        let cycles = 40_000u64;
        for (on, off) in [
            (DurationDist::Fixed(100), DurationDist::Fixed(100)),
            (
                DurationDist::Uniform { min: 40, max: 160 },
                DurationDist::Uniform { min: 40, max: 160 },
            ),
            (
                DurationDist::Geometric { mean: 80.0 },
                DurationDist::Geometric { mean: 80.0 },
            ),
        ] {
            let inner = crate::SyntheticWorkload::new(
                mesh,
                crate::Pattern::Uniform,
                crate::PacketSize::SINGLE,
                r,
            )
            .unwrap();
            let mut wl = gated(inner, ModulationSpec::OnOff { on, off }, 7);
            let flits = count_flits(&mut wl, mesh, cycles, 3);
            let load = flits as f64 / (cycles as f64 * mesh.len() as f64);
            assert!(
                (load - r / 2.0).abs() < 0.02,
                "{on:?}/{off:?}: offered {load}, want {}",
                r / 2.0
            );
        }
    }

    #[test]
    fn modulation_does_not_perturb_shared_rng_stream() {
        // A modulated flow at node 0 must leave the packet sequence of an
        // unmodulated flow at node 1 untouched: all gate/thinning
        // randomness is private.
        let mesh = AnyTopology::mesh(4, 2);
        let probe_flow = || SingleFlow::new(NodeId(1), NodeId(5), 0.5, 1);
        let run = |on_off: bool| {
            let inner = SingleFlow::new(NodeId(0), NodeId(4), 0.5, 1);
            let spec = if on_off {
                ModulationSpec::OnOff {
                    on: DurationDist::Fixed(13),
                    off: DurationDist::Fixed(37),
                }
            } else {
                ModulationSpec::Steady
            };
            let mut a = gated(inner, spec, 11);
            let mut b = probe_flow();
            let mut rng = SmallRng::seed_from_u64(5);
            let mut seq = Vec::new();
            for c in 0..2_000 {
                for n in mesh.nodes() {
                    let _ = a.generate(n, c, &mut rng);
                    if let Some(p) = b.generate(n, c, &mut rng) {
                        seq.push((c, n, p.dest));
                    }
                }
            }
            seq
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn on_off_state_is_a_pure_function_of_seed() {
        let mesh = AnyTopology::mesh(2, 2);
        let spec = ModulationSpec::OnOff {
            on: DurationDist::Geometric { mean: 30.0 },
            off: DurationDist::Geometric { mean: 70.0 },
        };
        let run = || {
            let inner = SingleFlow::new(NodeId(0), NodeId(3), 1.0, 1);
            let mut wl = gated(inner, spec.clone(), 99);
            let mut rng = SmallRng::seed_from_u64(1);
            (0..4_000)
                .map(|c| {
                    mesh.nodes()
                        .filter_map(|n| wl.generate(n, c, &mut rng))
                        .count()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ramp_scales_linearly_then_holds() {
        let mesh = AnyTopology::mesh(2, 2);
        let spec = ModulationSpec::Ramp {
            from: 0.0,
            to: 1.0,
            over: 10_000,
        };
        let inner = SingleFlow::new(NodeId(0), NodeId(3), 0.8, 1);
        let mut wl = gated(inner, spec, 1);
        // First quarter of the ramp averages scale 1/8; last quarter 7/8.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut quarters = [0u64; 4];
        for c in 0..10_000u64 {
            for n in mesh.nodes() {
                if wl.generate(n, c, &mut rng).is_some() {
                    quarters[(c / 2_500) as usize] += 1;
                }
            }
        }
        assert!(quarters[0] < quarters[3] / 3, "ramp up: {quarters:?}");
        // Held region after the ramp: close to the full 0.8 rate.
        let mut fired = 0u64;
        for c in 10_000..20_000u64 {
            for n in mesh.nodes() {
                if wl.generate(n, c, &mut rng).is_some() {
                    fired += 1;
                }
            }
        }
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.8).abs() < 0.03, "held rate {rate}");
    }

    #[test]
    fn piecewise_schedule_steps() {
        let spec = ModulationSpec::Piecewise(vec![(0, 1.0), (100, 0.0), (200, 1.0)]);
        let inner = SingleFlow::new(NodeId(0), NodeId(1), 1.0, 1);
        let mut wl = gated(inner, spec, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..300u64 {
            let fired = wl.generate(NodeId(0), c, &mut rng).is_some();
            let expect = !(100..200).contains(&c);
            assert_eq!(fired, expect, "cycle {c}");
        }
    }

    #[test]
    fn modulators_compose() {
        // Admitting through a ramp and then an on/off gate multiplies the
        // scales (here the ramp holds at 0.5 and the gate is 50% duty →
        // net ≈ rate/4).
        let mesh = AnyTopology::mesh(2, 2);
        let inner = SingleFlow::new(NodeId(0), NodeId(3), 0.8, 1);
        let ramp = gated(
            inner,
            ModulationSpec::Ramp {
                from: 0.5,
                to: 0.5,
                over: 1,
            },
            2,
        );
        let mut wl = gated(
            ramp,
            ModulationSpec::OnOff {
                on: DurationDist::Fixed(50),
                off: DurationDist::Fixed(50),
            },
            3,
        );
        let cycles = 40_000;
        let flits = count_flits(&mut wl, mesh, cycles, 8);
        let per_node = flits as f64 / (cycles as f64 * mesh.len() as f64);
        // Only node 0 injects: mesh-average load is 0.8 * 0.25 / 4 nodes.
        let want = 0.8 * 0.25 / mesh.len() as f64;
        assert!((per_node - want).abs() < 0.01, "load {per_node}, want {want}");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert_eq!(
            DurationDist::Fixed(0).validate(),
            Err(ModulationError::ZeroDuration)
        );
        assert_eq!(
            DurationDist::Uniform { min: 5, max: 2 }.validate(),
            Err(ModulationError::BadUniform { min: 5, max: 2 })
        );
        assert_eq!(
            DurationDist::Geometric { mean: 0.5 }.validate(),
            Err(ModulationError::BadGeometricMean(0.5))
        );
        assert_eq!(
            ModulationSpec::Ramp {
                from: -0.1,
                to: 1.0,
                over: 10
            }
            .validate(),
            Err(ModulationError::ScaleOutOfRange(-0.1))
        );
        assert_eq!(
            ModulationSpec::Piecewise(vec![]).validate(),
            Err(ModulationError::EmptySchedule)
        );
        assert_eq!(
            ModulationSpec::Piecewise(vec![(5, 1.0)]).validate(),
            Err(ModulationError::ScheduleMustStartAtZero(5))
        );
        assert_eq!(
            ModulationSpec::Piecewise(vec![(0, 1.0), (10, 0.5), (10, 0.2)]).validate(),
            Err(ModulationError::ScheduleNotIncreasing(10))
        );
        assert!(Modulation::new(ModulationSpec::Piecewise(vec![]), 0).is_err());
        // Errors render.
        assert!(ModulationError::ScaleOutOfRange(1.5)
            .to_string()
            .contains("out of [0, 1]"));
    }

    #[test]
    fn geometric_durations_have_the_right_mean() {
        let mut rng = SmallRng::seed_from_u64(77);
        let d = DurationDist::Geometric { mean: 25.0 };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 25.0).abs() < 1.0, "mean {mean}");
        assert_eq!(DurationDist::Geometric { mean: 1.0 }.sample(&mut rng), 1);
    }

    #[test]
    fn steady_state_scale_reports_duty() {
        let spec = ModulationSpec::OnOff {
            on: DurationDist::Fixed(30),
            off: DurationDist::Fixed(90),
        };
        assert!((spec.steady_state_scale() - 0.25).abs() < 1e-12);
        assert_eq!(ModulationSpec::Steady.steady_state_scale(), 1.0);
    }
}

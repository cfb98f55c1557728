//! Shared driver code for the experiment binaries (one per paper
//! table/figure).
//!
//! The central abstraction is [`CurveSet`]: a figure declares *all* of
//! its latency-throughput curves up front, and `CurveSet::run`
//! flattens every (curve × rate) pair into one
//! [`footprint_core::JobSet`] so the whole figure saturates the worker
//! pool instead of parallelizing one curve at a time. Each point runs
//! exactly what [`SimulationBuilder::sweep_with`] would run for that curve
//! (same derived per-rate seed, same summary), so a figure produced
//! through a `CurveSet` is bit-identical to sweeping its curves one by
//! one — and to `FOOTPRINT_THREADS=1` sequential execution.

use std::io;
use std::path::PathBuf;

use footprint_core::{
    JobSet, RoutingSpec, RunReport, SimulationBuilder, SweepOptions, TrafficSpec,
};
use footprint_sim::{EventTrace, ProbePair};
use footprint_stats::{Curve, TimelineProbe};

/// Standard offered-load sweep for latency-throughput figures: 0.02 to
/// 0.60 flits/node/cycle.
pub fn default_rates() -> Vec<f64> {
    let mut rates = Vec::new();
    let mut r = 0.02;
    while r < 0.6005 {
        rates.push((r * 1000.0_f64).round() / 1000.0);
        r += if r < 0.30 { 0.04 } else { 0.03 };
    }
    rates
}

/// A sparser, cheaper sweep for smoke tests and CI.
pub fn quick_rates() -> Vec<f64> {
    vec![0.05, 0.15, 0.25, 0.35, 0.45, 0.55]
}

/// Phase lengths used by the experiment binaries. Tuned so a full figure
/// regenerates in minutes on a laptop; the paper's qualitative shapes are
/// stable at these lengths (longer runs sharpen the numbers).
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measurement: u64,
}

impl Phases {
    /// Figure-quality phases.
    pub const FULL: Phases = Phases {
        warmup: 3_000,
        measurement: 6_000,
    };

    /// Smoke-test phases.
    pub const QUICK: Phases = Phases {
        warmup: 500,
        measurement: 1_000,
    };
}

/// `true` when `FOOTPRINT_QUICK` is set: every experiment binary then
/// runs in smoke mode (short phases, sparse axes).
pub fn quick() -> bool {
    std::env::var_os("FOOTPRINT_QUICK").is_some()
}

/// The phases [`quick`] selects.
pub fn phases_from_env() -> Phases {
    if quick() {
        Phases::QUICK
    } else {
        Phases::FULL
    }
}

/// Observability options for the experiment binaries.
///
/// Assembled from the environment by [`observe_from_env`]; the figure
/// binaries stay probe-free (and overhead-free) unless `FOOTPRINT_OBSERVE`
/// is set.
#[derive(Debug, Clone, Copy)]
pub struct ObserveOpts {
    /// Timeline sampling stride in cycles (`FOOTPRINT_TIMELINE_STRIDE`,
    /// default 100).
    pub stride: u64,
    /// Event-trace ring capacity in records (`FOOTPRINT_TRACE_CAP`,
    /// default 65536 — the trace keeps the *last* N events).
    pub trace_capacity: usize,
}

impl Default for ObserveOpts {
    fn default() -> Self {
        ObserveOpts {
            stride: 100,
            trace_capacity: 65_536,
        }
    }
}

/// Reads observability options from the environment: `None` unless
/// `FOOTPRINT_OBSERVE` is set, with `FOOTPRINT_TIMELINE_STRIDE` and
/// `FOOTPRINT_TRACE_CAP` overriding the defaults.
pub fn observe_from_env() -> Option<ObserveOpts> {
    std::env::var_os("FOOTPRINT_OBSERVE")?;
    let mut opts = ObserveOpts::default();
    if let Some(s) = std::env::var_os("FOOTPRINT_TIMELINE_STRIDE") {
        if let Some(n) = s.to_str().and_then(|s| s.trim().parse::<u64>().ok()) {
            if n > 0 {
                opts.stride = n;
            }
        }
    }
    if let Some(s) = std::env::var_os("FOOTPRINT_TRACE_CAP") {
        if let Some(n) = s.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            if n > 0 {
                opts.trace_capacity = n;
            }
        }
    }
    Some(opts)
}

/// Where observability artifacts land: the `results/` directory (created
/// on demand), overridable with `FOOTPRINT_RESULTS_DIR`.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var_os("FOOTPRINT_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs `builder` once with the full observability stack attached — an
/// occupancy/link-utilization timeline (per-router rows included) and a
/// bounded flit-event tracer — and writes `<label>_timeline.csv`,
/// `<label>_routers.csv` and `<label>_events.jsonl` into [`results_dir`].
///
/// Returns the run's report and the artifact paths.
///
/// # Errors
///
/// Propagates filesystem errors from the exporters.
///
/// # Panics
///
/// Panics on configuration errors — experiment configurations are static
/// and must be valid.
pub fn observed_run(
    label: &str,
    builder: &SimulationBuilder,
    opts: ObserveOpts,
) -> io::Result<(RunReport, Vec<PathBuf>)> {
    let mut timeline = TimelineProbe::new(opts.stride).with_router_rows();
    let mut trace = EventTrace::with_capacity(opts.trace_capacity);
    let report = {
        let mut pair = ProbePair::new(&mut timeline, &mut trace);
        builder
            .run_with(footprint_core::RunOptions::new().probe(&mut pair))
            .expect("experiment configuration must be valid")
    };
    let dir = results_dir()?;
    let paths = vec![
        dir.join(format!("{label}_timeline.csv")),
        dir.join(format!("{label}_routers.csv")),
        dir.join(format!("{label}_events.jsonl")),
    ];
    timeline.save_mesh_csv(&paths[0])?;
    timeline.save_router_csv(&paths[1])?;
    trace.save_jsonl(&paths[2])?;
    Ok((report, paths))
}

/// Prints the artifact list of an [`observed_run`] to stdout.
pub fn print_artifacts(label: &str, paths: &[PathBuf]) {
    for p in paths {
        println!("# {label}: wrote {}", p.display());
    }
}

/// Builds the baseline 8×8 builder for an algorithm/pattern pair.
pub fn paper_builder(
    routing: RoutingSpec,
    traffic: TrafficSpec,
    phases: Phases,
) -> SimulationBuilder {
    SimulationBuilder::paper_default()
        .routing(routing)
        .traffic(traffic)
        .warmup(phases.warmup)
        .measurement(phases.measurement)
        .seed(0x0F00)
}

/// A batch of labelled latency-throughput curves sharing one rate axis,
/// executed as a single flat job set.
///
/// Figures with many curves (e.g. Figure 5: 3 patterns × 7 algorithms)
/// add every curve here and call [`CurveSet::run`] once; all
/// (curve × rate) points then compete for the same worker pool, so the
/// slowest curve no longer serializes the figure. Curves come back in
/// insertion order.
pub struct CurveSet {
    rates: Vec<f64>,
    specs: Vec<CurveSpec>,
}

struct CurveSpec {
    label: String,
    builder: SimulationBuilder,
    latency_class: Option<u8>,
}

impl CurveSet {
    /// A batch over the given offered-load axis.
    #[must_use]
    pub fn new(rates: &[f64]) -> Self {
        CurveSet {
            rates: rates.to_vec(),
            specs: Vec::new(),
        }
    }

    /// Adds a curve labelled with the builder's routing-algorithm name.
    pub fn add(&mut self, builder: SimulationBuilder) -> &mut Self {
        let label = builder.routing_spec().name().to_string();
        self.add_labeled(label, builder)
    }

    /// Adds a curve under an explicit label.
    pub fn add_labeled(&mut self, label: impl Into<String>, builder: SimulationBuilder) -> &mut Self {
        self.add_class(label, builder, None)
    }

    /// Adds a curve summarizing a single traffic class (e.g. the
    /// background class of the Figure 9 hotspot experiment).
    pub fn add_class(
        &mut self,
        label: impl Into<String>,
        builder: SimulationBuilder,
        latency_class: Option<u8>,
    ) -> &mut Self {
        self.specs.push(CurveSpec {
            label: label.into(),
            builder,
            latency_class,
        });
        self
    }

    /// Number of curves queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no curves are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every (curve × rate) point as one flat job set and
    /// reassembles the curves in insertion order.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors — experiment configurations are
    /// static and must be valid.
    #[must_use]
    pub fn run(self) -> Vec<Curve> {
        let mut jobs = JobSet::new();
        for spec in &self.specs {
            for (index, &rate) in self.rates.iter().enumerate() {
                let point = spec.builder.sweep_point(index, rate);
                let opts = SweepOptions::new().latency_class(spec.latency_class);
                jobs.push(move || {
                    point
                        .run_sweep_point_with(&opts)
                        .expect("experiment configuration must be valid")
                });
            }
        }
        let mut points = jobs.run().into_iter();
        self.specs
            .iter()
            .map(|spec| {
                let mut curve = Curve::new(spec.label.clone());
                for _ in 0..self.rates.len() {
                    curve.push(points.next().expect("one result per submitted job"));
                }
                curve
            })
            .collect()
    }
}

/// Prints a set of curves as aligned columns: one block per curve, in the
/// `offered accepted latency` format the paper's figures plot.
pub fn print_curves(title: &str, curves: &[Curve]) {
    println!("## {title}");
    for c in curves {
        print!("{c}");
        println!("# saturation throughput ({}): {}", c.label, c.saturation(3.0));
        println!();
    }
}

/// Relative gain of `ours` over `baseline` ((ours - baseline) / baseline).
pub fn gain(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (ours - baseline) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rates_are_increasing_and_bounded() {
        let rates = default_rates();
        assert!(rates.len() > 8);
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
        assert!(*rates.last().unwrap() <= 0.61);
        assert!(rates[0] >= 0.01);
    }

    #[test]
    fn quick_phases_are_cheaper() {
        let (quick, full) = (Phases::QUICK, Phases::FULL);
        assert!(quick.measurement < full.measurement);
        assert!(quick_rates().windows(2).all(|w| w[0] < w[1]));
    }
}

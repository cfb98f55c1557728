//! One workload, three passes: verify (V), timed (T), traced (X).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use footprint_sim::Network;

use crate::engine::{self, Driven, Mode, Outcome};
use crate::fingerprint::Fnv;
use crate::metrics::{self, Metric};
use crate::summary::{median, percentile};
use crate::timed::{timer_ns, Tally};
use crate::trace::Recorder;
use crate::workloads::{Extras, Kind, Op, Sweep, Workload, DENSE_REFERENCE_OP, SWEEP_RATES};
use crate::{host, micro};

/// Repetitions of the timed pass below which no median is reported.
const MIN_REPS: usize = 3;
/// `build_with` calls per op behind `setup_s`. Twenty, the issue's figure,
/// left the sum moving by a sixth between runs: a build is a few hundred
/// microseconds of allocation, and twenty of them fit inside one hiccup of
/// a shared machine.
const SETUP_BUILDS: usize = 500;

pub struct Config {
    pub seed: u64,
    /// How long pass T keeps starting repetitions.
    pub seconds: f64,
    pub trace: bool,
    /// Result, trace and scratch files go here.
    pub out: PathBuf,
}

/// The timed repetitions of one quantity, in the order they ran. Only the
/// median is a metric: with fewer than twenty samples no other percentile
/// has ten samples beyond it. The samples go to the result file as they are.
pub struct Timing {
    pub median: f64,
    pub samples: Vec<f64>,
}

impl Timing {
    fn of(samples: Vec<f64>) -> Self {
        Timing {
            median: median(&samples),
            samples,
        }
    }
}

pub struct OpResult {
    pub name: &'static str,
    /// Pass V's fingerprint; `None` when the op failed there.
    pub fingerprint: Option<u64>,
    pub cycles: u64,
    pub wall: Timing,
}

/// Everything one workload run produced.
pub struct Measured {
    pub workload: &'static str,
    pub ops_attempted: u64,
    pub failures: Vec<String>,
    pub sim_fingerprint: u64,
    pub wall: Timing,
    pub end_to_end: Vec<Metric>,
    /// The uniform per-layer set (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Metrics only this workload's ops can give (per-op walls, per
    /// algorithm routing cost, the `core` ratios of the sweep ops, ...).
    pub detail: Vec<Metric>,
    pub ops: Vec<OpResult>,
}

/// Op seed = splitmix64(`seed`, op index), computed here rather than by the
/// program so that the inputs belong to the benchmark. A paired op takes
/// the seed of the op it repeats.
fn op_seeds(seed: u64, ops: &[Op]) -> Vec<u64> {
    let mut seeds: Vec<u64> = Vec::with_capacity(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let own = splitmix64(seed, index as u64);
        seeds.push(if op.paired { seeds[index - 1] } else { own });
    }
    seeds
}

fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts attempts and collects failures across passes.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failures: Vec<String>,
}

impl Verdict {
    /// Applies the failure rules to one op execution; the outcome when it
    /// passed them.
    fn judge(
        &mut self,
        pass: char,
        op: &Op,
        result: Result<Outcome, String>,
        reference: Option<u64>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let checked = result.and_then(|o| engine::check(op, &o, reference).map(|()| o));
        match checked {
            Ok(outcome) => Some(outcome),
            Err(why) => {
                self.failures
                    .push(format!("pass {pass}, op {}: {why}", op.name));
                None
            }
        }
    }
}

/// Runs `body` with a fresh scratch directory at `root`, removed
/// afterwards.
fn with_tmp<T>(root: &Path, body: impl FnOnce(&Path) -> T) -> Result<T, String> {
    let _ = fs::remove_dir_all(root);
    fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let out = body(root);
    fs::remove_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(out)
}

/// Files and bytes directly inside `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .fold((0, 0), |(n, bytes), m| (n + 1, bytes + m.len()))
}

/// `setup_s`: per op, the median seconds of [`SETUP_BUILDS`] `build_with`
/// calls (network and workload constructed, then dropped), summed over the
/// ops. The builds go round-robin over the ops, so that every op's samples
/// span the whole measurement and a burst of noise cannot sit on one op.
fn setup_seconds(ops: &[Op], seeds: &[u64]) -> Result<f64, String> {
    let builders: Vec<_> = ops
        .iter()
        .zip(seeds)
        .map(|(op, &s)| op.spec.builder(s))
        .collect();
    let mut samples = vec![Vec::with_capacity(SETUP_BUILDS); ops.len()];
    for _ in 0..SETUP_BUILDS {
        for ((op, builder), samples) in ops.iter().zip(&builders).zip(&mut samples) {
            let (built, s) = engine::timed(|| {
                builder
                    .build_with(op.spec.faults.clone(), op.spec.on_unreachable)
                    .map(drop)
            });
            built.map_err(|e| format!("op {}: {e}", op.name))?;
            samples.push(s);
        }
    }
    Ok(samples.iter().map(|s| median(s)).sum())
}

pub fn run(workload: &Workload, cfg: &Config) -> Result<Measured, String> {
    let ops = (workload.ops)();
    let seeds = op_seeds(cfg.seed, &ops);
    let unique = format!("{}-{}", workload.name, std::process::id());
    let tmp = cfg.out.join("tmp").join(unique);
    let mut verdict = Verdict::default();

    // Set-up first, on the heap of a fresh process: measured after pass V
    // it moved by a sixth from seed to seed, with whatever layout the
    // verify runs had left behind.
    let setup_s = setup_seconds(&ops, &seeds)?;

    // Pass V, untimed: the reference results. It also warms the page
    // cache, the allocator and the CPU before anything is timed.
    let reference: Vec<Option<u64>> = with_tmp(&tmp, |tmp| {
        ops.iter()
            .zip(&seeds)
            .map(|(op, &seed)| {
                let result = engine::run_public(op, seed, Mode::Verify, tmp);
                verdict
                    .judge('V', op, result, None)
                    .map(|o| o.fingerprint())
            })
            .collect()
    })?;
    let mut sim_fingerprint = Fnv::new();
    for fp in &reference {
        sim_fingerprint.u64(fp.unwrap_or(0));
    }

    // Pass T: closed loop, one caller, repetitions until the time is up.
    let mut reps: Vec<f64> = Vec::new();
    let mut op_walls: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut cache_usage = (0, 0);
    let mut peak_rss_mb = 0.0;
    let cpu_before = host::cpu_seconds()?;
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        with_tmp(&tmp, |tmp| {
            let mut rep = 0.0;
            for (i, op) in ops.iter().enumerate() {
                let (result, s) =
                    engine::timed(|| engine::run_public(op, seeds[i], Mode::Timed, tmp));
                rep += s;
                op_walls[i].push(s);
                let result = result.and_then(|outcome| {
                    // A cold sweep that stored nothing would make the warm
                    // one silently cold, and its cycle count wrong.
                    if op.kind == Kind::Sweep(Sweep::CacheCold) {
                        cache_usage = dir_usage(&tmp.join("snapcache"));
                        if cache_usage.0 != SWEEP_RATES.len() as u64 {
                            return Err(format!("{} snapshots stored", cache_usage.0));
                        }
                    }
                    Ok(outcome)
                });
                verdict.judge('T', op, result, reference[i]);
            }
            reps.push(rep);
        })?;
        // Read once every op has run in both configurations, and no later:
        // the heap creeps up with each further repetition, by an amount
        // that allocator layout decides (after three, `scenario_mix` was
        // bimodal, a tenth apart), and a peak read at the end of the pass
        // would grow with how many repetitions fitted.
        if reps.len() == 1 {
            peak_rss_mb = host::peak_rss_mib()?;
        }
    }
    let reps_s: f64 = reps.iter().sum();
    // The kernel counts CPU time in 10 ms ticks — too coarse for a median
    // of per-repetition readings — and the plain mean CPU ÷ n inherits
    // every slow repetition. So: the pass's CPU seconds per wall second,
    // applied to the median repetition.
    let wall = Timing::of(reps);
    let cpu_s = (host::cpu_seconds()? - cpu_before) / reps_s * wall.median;
    let cycles: u64 = ops.iter().map(Op::cycles_stepped).sum();
    // In the order of the `END_TO_END` table.
    let end_to_end = metrics::end_to_end([
        wall.median,
        cycles as f64 / wall.median,
        cpu_s,
        peak_rss_mb,
        setup_s,
    ]);
    let op_results: Vec<OpResult> = ops
        .iter()
        .zip(op_walls)
        .zip(&reference)
        .map(|((op, walls), &fingerprint)| OpResult {
            name: op.name,
            fingerprint,
            cycles: op.cycles_stepped(),
            wall: Timing::of(walls),
        })
        .collect();

    let (mut per_layer, mut detail) = (Vec::new(), Vec::new());
    if cfg.trace {
        let traced = traced_pass(&ops, &seeds, &reference, &tmp, &mut verdict)?;
        traced.write(&cfg.out.join(format!("{}.trace.json", workload.name)), &ops)?;
        per_layer = traced.per_layer(&ops, &op_results, wall.median)?;
        detail = traced.detail(&ops, &op_results, cache_usage);
    }

    Ok(Measured {
        workload: workload.name,
        ops_attempted: verdict.attempted,
        failures: verdict.failures,
        sim_fingerprint: sim_fingerprint.finish(),
        wall,
        end_to_end,
        per_layer,
        detail,
        ops: op_results,
    })
}

/// What pass X measured.
struct Traced {
    rec: Recorder,
    /// Totals over the hand-driven ops.
    driven: Driven,
    /// `route` tallies by algorithm name.
    route_by_algorithm: BTreeMap<&'static str, Tally>,
    /// Wall seconds of each op under tracing.
    op_walls: Vec<f64>,
    /// Per hand-driven op, summed: median seconds of `Network::with_faults`
    /// and of `SimulationBuilder::build`.
    network_new_s: f64,
    build_s: f64,
    /// Fault totals of the ops that ran under a fault plan.
    fault_totals: Option<(u64, u64)>,
    /// Index of [`DENSE_REFERENCE_OP`] and its wall seconds under the dense
    /// loop.
    dense: Option<(usize, f64)>,
    timer_ns: f64,
    micro: micro::Micro,
}

fn traced_pass(
    ops: &[Op],
    seeds: &[u64],
    reference: &[Option<u64>],
    tmp: &Path,
    verdict: &mut Verdict,
) -> Result<Traced, String> {
    let mut t = Traced {
        rec: Recorder::new(),
        driven: Driven::default(),
        route_by_algorithm: BTreeMap::new(),
        op_walls: Vec::with_capacity(ops.len()),
        network_new_s: 0.0,
        build_s: 0.0,
        fault_totals: None,
        dense: None,
        timer_ns: timer_ns(),
        micro: with_tmp(tmp, micro::measure)??,
    };
    with_tmp(tmp, |tmp| {
        for (i, op) in ops.iter().enumerate() {
            let root_name = match (op.hand_driven(), op.kind) {
                (true, _) => "bench.op",
                (false, Kind::Run(_)) => "core.run_with",
                (false, Kind::Sweep(_)) => "core.sweep_with",
            };
            let root = t.rec.open_root(root_name, i);
            let result = if op.hand_driven() {
                engine::hand_drive(op, seeds[i], &mut t.rec, root).map(|(outcome, driven)| {
                    t.driven += driven;
                    *t.route_by_algorithm
                        .entry(op.spec.routing.name())
                        .or_default() += driven.route;
                    outcome
                })
            } else {
                engine::run_public(op, seeds[i], Mode::Timed, tmp)
            };
            t.rec.close(root);
            t.op_walls
                .push(t.rec.spans()[root].duration_ns() as f64 / 1e9);
            let outcome = verdict.judge('X', op, result, reference[i]);
            if let (Some(Outcome::Report(r)), false) = (outcome, op.spec.faults.is_empty()) {
                let (retries, dropped) = t.fault_totals.get_or_insert((0, 0));
                *retries += r.faults.retry_attempts();
                *dropped += r.faults.dropped();
            }
        }
    })?;

    for (op, &seed) in ops.iter().zip(seeds).filter(|(op, _)| op.hand_driven()) {
        let builder = op.spec.builder(seed);
        let new_network = || {
            Network::with_faults(
                op.spec.sim_config(),
                op.spec.routing.build(),
                seed,
                op.spec.faults.clone(),
                op.spec.on_unreachable,
            )
            .map(drop)
        };
        let mut samples = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let (built, s) = engine::timed(new_network);
            built.map_err(|e| e.to_string())?;
            samples.0.push(s);
            let (built, s) = engine::timed(|| builder.build().map(drop));
            built.map_err(|e| e.to_string())?;
            samples.1.push(s);
        }
        t.network_new_s += median(&samples.0);
        t.build_s += median(&samples.1);
    }

    if let Some(i) = ops.iter().position(|op| op.name == DENSE_REFERENCE_OP) {
        let (result, s) = engine::timed(|| engine::run_public(&ops[i], seeds[i], Mode::Dense, tmp));
        if verdict.judge('X', &ops[i], result, reference[i]).is_some() {
            t.dense = Some((i, s));
        }
    }
    Ok(t)
}

/// One `sim.run` span read back from the trace, with what its aggregated
/// children cover.
///
/// Every timed call into a wrapped trait carries one timer read-pair
/// inside its interval and about as much again around it. With `t` the
/// calibrated cost of a pair, the time a slice would have taken untraced
/// is its span minus `2 × calls × t`, and the simulator's self time is the
/// span minus its children minus the `calls × t` spent around them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slice {
    cycles: u64,
    ns: u64,
    child_ns: u64,
    calls: u64,
}

impl Slice {
    fn step_ns(&self, t: f64) -> f64 {
        (self.ns as f64 - 2.0 * self.calls as f64 * t).max(0.0)
    }

    fn self_ns(&self, t: f64) -> f64 {
        ((self.ns - self.child_ns.min(self.ns)) as f64 - self.calls as f64 * t).max(0.0)
    }
}

impl Traced {
    fn write(&self, path: &Path, ops: &[Op]) -> Result<(), String> {
        let names: Vec<&str> = ops.iter().map(|op| op.name).collect();
        let mut file = std::io::BufWriter::new(
            fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        self.rec
            .write_json(&mut file, &names)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn slices(&self) -> Vec<Slice> {
        let covered = self.rec.children();
        self.rec
            .spans()
            .iter()
            .zip(covered)
            .filter(|(span, _)| span.name == "sim.run")
            .map(|(span, covered)| Slice {
                cycles: span.count,
                ns: span.duration_ns(),
                child_ns: covered.ns,
                calls: covered.count,
            })
            .collect()
    }

    /// The uniform per-layer metrics. A call site's own time is its raw
    /// sum minus one timer pair per call (see [`Slice`]), so the routing,
    /// traffic and self shares of the step add up to one.
    fn per_layer(
        &self,
        ops: &[Op],
        op_results: &[OpResult],
        wall_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let d = &self.driven;
        let t = self.timer_ns;
        let own = |tally: Tally| (tally.ns as f64 - tally.calls as f64 * t).max(0.0);
        let (route_ns, inject_ns, generate_ns) = (own(d.route), own(d.inject), own(d.generate));

        let slices = self.slices();
        let step_ns: f64 = slices.iter().map(|s| s.step_ns(t)).sum();
        let self_ns: f64 = slices.iter().map(|s| s.self_ns(t)).sum();
        let per_cycle: Vec<f64> = slices
            .iter()
            .map(|s| s.step_ns(t) / s.cycles as f64)
            .collect();
        let p90 = percentile(&per_cycle, 90)
            .ok_or_else(|| format!("{} slices are too few for a p90", slices.len()))?;

        let cycles = d.cycles as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let hand_driven_s: f64 = ops
            .iter()
            .zip(op_results)
            .filter(|(op, _)| op.hand_driven())
            .map(|(_, r)| r.wall.median)
            .sum();
        let report_us: Vec<f64> = self
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == "stats.report")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        let micro = &self.micro;

        Ok(metrics::per_layer(&[
            ("routing.decisions", d.route.calls as f64),
            ("routing.decisions_per_cycle", d.route.calls as f64 / cycles),
            ("routing.route_ns", ratio(route_ns, d.route.calls as f64)),
            (
                "routing.requests_per_decision",
                ratio(d.route.items as f64, d.route.calls as f64),
            ),
            (
                "routing.granted_frac",
                1.0 - ratio(d.counts.va_blocks as f64, d.route.calls as f64),
            ),
            (
                "routing.injection_requests_ns",
                ratio(inject_ns, d.inject.calls as f64),
            ),
            ("routing.busy_frac", (route_ns + inject_ns) / step_ns),
            ("traffic.calls", d.generate.calls as f64),
            ("traffic.packets", d.generate.items as f64),
            (
                "traffic.hit_frac",
                ratio(d.generate.items as f64, d.generate.calls as f64),
            ),
            (
                "traffic.generate_ns",
                ratio(generate_ns, d.generate.calls as f64),
            ),
            ("traffic.busy_frac", generate_ns / step_ns),
            ("sim.step_ns_per_cycle", step_ns / cycles),
            ("sim.step_ns_per_cycle.p90", p90),
            ("sim.self_ns_per_cycle", self_ns / cycles),
            ("sim.self_frac", self_ns / step_ns),
            ("sim.inject_flits", d.counts.inject_flits as f64),
            ("sim.eject_flits", d.counts.eject_flits as f64),
            ("sim.vc_grants", d.counts.vc_grants as f64),
            ("sim.flit_hops", d.counts.flit_hops as f64),
            (
                "sim.ns_per_flit_hop",
                ratio(hand_driven_s * 1e9, d.counts.flit_hops as f64),
            ),
            ("sim.network_new_us", self.network_new_s * 1e6),
            ("sim.snapshot_us", micro.snapshot_us),
            ("sim.restore_us", micro.restore_us),
            ("sim.snapshot_bytes", micro.snapshot_bytes as f64),
            ("stats.report_us", median(&report_us)),
            ("core.build_us", self.build_s * 1e6),
            ("core.exec.dispatch_us_per_job", micro.dispatch_us_per_job),
            ("core.journal.record_us", micro.journal_record_us),
            ("topology.minimal_dirs_ns", micro.minimal_dirs_ns),
            ("topology.escape_class_ns", micro.escape_class_ns),
            ("trace.slices", slices.len() as f64),
            ("trace.timer_ns", t),
            (
                "trace.overhead_frac",
                self.op_walls.iter().sum::<f64>() / wall_s - 1.0,
            ),
            ("trace.hand_driven_frac", hand_driven_s / wall_s),
        ]))
    }

    /// The metrics only some workloads can give, found by what kind of op
    /// the workload holds, so a workload reports exactly those its ops
    /// support.
    fn detail(&self, ops: &[Op], op_results: &[OpResult], cache_usage: (u64, u64)) -> Vec<Metric> {
        let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit);
        let walls: Vec<f64> = op_results.iter().map(|r| r.wall.median).collect();
        let mut out: Vec<Metric> = op_results
            .iter()
            .map(|r| m(&format!("op.{}_s", r.name), r.wall.median, "s"))
            .collect();
        // Zero below saturation, so not among the metrics every workload
        // must report as a nonzero number.
        let va_blocks = self.driven.counts.va_blocks;
        out.push(m("sim.va_blocks", va_blocks as f64, "count"));
        for (algorithm, &tally) in &self.route_by_algorithm {
            let own = (tally.ns as f64 - tally.calls as f64 * self.timer_ns).max(0.0);
            let name = format!("routing.route_ns.{}", algorithm.replace('-', "_"));
            out.push(m(&name, own / tally.calls.max(1) as f64, "ns"));
        }
        if let Some((op, dense_s)) = self.dense {
            out.push(m(
                "sim.sched.dense_over_active",
                dense_s / walls[op],
                "ratio",
            ));
        }
        for (i, op) in ops.iter().enumerate() {
            let name = match op.kind {
                Kind::Run(Extras::Audited) => "sim.sentinel_overhead_frac",
                Kind::Run(Extras::Probed) => "sim.probe_overhead_frac",
                _ => continue,
            };
            // These ops are paired: the plain run of the same configuration
            // and seed is the op before.
            out.push(m(name, walls[i] / walls[i - 1] - 1.0, "ratio"));
        }
        if let Some((retries, dropped)) = self.fault_totals {
            out.push(m("sim.fault.retry_attempts", retries as f64, "count"));
            out.push(m("sim.fault.dropped_packets", dropped as f64, "count"));
        }
        let sweep = |variant: Sweep| {
            let at = ops.iter().position(|op| op.kind == Kind::Sweep(variant));
            at.map(|i| walls[i])
        };
        out.extend(sweep_detail(sweep, cache_usage).unwrap_or_default());
        out
    }
}

/// The `core` numbers of the seven sweep ops: each is a pass-T median, or a
/// quotient of two. `None` for a workload without them.
fn sweep_detail(
    wall: impl Fn(Sweep) -> Option<f64>,
    cache_usage: (u64, u64),
) -> Option<Vec<Metric>> {
    let (t1, t2, lanes) = (wall(Sweep::T1)?, wall(Sweep::T2)?, wall(Sweep::Lanes)?);
    let (cold, warm) = (wall(Sweep::CacheCold)?, wall(Sweep::CacheWarm)?);
    let (journal, resume) = (wall(Sweep::Journal)?, wall(Sweep::Resume)?);
    let mut out = vec![
        Metric::new("core.sweep_t1_s", t1, "s"),
        Metric::new("core.sweep_t2_s", t2, "s"),
        Metric::new("core.lanes.sweep_s", lanes, "s"),
        Metric::new("core.lanes.speedup", t1 / lanes, "ratio"),
        Metric::new("core.snapcache.cold_s", cold, "s"),
        Metric::new("core.snapcache.warm_s", warm, "s"),
        Metric::new("core.snapcache.hit_speedup", cold / warm, "ratio"),
        Metric::new(
            "core.snapcache.store_overhead_frac",
            cold / t1 - 1.0,
            "ratio",
        ),
        Metric::new("core.snapcache.entries", cache_usage.0 as f64, "count"),
        Metric::new("core.snapcache.bytes", cache_usage.1 as f64, "count"),
        Metric::new("core.journal.sweep_s", journal, "s"),
        Metric::new("core.journal.overhead_frac", journal / t1 - 1.0, "ratio"),
        Metric::new("core.journal.resume_s", resume, "s"),
    ];
    // Two workers on one core say nothing about the pool.
    if host::machine_threads() >= 2 {
        out.push(Metric::new("core.exec.speedup_t2", t1 / t2, "ratio"));
        out.push(Metric::new(
            "core.exec.efficiency_t2",
            t1 / (2.0 * t2),
            "ratio",
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn seeds_differ_by_op_and_by_base_and_pairs_share() {
        let ops = (WORKLOADS[4].ops)();
        let a = op_seeds(0xF007, &ops);
        let b = op_seeds(12345, &ops);
        assert_eq!(a, op_seeds(0xF007, &ops));
        assert_ne!(a, b);
        let paired: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].paired).collect();
        assert_eq!(paired, [1, 7]);
        for i in 1..ops.len() {
            assert_eq!(a[i] == a[i - 1], ops[i].paired, "op {i}");
        }
        let sweeps = op_seeds(1, &(WORKLOADS[3].ops)());
        assert!(sweeps.iter().all(|&s| s == sweeps[0]));
    }

    #[test]
    fn slice_self_time_is_the_span_minus_children_minus_timer_cost() {
        let slice = Slice {
            cycles: 32,
            ns: 10_000,
            child_ns: 4_000,
            calls: 100,
        };
        // 100 calls at 20 ns a timer pair: 2000 ns inside the children,
        // 2000 ns around them.
        assert_eq!(slice.step_ns(20.0), 6_000.0);
        assert_eq!(slice.self_ns(20.0), 4_000.0);
        let children_own = slice.child_ns as f64 - slice.calls as f64 * 20.0;
        assert_eq!(slice.self_ns(20.0) + children_own, slice.step_ns(20.0));
        // An almost idle slice whose children outweigh it saturates at zero.
        let idle = Slice {
            cycles: 32,
            ns: 900,
            child_ns: 1_000,
            calls: 64,
        };
        assert_eq!((idle.step_ns(20.0), idle.self_ns(20.0)), (0.0, 0.0));
    }

    #[test]
    fn judge_counts_every_attempt_and_names_the_failure() {
        let op = &(WORKLOADS[0].ops)()[0];
        let mut verdict = Verdict::default();
        assert!(verdict
            .judge('T', op, Err("boom".to_owned()), None)
            .is_none());
        assert_eq!(verdict.attempted, 1);
        assert_eq!(verdict.failures, ["pass T, op uni_footprint: boom"]);
    }

    #[test]
    fn scratch_directories_do_not_outlive_their_pass() {
        let root = std::env::temp_dir().join(format!("footprint-benchmark-{}", std::process::id()));
        let seen = with_tmp(&root, |tmp| {
            fs::write(tmp.join("a.snap"), b"12345").unwrap();
            fs::write(tmp.join("b.snap"), b"123").unwrap();
            dir_usage(tmp)
        })
        .unwrap();
        assert_eq!(seen, (2, 8));
        assert!(!root.exists());
        assert_eq!(dir_usage(&root), (0, 0));
    }
}

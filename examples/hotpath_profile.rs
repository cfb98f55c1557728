//! Profiling driver: the perf harness's single-thread configuration at
//! several run lengths, separating per-run setup cost (network + workload
//! construction) from steady-state cycles/sec, plus one point past
//! saturation (load 0.55), where blocked heads make VC allocation the
//! whole cost of a cycle. Not a paper figure.

use footprint_core::{RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
use std::time::Instant;

fn main() {
    for (rate, total) in [(0.30, 4_000u64), (0.30, 8_000), (0.30, 20_000), (0.55, 4_000)] {
        let b = SimulationBuilder::paper_default()
            .routing(RoutingSpec::Footprint)
            .traffic(TrafficSpec::UniformRandom)
            .injection_rate(rate)
            .warmup(1_000)
            .measurement(total - 1_000)
            .seed(0xBE_5C);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            b.run_with(RunOptions::new()).expect("static experiment config");
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "load {rate:.2}: {total} cycles in {best:.3}s = {:.0} cycles/sec",
            total as f64 / best
        );
    }
    // Construction alone.
    let b = SimulationBuilder::paper_default()
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.30);
    let t = Instant::now();
    for _ in 0..20 {
        let (net, wl) = b.build().expect("static experiment config");
        std::hint::black_box((net, wl));
    }
    println!("build() alone: {:.4}s each", t.elapsed().as_secs_f64() / 20.0);
}

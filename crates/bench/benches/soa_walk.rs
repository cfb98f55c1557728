//! Criterion microbenchmark for the struct-of-arrays datapath walk: one
//! simulator cycle of the paper-default 8×8 mesh at four steady-state
//! occupancy levels. The per-cycle stages (delivery, VC allocation over
//! the waiting/active bitmasks, switch traversal, wire ticks) are exactly
//! what the single-thread `perf` metric times end to end; this bench
//! isolates their cost per cycle so a regression points at the datapath
//! rather than at harness plumbing.
//!
//! Occupancy is set by injection rate and reached by warming each network
//! into steady state before timing; iterations then keep simulating from
//! that state, so every timed cycle sees a live network at the target
//! load, not a cold start.
//!
//! `FOOTPRINT_QUICK=1` shrinks the sample count to a CI-smoke footprint
//! (the CI workflow runs it that way on every push to catch build rot and
//! gross slowdowns without paying for statistics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use footprint_core::{RoutingSpec, SimulationBuilder, TrafficSpec};

/// `(label, injection rate)` per occupancy level: nearly idle (the
/// active-set scheduler's home turf), moderate load, the highest load
/// below saturation (every head is still granted the cycle it is routed:
/// `va_blocks` is 0), and past saturation, where most waiting heads are
/// blocked and re-routed every cycle, so VC allocation dominates the walk.
const LEVELS: [(&str, f64); 4] = [
    ("low", 0.02),
    ("mid", 0.15),
    ("high", 0.30),
    ("saturated", 0.55),
];

fn bench_soa_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("soa-walk-8x8");
    g.sample_size(if footprint_bench::quick() { 3 } else { 10 });
    const CYCLES: u64 = 100;
    g.throughput(Throughput::Elements(CYCLES));
    for (label, rate) in LEVELS {
        g.bench_with_input(BenchmarkId::from_parameter(label), &rate, |b, &rate| {
            let (mut net, mut wl) = SimulationBuilder::paper_default()
                .routing(RoutingSpec::Footprint)
                .traffic(TrafficSpec::UniformRandom)
                .injection_rate(rate)
                .seed(0xBE_5C)
                .build()
                .expect("static experiment config");
            net.run(&mut *wl, 1_000); // reach steady-state occupancy
            b.iter(|| net.run(&mut *wl, CYCLES));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_soa_walk);
criterion_main!(benches);

//! Profiling driver: the perf harness's single-thread configuration at
//! several run lengths, separating per-run setup cost (network + workload
//! construction) from steady-state cycles/sec, plus one point past
//! saturation (load 0.55), where blocked heads make VC allocation the
//! whole cost of a cycle, and one idle point (a 16×16 mesh at load 0.02),
//! where the fixed per-cycle costs dominate. Then the median time of one
//! `build_with` on an 8×8 and a 16×16 mesh. Last, two memory readings:
//! the snapshot bytes of the 8×8 load-0.30 point after its warmup, and the
//! flit slab's peak length (the most flits ever buffered at once) over the
//! idle 16×16 run and the load-0.55 run. Not a paper figure.
//!
//! Run with `cargo run --release --example hotpath_profile`.

use footprint_core::{
    FaultPlan, RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec, UnreachablePolicy,
};
use std::time::Instant;

/// The profiled configuration: Footprint routing, uniform traffic.
fn point(k: u16, rate: f64) -> SimulationBuilder {
    SimulationBuilder::mesh(k)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(rate)
        .seed(0xBE_5C)
}

fn main() {
    let points = [
        (8, 0.30, 4_000u64),
        (8, 0.30, 8_000),
        (8, 0.30, 20_000),
        (8, 0.55, 4_000),
        (16, 0.02, 20_000),
    ];
    for (k, rate, total) in points {
        let b = point(k, rate).warmup(1_000).measurement(total - 1_000);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            b.run_with(RunOptions::new()).expect("static experiment config");
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{k}x{k} load {rate:.2}: {total} cycles in {best:.3}s = {:.0} cycles/sec",
            total as f64 / best
        );
    }
    // Construction alone: the median of 500 builds, network and workload
    // constructed and dropped, as the benchmark's `setup_s` times them.
    for k in [8, 16] {
        let b = point(k, 0.02);
        let mut samples: Vec<f64> = (0..500)
            .map(|_| {
                let t = Instant::now();
                let built = b.build_with(FaultPlan::new(), UnreachablePolicy::default());
                drop(built.expect("static experiment config"));
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        println!("build_with {k}x{k}: median {:.1} us", samples[250] * 1e6);
    }
    let (mut net, mut wl) = point(8, 0.30).build().expect("static experiment config");
    net.run(&mut *wl, 1_000);
    let bytes = net.snapshot().expect("fault-free snapshot").len();
    println!("8x8 load 0.30: snapshot after warmup {bytes} bytes");
    for (k, rate, total) in [(16, 0.02, 20_000), (8, 0.55, 4_000)] {
        let (mut net, mut wl) = point(k, rate).build().expect("static experiment config");
        net.run(&mut *wl, total);
        // What the slab replaced: a flit per input-VC slot and per
        // output-stage slot (router and injection rows).
        let (cfg, n) = (net.config(), net.topo().len());
        let slots = n * 5 * cfg.num_vcs * cfg.vc_buffer_depth + n * 6 * cfg.speedup;
        println!(
            "{k}x{k} load {rate:.2}: flit slab peak {} of {slots} buffer slots",
            net.datapath().slab_len()
        );
    }
}

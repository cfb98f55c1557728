//! Lane-parallel ensemble simulation is an execution schedule, not a
//! semantic change: every lane of an ensemble sweep must be bit-identical
//! to the same point run standalone, across every routing algorithm, on
//! wrapping and non-wrapping fabrics, under both schedulers. The
//! warm-start snapshot cache carries the same bar — a cache hit must
//! reproduce the cold-start report exactly.

use footprint_core::{
    RoutingSpec, RunOptions, Scheduler, SimulationBuilder, SweepOptions, TenantSpec, TrafficSpec,
};

const ALGOS: [RoutingSpec; 4] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
];

const RATES: [f64; 4] = [0.04, 0.08, 0.12, 0.16];

fn fabrics() -> [(&'static str, SimulationBuilder); 2] {
    let configure = |b: SimulationBuilder| {
        b.vcs(4)
            .warmup(150)
            .measurement(300)
            .drain(1_000)
            .seed(29)
    };
    [
        ("mesh:4x4", configure(SimulationBuilder::mesh(4))),
        ("torus:4x4", configure(SimulationBuilder::torus(4))),
    ]
}

fn two_tenants(b: SimulationBuilder) -> SimulationBuilder {
    b.tenants(vec![
        TenantSpec::new("web", TrafficSpec::UniformRandom, 0.08),
        TenantSpec::new("batch", TrafficSpec::Transpose, 0.06),
    ])
}

/// The full matrix: 4 algorithms × {mesh, torus} × {dense, active} ×
/// {plain, sentinel, tenants, watchdog}. A four-point ensemble
/// sweep must equal the sequential single-thread sweep point for point
/// (`Curve` derives `PartialEq` over exact f64 values, and the `Debug`
/// rendering prints shortest-roundtrip floats, so both comparisons are
/// bit-level) whatever else rides along: every observer is private to
/// its run, so none of them restricts the schedule.
#[test]
fn ensemble_lanes_bit_identical_across_algorithms_fabrics_schedulers() {
    type Variant = (
        &'static str,
        fn(SimulationBuilder) -> SimulationBuilder,
        fn(SweepOptions) -> SweepOptions,
    );
    let variants: [Variant; 4] = [
        ("plain", |b| b, |o| o),
        ("sentinel", |b| b, |o| o.sentinel(true)),
        ("tenants", two_tenants, |o| o),
        ("watchdog", |b| b, |o| o.watchdog(20_000)),
    ];
    for (fabric, base) in fabrics() {
        for spec in ALGOS {
            for scheduler in [Scheduler::Dense, Scheduler::Active] {
                for (variant, configure, options) in variants {
                    let sweep = |opts: SweepOptions| {
                        configure(base.clone().routing(spec))
                            .sweep_with(&RATES, options(opts).threads(1).scheduler(scheduler))
                            .expect("sweep")
                    };
                    let sequential = sweep(SweepOptions::new());
                    let ensemble = sweep(SweepOptions::new().ensemble(4));
                    assert_eq!(
                        format!("{sequential:?}"),
                        format!("{ensemble:?}"),
                        "{}/{fabric}/{scheduler:?}/{variant}: ensemble diverged from standalone runs",
                        spec.name()
                    );
                }
            }
        }
    }
}

/// A warm-start hit replays the cached post-warmup state and must produce
/// the exact report the cold run produced — the cache trades time, never
/// results.
#[test]
fn snapshot_cache_hit_reproduces_cold_start_exactly() {
    let dir = std::env::temp_dir().join(format!("footprint-ensemble-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .drain(1_000)
            .injection_rate(0.12)
            .seed(41)
            .routing(RoutingSpec::Footprint)
            // Pinned off: the cache is (deliberately) ineligible under the
            // sentinel, and this test must store/hit even on the
            // FOOTPRINT_SENTINEL=1 CI leg.
            .run_with(
                RunOptions::new()
                    .watchdog(20_000)
                    .sentinel(false)
                    .snapshot_cache(&dir),
            )
            .expect("run")
    };
    let cold = run();
    let cached: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir created by the cold run")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        cached.iter().any(|n| n.ends_with(".snap")),
        "cold run stored no snapshot (dir holds {cached:?})"
    );
    let mtimes = || -> Vec<_> {
        let modified = |n| std::fs::metadata(dir.join(n)).and_then(|m| m.modified());
        cached.iter().map(|n| modified(n).expect("snapshot mtime")).collect()
    };
    let stored = mtimes();
    let warm = run();
    assert_eq!(
        stored,
        mtimes(),
        "warm rerun rewrote the snapshot instead of hitting it"
    );
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "snapshot-cache hit diverged from the cold-start report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key includes the injection rate and seed, so sibling sweep
/// points never collide: a four-point ensemble sweep with a shared cache
/// directory stays bit-identical to the uncached sequential sweep on both
/// the cold (store) and warm (hit) passes — and on a pass over corrupted
/// entries, which must fall back to cold runs and heal the cache.
#[test]
fn ensemble_sweep_with_shared_cache_stays_bit_identical() {
    let dir = std::env::temp_dir().join(format!("footprint-ensemble-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = || {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(150)
            .measurement(300)
            .drain(1_000)
            .seed(53)
            .routing(RoutingSpec::Footprint)
    };
    let reference = base()
        .sweep_with(&RATES, SweepOptions::new().threads(1))
        .expect("reference sweep");
    let entries = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| e.expect("cache entry").path())
            .collect();
        paths.sort();
        paths.into_iter().map(|p| (p.clone(), std::fs::read(p).expect("entry"))).collect()
    };
    let mut good = Vec::new();
    for pass in ["cold", "warm", "corrupted"] {
        if pass == "corrupted" {
            // One flipped bit in the middle of every entry's body: the
            // checksum turns each into a miss, so the sweep runs cold.
            good = entries();
            assert_eq!(good.len(), RATES.len());
            for (path, bytes) in &good {
                let mut bad = bytes.clone();
                bad[bytes.len() / 2] ^= 0x10;
                std::fs::write(path, bad).expect("corrupt the entry");
            }
        }
        // Sentinel pinned off: the cache is (deliberately) ineligible under
        // it, and every pass must store/hit even on the
        // FOOTPRINT_SENTINEL=1 CI leg.
        let curve = base()
            .sweep_with(
                &RATES,
                SweepOptions::new()
                    .threads(1)
                    .sentinel(false)
                    .ensemble(4)
                    .snapshot_cache(&dir),
            )
            .expect("cached ensemble sweep");
        assert_eq!(
            format!("{reference:?}"),
            format!("{curve:?}"),
            "{pass} cached ensemble sweep diverged from the uncached sequential sweep"
        );
    }
    assert!(entries() == good, "the cold fallback must rewrite every corrupted entry");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Fixed-configuration timings of single public calls: the per-point fixed
//! costs a sweep pays (snapshot, restore, journal record, job dispatch) and
//! the topology queries under every routing decision. They do not depend
//! on the workload, so every workload reports the same measurement.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use footprint_core::{JobSet, RoutingSpec, SimulationBuilder, SweepJournal, TrafficSpec};
use footprint_stats::SweepPoint;
use footprint_topology::{AnyTopology, Direction, NodeId, TopologySpec};

use crate::summary::median;

/// Times `f` `repeats` times; the median in nanoseconds.
fn median_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

pub struct Micro {
    pub snapshot_us: f64,
    pub restore_us: f64,
    pub snapshot_bytes: u64,
    pub dispatch_us_per_job: f64,
    pub journal_record_us: f64,
    pub minimal_dirs_ns: f64,
    pub escape_class_ns: f64,
}

/// `Network::snapshot` / `restore` of an 8×8 Footprint mesh 1000 cycles
/// into uniform traffic at 0.30.
fn snapshot() -> Result<(f64, f64, u64), String> {
    let (mut net, mut workload) = SimulationBuilder::paper_default()
        .topology(TopologySpec::mesh(8))
        .vcs(10)
        .buffer_depth(4)
        .speedup(2)
        .link_latency(1)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.30)
        .seed(0xF007)
        .build()
        .map_err(|e| e.to_string())?;
    net.run(&mut *workload, 1000);
    let blob = net.snapshot()?;
    let snapshot_ns = median_ns(9, || net.snapshot());
    net.restore(&blob)?;
    let restore_ns = median_ns(9, || net.restore(&blob));
    Ok((snapshot_ns / 1e3, restore_ns / 1e3, blob.len() as u64))
}

/// Cost per job of `JobSet::run_on(2)` over 1000 empty jobs.
fn dispatch_us_per_job() -> f64 {
    const JOBS: usize = 1000;
    let ns = median_ns(9, || {
        let mut jobs = JobSet::new();
        for i in 0..JOBS {
            jobs.push(move || i);
        }
        jobs.run_on(2)
    });
    ns / 1e3 / JOBS as f64
}

/// `SweepJournal::record` of one point (an append and an fsync).
fn journal_record_us(tmp: &Path) -> Result<f64, String> {
    let rates: Vec<f64> = (1..=16).map(|i| f64::from(i) / 32.0).collect();
    let mut journal = SweepJournal::open(&tmp.join("micro.journal"), 0xF007, &rates)?;
    let mut samples = Vec::with_capacity(rates.len());
    for (index, &rate) in rates.iter().enumerate() {
        let point = SweepPoint {
            offered: rate,
            accepted: rate,
            latency: 20.0,
        };
        let started = Instant::now();
        journal.record(index, &point)?;
        samples.push(started.elapsed().as_nanos() as f64);
    }
    Ok(median(&samples) / 1e3)
}

/// `minimal_dirs` and `escape_class` through `AnyTopology`, over every
/// (current, destination) pair of an 8×8 mesh and an 8×8 torus.
fn topology() -> Result<(f64, f64), String> {
    let mut fabrics: Vec<AnyTopology> = Vec::new();
    for spec in [TopologySpec::mesh(8), TopologySpec::torus(8)] {
        fabrics.push(spec.validate().map_err(|e| e.to_string())?);
    }
    let pairs: Vec<(AnyTopology, NodeId, NodeId)> = fabrics
        .iter()
        .flat_map(|&t| {
            t.nodes()
                .flat_map(move |cur| t.nodes().map(move |dst| (t, cur, dst)))
        })
        .collect();
    let hops: Vec<(AnyTopology, NodeId, NodeId, Direction)> = pairs
        .iter()
        .flat_map(|&(t, cur, dst)| {
            t.minimal_dirs(cur, dst)
                .iter()
                .map(move |d| (t, cur, dst, d))
        })
        .collect();
    let dirs_ns = median_ns(9, || {
        for &(t, cur, dst) in &pairs {
            black_box(t.minimal_dirs(black_box(cur), black_box(dst)));
        }
    });
    let class_ns = median_ns(9, || {
        for &(t, cur, dst, dir) in &hops {
            black_box(t.escape_class(black_box(cur), black_box(dst), dir));
        }
    });
    Ok((dirs_ns / pairs.len() as f64, class_ns / hops.len() as f64))
}

/// Takes every measurement; `tmp` receives the scratch journal.
pub fn measure(tmp: &Path) -> Result<Micro, String> {
    let (snapshot_us, restore_us, snapshot_bytes) = snapshot()?;
    let (minimal_dirs_ns, escape_class_ns) = topology()?;
    Ok(Micro {
        snapshot_us,
        restore_us,
        snapshot_bytes,
        dispatch_us_per_job: dispatch_us_per_job(),
        journal_record_us: journal_record_us(tmp)?,
        minimal_dirs_ns,
        escape_class_ns,
    })
}

//! Parallel execution of independent simulation jobs.
//!
//! Every paper experiment is a set of *independent* simulations —
//! (routing algorithm × traffic pattern × offered rate × seed) — each of
//! which owns its `Network`, workload and RNG. That makes them
//! embarrassingly parallel: this module fans them out over a scoped
//! worker pool (`std::thread::scope`, no extra dependencies) while
//! keeping results **bit-identical regardless of thread count or
//! completion order**:
//!
//! * jobs are pulled from a shared queue by index, but results are
//!   written back to their submission slot, so collection order always
//!   equals submission order;
//! * nothing about a job's inputs depends on which worker runs it — the
//!   per-job seed is derived up front with [`derive_seed`] from the
//!   experiment's base seed and the job's index.
//!
//! The pool width defaults to the machine's available parallelism and
//! can be overridden with the `FOOTPRINT_THREADS` environment variable
//! (`FOOTPRINT_THREADS=1` forces fully sequential in-thread execution,
//! which is also the fallback wherever a pool would be pointless —
//! single-job sets, single-core machines).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-pool width: the `FOOTPRINT_THREADS` environment variable when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub(crate) fn num_threads() -> usize {
    if let Ok(s) = std::env::var("FOOTPRINT_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the seed for job `index` of an experiment seeded with `base`.
///
/// Uses the splitmix64 finalizer over `base` and `index` so that
/// * the same `(base, index)` always yields the same seed (results are
///   reproducible and independent of thread count), and
/// * different indices — and different bases — yield statistically
///   unrelated seeds (no accidental stream sharing between the points
///   of a sweep).
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    footprint_topology::splitmix64(base.wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)))
}

/// A boxed job: runs once on some worker, produces a `T`.
type Job<'scope, T> = Box<dyn FnOnce() -> T + Send + 'scope>;

/// How one quarantined job ended: with a value, or with a captured panic.
///
/// Produced by [`JobSet::run_quarantined_on`], where a panicking job is
/// contained to its own slot instead of tearing down the whole pool — one
/// diverging simulation point must not discard the completed work of its
/// siblings (which may already be journaled to a sweep checkpoint).
#[derive(Debug)]
pub(crate) enum JobOutcome<T> {
    /// The job returned normally.
    Completed(T),
    /// The job panicked; the payload (downcast to a string where possible)
    /// is captured for the caller's report.
    Panicked(String),
}

/// Renders a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An ordered set of independent jobs to run on the worker pool.
///
/// Results come back in submission order, whatever the completion
/// order was:
///
/// ```
/// use footprint_core::exec::JobSet;
///
/// let mut jobs = JobSet::new();
/// for i in 0..16u64 {
///     jobs.push(move || i * i);
/// }
/// assert_eq!(jobs.run_on(4), (0..16u64).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Default)]
pub struct JobSet<'scope, T> {
    jobs: Vec<Job<'scope, T>>,
}

impl<'scope, T: Send + 'scope> JobSet<'scope, T> {
    /// An empty job set.
    #[must_use]
    pub fn new() -> Self {
        JobSet { jobs: Vec::new() }
    }

    /// Appends a job. Its result slot is this submission position.
    pub fn push(&mut self, job: impl FnOnce() -> T + Send + 'scope) {
        self.jobs.push(Box::new(job));
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs all jobs on the default pool (the machine's available
    /// parallelism, or `FOOTPRINT_THREADS` workers) and returns their
    /// results in submission order.
    pub fn run(self) -> Vec<T> {
        let threads = num_threads();
        self.run_on(threads)
    }

    /// Runs all jobs on exactly `threads` workers (capped at the job
    /// count; `threads <= 1` runs inline on the calling thread) and
    /// returns their results in submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any panicking job once the pool has
    /// joined.
    pub fn run_on(self, threads: usize) -> Vec<T> {
        run_parallel(self.jobs, threads)
    }

    /// Runs all jobs on exactly `threads` workers with per-job panic
    /// isolation: a panicking job yields [`JobOutcome::Panicked`] in its
    /// slot while every other job still runs to completion.
    ///
    /// Each job runs under `catch_unwind`; the panic payload is captured
    /// into the job's result slot instead of unwinding through the pool.
    /// Results stay in submission order, so callers can attribute a
    /// panic to the job that raised it.
    pub(crate) fn run_quarantined_on(self, threads: usize) -> Vec<JobOutcome<T>> {
        let jobs: Vec<Job<'scope, JobOutcome<T>>> = self
            .jobs
            .into_iter()
            .map(|job| -> Job<'scope, JobOutcome<T>> {
                Box::new(move || {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                        Ok(v) => JobOutcome::Completed(v),
                        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
                    }
                })
            })
            .collect();
        run_parallel(jobs, threads)
    }
}

/// Runs `jobs` on `threads` scoped workers, returning results in job
/// order. The backing primitive behind [`JobSet::run_on`].
///
/// Jobs are pre-partitioned into contiguous chunks and workers claim
/// whole chunks from one shared counter: each claim costs one atomic
/// increment plus one uncontended lock, amortized over the batch.
/// Every worker accumulates `(start_index, results)` runs into its own
/// local buffer and the caller splices them back by index after the
/// join — there is no shared result array for workers to false-share
/// on while jobs complete.
///
/// Chunk sizes follow guided self-scheduling: each successive chunk takes
/// `remaining / (2 × workers)` jobs (at least one), so early chunks are
/// large enough to amortize claim overhead while the tail degenerates to
/// single jobs that any idle worker can steal. The previous fixed
/// `jobs / (4 × workers)` partition handed every worker equally sized
/// chunks up front; with the monotonically rising per-point cost of a
/// latency-throughput sweep (points near saturation simulate far more
/// traffic), whichever worker drew the last chunk ran all the expensive
/// points alone and the others idled — two threads measured barely
/// faster than one on exactly the sweeps parallelism is for.
fn run_parallel<'scope, T: Send>(jobs: Vec<Job<'scope, T>>, threads: usize) -> Vec<T> {
    /// A claimable chunk: `(start index, contiguous run of jobs)`, taken
    /// whole by the first worker to lock it.
    type Chunk<'scope, T> = Mutex<Option<(usize, Vec<Job<'scope, T>>)>>;
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let workers = threads.min(n);
    let mut chunks: Vec<Chunk<'scope, T>> = Vec::new();
    let mut jobs = jobs.into_iter();
    let mut start = 0;
    while start < n {
        let chunk_len = (n - start).div_ceil(workers * 2).max(1);
        let batch: Vec<Job<'scope, T>> = jobs.by_ref().take(chunk_len).collect();
        let len = batch.len();
        chunks.push(Mutex::new(Some((start, batch))));
        start += len;
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks.len() {
                            break;
                        }
                        let (first, batch) = chunks[c]
                            .lock()
                            .expect("chunk slot poisoned")
                            .take()
                            .expect("chunk claimed twice");
                        let out: Vec<T> = batch.into_iter().map(|job| job()).collect();
                        local.push((first, out));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (first, out) in local {
                for (k, v) in out.into_iter().enumerate() {
                    results[first + k] = Some(v);
                }
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every chunk ran to completion"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        for threads in [1, 2, 3, 8, 33] {
            let mut jobs = JobSet::new();
            for i in 0..32u64 {
                jobs.push(move || {
                    // Stagger completion so later jobs often finish first.
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * 10
                });
            }
            let out = jobs.run_on(threads);
            assert_eq!(out, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_job_sets() {
        let jobs: JobSet<'_, u32> = JobSet::new();
        assert!(jobs.is_empty());
        assert_eq!(jobs.run_on(8), Vec::<u32>::new());
        let mut one = JobSet::new();
        one.push(|| 7);
        assert_eq!(one.len(), 1);
        assert_eq!(one.run_on(8), vec![7]);
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let inputs = [2u64, 3, 5, 7];
        let mut jobs = JobSet::new();
        for x in &inputs {
            jobs.push(move || x * x);
        }
        assert_eq!(jobs.run_on(2), vec![4, 9, 25, 49]);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let base = 0x0F00;
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(base, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision across jobs");
        // Stable across calls.
        assert_eq!(derive_seed(base, 5), seeds[5]);
        // Different bases give different streams.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // And a derived seed never trivially equals its base.
        assert!(seeds.iter().all(|&s| s != base));
    }

    #[test]
    fn quarantined_panic_spares_the_other_jobs() {
        for threads in [1, 4] {
            let mut jobs = JobSet::new();
            jobs.push(|| 1u32);
            jobs.push(|| panic!("boom at point 1"));
            jobs.push(|| 3u32);
            let outcomes = jobs.run_quarantined_on(threads);
            assert!(matches!(outcomes[0], JobOutcome::Completed(1)));
            match &outcomes[1] {
                JobOutcome::Panicked(msg) => assert!(msg.contains("boom at point 1")),
                other => panic!("expected quarantined panic, got {other:?}"),
            }
            assert!(matches!(outcomes[2], JobOutcome::Completed(3)));
        }
    }

    /// Spins for roughly `units` of work and returns a checksum the
    /// optimizer cannot discard.
    fn burn(units: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..units * 20_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    /// Regression for the flat sweep scaling: with the old fixed
    /// partition, the worker that drew the final chunk ran all the
    /// expensive tail jobs alone, so two threads were no faster than one.
    /// Guided chunks must keep a 2-thread run of a cost-ramped ≥8-job set
    /// at least as fast as the sequential run (small tolerance for pool
    /// setup noise). Skipped on single-core machines, where there is no
    /// parallelism to regress.
    #[test]
    fn two_threads_never_slower_than_one_on_ramped_jobs() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            eprintln!("skipping: single-core machine");
            return;
        }
        let make = || {
            let mut jobs = JobSet::new();
            for i in 1..=10u64 {
                // Cost ramps like a sweep approaching saturation.
                jobs.push(move || burn(i * i));
            }
            jobs
        };
        let time = |threads: usize| {
            // Best of two, so a one-off scheduling hiccup cannot fail CI.
            (0..2)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let out = make().run_on(threads);
                    assert_eq!(out.len(), 10);
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let seq = time(1);
        let par = time(2);
        assert!(
            par <= seq + seq / 4,
            "2 threads ({par:?}) slower than 1 ({seq:?})"
        );
    }

    #[test]
    fn panic_in_a_job_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut jobs = JobSet::new();
            jobs.push(|| 1u32);
            jobs.push(|| panic!("boom"));
            jobs.run_on(2)
        });
        assert!(result.is_err());
    }
}

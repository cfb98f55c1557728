//! The crash drill for the sweep checkpoint journal with a real process:
//! a checkpointed sweep is SIGKILLed mid-campaign and resumed from what
//! the journal holds. (`core`'s unit tests cover the same resume against
//! a journal torn by hand; only a kill shows that what a dying process
//! leaves behind is such a journal.)

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use footprint_suite::core::SweepJournal;
use footprint_suite::prelude::*;

/// Set only on the child the drill spawns: the journal the victim writes.
const VICTIM_JOURNAL: &str = "KILL_RESUME_VICTIM_JOURNAL";
const SEED: u64 = 0x5EED;

#[test]
fn sigkilled_sweep_resumes_bit_identically() {
    let rates: Vec<f64> = (1..=8).map(|i| f64::from(i) * 0.05).collect();
    let sweep = |opts: SweepOptions| {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .routing(RoutingSpec::Footprint)
            .traffic(TrafficSpec::UniformRandom)
            .warmup(500)
            .measurement(1_500)
            .seed(SEED)
            .sweep_with(&rates, opts)
            .expect("valid configuration")
    };
    // The victim is this test itself, re-executed by the drill below: it
    // runs the checkpointed sweep until the kill lands (or to completion).
    if let Some(journal) = std::env::var_os(VICTIM_JOURNAL) {
        sweep(SweepOptions::new().threads(2).checkpoint(journal));
        return;
    }
    let baseline = sweep(SweepOptions::new());
    let journal = std::env::temp_dir().join(format!(
        "footprint-kill-resume-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);

    let mut victim = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "sigkilled_sweep_resumes_bit_identically"])
        .env(VICTIM_JOURNAL, &journal)
        .stdout(Stdio::null())
        .spawn()
        .expect("the test binary re-executes");
    // Kill as soon as the journal holds one durable record. A victim that
    // finishes first (or a wait that times out) leaves a complete journal:
    // the resume below is then a pure replay and must still match.
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let records = std::fs::read_to_string(&journal).map_or(0, |s| s.lines().skip(1).count());
        let exited = victim.try_wait().unwrap().is_some();
        if records >= 1 || exited || Instant::now() > give_up {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = victim.kill();
    victim.wait().unwrap();

    // Durability: whatever the kill left behind reads back cleanly.
    let survived = SweepJournal::open(&journal, SEED, &rates)
        .expect("journal readable after SIGKILL")
        .progress();
    assert!(survived.completed >= 1, "{survived}");

    let resumed = sweep(SweepOptions::new().threads(2).checkpoint(&journal));
    assert_eq!(resumed, baseline);
    assert_eq!(resumed.to_string(), baseline.to_string());
    let finished = SweepJournal::open(&journal, SEED, &rates).unwrap().progress();
    assert!(finished.is_complete(), "{finished}");
    let _ = std::fs::remove_file(&journal);
}

//! The repo benchmark: five named workloads, host-time end-to-end metrics
//! and an outside-in layer breakdown (routing / traffic / sim / stats /
//! core), measured through the public API only. See `README.md` beside
//! this file for what every workload and metric means.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark --compare A.json B.json
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); without it the binary
//! re-executes itself once per workload, traced, so peak memory and
//! allocator state never leak from one workload into the next, and merges
//! the results into `results.json`.

mod compare;
mod engine;
mod fingerprint;
mod host;
mod json;
mod measure;
mod metrics;
mod micro;
mod summary;
mod timed;
mod trace;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use measure::{Config, Measured, Timing};
use metrics::Metric;
use workloads::{Workload, SCALE, WORKLOADS};

const DEFAULT_SEED: u64 = 0xF007;
const DEFAULT_SECONDS: f64 = 10.0;

enum Invocation {
    Run {
        workload: Option<String>,
        cfg: Config,
    },
    Compare(PathBuf, PathBuf),
}

/// Decimal or `0x` hexadecimal.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: true,
        // Build products and results share the build directory, so a
        // checkout stays clean.
        out: PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Invocation::Compare(value()?.into(), value()?.into())),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                cfg.seed = parse_seed(text).ok_or_else(|| format!("bad seed `{text}`"))?;
            }
            "--seconds" => {
                let text = value()?;
                cfg.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad duration `{text}`"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cfg.out = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Invocation::Run { workload, cfg })
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        let entry = Value::obj([
            ("value", Value::from(m.value)),
            ("unit", Value::from(m.unit)),
        ]);
        (m.name.clone(), entry)
    }))
}

/// The median and, beside it, every repetition's reading in run order.
fn timing_fields(t: &Timing) -> [(String, Value); 2] {
    let samples = t.samples.iter().map(|&s| Value::from(s)).collect();
    [
        ("wall_s".to_owned(), Value::from(t.median)),
        ("wall_s_samples".to_owned(), Value::Arr(samples)),
    ]
}

/// The result file of one workload. Fingerprints are hexadecimal strings:
/// a JSON number cannot hold 64 bits.
fn result_document(m: &Measured, cfg: &Config) -> Value {
    let ops = m.ops.iter().map(|op| {
        let mut fields = vec![
            ("name".to_owned(), Value::from(op.name)),
            (
                "fingerprint".to_owned(),
                op.fingerprint
                    .map_or(Value::Null, |f| Value::Str(format!("{f:016x}"))),
            ),
            ("cycles".to_owned(), Value::from(op.cycles)),
        ];
        fields.extend(timing_fields(&op.wall));
        Value::Obj(fields)
    });
    let mut fields = vec![
        ("workload".to_owned(), Value::from(m.workload)),
        ("seed".to_owned(), Value::from(cfg.seed)),
        ("seconds".to_owned(), Value::from(cfg.seconds)),
        (
            "scale".to_owned(),
            Value::Str(format!("{}/{}", SCALE.0, SCALE.1)),
        ),
        (
            "machine_threads".to_owned(),
            Value::from(host::machine_threads() as u64),
        ),
        ("n".to_owned(), Value::from(m.wall.samples.len() as u64)),
        ("ops_attempted".to_owned(), Value::from(m.ops_attempted)),
        (
            "ops_failed".to_owned(),
            Value::from(m.failures.len() as u64),
        ),
        (
            "failures".to_owned(),
            Value::Arr(m.failures.iter().map(|f| Value::from(f.as_str())).collect()),
        ),
        (
            "sim_fingerprint".to_owned(),
            Value::Str(format!("{:016x}", m.sim_fingerprint)),
        ),
    ];
    fields.extend(timing_fields(&m.wall));
    fields.extend([
        ("end_to_end".to_owned(), metrics_object(&m.end_to_end)),
        ("per_layer".to_owned(), metrics_object(&m.per_layer)),
        ("detail".to_owned(), metrics_object(&m.detail)),
        ("ops".to_owned(), Value::Arr(ops.collect())),
    ]);
    Value::Obj(fields)
}

fn print_human(m: &Measured) {
    let (fastest, slowest) = m
        .wall
        .samples
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    println!(
        "workload {}: n = {} timed repetitions (wall {fastest:.4} .. {slowest:.4} s), host threads {}",
        m.workload,
        m.wall.samples.len(),
        host::machine_threads()
    );
    println!("  ops_attempted {}", m.ops_attempted);
    println!("  ops_failed {}", m.failures.len());
    println!("  sim_fingerprint {:016x}", m.sim_fingerprint);
    for failure in &m.failures {
        println!("  FAILED {failure}");
    }
    for (title, metrics) in [
        ("end to end (host time, tracing off)", &m.end_to_end),
        ("per layer (traced pass)", &m.per_layer),
        ("this workload only", &m.detail),
    ] {
        if !metrics.is_empty() {
            println!("  -- {title}");
        }
        for metric in metrics {
            println!(
                "  {:<36} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
    }
}

fn write_file(path: &Path, doc: &Value) -> Result<(), String> {
    fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures one workload in this process. The last line printed is the
/// driver's JSON object.
fn run_one(workload: &Workload, cfg: &Config) -> Result<bool, String> {
    fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let measured = measure::run(workload, cfg)?;
    write_file(
        &cfg.out.join(format!("{}.json", workload.name)),
        &result_document(&measured, cfg),
    )?;
    println!("{}: {}", workload.name, workload.why);
    print_human(&measured);
    let correct = measured.failures.is_empty();
    let reported = if cfg.trace {
        &measured.per_layer
    } else {
        &measured.end_to_end
    };
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(measured.ops_attempted)),
            ("failed", Value::from(measured.failures.len() as u64)),
            ("metrics", metrics_object(reported)),
        ])
    );
    Ok(correct)
}

/// Measures every workload, each in a process of its own, and merges their
/// result files into `results.json`.
fn run_all(cfg: &Config) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload.name, "--trace", "1"])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .arg("--out")
            .arg(&cfg.out)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let path = cfg.out.join(format!("{}.json", workload.name));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(Value::parse(&text)?);
    }
    let path = cfg.out.join("results.json");
    write_file(&path, &Value::obj([("workloads", Value::Arr(results))]))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (report, failures) = compare::compare(&load(a)?, &load(b)?);
    for line in &report {
        println!("{line}");
    }
    for failure in &failures {
        println!("FAIL {failure}");
    }
    if failures.is_empty() {
        println!("B agrees with A within the bounds");
    }
    Ok(failures.is_empty())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match parse_args(args)? {
        Invocation::Compare(a, b) => run_compare(&a, &b),
        Invocation::Run { workload, cfg } => {
            if let Some(variable) = host::footprint_variable(
                std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()),
            ) {
                return Err(format!(
                    "{variable} is set: FOOTPRINT_* variables change what the program does; unset it"
                ));
            }
            match workload {
                None => run_all(&cfg),
                Some(name) => {
                    let known = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}` (known: {})", names.join(", "))
                    })?;
                    run_one(known, &cfg)
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(
            "--workload saturated --seed 7 --seconds 10 --trace 0",
        ));
        let Ok(Invocation::Run { workload, cfg }) = parsed else {
            panic!("a run");
        };
        assert_eq!(workload.as_deref(), Some("saturated"));
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10.0, false));
    }

    #[test]
    fn defaults_and_hex_seeds() {
        let Ok(Invocation::Run { workload, cfg }) = parse_args(&[]) else {
            panic!("a run");
        };
        assert!(workload.is_none());
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace),
            (0xF007, DEFAULT_SECONDS, true)
        );
        assert_eq!(parse_seed("0xF007"), Some(0xF007));
        assert_eq!(parse_seed("12345"), Some(12345));
        assert_eq!(parse_seed("seed"), None);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--trace 2",
            "--seconds -1",
            "--seconds x",
            "--seed",
            "--frobnicate",
            "--compare a.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Invocation::Compare(..))
        ));
    }
}

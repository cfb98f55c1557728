//! Interactive experiment runner: simulate any (algorithm, pattern, rate,
//! mesh, VCs) point from the command line.
//!
//! ```bash
//! cargo run --release -p footprint-bench --bin explore -- \
//!     --routing footprint --traffic shuffle --rate 0.45 --mesh 8 --vcs 10
//! ```

use footprint_core::{PacketSize, RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    routing: RoutingSpec,
    traffic: TrafficSpec,
    rate: f64,
    mesh: u16,
    vcs: usize,
    warmup: u64,
    measurement: u64,
    seed: u64,
    variable_size: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            routing: RoutingSpec::Footprint,
            traffic: TrafficSpec::UniformRandom,
            rate: 0.2,
            mesh: 8,
            vcs: 10,
            warmup: 2_000,
            measurement: 4_000,
            seed: 1,
            variable_size: false,
        }
    }
}

/// Parses a flag's value, reporting `err` when it does not parse.
fn num<T: std::str::FromStr>(value: String, err: &str) -> Result<T, String> {
    value.parse().map_err(|_| err.to_string())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--routing" | "-r" => {
                args.routing = value("--routing")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--traffic" | "-t" => {
                args.traffic = value("--traffic")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--rate" => args.rate = num(value("--rate")?, "rate must be a number")?,
            "--mesh" | "-k" => args.mesh = num(value("--mesh")?, "mesh must be an integer radix")?,
            "--vcs" | "-v" => args.vcs = num(value("--vcs")?, "vcs must be an integer")?,
            "--warmup" => args.warmup = num(value("--warmup")?, "warmup must be an integer")?,
            "--measurement" => {
                args.measurement = num(value("--measurement")?, "measurement must be an integer")?;
            }
            "--seed" => args.seed = num(value("--seed")?, "seed must be an integer")?,
            "--variable-size" => args.variable_size = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn print_help() {
    let patterns: Vec<String> = TrafficSpec::NAMED.map(TrafficSpec::name).into();
    println!(
        "explore — run one NoC simulation point\n\n\
         USAGE: explore [--routing ALGO] [--traffic PATTERN] [--rate R]\n\
                 [--mesh K] [--vcs V] [--warmup N] [--measurement N]\n\
                 [--seed S] [--variable-size]\n\n\
         ALGO:    footprint | dbar | odd-even | dor | dbar+xordet |\n\
                  odd-even+xordet | dor+xordet | random-minimal\n\
         PATTERN: {} | APP+APP",
        patterns.join(" | ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let builder = SimulationBuilder::mesh(args.mesh)
        .vcs(args.vcs)
        .routing(args.routing)
        .traffic(args.traffic)
        .injection_rate(args.rate)
        .packet_size(if args.variable_size {
            PacketSize::PAPER_VARIABLE
        } else {
            PacketSize::SINGLE
        })
        .warmup(args.warmup)
        .measurement(args.measurement)
        .seed(args.seed);
    match builder.run_with(RunOptions::new()) {
        Ok(report) => {
            println!(
                "{} x {} @ {:.3} on {}x{} with {} VCs (seed {}):",
                args.routing.name(),
                args.traffic,
                args.rate,
                args.mesh,
                args.mesh,
                args.vcs,
                args.seed
            );
            println!("  {report}");
            println!(
                "  purity {:.3}, HoL degree {:.2}, delivery ratio {:.3}",
                report.mean_purity,
                report.hol_degree,
                report.delivery_ratio()
            );
            for (c, s) in report.classes.iter().enumerate() {
                if s.ejected_packets > 0 && report.classes.len() > 1 {
                    println!(
                        "  class {c}: latency {:.1}, throughput {:.3}",
                        s.mean_latency, s.throughput
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

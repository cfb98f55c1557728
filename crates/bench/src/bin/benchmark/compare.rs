//! `--compare A.json B.json`: is run B no worse than run A?
//!
//! B fails against A when an end-to-end metric is worse by more than its
//! bound, when a count or a `sim_fingerprint` differs, or when more ops
//! failed. For the repeatability check of one commit, compare both ways.

use crate::json::Value;
use crate::metrics::END_TO_END;

/// The workload objects of a result document: the file of one workload, or
/// the combined `results.json`.
fn workloads(doc: &Value) -> Vec<&Value> {
    match doc.get("workloads") {
        Some(list) => list.items().iter().collect(),
        None => vec![doc],
    }
}

fn name(workload: &Value) -> &str {
    workload
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("?")
}

fn metric(workload: &Value, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Compares two result documents. Returns the report to print and the
/// findings that make B fail (empty when it passes).
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, Vec<String>) {
    let (mut report, mut failures) = (Vec::new(), Vec::new());
    let (a_workloads, b_workloads) = (workloads(a), workloads(b));
    for wb in &b_workloads {
        if !a_workloads.iter().any(|wa| name(wa) == name(wb)) {
            failures.push(format!("{}: only in B", name(wb)));
        }
    }
    for wa in a_workloads {
        let w = name(wa);
        let Some(wb) = b_workloads.iter().find(|wb| name(wb) == w) else {
            failures.push(format!("{w}: only in A"));
            continue;
        };

        for &(metric_name, unit, better, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(wa, "end_to_end", metric_name),
                metric(wb, "end_to_end", metric_name),
            ) else {
                failures.push(format!("{w}: {metric_name} missing"));
                continue;
            };
            let change = (vb - va) / va;
            let worse = if better == "lower" { change } else { -change };
            let verdict = if worse > bound {
                failures.push(format!(
                    "{w}: {metric_name} worse by {:.1} % (bound {:.0} %): {va} -> {vb} {unit}",
                    worse * 100.0,
                    bound * 100.0
                ));
                "WORSE"
            } else if worse < -bound {
                "better"
            } else {
                "same"
            };
            report.push(format!(
                "{w:<15} {metric_name:<17} {va:>14.6} {vb:>14.6} {unit:<4} {:>+7.2} %  {verdict}",
                change * 100.0
            ));
        }

        for section in ["per_layer", "detail"] {
            let members = wa.get(section).map(Value::members).unwrap_or_default();
            for (metric_name, entry) in members {
                if entry.get("unit").and_then(Value::as_str) != Some("count") {
                    continue;
                }
                let va = entry.get("value").and_then(Value::as_f64);
                let vb = metric(wb, section, metric_name);
                if vb.is_some() && va != vb {
                    failures.push(format!(
                        "{w}: count {metric_name} differs: {va:?} vs {vb:?}"
                    ));
                }
            }
        }

        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        let (fa, fb) = (text(wa, "sim_fingerprint"), text(wb, "sim_fingerprint"));
        if fa != fb {
            failures.push(format!("{w}: sim_fingerprint differs: {fa:?} vs {fb:?}"));
        }
        let failed = |v: &Value| {
            v.get("ops_failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(wb) > failed(wa) {
            failures.push(format!(
                "{w}: ops_failed rose from {} to {}",
                failed(wa),
                failed(wb)
            ));
        }
    }
    (report, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(
        wall_s: f64,
        cycles_per_s: f64,
        decisions: u64,
        fingerprint: &str,
        failed: u64,
    ) -> Value {
        let m = |value: f64, unit: &str| {
            Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))])
        };
        Value::obj([
            ("workload", Value::from("saturated")),
            ("ops_failed", Value::from(failed)),
            ("sim_fingerprint", Value::from(fingerprint)),
            (
                "end_to_end",
                Value::obj([
                    ("wall_s", m(wall_s, "s")),
                    ("sim_cycles_per_s", m(cycles_per_s, "1/s")),
                    ("cpu_s", m(wall_s, "s")),
                    ("peak_rss_mb", m(10.0, "MiB")),
                    ("setup_s", m(0.001, "s")),
                ]),
            ),
            (
                "per_layer",
                Value::obj([
                    ("routing.decisions", m(decisions as f64, "count")),
                    ("routing.route_ns", m(wall_s * 100.0, "ns")),
                ]),
            ),
        ])
    }

    #[test]
    fn a_run_agrees_with_itself_and_with_noise_inside_the_bounds() {
        let a = result(2.0, 5000.0, 77, "ab", 0);
        assert!(compare(&a, &a).1.is_empty());
        let noisy = result(2.1, 4800.0, 77, "ab", 0);
        let (report, failures) = compare(&a, &noisy);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(report.len(), END_TO_END.len());
    }

    #[test]
    fn regressions_are_named_and_gains_are_not_failures() {
        let a = result(2.0, 5000.0, 77, "ab", 0);
        // Five points past the bound, in each metric's bad direction.
        let past = END_TO_END[0].3 + 0.05;
        let slower = compare(
            &a,
            &result(2.0 * (1.0 + past), 5000.0 * (1.0 - past), 77, "ab", 0),
        )
        .1;
        assert_eq!(slower.len(), 3, "{slower:?}");
        let percent = format!("worse by {:.1} %", past * 100.0);
        assert!(
            slower[0].starts_with(&format!("saturated: wall_s {percent}")),
            "{slower:?}"
        );
        assert!(
            slower[1].starts_with(&format!("saturated: sim_cycles_per_s {percent}")),
            "{slower:?}"
        );
        assert!(slower[2].starts_with("saturated: cpu_s"), "{slower:?}");
        let faster = compare(&a, &result(1.0, 10000.0, 77, "ab", 0));
        assert!(faster.1.is_empty());
        assert!(faster.0[0].ends_with("better"));
    }

    #[test]
    fn counts_fingerprints_and_failed_ops_must_match() {
        let a = result(2.0, 5000.0, 77, "ab", 0);
        let count = compare(&a, &result(2.0, 5000.0, 78, "ab", 0)).1;
        assert!(
            count[0].contains("count routing.decisions differs"),
            "{count:?}"
        );
        let print = compare(&a, &result(2.0, 5000.0, 77, "cd", 0)).1;
        assert!(print[0].contains("sim_fingerprint differs"), "{print:?}");
        let failed = compare(&a, &result(2.0, 5000.0, 77, "ab", 2)).1;
        assert!(
            failed[0].contains("ops_failed rose from 0 to 2"),
            "{failed:?}"
        );
        // Fewer failures than the baseline is not a finding.
        assert!(compare(&result(2.0, 5000.0, 77, "ab", 2), &a).1.is_empty());
    }

    #[test]
    fn combined_documents_pair_workloads_by_name() {
        let a = result(2.0, 5000.0, 77, "ab", 0);
        let both = Value::obj([("workloads", Value::Arr(vec![a.clone()]))]);
        assert!(compare(&both, &a).1.is_empty());
        let none = Value::obj([("workloads", Value::Arr(Vec::new()))]);
        assert_eq!(compare(&both, &none).1, ["saturated: only in A"]);
        assert_eq!(compare(&none, &both).1, ["saturated: only in B"]);
    }
}

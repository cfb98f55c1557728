//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root repeats them for the driver; a
//! unit test keeps the two in step.

/// One end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the baseline by which the metric may worsen before
/// `--compare` (and the driver) call it a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("wall_s", "s", "lower", 0.20),
    ("sim_cycles_per_s", "1/s", "higher", 0.20),
    ("cpu_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics every workload reports: `(name, unit, better)`.
/// A `count` repeats exactly for a given seed and must not move under a
/// change that only makes the simulator faster; its direction is nominal.
pub const PER_LAYER: [(&str, &str, &str); 35] = [
    ("routing.decisions", "count", "lower"),
    ("routing.decisions_per_cycle", "1/cycle", "lower"),
    ("routing.route_ns", "ns", "lower"),
    ("routing.requests_per_decision", "ratio", "lower"),
    ("routing.granted_frac", "ratio", "higher"),
    ("routing.injection_requests_ns", "ns", "lower"),
    ("routing.busy_frac", "ratio", "lower"),
    ("traffic.calls", "count", "lower"),
    ("traffic.packets", "count", "higher"),
    ("traffic.hit_frac", "ratio", "higher"),
    ("traffic.generate_ns", "ns", "lower"),
    ("traffic.busy_frac", "ratio", "lower"),
    ("sim.step_ns_per_cycle", "ns", "lower"),
    ("sim.step_ns_per_cycle.p90", "ns", "lower"),
    ("sim.self_ns_per_cycle", "ns", "lower"),
    ("sim.self_frac", "ratio", "lower"),
    ("sim.inject_flits", "count", "higher"),
    ("sim.eject_flits", "count", "higher"),
    ("sim.vc_grants", "count", "higher"),
    ("sim.flit_hops", "count", "higher"),
    ("sim.ns_per_flit_hop", "ns", "lower"),
    ("sim.network_new_us", "us", "lower"),
    ("sim.snapshot_us", "us", "lower"),
    ("sim.restore_us", "us", "lower"),
    ("sim.snapshot_bytes", "count", "lower"),
    ("stats.report_us", "us", "lower"),
    ("core.build_us", "us", "lower"),
    ("core.exec.dispatch_us_per_job", "us", "lower"),
    ("core.journal.record_us", "us", "lower"),
    ("topology.minimal_dirs_ns", "ns", "lower"),
    ("topology.escape_class_ns", "ns", "lower"),
    ("trace.slices", "count", "higher"),
    ("trace.timer_ns", "ns", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.hand_driven_frac", "ratio", "higher"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Labels `values` with the names and units of [`END_TO_END`], in order.
pub fn end_to_end(values: [f64; END_TO_END.len()]) -> Vec<Metric> {
    let defs = END_TO_END.iter();
    defs.zip(values)
        .map(|(def, v)| Metric::new(def.0, v, def.1))
        .collect()
}

/// Labels `(name, value)` pairs with the units of [`PER_LAYER`].
///
/// # Panics
///
/// Panics unless the names are exactly the table's, in order: the driver
/// expects every per-layer metric on every workload.
pub fn per_layer(values: &[(&str, f64)]) -> Vec<Metric> {
    assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(PER_LAYER.iter().map(|def| def.0)),
        "the traced pass must report exactly the PER_LAYER table"
    );
    let defs = PER_LAYER.iter();
    defs.zip(values)
        .map(|(def, v)| Metric::new(def.0, v.1, def.1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::WORKLOADS;

    /// The driver reads `BENCHMARK.json`; the harness prints from the
    /// tables above. They must name the same things.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = Value::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_owned();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);

        let end_to_end: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_owned(), u.to_owned(), b.to_owned(), bound))
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(per_layer, ours);
    }

    #[test]
    fn names_fit_the_contract() {
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
    }
}

//! What identifies a simulation result: an FNV-1a-64 hash over fields
//! selected **by name**, so a field appended to `RunReport` later does not
//! disturb it and `{:?}` formatting never enters into it.
//!
//! The fingerprint is reported, not pinned: the in-tree goldens stay the
//! bit-identity gate, and a legitimate simulator fix must not be blocked by
//! a benchmark file it may not edit. Two commits that print the same
//! fingerprint computed the same simulated statistics.

use footprint_core::RunReport;
use footprint_stats::Curve;

/// Incremental FNV-1a-64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one run: window length, every class's packet and flit
/// counts and latency, the §4.3 blocking statistics and the fault totals.
pub fn of_report(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.cycles);
    h.u64(r.classes.len() as u64);
    for c in std::iter::once(&r.latency).chain(&r.classes) {
        h.u64(c.generated_packets);
        h.u64(c.ejected_packets);
        h.u64(c.ejected_flits);
        h.u64(c.measured_packets);
        h.f64(c.mean_latency);
        h.u64(c.max_latency);
    }
    h.u64(r.va_blocks);
    h.f64(r.mean_purity);
    h.f64(r.hol_degree);
    h.u64(r.faults.delivered());
    h.u64(r.faults.dropped());
    h.u64(r.faults.retry_attempts());
    h.finish()
}

/// Fingerprint of one sweep: every point's offered load, accepted
/// throughput and latency, bit for bit.
pub fn of_curve(c: &Curve) -> u64 {
    let mut h = Fnv::new();
    h.u64(c.points.len() as u64);
    for p in &c.points {
        h.f64(p.offered);
        h.f64(p.accepted);
        h.f64(p.latency);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_core::ClassSummary;
    use footprint_stats::{ClassFaultCounts, SweepPoint};

    fn sample() -> RunReport {
        let class = ClassSummary {
            generated_packets: 100,
            ejected_packets: 90,
            ejected_flits: 95,
            measured_packets: 80,
            mean_latency: 21.5,
            max_latency: 77,
            throughput: 0.3,
        };
        let mut r = RunReport {
            cycles: 4000,
            nodes: 64,
            offered: 0.3,
            latency: class,
            classes: vec![class, class],
            va_blocks: 12,
            mean_purity: 0.25,
            hol_degree: 0.75,
            ..RunReport::default()
        };
        r.faults.classes.push(ClassFaultCounts {
            class: 0,
            generated: 100,
            delivered: 90,
            dropped: 4,
            retry_attempts: 6,
        });
        r
    }

    #[test]
    fn every_listed_field_moves_the_fingerprint() {
        let base = of_report(&sample());
        type Edit = fn(&mut RunReport);
        let edits: [(&str, Edit); 17] = [
            ("cycles", |r| r.cycles += 1),
            ("total generated", |r| r.latency.generated_packets += 1),
            ("total ejected", |r| r.latency.ejected_packets += 1),
            ("total flits", |r| r.latency.ejected_flits += 1),
            ("total measured", |r| r.latency.measured_packets += 1),
            ("total mean latency", |r| r.latency.mean_latency += 1e-9),
            ("total max latency", |r| r.latency.max_latency += 1),
            ("class generated", |r| r.classes[1].generated_packets += 1),
            ("class mean latency", |r| r.classes[0].mean_latency = -21.5),
            ("class max latency", |r| r.classes[1].max_latency += 1),
            ("class count", |r| r.classes.push(ClassSummary::default())),
            ("va_blocks", |r| r.va_blocks += 1),
            ("mean_purity", |r| r.mean_purity = 0.26),
            ("hol_degree", |r| r.hol_degree = 0.74),
            ("delivered", |r| r.faults.classes[0].delivered += 1),
            ("dropped", |r| r.faults.classes[0].dropped += 1),
            ("retries", |r| r.faults.classes[0].retry_attempts += 1),
        ];
        for (what, edit) in edits {
            let mut r = sample();
            edit(&mut r);
            assert_ne!(of_report(&r), base, "{what} did not move the fingerprint");
        }
    }

    #[test]
    fn unlisted_fields_leave_the_fingerprint_alone() {
        let base = of_report(&sample());
        let mut r = sample();
        r.nodes = 256;
        r.offered = 0.9;
        r.topology = "torus:8x8".to_owned();
        r.latency.throughput = 0.1;
        r.faults.parked_retries = 3;
        r.faults.classes[0].generated += 1;
        assert_eq!(of_report(&r), base);
        assert_eq!(of_report(&sample()), base);
    }

    #[test]
    fn curve_fingerprint_is_bit_exact() {
        let point = |latency| SweepPoint {
            offered: 0.1,
            accepted: 0.099,
            latency,
        };
        let mut a = Curve::new("footprint");
        a.push(point(20.0));
        let mut b = Curve::new("relabelled");
        b.push(point(20.0));
        assert_eq!(of_curve(&a), of_curve(&b));
        let mut c = Curve::new("footprint");
        c.push(point(20.000000000000004));
        assert_ne!(of_curve(&a), of_curve(&c));
        assert_ne!(of_curve(&a), of_curve(&Curve::new("footprint")));
    }
}

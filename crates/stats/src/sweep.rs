//! Latency-throughput curves and saturation-throughput extraction.

use core::fmt;

/// One point of a latency-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load, flits/node/cycle (the x-axis of Figures 5–7).
    pub offered: f64,
    /// Accepted throughput, flits/node/cycle.
    pub accepted: f64,
    /// Mean packet latency in cycles (the y-axis).
    pub latency: f64,
}

/// Accounting for a partially-completed (checkpointed or resumed) sweep:
/// how many points the full campaign has, how many are done, and how many
/// of those were restored from a checkpoint journal rather than re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepProgress {
    /// Points in the full sweep.
    pub total: usize,
    /// Points completed (journaled or computed this run).
    pub completed: usize,
    /// Of the completed points, how many were restored from the journal.
    pub resumed: usize,
}

impl SweepProgress {
    /// `true` once every point of the sweep is accounted for.
    pub fn is_complete(&self) -> bool {
        self.completed >= self.total
    }

    /// Points still to run.
    pub fn remaining(&self) -> usize {
        self.total.saturating_sub(self.completed)
    }
}

impl fmt::Display for SweepProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} sweep point(s) complete ({} restored from checkpoint)",
            self.completed, self.total, self.resumed
        )
    }
}

/// How a curve's saturation throughput was determined — or why it could
/// not be.
///
/// An `Option<f64>` would make an unsaturated curve's accepted-throughput
/// plateau indistinguishable from a genuine crossing (and invite
/// `unwrap_or(0.0)`, a sentinel that downstream normalization then divides
/// by). This enum keeps the cases apart so reports can say what they
/// actually measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Saturation {
    /// Mean latency crossed `factor ×` zero-load latency at this offered
    /// load (linearly interpolated between the straddling points).
    At(f64),
    /// The curve never saturated in the measured range; the value is the
    /// largest *accepted* throughput observed, a lower bound on the true
    /// saturation point.
    NotReached(f64),
    /// The curve has no points.
    Empty,
}

impl Saturation {
    /// The crossing point, if the curve actually saturated.
    pub fn reached(self) -> Option<f64> {
        match self {
            Saturation::At(x) => Some(x),
            Saturation::NotReached(_) | Saturation::Empty => None,
        }
    }

    /// The best available estimate: the crossing, or the unsaturated
    /// lower bound. `None` only for an empty curve.
    pub fn estimate(self) -> Option<f64> {
        match self {
            Saturation::At(x) | Saturation::NotReached(x) => Some(x),
            Saturation::Empty => None,
        }
    }
}

impl fmt::Display for Saturation {
    /// Renders for report tables: `0.412` for a measured crossing,
    /// `>= 0.412` for an unsaturated lower bound, `n/a` for no data.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Saturation::At(x) => write!(f, "{x:.3}"),
            Saturation::NotReached(x) => write!(f, ">= {x:.3}"),
            Saturation::Empty => f.write_str("n/a"),
        }
    }
}

/// A latency-throughput curve for one (algorithm, workload) pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Curve {
    /// Label (usually the routing-algorithm name).
    pub label: String,
    /// Points in increasing offered-load order.
    pub points: Vec<SweepPoint>,
}

impl Curve {
    /// An empty curve with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Curve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if offered loads are not strictly increasing.
    pub fn push(&mut self, p: SweepPoint) {
        if let Some(last) = self.points.last() {
            assert!(p.offered > last.offered, "offered loads must increase");
        }
        self.points.push(p);
    }

    /// The zero-load latency estimate: the latency of the first point.
    pub fn zero_load_latency(&self) -> Option<f64> {
        self.points.first().map(|p| p.latency)
    }

    /// Saturation throughput: the offered load at which mean latency first
    /// exceeds `factor ×` the zero-load latency, linearly interpolated
    /// between the straddling points — or, when the curve never saturates
    /// in the measured range, the largest *accepted* throughput as a lower
    /// bound (see [`Saturation`]).
    ///
    /// `factor = 3` is the conventional choice and the default used by the
    /// experiment harness.
    pub fn saturation(&self, factor: f64) -> Saturation {
        let Some(zero) = self.zero_load_latency() else {
            return Saturation::Empty;
        };
        let threshold = zero * factor;
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a.latency <= threshold && b.latency > threshold {
                let t = (threshold - a.latency) / (b.latency - a.latency);
                return Saturation::At(a.offered + t * (b.offered - a.offered));
            }
        }
        if let Some(first) = self.points.first() {
            if first.latency > threshold {
                return Saturation::At(first.offered);
            }
        }
        // Never saturated: the accepted-throughput plateau bounds the
        // crossing from below.
        match self.peak_accepted() {
            Some(peak) => Saturation::NotReached(peak),
            None => Saturation::Empty,
        }
    }

    /// Largest accepted throughput on the curve.
    pub fn peak_accepted(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.accepted)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

impl fmt::Display for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.label)?;
        writeln!(f, "# offered accepted latency")?;
        for p in &self.points {
            writeln!(f, "{:.4} {:.4} {:.2}", p.offered, p.accepted, p.latency)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, accepted: f64, latency: f64) -> SweepPoint {
        SweepPoint {
            offered,
            accepted,
            latency,
        }
    }

    fn rising_curve() -> Curve {
        let mut c = Curve::new("test");
        c.push(pt(0.1, 0.1, 20.0));
        c.push(pt(0.2, 0.2, 22.0));
        c.push(pt(0.3, 0.3, 30.0));
        c.push(pt(0.4, 0.38, 80.0));
        c.push(pt(0.5, 0.39, 400.0));
        c
    }

    #[test]
    fn saturation_interpolates_at_3x_zero_load() {
        let c = rising_curve();
        // zero-load 20, threshold 60: between 0.3 (30) and 0.4 (80).
        let sat = c.saturation(3.0).reached().unwrap();
        let expected = 0.3 + 0.1 * (60.0 - 30.0) / (80.0 - 30.0);
        assert!((sat - expected).abs() < 1e-9, "{sat} vs {expected}");
    }

    #[test]
    fn unsaturated_curve_reports_accepted_plateau() {
        let mut c = Curve::new("flat");
        c.push(pt(0.1, 0.1, 20.0));
        c.push(pt(0.2, 0.2, 21.0));
        c.push(pt(0.3, 0.3, 22.0));
        // The lower bound stays distinguishable from a measured crossing.
        let sat = c.saturation(3.0);
        assert_eq!(sat, Saturation::NotReached(0.3));
        assert_eq!(sat.reached(), None);
        assert!((sat.estimate().unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(sat.to_string(), ">= 0.300");
    }

    #[test]
    fn saturation_outcomes_render_distinctly() {
        let crossed = rising_curve().saturation(3.0);
        assert!(matches!(crossed, Saturation::At(_)));
        assert!(crossed.reached().is_some());
        assert!(!crossed.to_string().starts_with(">="));
        let empty = Curve::new("empty").saturation(3.0);
        assert_eq!(empty, Saturation::Empty);
        assert_eq!(empty.reached(), None);
        assert_eq!(empty.estimate(), None);
        assert_eq!(empty.to_string(), "n/a");
    }

    #[test]
    fn empty_curve_has_no_saturation() {
        let c = Curve::new("empty");
        assert_eq!(c.saturation(3.0), Saturation::Empty);
        assert_eq!(c.zero_load_latency(), None);
        assert_eq!(c.peak_accepted(), None);
    }

    #[test]
    fn peak_accepted_is_max() {
        let c = rising_curve();
        assert!((c.peak_accepted().unwrap() - 0.39).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn non_monotonic_offered_rejected() {
        let mut c = Curve::new("bad");
        c.push(pt(0.2, 0.2, 20.0));
        c.push(pt(0.1, 0.1, 20.0));
    }

    #[test]
    fn display_renders_gnuplot_friendly_rows() {
        let c = rising_curve();
        let s = c.to_string();
        assert!(s.contains("# test"));
        assert!(s.contains("0.1000 0.1000 20.00"));
    }

    #[test]
    fn first_point_already_saturated() {
        let mut c = Curve::new("sat");
        c.push(pt(0.4, 0.3, 100.0));
        c.push(pt(0.5, 0.3, 500.0));
        // zero-load = 100 → threshold 300 → crossing between the points.
        let s = c.saturation(3.0).reached().unwrap();
        assert!(s > 0.4 && s < 0.5);
    }
}

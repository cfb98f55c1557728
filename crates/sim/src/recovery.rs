//! Recovery observation for faulted runs: time-to-recover and windowed
//! availability.
//!
//! The tracker is pure observation — it draws nothing from the shared RNG
//! and feeds nothing back into routing, injection or arbitration, so
//! attaching it cannot perturb a run. The network drives it only when a
//! fault plan is present; fault-free runs skip every call.
//!
//! Two views of resilience come out:
//!
//! * **Time-to-recover (TTR)** — for each repair event, the cycles from
//!   the repair taking effect to the retry backlog draining to empty. A
//!   repair with no backlog recovers in 0 cycles; a repair whose backlog
//!   never drains before the run ends is reported as still pending.
//! * **Availability** — delivered/offered packets per fixed window of
//!   cycles, the classic service-level view: a fault epoch shows up as a
//!   dip, the post-repair catch-up as a recovery slope.

/// One completed repair: the repair cycle and the cycle the retry backlog
/// drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtrRecord {
    /// Cycle the repair took effect.
    pub repair_cycle: u64,
    /// First cycle after the repair with an empty retry backlog.
    pub recovered_cycle: u64,
}

impl TtrRecord {
    /// Cycles from repair to drained backlog.
    pub fn cycles(&self) -> u64 {
        self.recovered_cycle - self.repair_cycle
    }
}

/// Offered/delivered packet counts over one availability window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilityWindow {
    /// First cycle of the window.
    pub start: u64,
    /// Packets generated in the window (including ones parked or dropped
    /// as unreachable).
    pub offered: u64,
    /// Packets fully ejected in the window.
    pub delivered: u64,
}

impl AvailabilityWindow {
    /// Delivered fraction of offered traffic; 1.0 for an idle window
    /// (nothing offered, nothing owed).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// Cycles per availability window. Long enough that a healthy window
/// saturates near 1.0 (deliveries lag generation by the pipeline depth),
/// short enough to resolve individual fault epochs in a standard run.
pub(crate) const AVAILABILITY_WINDOW: u64 = 256;

/// Accumulates recovery observations over a faulted run. See the module
/// docs for the semantics; [`Network`](crate::Network) drives it from the
/// cycle loop and `footprint-stats` snapshots it into a report.
#[derive(Debug, Default)]
pub struct RecoveryTracker {
    window_start: u64,
    offered: u64,
    delivered: u64,
    windows: Vec<AvailabilityWindow>,
    /// Earliest repair whose backlog has not drained yet.
    repair_pending: Option<u64>,
    ttr: Vec<TtrRecord>,
    /// Last cumulative generated/ejected totals seen, for delta tracking
    /// across the window-reset the measurement boundary performs.
    last_generated: u64,
    last_ejected: u64,
}

impl RecoveryTracker {
    /// A fresh tracker (cycle 0, no observations).
    pub fn new() -> Self {
        RecoveryTracker::default()
    }

    /// Notes a repair taking effect at `cycle`. Only the earliest
    /// outstanding repair is timed — overlapping repairs recover together
    /// when the shared backlog drains.
    pub fn on_repair(&mut self, cycle: u64) {
        if self.repair_pending.is_none() {
            self.repair_pending = Some(cycle);
        }
    }

    /// Per-cycle update: cumulative generated/ejected packet totals (the
    /// counters may reset at the measurement boundary; the tracker
    /// re-syncs and counts the reset cycle as zero delta) and whether the
    /// retry backlog is empty after this cycle's retry processing.
    pub fn tick(&mut self, cycle: u64, generated: u64, ejected: u64, backlog_empty: bool) {
        if generated < self.last_generated {
            self.last_generated = generated;
        }
        if ejected < self.last_ejected {
            self.last_ejected = ejected;
        }
        self.offered += generated - self.last_generated;
        self.delivered += ejected - self.last_ejected;
        self.last_generated = generated;
        self.last_ejected = ejected;
        if let Some(repair) = self.repair_pending {
            if backlog_empty {
                self.repair_pending = None;
                self.ttr.push(TtrRecord {
                    repair_cycle: repair,
                    recovered_cycle: cycle,
                });
            }
        }
        if cycle + 1 >= self.window_start + AVAILABILITY_WINDOW {
            self.windows.push(AvailabilityWindow {
                start: self.window_start,
                offered: self.offered,
                delivered: self.delivered,
            });
            self.window_start = cycle + 1;
            self.offered = 0;
            self.delivered = 0;
        }
    }

    /// Completed repairs, in repair order.
    pub fn ttr(&self) -> &[TtrRecord] {
        &self.ttr
    }

    /// A repair still waiting for its backlog to drain, if any.
    pub fn pending_repair(&self) -> Option<u64> {
        self.repair_pending
    }

    /// Completed availability windows, in time order.
    pub fn windows(&self) -> &[AvailabilityWindow] {
        &self.windows
    }

    /// The in-progress window, if it has observed any traffic — snapshot
    /// for collectors that run before the window closes.
    pub fn partial_window(&self) -> Option<AvailabilityWindow> {
        if self.offered == 0 && self.delivered == 0 {
            None
        } else {
            Some(AvailabilityWindow {
                start: self.window_start,
                offered: self.offered,
                delivered: self.delivered,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_window_is_fully_available() {
        let w = AvailabilityWindow {
            start: 0,
            offered: 0,
            delivered: 0,
        };
        assert_eq!(w.availability(), 1.0);
    }

    #[test]
    fn windows_roll_at_the_boundary() {
        let mut t = RecoveryTracker::new();
        let mut gen = 0;
        for cycle in 0..AVAILABILITY_WINDOW * 2 {
            gen += 2;
            t.tick(cycle, gen, gen / 2, true);
        }
        assert_eq!(t.windows().len(), 2);
        assert_eq!(t.windows()[0].start, 0);
        assert_eq!(t.windows()[1].start, AVAILABILITY_WINDOW);
        assert_eq!(t.windows()[0].offered, 2 * AVAILABILITY_WINDOW);
        assert!(t.partial_window().is_none());
        assert!((t.windows()[1].availability() - 0.5).abs() < 0.01);
    }

    #[test]
    fn ttr_measures_repair_to_drained_backlog() {
        let mut t = RecoveryTracker::new();
        t.tick(0, 0, 0, false);
        t.on_repair(100);
        t.tick(100, 0, 0, false);
        t.tick(101, 0, 0, false);
        t.tick(102, 0, 0, true);
        assert_eq!(t.ttr(), &[TtrRecord { repair_cycle: 100, recovered_cycle: 102 }]);
        assert_eq!(t.ttr()[0].cycles(), 2);
        assert!(t.pending_repair().is_none());
        // A second repair with an already-empty backlog recovers instantly.
        t.on_repair(200);
        t.tick(200, 0, 0, true);
        assert_eq!(t.ttr()[1].cycles(), 0);
    }

    #[test]
    fn overlapping_repairs_time_the_earliest() {
        let mut t = RecoveryTracker::new();
        t.on_repair(10);
        t.tick(10, 0, 0, false);
        t.on_repair(20); // coalesces into the outstanding one
        t.tick(20, 0, 0, false);
        t.tick(30, 0, 0, true);
        assert_eq!(t.ttr().len(), 1);
        assert_eq!(t.ttr()[0].repair_cycle, 10);
        assert_eq!(t.ttr()[0].cycles(), 20);
    }

    #[test]
    fn counter_reset_resyncs_without_negative_deltas() {
        let mut t = RecoveryTracker::new();
        t.tick(0, 50, 40, true);
        // Measurement-boundary reset: cumulative counters drop to zero.
        t.tick(1, 0, 0, true);
        t.tick(2, 5, 3, true);
        let w = t.partial_window().expect("traffic observed");
        assert_eq!(w.offered, 55);
        assert_eq!(w.delivered, 43);
    }

    #[test]
    fn unrecovered_repair_stays_pending() {
        let mut t = RecoveryTracker::new();
        t.on_repair(5);
        t.tick(5, 0, 0, false);
        assert_eq!(t.pending_repair(), Some(5));
        assert!(t.ttr().is_empty());
    }
}

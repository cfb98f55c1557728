//! Fixed-latency wires: flit channels and their reverse credit channels.

use crate::packet::Flit;
use crate::snapshot::{Snap, SnapResult};
use crate::soa::VACANT;

/// A pipeline with a fixed latency in cycles: values pushed during a cycle
/// become receivable after `latency` calls to [`Pipe::tick`] (default 1 —
/// a single-cycle link).
#[derive(Debug, Clone)]
pub struct Pipe<T> {
    /// `stages[0]` is the oldest in-flight batch; `stages.len() == latency`.
    stages: std::collections::VecDeque<Vec<T>>,
    cur: Vec<T>,
    /// Total values in `stages` plus `cur`, maintained on push/drain so
    /// the per-cycle activity scan tests emptiness in O(1) instead of
    /// walking every stage.
    len: usize,
}

impl<T> Default for Pipe<T> {
    fn default() -> Self {
        Pipe::new()
    }
}

impl<T> Pipe<T> {
    /// An empty single-cycle pipe.
    pub fn new() -> Self {
        Self::with_latency(1)
    }

    /// An empty pipe with the given latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero (combinational wires are not modeled).
    pub fn with_latency(latency: usize) -> Self {
        assert!(latency > 0, "wire latency must be at least one cycle");
        Pipe {
            stages: (0..latency).map(|_| Vec::new()).collect(),
            cur: Vec::new(),
            len: 0,
        }
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> usize {
        self.stages.len()
    }

    /// Sends `v`; it becomes receivable after `latency` ticks.
    #[inline]
    pub fn push(&mut self, v: T) {
        self.len += 1;
        self.stages
            .back_mut()
            .expect("pipe has at least one stage")
            .push(v);
    }

    /// Drains everything that arrived this cycle.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.len -= self.cur.len();
        self.cur.drain(..)
    }

    /// Advances one cycle: the oldest in-flight batch becomes receivable.
    ///
    /// Anything not drained in the previous cycle stays receivable (wires
    /// never drop data; the receive side always drains).
    pub fn tick(&mut self) {
        if self.len == 0 {
            // Every buffer is empty; rotating them is a no-op.
            return;
        }
        let mut front = self.stages.pop_front().expect("pipe has stages");
        if self.cur.is_empty() {
            // Hand the arriving batch over wholesale (the usual case: the
            // receiver drained last cycle), keeping `cur`'s allocation in
            // the rotation instead of copying element by element.
            std::mem::swap(&mut self.cur, &mut front);
        } else {
            self.cur.append(&mut front);
        }
        self.stages.push_back(front); // reuse the (now empty) buffer
    }

    /// `true` if nothing is in flight or receivable. O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if values are receivable right now (arrived by the latest
    /// tick and not yet drained).
    #[inline]
    pub fn receivable(&self) -> bool {
        !self.cur.is_empty()
    }

    /// Number of values in flight or receivable (read-only census; used by
    /// the sentinel's conservation checks). O(1).
    #[inline]
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.len,
            self.cur.len() + self.stages.iter().map(Vec::len).sum::<usize>()
        );
        self.len
    }

    /// Iterates every value currently in flight or receivable, oldest
    /// first. Read-only: the sentinel uses this to attribute in-flight
    /// flits and credits to their VCs without disturbing the pipeline.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.cur.iter().chain(self.stages.iter().flat_map(|s| s.iter()))
    }

    /// Moves the stage contents and the receivable batch, each element
    /// through `item`; the latency echo must match. `fill` pads a batch
    /// the stream lengthens before it is overwritten.
    pub(crate) fn snap<S: Snap>(
        &mut self,
        s: &mut S,
        fill: T,
        mut item: impl FnMut(&mut S, &mut T) -> SnapResult,
    ) -> SnapResult
    where
        T: Clone,
    {
        s.echo(self.stages.len(), "pipe latency")?;
        self.len = 0;
        for batch in self.stages.iter_mut().chain(std::iter::once(&mut self.cur)) {
            let n = s.len(batch.len(), "pipe stage length")?;
            batch.resize(n, fill.clone());
            s.each(batch.iter_mut(), &mut item)?;
            self.len += n;
        }
        Ok(())
    }
}

/// A credit message: one buffer slot of VC `vc` freed downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditMsg {
    /// The VC whose slot was freed.
    pub vc: u8,
}

/// A physical channel: a forward flit pipe (bandwidth one flit per cycle,
/// enforced by the senders) and a reverse credit pipe.
#[derive(Debug, Default)]
pub struct Wire {
    /// Forward direction: flits.
    pub flits: Pipe<Flit>,
    /// Reverse direction: credits.
    pub credits: Pipe<CreditMsg>,
}

impl Wire {
    /// An idle single-cycle wire.
    pub fn new() -> Self {
        Wire::default()
    }

    /// An idle wire with the given one-way latency in cycles (applied to
    /// both the flit and the credit direction).
    pub fn with_latency(latency: usize) -> Self {
        Wire {
            flits: Pipe::with_latency(latency),
            credits: Pipe::with_latency(latency),
        }
    }

    /// Advances both directions one cycle.
    pub fn tick(&mut self) {
        self.flits.tick();
        self.credits.tick();
    }

    /// `true` when nothing is in flight in either direction.
    pub fn is_quiescent(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty()
    }

    /// Moves both directions (in-flight flits and credits).
    pub(crate) fn snap<S: Snap>(&mut self, s: &mut S) -> SnapResult {
        self.flits.snap(s, VACANT, S::flit)?;
        self.credits
            .snap(s, CreditMsg { vc: 0 }, |s, c| s.u8(&mut c.vc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_has_one_cycle_latency() {
        let mut p: Pipe<u32> = Pipe::new();
        p.push(1);
        assert_eq!(p.drain().count(), 0, "not visible in the send cycle");
        p.tick();
        let got: Vec<_> = p.drain().collect();
        assert_eq!(got, vec![1]);
        p.tick();
        assert_eq!(p.drain().count(), 0);
    }

    #[test]
    fn pipe_preserves_order_across_batches() {
        let mut p: Pipe<u32> = Pipe::new();
        p.push(1);
        p.push(2);
        p.tick();
        p.push(3);
        let got: Vec<_> = p.drain().collect();
        assert_eq!(got, vec![1, 2]);
        p.tick();
        let got: Vec<_> = p.drain().collect();
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn undrained_values_persist() {
        let mut p: Pipe<u32> = Pipe::new();
        p.push(1);
        p.tick();
        p.push(2);
        p.tick(); // 1 was never drained
        let got: Vec<_> = p.drain().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn multi_cycle_latency_delays_delivery() {
        let mut p: Pipe<u32> = Pipe::with_latency(3);
        assert_eq!(p.latency(), 3);
        p.push(7);
        for _ in 0..2 {
            p.tick();
            assert_eq!(p.drain().count(), 0);
        }
        p.tick();
        let got: Vec<_> = p.drain().collect();
        assert_eq!(got, vec![7]);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _: Pipe<u32> = Pipe::with_latency(0);
    }

    #[test]
    fn len_counter_tracks_push_tick_drain() {
        let mut p: Pipe<u32> = Pipe::with_latency(2);
        assert!(p.is_empty());
        assert!(!p.receivable());
        p.push(1);
        p.push(2);
        assert_eq!(p.in_flight(), 2);
        assert!(!p.is_empty());
        p.tick();
        assert!(!p.receivable(), "still one stage away");
        p.tick();
        assert!(p.receivable());
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.drain().count(), 2);
        assert!(p.is_empty());
        assert!(!p.receivable());
        // An undrained batch keeps counting until it is finally drained.
        p.push(3);
        p.tick();
        p.tick();
        p.tick();
        assert_eq!(p.in_flight(), 1);
        assert_eq!(p.drain().count(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn wire_quiescence() {
        let mut w = Wire::new();
        assert!(w.is_quiescent());
        w.credits.push(CreditMsg { vc: 3 });
        assert!(!w.is_quiescent());
        w.tick();
        let got: Vec<_> = w.credits.drain().collect();
        assert_eq!(got, vec![CreditMsg { vc: 3 }]);
        assert!(w.is_quiescent());
    }
}

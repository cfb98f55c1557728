//! The delivery calendar: every channel's in-flight flits and credits in
//! one network-wide ring of `link_latency` slots.
//!
//! Every link has the same latency `L` (BookSim's fixed channel latency),
//! so whatever is sent during cycle `t` — a flit forward, a credit back —
//! arrives at the start of cycle `t + L`. Slot `t % L` holds exactly the
//! entries due at the start of cycle `t`: the network drains it first
//! thing in the cycle, and every send later in that cycle appends to the
//! same slot again, because `(t + L) % L == t % L`. An entry carries its
//! channel (the output row it leaves, see `Network`), and a slot keeps
//! send order, so each channel's entries arrive in the order they were
//! sent. That per-channel order is all the datapath needs: every input
//! VC, every sink and every output VC has exactly one feeding channel.
//!
//! Nothing is allocated per channel, and a cycle visits only the entries
//! that arrive in it.

use crate::packet::Flit;
use crate::snapshot::{Snap, SnapResult};
use crate::soa::VACANT;

/// A credit message: one buffer slot of VC `vc` freed downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CreditMsg {
    /// The VC whose slot was freed.
    pub vc: u8,
}

/// One slot's entries of one direction, each tagged with its channel (a
/// `u32` keeps a credit entry at 8 bytes; a network of at most 2^16 nodes
/// has fewer than 2^19 channels).
type Slot<T> = Vec<(u32, T)>;

/// One direction of what arrives in a cycle, drained from its slot.
type Arrivals<'a, T> = std::vec::Drain<'a, (u32, T)>;

/// The network-wide delivery calendar (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Calendar {
    /// `flits[t % L]`: flits arriving at the start of cycle `t`.
    flits: Vec<Slot<Flit>>,
    /// `credits[t % L]`: credits (their VC) arriving at the start of `t`.
    credits: Vec<Slot<u8>>,
    /// The current cycle's slot: set by [`Calendar::due`], appended to by
    /// every send.
    now: usize,
}

impl Calendar {
    /// An empty calendar for links of `latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero (combinational wires are not modeled).
    pub(crate) fn new(latency: usize) -> Self {
        assert!(latency > 0, "wire latency must be at least one cycle");
        Calendar {
            flits: vec![Vec::new(); latency],
            credits: vec![Vec::new(); latency],
            now: 0,
        }
    }

    /// Opens cycle `cycle`: drains what arrives now — the credits, then
    /// the flits, each as `(channel, _)` in send order. Sends until the
    /// next call arrive `latency` cycles later.
    pub(crate) fn due(&mut self, cycle: u64) -> (Arrivals<'_, u8>, Arrivals<'_, Flit>) {
        self.now = (cycle % self.flits.len() as u64) as usize;
        (
            self.credits[self.now].drain(..),
            self.flits[self.now].drain(..),
        )
    }

    /// Sends `flit` on `channel`.
    #[inline]
    pub(crate) fn send_flit(&mut self, channel: usize, flit: Flit) {
        self.flits[self.now].push((channel as u32, flit));
    }

    /// Sends a credit for VC `vc` back on `channel`.
    #[inline]
    pub(crate) fn send_credit(&mut self, channel: usize, vc: u8) {
        self.credits[self.now].push((channel as u32, vc));
    }

    /// `true` when nothing is in flight on any channel.
    pub(crate) fn is_empty(&self) -> bool {
        self.flits.iter().all(Vec::is_empty) && self.credits.iter().all(Vec::is_empty)
    }

    /// Every flit in flight, with its channel (the sentinel's census).
    pub(crate) fn flits(&self) -> impl Iterator<Item = (usize, &Flit)> {
        self.flits.iter().flatten().map(|(c, f)| (*c as usize, f))
    }

    /// Every credit in flight as `(channel, vc)` (the sentinel's census).
    pub(crate) fn credits(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.credits
            .iter()
            .flatten()
            .map(|&(c, vc)| (c as usize, vc))
    }

    /// Moves every channel's in-flight entries in the stream's
    /// per-channel layout, `cycle` being the next cycle to run: for each
    /// of `channels` (ascending), its flits and then its credits, each as
    /// the latency echo, the `L` stage batches oldest first (stage `k` is
    /// slot `(cycle + k) % L`) and an empty batch (what has arrived but
    /// not been taken, always nothing between two cycles).
    ///
    /// The walk rebuilds every slot grouped by channel. A slot's order
    /// across channels is immaterial (see the module docs), so writing
    /// changes nothing the simulation can observe.
    pub(crate) fn snap<S: Snap>(
        &mut self,
        s: &mut S,
        cycle: u64,
        channels: impl Iterator<Item = usize>,
    ) -> SnapResult {
        let first = (cycle % self.flits.len() as u64) as usize;
        let mut flits = Regroup::new(&mut self.flits);
        let mut credits = Regroup::new(&mut self.credits);
        for c in channels {
            flits.channel(s, c, first, VACANT, S::flit)?;
            credits.channel(s, c, first, 0, S::u8)?;
        }
        self.flits = flits.new;
        self.credits = credits.new;
        Ok(())
    }
}

/// One direction of [`Calendar::snap`]: the old slots, each sorted by
/// channel (stably, so each channel keeps its send order), read channel by
/// channel through a cursor per slot, and the new slots the walk fills.
struct Regroup<'a, T> {
    old: &'a [Slot<T>],
    at: Vec<usize>,
    new: Vec<Slot<T>>,
    batch: Vec<T>,
}

impl<'a, T: Clone> Regroup<'a, T> {
    fn new(slots: &'a mut [Slot<T>]) -> Self {
        for slot in slots.iter_mut() {
            slot.sort_by_key(|&(c, _)| c);
        }
        Regroup {
            at: vec![0; slots.len()],
            new: vec![Vec::new(); slots.len()],
            old: slots,
            batch: Vec::new(),
        }
    }

    /// Moves channel `c`'s batches; `fill` pads a batch the stream
    /// lengthens before `item` overwrites it.
    fn channel<S: Snap>(
        &mut self,
        s: &mut S,
        c: usize,
        first: usize,
        fill: T,
        mut item: impl FnMut(&mut S, &mut T) -> SnapResult,
    ) -> SnapResult {
        let latency = self.old.len();
        s.echo(latency, "link latency")?;
        for k in 0..latency {
            let slot = (first + k) % latency;
            let start = self.at[slot];
            let run = self.old[slot][start..]
                .iter()
                .take_while(|e| e.0 as usize == c);
            self.batch.clear();
            self.batch.extend(run.map(|(_, v)| v.clone()));
            self.at[slot] = start + self.batch.len();
            let n = s.len(self.batch.len(), "channel stage length")?;
            self.batch.resize(n, fill.clone());
            s.each(self.batch.iter_mut(), &mut item)?;
            self.new[slot].extend(self.batch.drain(..).map(|v| (c as u32, v)));
        }
        s.echo(0, "arrived batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use crate::snapshot::{SnapReader, SnapWriter};
    use proptest::prelude::*;

    /// A flit told apart by its packet id.
    fn flit(id: u64) -> Flit {
        Flit {
            packet: PacketId(id),
            ..VACANT
        }
    }

    /// What arrived in a cycle: `(channel, packet id)` flits and
    /// `(channel, vc)` credits.
    type Arrived = (Vec<(u32, u64)>, Vec<(u32, u8)>);

    /// Opens `cycle` and returns what arrived.
    fn open(cal: &mut Calendar, cycle: u64) -> Arrived {
        let (credits, flits) = cal.due(cycle);
        let credits = credits.collect();
        (flits.map(|(c, f)| (c, f.packet.0)).collect(), credits)
    }

    #[test]
    fn pipe_has_one_cycle_latency() {
        let mut cal = Calendar::new(1);
        assert_eq!(open(&mut cal, 0), (vec![], vec![]));
        cal.send_flit(5, flit(1));
        assert_eq!(open(&mut cal, 1).0, vec![(5, 1)]);
        assert_eq!(open(&mut cal, 2).0, vec![]);
    }

    #[test]
    fn pipe_preserves_order_across_batches() {
        let mut cal = Calendar::new(1);
        open(&mut cal, 0);
        cal.send_flit(0, flit(1));
        cal.send_flit(0, flit(2));
        assert_eq!(open(&mut cal, 1).0, vec![(0, 1), (0, 2)]);
        cal.send_flit(0, flit(3));
        assert_eq!(open(&mut cal, 2).0, vec![(0, 3)]);
    }

    #[test]
    fn multi_cycle_latency_delays_delivery() {
        let mut cal = Calendar::new(3);
        open(&mut cal, 10);
        cal.send_flit(2, flit(7));
        for cycle in 11..13 {
            assert_eq!(open(&mut cal, cycle), (vec![], vec![]));
        }
        assert_eq!(open(&mut cal, 13).0, vec![(2, 7)]);
        assert!(cal.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = Calendar::new(0);
    }

    /// The census and emptiness test see an entry from its send until the
    /// cycle it arrives, in either direction.
    #[test]
    fn census_tracks_send_and_arrival() {
        let mut cal = Calendar::new(2);
        assert!(cal.is_empty());
        open(&mut cal, 0);
        cal.send_flit(4, flit(1));
        cal.send_flit(3, flit(2));
        open(&mut cal, 1);
        cal.send_credit(4, 1);
        let census: Vec<_> = cal.flits().map(|(c, f)| (c, f.packet.0)).collect();
        assert_eq!(census, vec![(4, 1), (3, 2)]);
        assert_eq!(cal.credits().collect::<Vec<_>>(), vec![(4, 1)]);
        assert_eq!(open(&mut cal, 2).0, vec![(4, 1), (3, 2)]);
        assert!(!cal.is_empty(), "the credit is one cycle away");
        assert_eq!(open(&mut cal, 3).1, vec![(4, 1)]);
        assert!(cal.is_empty());
    }

    #[test]
    fn wire_quiescence() {
        let mut cal = Calendar::new(1);
        assert!(cal.is_empty());
        open(&mut cal, 0);
        cal.send_credit(0, 3);
        assert!(!cal.is_empty());
        assert_eq!(open(&mut cal, 1).1, vec![(0, 3)]);
        assert!(cal.is_empty());
    }

    /// The snapshot walk writes, per channel, the flit stages and then the
    /// credit stages, stage `k` holding what arrives `k` cycles after the
    /// snapshot (here at cycle 5 of a 3-cycle calendar, so stage 0 is slot
    /// 2); reading the stream back into an empty calendar delivers every
    /// entry on the same cycle and channel, in the same order.
    #[test]
    fn snap_writes_stages_oldest_first_and_round_trips() {
        let mut cal = Calendar::new(3);
        // (send cycle, channel, flit id); the credit sent with flit `id`
        // carries the VC `id % 4`.
        let mut sent = Vec::new();
        for cycle in 0..5 {
            open(&mut cal, cycle);
            for c in [2, 0, 2, 1] {
                let id = sent.len() as u64 + 1;
                sent.push((cycle, c, id));
                cal.send_flit(c, flit(id));
                cal.send_credit(c, (id % 4) as u8);
            }
        }
        let mut w = SnapWriter(Vec::new());
        cal.snap(&mut w, 5, 0..3).unwrap();

        let mut r = SnapReader::new(&w.0);
        for c in 0..3 {
            for credits in [false, true] {
                r.echo(3, "link latency").unwrap();
                for k in 0..3 {
                    let want: Vec<u64> = (sent.iter())
                        .filter(|&&(t, ch, _)| t + 3 == 5 + k && ch == c)
                        .map(|&(_, _, id)| if credits { id % 4 } else { id })
                        .collect();
                    let n = r.len(0, "stage").unwrap();
                    let got: Vec<u64> = (0..n)
                        .map(|_| {
                            if credits {
                                let mut vc = 0;
                                r.u8(&mut vc).unwrap();
                                u64::from(vc)
                            } else {
                                let mut f = VACANT;
                                r.flit(&mut f).unwrap();
                                f.packet.0
                            }
                        })
                        .collect();
                    assert_eq!(got, want, "channel {c}, credits {credits}, stage {k}");
                }
                r.echo(0, "arrived batch").unwrap();
            }
        }
        r.done().unwrap();

        let mut back = Calendar::new(3);
        back.snap(&mut SnapReader::new(&w.0), 5, 0..3).unwrap();
        let mut again = SnapWriter(Vec::new());
        back.snap(&mut again, 5, 0..3).unwrap();
        assert_eq!(again.0, w.0, "the walk is its own inverse");
        let by_channel = |mut v: Vec<(u32, u64)>| {
            v.sort_by_key(|e| e.0);
            v
        };
        for cycle in 5..8 {
            let (want, got) = (open(&mut cal, cycle), open(&mut back, cycle));
            assert_eq!(by_channel(got.0), by_channel(want.0), "cycle {cycle}");
            assert!(!got.1.is_empty());
        }
        assert!(cal.is_empty() && back.is_empty());
        // A latency the live calendar does not have is refused.
        let err = Calendar::new(2)
            .snap(&mut SnapReader::new(&w.0), 5, 0..3)
            .unwrap_err();
        assert!(err.contains("link latency mismatch"), "{err}");
    }

    proptest! {
        /// The calendar is a per-channel FIFO with latency `L`: random
        /// sends over several channels per cycle, for `L` in 1..=4, are
        /// each delivered exactly once, in each channel's send order,
        /// exactly `L` cycles after they were sent.
        #[test]
        fn calendar_is_a_per_channel_fifo_with_latency_l(
            latency in 1usize..=4,
            cycles in prop::collection::vec(
                prop::collection::vec((0usize..4, any::<bool>()), 0..6),
                1..20,
            ),
        ) {
            use std::collections::VecDeque;
            let mut cal = Calendar::new(latency);
            // Per channel, what must arrive next: (flit id, cycle) and
            // (credit VC, cycle).
            let mut flits: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); 4];
            let mut credits: Vec<VecDeque<(u8, u64)>> = vec![VecDeque::new(); 4];
            let mut id = 0;
            for t in 0..(cycles.len() + latency) as u64 {
                let (arrived_credits, arrived_flits) = cal.due(t);
                for (c, vc) in arrived_credits {
                    prop_assert_eq!(credits[c as usize].pop_front(), Some((vc, t)));
                }
                for (c, f) in arrived_flits {
                    prop_assert_eq!(flits[c as usize].pop_front(), Some((f.packet.0, t)));
                }
                for &(c, credit) in cycles.get(t as usize).into_iter().flatten() {
                    id += 1;
                    cal.send_flit(c, flit(id));
                    flits[c].push_back((id, t + latency as u64));
                    if credit {
                        let vc = (id % 8) as u8;
                        cal.send_credit(c, vc);
                        credits[c].push_back((vc, t + latency as u64));
                    }
                }
            }
            // Nothing lost: every expected arrival happened.
            prop_assert!(cal.is_empty());
            prop_assert!(flits.iter().all(VecDeque::is_empty));
            prop_assert!(credits.iter().all(VecDeque::is_empty));
        }
    }
}

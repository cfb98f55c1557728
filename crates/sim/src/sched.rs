//! The active-set cycle scheduler: per-node activity tracking that lets
//! [`Network::step`](crate::Network::step) walk only the components with
//! work instead of the full mesh.
//!
//! # Why skipping is bit-exact
//!
//! Every skippable component is provably a no-op when idle:
//!
//! * A router with no resident flits has no staged launches, no waiting
//!   heads (so VC allocation evaluates no routing function and draws no
//!   randomness), and no active switch requests. The only state a dense
//!   tick would still mutate is the pair of switch-allocator round-robin
//!   pointers, which advance unconditionally — the scheduler compensates
//!   by advancing them for the skipped span when the router next wakes
//!   ([`Router::advance_arbiters`](crate::router::Router::advance_arbiters)).
//! * A source with an empty queue and no active VC returns before its
//!   first RNG draw or round-robin bump.
//! * A sink with empty buffers pops nothing and leaves its round-robin
//!   pointer untouched.
//!
//! Packet generation is the one per-node duty that can never be skipped:
//! the Bernoulli draw per node per cycle comes from the shared simulation
//! RNG, so the generation loop stays dense in every mode.
//!
//! Because all of the above are exact no-ops, any *over*-approximation of
//! the active set is harmless — a stale live bit costs a wasted visit, not
//! a divergence. The live sets here are conservative: a router is live
//! while any flit is resident in its input buffers or output stages, a
//! sink while it buffers flits, a source while its queue or active VC is
//! non-empty. (Channels need no live set: the delivery calendar visits
//! only the entries that arrive.)
//!
//! # Layout
//!
//! The activity state the per-cycle walk touches is kept out of the
//! component structs, in the parallel arrays of [`SchedState`] — a
//! structure-of-arrays layout so the skip test for node *n* reads one bit
//! (or one counter) from a dense array instead of chasing the router's
//! heap-allocated internals.

/// Which cycle loop [`Network::step`](crate::Network::step) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Walk every router and endpoint every cycle: the reference loop
    /// that [`Scheduler::Active`] must reproduce bit for bit, and that
    /// the differential tests and the benchmark compare it against — a
    /// reference, not a tuning knob.
    Dense,
    /// Walk only components with pending work, waking them on flit
    /// arrival, credit return, workload injection, fault transitions and
    /// probe-requested full ticks. Bit-identical to [`Scheduler::Dense`].
    #[default]
    Active,
}

/// A fixed-capacity bitset over node indices, iterated in ascending order
/// (the order the dense loop visits nodes, which the shared RNG requires).
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    pub(crate) fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, node: usize) {
        self.words[node / 64] |= 1 << (node % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, node: usize) {
        self.words[node / 64] &= !(1 << (node % 64));
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, node: usize) -> bool {
        self.words[node / 64] & (1 << (node % 64)) != 0
    }

    pub(crate) fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Appends every member to `out` in ascending order — the order the
    /// dense loop visits nodes, which the shared RNG requires. Snapshotting
    /// into a scratch buffer lets the caller mutate the set (and the rest
    /// of the network) while walking the members.
    pub(crate) fn collect_into(&self, out: &mut Vec<usize>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }
}

/// Per-node activity state for the active-set scheduler, in parallel
/// (structure-of-arrays) layout.
#[derive(Debug)]
pub(crate) struct SchedState {
    /// Routers with at least one resident flit (input buffers or output
    /// stages). Persistent: set on flit arrival, cleared when the count
    /// returns to zero after processing.
    pub live: NodeSet,
    /// Resident flits per router, the counter behind `live`.
    pub router_work: Vec<u32>,
    /// The cycle each router expects to be processed next; the gap to the
    /// current cycle is the span its switch arbiters must catch up.
    pub next_expected: Vec<u64>,
    /// Sinks holding buffered flits.
    pub sink_live: NodeSet,
    /// Routers whose input occupancy changed since the side band last
    /// refreshed (flit pushed or switch-traversal pop).
    pub sideband_dirty: NodeSet,
    /// Scratch index buffer for bitset traversals.
    pub scratch: Vec<usize>,
}

impl SchedState {
    pub(crate) fn new(nodes: usize) -> Self {
        SchedState {
            live: NodeSet::new(nodes),
            router_work: vec![0; nodes],
            next_expected: vec![0; nodes],
            sink_live: NodeSet::new(nodes),
            sideband_dirty: NodeSet::new(nodes),
            scratch: Vec::with_capacity(nodes),
        }
    }

    /// Rebuilds the persistent sets from actual component state — the
    /// recovery path after white-box router mutation (tests that plant or
    /// corrupt state behind the bookkeeping's back). Arbiter lag accrued
    /// before the rebuild is applied, not discarded.
    pub(crate) fn resync(
        &mut self,
        routers: &mut [crate::router::Router],
        soa: &crate::soa::NocSoa,
        sinks: &[crate::endpoint::Sink],
        cycle: u64,
    ) {
        self.live.clear();
        self.sink_live.clear();
        for (ni, router) in routers.iter_mut().enumerate() {
            let lag = cycle.saturating_sub(self.next_expected[ni]);
            if lag > 0 {
                router.advance_arbiters(lag);
            }
            self.next_expected[ni] = cycle;
            let work = crate::cast::idx_u32(router.resident_flits(soa));
            self.router_work[ni] = work;
            if work > 0 {
                self.live.insert(ni);
            }
            self.sideband_dirty.insert(ni);
        }
        for (ni, sink) in sinks.iter().enumerate() {
            if sink.buffered() > 0 {
                self.sink_live.insert(ni);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodeset_insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        s.remove(64);
        assert!(!s.contains(64));
        s.clear();
        assert!(!s.contains(0) && !s.contains(129));
    }

    #[test]
    fn nodeset_iterates_ascending() {
        let mut s = NodeSet::new(200);
        for n in [150, 3, 64, 0, 199, 65] {
            s.insert(n);
        }
        let mut seen = Vec::new();
        s.collect_into(&mut seen);
        assert_eq!(seen, vec![0, 3, 64, 65, 150, 199]);
    }

    #[test]
    fn scheduler_defaults_to_active() {
        assert_eq!(Scheduler::default(), Scheduler::Active);
    }
}

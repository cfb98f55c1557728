//! The workload abstraction: what each endpoint injects, cycle by cycle.

use crate::packet::NewPacket;
use footprint_topology::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// A traffic workload: invoked once per endpoint per cycle; may generate at
/// most one packet per call (injection rates are expressed in flits per
/// node per cycle, so rates up to 1.0 fit this contract for single-flit
/// packets; multi-flit packets lower the packet rate accordingly).
///
/// The `footprint-traffic` crate implements this trait for the paper's
/// synthetic patterns and workloads; the implementations here are minimal
/// fixtures for tests and examples.
///
/// # Determinism contract
///
/// The network calls `generate` for **every node on every cycle**, in
/// ascending node order, drawing from the shared simulation RNG — the
/// generation loop is dense in every scheduler mode (see
/// [`Scheduler`](crate::Scheduler)). A workload's RNG consumption is
/// therefore a pure function of the call sequence, which makes any
/// composition of workloads (flow sets, gated sources, tenant lists)
/// bit-identical across schedulers and sweep thread counts.
pub trait Workload {
    /// Possibly generates a packet at `node` on `cycle`.
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket>;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        (**self).generate(node, cycle, rng)
    }
}

/// A workload that never injects — useful for drain phases and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTraffic;

impl Workload for NoTraffic {
    fn generate(&mut self, _node: NodeId, _cycle: u64, _rng: &mut SmallRng) -> Option<NewPacket> {
        None
    }
}

/// A single Bernoulli flow `src → dest` at a fixed flit rate (test fixture).
///
/// The fields stay public for literal construction in tests; an invalid
/// rate or size is rejected by the first [`Workload::generate`] call with
/// the same message [`SingleFlow::new`] would have raised, instead of
/// panicking deep inside `rand::gen_bool` or silently clamping the rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleFlow {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// Offered load in flits per cycle, in `[0, 1]` (a node cannot inject
    /// more than one flit per cycle).
    pub rate: f64,
    /// Packet size in flits (nonzero).
    pub size: u16,
}

impl SingleFlow {
    /// Creates a validated flow.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` (matching
    /// `SyntheticWorkload::new` in `footprint-traffic`) or `size` is zero.
    pub fn new(src: NodeId, dest: NodeId, rate: f64, size: u16) -> Self {
        let flow = SingleFlow {
            src,
            dest,
            rate,
            size,
        };
        flow.validate();
        flow
    }

    /// Asserts the rate/size invariants (shared by [`SingleFlow::new`] and
    /// the generate path, so literally-constructed flows fail fast too).
    fn validate(&self) {
        assert!(self.size > 0, "SingleFlow packet size must be nonzero");
        assert!(
            (0.0..=1.0).contains(&self.rate),
            "SingleFlow rate {} out of [0, 1]",
            self.rate
        );
    }
}

impl Workload for SingleFlow {
    fn generate(&mut self, node: NodeId, _cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        if node != self.src {
            return None;
        }
        self.validate();
        // rate <= 1 <= size, so the per-cycle packet rate is a valid
        // probability without clamping.
        let packet_rate = self.rate / self.size as f64;
        if rng.gen_bool(packet_rate) {
            Some(NewPacket {
                dest: self.dest,
                size: self.size,
                class: 0,
                origin: None,
            })
        } else {
            None
        }
    }
}

/// A fixed list of Bernoulli flows (test fixture; the full-featured version
/// lives in `footprint-traffic`).
///
/// # Draw-order contract
///
/// Flows sharing a source are polled in declaration order each cycle and
/// the **first firing flow wins** (at most one packet per node per cycle).
/// Every polled flow draws one Bernoulli sample from the shared RNG whether
/// or not it fires, so an earlier flow's draw perturbs the later flows'
/// randomness: reordering the flows of a source produces a different (but
/// equally valid) packet sequence. For a fixed flow order and seed the
/// sequence is exactly reproducible — this is the determinism contract the
/// bit-identity tests pin down.
///
/// Because the winner preempts the rest of its source's flows for the
/// cycle, each flow's *accepted* rate is slightly below its configured rate
/// when a source hosts several flows; [`FlowSet::new`] rejects aggregates
/// above 1.0 flit/cycle, where the excess could never be injected at all.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    flows: Vec<SingleFlow>,
}

impl FlowSet {
    /// Creates a workload from explicit flows.
    ///
    /// # Panics
    ///
    /// Panics if any flow is invalid (see [`SingleFlow::new`]) or if the
    /// flows sharing a source add up to more than 1.0 flit/cycle — a node
    /// injects at most one flit per cycle, so the excess offered load
    /// could only be discarded silently.
    pub fn new(flows: Vec<SingleFlow>) -> Self {
        let mut per_source: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for f in &flows {
            f.validate();
            *per_source.entry(f.src.index()).or_insert(0.0) += f.rate;
        }
        for (src, aggregate) in per_source {
            assert!(
                aggregate <= 1.0 + 1e-9,
                "flows at source n{src} offer {aggregate} flits/cycle in aggregate \
                 (a node cannot inject more than 1.0)"
            );
        }
        FlowSet { flows }
    }
}

impl Workload for FlowSet {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        // At most one packet per node per cycle: first firing flow wins
        // (see the draw-order contract in the type docs).
        for f in &mut self.flows {
            if f.src == node {
                if let Some(p) = f.generate(node, cycle, rng) {
                    return Some(p);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn no_traffic_generates_nothing() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(NoTraffic.generate(NodeId(0), 0, &mut rng).is_none());
    }

    #[test]
    fn single_flow_only_fires_at_source() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut f = SingleFlow::new(NodeId(1), NodeId(2), 1.0, 1);
        assert!(f.generate(NodeId(0), 0, &mut rng).is_none());
        let p = f.generate(NodeId(1), 0, &mut rng).unwrap();
        assert_eq!(p.dest, NodeId(2));
        assert_eq!(p.size, 1);
    }

    #[test]
    fn rate_scales_with_packet_size() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut f = SingleFlow::new(NodeId(0), NodeId(1), 0.6, 3);
        let mut packets = 0;
        let n = 30_000;
        for c in 0..n {
            if f.generate(NodeId(0), c, &mut rng).is_some() {
                packets += 1;
            }
        }
        let flit_rate = packets as f64 * 3.0 / n as f64;
        assert!((flit_rate - 0.6).abs() < 0.03, "flit rate {flit_rate}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn negative_rate_is_rejected_at_construction() {
        let _ = SingleFlow::new(NodeId(0), NodeId(1), -0.2, 1);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn excessive_rate_is_rejected_at_construction() {
        // Pre-fix this was silently clamped to one packet per cycle by
        // `.min(1.0)`, so the offered load undershot the configured value.
        let _ = SingleFlow::new(NodeId(0), NodeId(1), 2.5, 2);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn literal_invalid_rate_fails_on_first_generate() {
        // The fields are public: a literally-constructed invalid flow must
        // raise the same message as the constructor instead of panicking
        // inside `rand::gen_bool`.
        let mut f = SingleFlow {
            src: NodeId(0),
            dest: NodeId(1),
            rate: -1.0,
            size: 1,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = f.generate(NodeId(0), 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "size must be nonzero")]
    fn zero_size_is_rejected() {
        let _ = SingleFlow::new(NodeId(0), NodeId(1), 0.5, 0);
    }

    #[test]
    fn flow_set_dispatches_by_source() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut fs = FlowSet::new(vec![
            SingleFlow::new(NodeId(0), NodeId(3), 1.0, 1),
            SingleFlow::new(NodeId(1), NodeId(4), 1.0, 1),
        ]);
        assert_eq!(fs.generate(NodeId(0), 0, &mut rng).unwrap().dest, NodeId(3));
        assert_eq!(fs.generate(NodeId(1), 0, &mut rng).unwrap().dest, NodeId(4));
        assert!(fs.generate(NodeId(2), 0, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "flows at source n0 offer")]
    fn aggregate_source_rate_above_one_is_rejected() {
        let _ = FlowSet::new(vec![
            SingleFlow::new(NodeId(0), NodeId(3), 0.7, 1),
            SingleFlow::new(NodeId(0), NodeId(4), 0.6, 1),
        ]);
    }

    #[test]
    fn aggregate_validation_is_per_source() {
        // 0.7 at two different sources is fine; only a shared source sums.
        let _ = FlowSet::new(vec![
            SingleFlow::new(NodeId(0), NodeId(3), 0.7, 1),
            SingleFlow::new(NodeId(1), NodeId(4), 0.7, 1),
        ]);
        // Exactly 1.0 in aggregate is the boundary and is accepted.
        let _ = FlowSet::new(vec![
            SingleFlow::new(NodeId(2), NodeId(3), 0.5, 1),
            SingleFlow::new(NodeId(2), NodeId(4), 0.5, 2),
        ]);
    }

    #[test]
    fn draw_order_contract_is_deterministic() {
        // Two flows share a source: for a fixed seed the winner sequence
        // is exactly reproducible, and every cycle consumes the same RNG
        // draws whether or not the first flow fires.
        let flows = vec![
            SingleFlow::new(NodeId(0), NodeId(3), 0.4, 1),
            SingleFlow::new(NodeId(0), NodeId(5), 0.4, 1),
        ];
        let run = |flows: Vec<SingleFlow>| {
            let mut fs = FlowSet::new(flows);
            let mut rng = SmallRng::seed_from_u64(99);
            (0..500)
                .map(|c| fs.generate(NodeId(0), c, &mut rng).map(|p| p.dest))
                .collect::<Vec<_>>()
        };
        let a = run(flows.clone());
        assert_eq!(a, run(flows.clone()), "same order + seed → same sequence");
        // Both flows get through (first-firing-wins does not starve the
        // second flow).
        assert!(a.iter().flatten().any(|&d| d == NodeId(3)));
        assert!(a.iter().flatten().any(|&d| d == NodeId(5)));
        // Reversing the flow order changes the draw sequence — the
        // documented sensitivity of the first-firing-wins loop.
        let mut rev = flows;
        rev.reverse();
        assert_ne!(a, run(rev));
    }
}

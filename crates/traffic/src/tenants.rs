//! The workload value: a list of tenants, each a closed-enum [`Source`]
//! with an optional [`Modulation`] gate beside it.
//!
//! A plain or modulated traffic spec is a list of one tenant that keeps
//! its packets' own classes; a multi-tenant run is a list of several, each
//! stamping its class on what it injects so the stats layer can attribute
//! every packet.

use crate::{HotspotWorkload, Modulation, ParsecPairWorkload, SyntheticWorkload};
use footprint_sim::{NewPacket, Workload};
use footprint_topology::NodeId;
use rand::rngs::SmallRng;

/// One traffic source: the closed set of workloads a traffic spec names.
#[derive(Debug)]
pub enum Source {
    /// Bernoulli injection over a pattern (Figures 2 and 5–8).
    Synthetic(SyntheticWorkload),
    /// The Table 3 hotspot + background mix (Figure 9).
    Hotspot(HotspotWorkload),
    /// Two PARSEC-like applications sharing the fabric (Figure 10).
    ParsecPair(ParsecPairWorkload),
}

impl Workload for Source {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        match self {
            Source::Synthetic(w) => w.generate(node, cycle, rng),
            Source::Hotspot(w) => w.generate(node, cycle, rng),
            Source::ParsecPair(w) => w.generate(node, cycle, rng),
        }
    }
}

/// One tenant: a source, the gate beside it, and the class it stamps.
#[derive(Debug)]
pub struct Tenant {
    /// Traffic class stamped on every packet this tenant injects; `None`
    /// keeps the class the source set.
    pub class: Option<u8>,
    /// The tenant's traffic source.
    pub source: Source,
    /// The time-varying gate over the source, if any.
    pub gate: Option<Modulation>,
}

/// The tenants sharing the fabric, in polling order.
///
/// # Draw-order contract
///
/// Each cycle **every** tenant is polled in declaration order, and the
/// first tenant that generates wins the node's injection slot. Unlike
/// `FlowSet` in `footprint-sim`, which stops at the first flow that fires,
/// the losers are polled too: each tenant's draws from the shared RNG do
/// not depend on the other tenants' outcomes, so the composite sequence is
/// exactly reproducible for a fixed tenant order and seed, while
/// *reordering* tenants produces a different (equally valid) sequence.
/// Earlier tenants thin later tenants' accepted load by at most the
/// product of their injection probabilities; keep aggregate rates within
/// the budget (the `footprint-core` builder enforces the sum ≤ 1.0
/// flit/node/cycle) and the distortion stays second-order.
#[derive(Debug)]
pub struct Tenants(pub Vec<Tenant>);

impl Tenant {
    /// What this tenant injects at `node` on `cycle`: the source draws,
    /// then the gate admits or drops, then the class is stamped.
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let p = self.source.generate(node, cycle, rng);
        let mut p = match &mut self.gate {
            Some(gate) => gate.admit(node, cycle, p)?,
            None => p?,
        };
        if let Some(class) = self.class {
            p.class = class;
        }
        Some(p)
    }
}

impl Workload for Tenants {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let mut winner = None;
        // No early exit: a tenant's draws must not depend on whether an
        // earlier tenant fired.
        for t in &mut self.0 {
            let p = t.generate(node, cycle, rng);
            winner = winner.or(p);
        }
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PacketSize, Pattern};
    use footprint_topology::AnyTopology;
    use rand::SeedableRng;

    /// A steady tenant sending one flow at `rate`, stamping `class`.
    fn flow(flow: &'static [(NodeId, NodeId)], rate: f64, class: u8) -> Tenant {
        let mesh = AnyTopology::mesh(4, 4);
        let wl = SyntheticWorkload::new(mesh, Pattern::Flows(flow), PacketSize::SINGLE, rate);
        Tenant {
            class: Some(class),
            source: Source::Synthetic(wl.unwrap()),
            gate: None,
        }
    }

    const N0_N1: &[(NodeId, NodeId)] = &[(NodeId(0), NodeId(1))];
    const N0_N2: &[(NodeId, NodeId)] = &[(NodeId(0), NodeId(2))];
    const N2_N1: &[(NodeId, NodeId)] = &[(NodeId(2), NodeId(1))];

    #[test]
    fn packets_carry_the_tenant_class() {
        let mut wl = Tenants(vec![flow(N0_N1, 1.0, 0), flow(N2_N1, 1.0, 3)]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(wl.generate(NodeId(0), 0, &mut rng).unwrap().class, 0);
        assert_eq!(wl.generate(NodeId(2), 0, &mut rng).unwrap().class, 3);
        assert!(wl.generate(NodeId(3), 0, &mut rng).is_none());
        // A tenant without a class keeps the source's own.
        let mesh = AnyTopology::mesh(4, 4);
        let own = SyntheticWorkload::new(mesh, Pattern::Flows(N0_N1), PacketSize::SINGLE, 1.0);
        let mut lone = Tenants(vec![Tenant {
            class: None,
            source: Source::Synthetic(own.unwrap().with_class(5)),
            gate: None,
        }]);
        assert_eq!(lone.generate(NodeId(0), 0, &mut rng).unwrap().class, 5);
    }

    #[test]
    fn first_tenant_wins_contended_slots() {
        let mut wl = Tenants(vec![flow(N0_N1, 1.0, 1), flow(N0_N2, 1.0, 2)]);
        let mut rng = SmallRng::seed_from_u64(1);
        for c in 0..50 {
            let p = wl.generate(NodeId(0), c, &mut rng).unwrap();
            assert_eq!(p.class, 1, "declaration order decides the winner");
        }
    }

    #[test]
    fn losing_tenants_still_draw() {
        // The composite's RNG consumption per call is the sum of all
        // tenants' — a winning first tenant must not shield the second
        // tenant's draw. Replay the composite by hand: one Bernoulli per
        // tenant per call, first success wins, regardless of who won.
        use rand::Rng;
        let mut wl = Tenants(vec![flow(N0_N1, 0.5, 1), flow(N0_N2, 0.5, 2)]);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut manual = SmallRng::seed_from_u64(42);
        for c in 0..400u64 {
            let got = wl.generate(NodeId(0), c, &mut rng).map(|p| p.class);
            let a = manual.gen_bool(0.5);
            let b = manual.gen_bool(0.5);
            let want = if a {
                Some(1)
            } else if b {
                Some(2)
            } else {
                None
            };
            assert_eq!(got, want, "cycle {c}");
        }
    }
}

//! The one routing value: a port selector and a VC rule — the two levels
//! of adaptiveness the paper describes every algorithm by (§3.1, Table 1).
//! Every algorithm of the paper's Table 2 and the reference extras is an
//! [`AnyRouting`]; [`crate::RoutingSpec::routing`] is the table from name
//! to `(selector, rule)`. A rule only narrows or re-prioritizes the VCs of
//! the port the selector chose — no new channel dependencies — so the
//! selector's deadlock-freedom argument holds under any rule on meshes
//! (§5: Footprint's VC selection composes with any port selector).

use crate::algorithm::{eject_requests, prefer};
use crate::footprint::{class_masks, ClassMasks, Tiers};
use crate::overlay::VcRule;
use crate::{
    dbar, dor, odd_even, turn_model, voqsw, xordet, DirSet, Priority, RoutingAlgorithm,
    RoutingCtx, VcId, VcReallocationPolicy, VcRequest, VcSelection, WrapStrategy,
};
use core::cmp::Ordering;
use footprint_topology::{AnyTopology, Direction, NodeId, Port};
use rand::RngCore;

/// The port level: which productive directions a packet may take, and how
/// one of two candidates is picked. A full tie is broken by a coin — the
/// only RNG draw of a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Selector {
    /// Algorithm 1 steps 1–2: both productive ports; more idle VCs wins,
    /// then more footprint VCs (VCs whose owner register holds the
    /// packet's destination).
    Footprint,
    /// DBAR (Ma, Enright Jerger & Wang, ISCA 2011): both productive ports;
    /// fewer congested channels on the side-band segment the packet would
    /// traverse wins, then more idle VCs.
    Dbar,
    /// Both productive ports, no congestion awareness (a reference point,
    /// not in the paper).
    RandomMinimal,
    /// XY dimension order: the X port, else the Y port. Deterministic, so
    /// a fault on its one channel does not reroute it (the simulator
    /// reports such pairs as unreachable instead).
    Dor,
    /// The odd-even turn model (Chiu, 2000); the paper's selection for it:
    /// more idle VCs wins.
    OddEven,
    /// The west-first turn model (Glass & Ni, ISCA 1992), by idle VCs.
    WestFirst,
    /// The north-last turn model (Glass & Ni, ISCA 1992), by idle VCs.
    NorthLast,
}

impl Selector {
    /// `true` for the fully adaptive selectors, which need Duato escape
    /// VCs: the lowest VC indices of every channel.
    fn has_escape(self) -> bool {
        matches!(self, Selector::Footprint | Selector::Dbar | Selector::RandomMinimal)
    }

    /// Every direction this selector could take at `cur` for a packet
    /// `src → dest`, X before Y, whatever the network state.
    fn legal_dirs(self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        match self {
            Selector::Footprint | Selector::Dbar | Selector::RandomMinimal => {
                topo.minimal_dirs(cur, dest).iter().collect()
            }
            Selector::Dor => dor::dir(topo, cur, dest).into_iter().collect(),
            Selector::OddEven => odd_even::legal_dirs(topo, cur, src, dest),
            Selector::WestFirst => turn_model::west_first(topo, cur, dest),
            Selector::NorthLast => turn_model::north_last(topo, cur, dest),
        }
    }
}

/// A routing algorithm as one `Copy` value: a port selector, a VC rule
/// (oblivious when absent) and the Footprint tiering knobs ([`Tiers`]) the
/// Footprint rule reads. Every fact the [`RoutingAlgorithm`] trait asks
/// for is derived from these fields. [`crate::RoutingSpec::routing`] and
/// [`AnyRouting::footprint`] build it.
///
/// ```
/// use footprint_routing::{AnyRouting, RoutingAlgorithm, RoutingSpec, Tiers, VcSelection};
/// // Odd-Even's ports with Footprint's VC rule (§5).
/// let oe = RoutingSpec::OddEvenFootprint.routing();
/// assert_eq!(oe.vc_selection(), VcSelection::Adaptive);
/// assert!(!oe.has_escape());
/// assert_eq!(AnyRouting::footprint(Tiers::new()), RoutingSpec::Footprint.routing());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnyRouting {
    /// Short name used in reports and tables ("footprint", "dbar+xordet", ...).
    pub(crate) name: &'static str,
    /// The port level.
    pub(crate) selector: Selector,
    /// The VC level; `None` is oblivious.
    pub(crate) rule: Option<VcRule>,
    /// The Footprint tiering knobs, read wherever the rule is
    /// [`VcRule::Footprint`].
    pub(crate) tiers: Tiers,
}

impl AnyRouting {
    /// The paper's Footprint (Algorithm 1) with the given tiering knobs —
    /// [`Tiers::new`] is the paper's configuration, the others are the
    /// ablation variants.
    pub const fn footprint(tiers: Tiers) -> Self {
        AnyRouting {
            name: "footprint",
            selector: Selector::Footprint,
            rule: Some(VcRule::Footprint),
            tiers,
        }
    }

    /// The port level: the direction the packet takes here, with the
    /// winner's class masks when the pick already scanned them; `None`
    /// when every candidate is masked by a fault (stand down and wait).
    /// `minimal` is the usable X and Y productive directions, which the
    /// fully adaptive selectors pick from (`(None, None)` for the others).
    /// Both levels stay inlined into `route`, which runs for every waiting
    /// head every cycle.
    #[inline(always)]
    fn select(
        &self,
        ctx: &RoutingCtx<'_>,
        minimal: (Option<Direction>, Option<Direction>),
        lo: usize,
        rng: &mut dyn RngCore,
    ) -> Option<(Direction, Option<ClassMasks>)> {
        let (a, b) = match self.selector {
            Selector::Footprint | Selector::Dbar | Selector::RandomMinimal => {
                match minimal {
                    (None, None) => return None,
                    (Some(d), None) | (None, Some(d)) => return Some((d, None)),
                    (Some(a), Some(b)) => (a, b),
                }
            }
            // Deterministic: a fault on DOR's one channel does not reroute it.
            Selector::Dor => return Some((dor::dir(ctx.topo, ctx.current, ctx.dest)?, None)),
            // The turn models: the legal set minus faulted ports, X first.
            _ => {
                let legal = self.selector.legal_dirs(ctx.topo, ctx.current, ctx.src, ctx.dest);
                let mut usable = legal.iter().filter(|&d| ctx.usable(d));
                match (usable.next()?, usable.next()) {
                    (d, None) => return Some((d, None)),
                    (a, Some(b)) => (a, b),
                }
            }
        };
        let idle = |d| ctx.ports.idle_count(Port::Dir(d), lo, ctx.num_vcs);
        let a_vs_b = match self.selector {
            Selector::Footprint => {
                let (ma, mb) = (
                    class_masks(ctx, Port::Dir(a), lo),
                    class_masks(ctx, Port::Dir(b), lo),
                );
                let a_vs_b = (ma.idle_count().cmp(&mb.idle_count()))
                    .then_with(|| ma.footprint_count().cmp(&mb.footprint_count()));
                let (d, masks) = prefer((a, ma), (b, mb), a_vs_b, rng);
                return Some((d, Some(masks)));
            }
            // Idle VCs are read only on a congestion tie.
            Selector::Dbar => dbar::segment_congestion(ctx, b)
                .cmp(&dbar::segment_congestion(ctx, a))
                .then_with(|| idle(a).cmp(&idle(b))),
            Selector::RandomMinimal => Ordering::Equal,
            // The turn models (DOR has returned above).
            Selector::Dor | Selector::OddEven | Selector::WestFirst | Selector::NorthLast => {
                idle(a).cmp(&idle(b))
            }
        };
        Some((prefer(a, b, a_vs_b, rng), None))
    }

    /// The VC level: the requests on `port`, over the VCs from `lo` up.
    #[inline(always)]
    fn request_vcs(
        &self,
        ctx: &RoutingCtx<'_>,
        port: Port,
        lo: usize,
        masks: Option<ClassMasks>,
        out: &mut Vec<VcRequest>,
    ) {
        let one = |vc| VcRequest::new(port, vc, Priority::Low);
        match self.rule {
            None => {
                let vcs = match port {
                    Port::Dir(d) if self.selector == Selector::Dor => dor::vc_band(ctx, d),
                    _ => lo..ctx.num_vcs,
                };
                for v in vcs {
                    out.push(one(VcId::from_index(v)));
                }
            }
            Some(VcRule::Xordet) => out.push(one(xordet::mapped_vc(ctx, lo))),
            Some(VcRule::VoqSw) => out.push(one(voqsw::mapped_vc(ctx, lo, port))),
            Some(VcRule::Footprint) => {
                let masks = masks.unwrap_or_else(|| class_masks(ctx, port, lo));
                self.tiers.request(ctx, port, masks, out);
            }
        }
    }
}

impl RoutingAlgorithm for AnyRouting {
    fn name(&self) -> &'static str {
        self.name
    }

    fn policy(&self) -> VcReallocationPolicy {
        if self.has_escape() {
            VcReallocationPolicy::Atomic
        } else {
            VcReallocationPolicy::NonAtomic
        }
    }

    fn has_escape(&self) -> bool {
        self.selector.has_escape()
    }

    fn wrap_strategy(&self) -> WrapStrategy {
        match self.rule {
            // A static collapse to one VC per port discards the escape and
            // dateline VC freedom the wrap arguments rely on.
            Some(VcRule::Xordet | VcRule::VoqSw) => WrapStrategy::Unsupported,
            _ if self.has_escape() => WrapStrategy::EscapeVcs,
            _ if self.selector == Selector::Dor => WrapStrategy::DatelineVcClasses,
            _ => WrapStrategy::AcyclicSubgraph,
        }
    }

    fn vc_selection(&self) -> VcSelection {
        match self.rule {
            None => VcSelection::Oblivious,
            Some(VcRule::Footprint) => VcSelection::Adaptive,
            Some(VcRule::Xordet | VcRule::VoqSw) => VcSelection::StaticMapped,
        }
    }

    fn allows_footprint_join(&self) -> bool {
        match self.rule {
            None => false,
            // Footprint claims VCs through standing requests unless the
            // join knob is on.
            Some(VcRule::Footprint) => self.tiers.join,
            // A static mapping relies on same-class packets sharing a VC,
            // so they must be able to queue behind each other even under
            // an atomic policy, as XORDET deployments dedicate the VC.
            Some(VcRule::Xordet | VcRule::VoqSw) => true,
        }
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        if ctx.current == ctx.dest {
            return eject_requests(ctx, out);
        }
        // Escape arrivals re-enter the adaptive channels (Duato's theory):
        // the escape request below keeps the escape network reachable.
        let lo = ctx.adaptive_lo(self.has_escape());
        // The fully adaptive selectors (exactly those with an escape
        // layer) pick among the usable productive directions, and the
        // escape hop is the first of them, X before Y (`escape_dir`):
        // both read one evaluation of the fault mask.
        let minimal = if self.has_escape() {
            let dirs = ctx.topo.minimal_dirs(ctx.current, ctx.dest);
            let usable = |d: &Direction| ctx.usable(*d);
            (dirs.x.filter(usable), dirs.y.filter(usable))
        } else {
            (None, None)
        };
        let Some((dir, masks)) = self.select(ctx, minimal, lo, rng) else {
            return;
        };
        self.request_vcs(ctx, Port::Dir(dir), lo, masks, out);
        if let Some(escape) = minimal.0.or(minimal.1) {
            out.push(ctx.escape_request(escape));
        }
    }

    fn injection_requests(
        &self,
        ctx: &RoutingCtx<'_>,
        _rng: &mut dyn RngCore,
        out: &mut Vec<VcRequest>,
    ) {
        // The rule runs on the source→router channel too, so footprints
        // form from the very first hop; every escape class stays
        // requestable.
        let lo = ctx.adaptive_lo(self.has_escape());
        self.request_vcs(ctx, Port::Local, lo, None, out);
        for v in 0..lo {
            out.push(VcRequest::new(Port::Local, VcId::from_index(v), Priority::Lowest));
        }
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        self.selector.legal_dirs(topo, cur, src, dest)
    }
}

//! Footprint's VC rule — Algorithm 1 step 3 of the paper's contribution —
//! and the class masks its port selection reads (steps 1–2 are
//! [`crate::any::Selector::Footprint`]).

use crate::{Priority, RoutingCtx, VcClass, VcId, VcRequest};
use footprint_topology::Port;

/// The knobs of Footprint's VC rule (Algorithm 1 step 3);
/// [`crate::AnyRouting::footprint`] takes them for the ablation variants.
///
/// Congestion is estimated locally from the chosen port's idle-VC count
/// against a threshold of half the VCs per channel:
/// * `idle ≥ V/2` (no congestion): request all adaptive VCs, `Low`.
/// * `idle = 0` (saturated): request only footprint VCs, `High` — or all
///   adaptive VCs at `Low` if no footprint exists.
/// * otherwise: idle VCs at `Highest`, footprint VCs at `High`, busy VCs at
///   `Low` (see [`Tiers::with_literal_tiering`] for the default's twist).
///
/// Footprint VCs are claimed through *standing requests*: a packet waiting
/// on a footprint channel is granted the VC the instant it fully drains,
/// so same-destination packets serialize through the same VC chain — the
/// dynamic virtual set-aside queues of §3.3 that keep the congestion tree
/// slim — while honouring the atomic VC reallocation that Duato-based
/// algorithms require (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tiers {
    /// Idle-VC count at or above which the network is considered
    /// uncongested. `None` = the paper's default of `V/2`.
    threshold: Option<usize>,
    /// Upper bound on the number of footprint VCs requested per port.
    /// `None` = unlimited (the paper's configuration; §4.2.5 discusses
    /// limiting it as future work, which this knob enables).
    max_footprint_vcs: Option<usize>,
    /// Allow joining a draining footprint VC before it has fully emptied.
    pub(crate) join: bool,
    /// Use Algorithm 1's literal priority labels in the intermediate-load
    /// tier (idle above footprint). See `with_literal_tiering`.
    literal_tiering: bool,
}

impl Tiers {
    /// The paper's configuration: threshold `V/2`, unlimited footprint
    /// VCs, strict atomic VC reallocation.
    pub const fn new() -> Self {
        Tiers {
            threshold: None,
            max_footprint_vcs: None,
            join: false,
            literal_tiering: false,
        }
    }

    /// Overrides the congestion threshold (number of idle VCs at or above
    /// which the network is treated as uncongested).
    pub const fn with_threshold(threshold: usize) -> Self {
        Tiers {
            threshold: Some(threshold),
            ..Self::new()
        }
    }

    /// Enables footprint *joins*: a packet may be granted a footprint VC
    /// that is still draining, stacking same-destination packets in one VC
    /// FIFO. An extension beyond the paper's BookSim implementation; the
    /// ablation bench shows unbounded joins destabilize permutation
    /// traffic at high load, which is why the default is off.
    pub const fn with_join(mut self) -> Self {
        self.join = true;
        self
    }

    /// Bounds the number of footprint VCs a packet may request per port —
    /// the future-work isolation knob of §4.2.5.
    pub const fn with_max_footprint_vcs(mut self, max: usize) -> Self {
        self.max_footprint_vcs = Some(max);
        self
    }

    /// Uses Algorithm 1's literal priority labels at intermediate load
    /// (idle `Highest` > footprint `High`), instead of the default
    /// behaviour-matched tiering in which a packet whose footprint
    /// *dominates* the idle pool follows it rather than forking a new VC.
    ///
    /// The paper's prose is explicit that congested packets follow prior
    /// packets "instead of forking a new path or VC"; taken literally, the
    /// listing's `Highest` on idle VCs makes congested flows keep expanding
    /// into every idle VC, which defeats the slim-tree goal (our ablation
    /// bench quantifies the difference). The default therefore puts a
    /// packet's footprint VCs first when they are at least as numerous as
    /// the idle VCs — the local signature of endpoint congestion — and
    /// falls back to the listing's idle-first order otherwise; this knob
    /// restores the literal listing unconditionally, for comparison.
    pub const fn with_literal_tiering(mut self) -> Self {
        self.literal_tiering = true;
        self
    }

    /// Generates the prioritized VC requests for `port` from its packed
    /// class masks ([`class_masks`]). Emission is class-grouped (idle
    /// block, then footprint, then busy — matching the listing) by
    /// ascending bit iteration; no intermediate lists and no further port
    /// scans.
    pub(crate) fn request(
        &self,
        ctx: &RoutingCtx<'_>,
        port: Port,
        masks: ClassMasks,
        out: &mut Vec<VcRequest>,
    ) {
        let fp_limit = self.max_footprint_vcs.unwrap_or(usize::MAX);
        let idle = masks.idle_count();
        // Footprint VCs beyond the §4.2.5 limit get no request at all.
        let fp = masks.footprint_count().min(fp_limit);
        let threshold = self.threshold.unwrap_or(ctx.num_vcs / 2);
        let push = |class, priority, limit, out: &mut Vec<VcRequest>| {
            push_mask_class(port, masks, class, priority, limit, out);
        };
        if idle >= threshold {
            // No congestion: use all adaptive VCs — waiting on footprint
            // channels would only add latency (line 31).
            push(VcClass::Idle, Priority::Low, usize::MAX, out);
            push(VcClass::Footprint, Priority::Low, fp_limit, out);
            push(VcClass::Busy, Priority::Low, usize::MAX, out);
        } else if idle == 0 {
            if fp > 0 {
                // Saturated with a footprint: wait on the footprint channels
                // only (line 34).
                push(VcClass::Footprint, Priority::High, fp_limit, out);
            } else {
                // Saturated, no footprint: request all adaptive VCs (line 37).
                push(VcClass::Busy, Priority::Low, usize::MAX, out);
            }
        } else if !self.literal_tiering && fp >= idle {
            // Intermediate load with a *dominant* footprint — the signature
            // of endpoint congestion (this destination already occupies as
            // many VCs as remain idle): follow the footprint instead of
            // forking a new VC (the behaviour the paper's §1/§3.2 prose
            // specifies). Idle VCs stay requested as a lower-priority
            // fallback so forward progress never depends on the footprint
            // chain alone.
            push(VcClass::Footprint, Priority::Highest, fp_limit, out);
            push(VcClass::Idle, Priority::High, usize::MAX, out);
            push(VcClass::Busy, Priority::Low, usize::MAX, out);
        } else {
            // Intermediate load in literal mode, or with a footprint that
            // is absent or small relative to the idle pool (transient
            // contention, not endpoint congestion): the listing's tiering
            // — idle first, then footprint, then busy (lines 40-42).
            push(VcClass::Idle, Priority::Highest, usize::MAX, out);
            push(VcClass::Footprint, Priority::High, fp_limit, out);
            push(VcClass::Busy, Priority::Low, usize::MAX, out);
        }
    }
}

// The VC classification itself lives with the views ([`crate::VcClass`],
// [`crate::VcView::class_for`]); these wrappers bind it to a routing
// context. Each port is scanned exactly once through the *bulk*
// `PortStateView::class_masks` call — one virtual dispatch per port, no
// per-VC vtable hops — and both the class counts (port selection) and the
// per-class request emission (step 3) are derived from the packed masks.

/// One port's VC classification for a destination, packed as bitmasks over
/// the adaptive index range `[lo, num_vcs)`. Busy VCs are the range bits
/// not in either mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassMasks {
    idle: u64,
    fp: u64,
    /// All bits of the scanned `[lo, num_vcs)` range.
    range: u64,
}

impl ClassMasks {
    pub(crate) fn idle_count(self) -> usize {
        self.idle.count_ones() as usize
    }

    pub(crate) fn footprint_count(self) -> usize {
        self.fp.count_ones() as usize
    }

    fn of(self, class: VcClass) -> u64 {
        match class {
            VcClass::Idle => self.idle,
            VcClass::Footprint => self.fp,
            VcClass::Busy => self.range & !self.idle & !self.fp,
        }
    }
}

/// Classifies the VCs of `port` in index range `[lo, num_vcs)` for the
/// packet's destination in a single bulk scan. Allocation-free; `route`
/// runs per packet per cycle.
#[inline]
pub(crate) fn class_masks(ctx: &RoutingCtx<'_>, port: Port, lo: usize) -> ClassMasks {
    let hi = ctx.num_vcs;
    let (idle, fp) = ctx.ports.class_masks(port, ctx.dest, lo, hi);
    let range = if hi >= 64 { !0u64 } else { (1u64 << hi) - 1 } & !((1u64 << lo) - 1);
    ClassMasks { idle, fp, range }
}

/// Pushes a request for every VC of `class` in `masks` (in ascending
/// VC-index order — the order grant arbitration depends on — at most
/// `limit` of them) with priority `priority`.
fn push_mask_class(
    port: Port,
    masks: ClassMasks,
    class: VcClass,
    priority: Priority,
    limit: usize,
    out: &mut Vec<VcRequest>,
) {
    let mut bits = masks.of(class);
    let mut emitted = 0;
    while bits != 0 && emitted < limit {
        let v = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        out.push(VcRequest::new(port, VcId::from_index(v), priority));
        emitted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AnyRouting, NoCongestionInfo, RoutingAlgorithm, TablePortView, VcReallocationPolicy,
        VcView,
    };
    use footprint_topology::{AnyTopology, Direction, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const V: usize = 4; // 1 escape + 3 adaptive

    fn busy_vc(owner: u16) -> VcView {
        VcView {
            idle: false,
            owner: Some(NodeId(owner)),
            credits: 2,
            joinable: true,
        }
    }

    fn mk_ctx<'a>(view: &'a TablePortView, cong: &'a NoCongestionInfo) -> RoutingCtx<'a> {
        RoutingCtx {
            topo: AnyTopology::mesh(8, 8),
            current: NodeId(0),
            src: NodeId(0),
            dest: NodeId(63),
            input_port: Port::Local,
            input_vc: VcId(1),
            on_escape: false,
            num_vcs: V,
            ports: view,
            congestion: cong,
            links: &crate::AllLinksUp,
        }
    }

    #[test]
    fn faulted_port_is_excluded_from_selection() {
        use crate::DownLinks;
        let view = TablePortView::all_idle(V, 4);
        let cong = NoCongestionInfo;
        let faults = DownLinks::new(vec![(NodeId(0), Direction::East)]);
        let mut ctx = mk_ctx(&view, &cong);
        ctx.links = &faults;
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out = Vec::new();
            AnyRouting::footprint(Tiers::new()).route(&ctx, &mut rng, &mut out);
            assert!(!out.is_empty(), "seed {seed}");
            assert!(
                out.iter().all(|r| r.port == Port::Dir(Direction::North)),
                "seed {seed}: {out:?}"
            );
        }
    }

    fn route(view: &TablePortView) -> Vec<VcRequest> {
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(view, &cong);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::new()).route(&ctx, &mut rng, &mut out);
        out
    }

    #[test]
    fn uncongested_requests_all_adaptive_vcs_low() {
        let view = TablePortView::all_idle(V, 4);
        let out = route(&view);
        // One chosen direction with 3 adaptive requests + escape.
        let adaptive: Vec<_> = out.iter().filter(|r| r.vc != VcId::ESCAPE).collect();
        assert_eq!(adaptive.len(), 3);
        assert!(adaptive.iter().all(|r| r.priority == Priority::Low));
        let esc = crate::invariant::escape_request(&out, NodeId(0), NodeId(63)).unwrap();
        assert_eq!(esc.priority, Priority::Lowest);
    }

    #[test]
    fn port_selection_prefers_more_idle_vcs() {
        let mut view = TablePortView::all_idle(V, 4);
        // East has 1 idle adaptive VC, North has 3.
        view.set(Port::Dir(Direction::East), VcId(1), busy_vc(5));
        view.set(Port::Dir(Direction::East), VcId(2), busy_vc(6));
        let out = route(&view);
        assert!(out
            .iter()
            .filter(|r| r.vc != VcId::ESCAPE)
            .all(|r| r.port == Port::Dir(Direction::North)));
    }

    #[test]
    fn port_tie_broken_by_footprint_vcs() {
        let mut view = TablePortView::all_idle(V, 4);
        // Both ports have 2 idle adaptive VCs, but East's busy VC carries
        // traffic to our destination (63) — a footprint.
        view.set(Port::Dir(Direction::East), VcId(1), busy_vc(63));
        view.set(Port::Dir(Direction::North), VcId(1), busy_vc(5));
        let out = route(&view);
        assert!(out
            .iter()
            .filter(|r| r.vc != VcId::ESCAPE)
            .all(|r| r.port == Port::Dir(Direction::East)));
    }

    #[test]
    fn saturated_port_with_footprint_requests_only_footprint_high() {
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            view.set(port, VcId(1), busy_vc(63));
            view.set(port, VcId(2), busy_vc(5));
            view.set(port, VcId(3), busy_vc(6));
        }
        let out = route(&view);
        let adaptive: Vec<_> = out.iter().filter(|r| r.vc != VcId::ESCAPE).collect();
        assert_eq!(adaptive.len(), 1);
        assert_eq!(adaptive[0].vc, VcId(1));
        assert_eq!(adaptive[0].priority, Priority::High);
    }

    #[test]
    fn saturated_port_without_footprint_requests_all_adaptive() {
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            for v in 1..V {
                view.set(port, VcId::from_index(v), busy_vc(5));
            }
        }
        let out = route(&view);
        let adaptive: Vec<_> = out.iter().filter(|r| r.vc != VcId::ESCAPE).collect();
        assert_eq!(adaptive.len(), 3);
        assert!(adaptive.iter().all(|r| r.priority == Priority::Low));
    }

    #[test]
    fn intermediate_load_uses_three_priority_tiers() {
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            view.set(port, VcId(1), busy_vc(63)); // footprint
            view.set(port, VcId(2), busy_vc(5)); // busy, other dest
                                                 // VcId(3) stays idle → 1 idle < threshold (V/2 = 2), not 0.
        }
        let out = route(&view);
        let by_vc = |vc: u8| {
            out.iter()
                .find(|r| r.vc == VcId(vc) && r.port != Port::Local)
                .unwrap()
                .priority
        };
        // Behaviour-matched tiering: the packet follows its footprint
        // instead of forking into the idle VC.
        assert_eq!(by_vc(1), Priority::Highest); // footprint
        assert_eq!(by_vc(3), Priority::High); // idle
        assert_eq!(by_vc(2), Priority::Low); // busy
        assert_eq!(by_vc(0), Priority::Lowest); // escape
    }

    #[test]
    fn literal_tiering_restores_algorithm_1_labels() {
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            view.set(port, VcId(1), busy_vc(63)); // footprint
            view.set(port, VcId(2), busy_vc(5)); // busy, other dest
        }
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::new().with_literal_tiering())
            .route(&ctx, &mut rng, &mut out);
        let by_vc = |vc: u8| {
            out.iter()
                .find(|r| r.vc == VcId(vc) && r.port != Port::Local)
                .unwrap()
                .priority
        };
        assert_eq!(by_vc(3), Priority::Highest); // idle (lines 40-42 literal)
        assert_eq!(by_vc(1), Priority::High); // footprint
        assert_eq!(by_vc(2), Priority::Low); // busy
    }

    #[test]
    fn footprint_join_capability_is_declared() {
        let f = AnyRouting::footprint(Tiers::new());
        assert!(!f.allows_footprint_join(), "strict atomic by default");
        assert!(AnyRouting::footprint(Tiers::new().with_join()).allows_footprint_join());
        assert_eq!(f.policy(), VcReallocationPolicy::Atomic);
        assert!(f.has_escape());
        assert_eq!(f.name(), "footprint");
    }

    #[test]
    fn max_footprint_vcs_limits_requests() {
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            for v in 1..V {
                view.set(port, VcId::from_index(v), busy_vc(63)); // all footprints
            }
        }
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::new().with_max_footprint_vcs(1))
            .route(&ctx, &mut rng, &mut out);
        let fp: Vec<_> = out
            .iter()
            .filter(|r| r.priority == Priority::High)
            .collect();
        assert_eq!(fp.len(), 1);
    }

    #[test]
    fn custom_threshold_changes_congestion_estimate() {
        // With threshold 1, a port with a single idle VC is "uncongested"
        // and everything is requested at Low.
        let mut view = TablePortView::all_idle(V, 4);
        for port in [Port::Dir(Direction::East), Port::Dir(Direction::North)] {
            view.set(port, VcId(1), busy_vc(63));
            view.set(port, VcId(2), busy_vc(5));
        }
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::with_threshold(1)).route(&ctx, &mut rng, &mut out);
        assert!(out
            .iter()
            .filter(|r| r.vc != VcId::ESCAPE)
            .all(|r| r.priority == Priority::Low));
    }

    #[test]
    fn injection_builds_footprints_at_source() {
        let mut view = TablePortView::all_idle(V, 4);
        view.set(Port::Local, VcId(1), busy_vc(63)); // footprint at injection
        view.set(Port::Local, VcId(2), busy_vc(5));
        let cong = NoCongestionInfo;
        let ctx = mk_ctx(&view, &cong);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::new()).injection_requests(&ctx, &mut rng, &mut out);
        assert!(out.iter().all(|r| r.port == Port::Local));
        let fp = out.iter().find(|r| r.vc == VcId(1)).unwrap();
        assert_eq!(fp.priority, Priority::Highest, "footprints lead at injection too");
    }

    #[test]
    fn ejects_at_destination_router() {
        let view = TablePortView::all_idle(V, 4);
        let cong = NoCongestionInfo;
        let mut ctx = mk_ctx(&view, &cong);
        ctx.current = ctx.dest;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        AnyRouting::footprint(Tiers::new()).route(&ctx, &mut rng, &mut out);
        assert!(out.iter().all(|r| r.port == Port::Local));
        assert_eq!(out.len(), V);
    }
}

//! The harness's own instrumentation, wrapped around the program's public
//! traits: [`Timed`] times every `route` / `injection_requests` /
//! `generate` call from outside, and [`Counts`] is a `Probe` that counts
//! flit events. Nothing inside the program is touched.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use footprint_routing::{
    DirSet, RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcRequest, VcSelection,
    WrapStrategy,
};
use footprint_sim::{FlitEvent, FlitEventKind, NewPacket, Probe, VaBlockInfo, Workload};
use footprint_topology::{AnyTopology, NodeId};
use rand::rngs::SmallRng;
use rand::RngCore;

use crate::summary::median;

/// Calls, items produced and nanoseconds spent at one call site. The
/// atomics are statistics only and publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    items: AtomicU64,
    ns: AtomicU64,
}

/// A reading of a [`Clock`]; subtract two to get a slice's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub items: u64,
    pub ns: u64,
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, rhs: Tally) -> Tally {
        Tally {
            calls: self.calls - rhs.calls,
            items: self.items - rhs.items,
            ns: self.ns - rhs.ns,
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.calls += rhs.calls;
        self.items += rhs.items;
        self.ns += rhs.ns;
    }
}

impl Clock {
    fn record(&self, started: Instant, items: u64) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Relaxed);
        self.items.fetch_add(items, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn read(&self) -> Tally {
        Tally {
            calls: self.calls.load(Relaxed),
            items: self.items.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }
}

/// The three timed call sites of one hand-driven run.
#[derive(Debug, Default)]
pub struct Clocks {
    /// `RoutingAlgorithm::route`; items are the requests it emitted.
    pub route: Clock,
    /// `RoutingAlgorithm::injection_requests`; items likewise.
    pub inject: Clock,
    /// `Workload::generate`; items are the packets it produced.
    pub generate: Clock,
}

/// Wraps a routing algorithm or a workload and times its hot calls into a
/// shared [`Clocks`]; everything else is forwarded untouched.
pub struct Timed<T> {
    inner: T,
    clocks: Arc<Clocks>,
}

impl<T> Timed<T> {
    pub fn new(inner: T, clocks: Arc<Clocks>) -> Self {
        Timed { inner, clocks }
    }
}

/// Every method is forwarded, the defaulted ones too: a wrapper that fell
/// back to a trait default (say `allows_footprint_join() == false`) would
/// silently simulate a different algorithm.
impl RoutingAlgorithm for Timed<Box<dyn RoutingAlgorithm>> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn policy(&self) -> VcReallocationPolicy {
        self.inner.policy()
    }

    fn has_escape(&self) -> bool {
        self.inner.has_escape()
    }

    fn wrap_strategy(&self) -> WrapStrategy {
        self.inner.wrap_strategy()
    }

    fn min_vcs_on(&self, topo: AnyTopology) -> usize {
        self.inner.min_vcs_on(topo)
    }

    fn vc_selection(&self) -> VcSelection {
        self.inner.vc_selection()
    }

    fn allows_footprint_join(&self) -> bool {
        self.inner.allows_footprint_join()
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        let before = out.len();
        let started = Instant::now();
        self.inner.route(ctx, rng, out);
        self.clocks
            .route
            .record(started, (out.len() - before) as u64);
    }

    fn injection_requests(
        &self,
        ctx: &RoutingCtx<'_>,
        rng: &mut dyn RngCore,
        out: &mut Vec<VcRequest>,
    ) {
        let before = out.len();
        let started = Instant::now();
        self.inner.injection_requests(ctx, rng, out);
        self.clocks
            .inject
            .record(started, (out.len() - before) as u64);
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        self.inner.allowed_dirs(topo, cur, src, dest)
    }
}

impl Workload for Timed<Box<dyn Workload>> {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let started = Instant::now();
        let packet = self.inner.generate(node, cycle, rng);
        self.clocks
            .generate
            .record(started, u64::from(packet.is_some()));
        packet
    }
}

/// What one `Instant` read-pair costs when nothing runs between the two
/// reads, in nanoseconds. Each timed call carries this much inside its
/// interval (and about as much again outside it), which the per-layer
/// arithmetic subtracts. The clock ticks in whole nanoseconds, so single
/// pairs all read the same two or three values: the figure is the median
/// over 101 batches of the mean of 1000 pairs.
pub fn timer_ns() -> f64 {
    let batches: Vec<f64> = (0..101)
        .map(|_| {
            let pairs = (0..1000).map(|_| {
                let started = Instant::now();
                started.elapsed().as_nanos()
            });
            pairs.sum::<u128>() as f64 / 1000.0
        })
        .collect();
    median(&batches)
}

/// A probe that counts the flit lifecycle events and blocked allocations
/// of a run. Subscribing to flit events is part of the tracing overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub inject_flits: u64,
    pub eject_flits: u64,
    pub vc_grants: u64,
    /// `SaGrant` events: one per flit per router traversed.
    pub flit_hops: u64,
    pub va_blocks: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, rhs: Counts) {
        self.inject_flits += rhs.inject_flits;
        self.eject_flits += rhs.eject_flits;
        self.vc_grants += rhs.vc_grants;
        self.flit_hops += rhs.flit_hops;
        self.va_blocks += rhs.va_blocks;
    }
}

impl Probe for Counts {
    fn wants_flit_events(&self) -> bool {
        true
    }

    fn flit_event(&mut self, event: &FlitEvent) {
        match event.kind {
            FlitEventKind::Inject => self.inject_flits += 1,
            FlitEventKind::Eject => self.eject_flits += 1,
            FlitEventKind::VcGrant => self.vc_grants += 1,
            FlitEventKind::SaGrant => self.flit_hops += 1,
            // Delivered through `va_blocked`, never as a flit event.
            FlitEventKind::VaBlock => {}
        }
    }

    fn va_blocked(&mut self, _info: &VaBlockInfo) {
        self.va_blocks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_routing::{AllLinksUp, NoCongestionInfo, RoutingSpec, TablePortView, VcId};
    use footprint_topology::{Port, TopologySpec};
    use rand::SeedableRng;

    const ALL_SPECS: [RoutingSpec; 13] = [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
        RoutingSpec::DbarXordet,
        RoutingSpec::OddEvenXordet,
        RoutingSpec::DorXordet,
        RoutingSpec::RandomMinimal,
        RoutingSpec::WestFirst,
        RoutingSpec::NorthLast,
        RoutingSpec::DorVoqSw,
        RoutingSpec::DbarVoqSw,
        RoutingSpec::OddEvenFootprint,
    ];

    /// Both requests lists of one head, from the same RNG state.
    fn requests(
        algo: &dyn RoutingAlgorithm,
        topo: AnyTopology,
        ports: &TablePortView,
        (cur, src, dest): (NodeId, NodeId, NodeId),
    ) -> (Vec<VcRequest>, Vec<VcRequest>) {
        let ctx = RoutingCtx {
            topo,
            current: cur,
            src,
            dest,
            input_port: Port::Local,
            input_vc: VcId(1),
            on_escape: false,
            num_vcs: 4,
            ports,
            congestion: &NoCongestionInfo,
            links: &AllLinksUp,
        };
        let mut rng = SmallRng::seed_from_u64(u64::from(cur.0) << 32 | u64::from(dest.0));
        let (mut route, mut inject) = (Vec::new(), Vec::new());
        algo.route(&ctx, &mut rng, &mut route);
        algo.injection_requests(&ctx, &mut rng, &mut inject);
        (route, inject)
    }

    #[test]
    fn timed_forwards_every_method_for_all_specs_on_mesh_and_torus() {
        let ports = TablePortView::all_idle(4, 4);
        for fabric in [TopologySpec::mesh(4), TopologySpec::torus(4)] {
            let topo = fabric.validate().unwrap();
            for spec in ALL_SPECS {
                let plain = spec.build();
                let clocks = Arc::new(Clocks::default());
                let timed = Timed::new(spec.build(), Arc::clone(&clocks));
                let what = format!("{spec} on {fabric}");
                assert_eq!(timed.name(), plain.name(), "{what}");
                assert_eq!(timed.policy(), plain.policy(), "{what}");
                assert_eq!(timed.has_escape(), plain.has_escape(), "{what}");
                assert_eq!(timed.wrap_strategy(), plain.wrap_strategy(), "{what}");
                assert_eq!(timed.min_vcs_on(topo), plain.min_vcs_on(topo), "{what}");
                assert_eq!(timed.vc_selection(), plain.vc_selection(), "{what}");
                assert_eq!(
                    timed.allows_footprint_join(),
                    plain.allows_footprint_join(),
                    "{what}"
                );
                let mut calls = 0;
                let mut emitted = (0, 0);
                for cur in topo.nodes() {
                    for dest in topo.nodes() {
                        let src = NodeId(0);
                        assert_eq!(
                            timed.allowed_dirs(topo, cur, src, dest),
                            plain.allowed_dirs(topo, cur, src, dest),
                            "{what}"
                        );
                        // Static VC mappings have no wrap argument and are
                        // refused on a torus before they ever route.
                        if plain.wrap_strategy() == WrapStrategy::Unsupported && topo.wraps() {
                            continue;
                        }
                        let want = requests(&*plain, topo, &ports, (cur, src, dest));
                        let got = requests(&timed, topo, &ports, (cur, src, dest));
                        assert_eq!(got, want, "{what}: {cur:?} -> {dest:?}");
                        calls += 1;
                        emitted.0 += got.0.len() as u64;
                        emitted.1 += got.1.len() as u64;
                    }
                }
                let (route, inject) = (clocks.route.read(), clocks.inject.read());
                assert_eq!((route.calls, route.items), (calls, emitted.0), "{what}");
                assert_eq!((inject.calls, inject.items), (calls, emitted.1), "{what}");
            }
        }
    }

    #[test]
    fn timed_workload_counts_calls_and_packets() {
        use footprint_sim::SingleFlow;
        let clocks = Arc::new(Clocks::default());
        let flow: Box<dyn Workload> = Box::new(SingleFlow::new(NodeId(0), NodeId(3), 1.0, 1));
        let mut timed = Timed::new(flow, Arc::clone(&clocks));
        let mut rng = SmallRng::seed_from_u64(7);
        for node in 0..4 {
            let packet = timed.generate(NodeId(node), 0, &mut rng);
            assert_eq!(packet.is_some(), node == 0);
        }
        let t = clocks.generate.read();
        assert_eq!((t.calls, t.items), (4, 1));
    }

    #[test]
    fn tallies_subtract_and_accumulate() {
        let a = Tally {
            calls: 5,
            items: 9,
            ns: 100,
        };
        let b = Tally {
            calls: 2,
            items: 4,
            ns: 30,
        };
        let mut sum = a - b;
        assert_eq!(
            sum,
            Tally {
                calls: 3,
                items: 5,
                ns: 70
            }
        );
        sum += b;
        assert_eq!(sum, a);
    }

    #[test]
    fn timer_cost_is_positive_and_small() {
        let ns = timer_ns();
        assert!(ns > 0.0 && ns < 10_000.0, "{ns} ns");
    }
}

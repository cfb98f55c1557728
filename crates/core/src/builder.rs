//! The simulation builder: the configuration value every experiment starts
//! from. Executing it is the engine's job (`engine.rs`).

use crate::options::ExecOptions;
#[cfg(doc)]
use crate::RunReport;
use crate::{TenantSpec, TrafficSpec};
use footprint_routing::RoutingSpec;
use footprint_sim::{ConfigError, Network, Scheduler, SimConfig, UnreachablePolicy, Workload};
use footprint_topology::{FaultPlan, TopologySpec};
use footprint_traffic::{Modulation, ModulationSpec, PacketSize, Tenant, Tenants};

/// Fluent configuration of one simulation run.
///
/// Defaults follow the paper's Table 2: 8×8 mesh, 10 VCs, 4-flit buffers,
/// speedup 2, single-flit packets, Footprint routing, uniform random
/// traffic, 10k warmup + 10k measurement cycles.
///
/// ```
/// use footprint_core::{RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
///
/// let report = SimulationBuilder::mesh(4)
///     .vcs(4)
///     .routing(RoutingSpec::Dor)
///     .traffic(TrafficSpec::UniformRandom)
///     .injection_rate(0.1)
///     .warmup(300)
///     .measurement(500)
///     .seed(1)
///     .run_with(RunOptions::new())?;
/// assert!(report.latency.ejected_packets > 0);
/// # Ok::<(), footprint_core::RunError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    pub(crate) topology: TopologySpec,
    num_vcs: usize,
    vc_buffer_depth: usize,
    speedup: usize,
    pub(crate) routing: RoutingSpec,
    pub(crate) traffic: TrafficSpec,
    packet_size: PacketSize,
    pub(crate) rate: f64,
    link_latency: usize,
    pub(crate) warmup: u64,
    pub(crate) measurement: u64,
    pub(crate) drain: u64,
    pub(crate) seed: u64,
    pub(crate) modulation: ModulationSpec,
    pub(crate) tenants: Vec<TenantSpec>,
}

/// Seed salt for a lone spec's gate, far outside the sweep index range so
/// modulation RNGs never collide with point seeds.
const MODULATION_SALT: u64 = 0x4D4F_4475_4C41_7465; // "MODuLAte"
/// Base seed salt for per-tenant gates (tenant `i` uses `SALT + i`).
const TENANT_SALT: u64 = 0x7465_4E61_4E74_0000; // "teNaNt"

impl SimulationBuilder {
    /// Starts from the paper's default configuration (8×8 mesh).
    pub fn paper_default() -> Self {
        let cfg = SimConfig::paper_default();
        SimulationBuilder {
            topology: cfg.topology,
            num_vcs: cfg.num_vcs,
            vc_buffer_depth: cfg.vc_buffer_depth,
            speedup: cfg.speedup,
            routing: RoutingSpec::Footprint,
            traffic: TrafficSpec::UniformRandom,
            packet_size: PacketSize::SINGLE,
            rate: 0.1,
            link_latency: cfg.link_latency,
            warmup: 10_000,
            measurement: 10_000,
            drain: 0,
            seed: 0xF007,
            modulation: ModulationSpec::Steady,
            tenants: Vec::new(),
        }
    }

    /// Starts from a `k × k` mesh with otherwise default parameters.
    pub fn mesh(k: u16) -> Self {
        Self::paper_default().topology(TopologySpec::mesh(k))
    }

    /// Starts from a `k × k` torus with otherwise default parameters.
    pub fn torus(k: u16) -> Self {
        Self::paper_default().topology(TopologySpec::torus(k))
    }

    /// Starts from an `n`-node ring with otherwise default parameters.
    pub fn ring(nodes: u16) -> Self {
        Self::paper_default().topology(TopologySpec::ring(nodes))
    }

    /// Sets the topology explicitly.
    pub fn topology(mut self, topo: TopologySpec) -> Self {
        self.topology = topo;
        self
    }

    /// VCs per physical channel.
    pub fn vcs(mut self, n: usize) -> Self {
        self.num_vcs = n;
        self
    }

    /// VC buffer depth in flits.
    pub fn buffer_depth(mut self, n: usize) -> Self {
        self.vc_buffer_depth = n;
        self
    }

    /// Internal speedup.
    pub fn speedup(mut self, n: usize) -> Self {
        self.speedup = n;
        self
    }

    /// Routing algorithm.
    pub fn routing(mut self, spec: RoutingSpec) -> Self {
        self.routing = spec;
        self
    }

    /// Workload.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Packet-size mix.
    pub fn packet_size(mut self, size: PacketSize) -> Self {
        self.packet_size = size;
        self
    }

    /// Offered load, flits/node/cycle (for hotspot traffic: the hotspot
    /// flow rate).
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// One-way link latency in cycles (default 1).
    pub fn link_latency(mut self, cycles: usize) -> Self {
        self.link_latency = cycles;
        self
    }

    /// Warmup cycles (excluded from measurement).
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Measurement cycles.
    pub fn measurement(mut self, cycles: u64) -> Self {
        self.measurement = cycles;
        self
    }

    /// Drain cycles after measurement (no injection; lets in-flight packets
    /// finish — useful for delivery checks).
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// RNG seed (runs are deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies a time-varying injection schedule
    /// ([`footprint_traffic::Modulation`]) to the configured traffic:
    /// on/off bursts, rate ramps or piecewise steps. Ignored for
    /// multi-tenant runs (each [`TenantSpec`] carries its own schedule).
    /// The gate's RNG seed derives from the builder seed, so sweeps
    /// stay bit-identical at any thread count. An invalid schedule fails
    /// the run with [`ConfigError::Workload`].
    pub fn modulation(mut self, spec: ModulationSpec) -> Self {
        self.modulation = spec;
        self
    }

    /// Replaces the single-workload configuration with explicit tenants
    /// sharing the mesh. Tenant `i` gets traffic class `i` (its key in
    /// [`RunReport::tenants`]) and runs at its own rate under its own
    /// modulation schedule; the builder-level [`Self::injection_rate`] and
    /// [`Self::modulation`] are ignored. Per-tenant SLO summaries appear
    /// in [`RunReport::tenants`]. Tenant rates must sum to at most 1.0
    /// flit/node/cycle (the per-node injection budget), or the run fails
    /// with [`ConfigError::Workload`]. An empty vector restores the
    /// single-workload behaviour.
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = tenants;
        self
    }

    /// The routing spec currently configured.
    pub fn routing_spec(&self) -> RoutingSpec {
        self.routing
    }

    /// The offered load currently configured.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            topology: self.topology,
            num_vcs: self.num_vcs,
            vc_buffer_depth: self.vc_buffer_depth,
            speedup: self.speedup,
            link_latency: self.link_latency,
        }
    }

    /// Builds the network and workload without running (for custom drive
    /// loops). No fault plan is attached; use
    /// [`SimulationBuilder::build_with`] for that.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (bad VC count, etc.).
    pub fn build(&self) -> Result<(Network, Box<dyn Workload>), ConfigError> {
        self.build_with(FaultPlan::new(), UnreachablePolicy::default())
    }

    /// Builds the configured workload: one [`Tenants`] list, of the lone
    /// traffic spec (which keeps its packets' classes) or of the
    /// configured tenants (tenant `i` stamps class `i`). Each source's
    /// rate, packet size and pattern are checked by [`TrafficSpec::build`].
    fn build_workload(&self) -> Result<Box<dyn Workload>, ConfigError> {
        if self.tenants.len() > usize::from(u8::MAX) + 1 {
            return Err(ConfigError::Workload(format!(
                "{} tenants exceed the 256 traffic classes",
                self.tenants.len()
            )));
        }
        let total: f64 = self.tenants.iter().map(|t| t.rate).sum();
        if total > 1.0 + 1e-9 {
            return Err(ConfigError::Workload(format!(
                "tenant rates sum to {total} flits/node/cycle (budget 1.0)"
            )));
        }
        let lone = [TenantSpec::new("", self.traffic, self.rate).modulation(self.modulation.clone())];
        let multi = !self.tenants.is_empty();
        let specs = if multi { &self.tenants[..] } else { &lone[..] };
        let mut tenants = Vec::with_capacity(specs.len());
        for (i, t) in specs.iter().enumerate() {
            // A lone spec keeps its packets' classes and its own salt.
            let (class, salt, label) = if multi {
                if !(0.0..=1.0).contains(&t.rate) {
                    return Err(ConfigError::Workload(format!(
                        "tenant `{}` rate {} out of [0, 1]",
                        t.name, t.rate
                    )));
                }
                (Some(i as u8), TENANT_SALT + i as u64, format!("tenant `{}`: ", t.name))
            } else {
                (None, MODULATION_SALT, String::new())
            };
            let source = t.traffic.build(self.topology, self.packet_size, t.rate)?;
            let gate = match &t.modulation {
                ModulationSpec::Steady => None,
                spec => {
                    let seed = crate::exec::derive_seed(self.seed, salt);
                    let gate = Modulation::new(spec.clone(), seed)
                        .map_err(|e| ConfigError::Workload(format!("{label}{e}")))?;
                    Some(gate)
                }
            };
            tenants.push(Tenant { class, source, gate });
        }
        Ok(Box::new(Tenants(tenants)))
    }

    /// Builds the network under a fault schedule and unreachable policy,
    /// plus the workload, without running.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, including a fault plan that does
    /// not fit the topology ([`ConfigError::Fault`]).
    pub fn build_with(
        &self,
        faults: FaultPlan,
        on_unreachable: UnreachablePolicy,
    ) -> Result<(Network, Box<dyn Workload>), ConfigError> {
        let net = Network::with_faults(
            self.sim_config(),
            self.routing.build(),
            self.seed,
            faults,
            on_unreachable,
        )?;
        let wl = self.build_workload()?;
        Ok((net, wl))
    }

    /// Everything both persisted artefacts — warm-start snapshots and
    /// sweep journals — must bind to, spelled out: fabric, router
    /// geometry, routing, traffic, packet mix, base seed and warmup
    /// length. [`Self::snapshot_key`] and [`Self::campaign_key`] each add
    /// the knobs only their artefact depends on.
    fn config_key(&self) -> String {
        format!(
            "topo={} vcs={} depth={} speedup={} link={} routing={} traffic={:?} packet={:?} \
             seed={:016x} warmup={}",
            self.topology,
            self.num_vcs,
            self.vc_buffer_depth,
            self.speedup,
            self.link_latency,
            self.routing.name(),
            self.traffic,
            self.packet_size,
            self.seed,
            self.warmup,
        )
    }

    /// The canonical warm-start cache key: every knob that shapes the
    /// post-warmup network state. The injection **rate** and **seed** are
    /// deliberately included — warmup is rate-coupled (the congestion
    /// pattern at the boundary depends on the offered load) and the RNG
    /// stream is seed-coupled, so omitting either would trade the
    /// bit-identity guarantee for hit rate. The rate is keyed by its exact
    /// bit pattern, not a decimal rendering. Modulation, tenants and
    /// faults are absent because such runs are never cached.
    pub(crate) fn snapshot_key(&self, scheduler: Scheduler) -> String {
        format!(
            "footprint-snap {} rate={:016x} sched={scheduler:?}",
            self.config_key(),
            self.rate.to_bits(),
        )
    }

    /// The key a sweep journal is bound to: every knob that shapes the
    /// numbers of a sweep of this configuration under `exec`, so a journal
    /// written by one campaign is refused by any other. The rate grid is
    /// bound by the journal header itself. Threads, scheduler, sentinel,
    /// watchdog, ensemble width and the snapshot cache are absent: results
    /// are bit-identical across them by contract.
    pub(crate) fn campaign_key(&self, exec: &ExecOptions, latency_class: Option<u8>) -> String {
        format!(
            "{} measurement={} drain={} modulation={:?} tenants={:?} faults={:?} \
             unreachable={:?} class={latency_class:?}",
            self.config_key(),
            self.measurement,
            self.drain,
            self.modulation,
            self.tenants,
            exec.faults,
            exec.on_unreachable,
        )
    }

    /// The builder for sweep point `index` at offered load `rate`: the
    /// same configuration with the point's derived seed. Exposed so
    /// batch runners (the bench harness) can flatten many curves into
    /// one job set while reproducing exactly what [`Self::sweep_with`]
    /// would compute per curve.
    #[must_use]
    pub fn sweep_point(&self, index: usize, rate: f64) -> Self {
        self.clone()
            .injection_rate(rate)
            .seed(crate::exec::derive_seed(self.seed, index as u64))
    }
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{RunError, RunOptions};

    /// The small, fast configuration the crate's unit tests start from.
    pub(crate) fn quick() -> SimulationBuilder {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .seed(3)
    }

    #[test]
    fn sweep_points_use_distinct_derived_seeds() {
        // No accidental seed reuse across the jobs of one sweep: every
        // rate index maps to its own seed, none of which is the base.
        let base = quick();
        let seeds: Vec<u64> = (0..8)
            .map(|i| crate::exec::derive_seed(3, i as u64))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s != 3));
        // And sweep_point() is the exact builder sweep_with() runs for a
        // given index: same config, derived seed, requested rate.
        let p = base.sweep_point(2, 0.25);
        assert_eq!(p.rate(), 0.25);
        assert_eq!(p.seed, crate::exec::derive_seed(3, 2));
    }

    #[test]
    fn invalid_config_is_reported() {
        let err = quick().vcs(0).run_with(RunOptions::new()).unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
        let err = quick().vcs(1).routing(RoutingSpec::Dbar).run_with(RunOptions::new()).unwrap_err();
        assert!(matches!(
            err,
            RunError::Config(ConfigError::TooFewVcsForRouting { .. })
        ));
    }

    #[test]
    fn pattern_mesh_mismatch_is_a_config_error() {
        // 6×6 mesh with a power-of-two-only pattern: rejected up front
        // with a typed error instead of a mid-simulation panic.
        let err = quick().topology(TopologySpec::mesh(6)).traffic(TrafficSpec::Shuffle).run_with(RunOptions::new()).unwrap_err();
        match err {
            RunError::Config(ConfigError::PatternMesh { pattern, topology, .. }) => {
                assert_eq!(pattern, "shuffle");
                assert_eq!(topology, TopologySpec::mesh(6));
            }
            ref other => panic!("expected PatternMesh, got {other}"),
        }
        assert!(err.to_string().contains("power-of-two"));
    }

    #[test]
    fn shape_mismatches_are_config_errors() {
        // Each pattern states its shape requirement once, checked when the
        // workload is built: none of these reaches the cycle loop.
        let (square, inside) = ("a square grid", "every flow endpoint inside the fabric");
        let cases = [
            ("ring:16", TrafficSpec::Transpose, "transpose", square),
            ("mesh:8x4", TrafficSpec::Transpose, "transpose", square),
            ("mesh:4x4", TrafficSpec::PAPER_HOTSPOT, "table3", inside),
            ("mesh:3x3", TrafficSpec::Figure2, "figure2-permutation", inside),
        ];
        for (fabric, traffic, name, need) in cases {
            let fabric: TopologySpec = fabric.parse().unwrap();
            let err = quick()
                .topology(fabric)
                .traffic(traffic)
                .run_with(RunOptions::new())
                .unwrap_err();
            let expected = ConfigError::PatternMesh {
                pattern: name,
                requirement: need,
                topology: fabric,
            };
            assert!(
                matches!(&err, RunError::Config(e) if *e == expected),
                "{fabric} + {traffic}: expected {expected}, got {err}"
            );
        }
        // Figure 2 needs only its six endpoints, so a 16-node ring runs it.
        let ring = quick()
            .topology(TopologySpec::ring(16))
            .traffic(TrafficSpec::Figure2);
        assert!(ring.run_with(RunOptions::new()).is_ok());
    }

    #[test]
    fn tenant_misconfigurations_are_typed_errors() {
        use footprint_traffic::DurationDist;
        // Over-budget aggregate rate.
        let err = quick()
            .tenants(vec![
                TenantSpec::new("a", TrafficSpec::UniformRandom, 0.7),
                TenantSpec::new("b", TrafficSpec::Transpose, 0.6),
            ])
            .run_with(RunOptions::new())
            .unwrap_err();
        match &err {
            RunError::Config(ConfigError::Workload(msg)) => {
                assert!(msg.contains("budget"), "{msg}");
            }
            other => panic!("expected Workload config error, got {other}"),
        }
        // Negative per-tenant rate.
        let err = quick()
            .tenants(vec![TenantSpec::new("a", TrafficSpec::UniformRandom, -0.1)])
            .run_with(RunOptions::new())
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::Workload(_))));
        // Invalid modulation schedule (zero-length on-phase).
        let err = quick()
            .modulation(ModulationSpec::OnOff {
                on: DurationDist::Fixed(0),
                off: DurationDist::Fixed(10),
            })
            .run_with(RunOptions::new())
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::Workload(_))));
        assert!(err.to_string().contains("invalid workload"));
    }
}

//! Named workload configurations.

use core::fmt;
use core::str::FromStr;
use footprint_sim::ConfigError;
use footprint_topology::TopologySpec;
use footprint_traffic::{
    App, HotspotWorkload, PacketSize, ParsecPairWorkload, Pattern, PatternError, Source,
    SyntheticWorkload, APPS, FIGURE2,
};

/// A named workload, buildable into a traffic [`Source`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// Uniform random (Figures 5–8).
    UniformRandom,
    /// Transpose (Figures 5–8).
    Transpose,
    /// Shuffle (Figures 5–8).
    Shuffle,
    /// Bit complement (extra).
    BitComplement,
    /// Bit reverse (extra).
    BitReverse,
    /// Tornado (extra).
    Tornado,
    /// The Table 3 hotspot + background workload (Figure 9). The builder's
    /// injection rate drives the *hotspot* flows; the background runs at
    /// the fixed rate given here (0.30 in the paper).
    Hotspot {
        /// Background (uniform-random) injection rate, flits/node/cycle.
        background_rate: f64,
    },
    /// Two PARSEC-like applications run simultaneously (Figure 10). The
    /// builder's injection rate is ignored; the per-application profiles
    /// set the load.
    ParsecPair(App, App),
    /// The four-flow permutation of the paper's Figure 2
    /// ([`FIGURE2`]: `{n0→n10, n1→n15, n4→n13, n12→n13}`) on any fabric
    /// of at least 16 nodes.
    Figure2,
}

impl TrafficSpec {
    /// The paper's Figure 9 hotspot configuration.
    pub const PAPER_HOTSPOT: TrafficSpec = TrafficSpec::Hotspot {
        background_rate: 0.30,
    };

    /// Every spec with a fixed name — all but the PARSEC pairs, which are
    /// named `APP+APP` — in the order `--help` texts list them.
    pub const NAMED: [TrafficSpec; 8] = [
        TrafficSpec::UniformRandom,
        TrafficSpec::Transpose,
        TrafficSpec::Shuffle,
        TrafficSpec::BitComplement,
        TrafficSpec::BitReverse,
        TrafficSpec::Tornado,
        TrafficSpec::PAPER_HOTSPOT,
        TrafficSpec::Figure2,
    ];

    /// The destination pattern a synthetic spec injects over — `None` for
    /// the hotspot mix and the PARSEC pairs, which are workloads of their
    /// own.
    pub fn pattern(self) -> Option<Pattern> {
        Some(match self {
            TrafficSpec::UniformRandom => Pattern::Uniform,
            TrafficSpec::Transpose => Pattern::Transpose,
            TrafficSpec::Shuffle => Pattern::Shuffle,
            TrafficSpec::BitComplement => Pattern::BitComplement,
            TrafficSpec::BitReverse => Pattern::BitReverse,
            TrafficSpec::Tornado => Pattern::Tornado,
            TrafficSpec::Figure2 => Pattern::Flows(FIGURE2),
            TrafficSpec::Hotspot { .. } | TrafficSpec::ParsecPair(..) => return None,
        })
    }

    /// Builds the source for `topo` at the given offered load
    /// (flits/node/cycle) and packet-size mix.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Workload`] when a synthetic or hotspot source is
    /// given a rate outside `[0, 1]` (NaN included) or a packet size with
    /// no flits (`Fixed(0)`, `Uniform { lo: 0, .. }`, `lo > hi`); a PARSEC
    /// pair sets its own load and sizes and ignores both.
    /// [`ConfigError::PatternMesh`] when the underlying pattern is not
    /// defined on `topo` ([`Pattern::check`]), and
    /// [`ConfigError::Topology`] when `topo` itself is not buildable.
    pub fn build(
        self,
        topo: TopologySpec,
        size: PacketSize,
        rate: f64,
    ) -> Result<Source, ConfigError> {
        let fabric = topo.validate()?;
        let background = match self {
            TrafficSpec::ParsecPair(a, b) => {
                return Ok(Source::ParsecPair(ParsecPairWorkload::new(fabric, a, b)))
            }
            TrafficSpec::Hotspot { background_rate } => background_rate,
            _ => 0.0,
        };
        for (what, r) in [("rate", rate), ("background rate", background)] {
            if !(0.0..=1.0).contains(&r) {
                return Err(ConfigError::Workload(format!("{what} {r} out of [0, 1]")));
            }
        }
        let (lo, hi) = match size {
            PacketSize::Fixed(n) => (n, n),
            PacketSize::Uniform { lo, hi } => (lo, hi),
        };
        if lo == 0 || lo > hi {
            return Err(ConfigError::Workload(format!(
                "packet size {size:?} is not a range of 1 or more flits"
            )));
        }
        let lower = |e: PatternError| ConfigError::PatternMesh {
            pattern: e.pattern,
            requirement: e.requirement,
            topology: topo,
        };
        Ok(match self.pattern() {
            Some(p) => Source::Synthetic(SyntheticWorkload::new(fabric, p, size, rate).map_err(lower)?),
            None => Source::Hotspot(HotspotWorkload::new(fabric, rate, background, size).map_err(lower)?),
        })
    }

    /// Display name: the pattern's name, `hotspot`, or `APP+APP`.
    pub fn name(self) -> String {
        match (self, self.pattern()) {
            (TrafficSpec::ParsecPair(a, b), _) => format!("{}+{}", a.name(), b.name()),
            (_, Some(pattern)) => pattern.name().into(),
            (_, None) => "hotspot".into(),
        }
    }

    /// `true` when the built workload keeps no state of its own — every
    /// packet decision is drawn from the shared simulation RNG, which the
    /// warm-start snapshot captures exactly. [`TrafficSpec::ParsecPair`]
    /// is the exception: its burst schedule lives inside the workload
    /// object, outside the snapshot, so a restored run could not replay
    /// it faithfully.
    pub(crate) fn stateless_workload(self) -> bool {
        !matches!(self, TrafficSpec::ParsecPair(..))
    }

    /// The three synthetic patterns of Figures 5–8.
    pub const PAPER_PATTERNS: [TrafficSpec; 3] = [
        TrafficSpec::UniformRandom,
        TrafficSpec::Transpose,
        TrafficSpec::Shuffle,
    ];
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error returned when parsing an unknown traffic name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTrafficSpecError(String);

impl fmt::Display for ParseTrafficSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown traffic pattern `{}`", self.0)
    }
}

impl std::error::Error for ParseTrafficSpecError {}

/// Parses [`TrafficSpec::name`]'s output back: `hotspot` is
/// [`TrafficSpec::PAPER_HOTSPOT`], and `APP+APP` a PARSEC pair.
impl FromStr for TrafficSpec {
    type Err = ParseTrafficSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let pairs = APPS
            .into_iter()
            .flat_map(|a| APPS.map(|b| TrafficSpec::ParsecPair(a, b)));
        TrafficSpec::NAMED
            .into_iter()
            .chain(pairs)
            .find(|spec| spec.name() == s)
            .ok_or_else(|| ParseTrafficSpecError(s.to_owned()))
    }
}

/// One tenant of a multi-tenant run: a named [`TrafficSpec`] with its own
/// offered load and optional modulation schedule
/// ([`footprint_traffic::ModulationSpec`]).
///
/// Passed to `SimulationBuilder::tenants`; the tenant's traffic class is
/// its index in that list, which is also the key for the per-tenant
/// summaries in `RunReport::tenants`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name, carried into the per-tenant summary.
    pub name: String,
    /// The tenant's workload.
    pub traffic: TrafficSpec,
    /// The tenant's offered load in flits/node/cycle (the builder-level
    /// injection rate is ignored when tenants are configured).
    pub rate: f64,
    /// Time-varying injection schedule (default
    /// [`footprint_traffic::ModulationSpec::Steady`]).
    pub modulation: footprint_traffic::ModulationSpec,
}

impl TenantSpec {
    /// Creates a steady tenant.
    pub fn new(name: impl Into<String>, traffic: TrafficSpec, rate: f64) -> Self {
        TenantSpec {
            name: name.into(),
            traffic,
            rate,
            modulation: footprint_traffic::ModulationSpec::Steady,
        }
    }

    /// Applies a modulation schedule to this tenant.
    #[must_use]
    pub fn modulation(mut self, spec: footprint_traffic::ModulationSpec) -> Self {
        self.modulation = spec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_sim::Workload;
    use footprint_topology::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_specs_build_and_generate() {
        let mesh = TopologySpec::mesh(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let pair = TrafficSpec::ParsecPair(App::Fluidanimate, App::X264);
        for spec in TrafficSpec::NAMED.into_iter().chain([pair]) {
            let mut wl = spec.build(mesh, PacketSize::SINGLE, 0.8).unwrap();
            let mut generated = false;
            for cycle in 0..2000 {
                for n in (0..64).map(NodeId) {
                    if wl.generate(n, cycle, &mut rng).is_some() {
                        generated = true;
                    }
                }
                if generated {
                    break;
                }
            }
            assert!(generated, "{} produced no packets", spec.name());
        }
    }

    #[test]
    fn figure2_runs_on_4x4() {
        let mesh = TopologySpec::mesh(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut wl = TrafficSpec::Figure2.build(mesh, PacketSize::SINGLE, 1.0).unwrap();
        let p = wl.generate(NodeId(0), 0, &mut rng).unwrap();
        assert_eq!(p.dest, NodeId(10));
    }

    #[test]
    fn bit_patterns_rejected_on_non_power_of_two_mesh() {
        let odd = TopologySpec::mesh(6);
        for spec in [TrafficSpec::Shuffle, TrafficSpec::BitComplement, TrafficSpec::BitReverse] {
            let err = spec.build(odd, PacketSize::SINGLE, 0.5).expect_err("6x6 must be rejected");
            assert!(matches!(
                err,
                ConfigError::PatternMesh { requirement: "a power-of-two node count", topology, .. }
                    if topology == odd
            ));
        }
        assert!(TrafficSpec::UniformRandom.build(odd, PacketSize::SINGLE, 0.5).is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TrafficSpec::UniformRandom.name(), "uniform");
        assert_eq!(TrafficSpec::ParsecPair(App::Vips, App::Dedup).name(), "vips+dedup");
        assert_eq!(TrafficSpec::PAPER_HOTSPOT.to_string(), "hotspot");
        assert_eq!(TrafficSpec::PAPER_PATTERNS.len(), 3);
    }

    #[test]
    fn names_round_trip_through_from_str() {
        let pair = TrafficSpec::ParsecPair(App::Fluidanimate, App::Bodytrack);
        for spec in TrafficSpec::NAMED.into_iter().chain([pair]) {
            assert_eq!(spec.name().parse::<TrafficSpec>(), Ok(spec));
        }
        assert_eq!(TrafficSpec::Figure2.name(), "figure2-permutation");
        let err = "neighbor".parse::<TrafficSpec>().unwrap_err();
        assert_eq!(err.to_string(), "unknown traffic pattern `neighbor`");
    }
}

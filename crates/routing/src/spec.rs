//! Named routing configurations — the seven algorithms of the paper's
//! Table 2 plus reference extras.

use crate::{Dbar, Dor, Footprint, NorthLast, OddEven, RandomMinimal, RoutingAlgorithm, VcOverlay, VcRule, WestFirst, WrapStrategy};
use core::fmt;
use core::str::FromStr;
use footprint_topology::AnyTopology;

/// A named routing configuration that can be turned into a boxed
/// [`RoutingAlgorithm`].
///
/// These are exactly the algorithms evaluated in the paper (Table 2):
/// Footprint, DBAR, Odd-Even, DOR, and the three XORDET combinations — plus
/// `RandomMinimal` as an extra reference point.
///
/// ```
/// use footprint_routing::RoutingSpec;
/// let algo = RoutingSpec::Footprint.build();
/// assert_eq!(algo.name(), "footprint");
/// assert_eq!("dbar+xordet".parse::<RoutingSpec>().unwrap(), RoutingSpec::DbarXordet);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingSpec {
    /// The paper's contribution (Algorithm 1).
    Footprint,
    /// Fully adaptive baseline.
    Dbar,
    /// Partially adaptive baseline.
    OddEven,
    /// Deterministic baseline.
    Dor,
    /// DBAR port selection + XORDET VC mapping.
    DbarXordet,
    /// Odd-Even port selection + XORDET VC mapping.
    OddEvenXordet,
    /// DOR + XORDET VC mapping.
    DorXordet,
    /// Minimal fully-adaptive random routing (reference, not in the paper).
    RandomMinimal,
    /// West-first turn model (reference, not in the paper).
    WestFirst,
    /// North-last turn model (reference, not in the paper).
    NorthLast,
    /// DOR + VOQ_sw VC mapping (the paper's footnote-5 comparison point).
    DorVoqSw,
    /// DBAR + VOQ_sw VC mapping.
    DbarVoqSw,
    /// Odd-Even port selection + Footprint VC selection (the §5 claim that
    /// Footprint composes with any routing algorithm).
    OddEvenFootprint,
}

impl RoutingSpec {
    /// The seven algorithms of the paper's Table 2, in the order the figures
    /// list them.
    pub const PAPER_SET: [RoutingSpec; 7] = [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
        RoutingSpec::DbarXordet,
        RoutingSpec::OddEvenXordet,
        RoutingSpec::DorXordet,
    ];

    /// Instantiates the algorithm: one of seven port selectors, bare or
    /// under a [`VcOverlay`] rule that takes its name from [`Self::name`].
    pub fn build(self) -> Box<dyn RoutingAlgorithm> {
        let name = self.name();
        match self {
            RoutingSpec::Footprint => Box::new(Footprint::new()),
            RoutingSpec::Dbar => Box::new(Dbar),
            RoutingSpec::OddEven => Box::new(OddEven),
            RoutingSpec::Dor => Box::new(Dor),
            RoutingSpec::DbarXordet => Box::new(VcOverlay::new(Dbar, VcRule::Xordet, name)),
            RoutingSpec::OddEvenXordet => Box::new(VcOverlay::new(OddEven, VcRule::Xordet, name)),
            RoutingSpec::DorXordet => Box::new(VcOverlay::new(Dor, VcRule::Xordet, name)),
            RoutingSpec::RandomMinimal => Box::new(RandomMinimal),
            RoutingSpec::WestFirst => Box::new(WestFirst),
            RoutingSpec::NorthLast => Box::new(NorthLast),
            RoutingSpec::DorVoqSw => Box::new(VcOverlay::new(Dor, VcRule::VoqSw, name)),
            RoutingSpec::DbarVoqSw => Box::new(VcOverlay::new(Dbar, VcRule::VoqSw, name)),
            RoutingSpec::OddEvenFootprint => {
                Box::new(VcOverlay::new(OddEven, VcRule::Footprint, name))
            }
        }
    }

    /// The display name (matches `RoutingAlgorithm::name` of the built
    /// object).
    pub fn name(self) -> &'static str {
        match self {
            RoutingSpec::Footprint => "footprint",
            RoutingSpec::Dbar => "dbar",
            RoutingSpec::OddEven => "odd-even",
            RoutingSpec::Dor => "dor",
            RoutingSpec::DbarXordet => "dbar+xordet",
            RoutingSpec::OddEvenXordet => "odd-even+xordet",
            RoutingSpec::DorXordet => "dor+xordet",
            RoutingSpec::RandomMinimal => "random-minimal",
            RoutingSpec::WestFirst => "west-first",
            RoutingSpec::NorthLast => "north-last",
            RoutingSpec::DorVoqSw => "dor+voqsw",
            RoutingSpec::DbarVoqSw => "dbar+voqsw",
            RoutingSpec::OddEvenFootprint => "odd-even+footprint",
        }
    }

    /// Minimum number of VCs required: 2 for Duato-based algorithms (one
    /// escape + one adaptive, §4.2.3), 1 otherwise.
    ///
    /// This is the mesh figure; wrapping topologies reserve more — use
    /// [`RoutingSpec::min_vcs_on`] when the topology is known.
    pub fn min_vcs(self) -> usize {
        match self {
            RoutingSpec::Footprint
            | RoutingSpec::Dbar
            | RoutingSpec::DbarXordet
            | RoutingSpec::RandomMinimal
            | RoutingSpec::DbarVoqSw => 2,
            _ => 1,
        }
    }

    /// Minimum number of VCs required on `topo`: on wrapping topologies
    /// Duato-based algorithms reserve one escape VC per dateline class
    /// (plus one adaptive VC) and dateline-classed DOR needs both
    /// half-classes populated.
    pub fn min_vcs_on(self, topo: AnyTopology) -> usize {
        self.build().min_vcs_on(topo)
    }

    /// The wrap strategy of the built algorithm — how (or whether) it stays
    /// deadlock-free on wrapping topologies.
    pub fn wrap_strategy(self) -> WrapStrategy {
        self.build().wrap_strategy()
    }

    /// `true` if the algorithm can run on `topo`: always on acyclic
    /// topologies, and on wrapping ones iff it declares a wrap strategy
    /// other than [`WrapStrategy::Unsupported`].
    pub fn supported_on(self, topo: AnyTopology) -> bool {
        !topo.wraps() || self.wrap_strategy() != WrapStrategy::Unsupported
    }
}

impl fmt::Display for RoutingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown routing-algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRoutingSpecError(String);

impl fmt::Display for ParseRoutingSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown routing algorithm `{}`", self.0)
    }
}

impl std::error::Error for ParseRoutingSpecError {}

impl FromStr for RoutingSpec {
    type Err = ParseRoutingSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase();
        let spec = match norm.as_str() {
            "footprint" => RoutingSpec::Footprint,
            "dbar" => RoutingSpec::Dbar,
            "odd-even" | "oddeven" | "oe" => RoutingSpec::OddEven,
            "dor" | "xy" => RoutingSpec::Dor,
            "dbar+xordet" => RoutingSpec::DbarXordet,
            "odd-even+xordet" | "oe+xordet" => RoutingSpec::OddEvenXordet,
            "dor+xordet" => RoutingSpec::DorXordet,
            "random-minimal" | "random" => RoutingSpec::RandomMinimal,
            "west-first" | "wf" => RoutingSpec::WestFirst,
            "north-last" | "nl" => RoutingSpec::NorthLast,
            "dor+voqsw" => RoutingSpec::DorVoqSw,
            "dbar+voqsw" => RoutingSpec::DbarVoqSw,
            "odd-even+footprint" | "oe+footprint" => RoutingSpec::OddEvenFootprint,
            _ => return Err(ParseRoutingSpecError(s.to_owned())),
        };
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_names_match_spec_names() {
        for spec in RoutingSpec::PAPER_SET {
            assert_eq!(spec.build().name(), spec.name());
        }
        assert_eq!(
            RoutingSpec::RandomMinimal.build().name(),
            RoutingSpec::RandomMinimal.name()
        );
    }

    #[test]
    fn parse_roundtrip() {
        for spec in RoutingSpec::PAPER_SET {
            assert_eq!(spec.name().parse::<RoutingSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!("XY".parse::<RoutingSpec>().unwrap(), RoutingSpec::Dor);
        assert_eq!("oe".parse::<RoutingSpec>().unwrap(), RoutingSpec::OddEven);
    }

    #[test]
    fn parse_unknown_fails() {
        let err = "warp-speed".parse::<RoutingSpec>().unwrap_err();
        assert!(err.to_string().contains("warp-speed"));
    }

    #[test]
    fn duato_based_need_two_vcs() {
        assert_eq!(RoutingSpec::Footprint.min_vcs(), 2);
        assert_eq!(RoutingSpec::Dbar.min_vcs(), 2);
        assert_eq!(RoutingSpec::Dor.min_vcs(), 1);
        assert_eq!(RoutingSpec::OddEven.min_vcs(), 1);
    }

    #[test]
    fn paper_set_has_seven_entries() {
        assert_eq!(RoutingSpec::PAPER_SET.len(), 7);
    }

    #[test]
    fn torus_support_and_vc_floors() {
        let torus = AnyTopology::torus(4, 4);
        // Static VC mappings have no wrap argument.
        assert!(!RoutingSpec::DorXordet.supported_on(torus));
        assert!(!RoutingSpec::DbarVoqSw.supported_on(torus));
        assert!(RoutingSpec::DorXordet.supported_on(AnyTopology::mesh(4, 4)));
        // Duato algorithms: two escape classes + one adaptive VC.
        assert_eq!(RoutingSpec::Footprint.min_vcs_on(torus), 3);
        assert_eq!(RoutingSpec::Footprint.min_vcs_on(AnyTopology::mesh(4, 4)), 2);
        // Dateline-classed DOR needs both half-classes.
        assert_eq!(RoutingSpec::Dor.min_vcs_on(torus), 2);
        assert_eq!(RoutingSpec::Dor.min_vcs_on(AnyTopology::mesh(4, 4)), 1);
        // Turn models route on the acyclic subgraph: no extra VCs.
        assert_eq!(RoutingSpec::OddEven.min_vcs_on(torus), 1);
        assert!(RoutingSpec::OddEven.supported_on(torus));
    }
}

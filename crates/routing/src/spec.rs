//! Named routing configurations — the seven algorithms of the paper's
//! Table 2 plus reference extras.

use crate::any::Selector;
use crate::overlay::VcRule;
use crate::{AnyRouting, RoutingAlgorithm, Tiers};
use core::fmt;
use core::str::FromStr;

/// A named routing configuration: one [`AnyRouting`] value, also
/// available as a boxed [`RoutingAlgorithm`].
///
/// The algorithms evaluated in the paper (Table 2) — Footprint, DBAR,
/// Odd-Even, DOR and the three XORDET combinations — plus reference
/// extras: random-minimal, the two turn models, VOQ_sw over DOR and DBAR,
/// and Odd-Even with Footprint's VC rule (§5).
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

    /// The routing value: the one table from name to port selector and
    /// VC rule (`None` = oblivious), with the paper's Footprint tiering.
    pub fn routing(self) -> AnyRouting {
        use Selector as S;
        let (name, selector, rule) = match self {
            RoutingSpec::Footprint => ("footprint", S::Footprint, Some(VcRule::Footprint)),
            RoutingSpec::Dbar => ("dbar", S::Dbar, None),
            RoutingSpec::OddEven => ("odd-even", S::OddEven, None),
            RoutingSpec::Dor => ("dor", S::Dor, None),
            RoutingSpec::DbarXordet => ("dbar+xordet", S::Dbar, Some(VcRule::Xordet)),
            RoutingSpec::OddEvenXordet => ("odd-even+xordet", S::OddEven, Some(VcRule::Xordet)),
            RoutingSpec::DorXordet => ("dor+xordet", S::Dor, Some(VcRule::Xordet)),
            RoutingSpec::RandomMinimal => ("random-minimal", S::RandomMinimal, None),
            RoutingSpec::WestFirst => ("west-first", S::WestFirst, None),
            RoutingSpec::NorthLast => ("north-last", S::NorthLast, None),
            RoutingSpec::DorVoqSw => ("dor+voqsw", S::Dor, Some(VcRule::VoqSw)),
            RoutingSpec::DbarVoqSw => ("dbar+voqsw", S::Dbar, Some(VcRule::VoqSw)),
            RoutingSpec::OddEvenFootprint => {
                ("odd-even+footprint", S::OddEven, Some(VcRule::Footprint))
            }
        };
        AnyRouting {
            name,
            selector,
            rule,
            tiers: Tiers::new(),
        }
    }

    /// The routing value, boxed for `Network::new`.
    pub fn build(self) -> Box<dyn RoutingAlgorithm> {
        Box::new(self.routing())
    }

    /// The display name, as in reports and tables.
    pub fn name(self) -> &'static str {
        self.routing().name
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
    use crate::WrapStrategy;
    use footprint_topology::AnyTopology;

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
        let mesh = AnyTopology::mesh(4, 4);
        let min_vcs = |spec: RoutingSpec| spec.routing().min_vcs_on(mesh);
        assert_eq!(min_vcs(RoutingSpec::Footprint), 2);
        assert_eq!(min_vcs(RoutingSpec::Dbar), 2);
        assert_eq!(min_vcs(RoutingSpec::DbarXordet), 2);
        assert_eq!(min_vcs(RoutingSpec::Dor), 1);
        assert_eq!(min_vcs(RoutingSpec::OddEven), 1);
    }

    #[test]
    fn paper_set_has_seven_entries() {
        assert_eq!(RoutingSpec::PAPER_SET.len(), 7);
    }

    #[test]
    fn torus_support_and_vc_floors() {
        let torus = AnyTopology::torus(4, 4);
        let mesh = AnyTopology::mesh(4, 4);
        let wrap = |spec: RoutingSpec| spec.routing().wrap_strategy();
        // Static VC mappings have no wrap argument.
        assert_eq!(wrap(RoutingSpec::DorXordet), WrapStrategy::Unsupported);
        assert_eq!(wrap(RoutingSpec::DbarVoqSw), WrapStrategy::Unsupported);
        assert_eq!(wrap(RoutingSpec::Footprint), WrapStrategy::EscapeVcs);
        assert_eq!(wrap(RoutingSpec::OddEvenFootprint), WrapStrategy::AcyclicSubgraph);
        // Duato algorithms: two escape classes + one adaptive VC.
        assert_eq!(RoutingSpec::Footprint.routing().min_vcs_on(torus), 3);
        assert_eq!(RoutingSpec::Footprint.routing().min_vcs_on(mesh), 2);
        // Dateline-classed DOR needs both half-classes.
        assert_eq!(wrap(RoutingSpec::Dor), WrapStrategy::DatelineVcClasses);
        assert_eq!(RoutingSpec::Dor.routing().min_vcs_on(torus), 2);
        assert_eq!(RoutingSpec::Dor.routing().min_vcs_on(mesh), 1);
        // Turn models route on the acyclic subgraph: no extra VCs.
        assert_eq!(RoutingSpec::OddEven.routing().min_vcs_on(torus), 1);
        assert_eq!(wrap(RoutingSpec::OddEven), WrapStrategy::AcyclicSubgraph);
    }
}

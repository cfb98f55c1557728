//! Simulator configuration (the paper's Table 2).

use core::fmt;
use footprint_topology::{AnyTopology, FaultPlanError, TopologyError, TopologySpec};

/// Microarchitectural configuration of the simulated network.
///
/// Defaults follow the paper's Table 2: 8×8 mesh, 10 VCs per physical
/// channel, 4-flit VC buffers, credit-based wormhole flow control, internal
/// speedup 2.0. The topology is carried as a validated [`TopologySpec`];
/// meshes, tori and rings all run the same datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Topology shape and dimensions (validated by [`SimConfig::validate`]).
    pub topology: TopologySpec,
    /// VCs per physical channel.
    pub num_vcs: usize,
    /// VC buffer depth in flits.
    pub vc_buffer_depth: usize,
    /// Internal speedup: maximum switch grants per input/output port per
    /// cycle. Links still carry one flit per cycle.
    pub speedup: usize,
    /// One-way link latency in cycles (1 in the paper's configuration;
    /// higher values model longer wires or repeated links and stress the
    /// credit loop).
    pub link_latency: usize,
}

impl SimConfig {
    /// The paper's baseline configuration (Table 2 defaults).
    pub fn paper_default() -> Self {
        SimConfig {
            topology: TopologySpec::mesh(8),
            num_vcs: 10,
            vc_buffer_depth: 4,
            speedup: 2,
            link_latency: 1,
        }
    }

    /// A small configuration for unit tests (4×4 mesh, 4 VCs).
    pub fn small() -> Self {
        SimConfig {
            topology: TopologySpec::mesh(4),
            num_vcs: 4,
            vc_buffer_depth: 4,
            speedup: 2,
            link_latency: 1,
        }
    }

    /// The live topology this configuration describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid — call [`SimConfig::validate`] first
    /// on untrusted configurations (the network constructor always does).
    pub fn topo(&self) -> AnyTopology {
        self.topology
            .validate()
            .expect("SimConfig topology must validate before use")
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is out of range
    /// (the topology must validate, `num_vcs` must be 1–64, buffers and
    /// speedup nonzero).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.topology.validate()?;
        if self.num_vcs == 0 || self.num_vcs > 64 {
            return Err(ConfigError::NumVcs(self.num_vcs));
        }
        if self.vc_buffer_depth == 0 {
            return Err(ConfigError::BufferDepth);
        }
        if self.speedup == 0 {
            return Err(ConfigError::Speedup);
        }
        if self.link_latency == 0 {
            return Err(ConfigError::LinkLatency);
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The topology spec does not describe a buildable fabric (degenerate
    /// dimensions, too many nodes, gated shape — see [`TopologyError`]).
    Topology(TopologyError),
    /// VC count out of the supported 1–64 range.
    NumVcs(usize),
    /// Zero VC buffer depth.
    BufferDepth,
    /// Zero internal speedup.
    Speedup,
    /// Zero link latency (combinational links are not modeled).
    LinkLatency,
    /// The routing algorithm needs more VCs than configured (Duato-based
    /// algorithms need `escape_vcs + 1`; dateline DOR on a wrapping fabric
    /// needs 2).
    TooFewVcsForRouting {
        /// Algorithm name.
        algorithm: &'static str,
        /// VCs required.
        required: usize,
        /// VCs configured.
        configured: usize,
    },
    /// The routing algorithm has no deadlock-free embedding on the
    /// configured topology (its wrap strategy is `Unsupported` and the
    /// fabric has wraparound channels).
    UnsupportedRouting {
        /// Algorithm name.
        algorithm: &'static str,
        /// The offending topology.
        topology: TopologySpec,
    },
    /// The fault plan does not fit the configured topology (see
    /// [`FaultPlanError`]).
    Fault(FaultPlanError),
    /// A traffic pattern's destination function is not defined on the
    /// configured topology (the bit patterns need a power-of-two node
    /// count, transpose a square grid, flows every endpoint inside the
    /// fabric). Carried as plain data because the traffic layer sits above
    /// this crate.
    PatternMesh {
        /// Pattern display name.
        pattern: &'static str,
        /// What the pattern needs of the fabric, e.g. "a square grid".
        requirement: &'static str,
        /// The offending topology.
        topology: TopologySpec,
    },
    /// An invalid workload composition (bad modulation schedule, tenant
    /// rates over the injection budget, …). Carried as a rendered message
    /// because the workload layer sits above this crate and its parameters
    /// are floats, which would break this enum's `Eq`.
    Workload(String),
}

impl From<FaultPlanError> for ConfigError {
    fn from(e: FaultPlanError) -> Self {
        ConfigError::Fault(e)
    }
}

impl From<TopologyError> for ConfigError {
    fn from(e: TopologyError) -> Self {
        ConfigError::Topology(e)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Topology(e) => write!(f, "invalid topology: {e}"),
            ConfigError::NumVcs(n) => write!(f, "unsupported VC count {n} (expected 1..=64)"),
            ConfigError::BufferDepth => f.write_str("VC buffer depth must be nonzero"),
            ConfigError::Speedup => f.write_str("internal speedup must be nonzero"),
            ConfigError::LinkLatency => f.write_str("link latency must be at least one cycle"),
            ConfigError::TooFewVcsForRouting {
                algorithm,
                required,
                configured,
            } => write!(
                f,
                "routing algorithm `{algorithm}` needs at least {required} VCs, got {configured}"
            ),
            ConfigError::UnsupportedRouting {
                algorithm,
                topology,
            } => write!(
                f,
                "routing algorithm `{algorithm}` has no deadlock-free embedding on `{topology}`"
            ),
            ConfigError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::PatternMesh {
                pattern,
                requirement,
                topology,
            } => write!(
                f,
                "pattern `{pattern}` needs {requirement}, not `{topology}`"
            ),
            ConfigError::Workload(msg) => write!(f, "invalid workload: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::AnyTopology;

    #[test]
    fn paper_default_matches_table_2() {
        let c = SimConfig::paper_default();
        assert_eq!(c.topology, TopologySpec::mesh(8));
        assert_eq!(c.topo(), AnyTopology::mesh(8, 8));
        assert_eq!(c.num_vcs, 10);
        assert_eq!(c.vc_buffer_depth, 4);
        assert_eq!(c.speedup, 2);
        assert!(c.validate().is_ok());
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut c = SimConfig::small();
        c.num_vcs = 0;
        assert_eq!(c.validate(), Err(ConfigError::NumVcs(0)));
        let mut c = SimConfig::small();
        c.num_vcs = 65;
        assert!(c.validate().is_err());
        let mut c = SimConfig::small();
        c.vc_buffer_depth = 0;
        assert_eq!(c.validate(), Err(ConfigError::BufferDepth));
        let mut c = SimConfig::small();
        c.speedup = 0;
        assert_eq!(c.validate(), Err(ConfigError::Speedup));
        let mut c = SimConfig::small();
        c.link_latency = 0;
        assert_eq!(c.validate(), Err(ConfigError::LinkLatency));
    }

    #[test]
    fn validation_rejects_degenerate_topologies() {
        for (w, h) in [(1u16, 4u16), (4, 1), (1, 1)] {
            let mut c = SimConfig::small();
            c.topology = TopologySpec::Mesh {
                width: w,
                height: h,
            };
            assert_eq!(
                c.validate(),
                Err(ConfigError::Topology(TopologyError::MeshTooSmall {
                    width: w,
                    height: h
                }))
            );
        }
        let mut c = SimConfig::small();
        c.topology = TopologySpec::Mesh {
            width: 2,
            height: 2,
        };
        assert!(c.validate().is_ok());
        let mut c = SimConfig::small();
        c.topology = TopologySpec::Torus {
            width: 2,
            height: 4,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Topology(TopologyError::TorusTooSmall { .. }))
        ));
    }

    #[test]
    fn wrapping_topologies_validate_and_resolve() {
        let mut c = SimConfig::small();
        c.topology = TopologySpec::torus(4);
        assert!(c.validate().is_ok());
        assert!(c.topo().wraps());
        c.topology = TopologySpec::ring(8);
        assert!(c.validate().is_ok());
        assert_eq!(c.topo().len(), 8);
    }

    #[test]
    fn fault_plan_errors_convert_and_display() {
        let e: ConfigError = FaultPlanError::DegradePeriodTooShort { period: 1 }.into();
        assert!(matches!(e, ConfigError::Fault(_)));
        assert!(e.to_string().contains("fault plan"));
    }

    #[test]
    fn workload_errors_render_their_message() {
        let e = ConfigError::Workload("tenant rates sum to 1.4".into());
        assert_eq!(e.to_string(), "invalid workload: tenant rates sum to 1.4");
    }

    #[test]
    fn errors_display_meaningfully() {
        assert!(ConfigError::NumVcs(0).to_string().contains("VC count"));
        let e = ConfigError::TooFewVcsForRouting {
            algorithm: "footprint",
            required: 2,
            configured: 1,
        };
        assert!(e.to_string().contains("footprint"));
        let e = ConfigError::UnsupportedRouting {
            algorithm: "dor-xordet",
            topology: TopologySpec::torus(8),
        };
        assert!(e.to_string().contains("dor-xordet"));
        assert!(e.to_string().contains("torus"));
        let e = ConfigError::PatternMesh {
            pattern: "transpose",
            requirement: "a square grid",
            topology: TopologySpec::ring(16),
        };
        assert_eq!(
            e.to_string(),
            "pattern `transpose` needs a square grid, not `ring:16`"
        );
    }
}

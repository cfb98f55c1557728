//! [`RunError`]: every way a run or a sweep can fail.

use core::fmt;

use footprint_sim::{ConfigError, SentinelReport, StallDiagnostic};
use footprint_stats::FaultStats;
use footprint_topology::NodeId;

#[cfg(doc)]
use crate::{RunOptions, SimulationBuilder, SweepOptions, UnreachablePolicy};

/// Why a run ([`SimulationBuilder::run_with`]) or a sweep
/// ([`SimulationBuilder::sweep_with`]) failed.
#[derive(Debug)]
pub enum RunError {
    /// The configuration was rejected before the network was built.
    Config(ConfigError),
    /// The stall watchdog tripped: no flit moved for the configured
    /// number of cycles while packets were in flight. The boxed
    /// diagnostic bundle describes the frozen network.
    Stalled(Box<StallDiagnostic>),
    /// The run was configured with [`UnreachablePolicy::Error`] and the
    /// fault plan made at least one generated packet's destination
    /// unreachable. The boxed [`FaultStats`] carries the offending
    /// source→destination pairs and the full disposition accounting.
    Unreachable(Box<FaultStats>),
    /// The runtime invariant sentinel detected a conservation, VC-state
    /// or deadlock violation. The boxed report names the first-failure
    /// cycle, the violated invariant and a state excerpt — the typed
    /// alternative to a panic deep in the cycle loop or, worse, silently
    /// wrong numbers.
    InvariantViolated(Box<SentinelReport>),
    /// A sweep job panicked. The panic was quarantined to its own result
    /// slot so sibling points completed (and were journaled) normally;
    /// the string carries the offending point and the captured panic
    /// payload.
    JobPanicked(String),
    /// The sweep checkpoint journal could not be opened, validated or
    /// appended ([`SweepOptions::checkpoint`]).
    Checkpoint(String),
    /// The fault plan masks wraparound (dateline) channels on a wrapping
    /// fabric and severs deterministic escape routes, so the routing
    /// algorithm's Duato/dateline deadlock-freedom argument no longer
    /// covers every pair. Checked up front
    /// ([`footprint_routing::cdg::check_escape_under_mask`]) — the run is
    /// refused before it can livelock. Opt into the degraded fallback with
    /// [`RunOptions::degraded_escape`] to run anyway under watchdog or
    /// sentinel cover.
    EscapeCompromised {
        /// Source→destination pairs whose deterministic escape route the
        /// mask severs (sorted).
        severed: Vec<(NodeId, NodeId)>,
        /// How many masked directed channels are wraparound channels.
        masked_wrap_channels: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Stalled(d) => d.fmt(f),
            RunError::Unreachable(s) => write!(
                f,
                "{} source→destination pair(s) unreachable under the fault plan \
                 ({} packet(s) dropped)",
                s.unreachable_pairs.len(),
                s.dropped()
            ),
            RunError::InvariantViolated(r) => r.fmt(f),
            RunError::JobPanicked(msg) => write!(f, "sweep job panicked: {msg}"),
            RunError::Checkpoint(msg) => write!(f, "sweep checkpoint error: {msg}"),
            RunError::EscapeCompromised {
                severed,
                masked_wrap_channels,
            } => write!(
                f,
                "fault plan compromises the escape network on a wrapping \
                 fabric: {} deterministic escape route(s) severed, {} \
                 wraparound channel(s) masked (run with degraded_escape to \
                 proceed under watchdog/sentinel cover)",
                severed.len(),
                masked_wrap_channels
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Stalled(d) => Some(d.as_ref()),
            RunError::InvariantViolated(r) => Some(r.as_ref()),
            RunError::Unreachable(_)
            | RunError::JobPanicked(_)
            | RunError::Checkpoint(_)
            | RunError::EscapeCompromised { .. } => None,
        }
    }
}

impl From<Box<SentinelReport>> for RunError {
    fn from(r: Box<SentinelReport>) -> Self {
        RunError::InvariantViolated(r)
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<Box<StallDiagnostic>> for RunError {
    fn from(d: Box<StallDiagnostic>) -> Self {
        RunError::Stalled(d)
    }
}

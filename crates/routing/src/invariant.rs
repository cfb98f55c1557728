//! Typed routing-invariant checks.
//!
//! Routing functions uphold structural invariants — a minimal output port
//! always has a downstream neighbor, a Duato-based request set always
//! contains the escape channel. Violations used to surface as bare
//! `.unwrap()` panics deep inside a sweep, aborting hours of simulation
//! with a one-line message. The helpers here return a typed
//! [`InvariantError`] instead, whose `Display` renders a watchdog-style
//! diagnostic (the node, the request set, the direction that fell off the
//! mesh) so a violation becomes an artifact to debug rather than a crash
//! to reproduce.
//!
//! Hot paths that cannot propagate a `Result` (e.g. `route()` filling a
//! request buffer) degrade gracefully through `report_violation`: the
//! diagnostic is printed once to stderr, debug builds still assert, and the
//! caller falls back to a safe default.

use core::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::request::{VcId, VcRequest};
use footprint_topology::{AnyTopology, Direction, NodeId, Port};

/// A violated routing invariant, carrying enough context to render a
/// self-contained diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// A routing decision pointed off the edge of the fabric: `dir` from
    /// `node` has no neighbor. Minimal routing can never do this, so either
    /// the direction set or the topology geometry is corrupted.
    MissingNeighbor {
        /// Node the direction was taken from.
        node: NodeId,
        /// The offending direction.
        dir: Direction,
    },
    /// A Duato-based request set contains no escape-channel request —
    /// deadlock freedom rests on the escape VC always being requestable.
    MissingEscapeRequest {
        /// Router evaluating the routing function.
        current: NodeId,
        /// Destination of the packet being routed.
        dest: NodeId,
        /// The full (escape-free) request set, for the diagnostic.
        requests: Vec<VcRequest>,
    },
    /// A busy (allocated or draining) output VC whose destination owner
    /// register is unset. Algorithm 1's footprint classification reads the
    /// owner of every busy VC; an unset register on a busy VC means the
    /// allocation path skipped the register write and every subsequent
    /// footprint count at this channel is silently wrong.
    UnsetFootprintOwner {
        /// Router (or source endpoint) owning the output VC.
        node: NodeId,
        /// Output port of the VC.
        port: Port,
        /// The VC with the unset register.
        vc: VcId,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::MissingNeighbor { node, dir } => write!(
                f,
                "routing invariant violated: direction {dir} from {node} leaves the fabric \
                 (minimal routing cannot step off the edge; the direction set or topology \
                 geometry is corrupted)"
            ),
            InvariantError::MissingEscapeRequest {
                current,
                dest,
                requests,
            } => {
                write!(
                    f,
                    "routing invariant violated: no escape-VC request at {current} for a \
                     packet to {dest} (Duato deadlock freedom requires {} in every request \
                     set); emitted requests: [",
                    VcId::ESCAPE
                )?;
                for (i, r) in requests.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{r}")?;
                }
                f.write_str("]")
            }
            InvariantError::UnsetFootprintOwner { node, port, vc } => write!(
                f,
                "routing invariant violated: output VC {port}/{vc} at {node} is busy with an \
                 unset owner register (Algorithm 1 classifies busy VCs by owner; an unset \
                 register corrupts every footprint count at this channel)"
            ),
        }
    }
}

impl std::error::Error for InvariantError {}

/// The neighbor of `node` in direction `dir`, or a typed error if the step
/// leaves the fabric.
///
/// # Errors
///
/// Returns [`InvariantError::MissingNeighbor`] when `node` has no neighbor
/// in `dir`.
pub(crate) fn neighbor_checked(
    topo: AnyTopology,
    node: NodeId,
    dir: Direction,
) -> Result<NodeId, InvariantError> {
    topo.neighbor(node, dir)
        .ok_or(InvariantError::MissingNeighbor { node, dir })
}

/// The request for the mesh escape VC ([`VcId::ESCAPE`]) in `reqs`, or a
/// typed error carrying the full request set if the Duato invariant is
/// violated: the routing functions' unit tests check their request sets
/// with it.
#[cfg(test)]
pub(crate) fn escape_request(
    reqs: &[VcRequest],
    current: NodeId,
    dest: NodeId,
) -> Result<&VcRequest, InvariantError> {
    reqs.iter().find(|r| r.vc == VcId::ESCAPE).ok_or_else(|| {
        InvariantError::MissingEscapeRequest {
            current,
            dest,
            requests: reqs.to_vec(),
        }
    })
}

/// Audits the owner register of one output VC against Algorithm 1's
/// footprint bookkeeping: a busy (non-idle) VC must carry the destination
/// of the packets that claimed it, because footprint classification
/// ([`VcView::is_footprint_for`](crate::VcView::is_footprint_for)) reads
/// exactly this register. Idle VCs may hold any owner (the register
/// deliberately persists across drains — that persistence *is* the
/// footprint), so only the busy/unset combination is a violation.
///
/// This is the pure audit hook the simulator's runtime sentinel calls per
/// VC; it carries no simulator state so it can be checked (and tested)
/// against table views too.
///
/// # Errors
///
/// Returns [`InvariantError::UnsetFootprintOwner`] when `idle` is `false`
/// and `owner` is `None`.
pub fn audit_footprint_owner(
    node: NodeId,
    port: Port,
    vc: VcId,
    idle: bool,
    owner: Option<NodeId>,
) -> Result<(), InvariantError> {
    if !idle && owner.is_none() {
        return Err(InvariantError::UnsetFootprintOwner { node, port, vc });
    }
    Ok(())
}

/// Reports an invariant violation from a hot path that must keep going:
/// prints the diagnostic to stderr (once per process, so a violation inside
/// the cycle loop cannot flood the console) and asserts in debug builds.
pub(crate) fn report_violation(err: &InvariantError) {
    static REPORTED: AtomicBool = AtomicBool::new(false);
    if !REPORTED.swap(true, Ordering::Relaxed) {
        eprintln!("{err}");
    }
    debug_assert!(false, "{err}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use footprint_topology::Port;

    #[test]
    fn neighbor_checked_steps_inside_the_mesh() {
        let mesh = AnyTopology::mesh(4, 4);
        assert_eq!(
            neighbor_checked(mesh, NodeId(0), Direction::East).unwrap(),
            NodeId(1)
        );
    }

    #[test]
    fn neighbor_checked_reports_edge_violations() {
        let mesh = AnyTopology::mesh(4, 4);
        let err = neighbor_checked(mesh, NodeId(0), Direction::West).unwrap_err();
        assert_eq!(
            err,
            InvariantError::MissingNeighbor {
                node: NodeId(0),
                dir: Direction::West
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("leaves the fabric"), "msg: {msg}");
        assert!(msg.contains("n0"), "msg: {msg}");
    }

    #[test]
    fn escape_request_finds_the_escape_channel() {
        let reqs = [
            VcRequest::new(Port::Dir(Direction::East), VcId(2), Priority::Low),
            VcRequest::new(Port::Dir(Direction::East), VcId::ESCAPE, Priority::Lowest),
        ];
        let esc = escape_request(&reqs, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(esc.vc, VcId::ESCAPE);
    }

    #[test]
    fn owner_audit_accepts_idle_and_owned_busy_vcs() {
        let p = Port::Dir(Direction::East);
        // Idle without owner: fresh VC, fine.
        audit_footprint_owner(NodeId(0), p, VcId(1), true, None).unwrap();
        // Idle with a persistent owner: the footprint register, fine.
        audit_footprint_owner(NodeId(0), p, VcId(1), true, Some(NodeId(9))).unwrap();
        // Busy with an owner: a normal allocation, fine.
        audit_footprint_owner(NodeId(0), p, VcId(1), false, Some(NodeId(9))).unwrap();
    }

    #[test]
    fn busy_vc_with_unset_owner_is_flagged() {
        let err = audit_footprint_owner(NodeId(3), Port::Local, VcId(2), false, None).unwrap_err();
        assert_eq!(
            err,
            InvariantError::UnsetFootprintOwner {
                node: NodeId(3),
                port: Port::Local,
                vc: VcId(2)
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("unset owner register"), "msg: {msg}");
        assert!(msg.contains("n3"), "msg: {msg}");
    }

    #[test]
    fn missing_escape_yields_diagnostic_with_request_set() {
        let reqs = [VcRequest::new(
            Port::Dir(Direction::North),
            VcId(3),
            Priority::High,
        )];
        let err = escape_request(&reqs, NodeId(7), NodeId(12)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no escape-VC request"), "msg: {msg}");
        assert!(msg.contains("n7"), "msg: {msg}");
        assert!(msg.contains("n12"), "msg: {msg}");
        // The diagnostic embeds the offending request set.
        assert!(msg.contains("vc3"), "msg: {msg}");
    }
}

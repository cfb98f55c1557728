//! The allocation states of an output VC — the vocabulary
//! [`OutVcRef`](crate::soa::OutVcRef), the state dumps and the sentinel match
//! on. The state machine itself, with its credit counter and owner
//! register, is [`NocSoa`](crate::soa::NocSoa)'s `out_*` arrays, for router
//! outputs and source injection channels alike.

use crate::packet::PacketId;

/// Allocation state of one output VC (the upstream view of a downstream
/// input VC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutVcState {
    /// Unowned and available for a fresh allocation.
    Idle,
    /// Allocated to a packet that is still streaming (tail not yet
    /// forwarded).
    Active(PacketId),
    /// All flits of the last packet forwarded, but the downstream buffer has
    /// not fully drained. Under the atomic policy the VC cannot be freshly
    /// reallocated in this state — but it *can* be joined by a packet to the
    /// same destination (the footprint join).
    Draining,
}

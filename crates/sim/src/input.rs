//! Input-side VC state: the per-VC routing state machine.
//!
//! The backing data — flit FIFOs, route registers, occupancy counters —
//! lives in the network-wide struct-of-arrays store ([`crate::soa::NocSoa`]);
//! this module keeps the `RouteState` vocabulary type that the store packs
//! into its flat `u8` arrays and that read-only consumers (the sentinel,
//! state dumps) still match on.

use crate::packet::PacketId;
use footprint_topology::Port;

/// Routing/allocation state of one input VC (tracks the packet at the front
/// of the FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteState {
    /// No head packet awaiting a decision (empty, or mid-packet flits only).
    Idle,
    /// A head flit is at the front and has not yet been granted an output
    /// VC; the routing function is re-evaluated every cycle (standing
    /// requests).
    Waiting,
    /// The front packet holds an output VC and is streaming.
    Active {
        /// The packet holding the grant.
        packet: PacketId,
        /// Granted output port.
        out_port: Port,
        /// Granted output VC.
        out_vc: u8,
    },
}

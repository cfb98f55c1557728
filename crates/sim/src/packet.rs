//! Packets and flits.

use core::fmt;
use footprint_topology::NodeId;

/// Globally unique packet identifier (monotonic per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FlitKind {
    /// First flit of a multi-flit packet: carries the routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit: releases the VCs it passes through.
    Tail,
    /// Single-flit packet: head and tail at once (the paper's baseline
    /// packet size).
    Single,
}

impl FlitKind {
    /// `true` for `Head` and `Single`.
    #[inline]
    pub(crate) fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// `true` for `Tail` and `Single`.
    #[inline]
    pub(crate) fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// The kind of flit `seq` (0-based) in a packet of `size` flits.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= size` or `size == 0`.
    pub(crate) fn for_position(seq: u16, size: u16) -> FlitKind {
        assert!(size > 0 && seq < size, "flit position out of range");
        match (seq, size) {
            (_, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, n) if s + 1 == n => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// A flow-control digit: the unit of buffering and link transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Kind (head/body/tail/single).
    pub kind: FlitKind,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// Flit index within the packet (0 = head).
    pub seq: u16,
    /// Packet size in flits.
    pub size: u16,
    /// Cycle the packet was created at the source (start of source
    /// queueing — packet latency is measured from here, as in BookSim).
    pub birth: u64,
    /// Traffic class tag (0 = default; used e.g. to separate hotspot flows
    /// from background traffic in the Figure 9 experiment).
    pub class: u8,
    /// VC this flit travels on over the *current* link; rewritten at every
    /// hop by the switch-traversal stage.
    pub vc: u8,
}

impl Flit {
    /// `true` if this flit carries the routing information of its packet.
    #[inline]
    pub(crate) fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// `true` if this flit releases resources held by its packet.
    #[inline]
    pub(crate) fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

/// A freshly generated packet, before flit decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewPacket {
    /// Destination endpoint.
    pub dest: NodeId,
    /// Size in flits (≥ 1).
    pub size: u16,
    /// Traffic class tag.
    pub class: u8,
    /// The cycle the packet was *created*, when that differs from the
    /// cycle the workload hands it to the network. Replayed traces set
    /// this to the recorded event cycle so packets backlogged behind the
    /// one-injection-per-cycle source still account their queueing delay;
    /// synthetic workloads leave it `None` (born at the generation cycle).
    pub origin: Option<u64>,
}

/// A packet waiting in (or streaming from) a source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPacket {
    /// Packet id.
    pub id: PacketId,
    /// Source endpoint (the node that owns the queue).
    pub src: NodeId,
    /// Destination endpoint.
    pub dest: NodeId,
    /// Size in flits.
    pub size: u16,
    /// Creation cycle.
    pub birth: u64,
    /// Traffic class tag.
    pub class: u8,
    /// Next flit index to send (0 = nothing sent yet).
    pub sent: u16,
}

impl PendingPacket {
    /// Builds the next flit to transmit on VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the packet has already been fully sent.
    pub(crate) fn next_flit(&mut self, vc: u8) -> Flit {
        let seq = self.sent;
        assert!(seq < self.size, "packet already fully sent");
        self.sent += 1;
        Flit {
            packet: self.id,
            kind: FlitKind::for_position(seq, self.size),
            src: self.src,
            dest: self.dest,
            seq,
            size: self.size,
            birth: self.birth,
            class: self.class,
            vc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_for_position() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::Single);
        assert_eq!(FlitKind::for_position(0, 3), FlitKind::Head);
        assert_eq!(FlitKind::for_position(1, 3), FlitKind::Body);
        assert_eq!(FlitKind::for_position(2, 3), FlitKind::Tail);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_for_bad_position_panics() {
        let _ = FlitKind::for_position(3, 3);
    }

    #[test]
    fn single_is_head_and_tail() {
        assert!(FlitKind::Single.is_head());
        assert!(FlitKind::Single.is_tail());
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
    }

    #[test]
    fn pending_packet_streams_flits_in_order() {
        let mut p = PendingPacket {
            id: PacketId(7),
            src: NodeId(0),
            dest: NodeId(5),
            size: 3,
            birth: 100,
            class: 0,
            sent: 0,
        };
        let f0 = p.next_flit(2);
        assert!(f0.is_head());
        assert_eq!(f0.vc, 2);
        assert_eq!(f0.seq, 0);
        assert_eq!(p.sent, 1);
        let f1 = p.next_flit(2);
        assert_eq!(f1.kind, FlitKind::Body);
        let f2 = p.next_flit(2);
        assert!(f2.is_tail());
        assert_eq!(p.sent, p.size, "every flit sent");
    }

    #[test]
    fn packet_id_displays() {
        assert_eq!(PacketId(3).to_string(), "p3");
    }
}

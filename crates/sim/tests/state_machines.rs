//! Property tests for the simulator's flow-control state machines: output
//! VC lifecycle and input VC FIFO discipline. (The delivery calendar's
//! FIFO property is a unit test in `wire.rs`: the calendar is private.)

use footprint_routing::VcReallocationPolicy;
use footprint_sim::{Flit, FlitKind, NocSoa, OutVcState, PacketId};
use footprint_topology::NodeId;
use proptest::prelude::*;

/// Random operation against an output VC.
#[derive(Debug, Clone, Copy)]
enum Op {
    Allocate(u16, u16), // packet id, dest
    Consume,
    TailSent,
    ReturnCredit,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..100, 0u16..16).prop_map(|(p, d)| Op::Allocate(p, d)),
        Just(Op::Consume),
        Just(Op::TailSent),
        Just(Op::ReturnCredit),
    ]
}

proptest! {
    /// Credits never under/overflow and the state machine never wedges when
    /// operations are applied only in legal states (as the router does).
    #[test]
    fn outvc_invariants(
        ops in prop::collection::vec(arb_op(), 1..200),
        atomic in any::<bool>(),
        injection in any::<bool>(),
    ) {
        let policy = if atomic {
            VcReallocationPolicy::Atomic
        } else {
            VcReallocationPolicy::NonAtomic
        };
        let capacity = 4;
        // One VC of a router output row or of a source's injection row:
        // the same state machine either way.
        let mut soa = NocSoa::new(2, 2, capacity as usize, 1);
        let vc = if injection {
            soa.inj_ivc(NodeId(1), 1)
        } else {
            soa.ivc(NodeId(1), 3, 1)
        };
        let mut outstanding = 0u32; // flits sent minus credits returned
        for op in ops {
            match op {
                Op::Allocate(p, d) => {
                    let fresh = soa.out_idle_for(vc, policy);
                    let join = soa.out_joinable_by(vc, NodeId(d));
                    if fresh || join {
                        soa.out_allocate(vc, PacketId(p as u64), NodeId(d));
                        prop_assert_eq!(soa.out_owner(vc), Some(NodeId(d)));
                        prop_assert!(matches!(soa.out_state(vc), OutVcState::Active(_)));
                    }
                }
                Op::Consume => {
                    if matches!(soa.out_state(vc), OutVcState::Active(_))
                        && soa.out_credits(vc) > 0
                    {
                        soa.out_consume_credit(vc);
                        outstanding += 1;
                    }
                }
                Op::TailSent => {
                    if matches!(soa.out_state(vc), OutVcState::Active(_)) {
                        soa.out_tail_sent(vc, policy);
                        prop_assert!(!matches!(soa.out_state(vc), OutVcState::Active(_)));
                    }
                }
                Op::ReturnCredit => {
                    if outstanding > 0 {
                        soa.out_return_credit(vc);
                        outstanding -= 1;
                    }
                }
            }
            prop_assert!(soa.out_credits(vc) <= capacity);
            prop_assert_eq!(soa.out_credits(vc) + outstanding, capacity, "credit conservation");
            // Atomic policy: a drained VC in Idle state implies full credits.
            if soa.out_state(vc) == OutVcState::Idle && policy == VcReallocationPolicy::Atomic {
                prop_assert!(soa.out_idle_for(vc, policy));
            }
        }
    }

    /// Input VC FIFO (one ring of the SoA store): packets stream in order,
    /// route state resets exactly at tails, and buffered flit count is
    /// conserved.
    #[test]
    fn invc_fifo_discipline(sizes in prop::collection::vec(1u16..4, 1..6)) {
        let capacity: usize = sizes.iter().map(|&s| s as usize).sum();
        let mut soa = NocSoa::new(1, 1, capacity.max(1), 1);
        let ivc = soa.ivc(NodeId(0), 0, 0);
        // Enqueue all packets back to back (multi-packet FIFO).
        for (pid, &size) in sizes.iter().enumerate() {
            for seq in 0..size {
                soa.in_push(ivc, Flit {
                    packet: PacketId(pid as u64),
                    kind: FlitKind::for_position(seq, size),
                    src: NodeId(0),
                    dest: NodeId(1),
                    seq,
                    size,
                    birth: 0,
                    class: 0,
                    vc: 0,
                });
            }
        }
        prop_assert_eq!(soa.in_len(ivc), capacity);
        // Drain packet by packet.
        for (pid, &size) in sizes.iter().enumerate() {
            prop_assert!(soa.waiting(ivc), "head of packet {pid} must be waiting");
            soa.in_grant(ivc, footprint_topology::Port::Local, 0);
            for seq in 0..size {
                let f = soa.in_pop_granted(ivc);
                prop_assert_eq!(f.packet, PacketId(pid as u64));
                prop_assert_eq!(f.seq, seq);
            }
        }
        prop_assert!(soa.input(NodeId(0), 0).vc(0).is_quiescent());
    }
}

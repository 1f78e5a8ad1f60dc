//! Register-level communication (RLC) fabric.
//!
//! The 8x8 CPE mesh can exchange 256-bit packets over per-row and
//! per-column buses, following an *anonymous producer-consumer* pattern
//! with bounded FIFOs: sends are asynchronous but stall when the receiving
//! FIFO is full, receives stall when it is empty (paper, Principle 4).
//!
//! We model the fabric as one bounded FIFO of [`RLC_FIFO_DEPTH`] messages
//! per (axis, receiver, sender position). The CPE bodies of a launch are
//! cooperative tasks on one thread (see [`crate::mesh`]), so a FIFO is a
//! plain `RefCell<VecDeque>`: a receive from an empty FIFO or a send into
//! a full one suspends the CPE until a peer pops or pushes, which
//! reproduces the blocking semantics (and the deadlocks a wrong
//! communication schedule would produce on silicon!) faithfully. Payloads
//! are `f64` because SW26010's instruction set has no single-precision
//! RLC: single-precision data must be widened before transfer, which the
//! GEMM kernels in `swdnn` do explicitly, just like the paper.
//!
//! Timing: a message of `n` doubles occupies the bus for
//! `ceil(8n / 32)` cycles at both endpoints, and the receive completes no
//! earlier than the send did (`max(local clock, sender clock)` + a small
//! hop latency). Broadcast occupies the sender's bus once and every
//! receiver's port once, reproducing the ~1.75x broadcast/P2P aggregate
//! bandwidth ratio of the published microbenchmarks.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::arch::{CPES_PER_CG, MESH_DIM, RLC_FIFO_DEPTH, RLC_PACKET_BYTES};
use crate::time::SimTime;

/// Hop latency of one register-bus transfer (about 10 cycles on silicon).
pub const RLC_HOP_CYCLES: f64 = 10.0;

/// Which bus a transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Sender and receiver share a row; the FIFO is indexed by sender column.
    Row,
    /// Sender and receiver share a column; the FIFO is indexed by sender row.
    Col,
}

/// One in-flight register-communication message.
pub(crate) struct RlcMsg {
    /// Sender's local clock at the moment the send completed.
    pub(crate) sent_at: SimTime,
    /// Payload; `None` in timing-only mode.
    pub(crate) data: Option<Box<[f64]>>,
}

/// Cycles a message of `bytes` occupies a register bus endpoint.
#[inline]
pub fn transfer_cycles(bytes: usize) -> f64 {
    bytes.div_ceil(RLC_PACKET_BYTES) as f64
}

/// The receive FIFOs of one launch's 8x8 mesh.
pub(crate) struct RlcFifos {
    /// Indexed by [`RlcFifos::slot`].
    fifos: Box<[RefCell<VecDeque<RlcMsg>>]>,
}

impl RlcFifos {
    pub(crate) fn new() -> Self {
        RlcFifos {
            fifos: (0..2 * CPES_PER_CG * MESH_DIM)
                .map(|_| RefCell::default())
                .collect(),
        }
    }

    /// The FIFO on `axis` into mesh index `to` from the sender at bus
    /// position `from` (its column on the row bus, its row on the column
    /// bus).
    fn slot(&self, axis: Axis, to: usize, from: usize) -> &RefCell<VecDeque<RlcMsg>> {
        let plane = match axis {
            Axis::Row => 0,
            Axis::Col => CPES_PER_CG,
        };
        &self.fifos[(plane + to) * MESH_DIM + from]
    }

    /// True when the FIFO has room for another message.
    pub(crate) fn has_room(&self, axis: Axis, to: usize, from: usize) -> bool {
        self.slot(axis, to, from).borrow().len() < RLC_FIFO_DEPTH
    }

    /// Enqueue `msg`; the caller has checked [`RlcFifos::has_room`].
    pub(crate) fn push(&self, axis: Axis, to: usize, from: usize, msg: RlcMsg) {
        let mut fifo = self.slot(axis, to, from).borrow_mut();
        assert!(fifo.len() < RLC_FIFO_DEPTH, "RLC push into a full FIFO");
        fifo.push_back(msg);
    }

    /// Dequeue the oldest message, if any.
    pub(crate) fn pop(&self, axis: Axis, to: usize, from: usize) -> Option<RlcMsg> {
        self.slot(axis, to, from).borrow_mut().pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(t: f64) -> RlcMsg {
        RlcMsg {
            sent_at: SimTime::from_seconds(t),
            data: Some(vec![t].into()),
        }
    }

    #[test]
    fn transfer_cycles_rounds_up_to_packets() {
        assert_eq!(transfer_cycles(0), 0.0);
        assert_eq!(transfer_cycles(1), 1.0);
        assert_eq!(transfer_cycles(32), 1.0);
        assert_eq!(transfer_cycles(33), 2.0);
        assert_eq!(transfer_cycles(256), 8.0);
    }

    #[test]
    fn row_message_routing() {
        let fifos = RlcFifos::new();
        let to = 2 * MESH_DIM + 3;
        fifos.push(Axis::Row, to, 5, msg(1.0));
        let got = fifos.pop(Axis::Row, to, 5).expect("delivered");
        assert_eq!(got.sent_at.seconds(), 1.0);
        assert_eq!(got.data.unwrap()[0], 1.0);
        // Nothing arrived from other senders or on the other bus.
        for from in 0..MESH_DIM {
            assert!(fifos.pop(Axis::Row, to, from).is_none());
            assert!(fifos.pop(Axis::Col, to, from).is_none());
        }
    }

    #[test]
    fn col_message_routing() {
        let fifos = RlcFifos::new();
        let to = 6 * MESH_DIM + 1;
        fifos.push(Axis::Col, to, 0, msg(0.0));
        assert!(fifos.pop(Axis::Row, to, 0).is_none());
        assert_eq!(fifos.pop(Axis::Col, to, 0).unwrap().data.unwrap().len(), 1);
    }

    #[test]
    fn fifo_depth_is_bounded() {
        let fifos = RlcFifos::new();
        for i in 0..RLC_FIFO_DEPTH {
            assert!(fifos.has_room(Axis::Row, 3, 0));
            fifos.push(Axis::Row, 3, 0, msg(i as f64));
        }
        // One more must report full; a pop makes room, oldest first.
        assert!(!fifos.has_room(Axis::Row, 3, 0));
        assert_eq!(fifos.pop(Axis::Row, 3, 0).unwrap().sent_at.seconds(), 0.0);
        assert!(fifos.has_room(Axis::Row, 3, 0));
    }
}

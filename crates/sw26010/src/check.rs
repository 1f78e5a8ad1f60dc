//! Kernel-sanitizer support: typed event traces for CPE kernels.
//!
//! When a launch runs in [`CheckMode::Record`], every DMA, register
//! communication, barrier, and LDM allocator call on every CPE appends a
//! [`CpeEvent`] to a per-CPE log. The log never touches the simulated
//! clocks — a traced run produces bit-identical results and simulated
//! timings to an untraced one — so the `swcheck` crate can replay the
//! events afterwards and prove happens-before properties (no read of an
//! in-flight DMA destination, every handle waited exactly once, matched
//! send/recv counts, …) without perturbing what it observes.
//!
//! Recording also turns a deadlock into data. The launch executor (see
//! [`crate::mesh`]) detects a deadlock exactly: a full round of the CPE
//! bodies with no FIFO push or pop, no barrier arrival and no body
//! finished. A checked launch then returns with each blocked CPE's
//! [`BlockedOn`] in its trace for `swcheck` to classify; an unchecked one
//! panics.

use std::cell::RefCell;
use std::rc::Rc;

use crate::dma::DmaDir;
use crate::plan::RlcPattern;
use crate::rlc::Axis;

/// Whether a core group records sanitizer events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No recording; zero overhead beyond an `Option` branch per call.
    #[default]
    Off,
    /// Record every CPE event; a deadlock returns a trace instead of
    /// panicking.
    Record,
}

impl CheckMode {
    pub fn is_on(self) -> bool {
        matches!(self, CheckMode::Record)
    }
}

/// A half-open host-address range `[lo, hi)` identifying an LDM buffer or
/// a slice passed to a DMA/RLC call. Zero-length ranges never overlap
/// anything (a 0-byte transfer cannot race).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRange {
    pub lo: usize,
    pub hi: usize,
}

impl MemRange {
    pub(crate) fn of_slice<T>(s: &[T]) -> MemRange {
        let lo = s.as_ptr() as usize;
        MemRange {
            lo,
            hi: lo + std::mem::size_of_val(s),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// True when the two ranges share at least one byte. Empty ranges
    /// (0-byte buffers) never overlap anything.
    pub fn overlaps(&self, other: &MemRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }
}

/// One recorded operation on one CPE, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum CpeEvent {
    /// An asynchronous DMA request was issued. `range` is the LDM-side
    /// slice: the destination of a get, the source of a put.
    DmaIssue {
        seq: u64,
        dir: DmaDir,
        bytes: usize,
        range: MemRange,
    },
    /// `dma_wait` retired the request `seq`.
    DmaWait { seq: u64 },
    /// `dma_wait` was called with a handle that was never issued or was
    /// already waited (a double-wait). Recorded instead of panicking so
    /// the sanitizer can report it with context.
    DmaWaitStale { seq: u64 },
    /// A register-communication send to mesh index `peer` (one event per
    /// receiver for broadcasts). `range` is the source slice.
    RlcSend {
        axis: Axis,
        peer: usize,
        bytes: usize,
        range: MemRange,
    },
    /// A register-communication receive from mesh index `peer`. `range`
    /// is the destination slice.
    RlcRecv {
        axis: Axis,
        peer: usize,
        bytes: usize,
        range: MemRange,
    },
    /// The CPE entered the mesh barrier for the `n`th time (1-based).
    Barrier { n: u64 },
    /// An LDM buffer was allocated. `used_after` is the allocator's
    /// resident total after this allocation.
    LdmAlloc {
        id: u64,
        bytes: usize,
        range: MemRange,
        used_after: usize,
    },
    /// An LDM buffer was dropped, releasing its budget.
    LdmFree { id: u64, range: MemRange },
}

/// What a CPE was blocked on when the mesh stopped progressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Waiting to receive from mesh index `from` on `axis`.
    RlcRecv { axis: Axis, from: usize },
    /// Waiting for space in the FIFO towards mesh index `to` on `axis`.
    RlcSend { axis: Axis, to: usize },
    /// Waiting in the mesh barrier.
    Barrier,
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedOn::RlcRecv { axis, from } => {
                write!(f, "RLC {axis:?}-bus receive from CPE {from}")
            }
            BlockedOn::RlcSend { axis, to } => {
                write!(f, "RLC {axis:?}-bus send to CPE {to} (FIFO full)")
            }
            BlockedOn::Barrier => write!(f, "mesh barrier"),
        }
    }
}

/// Everything the sanitizer learned about one CPE during a launch.
#[derive(Debug, Clone, Default)]
pub struct CpeTrace {
    pub idx: usize,
    pub row: usize,
    pub col: usize,
    pub events: Vec<CpeEvent>,
    /// DMA requests issued but never waited by kernel end.
    pub leaked_dma: Vec<u64>,
    /// Set when the launch deadlocked with this CPE blocked.
    pub stall: Option<BlockedOn>,
    /// LDM working-set high water mark in bytes.
    pub ldm_high_water: usize,
}

/// The complete trace of one mesh kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelTrace {
    pub name: String,
    pub n_cpes: usize,
    /// The launching plan's declared register-communication pattern;
    /// [`RlcPattern::None`] for an unplanned launch.
    pub rlc: RlcPattern,
    pub per_cpe: Vec<CpeTrace>,
}

impl KernelTrace {
    /// True when the launch deadlocked.
    pub fn stalled(&self) -> bool {
        self.per_cpe.iter().any(|c| c.stall.is_some())
    }
}

/// Per-CPE event log, shared with the LDM allocator of the same CPE so
/// allocator events interleave with DMA/RLC events in program order.
pub(crate) type EventLog = Rc<RefCell<Vec<CpeEvent>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_overlap_correctly() {
        let a = MemRange { lo: 100, hi: 200 };
        let b = MemRange { lo: 150, hi: 250 };
        let c = MemRange { lo: 200, hi: 300 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "half-open ranges: touching is disjoint");
        assert_eq!(a.hi - a.lo, 100);
    }

    #[test]
    fn zero_length_ranges_never_overlap() {
        let z = MemRange { lo: 150, hi: 150 };
        let a = MemRange { lo: 100, hi: 200 };
        assert!(!z.overlaps(&a));
        assert!(!a.overlaps(&z));
        assert!(z.is_empty());
    }

    #[test]
    fn of_slice_covers_the_bytes() {
        let v = vec![0.0f32; 16];
        let r = MemRange::of_slice(&v);
        assert_eq!(r.hi - r.lo, 64);
        let empty: &[f32] = &[];
        assert!(MemRange::of_slice(empty).is_empty());
    }
}

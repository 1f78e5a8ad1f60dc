//! Local directive memory (LDM / scratch-pad) management.
//!
//! Each CPE owns 64 KB of software-managed scratch-pad. There is no
//! hardware cache: every byte a kernel touches must be explicitly staged
//! through DMA into an LDM buffer. The allocator here enforces the 64 KB
//! capacity as a hard structural constraint — a kernel whose working set
//! does not fit *panics*, exactly as an over-sized `__thread_local` array
//! fails on the real chip. This is what forces the blocking structure the
//! paper describes (Principles 2 and 3).
//!
//! Under [`CheckMode::Record`](crate::check::CheckMode) the allocator also
//! appends alloc/free events (with host address ranges) to the owning
//! CPE's event log, so the sanitizer can correlate DMA traffic with the
//! buffers it targets and detect frees of in-flight destinations.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::arch::LDM_BYTES;
use crate::check::{CpeEvent, EventLog, MemRange};

/// A rejected LDM allocation: the request plus the allocator state that
/// made it impossible. `Display` renders the canonical overflow message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdmOverflow {
    /// Bytes the failed allocation asked for.
    pub(crate) requested: usize,
    /// Bytes already resident when the request arrived.
    pub used: usize,
    /// Total LDM capacity.
    pub capacity: usize,
}

impl std::fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LDM overflow: kernel requested {} B with {} B already resident \
             ({} B capacity). Reduce the block size.",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for LdmOverflow {}

/// Per-CPE LDM allocator (bump accounting with drop-based reclamation).
pub struct Ldm {
    capacity: usize,
    used: Rc<Cell<usize>>,
    high_water: Rc<Cell<usize>>,
    log: Option<EventLog>,
    next_id: Cell<u64>,
}

impl Default for Ldm {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldm {
    pub fn new() -> Self {
        Self::with_capacity(LDM_BYTES)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Ldm {
            capacity,
            used: Rc::new(Cell::new(0)),
            high_water: Rc::new(Cell::new(0)),
            log: None,
            next_id: Cell::new(0),
        }
    }

    /// Share a sanitizer event log with this allocator (checked launches
    /// only). Alloc/free events then interleave with the owning CPE's
    /// DMA/RLC events in program order.
    pub(crate) fn attach_log(&mut self, log: EventLog) {
        self.log = Some(log);
    }

    /// Maximum bytes ever allocated simultaneously (working-set size).
    pub(crate) fn high_water(&self) -> usize {
        self.high_water.get()
    }

    /// Allocate a zeroed buffer of `n` `f32` elements.
    ///
    /// Panics with the [`LdmOverflow`] message when the working set no
    /// longer fits.
    pub fn alloc_f32(&self, n: usize) -> LdmBuf<f32> {
        self.try_alloc_f32(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocate a zeroed buffer of `n` `f64` elements (register-communication
    /// staging buffers are double precision on SW26010).
    pub fn alloc_f64(&self, n: usize) -> LdmBuf<f64> {
        self.try_alloc_f64(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Ldm::alloc_f32`].
    pub(crate) fn try_alloc_f32(&self, n: usize) -> Result<LdmBuf<f32>, LdmOverflow> {
        self.try_alloc(n, 0.0f32)
    }

    /// Fallible variant of [`Ldm::alloc_f64`].
    pub(crate) fn try_alloc_f64(&self, n: usize) -> Result<LdmBuf<f64>, LdmOverflow> {
        self.try_alloc(n, 0.0f64)
    }

    fn try_alloc<T: Copy>(&self, n: usize, zero: T) -> Result<LdmBuf<T>, LdmOverflow> {
        let bytes = n * std::mem::size_of::<T>();
        let used = self.used.get();
        if used + bytes > self.capacity {
            return Err(LdmOverflow {
                requested: bytes,
                used,
                capacity: self.capacity,
            });
        }
        self.used.set(used + bytes);
        self.high_water.set(self.high_water.get().max(used + bytes));
        let data = vec![zero; n];
        let mut id = 0;
        if let Some(log) = &self.log {
            id = self.next_id.get();
            self.next_id.set(id + 1);
            log.borrow_mut().push(CpeEvent::LdmAlloc {
                id,
                bytes,
                range: MemRange::of_slice(&data),
                used_after: used + bytes,
            });
        }
        Ok(LdmBuf {
            data,
            bytes,
            used: Rc::clone(&self.used),
            log: self.log.clone(),
            id,
        })
    }
}

/// An LDM-resident buffer. Dereferences to a slice; releases its LDM
/// budget on drop.
#[derive(Debug)]
pub struct LdmBuf<T> {
    data: Vec<T>,
    bytes: usize,
    used: Rc<Cell<usize>>,
    log: Option<EventLog>,
    id: u64,
}

impl<T> Deref for LdmBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for LdmBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for LdmBuf<T> {
    fn drop(&mut self) {
        self.used.set(self.used.get() - self.bytes);
        if let Some(log) = &self.log {
            log.borrow_mut().push(CpeEvent::LdmFree {
                id: self.id,
                range: MemRange::of_slice(&self.data),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn alloc_and_reclaim() {
        let ldm = Ldm::new();
        assert_eq!(ldm.capacity, 64 * 1024);
        {
            let a = ldm.alloc_f32(1024); // 4 KB
            let b = ldm.alloc_f64(1024); // 8 KB
            assert_eq!(a.len(), 1024);
            assert_eq!(b.len(), 1024);
            assert_eq!(ldm.used.get(), 12 * 1024);
        }
        assert_eq!(ldm.used.get(), 0);
        assert_eq!(ldm.high_water(), 12 * 1024);
    }

    #[test]
    #[should_panic(expected = "LDM overflow")]
    fn overflow_panics() {
        let ldm = Ldm::new();
        let _a = ldm.alloc_f32(12 * 1024); // 48 KB
        let _b = ldm.alloc_f32(8 * 1024); // +32 KB -> 80 KB > 64 KB
    }

    #[test]
    fn overflow_message_names_all_three_quantities() {
        let ldm = Ldm::new();
        let _a = ldm.alloc_f32(12 * 1024); // 48 KB resident
        let err = ldm.try_alloc_f32(8 * 1024).unwrap_err();
        assert_eq!(
            err,
            LdmOverflow {
                requested: 32 * 1024,
                used: 48 * 1024,
                capacity: 64 * 1024,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("requested 32768 B"), "{msg}");
        assert!(msg.contains("49152 B already resident"), "{msg}");
        assert!(msg.contains("65536 B capacity"), "{msg}");
        // A failed allocation must not consume budget.
        assert_eq!(ldm.used.get(), 48 * 1024);
        assert!(ldm.try_alloc_f64(2 * 1024).is_ok());
    }

    #[test]
    fn buffers_are_writable() {
        let ldm = Ldm::new();
        let mut buf = ldm.alloc_f32(8);
        buf[3] = 7.0;
        assert_eq!(buf[3], 7.0);
        assert_eq!(buf[0], 0.0);
    }

    #[test]
    fn fits_accounts_for_residents() {
        let ldm = Ldm::new();
        let _a = ldm.alloc_f32(8 * 1024); // 32 KB
        assert!(ldm.try_alloc_f32(8 * 1024).is_ok());
        assert!(ldm.try_alloc_f32(8 * 1024 + 1).is_err());
    }

    #[test]
    fn attached_log_sees_alloc_and_free_in_order() {
        let mut ldm = Ldm::new();
        let log: EventLog = Rc::new(RefCell::new(Vec::new()));
        ldm.attach_log(Rc::clone(&log));
        {
            let _a = ldm.alloc_f32(16);
            let _b = ldm.alloc_f64(8);
        }
        let events = log.borrow();
        match (&events[0], &events[1], &events[2], &events[3]) {
            (
                CpeEvent::LdmAlloc {
                    id: 0,
                    bytes: 64,
                    used_after: 64,
                    ..
                },
                CpeEvent::LdmAlloc {
                    id: 1,
                    bytes: 64,
                    used_after: 128,
                    ..
                },
                CpeEvent::LdmFree { id: fb, .. },
                CpeEvent::LdmFree { id: fa, .. },
            ) => {
                // Drop order is reverse declaration order.
                assert_eq!(*fb, 1);
                assert_eq!(*fa, 0);
            }
            other => panic!("unexpected event sequence: {other:?}"),
        }
    }
}

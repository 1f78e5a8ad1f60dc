//! Mini-batch prefetching (Sec. V-B): each worker runs an I/O thread that
//! reads the next mini-batch while the current iteration computes, hiding
//! disk latency behind the forward/backward passes.
//!
//! The thread is real (bounded `std::sync::mpsc` channel, double
//! buffering); the *disk time* it would take comes from
//! [`crate::stripefs::IoModel`], so the trainer can charge
//! `max(0, io_time - compute_time)` per iteration.

use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

use sw26010::SimTime;

use crate::dataset::SyntheticImageNet;
use crate::stripefs::IoModel;

/// One prefetched mini-batch.
#[derive(Debug, Clone)]
pub struct Batch {
    pub data: Vec<f32>,
    pub labels: Vec<f32>,
    /// Simulated disk time this read would take.
    pub io_time: SimTime,
}

/// A failed background read, surfaced to the training loop instead of
/// killing the I/O thread silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Sampling seed (iteration number) of the read that failed.
    pub(crate) seed: u64,
    pub(crate) msg: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reading batch {}: {}", self.seed, self.msg)
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

/// A mini-batch source the prefetch thread pulls from.
/// [`SyntheticImageNet`] never fails; real dataset readers surface
/// corrupt records or lost stripes as errors, which the prefetcher
/// forwards to the consumer and then stops.
pub(crate) trait BatchReader: Send + 'static {
    #[allow(clippy::too_many_arguments)]
    fn read(
        &mut self,
        seed: u64,
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        data: &mut [f32],
        labels: &mut [f32],
    ) -> Result<(), String>;
}

impl BatchReader for SyntheticImageNet {
    fn read(
        &mut self,
        seed: u64,
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        data: &mut [f32],
        labels: &mut [f32],
    ) -> Result<(), String> {
        self.fill_batch(seed, batch, c, h, w, data, labels);
        Ok(())
    }
}

/// Double-buffered background reader.
pub struct Prefetcher {
    rx: Receiver<Result<Batch, ReadError>>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn the I/O thread over the synthetic dataset. `nprocs` is the
    /// number of workers reading concurrently (affects the
    /// shared-filesystem bandwidth).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        dataset: SyntheticImageNet,
        io: IoModel,
        nprocs: usize,
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        start_seed: u64,
    ) -> Self {
        let bytes = dataset.batch_bytes(batch);
        Self::spawn_reader(dataset, io, bytes, nprocs, batch, c, h, w, start_seed)
    }

    /// Spawn the I/O thread over an arbitrary [`BatchReader`]. A read
    /// error is delivered in stream order — batches before it are still
    /// consumable — and ends the stream.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn_reader<B: BatchReader>(
        mut reader: B,
        io: IoModel,
        batch_bytes: usize,
        nprocs: usize,
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        start_seed: u64,
    ) -> Self {
        // Double buffering: 1 in flight + 1 building.
        let (tx, rx) = sync_channel::<Result<Batch, ReadError>>(1);
        let handle = std::thread::spawn(move || {
            let mut seed = start_seed;
            loop {
                let mut data = vec![0.0f32; batch * c * h * w];
                let mut labels = vec![0.0f32; batch];
                let sent = match reader.read(seed, batch, c, h, w, &mut data, &mut labels) {
                    Ok(()) => {
                        let io_time = io.batch_read_time(nprocs, batch_bytes);
                        tx.send(Ok(Batch {
                            data,
                            labels,
                            io_time,
                        }))
                    }
                    Err(msg) => {
                        let _ = tx.send(Err(ReadError { seed, msg }));
                        return; // the stream ends at the first failure
                    }
                };
                if sent.is_err() {
                    return; // consumer dropped
                }
                seed += 1;
            }
        });
        Prefetcher {
            rx,
            handle: Some(handle),
        }
    }

    /// Take the next mini-batch (blocks if the I/O thread is behind).
    /// Returns the reader's error, in stream order, if its read failed.
    pub fn next(&self) -> Result<Batch, ReadError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(ReadError {
                seed: 0,
                msg: "prefetch thread has stopped (after a prior error or panic)".into(),
            })
        })
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Close the channel, then join the thread.
        let (_tx, rx) = sync_channel::<Result<Batch, ReadError>>(0);
        let old = std::mem::replace(&mut self.rx, rx);
        drop(old);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Stall charged to an iteration when the disk cannot keep up with
/// compute: prefetching hides `compute`, not more.
pub fn io_stall(io_time: SimTime, compute_time: SimTime) -> SimTime {
    io_time - compute_time // SimTime subtraction saturates at zero
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripefs::Layout;

    #[test]
    fn prefetcher_delivers_deterministic_sequence() {
        let ds = SyntheticImageNet::new(1000);
        let io = IoModel::taihulight(Layout::paper_striped());
        let p = Prefetcher::spawn(ds, io, 4, 2, 3, 4, 4, 100);
        // Batch i is a direct fill with seed 100 + i.
        for seed in [100, 101] {
            let b = p.next().unwrap();
            let mut want = vec![0.0f32; 2 * 3 * 4 * 4];
            let mut wl = vec![0.0f32; 2];
            ds.fill_batch(seed, 2, 3, 4, 4, &mut want, &mut wl);
            assert_eq!(b.data, want, "seed {seed}");
            assert_eq!(b.labels, wl, "seed {seed}");
            assert!(b.io_time.seconds() > 0.0);
        }
    }

    #[test]
    fn stall_is_zero_when_compute_dominates() {
        assert_eq!(
            io_stall(SimTime::from_seconds(0.1), SimTime::from_seconds(0.5)).seconds(),
            0.0
        );
        assert!(
            (io_stall(SimTime::from_seconds(0.5), SimTime::from_seconds(0.1)).seconds() - 0.4)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn prefetcher_shuts_down_cleanly() {
        let ds = SyntheticImageNet::new(100);
        let io = IoModel::taihulight(Layout::paper_striped());
        let p = Prefetcher::spawn(ds, io, 1, 1, 1, 2, 2, 0);
        let _ = p.next().unwrap();
        drop(p); // must not hang
    }

    /// A reader whose backing storage loses a stripe partway through the
    /// epoch — the error must reach the consumer in stream order, after
    /// every batch read before it.
    struct FlakyDisk {
        fail_at: u64,
    }

    impl BatchReader for FlakyDisk {
        fn read(
            &mut self,
            seed: u64,
            _batch: usize,
            _c: usize,
            _h: usize,
            _w: usize,
            data: &mut [f32],
            _labels: &mut [f32],
        ) -> Result<(), String> {
            if seed == self.fail_at {
                return Err("lost stripe 3 of split 0".into());
            }
            data.fill(seed as f32);
            Ok(())
        }
    }

    #[test]
    fn reader_failure_is_surfaced_in_stream_order() {
        let io = IoModel::taihulight(Layout::paper_striped());
        let p = Prefetcher::spawn_reader(FlakyDisk { fail_at: 2 }, io, 1024, 1, 1, 1, 2, 2, 0);
        // `FlakyDisk` fills each batch with its seed.
        assert_eq!(p.next().unwrap().data, [0.0; 4]);
        assert_eq!(p.next().unwrap().data, [1.0; 4]);
        let err = p.next().unwrap_err();
        assert_eq!(err.seed, 2);
        assert!(err.msg.contains("lost stripe"), "{err}");
        assert!(String::from(err).contains("batch 2"));
        // The stream ended at the failure; later calls report it instead
        // of panicking, and dropping the prefetcher must not hang.
        assert!(p.next().is_err());
    }
}

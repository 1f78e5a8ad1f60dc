//! Shared-filesystem model (Sec. V-B).
//!
//! TaihuLight's filesystem defaults to *single-split* placement: a file
//! lives entirely on one disk array, so concurrent readers of the training
//! set pile onto that array and aggregate bandwidth stops scaling. The
//! paper's fix is striping: 32 stripes of 256 MB placed round-robin, so a
//! 192 MB mini-batch read touches at most two arrays and the reader load
//! per array drops to at most `2N/32`.

use sw26010::SimTime;

/// Data placement policy of the training-set file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Whole file on one disk array (system default).
    SingleSplit,
    /// Round-robin striping over `stripes` arrays with `split_bytes`
    /// blocks (paper: 32 stripes of 256 MB).
    Striped { stripes: usize, split_bytes: usize },
}

impl Layout {
    /// The paper's tuned layout.
    pub fn paper_striped() -> Layout {
        Layout::Striped {
            stripes: 32,
            split_bytes: 256 << 20,
        }
    }
}

/// The storage subsystem.
#[derive(Debug, Clone, Copy)]
pub struct IoModel {
    /// Disk arrays available to the job.
    pub(crate) arrays: usize,
    /// Sustained read bandwidth of one array (bytes/s).
    pub(crate) array_bandwidth: f64,
    /// Per-node NIC ceiling for filesystem traffic (bytes/s).
    pub(crate) nic_bandwidth: f64,
    pub(crate) layout: Layout,
}

impl IoModel {
    /// TaihuLight-like defaults: 32 arrays of 2.4 GB/s behind 12 GB/s NICs.
    pub fn taihulight(layout: Layout) -> Self {
        IoModel {
            arrays: 32,
            array_bandwidth: 2.4e9,
            nic_bandwidth: 12.0e9,
            layout,
        }
    }

    /// Arrays a single contiguous read of `bytes` touches.
    pub(crate) fn arrays_touched(&self, bytes: usize) -> usize {
        match self.layout {
            Layout::SingleSplit => 1,
            Layout::Striped {
                stripes,
                split_bytes,
            } => {
                // A contiguous range of `bytes` spans at most
                // ceil(bytes/split)+1 splits, each on a different array.
                (bytes / split_bytes + 2).min(stripes)
            }
        }
    }

    /// Concurrent readers per (touched) array when `nprocs` processes each
    /// issue one mini-batch read at independent offsets.
    pub(crate) fn readers_per_array(&self, nprocs: usize, bytes: usize) -> usize {
        match self.layout {
            // Everyone hits the single array holding the file.
            Layout::SingleSplit => nprocs,
            Layout::Striped { stripes, .. } => {
                let k = self.arrays_touched(bytes);
                (nprocs * k).div_ceil(stripes.min(self.arrays)).max(1)
            }
        }
    }

    /// Time for one process to read its `bytes` mini-batch while `nprocs`
    /// read concurrently. The read is spread over `arrays_touched` arrays
    /// in parallel, each delivering its fair share.
    pub fn batch_read_time(&self, nprocs: usize, bytes: usize) -> SimTime {
        let r = self.readers_per_array(nprocs, bytes) as f64;
        let k = self.arrays_touched(bytes) as f64;
        let bw = (k * self.array_bandwidth / r).min(self.nic_bandwidth);
        SimTime::from_seconds(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCH: usize = 192 << 20; // 192 MB (256 ImageNet images)

    /// Aggregate bandwidth across all processes (bytes/s) — the quantity
    /// whose collapse under single-split motivates Sec. V-B.
    fn aggregate_bandwidth(io: &IoModel, nprocs: usize, bytes: usize) -> f64 {
        let t = io.batch_read_time(nprocs, bytes).seconds();
        nprocs as f64 * bytes as f64 / t
    }

    #[test]
    fn single_split_saturates_one_array() {
        let io = IoModel::taihulight(Layout::SingleSplit);
        for n in [1, 8, 64, 512] {
            let agg = aggregate_bandwidth(&io, n, BATCH);
            assert!(
                agg <= io.array_bandwidth * 1.001,
                "single split exceeded one array: {agg} at {n} procs"
            );
        }
    }

    #[test]
    fn striped_scales_until_arrays_saturate() {
        let io = IoModel::taihulight(Layout::paper_striped());
        let a8 = aggregate_bandwidth(&io, 8, BATCH);
        let a64 = aggregate_bandwidth(&io, 64, BATCH);
        assert!(a64 > 3.0 * a8 || a64 > 0.8 * io.arrays as f64 * io.array_bandwidth);
        // Never exceeds total array capability.
        for n in [1, 32, 256, 1024] {
            let agg = aggregate_bandwidth(&io, n, BATCH);
            assert!(agg <= io.arrays as f64 * io.array_bandwidth * 1.001);
        }
    }

    #[test]
    fn striped_beats_single_split_at_scale() {
        let single = IoModel::taihulight(Layout::SingleSplit);
        let striped = IoModel::taihulight(Layout::paper_striped());
        let t_single = single.batch_read_time(1024, BATCH).seconds();
        let t_striped = striped.batch_read_time(1024, BATCH).seconds();
        assert!(
            t_striped < t_single / 10.0,
            "striped {t_striped}s vs single {t_single}s at 1024 procs"
        );
    }

    #[test]
    fn batch_touches_at_most_two_arrays() {
        // Paper: 192 MB consecutive read with 256 MB splits touches <= 2.
        let io = IoModel::taihulight(Layout::paper_striped());
        assert!(io.arrays_touched(BATCH) <= 2);
        // And reader load is at most 2N/32.
        let n = 1024;
        assert!(io.readers_per_array(n, BATCH) <= 2 * n / 32);
    }

    #[test]
    fn nic_caps_single_reader() {
        let io = IoModel {
            arrays: 32,
            array_bandwidth: 100.0e9, // hypothetical very fast arrays
            nic_bandwidth: 12.0e9,
            layout: Layout::paper_striped(),
        };
        let t = io.batch_read_time(1, BATCH).seconds();
        let implied = BATCH as f64 / t;
        assert!(implied <= 12.0e9 * 1.001);
    }
}

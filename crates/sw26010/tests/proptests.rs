//! Randomised-but-deterministic tests of the processor simulator:
//! cost-model sanity (monotonicity, bounds) and functional correctness of
//! mesh primitives under many shapes.
//!
//! Cases are drawn from a fixed-seed SplitMix64 stream instead of a
//! property-testing framework so the suite runs with zero external
//! dependencies and every failure reproduces exactly.

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, MemView, MemViewMut, RlcPattern};

/// Deterministic case generator (SplitMix64).
struct CaseRng {
    state: u64,
}

impl CaseRng {
    fn new(seed: u64) -> Self {
        CaseRng { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

#[test]
fn continuous_bandwidth_bounded_and_monotone() {
    let mut rng = CaseRng::new(0xC0FFEE);
    for _ in 0..24 {
        let size = rng.range(16, 64_000);
        let ncpes = rng.range(1, 65);
        let bw = dma::continuous_aggregate_bandwidth(size, ncpes);
        assert!(bw > 0.0);
        assert!(bw <= sw26010::arch::DMA_PEAK_BANDWIDTH * 1.0001);
        // Larger transfers never lose bandwidth.
        let bw2 = dma::continuous_aggregate_bandwidth(size * 2, ncpes);
        assert!(bw2 >= bw * 0.999, "{bw} -> {bw2}");
        // More CPEs never lose aggregate bandwidth.
        if ncpes < 64 {
            let bw3 = dma::continuous_aggregate_bandwidth(size, ncpes + 1);
            assert!(bw3 >= bw * 0.999);
        }
    }
}

#[test]
fn strided_never_beats_continuous() {
    let mut rng = CaseRng::new(0xBEEF);
    let mut cases = 0;
    while cases < 24 {
        let block = rng.range(4, 4096);
        let total = rng.range(1024, 32_768);
        let ncpes = rng.range(1, 65);
        if block > total {
            continue;
        }
        cases += 1;
        let strided = dma::strided_aggregate_bandwidth(block, total, ncpes);
        let continuous = dma::continuous_aggregate_bandwidth(total, ncpes);
        assert!(
            strided <= continuous * 1.0001,
            "strided {strided} > continuous {continuous}"
        );
    }
}

#[test]
fn dma_time_additive_in_requests() {
    let mut rng = CaseRng::new(0xD17A);
    for _ in 0..24 {
        let bytes = rng.range(64, 32_768);
        let ncpes = rng.range(1, 65);
        // Two requests cost strictly more than one request of double size
        // (the second start-up latency).
        let one = dma::continuous_time(2 * bytes, ncpes).seconds();
        let two = 2.0 * dma::continuous_time(bytes, ncpes).seconds();
        assert!(two > one);
    }
}

#[test]
fn mesh_scatter_gather_roundtrip() {
    let mut rng = CaseRng::new(0x5CA7);
    for _ in 0..12 {
        let ncpes = rng.range(1, 65);
        let per_cpe = rng.range(1, 128);
        // Every CPE stages its slice, negates it, writes it back; the
        // result must be the exact negation regardless of mesh size.
        let input: Vec<f32> = (0..ncpes * per_cpe).map(|i| i as f32 - 17.0).collect();
        let mut output = vec![0.0f32; input.len()];
        let src = MemView::new(&input);
        let dst = MemViewMut::new(&mut output);
        CoreGroup::new(ExecMode::Functional).run(ncpes, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(per_cpe);
            cpe.dma_get(src, cpe.idx() * per_cpe, &mut buf);
            cpe.compute(per_cpe as u64, || {
                for v in buf.iter_mut() {
                    *v = -*v;
                }
            });
            cpe.dma_put(dst, cpe.idx() * per_cpe, &buf);
        });
        for (o, i) in output.iter().zip(&input) {
            assert_eq!(*o, -i);
        }
    }
}

#[test]
fn mesh_row_rotation_is_a_permutation() {
    for shift in 1usize..8 {
        // Rotate values around each row by `shift` hops over the register
        // buses; the multiset of values per row must be preserved.
        let mut out = vec![0.0f32; 64];
        let view = MemViewMut::new(&mut out);
        let plan = KernelPlan::new("rotate", 64).rlc(RlcPattern::PointToPoint);
        CoreGroup::new(ExecMode::Functional).run_planned_async(&plan, async |cpe| {
            let mut val = [cpe.idx() as f64];
            let mut recv = [0.0f64];
            for _ in 0..shift {
                let dst = (cpe.col() + 1) % 8;
                let src = (cpe.col() + 7) % 8;
                cpe.rlc_row_send(dst, &val).await;
                cpe.rlc_row_recv(src, &mut recv).await;
                val[0] = recv[0];
            }
            cpe.dma_put(view, cpe.idx(), &[val[0] as f32]);
        });
        for row in 0..8 {
            let mut vals: Vec<i32> = out[row * 8..][..8].iter().map(|v| *v as i32).collect();
            vals.sort_unstable();
            let want: Vec<i32> = (0..8).map(|c| (row * 8 + c) as i32).collect();
            assert_eq!(vals, want, "row {row} lost values");
        }
    }
}

#[test]
fn timing_equals_between_modes_for_symmetric_kernels() {
    let mut rng = CaseRng::new(0x71FE);
    for _ in 0..12 {
        let ncpes = rng.range(1, 65);
        let elems = rng.range(1, 512);
        let flops = rng.range(1, 10_000) as u64;
        let data = vec![1.0f32; ncpes * elems];
        let src = MemView::new(&data);
        let plan = KernelPlan::new("symmetric", ncpes).rlc(RlcPattern::PointToPoint);
        let run = |mode| {
            CoreGroup::new(mode).run_planned_async(&plan, async |cpe| {
                let mut buf = cpe.ldm.alloc_f32(elems);
                cpe.dma_get(src, cpe.idx() * elems, &mut buf);
                cpe.charge_flops(flops);
                cpe.sync().await;
            })
        };
        let f = run(ExecMode::Functional);
        let t = run(ExecMode::TimingOnly);
        assert!((f.elapsed.seconds() - t.elapsed.seconds()).abs() < 1e-15);
        assert_eq!(f.stats.flops, t.stats.flops);
        assert_eq!(f.stats.dma_get_bytes, t.stats.dma_get_bytes);
    }
}

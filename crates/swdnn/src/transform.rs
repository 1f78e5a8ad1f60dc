//! Tensor-transformation layer (Sec. IV-C).
//!
//! The explicit plan (and every other layer) uses Caffe's default NCHW
//! layout `(B, N, R, C)`; the implicit plan needs `(R, C, N, B)` so that
//! the (channel, batch) fibre at a pixel is a contiguous matrix block.
//! swCaffe inserts a transformation layer around runs of implicit-plan
//! convolutions. The movement is irregular, so it runs on the CPE cluster
//! as strided DMA plus in-LDM transposes (standing in for the SIMD shuffle
//! sequence on silicon).
//!
//! Filters `(N_o, N_i, K, K)` -> `(K, K, N_o, N_i)` are converted once at
//! layer setup (host-side helper, not charged — the paper treats filter
//! layout as layer-local state).

use sw26010::{dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime};

/// Dimensions of an NCHW <-> RCNB transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransShape {
    pub batch: usize,
    pub channels: usize,
    pub height: usize,
    pub width: usize,
}

impl TransShape {
    pub fn len(&self) -> usize {
        self.batch * self.channels * self.height * self.width
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Batch-chunk size: how many images' worth of a row fit in a 16 KB LDM
/// staging buffer.
fn batch_chunk(shape: &TransShape) -> usize {
    let per_b = shape.width * 4;
    (16 * 1024 / per_b).clamp(1, shape.batch)
}

/// Static LDM descriptor of both layout-transform kernels (they allocate
/// the same staging pair).
pub fn kernel_plan(name: &str, shape: &TransShape) -> KernelPlan {
    let bc = batch_chunk(shape);
    KernelPlan::new(name, 64)
        .buffer("buf", shape.width * bc * 4)
        .buffer("out", shape.width * bc * 4)
}

/// NCHW -> RCNB on the CPE cluster.
pub fn nchw_to_rcnb(
    cg: &mut CoreGroup,
    shape: &TransShape,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, time_model(shape));
    }
    let (input, output) = io.expect("functional transform requires operands");
    assert_eq!(input.len(), shape.len());
    assert_eq!(output.len(), shape.len());
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let planes: Vec<_> = output.chunks_mut(w * n_tot * b_tot).enumerate().collect();
        cg.workers().run(planes, |(y, plane)| {
            for x in 0..w {
                for n in 0..n_tot {
                    for bi in 0..b_tot {
                        plane[(x * n_tot + n) * b_tot + bi] =
                            input[((bi * n_tot + n) * h + y) * w + x];
                    }
                }
            }
        });
        return LaunchReport::default();
    }
    let bc = batch_chunk(shape);
    let src = MemView::new(input);
    let dst = MemViewMut::new(output);
    let items = h * n_tot;
    cg.run_planned(&kernel_plan("swdnn.nchw_to_rcnb", shape), move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(w * bc);
        let mut out = cpe.ldm.alloc_f32(w * bc);
        let mut item = cpe.idx();
        while item < items {
            let y = item / n_tot;
            let n = item % n_tot;
            let mut b0 = 0;
            while b0 < b_tot {
                let cb = bc.min(b_tot - b0);
                // Gather rows [b0..b0+cb][n][y][:] (stride N*H*W between images).
                cpe.dma_get_strided(
                    src,
                    ((b0 * n_tot + n) * h + y) * w,
                    w,
                    n_tot * h * w,
                    cb,
                    &mut buf,
                );
                // Transpose (cb x w) -> (w x cb) in LDM (SIMD shuffles).
                cpe.compute((w * cb) as u64, || {
                    for bi in 0..cb {
                        for x in 0..w {
                            out[x * cb + bi] = buf[bi * w + x];
                        }
                    }
                });
                // Scatter to [y][x][n][b0..b0+cb] (stride N*B between x's).
                cpe.dma_put_strided(
                    dst,
                    (y * w * n_tot + n) * b_tot + b0,
                    cb,
                    n_tot * b_tot,
                    w,
                    &out[..w * cb],
                );
                b0 += cb;
            }
            item += 64;
        }
    })
}

/// RCNB -> NCHW on the CPE cluster.
pub fn rcnb_to_nchw(
    cg: &mut CoreGroup,
    shape: &TransShape,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, time_model(shape));
    }
    let (input, output) = io.expect("functional transform requires operands");
    assert_eq!(input.len(), shape.len());
    assert_eq!(output.len(), shape.len());
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let imgs: Vec<_> = output.chunks_mut(h * w).enumerate().collect();
        cg.workers().run(imgs, |(img, out)| {
            let (bi, n) = (img / n_tot, img % n_tot);
            for y in 0..h {
                for x in 0..w {
                    out[y * w + x] = input[((y * w + x) * n_tot + n) * b_tot + bi];
                }
            }
        });
        return LaunchReport::default();
    }
    let bc = batch_chunk(shape);
    let src = MemView::new(input);
    let dst = MemViewMut::new(output);
    let items = h * n_tot;
    cg.run_planned(&kernel_plan("swdnn.rcnb_to_nchw", shape), move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(w * bc);
        let mut out = cpe.ldm.alloc_f32(w * bc);
        let mut item = cpe.idx();
        while item < items {
            let y = item / n_tot;
            let n = item % n_tot;
            let mut b0 = 0;
            while b0 < b_tot {
                let cb = bc.min(b_tot - b0);
                // Gather [y][x][n][b0..b0+cb] for all x.
                cpe.dma_get_strided(
                    src,
                    (y * w * n_tot + n) * b_tot + b0,
                    cb,
                    n_tot * b_tot,
                    w,
                    &mut buf[..w * cb],
                );
                // Transpose (w x cb) -> (cb x w).
                cpe.compute((w * cb) as u64, || {
                    for x in 0..w {
                        for bi in 0..cb {
                            out[bi * w + x] = buf[x * cb + bi];
                        }
                    }
                });
                // Scatter rows to [b][n][y][:].
                cpe.dma_put_strided(
                    dst,
                    ((b0 * n_tot + n) * h + y) * w,
                    w,
                    n_tot * h * w,
                    cb,
                    &out[..w * cb],
                );
                b0 += cb;
            }
            item += 64;
        }
    })
}

/// Closed-form duration of either direction of the transform.
pub fn time_model(shape: &TransShape) -> SimTime {
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    let bc = batch_chunk(shape);
    let chunks = b_tot.div_ceil(bc);
    let per_chunk = dma::strided_time(w * 4, bc, 64).seconds()
        + crate::gemm_flop_time((w * bc) as u64).seconds()
        + dma::strided_time(bc * 4, w, 64).seconds();
    let per_item = chunks as f64 * per_chunk;
    let per_cpe = (h * n_tot).div_ceil(64) as f64 * per_item;
    SimTime::from_seconds(sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + per_cpe)
}

/// Host-side reference / setup helper: NCHW -> RCNB.
pub fn nchw_to_rcnb_host(shape: &TransShape, input: &[f32], output: &mut [f32]) {
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    for b in 0..b_tot {
        for n in 0..n_tot {
            for y in 0..h {
                for x in 0..w {
                    output[((y * w + x) * n_tot + n) * b_tot + b] =
                        input[((b * n_tot + n) * h + y) * w + x];
                }
            }
        }
    }
}

/// Host-side reference / setup helper: RCNB -> NCHW.
pub fn rcnb_to_nchw_host(shape: &TransShape, input: &[f32], output: &mut [f32]) {
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    for b in 0..b_tot {
        for n in 0..n_tot {
            for y in 0..h {
                for x in 0..w {
                    output[((b * n_tot + n) * h + y) * w + x] =
                        input[((y * w + x) * n_tot + n) * b_tot + b];
                }
            }
        }
    }
}

/// Filter layout conversion `(N_o, N_i, K, K)` -> `(K, K, N_o, N_i)`,
/// done once at layer setup.
pub fn filters_oikk_to_kkon(no: usize, ni: usize, k: usize, w: &[f32]) -> Vec<f32> {
    assert_eq!(w.len(), no * ni * k * k);
    let mut out = vec![0.0f32; w.len()];
    for o in 0..no {
        for i in 0..ni {
            for ky in 0..k {
                for kx in 0..k {
                    out[((ky * k + kx) * no + o) * ni + i] = w[((o * ni + i) * k + ky) * k + kx];
                }
            }
        }
    }
    out
}

/// Inverse filter layout conversion `(K, K, N_o, N_i)` -> `(N_o, N_i, K, K)`:
/// the independent oracle that the layout and implicit-dW tests read
/// `(K, K, N_o, N_i)` results back through.
#[cfg(test)]
pub(crate) fn filters_kkon_to_oikk(no: usize, ni: usize, k: usize, w: &[f32]) -> Vec<f32> {
    assert_eq!(w.len(), no * ni * k * k);
    let mut out = vec![0.0f32; w.len()];
    for o in 0..no {
        for i in 0..ni {
            for ky in 0..k {
                for kx in 0..k {
                    out[((o * ni + i) * k + ky) * k + kx] = w[((ky * k + kx) * no + o) * ni + i];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::ExecMode;

    fn pattern(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 17) % 101) as f32 - 50.0).collect()
    }

    #[test]
    fn mesh_transform_matches_host() {
        let shape = TransShape {
            batch: 6,
            channels: 5,
            height: 7,
            width: 9,
        };
        let input = pattern(shape.len());
        let mut want = vec![0.0; shape.len()];
        nchw_to_rcnb_host(&shape, &input, &mut want);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut got = vec![f32::NAN; shape.len()];
            nchw_to_rcnb(&mut cg, &shape, Some((&input, &mut got)));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mesh_inverse_matches_host() {
        let shape = TransShape {
            batch: 6,
            channels: 5,
            height: 7,
            width: 9,
        };
        let rcnb = pattern(shape.len());
        let mut want = vec![0.0; shape.len()];
        rcnb_to_nchw_host(&shape, &rcnb, &mut want);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut got = vec![f32::NAN; shape.len()];
            rcnb_to_nchw(&mut cg, &shape, Some((&rcnb, &mut got)));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let shape = TransShape {
            batch: 3,
            channels: 4,
            height: 6,
            width: 6,
        };
        let input = pattern(shape.len());
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut mid = vec![0.0; shape.len()];
            let mut back = vec![0.0; shape.len()];
            nchw_to_rcnb(&mut cg, &shape, Some((&input, &mut mid)));
            rcnb_to_nchw(&mut cg, &shape, Some((&mid, &mut back)));
            assert_eq!(back, input);
        }
    }

    #[test]
    fn chunking_handles_wide_rows() {
        // width*batch*4 > 16 KB forces multiple batch chunks.
        let shape = TransShape {
            batch: 40,
            channels: 2,
            height: 3,
            width: 224,
        };
        assert!(batch_chunk(&shape) < shape.batch);
        let input = pattern(shape.len());
        let mut got = vec![f32::NAN; shape.len()];
        let mut want = vec![0.0; shape.len()];
        nchw_to_rcnb_host(&shape, &input, &mut want);
        let mut cg = CoreGroup::new(ExecMode::Functional);
        nchw_to_rcnb(&mut cg, &shape, Some((&input, &mut got)));
        assert_eq!(got, want);
    }

    #[test]
    fn filter_roundtrip() {
        let (no, ni, k) = (6, 5, 3);
        let w = pattern(no * ni * k * k);
        let kkon = filters_oikk_to_kkon(no, ni, k, &w);
        assert_eq!(filters_kkon_to_oikk(no, ni, k, &kkon), w);
        // Spot-check one element.
        assert_eq!(
            kkon[((k + 2) * no + 4) * ni + 3],
            w[((4 * ni + 3) * k + 1) * k + 2]
        );
    }

    #[test]
    fn model_matches_mesh() {
        let shape = TransShape {
            batch: 16,
            channels: 32,
            height: 14,
            width: 14,
        };
        let input = pattern(shape.len());
        let mut out = vec![0.0; shape.len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = nchw_to_rcnb(&mut cg, &shape, Some((&input, &mut out)));
        let model = time_model(&shape);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn timing_mode_charges_model() {
        let shape = TransShape {
            batch: 64,
            channels: 128,
            height: 56,
            width: 56,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let r = nchw_to_rcnb(&mut cg, &shape, None);
        assert_eq!(r.elapsed, time_model(&shape));
    }
}

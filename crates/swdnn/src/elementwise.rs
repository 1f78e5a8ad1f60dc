//! Element-wise kernels: ReLU, dropout-mask application, element sums,
//! scalar AXPY, and per-channel bias/scale application.
//!
//! All of these stream flat arrays through LDM in large chunks — the
//! textbook Principle 2/3 pattern (DMA in, vector op, DMA out, blocks of
//! several KB per CPE).

use sw26010::{
    dma, CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, SimTime, Workers,
};

/// Elements each CPE stages per chunk (16 KB of f32 — large enough to
/// amortise the DMA start-up latency per Fig. 2).
pub const CHUNK: usize = 4096;

/// Static LDM descriptor of a streaming kernel with `streams` staging
/// buffers of `CHUNK` f32 elements each.
pub fn stream_plan(name: &str, streams: usize) -> KernelPlan {
    let mut p = KernelPlan::new(name, 64);
    for s in 0..streams {
        p = p.buffer(format!("stream{s}"), CHUNK * 4);
    }
    p
}

/// Static LDM descriptor of the bias forward kernel (full bias vector
/// plus one row chunk).
pub fn bias_forward_plan(channels: usize, spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bias.fwd", 64)
        .buffer("bias", channels * 4)
        .buffer("buf", row_chunk * 4)
}

/// Static LDM descriptor of the bias backward kernel.
pub fn bias_backward_plan(spatial: usize) -> KernelPlan {
    let row_chunk = CHUNK.min(spatial.max(1));
    KernelPlan::new("swdnn.bias.bwd", 64).buffer("buf", row_chunk * 4)
}

/// Static LDM descriptor of the row-broadcast bias kernel.
pub fn bias_rows_plan(row_len: usize) -> KernelPlan {
    let chunk = CHUNK.min(row_len);
    KernelPlan::new("swdnn.bias.rows", 64)
        .buffer("bias", chunk * 4)
        .buffer("buf", chunk * 4)
}

/// Columns per strided chunk in [`col_sums`].
const COL_CHUNK: usize = 64;

/// Static LDM descriptor of the column-sum kernel (a row-group staging
/// buffer plus a column accumulator).
pub fn col_sums_plan() -> KernelPlan {
    let row_group = (CHUNK / COL_CHUNK).max(1);
    KernelPlan::new("swdnn.col_sums", 64)
        .buffer("buf", row_group * COL_CHUNK * 4)
        .buffer("acc", COL_CHUNK * 4)
}

/// Static LDM descriptor of the strided block-copy kernel.
pub fn copy_blocks_plan(block_len: usize) -> KernelPlan {
    let chunk = CHUNK.min(block_len.max(1));
    KernelPlan::new("swdnn.copy_blocks", 64).buffer("buf", chunk * 4)
}

/// Generic one-input one-output streaming map. `flops_per_elem` is charged
/// per element processed.
pub fn unary_map(
    cg: &mut CoreGroup,
    len: usize,
    flops_per_elem: u64,
    io: Option<(&[f32], &mut [f32])>,
    f: impl Fn(f32) -> f32 + Sync,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, stream_time(len, 1, 1, flops_per_elem));
    }
    let (input, output) = io.expect("functional map requires operands");
    assert_eq!(input.len(), len);
    assert_eq!(output.len(), len);
    if let ExecMode::HostNative { .. } = cg.mode() {
        host_pieces(cg.workers(), output, |at, ys| {
            for (y, x) in ys.iter_mut().zip(&input[at..]) {
                *y = f(*x);
            }
        });
        return LaunchReport::default();
    }
    let (src, dst) = (MemView::new(input), MemViewMut::new(output));
    map1(cg, "swdnn.unary_map", len, flops_per_elem, src, dst, f)
}

/// Generic two-input one-output streaming map.
pub fn binary_map(
    cg: &mut CoreGroup,
    len: usize,
    flops_per_elem: u64,
    io: Option<(&[f32], &[f32], &mut [f32])>,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, stream_time(len, 2, 1, flops_per_elem));
    }
    let (a, b, out) = io.expect("functional map requires operands");
    assert_eq!(a.len(), len);
    assert_eq!(b.len(), len);
    assert_eq!(out.len(), len);
    if let ExecMode::HostNative { .. } = cg.mode() {
        host_pieces(cg.workers(), out, |at, os| {
            for ((o, a), b) in os.iter_mut().zip(&a[at..]).zip(&b[at..]) {
                *o = f(*a, *b);
            }
        });
        return LaunchReport::default();
    }
    let (av, bv, dst) = (MemView::new(a), MemView::new(b), MemViewMut::new(out));
    map2(cg, "swdnn.binary_map", len, flops_per_elem, av, bv, dst, f)
}

/// The host side of the streaming kernels: `f(start, piece)` on each
/// `CHUNK`-element piece of `out`, in parallel.
fn host_pieces(workers: &mut Workers, out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let pieces: Vec<_> = out.chunks_mut(CHUNK).enumerate().collect();
    workers.run(pieces, |(i, piece)| f(i * CHUNK, piece));
}

/// The mesh side of the one-input streaming kernels: `dst = f(src)`,
/// `CHUNK` pieces dealt round-robin to the CPEs. `src` may view `dst`.
fn map1(
    cg: &mut CoreGroup,
    name: &str,
    len: usize,
    flops_per_elem: u64,
    src: MemView<'_>,
    dst: MemViewMut<'_>,
    f: impl Fn(f32) -> f32 + Sync,
) -> LaunchReport {
    let f = &f;
    cg.run_planned(&stream_plan(name, 1), move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(CHUNK);
        let mut start = cpe.idx() * CHUNK;
        while start < len {
            let n = CHUNK.min(len - start);
            cpe.dma_get(src, start, &mut buf[..n]);
            cpe.compute((n as u64) * flops_per_elem.max(1), || {
                for v in buf[..n].iter_mut() {
                    *v = f(*v);
                }
            });
            cpe.dma_put(dst, start, &buf[..n]);
            start += 64 * CHUNK;
        }
    })
}

/// The mesh side of the two-input streaming kernels: `dst = f(a, b)`.
/// `a` or `b` may view `dst`.
#[allow(clippy::too_many_arguments)]
fn map2(
    cg: &mut CoreGroup,
    name: &str,
    len: usize,
    flops_per_elem: u64,
    a: MemView<'_>,
    b: MemView<'_>,
    dst: MemViewMut<'_>,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> LaunchReport {
    let f = &f;
    cg.run_planned(&stream_plan(name, 2), move |cpe| {
        let mut abuf = cpe.ldm.alloc_f32(CHUNK);
        let mut bbuf = cpe.ldm.alloc_f32(CHUNK);
        let mut start = cpe.idx() * CHUNK;
        while start < len {
            let n = CHUNK.min(len - start);
            cpe.dma_get(a, start, &mut abuf[..n]);
            cpe.dma_get(b, start, &mut bbuf[..n]);
            cpe.compute((n as u64) * flops_per_elem.max(1), || {
                for (x, y) in abuf[..n].iter_mut().zip(&bbuf[..n]) {
                    *x = f(*x, *y);
                }
            });
            cpe.dma_put(dst, start, &abuf[..n]);
            start += 64 * CHUNK;
        }
    })
}

/// Duration of a streaming kernel over `len` elements with `reads` input
/// streams and `writes` output streams.
pub(crate) fn stream_time(len: usize, reads: usize, writes: usize, flops_per_elem: u64) -> SimTime {
    // Chunk-exact: walk the makespan CPE's (CPE 0's) actual chunk
    // sequence, so small tensors are not billed for full 16 KB chunks.
    let mut t = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS;
    let mut off = 0;
    while off < len {
        let n = CHUNK.min(len - off);
        t += (reads + writes) as f64 * dma::continuous_time(n * 4, 64).seconds()
            + crate::gemm_flop_time(n as u64 * flops_per_elem.max(1)).seconds();
        off += 64 * CHUNK;
    }
    SimTime::from_seconds(t)
}

/// Duration of a row-wise streaming kernel, excluding the launch
/// overhead: the makespan CPE handles `ceil(rows/64)` rows, each streamed
/// in `chunk`-element pieces with `streams` DMA transfers per piece.
pub(crate) fn row_stream_time(
    rows: usize,
    row_len: usize,
    chunk: usize,
    streams: usize,
    flops_per_elem: u64,
) -> f64 {
    rows.div_ceil(64) as f64 * chunk_walk_time(row_len, chunk, streams, flops_per_elem)
}

/// Cost of streaming one `row_len`-element row in `chunk`-sized pieces.
pub(crate) fn chunk_walk_time(
    row_len: usize,
    chunk: usize,
    streams: usize,
    flops_per_elem: u64,
) -> f64 {
    let chunk = chunk.max(1);
    let mut per_row = 0.0;
    let mut off = 0;
    while off < row_len {
        let n = chunk.min(row_len - off);
        per_row += streams as f64 * dma::continuous_time(n * 4, 64).seconds()
            + crate::gemm_flop_time(n as u64 * flops_per_elem).seconds();
        off += n;
    }
    per_row
}

/// ReLU of one element.
pub(crate) fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// ReLU forward: `y = max(0, x)`.
pub fn relu_forward(
    cg: &mut CoreGroup,
    len: usize,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    unary_map(cg, len, 1, io, relu)
}

/// ReLU backward: `dx = dy * [x > 0]`.
pub fn relu_backward(
    cg: &mut CoreGroup,
    len: usize,
    io: Option<(&[f32], &[f32], &mut [f32])>,
) -> LaunchReport {
    binary_map(cg, len, 1, io, |dy, x| if x > 0.0 { dy } else { 0.0 })
}

/// Dropout application: `y = x * mask` where the (already scaled) mask was
/// drawn by the framework.
pub fn apply_mask(
    cg: &mut CoreGroup,
    len: usize,
    io: Option<(&[f32], &[f32], &mut [f32])>,
) -> LaunchReport {
    binary_map(cg, len, 1, io, |x, m| x * m)
}

/// Element-wise sum `out = a + b` (ResNet shortcut joins).
pub fn add(
    cg: &mut CoreGroup,
    len: usize,
    io: Option<(&[f32], &[f32], &mut [f32])>,
) -> LaunchReport {
    binary_map(cg, len, 1, io, |a, b| a + b)
}

/// `y += alpha * x` (SGD updates, gradient accumulation).
pub fn axpy(
    cg: &mut CoreGroup,
    len: usize,
    alpha: f32,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, stream_time(len, 2, 1, 2));
    }
    let (x, y) = io.expect("functional axpy requires operands");
    assert_eq!(x.len(), len);
    assert_eq!(y.len(), len);
    let f = move |x: f32, y: f32| y + alpha * x;
    if let ExecMode::HostNative { .. } = cg.mode() {
        host_pieces(cg.workers(), y, |at, ys| {
            for (y, x) in ys.iter_mut().zip(&x[at..]) {
                *y = f(*x, *y);
            }
        });
        return LaunchReport::default();
    }
    let yv = MemViewMut::new(y);
    map2(
        cg,
        "swdnn.axpy",
        len,
        2,
        MemView::new(x),
        yv.as_view(),
        yv,
        f,
    )
}

/// `row += b` in f32: the arithmetic of the per-channel bias add.
pub(crate) fn add_bias(row: &mut [f32], b: f32) {
    for v in row {
        *v += b;
    }
}

/// `acc += v` element by element in f32: the arithmetic of the row-bias
/// add and of the column sums.
pub(crate) fn add_assign(acc: &mut [f32], v: &[f32]) {
    for (a, v) in acc.iter_mut().zip(v) {
        *a += *v;
    }
}

/// Sum of one staged chunk, widened to f64.
pub(crate) fn sum_f64(chunk: &[f32]) -> f64 {
    chunk.iter().map(|v| *v as f64).sum()
}

/// Sum of squares of one staged chunk, in f64.
fn sumsq_f64(chunk: &[f32]) -> f64 {
    chunk.iter().map(|v| *v as f64 * *v as f64).sum()
}

/// Per-channel bias add on an NCHW tensor: `y[b,c,:] = x[b,c,:] + bias[c]`.
/// Each CPE stages the bias vector once, then streams its rows.
pub fn bias_forward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    spatial: usize,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    let len = batch * channels * spatial;
    if !cg.mode().is_functional() {
        let t = SimTime::from_seconds(
            sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
                + dma::continuous_time(channels * 4, 64).seconds()
                + row_stream_time(batch * channels, spatial, CHUNK, 2, 1),
        );
        return crate::charge_model(cg, t);
    }
    let (bias, data) = io.expect("functional bias requires operands");
    assert_eq!(bias.len(), channels);
    assert_eq!(data.len(), len);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let rows: Vec<_> = data.chunks_mut(spatial.max(1)).enumerate().collect();
        cg.workers()
            .run(rows, |(row, drow)| add_bias(drow, bias[row % channels]));
        return LaunchReport::default();
    }
    let bv = MemView::new(bias);
    let dv = MemViewMut::new(data);
    let rows = batch * channels;
    cg.run_planned(&bias_forward_plan(channels, spatial), move |cpe| {
        let mut bbuf = cpe.ldm.alloc_f32(channels);
        cpe.dma_get(bv, 0, &mut bbuf);
        let row_chunk = CHUNK.min(spatial.max(1));
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let mut row = cpe.idx();
        while row < rows {
            let c = row % channels;
            let mut off = 0;
            while off < spatial {
                let n = row_chunk.min(spatial - off);
                cpe.dma_get(dv.as_view(), row * spatial + off, &mut buf[..n]);
                cpe.compute(n as u64, || add_bias(&mut buf[..n], bbuf[c]));
                cpe.dma_put(dv, row * spatial + off, &buf[..n]);
                off += n;
            }
            row += 64;
        }
    })
}

/// Per-channel bias gradient: `db[c] = sum over (b, spatial) of dy[b,c,:]`.
/// Channel `c` is owned by CPE `c % 64`, so accumulation never collides.
pub fn bias_backward(
    cg: &mut CoreGroup,
    batch: usize,
    channels: usize,
    spatial: usize,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    let len = batch * channels * spatial;
    if !cg.mode().is_functional() {
        let per_channel = batch as f64 * chunk_walk_time(spatial, CHUNK, 1, 1)
            + dma::continuous_time(4, 64).seconds();
        let t = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
            + channels.div_ceil(64) as f64 * per_channel;
        return crate::charge_model(cg, SimTime::from_seconds(t));
    }
    let (dy, db) = io.expect("functional bias requires operands");
    assert_eq!(dy.len(), len);
    assert_eq!(db.len(), channels);
    let row_chunk = CHUNK.min(spatial.max(1));
    if let ExecMode::HostNative { .. } = cg.mode() {
        let chans: Vec<_> = db.iter_mut().enumerate().collect();
        cg.workers().run(chans, |(c, out)| {
            let mut acc = 0.0f64;
            for b in 0..batch {
                for chunk in dy[(b * channels + c) * spatial..][..spatial].chunks(row_chunk) {
                    acc += sum_f64(chunk);
                }
            }
            *out = acc as f32;
        });
        return LaunchReport::default();
    }
    let dyv = MemView::new(dy);
    let dbv = MemViewMut::new(db);
    cg.run_planned(&bias_backward_plan(spatial), move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(row_chunk);
        let mut c = cpe.idx();
        while c < channels {
            let mut acc = 0.0f64;
            for b in 0..batch {
                let mut off = 0;
                while off < spatial {
                    let n = row_chunk.min(spatial - off);
                    cpe.dma_get(dyv, (b * channels + c) * spatial + off, &mut buf[..n]);
                    acc += cpe.compute(n as u64, || sum_f64(&buf[..n]));
                    off += n;
                }
            }
            cpe.dma_put(dbv, c, &[acc as f32]);
            c += 64;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::ExecMode;

    fn pattern(len: usize, seed: i64) -> Vec<f32> {
        (0..len)
            .map(|i| (((i as i64 * 37 + seed) % 21) - 10) as f32 * 0.5)
            .collect()
    }

    #[test]
    fn relu_roundtrip() {
        let x = pattern(10_000, 0);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut y = vec![0.0; x.len()];
            relu_forward(&mut cg, x.len(), Some((&x, &mut y)));
            for (xi, yi) in x.iter().zip(&y) {
                assert_eq!(*yi, xi.max(0.0));
            }
            let dy = pattern(x.len(), 3);
            let mut dx = vec![0.0; x.len()];
            relu_backward(&mut cg, x.len(), Some((&dy, &x, &mut dx)));
            for i in 0..x.len() {
                assert_eq!(dx[i], if x[i] > 0.0 { dy[i] } else { 0.0 });
            }
        }
    }

    #[test]
    fn add_and_axpy() {
        let a = pattern(5000, 1);
        let b = pattern(5000, 2);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut out = vec![0.0; 5000];
            add(&mut cg, 5000, Some((&a, &b, &mut out)));
            for i in 0..5000 {
                assert_eq!(out[i], a[i] + b[i]);
            }
            let mut y = b.clone();
            axpy(&mut cg, 5000, -0.5, Some((&a, &mut y)));
            for i in 0..5000 {
                assert!((y[i] - (b[i] - 0.5 * a[i])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bias_forward_and_backward() {
        let (batch, channels, spatial) = (3, 5, 70);
        let bias = pattern(channels, 4);
        let x = pattern(batch * channels * spatial, 5);
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut data = x.clone();
            bias_forward(&mut cg, batch, channels, spatial, Some((&bias, &mut data)));
            for b in 0..batch {
                for (c, bc) in bias.iter().enumerate() {
                    for s in 0..spatial {
                        let i = (b * channels + c) * spatial + s;
                        assert_eq!(data[i], x[i] + bc);
                    }
                }
            }
            let mut db = vec![0.0; channels];
            bias_backward(&mut cg, batch, channels, spatial, Some((&data, &mut db)));
            for c in 0..channels {
                let want: f32 = (0..batch)
                    .flat_map(|b| {
                        let data = &data;
                        (0..spatial).map(move |s| data[(b * channels + c) * spatial + s])
                    })
                    .sum();
                assert!(
                    (db[c] - want).abs() < 1e-3,
                    "channel {c}: {} vs {want}",
                    db[c]
                );
            }
        }
    }

    #[test]
    fn timing_mode_charges_stream_model() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let r = relu_forward(&mut cg, 1 << 20, None);
        assert_eq!(r.elapsed, stream_time(1 << 20, 1, 1, 1));
        assert!(r.elapsed.seconds() > 0.0);
    }

    #[test]
    fn stream_model_matches_mesh() {
        let len = 300_000;
        let x = vec![1.0f32; len];
        let mut y = vec![0.0f32; len];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = relu_forward(&mut cg, len, Some((&x, &mut y)));
        let model = stream_time(len, 1, 1, 1);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn mask_apply() {
        let x = pattern(2000, 6);
        let mask: Vec<f32> = (0..2000)
            .map(|i| if i % 3 == 0 { 0.0 } else { 1.5 })
            .collect();
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut y = vec![0.0; 2000];
            apply_mask(&mut cg, 2000, Some((&x, &mask, &mut y)));
            for i in 0..2000 {
                assert_eq!(y[i], x[i] * mask[i]);
            }
        }
    }
}

/// Row-broadcast bias add: `data[r, :] += bias[:]` for `rows` rows of
/// `row_len` (inner-product layers). Each CPE stages the bias vector once.
pub fn bias_rows(
    cg: &mut CoreGroup,
    rows: usize,
    row_len: usize,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        // 3 DMA streams per chunk: bias get, data get, data put.
        let t = SimTime::from_seconds(
            sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
                + row_stream_time(rows, row_len, CHUNK, 3, 1),
        );
        return crate::charge_model(cg, t);
    }
    let (bias, data) = io.expect("functional bias requires operands");
    assert_eq!(bias.len(), row_len);
    assert_eq!(data.len(), rows * row_len);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let tasks: Vec<_> = data.chunks_mut(row_len.max(1)).collect();
        cg.workers().run(tasks, |drow| add_assign(drow, bias));
        return LaunchReport::default();
    }
    let bv = MemView::new(bias);
    let dv = MemViewMut::new(data);
    cg.run_planned(&bias_rows_plan(row_len), move |cpe| {
        let chunk = CHUNK.min(row_len);
        let mut bbuf = cpe.ldm.alloc_f32(chunk);
        let mut buf = cpe.ldm.alloc_f32(chunk);
        let mut row = cpe.idx();
        while row < rows {
            let mut off = 0;
            while off < row_len {
                let n = chunk.min(row_len - off);
                cpe.dma_get(bv, off, &mut bbuf[..n]);
                cpe.dma_get(dv.as_view(), row * row_len + off, &mut buf[..n]);
                cpe.compute(n as u64, || add_assign(&mut buf[..n], &bbuf[..n]));
                cpe.dma_put(dv, row * row_len + off, &buf[..n]);
                off += n;
            }
            row += 64;
        }
    })
}

/// Column sums of a row-major `rows x cols` matrix: `out[c] = sum_r m[r, c]`
/// (inner-product bias gradients), a running f32 sum over ascending rows.
/// Column chunks are owned by single CPEs, so accumulation never collides.
pub fn col_sums(
    cg: &mut CoreGroup,
    rows: usize,
    cols: usize,
    io: Option<(&[f32], &mut [f32])>,
) -> LaunchReport {
    if !cg.mode().is_functional() {
        let chunks = cols.div_ceil(COL_CHUNK);
        // One strided get per chunk covers all rows.
        let per_chunk = dma::strided_time(COL_CHUNK * 4, rows, 64).seconds()
            + crate::gemm_flop_time((rows * COL_CHUNK) as u64).seconds()
            + dma::continuous_time(COL_CHUNK * 4, 64).seconds();
        let t =
            sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS + chunks.div_ceil(64) as f64 * per_chunk;
        return crate::charge_model(cg, SimTime::from_seconds(t));
    }
    let (m, out) = io.expect("functional col_sums requires operands");
    assert_eq!(m.len(), rows * cols);
    assert_eq!(out.len(), cols);
    if let ExecMode::HostNative { .. } = cg.mode() {
        let chunks: Vec<_> = out.chunks_mut(COL_CHUNK).enumerate().collect();
        cg.workers().run(chunks, |(chunk, acc)| {
            acc.fill(0.0);
            for row in m.chunks_exact(cols) {
                add_assign(acc, &row[chunk * COL_CHUNK..]);
            }
        });
        return LaunchReport::default();
    }
    let mv = MemView::new(m);
    let ov = MemViewMut::new(out);
    let chunks = cols.div_ceil(COL_CHUNK);
    cg.run_planned(&col_sums_plan(), move |cpe| {
        // Stage rows in groups so the buffer stays bounded.
        let row_group = (CHUNK / COL_CHUNK).max(1);
        let mut buf = cpe.ldm.alloc_f32(row_group * COL_CHUNK);
        let mut acc = cpe.ldm.alloc_f32(COL_CHUNK);
        let mut chunk = cpe.idx();
        while chunk < chunks {
            let c0 = chunk * COL_CHUNK;
            let n = COL_CHUNK.min(cols - c0);
            if cpe.functional() {
                acc.fill(0.0);
            }
            let mut r0 = 0;
            while r0 < rows {
                let rg = row_group.min(rows - r0);
                cpe.dma_get_strided(mv, r0 * cols + c0, n, cols, rg, &mut buf[..rg * n]);
                cpe.compute((rg * n) as u64, || {
                    for row in buf[..rg * n].chunks_exact(n) {
                        add_assign(&mut acc[..n], row);
                    }
                });
                r0 += rg;
            }
            cpe.dma_put(ov, c0, &acc[..n]);
            chunk += 64;
        }
    })
}

/// Operands of [`copy_blocks`]:
/// `(src, src_off, src_stride, dst, dst_off, dst_stride)`.
pub(crate) type CopyBlocksIo<'a> = (&'a [f32], usize, usize, &'a mut [f32], usize, usize);

/// Copy `nblocks` blocks of `block_len` elements from strided positions in
/// `src` to strided positions in `dst` (concat / split plumbing).
pub fn copy_blocks(
    cg: &mut CoreGroup,
    block_len: usize,
    nblocks: usize,
    io: Option<CopyBlocksIo<'_>>,
) -> LaunchReport {
    if let ExecMode::HostNative { .. } = cg.mode() {
        return crate::run_mesh_body(|mesh| copy_blocks(mesh, block_len, nblocks, io));
    }
    if !cg.mode().is_functional() {
        let t = sw26010::arch::ATHREAD_LAUNCH_OVERHEAD_SECONDS
            + row_stream_time(nblocks, block_len, CHUNK, 2, 0);
        return crate::charge_model(cg, SimTime::from_seconds(t));
    }
    let (src, src_off, src_stride, dst, dst_off, dst_stride) =
        io.expect("functional copy requires operands");
    let sv = MemView::new(src);
    let dv = MemViewMut::new(dst);
    cg.run_planned(&copy_blocks_plan(block_len), move |cpe| {
        let chunk = CHUNK.min(block_len.max(1));
        let mut buf = cpe.ldm.alloc_f32(chunk);
        let mut blk = cpe.idx();
        while blk < nblocks {
            let s = src_off + blk * src_stride;
            let d = dst_off + blk * dst_stride;
            let mut off = 0;
            while off < block_len {
                let n = chunk.min(block_len - off);
                cpe.dma_get(sv, s + off, &mut buf[..n]);
                cpe.dma_put(dv, d + off, &buf[..n]);
                off += n;
            }
            blk += 64;
        }
    })
}

#[cfg(test)]
mod tests_extra {
    use super::*;
    use sw26010::ExecMode;

    #[test]
    fn bias_rows_adds_vector_per_row() {
        let (rows, len) = (7, 130);
        let bias: Vec<f32> = (0..len).map(|i| i as f32 * 0.1).collect();
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut data = vec![1.0f32; rows * len];
            bias_rows(&mut cg, rows, len, Some((&bias, &mut data)));
            for r in 0..rows {
                for c in 0..len {
                    assert!((data[r * len + c] - (1.0 + bias[c])).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn col_sums_matches_host() {
        let (rows, cols) = (13, 150);
        let m: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 11) % 17) as f32 - 8.0)
            .collect();
        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut out = vec![0.0f32; cols];
            col_sums(&mut cg, rows, cols, Some((&m, &mut out)));
            for c in 0..cols {
                let want: f32 = (0..rows).map(|r| m[r * cols + c]).sum();
                assert!(
                    (out[c] - want).abs() < 1e-4,
                    "col {c}: {} vs {want}",
                    out[c]
                );
            }
        }
    }

    #[test]
    fn copy_blocks_moves_strided_regions() {
        // Copy 3 blocks of 5 from stride-8 positions to stride-10 positions.
        let src: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut dst = vec![0.0f32; 40];
        copy_blocks(&mut cg, 5, 3, Some((&src, 1, 8, &mut dst, 2, 10)));
        for b in 0..3 {
            for i in 0..5 {
                assert_eq!(dst[2 + b * 10 + i], src[1 + b * 8 + i]);
            }
        }
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[7], 0.0);
    }

    #[test]
    fn new_kernels_charge_in_timing_mode() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        assert!(bias_rows(&mut cg, 64, 4096, None).elapsed.seconds() > 0.0);
        assert!(col_sums(&mut cg, 64, 4096, None).elapsed.seconds() > 0.0);
        assert!(copy_blocks(&mut cg, 4096, 64, None).elapsed.seconds() > 0.0);
    }
}

/// In-place scale: `x *= alpha`.
pub fn scale(cg: &mut CoreGroup, len: usize, alpha: f32, io: Option<&mut [f32]>) -> LaunchReport {
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, stream_time(len, 1, 1, 1));
    }
    let x = io.expect("functional scale requires operands");
    assert_eq!(x.len(), len);
    let f = move |v: f32| v * alpha;
    if let ExecMode::HostNative { .. } = cg.mode() {
        host_pieces(cg.workers(), x, |_, xs| {
            xs.iter_mut().for_each(|v| *v = f(*v))
        });
        return LaunchReport::default();
    }
    let xv = MemViewMut::new(x);
    map1(cg, "swdnn.scale", len, 1, xv.as_view(), xv, f)
}

/// Sum of squares of a vector with a 64-lane schedule, one lane per CPE:
/// lane `l` reduces every 64th `CHUNK` in f64 and rounds its partial to
/// f32; the MPE sums the partials in f64 in lane order (LARS norm
/// computations, gradient diagnostics).
pub fn sumsq(cg: &mut CoreGroup, len: usize, io: Option<&[f32]>) -> (f64, LaunchReport) {
    if let ExecMode::HostNative { .. } = cg.mode() {
        let mut sum = 0.0;
        let report = crate::run_mesh_body(|mesh| {
            let (s, report) = sumsq(mesh, len, io);
            sum = s;
            report
        });
        return (sum, report);
    }
    if !cg.mode().is_functional() {
        let report = crate::charge_model(cg, stream_time(len, 1, 0, 2));
        cg.mpe_compute(64);
        return (0.0, report);
    }
    let x = io.expect("functional sumsq requires operands");
    assert_eq!(x.len(), len);
    let mut partials = [0.0f32; 64];
    let xv = MemView::new(x);
    let pv = MemViewMut::new(&mut partials);
    let report = cg.run_planned(&stream_plan("swdnn.sumsq", 1), move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(CHUNK);
        let mut acc = 0.0f64;
        let mut start = cpe.idx() * CHUNK;
        while start < len {
            let n = CHUNK.min(len - start);
            cpe.dma_get(xv, start, &mut buf[..n]);
            acc += cpe.compute(2 * n as u64, || sumsq_f64(&buf[..n]));
            start += 64 * CHUNK;
        }
        cpe.dma_put(pv, cpe.idx(), &[acc as f32]);
    });
    cg.mpe_compute(64);
    (partials.iter().map(|v| *v as f64).sum(), report)
}

#[cfg(test)]
mod sumsq_tests {
    use super::*;

    #[test]
    fn sumsq_matches_host() {
        let x: Vec<f32> = (0..10_000).map(|i| ((i % 13) as f32 - 6.0) * 0.5).collect();
        let want: f64 = x.iter().map(|v| *v as f64 * *v as f64).sum();
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let (got, _) = sumsq(&mut cg, x.len(), Some(&x));
        assert!((got - want).abs() < 1e-2 * want, "{got} vs {want}");
    }
}

//! Host-native GEMM family (the `ExecMode::HostNative` packed GEMM,
//! explicit and implicit convolution, and the im2col/col2im the explicit
//! plan runs).
//!
//! Every reduction here goes through `accumulate`, the function the
//! mesh's block product calls, so host and mesh agree bit for bit by
//! construction: what this module adds is staging — packing, the seed
//! and rounding of each accumulator, and the tap walk of the implicit
//! passes, which is the mesh kernel's own. It carries no timing model —
//! callers return `LaunchReport::default()` (zero time, zero counters) —
//! and no `KernelPlan` validation; it exists purely for wall-clock speed.
//!
//! The packed GEMM body is generic over its panel width and compiled
//! twice: for the baseline target at [`GEMM_NR`] columns and, on x86-64,
//! for AVX2 at [`GEMM_NR_AVX2`]. Each product runs the widest one the
//! CPU supports. Both run the same `accumulate` per element of C, and
//! the panel width only decides which columns share a call, so the two
//! agree bit for bit; the unit tests below check that.
//!
//! The GEMM and the explicit convolution stage their packed operands and
//! column matrix in the launching core group's [`Workspace`], which the
//! caller passes in: the buffers live as long as that core group and are
//! reused by every call on it. The implicit passes allocate their small
//! accumulators per task. Every staged element is written before it is
//! read, so whatever a buffer held before never reaches a result.
//!
//! Parallelism comes from [`swbackend::par_tasks`]: work is split into
//! units whose results are fully determined by the unit itself (a run of
//! C's columns, an output row, a filter tap), so the thread count never
//! affects results. `tests/backend_agreement.rs` pins that staging
//! against the mesh.

use sw26010::Workspace;
use swbackend::{par_tasks, resolve_threads};

use crate::conv_explicit;
use crate::shapes::{ConvShape, GemmDims, Trans};
use crate::tile::accumulate;

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/// Columns of C per micro-kernel call on the baseline x86-64 target:
/// twelve SSE2 registers of f64 accumulators, the widest row that target
/// keeps out of memory. A call takes one row of A: the zero-skip is a
/// branch per (row, k), so more rows would multiply the hard-to-predict
/// branches of a sparse A (ReLU-masked activations and gradients) while
/// columns amortise them.
pub const GEMM_NR: usize = 24;
/// Columns per micro-kernel call in the AVX2 instantiation: the same
/// twelve registers, each a ymm of four f64.
pub const GEMM_NR_AVX2: usize = 48;
/// Products below this many flops (`2mnk`) run on the calling thread: a
/// fork costs about as long as this much work takes.
pub const GEMM_FORK_FLOPS: usize = 1 << 20;

/// `C = A*B + beta*C`, as the mesh GEMM computes it: per-element f64
/// accumulator seeded with the f32 product `beta * c`, then
/// `accumulate` over the whole of k. A and B are packed into `ws`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    ws: &mut Workspace,
    threads: usize,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    pack_a(ta, dims, a, &mut ws.a);
    gemm_packed(threads, dims, tb, beta, &ws.a, b, c, &mut ws.b);
}

/// Widen rows (A) or columns (B) `x0..x1` of an operand into `W`-wide
/// panels over the whole of `k`: entry `(x, kk)` lands at
/// `[kk * W + (x - x0) % W]` of panel `(x - x0) / W`, and a ragged last
/// panel is zero-filled. `k_major` says `src` holds that entry at
/// `[kk * extent + x]` rather than `[x * k + kk]` — the only place a
/// transposition flag is looked at.
#[inline(always)]
fn pack<const W: usize>(
    k_major: bool,
    extent: usize,
    k: usize,
    src: &[f32],
    (x0, x1): (usize, usize),
    out: &mut [f64],
) {
    // f32 per cache line: the transposing gather below takes that many
    // k-steps of every source row at a time, so each line is fetched
    // once however far apart (and however aliased) the rows are.
    const LINE: usize = 16;
    for (p, panel) in out.chunks_exact_mut(W * k).enumerate() {
        let base = x0 + p * W;
        let valid = W.min(x1 - base);
        if k_major {
            for (kk, step) in panel.chunks_exact_mut(W).enumerate() {
                for (d, s) in step[..valid].iter_mut().zip(&src[kk * extent + base..]) {
                    *d = *s as f64;
                }
            }
        } else {
            for (blk, steps) in panel.chunks_mut(LINE * W).enumerate() {
                for x in 0..valid {
                    let line = &src[(base + x) * k + blk * LINE..];
                    for (step, s) in steps.chunks_exact_mut(W).zip(line) {
                        step[x] = *s as f64;
                    }
                }
            }
        }
        if valid < W {
            for step in panel.chunks_exact_mut(W) {
                step[valid..].fill(0.0);
            }
        }
    }
}

/// All of A widened to f64, one run of `k` per row (what [`gemm_packed`]
/// multiplies by).
fn pack_a(ta: Trans, dims: GemmDims, a: &[f32], out: &mut Vec<f64>) {
    out.resize(dims.m * dims.k, 0.0);
    if dims.k > 0 {
        pack::<1>(ta.is_trans(), dims.m, dims.k, a, (0, dims.m), out);
    }
}

/// The GEMM behind [`gemm`], on an A already packed by [`pack_a`] (the
/// explicit conv plan packs its weights once for the whole batch), at
/// the widest panel width the CPU supports. std caches the CPUID probe
/// behind `is_x86_feature_detected!`, so the choice costs a load and a
/// test per call.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    threads: usize,
    dims: GemmDims,
    tb: Trans,
    beta: f32,
    ap: &[f64],
    b: &[f32],
    c: &mut [f32],
    bp: &mut Vec<f64>,
) {
    if dims.m == 0 || dims.n == 0 {
        return;
    }
    if dims.k == 0 {
        // Nothing to reduce: C is its own seed.
        for v in c.iter_mut() {
            *v = if beta != 0.0 { beta * *v } else { 0.0 };
        }
        return;
    }
    let ops = Product {
        dims,
        tb,
        beta,
        ap,
        b,
    };
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the guard above found AVX2 on this CPU, the one target
        // feature `gemm_avx2` is compiled for.
        return unsafe { gemm_avx2(threads, ops, c, bp) };
    }
    gemm_baseline(threads, ops, c, bp);
}

/// [`gemm_packed`] at [`GEMM_NR`] columns, for the baseline target.
fn gemm_baseline(threads: usize, ops: Product<'_>, c: &mut [f32], bp: &mut Vec<f64>) {
    let tasks = ops.column_runs::<GEMM_NR>(threads, c, bp);
    par_tasks(threads, tasks, |task| ops.sweep::<GEMM_NR>(task));
}

/// [`gemm_packed`] at [`GEMM_NR_AVX2`] columns, compiled for AVX2. The
/// task closure is written here, not in a shared generic function,
/// because a closure takes its target features from the function that
/// defines it; [`Product::sweep`] and everything below it are inlined
/// into that closure. FMA is not enabled, and Rust would not contract a
/// separate multiply and add into one if it were.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(threads: usize, ops: Product<'_>, c: &mut [f32], bp: &mut Vec<f64>) {
    let tasks = ops.column_runs::<GEMM_NR_AVX2>(threads, c, bp);
    par_tasks(threads, tasks, |task| ops.sweep::<GEMM_NR_AVX2>(task));
}

/// The read-only operands of a packed product with a non-empty C and a
/// non-zero `k`.
#[derive(Clone, Copy)]
struct Product<'a> {
    dims: GemmDims,
    tb: Trans,
    beta: f32,
    ap: &'a [f64],
    b: &'a [f32],
}

impl Product<'_> {
    /// Split C into tasks of whole `NR`-column panels over all rows,
    /// each with its own slice of `bp` to pack B panels into. Every
    /// element of C is produced by one [`tile`] call whatever the
    /// partition or `NR`, so neither the thread count nor the
    /// instantiation can change a bit.
    fn column_runs<'c, const NR: usize>(
        &self,
        threads: usize,
        c: &'c mut [f32],
        bp: &'c mut Vec<f64>,
    ) -> Vec<ColumnRun<'c>> {
        let GemmDims { m, n, k } = self.dims;
        let panels = n.div_ceil(NR);
        let ntasks = if 2 * m * n * k < GEMM_FORK_FLOPS {
            1
        } else {
            resolve_threads(threads).min(panels)
        };
        // Columns per task, in whole panels.
        let span = panels.div_ceil(ntasks) * NR;
        bp.resize(n.div_ceil(span) * k * NR, 0.0);
        let mut tasks: Vec<ColumnRun<'_>> = bp
            .chunks_exact_mut(k * NR)
            .enumerate()
            .map(|(t, bpanel)| ColumnRun {
                j0: t * span,
                rows: Vec::with_capacity(m),
                bpanel,
            })
            .collect();
        for row in c.chunks_exact_mut(n) {
            for (task, segment) in tasks.iter_mut().zip(row.chunks_mut(span)) {
                task.rows.push(segment);
            }
        }
        tasks
    }

    /// One task's panel loop: pack a panel of B, sweep it down the rows
    /// of A.
    #[inline(always)]
    fn sweep<const NR: usize>(&self, mut task: ColumnRun<'_>) {
        let GemmDims { n, k, .. } = self.dims;
        let width = task.rows[0].len();
        for j in (0..width).step_by(NR) {
            let vn = NR.min(width - j);
            let cols = (task.j0 + j, task.j0 + j + vn);
            pack::<NR>(!self.tb.is_trans(), n, k, self.b, cols, task.bpanel);
            for (arow, crow) in self.ap.chunks_exact(k).zip(task.rows.iter_mut()) {
                tile::<NR>(self.beta, arow, task.bpanel, &mut crow[j..j + vn]);
            }
        }
    }
}

/// One task's share of a GEMM: columns `j0..` of C as one segment per
/// row, and the buffer it packs its B panels into.
struct ColumnRun<'a> {
    j0: usize,
    rows: Vec<&'a mut [f32]>,
    bpanel: &'a mut [f64],
}

/// The micro-kernel: `crow`, at most `NR` columns of one row of C, from
/// a whole-`k` row of A and panel of B. The accumulator is seeded with
/// the f32 product `beta * c` (or +0.0), runs [`accumulate`] and is
/// rounded to f32 once, as the mesh's C tile is.
#[inline(always)]
fn tile<const NR: usize>(beta: f32, arow: &[f64], bp: &[f64], crow: &mut [f32]) {
    let mut acc = [0.0f64; NR];
    if beta != 0.0 {
        for (s, v) in acc.iter_mut().zip(crow.iter()) {
            *s = (beta * *v) as f64;
        }
    }
    accumulate(&mut acc, arow.iter().copied(), bp);
    round(crow, &acc);
}

/// Narrow accumulators to f32, the one rounding of every GEMM-family
/// output.
fn round(out: &mut [f32], acc: &[f64]) {
    for (v, s) in out.iter_mut().zip(acc) {
        *v = *s as f32;
    }
}

// ---------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------

/// im2col for one image (pure movement, so ordering is free).
pub fn im2col(threads: usize, shape: &ConvShape, image: &[f32], cols: &mut [f32]) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows: Vec<(usize, &mut [f32])> = cols.chunks_mut(oh * ow).enumerate().collect();
    par_tasks(threads, rows, |(r, row)| {
        let c = r / (k * k);
        let ky = (r / k) % k;
        let kx = r % k;
        for oy in 0..oh {
            let y = tap_target(oy, ky, s, p, ih);
            for ox in 0..ow {
                row[oy * ow + ox] = match (y, tap_target(ox, kx, s, p, iw)) {
                    (Some(y), Some(x)) => image[(c * ih + y) * iw + x],
                    _ => 0.0,
                };
            }
        }
    });
}

/// col2im for one image: per input element, one f32 addition per valid
/// `(ky, kx)` tap in ascending order — the mesh plans both reduce to this.
pub fn col2im(threads: usize, shape: &ConvShape, cols: &[f32], image: &mut [f32]) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows: Vec<(usize, &mut [f32])> = image.chunks_mut(iw).enumerate().collect();
    par_tasks(threads, rows, |(ri, row)| {
        let c = ri / ih;
        let y = ri % ih;
        for (x, out) in row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for ky in 0..k {
                let Some(oy) = tap_source(y, ky, s, p, oh) else {
                    continue;
                };
                for kx in 0..k {
                    let Some(ox) = tap_source(x, kx, s, p, ow) else {
                        continue;
                    };
                    acc += cols[((c * k + ky) * k + kx) * (oh * ow) + oy * ow + ox];
                }
            }
            *out = acc;
        }
    });
}

/// The input coordinate that tap `tap` of output coordinate `o` reads,
/// unless it is padding.
fn tap_target(o: usize, tap: usize, stride: usize, pad: usize, in_dim: usize) -> Option<usize> {
    (o * stride + tap).checked_sub(pad).filter(|&i| i < in_dim)
}

/// The output coordinate whose tap `tap` reads input coordinate `i`.
fn tap_source(i: usize, tap: usize, stride: usize, pad: usize, out_dim: usize) -> Option<usize> {
    let num = (i + pad).checked_sub(tap)?;
    (num.is_multiple_of(stride) && num / stride < out_dim).then_some(num / stride)
}

// ---------------------------------------------------------------------
// Explicit convolution (im2col -> GEMM -> col2im, NCHW)
// ---------------------------------------------------------------------

/// Explicit-plan forward over the whole batch: per image, im2col then
/// `W x cols`. The weights are packed once for the batch into `ws.a`,
/// and `cols` is `ws.cols` (im2col overwrites all of it).
pub(crate) fn conv_explicit_forward(
    ws: &mut Workspace,
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
) {
    let dims = conv_explicit::fwd_gemm_dims(shape);
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.col_cols();
    let Workspace { a, b, cols } = ws;
    pack_a(Trans::No, dims, weights, a);
    cols.resize(dims.k * dims.n, 0.0);
    for bi in 0..shape.batch {
        im2col(threads, shape, &input[bi * per_in..][..per_in], cols);
        let out = &mut output[bi * per_out..][..per_out];
        gemm_packed(threads, dims, Trans::No, 0.0, a, cols, out, b);
    }
}

/// Explicit-plan backward over the whole batch. `w_grad` is overwritten:
/// image 0 stores `dY_0 x cols_0^T`, every later image adds its own
/// through the GEMM's beta, rounding to f32 in between as the mesh does.
/// `in_grad` is `col2im(W^T x dY_b)` per image, `W^T` packed once. The
/// packed operands and `cols` live in `ws`, as in the forward pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_explicit_backward(
    ws: &mut Workspace,
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    out_grad: &[f32],
    in_grad: Option<&mut [f32]>,
    w_grad: Option<&mut [f32]>,
) {
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.col_cols();
    let Workspace { a, b, cols } = ws;
    cols.resize(shape.col_rows() * shape.col_cols(), 0.0);
    if let Some(w_grad) = w_grad {
        let dims = conv_explicit::bwd_weights_gemm_dims(shape);
        for bi in 0..shape.batch {
            im2col(threads, shape, &input[bi * per_in..][..per_in], cols);
            pack_a(Trans::No, dims, &out_grad[bi * per_out..][..per_out], a);
            let beta = if bi == 0 { 0.0 } else { 1.0 };
            gemm_packed(threads, dims, Trans::Yes, beta, a, cols, w_grad, b);
        }
    }
    if let Some(in_grad) = in_grad {
        let dims = conv_explicit::bwd_input_gemm_dims(shape);
        pack_a(Trans::Yes, dims, weights, a);
        for bi in 0..shape.batch {
            let dy = &out_grad[bi * per_out..][..per_out];
            gemm_packed(threads, dims, Trans::No, 0.0, a, dy, cols, b);
            col2im(threads, shape, cols, &mut in_grad[bi * per_in..][..per_in]);
        }
    }
}

// ---------------------------------------------------------------------
// Implicit convolution (RCNB layouts)
// ---------------------------------------------------------------------

/// Implicit-plan forward. Input/output RCNB, weights KKON. Each output
/// pixel and channel runs the mesh kernel's reduction over main memory:
/// taps in ascending `(ky, kx)`, each one [`accumulate`] of the tap's
/// weight row against the pixel's `N_i x B` input block. A row tap
/// outside the image is skipped and a column tap outside it is a zero
/// operand, as on the mesh.
pub(crate) fn conv_implicit_forward(
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
) {
    let (ih, iw, ni, b) = (shape.in_h, shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let ow = shape.out_w();
    let zeros = vec![0.0f32; ni * b];
    let rows: Vec<(usize, &mut [f32])> = output.chunks_mut(ow * no * b).enumerate().collect();
    par_tasks(threads, rows, |(oy, orow)| {
        let mut acc = vec![0.0f64; b];
        for (xo, pixel) in orow.chunks_exact_mut(no * b).enumerate() {
            for (oc, out) in pixel.chunks_exact_mut(b).enumerate() {
                acc.fill(0.0);
                for ky in 0..k {
                    let Some(y) = tap_target(oy, ky, s, p, ih) else {
                        continue;
                    };
                    for kx in 0..k {
                        let w = &weights[((ky * k + kx) * no + oc) * ni..][..ni];
                        let x = match tap_target(xo, kx, s, p, iw) {
                            Some(x) => &input[(y * iw + x) * ni * b..][..ni * b],
                            None => &zeros,
                        };
                        accumulate(&mut acc, w.iter().map(|&v| v as f64), x);
                    }
                }
                round(out, &acc);
            }
        }
    });
}

/// Implicit-plan backward data gradient (RCNB `in_grad`): per input
/// pixel and channel, one [`accumulate`] per tap of the transposed
/// weights (a strided column of the tap's `N_o x N_i` block) against the
/// `N_o x B` output-gradient block the tap reaches; padding as in
/// [`conv_implicit_forward`].
pub(crate) fn conv_implicit_backward_input(
    threads: usize,
    shape: &ConvShape,
    weights: &[f32],
    out_grad: &[f32],
    in_grad: &mut [f32],
) {
    let (iw, ni, b) = (shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let zeros = vec![0.0f32; no * b];
    let rows: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(iw * ni * b).enumerate().collect();
    par_tasks(threads, rows, |(y, grow)| {
        let mut acc = vec![0.0f64; b];
        for (x, pixel) in grow.chunks_exact_mut(ni * b).enumerate() {
            for (ic, out) in pixel.chunks_exact_mut(b).enumerate() {
                acc.fill(0.0);
                for ky in 0..k {
                    let Some(oy) = tap_source(y, ky, s, p, oh) else {
                        continue;
                    };
                    for kx in 0..k {
                        let w = &weights[(ky * k + kx) * no * ni..][..no * ni];
                        let dy = match tap_source(x, kx, s, p, ow) {
                            Some(ox) => &out_grad[(oy * ow + ox) * no * b..][..no * b],
                            None => &zeros,
                        };
                        let wt = w[ic..].iter().step_by(ni).map(|&v| v as f64);
                        accumulate(&mut acc, wt, dy);
                    }
                }
                round(out, &acc);
            }
        }
    });
}

/// Implicit-plan backward weight gradient (KKON `w_grad`, overwritten).
/// Per filter tap, every output pixel's `B x N_i` input block (a
/// transposed copy, or zeros for a column tap outside the image) meets
/// one [`accumulate`] per output channel, its `dY` fibre the left
/// operand; row taps outside the image are skipped.
pub(crate) fn conv_implicit_backward_weights(
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    out_grad: &[f32],
    w_grad: &mut [f32],
) {
    let (ih, iw, ni, b) = (shape.in_h, shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let zeros = vec![0.0f32; b * ni];
    let taps: Vec<(usize, &mut [f32])> = w_grad.chunks_mut(no * ni).enumerate().collect();
    par_tasks(threads, taps, |(tap, dw)| {
        let mut acc = vec![0.0f64; no * ni];
        let mut xt = vec![0.0f32; b * ni];
        for oy in 0..oh {
            let Some(y) = tap_target(oy, tap / k, s, p, ih) else {
                continue;
            };
            for xo in 0..ow {
                let x = match tap_target(xo, tap % k, s, p, iw) {
                    Some(x) => {
                        let block = &input[(y * iw + x) * ni * b..][..ni * b];
                        for (ic, fibre) in block.chunks_exact(b).enumerate() {
                            for (bi, v) in fibre.iter().enumerate() {
                                xt[bi * ni + ic] = *v;
                            }
                        }
                        &xt
                    }
                    None => &zeros,
                };
                let dy = &out_grad[(oy * ow + xo) * no * b..][..no * b];
                for (sums, fibre) in acc.chunks_exact_mut(ni).zip(dy.chunks_exact(b)) {
                    accumulate(sums, fibre.iter().map(|&v| v as f64), x);
                }
            }
        }
        round(dw, &acc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in `[-2, 2)`; one in five is a zero, of
    /// alternating sign, where `zeros` asks for them.
    fn values(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                let v = ((x >> 33) % 2000) as f32 / 500.0 - 2.0;
                match i % 10 {
                    3 if zeros => 0.0,
                    8 if zeros => -0.0,
                    _ => v,
                }
            })
            .collect()
    }

    /// `C = A*B + beta*C` through [`gemm_packed`], which runs the widest
    /// instantiation this CPU supports, or through [`gemm_baseline`].
    #[allow(clippy::too_many_arguments)]
    fn product(
        baseline: bool,
        threads: usize,
        dims: GemmDims,
        (ta, tb): (Trans, Trans),
        beta: f32,
        a: &[f32],
        b: &[f32],
        c0: &[f32],
    ) -> Vec<f32> {
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_a(ta, dims, a, &mut ap);
        let mut c = c0.to_vec();
        if baseline {
            let ops = Product {
                dims,
                tb,
                beta,
                ap: &ap,
                b,
            };
            gemm_baseline(threads, ops, &mut c, &mut bp);
        } else {
            gemm_packed(threads, dims, tb, beta, &ap, b, &mut c, &mut bp);
        }
        c
    }

    /// Same bits, except that any NaN matches any NaN.
    #[track_caller]
    fn assert_same(tag: &str, got: &[f32], want: &[f32]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag}: element {i}: {g} vs baseline {w}"
            );
        }
    }

    const TRANS: [(Trans, Trans); 4] = [
        (Trans::No, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::No),
        (Trans::Yes, Trans::Yes),
    ];

    /// One, two and three threads for a product big enough to fork; a
    /// smaller one runs on the calling thread whatever it is given.
    fn thread_counts(dims: GemmDims) -> &'static [usize] {
        if 2 * dims.m * dims.n * dims.k < GEMM_FORK_FLOPS {
            &[1]
        } else {
            &[1, 2, 3]
        }
    }

    /// `m` and `n` on both sides of both panel widths, and C wide enough
    /// to fork on either side of a whole number of either width's panels,
    /// in all four transpositions, with dead, plain and scaling betas, on
    /// one, two and three threads.
    #[test]
    fn instantiations_agree_across_panel_edges() {
        let mut edges = vec![1];
        for w in [GEMM_NR, GEMM_NR_AVX2] {
            edges.extend([w - 1, w, w + 1, 2 * w + 1]);
        }
        edges.sort_unstable();
        edges.dedup();
        // Each n meets one value of m, not all of them, to keep the
        // debug-build test short: rows are never blocked, so m has no
        // edge of its own to cross.
        let mut cases = Vec::new();
        for (i, &n) in edges.iter().enumerate() {
            let m = edges[(i + 3) % edges.len()];
            cases.extend([1, 7, 64, 300].map(|k| (m, n, k)));
        }
        let (m, k) = (5, 300);
        for w in [GEMM_NR, GEMM_NR_AVX2] {
            let n = (GEMM_FORK_FLOPS.div_ceil(2 * m * k * w) + 2) * w;
            cases.extend([(m, n - 1, k), (m, n, k), (m, n + 1, k)]);
        }
        for (m, n, k) in cases {
            let dims = GemmDims::new(m, n, k);
            let a = values(m * k, 1, true);
            let b = values(k * n, 2, false);
            let c0 = values(m * n, 3, true);
            for trans in TRANS {
                for beta in [0.0, 1.0, -0.5] {
                    let want = product(true, 1, dims, trans, beta, &a, &b, &c0);
                    for &threads in thread_counts(dims) {
                        assert_same(
                            &format!("{dims:?} {trans:?} beta={beta} threads={threads}"),
                            &product(false, threads, dims, trans, beta, &a, &b, &c0),
                            &want,
                        );
                    }
                }
            }
        }
    }

    /// Zeros of both signs in A opposite NaN and infinite rows of B
    /// (skipped, so finite), the same rows met by non-zeros (non-finite),
    /// and all-zero rows of A over `-0.0` seeds (kept as `-0.0`).
    #[test]
    fn instantiations_agree_on_non_finite_and_signed_zeros() {
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let (m, k) = (4, 6);
        #[rustfmt::skip]
        let a = [
            0.0, -0.0, 1.5, 0.0, 2.0, -0.5, // zeros opposite the hostile rows
            0.0, -0.0, 0.0, -0.0, 0.0, -0.0, // nothing added: C keeps its seed
            -1.0, 0.5, 0.25, 3.0, -2.0, 1.0, // meets the hostile rows
            -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, // nothing added
        ];
        for n in [GEMM_NR + 1, GEMM_NR_AVX2 + 1, 2 * GEMM_NR_AVX2 + 1] {
            let mut b = values(k * n, 4, false);
            for (kk, row) in b.chunks_exact_mut(n).enumerate() {
                if matches!(kk, 0 | 1 | 3) {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = hostile[(kk + j) % 3];
                    }
                }
            }
            let mut c0 = values(m * n, 5, false);
            c0[n..2 * n].fill(-0.0);
            c0[3 * n..].fill(0.0);
            let dims = GemmDims::new(m, n, k);
            for beta in [0.0, 1.0, -0.5] {
                let trans = (Trans::No, Trans::No);
                let want = product(true, 1, dims, trans, beta, &a, &b, &c0);
                for threads in [1, 2, 3] {
                    let got = product(false, threads, dims, trans, beta, &a, &b, &c0);
                    assert!(got[..n].iter().all(|v| v.is_finite()), "n={n}");
                    assert!(got[2 * n..3 * n].iter().all(|v| !v.is_finite()), "n={n}");
                    // Rows 1 and 3 add nothing and keep their seeds,
                    // beta * (-0.0) and beta * (+0.0), or +0.0 at beta 0.
                    let seed = |c: f32| if beta != 0.0 { beta * c } else { 0.0 };
                    for (row, c) in [(1, -0.0), (3, 0.0)] {
                        let want = seed(c).to_bits();
                        let row_got = &got[row * n..][..n];
                        assert!(
                            row_got.iter().all(|v| v.to_bits() == want),
                            "n={n} row {row}"
                        );
                    }
                    let tag = format!("hostile n={n} beta={beta} threads={threads}");
                    assert_same(&tag, &got, &want);
                }
            }
        }
    }

    /// The workspace lives and dies with its core group: a new one starts
    /// empty whatever another core group on this thread has staged, and
    /// repeating a product reuses its buffers in place.
    #[test]
    fn workspace_lives_with_its_core_group() {
        use sw26010::{CoreGroup, ExecMode};
        let mode = ExecMode::HostNative { threads: 2 };
        let dims = GemmDims::new(64, 300, 200);
        let (a, b) = (values(64 * 200, 1, true), values(200 * 300, 2, false));
        let mut c = vec![0.0f32; 64 * 300];
        let mut run = |cg: &mut CoreGroup| {
            let ops = crate::gemm::GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            };
            crate::gemm::gemm(cg, dims, Trans::No, Trans::No, 0.0, Some(ops));
        };
        let mut big = CoreGroup::new(mode);
        run(&mut big);
        let held = |cg: &mut CoreGroup| {
            let ws = cg.workspace();
            (ws.a.capacity(), ws.b.capacity(), ws.cols.capacity())
        };
        let ptrs = |cg: &mut CoreGroup| {
            let ws = cg.workspace();
            (ws.a.as_ptr(), ws.b.as_ptr())
        };
        let first = held(&mut big);
        assert!(first.0 >= 64 * 200 && first.1 >= 200 * GEMM_NR, "{first:?}");
        let at = ptrs(&mut big);
        run(&mut big);
        assert_eq!(
            held(&mut big),
            first,
            "an identical product grew the workspace"
        );
        assert_eq!(
            ptrs(&mut big),
            at,
            "an identical product moved the workspace"
        );
        let mut fresh = CoreGroup::new(mode);
        assert_eq!(held(&mut fresh), (0, 0, 0));
        assert_eq!(
            format!("{:?}", fresh.workspace()),
            "Workspace { a_bytes: 0, b_bytes: 0, cols_bytes: 0 }"
        );
    }
}

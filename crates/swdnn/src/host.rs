//! Host-native mirrors of the mesh kernels (the `HostNative` backend).
//!
//! Every function here reproduces the corresponding mesh kernel's
//! arithmetic **bit-for-bit**: same scalar types, same f32→f64 widenings,
//! same accumulation order, same rounding points. The mirrors carry no
//! timing model — callers return `LaunchReport::default()` (zero time,
//! zero counters) after running one — and no `KernelPlan` validation;
//! they exist purely for wall-clock speed.
//!
//! Parallelism comes from [`swbackend::par_tasks`]: work is split into
//! units whose results are fully determined by the unit itself (a run of
//! C's columns, a channel's statistics, one image's softmax), so the
//! thread count never affects results. The bit-agreement property tests in
//! `tests/backend_agreement.rs` pin every mirror against the mesh.

use std::cell::RefCell;

use swbackend::{par_tasks, resolve_threads};

use crate::conv_explicit;
use crate::elementwise::CHUNK;
use crate::lrn::{self, LrnParams};
use crate::shapes::{ConvShape, GemmDims, PoolMethod, PoolShape, Trans};
use crate::transform::TransShape;

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/// Register tile of the GEMM micro-kernel: `GEMM_MR` rows of A against
/// `GEMM_NR` columns of B. The zero-skip is a branch per (row, k), so
/// rows multiply the hard-to-predict branches of a sparse A (ReLU-masked
/// activations and gradients) while columns amortise them: one wide row
/// measured fastest on dense and sparse operands alike.
pub const GEMM_MR: usize = 1;
/// See [`GEMM_MR`]. Twelve SSE2 registers of accumulators: the widest
/// row the baseline x86-64 target keeps out of memory.
pub const GEMM_NR: usize = 24;
/// Products below this many flops (`2mnk`) run on the calling thread: a
/// fork costs about as long as this much work takes.
pub const GEMM_FORK_FLOPS: usize = 1 << 20;

/// Per-thread buffers the GEMM-backed mirrors reuse across calls: the
/// packed A panels, one packed B panel per task, and the explicit conv
/// plan's column matrix. Whoever reads a buffer has overwritten that
/// part of it first, so a previous call's contents never reach a result.
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
    cols: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// `C = A*B + beta*C`, mirroring the mesh GEMM: per-element f64
/// accumulator seeded with the f32 product `beta * c`, plain ascending-k
/// reduction (the tiled mesh schedule visits k in ascending order), and
/// the mesh's skip of zero A-values.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    threads: usize,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    SCRATCH.with_borrow_mut(|s| {
        pack_a(ta, dims, a, &mut s.a);
        gemm_packed(threads, dims, tb, beta, &s.a, b, c, &mut s.b);
    });
}

/// Widen rows (A) or columns (B) `x0..x1` of an operand into `W`-wide
/// panels over the whole of `k`: entry `(x, kk)` lands at
/// `[kk * W + (x - x0) % W]` of panel `(x - x0) / W`, and a ragged last
/// panel is zero-filled. `k_major` says `src` holds that entry at
/// `[kk * extent + x]` rather than `[x * k + kk]` — the only place a
/// transposition flag is looked at.
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

/// All of A as `GEMM_MR`-row panels (what [`gemm_packed`] multiplies by).
fn pack_a(ta: Trans, dims: GemmDims, a: &[f32], out: &mut Vec<f64>) {
    out.resize(dims.m.div_ceil(GEMM_MR) * GEMM_MR * dims.k, 0.0);
    if dims.k > 0 {
        pack::<GEMM_MR>(ta.is_trans(), dims.m, dims.k, a, (0, dims.m), out);
    }
}

/// The GEMM behind [`gemm`], on an A already packed by [`pack_a`] (the
/// explicit conv plan packs its weights once for the whole batch). A
/// task owns a run of `GEMM_NR`-column panels of C over all rows; it
/// packs one panel of B at a time into its slice of `bp` and sweeps it
/// down the A panels. Every element of C is produced by one [`tile`]
/// call whatever the partition, so the thread count cannot change a bit.
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
    let GemmDims { m, n, k } = dims;
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Nothing to reduce: C is its own seed.
        for v in c.iter_mut() {
            *v = if beta != 0.0 { beta * *v } else { 0.0 };
        }
        return;
    }
    let panels = n.div_ceil(GEMM_NR);
    let ntasks = if 2 * m * n * k < GEMM_FORK_FLOPS {
        1
    } else {
        resolve_threads(threads).min(panels)
    };
    // Columns per task, in whole panels.
    let span = panels.div_ceil(ntasks) * GEMM_NR;
    bp.resize(n.div_ceil(span) * k * GEMM_NR, 0.0);
    let mut tasks: Vec<ColumnRun<'_>> = bp
        .chunks_exact_mut(k * GEMM_NR)
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
    par_tasks(threads, tasks, |mut task: ColumnRun<'_>| {
        let width = task.rows[0].len();
        for j in (0..width).step_by(GEMM_NR) {
            let vn = GEMM_NR.min(width - j);
            let cols = (task.j0 + j, task.j0 + j + vn);
            pack::<GEMM_NR>(!tb.is_trans(), n, k, b, cols, task.bpanel);
            for (apanel, crows) in ap
                .chunks_exact(k * GEMM_MR)
                .zip(task.rows.chunks_mut(GEMM_MR))
            {
                tile(beta, apanel, task.bpanel, crows, j, vn);
            }
        }
    });
}

/// One task's share of a GEMM: columns `j0..` of C as one segment per
/// row, and the buffer it packs its B panels into.
struct ColumnRun<'a> {
    j0: usize,
    rows: Vec<&'a mut [f32]>,
    bpanel: &'a mut [f64],
}

/// The micro-kernel: one `GEMM_MR x GEMM_NR` tile of C, columns
/// `j..j + vn` of `crows`, from whole-`k` panels of A and B. Each element
/// follows the float sequence of the mesh's `tile_product` exactly: an
/// f64 accumulator seeded with the f32 product `beta * c` (or +0.0), one
/// add per ascending `k`, *no* add where A is zero (a skipped `0 * inf`
/// or `-0.0 + 0.0` is not an added zero), one rounding to f32 at the
/// end. Only the independent columns are left to the vectoriser.
fn tile(beta: f32, ap: &[f64], bp: &[f64], crows: &mut [&mut [f32]], j: usize, vn: usize) {
    let mut acc = [[0.0f64; GEMM_NR]; GEMM_MR];
    if beta != 0.0 {
        for (sums, crow) in acc.iter_mut().zip(crows.iter()) {
            for (s, v) in sums.iter_mut().zip(&crow[j..j + vn]) {
                *s = (beta * *v) as f64;
            }
        }
    }
    let (asteps, bsteps) = (ap.as_chunks::<GEMM_MR>().0, bp.as_chunks::<GEMM_NR>().0);
    for (avals, bvals) in asteps.iter().zip(bsteps) {
        for (sums, av) in acc.iter_mut().zip(avals) {
            if *av == 0.0 {
                continue;
            }
            for (s, bv) in sums.iter_mut().zip(bvals) {
                *s += av * bv;
            }
        }
    }
    for (sums, crow) in acc.iter().zip(crows.iter_mut()) {
        for (v, s) in crow[j..j + vn].iter_mut().zip(sums) {
            *v = *s as f32;
        }
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
            let y = (oy * s + ky) as isize - p as isize;
            for ox in 0..ow {
                let x = (ox * s + kx) as isize - p as isize;
                row[oy * ow + ox] = if y >= 0 && (y as usize) < ih && x >= 0 && (x as usize) < iw {
                    image[(c * ih + y as usize) * iw + x as usize]
                } else {
                    0.0
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

/// The output coordinate whose `(kernel-tap, stride, pad)` window covers
/// input coordinate `i`, if any.
fn tap_source(i: usize, tap: usize, stride: usize, pad: usize, out_dim: usize) -> Option<usize> {
    let num = i + pad;
    if num < tap {
        return None;
    }
    let num = num - tap;
    if !num.is_multiple_of(stride) {
        return None;
    }
    let o = num / stride;
    (o < out_dim).then_some(o)
}

// ---------------------------------------------------------------------
// Explicit convolution (im2col -> GEMM -> col2im, NCHW)
// ---------------------------------------------------------------------

/// Explicit-plan forward over the whole batch: per image, im2col then
/// `W x cols`. The weights are packed once for the batch and `cols`
/// lives in the thread's scratch (im2col overwrites all of it).
pub fn conv_explicit_forward(
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
) {
    let dims = conv_explicit::fwd_gemm_dims(shape);
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.col_cols();
    SCRATCH.with_borrow_mut(|Scratch { a, b, cols }| {
        pack_a(Trans::No, dims, weights, a);
        cols.resize(dims.k * dims.n, 0.0);
        for bi in 0..shape.batch {
            im2col(threads, shape, &input[bi * per_in..][..per_in], cols);
            let out = &mut output[bi * per_out..][..per_out];
            gemm_packed(threads, dims, Trans::No, 0.0, a, cols, out, b);
        }
    });
}

/// Explicit-plan backward over the whole batch. `w_grad` is overwritten:
/// image 0 stores `dY_0 x cols_0^T`, every later image adds its own
/// through the GEMM's beta, rounding to f32 in between as the mesh does.
/// `in_grad` is `col2im(W^T x dY_b)` per image, `W^T` packed once.
pub fn conv_explicit_backward(
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
    SCRATCH.with_borrow_mut(|Scratch { a, b, cols }| {
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
    });
}

// ---------------------------------------------------------------------
// Implicit convolution (RCNB layouts)
// ---------------------------------------------------------------------

/// Implicit-plan forward. Input/output RCNB, weights KKON. The mesh
/// reduction visits `ky` ascending, `kx` ascending, then the channel
/// fibre in ascending order; padded tiles contribute exact-zero products,
/// which never perturb an accumulator that started at +0.0, so the mirror
/// simply skips out-of-bounds taps.
pub fn conv_implicit_forward(
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
) {
    let (ih, iw, ni, b) = (shape.in_h, shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let ow = shape.out_w();
    let rows: Vec<(usize, &mut [f32])> = output.chunks_mut(ow * no * b).enumerate().collect();
    par_tasks(threads, rows, |(oy, orow)| {
        for xo in 0..ow {
            for oc in 0..no {
                for bi in 0..b {
                    let mut acc = 0.0f64;
                    for ky in 0..k {
                        let y = oy * s + ky;
                        if y < p || y - p >= ih {
                            continue;
                        }
                        let y = y - p;
                        for kx in 0..k {
                            let x = xo * s + kx;
                            if x < p || x - p >= iw {
                                continue;
                            }
                            let x = x - p;
                            for ic in 0..ni {
                                let w = weights[((ky * k + kx) * no + oc) * ni + ic];
                                if w == 0.0 {
                                    continue;
                                }
                                acc += w as f64 * input[((y * iw + x) * ni + ic) * b + bi] as f64;
                            }
                        }
                    }
                    orow[(xo * no + oc) * b + bi] = acc as f32;
                }
            }
        }
    });
}

/// Implicit-plan backward data gradient (RCNB `in_grad`).
pub fn conv_implicit_backward_input(
    threads: usize,
    shape: &ConvShape,
    weights: &[f32],
    out_grad: &[f32],
    in_grad: &mut [f32],
) {
    let (iw, ni, b) = (shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(iw * ni * b).enumerate().collect();
    par_tasks(threads, rows, |(y, grow)| {
        for x in 0..iw {
            for ic in 0..ni {
                for bi in 0..b {
                    let mut acc = 0.0f64;
                    for ky in 0..k {
                        let Some(oy) = tap_source(y, ky, s, p, oh) else {
                            continue;
                        };
                        for kx in 0..k {
                            let Some(ox) = tap_source(x, kx, s, p, ow) else {
                                continue;
                            };
                            for oc in 0..no {
                                let w = weights[((ky * k + kx) * no + oc) * ni + ic];
                                if w == 0.0 {
                                    continue;
                                }
                                acc +=
                                    w as f64 * out_grad[((oy * ow + ox) * no + oc) * b + bi] as f64;
                            }
                        }
                    }
                    grow[(x * ni + ic) * b + bi] = acc as f32;
                }
            }
        }
    });
}

/// Implicit-plan backward weight gradient (KKON `w_grad`, overwritten).
pub fn conv_implicit_backward_weights(
    threads: usize,
    shape: &ConvShape,
    input: &[f32],
    out_grad: &[f32],
    w_grad: &mut [f32],
) {
    let (ih, iw, ni, b) = (shape.in_h, shape.in_w, shape.in_c, shape.batch);
    let (k, s, p, no) = (shape.k, shape.stride, shape.pad, shape.out_c);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let taps: Vec<(usize, &mut [f32])> = w_grad.chunks_mut(no * ni).enumerate().collect();
    par_tasks(threads, taps, |(tap, chunk)| {
        let ky = tap / k;
        let kx = tap % k;
        for oc in 0..no {
            for ic in 0..ni {
                let mut acc = 0.0f64;
                for oy in 0..oh {
                    let y = oy * s + ky;
                    if y < p || y - p >= ih {
                        continue;
                    }
                    let y = y - p;
                    for xo in 0..ow {
                        let x = xo * s + kx;
                        if x < p || x - p >= iw {
                            continue;
                        }
                        let x = x - p;
                        for bi in 0..b {
                            let dy = out_grad[((oy * ow + xo) * no + oc) * b + bi];
                            if dy == 0.0 {
                                continue;
                            }
                            acc += dy as f64 * input[((y * iw + x) * ni + ic) * b + bi] as f64;
                        }
                    }
                }
                chunk[oc * ni + ic] = acc as f32;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Layout transforms (pure movement)
// ---------------------------------------------------------------------

/// NCHW -> RCNB, parallel over `y` planes.
pub fn nchw_to_rcnb(threads: usize, shape: &TransShape, input: &[f32], output: &mut [f32]) {
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    let planes: Vec<(usize, &mut [f32])> =
        output.chunks_mut(w * n_tot * b_tot).enumerate().collect();
    par_tasks(threads, planes, |(y, plane)| {
        for x in 0..w {
            for n in 0..n_tot {
                for bi in 0..b_tot {
                    plane[(x * n_tot + n) * b_tot + bi] = input[((bi * n_tot + n) * h + y) * w + x];
                }
            }
        }
    });
}

/// RCNB -> NCHW, parallel over `(b, n)` channel images.
pub fn rcnb_to_nchw(threads: usize, shape: &TransShape, input: &[f32], output: &mut [f32]) {
    let (b_tot, n_tot, h, w) = (shape.batch, shape.channels, shape.height, shape.width);
    let imgs: Vec<(usize, &mut [f32])> = output.chunks_mut(h * w).enumerate().collect();
    par_tasks(threads, imgs, |(img, out)| {
        let bi = img / n_tot;
        let n = img % n_tot;
        for y in 0..h {
            for x in 0..w {
                out[y * w + x] = input[((y * w + x) * n_tot + n) * b_tot + bi];
            }
        }
    });
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

/// Pooling forward, parallel over output rows `(bc, oy)`. Max pooling
/// records the strictly-greater first-max argmax exactly like the mesh;
/// average pooling accumulates the clipped window in f64.
pub fn pool_forward(
    threads: usize,
    shape: &PoolShape,
    input: &[f32],
    output: &mut [f32],
    argmax: Option<&mut [f32]>,
) {
    let ow = shape.out_w();
    match argmax {
        Some(am) => {
            let rows: Vec<(usize, &mut [f32], &mut [f32])> = output
                .chunks_mut(ow)
                .zip(am.chunks_mut(ow))
                .enumerate()
                .map(|(i, (o, a))| (i, o, a))
                .collect();
            par_tasks(threads, rows, |(item, orow, arow)| {
                pool_forward_row(shape, input, item, orow, Some(arow));
            });
        }
        None => {
            let rows: Vec<(usize, &mut [f32])> = output.chunks_mut(ow).enumerate().collect();
            par_tasks(threads, rows, |(item, orow)| {
                pool_forward_row(shape, input, item, orow, None);
            });
        }
    }
}

fn pool_forward_row(
    shape: &PoolShape,
    input: &[f32],
    item: usize,
    orow: &mut [f32],
    arow: Option<&mut [f32]>,
) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let bc = item / oh;
    let oy = item % oh;
    let mut arow = arow;
    for ox in 0..ow {
        let x0 = (ox * s) as isize - p as isize;
        match shape.method {
            PoolMethod::Max => {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for ky in 0..k {
                    let y = (oy * s + ky) as isize - p as isize;
                    if y < 0 || y as usize >= ih {
                        continue;
                    }
                    let y = y as usize;
                    for kx in 0..k {
                        let x = x0 + kx as isize;
                        if x < 0 || x as usize >= iw {
                            continue;
                        }
                        let v = input[(bc * ih + y) * iw + x as usize];
                        if v > best {
                            best = v;
                            best_i = y * iw + x as usize;
                        }
                    }
                }
                orow[ox] = if best == f32::NEG_INFINITY { 0.0 } else { best };
                if let Some(a) = arow.as_mut() {
                    a[ox] = best_i as f32;
                }
            }
            PoolMethod::Average => {
                let mut sum = 0.0f64;
                let mut count = 0usize;
                for ky in 0..k {
                    let y = (oy * s + ky) as isize - p as isize;
                    if y < 0 || y as usize >= ih {
                        continue;
                    }
                    let y = y as usize;
                    for kx in 0..k {
                        let x = x0 + kx as isize;
                        if x < 0 || x as usize >= iw {
                            continue;
                        }
                        sum += input[(bc * ih + y) * iw + x as usize] as f64;
                        count += 1;
                    }
                }
                orow[ox] = if count > 0 {
                    (sum / count as f64) as f32
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pooling backward, parallel over input rows `(bc, y)`. Mirrors the
/// mesh's per-row f32 accumulator and its `oy` window bounds.
pub fn pool_backward(
    threads: usize,
    shape: &PoolShape,
    out_grad: &[f32],
    argmax: Option<&[f32]>,
    in_grad: &mut [f32],
) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(iw).enumerate().collect();
    par_tasks(threads, rows, |(item, row)| {
        let bc = item / ih;
        let y = item % ih;
        row.fill(0.0);
        let oy_lo = (y + p).saturating_sub(k - 1).div_ceil(s);
        let oy_hi = ((y + p) / s).min(oh.saturating_sub(1));
        for oy in oy_lo..=oy_hi {
            let grow = &out_grad[(bc * oh + oy) * ow..][..ow];
            match shape.method {
                PoolMethod::Max => {
                    let arow = &argmax.expect("max pool backward requires argmax")
                        [(bc * oh + oy) * ow..][..ow];
                    for ox in 0..ow {
                        let idx = arow[ox] as usize;
                        if idx / iw == y {
                            row[idx % iw] += grow[ox];
                        }
                    }
                }
                PoolMethod::Average => {
                    for (ox, g) in grow.iter().enumerate() {
                        let x0 = (ox * s) as isize - p as isize;
                        let y0 = (oy * s) as isize - p as isize;
                        let mut count = 0usize;
                        let mut covers_y = false;
                        for ky in 0..k {
                            let yy = y0 + ky as isize;
                            if yy < 0 || yy as usize >= ih {
                                continue;
                            }
                            if yy as usize == y {
                                covers_y = true;
                            }
                            for kx in 0..k {
                                let xx = x0 + kx as isize;
                                if xx < 0 || xx as usize >= iw {
                                    continue;
                                }
                                count += 1;
                            }
                        }
                        if covers_y && count > 0 {
                            let share = *g / count as f32;
                            for kx in 0..k {
                                let xx = x0 + kx as isize;
                                if xx >= 0 && (xx as usize) < iw {
                                    row[xx as usize] += share;
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Batch normalisation
// ---------------------------------------------------------------------

/// BN forward (training): phase A computes per-channel statistics with
/// the mesh's chunked f64 partial sums; phase B normalises each row with
/// pure-f32 arithmetic reading the saved f32 mean/istd.
#[allow(clippy::too_many_arguments)]
pub fn bn_forward(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    input: &[f32],
    gamma: &[f32],
    beta: &[f32],
    output: &mut [f32],
    save_mean: &mut [f32],
    save_istd: &mut [f32],
) {
    let n_per_c = (batch * spatial) as f64;
    let row_chunk = CHUNK.min(spatial.max(1));
    let chans: Vec<(usize, &mut f32, &mut f32)> = save_mean
        .iter_mut()
        .zip(save_istd.iter_mut())
        .enumerate()
        .map(|(c, (m, i))| (c, m, i))
        .collect();
    par_tasks(threads, chans, |(c, sm, si)| {
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for b in 0..batch {
            let row = &input[(b * channels + c) * spatial..][..spatial];
            let mut start = 0;
            while start < spatial {
                let n = row_chunk.min(spatial - start);
                let mut s = 0.0f64;
                let mut q = 0.0f64;
                for v in &row[start..start + n] {
                    let vd = *v as f64;
                    s += vd;
                    q += vd * vd;
                }
                sum += s;
                sq += q;
                start += n;
            }
        }
        let mean = sum / n_per_c;
        let var = (sq / n_per_c - mean * mean).max(0.0);
        let istd = 1.0 / (var + eps as f64).sqrt();
        *sm = mean as f32;
        *si = istd as f32;
    });
    let (save_mean, save_istd) = (&*save_mean, &*save_istd);
    let rows: Vec<(usize, &mut [f32])> = output.chunks_mut(spatial.max(1)).enumerate().collect();
    par_tasks(threads, rows, |(row, orow)| {
        let c = row % channels;
        let (g, be, m, is) = (gamma[c], beta[c], save_mean[c], save_istd[c]);
        let irow = &input[row * spatial..][..spatial];
        for (o, v) in orow.iter_mut().zip(irow) {
            *o = g * (*v - m) * is + be;
        }
    });
}

/// BN backward: phase A reduces dgamma/dbeta per channel (chunked f64
/// partials, same order as the mesh); phase B forms the data gradient in
/// f64 reading the *rounded f32* phase-A results, exactly as the mesh
/// does after its cross-CPE exchange.
#[allow(clippy::too_many_arguments)]
pub fn bn_backward(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    input: &[f32],
    gamma: &[f32],
    out_grad: &[f32],
    save_mean: &[f32],
    save_istd: &[f32],
    in_grad: &mut [f32],
    gamma_grad: &mut [f32],
    beta_grad: &mut [f32],
) {
    let n_per_c = (batch * spatial) as f64;
    let row_chunk = CHUNK.min(spatial.max(1));
    let chans: Vec<(usize, &mut f32, &mut f32)> = gamma_grad
        .iter_mut()
        .zip(beta_grad.iter_mut())
        .enumerate()
        .map(|(c, (g, b))| (c, g, b))
        .collect();
    par_tasks(threads, chans, |(c, dgc, dbc)| {
        let m = save_mean[c] as f64;
        let is = save_istd[c] as f64;
        let mut dg = 0.0f64;
        let mut db = 0.0f64;
        for b in 0..batch {
            let base = (b * channels + c) * spatial;
            let xrow = &input[base..base + spatial];
            let grow = &out_grad[base..base + spatial];
            let mut start = 0;
            while start < spatial {
                let n = row_chunk.min(spatial - start);
                let mut a = 0.0f64;
                let mut bb = 0.0f64;
                for i in start..start + n {
                    let xhat = (xrow[i] as f64 - m) * is;
                    a += grow[i] as f64 * xhat;
                    bb += grow[i] as f64;
                }
                dg += a;
                db += bb;
                start += n;
            }
        }
        *dgc = dg as f32;
        *dbc = db as f32;
    });
    let (gamma_grad, beta_grad) = (&*gamma_grad, &*beta_grad);
    let rows: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(spatial.max(1)).enumerate().collect();
    par_tasks(threads, rows, |(row, drow)| {
        let c = row % channels;
        let m = save_mean[c] as f64;
        let is = save_istd[c] as f64;
        let scale = gamma[c] as f64 * save_istd[c] as f64 / n_per_c;
        let dg = gamma_grad[c] as f64;
        let db = beta_grad[c] as f64;
        let base = row * spatial;
        let xrow = &input[base..base + spatial];
        let grow = &out_grad[base..base + spatial];
        for (i, d) in drow.iter_mut().enumerate() {
            let xhat = (xrow[i] as f64 - m) * is;
            let v = scale * (n_per_c * grow[i] as f64 - db - xhat * dg);
            *d = v as f32;
        }
    });
}

/// BN inference: normalise with running statistics, f64 per element.
#[allow(clippy::too_many_arguments)]
pub fn bn_inference(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    input: &[f32],
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    output: &mut [f32],
) {
    let _ = batch;
    let rows: Vec<(usize, &mut [f32])> = output.chunks_mut(spatial.max(1)).enumerate().collect();
    par_tasks(threads, rows, |(row, orow)| {
        let c = row % channels;
        let istd = 1.0 / (var[c] as f64 + eps as f64).sqrt();
        let irow = &input[row * spatial..][..spatial];
        for (o, v) in orow.iter_mut().zip(irow) {
            *o = (gamma[c] as f64 * (*v as f64 - mean[c] as f64) * istd + beta[c] as f64) as f32;
        }
    });
}

/// Fused bias + BN-inference + ReLU epilogue over a conv output tensor
/// (in place), mirroring `fused::forward`'s mesh epilogue: f32 bias add,
/// f64 BN transform rounded to f32, ReLU max on the rounded value.
#[allow(clippy::too_many_arguments)]
pub fn fused_epilogue(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    eps: f32,
    bias: Option<&[f32]>,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    data: &mut [f32],
) {
    let _ = batch;
    let rows: Vec<(usize, &mut [f32])> = data.chunks_mut(spatial.max(1)).enumerate().collect();
    par_tasks(threads, rows, |(row, drow)| {
        let c = row % channels;
        let istd = 1.0 / (var[c] as f64 + eps as f64).sqrt();
        for val in drow.iter_mut() {
            let mut t = *val;
            if let Some(b) = bias {
                t += b[c];
            }
            let u = (gamma[c] as f64 * (t as f64 - mean[c] as f64) * istd + beta[c] as f64) as f32;
            *val = u.max(0.0);
        }
    });
}

// ---------------------------------------------------------------------
// Softmax + cross-entropy
// ---------------------------------------------------------------------

/// Softmax forward, parallel per image. The exp sum accumulates the
/// *unrounded* f64 exponentials while the row stores their f32
/// roundings — the mesh does the same, so this is bit-exact.
pub fn softmax_forward(
    threads: usize,
    batch: usize,
    classes: usize,
    logits: &[f32],
    labels: &[f32],
    probs: &mut [f32],
    losses: &mut [f32],
) {
    let _ = batch;
    let rows: Vec<(usize, &mut [f32], &mut f32)> = probs
        .chunks_mut(classes)
        .zip(losses.iter_mut())
        .enumerate()
        .map(|(b, (p, l))| (b, p, l))
        .collect();
    par_tasks(threads, rows, |(b, prow, loss)| {
        prow.copy_from_slice(&logits[b * classes..][..classes]);
        let max = prow.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let mut sum = 0.0f64;
        for v in prow.iter_mut() {
            let e = ((*v as f64) - max).exp();
            *v = e as f32;
            sum += e;
        }
        for v in prow.iter_mut() {
            *v = (*v as f64 / sum) as f32;
        }
        let label = labels[b] as usize;
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        *loss = (-((prow[label].max(f32::MIN_POSITIVE) as f64).ln())) as f32;
    });
}

/// Softmax backward: `(p - onehot) * loss_weight`, pure f32.
pub fn softmax_backward(
    threads: usize,
    batch: usize,
    classes: usize,
    loss_weight: f32,
    probs: &[f32],
    labels: &[f32],
    in_grad: &mut [f32],
) {
    let _ = batch;
    let rows: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(classes).enumerate().collect();
    par_tasks(threads, rows, |(b, drow)| {
        let label = labels[b] as usize;
        let prow = &probs[b * classes..][..classes];
        for (j, d) in drow.iter_mut().enumerate() {
            let onehot = if j == label { 1.0 } else { 0.0 };
            *d = (prow[j] - onehot) * loss_weight;
        }
    });
}

// ---------------------------------------------------------------------
// Local response normalisation
// ---------------------------------------------------------------------

/// LRN forward, parallel per batch image; per-element arithmetic is
/// shared with the mesh via `lrn::scale_at`.
#[allow(clippy::too_many_arguments)]
pub fn lrn_forward(
    threads: usize,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    p: LrnParams,
    input: &[f32],
    output: &mut [f32],
) {
    let _ = batch;
    let per_img = channels * height * width;
    let imgs: Vec<(usize, &mut [f32])> = output.chunks_mut(per_img.max(1)).enumerate().collect();
    par_tasks(threads, imgs, |(bi, out)| {
        for row in 0..height {
            for xi in 0..width {
                let get =
                    |j: usize| input[((bi * channels + j) * height + row) * width + xi] as f64;
                for c in 0..channels {
                    let scale = lrn::scale_at(&p, channels, &get, c);
                    out[(c * height + row) * width + xi] =
                        (get(c) * scale.powf(-(p.beta as f64))) as f32;
                }
            }
        }
    });
}

/// LRN backward, parallel per batch image.
#[allow(clippy::too_many_arguments)]
pub fn lrn_backward(
    threads: usize,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    p: LrnParams,
    input: &[f32],
    out_grad: &[f32],
    in_grad: &mut [f32],
) {
    let _ = batch;
    let per_img = channels * height * width;
    let half = p.local_size / 2;
    let imgs: Vec<(usize, &mut [f32])> = in_grad.chunks_mut(per_img.max(1)).enumerate().collect();
    par_tasks(threads, imgs, |(bi, dimg)| {
        for row in 0..height {
            for xi in 0..width {
                let get =
                    |j: usize| input[((bi * channels + j) * height + row) * width + xi] as f64;
                let gs = |j: usize| out_grad[((bi * channels + j) * height + row) * width + xi];
                for c in 0..channels {
                    let scale_c = lrn::scale_at(&p, channels, &get, c);
                    let mut v = gs(c) as f64 * scale_c.powf(-(p.beta as f64));
                    let lo = c.saturating_sub(half);
                    let hi = (c + half).min(channels - 1);
                    for j in lo..=hi {
                        let scale_j = lrn::scale_at(&p, channels, &get, j);
                        let yj = get(j) * scale_j.powf(-(p.beta as f64));
                        v -= 2.0 * p.alpha as f64 * p.beta as f64 / p.local_size as f64
                            * get(c)
                            * gs(j) as f64
                            * yj
                            / scale_j;
                    }
                    dimg[(c * height + row) * width + xi] = v as f32;
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Element-wise / reduction kernels
// ---------------------------------------------------------------------

/// Per-element map `y[i] = f(x[i])`, parallel over `CHUNK`-sized pieces.
pub fn unary_map(threads: usize, x: &[f32], y: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    let chunks: Vec<(usize, &mut [f32])> = y.chunks_mut(CHUNK).enumerate().collect();
    par_tasks(threads, chunks, |(ci, chunk)| {
        let base = ci * CHUNK;
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(x[base + i]);
        }
    });
}

/// Per-element map `out[i] = f(a[i], b[i])`.
pub fn binary_map(
    threads: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    let chunks: Vec<(usize, &mut [f32])> = out.chunks_mut(CHUNK).enumerate().collect();
    par_tasks(threads, chunks, |(ci, chunk)| {
        let base = ci * CHUNK;
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(a[base + i], b[base + i]);
        }
    });
}

/// `y[i] += alpha * x[i]`, pure f32.
pub fn axpy(threads: usize, alpha: f32, x: &[f32], y: &mut [f32]) {
    let chunks: Vec<(usize, &mut [f32])> = y.chunks_mut(CHUNK).enumerate().collect();
    par_tasks(threads, chunks, |(ci, chunk)| {
        let base = ci * CHUNK;
        for (i, o) in chunk.iter_mut().enumerate() {
            *o += alpha * x[base + i];
        }
    });
}

/// `x[i] *= alpha`, pure f32.
pub fn scale(threads: usize, alpha: f32, x: &mut [f32]) {
    let chunks: Vec<(usize, &mut [f32])> = x.chunks_mut(CHUNK).enumerate().collect();
    par_tasks(threads, chunks, |(_ci, chunk)| {
        for o in chunk.iter_mut() {
            *o *= alpha;
        }
    });
}

/// Per-channel bias add on NCHW data (in place).
pub fn bias_forward(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    bias: &[f32],
    data: &mut [f32],
) {
    let _ = batch;
    let rows: Vec<(usize, &mut [f32])> = data.chunks_mut(spatial.max(1)).enumerate().collect();
    par_tasks(threads, rows, |(row, drow)| {
        let b = bias[row % channels];
        for v in drow.iter_mut() {
            *v += b;
        }
    });
}

/// Per-channel bias gradient: chunked f64 reduction in the mesh's order.
pub fn bias_backward(
    threads: usize,
    batch: usize,
    channels: usize,
    spatial: usize,
    dy: &[f32],
    db: &mut [f32],
) {
    let row_chunk = CHUNK.min(spatial.max(1));
    let chans: Vec<(usize, &mut f32)> = db.iter_mut().enumerate().collect();
    par_tasks(threads, chans, |(c, out)| {
        let mut acc = 0.0f64;
        for b in 0..batch {
            let row = &dy[(b * channels + c) * spatial..][..spatial];
            let mut start = 0;
            while start < spatial {
                let n = row_chunk.min(spatial - start);
                acc += row[start..start + n].iter().map(|v| *v as f64).sum::<f64>();
                start += n;
            }
        }
        *out = acc as f32;
    });
}

/// Per-row bias add: `data[r][c] += bias[c]`.
pub fn bias_rows(threads: usize, rows: usize, row_len: usize, bias: &[f32], data: &mut [f32]) {
    let _ = rows;
    let tasks: Vec<(usize, &mut [f32])> = data.chunks_mut(row_len.max(1)).enumerate().collect();
    par_tasks(threads, tasks, |(_r, drow)| {
        for (v, b) in drow.iter_mut().zip(bias) {
            *v += *b;
        }
    });
}

/// Column sums of an `(rows x cols)` matrix: per-column running f32 sum
/// over ascending rows (what the mesh's row-group streaming reduces to).
pub fn col_sums(threads: usize, rows: usize, cols: usize, m: &[f32], out: &mut [f32]) {
    let tasks: Vec<(usize, &mut f32)> = out.iter_mut().enumerate().collect();
    par_tasks(threads, tasks, |(c, o)| {
        let mut acc = 0.0f32;
        for r in 0..rows {
            acc += m[r * cols + c];
        }
        *o = acc;
    });
}

/// Strided block copy (pure movement; serial — it is memory-bound).
#[allow(clippy::too_many_arguments)]
pub fn copy_blocks(
    block_len: usize,
    nblocks: usize,
    src: &[f32],
    src_off: usize,
    src_stride: usize,
    dst: &mut [f32],
    dst_off: usize,
    dst_stride: usize,
) {
    for blk in 0..nblocks {
        dst[dst_off + blk * dst_stride..][..block_len]
            .copy_from_slice(&src[src_off + blk * src_stride..][..block_len]);
    }
}

/// Sum of squares with the mesh's 64-lane schedule: each lane owns every
/// 64th `CHUNK`, reduces in f64, rounds its partial to f32; the partials
/// are then summed in f64 in lane order.
pub fn sumsq(threads: usize, x: &[f32]) -> f64 {
    let mut partials = [0.0f32; 64];
    let lanes: Vec<(usize, &mut f32)> = partials.iter_mut().enumerate().collect();
    par_tasks(threads, lanes, |(l, out)| {
        let mut acc = 0.0f64;
        let mut start = l * CHUNK;
        while start < x.len() {
            let n = CHUNK.min(x.len() - start);
            acc += x[start..start + n]
                .iter()
                .map(|v| *v as f64 * *v as f64)
                .sum::<f64>();
            start += 64 * CHUNK;
        }
        *out = acc as f32;
    });
    partials.iter().map(|v| *v as f64).sum::<f64>()
}

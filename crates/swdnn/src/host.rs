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
//! A product's B panels come one of two ways, and the one panel loop
//! takes either. Most products pack them per call, widened to f64. A B
//! that never changes (an inner-product layer's weights, in a frozen
//! serving graph) can instead come pre-packed as a [`PackedB`]: f32
//! panels at the width of the instantiation this CPU runs, packed once
//! and widened in the micro-kernel's load. Widening is exact, so the two
//! give the same bits.
//!
//! The GEMM and the explicit convolution stage their per-call packed
//! operands and column matrix in the launching core group's
//! [`Workspace`], which the caller passes in: the buffers live as long as
//! that core group, grow only when a call needs more than they hold, and
//! are reused by every call on it. Pre-packed panels are not scratch:
//! their owner holds them. The implicit passes allocate their small
//! accumulators per task. Every staged element is written before it is
//! read, so whatever a buffer held before never reaches a result.
//!
//! Parallelism comes from the launching core group's [`Workers`], which
//! the caller passes in beside the workspace: work is split into units
//! whose results are fully determined by the unit itself (a run of C's
//! columns, a row of the column matrix, an input channel plane, an
//! output row, a filter tap), so the thread count never affects results.
//! `tests/backend_agreement.rs` pins that staging against the mesh.

use std::ops::Range;

use sw26010::{Workers, Workspace};

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
/// Products below this many flops (`2mnk`) run on the calling thread. A
/// warm hand-off to the core group's workers costs 17-19 µs on a 2-vCPU
/// x86-64 guest, about 2^18 flops of work at the host GEMM's 11-17
/// Gflop/s, so a forked product does at least four hand-offs' worth of
/// work.
pub const GEMM_FORK_FLOPS: usize = 1 << 20;

/// `C = A*B + beta*C`, as the mesh GEMM computes it: per-element f64
/// accumulator seeded with the f32 product `beta * c`, then
/// `accumulate` over the whole of k. A, and B unless it comes
/// pre-packed, are packed into `ws`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    ws: &mut Workspace,
    workers: &mut Workers,
    dims: GemmDims,
    ta: Trans,
    beta: f32,
    a: &[f32],
    b: Panels<'_>,
    c: &mut [f32],
) {
    let ap = pack_a(ta, dims, a, &mut ws.a);
    gemm_packed(workers, dims, b, beta, ap, c, &mut ws.b);
}

/// Where a product's B panels come from.
#[derive(Clone, Copy)]
pub(crate) enum Panels<'a> {
    /// Packed from B, transposed as the flag says, one panel at a time
    /// into the task's slice of the workspace.
    PerCall(Trans, &'a [f32]),
    /// Packed ahead of the product.
    Prepacked(&'a PackedB),
}

/// A GEMM's `k x n` B packed once, ahead of the products that read it:
/// f32 panels of the width the instantiation this CPU runs consumes
/// ([`GEMM_NR`] or [`GEMM_NR_AVX2`]), in the layout the per-call packer
/// writes, widened to f64 in the micro-kernel's load. A product over
/// them equals one that packs B per call, bit for bit.
pub struct PackedB {
    width: usize,
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack the B of `C = A * op(B)`, given as `b` with `op` = `tb`.
    pub fn new(tb: Trans, k: usize, n: usize, b: &[f32]) -> PackedB {
        let width = if avx2() { GEMM_NR_AVX2 } else { GEMM_NR };
        PackedB::at_width(width, tb, k, n, b)
    }

    fn at_width(width: usize, tb: Trans, k: usize, n: usize, b: &[f32]) -> PackedB {
        assert_eq!(b.len(), k * n, "B size");
        let mut panels = vec![0.0; n.div_ceil(width) * width * k];
        if k > 0 {
            let (k_major, cols) = (!tb.is_trans(), (0, n));
            match width {
                GEMM_NR => pack::<GEMM_NR, _>(k_major, n, k, b, cols, &mut panels),
                GEMM_NR_AVX2 => pack::<GEMM_NR_AVX2, _>(k_major, n, k, b, cols, &mut panels),
                _ => unreachable!("no instantiation reads {width}-wide panels"),
            }
        }
        PackedB {
            width,
            k,
            n,
            panels,
        }
    }

    /// `(k, n)` of the B these panels hold.
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Bytes the panels occupy.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.panels.as_slice())
    }

    /// Panel `p`: columns `p * width..` over the whole of `k`.
    fn panel(&self, p: usize) -> &[f32] {
        &self.panels[p * self.width * self.k..][..self.width * self.k]
    }
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("width", &self.width)
            .field("k", &self.k)
            .field("n", &self.n)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Whether this CPU runs the AVX2 instantiation. std caches the CPUID
/// probe behind `is_x86_feature_detected!`, so asking costs a load and a
/// test.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Widen rows (A) or columns (B) `x0..x1` of an operand into `W`-wide
/// panels over the whole of `k`: entry `(x, kk)` lands at
/// `[kk * W + (x - x0) % W]` of panel `(x - x0) / W`, and a ragged last
/// panel is zero-filled. `k_major` says `src` holds that entry at
/// `[kk * extent + x]` rather than `[x * k + kk]` — the only place a
/// transposition flag is looked at. Per-call panels are f64, pre-packed
/// ones f32.
#[inline(always)]
fn pack<const W: usize, T: Copy + Default + From<f32>>(
    k_major: bool,
    extent: usize,
    k: usize,
    src: &[f32],
    (x0, x1): (usize, usize),
    out: &mut [T],
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
                    *d = T::from(*s);
                }
            }
        } else {
            for (blk, steps) in panel.chunks_mut(LINE * W).enumerate() {
                for x in 0..valid {
                    let line = &src[(base + x) * k + blk * LINE..];
                    for (step, s) in steps.chunks_exact_mut(W).zip(line) {
                        step[x] = T::from(*s);
                    }
                }
            }
        }
        if valid < W {
            for step in panel.chunks_exact_mut(W) {
                step[valid..].fill(T::default());
            }
        }
    }
}

/// All of A widened to f64, one run of `k` per row (what [`gemm_packed`]
/// multiplies by), staged in `out`.
fn pack_a<'w>(ta: Trans, dims: GemmDims, a: &[f32], out: &'w mut Vec<f64>) -> &'w [f64] {
    let ap = staged(out, dims.m * dims.k);
    if dims.k > 0 {
        pack::<1, _>(ta.is_trans(), dims.m, dims.k, a, (0, dims.m), ap);
    }
    ap
}

/// The first `len` elements of a workspace buffer, which grows only
/// when it is shorter. A buffer keeps the length of the largest call it
/// served, so a larger call after a smaller one fills no tail it is
/// about to overwrite; the caller writes every element it then reads.
pub(crate) fn staged<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// The GEMM behind [`gemm`], on an A already packed by [`pack_a`] (the
/// explicit conv plan packs its weights once for the whole batch), at
/// the widest panel width the CPU supports. `bp` is where per-call B
/// panels are packed; a pre-packed B leaves it untouched.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    workers: &mut Workers,
    dims: GemmDims,
    b: Panels<'_>,
    beta: f32,
    ap: &[f64],
    c: &mut [f32],
    bp: &mut Vec<f64>,
) {
    if let Panels::Prepacked(p) = b {
        assert_eq!(p.dims(), (dims.k, dims.n), "pre-packed B dims");
    }
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
    let ops = Product { dims, beta, ap, b };
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` found AVX2 on this CPU, the one target feature
        // `gemm_avx2` is compiled for.
        return unsafe { gemm_avx2(workers, ops, c, bp) };
    }
    gemm_baseline(workers, ops, c, bp);
}

/// [`gemm_packed`] at [`GEMM_NR`] columns, for the baseline target.
fn gemm_baseline(workers: &mut Workers, ops: Product<'_>, c: &mut [f32], bp: &mut Vec<f64>) {
    let tasks = ops.column_runs::<GEMM_NR>(workers.threads(), c, bp);
    workers.run(tasks, |task| ops.sweep::<GEMM_NR>(task));
}

/// [`gemm_packed`] at [`GEMM_NR_AVX2`] columns, compiled for AVX2. The
/// task closure is written here, not in a shared generic function,
/// because a closure takes its target features from the function that
/// defines it; [`Product::sweep`] and everything below it are inlined
/// into that closure. FMA is not enabled, and Rust would not contract a
/// separate multiply and add into one if it were.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(workers: &mut Workers, ops: Product<'_>, c: &mut [f32], bp: &mut Vec<f64>) {
    let tasks = ops.column_runs::<GEMM_NR_AVX2>(workers.threads(), c, bp);
    workers.run(tasks, |task| ops.sweep::<GEMM_NR_AVX2>(task));
}

/// The read-only operands of a packed product with a non-empty C and a
/// non-zero `k`.
#[derive(Clone, Copy)]
struct Product<'a> {
    dims: GemmDims,
    beta: f32,
    ap: &'a [f64],
    b: Panels<'a>,
}

impl Product<'_> {
    /// Split C into tasks of whole `NR`-column panels over all rows,
    /// each with its own slice of `bp` to pack B panels into (an empty
    /// one when B comes pre-packed). Every element of C is produced by
    /// one [`tile`] call whatever the partition or `NR`, so neither the
    /// thread count nor the instantiation can change a bit.
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
            threads.min(panels)
        };
        // Columns per task, in whole panels.
        let span = panels.div_ceil(ntasks) * NR;
        let runs = n.div_ceil(span);
        let bpanels: Vec<&mut [f64]> = match self.b {
            Panels::PerCall(..) => staged(bp, runs * k * NR).chunks_exact_mut(k * NR).collect(),
            Panels::Prepacked(p) => {
                assert_eq!(p.width, NR, "B panels packed for another instantiation");
                (0..runs).map(|_| Default::default()).collect()
            }
        };
        let mut tasks: Vec<ColumnRun<'_>> = bpanels
            .into_iter()
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

    /// One task's panel loop: take a panel of B, packing it unless it
    /// comes pre-packed, and sweep it down the rows of A.
    #[inline(always)]
    fn sweep<const NR: usize>(&self, mut task: ColumnRun<'_>) {
        let GemmDims { n, k, .. } = self.dims;
        let width = task.rows[0].len();
        for j in (0..width).step_by(NR) {
            let vn = NR.min(width - j);
            let j0 = task.j0 + j;
            match self.b {
                Panels::PerCall(tb, b) => {
                    pack::<NR, _>(!tb.is_trans(), n, k, b, (j0, j0 + vn), task.bpanel);
                    self.down::<NR, _>(task.bpanel, &mut task.rows, j, vn);
                }
                Panels::Prepacked(p) => self.down::<NR, _>(p.panel(j0 / NR), &mut task.rows, j, vn),
            }
        }
    }

    /// Sweep one panel of B down the rows of A, into columns `j..j + vn`
    /// of the task's rows of C.
    #[inline(always)]
    fn down<const NR: usize, T: Copy + Into<f64>>(
        &self,
        bpanel: &[T],
        rows: &mut [&mut [f32]],
        j: usize,
        vn: usize,
    ) {
        for (arow, crow) in self.ap.chunks_exact(self.dims.k).zip(rows.iter_mut()) {
            tile::<NR, T>(self.beta, arow, bpanel, &mut crow[j..j + vn]);
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
/// a whole-`k` row of A and panel of B (f64, or f32 widened as it is
/// loaded). The accumulator is seeded with the f32 product `beta * c`
/// (or +0.0), runs [`accumulate`] and is rounded to f32 once, as the
/// mesh's C tile is.
#[inline(always)]
fn tile<const NR: usize, T: Copy + Into<f64>>(beta: f32, arow: &[f64], bp: &[T], crow: &mut [f32]) {
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

/// im2col for one image (pure movement, so ordering is free). One task
/// per column row `(c, ky, kx)`: `tap_range` gives the output rows and
/// columns whose tap reads inside the image, the rest are zero-filled,
/// and the inside is a strided copy with no per-element test.
pub(crate) fn im2col(workers: &mut Workers, shape: &ConvShape, image: &[f32], cols: &mut [f32]) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows: Vec<(usize, &mut [f32])> = cols.chunks_mut(oh * ow).enumerate().collect();
    workers.run(rows, |(r, row)| {
        let (c, ky, kx) = (r / (k * k), (r / k) % k, r % k);
        let (ys, xs) = (tap_range(ky, s, p, ih, oh), tap_range(kx, s, p, iw, ow));
        if xs.is_empty() {
            row.fill(0.0);
            return;
        }
        row[..ys.start * ow].fill(0.0);
        row[ys.end * ow..].fill(0.0);
        for oy in ys {
            let line = &mut row[oy * ow..][..ow];
            line[..xs.start].fill(0.0);
            line[xs.end..].fill(0.0);
            let y = oy * s + ky - p;
            let src = &image[(c * ih + y) * iw + xs.start * s + kx - p..];
            gather(&mut line[xs.clone()], src, s);
        }
    });
}

/// col2im for one image: per input element, one f32 addition per valid
/// `(ky, kx)` tap in ascending order, from +0.0 — the mesh plans both
/// reduce to this. It is [`reference::col2im`](crate::reference::col2im)'s
/// scatter with its bounds hoisted: one task per input channel plane
/// zeroes the plane, then adds rows `(ky, kx)` in ascending order over
/// the output range `tap_range` gives each tap. A plane belongs to one
/// task, so the thread count cannot change a bit.
pub(crate) fn col2im(workers: &mut Workers, shape: &ConvShape, cols: &[f32], image: &mut [f32]) {
    let (ih, iw, k, s, p) = (shape.in_h, shape.in_w, shape.k, shape.stride, shape.pad);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let planes: Vec<(usize, &mut [f32])> = image.chunks_mut(ih * iw).enumerate().collect();
    workers.run(planes, |(c, plane)| {
        plane.fill(0.0);
        for ky in 0..k {
            let ys = tap_range(ky, s, p, ih, oh);
            for kx in 0..k {
                let xs = tap_range(kx, s, p, iw, ow);
                if xs.is_empty() {
                    continue;
                }
                let src = &cols[((c * k + ky) * k + kx) * (oh * ow)..][..oh * ow];
                for oy in ys.clone() {
                    let y = oy * s + ky - p;
                    let dst = &mut plane[y * iw + xs.start * s + kx - p..];
                    scatter_add(dst, &src[oy * ow..][xs.clone()], s);
                }
            }
        }
    });
}

/// `dst[j] = src[j * stride]` for every `j` of `dst`.
#[inline(always)]
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    let src = &src[..strided_len(dst.len(), stride)];
    for (j, d) in dst.iter_mut().enumerate() {
        // SAFETY: the slice above panics unless `src` holds
        // `strided_len(dst.len(), stride)` elements, which exceeds
        // `j * stride` for every `j < dst.len()`.
        *d = unsafe { *src.get_unchecked(j * stride) };
    }
}

/// `dst[j * stride] += src[j]` for every `j` of `src`, in order.
#[inline(always)]
fn scatter_add(dst: &mut [f32], src: &[f32], stride: usize) {
    let dst = &mut dst[..strided_len(src.len(), stride)];
    for (j, v) in src.iter().enumerate() {
        // SAFETY: the slice above panics unless `dst` holds
        // `strided_len(src.len(), stride)` elements, which exceeds
        // `j * stride` for every `j < src.len()`.
        unsafe { *dst.get_unchecked_mut(j * stride) += *v };
    }
}

/// The length a run of `n` elements `stride` apart spans, its one
/// overflow check: every index `j * stride` with `j < n` is below it.
/// [`gather`] and [`scatter_add`] slice their strided side to it once,
/// so their loops carry no bounds check, and the compiler vectorises
/// them for a unit stride.
fn strided_len(n: usize, stride: usize) -> usize {
    n.checked_sub(1).map_or(0, |last| {
        last.checked_mul(stride)
            .and_then(|span| span.checked_add(1))
            .expect("strided run overflows usize")
    })
}

/// The output coordinates `o` whose tap `tap` reads inside the input,
/// `0 <= o * stride + tap - pad < in_dim`, within `0..out_dim`: an empty
/// range when every one reads padding. Each bound is a division per
/// tap, so the loops over the range need no test of their own.
fn tap_range(tap: usize, stride: usize, pad: usize, in_dim: usize, out_dim: usize) -> Range<usize> {
    let hi = (in_dim + pad)
        .saturating_sub(tap)
        .div_ceil(stride)
        .min(out_dim);
    let lo = pad.saturating_sub(tap).div_ceil(stride).min(hi);
    lo..hi
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
    workers: &mut Workers,
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
) {
    let dims = conv_explicit::fwd_gemm_dims(shape);
    let per_in = shape.in_c * shape.in_h * shape.in_w;
    let per_out = shape.out_c * shape.col_cols();
    let Workspace { a, b, cols } = ws;
    let ap = pack_a(Trans::No, dims, weights, a);
    let cols = staged(cols, dims.k * dims.n);
    for bi in 0..shape.batch {
        im2col(workers, shape, &input[bi * per_in..][..per_in], cols);
        let out = &mut output[bi * per_out..][..per_out];
        let cols = Panels::PerCall(Trans::No, cols);
        gemm_packed(workers, dims, cols, 0.0, ap, out, b);
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
    workers: &mut Workers,
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
    let cols = staged(cols, shape.col_rows() * shape.col_cols());
    if let Some(w_grad) = w_grad {
        let dims = conv_explicit::bwd_weights_gemm_dims(shape);
        for bi in 0..shape.batch {
            im2col(workers, shape, &input[bi * per_in..][..per_in], cols);
            let ap = pack_a(Trans::No, dims, &out_grad[bi * per_out..][..per_out], a);
            let beta = if bi == 0 { 0.0 } else { 1.0 };
            let cols = Panels::PerCall(Trans::Yes, cols);
            gemm_packed(workers, dims, cols, beta, ap, w_grad, b);
        }
    }
    if let Some(in_grad) = in_grad {
        let dims = conv_explicit::bwd_input_gemm_dims(shape);
        let ap = pack_a(Trans::Yes, dims, weights, a);
        for bi in 0..shape.batch {
            let dy = Panels::PerCall(Trans::No, &out_grad[bi * per_out..][..per_out]);
            gemm_packed(workers, dims, dy, 0.0, ap, cols, b);
            col2im(workers, shape, cols, &mut in_grad[bi * per_in..][..per_in]);
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
    workers: &mut Workers,
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
    workers.run(rows, |(oy, orow)| {
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
    workers: &mut Workers,
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
    workers.run(rows, |(y, grow)| {
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
    workers: &mut Workers,
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
    workers.run(taps, |(tap, dw)| {
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

    /// Which instantiation runs a product, and where its B panels come
    /// from.
    #[derive(Clone, Copy, Debug)]
    struct Run {
        baseline: bool,
        prepacked: bool,
    }

    /// The product every other run must match: the baseline
    /// instantiation, packing B per call.
    const REFERENCE: Run = Run {
        baseline: true,
        prepacked: false,
    };

    /// The widest instantiation this CPU supports, packing B per call or
    /// reading it pre-packed, and the baseline one on pre-packed B.
    const RUNS: [Run; 3] = [
        Run {
            baseline: false,
            prepacked: false,
        },
        Run {
            baseline: false,
            prepacked: true,
        },
        Run {
            baseline: true,
            prepacked: true,
        },
    ];

    /// `C = A*B + beta*C` through [`gemm_packed`], which runs the widest
    /// instantiation this CPU supports, or through [`gemm_baseline`]; B
    /// packed per call, or into a [`PackedB`] at the instantiation's
    /// width first (by [`PackedB::new`] for the widest).
    #[allow(clippy::too_many_arguments)]
    fn product(
        run: Run,
        threads: usize,
        dims: GemmDims,
        (ta, tb): (Trans, Trans),
        beta: f32,
        a: &[f32],
        b: &[f32],
        c0: &[f32],
    ) -> Vec<f32> {
        let (mut aw, mut bp) = (Vec::new(), Vec::new());
        let ap = pack_a(ta, dims, a, &mut aw);
        let packed = run.prepacked.then(|| match run.baseline {
            true => PackedB::at_width(GEMM_NR, tb, dims.k, dims.n, b),
            false => PackedB::new(tb, dims.k, dims.n, b),
        });
        let panels = match &packed {
            Some(p) => Panels::Prepacked(p),
            None => Panels::PerCall(tb, b),
        };
        let mut c = c0.to_vec();
        let workers = &mut Workers::new(threads);
        if run.baseline {
            let ops = Product {
                dims,
                beta,
                ap,
                b: panels,
            };
            gemm_baseline(workers, ops, &mut c, &mut bp);
        } else {
            gemm_packed(workers, dims, panels, beta, ap, &mut c, &mut bp);
        }
        c
    }

    /// The runs a product at `beta` is checked on: pre-packed B is
    /// checked at the two betas a layer uses, 0 and 1.
    fn runs(beta: f32) -> impl Iterator<Item = Run> {
        RUNS.into_iter()
            .filter(move |r| !r.prepacked || beta == 0.0 || beta == 1.0)
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
    /// one, two and three threads, with B packed per call or pre-packed.
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
                    let want = product(REFERENCE, 1, dims, trans, beta, &a, &b, &c0);
                    for &threads in thread_counts(dims) {
                        for run in runs(beta) {
                            assert_same(
                                &format!(
                                    "{dims:?} {trans:?} beta={beta} threads={threads} {run:?}"
                                ),
                                &product(run, threads, dims, trans, beta, &a, &b, &c0),
                                &want,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Zeros of both signs in A opposite NaN and infinite rows of B
    /// (skipped, so finite), the same rows met by non-zeros (non-finite),
    /// and all-zero rows of A over `-0.0` seeds (kept as `-0.0`), with B
    /// packed per call or pre-packed.
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
                let want = product(REFERENCE, 1, dims, trans, beta, &a, &b, &c0);
                for threads in [1, 2, 3] {
                    for run in runs(beta) {
                        let got = product(run, threads, dims, trans, beta, &a, &b, &c0);
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
                        let tag = format!("hostile n={n} beta={beta} threads={threads} {run:?}");
                        assert_same(&tag, &got, &want);
                    }
                }
            }
        }
    }

    /// A pre-packed B holds every entry of B where the per-call packer
    /// writes it, and zeros in a ragged last panel's extra columns, at
    /// both widths, in both transpositions, for ragged and whole column
    /// counts. The per-call packer, run into a buffer of NaN, agrees.
    #[test]
    fn prepacked_panels_hold_b_then_zeros() {
        fn check<const W: usize>() {
            for (k, n) in [(1, 1), (7, W - 1), (5, W), (17, 2 * W + 1)] {
                let b = values(k * n, 6, true);
                for tb in [Trans::No, Trans::Yes] {
                    let packed = PackedB::at_width(W, tb, k, n, &b);
                    let mut per_call = vec![f64::NAN; packed.panels.len()];
                    pack::<W, _>(!tb.is_trans(), n, k, &b, (0, n), &mut per_call);
                    for (i, (p, q)) in packed.panels.iter().zip(&per_call).enumerate() {
                        let (col, kk) = (i / (W * k) * W + i % W, i / W % k);
                        let want = match (col < n, tb) {
                            (false, _) => 0.0,
                            (true, Trans::No) => b[kk * n + col],
                            (true, Trans::Yes) => b[col * k + kk],
                        };
                        let tag = format!("W={W} k={k} n={n} {tb:?} entry {i}");
                        assert_eq!(p.to_bits(), want.to_bits(), "pre-packed {tag}");
                        assert_eq!(q.to_bits(), f64::from(want).to_bits(), "per call {tag}");
                    }
                }
            }
        }
        check::<GEMM_NR>();
        check::<GEMM_NR_AVX2>();
    }

    /// Every two-channel shape [`ConvShape::validate`] accepts with
    /// `in_h, in_w` in 1..=6, `k` in 1..=4, stride in 1..=3 and pad in
    /// 0..=3 — stride past the kernel, and pad at or past it, which is
    /// what gives output rows and columns that read only padding, among
    /// them — on one, two and three threads, into NaN-filled outputs:
    /// im2col and col2im equal the reference bit for bit.
    #[test]
    fn im2col_col2im_match_reference_on_edge_shapes() {
        let (mut shapes, mut pad_past_k, mut stride_past_k) = (0, 0, 0);
        let mut sets = [1, 2, 3].map(Workers::new);
        for (in_h, in_w) in (1..=6).flat_map(|h| (1..=6).map(move |w| (h, w))) {
            for (k, stride, pad) in
                (1..=4).flat_map(|k| (1..=3).flat_map(move |s| (0..=3).map(move |p| (k, s, p))))
            {
                let shape = ConvShape {
                    batch: 1,
                    in_c: 2,
                    in_h,
                    in_w,
                    out_c: 1,
                    k,
                    stride,
                    pad,
                };
                if shape.validate().is_err() {
                    continue;
                }
                shapes += 1;
                pad_past_k += usize::from(pad >= k);
                stride_past_k += usize::from(stride > k);
                let image = values(2 * in_h * in_w, 3, true);
                let cols = values(shape.col_rows() * shape.col_cols(), 4, true);
                let mut want_cols = vec![0.0; cols.len()];
                let mut want_image = vec![0.0; image.len()];
                crate::reference::im2col(&shape, &image, &mut want_cols);
                crate::reference::col2im(&shape, &cols, &mut want_image);
                for workers in &mut sets {
                    let tag = format!("{shape:?} on {} threads", workers.threads());
                    let mut got = vec![f32::NAN; cols.len()];
                    im2col(workers, &shape, &image, &mut got);
                    assert_same(&format!("im2col {tag}"), &got, &want_cols);
                    let mut got = vec![f32::NAN; image.len()];
                    col2im(workers, &shape, &cols, &mut got);
                    assert_same(&format!("col2im {tag}"), &got, &want_image);
                }
            }
        }
        assert!(
            shapes > 0 && pad_past_k > 0 && stride_past_k > 0,
            "{shapes} shapes, {pad_past_k} with pad >= k, {stride_past_k} with stride > k"
        );
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

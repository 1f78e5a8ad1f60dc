//! Implicit-GEMM convolution (Sec. IV-B-2, after swDNN \[4\]).
//!
//! No column matrix is ever materialised: the convolution is computed as a
//! sum of K*K small matrix products directly from the `(R, C, N, B)` data
//! layout, in which the (channel, batch) fibre at each pixel is a
//! contiguous `N x B` block. The output tile stays resident in LDM across
//! the whole K*K x channel-panel reduction — the data-reuse blocking the
//! paper credits for beating the explicit plan on most layers.
//!
//! Zero padding is handled by *coordinate mapping* (the paper's padding
//! optimisation): a row tap outside the image is skipped, a column tap
//! loads a zero tile with no DMA and multiplies it like any other (so an
//! infinite weight makes a NaN there).
//!
//! The plan exists for the CPE mesh and has no host body: under
//! `HostNative` each pass runs this mesh body on a functional core group
//! of its own and reports no time and no counters, so it is the one body
//! every backend runs.
//!
//! The strategy degrades for small channel counts — tiles shrink below
//! what the register buses and vector pipelines need (the paper gates it
//! at 64 channels) — which the [`supports_forward`]/[`supports_backward`]
//! predicates encode for the mixed-strategy chooser.
//!
//! ## What is written here and what is shared
//!
//! The three passes (forward, input gradient, weight gradient) are
//! broadcast GEMMs over different index spaces, so each keeps its own
//! loop nest and its own addressing into the `(R, C, N, B)` / `(K, K,
//! N_o, N_i)` layouts — that is all this module writes out. Inside a
//! launch every pass runs the tile core of `tile`, the same one
//! [`crate::gemm`] runs: the LDM buffers and the [`KernelPlan`] come from
//! one `TileLayout` ([`ConvTiles::kernel_plan`]), tiles are loaded,
//! multiplied over the buses and stored by its operations, and the time
//! models below are sums of its per-phase cost terms weighted by each
//! pass's trip counts. Counter (`Stats`) models do not exist for these
//! kernels yet; timing-only execution reports time only.

use sw26010::arch::{ATHREAD_LAUNCH_OVERHEAD_SECONDS, MESH_DIM};
use sw26010::{
    CoreGroup, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, PlanViolation, SimTime,
};

use crate::scheme::{Broadcast, Buffering};
use crate::shapes::ConvShape;
use crate::tile::{self, Operand, TileAddr, TileLayout};

/// Tile edge for a channel-like dimension.
fn pick_tile(d: usize) -> usize {
    d.div_ceil(MESH_DIM).clamp(1, 32)
}

/// Tile width along the flattened `(x, batch)` dimension: the largest
/// divisor of the batch size not exceeding 32, so a tile never straddles
/// two pixels' batch fibres.
fn pick_nt(batch: usize) -> usize {
    (1..=32.min(batch))
        .rev()
        .find(|d| batch.is_multiple_of(*d))
        .unwrap_or(1)
}

/// Which implicit-GEMM pass a [`ConvTiles`] triple parameterises. The
/// batch-fibre axis differs per pass: `nt` spans `(x, batch)` in the
/// forward/input-gradient kernels, `kt` does in the weight-gradient one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplicitPass {
    Forward,
    BackwardInput,
    BackwardWeights,
}

impl ImplicitPass {
    fn plan_name(self) -> &'static str {
        match self {
            ImplicitPass::Forward => "swdnn.conv_implicit.fwd",
            ImplicitPass::BackwardInput => "swdnn.conv_implicit.bwd_input",
            ImplicitPass::BackwardWeights => "swdnn.conv_implicit.bwd_weights",
        }
    }
}

/// LDM block extents of one implicit-GEMM pass — the conv analogue of
/// [`crate::gemm::TilePlan`], taken by value so `swtune` can search the
/// space while the hand picks remain just the default point in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvTiles {
    pub mt: usize,
    pub nt: usize,
    pub kt: usize,
}

impl ConvTiles {
    /// The hand-picked forward tiles every caller got before the tuner.
    pub fn hand_forward(shape: &ConvShape) -> ConvTiles {
        ConvTiles {
            mt: pick_tile(shape.out_c),
            nt: pick_nt(shape.batch),
            kt: pick_tile(shape.in_c),
        }
    }

    /// The hand-picked input-gradient tiles.
    pub fn hand_backward_input(shape: &ConvShape) -> ConvTiles {
        ConvTiles {
            mt: pick_tile(shape.in_c),
            nt: pick_nt(shape.batch),
            kt: pick_tile(shape.out_c),
        }
    }

    /// The hand-picked weight-gradient tiles (`kt` is the batch-fibre
    /// axis here; `nt` tiles the input channels).
    pub fn hand_backward_weights(shape: &ConvShape) -> ConvTiles {
        ConvTiles {
            mt: pick_tile(shape.out_c),
            nt: pick_tile(shape.in_c),
            kt: pick_nt(shape.batch),
        }
    }

    /// The tile extent spanning the flattened `(x, batch)` axis for
    /// `pass` — the one that must divide the batch size.
    pub fn fibre_tile(&self, pass: ImplicitPass) -> usize {
        match pass {
            ImplicitPass::BackwardWeights => self.kt,
            _ => self.nt,
        }
    }

    /// The LDM buffer table of the `pass` kernel under these tiles: the
    /// broadcast GEMM's, with synchronous loads.
    fn layout(&self, pass: ImplicitPass) -> TileLayout {
        TileLayout::new(
            pass.plan_name(),
            (self.mt, self.nt, self.kt),
            Buffering::Single,
            Broadcast::RowCol,
        )
    }

    /// The LDM descriptor of the `pass` kernel under these tiles.
    pub fn kernel_plan(&self, pass: ImplicitPass) -> KernelPlan {
        self.layout(pass).kernel_plan()
    }

    /// Structural feasibility for `pass` on `shape`: positive extents, a
    /// batch-dividing fibre tile, and an LDM-fitting working set — the
    /// same filter the tuner's candidate enumeration applies.
    pub fn validate(&self, pass: ImplicitPass, shape: &ConvShape) -> Result<(), PlanViolation> {
        if self.mt == 0
            || self.nt == 0
            || self.kt == 0
            || !shape.batch.is_multiple_of(self.fibre_tile(pass))
        {
            return Err(PlanViolation::BadGeometry {
                plan: pass.plan_name().into(),
                n_cpes: 0,
            });
        }
        self.kernel_plan(pass).validate()
    }
}

/// Panic with the typed shape diagnostic if `shape` is degenerate; every
/// kernel and timing-model entry funnels through this so a zero extent or
/// an oversized window fails loudly instead of wrapping in the coordinate
/// arithmetic.
fn guard_shape(shape: &ConvShape) {
    if let Err(e) = shape.validate() {
        panic!("swdnn.conv_implicit rejected shape: {e}");
    }
}

fn guard_tiles(tiles: ConvTiles, pass: ImplicitPass, shape: &ConvShape) {
    if let Err(v) = tiles.validate(pass, shape) {
        panic!("infeasible implicit-conv tiling: {v}");
    }
}

/// Strategy gate, forward: the paper's implicit plan needs >= 64 input
/// channels to feed the 256-bit SIMD and register communication.
pub fn supports_forward(shape: &ConvShape) -> bool {
    shape.in_c >= 64
}

/// Strategy gate, backward (both gradients): Table II shows the implicit
/// backward plans only win (or run at all) from 128 channels on each side.
pub fn supports_backward(shape: &ConvShape) -> bool {
    shape.in_c.min(shape.out_c) >= 128
}

/// Functional operands of an implicit forward convolution:
/// input `(R_i, C_i, N_i, B)`, weights `(K, K, N_o, N_i)`,
/// output `(R_o, C_o, N_o, B)`.
pub struct ImplicitFwdOperands<'a> {
    pub input: &'a [f32],
    pub weights: &'a [f32],
    pub output: &'a mut [f32],
}

/// Functional operands of an implicit backward convolution.
pub struct ImplicitBwdOperands<'a> {
    pub input: &'a [f32],
    pub weights: &'a [f32],
    pub out_grad: &'a [f32],
    pub in_grad: Option<&'a mut [f32]>,
    /// Overwritten `(K, K, N_o, N_i)` weight gradient.
    pub w_grad: Option<&'a mut [f32]>,
}

/// Implicit forward convolution under the hand-picked tiles.
pub fn forward(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<ImplicitFwdOperands<'_>>,
) -> LaunchReport {
    forward_with_tiles(cg, shape, ConvTiles::hand_forward(shape), ops)
}

/// Implicit forward convolution under explicit tiles (the tuner's entry
/// point). The tiles are validated through [`ConvTiles::validate`] in
/// every execution mode before anything runs.
pub fn forward_with_tiles(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    tiles: ConvTiles,
    ops: Option<ImplicitFwdOperands<'_>>,
) -> LaunchReport {
    if let ExecMode::HostNative { .. } = cg.mode() {
        return crate::run_mesh_body(|mesh| forward_with_tiles(mesh, shape, tiles, ops));
    }
    guard_shape(shape);
    guard_tiles(tiles, ImplicitPass::Forward, shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(cg, forward_time_with(shape, tiles));
    }
    let ops = ops.expect("functional conv requires operands");
    assert_eq!(ops.input.len(), shape.input_len());
    assert_eq!(ops.weights.len(), shape.weight_len());
    assert_eq!(ops.output.len(), shape.output_len());

    let s = *shape;
    let b = s.batch;
    let (no, ni) = (s.out_c, s.in_c);
    let (ow, iw, ih, oh) = (s.out_w(), s.in_w, s.in_h, s.out_h());
    let ConvTiles { mt, nt, kt } = tiles;
    let panels_m = no.div_ceil(MESH_DIM * mt);
    let panels_n = (ow * b).div_ceil(MESH_DIM * nt);
    let panels_k = ni.div_ceil(MESH_DIM * kt);

    let input = MemView::new(ops.input);
    let weights = MemView::new(ops.weights);
    let output = MemViewMut::new(ops.output);

    let layout = tiles.layout(ImplicitPass::Forward);
    let kplan = layout.kernel_plan();
    let mut total = LaunchReport::default();
    for pm in 0..panels_m {
        for pn in 0..panels_n {
            let report = cg.run_planned_async(&kplan, async |cpe| {
                let (i, j) = (cpe.row(), cpe.col());
                let m0 = pm * MESH_DIM * mt + i * mt;
                let vm = no.saturating_sub(m0).min(mt);
                let col0 = pn * MESH_DIM * nt + j * nt;
                let (x_out, b0) = (col0 / b, col0 % b);
                let vn = if x_out < ow { nt } else { 0 };

                let mut ws = layout.alloc(cpe);
                for oy in 0..oh {
                    ws.zero_c(cpe);
                    for ky in 0..s.k {
                        let y = (oy * s.stride + ky) as isize - s.pad as isize;
                        if y < 0 || y as usize >= ih {
                            continue; // coordinate-mapped padding (uniform skip)
                        }
                        let y = y as usize;
                        for kx in 0..s.k {
                            // The input column this tap reads, unless it is padding.
                            let x = (x_out * s.stride + kx) as isize - s.pad as isize;
                            let x = usize::try_from(x).ok().filter(|&x| x < iw);
                            for pk in 0..panels_k {
                                // Own W tile: rows m0.., channel cols by j.
                                let kw0 = pk * MESH_DIM * kt + j * kt;
                                let vkw = ni.saturating_sub(kw0).min(kt);
                                let w_tile = TileAddr {
                                    base: ((ky * s.k + kx) * no + m0) * ni + kw0,
                                    block: vkw,
                                    stride: ni,
                                    rows: vm,
                                    transpose: false,
                                };
                                ws.load(cpe, Operand::A, weights, w_tile);
                                // Own X tile: channel rows by i, batch fibre cols.
                                let kx0 = pk * MESH_DIM * kt + i * kt;
                                let vkx = ni.saturating_sub(kx0).min(kt);
                                let x_tile = TileAddr {
                                    base: ((y * iw + x.unwrap_or(0)) * ni + kx0) * b + b0,
                                    block: vn,
                                    stride: b,
                                    rows: if x.is_some() { vkx } else { 0 },
                                    transpose: false,
                                };
                                ws.load(cpe, Operand::B, input, x_tile);
                                ws.panel_product(cpe).await;
                            }
                        }
                    }
                    // Store the finished output tile for this row.
                    let out_at = TileAddr {
                        base: ((oy * ow + x_out) * no + m0) * b + b0,
                        block: vn,
                        stride: b,
                        rows: vm,
                        transpose: false,
                    };
                    ws.store_c(cpe, output, out_at);
                }
            });
            total.merge(&report);
        }
    }
    total
}

/// Implicit backward convolution (input and/or weight gradients) under
/// the hand-picked tiles.
pub fn backward(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    ops: Option<ImplicitBwdOperands<'_>>,
) -> LaunchReport {
    backward_with_tiles(
        cg,
        shape,
        ConvTiles::hand_backward_input(shape),
        ConvTiles::hand_backward_weights(shape),
        ops,
    )
}

/// Implicit backward convolution under explicit per-pass tiles.
pub fn backward_with_tiles(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    input_tiles: ConvTiles,
    weight_tiles: ConvTiles,
    ops: Option<ImplicitBwdOperands<'_>>,
) -> LaunchReport {
    if let ExecMode::HostNative { .. } = cg.mode() {
        return crate::run_mesh_body(|mesh| {
            backward_with_tiles(mesh, shape, input_tiles, weight_tiles, ops)
        });
    }
    guard_shape(shape);
    guard_tiles(input_tiles, ImplicitPass::BackwardInput, shape);
    guard_tiles(weight_tiles, ImplicitPass::BackwardWeights, shape);
    if !cg.mode().is_functional() {
        return crate::charge_model(
            cg,
            backward_weights_time_with(shape, weight_tiles)
                + backward_input_time_with(shape, input_tiles),
        );
    }
    let mut ops = ops.expect("functional conv requires operands");
    let mut total = LaunchReport::default();
    if let Some(w_grad) = ops.w_grad.as_deref_mut() {
        total.merge(&backward_weights_mesh(
            cg,
            shape,
            weight_tiles,
            ops.input,
            ops.out_grad,
            w_grad,
        ));
    }
    if let Some(in_grad) = ops.in_grad.as_deref_mut() {
        total.merge(&backward_input_mesh(
            cg,
            shape,
            input_tiles,
            ops.weights,
            ops.out_grad,
            in_grad,
        ));
    }
    total
}

fn backward_input_mesh(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    tiles: ConvTiles,
    weights: &[f32],
    out_grad: &[f32],
    in_grad: &mut [f32],
) -> LaunchReport {
    let s = *shape;
    assert_eq!(weights.len(), s.weight_len());
    assert_eq!(out_grad.len(), s.output_len());
    assert_eq!(in_grad.len(), s.input_len());
    let b = s.batch;
    let (no, ni) = (s.out_c, s.in_c);
    let (ow, iw, ih, oh) = (s.out_w(), s.in_w, s.in_h, s.out_h());
    // M = N_i, shared = N_o, N = C_i * B.
    let ConvTiles { mt, nt, kt } = tiles;
    let panels_m = ni.div_ceil(MESH_DIM * mt);
    let panels_n = (iw * b).div_ceil(MESH_DIM * nt);
    let panels_k = no.div_ceil(MESH_DIM * kt);

    let w_view = MemView::new(weights);
    let dy = MemView::new(out_grad);
    let dx = MemViewMut::new(in_grad);

    let layout = tiles.layout(ImplicitPass::BackwardInput);
    let kplan = layout.kernel_plan();
    let mut total = LaunchReport::default();
    for pm in 0..panels_m {
        for pn in 0..panels_n {
            let report = cg.run_planned_async(&kplan, async |cpe| {
                let (i, j) = (cpe.row(), cpe.col());
                let m0 = pm * MESH_DIM * mt + i * mt;
                let vm = ni.saturating_sub(m0).min(mt);
                let col0 = pn * MESH_DIM * nt + j * nt;
                let (x_in, b0) = (col0 / b, col0 % b);
                let vn = if x_in < iw { nt } else { 0 };

                let mut ws = layout.alloc(cpe);
                for y in 0..ih {
                    ws.zero_c(cpe);
                    for ky in 0..s.k {
                        let oy_num = y as isize + s.pad as isize - ky as isize;
                        if oy_num < 0 || !(oy_num as usize).is_multiple_of(s.stride) {
                            continue;
                        }
                        let oy = oy_num as usize / s.stride;
                        if oy >= oh {
                            continue;
                        }
                        for kx in 0..s.k {
                            let ox_num = x_in as isize + s.pad as isize - kx as isize;
                            let ox_ok = ox_num >= 0
                                && (ox_num as usize).is_multiple_of(s.stride)
                                && (ox_num as usize / s.stride) < ow;
                            let ox = if ox_ok { ox_num as usize / s.stride } else { 0 };
                            for pk in 0..panels_k {
                                // Own W^T tile: rows = in-channels m0..,
                                // cols = out-channels by j; W is (K,K,No,Ni)
                                // so load channel-major and transpose.
                                let ko0 = pk * MESH_DIM * kt + j * kt;
                                let vko = no.saturating_sub(ko0).min(kt);
                                let w_tile = TileAddr {
                                    base: ((ky * s.k + kx) * no + ko0) * ni + m0,
                                    block: vm,
                                    stride: ni,
                                    rows: vko,
                                    transpose: true,
                                };
                                ws.load(cpe, Operand::A, w_view, w_tile);
                                // Own dY tile: out-channel rows by i.
                                let ko0i = pk * MESH_DIM * kt + i * kt;
                                let vkoi = no.saturating_sub(ko0i).min(kt);
                                let dy_tile = TileAddr {
                                    base: ((oy * ow + ox) * no + ko0i) * b + b0,
                                    block: vn,
                                    stride: b,
                                    rows: if ox_ok { vkoi } else { 0 },
                                    transpose: false,
                                };
                                ws.load(cpe, Operand::B, dy, dy_tile);
                                ws.panel_product(cpe).await;
                            }
                        }
                    }
                    let dx_at = TileAddr {
                        base: ((y * iw + x_in) * ni + m0) * b + b0,
                        block: vn,
                        stride: b,
                        rows: vm,
                        transpose: false,
                    };
                    ws.store_c(cpe, dx, dx_at);
                }
            });
            total.merge(&report);
        }
    }
    total
}

fn backward_weights_mesh(
    cg: &mut CoreGroup,
    shape: &ConvShape,
    tiles: ConvTiles,
    input: &[f32],
    out_grad: &[f32],
    w_grad: &mut [f32],
) -> LaunchReport {
    let s = *shape;
    assert_eq!(input.len(), s.input_len());
    assert_eq!(out_grad.len(), s.output_len());
    assert_eq!(w_grad.len(), s.weight_len());
    let b = s.batch;
    let (no, ni) = (s.out_c, s.in_c);
    let (ow, iw, ih, oh) = (s.out_w(), s.in_w, s.in_h, s.out_h());
    // M = N_o, N = N_i, shared = R_o x C_o x B (looped row by row).
    let ConvTiles { mt, nt: ntw, kt } = tiles;
    let panels_m = no.div_ceil(MESH_DIM * mt);
    let panels_n = ni.div_ceil(MESH_DIM * ntw);
    let panels_k = (ow * b).div_ceil(MESH_DIM * kt);

    let x_view = MemView::new(input);
    let dy = MemView::new(out_grad);
    let dw = MemViewMut::new(w_grad);

    let layout = tiles.layout(ImplicitPass::BackwardWeights);
    let kplan = layout.kernel_plan();
    let mut total = LaunchReport::default();
    for ky in 0..s.k {
        for kx in 0..s.k {
            for pm in 0..panels_m {
                for pn in 0..panels_n {
                    let report = cg.run_planned_async(&kplan, async |cpe| {
                        let (i, j) = (cpe.row(), cpe.col());
                        let m0 = pm * MESH_DIM * mt + i * mt;
                        let vm = no.saturating_sub(m0).min(mt);
                        let n0 = pn * MESH_DIM * ntw + j * ntw;
                        let vnw = ni.saturating_sub(n0).min(ntw);

                        let mut ws = layout.alloc(cpe);
                        ws.zero_c(cpe);
                        for oy in 0..oh {
                            let y = (oy * s.stride + ky) as isize - s.pad as isize;
                            if y < 0 || y as usize >= ih {
                                continue;
                            }
                            let y = y as usize;
                            for pk in 0..panels_k {
                                // Own dY tile: out-channel rows m0.., shared
                                // (x_out, b) cols by j.
                                let cj0 = pk * MESH_DIM * kt + j * kt;
                                let (xo_j, b0_j) = (cj0 / b, cj0 % b);
                                let dy_tile = TileAddr {
                                    base: ((oy * ow + xo_j) * no + m0) * b + b0_j,
                                    block: kt,
                                    stride: b,
                                    rows: if xo_j < ow { vm } else { 0 },
                                    transpose: false,
                                };
                                ws.load(cpe, Operand::A, dy, dy_tile);
                                // Own X^T tile: shared (x_out, b) rows by i,
                                // in-channel cols n0..; load channel-major
                                // (block over b) and transpose.
                                let ci0 = pk * MESH_DIM * kt + i * kt;
                                let (xo_i, b0_i) = (ci0 / b, ci0 % b);
                                let x = xo_i as isize * s.stride as isize + kx as isize
                                    - s.pad as isize;
                                let x = usize::try_from(x).ok().filter(|&x| xo_i < ow && x < iw);
                                let x_tile = TileAddr {
                                    base: ((y * iw + x.unwrap_or(0)) * ni + n0) * b + b0_i,
                                    block: kt,
                                    stride: b,
                                    rows: if x.is_some() { vnw } else { 0 },
                                    transpose: true,
                                };
                                ws.load(cpe, Operand::B, x_view, x_tile);
                                ws.panel_product(cpe).await;
                            }
                        }
                        let dw_at = TileAddr {
                            base: ((ky * s.k + kx) * no + m0) * ni + n0,
                            block: vnw,
                            stride: ni,
                            rows: vm,
                            transpose: false,
                        };
                        ws.store_c(cpe, dw, dw_at);
                    });
                    total.merge(&report);
                }
            }
        }
    }
    total
}

// ---------------------------------------------------------------------
// Timing models
// ---------------------------------------------------------------------

/// Seconds of one bus step on these tiles. The product term goes through
/// seconds and back to cycles before it joins the bus terms; that round
/// trip is not the identity in f64, and the blessed Table II times were
/// computed with it, so it stays.
fn step_time(mt: usize, nt: usize, kt: usize) -> f64 {
    let product =
        crate::gemm_flop_time((2 * mt * nt * kt) as u64).seconds() * sw26010::arch::CLOCK_HZ;
    tile::bus_step_seconds(mt, nt, kt, product)
}

/// Seconds of one inner trip — one K panel of one filter tap: the left
/// and right tile loads, then the 8 bus steps.
fn inner_time(a: tile::LoadCost, b: tile::LoadCost, tiles: ConvTiles) -> f64 {
    a.dma + a.widen + b.dma + b.widen + MESH_DIM as f64 * step_time(tiles.mt, tiles.nt, tiles.kt)
}

/// `(output row, vertical tap)` pairs that land inside the input —
/// coordinate-mapped padding skips the rest. The forward pass walks them
/// row-major, the weight-gradient pass tap-major.
fn valid_row_taps(s: &ConvShape) -> usize {
    (0..s.out_h())
        .flat_map(|oy| (0..s.k).map(move |ky| (oy * s.stride + ky) as isize - s.pad as isize))
        .filter(|&y| y >= 0 && (y as usize) < s.in_h)
        .count()
}

/// The forward / input-gradient model: every launch makes `trips` inner
/// trips and, once per row of its output, zero-fills, converts and
/// stores the C tile (`c`).
fn row_pass_time(
    launches: usize,
    trips: f64,
    t_inner: f64,
    rows: usize,
    c: tile::LoadCost,
) -> SimTime {
    let per_row_store = 2.0 * c.widen + c.dma;
    let per_launch =
        ATHREAD_LAUNCH_OVERHEAD_SECONDS + trips * t_inner + rows as f64 * per_row_store;
    SimTime::from_seconds(launches as f64 * per_launch)
}

/// Duration of the implicit forward pass for the whole batch.
pub fn forward_time(shape: &ConvShape) -> SimTime {
    forward_time_with(shape, ConvTiles::hand_forward(shape))
}

/// [`forward_time`] under explicit tiles — the tuner's cost model.
pub fn forward_time_with(shape: &ConvShape, tiles: ConvTiles) -> SimTime {
    let s = *shape;
    let ConvTiles { mt, nt, kt } = tiles;
    let launches = s.out_c.div_ceil(MESH_DIM * mt) * (s.out_w() * s.batch).div_ceil(MESH_DIM * nt);
    let panels_k = s.in_c.div_ceil(MESH_DIM * kt);
    // W tile, X tile.
    let t_inner = inner_time(tile::load_cost(kt, mt), tile::load_cost(nt, kt), tiles);
    let trips = valid_row_taps(&s) as f64 * s.k as f64 * panels_k as f64;
    row_pass_time(launches, trips, t_inner, s.out_h(), tile::load_cost(nt, mt))
}

/// Duration of the implicit input-gradient pass for the whole batch.
pub fn backward_input_time(shape: &ConvShape) -> SimTime {
    backward_input_time_with(shape, ConvTiles::hand_backward_input(shape))
}

/// [`backward_input_time`] under explicit tiles.
pub fn backward_input_time_with(shape: &ConvShape, tiles: ConvTiles) -> SimTime {
    let s = *shape;
    let ConvTiles { mt, nt, kt } = tiles;
    let launches = s.in_c.div_ceil(MESH_DIM * mt) * (s.in_w * s.batch).div_ceil(MESH_DIM * nt);
    let panels_k = s.out_c.div_ceil(MESH_DIM * kt);

    // (input row, vertical tap) pairs that map onto an output row.
    let valid_ky = (0..s.in_h)
        .flat_map(|y| (0..s.k).map(move |ky| y as isize + s.pad as isize - ky as isize))
        .filter(|&oy_num| {
            oy_num >= 0
                && (oy_num as usize).is_multiple_of(s.stride)
                && (oy_num as usize / s.stride) < s.out_h()
        })
        .count();

    // W^T tile, dY tile.
    let t_inner = inner_time(tile::load_cost(mt, kt), tile::load_cost(nt, kt), tiles);
    let trips = valid_ky as f64 * s.k as f64 * panels_k as f64;
    row_pass_time(launches, trips, t_inner, s.in_h, tile::load_cost(nt, mt))
}

/// Duration of the implicit weight-gradient pass for the whole batch.
pub fn backward_weights_time(shape: &ConvShape) -> SimTime {
    backward_weights_time_with(shape, ConvTiles::hand_backward_weights(shape))
}

/// [`backward_weights_time`] under explicit tiles.
pub fn backward_weights_time_with(shape: &ConvShape, tiles: ConvTiles) -> SimTime {
    let s = *shape;
    let ConvTiles { mt, nt: ntw, kt } = tiles;
    let launches = s.out_c.div_ceil(MESH_DIM * mt) * s.in_c.div_ceil(MESH_DIM * ntw);
    let panels_k = (s.out_w() * s.batch).div_ceil(MESH_DIM * kt);

    // dY tile, X^T tile.
    let t_inner = inner_time(tile::load_cost(kt, mt), tile::load_cost(kt, ntw), tiles);
    let c = tile::load_cost(ntw, mt);
    let per_launch_fixed = ATHREAD_LAUNCH_OVERHEAD_SECONDS + 2.0 * c.widen + c.dma;
    // One launch batch per (ky, kx); the valid rows are summed over ky,
    // and kx multiplies uniformly.
    let total = launches as f64
        * (s.k as f64 * s.k as f64 * per_launch_fixed
            + s.k as f64 * valid_row_taps(&s) as f64 * panels_k as f64 * t_inner);
    SimTime::from_seconds(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::transform::{
        filters_oikk_to_kkon, nchw_to_rcnb_host, rcnb_to_nchw_host, TransShape,
    };
    use sw26010::ExecMode;

    fn pattern(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed);
                ((x >> 35) % 400) as f32 / 200.0 - 1.0
            })
            .collect()
    }

    fn in_trans(s: &ConvShape) -> TransShape {
        TransShape {
            batch: s.batch,
            channels: s.in_c,
            height: s.in_h,
            width: s.in_w,
        }
    }

    fn out_trans(s: &ConvShape) -> TransShape {
        TransShape {
            batch: s.batch,
            channels: s.out_c,
            height: s.out_h(),
            width: s.out_w(),
        }
    }

    fn check_forward(s: ConvShape) {
        let input_nchw = pattern(s.input_len(), 1);
        let weights_oikk = pattern(s.weight_len(), 2);
        let mut want = vec![0.0; s.output_len()];
        reference::conv_forward(&s, &input_nchw, &weights_oikk, &mut want);

        let mut input_rcnb = vec![0.0; s.input_len()];
        nchw_to_rcnb_host(&in_trans(&s), &input_nchw, &mut input_rcnb);
        let weights = filters_oikk_to_kkon(s.out_c, s.in_c, s.k, &weights_oikk);
        let mut out_rcnb = vec![0.0; s.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        forward(
            &mut cg,
            &s,
            Some(ImplicitFwdOperands {
                input: &input_rcnb,
                weights: &weights,
                output: &mut out_rcnb,
            }),
        );
        let mut got = vec![0.0; s.output_len()];
        rcnb_to_nchw_host(&out_trans(&s), &out_rcnb, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-3 * w.abs().max(1.0),
                "implicit fwd {s:?} elem {i}: {g} vs {w}"
            );
        }
    }

    fn check_backward(s: ConvShape) {
        let input_nchw = pattern(s.input_len(), 3);
        let weights_oikk = pattern(s.weight_len(), 4);
        let dy_nchw = pattern(s.output_len(), 5);
        let mut want_dx = vec![0.0; s.input_len()];
        let mut want_dw = vec![0.0; s.weight_len()];
        reference::conv_backward(
            &s,
            &input_nchw,
            &weights_oikk,
            &dy_nchw,
            &mut want_dx,
            &mut want_dw,
        );

        let mut input_rcnb = vec![0.0; s.input_len()];
        nchw_to_rcnb_host(&in_trans(&s), &input_nchw, &mut input_rcnb);
        let mut dy_rcnb = vec![0.0; s.output_len()];
        nchw_to_rcnb_host(&out_trans(&s), &dy_nchw, &mut dy_rcnb);
        let weights = filters_oikk_to_kkon(s.out_c, s.in_c, s.k, &weights_oikk);

        let mut dx_rcnb = vec![0.0; s.input_len()];
        let mut dw_kkon = vec![0.0; s.weight_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        backward(
            &mut cg,
            &s,
            Some(ImplicitBwdOperands {
                input: &input_rcnb,
                weights: &weights,
                out_grad: &dy_rcnb,
                in_grad: Some(&mut dx_rcnb),
                w_grad: Some(&mut dw_kkon),
            }),
        );

        let mut got_dx = vec![0.0; s.input_len()];
        rcnb_to_nchw_host(&in_trans(&s), &dx_rcnb, &mut got_dx);
        let got_dw = crate::transform::filters_kkon_to_oikk(s.out_c, s.in_c, s.k, &dw_kkon);
        for (i, (g, w)) in got_dx.iter().zip(&want_dx).enumerate() {
            assert!(
                (g - w).abs() < 1e-2 * w.abs().max(1.0),
                "implicit dX {s:?} elem {i}: {g} vs {w}"
            );
        }
        for (i, (g, w)) in got_dw.iter().zip(&want_dw).enumerate() {
            assert!(
                (g - w).abs() < 1e-2 * w.abs().max(1.0),
                "implicit dW {s:?} elem {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn forward_padded_stride1() {
        check_forward(ConvShape {
            batch: 4,
            in_c: 5,
            in_h: 6,
            in_w: 6,
            out_c: 7,
            k: 3,
            stride: 1,
            pad: 1,
        });
    }

    #[test]
    fn forward_strided() {
        check_forward(ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 9,
            in_w: 9,
            out_c: 4,
            k: 3,
            stride: 2,
            pad: 1,
        });
    }

    #[test]
    fn forward_one_by_one() {
        check_forward(ConvShape {
            batch: 8,
            in_c: 6,
            in_h: 4,
            in_w: 4,
            out_c: 10,
            k: 1,
            stride: 1,
            pad: 0,
        });
    }

    #[test]
    fn forward_wide_batch() {
        // batch 33 exercises pick_nt's divisor search (nt = 11).
        assert_eq!(pick_nt(33), 11);
        check_forward(ConvShape {
            batch: 33,
            in_c: 2,
            in_h: 4,
            in_w: 4,
            out_c: 3,
            k: 3,
            stride: 1,
            pad: 1,
        });
    }

    #[test]
    fn backward_padded_stride1() {
        check_backward(ConvShape {
            batch: 3,
            in_c: 4,
            in_h: 6,
            in_w: 6,
            out_c: 5,
            k: 3,
            stride: 1,
            pad: 1,
        });
    }

    #[test]
    fn backward_strided() {
        check_backward(ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 9,
            in_w: 9,
            out_c: 4,
            k: 3,
            stride: 2,
            pad: 1,
        });
    }

    #[test]
    fn strategy_gates_match_table_ii() {
        let mk = |ni, no| ConvShape {
            batch: 128,
            in_c: ni,
            in_h: 56,
            in_w: 56,
            out_c: no,
            k: 3,
            stride: 1,
            pad: 1,
        };
        assert!(!supports_forward(&mk(3, 64))); // conv1_1
        assert!(supports_forward(&mk(64, 64))); // conv1_2
        assert!(!supports_backward(&mk(64, 64))); // conv1_2 backward
        assert!(!supports_backward(&mk(64, 128))); // conv2_1 backward
        assert!(supports_backward(&mk(128, 128))); // conv2_2 backward
    }

    #[test]
    fn timing_mode_charges_models() {
        let s = ConvShape {
            batch: 128,
            in_c: 128,
            in_h: 56,
            in_w: 56,
            out_c: 256,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let f = forward(&mut cg, &s, None);
        assert_eq!(f.elapsed, forward_time(&s));
        let b = backward(&mut cg, &s, None);
        assert_eq!(
            b.elapsed,
            backward_weights_time(&s) + backward_input_time(&s)
        );
    }

    #[test]
    fn forward_model_matches_mesh() {
        let s = ConvShape {
            batch: 8,
            in_c: 16,
            in_h: 6,
            in_w: 6,
            out_c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let input = vec![0.0f32; s.input_len()];
        let weights = vec![0.0f32; s.weight_len()];
        let mut out = vec![0.0f32; s.output_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = forward(
            &mut cg,
            &s,
            Some(ImplicitFwdOperands {
                input: &input,
                weights: &weights,
                output: &mut out,
            }),
        );
        let model = forward_time(&s);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn searched_tiles_match_hand_tiles_bitwise() {
        // The accumulation over (ky, kx, channel) is ascending for every
        // tile triple, so any feasible tiling must reproduce the hand
        // plan's output bit for bit — the invariant the tuner relies on.
        let s = ConvShape {
            batch: 6,
            in_c: 20,
            in_h: 5,
            in_w: 5,
            out_c: 12,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let input = pattern(s.input_len(), 7);
        let weights = pattern(s.weight_len(), 8);
        let run = |tiles: ConvTiles| {
            let mut out = vec![0.0f32; s.output_len()];
            let mut cg = CoreGroup::new(ExecMode::Functional);
            forward_with_tiles(
                &mut cg,
                &s,
                tiles,
                Some(ImplicitFwdOperands {
                    input: &input,
                    weights: &weights,
                    output: &mut out,
                }),
            );
            out
        };
        let hand = run(ConvTiles::hand_forward(&s));
        for tiles in [
            ConvTiles {
                mt: 1,
                nt: 1,
                kt: 1,
            },
            ConvTiles {
                mt: 5,
                nt: 6,
                kt: 2,
            },
            ConvTiles {
                mt: 2,
                nt: 3,
                kt: 7,
            },
        ] {
            tiles.validate(ImplicitPass::Forward, &s).unwrap();
            assert_eq!(run(tiles), hand, "tiles {tiles:?}");
        }
    }

    #[test]
    #[should_panic(expected = "infeasible implicit-conv tiling")]
    fn non_dividing_fibre_tile_is_rejected() {
        let s = ConvShape {
            batch: 6,
            in_c: 8,
            in_h: 4,
            in_w: 4,
            out_c: 8,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        // nt = 4 does not divide batch 6.
        forward_with_tiles(
            &mut cg,
            &s,
            ConvTiles {
                mt: 1,
                nt: 4,
                kt: 1,
            },
            None,
        );
    }

    #[test]
    #[should_panic(expected = "swdnn.conv_implicit rejected shape")]
    fn degenerate_shape_fails_with_typed_diagnostic() {
        let s = ConvShape {
            batch: 4,
            in_c: 8,
            in_h: 0,
            in_w: 4,
            out_c: 8,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        forward(&mut cg, &s, None);
    }

    #[test]
    #[should_panic(expected = "swdnn.conv_implicit rejected shape")]
    fn oversized_window_fails_before_underflow() {
        // k = 9 on a 4x4 unpadded input: out_h() would underflow; the
        // typed guard must fire first.
        let s = ConvShape {
            batch: 4,
            in_c: 8,
            in_h: 4,
            in_w: 4,
            out_c: 8,
            k: 9,
            stride: 1,
            pad: 0,
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        backward(&mut cg, &s, None);
    }

    #[test]
    fn small_channels_degrade_throughput() {
        // The rationale for the 64-channel gate: effective flops collapse
        // when channel tiles shrink.
        let base = ConvShape {
            batch: 128,
            in_c: 256,
            in_h: 28,
            in_w: 28,
            out_c: 256,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let small = ConvShape {
            in_c: 16,
            out_c: 16,
            ..base
        };
        let rate = |s: &ConvShape| s.forward_flops() as f64 / forward_time(s).seconds();
        assert!(
            rate(&small) < 0.4 * rate(&base),
            "small-channel rate {:.1}G vs base {:.1}G",
            rate(&small) / 1e9,
            rate(&base) / 1e9
        );
    }
}

#[cfg(test)]
mod model_validation {
    use super::*;
    use sw26010::ExecMode;

    fn small() -> ConvShape {
        ConvShape {
            batch: 8,
            in_c: 16,
            in_h: 6,
            in_w: 6,
            out_c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn backward_input_model_matches_mesh() {
        let s = small();
        let weights = vec![0.0f32; s.weight_len()];
        let dy = vec![0.0f32; s.output_len()];
        let mut dx = vec![0.0f32; s.input_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let tiles = ConvTiles::hand_backward_input(&s);
        let mesh = backward_input_mesh(&mut cg, &s, tiles, &weights, &dy, &mut dx);
        let model = backward_input_time(&s);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn backward_weights_model_matches_mesh() {
        let s = small();
        let input = vec![0.0f32; s.input_len()];
        let dy = vec![0.0f32; s.output_len()];
        let mut dw = vec![0.0f32; s.weight_len()];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let tiles = ConvTiles::hand_backward_weights(&s);
        let mesh = backward_weights_mesh(&mut cg, &s, tiles, &input, &dy, &mut dw);
        let model = backward_weights_time(&s);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }

    #[test]
    fn strided_conv_models_stay_consistent() {
        // Stride-2 ResNet-style downsampling: models must stay finite and
        // ordered (backward-weights > 0, forward > 0).
        let s = ConvShape {
            batch: 32,
            in_c: 256,
            in_h: 28,
            in_w: 28,
            out_c: 512,
            k: 1,
            stride: 2,
            pad: 0,
        };
        let f = forward_time(&s).seconds();
        let bw = backward_weights_time(&s).seconds();
        let bi = backward_input_time(&s).seconds();
        assert!(f > 0.0 && bw > 0.0 && bi > 0.0);
        assert!(f.is_finite() && bw.is_finite() && bi.is_finite());
    }
}

//! Blocked GEMM on the 8x8 CPE mesh with register-communication
//! broadcasts — the algorithm of Fig. 3 in the paper (after swDNN \[4\] and
//! Jiang et al. \[8\]).
//!
//! ## Algorithm
//!
//! Panels of `C` of size `(8*mt) x (8*nt)` are distributed so CPE `(i, j)`
//! owns an `mt x nt` tile. For each `8*kt`-wide K panel, CPE `(i, j)` DMA-
//! loads its own `mt x kt` tile of `A` and `kt x nt` tile of `B`, widened
//! to f64 (the chip has no single-precision register communication). The
//! panel product then takes 8 steps: at step `t`, CPE `(i, t)` broadcasts
//! its `A` tile along row `i` and CPE `(t, j)` broadcasts its `B` tile
//! along column `j`, and every CPE accumulates
//! `C(i,j) += A(i,t) * B(t,j)` in its LDM. Each element of `A` and `B` is
//! fetched from memory *once* per panel pass — the highest flop-per-byte
//! plan available on this machine (Principle 4).
//!
//! ## One body, one plan, one model
//!
//! There is one mesh kernel, `execute_mesh`, whose K-panel loop is
//! written once. The [`TilingScheme`] parameterises it: [`Buffering`]
//! chooses whether a panel's tiles are fetched synchronously or were
//! prefetched while the previous panel multiplied, [`Broadcast`] whether
//! the panel product is the 8 bus steps above or one product over
//! DMA-replicated strips (the Principle 4 control). The loop is built
//! from the operations of `tile`, which the implicit
//! convolutions share.
//!
//! Everything else about a scheme is derived, not mirrored by hand:
//!
//! * the LDM buffers the kernel allocates and the
//!   [`TilingScheme::kernel_plan`] it is validated against are two
//!   readings of one `TileLayout` table;
//! * [`TilingScheme::time_model`] (what timing-only execution charges and
//!   the tuner searches with) and `TilingScheme::stats_model` are
//!   assembled from the per-phase terms of `tile` — tile load,
//!   bus step, C preload/store, launch — the same terms the
//!   `conv_implicit` models use.
//!
//! `tests` assert the mesh and the models agree (time within a few
//! percent — the residual is barrier-free clock drift between steps —
//! and counters exactly) for every variant.

use sw26010::arch::{ATHREAD_LAUNCH_OVERHEAD_SECONDS, MESH_DIM};
use sw26010::{
    CoreGroup, Cpe, ExecMode, KernelPlan, LaunchReport, MemView, MemViewMut, PlanViolation,
    SimTime, Stats,
};

use crate::host::{self, PackedB, Panels};
use crate::scheme::{Broadcast, Buffering, TilingScheme};
use crate::shapes::{GemmDims, Trans};
use crate::tile::{self, Operand, TileAddr, TileLayout, Tiles};

/// Per-CPE tile extents of a GEMM plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Rows of C per CPE.
    pub mt: usize,
    /// Columns of C per CPE.
    pub nt: usize,
    /// K extent per CPE per panel.
    pub kt: usize,
}

/// Largest square tile edge that keeps the working set
/// (3 owned tiles + 2 receive buffers in f64, one f32 staging buffer)
/// inside the 64 KB LDM.
pub(crate) const MAX_TILE: usize = 32;

impl TilePlan {
    /// Choose tile extents for a problem size: full 32-wide tiles when the
    /// dimensions allow, shrunk to `ceil(dim / 8)` for small dimensions so
    /// no CPE is left entirely idle unless the dimension is smaller than
    /// the mesh itself. The result is always feasible: the pick is run
    /// through `TilePlan::shrink_to_fit`, a *checked* path that holds in
    /// release builds too (this used to be a `debug_assert!` only).
    pub fn choose(dims: GemmDims) -> TilePlan {
        let pick = |d: usize| d.div_ceil(MESH_DIM).clamp(1, MAX_TILE);
        TilePlan {
            mt: pick(dims.m),
            nt: pick(dims.n),
            kt: pick(dims.k),
        }
        .shrink_to_fit()
        .expect("a 1x1x1 tile always fits LDM")
    }

    /// Check this plan's working set under the default strategies
    /// (synchronous loads, bus broadcasts) against the LDM capacity,
    /// through the same [`TilingScheme::validate`] the launch path
    /// enforces.
    pub(crate) fn check_ldm(&self) -> Result<(), PlanViolation> {
        TilingScheme {
            tile: *self,
            buffering: Buffering::Single,
            broadcast: Broadcast::RowCol,
        }
        .validate()
    }

    /// Shrink the largest extent (halving, ties broken `kt`, `nt`, `mt`)
    /// until the single-buffered working set fits LDM. Returns `None`
    /// only for a zero extent, which no amount of shrinking repairs.
    pub(crate) fn shrink_to_fit(mut self) -> Option<TilePlan> {
        if self.mt == 0 || self.nt == 0 || self.kt == 0 {
            return None;
        }
        while self.check_ldm().is_err() {
            let largest = self.kt.max(self.nt).max(self.mt);
            if largest == 1 {
                unreachable!("a 1x1x1 GEMM tile fits any LDM");
            }
            if self.kt == largest {
                self.kt = (self.kt / 2).max(1);
            } else if self.nt == largest {
                self.nt = (self.nt / 2).max(1);
            } else {
                self.mt = (self.mt / 2).max(1);
            }
        }
        Some(self)
    }

    /// Panel extents across the whole mesh.
    pub(crate) fn panel_m(&self) -> usize {
        self.mt * MESH_DIM
    }
    pub(crate) fn panel_n(&self) -> usize {
        self.nt * MESH_DIM
    }
    pub(crate) fn panel_k(&self) -> usize {
        self.kt * MESH_DIM
    }
}

/// Functional operands of a GEMM call (row-major, contiguous).
pub struct GemmOperands<'a> {
    pub a: &'a [f32],
    pub b: &'a [f32],
    pub c: &'a mut [f32],
}

/// `C = A*B + beta*C` on one core group.
///
/// When `cg` is in timing-only mode the analytic model is charged and
/// `ops` may be `None`; in functional mode `ops` must be provided and the
/// mesh kernel runs for real.
pub fn gemm(
    cg: &mut CoreGroup,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    ops: Option<GemmOperands<'_>>,
) -> LaunchReport {
    gemm_with_scheme(cg, dims, ta, tb, beta, TilingScheme::hand(dims), ops)
}

/// `C = A*B + beta*C` under an explicit [`TilingScheme`] — the
/// parameterized entry the autotuner drives. The scheme is validated
/// through the same [`KernelPlan::validate`] path the launch enforces,
/// in *every* execution mode, so an infeasible scheme is rejected in
/// release builds before anything is charged or run.
pub fn gemm_with_scheme(
    cg: &mut CoreGroup,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    scheme: TilingScheme,
    ops: Option<GemmOperands<'_>>,
) -> LaunchReport {
    run(cg, dims, ta, tb, beta, scheme, ops, None)
}

/// [`gemm`] whose B is also at hand as `packed`, packed once from `ops.b`
/// under `tb`. The `HostNative` path multiplies by those panels instead
/// of packing B on every call; the mesh and the timing model read B as
/// [`gemm`] does. The result is the same bits either way.
pub fn gemm_prepacked(
    cg: &mut CoreGroup,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    ops: Option<GemmOperands<'_>>,
    packed: &PackedB,
) -> LaunchReport {
    let scheme = TilingScheme::hand(dims);
    run(cg, dims, ta, tb, beta, scheme, ops, Some(packed))
}

#[allow(clippy::too_many_arguments)]
fn run(
    cg: &mut CoreGroup,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    scheme: TilingScheme,
    ops: Option<GemmOperands<'_>>,
    packed: Option<&PackedB>,
) -> LaunchReport {
    check_scheme(scheme);
    if cg.mode().is_functional() {
        let ops = ops.expect("functional GEMM requires operands");
        assert_eq!(ops.a.len(), dims.m * dims.k, "A size");
        assert_eq!(ops.b.len(), dims.k * dims.n, "B size");
        assert_eq!(ops.c.len(), dims.m * dims.n, "C size");
        if let ExecMode::HostNative { .. } = cg.mode() {
            let b = match packed {
                Some(p) => Panels::Prepacked(p),
                None => Panels::PerCall(tb, ops.b),
            };
            let (ws, workers) = cg.workspace_and_workers();
            host::gemm(ws, workers, dims, ta, beta, ops.a, b, ops.c);
            return LaunchReport::default();
        }
        execute_mesh(cg, dims, ta, tb, beta, scheme, ops)
    } else {
        LaunchReport {
            stats: scheme.stats_model(dims, beta),
            ..crate::charge_model(cg, scheme.time_model(dims, beta))
        }
    }
}

/// Panic on a scheme no launch could run — in every execution mode, the
/// host's included, where the scheme steers nothing.
pub(crate) fn check_scheme(scheme: TilingScheme) {
    if let Err(v) = scheme.validate() {
        panic!("infeasible GEMM tiling scheme: {v}");
    }
}

/// The mesh kernel: one launch per `(8*mt) x (8*nt)` panel of C, each
/// CPE walking the K panels of its tile.
fn execute_mesh(
    cg: &mut CoreGroup,
    dims: GemmDims,
    ta: Trans,
    tb: Trans,
    beta: f32,
    scheme: TilingScheme,
    ops: GemmOperands<'_>,
) -> LaunchReport {
    let GemmDims { m, n, k } = dims;
    let plan = scheme.tile;
    let TilePlan { mt, nt, kt } = plan;
    let panels_k = k.div_ceil(plan.panel_k());
    let prefetch = scheme.buffering == Buffering::Double;

    let a_view = MemView::new(ops.a);
    let b_view = MemView::new(ops.b);
    let c_view = MemViewMut::new(ops.c);

    let layout = scheme.layout();
    let kplan = layout.kernel_plan();
    let mut total = LaunchReport::default();
    for pm in 0..m.div_ceil(plan.panel_m()) {
        for pn in 0..n.div_ceil(plan.panel_n()) {
            let report = cg.run_planned_async(&kplan, async |cpe| {
                let (i, j) = (cpe.row(), cpe.col());
                // Tile origin and valid extents in C.
                let ci0 = pm * plan.panel_m() + i * mt;
                let cj0 = pn * plan.panel_n() + j * nt;
                let vm = m.saturating_sub(ci0).min(mt);
                let vn = n.saturating_sub(cj0).min(nt);
                let c_at = TileAddr::of_matrix(Trans::No, (m, n), (ci0, cj0), (vm, vn));

                // The A and B tiles this CPE fetches for K panel `pk`:
                // its own `kt` slice of the panel (picked by mesh column
                // for A, by mesh row for B) when tiles are shared over
                // the buses, the whole strip when every CPE replicates.
                let fetch = |pk: usize| {
                    let k0 = pk * plan.panel_k();
                    let (ak0, bk0) = match scheme.broadcast {
                        Broadcast::RowCol => (k0 + j * kt, k0 + i * kt),
                        Broadcast::DmaReplicate => (k0, k0),
                    };
                    let vak = k.saturating_sub(ak0).min(layout.kw);
                    let vbk = k.saturating_sub(bk0).min(layout.kw);
                    (
                        TileAddr::of_matrix(ta, (m, k), (ci0, ak0), (vm, vak)),
                        TileAddr::of_matrix(tb, (k, n), (bk0, cj0), (vbk, vn)),
                    )
                };

                // Start panel `pk`'s DMA into staging pair `pk % 2`.
                let issue = |tiles: &mut Tiles, cpe: &mut Cpe, pk: usize| {
                    let (fa, fb) = fetch(pk);
                    [
                        tiles.issue(cpe, Operand::A, pk % 2, a_view, fa),
                        tiles.issue(cpe, Operand::B, pk % 2, b_view, fb),
                    ]
                };

                let mut tiles = layout.alloc(cpe);
                tiles.preload_c(cpe, c_view.as_view(), c_at, beta);
                let mut pending = if prefetch {
                    issue(&mut tiles, cpe, 0)
                } else {
                    [None, None]
                };
                for pk in 0..panels_k {
                    let (fa, fb) = fetch(pk);
                    if prefetch {
                        // This panel's tiles were issued a panel ago;
                        // start the next panel's fetch into the other
                        // staging pair before multiplying, so its DMA
                        // hides behind this panel's product.
                        for h in std::mem::take(&mut pending).into_iter().flatten() {
                            cpe.dma_wait(h);
                        }
                        tiles.widen(cpe, Operand::A, pk % 2, fa);
                        tiles.widen(cpe, Operand::B, pk % 2, fb);
                        if pk + 1 < panels_k {
                            pending = issue(&mut tiles, cpe, pk + 1);
                        }
                    } else {
                        tiles.load(cpe, Operand::A, a_view, fa);
                        tiles.load(cpe, Operand::B, b_view, fb);
                    }
                    tiles.panel_product(cpe).await;
                }
                tiles.store_c(cpe, c_view, c_at);
            });
            total.merge(&report);
        }
    }
    total
}

// ---------------------------------------------------------------------
// Derived descriptions: LDM plan, time, counters
// ---------------------------------------------------------------------

impl TilingScheme {
    /// The LDM buffer table of the kernel under this scheme — what
    /// [`execute_mesh`] allocates and what [`TilingScheme::kernel_plan`]
    /// declares.
    pub(crate) fn layout(&self) -> TileLayout {
        let name = match (self.broadcast, self.buffering) {
            (Broadcast::DmaReplicate, _) => "swdnn.gemm_norlc",
            (Broadcast::RowCol, Buffering::Double) => "swdnn.gemm_db",
            (Broadcast::RowCol, Buffering::Single) => "swdnn.gemm",
        };
        let TilePlan { mt, nt, kt } = self.tile;
        TileLayout::new(name, (mt, nt, kt), self.buffering, self.broadcast)
    }

    /// The launch-metadata descriptor of the kernel under this scheme.
    pub fn kernel_plan(&self) -> KernelPlan {
        self.layout().kernel_plan()
    }

    /// Predicted duration of [`gemm_with_scheme`] under this scheme,
    /// mirroring the charging order of the mesh kernel (interior,
    /// full-tile CPEs dominate the makespan) — the cost model the
    /// autotuner searches with, identical to what timing-only execution
    /// charges.
    ///
    /// Double buffering is a *design-space probe*, not the default: the
    /// paper's measured kernels land at the synchronous model's rates
    /// (Table II); this quantifies what the extra staging LDM would buy.
    /// It can hide a panel's DMA behind the previous panel's steps, not
    /// the widening and not the first panel's fetch.
    pub fn time_model(&self, dims: GemmDims, beta: f32) -> SimTime {
        let plan = self.tile;
        let TilePlan { mt, nt, kt } = plan;
        let launches = (dims.m.div_ceil(plan.panel_m()) * dims.n.div_ceil(plan.panel_n())) as f64;
        let panels_k = dims.k.div_ceil(plan.panel_k());

        let c = tile::load_cost(nt, mt);
        // Optional C pre-load (else a zero fill at the same conversion
        // charge).
        let t_cload = if beta != 0.0 {
            c.dma + c.widen
        } else {
            c.widen
        };
        if self.broadcast == Broadcast::DmaReplicate {
            // The ablation model plus the pre-load term the mesh kernel
            // charges, added outside the per-launch sum as it always was.
            return SimTime::from_seconds(
                time_model_no_rlc(dims, plan).seconds() + launches * t_cload,
            );
        }

        // Per K panel: two strided tile loads + widening, then 8 steps.
        let (a, b) = (tile::load_cost(kt, mt), tile::load_cost(nt, kt));
        let product = crate::flop_cycles((2 * mt * nt * kt) as u64);
        let t_steps = MESH_DIM as f64 * tile::bus_step_seconds(mt, nt, kt, product);
        let t_head = ATHREAD_LAUNCH_OVERHEAD_SECONDS + t_cload;
        let t_cstore = c.widen + c.dma;
        let t_launch = match self.buffering {
            Buffering::Single => {
                t_head + panels_k as f64 * ((a.dma + a.widen) + (b.dma + b.widen) + t_steps)
            }
            Buffering::Double => {
                let t_dma = a.dma + b.dma;
                let t_convert = a.widen + b.widen;
                t_head
                    + (t_dma + t_convert + t_steps)
                    + panels_k.saturating_sub(1) as f64 * (t_convert + t_steps.max(t_dma))
            }
        } + t_cstore;
        SimTime::from_seconds(launches * t_launch)
    }

    /// Predicted counter totals under this scheme, mirroring the mesh
    /// kernel's charges. Flops and bytes are exact; the DMA request count
    /// is the full-mesh figure (edge CPEs with an empty valid region skip
    /// theirs — per-request startup already dominates edge effects).
    pub(crate) fn stats_model(&self, dims: GemmDims, beta: f32) -> Stats {
        let plan = self.tile;
        let TilePlan { mt, nt, kt } = plan;
        let panels_m = dims.m.div_ceil(plan.panel_m());
        let panels_n = dims.n.div_ceil(plan.panel_n());
        let launches = (panels_m * panels_n) as u64;
        let kpanels = launches * dims.k.div_ceil(plan.panel_k()) as u64;
        let cpes = 64u64;

        // Per panel pass the buses fetch each element of A and B once
        // and move it 8 times; replication fetches it 8 times (once per
        // CPE of its mesh row / column) and moves nothing — the traffic
        // Principle 4 avoids.
        let bus = self.broadcast == Broadcast::RowCol;
        let fetches = if bus { 1 } else { MESH_DIM as u64 };
        let kw = self.layout().kw;
        let mut dma_get_bytes =
            fetches * (panels_n * dims.m * dims.k * 4 + panels_m * dims.k * dims.n * 4) as u64;
        if beta != 0.0 {
            dma_get_bytes += (dims.m * dims.n * 4) as u64;
        }
        // Per CPE per K panel: the widened tile words, and the padded
        // products — 8 steps of `kt`, or one strip of `8 * kt`.
        let tile_words = (mt * kw + kw * nt) as u64;
        let product = (2 * mt * nt * MESH_DIM * kt) as u64;
        // Per CPE per launch: zero/preload plus store conversion.
        let c_charges = 2 * (mt * nt) as u64;
        Stats {
            launches,
            dma_get_bytes,
            dma_put_bytes: (dims.m * dims.n * 4) as u64,
            dma_requests: kpanels * 2 * cpes + launches * cpes * if beta != 0.0 { 2 } else { 1 },
            // Per K panel, 8 steps x (8 A-senders + 8 B-senders).
            rlc_messages: if bus { kpanels * 8 * (8 + 8) } else { 0 },
            rlc_bytes: if bus {
                kpanels * 8 * 8 * tile_words * 8
            } else {
                0
            },
            flops: cpes * (kpanels * (product + tile_words) + launches * c_charges),
            ..Default::default()
        }
    }
}

/// Principle 4 ablation: a GEMM where each CPE DMA-loads the full A
/// row-strip and B column-strip itself instead of sharing tiles over the
/// register buses. Same compute, ~8x the A/B traffic. This is the
/// `ablations` scenario's figure and carries no C pre-load term;
/// [`TilingScheme::time_model`] under [`Broadcast::DmaReplicate`] adds it.
pub fn time_model_no_rlc(dims: GemmDims, plan: TilePlan) -> SimTime {
    let TilePlan { mt, nt, kt } = plan;
    let launches = (dims.m.div_ceil(plan.panel_m()) * dims.n.div_ceil(plan.panel_n())) as f64;
    let panels_k = dims.k.div_ceil(plan.panel_k());

    // Per K panel each CPE loads an mt x (8kt) strip of A (contiguous
    // rows of 8kt) and an (8kt) x nt strip of B, then multiplies them.
    let strip = MESH_DIM * kt;
    let (a, b, c) = (
        tile::load_cost(strip, mt),
        tile::load_cost(nt, strip),
        tile::load_cost(nt, mt),
    );
    let t_product = crate::gemm_flop_time((2 * mt * nt * strip) as u64).seconds();
    let t_panel = (a.dma + a.widen) + (b.dma + b.widen) + t_product;
    let t_launch = ATHREAD_LAUNCH_OVERHEAD_SECONDS + panels_k as f64 * t_panel + c.widen + c.dma;
    SimTime::from_seconds(launches * t_launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sw26010::ExecMode;

    /// Effective flop rate of the *useful* (un-padded) work for a problem
    /// size: `2mnk / time`. This is the "Gflops" column of Table II.
    fn effective_gflops(dims: GemmDims, elapsed: SimTime) -> f64 {
        2.0 * dims.m as f64 * dims.n as f64 * dims.k as f64 / elapsed.seconds() / 1.0e9
    }

    pub(super) fn pattern(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) % 1000) as f32 / 250.0 - 2.0
            })
            .collect()
    }

    /// Planned LDM bytes of `tile` under the default strategies.
    fn ldm_bytes(tile: TilePlan) -> usize {
        single(tile).kernel_plan().ldm_bytes()
    }

    fn single(tile: TilePlan) -> TilingScheme {
        TilingScheme {
            tile,
            buffering: Buffering::Single,
            broadcast: Broadcast::RowCol,
        }
    }

    fn check_gemm(m: usize, n: usize, k: usize, ta: Trans, tb: Trans, beta: f32) {
        let dims = GemmDims::new(m, n, k);
        let a = pattern(m * k, 1);
        let b = pattern(k * n, 2);
        let c0 = pattern(m * n, 3);

        let mut expected = c0.clone();
        reference::gemm(dims, ta, tb, &a, &b, beta, &mut expected);

        for mode in crate::FUNCTIONAL_MODES {
            let mut cg = CoreGroup::new(mode);
            let mut c = c0.clone();
            gemm(
                &mut cg,
                dims,
                ta,
                tb,
                beta,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut c,
                }),
            );
            for (i, (got, want)) in c.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "{mode:?} ({m},{n},{k},{ta:?},{tb:?},beta={beta}) mismatch at {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn mesh_matches_reference_small() {
        check_gemm(8, 8, 8, Trans::No, Trans::No, 0.0);
    }

    #[test]
    fn mesh_matches_reference_unaligned() {
        check_gemm(13, 17, 9, Trans::No, Trans::No, 0.0);
    }

    #[test]
    fn mesh_matches_reference_multi_panel() {
        // Forces panels_m = panels_n = panels_k = 2 with tiny tiles.
        check_gemm(20, 23, 19, Trans::No, Trans::No, 0.0);
    }

    #[test]
    fn mesh_matches_reference_beta_one() {
        check_gemm(16, 16, 16, Trans::No, Trans::No, 1.0);
    }

    #[test]
    fn mesh_matches_reference_trans_a() {
        check_gemm(12, 10, 14, Trans::Yes, Trans::No, 0.0);
    }

    #[test]
    fn mesh_matches_reference_trans_b() {
        check_gemm(12, 10, 14, Trans::No, Trans::Yes, 0.0);
    }

    #[test]
    fn mesh_matches_reference_trans_both() {
        check_gemm(11, 9, 13, Trans::Yes, Trans::Yes, 1.0);
    }

    #[test]
    fn mesh_matches_reference_larger() {
        check_gemm(96, 80, 72, Trans::No, Trans::No, 0.0);
    }

    #[test]
    fn tiny_dims_work() {
        check_gemm(1, 1, 1, Trans::No, Trans::No, 0.0);
        check_gemm(3, 1, 5, Trans::No, Trans::No, 1.0);
    }

    #[test]
    fn plan_fits_ldm() {
        for dims in [
            GemmDims::new(1, 1, 1),
            GemmDims::new(4096, 4096, 4096),
            GemmDims::new(64, 25088, 4096),
        ] {
            let plan = TilePlan::choose(dims);
            assert!(
                ldm_bytes(plan) <= sw26010::arch::LDM_BYTES,
                "{dims:?} -> {plan:?}"
            );
        }
    }

    #[test]
    fn ldm_feasibility_is_checked_at_the_exact_64kb_boundary() {
        // 16mt + 16nt + 12*mt*nt with kt = 1; (mt, nt) = (4, 1023) lands
        // exactly on the 65536-byte capacity.
        let at_boundary = TilePlan {
            mt: 4,
            nt: 1023,
            kt: 1,
        };
        assert_eq!(ldm_bytes(at_boundary), sw26010::arch::LDM_BYTES);
        at_boundary.check_ldm().unwrap();
        assert_eq!(at_boundary.shrink_to_fit(), Some(at_boundary));

        // One more column crosses the boundary and must be rejected with
        // the named-buffer diagnostic — a real check, not a debug_assert.
        let over = TilePlan {
            mt: 4,
            nt: 1024,
            kt: 1,
        };
        assert!(ldm_bytes(over) > sw26010::arch::LDM_BYTES);
        match over.check_ldm() {
            Err(sw26010::PlanViolation::LdmOverflow {
                required, capacity, ..
            }) => {
                assert!(required > capacity);
            }
            other => panic!("expected LdmOverflow, got {other:?}"),
        }
        // Shrink-to-fit repairs it into a feasible plan.
        let fixed = over.shrink_to_fit().unwrap();
        fixed.check_ldm().unwrap();
    }

    #[test]
    fn zero_extent_plans_are_rejected() {
        let p = TilePlan {
            mt: 0,
            nt: 8,
            kt: 8,
        };
        assert!(p.check_ldm().is_err());
        assert_eq!(p.shrink_to_fit(), None);
    }

    #[test]
    fn chosen_plans_always_fit_in_release_too() {
        // The old path debug_assert!ed; this exercises the checked path
        // over a sweep of adversarial dims.
        for m in [1, 7, 64, 513, 50176] {
            for n in [1, 27, 196, 4096] {
                for k in [1, 27, 512, 4608] {
                    TilePlan::choose(GemmDims::new(m, n, k))
                        .check_ldm()
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn no_rlc_mesh_matches_reference_and_broadcast_bitwise() {
        for (m, n, k, ta, tb, beta) in [
            (20, 23, 19, Trans::No, Trans::No, 0.0f32),
            (13, 17, 70, Trans::Yes, Trans::No, 1.0),
            (33, 9, 40, Trans::No, Trans::Yes, 0.0),
        ] {
            let dims = GemmDims::new(m, n, k);
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let c0 = pattern(m * n, 3);
            let scheme = TilingScheme {
                tile: TilePlan::choose(dims),
                buffering: Buffering::Single,
                broadcast: Broadcast::DmaReplicate,
            };
            let mut got = c0.clone();
            let mut cg = CoreGroup::new(ExecMode::Functional);
            gemm_with_scheme(
                &mut cg,
                dims,
                ta,
                tb,
                beta,
                scheme,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut got,
                }),
            );
            let mut want = c0.clone();
            let mut cg2 = CoreGroup::new(ExecMode::Functional);
            gemm(
                &mut cg2,
                dims,
                ta,
                tb,
                beta,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut want,
                }),
            );
            // Same k-accumulation order => bitwise identical to the
            // broadcast kernel, not merely close.
            assert_eq!(got, want, "({m},{n},{k},{ta:?},{tb:?},beta={beta})");
        }
    }

    #[test]
    fn no_rlc_scheme_model_matches_mesh() {
        let dims = GemmDims::new(128, 96, 160);
        let plan = TilePlan::choose(dims);
        let scheme = TilingScheme {
            tile: plan,
            buffering: Buffering::Single,
            broadcast: Broadcast::DmaReplicate,
        };
        let a = pattern(dims.m * dims.k, 4);
        let b = pattern(dims.k * dims.n, 5);
        let mut c = vec![0.0f32; dims.m * dims.n];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = gemm_with_scheme(
            &mut cg,
            dims,
            Trans::No,
            Trans::No,
            0.0,
            scheme,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            }),
        );
        let model_t = scheme.time_model(dims, 0.0);
        let rel = (mesh.elapsed.seconds() - model_t.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.05,
            "mesh {:.3}us vs model {:.3}us (rel {rel:.3})",
            mesh.elapsed.micros(),
            model_t.micros()
        );
        let model_s = scheme.stats_model(dims, 0.0);
        assert_eq!(mesh.stats.flops, model_s.flops, "flops");
        assert_eq!(mesh.stats.rlc_messages, 0);
        assert_eq!(mesh.stats.dma_get_bytes, model_s.dma_get_bytes, "get bytes");
        assert_eq!(mesh.stats.dma_put_bytes, model_s.dma_put_bytes, "put bytes");
    }

    #[test]
    #[should_panic(expected = "infeasible GEMM tiling scheme")]
    fn infeasible_scheme_is_rejected_before_launch() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let scheme = TilingScheme {
            tile: TilePlan {
                mt: 64,
                nt: 64,
                kt: 64,
            },
            buffering: Buffering::Single,
            broadcast: Broadcast::RowCol,
        };
        gemm_with_scheme(
            &mut cg,
            GemmDims::new(512, 512, 512),
            Trans::No,
            Trans::No,
            0.0,
            scheme,
            None,
        );
    }

    #[test]
    fn timing_model_matches_mesh_execution() {
        // Ground truth: the mesh run in timing-only mode. The analytic
        // model must agree closely; counters must agree exactly.
        for (m, n, k) in [(256, 256, 256), (256, 128, 512), (64, 320, 192)] {
            let dims = GemmDims::new(m, n, k);
            let scheme = TilingScheme::hand(dims);
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let mut c = vec![0.0; m * n];
            let mesh = gemm(
                &mut cg,
                dims,
                Trans::No,
                Trans::No,
                0.0,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut c,
                }),
            );
            let model_t = scheme.time_model(dims, 0.0);
            let rel = (mesh.elapsed.seconds() - model_t.seconds()).abs() / mesh.elapsed.seconds();
            assert!(
                rel < 0.05,
                "({m},{n},{k}): mesh {:.3}us vs model {:.3}us (rel {rel:.3})",
                mesh.elapsed.micros(),
                model_t.micros()
            );
            let model_s = scheme.stats_model(dims, 0.0);
            assert_eq!(mesh.stats.flops, model_s.flops, "flops ({m},{n},{k})");
            assert_eq!(mesh.stats.rlc_bytes, model_s.rlc_bytes, "rlc bytes");
            assert_eq!(mesh.stats.rlc_messages, model_s.rlc_messages, "rlc msgs");
            assert_eq!(mesh.stats.dma_put_bytes, model_s.dma_put_bytes, "put bytes");
            assert_eq!(mesh.stats.dma_get_bytes, model_s.dma_get_bytes, "get bytes");
        }
    }

    #[test]
    fn timing_only_mode_charges_model() {
        let dims = GemmDims::new(512, 512, 512);
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let r = gemm(&mut cg, dims, Trans::No, Trans::No, 0.0, None);
        assert!((cg.elapsed().seconds() - r.elapsed.seconds()).abs() < 1e-12);
        assert_eq!(r.elapsed, TilingScheme::hand(dims).time_model(dims, 0.0));
    }

    #[test]
    fn large_gemm_approaches_table_ii_rates() {
        // Paper Table II reports 300-416 Gflops on the large VGG GEMMs.
        // A square 2048 problem should land in that neighbourhood
        // (roughly 40-60% of the 742 Gflops peak).
        let dims = GemmDims::new(2048, 2048, 2048);
        let t = TilingScheme::hand(dims).time_model(dims, 0.0);
        let gflops = effective_gflops(dims, t);
        assert!(
            (250.0..=550.0).contains(&gflops),
            "large GEMM at {gflops:.0} Gflops is outside the plausible band"
        );
    }

    #[test]
    fn small_k_degrades_throughput() {
        // The paper notes m (and generally the shared dimension) must be
        // large for compute-bound GEMM; k = 27 (conv1_1) is memory-bound.
        let big = GemmDims::new(512, 1024, 512);
        let small_k = GemmDims::new(512, 1024, 27);
        let rate = |d: GemmDims| effective_gflops(d, TilingScheme::hand(d).time_model(d, 0.0));
        let (g_big, g_small) = (rate(big), rate(small_k));
        assert!(
            g_small < 0.5 * g_big,
            "small-k {g_small:.0} vs big {g_big:.0}"
        );
    }

    #[test]
    fn rlc_beats_no_rlc_ablation() {
        // Principle 4: register communication must clearly beat per-CPE
        // DMA replication for compute-heavy shapes.
        let dims = GemmDims::new(1024, 1024, 1024);
        let plan = TilePlan::choose(dims);
        let with = single(plan).time_model(dims, 0.0).seconds();
        let without = time_model_no_rlc(dims, plan).seconds();
        assert!(without > 1.3 * with, "with={with} without={without}");
    }

    /// The three variants of the one body over `tile`.
    fn variants(tile: TilePlan) -> [TilingScheme; 3] {
        [
            single(tile),
            super::db_tests::double(tile),
            TilingScheme {
                broadcast: Broadcast::DmaReplicate,
                ..single(tile)
            },
        ]
    }

    /// Where a padded-tile algorithm goes wrong first: extents below the
    /// mesh, ragged K tails, transposed operands, a live beta. Every
    /// variant of the body must produce the same bits, the same bits as
    /// the host mirror, and a time and counters its model predicts.
    #[test]
    fn degenerate_extents_agree_across_variants_host_reference_and_model() {
        let small = TilePlan {
            mt: 2,
            nt: 3,
            kt: 2,
        };
        for (m, n, k, ta, tb, beta, tile) in [
            (1, 1, 1, Trans::No, Trans::No, 0.0f32, None),
            (1, 1, 1, Trans::Yes, Trans::Yes, 0.5, Some(small)),
            // m, then n, below the mesh: whole CPE rows / columns idle.
            (5, 40, 9, Trans::No, Trans::No, 0.0, None),
            (40, 3, 9, Trans::No, Trans::No, 0.5, None),
            (3, 5, 2, Trans::No, Trans::No, 1.0, Some(small)),
            // Ragged K tail: 37 = two 16-wide panels + 5 (tiles by row
            // or column 3.. of the last panel are empty), and a single
            // panel the hand tile overshoots (9 * 8 = 72 > 70).
            (20, 23, 37, Trans::No, Trans::No, 0.0, Some(small)),
            (24, 20, 70, Trans::No, Trans::No, 0.0, None),
            // Control: whole strips, so replication is two-sided too.
            (20, 23, 32, Trans::No, Trans::No, 0.0, Some(small)),
            // Both operands transposed, with and without a ragged tail.
            (11, 9, 13, Trans::Yes, Trans::Yes, 1.0, None),
            (20, 23, 37, Trans::Yes, Trans::Yes, -0.25, Some(small)),
        ] {
            let dims = GemmDims::new(m, n, k);
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let c0 = pattern(m * n, 3);
            let what = format!("({m},{n},{k},{ta:?},{tb:?},beta={beta},{tile:?})");

            let mut want = c0.clone();
            reference::gemm(dims, ta, tb, &a, &b, beta, &mut want);
            let run = |mode: ExecMode, scheme: TilingScheme| {
                let mut c = c0.clone();
                let mut cg = CoreGroup::new(mode);
                let ops = GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut c,
                };
                let report = gemm_with_scheme(&mut cg, dims, ta, tb, beta, scheme, Some(ops));
                (c, report)
            };

            let schemes = variants(tile.unwrap_or_else(|| TilePlan::choose(dims)));
            let (host, _) = run(ExecMode::HostNative { threads: 2 }, schemes[0]);
            for (got, want) in host.iter().zip(&want) {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "{what}: {got} vs reference {want}"
                );
            }
            for scheme in schemes {
                let label = scheme.label();
                let (mesh, report) = run(ExecMode::Functional, scheme);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&mesh), bits(&host), "{what} {label}: mesh vs host");

                // The tolerances of the `*_model_matches_mesh` tests. The
                // models price full tiles (interior CPEs dominate the
                // makespan), so they hold two-sided whenever some CPE
                // owns a full tile in every K panel: under bus
                // broadcasts once m, n and k reach one tile, under
                // replication only when k fills whole strips — otherwise
                // *every* CPE's last strip is clipped and the model
                // over-predicts (by 64% at 1x1x1 on a 2x3x2 tile). What
                // no case may do is under-predict.
                let tol = if scheme.buffering == Buffering::Double {
                    0.1
                } else {
                    0.05
                };
                let TilePlan { mt, nt, .. } = scheme.tile;
                let kw = scheme.layout().kw;
                let bus = scheme.broadcast == Broadcast::RowCol;
                let full_tiles = m >= mt && n >= nt && k >= kw && (bus || k % kw == 0);
                let mesh_t = report.elapsed.seconds();
                let over = (scheme.time_model(dims, beta).seconds() - mesh_t) / mesh_t;
                assert!(
                    over > -tol && (over < tol || !full_tiles),
                    "{what} {label}: model off by {over:+.3} of the mesh time"
                );
                let stats = scheme.stats_model(dims, beta);
                assert_eq!(report.stats.flops, stats.flops, "{what} {label}: flops");
                assert_eq!(
                    report.stats.dma_get_bytes, stats.dma_get_bytes,
                    "{what} {label}"
                );
                assert_eq!(
                    report.stats.dma_put_bytes, stats.dma_put_bytes,
                    "{what} {label}"
                );
                assert_eq!(report.stats.rlc_bytes, stats.rlc_bytes, "{what} {label}");
                assert_eq!(
                    report.stats.rlc_messages, stats.rlc_messages,
                    "{what} {label}"
                );
            }
        }
    }
}

#[cfg(test)]
mod db_tests {
    use super::*;

    pub(super) fn double(tile: TilePlan) -> TilingScheme {
        TilingScheme {
            tile,
            buffering: Buffering::Double,
            broadcast: Broadcast::RowCol,
        }
    }

    #[test]
    fn double_buffering_helps_but_is_bounded() {
        for (m, n, k) in [(1024, 1024, 1024), (512, 3136, 1152), (64, 50176, 27)] {
            let dims = GemmDims::new(m, n, k);
            let plan = TilePlan::choose(dims);
            let sync = TilingScheme::hand(dims).time_model(dims, 0.0).seconds();
            let db = double(plan).time_model(dims, 0.0).seconds();
            assert!(db <= sync * 1.0001, "({m},{n},{k}): db {db} > sync {sync}");
            // It can hide DMA, not compute: never below the pure-compute bound.
            let comp_only = (dims.m.div_ceil(plan.panel_m())
                * dims.n.div_ceil(plan.panel_n())
                * dims.k.div_ceil(plan.panel_k())) as f64
                * MESH_DIM as f64
                * crate::gemm_flop_time((2 * plan.mt * plan.nt * plan.kt) as u64).seconds();
            assert!(
                db > comp_only,
                "({m},{n},{k}): db {db} below compute bound {comp_only}"
            );
        }
    }

    #[test]
    fn ldm_still_fits_with_double_buffers() {
        // The probe needs two extra f32 staging pairs.
        let plan = TilePlan {
            mt: 32,
            nt: 32,
            kt: 32,
        };
        double(plan).validate().unwrap();
        assert!(double(plan).kernel_plan().ldm_bytes() <= sw26010::arch::LDM_BYTES);
    }
}

#[cfg(test)]
mod db_mesh_tests {
    use super::db_tests::double;
    use super::tests::pattern;
    use super::*;
    use crate::reference;
    use sw26010::ExecMode;

    fn gemm_double_buffered(
        cg: &mut CoreGroup,
        dims: GemmDims,
        ta: Trans,
        tb: Trans,
        beta: f32,
        ops: Option<GemmOperands<'_>>,
    ) -> LaunchReport {
        let scheme = double(TilePlan::choose(dims));
        gemm_with_scheme(cg, dims, ta, tb, beta, scheme, ops)
    }

    #[test]
    fn double_buffered_mesh_matches_reference() {
        for (m, n, k, ta, tb, beta) in [
            (24, 20, 40, Trans::No, Trans::No, 0.0f32),
            (17, 9, 70, Trans::Yes, Trans::No, 1.0),
            (33, 41, 19, Trans::No, Trans::Yes, 0.0),
        ] {
            let dims = GemmDims::new(m, n, k);
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let c0 = pattern(m * n, 3);
            let mut want = c0.clone();
            reference::gemm(dims, ta, tb, &a, &b, beta, &mut want);
            let mut got = c0;
            let mut cg = CoreGroup::new(ExecMode::Functional);
            gemm_double_buffered(
                &mut cg,
                dims,
                ta,
                tb,
                beta,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut got,
                }),
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "db ({m},{n},{k}) elem {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn double_buffered_mesh_is_faster_than_sync() {
        // Multi-K-panel problem: prefetch must hide tile DMA.
        let dims = GemmDims::new(128, 128, 1024);
        let a = pattern(dims.m * dims.k, 1);
        let b = pattern(dims.k * dims.n, 2);
        let run_sync = {
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut c = vec![0.0f32; dims.m * dims.n];
            gemm(
                &mut cg,
                dims,
                Trans::No,
                Trans::No,
                0.0,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut c,
                }),
            )
        };
        let run_db = {
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut c = vec![0.0f32; dims.m * dims.n];
            gemm_double_buffered(
                &mut cg,
                dims,
                Trans::No,
                Trans::No,
                0.0,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut c,
                }),
            )
        };
        assert!(
            run_db.elapsed.seconds() < run_sync.elapsed.seconds(),
            "db {} !< sync {}",
            run_db.elapsed.micros(),
            run_sync.elapsed.micros()
        );
    }

    #[test]
    fn double_buffered_model_tracks_mesh() {
        let dims = GemmDims::new(256, 256, 512);
        let plan = TilePlan::choose(dims);
        let a = pattern(dims.m * dims.k, 5);
        let b = pattern(dims.k * dims.n, 6);
        let mut c = vec![0.0f32; dims.m * dims.n];
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mesh = gemm_double_buffered(
            &mut cg,
            dims,
            Trans::No,
            Trans::No,
            0.0,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            }),
        );
        let model = double(plan).time_model(dims, 0.0);
        let rel = (mesh.elapsed.seconds() - model.seconds()).abs() / mesh.elapsed.seconds();
        assert!(
            rel < 0.1,
            "mesh {} vs model {}",
            mesh.elapsed.micros(),
            model.micros()
        );
    }
}

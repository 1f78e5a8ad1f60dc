//! The broadcast-GEMM tile core: the one blocked-GEMM algorithm of the
//! paper (Fig. 3, Principle 4 — load a tile once, share it over the
//! row/column buses, accumulate in LDM), written once.
//!
//! [`crate::gemm`] and the three [`crate::conv_implicit`] passes keep
//! their own loop nests and addressing; everything they do *inside* a
//! launch comes from here:
//!
//! * [`TileLayout`] — the LDM buffer table of a launch. The same table
//!   yields the [`KernelPlan`] the launch validates against and the
//!   buffers each CPE allocates ([`TileLayout::alloc`]), so the two
//!   cannot drift.
//! * [`Tiles`] — one CPE's working set with the five operations of the
//!   algorithm: tile load ([`Tiles::issue`] / [`Tiles::widen`], or
//!   [`Tiles::load`] for both at once), the K-panel product
//!   ([`Tiles::panel_product`]: 8 bus steps, or one replicated-strip
//!   product) and the C tile's start and end ([`Tiles::preload_c`] /
//!   [`Tiles::zero_c`], [`Tiles::store_c`]).
//! * [`accumulate`] — the GEMM family's float sequence: the block product
//!   and every [`crate::host`] reduction call it, so the two backends
//!   agree bit for bit by construction.
//! * The per-phase cost terms ([`load_cost`], [`bus_step_seconds`]) the
//!   analytic models of both modules are assembled from. The terms are
//!   shared; each model keeps its own summation order, because the
//!   blessed baselines pin every simulated time to the bit.

use sw26010::arch::MESH_DIM;
use sw26010::rlc::{transfer_cycles, RLC_HOP_CYCLES};
use sw26010::{dma, Cpe, DmaHandle, KernelPlan, LdmBuf, MemView, MemViewMut, RlcPattern, SimTime};

use crate::scheme::{Broadcast, Buffering};
use crate::shapes::Trans;

/// The LDM working set of one broadcast-GEMM launch, per CPE.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileLayout {
    name: &'static str,
    /// C tile rows and columns.
    mt: usize,
    nt: usize,
    /// K extent of the A and B tiles one CPE holds: `kt` when tiles are
    /// shared over the buses, the whole `8 * kt` panel strip when every
    /// CPE replicates them by DMA.
    pub kw: usize,
    buffering: Buffering,
    broadcast: Broadcast,
}

impl TileLayout {
    pub fn new(
        name: &'static str,
        (mt, nt, kt): (usize, usize, usize),
        buffering: Buffering,
        broadcast: Broadcast,
    ) -> TileLayout {
        let kw = match broadcast {
            Broadcast::RowCol => kt,
            Broadcast::DmaReplicate => MESH_DIM * kt,
        };
        TileLayout {
            name,
            mt,
            nt,
            kw,
            buffering,
            broadcast,
        }
    }

    /// The buffer table, `(name, elements, bytes per element)` in
    /// allocation order: the f64 tiles (own A, B, C; the two bus receive
    /// buffers when broadcasting), then the f32 DMA staging — one buffer
    /// every load and the C tile share, or two pairs plus a C stage
    /// when the next panel's fetch overlaps this panel's product.
    fn table(&self) -> Vec<(&'static str, usize, usize)> {
        let (a, b, c) = (self.mt * self.kw, self.kw * self.nt, self.mt * self.nt);
        let mut t = vec![("a64", a, 8), ("b64", b, 8), ("c64", c, 8)];
        if self.broadcast == Broadcast::RowCol {
            t.extend([("abuf", a, 8), ("bbuf", b, 8)]);
        }
        match self.buffering {
            Buffering::Single => {
                // The broadcast kernels have always sized the shared
                // stage by this (loose) bound; feasibility, and with it
                // the tuner's candidate set, depends on it.
                let shared = match self.broadcast {
                    Broadcast::RowCol => self.mt.max(self.kw) * self.nt.max(self.kw),
                    Broadcast::DmaReplicate => a.max(b).max(c),
                };
                t.push(("stage", shared, 4));
            }
            Buffering::Double => t.extend([
                ("stage_a0", a, 4),
                ("stage_a1", a, 4),
                ("stage_b0", b, 4),
                ("stage_b1", b, 4),
                ("cstage", c, 4),
            ]),
        }
        t
    }

    /// The launch descriptor: the table above plus the bus pattern and
    /// DMA depth the strategies imply.
    pub fn kernel_plan(&self) -> KernelPlan {
        self.table()
            .into_iter()
            .fold(KernelPlan::new(self.name, 64), |p, (name, len, width)| {
                p.buffer(name, len * width)
            })
            .rlc(match self.broadcast {
                Broadcast::RowCol => RlcPattern::RowAndColBroadcast,
                Broadcast::DmaReplicate => RlcPattern::None,
            })
            .inflight_dma(match self.buffering {
                Buffering::Single => 1,
                Buffering::Double => 2,
            })
    }

    /// Allocate the table in `cpe`'s LDM.
    pub fn alloc(&self, cpe: &Cpe) -> Tiles {
        let mut tiles = Tiles {
            layout: *self,
            wide: Vec::new(),
            stage: Vec::new(),
        };
        for (_, len, width) in self.table() {
            if width == 8 {
                tiles.wide.push(cpe.ldm.alloc_f64(len));
            } else {
                tiles.stage.push(cpe.ldm.alloc_f32(len));
            }
        }
        tiles
    }
}

/// Which input tile an operation addresses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    /// The `mt x kw` tile of the left matrix.
    A,
    /// The `kw x nt` tile of the right matrix.
    B,
}

/// Where a tile's valid region lives in main memory: `rows` blocks of
/// `block` f32, `stride` apart from `base`. In LDM the region is
/// `rows x block`, or `block x rows` when `transpose` (stored the other
/// way round; loads only). A region with no rows or an empty block
/// (padding tap, idle CPE, ragged edge) loads as zeros, stores nothing
/// and never touches memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileAddr {
    pub base: usize,
    pub block: usize,
    pub stride: usize,
    pub rows: usize,
    pub transpose: bool,
}

impl TileAddr {
    /// The logical `vr x vc` tile at `(r0, c0)` of a row-major
    /// `rows_total x cols_total` matrix, stored transposed when `trans`.
    pub fn of_matrix(
        trans: Trans,
        (rows_total, cols_total): (usize, usize),
        (r0, c0): (usize, usize),
        (vr, vc): (usize, usize),
    ) -> TileAddr {
        let transpose = trans == Trans::Yes;
        let (base, block, stride, rows) = if transpose {
            (c0 * rows_total + r0, vr, rows_total, vc)
        } else {
            (r0 * cols_total + c0, vc, cols_total, vr)
        };
        TileAddr {
            base,
            block,
            stride,
            rows,
            transpose,
        }
    }
}

/// One CPE's working set, allocated from a [`TileLayout`].
pub(crate) struct Tiles {
    layout: TileLayout,
    /// `a64`, `b64`, `c64`, then `abuf`, `bbuf` when broadcasting.
    wide: Vec<LdmBuf<f64>>,
    /// The f32 staging buffers, in table order.
    stage: Vec<LdmBuf<f32>>,
}

impl Tiles {
    fn double(&self) -> bool {
        self.layout.buffering == Buffering::Double
    }

    /// Staging buffer, f64 tile and tile extents of `op`. `slot` picks
    /// the staging pair under double buffering and is ignored otherwise.
    fn operand(&mut self, op: Operand, slot: usize) -> (&mut [f32], &mut [f64], usize, usize) {
        let TileLayout { mt, nt, kw, .. } = self.layout;
        let (tile, pair, tr, tc) = match op {
            Operand::A => (0, 0, mt, kw),
            Operand::B => (1, 2, kw, nt),
        };
        let stage = if self.double() { pair + slot } else { 0 };
        (&mut self.stage[stage], &mut self.wide[tile], tr, tc)
    }

    /// C tile and the staging buffer it is loaded and stored through.
    fn c_tile(&mut self) -> (&mut [f32], &mut [f64]) {
        let stage = if self.double() { 4 } else { 0 };
        (&mut self.stage[stage], &mut self.wide[2])
    }

    /// Start the DMA of `load` into staging slot `slot`; `None` for an
    /// empty tile.
    pub fn issue(
        &mut self,
        cpe: &mut Cpe,
        op: Operand,
        slot: usize,
        src: MemView<'_>,
        load: TileAddr,
    ) -> Option<DmaHandle> {
        if load.rows == 0 || load.block == 0 {
            return None;
        }
        let (stage, ..) = self.operand(op, slot);
        Some(cpe.dma_get_strided_async(src, load.base, load.block, load.stride, load.rows, stage))
    }

    /// Widen the data staged by a completed [`Tiles::issue`] into the
    /// zero-padded f64 tile (the chip has no single-precision register
    /// communication).
    pub fn widen(&mut self, cpe: &mut Cpe, op: Operand, slot: usize, load: TileAddr) {
        let (stage, tile, tr, tc) = self.operand(op, slot);
        let TileAddr { block, rows, .. } = load;
        cpe.compute((tr * tc) as u64, || {
            tile.fill(0.0);
            if load.transpose {
                for r in 0..rows {
                    for c in 0..block {
                        tile[c * tc + r] = stage[r * block + c] as f64;
                    }
                }
            } else {
                for r in 0..rows {
                    for c in 0..block {
                        tile[r * tc + c] = stage[r * block + c] as f64;
                    }
                }
            }
        });
    }

    /// Synchronous tile load: fetch, wait, widen.
    pub fn load(&mut self, cpe: &mut Cpe, op: Operand, src: MemView<'_>, load: TileAddr) {
        if let Some(h) = self.issue(cpe, op, 0, src, load) {
            cpe.dma_wait(h);
        }
        self.widen(cpe, op, 0, load);
    }

    /// Accumulate one K panel into the C tile. With bus receive buffers
    /// this is the 8 steps of Fig. 3: at step `t`, CPE `(i, t)`
    /// broadcasts its A tile along row `i`, CPE `(t, j)` its B tile
    /// along column `j`, and every CPE adds `A(i,t) * B(t,j)`. Without
    /// them the CPE holds the whole panel strips itself and multiplies
    /// them in one go — same products, same ascending-k order, so the
    /// two are bitwise interchangeable.
    pub async fn panel_product(&mut self, cpe: &mut Cpe<'_>) {
        let nt = self.layout.nt;
        match &mut self.wide[..] {
            [a64, b64, c64] => tile_product(cpe, a64, b64, c64, nt),
            [a64, b64, c64, abuf, bbuf] => {
                let (i, j) = (cpe.row(), cpe.col());
                for t in 0..MESH_DIM {
                    if j == t {
                        cpe.rlc_row_bcast(a64).await;
                    } else {
                        cpe.rlc_row_recv(t, abuf).await;
                    }
                    if i == t {
                        cpe.rlc_col_bcast(b64).await;
                    } else {
                        cpe.rlc_col_recv(t, bbuf).await;
                    }
                    let at: &[f64] = if j == t { a64 } else { abuf };
                    let bt: &[f64] = if i == t { b64 } else { bbuf };
                    tile_product(cpe, at, bt, c64, nt);
                }
            }
            _ => unreachable!("a tile layout has 3 or 5 f64 buffers"),
        }
    }

    /// Start the C tile at zero.
    pub fn zero_c(&mut self, cpe: &mut Cpe) {
        let (_, c64) = self.c_tile();
        cpe.compute(c64.len() as u64, || c64.fill(0.0));
    }

    /// Start the C tile at `beta * C` (zero when `beta` is, or when the
    /// CPE owns no valid output).
    pub fn preload_c(&mut self, cpe: &mut Cpe, src: MemView<'_>, at: TileAddr, beta: f32) {
        let (vm, vn) = (at.rows, at.block);
        if beta == 0.0 || vm == 0 || vn == 0 {
            return self.zero_c(cpe);
        }
        let nt = self.layout.nt;
        let (stage, c64) = self.c_tile();
        cpe.dma_get_strided(src, at.base, vn, at.stride, vm, stage);
        cpe.compute(c64.len() as u64, || {
            for r in 0..vm {
                for cc in 0..vn {
                    c64[r * nt + cc] = (beta * stage[r * vn + cc]) as f64;
                }
            }
        });
    }

    /// Narrow the C tile's valid region to f32 and write it back.
    pub fn store_c(&mut self, cpe: &mut Cpe, dst: MemViewMut<'_>, at: TileAddr) {
        let (vm, vn) = (at.rows, at.block);
        let nt = self.layout.nt;
        let (stage, c64) = self.c_tile();
        if vm == 0 || vn == 0 {
            return cpe.charge_flops(c64.len() as u64);
        }
        cpe.compute(c64.len() as u64, || {
            for r in 0..vm {
                for cc in 0..vn {
                    stage[r * vn + cc] = c64[r * nt + cc] as f32;
                }
            }
        });
        cpe.dma_put_strided(dst, at.base, vn, at.stride, vm, stage);
    }
}

/// `C += A * B` on zero-padded f64 tiles (`mt x kd`, `kd x nt`): one
/// [`accumulate`] per row of C.
fn tile_product(cpe: &mut Cpe, at: &[f64], bt: &[f64], c64: &mut [f64], nt: usize) {
    let kd = bt.len() / nt;
    cpe.compute((2 * at.len() * nt) as u64, || {
        for (crow, arow) in c64.chunks_exact_mut(nt).zip(at.chunks_exact(kd)) {
            accumulate(crow, arow.iter().copied(), bt);
        }
    });
}

/// The one float sequence of the GEMM family, mesh and host alike:
/// `acc[c] += a[k] * b[k][c]` for ascending `k`, with `b` read as rows of
/// `acc.len()` (non-zero) values widened to f64. Where `a[k]` is zero, of
/// either sign, nothing is added: a skipped `0 * inf` or `-0.0 + 0.0` is
/// not an added zero. Only the independent columns are left to the
/// vectoriser, so no target can reorder a sum.
#[inline(always)]
pub(crate) fn accumulate<T: Copy + Into<f64>>(
    acc: &mut [f64],
    a: impl IntoIterator<Item = f64>,
    b: &[T],
) {
    for (av, brow) in a.into_iter().zip(b.chunks_exact(acc.len())) {
        if av != 0.0 {
            for (s, bv) in acc.iter_mut().zip(brow) {
                *s += av * (*bv).into();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cost terms
// ---------------------------------------------------------------------

/// Seconds of one full tile load (or C tile store), in the two parts a
/// double-buffered schedule takes apart: the strided DMA of `rows`
/// blocks of `block` f32, and the f32 <-> f64 conversion pass.
pub(crate) struct LoadCost {
    pub dma: f64,
    pub widen: f64,
}

pub(crate) fn load_cost(block: usize, rows: usize) -> LoadCost {
    LoadCost {
        dma: dma::strided_time(block * 4, rows, 64).seconds(),
        widen: crate::gemm_flop_time((block * rows) as u64).seconds(),
    }
}

/// Seconds of one of the 8 bus steps on `mt x kt` / `kt x nt` tiles:
/// both tiles cross a bus (the receive path pays send + hop + read),
/// then the tile product, given in cycles.
pub(crate) fn bus_step_seconds(mt: usize, nt: usize, kt: usize, product_cycles: f64) -> f64 {
    let sa = transfer_cycles(mt * kt * 8);
    let sb = transfer_cycles(kt * nt * 8);
    SimTime::from_cycles(2.0 * sa + 2.0 * sb + 2.0 * RLC_HOP_CYCLES + product_cycles).seconds()
}

#[cfg(test)]
mod tests {
    use super::accumulate;
    use crate::host::{GEMM_NR, GEMM_NR_AVX2};

    /// Column by column, k innermost, zero entries of `a` skipped.
    fn oracle(seed: &[f64], a: &[f64], b: &[f64]) -> Vec<f64> {
        let w = seed.len();
        (0..w)
            .map(|c| {
                (0..a.len())
                    .filter(|&k| a[k] != 0.0)
                    .fold(seed[c], |s, k| s + a[k] * b[k * w + c])
            })
            .collect()
    }

    /// Same bits, except that any NaN matches any NaN.
    #[track_caller]
    fn assert_same(tag: &str, got: &[f64], want: &[f64]) {
        for (c, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag}: column {c}: {g} vs {w}"
            );
        }
    }

    /// `accumulate` over an f32 B and over the same B widened to f64.
    fn both(seed: &[f64], a: &[f64], b: &[f32]) -> [Vec<f64>; 2] {
        let wide: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let (mut narrow_acc, mut wide_acc) = (seed.to_vec(), seed.to_vec());
        accumulate(&mut narrow_acc, a.iter().copied(), b);
        accumulate(&mut wide_acc, a.iter().copied(), &wide);
        [narrow_acc, wide_acc]
    }

    #[test]
    fn accumulate_matches_f64_oracle_on_non_finite_and_signed_zeros() {
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for w in [1, 7, GEMM_NR, GEMM_NR_AVX2] {
            // Rows 0, 1 and 3 of B are NaN and infinities, the rest finite.
            let b: Vec<f32> = (0..6 * w)
                .map(|i| match i / w {
                    0 | 1 | 3 => hostile[(i / w + i % w) % 3],
                    _ => (i % 17) as f32 / 8.0 - 1.0,
                })
                .collect();
            let wide: Vec<f64> = b.iter().map(|&v| v as f64).collect();
            let seed: Vec<f64> = (0..w).map(|c| [0.5, -0.0, -1.25][c % 3]).collect();
            for (tag, a) in [
                ("zeros opposite", [0.0, -0.0, 1.5, 0.0, -2.0, 0.5]),
                ("non-zeros opposite", [1.0, -0.5, 1.5, 2.0, -2.0, 0.5]),
            ] {
                let want = oracle(&seed, &a, &wide);
                let skipped = tag == "zeros opposite";
                assert!(want.iter().all(|v| v.is_finite() == skipped), "{tag} w={w}");
                for got in both(&seed, &a, &b) {
                    assert_same(&format!("{tag} w={w}"), &got, &want);
                }
            }
            // An all-zero row of A adds nothing, not even a +0.0.
            let zeros = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0];
            for got in both(&vec![-0.0; w], &zeros, &b) {
                assert!(
                    got.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()),
                    "w={w}"
                );
            }
        }
    }
}

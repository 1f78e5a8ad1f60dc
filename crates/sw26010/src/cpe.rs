//! The per-CPE execution context handed to mesh kernels.
//!
//! A kernel is a closure run once per CPE of a launch (see [`crate::mesh`]
//! for how): `Fn(&mut Cpe)` when its CPEs never wait for each other,
//! `AsyncFn(&mut Cpe)` when they do. The context exposes exactly the
//! resources a CPE has on silicon: its 64 KB LDM, a DMA engine to main
//! memory, row/column register communication, the vector pipelines, and
//! the mesh barrier. Everything else (direct loads from main memory in
//! particular) is deliberately absent — gld/gst-style accesses are what
//! Principle 2 says to avoid, and kernels written against this API
//! physically cannot issue them.
//!
//! The operations that can block on another CPE — register sends and
//! receives and [`Cpe::sync`] — are `async fn`s: they suspend the CPE's
//! body while a FIFO is full or empty or the barrier is incomplete, and
//! the launch's executor resumes it once a peer has moved. The buses and
//! the barrier (`MeshLinks`) exist only in a launch whose plan declares
//! register communication; under a plan declaring
//! [`RlcPattern::None`](crate::plan::RlcPattern::None) such a call panics
//! with the plan's name and the CPE's coordinates.
//!
//! Under a checked launch (see [`crate::check`]) every operation
//! additionally appends a typed event to a per-CPE log. The
//! instrumentation never reads or writes the simulated clocks, so checked
//! and unchecked runs produce bit-identical data and timings.

use std::cell::Cell;
use std::future::poll_fn;
use std::iter::once;
use std::task::Poll;

use crate::arch::{CPE_DP_FLOPS_PER_CYCLE, KERNEL_COMPUTE_EFFICIENCY, MESH_DIM};
use crate::check::{BlockedOn, CpeEvent, CpeTrace, EventLog, MemRange};
use crate::dma;
use crate::ldm::Ldm;
use crate::rlc::{transfer_cycles, Axis, RlcFifos, RlcMsg, RLC_HOP_CYCLES};
use crate::stats::Stats;
use crate::time::{ExecMode, SimTime};
use crate::view::{MemView, MemViewMut};

/// Completion token for an asynchronous DMA transfer.
///
/// The copy itself happens eagerly (the simulator is functional); the token
/// carries the simulated completion instant so kernels can overlap compute
/// with the transfer and pay only `max(compute, dma)`, which is how the
/// double-buffered swDNN kernels hide memory latency.
///
/// Each handle is valid for exactly one [`Cpe::dma_wait`]: waiting a
/// handle twice (or a handle from a different request) panics, because on
/// hardware a reply-counter slot is consumed when it is checked and a
/// duplicated wait means the kernel's completion logic is wrong.
#[derive(Debug, Clone, Copy)]
#[must_use = "un-waited DMA transfers do not advance the clock"]
pub struct DmaHandle {
    complete_at: SimTime,
    seq: u64,
}

/// Barrier with simulated-clock reconciliation: after `sync()` every CPE's
/// local clock equals the mesh-wide maximum, which is what a hardware
/// barrier does to wall time.
///
/// A generation counter with a running maximum of the arrivals' clocks:
/// the last arrival releases the generation, and the CPEs waiting on it
/// see the generation move on their next poll.
struct MeshBarrier {
    n: usize,
    arrived: Cell<usize>,
    generation: Cell<u64>,
    /// Running max of the arrivals' clocks for the current generation.
    max: Cell<f64>,
    /// Reconciled clock of the previous generation.
    result: Cell<f64>,
}

impl MeshBarrier {
    fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        MeshBarrier {
            n,
            arrived: Cell::new(0),
            generation: Cell::new(0),
            max: Cell::new(0.0),
            result: Cell::new(0.0),
        }
    }

    /// Enter with `local` time; returns the generation to wait on.
    fn arrive(&self, local: SimTime) -> u64 {
        let gen = self.generation.get();
        self.max.set(self.max.get().max(local.seconds()));
        self.arrived.set(self.arrived.get() + 1);
        if self.arrived.get() == self.n {
            self.result.set(self.max.get());
            self.max.set(0.0);
            self.arrived.set(0);
            self.generation.set(gen + 1);
        }
        gen
    }

    /// The mesh-wide maximum once generation `gen` has been released.
    fn released(&self, gen: u64) -> Option<SimTime> {
        (self.generation.get() != gen).then(|| SimTime::from_seconds(self.result.get()))
    }
}

/// The register buses and barrier the CPEs of one launch share, plus the
/// progress count the executor's deadlock detection reads.
pub(crate) struct MeshLinks {
    fifos: RlcFifos,
    barrier: MeshBarrier,
    /// FIFO pushes and pops and barrier arrivals so far.
    progress: Cell<u64>,
}

impl MeshLinks {
    pub(crate) fn new(n_cpes: usize) -> Self {
        MeshLinks {
            fifos: RlcFifos::new(),
            barrier: MeshBarrier::new(n_cpes),
            progress: Cell::new(0),
        }
    }

    pub(crate) fn progress(&self) -> u64 {
        self.progress.get()
    }

    fn bump(&self) {
        self.progress.set(self.progress.get() + 1);
    }
}

/// Execution context of one CPE inside a mesh kernel launch.
pub struct Cpe<'l> {
    row: usize,
    col: usize,
    idx: usize,
    n_active: usize,
    mode: ExecMode,
    /// Name of the launching kernel (its plan's name when planned).
    kernel: &'l str,
    /// The CPE's scratch-pad allocator.
    pub ldm: Ldm,
    clock: SimTime,
    dma_engine_free_at: SimTime,
    stats: Stats,
    /// The launch's shared buses and barrier; `None` when its plan
    /// declares no register communication.
    links: Option<&'l MeshLinks>,
    /// Sanitizer event log; `None` outside checked launches.
    log: Option<EventLog>,
    /// Sequence numbers of issued-but-unwaited DMA requests.
    outstanding: Vec<u64>,
    next_dma_seq: u64,
    sync_count: u64,
    /// What the CPE's body is suspended on, while it is.
    blocked_on: Option<BlockedOn>,
}

impl<'l> Cpe<'l> {
    pub(crate) fn new(
        idx: usize,
        n_active: usize,
        mode: ExecMode,
        kernel: &'l str,
        links: Option<&'l MeshLinks>,
        log: Option<EventLog>,
    ) -> Self {
        let mut ldm = Ldm::new();
        if let Some(log) = &log {
            ldm.attach_log(log.clone());
        }
        Cpe {
            row: idx / MESH_DIM,
            col: idx % MESH_DIM,
            idx,
            n_active,
            mode,
            kernel,
            ldm,
            clock: SimTime::ZERO,
            dma_engine_free_at: SimTime::ZERO,
            stats: Stats::default(),
            links,
            log,
            outstanding: Vec::new(),
            next_dma_seq: 0,
            sync_count: 0,
            blocked_on: None,
        }
    }

    // ---- identity ----------------------------------------------------

    /// Row of this CPE in the 8x8 mesh.
    pub fn row(&self) -> usize {
        self.row
    }

    /// Column of this CPE in the 8x8 mesh.
    pub fn col(&self) -> usize {
        self.col
    }

    /// Linear index (`row * 8 + col`).
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// True when the kernel should actually move/compute data.
    pub fn functional(&self) -> bool {
        self.mode.is_functional()
    }

    pub(crate) fn finish(self) -> (SimTime, Stats, Option<CpeTrace>) {
        let mut stats = self.stats;
        stats.busy = self.clock;
        let trace = self.log.as_ref().map(|log| CpeTrace {
            idx: self.idx,
            row: self.row,
            col: self.col,
            events: log.borrow_mut().split_off(0),
            leaked_dma: self.outstanding.clone(),
            stall: self.blocked_on,
            ldm_high_water: self.ldm.high_water(),
        });
        (self.clock, stats, trace)
    }

    // ---- sanitizer plumbing (never touches the simulated clocks) ------

    #[inline]
    fn record(&self, ev: impl FnOnce() -> CpeEvent) {
        if let Some(log) = &self.log {
            log.borrow_mut().push(ev());
        }
    }

    /// What the body is suspended on; `None` once it has finished or
    /// while it runs.
    pub(crate) fn blocked_on(&self) -> Option<BlockedOn> {
        self.blocked_on
    }

    // ---- mesh links (launches whose plan declares RLC) -------------------

    /// The launch's shared buses and barrier, for operation `op`.
    fn links(&self, op: &str) -> &'l MeshLinks {
        match self.links {
            Some(links) => links,
            None => self.independent_misuse(op),
        }
    }

    /// Suspend until `ready` yields a value, recording `on` as what the
    /// CPE waits for while it does.
    async fn suspend_until<T>(&mut self, on: BlockedOn, mut ready: impl FnMut() -> Option<T>) -> T {
        let blocked_on = &mut self.blocked_on;
        poll_fn(|_| match ready() {
            Some(v) => {
                *blocked_on = None;
                Poll::Ready(v)
            }
            None => {
                *blocked_on = Some(on);
                Poll::Pending
            }
        })
        .await
    }

    #[cold]
    fn independent_misuse(&self, op: &str) -> ! {
        panic!(
            "kernel `{}` CPE ({}, {}) called {op} in an independent launch: its plan \
             declares RlcPattern::None, so the launch has no register buses and no \
             barrier; declare the pattern the kernel uses",
            self.kernel, self.row, self.col
        )
    }

    // ---- DMA ----------------------------------------------------------

    fn dma_start(&mut self) -> SimTime {
        // One DMA engine per CPE: transfers queue behind each other but
        // overlap with compute.
        self.clock.max(self.dma_engine_free_at)
    }

    /// Synchronous continuous DMA get: `dst.len()` f32 from `src[offset..]`.
    pub fn dma_get(&mut self, src: MemView<'_>, offset: usize, dst: &mut [f32]) {
        let h = self.dma_get_async(src, offset, dst);
        self.dma_wait(h);
    }

    /// Asynchronous continuous DMA get.
    pub fn dma_get_async(&mut self, src: MemView<'_>, offset: usize, dst: &mut [f32]) -> DmaHandle {
        let bytes = std::mem::size_of_val(dst);
        if self.functional() {
            src.read(offset, dst);
        }
        self.charge_dma(
            bytes,
            0,
            dma::continuous_time(bytes, self.n_active),
            dma::DmaDir::Get,
            MemRange::of_slice(dst),
        )
    }

    /// Synchronous continuous DMA put: `src` into `dst[offset..]`.
    pub fn dma_put(&mut self, dst: MemViewMut<'_>, offset: usize, src: &[f32]) {
        let h = self.dma_put_async(dst, offset, src);
        self.dma_wait(h);
    }

    /// Asynchronous continuous DMA put.
    pub(crate) fn dma_put_async(
        &mut self,
        dst: MemViewMut<'_>,
        offset: usize,
        src: &[f32],
    ) -> DmaHandle {
        let bytes = std::mem::size_of_val(src);
        if self.functional() {
            dst.write(offset, src);
        }
        self.charge_dma(
            0,
            bytes,
            dma::continuous_time(bytes, self.n_active),
            dma::DmaDir::Put,
            MemRange::of_slice(src),
        )
    }

    /// Asynchronous strided DMA get (double-buffering support): the copy
    /// happens eagerly, the simulated completion is returned as a handle.
    #[allow(clippy::too_many_arguments)]
    pub fn dma_get_strided_async(
        &mut self,
        src: MemView<'_>,
        offset: usize,
        block_elems: usize,
        stride_elems: usize,
        nblocks: usize,
        dst: &mut [f32],
    ) -> DmaHandle {
        assert!(
            dst.len() >= block_elems * nblocks,
            "strided get dst too small"
        );
        assert!(stride_elems >= block_elems, "strided get blocks overlap");
        if self.functional() {
            for b in 0..nblocks {
                let s = offset + b * stride_elems;
                let d = b * block_elems;
                src.read(s, &mut dst[d..d + block_elems]);
            }
        }
        let bytes = block_elems * nblocks * 4;
        let t = dma::strided_time(block_elems * 4, nblocks, self.n_active);
        self.charge_dma(bytes, 0, t, dma::DmaDir::Get, MemRange::of_slice(dst))
    }

    /// Strided DMA get: `nblocks` blocks of `block_elems` f32, consecutive
    /// source blocks separated by `stride_elems`, packed densely into `dst`.
    pub fn dma_get_strided(
        &mut self,
        src: MemView<'_>,
        offset: usize,
        block_elems: usize,
        stride_elems: usize,
        nblocks: usize,
        dst: &mut [f32],
    ) {
        let h = self.dma_get_strided_async(src, offset, block_elems, stride_elems, nblocks, dst);
        self.dma_wait(h);
    }

    /// Strided DMA put: scatter dense `src` into blocks of `block_elems`
    /// separated by `stride_elems` in `dst`.
    pub fn dma_put_strided(
        &mut self,
        dst: MemViewMut<'_>,
        offset: usize,
        block_elems: usize,
        stride_elems: usize,
        nblocks: usize,
        src: &[f32],
    ) {
        assert!(
            src.len() >= block_elems * nblocks,
            "strided put src too small"
        );
        assert!(stride_elems >= block_elems, "strided put blocks overlap");
        if self.functional() {
            for b in 0..nblocks {
                let d = offset + b * stride_elems;
                let s = b * block_elems;
                dst.write(d, &src[s..s + block_elems]);
            }
        }
        let bytes = block_elems * nblocks * 4;
        let t = dma::strided_time(block_elems * 4, nblocks, self.n_active);
        let h = self.charge_dma(0, bytes, t, dma::DmaDir::Put, MemRange::of_slice(src));
        self.dma_wait(h);
    }

    fn charge_dma(
        &mut self,
        get: usize,
        put: usize,
        dur: SimTime,
        dir: dma::DmaDir,
        range: MemRange,
    ) -> DmaHandle {
        self.stats.dma_get_bytes += get as u64;
        self.stats.dma_put_bytes += put as u64;
        self.stats.dma_requests += 1;
        let start = self.dma_start();
        let complete_at = start + dur;
        self.dma_engine_free_at = complete_at;
        let seq = self.next_dma_seq;
        self.next_dma_seq += 1;
        self.outstanding.push(seq);
        self.record(|| CpeEvent::DmaIssue {
            seq,
            dir,
            bytes: get + put,
            range,
        });
        DmaHandle { complete_at, seq }
    }

    /// Block until an asynchronous transfer completes.
    ///
    /// Each handle may be waited exactly once; a second wait on the same
    /// handle panics (or, under a checked launch, is recorded as a
    /// `DmaWaitStale` event for the sanitizer to report).
    pub fn dma_wait(&mut self, h: DmaHandle) {
        match self.outstanding.iter().position(|&s| s == h.seq) {
            Some(p) => {
                self.outstanding.swap_remove(p);
                self.record(|| CpeEvent::DmaWait { seq: h.seq });
                self.clock = self.clock.max(h.complete_at);
            }
            None if self.log.is_some() => {
                self.record(|| CpeEvent::DmaWaitStale { seq: h.seq });
            }
            None => panic!(
                "dma_wait on a stale or already-waited DmaHandle (request #{} on CPE ({}, {})): \
                 every async DMA must be waited exactly once",
                h.seq, self.row, self.col
            ),
        }
    }

    // ---- register-level communication ----------------------------------

    fn rlc_charge_send(&mut self, bytes: usize) {
        self.stats.rlc_bytes += bytes as u64;
        self.stats.rlc_messages += 1;
        self.clock += SimTime::from_cycles(transfer_cycles(bytes));
    }

    fn payload(&self, data: &[f64]) -> Option<Box<[f64]>> {
        self.functional().then(|| data.to_vec().into_boxed_slice())
    }

    /// Deliver one message on `axis` to mesh index `to`, suspending while
    /// its FIFO is full.
    async fn deliver(&mut self, links: &'l MeshLinks, axis: Axis, to: usize, msg: RlcMsg) {
        let from = match axis {
            Axis::Row => self.col,
            Axis::Col => self.row,
        };
        assert!(to != self.idx, "RLC send to self");
        let fifos = &links.fifos;
        let full = BlockedOn::RlcSend { axis, to };
        self.suspend_until(full, || fifos.has_room(axis, to, from).then_some(()))
            .await;
        fifos.push(axis, to, from, msg);
        links.bump();
    }

    /// Send `data` on `axis` to each of the mesh indices `peers`: one bus
    /// occupation, one message per receiver.
    async fn send(
        &mut self,
        op: &str,
        axis: Axis,
        peers: impl Iterator<Item = usize>,
        data: &[f64],
    ) {
        let links = self.links(op);
        let bytes = std::mem::size_of_val(data);
        self.rlc_charge_send(bytes);
        for peer in peers {
            let msg = RlcMsg {
                sent_at: self.clock,
                data: self.payload(data),
            };
            self.record(|| CpeEvent::RlcSend {
                axis,
                peer,
                bytes,
                range: MemRange::of_slice(data),
            });
            self.deliver(links, axis, peer, msg).await;
        }
    }

    /// P2P send on the row bus to `(self.row, dst_col)`.
    pub async fn rlc_row_send(&mut self, dst_col: usize, data: &[f64]) {
        let peer = self.row * MESH_DIM + dst_col;
        self.send("rlc_row_send", Axis::Row, once(peer), data).await;
    }

    /// Broadcast on the row bus to the other active CPEs in this row.
    ///
    /// The bus is occupied once regardless of receiver count, which is what
    /// makes broadcast GEMM so effective (Principle 4).
    pub async fn rlc_row_bcast(&mut self, data: &[f64]) {
        let (row0, me) = (self.row * MESH_DIM, self.idx);
        let peers = (0..self.active_row_width()).map(|c| row0 + c);
        let peers = peers.filter(|&p| p != me);
        self.send("rlc_row_bcast", Axis::Row, peers, data).await;
    }

    /// Broadcast on the column bus to the other active CPEs in this column.
    pub async fn rlc_col_bcast(&mut self, data: &[f64]) {
        let (col, me) = (self.col, self.idx);
        let peers = (0..self.active_col_height()).map(|r| r * MESH_DIM + col);
        let peers = peers.filter(|&p| p != me);
        self.send("rlc_col_bcast", Axis::Col, peers, data).await;
    }

    /// Receive one message from mesh index `peer` at bus position `from`
    /// on `axis` into `buf`, suspending while the FIFO is empty.
    async fn recv(&mut self, op: &str, axis: Axis, from: usize, peer: usize, buf: &mut [f64]) {
        let links = self.links(op);
        let (fifos, to) = (&links.fifos, self.idx);
        let empty = BlockedOn::RlcRecv { axis, from: peer };
        let msg = self
            .suspend_until(empty, || fifos.pop(axis, to, from))
            .await;
        links.bump();
        self.record(|| CpeEvent::RlcRecv {
            axis,
            peer,
            bytes: std::mem::size_of_val(buf),
            range: MemRange::of_slice(buf),
        });
        self.finish_recv(msg, buf);
    }

    /// Receive from `(self.row, src_col)` on the row bus into `buf`.
    pub async fn rlc_row_recv(&mut self, src_col: usize, buf: &mut [f64]) {
        let peer = self.row * MESH_DIM + src_col;
        self.recv("rlc_row_recv", Axis::Row, src_col, peer, buf)
            .await;
    }

    /// Receive from `(src_row, self.col)` on the column bus into `buf`.
    pub async fn rlc_col_recv(&mut self, src_row: usize, buf: &mut [f64]) {
        let peer = src_row * MESH_DIM + self.col;
        self.recv("rlc_col_recv", Axis::Col, src_row, peer, buf)
            .await;
    }

    fn finish_recv(&mut self, msg: RlcMsg, buf: &mut [f64]) {
        let bytes = std::mem::size_of_val(buf);
        if let Some(data) = msg.data {
            assert_eq!(data.len(), buf.len(), "RLC receive buffer size mismatch");
            buf.copy_from_slice(&data);
        } else {
            debug_assert!(!self.functional(), "missing payload in functional mode");
        }
        self.clock = self
            .clock
            .max(msg.sent_at + SimTime::from_cycles(RLC_HOP_CYCLES))
            + SimTime::from_cycles(transfer_cycles(bytes));
    }

    fn active_row_width(&self) -> usize {
        // With a partially-filled last row only the first `n mod 8` columns
        // are active there.
        let full_rows = self.n_active / MESH_DIM;
        if self.row < full_rows {
            MESH_DIM
        } else {
            self.n_active % MESH_DIM
        }
    }

    fn active_col_height(&self) -> usize {
        let full_rows = self.n_active / MESH_DIM;
        let rem = self.n_active % MESH_DIM;
        full_rows + usize::from(self.col < rem)
    }

    // ---- compute --------------------------------------------------------

    /// Charge `flops` floating-point operations to the vector pipeline at
    /// the tuned-kernel efficiency.
    pub fn charge_flops(&mut self, flops: u64) {
        self.stats.flops += flops;
        let cycles = flops as f64 / (CPE_DP_FLOPS_PER_CYCLE * KERNEL_COMPUTE_EFFICIENCY);
        self.clock += SimTime::from_cycles(cycles);
    }

    /// Charge `flops` and, in functional mode, run the math.
    pub fn compute<R: Default>(&mut self, flops: u64, f: impl FnOnce() -> R) -> R {
        self.charge_flops(flops);
        if self.functional() {
            f()
        } else {
            R::default()
        }
    }

    /// Charge scalar (non-vectorised) operations — 1 flop/cycle.
    pub fn charge_scalar_ops(&mut self, ops: u64) {
        self.stats.flops += ops;
        self.clock += SimTime::from_cycles(ops as f64);
    }

    // ---- synchronisation -------------------------------------------------

    /// Mesh-wide barrier; local clocks are reconciled to the maximum.
    pub async fn sync(&mut self) {
        let links = self.links("sync");
        self.sync_count += 1;
        let n = self.sync_count;
        self.record(|| CpeEvent::Barrier { n });
        let barrier = &links.barrier;
        let gen = barrier.arrive(self.clock);
        links.bump();
        self.clock = self
            .suspend_until(BlockedOn::Barrier, || barrier.released(gen))
            .await;
        // The DMA engine cannot be busy past a barrier.
        self.dma_engine_free_at = self.dma_engine_free_at.max(self.clock);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::cg::CoreGroup;
    use crate::plan::{KernelPlan, RlcPattern};

    /// Each CPE's clock after each of its barriers, when CPE `i` of `n`
    /// charges `before(i)` seconds of scalar work before the first and
    /// `after(i)` before each of the `rounds - 1` later ones. Every
    /// duration used is a whole number of cycles, so the clocks are exact.
    fn barrier_clocks(
        n: usize,
        rounds: usize,
        before: impl Fn(usize) -> f64,
        after: impl Fn(usize) -> f64,
    ) -> Vec<Vec<f64>> {
        let seen = RefCell::new(vec![Vec::new(); n]);
        let plan = KernelPlan::new("barrier", n).rlc(RlcPattern::PointToPoint);
        CoreGroup::new(ExecMode::TimingOnly).run_planned_async(&plan, async |cpe| {
            let i = cpe.idx();
            let cycles = |s: f64| (s * crate::arch::CLOCK_HZ) as u64;
            cpe.charge_scalar_ops(cycles(before(i)));
            for round in 0..rounds {
                if round > 0 {
                    cpe.charge_scalar_ops(cycles(after(i)));
                }
                cpe.sync().await;
                seen.borrow_mut()[i].push(cpe.clock.seconds());
            }
        });
        seen.into_inner()
    }

    #[test]
    fn barrier_reconciles_to_max_clock() {
        // The latest clock arrives neither first nor last.
        let clocks = barrier_clocks(4, 1, |i| [1.0, 3.0, 0.0, 2.0][i], |_| 0.0);
        assert_eq!(clocks, vec![vec![3.0]; 4]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let clocks = barrier_clocks(2, 2, |i| 1.0 + i as f64, |i| 10.0 * (i + 1) as f64);
        assert_eq!(clocks, vec![vec![2.0, 22.0]; 2]);
    }

    #[test]
    fn single_participant_barrier_returns_immediately() {
        let clocks = barrier_clocks(1, 2, |_| 4.5, |_| 2.0);
        assert_eq!(clocks, vec![vec![4.5, 6.5]]);
    }
}

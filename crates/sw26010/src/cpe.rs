//! The per-CPE execution context handed to mesh kernels.
//!
//! A kernel is a closure `Fn(&mut Cpe)` executed once per CPE of a launch
//! (see [`crate::mesh`] for how). The context exposes exactly the
//! resources a CPE has on silicon: its 64 KB LDM, a DMA engine to main
//! memory, row/column register communication, the vector pipelines, and
//! the mesh barrier. Everything else (direct loads from main memory in
//! particular) is deliberately absent — gld/gst-style accesses are what
//! Principle 2 says to avoid, and kernels written against this API
//! physically cannot issue them.
//!
//! The register buses and the barrier exist only in a threaded launch,
//! which shares one [`MeshLinks`] between its CPEs. An independent launch
//! (a plan declaring [`RlcPattern::None`](crate::plan::RlcPattern::None))
//! builds none, and a register-communication or barrier call there panics
//! with the plan's name and the CPE's coordinates.
//!
//! Under a checked launch (see [`crate::check`]) every operation
//! additionally appends a typed event to a per-CPE log and participates
//! in mesh-wide stall detection. The instrumentation never reads or
//! writes the simulated clocks, so checked and unchecked runs produce
//! bit-identical data and timings.

use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};

use crate::arch::{CPE_DP_FLOPS_PER_CYCLE, KERNEL_COMPUTE_EFFICIENCY, MESH_DIM};
use crate::check::{
    BlockedOn, CpeEvent, CpeTrace, EventLog, LaunchCheck, MemRange, StallMarker, StallWatch,
    STALL_SLICE,
};
use crate::dma;
use crate::ldm::Ldm;
use crate::rlc::{transfer_cycles, Axis, CpePorts, RlcFabric, RlcMsg, SendAttempt, RLC_HOP_CYCLES};
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
/// Implemented as a generation-counted condition variable rather than
/// `std::sync::Barrier` so checked launches can wait with a timeout and
/// convert barrier divergence (some CPEs never arrive) into a stall
/// diagnostic instead of a hang.
pub struct MeshBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// Running max of the arrivals' clocks for the current generation.
    max: f64,
    /// Reconciled clock of the previous generation.
    result: f64,
}

impl MeshBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        MeshBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                max: 0.0,
                result: 0.0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enter the barrier with `local` time; returns the mesh-wide maximum.
    pub fn wait(&self, _slot: usize, local: SimTime) -> SimTime {
        self.wait_inner(local, None)
            .expect("unchecked barrier wait cannot time out")
    }

    /// Bounded-wait variant for checked launches; returns `None` when the
    /// mesh stopped progressing with this CPE still inside the barrier.
    pub(crate) fn wait_checked(&self, local: SimTime, check: &LaunchCheck) -> Option<SimTime> {
        self.wait_inner(local, Some(check))
    }

    fn wait_inner(&self, local: SimTime, check: Option<&LaunchCheck>) -> Option<SimTime> {
        let mut st = self.state.lock().expect("mesh barrier poisoned");
        st.max = st.max.max(local.seconds());
        st.arrived += 1;
        if st.arrived == self.n {
            st.result = st.max;
            st.max = 0.0;
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return Some(SimTime::from_seconds(st.result));
        }
        let gen = st.generation;
        let mut watch = check.map(StallWatch::new);
        while st.generation == gen {
            match &mut watch {
                None => st = self.cv.wait(st).expect("mesh barrier poisoned"),
                Some(w) => {
                    let (guard, timeout) = self
                        .cv
                        .wait_timeout(st, STALL_SLICE)
                        .expect("mesh barrier poisoned");
                    st = guard;
                    if st.generation != gen {
                        break;
                    }
                    if timeout.timed_out() && w.timed_out() {
                        return None;
                    }
                }
            }
        }
        Some(SimTime::from_seconds(st.result))
    }
}

/// The register buses and barrier the CPEs of one threaded launch share.
pub(crate) struct MeshLinks {
    fabric: RlcFabric,
    barrier: MeshBarrier,
}

impl MeshLinks {
    pub(crate) fn new(n_cpes: usize) -> Self {
        MeshLinks {
            fabric: RlcFabric::new(),
            barrier: MeshBarrier::new(n_cpes),
        }
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
    /// The launch's shared buses and barrier plus this CPE's receive
    /// ports; `None` in an independent launch.
    links: Option<(&'l MeshLinks, CpePorts)>,
    /// Sanitizer event log; `None` outside checked launches.
    log: Option<EventLog>,
    /// Launch-wide liveness state; `None` outside checked launches.
    check: Option<&'l LaunchCheck>,
    /// Sequence numbers of issued-but-unwaited DMA requests.
    outstanding: Vec<u64>,
    next_dma_seq: u64,
    sync_count: u64,
    stalled_on: Option<BlockedOn>,
}

impl<'l> Cpe<'l> {
    pub(crate) fn new(
        idx: usize,
        n_active: usize,
        mode: ExecMode,
        kernel: &'l str,
        links: Option<&'l MeshLinks>,
        log: Option<EventLog>,
        check: Option<&'l LaunchCheck>,
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
            links: links.map(|l| (l, l.fabric.take_ports(idx))),
            log,
            check,
            outstanding: Vec::new(),
            next_dma_seq: 0,
            sync_count: 0,
            stalled_on: None,
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

    /// Number of CPEs participating in this launch (affects the DMA
    /// bandwidth share).
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// True when the kernel should actually move/compute data.
    pub fn functional(&self) -> bool {
        self.mode.is_functional()
    }

    /// Local simulated clock.
    pub fn now(&self) -> SimTime {
        self.clock
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
            stall: self.stalled_on,
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

    #[inline]
    fn progress_bump(&self) {
        if let Some(check) = self.check {
            check.bump();
        }
    }

    /// Unwind this CPE because the mesh stopped progressing while it was
    /// blocked on `blocked`. The trace keeps everything recorded so far
    /// plus the blocked-on detail; `run_mesh_traced` catches the marker.
    fn stall_unwind(&mut self, blocked: BlockedOn) -> ! {
        if let Some(check) = self.check {
            check.declare_stall();
        }
        self.stalled_on = Some(blocked);
        std::panic::panic_any(StallMarker);
    }

    // ---- mesh links (threaded launches only) ----------------------------

    /// The launch's shared buses and barrier, for operation `op`.
    fn links(&self, op: &str) -> &'l MeshLinks {
        match &self.links {
            Some((links, _)) => links,
            None => self.independent_misuse(op),
        }
    }

    /// This CPE's receive FIFO from `port` on `axis`, for operation `op`.
    fn rx(&self, op: &str, axis: Axis, port: usize) -> &Receiver<RlcMsg> {
        match (&self.links, axis) {
            (Some((_, ports)), Axis::Row) => &ports.row[port],
            (Some((_, ports)), Axis::Col) => &ports.col[port],
            (None, _) => self.independent_misuse(op),
        }
    }

    #[cold]
    fn independent_misuse(&self, op: &str) -> ! {
        panic!(
            "kernel `{}` CPE ({}, {}) called {op} in an independent launch: its plan \
             declares RlcPattern::None, so the CPE bodies run one after another with no \
             register buses and no barrier; declare the pattern the kernel uses",
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
    pub fn dma_put_async(&mut self, dst: MemViewMut<'_>, offset: usize, src: &[f32]) -> DmaHandle {
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

    /// DMA put that *accumulates* into main memory (`dst += src`).
    ///
    /// Hardware has no add-to-memory DMA; this models the common
    /// read-modify-write plan (get + vector add + put) as a single call
    /// charged as two transfers plus the adds.
    pub fn dma_accumulate(&mut self, dst: MemViewMut<'_>, offset: usize, src: &[f32]) {
        let bytes = std::mem::size_of_val(src);
        if self.functional() {
            dst.accumulate(offset, src);
        }
        let t = dma::continuous_time(bytes, self.n_active);
        let h1 = self.charge_dma(
            bytes,
            bytes,
            SimTime::from_seconds(2.0 * t.seconds()),
            dma::DmaDir::Put,
            MemRange::of_slice(src),
        );
        self.charge_flops(src.len() as u64);
        self.dma_wait(h1);
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
        self.progress_bump();
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
                self.progress_bump();
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

    /// Deliver one message on the row bus, with bounded waiting under a
    /// checked launch so a full FIFO can be diagnosed as a stall.
    fn deliver_row(&mut self, fabric: &RlcFabric, dst_col: usize, msg: RlcMsg) {
        match self.check {
            None => fabric.send_row(self.row, self.col, dst_col, msg),
            Some(check) => {
                let mut msg = msg;
                let mut watch = StallWatch::new(check);
                loop {
                    match fabric.try_send_row(self.row, self.col, dst_col, msg) {
                        SendAttempt::Sent => return,
                        SendAttempt::Full(m) => {
                            msg = m;
                            std::thread::sleep(STALL_SLICE);
                            if watch.timed_out() {
                                self.stall_unwind(BlockedOn::RlcSend {
                                    axis: Axis::Row,
                                    to: self.row * MESH_DIM + dst_col,
                                });
                            }
                        }
                        SendAttempt::Disconnected => self.stall_unwind(BlockedOn::RlcSend {
                            axis: Axis::Row,
                            to: self.row * MESH_DIM + dst_col,
                        }),
                    }
                }
            }
        }
    }

    /// Deliver one message on the column bus (see [`Cpe::deliver_row`]).
    fn deliver_col(&mut self, fabric: &RlcFabric, dst_row: usize, msg: RlcMsg) {
        match self.check {
            None => fabric.send_col(self.col, self.row, dst_row, msg),
            Some(check) => {
                let mut msg = msg;
                let mut watch = StallWatch::new(check);
                loop {
                    match fabric.try_send_col(self.col, self.row, dst_row, msg) {
                        SendAttempt::Sent => return,
                        SendAttempt::Full(m) => {
                            msg = m;
                            std::thread::sleep(STALL_SLICE);
                            if watch.timed_out() {
                                self.stall_unwind(BlockedOn::RlcSend {
                                    axis: Axis::Col,
                                    to: dst_row * MESH_DIM + self.col,
                                });
                            }
                        }
                        SendAttempt::Disconnected => self.stall_unwind(BlockedOn::RlcSend {
                            axis: Axis::Col,
                            to: dst_row * MESH_DIM + self.col,
                        }),
                    }
                }
            }
        }
    }

    /// P2P send on the row bus to `(self.row, dst_col)`.
    pub fn rlc_row_send(&mut self, dst_col: usize, data: &[f64]) {
        let fabric = &self.links("rlc_row_send").fabric;
        let bytes = std::mem::size_of_val(data);
        self.rlc_charge_send(bytes);
        let msg = RlcMsg {
            sent_at: self.clock,
            data: self.payload(data),
        };
        self.record(|| CpeEvent::RlcSend {
            axis: Axis::Row,
            peer: self.row * MESH_DIM + dst_col,
            bytes,
            range: MemRange::of_slice(data),
        });
        self.deliver_row(fabric, dst_col, msg);
        self.progress_bump();
    }

    /// P2P send on the column bus to `(dst_row, self.col)`.
    pub fn rlc_col_send(&mut self, dst_row: usize, data: &[f64]) {
        let fabric = &self.links("rlc_col_send").fabric;
        let bytes = std::mem::size_of_val(data);
        self.rlc_charge_send(bytes);
        let msg = RlcMsg {
            sent_at: self.clock,
            data: self.payload(data),
        };
        self.record(|| CpeEvent::RlcSend {
            axis: Axis::Col,
            peer: dst_row * MESH_DIM + self.col,
            bytes,
            range: MemRange::of_slice(data),
        });
        self.deliver_col(fabric, dst_row, msg);
        self.progress_bump();
    }

    /// Broadcast on the row bus to the other active CPEs in this row.
    ///
    /// The bus is occupied once regardless of receiver count, which is what
    /// makes broadcast GEMM so effective (Principle 4).
    pub fn rlc_row_bcast(&mut self, data: &[f64]) {
        let fabric = &self.links("rlc_row_bcast").fabric;
        let bytes = std::mem::size_of_val(data);
        self.rlc_charge_send(bytes);
        let row_width = self.active_row_width();
        for dst_col in 0..row_width {
            if dst_col != self.col {
                let msg = RlcMsg {
                    sent_at: self.clock,
                    data: self.payload(data),
                };
                self.record(|| CpeEvent::RlcSend {
                    axis: Axis::Row,
                    peer: self.row * MESH_DIM + dst_col,
                    bytes,
                    range: MemRange::of_slice(data),
                });
                self.deliver_row(fabric, dst_col, msg);
            }
        }
        self.progress_bump();
    }

    /// Broadcast on the column bus to the other active CPEs in this column.
    pub fn rlc_col_bcast(&mut self, data: &[f64]) {
        let fabric = &self.links("rlc_col_bcast").fabric;
        let bytes = std::mem::size_of_val(data);
        self.rlc_charge_send(bytes);
        let col_height = self.active_col_height();
        for dst_row in 0..col_height {
            if dst_row != self.row {
                let msg = RlcMsg {
                    sent_at: self.clock,
                    data: self.payload(data),
                };
                self.record(|| CpeEvent::RlcSend {
                    axis: Axis::Col,
                    peer: dst_row * MESH_DIM + self.col,
                    bytes,
                    range: MemRange::of_slice(data),
                });
                self.deliver_col(fabric, dst_row, msg);
            }
        }
        self.progress_bump();
    }

    /// Receive one message from the given port for operation `op`, with
    /// bounded waiting under a checked launch.
    fn recv_msg(&mut self, op: &str, axis: Axis, port: usize, peer: usize) -> RlcMsg {
        match self.check {
            None => self
                .rx(op, axis, port)
                .recv()
                .expect("RLC sender dropped mid-kernel"),
            Some(check) => {
                use std::sync::mpsc::RecvTimeoutError;
                let mut watch = StallWatch::new(check);
                loop {
                    match self.rx(op, axis, port).recv_timeout(STALL_SLICE) {
                        Ok(msg) => return msg,
                        Err(RecvTimeoutError::Timeout) => {
                            if watch.timed_out() {
                                self.stall_unwind(BlockedOn::RlcRecv { axis, from: peer });
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            self.stall_unwind(BlockedOn::RlcRecv { axis, from: peer });
                        }
                    }
                }
            }
        }
    }

    /// Receive from `(self.row, src_col)` on the row bus into `buf`.
    pub fn rlc_row_recv(&mut self, src_col: usize, buf: &mut [f64]) {
        let peer = self.row * MESH_DIM + src_col;
        let msg = self.recv_msg("rlc_row_recv", Axis::Row, src_col, peer);
        self.record(|| CpeEvent::RlcRecv {
            axis: Axis::Row,
            peer,
            bytes: std::mem::size_of_val(buf),
            range: MemRange::of_slice(buf),
        });
        self.finish_recv(msg, buf);
        self.progress_bump();
    }

    /// Receive from `(src_row, self.col)` on the column bus into `buf`.
    pub fn rlc_col_recv(&mut self, src_row: usize, buf: &mut [f64]) {
        let peer = src_row * MESH_DIM + self.col;
        let msg = self.recv_msg("rlc_col_recv", Axis::Col, src_row, peer);
        self.record(|| CpeEvent::RlcRecv {
            axis: Axis::Col,
            peer,
            bytes: std::mem::size_of_val(buf),
            range: MemRange::of_slice(buf),
        });
        self.finish_recv(msg, buf);
        self.progress_bump();
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
        self.progress_bump();
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
        self.progress_bump();
    }

    /// Advance the local clock by an explicit duration (fixed-function
    /// costs such as SIMD shuffles modelled at a coarser grain).
    pub fn charge_time(&mut self, t: SimTime) {
        self.clock += t;
        self.progress_bump();
    }

    // ---- synchronisation -------------------------------------------------

    /// Mesh-wide barrier; local clocks are reconciled to the maximum.
    pub fn sync(&mut self) {
        let barrier = &self.links("sync").barrier;
        self.sync_count += 1;
        let n = self.sync_count;
        self.record(|| CpeEvent::Barrier { n });
        self.clock = match self.check {
            None => barrier.wait(self.idx, self.clock),
            Some(check) => match barrier.wait_checked(self.clock, check) {
                Some(t) => t,
                None => self.stall_unwind(BlockedOn::Barrier),
            },
        };
        // The DMA engine cannot be busy past a barrier.
        self.dma_engine_free_at = self.dma_engine_free_at.max(self.clock);
        self.progress_bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_reconciles_to_max_clock() {
        let b = std::sync::Arc::new(MeshBarrier::new(4));
        let results: Vec<SimTime> = std::thread::scope(|s| {
            (0..4usize)
                .map(|i| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || b.wait(i, SimTime::from_seconds(i as f64)))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r.seconds(), 3.0);
        }
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let b = std::sync::Arc::new(MeshBarrier::new(2));
        let outs: Vec<(SimTime, SimTime)> = std::thread::scope(|s| {
            (0..2usize)
                .map(|i| {
                    let b = std::sync::Arc::clone(&b);
                    s.spawn(move || {
                        let first = b.wait(i, SimTime::from_seconds(1.0 + i as f64));
                        let second =
                            b.wait(i, first + SimTime::from_seconds(10.0 * (i + 1) as f64));
                        (first, second)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (first, second) in outs {
            assert_eq!(first.seconds(), 2.0);
            assert_eq!(second.seconds(), 22.0);
        }
    }

    #[test]
    fn single_participant_barrier_returns_immediately() {
        let b = MeshBarrier::new(1);
        assert_eq!(b.wait(0, SimTime::from_seconds(4.5)).seconds(), 4.5);
        assert_eq!(b.wait(0, SimTime::from_seconds(6.5)).seconds(), 6.5);
    }

    #[test]
    fn checked_barrier_times_out_when_peers_never_arrive() {
        let b = MeshBarrier::new(2);
        let check = LaunchCheck::new();
        // Nobody else will ever arrive: the bounded wait must give up.
        let r = b.wait_checked(SimTime::from_seconds(1.0), &check);
        assert!(r.is_none());
        assert!(check.is_stalled());
    }
}

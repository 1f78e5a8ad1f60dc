//! All-reduce algorithms (Sec. V-A).
//!
//! * [`Algorithm::Ring`] — bandwidth-optimal ring (Patarasuk & Yuan \[15\]);
//!   rejected by the paper for its `p * alpha` latency term on the
//!   high-latency Sunway network.
//! * [`Algorithm::Binomial`] — reduce-to-root + broadcast; the latency-
//!   optimal strawman, terrible for large gradients.
//! * [`Algorithm::RecursiveHalvingDoubling`] — the MPICH algorithm
//!   (Thakur et al. \[14\]): reduce-scatter by recursive halving, allgather
//!   by recursive doubling. With the *natural* rank map its big early
//!   steps cross supernodes and pay the over-subscribed beta2.
//! * The paper's contribution is the same algorithm under the
//!   [`RankMap::RoundRobin`] placement, which pins the big steps inside
//!   supernodes and leaves only the small tail on the central switch.
//!
//! Every algorithm runs functionally over per-node buffers (tests assert
//! all algorithms produce identical sums) while the cost machinery in
//! [`crate::cost`] accumulates simulated time step by step. Functional
//! messages are delivered in place, straight from the sender's buffer into
//! the receiver's, with no per-message copy: no rank sends a chunk it
//! receives in the same step, so each read sees the value at the start of
//! the step, as the bulk-synchronous model requires (see `run_schedule`).

use sw26010::SimTime;
use swfault::{CollectiveFault, FaultSession};

use crate::cost::{class_step_time, fold_transfers, NetParams, Transfer, TransferClass};
use crate::schedule::{ChunkSpan, CommSpec, RankOp};
use crate::topology::{RankMap, Topology};

/// All-reduce algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    Ring,
    Binomial,
    RecursiveHalvingDoubling,
}

/// Outcome of one all-reduce.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceReport {
    pub elapsed: SimTime,
    pub steps: usize,
    /// Bytes that crossed the central switch (sum over transfers).
    pub cross_bytes: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
}

/// In-simulation all-reduce (sum) over `p = topo.nodes` buffers of `elems`
/// f32 each. `data`, when provided, is indexed by *physical* rank. This is
/// [`allreduce_segment_ft`] over the whole buffer with no fault session,
/// so it cannot fail.
pub fn allreduce(
    topo: &Topology,
    params: &NetParams,
    map: RankMap,
    algo: Algorithm,
    elems: usize,
    data: Option<&mut [Vec<f32>]>,
) -> AllreduceReport {
    allreduce_segment_ft(topo, params, map, algo, elems, 0..elems, data, None)
        .expect("infallible without fault injection")
}

/// Segment-level, fault-aware all-reduce: the core every collective entry
/// runs. It reduces only `segment` of a packed buffer of `total_elems`
/// (pass `0..total_elems` for the whole buffer), such that the union of
/// disjoint segment reductions is **bit-identical** to one monolithic
/// packed all-reduce. This is the primitive behind bucketed,
/// backward-overlapped gradient reduction.
///
/// How each algorithm achieves that:
///
/// * **Recursive halving/doubling** treats the segment as its own vector
///   (p balanced blocks over the segment, like a real bucketed
///   implementation). Element placement cannot change the bits: every
///   element's partials combine along the same rank-pairing tree
///   regardless of which block holds it — only the operand sides swap,
///   and IEEE addition commutes.
/// * **Binomial tree** sends whole vectors along a fixed tree, so the
///   segment messages are simply the monolithic messages cut to the
///   segment.
/// * **Ring** folds each element sequentially around the ring starting
///   at its block's owner, so its per-element association *does* depend
///   on block geometry; the ring therefore runs the monolithic block
///   schedule restricted to the segment (blocks outside move zero
///   bytes), reproducing the monolithic fold order exactly.
///
/// The cost model charges each segment run its own start-up latencies
/// and per-step straggler jitter — the realistic price of bucketing.
///
/// With a fault session (`faults: Some`), both the timing path (detection
/// timeouts, retry cost) and the functional path (checksummed messages,
/// deterministic retransmission) consult it, and the collective aborts
/// with a [`CollectiveFault`] instead of silently computing garbage when a
/// peer is dead or a message exhausts its retry budget. The session never
/// changes the price of a step that completes. With `faults: None` it
/// cannot fail.
#[allow(clippy::too_many_arguments)]
pub fn allreduce_segment_ft(
    topo: &Topology,
    params: &NetParams,
    map: RankMap,
    algo: Algorithm,
    total_elems: usize,
    segment: std::ops::Range<usize>,
    data: Option<&mut [Vec<f32>]>,
    mut faults: Option<&mut FaultSession>,
) -> Result<AllreduceReport, CollectiveFault> {
    let p = topo.nodes;
    assert!(
        segment.end <= total_elems,
        "segment {segment:?} exceeds buffer of {total_elems}"
    );
    if let Some(d) = data.as_deref() {
        assert_eq!(d.len(), p, "one buffer per node");
        assert!(d.iter().all(|v| v.len() == total_elems));
    }
    if p == 1 {
        return Ok(AllreduceReport {
            elapsed: SimTime::ZERO,
            steps: 0,
            cross_bytes: 0,
            total_bytes: 0,
        });
    }
    let seq = if let Some(f) = faults.as_deref_mut() {
        // A dead peer never answers the synchronisation handshake that
        // opens the collective; the keep-alive timeout fires and the
        // abort is charged as pure latency in the cost model.
        if let Some(&rank) = f.dead_nodes().iter().find(|&&n| n < p) {
            let elapsed_s = f.detect();
            return Err(CollectiveFault::DeadRank { rank, elapsed_s });
        }
        f.begin_collective()
    } else {
        0
    };
    if matches!(
        algo,
        Algorithm::RecursiveHalvingDoubling | Algorithm::Binomial
    ) {
        assert!(
            p.is_power_of_two(),
            "{} needs a power-of-two node count",
            match algo {
                Algorithm::Binomial => "binomial tree",
                _ => "recursive halving/doubling",
            }
        );
    }
    let spec = CommSpec::new(*topo, map, algo, total_elems, segment)
        .expect("validated configuration must schedule");
    run_schedule(&spec, params, data, faults, seq)
}

/// Execute a collective from its symbolic schedule. Every step is priced
/// from the transfer classes [`CommSpec::transfer_classes`] derives (O(p)
/// per collective for the ring, O(p) per step for the trees). Per-rank ops
/// are expanded only where a message needs its own state: functional
/// delivery and checksum retransmission draws, which key on endpoints.
/// The expanded path folds its transfers into the same classes, so the
/// runtime and the `swcheck::comm` static verifier share one schedule by
/// construction. Ops expand in ascending-rank order with sends first —
/// the order retransmissions are charged in and messages are delivered in.
///
/// Messages are delivered in place: each send folds or copies
/// `data[src][lo..hi]` straight into `data[dst][lo..hi]`, with no staged
/// payload. That equals the bulk-synchronous snapshot-at-send semantics
/// because no rank's send span meets its own receive span within a step
/// (RHD sends the half it does not keep, the ring sends a different chunk
/// than it receives, a binomial rank sends or receives but never both),
/// so nothing a step sends is overwritten before it is read.
/// [`InPlace::check`] asserts that per step; `swcheck::comm` proves it
/// statically as `SendRecvOverlap`.
fn run_schedule(
    spec: &CommSpec,
    params: &NetParams,
    mut data: Option<&mut [Vec<f32>]>,
    mut faults: Option<&mut FaultSession>,
    seq: u64,
) -> Result<AllreduceReport, CollectiveFault> {
    let topo = &spec.topo;
    let mut acc = StepAccum::new(topo, params, seq);
    let mut classes = Vec::new();
    let corrupts = faults.as_deref().is_some_and(|f| f.corruption_rate() > 0.0);
    if data.is_none() && !corrupts {
        let mut table = spec.transfer_classes();
        for step in 0..spec.num_steps() {
            table.step_into(step, &mut classes);
            acc.price(&classes);
        }
        return Ok(acc.finish());
    }
    let map = spec.map;
    let chunks = spec.chunk_table();
    let mut ops = Vec::new();
    let mut transfers = Vec::new();
    let mut in_place = InPlace::new(topo.nodes);
    for step in 0..spec.num_steps() {
        ops.clear();
        spec.expand_step_into(step, &mut ops);
        transfers.clear();
        for op in ops.iter().filter(|o| o.is_send) {
            let (lo, hi) = CommSpec::elem_span(&chunks, op.chunks);
            let bytes = (hi - lo) * 4;
            transfers.push(Transfer {
                src: map.physical(topo, op.rank),
                dst: map.physical(topo, op.peer),
                bytes,
                reduce_bytes: if op.reduce { bytes } else { 0 },
            });
        }
        fold_transfers(topo, &transfers, &mut classes);
        let si = acc.price(&classes);
        if let Some(f) = faults.as_deref_mut() {
            acc.retransmit(&transfers, f, si)?;
        }
        if let Some(d) = data.as_deref_mut() {
            in_place.check(step, &ops);
            for (op, t) in ops.iter().filter(|o| o.is_send).zip(&transfers) {
                let (lo, hi) = CommSpec::elem_span(&chunks, op.chunks);
                if hi > lo {
                    receive(&d[t.src][lo..hi], faults.as_deref(), seq, si, t.src, t.dst);
                    deliver(d, t.src, t.dst, lo..hi, op.reduce);
                }
            }
        }
    }
    Ok(acc.finish())
}

/// Per-rank hulls of the chunks one step sends and delivers, kept across
/// steps so the in-place check allocates nothing after the first.
struct InPlace {
    sent: Vec<ChunkSpan>,
    landed: Vec<ChunkSpan>,
}

impl InPlace {
    fn new(ranks: usize) -> Self {
        let empty = ChunkSpan::new(0, 0);
        InPlace {
            sent: vec![empty; ranks],
            landed: vec![empty; ranks],
        }
    }

    /// Panic unless every rank's sent chunks are disjoint from the chunks
    /// delivered to it in this step: the precondition of in-place
    /// delivery. Only the ranks the sends touch are reset, so the check is
    /// O(ops) per step.
    fn check(&mut self, step: usize, ops: &[RankOp]) {
        let empty = ChunkSpan::new(0, 0);
        for op in ops.iter().filter(|o| o.is_send) {
            for r in [op.rank, op.peer] {
                self.sent[r] = empty;
                self.landed[r] = empty;
            }
        }
        for op in ops.iter().filter(|o| o.is_send) {
            self.sent[op.rank] = hull(self.sent[op.rank], op.chunks);
            self.landed[op.peer] = hull(self.landed[op.peer], op.chunks);
        }
        for op in ops.iter().filter(|o| o.is_send) {
            let (sent, landed) = (self.sent[op.rank], self.landed[op.rank]);
            assert!(
                sent.hi.min(landed.hi) <= sent.lo.max(landed.lo),
                "step {step}: rank {} sends chunks {}..{} and receives chunks {}..{}; \
                 in-place delivery needs them disjoint",
                op.rank,
                sent.lo,
                sent.hi,
                landed.lo,
                landed.hi
            );
        }
    }
}

/// Smallest span covering both `a` and `b`; empty spans cover nothing.
fn hull(a: ChunkSpan, b: ChunkSpan) -> ChunkSpan {
    if a.is_empty() {
        b
    } else if b.is_empty() {
        a
    } else {
        ChunkSpan::new(a.lo.min(b.lo), a.hi.max(b.hi))
    }
}

struct StepAccum<'a> {
    topo: &'a Topology,
    params: &'a NetParams,
    elapsed: SimTime,
    steps: usize,
    cross_bytes: u64,
    total_bytes: u64,
    /// Sequence number of this collective within the fault session.
    seq: u64,
}

impl<'a> StepAccum<'a> {
    fn new(topo: &'a Topology, params: &'a NetParams, seq: u64) -> Self {
        StepAccum {
            topo,
            params,
            elapsed: SimTime::ZERO,
            steps: 0,
            cross_bytes: 0,
            total_bytes: 0,
            seq,
        }
    }

    /// Advance one bulk-synchronous step priced from its classes and
    /// return its index.
    fn price(&mut self, classes: &[TransferClass]) -> usize {
        self.elapsed += class_step_time(self.topo, self.params, classes);
        for c in classes {
            let bytes = (c.count * c.bytes) as u64;
            self.total_bytes += bytes;
            if c.route.crosses {
                self.cross_bytes += bytes;
            }
        }
        self.steps += 1;
        self.steps - 1
    }

    /// Charge step `idx`'s checksum retransmissions (detected by the
    /// receiver, replayed by the sender): start-up + uncontended wire
    /// time + seeded decorrelated-jitter backoff per extra attempt,
    /// bounded by the retry budget, or the fault that aborted the
    /// collective mid-flight.
    fn retransmit(
        &mut self,
        transfers: &[Transfer],
        f: &mut FaultSession,
        idx: usize,
    ) -> Result<(), CollectiveFault> {
        if f.corruption_rate() <= 0.0 {
            return Ok(());
        }
        for t in transfers.iter().filter(|t| t.bytes > 0) {
            let mut attempt = 0u32;
            while f.corrupts(self.seq, idx, t.src, t.dst, attempt) {
                f.report.corrupted_msgs += 1;
                attempt += 1;
                if attempt > f.max_retries() {
                    f.report.retries_exhausted += 1;
                    return Err(CollectiveFault::RetriesExhausted {
                        src: t.src,
                        dst: t.dst,
                        step: idx,
                        elapsed_s: self.elapsed.seconds(),
                    });
                }
                f.report.retries += 1;
                let retry = self.params.alpha(t.bytes)
                    + t.bytes as f64 * self.params.beta1 / self.params.collective_efficiency
                    + f.backoff_s(self.seq, idx, t.src, t.dst, attempt);
                f.report.retry_cost_s += retry;
                self.elapsed += SimTime::from_seconds(retry);
                self.total_bytes += t.bytes as u64;
                if self.topo.crosses(t.src, t.dst) {
                    self.cross_bytes += t.bytes as u64;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> AllreduceReport {
        AllreduceReport {
            elapsed: self.elapsed,
            steps: self.steps,
            cross_bytes: self.cross_bytes,
            total_bytes: self.total_bytes,
        }
    }
}

/// Deliver one message in place: fold (`+=`) or copy `data[src][range]`
/// into `data[dst][range]`. Every functional collective moves its data
/// through here.
fn deliver(
    data: &mut [Vec<f32>],
    src: usize,
    dst: usize,
    range: std::ops::Range<usize>,
    reduce: bool,
) {
    let [from, to] = data
        .get_disjoint_mut([src, dst])
        .expect("a message joins two distinct ranks");
    let payload = &from[range.clone()];
    let target = &mut to[range];
    if reduce {
        for (t, v) in target.iter_mut().zip(payload) {
            *t += v;
        }
    } else {
        target.copy_from_slice(payload);
    }
}

/// The functional half of the transport: the sender stamps a Fletcher-64
/// checksum, the corruption model may damage the payload in flight, the
/// receiver verifies and requests retransmission until a clean copy
/// arrives. The attempt budget was already enforced on the timing path
/// (the step aborts before delivery), so this loop terminates on exactly
/// the attempt the cost model charged for. Only a damaged wire copy is
/// ever allocated; the clean payload is then delivered from the sender's
/// buffer.
fn receive(
    payload: &[f32],
    faults: Option<&FaultSession>,
    seq: u64,
    step: usize,
    src: usize,
    dst: usize,
) {
    let Some(f) = faults else { return };
    if f.corruption_rate() <= 0.0 {
        return;
    }
    let stamped = swfault::checksum(payload);
    let mut attempt = 0u32;
    while f.corrupts(seq, step, src, dst, attempt) {
        let mut wire = payload.to_vec();
        let damage = seq
            ^ ((step as u64) << 40)
            ^ ((src as u64) << 20)
            ^ dst as u64
            ^ (u64::from(attempt) << 56);
        swfault::corrupt_payload(&mut wire, damage);
        assert_ne!(
            swfault::checksum(&wire),
            stamped,
            "checksum must catch in-flight corruption"
        );
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ReduceEngine;

    fn make_data(p: usize, elems: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let data: Vec<Vec<f32>> = (0..p)
            .map(|r| {
                (0..elems)
                    .map(|i| ((r * 31 + i * 7) % 23) as f32 - 11.0)
                    .collect()
            })
            .collect();
        let mut want = vec![0.0f32; elems];
        for row in &data {
            for (w, v) in want.iter_mut().zip(row) {
                *w += v;
            }
        }
        (data, want)
    }

    fn check_correct(algo: Algorithm, map: RankMap, p: usize, elems: usize) {
        let topo = Topology::with_supernode(p, (p / 2).max(1));
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let (mut data, want) = make_data(p, elems);
        let report = allreduce(&topo, &params, map, algo, elems, Some(&mut data));
        for (r, row) in data.iter().enumerate() {
            for (i, (g, w)) in row.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-3,
                    "{algo:?}/{map:?} p={p}: node {r} elem {i}: {g} vs {w}"
                );
            }
        }
        assert!(report.elapsed.seconds() > 0.0);
    }

    #[test]
    fn rhd_is_correct() {
        for p in [2, 4, 8, 16] {
            check_correct(Algorithm::RecursiveHalvingDoubling, RankMap::Natural, p, 37);
            check_correct(
                Algorithm::RecursiveHalvingDoubling,
                RankMap::RoundRobin,
                p,
                64,
            );
        }
    }

    #[test]
    fn ring_is_correct() {
        for p in [2, 3, 5, 8] {
            check_correct(Algorithm::Ring, RankMap::Natural, p, 41);
        }
    }

    #[test]
    fn binomial_is_correct() {
        for p in [2, 4, 8] {
            check_correct(Algorithm::Binomial, RankMap::Natural, p, 29);
        }
    }

    #[test]
    fn rhd_beats_binomial_wall_time() {
        // Aggregate bytes are equal (2(p-1)n in both), but binomial moves
        // whole vectors on a single link per step while RHD halves sizes
        // with all links busy — the wall-clock gap the paper exploits.
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let n = 1 << 20;
        let rhd = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            n,
            None,
        );
        let bin = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::Binomial,
            n,
            None,
        );
        assert_eq!(rhd.steps, bin.steps);
        assert!(
            rhd.elapsed.seconds() < 0.8 * bin.elapsed.seconds(),
            "rhd {} vs binomial {}",
            rhd.elapsed.seconds(),
            bin.elapsed.seconds()
        );
        // With the round-robin mapping the gap widens decisively.
        let rr = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            n,
            None,
        );
        assert!(
            rr.elapsed.seconds() < 0.5 * bin.elapsed.seconds(),
            "rr-rhd {} vs binomial {}",
            rr.elapsed.seconds(),
            bin.elapsed.seconds()
        );
    }

    #[test]
    fn round_robin_cuts_cross_traffic() {
        // The headline claim: the remap reduces the bytes crossing the
        // central switch from (p - q)n/p to (p/q - 1)n/p.
        let topo = Topology::with_supernode(16, 4); // p=16, q=4, 4 supernodes
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let n = 1 << 18;
        let nat = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            n,
            None,
        );
        let rr = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            n,
            None,
        );
        // Expected ratio: (p-q) : (p/q - 1) = 12 : 3 = 4.
        let ratio = nat.cross_bytes as f64 / rr.cross_bytes as f64;
        assert!((ratio - 4.0).abs() < 0.2, "cross-byte ratio {ratio}");
        assert!(rr.elapsed.seconds() < nat.elapsed.seconds());
    }

    #[test]
    fn ring_pays_latency_rhd_pays_less() {
        // Small message on many nodes: ring's (p-1) steps lose to RHD's
        // 2 log p — the paper's argument for the binomial-based choice.
        let topo = Topology::with_supernode(64, 64);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let n = 1024; // 4 KB of gradients
        let ring = allreduce(&topo, &params, RankMap::Natural, Algorithm::Ring, n, None);
        let rhd = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            n,
            None,
        );
        assert!(ring.steps > rhd.steps * 5);
        assert!(ring.elapsed.seconds() > rhd.elapsed.seconds());
    }

    /// Data whose sums are rounding-sensitive: reciprocals make the
    /// floating-point result depend on the association order, so exact
    /// equality below really does pin the reduction schedule.
    fn fractional_data(p: usize, elems: usize) -> Vec<Vec<f32>> {
        (0..p)
            .map(|r| {
                (0..elems)
                    .map(|i| 1.0 / (1 + (r * 131 + i * 17) % 97) as f32 - 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn segmented_allreduce_is_bit_identical_for_every_algorithm() {
        // The tentpole invariant: executing the monolithic schedule
        // restricted to each segment in turn produces *bit-identical*
        // sums to one packed all-reduce — for every algorithm, even the
        // ring, whose per-element fold order would change if segments
        // were reduced with bucket-local block boundaries.
        let elems = 1013; // prime, so block boundaries are awkward
        let cuts = [0usize, 37, 402, 640, 1013];
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            for map in [RankMap::Natural, RankMap::RoundRobin] {
                for p in [4usize, 8] {
                    let topo = Topology::with_supernode(p, p / 2);
                    let params = NetParams::sunway(ReduceEngine::CpeClusters);
                    let mut mono = fractional_data(p, elems);
                    let mut seg = mono.clone();
                    allreduce(&topo, &params, map, algo, elems, Some(&mut mono));
                    let mut seg_elapsed = SimTime::ZERO;
                    for w in cuts.windows(2) {
                        let r = allreduce_segment_ft(
                            &topo,
                            &params,
                            map,
                            algo,
                            elems,
                            w[0]..w[1],
                            Some(&mut seg),
                            None,
                        )
                        .unwrap();
                        seg_elapsed += r.elapsed;
                    }
                    assert!(seg_elapsed.seconds() > 0.0);
                    for (rank, (a, b)) in mono.iter().zip(&seg).enumerate() {
                        for (i, (x, y)) in a.iter().zip(b).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{algo:?}/{map:?} p={p} rank {rank} elem {i}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segment_bytes_sum_to_monolithic_bytes() {
        let elems = 4096;
        let topo = Topology::with_supernode(8, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let whole = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        let mut total = 0u64;
        let mut cross = 0u64;
        for w in [0usize, 1000, 2500, 4096].windows(2) {
            let r = allreduce_segment_ft(
                &topo,
                &params,
                RankMap::RoundRobin,
                Algorithm::RecursiveHalvingDoubling,
                elems,
                w[0]..w[1],
                None,
                None,
            )
            .unwrap();
            total += r.total_bytes;
            cross += r.cross_bytes;
        }
        // Every rank moves (n - its block) elements per phase, so total
        // bytes are exactly linear in the segment length. Cross-switch
        // bytes depend on per-step block rounding and may deviate by a
        // few elements per transfer.
        assert_eq!(total, whole.total_bytes);
        let dev = (cross as f64 - whole.cross_bytes as f64).abs();
        assert!(
            dev <= 0.02 * whole.cross_bytes as f64,
            "cross bytes diverged: {cross} vs {}",
            whole.cross_bytes
        );
    }

    fn send(rank: usize, peer: usize, lo: usize, hi: usize) -> RankOp {
        RankOp {
            rank,
            peer,
            is_send: true,
            chunks: ChunkSpan::new(lo, hi),
            reduce: true,
        }
    }

    #[test]
    fn in_place_check_accepts_disjoint_exchanges_across_steps() {
        let mut guard = InPlace::new(4);
        // RHD-shaped exchange: each rank sends the half it does not keep.
        guard.check(0, &[send(0, 2, 2, 4), send(2, 0, 0, 2)]);
        // A later step reuses the buffers without stale spans: rank 0
        // now receives chunks it sent in step 0.
        guard.check(1, &[send(1, 0, 2, 3), send(0, 3, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "in-place delivery needs them disjoint")]
    fn in_place_check_rejects_a_rank_that_sends_what_it_receives() {
        let mut guard = InPlace::new(4);
        guard.check(0, &[send(0, 1, 0, 2), send(3, 0, 1, 3)]);
    }

    #[test]
    fn single_node_is_free() {
        let topo = Topology::new(1);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let r = allreduce(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            100,
            None,
        );
        assert_eq!(r.elapsed, SimTime::ZERO);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::cost::ReduceEngine;
    use swfault::FaultPlan;

    const ALGOS: [Algorithm; 3] = [
        Algorithm::RecursiveHalvingDoubling,
        Algorithm::Ring,
        Algorithm::Binomial,
    ];

    fn rough_data(p: usize, elems: usize) -> Vec<Vec<f32>> {
        (0..p)
            .map(|r| {
                (0..elems)
                    .map(|i| 1.0 / (1 + (r * 131 + i * 17) % 97) as f32 - 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn corruption_is_retried_and_leaves_sums_bit_identical() {
        // Corrupted messages are caught by the checksum and
        // retransmitted, so a corrupted run must produce the *same bits*
        // as a clean run — only slower, with the retries charged to the
        // cost model and counted in the report.
        let p = 8;
        let elems = 513;
        let topo = Topology::with_supernode(p, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        for algo in ALGOS {
            let mut clean = rough_data(p, elems);
            let clean_rep = allreduce(
                &topo,
                &params,
                RankMap::RoundRobin,
                algo,
                elems,
                Some(&mut clean),
            );

            let mut faulty = rough_data(p, elems);
            let mut session =
                FaultSession::new(FaultPlan::new(2024).corruption(0.3).max_retries(8));
            session.begin_iteration(0);
            let rep = allreduce_segment_ft(
                &topo,
                &params,
                RankMap::RoundRobin,
                algo,
                elems,
                0..elems,
                Some(&mut faulty),
                Some(&mut session),
            )
            .expect("retry budget absorbs a 30% corruption rate");
            assert!(
                session.report.corrupted_msgs > 0,
                "{algo:?}: the plan must actually corrupt something"
            );
            assert_eq!(session.report.retries, session.report.corrupted_msgs);
            assert!(session.report.retry_cost_s > 0.0);
            assert!(
                rep.elapsed.seconds() > clean_rep.elapsed.seconds(),
                "{algo:?}: retries must cost simulated time"
            );
            assert!(rep.total_bytes > clean_rep.total_bytes);
            for (a, b) in clean.iter().zip(&faulty) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{algo:?}");
                }
            }
        }
    }

    #[test]
    fn dead_rank_aborts_with_detection_timeout() {
        let p = 8;
        let topo = Topology::with_supernode(p, 4);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let mut session = FaultSession::new(FaultPlan::new(1).crash(3, 2));
        session.begin_iteration(1);
        let mut data = rough_data(p, 64);
        assert!(allreduce_segment_ft(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            64,
            0..64,
            Some(&mut data),
            Some(&mut session),
        )
        .is_ok());
        session.begin_iteration(2);
        let err = allreduce_segment_ft(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::RecursiveHalvingDoubling,
            64,
            0..64,
            None,
            Some(&mut session),
        )
        .unwrap_err();
        match err {
            CollectiveFault::DeadRank { rank, elapsed_s } => {
                assert_eq!(rank, 3);
                assert!(elapsed_s > 0.0);
                assert_eq!(session.report.detect_latency_s, elapsed_s);
            }
            other => panic!("expected DeadRank, got {other}"),
        }
        assert_eq!(session.report.detections, 1);
    }

    #[test]
    fn hopeless_corruption_exhausts_retries() {
        let p = 4;
        let topo = Topology::with_supernode(p, 2);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        // rate ~ 1: every attempt of every message corrupts.
        let mut session = FaultSession::new(FaultPlan::new(5).corruption(0.999).max_retries(2));
        session.begin_iteration(0);
        let err = allreduce_segment_ft(
            &topo,
            &params,
            RankMap::Natural,
            Algorithm::Ring,
            256,
            0..256,
            None,
            Some(&mut session),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CollectiveFault::RetriesExhausted { elapsed_s, .. } if elapsed_s > 0.0
        ));
        assert_eq!(session.report.retries_exhausted, 1);
    }
}

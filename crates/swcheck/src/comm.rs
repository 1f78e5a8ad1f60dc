//! # swcheck::comm — static verification of collective schedules
//!
//! Proves correctness properties of the symbolic communication schedules
//! [`swnet::CommSpec`] derives for the three all-reduce algorithms,
//! *without simulating* the collective. Because the runtime executes the
//! very same step generator (`collectives::run_schedule`), anything
//! proven here holds for the simulation by construction.
//!
//! Two modes, picked automatically by [`check_spec`]:
//!
//! * **Exact mode** (`nodes <= EXACT_MAX_RANKS`): the schedule is
//!   materialized and pushed through a symbolic dataflow that tracks,
//!   per rank and per chunk, *how many times each rank's gradient
//!   contribution has been folded in*. Send/recv payloads are snapshot
//!   at the send step (sendrecv exchanges within a step are concurrent),
//!   so the analysis is faithful to the bulk-synchronous semantics. At
//!   the reduce/gather boundary every chunk's owner must hold every
//!   contribution exactly once; at the end every rank must. This catches
//!   double-reduced segments, dropped contributions, stale gathers, and
//!   within-step fold-order ambiguity (the reduction-order determinism
//!   property) with no false positives. It also proves the precondition
//!   under which the runtime's in-place delivery equals that snapshot:
//!   no rank sends a chunk it receives in the same step
//!   ([`CommViolation::SendRecvOverlap`]).
//! * **Scale mode** (beyond the exact cutoff, up to 40,960+ ranks):
//!   per-step algebraic invariants that never materialize the quadratic
//!   ring schedule — the ring's [`swnet::StepOps::Uniform`] descriptors
//!   are checked in O(1) per step (shift sequences, pipeline hand-off
//!   `receiver(c, k) == sender(c, k+1)`, owner consistency), while RHD
//!   and the binomial tree are checked per step in O(p) via interval
//!   telescoping (RHD: send/keep halves partition the working interval,
//!   partners work the same block) and tree exactly-once counting
//!   (binomial: every non-root forwards its accumulator exactly once,
//!   strictly toward rank 0, before ever folding again). Deadlock
//!   freedom is structural in this mode: every operation matches within
//!   its own bulk-synchronous step, so the wait-for graph is layered by
//!   step index and cannot cycle.
//!
//! Exact mode additionally runs rendezvous deadlock detection over the
//! materialized schedule: matched send/recv pairs induce a wait-for
//! graph over per-rank step groups (a rank's send and recv within one
//! step are concurrent — sendrecv — so the classical ring pattern is
//! *not* a false positive), and a Kahn pass proves every group
//! completes. Injected cross-step skew (both peers sending first,
//! receiving later) is reported as [`CommViolation::WaitForCycle`].
//!
//! The hazard-injection tests in `tests/comm_hazards.rs` mutate
//! materialized schedules to prove each class of violation actually
//! fires.

use swnet::{
    Algorithm, ChunkSpan, CommPhase, CommSchedule, CommSpec, RankOp, StepOps, UniformStep,
};

/// Largest rank count verified by full exact-mode dataflow. Above this,
/// [`check_spec`] switches to the algebraic scale mode.
pub(crate) const EXACT_MAX_RANKS: usize = 128;

/// Cap on collected violations: a badly mutated schedule should produce
/// a readable report, not millions of lines.
const MAX_VIOLATIONS: usize = 64;

/// One property violation found in a collective schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommViolation {
    /// The topology or rank map is itself invalid (non-bijective
    /// physical mapping, phantom node, ...).
    BadTopology { detail: String },
    /// The chunk table does not tile the reduced segment exactly.
    BrokenChunkTable { detail: String },
    /// The post-reduce ownership spans do not partition chunk space.
    OwnershipNotPartition { chunk: usize, owners: usize },
    /// Step ops are not in the canonical deterministic emission order
    /// (ascending rank, send before recv, at most one of each per rank).
    NonCanonicalOrder { step: usize, index: usize },
    /// A send with no matching receive on the peer.
    UnmatchedSend {
        step: usize,
        rank: usize,
        peer: usize,
    },
    /// A receive with no matching send from the peer.
    UnmatchedRecv {
        step: usize,
        rank: usize,
        peer: usize,
    },
    /// Send and matched receive disagree on payload (chunk span or
    /// fold/copy flag).
    PayloadMismatch {
        step: usize,
        rank: usize,
        peer: usize,
        detail: String,
    },
    /// Rendezvous wait-for graph has a cycle: the listed (rank, step)
    /// groups can never complete.
    WaitForCycle { stuck: Vec<(usize, usize)> },
    /// Two payloads land on the same (rank, chunk) within one step, so
    /// the fold order — and the floating-point sum — is unspecified.
    NondeterministicFold {
        step: usize,
        rank: usize,
        chunk: usize,
    },
    /// A rank sends a chunk it also receives within the same step. The
    /// runtime delivers messages in place, which equals the snapshot-at-
    /// send semantics only when every rank's send and receive spans of a
    /// step are disjoint.
    SendRecvOverlap {
        step: usize,
        rank: usize,
        chunk: usize,
    },
    /// After the reduce phase the chunk's owner holds a contribution a
    /// wrong number of times (0 = dropped, 2+ = double-reduced).
    ReduceCountMismatch {
        chunk: usize,
        contributor: usize,
        count: u32,
    },
    /// At the end of the schedule a rank does not hold the fully
    /// reduced value of a chunk exactly once.
    IncompleteGather {
        rank: usize,
        chunk: usize,
        contributor: usize,
        count: u32,
    },
    /// A scale-mode structural invariant broke (interval telescoping,
    /// ring pipeline hand-off, tree exactly-once, phase ordering).
    PhaseViolation { step: usize, detail: String },
}

impl CommViolation {
    /// Machine-readable snake_case tag, mirroring the kernel
    /// sanitizer's report conventions.
    pub fn kind(&self) -> &'static str {
        match self {
            CommViolation::BadTopology { .. } => "bad_topology",
            CommViolation::BrokenChunkTable { .. } => "broken_chunk_table",
            CommViolation::OwnershipNotPartition { .. } => "ownership_not_partition",
            CommViolation::NonCanonicalOrder { .. } => "non_canonical_order",
            CommViolation::UnmatchedSend { .. } => "unmatched_send",
            CommViolation::UnmatchedRecv { .. } => "unmatched_recv",
            CommViolation::PayloadMismatch { .. } => "payload_mismatch",
            CommViolation::WaitForCycle { .. } => "wait_for_cycle",
            CommViolation::NondeterministicFold { .. } => "nondeterministic_fold",
            CommViolation::SendRecvOverlap { .. } => "send_recv_overlap",
            CommViolation::ReduceCountMismatch { .. } => "reduce_count_mismatch",
            CommViolation::IncompleteGather { .. } => "incomplete_gather",
            CommViolation::PhaseViolation { .. } => "phase_violation",
        }
    }
}

impl std::fmt::Display for CommViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommViolation::BadTopology { detail } => write!(f, "invalid topology: {detail}"),
            CommViolation::BrokenChunkTable { detail } => {
                write!(f, "chunk table does not tile the segment: {detail}")
            }
            CommViolation::OwnershipNotPartition { chunk, owners } => write!(
                f,
                "chunk {chunk} has {owners} post-reduce owners (expected exactly 1)"
            ),
            CommViolation::NonCanonicalOrder { step, index } => write!(
                f,
                "step {step} op {index} breaks canonical order (ascending rank, send before recv)"
            ),
            CommViolation::UnmatchedSend { step, rank, peer } => write!(
                f,
                "step {step}: rank {rank} sends to {peer} but no matching recv exists"
            ),
            CommViolation::UnmatchedRecv { step, rank, peer } => write!(
                f,
                "step {step}: rank {rank} expects a message from {peer} that is never sent"
            ),
            CommViolation::PayloadMismatch {
                step,
                rank,
                peer,
                detail,
            } => write!(
                f,
                "step {step}: payload mismatch on {peer}->{rank}: {detail}"
            ),
            CommViolation::WaitForCycle { stuck } => {
                write!(f, "rendezvous deadlock: wait-for cycle through")?;
                for (r, s) in stuck {
                    write!(f, " (rank {r}, step {s})")?;
                }
                Ok(())
            }
            CommViolation::NondeterministicFold { step, rank, chunk } => write!(
                f,
                "step {step}: rank {rank} receives chunk {chunk} from multiple messages; \
                 fold order is unspecified"
            ),
            CommViolation::SendRecvOverlap { step, rank, chunk } => write!(
                f,
                "step {step}: rank {rank} both sends and receives chunk {chunk}; \
                 in-place delivery would read a value the step overwrites"
            ),
            CommViolation::ReduceCountMismatch {
                chunk,
                contributor,
                count,
            } => write!(
                f,
                "chunk {chunk}: owner holds rank {contributor}'s contribution {count} times \
                 after reduce (expected exactly 1)"
            ),
            CommViolation::IncompleteGather {
                rank,
                chunk,
                contributor,
                count,
            } => write!(
                f,
                "rank {rank} ends with chunk {chunk} holding rank {contributor}'s \
                 contribution {count} times (expected exactly 1)"
            ),
            CommViolation::PhaseViolation { step, detail } => {
                write!(f, "step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for CommViolation {}

/// Which checker ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Materialized schedule + full contribution dataflow + rendezvous
    /// deadlock detection.
    Exact,
    /// Algebraic per-step invariants; deadlock freedom structural.
    Scale,
}

impl std::fmt::Display for CheckMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckMode::Exact => write!(f, "exact"),
            CheckMode::Scale => write!(f, "scale"),
        }
    }
}

/// Result of checking one collective configuration.
#[derive(Debug, Clone)]
pub struct CommOutcome {
    pub algo: Algorithm,
    pub nodes: usize,
    pub supernode_size: usize,
    pub mode: CheckMode,
    /// Bulk-synchronous steps examined.
    pub steps: usize,
    /// Endpoint operations examined (for uniform ring steps in scale
    /// mode, one descriptor stands for all `p` per-rank operations and
    /// counts as `2 p`).
    pub ops: usize,
    pub violations: Vec<CommViolation>,
}

impl CommOutcome {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Bounded violation sink.
struct Sink {
    violations: Vec<CommViolation>,
}

impl Sink {
    fn new() -> Self {
        Sink {
            violations: Vec::new(),
        }
    }

    fn push(&mut self, v: CommViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    fn full(&self) -> bool {
        self.violations.len() >= MAX_VIOLATIONS
    }
}

// ---------------------------------------------------------------------
// Spec-level geometry checks (both modes)
// ---------------------------------------------------------------------

fn check_geometry(spec: &CommSpec, sink: &mut Sink) {
    // Rank map must be a bijection onto live physical slots.
    if let Err(e) = spec.map.physical_table(&spec.topo) {
        sink.push(CommViolation::BadTopology {
            detail: e.to_string(),
        });
    }

    // Non-empty chunk spans must tile [seg_lo, seg_hi) in order.
    let table = spec.chunk_table();
    let nonempty: Vec<(usize, usize)> = table.iter().copied().filter(|(lo, hi)| hi > lo).collect();
    if spec.seg_lo == spec.seg_hi {
        if !nonempty.is_empty() {
            sink.push(CommViolation::BrokenChunkTable {
                detail: "empty segment but non-empty chunk spans".into(),
            });
        }
    } else if nonempty.is_empty() {
        sink.push(CommViolation::BrokenChunkTable {
            detail: "non-empty segment but every chunk span is empty".into(),
        });
    } else {
        if nonempty.first().unwrap().0 != spec.seg_lo || nonempty.last().unwrap().1 != spec.seg_hi {
            sink.push(CommViolation::BrokenChunkTable {
                detail: format!(
                    "spans cover {}..{} but segment is {}..{}",
                    nonempty.first().unwrap().0,
                    nonempty.last().unwrap().1,
                    spec.seg_lo,
                    spec.seg_hi
                ),
            });
        }
        for w in nonempty.windows(2) {
            if w[0].1 != w[1].0 {
                sink.push(CommViolation::BrokenChunkTable {
                    detail: format!("gap or overlap between {:?} and {:?}", w[0], w[1]),
                });
                break;
            }
        }
    }

    // Post-reduce ownership must partition chunk space. Diff array keeps
    // this O(p) even at 40k ranks.
    let chunks = spec.num_chunks();
    let mut diff = vec![0i64; chunks + 1];
    for r in 0..spec.nodes() {
        let o = spec.owned_after_reduce(r);
        if o.is_empty() {
            continue;
        }
        if o.hi > chunks {
            sink.push(CommViolation::OwnershipNotPartition {
                chunk: o.hi - 1,
                owners: 0,
            });
            continue;
        }
        diff[o.lo] += 1;
        diff[o.hi] -= 1;
    }
    let mut cover = 0i64;
    for (c, d) in diff.iter().take(chunks).enumerate() {
        cover += d;
        if cover != 1 {
            sink.push(CommViolation::OwnershipNotPartition {
                chunk: c,
                owners: cover.max(0) as usize,
            });
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Exact mode: materialized schedule
// ---------------------------------------------------------------------

/// A matched send/recv pair, by (step, op index) coordinates.
struct Pair {
    send: (usize, usize),
    recv: (usize, usize),
}

fn check_canonical_order(steps: &[(CommPhase, Vec<RankOp>)], sink: &mut Sink) {
    for (si, (_, ops)) in steps.iter().enumerate() {
        let mut last: Option<(usize, bool)> = None; // (rank, is_send)
        for (oi, op) in ops.iter().enumerate() {
            let key = (op.rank, !op.is_send); // send sorts before recv
            if let Some(prev) = last {
                if key <= prev {
                    sink.push(CommViolation::NonCanonicalOrder {
                        step: si,
                        index: oi,
                    });
                    break;
                }
            }
            last = Some(key);
        }
    }
}

/// In-place precondition: within a step no rank's send span meets one of
/// its own receive spans. The runtime asserts the same property on what
/// it delivers (`collectives::run_schedule`); reported once per step and
/// rank, at the lowest shared chunk.
fn check_send_recv_disjoint(steps: &[(CommPhase, Vec<RankOp>)], sink: &mut Sink) {
    let mut by_rank: Vec<&RankOp> = Vec::new();
    for (si, (_, ops)) in steps.iter().enumerate() {
        by_rank.clear();
        by_rank.extend(ops.iter().filter(|o| !o.chunks.is_empty()));
        by_rank.sort_by_key(|o| o.rank);
        for group in by_rank.chunk_by(|a, b| a.rank == b.rank) {
            let shared = group
                .iter()
                .filter(|s| s.is_send)
                .flat_map(|s| {
                    group
                        .iter()
                        .filter(|r| !r.is_send)
                        .map(move |r| (s.chunks.lo.max(r.chunks.lo), s.chunks.hi.min(r.chunks.hi)))
                })
                .filter(|(lo, hi)| lo < hi)
                .map(|(lo, _)| lo)
                .min();
            if let Some(chunk) = shared {
                sink.push(CommViolation::SendRecvOverlap {
                    step: si,
                    rank: group[0].rank,
                    chunk,
                });
            }
        }
    }
}

/// FIFO-match sends to recvs per directed channel across the whole
/// schedule. Reports unmatched ops and payload mismatches; returns the
/// matched pairs for deadlock analysis and dataflow.
fn match_channels(steps: &[(CommPhase, Vec<RankOp>)], sink: &mut Sink) -> (Vec<Pair>, bool) {
    use std::collections::HashMap;
    // channel (src, dst) -> queues of (step, op index)
    let mut sends: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    let mut recvs: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (si, (_, ops)) in steps.iter().enumerate() {
        for (oi, op) in ops.iter().enumerate() {
            if op.is_send {
                sends.entry((op.rank, op.peer)).or_default().push((si, oi));
            } else {
                recvs.entry((op.peer, op.rank)).or_default().push((si, oi));
            }
        }
    }
    let mut pairs = Vec::new();
    let mut complete = true;
    let mut channels: Vec<(usize, usize)> = sends.keys().chain(recvs.keys()).copied().collect();
    channels.sort_unstable();
    channels.dedup();
    for ch in channels {
        let empty = Vec::new();
        let ss = sends.get(&ch).unwrap_or(&empty);
        let rs = recvs.get(&ch).unwrap_or(&empty);
        for i in 0..ss.len().max(rs.len()) {
            match (ss.get(i), rs.get(i)) {
                (Some(&s), Some(&r)) => {
                    let sop = &steps[s.0].1[s.1];
                    let rop = &steps[r.0].1[r.1];
                    if sop.chunks != rop.chunks || sop.reduce != rop.reduce {
                        sink.push(CommViolation::PayloadMismatch {
                            step: r.0,
                            rank: rop.rank,
                            peer: rop.peer,
                            detail: format!(
                                "send carries chunks {}..{} (reduce={}), recv expects {}..{} \
                                 (reduce={})",
                                sop.chunks.lo,
                                sop.chunks.hi,
                                sop.reduce,
                                rop.chunks.lo,
                                rop.chunks.hi,
                                rop.reduce
                            ),
                        });
                        complete = false;
                    }
                    pairs.push(Pair { send: s, recv: r });
                }
                (Some(&s), None) => {
                    let sop = &steps[s.0].1[s.1];
                    sink.push(CommViolation::UnmatchedSend {
                        step: s.0,
                        rank: sop.rank,
                        peer: sop.peer,
                    });
                    complete = false;
                }
                (None, Some(&r)) => {
                    let rop = &steps[r.0].1[r.1];
                    sink.push(CommViolation::UnmatchedRecv {
                        step: r.0,
                        rank: rop.rank,
                        peer: rop.peer,
                    });
                    complete = false;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    (pairs, complete)
}

/// Rendezvous deadlock detection. Groups = (rank, step) with at least
/// one op; a group completes when the rank's previous group is done and
/// every one of its matched partners has *posted* (partner's previous
/// group done). A Kahn pass over these dependencies either completes
/// every group or exposes the ranks stuck on a wait-for cycle.
fn check_deadlock(steps: &[(CommPhase, Vec<RankOp>)], pairs: &[Pair], sink: &mut Sink) {
    use std::collections::HashMap;
    // Identify active groups and each rank's ordered step list.
    let mut group_id: HashMap<(usize, usize), usize> = HashMap::new();
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut rank_steps: HashMap<usize, Vec<usize>> = HashMap::new();
    for (si, (_, ops)) in steps.iter().enumerate() {
        for op in ops {
            if let std::collections::hash_map::Entry::Vacant(e) = group_id.entry((op.rank, si)) {
                e.insert(groups.len());
                groups.push((op.rank, si));
                rank_steps.entry(op.rank).or_default().push(si);
            }
        }
    }
    // Predecessor group of (rank, step): same rank's previous active step.
    let pred = |rank: usize, step: usize| -> Option<usize> {
        let ss = &rank_steps[&rank];
        let idx = ss.partition_point(|&s| s < step);
        if idx == 0 {
            None
        } else {
            Some(group_id[&(rank, ss[idx - 1])])
        }
    };
    // Dependency edges u -> v: u must complete before v can.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    let mut indeg: Vec<usize> = vec![0; groups.len()];
    let add_edge = |adj: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, u: usize, v: usize| {
        adj[u].push(v);
        indeg[v] += 1;
    };
    for (gid, &(rank, step)) in groups.iter().enumerate() {
        if let Some(p) = pred(rank, step) {
            add_edge(&mut adj, &mut indeg, p, gid);
        }
    }
    for pair in pairs {
        let (ss, so) = pair.send;
        let (rs, ro) = pair.recv;
        let sg = group_id[&(steps[ss].1[so].rank, ss)];
        let rg = group_id[&(steps[rs].1[ro].rank, rs)];
        // The send completes once the recv is posted, and vice versa.
        let (s_rank, s_step) = groups[sg];
        let (r_rank, r_step) = groups[rg];
        if let Some(p) = pred(r_rank, r_step) {
            if p != sg {
                add_edge(&mut adj, &mut indeg, p, sg);
            }
        }
        if let Some(p) = pred(s_rank, s_step) {
            if p != rg {
                add_edge(&mut adj, &mut indeg, p, rg);
            }
        }
    }
    // Kahn.
    let mut queue: Vec<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut done = 0usize;
    while let Some(u) = queue.pop() {
        done += 1;
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if done < groups.len() {
        let stuck: Vec<(usize, usize)> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .take(8)
            .map(|(i, _)| groups[i])
            .collect();
        sink.push(CommViolation::WaitForCycle { stuck });
    }
}

/// Contribution-count dataflow: `cnt[rank][chunk][contributor]` counts
/// how many times `contributor`'s gradient for `chunk` has been folded
/// into `rank`'s accumulator. Payloads snapshot the sender's state at
/// the *send* step (concurrent sendrecv), folds add, gather copies
/// replace.
fn check_dataflow(
    spec: &CommSpec,
    steps: &[(CommPhase, Vec<RankOp>)],
    pairs: &[Pair],
    sink: &mut Sink,
) {
    let p = spec.nodes();
    let chunks = spec.num_chunks();
    let idx = |rank: usize, chunk: usize| (rank * chunks + chunk) * p;
    let mut cnt = vec![0u32; p * chunks * p];
    for r in 0..p {
        for c in 0..chunks {
            cnt[idx(r, c) + r] = 1;
        }
    }

    // Index pairs by send step and recv step.
    let mut sends_at: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
    let mut recvs_at: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
    for (pi, pair) in pairs.iter().enumerate() {
        sends_at[pair.send.0].push(pi);
        recvs_at[pair.recv.0].push(pi);
    }
    let mut payloads: Vec<Option<Vec<u32>>> = (0..pairs.len()).map(|_| None).collect();

    let last_reduce = steps
        .iter()
        .rposition(|(phase, _)| *phase == CommPhase::Reduce);

    let mut landed: Vec<u32> = vec![0; p * chunks];
    for (si, _) in steps.iter().enumerate() {
        // Snapshot payloads leaving this step before any delivery.
        for &pi in &sends_at[si] {
            let pair = &pairs[pi];
            let op = &steps[pair.send.0].1[pair.send.1];
            let span = op.chunks;
            let mut buf = Vec::with_capacity(span.len() * p);
            for c in span.lo..span.hi.min(chunks) {
                buf.extend_from_slice(&cnt[idx(op.rank, c)..idx(op.rank, c) + p]);
            }
            payloads[pi] = Some(buf);
        }
        // Deliver everything received this step.
        for slot in landed.iter_mut() {
            *slot = 0;
        }
        for &pi in &recvs_at[si] {
            let pair = &pairs[pi];
            let rop = &steps[pair.recv.0].1[pair.recv.1];
            let Some(buf) = payloads[pi].take() else {
                continue; // payload never snapshot (send after recv step)
            };
            let span = steps[pair.send.0].1[pair.send.1].chunks;
            for (ci, c) in (span.lo..span.hi.min(chunks)).enumerate() {
                landed[rop.rank * chunks + c] += 1;
                if landed[rop.rank * chunks + c] == 2 {
                    sink.push(CommViolation::NondeterministicFold {
                        step: si,
                        rank: rop.rank,
                        chunk: c,
                    });
                }
                let base = idx(rop.rank, c);
                if rop.reduce {
                    for q in 0..p {
                        cnt[base + q] += buf[ci * p + q];
                    }
                } else {
                    cnt[base..base + p].copy_from_slice(&buf[ci * p..(ci + 1) * p]);
                }
            }
            if sink.full() {
                return;
            }
        }
        // At the reduce/gather boundary, owners must hold every
        // contribution exactly once.
        if Some(si) == last_reduce {
            for c in 0..chunks {
                let owner = (0..p).find(|&r| spec.owned_after_reduce(r).contains(c));
                let Some(owner) = owner else { continue };
                let base = idx(owner, c);
                for q in 0..p {
                    if cnt[base + q] != 1 {
                        sink.push(CommViolation::ReduceCountMismatch {
                            chunk: c,
                            contributor: q,
                            count: cnt[base + q],
                        });
                        if sink.full() {
                            return;
                        }
                    }
                }
            }
        }
    }

    // Final: every rank holds every chunk fully reduced, exactly once.
    for r in 0..p {
        for c in 0..chunks {
            let base = idx(r, c);
            for q in 0..p {
                if cnt[base + q] != 1 {
                    sink.push(CommViolation::IncompleteGather {
                        rank: r,
                        chunk: c,
                        contributor: q,
                        count: cnt[base + q],
                    });
                    if sink.full() {
                        return;
                    }
                }
            }
        }
    }
}

/// Check a materialized schedule (exact mode). This is the entry point
/// the hazard-injection tests use after mutating `sched.steps`;
/// [`check_spec`] routes small configurations here automatically.
pub fn check_schedule(sched: &CommSchedule) -> CommOutcome {
    let spec = &sched.spec;
    let mut sink = Sink::new();
    check_geometry(spec, &mut sink);
    check_canonical_order(&sched.steps, &mut sink);
    check_send_recv_disjoint(&sched.steps, &mut sink);
    let (pairs, complete) = match_channels(&sched.steps, &mut sink);
    check_deadlock(&sched.steps, &pairs, &mut sink);
    // Dataflow semantics are only meaningful when every op matched and
    // nothing deadlocks; structural violations are already reported.
    let deadlocked = sink
        .violations
        .iter()
        .any(|v| matches!(v, CommViolation::WaitForCycle { .. }));
    if complete && !deadlocked {
        check_dataflow(spec, &sched.steps, &pairs, &mut sink);
    }
    CommOutcome {
        algo: spec.algo,
        nodes: spec.nodes(),
        supernode_size: spec.topo.supernode_size,
        mode: CheckMode::Exact,
        steps: sched.steps.len(),
        ops: sched.steps.iter().map(|(_, ops)| ops.len()).sum(),
        violations: sink.violations,
    }
}

// ---------------------------------------------------------------------
// Scale mode
// ---------------------------------------------------------------------

fn expect_uniform(spec: &CommSpec, step: usize) -> Option<UniformStep> {
    match spec.step_descriptor(step) {
        StepOps::Uniform(u) => Some(u),
        StepOps::Explicit { .. } => None,
    }
}

/// Ring at scale: O(1) per step over the uniform descriptors.
///
/// With `peer_delta == 1` each rank sends exactly one chunk and receives
/// exactly one per step, and the map chunk -> receiver is a bijection —
/// matching is perfect by construction, so the checker's work is the
/// *semantic* layer: the reduce shifts must decrement by exactly 1 each
/// step (the pipeline hand-off `receiver(c, k) == sender(c, k+1)`), the
/// final fold must land on the declared owner, and the gather must walk
/// every chunk through the remaining `p - 1` ranks exactly once.
///
/// The same pass reads the transfer classes the cost model prices every
/// step from ([`CommSpec::transfer_classes`]), so the pricer and the
/// checker share one description: each step's classes must count `p`
/// sends, move every block of the segment exactly once, and keep the
/// number of switch-crossing sends of the first step.
fn check_ring_scale(spec: &CommSpec, sink: &mut Sink) -> usize {
    let p = spec.nodes();
    let steps = spec.num_steps();
    let half = p - 1;
    let segment_bytes = 4 * (spec.seg_hi - spec.seg_lo);
    let mut table = spec.transfer_classes();
    let mut classes = Vec::new();
    let mut first_crossing: Option<usize> = None;
    let mut prev_shift: Option<usize> = None;
    for k in 0..steps {
        table.step_into(k, &mut classes);
        let sends: usize = classes.iter().map(|c| c.count).sum();
        let bytes: usize = classes.iter().map(|c| c.count * c.bytes).sum();
        let crossing: usize = classes
            .iter()
            .filter(|c| c.route.crosses)
            .map(|c| c.count)
            .sum();
        if sends != p || bytes != segment_bytes {
            sink.push(CommViolation::PhaseViolation {
                step: k,
                detail: format!(
                    "transfer classes count {sends} sends of {bytes} B \
                     (expected {p} sends of {segment_bytes} B)"
                ),
            });
        }
        let crossing0 = *first_crossing.get_or_insert(crossing);
        if crossing != crossing0 {
            sink.push(CommViolation::PhaseViolation {
                step: k,
                detail: format!("{crossing} sends cross the switch (step 0: {crossing0})"),
            });
        }
        let Some(u) = expect_uniform(spec, k) else {
            sink.push(CommViolation::PhaseViolation {
                step: k,
                detail: "ring step is not uniform".into(),
            });
            return 0;
        };
        let reduce_phase = k < half;
        if u.reduce != reduce_phase
            || (u.phase == CommPhase::Reduce) != reduce_phase
            || u.peer_delta != 1
        {
            sink.push(CommViolation::PhaseViolation {
                step: k,
                detail: format!(
                    "descriptor out of phase: peer_delta={} reduce={} in {} half",
                    u.peer_delta,
                    u.reduce,
                    if reduce_phase { "reduce" } else { "gather" }
                ),
            });
        }
        match (k, prev_shift) {
            // Reduce starts with every rank sending its own chunk.
            (0, _) => {
                if u.chunk_shift != 0 {
                    sink.push(CommViolation::PhaseViolation {
                        step: 0,
                        detail: format!("first reduce shift is {} (expected 0)", u.chunk_shift),
                    });
                }
            }
            (_, Some(prev)) if k != half => {
                // Pipeline hand-off: this step's sender of chunk c must
                // be the rank that folded (or copied) c last step, i.e.
                // shift decrements by 1 mod p.
                if (prev + p - 1) % p != u.chunk_shift {
                    sink.push(CommViolation::PhaseViolation {
                        step: k,
                        detail: format!(
                            "pipeline hand-off broken: shift {} after {} (expected {})",
                            u.chunk_shift,
                            prev,
                            (prev + p - 1) % p
                        ),
                    });
                }
            }
            (_, Some(prev)) => {
                // First gather step: sender of chunk c must be its
                // post-reduce owner (c - 1) mod p, i.e. shift 1; and the
                // last reduce fold must have landed on that owner, i.e.
                // the last reduce shift was 2.
                if prev != 2 % p || u.chunk_shift != 1 % p {
                    sink.push(CommViolation::PhaseViolation {
                        step: k,
                        detail: format!(
                            "gather does not start at the reduce owner \
                             (last reduce shift {prev}, first gather shift {})",
                            u.chunk_shift
                        ),
                    });
                }
            }
            (_, None) => unreachable!("prev_shift set from step 0"),
        }
        prev_shift = Some(u.chunk_shift);
    }
    // p - 1 reduce steps, each folding every chunk exactly once =>
    // exactly p - 1 folds per chunk; p - 1 gather steps walking each
    // chunk one rank forward per step => every non-owner receives the
    // final value exactly once. Both facts follow from the per-step
    // checks above; record the counts as a final sanity gate.
    if steps != 2 * (p - 1) {
        sink.push(CommViolation::PhaseViolation {
            step: steps,
            detail: format!("ring has {steps} steps (expected {})", 2 * (p - 1)),
        });
    }

    // Cross-validate the uniform descriptors against full expansion on a
    // few sample steps (first, last reduce, first gather, last).
    let mut ops = Vec::new();
    let mut examined = 3 * steps; // descriptor and class reads
    for &k in &[0, half - 1, half, steps - 1] {
        ops.clear();
        spec.expand_step_into(k, &mut ops);
        examined += ops.len();
        let u = expect_uniform(spec, k).expect("checked uniform above");
        let mut bad = false;
        for (i, op) in ops.iter().enumerate() {
            let r = i / 2;
            let ok = if op.is_send {
                op.rank == r
                    && op.peer == (r + 1) % p
                    && op.chunks
                        == ChunkSpan::new((r + u.chunk_shift) % p, (r + u.chunk_shift) % p + 1)
                    && op.reduce == u.reduce
            } else {
                op.rank == r && op.peer == (r + p - 1) % p && op.reduce == u.reduce
            };
            if !ok {
                bad = true;
                break;
            }
        }
        if bad || ops.len() != 2 * p {
            sink.push(CommViolation::PhaseViolation {
                step: k,
                detail: "uniform descriptor disagrees with expanded ops".into(),
            });
        }
    }
    examined
}

/// RHD at scale: O(p) per step via interval telescoping. Each rank's
/// working interval starts at the whole chunk space; every reduce step
/// must split it exactly into the sent half and the kept (received)
/// half, with the partner working the same block from the other side;
/// the gather runs the merge in reverse with disjoint adjacent halves.
/// Telescoping + perfect pairing is the inductive proof that every
/// contribution is folded exactly once and gathered exactly once.
fn check_rhd_scale(spec: &CommSpec, sink: &mut Sink) -> usize {
    let p = spec.nodes();
    let steps = spec.num_steps();
    let levels = steps / 2;
    let mut work: Vec<ChunkSpan> = (0..p).map(|_| ChunkSpan::new(0, p)).collect();
    let mut ops: Vec<RankOp> = Vec::with_capacity(2 * p);
    let mut examined = 0usize;
    for step in 0..steps {
        ops.clear();
        let phase = spec.expand_step_into(step, &mut ops);
        examined += ops.len();
        let reduce_phase = step < levels;
        if (phase == CommPhase::Reduce) != reduce_phase {
            sink.push(CommViolation::PhaseViolation {
                step,
                detail: "phase tag out of order".into(),
            });
        }
        if ops.len() != 2 * p {
            sink.push(CommViolation::PhaseViolation {
                step,
                detail: format!(
                    "{} ops (expected {} — one sendrecv per rank)",
                    ops.len(),
                    2 * p
                ),
            });
            return examined;
        }
        for r in 0..p {
            let send = &ops[2 * r];
            let recv = &ops[2 * r + 1];
            if !(send.is_send && !recv.is_send && send.rank == r && recv.rank == r) {
                sink.push(CommViolation::NonCanonicalOrder { step, index: 2 * r });
                return examined;
            }
            let q = send.peer;
            if q >= p || recv.peer != q || q == r {
                sink.push(CommViolation::UnmatchedSend {
                    step,
                    rank: r,
                    peer: q,
                });
                continue;
            }
            // Pairing: my send must be my partner's recv, symmetric.
            let partner_recv = &ops[2 * q + 1];
            let partner_send = &ops[2 * q];
            if partner_send.peer != r
                || partner_recv.chunks != send.chunks
                || partner_recv.reduce != send.reduce
            {
                sink.push(CommViolation::PayloadMismatch {
                    step,
                    rank: q,
                    peer: r,
                    detail: format!(
                        "send {}..{} does not mirror partner recv {}..{}",
                        send.chunks.lo,
                        send.chunks.hi,
                        partner_recv.chunks.lo,
                        partner_recv.chunks.hi
                    ),
                });
                continue;
            }
            if reduce_phase {
                // send ∪ recv must partition the working interval, and
                // the partner must be working the same block.
                let w = work[r];
                let split_ok = (send.chunks.hi == recv.chunks.lo
                    && send.chunks.lo == w.lo
                    && recv.chunks.hi == w.hi)
                    || (recv.chunks.hi == send.chunks.lo
                        && recv.chunks.lo == w.lo
                        && send.chunks.hi == w.hi);
                if !split_ok || work[q] != w || !send.reduce {
                    sink.push(CommViolation::PhaseViolation {
                        step,
                        detail: format!(
                            "rank {r}: send {}..{} / keep {}..{} do not split working \
                             interval {}..{} against partner {q}",
                            send.chunks.lo,
                            send.chunks.hi,
                            recv.chunks.lo,
                            recv.chunks.hi,
                            w.lo,
                            w.hi
                        ),
                    });
                }
            } else {
                // Gather: send what you hold, receive the adjacent
                // disjoint block; union is contiguous.
                let h = work[r];
                let merge_ok = send.chunks == h
                    && !send.reduce
                    && (recv.chunks.lo == h.hi || recv.chunks.hi == h.lo)
                    && !recv.chunks.is_empty();
                if !merge_ok {
                    sink.push(CommViolation::PhaseViolation {
                        step,
                        detail: format!(
                            "rank {r}: gather send {}..{} / recv {}..{} do not extend held \
                             interval {}..{}",
                            send.chunks.lo,
                            send.chunks.hi,
                            recv.chunks.lo,
                            recv.chunks.hi,
                            h.lo,
                            h.hi
                        ),
                    });
                }
            }
            if sink.full() {
                return examined;
            }
        }
        // Commit interval updates after the whole step is validated.
        for r in 0..p {
            let recv = &ops[2 * r + 1];
            work[r] = if reduce_phase {
                recv.chunks
            } else {
                ChunkSpan::new(
                    recv.chunks.lo.min(work[r].lo),
                    recv.chunks.hi.max(work[r].hi),
                )
            };
        }
        if step + 1 == levels {
            for (r, w) in work.iter().enumerate() {
                if *w != spec.owned_after_reduce(r) {
                    sink.push(CommViolation::OwnershipNotPartition {
                        chunk: w.lo,
                        owners: 0,
                    });
                    break;
                }
            }
        }
    }
    for (r, w) in work.iter().enumerate() {
        if *w != ChunkSpan::new(0, p) {
            sink.push(CommViolation::IncompleteGather {
                rank: r,
                chunk: if w.lo > 0 { 0 } else { w.hi },
                contributor: r,
                count: 0,
            });
            break;
        }
    }
    examined
}

/// Binomial tree at scale: exactly-once counting over the sparse op
/// lists. Every non-root rank must forward its accumulator exactly once
/// during the reduce, strictly toward rank 0, and never fold after
/// forwarding; the broadcast mirrors it (receive exactly once, from a
/// rank that already holds the result).
fn check_binomial_scale(spec: &CommSpec, sink: &mut Sink) -> usize {
    let p = spec.nodes();
    let steps = spec.num_steps();
    let levels = steps / 2;
    let mut tables = BinomialTables::new(p);
    let mut ops: Vec<RankOp> = Vec::new();
    let mut examined = 0usize;
    for step in 0..steps {
        ops.clear();
        let phase = spec.expand_step_into(step, &mut ops);
        examined += ops.len();
        let reduce_phase = step < levels;
        if (phase == CommPhase::Reduce) != reduce_phase {
            sink.push(CommViolation::PhaseViolation {
                step,
                detail: "phase tag out of order".into(),
            });
        }
        tables.step(step, reduce_phase, &ops, sink);
        if sink.full() {
            return examined;
        }
    }
    // Every non-root forwarded exactly once => the parent edges form an
    // in-tree on p nodes rooted at 0 (parents are strictly smaller, so
    // no cycles) and every contribution reaches the root exactly once.
    for (r, f) in tables.forwarded.iter().enumerate().skip(1) {
        if !f {
            sink.push(CommViolation::ReduceCountMismatch {
                chunk: 0,
                contributor: r,
                count: 0,
            });
        }
    }
    for (r, h) in tables.has_result.iter().enumerate() {
        if !h {
            sink.push(CommViolation::IncompleteGather {
                rank: r,
                chunk: 0,
                contributor: r,
                count: 0,
            });
        }
    }
    examined
}

/// The binomial scale check's per-rank state: what it carries across
/// steps (who has forwarded its accumulator, who holds the result) and
/// the dense per-step tables of each rank's send and receive, which
/// `touched` resets after every step.
struct BinomialTables {
    forwarded: Vec<bool>,
    has_result: Vec<bool>,
    send_of: Vec<Option<RankOp>>,
    recv_of: Vec<Option<RankOp>>,
    /// Ranks with an op in the current step, in op order.
    touched: Vec<usize>,
}

impl BinomialTables {
    fn new(p: usize) -> Self {
        let mut has_result = vec![false; p];
        has_result[0] = true;
        BinomialTables {
            forwarded: vec![false; p],
            has_result,
            send_of: vec![None; p],
            recv_of: vec![None; p],
            touched: Vec::new(),
        }
    }

    /// Check one step's ops. Violations come in op order, which is
    /// ascending rank for a canonical step, so the report and which of
    /// its entries survive the cap are the same on every run.
    fn step(&mut self, step: usize, reduce_phase: bool, ops: &[RankOp], sink: &mut Sink) {
        let whole = ChunkSpan::new(0, 1);
        for op in ops {
            if self.send_of[op.rank].is_none() && self.recv_of[op.rank].is_none() {
                self.touched.push(op.rank);
            }
            let table = if op.is_send {
                &mut self.send_of
            } else {
                &mut self.recv_of
            };
            if table[op.rank].replace(*op).is_some() {
                sink.push(CommViolation::NonCanonicalOrder { step, index: 0 });
            }
            if op.chunks != whole || op.reduce != reduce_phase {
                sink.push(CommViolation::PayloadMismatch {
                    step,
                    rank: op.rank,
                    peer: op.peer,
                    detail: "binomial op must carry the whole segment".into(),
                });
            }
        }
        let (send_of, recv_of) = (&self.send_of, &self.recv_of);
        let at = |table: &[Option<RankOp>], r: usize| table.get(r).copied().flatten();
        let sends = || self.touched.iter().filter_map(|&r| Some((r, send_of[r]?)));
        let recvs = || self.touched.iter().filter_map(|&r| Some((r, recv_of[r]?)));
        for (r, send) in sends() {
            if at(recv_of, send.peer).map(|recv| recv.peer) != Some(r) {
                sink.push(CommViolation::UnmatchedSend {
                    step,
                    rank: r,
                    peer: send.peer,
                });
            }
        }
        for (r, recv) in recvs() {
            if at(send_of, recv.peer).map(|send| send.peer) != Some(r) {
                sink.push(CommViolation::UnmatchedRecv {
                    step,
                    rank: r,
                    peer: recv.peer,
                });
            }
        }
        if reduce_phase {
            for (r, send) in sends() {
                if r == 0 || send.peer >= r {
                    sink.push(CommViolation::PhaseViolation {
                        step,
                        detail: format!(
                            "reduce send {r} -> {} moves away from the root",
                            send.peer
                        ),
                    });
                }
                if self.forwarded[r] {
                    sink.push(CommViolation::ReduceCountMismatch {
                        chunk: 0,
                        contributor: r,
                        count: 2,
                    });
                }
                self.forwarded[r] = true;
            }
            for (r, _) in recvs() {
                if self.forwarded[r] {
                    // Folding into an accumulator that was already
                    // forwarded: those contributions are lost upstream.
                    sink.push(CommViolation::PhaseViolation {
                        step,
                        detail: format!("rank {r} folds after forwarding its accumulator"),
                    });
                }
            }
        } else {
            for (r, _) in sends() {
                if !self.has_result[r] {
                    sink.push(CommViolation::PhaseViolation {
                        step,
                        detail: format!("rank {r} broadcasts a result it does not hold"),
                    });
                }
            }
            for (r, _) in recvs() {
                if self.has_result[r] {
                    sink.push(CommViolation::IncompleteGather {
                        rank: r,
                        chunk: 0,
                        contributor: r,
                        count: 2,
                    });
                }
                self.has_result[r] = true;
            }
        }
        for r in self.touched.drain(..) {
            self.send_of[r] = None;
            self.recv_of[r] = None;
        }
    }
}

/// Verify a collective configuration. Small configurations are
/// materialized and checked exactly; large ones are checked with the
/// algebraic scale-mode invariants (O(steps) for the ring, O(p log p)
/// for the trees), keeping 40,960-rank verification well under the CI
/// wall-clock budget.
pub fn check_spec(spec: &CommSpec) -> CommOutcome {
    if spec.nodes() <= EXACT_MAX_RANKS {
        return check_schedule(&spec.extract());
    }
    let mut sink = Sink::new();
    check_geometry(spec, &mut sink);
    let ops = match spec.algo {
        Algorithm::Ring => check_ring_scale(spec, &mut sink),
        Algorithm::RecursiveHalvingDoubling => check_rhd_scale(spec, &mut sink),
        Algorithm::Binomial => check_binomial_scale(spec, &mut sink),
    };
    CommOutcome {
        algo: spec.algo,
        nodes: spec.nodes(),
        supernode_size: spec.topo.supernode_size,
        mode: CheckMode::Scale,
        steps: spec.num_steps(),
        ops,
        violations: sink.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swnet::{RankMap, Topology};

    fn spec(algo: Algorithm, p: usize, ss: usize) -> CommSpec {
        CommSpec::monolithic(
            Topology::with_supernode(p, ss),
            RankMap::RoundRobin,
            algo,
            4096,
        )
        .unwrap()
    }

    #[test]
    fn small_configurations_verify_clean_in_exact_mode() {
        for (algo, ps) in [
            (Algorithm::RecursiveHalvingDoubling, vec![1usize, 2, 8, 32]),
            (Algorithm::Ring, vec![1, 2, 3, 5, 12, 33]),
            (Algorithm::Binomial, vec![2, 4, 16, 64]),
        ] {
            for p in ps {
                let s = spec(algo, p, (p / 2).max(1));
                let out = check_spec(&s);
                assert_eq!(out.mode, CheckMode::Exact);
                assert!(out.is_clean(), "{algo:?} p={p}: {:?}", out.violations);
            }
        }
    }

    #[test]
    fn segmented_schedules_verify_clean() {
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            let s = CommSpec::new(
                Topology::with_supernode(8, 3),
                RankMap::RoundRobin,
                algo,
                1013,
                37..402,
            )
            .unwrap();
            let out = check_spec(&s);
            assert!(out.is_clean(), "{algo:?}: {:?}", out.violations);
        }
    }

    #[test]
    fn scale_mode_agrees_with_exact_mode_on_overlap_sizes() {
        // Sizes small enough to materialize but large enough to run the
        // scale checks meaningfully: both verdicts must be clean.
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            let p = if algo == Algorithm::Ring { 96 } else { 64 };
            let s = spec(algo, p, 48);
            let exact = check_schedule(&s.extract());
            assert!(exact.is_clean(), "{algo:?} exact: {:?}", exact.violations);
            let mut sink = Sink::new();
            check_geometry(&s, &mut sink);
            match algo {
                Algorithm::Ring => check_ring_scale(&s, &mut sink),
                Algorithm::RecursiveHalvingDoubling => check_rhd_scale(&s, &mut sink),
                Algorithm::Binomial => check_binomial_scale(&s, &mut sink),
            };
            assert!(
                sink.violations.is_empty(),
                "{algo:?} scale: {:?}",
                sink.violations
            );
        }
    }

    #[test]
    fn binomial_step_reports_the_same_capped_violations_in_rank_order() {
        // 100 reduce sends toward the root that nobody receives: more
        // violations than the cap, so the report keeps a subset.
        let senders: Vec<usize> = (1..=100).map(|i| 2 * i + 1).collect();
        let ops: Vec<RankOp> = senders
            .iter()
            .map(|&rank| RankOp {
                rank,
                peer: rank - 1,
                is_send: true,
                chunks: ChunkSpan::new(0, 1),
                reduce: true,
            })
            .collect();
        let report = || {
            let mut sink = Sink::new();
            BinomialTables::new(256).step(0, true, &ops, &mut sink);
            sink.violations
        };
        let first = report();
        assert_eq!(first, report());
        let ranks: Vec<usize> = first
            .iter()
            .map(|v| match v {
                CommViolation::UnmatchedSend { rank, .. } => *rank,
                other => panic!("unexpected violation {other:?}"),
            })
            .collect();
        assert_eq!(ranks, senders[..MAX_VIOLATIONS]);
    }

    #[test]
    fn ring_verifies_at_full_machine_scale() {
        // The headline configuration: 40,960 ranks (the TaihuLight
        // full-machine scale) with a partial trailing supernode.
        let s = spec(Algorithm::Ring, 40_960, 384);
        let out = check_spec(&s);
        assert_eq!(out.mode, CheckMode::Scale);
        assert!(out.is_clean(), "{:?}", out.violations);
        assert_eq!(out.steps, 2 * (40_960 - 1));
    }

    #[test]
    fn trees_verify_beyond_full_machine_scale() {
        for algo in [Algorithm::RecursiveHalvingDoubling, Algorithm::Binomial] {
            let s = spec(algo, 65_536, 256);
            let out = check_spec(&s);
            assert_eq!(out.mode, CheckMode::Scale);
            assert!(out.is_clean(), "{algo:?}: {:?}", out.violations);
        }
    }

    #[test]
    fn phantom_topology_is_reported() {
        // A round-robin map over a topology whose supernode arithmetic
        // is valid but whose spec was built for a different node count
        // cannot happen through the typed constructors; instead check
        // the checker surfaces segment-level geometry breaks.
        let s = CommSpec::new(
            Topology::with_supernode(4, 2),
            RankMap::RoundRobin,
            Algorithm::Ring,
            100,
            0..0,
        )
        .unwrap();
        // Degenerate empty segment is *valid*: all chunks empty.
        let out = check_spec(&s);
        assert!(out.is_clean(), "{:?}", out.violations);
    }
}

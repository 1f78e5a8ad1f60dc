//! Symbolic per-rank communication schedules for the all-reduce
//! algorithms in `collectives`.
//!
//! A [`CommSpec`] names a collective configuration (topology, rank map,
//! algorithm, buffer geometry); this module derives, in closed form, the
//! exact sequence of bulk-synchronous steps the runtime executes — which
//! rank sends which gradient chunks to which peer, and whether the
//! receiver folds or copies. The collectives themselves consume the same
//! step generator (see `collectives::run_schedule`), so the symbolic
//! schedule is the *single source of truth*, not a parallel
//! re-implementation that could drift: whatever `swcheck::comm` proves
//! about the schedule holds for the simulation by construction. The cost
//! model reads it as [`StepClasses`]: each step's sends grouped into the
//! few classes the model cannot tell apart.
//!
//! Two representations keep 40k-rank verification cheap:
//!
//! * [`StepOps::Uniform`] — the ring's steps are identical for every rank
//!   up to rotation (`rank r` sends chunk `(r + shift) mod p` to
//!   `r + 1`). One descriptor stands for `p` operations, so checkers can
//!   reason algebraically in O(1) per step instead of materializing the
//!   Θ(p²) operation list.
//! * [`StepOps::Explicit`] — recursive halving/doubling and the binomial
//!   tree have rank-dependent spans; their per-rank operations are
//!   generated from closed forms over the rank's bits (dyadic intervals),
//!   with no mutable per-rank state, so any single step can be produced
//!   in O(p) without replaying the steps before it.
//!
//! Chunk indices, not element offsets, address payloads: each algorithm
//! fixes a chunk table (`chunk_table`) mapping chunk index → element
//! span, mirroring the block geometry of the runtime exactly (including
//! the ring's empty clamped blocks under segmented reduction).

use crate::collectives::Algorithm;
use crate::cost::{fold_transfers, route, uplink_flows, Route, Transfer, TransferClass};
use crate::topology::{RankMap, Topology, TopologyError};

/// Half-open span of chunk indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    pub lo: usize,
    pub hi: usize,
}

impl ChunkSpan {
    pub fn new(lo: usize, hi: usize) -> Self {
        ChunkSpan { lo, hi }
    }

    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    pub fn contains(&self, chunk: usize) -> bool {
        self.lo <= chunk && chunk < self.hi
    }
}

/// Which half of the collective a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPhase {
    /// Partial sums are being combined (reduce-scatter / reduce-to-root):
    /// receivers fold payloads into their accumulators.
    Reduce,
    /// Fully reduced chunks are being distributed (allgather /
    /// broadcast): receivers copy payloads.
    Gather,
}

/// One endpoint operation in a rank's per-step schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankOp {
    /// Logical rank executing the operation.
    pub rank: usize,
    /// Logical peer (destination of a send, source of a recv).
    pub peer: usize,
    /// Send (`true`) or receive (`false`).
    pub is_send: bool,
    /// Chunks carried by the message.
    pub chunks: ChunkSpan,
    /// Whether the receiver folds (`+=`) rather than copies.
    pub reduce: bool,
}

/// A step whose operations are identical for every rank up to rotation:
/// rank `r` sends chunk `(r + chunk_shift) mod p` to `(r + peer_delta)
/// mod p` (and symmetrically receives chunk `(r - peer_delta +
/// chunk_shift) mod p` from `(r - peer_delta) mod p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformStep {
    pub phase: CommPhase,
    pub peer_delta: usize,
    pub chunk_shift: usize,
    pub reduce: bool,
}

/// Symbolic form of one bulk-synchronous step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOps {
    Uniform(UniformStep),
    Explicit { phase: CommPhase, ops: Vec<RankOp> },
}

/// Rejection of an unschedulable configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// RHD and the binomial tree require a power-of-two rank count.
    NonPowerOfTwo { algo: Algorithm, nodes: usize },
    /// The reduced segment exceeds the packed buffer.
    SegmentOutOfBounds { lo: usize, hi: usize, total: usize },
    /// The topology or rank map itself is invalid.
    Topology(TopologyError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NonPowerOfTwo { algo, nodes } => {
                write!(
                    f,
                    "{algo:?} requires a power-of-two rank count, got {nodes}"
                )
            }
            ScheduleError::SegmentOutOfBounds { lo, hi, total } => {
                write!(f, "segment {lo}..{hi} exceeds buffer of {total} elements")
            }
            ScheduleError::Topology(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<TopologyError> for ScheduleError {
    fn from(e: TopologyError) -> Self {
        ScheduleError::Topology(e)
    }
}

/// Balanced block partition of `n` elements into `p` blocks (the same
/// geometry the runtime uses).
pub(crate) fn block_range(n: usize, p: usize, b: usize) -> (usize, usize) {
    let base = n / p;
    let rem = n % p;
    let lo = b * base + b.min(rem);
    let hi = lo + base + usize::from(b < rem);
    (lo, hi)
}

/// Intersect a half-open element span with the active segment, collapsing
/// disjoint pairs to an empty span.
pub(crate) fn clamp_span(span: (usize, usize), seg: (usize, usize)) -> (usize, usize) {
    let lo = span.0.max(seg.0);
    let hi = span.1.min(seg.1);
    (lo, lo.max(hi))
}

/// A collective configuration whose schedule can be derived symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommSpec {
    pub topo: Topology,
    pub map: RankMap,
    pub algo: Algorithm,
    /// Packed buffer length in f32 elements.
    pub total_elems: usize,
    /// Reduced segment, half-open.
    pub seg_lo: usize,
    pub seg_hi: usize,
}

impl CommSpec {
    pub fn new(
        topo: Topology,
        map: RankMap,
        algo: Algorithm,
        total_elems: usize,
        segment: std::ops::Range<usize>,
    ) -> Result<Self, ScheduleError> {
        Topology::try_with_supernode(topo.nodes, topo.supernode_size)?;
        if segment.end > total_elems || segment.start > segment.end {
            return Err(ScheduleError::SegmentOutOfBounds {
                lo: segment.start,
                hi: segment.end,
                total: total_elems,
            });
        }
        if matches!(
            algo,
            Algorithm::RecursiveHalvingDoubling | Algorithm::Binomial
        ) && !topo.nodes.is_power_of_two()
        {
            return Err(ScheduleError::NonPowerOfTwo {
                algo,
                nodes: topo.nodes,
            });
        }
        Ok(CommSpec {
            topo,
            map,
            algo,
            total_elems,
            seg_lo: segment.start,
            seg_hi: segment.end,
        })
    }

    /// Whole-buffer convenience constructor.
    pub fn monolithic(
        topo: Topology,
        map: RankMap,
        algo: Algorithm,
        elems: usize,
    ) -> Result<Self, ScheduleError> {
        CommSpec::new(topo, map, algo, elems, 0..elems)
    }

    pub fn nodes(&self) -> usize {
        self.topo.nodes
    }

    /// Number of payload chunks the schedule addresses.
    pub fn num_chunks(&self) -> usize {
        match self.algo {
            Algorithm::Binomial => 1,
            _ => self.topo.nodes,
        }
    }

    /// Chunk index → element span table, matching the runtime's block
    /// geometry exactly.
    pub fn chunk_table(&self) -> Vec<(usize, usize)> {
        let p = self.topo.nodes;
        let seg = (self.seg_lo, self.seg_hi);
        match self.algo {
            // RHD partitions the *segment* into p balanced blocks.
            Algorithm::RecursiveHalvingDoubling => {
                let n = self.seg_hi - self.seg_lo;
                (0..p)
                    .map(|b| {
                        let (lo, hi) = block_range(n, p, b);
                        (self.seg_lo + lo, self.seg_lo + hi)
                    })
                    .collect()
            }
            // The ring runs the monolithic block schedule restricted to
            // the segment: blocks outside clamp to empty spans.
            Algorithm::Ring => (0..p)
                .map(|b| clamp_span(block_range(self.total_elems, p, b), seg))
                .collect(),
            // The binomial tree moves the whole segment as one chunk.
            Algorithm::Binomial => vec![seg],
        }
    }

    /// Element span of a chunk-index span under a materialized table.
    /// Chunk spans are contiguous in element space for every algorithm.
    pub fn elem_span(table: &[(usize, usize)], chunks: ChunkSpan) -> (usize, usize) {
        if chunks.is_empty() {
            return (0, 0);
        }
        (table[chunks.lo].0, table[chunks.hi - 1].1)
    }

    /// Total number of bulk-synchronous steps.
    pub fn num_steps(&self) -> usize {
        let p = self.topo.nodes;
        if p == 1 {
            return 0;
        }
        match self.algo {
            Algorithm::Ring => 2 * (p - 1),
            Algorithm::RecursiveHalvingDoubling | Algorithm::Binomial => {
                2 * p.trailing_zeros() as usize
            }
        }
    }

    /// Chunks owned (fully reduced) by `rank` at the end of the reduce
    /// phase. The owned spans of all ranks tile the chunk space exactly —
    /// one of the invariants `swcheck::comm` verifies.
    pub fn owned_after_reduce(&self, rank: usize) -> ChunkSpan {
        let p = self.topo.nodes;
        if p == 1 {
            return ChunkSpan::new(0, self.num_chunks());
        }
        match self.algo {
            // Recursive halving leaves rank r with exactly block r.
            Algorithm::RecursiveHalvingDoubling => ChunkSpan::new(rank, rank + 1),
            // After p-1 ring steps rank r holds block (r + 1) mod p.
            Algorithm::Ring => {
                let b = (rank + 1) % p;
                ChunkSpan::new(b, b + 1)
            }
            // The tree reduces everything to rank 0.
            Algorithm::Binomial => {
                if rank == 0 {
                    ChunkSpan::new(0, 1)
                } else {
                    ChunkSpan::new(0, 0)
                }
            }
        }
    }

    /// Symbolic descriptor of one step: a single [`UniformStep`] for the
    /// ring, an explicit op list for RHD / binomial.
    pub fn step_descriptor(&self, step: usize) -> StepOps {
        let p = self.topo.nodes;
        debug_assert!(step < self.num_steps());
        match self.algo {
            Algorithm::Ring => {
                let half = p - 1;
                if step < half {
                    // Reduce-scatter: rank r sends block (r - k) mod p.
                    StepOps::Uniform(UniformStep {
                        phase: CommPhase::Reduce,
                        peer_delta: 1,
                        chunk_shift: (p - step % p) % p,
                        reduce: true,
                    })
                } else {
                    let k = step - half;
                    StepOps::Uniform(UniformStep {
                        phase: CommPhase::Gather,
                        peer_delta: 1,
                        chunk_shift: (p + 1 - k % p) % p,
                        reduce: false,
                    })
                }
            }
            Algorithm::RecursiveHalvingDoubling => {
                let mut ops = Vec::with_capacity(2 * p);
                let phase = self.rhd_step_into(step, &mut ops);
                StepOps::Explicit { phase, ops }
            }
            Algorithm::Binomial => {
                let mut ops = Vec::new();
                let phase = self.binomial_step_into(step, &mut ops);
                StepOps::Explicit { phase, ops }
            }
        }
    }

    /// Expand one step to its full per-rank op list (uniform steps
    /// included), appending into `ops`. Within a step the send and recv
    /// of one rank execute concurrently (sendrecv semantics); the
    /// emission order — ascending rank, send before recv — is the order
    /// the runtime charges transfers in, so cost-model byte accounting is
    /// reproducible from the symbolic schedule alone.
    pub fn expand_step_into(&self, step: usize, ops: &mut Vec<RankOp>) -> CommPhase {
        let p = self.topo.nodes;
        match self.algo {
            Algorithm::Ring => {
                let u = match self.step_descriptor(step) {
                    StepOps::Uniform(u) => u,
                    StepOps::Explicit { .. } => unreachable!("ring steps are uniform"),
                };
                for r in 0..p {
                    let send_chunk = (r + u.chunk_shift) % p;
                    let from = (r + p - u.peer_delta) % p;
                    let recv_chunk = (from + u.chunk_shift) % p;
                    ops.push(RankOp {
                        rank: r,
                        peer: (r + u.peer_delta) % p,
                        is_send: true,
                        chunks: ChunkSpan::new(send_chunk, send_chunk + 1),
                        reduce: u.reduce,
                    });
                    ops.push(RankOp {
                        rank: r,
                        peer: from,
                        is_send: false,
                        chunks: ChunkSpan::new(recv_chunk, recv_chunk + 1),
                        reduce: u.reduce,
                    });
                }
                u.phase
            }
            Algorithm::RecursiveHalvingDoubling => self.rhd_step_into(step, ops),
            Algorithm::Binomial => self.binomial_step_into(step, ops),
        }
    }

    /// RHD step in closed form. Before the reduce step with pair mask
    /// `m`, rank `r` works the dyadic interval `[r & !(2m-1), +2m)` of
    /// chunk space; it keeps its own half `[r & !(m-1), +m)` and sends
    /// the other to partner `r ^ m`. The allgather mirrors this: before
    /// the gather step with mask `m`, rank `r` holds `[r & !(m-1), +m)`
    /// and swaps it with its partner's adjacent interval.
    fn rhd_step_into(&self, step: usize, ops: &mut Vec<RankOp>) -> CommPhase {
        let p = self.topo.nodes;
        let levels = p.trailing_zeros() as usize;
        if step < levels {
            let mask = p >> (step + 1);
            for r in 0..p {
                let partner = r ^ mask;
                let keep_lo = r & !(mask - 1) & !(mask); // lower bits and pair bit cleared
                let keep_lo = keep_lo + if r & mask != 0 { mask } else { 0 };
                let send_lo = partner & !(mask - 1) & !(mask);
                let send_lo = send_lo + if partner & mask != 0 { mask } else { 0 };
                ops.push(RankOp {
                    rank: r,
                    peer: partner,
                    is_send: true,
                    chunks: ChunkSpan::new(send_lo, send_lo + mask),
                    reduce: true,
                });
                ops.push(RankOp {
                    rank: r,
                    peer: partner,
                    is_send: false,
                    chunks: ChunkSpan::new(keep_lo, keep_lo + mask),
                    reduce: true,
                });
            }
            CommPhase::Reduce
        } else {
            let mask = 1 << (step - levels);
            for r in 0..p {
                let partner = r ^ mask;
                let own_lo = r & !(mask - 1);
                let partner_lo = partner & !(mask - 1);
                ops.push(RankOp {
                    rank: r,
                    peer: partner,
                    is_send: true,
                    chunks: ChunkSpan::new(own_lo, own_lo + mask),
                    reduce: false,
                });
                ops.push(RankOp {
                    rank: r,
                    peer: partner,
                    is_send: false,
                    chunks: ChunkSpan::new(partner_lo, partner_lo + mask),
                    reduce: false,
                });
            }
            CommPhase::Gather
        }
    }

    /// Binomial-tree step in closed form: reduce to rank 0 with masks
    /// doubling from 1, then broadcast with masks halving from p/2.
    fn binomial_step_into(&self, step: usize, ops: &mut Vec<RankOp>) -> CommPhase {
        let p = self.topo.nodes;
        let levels = p.trailing_zeros() as usize;
        let whole = ChunkSpan::new(0, 1);
        if step < levels {
            let mask = 1usize << step;
            for r in 0..p {
                if r & mask != 0 && r % mask == 0 {
                    ops.push(RankOp {
                        rank: r,
                        peer: r - mask,
                        is_send: true,
                        chunks: whole,
                        reduce: true,
                    });
                } else if r % (mask * 2) == 0 && r + mask < p {
                    ops.push(RankOp {
                        rank: r,
                        peer: r + mask,
                        is_send: false,
                        chunks: whole,
                        reduce: true,
                    });
                }
            }
            CommPhase::Reduce
        } else {
            let mask = p >> (step - levels + 1);
            for r in 0..p {
                if r % (mask * 2) == 0 && r + mask < p {
                    ops.push(RankOp {
                        rank: r,
                        peer: r + mask,
                        is_send: true,
                        chunks: whole,
                        reduce: false,
                    });
                } else if r % (mask * 2) == mask {
                    ops.push(RankOp {
                        rank: r,
                        peer: r - mask,
                        is_send: false,
                        chunks: whole,
                        reduce: false,
                    });
                }
            }
            CommPhase::Gather
        }
    }

    /// The per-step transfer classes the cost model prices (see
    /// [`StepClasses`]).
    pub fn transfer_classes(&self) -> StepClasses {
        let p = self.topo.nodes;
        let phys: Vec<usize> = (0..p).map(|r| self.map.physical(&self.topo, r)).collect();
        let chunks = self.chunk_table();
        let ring = (self.algo == Algorithm::Ring).then(|| RingClasses::new(self, &phys, &chunks));
        StepClasses {
            spec: *self,
            phys,
            chunks,
            ring,
            ops: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// Materialize the whole schedule with every step fully explicit —
    /// the form the exact-mode checker and the hazard-injection tests
    /// consume. Quadratic in `p` for the ring; use the step generators
    /// directly at scale.
    pub fn extract(&self) -> CommSchedule {
        let mut steps = Vec::with_capacity(self.num_steps());
        for s in 0..self.num_steps() {
            let mut ops = Vec::new();
            let phase = self.expand_step_into(s, &mut ops);
            steps.push((phase, ops));
        }
        CommSchedule { spec: *self, steps }
    }
}

/// A collective's steps as transfer classes: for every step, the
/// `(bytes, reduce_bytes, route, count)` groups its sends fall into.
/// Pricing a step needs nothing more, and a step has a handful of classes
/// where it has `p` sends.
///
/// * **Ring.** Rank `r` always sends to `r + 1`, so every rank's route is
///   fixed for the whole collective; only which chunk it sends rotates.
///   The routes are computed once (O(p)), and a step's classes follow
///   from the chunk table's runs of equal-size chunks and circular prefix
///   counts of each route over the ranks: O(runs × routes) per step.
/// * **RHD and binomial.** Pairings change every step, so each step's
///   O(p) op list is generated in closed form and folded into classes.
pub struct StepClasses {
    spec: CommSpec,
    /// Physical node of each logical rank.
    phys: Vec<usize>,
    chunks: Vec<(usize, usize)>,
    ring: Option<RingClasses>,
    ops: Vec<RankOp>,
    transfers: Vec<Transfer>,
}

impl StepClasses {
    /// Classes of step `step`, replacing `out`.
    pub fn step_into(&mut self, step: usize, out: &mut Vec<TransferClass>) -> CommPhase {
        out.clear();
        if let Some(ring) = &self.ring {
            let StepOps::Uniform(u) = self.spec.step_descriptor(step) else {
                unreachable!("ring steps are uniform")
            };
            ring.step_into(&u, out);
            return u.phase;
        }
        self.ops.clear();
        let phase = match self.spec.algo {
            Algorithm::RecursiveHalvingDoubling => self.spec.rhd_step_into(step, &mut self.ops),
            _ => self.spec.binomial_step_into(step, &mut self.ops),
        };
        self.transfers.clear();
        for op in self.ops.iter().filter(|o| o.is_send) {
            let (lo, hi) = CommSpec::elem_span(&self.chunks, op.chunks);
            let bytes = (hi - lo) * 4;
            self.transfers.push(Transfer {
                src: self.phys[op.rank],
                dst: self.phys[op.peer],
                bytes,
                reduce_bytes: if op.reduce { bytes } else { 0 },
            });
        }
        fold_transfers(&self.spec.topo, &self.transfers, out);
        phase
    }
}

/// The ring's step-invariant part: the distinct routes of its `p` sends
/// and where in the rank order each occurs.
struct RingClasses {
    p: usize,
    routes: Vec<Route>,
    /// `prefix[g][i]`: ranks below `i` whose send takes `routes[g]`.
    prefix: Vec<Vec<usize>>,
    /// Maximal runs of equal-size chunks: `(first, end, elems)`.
    runs: Vec<(usize, usize, usize)>,
}

impl RingClasses {
    fn new(spec: &CommSpec, phys: &[usize], chunks: &[(usize, usize)]) -> Self {
        let p = phys.len();
        let topo = &spec.topo;
        let pair = |r: usize| (phys[r], phys[if r + 1 == p { 0 } else { r + 1 }]);
        let outflows = uplink_flows(topo, (0..p).map(pair));
        let mut routes: Vec<Route> = Vec::new();
        let mut group = Vec::with_capacity(p);
        for r in 0..p {
            let (src, dst) = pair(r);
            let rt = route(topo, &outflows, src, dst);
            let g = match routes.iter().position(|x| *x == rt) {
                Some(g) => g,
                None => {
                    routes.push(rt);
                    routes.len() - 1
                }
            };
            group.push(g);
        }
        let prefix = (0..routes.len())
            .map(|g| {
                let mut row = vec![0usize; p + 1];
                for (r, &gr) in group.iter().enumerate() {
                    row[r + 1] = row[r] + usize::from(gr == g);
                }
                row
            })
            .collect();
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for (c, &(lo, hi)) in chunks.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if run.2 == hi - lo => run.1 = c + 1,
                _ => runs.push((c, c + 1, hi - lo)),
            }
        }
        RingClasses {
            p,
            routes,
            prefix,
            runs,
        }
    }

    /// Ranks in the circular interval `[start, start + len)` whose send
    /// takes route `g`.
    fn count(&self, g: usize, start: usize, len: usize) -> usize {
        let row = &self.prefix[g];
        let end = start + len;
        if end <= self.p {
            row[end] - row[start]
        } else {
            row[self.p] - row[start] + row[end - self.p]
        }
    }

    /// Rank `r` sends chunk `(r + shift) mod p`, so the senders of the
    /// chunks `[a, b)` are the ranks `[a - shift, b - shift)` mod p. Two
    /// runs of one size (the empty blocks on both sides of a segment) give
    /// two classes with one key, which prices the same as one.
    fn step_into(&self, u: &UniformStep, out: &mut Vec<TransferClass>) {
        let p = self.p;
        for &(a, b, elems) in &self.runs {
            // (a - shift) mod p without a division: a, shift < p.
            let start = if a >= u.chunk_shift {
                a - u.chunk_shift
            } else {
                a + p - u.chunk_shift
            };
            let bytes = elems * 4;
            let reduce_bytes = if u.reduce { bytes } else { 0 };
            for (g, rt) in self.routes.iter().enumerate() {
                let count = self.count(g, start, b - a);
                if count > 0 {
                    out.push(TransferClass {
                        bytes,
                        reduce_bytes,
                        route: *rt,
                        count,
                    });
                }
            }
        }
    }
}

/// A fully materialized schedule: every step an explicit op list. The
/// hazard-injection tests mutate `steps` to prove the checker fires.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSchedule {
    pub spec: CommSpec,
    pub steps: Vec<(CommPhase, Vec<RankOp>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(algo: Algorithm, p: usize, elems: usize) -> CommSpec {
        CommSpec::monolithic(
            Topology::with_supernode(p, (p / 2).max(1)),
            RankMap::Natural,
            algo,
            elems,
        )
        .unwrap()
    }

    #[test]
    fn non_power_of_two_is_rejected_for_tree_algorithms() {
        for algo in [Algorithm::RecursiveHalvingDoubling, Algorithm::Binomial] {
            let err =
                CommSpec::monolithic(Topology::with_supernode(6, 3), RankMap::Natural, algo, 100)
                    .unwrap_err();
            assert!(matches!(err, ScheduleError::NonPowerOfTwo { nodes: 6, .. }));
        }
        assert!(CommSpec::monolithic(
            Topology::with_supernode(6, 3),
            RankMap::Natural,
            Algorithm::Ring,
            100
        )
        .is_ok());
    }

    #[test]
    fn bad_segment_is_rejected() {
        let t = Topology::with_supernode(4, 2);
        let err = CommSpec::new(t, RankMap::Natural, Algorithm::Ring, 100, 50..200).unwrap_err();
        assert!(matches!(err, ScheduleError::SegmentOutOfBounds { .. }));
    }

    /// Reference RHD generator with mutable per-rank ranges (the shape of
    /// the original runtime loop), used to pin the closed forms.
    fn rhd_reference(p: usize) -> Vec<Vec<(usize, ChunkSpan, ChunkSpan)>> {
        let mut range: Vec<(usize, usize)> = vec![(0, p); p];
        let mut out = Vec::new();
        let mut mask = p / 2;
        while mask >= 1 {
            let mut step = Vec::new();
            for (r, slot) in range.iter_mut().enumerate() {
                let (lo, hi) = *slot;
                let mid = lo + (hi - lo) / 2;
                let (keep, send) = if r & mask == 0 {
                    ((lo, mid), (mid, hi))
                } else {
                    ((mid, hi), (lo, mid))
                };
                step.push((
                    r ^ mask,
                    ChunkSpan::new(send.0, send.1),
                    ChunkSpan::new(keep.0, keep.1),
                ));
                *slot = keep;
            }
            out.push(step);
            mask /= 2;
        }
        let mut mask = 1;
        while mask < p {
            let snap = range.clone();
            let mut step = Vec::new();
            for r in 0..p {
                let partner = r ^ mask;
                step.push((
                    partner,
                    ChunkSpan::new(snap[r].0, snap[r].1),
                    ChunkSpan::new(snap[partner].0, snap[partner].1),
                ));
                range[r] = (
                    snap[r].0.min(snap[partner].0),
                    snap[r].1.max(snap[partner].1),
                );
            }
            out.push(step);
            mask *= 2;
        }
        out
    }

    #[test]
    fn rhd_closed_form_matches_stateful_reference() {
        for p in [2usize, 4, 8, 16, 64, 256] {
            let s = spec(Algorithm::RecursiveHalvingDoubling, p, 1000);
            let reference = rhd_reference(p);
            assert_eq!(s.num_steps(), reference.len());
            for (si, ref_step) in reference.iter().enumerate() {
                let mut ops = Vec::new();
                s.expand_step_into(si, &mut ops);
                assert_eq!(ops.len(), 2 * p);
                for r in 0..p {
                    let send = &ops[2 * r];
                    let recv = &ops[2 * r + 1];
                    let (partner, ref_send, ref_recv) = ref_step[r];
                    assert!(send.is_send && !recv.is_send);
                    assert_eq!((send.rank, send.peer), (r, partner), "p={p} step {si}");
                    assert_eq!(send.chunks, ref_send, "p={p} step {si} rank {r} send");
                    assert_eq!(recv.chunks, ref_recv, "p={p} step {si} rank {r} recv");
                }
            }
        }
    }

    #[test]
    fn every_send_has_the_matching_recv_on_the_peer() {
        for (algo, ps) in [
            (Algorithm::RecursiveHalvingDoubling, vec![2usize, 8, 32]),
            (Algorithm::Ring, vec![2, 3, 7, 12]),
            (Algorithm::Binomial, vec![2, 8, 16]),
        ] {
            for p in ps {
                let sched = spec(algo, p, 503).extract();
                for (si, (_, ops)) in sched.steps.iter().enumerate() {
                    for op in ops.iter().filter(|o| o.is_send) {
                        let matched = ops.iter().any(|o| {
                            !o.is_send
                                && o.rank == op.peer
                                && o.peer == op.rank
                                && o.chunks == op.chunks
                                && o.reduce == op.reduce
                        });
                        assert!(matched, "{algo:?} p={p} step {si}: unmatched {op:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn owned_spans_tile_the_chunk_space() {
        for (algo, ps) in [
            (Algorithm::RecursiveHalvingDoubling, vec![2usize, 16]),
            (Algorithm::Ring, vec![2, 5, 9]),
            (Algorithm::Binomial, vec![4, 8]),
        ] {
            for p in ps {
                let s = spec(algo, p, 101);
                let mut covered = vec![0usize; s.num_chunks()];
                for r in 0..p {
                    let o = s.owned_after_reduce(r);
                    for slot in &mut covered[o.lo..o.hi] {
                        *slot += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "{algo:?} p={p}: ownership not a partition: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn chunk_tables_tile_the_segment() {
        for algo in [
            Algorithm::RecursiveHalvingDoubling,
            Algorithm::Ring,
            Algorithm::Binomial,
        ] {
            let p = 8;
            let s = CommSpec::new(
                Topology::with_supernode(p, 4),
                RankMap::Natural,
                algo,
                1013,
                37..402,
            )
            .unwrap();
            let table = s.chunk_table();
            let mut nonempty: Vec<(usize, usize)> =
                table.iter().copied().filter(|(lo, hi)| hi > lo).collect();
            nonempty.sort_unstable();
            assert_eq!(nonempty.first().unwrap().0, 37, "{algo:?}");
            assert_eq!(nonempty.last().unwrap().1, 402, "{algo:?}");
            for w in nonempty.windows(2) {
                assert_eq!(w[0].1, w[1].0, "{algo:?}: gap or overlap at {w:?}");
            }
        }
    }

    #[test]
    fn ring_uniform_descriptor_agrees_with_expansion() {
        let p = 7;
        let s = spec(Algorithm::Ring, p, 91);
        for step in 0..s.num_steps() {
            let StepOps::Uniform(u) = s.step_descriptor(step) else {
                panic!("ring step {step} should be uniform");
            };
            let mut ops = Vec::new();
            s.expand_step_into(step, &mut ops);
            for r in 0..p {
                let send = &ops[2 * r];
                assert_eq!(send.peer, (r + u.peer_delta) % p);
                assert_eq!(send.chunks.lo, (r + u.chunk_shift) % p);
                assert_eq!(send.reduce, u.reduce);
            }
        }
    }
}

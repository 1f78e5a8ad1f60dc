//! Backward-overlapped bucketed all-reduce (the DDP/Horovod scheme).
//!
//! swCaffe's Sec. V-A packs every gradient into one flat buffer and
//! all-reduces once *after* the backward pass, so the entire
//! communication phase sits on the critical path — the comm fraction
//! that dominates Fig. 11 at 1024 nodes. But gradients become ready
//! layer by layer during backprop (output layers first — for AlexNet
//! that is the huge fully-connected layers), so their reduction can
//! start while earlier layers are still computing.
//!
//! This module groups gradient-ready events
//! ([`swcaffe_core::GradReady`], emitted by `Net::backward_with_events`)
//! into size-targeted buckets and schedules one *segmented* all-reduce
//! per bucket on a single communication channel:
//!
//! * bucket `k` starts at `max(ready_k, finish_{k-1})`,
//! * the iteration's communication finishes with the last bucket, and
//! * the overlapped iteration time is
//!   `max(backward finish, last bucket finish)` plus the unchanged
//!   serial tail (intra-chip gather, solver update) — instead of
//!   `backward + comm`.
//!
//! Each segment runs the **monolithic schedule restricted to the
//! segment** ([`swnet::allreduce_segment_ft`]), so the union of bucket
//! reductions performs exactly the monolithic packed reduce's
//! element-wise operations: functional mode is bit-identical to the
//! paper's scheme for every [`Algorithm`]. The serialized packed reduce
//! remains the default — it is what the paper evaluates — and bucketing
//! pays a real price per bucket (start-up latencies and one
//! bulk-synchronous straggler penalty per collective step), which is why
//! bucket sizing is a tunable and the `ablation_overlap` scenario sweeps
//! it.

use sw26010::SimTime;
use swcaffe_core::GradReady;
use swnet::{
    allreduce, allreduce_segment_ft, Algorithm, CollectiveFault, FaultSession, NetParams, RankMap,
    Topology,
};

/// Default bucket size target. 25 MB mirrors the PyTorch-DDP default
/// (`bucket_cap_mb`); the sweep in `ablation_overlap` shows larger
/// buckets amortise the per-bucket straggler cost better at 1024 nodes.
pub const DEFAULT_BUCKET_BYTES: usize = 25 << 20;

/// One gradient bucket: a contiguous span of the packed gradient vector
/// whose member layers' gradients are all ready at `ready`.
#[derive(Debug, Clone)]
pub struct GradBucket {
    /// Span of the packed vector (the `pack_gradients` layout).
    pub range: std::ops::Range<usize>,
    /// Member layer names, in ready (backward execution) order.
    pub layers: Vec<String>,
    /// Simulated time (relative to iteration start) at which the whole
    /// bucket is ready — the slowest member's gradient-ready time.
    pub ready: SimTime,
}

impl GradBucket {
    pub fn elems(&self) -> usize {
        self.range.len()
    }

    pub fn bytes(&self) -> usize {
        self.elems() * 4
    }
}

/// Merge per-replica event streams (the four core groups, or several
/// chips) into one: identical layers and spans — every replica runs the
/// same network — with the *slowest* replica's ready time, since the
/// bucket cannot leave the chip before every core group's contribution
/// is in.
pub fn merge_events(per_replica: &[Vec<GradReady>]) -> Vec<GradReady> {
    let mut merged: Vec<GradReady> = per_replica.first().map(|e| e.to_vec()).unwrap_or_default();
    for events in per_replica.iter().skip(1) {
        assert_eq!(
            events.len(),
            merged.len(),
            "replicas emitted different event streams"
        );
        for (m, e) in merged.iter_mut().zip(events) {
            assert_eq!(m.layer, e.layer, "replica event order mismatch");
            assert_eq!(m.span, e.span, "replica span mismatch for {}", m.layer);
            m.ready = m.ready.max(e.ready);
        }
    }
    merged
}

/// Greedily group gradient-ready events into buckets of at least
/// `bucket_bytes` (the last bucket may be smaller). Events must arrive
/// in backward emission order — descending packed spans, each adjacent
/// to the previous — which is what `backward_with_events` produces; the
/// resulting buckets partition `0..param_len` back to front.
pub fn build_buckets(events: &[GradReady], bucket_bytes: usize) -> Vec<GradBucket> {
    assert!(bucket_bytes > 0, "bucket size must be positive");
    let mut buckets = Vec::new();
    let mut current: Option<GradBucket> = None;
    for e in events {
        match current.as_mut() {
            None => {
                current = Some(GradBucket {
                    range: e.span.clone(),
                    layers: vec![e.layer.clone()],
                    ready: e.ready,
                });
            }
            Some(b) => {
                assert_eq!(
                    e.span.end, b.range.start,
                    "event spans must be contiguous in backward order (layer {})",
                    e.layer
                );
                b.range.start = e.span.start;
                b.layers.push(e.layer.clone());
                b.ready = b.ready.max(e.ready);
            }
        }
        if current.as_ref().is_some_and(|b| b.bytes() >= bucket_bytes) {
            buckets.push(current.take().unwrap());
        }
    }
    buckets.extend(current);
    buckets
}

/// Outcome of scheduling one bucketed all-reduce sequence.
#[derive(Debug, Clone, Copy)]
pub struct OverlapOutcome {
    /// When the last bucket's reduction finishes, relative to iteration
    /// start (`= max(ready, previous finish) + reduce time`, per bucket).
    pub comm_finish: SimTime,
    /// Total time the communication channel was busy (sum of per-bucket
    /// reduce times — what a serialized bucketed reduce would cost).
    pub bucket_comm_total: SimTime,
    pub buckets: usize,
    pub total_bytes: u64,
    pub cross_bytes: u64,
}

/// Run one segmented all-reduce per bucket on a single communication
/// channel, charging each against the backward timeline. In functional
/// mode (`data` present) the buckets' unions reproduce the monolithic
/// packed reduce bit for bit.
///
/// With a fault session, each bucket's segmented reduce consults it (see
/// [`swnet::allreduce_segment_ft`]), so detection timeouts, degraded
/// links, and retransmissions land on the overlapped timeline and a dead
/// rank or exhausted retry budget aborts the whole bucketed sequence with
/// a [`CollectiveFault`]. With `faults: None` it cannot fail.
#[allow(clippy::too_many_arguments)]
pub fn overlapped_allreduce_ft(
    topo: &Topology,
    params: &NetParams,
    map: RankMap,
    algo: Algorithm,
    total_elems: usize,
    buckets: &[GradBucket],
    mut data: Option<&mut [Vec<f32>]>,
    mut faults: Option<&mut FaultSession>,
) -> Result<OverlapOutcome, CollectiveFault> {
    let mut clock = SimTime::ZERO;
    let mut busy = SimTime::ZERO;
    let mut total_bytes = 0u64;
    let mut cross_bytes = 0u64;
    for b in buckets {
        let r = allreduce_segment_ft(
            topo,
            params,
            map,
            algo,
            total_elems,
            b.range.clone(),
            data.as_deref_mut(),
            faults.as_deref_mut(),
        )?;
        let start = clock.max(b.ready);
        clock = start + r.elapsed;
        busy += r.elapsed;
        total_bytes += r.total_bytes;
        cross_bytes += r.cross_bytes;
    }
    Ok(OverlapOutcome {
        comm_finish: clock,
        bucket_comm_total: busy,
        buckets: buckets.len(),
        total_bytes,
        cross_bytes,
    })
}

/// One point of the serialized-vs-overlapped comparison.
#[derive(Debug, Clone, Copy)]
pub struct OverlapPoint {
    pub nodes: usize,
    /// Paper-faithful iteration: node time + monolithic packed reduce.
    pub serialized_iter: SimTime,
    /// Overlapped iteration: node time + comm exposed past backward.
    pub overlapped_iter: SimTime,
    /// Monolithic packed all-reduce time.
    pub serial_comm: SimTime,
    /// Comm time not hidden behind backward compute.
    pub exposed_comm: SimTime,
    /// Channel-busy time of the bucketed reduce (its serialized cost).
    pub bucket_comm_total: SimTime,
    pub buckets: usize,
}

/// Analytic overlap model at scale, the `ablation_overlap` engine: as in
/// [`crate::scaling::ScalingModel`], one representative node's timeline
/// (all nodes are statistically identical under synchronous data
/// parallelism) plus the collective cost model determine the curve.
#[derive(Debug, Clone)]
pub struct OverlapModel {
    /// Full on-node serial time per iteration (compute + intra-chip
    /// gather/broadcast + solver update).
    pub node_time: SimTime,
    /// Forward+backward portion — the window communication can hide in.
    pub compute: SimTime,
    /// Gradient-ready events, relative to iteration start (merged over
    /// core groups).
    pub events: Vec<GradReady>,
    pub total_elems: usize,
    pub net: NetParams,
    pub rank_map: RankMap,
    pub algorithm: Algorithm,
    pub supernode_size: usize,
    pub bucket_bytes: usize,
}

impl OverlapModel {
    /// Evaluate one scale: both the serialized-packed and the
    /// bucketed-overlapped iteration at `nodes`.
    pub fn point(&self, nodes: usize) -> OverlapPoint {
        let topo = Topology::with_supernode(nodes, self.supernode_size);
        if nodes <= 1 {
            return OverlapPoint {
                nodes,
                serialized_iter: self.node_time,
                overlapped_iter: self.node_time,
                serial_comm: SimTime::ZERO,
                exposed_comm: SimTime::ZERO,
                bucket_comm_total: SimTime::ZERO,
                buckets: 0,
            };
        }
        let serial_comm = allreduce(
            &topo,
            &self.net,
            self.rank_map,
            self.algorithm,
            self.total_elems,
            None,
        )
        .elapsed;
        let buckets = build_buckets(&self.events, self.bucket_bytes);
        let o = overlapped_allreduce_ft(
            &topo,
            &self.net,
            self.rank_map,
            self.algorithm,
            self.total_elems,
            &buckets,
            None,
            None,
        )
        .expect("infallible without fault injection");
        let exposed =
            SimTime::from_seconds((o.comm_finish.seconds() - self.compute.seconds()).max(0.0));
        OverlapPoint {
            nodes,
            serialized_iter: self.node_time + serial_comm,
            overlapped_iter: self.node_time + exposed,
            serial_comm,
            exposed_comm: exposed,
            bucket_comm_total: o.bucket_comm_total,
            buckets: o.buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::{CoreGroup, ExecMode};
    use swcaffe_core::{models, Net};
    use swnet::ReduceEngine;

    fn ready(layer: &str, span: std::ops::Range<usize>, t: f64) -> GradReady {
        GradReady {
            layer: layer.to_string(),
            span,
            ready: SimTime::from_seconds(t),
        }
    }

    #[test]
    fn buckets_partition_backward_order() {
        // 100 elems over four layers, backward order: d(60..100),
        // c(40..60), b(8..40), a(0..8). Bucket target 128 B = 32 elems.
        let events = vec![
            ready("d", 60..100, 0.1),
            ready("c", 40..60, 0.2),
            ready("b", 8..40, 0.3),
            ready("a", 0..8, 0.4),
        ];
        let buckets = build_buckets(&events, 128);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].range, 60..100);
        assert_eq!(buckets[0].layers, vec!["d"]);
        assert_eq!(buckets[1].range, 8..60);
        assert_eq!(buckets[1].layers, vec!["c", "b"]);
        assert!((buckets[1].ready.seconds() - 0.3).abs() < 1e-12);
        // Tail bucket smaller than the target.
        assert_eq!(buckets[2].range, 0..8);
        // Union partitions the packed vector.
        assert_eq!(buckets.last().unwrap().range.start, 0);
        assert_eq!(buckets[0].range.end, 100);
    }

    #[test]
    fn one_giant_bucket_degenerates_to_packed() {
        let events = vec![ready("b", 50..100, 0.1), ready("a", 0..50, 0.2)];
        let buckets = build_buckets(&events, usize::MAX);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].range, 0..100);
        assert!((buckets[0].ready.seconds() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_takes_slowest_replica() {
        let a = vec![ready("x", 0..4, 0.5)];
        let b = vec![ready("x", 0..4, 0.9)];
        let m = merge_events(&[a, b]);
        assert_eq!(m.len(), 1);
        assert!((m[0].ready.seconds() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bucketed_matches_monolithic_for_every_algorithm() {
        // The functional acceptance criterion: the bucketed-overlapped
        // reduce must produce bit-identical sums to the monolithic
        // packed reduce for every algorithm, driven by real backward
        // events from a real net.
        let def = models::tiny_cnn(2, 3);
        let mut net = Net::from_def(&def, true).unwrap();
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let img = 3 * 16 * 16;
        let data: Vec<f32> = (0..2 * img)
            .map(|i| ((i * 29 % 13) as f32 - 6.0) / 7.0)
            .collect();
        net.set_input("data", &data);
        net.set_input("label", &[0.0, 2.0]);
        net.zero_param_diffs();
        net.forward(&mut cg);
        let events = net.backward_with_events(&mut cg);
        let elems = net.param_len();

        let p = 8;
        let topo = Topology::with_supernode(p, 4);
        let params = NetParams::sunway_allreduce(ReduceEngine::CpeClusters);
        let make = |seed: usize| -> Vec<Vec<f32>> {
            (0..p)
                .map(|r| {
                    (0..elems)
                        .map(|i| 1.0 / (1 + (r * 131 + i * 17 + seed) % 97) as f32 - 0.5)
                        .collect()
                })
                .collect()
        };
        for algo in [
            Algorithm::Ring,
            Algorithm::Binomial,
            Algorithm::RecursiveHalvingDoubling,
        ] {
            let mut mono = make(3);
            let mut seg = mono.clone();
            allreduce(
                &topo,
                &params,
                RankMap::RoundRobin,
                algo,
                elems,
                Some(&mut mono),
            );
            let buckets = build_buckets(&events, 4096);
            assert!(buckets.len() > 1, "test wants multiple buckets");
            overlapped_allreduce_ft(
                &topo,
                &params,
                RankMap::RoundRobin,
                algo,
                elems,
                &buckets,
                Some(&mut seg),
                None,
            )
            .unwrap();
            for (rank, (a, b)) in mono.iter().zip(&seg).enumerate() {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{algo:?} rank {rank} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheduler_respects_readiness_and_channel_serialization() {
        let events = vec![ready("b", 500..1000, 0.0), ready("a", 0..500, 10.0)];
        let topo = Topology::with_supernode(4, 2);
        let params = NetParams::sunway_allreduce(ReduceEngine::CpeClusters);
        let buckets = build_buckets(&events, 4 * 500);
        assert_eq!(buckets.len(), 2);
        let o = overlapped_allreduce_ft(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            1000,
            &buckets,
            None,
            None,
        )
        .unwrap();
        // The second bucket is gated on its ready time (10 s), far past
        // the first bucket's finish, so the channel idles in between:
        // finish > 10 s but busy time stays well below it.
        assert!(o.comm_finish.seconds() > 10.0);
        assert!(o.bucket_comm_total.seconds() < 1.0);
        assert_eq!(o.buckets, 2);
    }

    #[test]
    fn overlap_hides_comm_behind_compute() {
        // Gradients ready early + long compute tail: the overlapped
        // iteration approaches pure node time while the serialized one
        // pays compute + comm in full.
        let elems = 4_000_000;
        let events = vec![
            ready("fc", elems / 2..elems, 0.05),
            ready("conv", 0..elems / 2, 0.10),
        ];
        let m = OverlapModel {
            node_time: SimTime::from_seconds(2.0),
            compute: SimTime::from_seconds(1.8),
            events,
            total_elems: elems,
            net: NetParams::sunway_allreduce(ReduceEngine::CpeClusters),
            rank_map: RankMap::RoundRobin,
            algorithm: Algorithm::RecursiveHalvingDoubling,
            supernode_size: swnet::SUPERNODE_SIZE,
            bucket_bytes: DEFAULT_BUCKET_BYTES,
        };
        let p = m.point(256);
        assert!(p.serial_comm.seconds() > 0.0);
        assert!(
            p.overlapped_iter.seconds() < p.serialized_iter.seconds(),
            "overlap must win: {} vs {}",
            p.overlapped_iter.seconds(),
            p.serialized_iter.seconds()
        );
        // Single node: both modes degenerate to node time.
        let p1 = m.point(1);
        assert_eq!(p1.serialized_iter.seconds(), p1.overlapped_iter.seconds());
        assert_eq!(p1.buckets, 0);
    }
}

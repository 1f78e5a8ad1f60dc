//! Multi-node synchronous SGD: Algorithm 1's all-reduce step over the
//! simulated TaihuLight interconnect.
//!
//! Functional mode instantiates every node in-process (used by tests at
//! small scale to prove the distributed gradient math is exact); the
//! 1024-node sweeps of Figs. 10/11 use [`crate::scaling`] instead, which
//! reuses one representative node (all nodes are statistically identical
//! under synchronous data parallelism).

use sw26010::arch::CORE_GROUPS;
use sw26010::{ExecMode, SimTime};
use swcaffe_core::{snapshot, NetDef, SolverConfig};
use swnet::{
    allreduce, allreduce_segment_ft, Algorithm, CollectiveFault, FaultSession, NetParams, RankMap,
    Topology,
};

use crate::buckets::{build_buckets, merge_events, overlapped_allreduce_ft};
use crate::packing::pack_params;
use crate::ssgd::{CgBatch, ChipIteration, ChipTrainer};

/// How the cross-node gradient reduction is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// The paper's scheme (Sec. V-A): one monolithic packed all-reduce
    /// after the backward pass. This is the default — it is what the
    /// committed baselines measure.
    Serialized,
    /// Bucketed all-reduce overlapped with backprop (see
    /// [`crate::buckets`]): gradients are grouped into size-targeted
    /// buckets as they become ready and each bucket's segmented reduce
    /// runs concurrently with the remaining backward compute.
    Overlapped { bucket_bytes: usize },
}

/// Cluster-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    pub nodes: usize,
    pub supernode_size: usize,
    pub rank_map: RankMap,
    pub algorithm: Algorithm,
    pub net: NetParams,
    /// Gradient-reduction scheduling.
    pub comm: CommMode,
    /// Optional shared-filesystem model and per-node mini-batch bytes:
    /// prefetch hides disk time behind compute, the excess stalls the
    /// iteration (Sec. V-B).
    pub io: Option<(swio::IoModel, usize)>,
}

impl ClusterConfig {
    /// The paper's configuration: topology-aware halving/doubling with
    /// CPE-cluster sums.
    pub fn swcaffe(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            supernode_size: swnet::SUPERNODE_SIZE,
            rank_map: RankMap::RoundRobin,
            algorithm: Algorithm::RecursiveHalvingDoubling,
            net: NetParams::sunway(swnet::ReduceEngine::CpeClusters),
            comm: CommMode::Serialized,
            io: None,
        }
    }

    pub fn topology(&self) -> Topology {
        Topology::with_supernode(self.nodes, self.supernode_size)
    }
}

/// Per-iteration cluster report.
///
/// In [`CommMode::Overlapped`] runs, `comm` holds only the *exposed*
/// communication — the part of the bucketed reduce extending past the
/// backward finish — so `total()` is the overlapped wall time
/// `max(compute, comm finish) + intra + update + io` in both modes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterIteration {
    pub loss: f32,
    pub compute: SimTime,
    pub comm: SimTime,
    pub intra: SimTime,
    pub update: SimTime,
    pub io_stall: SimTime,
}

impl ClusterIteration {
    pub fn total(&self) -> SimTime {
        self.compute + self.comm + self.intra + self.update + self.io_stall
    }

    /// Fig. 11's metric. Zero-duration iterations (a degenerate
    /// configuration, e.g. an empty net) report 0 instead of NaN.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total().seconds();
        if total == 0.0 {
            0.0
        } else {
            self.comm.seconds() / total
        }
    }
}

/// A fully-materialised multi-node trainer (small scales, tests).
pub struct ClusterTrainer {
    pub config: ClusterConfig,
    pub chips: Vec<ChipTrainer>,
}

impl ClusterTrainer {
    pub fn new(
        def: &NetDef,
        solver: SolverConfig,
        config: ClusterConfig,
        mode: ExecMode,
    ) -> Result<Self, String> {
        let chips: Result<Vec<_>, _> = (0..config.nodes)
            .map(|_| ChipTrainer::new(def, solver, mode))
            .collect();
        Ok(ClusterTrainer {
            config,
            chips: chips?,
        })
    }

    /// One synchronous iteration across all nodes. `inputs[node][cg]` are
    /// the per-CG (data, labels) pairs; `None` in timing mode.
    pub fn iteration(&mut self, inputs: Option<&[Vec<CgBatch>]>) -> ClusterIteration {
        self.iteration_ft(inputs, None)
            .expect("infallible without fault injection")
    }

    /// Fault-aware [`iteration`](Self::iteration): the session's crash
    /// schedule is advanced to the solver's iteration number, and the
    /// cross-node reduction consults it (detection timeouts, degraded
    /// links, stragglers, checksummed retransmission). A dead rank or an
    /// exhausted retry budget aborts the iteration *before* any weight
    /// update — the survivors still hold the previous iteration's
    /// synchronised state — and the caller picks a [`Recovery`].
    pub fn iteration_ft(
        &mut self,
        inputs: Option<&[Vec<CgBatch>]>,
        mut faults: Option<&mut FaultSession>,
    ) -> Result<ClusterIteration, CollectiveFault> {
        if let Some(f) = faults.as_deref_mut() {
            f.begin_iteration(self.chips[0].solver().iter() as u64);
        }
        let n = self.config.nodes;
        let functional = inputs.is_some();
        let overlapped = matches!(self.config.comm, CommMode::Overlapped { .. });
        // Phase 1-3 on every node.
        let mut reports: Vec<ChipIteration> = Vec::with_capacity(n);
        let mut grads: Vec<Vec<f32>> = Vec::with_capacity(n);
        let mut events: Vec<Vec<swcaffe_core::GradReady>> = Vec::new();
        for (i, chip) in self.chips.iter_mut().enumerate() {
            let node_inputs = inputs.map(|inp| &inp[i][..]);
            if overlapped {
                let (r, g, e) = chip.compute_gradients_with_events(node_inputs);
                reports.push(r);
                grads.push(g);
                events.push(e);
            } else {
                let (r, g) = chip.compute_gradients(node_inputs);
                reports.push(r);
                grads.push(g);
            }
        }
        // Synchronous step: the iteration advances at the slowest node.
        let compute = reports
            .iter()
            .map(|r| r.compute)
            .fold(SimTime::ZERO, SimTime::max);
        let intra_pre = reports
            .iter()
            .map(|r| r.intra)
            .fold(SimTime::ZERO, SimTime::max);

        // All-reduce the packed gradients.
        let topo = self.config.topology();
        let elems = self.chips[0].param_elems();
        let comm = match self.config.comm {
            CommMode::Serialized => {
                allreduce_segment_ft(
                    &topo,
                    &self.config.net,
                    self.config.rank_map,
                    self.config.algorithm,
                    elems,
                    0..elems,
                    functional.then_some(&mut grads[..]),
                    faults.as_deref_mut(),
                )?
                .elapsed
            }
            CommMode::Overlapped { bucket_bytes } => {
                // One segmented reduce per bucket, launched as gradients
                // became ready (slowest node gates each bucket); only the
                // comm extending past the backward finish is exposed.
                let merged = merge_events(&events);
                let buckets = build_buckets(&merged, bucket_bytes);
                let o = overlapped_allreduce_ft(
                    &topo,
                    &self.config.net,
                    self.config.rank_map,
                    self.config.algorithm,
                    elems,
                    &buckets,
                    functional.then_some(&mut grads[..]),
                    faults,
                )?;
                SimTime::from_seconds((o.comm_finish.seconds() - compute.seconds()).max(0.0))
            }
        };

        // Phase 4-5 on every node.
        let scale = 1.0 / (CORE_GROUPS * n) as f32;
        let mut update = SimTime::ZERO;
        let mut intra_post = SimTime::ZERO;
        for (chip, g) in self.chips.iter_mut().zip(&mut grads) {
            let (u, b) = chip.apply_update(g, scale);
            update = update.max(u);
            intra_post = intra_post.max(b);
        }
        let loss = reports.iter().map(|r| r.loss).sum::<f32>() / n as f32;
        let io_stall = match self.config.io {
            Some((model, bytes)) => swio::io_stall(model.batch_read_time(n, bytes), compute),
            None => SimTime::ZERO,
        };
        Ok(ClusterIteration {
            loss,
            compute,
            comm,
            intra: intra_pre + intra_post,
            update,
            io_stall,
        })
    }

    /// Serialise a full recovery checkpoint — weights, persistent layer
    /// state (batch-norm statistics), and solver state (iteration,
    /// momentum, dropout RNG streams) — of the logically-replicated
    /// model. Under synchronous SGD every node and every core group hold
    /// identical state between iterations, so one replica's snapshot is
    /// the job's.
    pub fn checkpoint(&self) -> Vec<u8> {
        let chip = &self.chips[0];
        let mut buf = Vec::new();
        snapshot::write_checkpoint(chip.net(), &chip.solver_state(), &mut buf)
            .expect("writing a checkpoint to memory cannot fail");
        buf
    }

    /// Load a checkpoint produced by [`checkpoint`](Self::checkpoint)
    /// into every node and every core-group replica, repositioning each
    /// chip's solver. Returns the restored iteration number.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<u64, String> {
        let state = snapshot::read_checkpoint(self.chips[0].net_mut(), bytes)?;
        let weights = pack_params(self.chips[0].net());
        let persistent: Vec<Vec<f32>> = self.chips[0]
            .net()
            .state()
            .iter()
            .map(|s| s.to_vec())
            .collect();
        for chip in &mut self.chips {
            chip.restore(&weights, &persistent, &state)?;
        }
        Ok(state.iteration)
    }

    /// Rebuild the job after a fault aborted an iteration, charging the
    /// simulated recovery wall-clock to the session's
    /// [`FaultReport::recovery_s`](swnet::FaultReport).
    pub fn recover(
        &mut self,
        faults: &mut FaultSession,
        action: Recovery,
        checkpoint: Option<&[u8]>,
    ) -> Result<(), String> {
        match action {
            Recovery::ShrinkAndContinue => {
                let dead: Vec<usize> = faults
                    .dead_nodes()
                    .iter()
                    .copied()
                    .filter(|&r| r < self.config.nodes)
                    .collect();
                if dead.is_empty() {
                    return Err("no dead ranks to shrink away".into());
                }
                if dead.len() >= self.config.nodes {
                    return Err("no surviving nodes".into());
                }
                for &r in dead.iter().rev() {
                    self.chips.remove(r);
                }
                self.config.nodes = self.chips.len();
                // RHD and binomial require a power-of-two rank count, so
                // an awkward survivor count falls back to the ring with
                // the natural mapping.
                if !self.config.nodes.is_power_of_two()
                    && matches!(
                        self.config.algorithm,
                        Algorithm::RecursiveHalvingDoubling | Algorithm::Binomial
                    )
                {
                    self.config.algorithm = Algorithm::Ring;
                    self.config.rank_map = RankMap::Natural;
                }
                faults.clear_dead();
                // The survivors still hold the last completed iteration's
                // synchronised weights (the faulted iteration aborted
                // before any update), so shrinking costs only the
                // membership agreement: one tiny collective over the new
                // topology. Gradient averaging rescales automatically —
                // `iteration` divides by the live node count.
                faults.report.recovery_s += self.resync_seconds(1);
            }
            Recovery::RestoreFromCheckpoint => {
                let bytes = checkpoint.ok_or("RestoreFromCheckpoint needs the checkpoint bytes")?;
                self.restore_checkpoint(bytes)?;
                faults.clear_dead();
                // Every node re-reads the checkpoint from the shared
                // filesystem (when an I/O model is configured) and the
                // job re-synchronises with a full-parameter collective.
                if let Some((model, _)) = self.config.io {
                    faults.report.recovery_s += model
                        .batch_read_time(self.config.nodes, bytes.len())
                        .seconds();
                }
                faults.report.recovery_s += self.resync_seconds(self.chips[0].param_elems());
            }
        }
        Ok(())
    }

    /// Cost of one fault-free collective over the current topology —
    /// the re-synchronisation step every recovery path ends with.
    fn resync_seconds(&self, elems: usize) -> f64 {
        allreduce(
            &self.config.topology(),
            &self.config.net,
            self.config.rank_map,
            self.config.algorithm,
            elems,
            None,
        )
        .elapsed
        .seconds()
    }
}

/// What to do after [`ClusterTrainer::iteration_ft`] aborts with a
/// [`CollectiveFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Drop the dead ranks and continue on the survivors: chips are
    /// removed, the topology shrinks, the algorithm falls back to
    /// Ring/Natural when the survivor count stops being a power of two
    /// (RHD and binomial need one), and gradient averaging
    /// rescales to the live node count. Training continues from the last
    /// completed iteration — no work is lost, but parallelism degrades.
    ShrinkAndContinue,
    /// Reload the last full-solver checkpoint into the full-size job
    /// (the dead rank is assumed re-assigned to a spare node) and replay
    /// from there — bit-identical to a run that never faulted.
    RestoreFromCheckpoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::pack_params;
    use swcaffe_core::models;

    pub(crate) fn synth_cluster_inputs(
        nodes: usize,
        cg_batch: usize,
        classes: usize,
        img: usize,
        seed: usize,
    ) -> Vec<Vec<CgBatch>> {
        (0..nodes)
            .map(|node| {
                (0..CORE_GROUPS)
                    .map(|cgi| {
                        let mut data = vec![0.0f32; cg_batch * img];
                        let mut labels = vec![0.0f32; cg_batch];
                        for b in 0..cg_batch {
                            let class = (b + cgi + node * 2 + seed) % classes;
                            labels[b] = class as f32;
                            for i in 0..img {
                                let noise = (((b * 31 + i * 17 + node * 5 + cgi * 3 + seed * 7)
                                    % 83) as f32
                                    / 83.0
                                    - 0.5)
                                    * 0.2;
                                let stripe = (i * classes / img) == class;
                                data[b * img + i] = noise + if stripe { 1.0 } else { 0.0 };
                            }
                        }
                        (data, labels)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cluster_nodes_stay_synchronous() {
        let def = models::tiny_cnn(1, 3);
        let mut cluster = ClusterTrainer::new(
            &def,
            SolverConfig::default(),
            ClusterConfig {
                supernode_size: 2,
                ..ClusterConfig::swcaffe(4)
            },
            ExecMode::Functional,
        )
        .unwrap();
        let img = 3 * 16 * 16;
        for it in 0..3 {
            let inputs = synth_cluster_inputs(4, 1, 3, img, it);
            let r = cluster.iteration(Some(&inputs));
            assert!(r.loss.is_finite());
            assert!(r.comm.seconds() > 0.0);
            // Every node must hold the same weights afterwards.
            let reference = pack_params(cluster.chips[0].net());
            for (i, chip) in cluster.chips.iter().enumerate().skip(1) {
                assert_eq!(pack_params(chip.net()), reference, "node {i} diverged");
            }
        }
    }

    /// A BN-free CNN: batch-norm statistics are not batch-size
    /// associative, so the exact distributed-vs-centralised equivalence
    /// only holds without them (as in real data-parallel training).
    fn plain_cnn(batch: usize, classes: usize) -> swcaffe_core::NetDef {
        models::NetBuilder::new("plain_cnn", batch, 3, 16)
            .force_nchw()
            .conv("conv1", 8, 3, 1, 1)
            .relu("relu1")
            .pool("pool1", 2, 2, 0, swcaffe_core::PoolKind::Max)
            .fc("fc", classes)
            .loss()
    }

    #[test]
    fn distributed_equals_single_node_large_batch() {
        // 2 nodes x chip-batch 4 must produce exactly the same update as
        // 1 node x chip-batch 8 over the same 8 samples (synchronous SGD
        // is batch-size associative).
        let img = 3 * 16 * 16;
        let classes = 3;
        let solver = SolverConfig {
            base_lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            ..Default::default()
        };

        // Build one deterministic pool of 8 (data, label) samples.
        let pool = synth_cluster_inputs(2, 1, classes, img, 9);

        let def_small = plain_cnn(1, classes);
        let mut cluster = ClusterTrainer::new(
            &def_small,
            solver,
            ClusterConfig {
                supernode_size: 2,
                ..ClusterConfig::swcaffe(2)
            },
            ExecMode::Functional,
        )
        .unwrap();
        cluster.iteration(Some(&pool));
        let distributed = pack_params(cluster.chips[0].net());

        // Single node with per-CG batch 2 sees the same 8 samples.
        let def_big = plain_cnn(2, classes);
        let mut single = ChipTrainer::new(&def_big, solver, ExecMode::Functional).unwrap();
        let merged: Vec<(Vec<f32>, Vec<f32>)> = (0..CORE_GROUPS)
            .map(|cgi| {
                // CG cgi of the big node takes node0.cg and node1.cg
                // samples cgi (two samples of batch 1 each).
                let (d0, l0) = &pool[0][cgi];
                let (d1, l1) = &pool[1][cgi];
                let mut d = d0.clone();
                d.extend_from_slice(d1);
                let mut l = l0.clone();
                l.extend_from_slice(l1);
                (d, l)
            })
            .collect();
        single.iteration(Some(&merged));
        let centralized = pack_params(single.net());

        assert_eq!(distributed.len(), centralized.len());
        for (i, (a, b)) in distributed.iter().zip(&centralized).enumerate() {
            assert!(
                (a - b).abs() < 2e-4 * b.abs().max(1.0),
                "param {i}: distributed {a} vs centralized {b}"
            );
        }
    }

    #[test]
    fn overlapped_cluster_matches_serialized_bitwise() {
        // Overlapped bucketed communication changes the schedule, not the
        // math: after training, every weight must be bit-identical to the
        // serialized packed reduce, for every algorithm.
        let def = models::tiny_cnn(1, 3);
        let img = 3 * 16 * 16;
        for algo in [
            Algorithm::Ring,
            Algorithm::Binomial,
            Algorithm::RecursiveHalvingDoubling,
        ] {
            let run = |comm: CommMode| {
                let mut cluster = ClusterTrainer::new(
                    &def,
                    SolverConfig::default(),
                    ClusterConfig {
                        supernode_size: 2,
                        algorithm: algo,
                        comm,
                        ..ClusterConfig::swcaffe(4)
                    },
                    ExecMode::Functional,
                )
                .unwrap();
                for it in 0..2 {
                    let inputs = synth_cluster_inputs(4, 1, 3, img, it);
                    cluster.iteration(Some(&inputs));
                }
                pack_params(cluster.chips[0].net())
            };
            let serialized = run(CommMode::Serialized);
            // A tiny bucket target forces several buckets per iteration.
            let overlapped = run(CommMode::Overlapped { bucket_bytes: 4096 });
            assert_eq!(serialized.len(), overlapped.len());
            for (i, (a, b)) in serialized.iter().zip(&overlapped).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{algo:?} param {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn comm_fraction_guards_zero_total() {
        let r = ClusterIteration::default();
        assert_eq!(r.comm_fraction(), 0.0);
    }

    #[test]
    fn timing_mode_cluster_reports() {
        let def = models::tiny_cnn(4, 10);
        let mut cluster = ClusterTrainer::new(
            &def,
            SolverConfig::default(),
            ClusterConfig {
                supernode_size: 4,
                ..ClusterConfig::swcaffe(8)
            },
            ExecMode::TimingOnly,
        )
        .unwrap();
        let r = cluster.iteration(None);
        assert!(r.compute.seconds() > 0.0);
        assert!(r.comm.seconds() > 0.0);
        assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::synth_cluster_inputs;
    use super::*;
    use crate::packing::pack_params;
    use swcaffe_core::models;
    use swnet::FaultPlan;

    #[test]
    fn crash_shrinks_the_job_and_training_continues() {
        let def = models::tiny_cnn(1, 3);
        let img = 3 * 16 * 16;
        let mut cluster = ClusterTrainer::new(
            &def,
            SolverConfig::default(),
            ClusterConfig {
                supernode_size: 2,
                ..ClusterConfig::swcaffe(4)
            },
            ExecMode::Functional,
        )
        .unwrap();
        let mut faults = FaultSession::new(FaultPlan::new(11).crash(3, 1));

        let inputs = synth_cluster_inputs(4, 1, 3, img, 0);
        cluster
            .iteration_ft(Some(&inputs), Some(&mut faults))
            .expect("iteration 0 predates the crash");

        let err = cluster
            .iteration_ft(Some(&inputs), Some(&mut faults))
            .expect_err("node 3 is dead at iteration 1");
        assert!(matches!(err, CollectiveFault::DeadRank { rank: 3, .. }));
        assert_eq!(faults.report.crashes, 1);
        assert_eq!(faults.report.detections, 1);

        cluster
            .recover(&mut faults, Recovery::ShrinkAndContinue, None)
            .unwrap();
        assert_eq!(cluster.config.nodes, 3);
        assert_eq!(cluster.chips.len(), 3);
        // 3 survivors: RHD needs a power of two, so the job falls back
        // to the ring with the natural mapping.
        assert_eq!(cluster.config.algorithm, Algorithm::Ring);
        assert_eq!(cluster.config.rank_map, RankMap::Natural);
        assert!(faults.report.recovery_s > 0.0);

        // Training continues on the survivors, and they stay in sync.
        let inputs = synth_cluster_inputs(3, 1, 3, img, 1);
        let r = cluster
            .iteration_ft(Some(&inputs), Some(&mut faults))
            .expect("shrunken job must train");
        assert!(r.loss.is_finite());
        let reference = pack_params(cluster.chips[0].net());
        for (i, chip) in cluster.chips.iter().enumerate().skip(1) {
            assert_eq!(pack_params(chip.net()), reference, "survivor {i} diverged");
        }
        // The crash event fired once; the rebuilt job is not re-killed.
        assert_eq!(faults.report.crashes, 1);
    }

    #[test]
    fn restore_from_checkpoint_replays_bit_identically() {
        // A run that crashes at iteration 2 and restores from the
        // checkpoint taken after iteration 1 must end bit-identical to a
        // run that never faulted — including dropout mask sequences and
        // batch-norm statistics, which is exactly what the full-solver
        // checkpoint exists to capture.
        let def = models::tiny_dropout_cnn(1, 3);
        let img = 3 * 8 * 8;
        let make = || {
            ClusterTrainer::new(
                &def,
                SolverConfig::default(),
                ClusterConfig {
                    supernode_size: 2,
                    ..ClusterConfig::swcaffe(4)
                },
                ExecMode::Functional,
            )
            .unwrap()
        };

        let mut clean = make();
        for it in 0..4 {
            let inputs = synth_cluster_inputs(4, 1, 3, img, it);
            clean.iteration(Some(&inputs));
        }
        let want = pack_params(clean.chips[0].net());

        let mut faulty = make();
        let mut faults = FaultSession::new(FaultPlan::new(5).crash(2, 2));
        for it in 0..2 {
            let inputs = synth_cluster_inputs(4, 1, 3, img, it);
            faulty
                .iteration_ft(Some(&inputs), Some(&mut faults))
                .unwrap();
        }
        let ckpt = faulty.checkpoint();
        let inputs2 = synth_cluster_inputs(4, 1, 3, img, 2);
        let err = faulty
            .iteration_ft(Some(&inputs2), Some(&mut faults))
            .expect_err("node 2 dies at iteration 2");
        assert!(matches!(err, CollectiveFault::DeadRank { rank: 2, .. }));
        faulty
            .recover(&mut faults, Recovery::RestoreFromCheckpoint, Some(&ckpt))
            .unwrap();
        assert!(faults.report.recovery_s > 0.0);
        assert_eq!(faulty.chips[0].solver().iter(), 2, "solver repositioned");
        for it in 2..4 {
            let inputs = synth_cluster_inputs(4, 1, 3, img, it);
            faulty
                .iteration_ft(Some(&inputs), Some(&mut faults))
                .expect("replay after restore must not re-fault");
        }
        let got = pack_params(faulty.chips[0].net());
        assert_eq!(want.len(), got.len());
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "param {i} after recovery: {a} vs {b}"
            );
        }
    }

    #[test]
    fn corrupted_messages_are_retried_transparently() {
        // Transient corruption is detected by the per-message checksums
        // and retransmitted: training produces bit-identical weights to
        // a clean run, only the clock and the fault counters differ.
        let def = models::tiny_cnn(1, 3);
        let img = 3 * 16 * 16;
        let run = |faults: Option<&mut FaultSession>| {
            let mut cluster = ClusterTrainer::new(
                &def,
                SolverConfig::default(),
                ClusterConfig {
                    supernode_size: 2,
                    ..ClusterConfig::swcaffe(4)
                },
                ExecMode::Functional,
            )
            .unwrap();
            let mut faults = faults;
            for it in 0..2 {
                let inputs = synth_cluster_inputs(4, 1, 3, img, it);
                cluster
                    .iteration_ft(Some(&inputs), faults.as_deref_mut())
                    .unwrap();
            }
            pack_params(cluster.chips[0].net())
        };
        let clean = run(None);
        let mut faults = FaultSession::new(FaultPlan::new(2024).corruption(0.2).max_retries(10));
        let noisy = run(Some(&mut faults));
        assert!(faults.report.corrupted_msgs > 0, "plan must corrupt");
        assert_eq!(faults.report.retries, faults.report.corrupted_msgs);
        assert!(faults.report.retry_cost_s > 0.0);
        for (i, (a, b)) in clean.iter().zip(&noisy).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "param {i}: {a} vs {b}");
        }
    }
}

#[cfg(test)]
mod io_tests {
    use super::*;
    use swcaffe_core::models;
    use swio::{IoModel, Layout};

    #[test]
    fn io_stall_appears_under_single_split_layout() {
        // With the degenerate single-split layout and many readers, the
        // disk cannot keep up with compute and the iteration stalls;
        // striping removes the stall.
        let def = models::tiny_cnn(8, 10);
        let batch_bytes = 192 << 20;
        let run = |layout: Layout| {
            let mut cluster = ClusterTrainer::new(
                &def,
                SolverConfig::default(),
                ClusterConfig {
                    supernode_size: 16,
                    io: Some((IoModel::taihulight(layout), batch_bytes)),
                    ..ClusterConfig::swcaffe(32)
                },
                ExecMode::TimingOnly,
            )
            .unwrap();
            cluster.iteration(None)
        };
        let single = run(Layout::SingleSplit);
        let striped = run(Layout::paper_striped());
        assert!(
            single.io_stall.seconds() > 1.0,
            "single-split must stall: {}",
            single.io_stall.seconds()
        );
        assert!(
            striped.io_stall.seconds() < single.io_stall.seconds() / 5.0,
            "striping must remove most of the stall: {} vs {}",
            striped.io_stall.seconds(),
            single.io_stall.seconds()
        );
        assert!(striped.total().seconds() < single.total().seconds());
    }
}

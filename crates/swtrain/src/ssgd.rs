//! Algorithm 1 / Fig. 5: synchronous SGD on one SW26010 processor.
//!
//! Four threads — one per core group — each run forward/backward on a
//! quarter of the mini-batch against their own model replica (each CG has
//! its own memory space on the real chip). The threads meet in the
//! handshake barrier, CG0 gathers and sums the gradients over the NoC and
//! its CPE cluster, the (optional) cross-node reduction runs, the solver
//! updates CG0's weights, and the new weights are re-broadcast to the
//! other core groups.

use sw26010::arch::CORE_GROUPS;
use sw26010::chip::noc_transfer_time;
use sw26010::{CoreGroup, ExecMode, SimTime};
use swcaffe_core::snapshot::SolverState;
use swcaffe_core::{GradReady, Net, NetDef, SgdSolver, SolverConfig};
use swdnn::elementwise as ew;

use crate::packing::{pack_gradients, pack_params, unpack_gradients, unpack_params};
use crate::sync::{HandshakeBarrier, HANDSHAKE_SECONDS};

/// One core group's `(data, labels)` input pair.
pub type CgBatch = (Vec<f32>, Vec<f32>);

/// Per-iteration timing breakdown of one chip.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChipIteration {
    pub loss: f32,
    /// Slowest core group's forward+backward time.
    pub compute: SimTime,
    /// Intra-chip gradient gather + sum + weight re-broadcast.
    pub intra: SimTime,
    /// Solver update.
    pub update: SimTime,
}

/// One simulated SW26010 node running Algorithm 1.
pub struct ChipTrainer {
    /// One model replica per core group (each CG owns its memory space).
    nets: Vec<Net>,
    cgs: Vec<CoreGroup>,
    solver: SgdSolver,
    mode: ExecMode,
    param_elems: usize,
    /// Per-CG sub-mini-batch size (the paper's b/4).
    pub cg_batch: usize,
}

impl ChipTrainer {
    /// `def` must be defined at the *per-CG* batch size (b/4).
    pub fn new(def: &NetDef, solver: SolverConfig, mode: ExecMode) -> Result<Self, String> {
        let materialize = mode.is_functional();
        let nets: Result<Vec<Net>, String> = (0..CORE_GROUPS)
            .map(|_| Net::from_def(def, materialize))
            .collect();
        let nets = nets?;
        let cg_batch = nets[0].blob("data").shape()[0];
        let param_elems = nets[0].param_len();
        Ok(ChipTrainer {
            nets,
            cgs: (0..CORE_GROUPS).map(|_| CoreGroup::new(mode)).collect(),
            solver: SgdSolver::new(solver),
            mode,
            param_elems,
            cg_batch,
        })
    }

    pub fn param_elems(&self) -> usize {
        self.param_elems
    }

    /// Hardware counters aggregated over all four core groups.
    pub fn stats(&self) -> sw26010::Stats {
        let mut s = sw26010::Stats::default();
        for cg in &self.cgs {
            s.merge(cg.stats());
        }
        s
    }

    /// Gradient bytes exchanged by the all-reduce.
    pub fn param_bytes(&self) -> usize {
        self.param_elems * 4
    }

    /// The chip's whole mini-batch (4 * b/4).
    pub fn chip_batch(&self) -> usize {
        CORE_GROUPS * self.cg_batch
    }

    /// Primary net (CG0's replica), e.g. for evaluation.
    pub fn net(&self) -> &Net {
        &self.nets[0]
    }

    pub(crate) fn net_mut(&mut self) -> &mut Net {
        &mut self.nets[0]
    }

    /// The chip's solver (iteration counter, LR schedule, momentum).
    pub fn solver(&self) -> &SgdSolver {
        &self.solver
    }

    /// Capture everything beyond the weights that a bit-identical resume
    /// needs (see [`swcaffe_core::snapshot::SolverState`]). The weights
    /// and persistent layer state travel separately, via the primary
    /// replica ([`ChipTrainer::net`]) and the snapshot body.
    pub(crate) fn solver_state(&self) -> SolverState {
        SolverState {
            iteration: self.solver.iter() as u64,
            momentum: self.solver.history().to_vec(),
            rng_streams: self.nets[0].rng_streams(),
        }
    }

    /// Restore a checkpoint onto this chip: write the packed weights,
    /// persistent layer state, and RNG streams into **every** core-group
    /// replica (each CG owns its memory space, so all four must agree,
    /// exactly as after [`ChipTrainer::apply_update`]'s re-broadcast) and
    /// reposition the solver.
    pub fn restore(
        &mut self,
        weights: &[f32],
        persistent: &[Vec<f32>],
        state: &SolverState,
    ) -> Result<(), String> {
        assert!(
            self.mode.is_functional(),
            "checkpoint restore needs functional mode"
        );
        for net in &mut self.nets {
            unpack_params(net, weights);
            let dsts = net.state_mut();
            if dsts.len() != persistent.len() {
                return Err(format!(
                    "checkpoint has {} persistent state vectors, net has {}",
                    persistent.len(),
                    dsts.len()
                ));
            }
            for (dst, src) in dsts.into_iter().zip(persistent) {
                if dst.len() != src.len() {
                    return Err("persistent state vector length mismatch".into());
                }
                dst.copy_from_slice(src);
            }
            net.set_rng_streams(&state.rng_streams)?;
        }
        self.solver
            .restore(state.iteration as usize, state.momentum.clone());
        Ok(())
    }

    /// Phases 1-3 of Algorithm 1: per-CG forward/backward (real threads),
    /// handshake sync, gradient gather+sum at CG0. Returns the mean loss,
    /// timing, and the *summed* (not yet averaged) packed gradient.
    pub fn compute_gradients(
        &mut self,
        inputs: Option<&[(Vec<f32>, Vec<f32>)]>,
    ) -> (ChipIteration, Vec<f32>) {
        let (report, packed, _) = self.compute_gradients_inner(inputs, false);
        (report, packed)
    }

    /// Like [`ChipTrainer::compute_gradients`], additionally collecting
    /// gradient-ready events for the overlapped communication mode:
    /// per-layer spans of the packed gradient with the *slowest* core
    /// group's ready time (a bucket cannot leave the chip before every
    /// CG's contribution is in), relative to the iteration start.
    pub fn compute_gradients_with_events(
        &mut self,
        inputs: Option<&[(Vec<f32>, Vec<f32>)]>,
    ) -> (ChipIteration, Vec<f32>, Vec<GradReady>) {
        self.compute_gradients_inner(inputs, true)
    }

    fn compute_gradients_inner(
        &mut self,
        inputs: Option<&[(Vec<f32>, Vec<f32>)]>,
        collect_events: bool,
    ) -> (ChipIteration, Vec<f32>, Vec<GradReady>) {
        let functional = self.mode.is_functional();
        if functional {
            let inputs = inputs.expect("functional training needs per-CG inputs");
            assert_eq!(inputs.len(), CORE_GROUPS);
        }
        let barrier = HandshakeBarrier::new(CORE_GROUPS);
        let before: Vec<SimTime> = self.cgs.iter().map(|c| c.elapsed()).collect();

        // pthread_create over the 4 CGs (Fig. 5).
        let outcomes: Vec<(f32, Vec<GradReady>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nets
                .iter_mut()
                .zip(self.cgs.iter_mut())
                .enumerate()
                .map(|(i, (net, cg))| {
                    let barrier = &barrier;
                    let input = inputs.map(|inp| &inp[i]);
                    let start = before[i];
                    s.spawn(move || {
                        if let Some((data, labels)) = input {
                            net.set_input("data", data);
                            net.set_input("label", labels);
                        }
                        net.zero_param_diffs();
                        let loss = net.forward(cg);
                        let events = if collect_events {
                            let mut ev = net.backward_with_events(cg);
                            for e in &mut ev {
                                e.ready = e.ready - start;
                            }
                            ev
                        } else {
                            net.backward(cg);
                            Vec::new()
                        };
                        barrier.wait();
                        cg.charge(SimTime::from_seconds(HANDSHAKE_SECONDS));
                        (loss, events)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("CG thread panicked"))
                .collect()
        });
        let losses: Vec<f32> = outcomes.iter().map(|(l, _)| *l).collect();
        let events = if collect_events {
            crate::buckets::merge_events(&outcomes.into_iter().map(|(_, e)| e).collect::<Vec<_>>())
        } else {
            Vec::new()
        };

        let compute = self
            .cgs
            .iter()
            .zip(&before)
            .map(|(c, b)| c.elapsed() - *b)
            .fold(SimTime::ZERO, SimTime::max);

        // CG0 gathers the other CGs' gradients over the NoC and sums them
        // on its CPE cluster.
        let intra_before = self.cgs[0].elapsed();
        let noc = noc_transfer_time(self.param_bytes());
        let mut packed = if functional {
            pack_gradients(&self.nets[0])
        } else {
            Vec::new()
        };
        for i in 1..CORE_GROUPS {
            self.cgs[0].charge(noc);
            if functional {
                let other = pack_gradients(&self.nets[i]);
                ew::axpy(
                    &mut self.cgs[0],
                    self.param_elems,
                    1.0,
                    Some((&other, &mut packed)),
                );
            } else {
                ew::axpy(&mut self.cgs[0], self.param_elems, 1.0, None);
            }
        }
        let intra = self.cgs[0].elapsed() - intra_before;

        let loss = losses.iter().sum::<f32>() / CORE_GROUPS as f32;
        (
            ChipIteration {
                loss,
                compute,
                intra,
                update: SimTime::ZERO,
            },
            packed,
            events,
        )
    }

    /// Phases 4-5: scale the summed gradient by `scale` (1/(4N) across the
    /// job), apply the SGD update on CG0, and re-broadcast the weights to
    /// the other core groups. Returns (update time, intra-chip broadcast
    /// time).
    pub fn apply_update(&mut self, packed: &mut [f32], scale: f32) -> (SimTime, SimTime) {
        let functional = self.mode.is_functional();
        let t0 = self.cgs[0].elapsed();
        if functional {
            ew::scale(
                &mut self.cgs[0],
                self.param_elems,
                scale,
                Some(&mut *packed),
            );
            unpack_gradients(&mut self.nets[0], packed);
        } else {
            ew::scale(&mut self.cgs[0], self.param_elems, scale, None);
        }
        // Solver step (split borrow of nets[0] vs cgs[0]).
        let (net0, cg0) = (&mut self.nets[0], &mut self.cgs[0]);
        self.solver.step(cg0, net0);
        let update = self.cgs[0].elapsed() - t0;

        // Weight re-broadcast over the NoC. Persistent layer state (batch
        // norm running mean/var) rides along: each replica's statistics
        // see only its quarter-batch, so without this CG0's `evaluate()`
        // would run on skewed statistics and the replicas would diverge.
        // The state is tiny next to the weights, so it shares the weight
        // broadcast's NoC charge below.
        let tb = self.cgs[0].elapsed();
        if functional {
            let weights = pack_params(&self.nets[0]);
            let state: Vec<Vec<f32>> = self.nets[0].state().iter().map(|s| s.to_vec()).collect();
            for i in 1..CORE_GROUPS {
                unpack_params(&mut self.nets[i], &weights);
                for (dst, src) in self.nets[i].state_mut().into_iter().zip(&state) {
                    dst.copy_from_slice(src);
                }
            }
        }
        let noc = noc_transfer_time(self.param_bytes());
        for _ in 1..CORE_GROUPS {
            self.cgs[0].charge(noc);
        }
        let bcast = self.cgs[0].elapsed() - tb;
        (update, bcast)
    }

    /// One complete single-node iteration (no cross-node reduction).
    pub fn iteration(&mut self, inputs: Option<&[(Vec<f32>, Vec<f32>)]>) -> ChipIteration {
        let (mut report, mut packed) = self.compute_gradients(inputs);
        let (update, bcast) = self.apply_update(&mut packed, 1.0 / CORE_GROUPS as f32);
        report.update = update;
        report.intra += bcast;
        report
    }

    /// Total per-iteration time of a single-node step.
    pub fn iteration_time(report: &ChipIteration) -> SimTime {
        report.compute + report.intra + report.update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcaffe_core::models;

    fn synth_inputs(
        cg_batch: usize,
        classes: usize,
        img: usize,
        seed: usize,
    ) -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..CORE_GROUPS)
            .map(|cgi| {
                let mut data = vec![0.0f32; cg_batch * img];
                let mut labels = vec![0.0f32; cg_batch];
                for b in 0..cg_batch {
                    let class = (b + cgi + seed) % classes;
                    labels[b] = class as f32;
                    for i in 0..img {
                        let noise = (((b * 131 + i * 31 + cgi * 7 + seed * 13) % 89) as f32 / 89.0
                            - 0.5)
                            * 0.2;
                        let stripe = (i * classes / img) == class;
                        data[b * img + i] = noise + if stripe { 1.0 } else { 0.0 };
                    }
                }
                (data, labels)
            })
            .collect()
    }

    #[test]
    fn four_cg_training_reduces_loss() {
        let def = models::tiny_cnn(2, 3); // per-CG batch 2 => chip batch 8
        let mut trainer = ChipTrainer::new(
            &def,
            SolverConfig {
                base_lr: 0.05,
                ..Default::default()
            },
            ExecMode::Functional,
        )
        .unwrap();
        assert_eq!(trainer.chip_batch(), 8);
        let img = 3 * 16 * 16;
        let first = trainer.iteration(Some(&synth_inputs(2, 3, img, 0))).loss;
        let mut last = first;
        for it in 1..20 {
            last = trainer
                .iteration(Some(&synth_inputs(2, 3, img, it % 3)))
                .loss;
        }
        assert!(
            last < 0.7 * first,
            "chip SSGD failed to learn: {first} -> {last}"
        );
    }

    #[test]
    fn replicas_stay_in_lockstep() {
        // After every iteration all four CG replicas hold identical
        // *full* snapshot state — weights AND persistent layer state
        // (batch-norm running statistics, which each CG accumulates from
        // its own quarter-batch and must receive back from CG0).
        let def = models::tiny_cnn(2, 3); // tiny_cnn includes a BN layer
        let mut trainer =
            ChipTrainer::new(&def, SolverConfig::default(), ExecMode::Functional).unwrap();
        assert!(
            !trainer.nets[0].state().is_empty(),
            "test net must carry persistent layer state"
        );
        let img = 3 * 16 * 16;
        let snapshot = |net: &Net| {
            let mut buf = Vec::new();
            swcaffe_core::snapshot::write_weights(net, &mut buf).unwrap();
            buf
        };
        for it in 0..3 {
            trainer.iteration(Some(&synth_inputs(2, 3, img, it)));
            let reference = snapshot(&trainer.nets[0]);
            for i in 1..CORE_GROUPS {
                assert_eq!(snapshot(&trainer.nets[i]), reference, "CG {i} diverged");
            }
        }
    }

    #[test]
    fn timing_mode_reports_costs() {
        let def = models::tiny_cnn(8, 10);
        let mut trainer =
            ChipTrainer::new(&def, SolverConfig::default(), ExecMode::TimingOnly).unwrap();
        let report = trainer.iteration(None);
        assert!(report.compute.seconds() > 0.0);
        assert!(report.intra.seconds() > 0.0);
        assert!(report.update.seconds() > 0.0);
        // Compute dominates the intra-chip bookkeeping for a conv net.
        assert!(report.compute.seconds() > report.intra.seconds());
    }

    #[test]
    fn chip_gradient_equals_sum_of_cg_gradients() {
        let def = models::tiny_cnn(2, 3);
        let mut trainer =
            ChipTrainer::new(&def, SolverConfig::default(), ExecMode::Functional).unwrap();
        let img = 3 * 16 * 16;
        let inputs = synth_inputs(2, 3, img, 5);
        let (_, packed) = trainer.compute_gradients(Some(&inputs));
        // Recompute per-CG gradients independently and sum.
        let mut want = vec![0.0f64; trainer.param_elems()];
        for (cgi, (data, labels)) in inputs.iter().enumerate() {
            let mut net = Net::from_def(&def, true).unwrap();
            let mut cg = CoreGroup::new(ExecMode::Functional);
            net.set_input("data", data);
            net.set_input("label", labels);
            net.zero_param_diffs();
            net.forward(&mut cg);
            net.backward(&mut cg);
            for (w, v) in want.iter_mut().zip(pack_gradients(&net)) {
                *w += v as f64;
            }
            let _ = cgi;
        }
        for (i, (g, w)) in packed.iter().zip(&want).enumerate() {
            assert!(
                (*g as f64 - w).abs() < 1e-3 * w.abs().max(1.0),
                "gradient {i}: {g} vs {w}"
            );
        }
    }
}

/// Evaluate a trained chip on held-out batches: switches the primary
/// replica to `Phase::Test` (running BN statistics, dropout off), runs
/// forward passes on CG0, and reports mean loss and accuracy.
pub fn evaluate(trainer: &mut ChipTrainer, batches: &[(Vec<f32>, Vec<f32>)]) -> (f32, f32) {
    use swcaffe_core::Phase;
    assert!(
        trainer.mode.is_functional(),
        "evaluation needs functional mode"
    );
    let net = &mut trainer.nets[0];
    net.set_phase(Phase::Test);
    let cg = &mut trainer.cgs[0];
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    for (data, labels) in batches {
        net.set_input("data", data);
        net.set_input("label", labels);
        loss_sum += net.forward(cg) as f64;
        if net.has_blob("accuracy") {
            acc_sum += net.blob("accuracy").data()[0] as f64;
        }
    }
    net.set_phase(Phase::Train);
    let n = batches.len().max(1) as f64;
    ((loss_sum / n) as f32, (acc_sum / n) as f32)
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use swcaffe_core::models;

    #[test]
    fn evaluation_improves_with_training() {
        let classes = 3;
        let def = models::tiny_cnn(2, classes);
        let mut trainer = ChipTrainer::new(
            &def,
            SolverConfig {
                base_lr: 0.05,
                ..Default::default()
            },
            ExecMode::Functional,
        )
        .unwrap();
        let img = 3 * 16 * 16;
        let make = |seed: usize| {
            let mut data = vec![0.0f32; 2 * img];
            let mut labels = vec![0.0f32; 2];
            for b in 0..2 {
                let class = (b + seed) % classes;
                labels[b] = class as f32;
                for i in 0..img {
                    let noise = (((b * 131 + i * 31 + seed * 13) % 89) as f32 / 89.0 - 0.5) * 0.2;
                    let stripe = (i * classes / img) == class;
                    data[b * img + i] = noise + if stripe { 1.0 } else { 0.0 };
                }
            }
            (data, labels)
        };
        let eval_set: Vec<(Vec<f32>, Vec<f32>)> = (0..4).map(make).collect();
        let (loss_before, _) = evaluate(&mut trainer, &eval_set);
        for it in 0..15 {
            let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..4).map(|cg| make(it + cg)).collect();
            trainer.iteration(Some(&inputs));
        }
        let (loss_after, acc_after) = evaluate(&mut trainer, &eval_set);
        assert!(
            loss_after < loss_before,
            "eval loss did not improve: {loss_before} -> {loss_after}"
        );
        assert!(acc_after > 0.4, "eval accuracy {acc_after}");
    }
}

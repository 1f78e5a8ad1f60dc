//! High-level training driver: wires the synthetic dataset, the striped-
//! filesystem prefetchers, the four-core-group chip trainer and periodic
//! evaluation into one loop — the `caffe train` analogue.

use sw26010::arch::CORE_GROUPS;
use sw26010::{ExecMode, SimTime};
use swcaffe_core::{NetDef, SolverConfig};
use swio::{io_stall, IoModel, Prefetcher, SyntheticImageNet};

use crate::ssgd::{evaluate, ChipTrainer};

/// Configuration of a single-node training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub solver: SolverConfig,
    /// Evaluate every `eval_every` iterations (0 = never).
    pub eval_every: usize,
    /// Held-out batches used for evaluation.
    pub eval_batches: usize,
    /// Restrict labels to the model's class count.
    pub classes: usize,
}

/// One row of the training log.
#[derive(Debug, Clone, Copy)]
pub struct TrainRecord {
    pub iter: usize,
    pub train_loss: f32,
    pub eval_loss: Option<f32>,
    pub eval_accuracy: Option<f32>,
    /// Simulated wall time of this iteration (compute + intra + update +
    /// I/O stall).
    pub iter_time: SimTime,
}

/// Single-node trainer with a real prefetch pipeline.
pub struct Trainer {
    chip: ChipTrainer,
    prefetcher: Prefetcher,
    config: TrainConfig,
    input_chw: (usize, usize, usize),
    eval_set: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Trainer {
    /// Build a trainer on a specific compute backend; `def` is at the
    /// per-CG batch size. `ExecMode::Functional` runs the simulated
    /// SW26010 mesh (timed); `ExecMode::HostNative` runs the same arithmetic
    /// on host threads with zero simulated time, so `iter_time` reflects
    /// only the I/O model.
    pub fn with_mode(
        def: &NetDef,
        dataset: SyntheticImageNet,
        io: IoModel,
        config: TrainConfig,
        mode: ExecMode,
    ) -> Result<Self, String> {
        let chip = ChipTrainer::new(def, config.solver, mode)?;
        let shape = chip.net().blob("data").shape().to_vec();
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let chip_batch = chip.chip_batch();
        let prefetcher = Prefetcher::spawn(dataset, io, 1, chip_batch, c, h, w, 1);
        // Deterministic held-out set drawn from a disjoint seed range.
        let cg_batch = chip.cg_batch;
        let mut eval_set = Vec::new();
        for i in 0..config.eval_batches {
            let mut data = vec![0.0f32; cg_batch * c * h * w];
            let mut labels = vec![0.0f32; cg_batch];
            dataset.fill_batch(
                1_000_000 + i as u64,
                cg_batch,
                c,
                h,
                w,
                &mut data,
                &mut labels,
            );
            for l in labels.iter_mut() {
                *l %= config.classes as f32;
            }
            eval_set.push((data, labels));
        }
        Ok(Trainer {
            chip,
            prefetcher,
            config,
            input_chw: (c, h, w),
            eval_set,
        })
    }

    /// Run `iters` iterations; returns the log, or the dataset read
    /// error (with the failing batch's seed) that ended the run early.
    pub fn run(&mut self, iters: usize) -> Result<Vec<TrainRecord>, String> {
        let (c, h, w) = self.input_chw;
        let per_img = c * h * w;
        let cg_batch = self.chip.cg_batch;
        let mut log = Vec::with_capacity(iters);
        for iter in 0..iters {
            let batch = self.prefetcher.next()?;
            let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..CORE_GROUPS)
                .map(|cg| {
                    let d = batch.data[cg * cg_batch * per_img..][..cg_batch * per_img].to_vec();
                    let mut l = batch.labels[cg * cg_batch..][..cg_batch].to_vec();
                    for v in l.iter_mut() {
                        *v %= self.config.classes as f32;
                    }
                    (d, l)
                })
                .collect();
            let report = self.chip.iteration(Some(&inputs));
            let compute = ChipTrainer::iteration_time(&report);
            let iter_time = compute + io_stall(batch.io_time, compute);

            let (eval_loss, eval_accuracy) = if self.config.eval_every > 0
                && (iter + 1).is_multiple_of(self.config.eval_every)
            {
                let (l, a) = evaluate(&mut self.chip, &self.eval_set);
                (Some(l), Some(a))
            } else {
                (None, None)
            };
            log.push(TrainRecord {
                iter,
                train_loss: report.loss,
                eval_loss,
                eval_accuracy,
                iter_time,
            });
        }
        Ok(log)
    }

    pub fn chip_mut(&mut self) -> &mut ChipTrainer {
        &mut self.chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swcaffe_core::models;
    use swio::Layout;

    #[test]
    fn trainer_loop_learns_and_logs() {
        let classes = 4;
        let def = models::tiny_cnn(2, classes);
        let config = TrainConfig {
            solver: SolverConfig {
                base_lr: 0.05,
                ..Default::default()
            },
            eval_every: 10,
            eval_batches: 3,
            classes,
        };
        let mut trainer = Trainer::with_mode(
            &def,
            SyntheticImageNet::new(512),
            IoModel::taihulight(Layout::paper_striped()),
            config,
            ExecMode::Functional,
        )
        .unwrap();
        let log = trainer.run(20).unwrap();
        assert_eq!(log.len(), 20);
        assert!(log.iter().all(|r| r.train_loss.is_finite()));
        assert!(log.iter().all(|r| r.iter_time.seconds() > 0.0));
        // Evaluations fired at iterations 9 and 19.
        let evals: Vec<&TrainRecord> = log.iter().filter(|r| r.eval_loss.is_some()).collect();
        assert_eq!(evals.len(), 2);
        // Training reduces the (noisy) loss on average.
        let head: f32 = log[..5].iter().map(|r| r.train_loss).sum::<f32>() / 5.0;
        let tail: f32 = log[15..].iter().map(|r| r.train_loss).sum::<f32>() / 5.0;
        assert!(tail < head, "loss did not trend down: {head} -> {tail}");
    }
}

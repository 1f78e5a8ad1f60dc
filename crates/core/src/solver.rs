//! SGD solver — the third Caffe component (Sec. II-C), where the paper
//! hooks its distributed-training extensions: the solver exposes a
//! gradient-reduction callback that the multi-node trainer (crate
//! `swtrain`) fills with the packed all-reduce.

use sw26010::CoreGroup;
use swdnn::elementwise as ew;

use crate::net::Net;

/// Learning-rate schedule (Caffe's `lr_policy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    Fixed,
    /// `base * gamma^(iter / step)`.
    Step {
        gamma: f32,
        step: usize,
    },
    /// `base * (1 + gamma * iter)^(-power)`.
    Inv {
        gamma: f32,
        power: f32,
    },
    /// `base * (1 - iter/max_iter)^power`.
    Poly {
        power: f32,
        max_iter: usize,
    },
}

/// Solver hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    pub base_lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub policy: LrPolicy,
    /// Layer-wise adaptive rate scaling (You et al. \[12\], the large-batch
    /// method the paper points to for scaling beyond 32K): when set, each
    /// parameter blob's learning rate is multiplied by
    /// `trust * ||w|| / (||g|| + decay * ||w||)`.
    pub lars_trust: Option<f32>,
    /// Nesterov momentum (Sutskever formulation): the update applies
    /// `momentum * v + lr * grad` instead of `v`.
    pub nesterov: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            base_lr: 0.01,
            momentum: 0.9,
            weight_decay: 5e-4,
            policy: LrPolicy::Fixed,
            lars_trust: None,
            nesterov: false,
        }
    }
}

impl SolverConfig {
    /// Learning rate at an iteration.
    pub(crate) fn lr_at(&self, iter: usize) -> f32 {
        match self.policy {
            LrPolicy::Fixed => self.base_lr,
            LrPolicy::Step { gamma, step } => {
                self.base_lr * gamma.powi((iter / step.max(1)) as i32)
            }
            LrPolicy::Inv { gamma, power } => {
                self.base_lr * (1.0 + gamma * iter as f32).powf(-power)
            }
            LrPolicy::Poly { power, max_iter } => {
                let frac = 1.0 - (iter as f32 / max_iter.max(1) as f32).min(1.0);
                self.base_lr * frac.powf(power)
            }
        }
    }
}

/// SGD with momentum and L2 weight decay.
pub struct SgdSolver {
    config: SolverConfig,
    iter: usize,
    /// Momentum buffers, one per parameter blob (host-resident optimizer
    /// state, as in Caffe).
    history: Vec<Vec<f32>>,
}

impl SgdSolver {
    pub fn new(config: SolverConfig) -> Self {
        SgdSolver {
            config,
            iter: 0,
            history: Vec::new(),
        }
    }

    pub fn iter(&self) -> usize {
        self.iter
    }

    /// Momentum buffers, one per parameter blob — empty until the first
    /// [`step`](Self::step). Checkpoint payload.
    pub fn history(&self) -> &[Vec<f32>] {
        &self.history
    }

    /// Restore optimiser state captured from another solver: the
    /// iteration counter (which also positions the LR schedule, since
    /// every policy is a pure function of it) and the momentum buffers.
    pub fn restore(&mut self, iter: usize, history: Vec<Vec<f32>>) {
        self.iter = iter;
        self.history = history;
    }

    /// One optimisation step over the net's current gradients:
    /// `v = momentum*v + lr*(grad + decay*w); w -= v`.
    ///
    /// The vector arithmetic runs on the CPE cluster (charged through
    /// `cg`); the momentum state is host-managed.
    pub fn step(&mut self, cg: &mut CoreGroup, net: &mut Net) {
        let lr = self.config.lr_at(self.iter);
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;
        let mut params = net.params_mut();
        if self.history.is_empty() {
            self.history = params
                .iter()
                .map(|p| {
                    if p.materialized() {
                        vec![0.0; p.len()]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
        }
        assert_eq!(self.history.len(), params.len(), "parameter set changed");
        for (p, hist) in params.iter_mut().zip(&mut self.history) {
            let len = p.len();
            if p.materialized() {
                // LARS local rate (computed before decay folds into grad).
                let local = match self.config.lars_trust {
                    Some(trust) => {
                        let (w_sq, _) = ew::sumsq(cg, len, Some(p.data()));
                        let (g_sq, _) = ew::sumsq(cg, len, Some(p.diff()));
                        let (wn, gn) = (w_sq.sqrt(), g_sq.sqrt());
                        if wn > 0.0 && gn > 0.0 {
                            (trust as f64 * wn / (gn + decay as f64 * wn)) as f32
                        } else {
                            1.0
                        }
                    }
                    None => 1.0,
                };
                // Decay: grad += decay * w.
                {
                    let (data, diff) = p.data_and_diff_mut();
                    ew::axpy(cg, len, decay, Some((data, diff)));
                }
                // Momentum: v = momentum * v + local_lr * grad.
                ew::scale(cg, len, momentum, Some(hist));
                ew::axpy(cg, len, lr * local, Some((p.diff(), hist)));
                if self.config.nesterov {
                    // w -= momentum * v + lr * grad (look-ahead step).
                    let hist_ref: &[f32] = hist;
                    ew::axpy(cg, len, -momentum, Some((hist_ref, p.data_mut())));
                    // axpy reads x (= diff) and updates y (= data).
                    let (diff, data) = p.diff_and_data_mut();
                    ew::axpy(cg, len, -(lr * local), Some((diff, data)));
                } else {
                    // Update: w -= v.
                    let hist_ref: &[f32] = hist;
                    ew::axpy(cg, len, -1.0, Some((hist_ref, p.data_mut())));
                }
            } else {
                if self.config.lars_trust.is_some() {
                    ew::sumsq(cg, len, None);
                    ew::sumsq(cg, len, None);
                }
                ew::axpy(cg, len, decay, None);
                ew::scale(cg, len, momentum, None);
                ew::axpy(cg, len, lr, None);
                ew::axpy(cg, len, -1.0, None);
                if self.config.nesterov {
                    ew::axpy(cg, len, -1.0, None);
                }
            }
        }
        self.iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::net::Net;
    use sw26010::{CoreGroup, ExecMode};

    #[test]
    fn lars_scales_updates_by_layer_norms() {
        // Two iterations of the same gradients, one with LARS: blobs with
        // large weight/gradient norm ratios must move further relative to
        // plain SGD.
        let def = models::tiny_cnn(2, 3);
        let run = |lars: Option<f32>| -> Vec<f32> {
            let mut net = Net::from_def(&def, true).unwrap();
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut solver = SgdSolver::new(SolverConfig {
                base_lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.0,
                lars_trust: lars,
                ..Default::default()
            });
            for p in net.params_mut() {
                for (i, g) in p.diff_mut().iter_mut().enumerate() {
                    *g = ((i % 5) as f32 - 2.0) * 0.01;
                }
            }
            solver.step(&mut cg, &mut net);
            net.params()
                .iter()
                .flat_map(|p| p.data().to_vec().into_iter())
                .collect()
        };
        let plain = run(None);
        let lars = run(Some(0.01));
        assert_ne!(plain, lars, "LARS must change the update");
        assert!(lars.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nesterov_differs_from_plain_momentum() {
        let def = models::tiny_cnn(2, 3);
        let run = |nesterov: bool| -> Vec<f32> {
            let mut net = Net::from_def(&def, true).unwrap();
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut solver = SgdSolver::new(SolverConfig {
                base_lr: 0.1,
                momentum: 0.9,
                weight_decay: 0.0,
                nesterov,
                ..Default::default()
            });
            for _ in 0..2 {
                for p in net.params_mut() {
                    for (i, g) in p.diff_mut().iter_mut().enumerate() {
                        *g = ((i % 3) as f32 - 1.0) * 0.05;
                    }
                }
                solver.step(&mut cg, &mut net);
            }
            net.params()
                .iter()
                .flat_map(|p| p.data().to_vec().into_iter())
                .collect()
        };
        let plain = run(false);
        let nest = run(true);
        assert_ne!(plain, nest);
        assert!(nest.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lr_policies() {
        let mut c = SolverConfig {
            base_lr: 1.0,
            ..Default::default()
        };
        c.policy = LrPolicy::Fixed;
        assert_eq!(c.lr_at(100), 1.0);
        c.policy = LrPolicy::Step {
            gamma: 0.1,
            step: 10,
        };
        assert!((c.lr_at(0) - 1.0).abs() < 1e-6);
        assert!((c.lr_at(10) - 0.1).abs() < 1e-6);
        assert!((c.lr_at(25) - 0.01).abs() < 1e-6);
        c.policy = LrPolicy::Poly {
            power: 1.0,
            max_iter: 100,
        };
        assert!((c.lr_at(50) - 0.5).abs() < 1e-6);
        assert!((c.lr_at(200) - 0.0).abs() < 1e-6);
        c.policy = LrPolicy::Inv {
            gamma: 1.0,
            power: 1.0,
        };
        assert!((c.lr_at(1) - 0.5).abs() < 1e-6);
    }
}

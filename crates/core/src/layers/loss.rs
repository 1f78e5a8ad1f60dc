//! Loss and metric layers: SoftmaxWithLoss and Accuracy.

use sw26010::CoreGroup;
use swdnn::softmax::{self, SoftmaxBwdOperands, SoftmaxFwdOperands};

use crate::blob::Blob;
use crate::layer::Layer;

/// Softmax + multinomial cross-entropy (Caffe's `SoftmaxWithLoss`).
/// Bottoms: `[logits (B, C), labels (B)]`; top: `[loss (1)]`.
pub(crate) struct SoftmaxLossLayer {
    name: String,
    batch: usize,
    classes: usize,
    probs: Vec<f32>,
    losses: Vec<f32>,
}

impl SoftmaxLossLayer {
    pub fn new(name: &str, logits: &[usize], materialize: bool) -> Self {
        let batch = logits[0];
        let classes = logits[1..].iter().product();
        let (probs, losses) = if materialize {
            (vec![0.0; batch * classes], vec![0.0; batch])
        } else {
            (Vec::new(), Vec::new())
        };
        SoftmaxLossLayer {
            name: name.into(),
            batch,
            classes,
            probs,
            losses,
        }
    }
}

impl Layer for SoftmaxLossLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "SoftmaxWithLoss"
    }

    fn is_loss(&self) -> bool {
        true
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        if cg.mode().is_functional() {
            softmax::forward(
                cg,
                self.batch,
                self.classes,
                Some(SoftmaxFwdOperands {
                    logits: bottoms[0].data(),
                    labels: bottoms[1].data(),
                    probs: &mut self.probs,
                    losses: &mut self.losses,
                }),
            );
            // Final scalar reduction runs on the MPE (tiny).
            cg.mpe_compute(self.batch as u64);
            let mean = self.losses.iter().map(|v| *v as f64).sum::<f64>() / self.batch as f64;
            tops[0].data_mut()[0] = mean as f32;
        } else {
            softmax::forward(cg, self.batch, self.classes, None);
            cg.mpe_compute(self.batch as u64);
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        _tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        if !pd[0] {
            return;
        }
        let w = 1.0 / self.batch as f32;
        if cg.mode().is_functional() {
            // Labels blob precedes logits diff in the borrow order.
            let labels: Vec<f32> = bottoms[1].data().to_vec();
            softmax::backward(
                cg,
                self.batch,
                self.classes,
                w,
                Some(SoftmaxBwdOperands {
                    probs: &self.probs,
                    labels: &labels,
                    in_grad: bottoms[0].diff_mut(),
                }),
            );
        } else {
            softmax::backward(cg, self.batch, self.classes, w, None);
        }
    }
}

/// Top-k accuracy metric (host-evaluated; no backward).
pub(crate) struct AccuracyLayer {
    name: String,
    top_k: usize,
    batch: usize,
    classes: usize,
}

impl AccuracyLayer {
    pub fn new(name: &str, top_k: usize, scores: &[usize]) -> Self {
        AccuracyLayer {
            name: name.into(),
            top_k: top_k.max(1),
            batch: scores[0],
            classes: scores[1..].iter().product(),
        }
    }
}

impl Layer for AccuracyLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Accuracy"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        // Metric bookkeeping runs on the MPE.
        cg.mpe_compute((self.batch * self.classes) as u64);
        if !cg.mode().is_functional() {
            return;
        }
        let scores = bottoms[0].data();
        let labels = bottoms[1].data();
        let mut hits = 0usize;
        for b in 0..self.batch {
            let row = &scores[b * self.classes..][..self.classes];
            let target = row[softmax::label_class(labels[b], self.classes, b)];
            let better = row.iter().filter(|v| **v > target).count();
            if better < self.top_k {
                hits += 1;
            }
        }
        tops[0].data_mut()[0] = hits as f32 / self.batch as f32;
    }

    fn backward(&mut self, _cg: &mut CoreGroup, _t: &[&Blob], _b: &mut [&mut Blob], _p: &[bool]) {}
}

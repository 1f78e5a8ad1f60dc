//! Seeded random net definitions: a definition builds exactly when the
//! graph lint's shape pass accepts it, and every blob of the built net
//! has the shape the lint's table gives it.
//!
//! The generator draws small NCHW nets from every layer family a trainer
//! uses (convolution, pooling, ReLU, batch norm, inner product, dropout,
//! concat, eltwise sum, TensorTransform pairs, loss heads), with bad
//! parameters (zero kernel or stride, a window larger than the padded
//! input, mismatched eltwise and concat operands, 2-d blobs fed to 4-d
//! layers) and bad wiring (undefined bottoms, duplicate and in-place
//! tops, wrong top and bottom counts) mixed in.

use swcaffe_core::lint::infer_shapes;
use swcaffe_core::rng::SplitMix64;
use swcaffe_core::{ConvFormat, LayerKind, Net, NetDef, PoolKind, TransDir};

const SEEDS: u64 = 2000;

struct Gen {
    rng: SplitMix64,
    def: NetDef,
    blobs: Vec<String>,
    next: usize,
}

impl Gen {
    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.rng.next_f64() < p
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}{}", self.next)
    }

    /// A bottom: usually the latest blob, sometimes an earlier one, now
    /// and then a name no layer produces.
    fn bottom(&mut self) -> String {
        if self.chance(0.02) {
            return "ghost".into();
        }
        let n = self.blobs.len();
        let i = if self.chance(0.75) {
            n - 1
        } else {
            self.below(n)
        };
        self.blobs[i].clone()
    }

    /// Append a layer with `bottoms`; its tops are usually one fresh
    /// blob, sometimes an existing blob, one of its own bottoms, two
    /// tops or none.
    fn push(&mut self, kind: LayerKind, bottoms: Vec<String>) {
        let name = self.fresh("l");
        let roll = self.rng.next_f64();
        let tops = if roll < 0.015 && !bottoms.is_empty() {
            vec![bottoms[0].clone()]
        } else if roll < 0.03 {
            let i = self.below(self.blobs.len());
            vec![self.blobs[i].clone()]
        } else if roll < 0.04 {
            vec![self.fresh("b"), self.fresh("b")]
        } else if roll < 0.045 {
            Vec::new()
        } else {
            vec![self.fresh("b")]
        };
        let b: Vec<&str> = bottoms.iter().map(String::as_str).collect();
        let t: Vec<&str> = tops.iter().map(String::as_str).collect();
        let def = std::mem::replace(&mut self.def, NetDef::new(""));
        self.def = def.layer(&name, kind, &b, &t);
        self.blobs.extend(tops);
    }

    /// The bottoms of a one-bottom layer: now and then none or two.
    fn one(&mut self) -> Vec<String> {
        match self.below(60) {
            0 => Vec::new(),
            1 => vec![self.bottom(), self.bottom()],
            _ => vec![self.bottom()],
        }
    }

    /// One layer drawn from every family, with its bottoms.
    fn layer(&mut self) {
        match self.below(11) {
            0 | 1 => {
                let kernel = self.below(5);
                let stride = if self.chance(0.05) {
                    0
                } else {
                    1 + self.below(2)
                };
                let pad = self.below(3);
                let bias = self.chance(0.5);
                let num_output = 1 + self.below(4);
                let bottoms = self.one();
                let kind = if self.chance(0.15) {
                    LayerKind::FusedConvBnRelu {
                        num_output,
                        kernel,
                        stride,
                        pad,
                        bias,
                        eps: 1e-5,
                    }
                } else {
                    LayerKind::Convolution {
                        num_output,
                        kernel,
                        stride,
                        pad,
                        bias,
                        format: if self.chance(0.3) {
                            ConvFormat::Rcnb
                        } else {
                            ConvFormat::Nchw
                        },
                    }
                };
                self.push(kind, bottoms);
            }
            2 => {
                let kind = LayerKind::Pooling {
                    kernel: self.below(6),
                    stride: 1 + self.below(3),
                    pad: self.below(3),
                    method: if self.chance(0.5) {
                        PoolKind::Max
                    } else {
                        PoolKind::Average
                    },
                };
                let bottoms = self.one();
                self.push(kind, bottoms);
            }
            3 => {
                let bottoms = self.one();
                self.push(LayerKind::ReLU, bottoms);
            }
            4 => {
                let bottoms = self.one();
                let kind = LayerKind::BatchNorm {
                    eps: 1e-5,
                    momentum: 0.9,
                };
                self.push(kind, bottoms);
            }
            5 => {
                let kind = LayerKind::InnerProduct {
                    num_output: 1 + self.below(5),
                    bias: self.chance(0.5),
                };
                let bottoms = self.one();
                self.push(kind, bottoms);
            }
            6 => {
                let ratio = self.below(9) as f32 / 10.0;
                let bottoms = self.one();
                self.push(LayerKind::Dropout { ratio }, bottoms);
            }
            7 => {
                let bottoms = (0..self.below(4)).map(|_| self.bottom()).collect();
                self.push(LayerKind::Concat, bottoms);
            }
            8 => {
                // Usually two views of one blob, sometimes two blobs.
                let a = self.bottom();
                let b = if self.chance(0.6) {
                    a.clone()
                } else {
                    self.bottom()
                };
                let bottoms = if self.chance(0.03) {
                    vec![a]
                } else {
                    vec![a, b]
                };
                self.push(LayerKind::EltwiseSum, bottoms);
            }
            9 => {
                // A TensorTransform pair around an implicit region.
                let bottoms = self.one();
                self.push(
                    LayerKind::TensorTransform {
                        dir: TransDir::NchwToRcnb,
                    },
                    bottoms,
                );
                let bottoms = self.one();
                self.push(
                    LayerKind::TensorTransform {
                        dir: TransDir::RcnbToNchw,
                    },
                    bottoms,
                );
            }
            _ => {
                let kind = LayerKind::Lrn {
                    local_size: 1 + 2 * self.below(2),
                    alpha: 1e-4,
                    beta: 0.75,
                    k: 1.0,
                };
                let bottoms = self.one();
                self.push(kind, bottoms);
            }
        }
    }
}

/// A small random definition: an Input, up to eight layers, and usually a
/// loss head against the labels.
fn random_def(seed: u64) -> NetDef {
    let mut g = Gen {
        rng: SplitMix64::new(seed),
        def: NetDef::new(format!("random{seed}")),
        blobs: Vec::new(),
        next: 0,
    };
    let batch = 1 + g.below(3);
    let mut shape = vec![batch, 1 + g.below(4), 1 + g.below(8), 1 + g.below(8)];
    if g.chance(0.05) {
        shape.truncate(2);
    }
    if g.chance(0.02) {
        shape[1] = 0;
    }
    let with_labels = g.chance(0.7);
    let mut tops = vec!["data".to_string()];
    if with_labels {
        tops.push("label".into());
    }
    let t: Vec<&str> = tops.iter().map(String::as_str).collect();
    g.def = g
        .def
        .layer("data", LayerKind::Input { shape, with_labels }, &[], &t);
    g.blobs.push("data".into());
    for _ in 0..1 + g.below(8) {
        g.layer();
    }
    if with_labels && g.chance(0.8) {
        let scores = g.bottom();
        let labels = if g.chance(0.05) {
            g.bottom()
        } else {
            "label".into()
        };
        let kind = if g.chance(0.7) {
            LayerKind::SoftmaxWithLoss
        } else {
            LayerKind::Accuracy {
                top_k: 1 + g.below(3),
            }
        };
        g.push(kind, vec![scores, labels]);
    }
    g.def
}

#[test]
fn a_definition_builds_iff_it_lints_clean() {
    let (mut built, mut rejected) = (0, 0);
    for seed in 0..SEEDS {
        let def = random_def(seed);
        let table = infer_shapes(&def);
        for materialize in [false, true] {
            let net = Net::from_def_seeded(&def, materialize, seed);
            match (&table, &net) {
                (Ok(table), Ok(net)) => {
                    for (name, shape) in table {
                        assert_eq!(
                            net.blob(name).shape(),
                            &shape[..],
                            "seed {seed}: blob '{name}' of {}",
                            def.to_json()
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (t, n) => panic!(
                    "seed {seed}, materialize {materialize}: lint {:?}, net {:?}\n{}",
                    t.as_ref().err(),
                    n.as_ref().err(),
                    def.to_json()
                ),
            }
        }
        if table.is_ok() {
            built += 1;
        } else {
            rejected += 1;
        }
    }
    // Both sides of the property are exercised.
    assert!(
        built >= SEEDS / 5,
        "only {built} of {SEEDS} definitions build"
    );
    assert!(
        rejected >= SEEDS / 5,
        "only {rejected} of {SEEDS} definitions are rejected"
    );
}

//! Inner-product (fully-connected) layer: the register-communication GEMM
//! applied to `(batch, features)` matrices (Sec. IV-A).

use sw26010::CoreGroup;
use swdnn::elementwise as ew;
use swdnn::gemm::{self, GemmOperands};
use swdnn::{GemmDims, Trans};

use crate::blob::Blob;
use crate::filler::Filler;
use crate::layer::Layer;

/// Fully-connected layer: `Y (B x out) = X (B x D) * W^T + bias`.
pub struct InnerProductLayer {
    name: String,
    num_output: usize,
    in_features: usize,
    batch: usize,
    /// `(num_output, in_features)` row-major, Caffe's layout.
    weights: Blob,
    bias: Option<Blob>,
    seed: u64,
}

impl InnerProductLayer {
    pub fn new(name: &str, num_output: usize, bias: bool) -> Self {
        InnerProductLayer {
            name: name.into(),
            num_output,
            in_features: 0,
            batch: 0,
            weights: Blob::default(),
            bias: bias.then(Blob::default),
            seed: crate::rng::layer_seed(0, name),
        }
    }

    /// Re-derive the filler seed from an explicit run-level base seed
    /// (see [`crate::rng::layer_seed`]). Must be called before `setup`.
    pub(crate) fn with_base_seed(mut self, base: u64) -> Self {
        self.seed = crate::rng::layer_seed(base, &self.name);
        self
    }
}

impl Layer for InnerProductLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "InnerProduct"
    }

    fn setup(
        &mut self,
        bottoms: &[Vec<usize>],
        materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String> {
        let shape = &bottoms[0];
        if shape.is_empty() {
            return Err("InnerProduct bottom must have at least one axis".into());
        }
        self.batch = shape[0];
        self.in_features = shape[1..].iter().product();
        self.weights = Blob::with_mode(&[self.num_output, self.in_features], materialize);
        if materialize {
            Filler::Xavier.fill(self.weights.data_mut(), self.in_features, self.seed);
        }
        if let Some(bias) = &mut self.bias {
            *bias = Blob::with_mode(&[self.num_output], materialize);
        }
        Ok(vec![vec![self.batch, self.num_output]])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let functional = cg.mode().is_functional();
        let dims = GemmDims::new(self.batch, self.num_output, self.in_features);
        if functional {
            gemm::gemm(
                cg,
                dims,
                Trans::No,
                Trans::Yes,
                0.0,
                Some(GemmOperands {
                    a: bottoms[0].data(),
                    b: self.weights.data(),
                    c: tops[0].data_mut(),
                }),
            );
        } else {
            gemm::gemm(cg, dims, Trans::No, Trans::Yes, 0.0, None);
        }
        if let Some(bias) = &self.bias {
            let io = functional.then(|| (bias.data(), tops[0].data_mut()));
            ew::bias_rows(cg, self.batch, self.num_output, io);
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        let functional = cg.mode().is_functional();
        if let Some(bias) = &mut self.bias {
            let io = functional.then(|| (tops[0].diff(), bias.diff_mut()));
            ew::col_sums(cg, self.batch, self.num_output, io);
        }
        // dW (out x D) = dY^T (out x B) x X (B x D).
        let dw_dims = GemmDims::new(self.num_output, self.in_features, self.batch);
        if functional {
            let (x_data, x_diff) = bottoms[0].data_and_diff_mut();
            let (w_data, w_diff) = self.weights.data_and_diff_mut();
            gemm::gemm(
                cg,
                dw_dims,
                Trans::Yes,
                Trans::No,
                0.0,
                Some(GemmOperands {
                    a: tops[0].diff(),
                    b: x_data,
                    c: w_diff,
                }),
            );
            if pd[0] {
                // dX (B x D) = dY (B x out) x W (out x D).
                gemm::gemm(
                    cg,
                    GemmDims::new(self.batch, self.in_features, self.num_output),
                    Trans::No,
                    Trans::No,
                    0.0,
                    Some(GemmOperands {
                        a: tops[0].diff(),
                        b: w_data,
                        c: x_diff,
                    }),
                );
            }
        } else {
            gemm::gemm(cg, dw_dims, Trans::Yes, Trans::No, 0.0, None);
            if pd[0] {
                gemm::gemm(
                    cg,
                    GemmDims::new(self.batch, self.in_features, self.num_output),
                    Trans::No,
                    Trans::No,
                    0.0,
                    None,
                );
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Blob> {
        let mut out = vec![&mut self.weights];
        if let Some(b) = &mut self.bias {
            out.push(b);
        }
        out
    }

    fn params(&self) -> Vec<&Blob> {
        let mut out = vec![&self.weights];
        if let Some(b) = &self.bias {
            out.push(b);
        }
        out
    }
}

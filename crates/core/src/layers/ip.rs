//! Inner-product (fully-connected) layer: the register-communication GEMM
//! applied to `(batch, features)` matrices (Sec. IV-A).

use std::sync::Arc;

use sw26010::CoreGroup;
use swdnn::elementwise as ew;
use swdnn::gemm::{self, GemmOperands};
use swdnn::host::PackedB;
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
    /// `weights` as the forward GEMM's B panels, shared with every other
    /// net a frozen graph builds (see [`Layer::share_packed_weights`]).
    packed: Option<Arc<PackedB>>,
}

impl InnerProductLayer {
    /// A `num_output`-wide layer over `bottom` (the batch axis first,
    /// every later axis flattened into the features), its weights
    /// Xavier-filled from `seed` when `materialize` is set. `bottom`
    /// needs at least one axis.
    pub fn new(
        name: &str,
        num_output: usize,
        bias: bool,
        bottom: &[usize],
        materialize: bool,
        seed: u64,
    ) -> Self {
        let in_features = bottom[1..].iter().product();
        let mut weights = Blob::with_mode(&[num_output, in_features], materialize);
        if materialize {
            Filler::Xavier.fill(weights.data_mut(), in_features, seed);
        }
        InnerProductLayer {
            name: name.into(),
            num_output,
            in_features,
            batch: bottom[0],
            weights,
            bias: bias.then(|| Blob::with_mode(&[num_output], materialize)),
            packed: None,
        }
    }
}

impl Layer for InnerProductLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "InnerProduct"
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let functional = cg.mode().is_functional();
        let dims = GemmDims::new(self.batch, self.num_output, self.in_features);
        let ops = functional.then(|| GemmOperands {
            a: bottoms[0].data(),
            b: self.weights.data(),
            c: tops[0].data_mut(),
        });
        match &self.packed {
            Some(p) => gemm::gemm_prepacked(cg, dims, Trans::No, Trans::Yes, 0.0, ops, p),
            None => gemm::gemm(cg, dims, Trans::No, Trans::Yes, 0.0, ops),
        };
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
        // The weights may change from here on: panels packed from them
        // would be stale.
        self.packed = None;
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

    fn pack_weights(&self) -> Option<PackedB> {
        self.weights.materialized().then(|| {
            let (k, n) = (self.in_features, self.num_output);
            PackedB::new(Trans::Yes, k, n, self.weights.data())
        })
    }

    fn share_packed_weights(&mut self, panels: Arc<PackedB>) -> Result<(), String> {
        let want = (self.in_features, self.num_output);
        if panels.dims() != want {
            return Err(format!(
                "layer '{}': packed weights are {:?} (k, n), the layer multiplies by {want:?}",
                self.name,
                panels.dims()
            ));
        }
        self.packed = Some(panels);
        Ok(())
    }
}

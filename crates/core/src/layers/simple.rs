//! Structural and element-wise layers: Input, ReLU, Dropout, EltwiseSum,
//! Concat, TensorTransform.

use sw26010::CoreGroup;
use swdnn::elementwise as ew;
use swdnn::transform::{self, TransShape};

use crate::blob::Blob;
use crate::layer::{expect_4d, Layer, Phase};
use crate::netdef::TransDir;

// ---------------------------------------------------------------------

/// Source layer: produces the data blob (and optionally a label blob);
/// contents are injected by the trainer.
pub(crate) struct InputLayer {
    name: String,
    shape: Vec<usize>,
    with_labels: bool,
}

impl InputLayer {
    pub fn new(name: &str, shape: Vec<usize>, with_labels: bool) -> Self {
        InputLayer {
            name: name.into(),
            shape,
            with_labels,
        }
    }
}

impl Layer for InputLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Input"
    }

    fn setup(
        &mut self,
        bottoms: &[Vec<usize>],
        _materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String> {
        if !bottoms.is_empty() {
            return Err("Input layer takes no bottoms".into());
        }
        let mut tops = vec![self.shape.clone()];
        if self.with_labels {
            tops.push(vec![self.shape[0]]);
        }
        Ok(tops)
    }

    fn forward(&mut self, _cg: &mut CoreGroup, _bottoms: &[&Blob], _tops: &mut [&mut Blob]) {}

    fn backward(&mut self, _cg: &mut CoreGroup, _t: &[&Blob], _b: &mut [&mut Blob], _p: &[bool]) {}
}

// ---------------------------------------------------------------------

/// Rectified linear unit.
pub(crate) struct ReluLayer {
    name: String,
    len: usize,
}

impl ReluLayer {
    pub fn new(name: &str) -> Self {
        ReluLayer {
            name: name.into(),
            len: 0,
        }
    }
}

impl Layer for ReluLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "ReLU"
    }

    fn setup(&mut self, bottoms: &[Vec<usize>], _m: bool) -> Result<Vec<Vec<usize>>, String> {
        self.len = bottoms[0].iter().product();
        Ok(vec![bottoms[0].clone()])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let io = cg
            .mode()
            .is_functional()
            .then(|| (bottoms[0].data(), tops[0].data_mut()));
        ew::relu_forward(cg, self.len, io);
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        if !pd[0] {
            return;
        }
        if cg.mode().is_functional() {
            let (x, dx) = bottoms[0].data_and_diff_mut();
            ew::relu_backward(cg, self.len, Some((tops[0].diff(), x, dx)));
        } else {
            ew::relu_backward(cg, self.len, None);
        }
    }
}

// ---------------------------------------------------------------------

/// Dropout: the mask is drawn host-side each forward pass (Bernoulli,
/// scaled by `1/(1-ratio)`), applied on the CPE cluster.
pub(crate) struct DropoutLayer {
    name: String,
    ratio: f32,
    len: usize,
    mask: Vec<f32>,
    rng_state: u64,
    phase: Phase,
}

impl DropoutLayer {
    pub fn new(name: &str, ratio: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&ratio),
            "dropout ratio must be in [0, 1)"
        );
        DropoutLayer {
            name: name.into(),
            ratio,
            len: 0,
            mask: Vec::new(),
            rng_state: 0x1234_5678,
            phase: Phase::Train,
        }
    }

    fn draw_mask(&mut self) {
        let scale = 1.0 / (1.0 - self.ratio);
        let mut s = self.rng_state;
        for m in self.mask.iter_mut() {
            // xorshift64*
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let u = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32;
            *m = if u < self.ratio { 0.0 } else { scale };
        }
        self.rng_state = s;
    }
}

impl Layer for DropoutLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Dropout"
    }

    fn setup(
        &mut self,
        bottoms: &[Vec<usize>],
        materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String> {
        self.len = bottoms[0].iter().product();
        if materialize {
            self.mask = vec![0.0; self.len];
        }
        Ok(vec![bottoms[0].clone()])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        match self.phase {
            Phase::Train => {
                if cg.mode().is_functional() {
                    self.draw_mask();
                    ew::apply_mask(
                        cg,
                        self.len,
                        Some((bottoms[0].data(), &self.mask, tops[0].data_mut())),
                    );
                } else {
                    ew::apply_mask(cg, self.len, None);
                }
            }
            // Inverted dropout: inference is the identity.
            Phase::Test => {
                if cg.mode().is_functional() {
                    ew::copy_blocks(
                        cg,
                        self.len,
                        1,
                        Some((bottoms[0].data(), 0, 0, tops[0].data_mut(), 0, 0)),
                    );
                } else {
                    ew::copy_blocks(cg, self.len, 1, None);
                }
            }
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        if !pd[0] {
            return;
        }
        if cg.mode().is_functional() {
            ew::apply_mask(
                cg,
                self.len,
                Some((tops[0].diff(), &self.mask, bottoms[0].diff_mut())),
            );
        } else {
            ew::apply_mask(cg, self.len, None);
        }
    }

    fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn rng_state(&self) -> Option<u64> {
        Some(self.rng_state)
    }

    fn set_rng_state(&mut self, state: u64) {
        self.rng_state = state;
    }
}

// ---------------------------------------------------------------------

/// Element-wise sum of two bottoms (ResNet shortcut join).
pub(crate) struct EltwiseSumLayer {
    name: String,
    len: usize,
}

impl EltwiseSumLayer {
    pub fn new(name: &str) -> Self {
        EltwiseSumLayer {
            name: name.into(),
            len: 0,
        }
    }
}

impl Layer for EltwiseSumLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "EltwiseSum"
    }

    fn setup(&mut self, bottoms: &[Vec<usize>], _m: bool) -> Result<Vec<Vec<usize>>, String> {
        if bottoms.len() != 2 || bottoms[0] != bottoms[1] {
            return Err(format!(
                "EltwiseSum needs two equal-shaped bottoms, got {bottoms:?}"
            ));
        }
        self.len = bottoms[0].iter().product();
        Ok(vec![bottoms[0].clone()])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let io = cg
            .mode()
            .is_functional()
            .then(|| (bottoms[0].data(), bottoms[1].data(), tops[0].data_mut()));
        ew::add(cg, self.len, io);
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        // d/d(a) = d/d(b) = dy: plain copies.
        for i in 0..2 {
            if !pd[i] {
                continue;
            }
            if cg.mode().is_functional() {
                ew::copy_blocks(
                    cg,
                    self.len,
                    1,
                    Some((tops[0].diff(), 0, 0, bottoms[i].diff_mut(), 0, 0)),
                );
            } else {
                ew::copy_blocks(cg, self.len, 1, None);
            }
        }
    }
}

// ---------------------------------------------------------------------

/// Channel-axis concatenation (GoogLeNet inception joins).
pub(crate) struct ConcatLayer {
    name: String,
    batch: usize,
    spatial: usize,
    channels: Vec<usize>,
}

impl ConcatLayer {
    pub fn new(name: &str) -> Self {
        ConcatLayer {
            name: name.into(),
            batch: 0,
            spatial: 0,
            channels: Vec::new(),
        }
    }
}

impl Layer for ConcatLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "Concat"
    }

    fn setup(&mut self, bottoms: &[Vec<usize>], _m: bool) -> Result<Vec<Vec<usize>>, String> {
        if bottoms.is_empty() {
            return Err("Concat needs at least one bottom".into());
        }
        let (b, _, h, w) = expect_4d(&bottoms[0], "Concat")?;
        self.batch = b;
        self.spatial = h * w;
        self.channels.clear();
        for shape in bottoms {
            let (bb, c, hh, ww) = expect_4d(shape, "Concat")?;
            if bb != b || hh * ww != self.spatial {
                return Err(format!("Concat bottoms disagree: {bottoms:?}"));
            }
            self.channels.push(c);
        }
        let total: usize = self.channels.iter().sum();
        Ok(vec![vec![b, total, bottoms[0][2], bottoms[0][3]]])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let total: usize = self.channels.iter().sum();
        let mut c_off = 0;
        for (i, &c) in self.channels.iter().enumerate() {
            let block = c * self.spatial;
            if cg.mode().is_functional() {
                ew::copy_blocks(
                    cg,
                    block,
                    self.batch,
                    Some((
                        bottoms[i].data(),
                        0,
                        block,
                        tops[0].data_mut(),
                        c_off * self.spatial,
                        total * self.spatial,
                    )),
                );
            } else {
                ew::copy_blocks(cg, block, self.batch, None);
            }
            c_off += c;
        }
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        let total: usize = self.channels.iter().sum();
        let mut c_off = 0;
        for (i, &c) in self.channels.iter().enumerate() {
            let block = c * self.spatial;
            if pd[i] {
                if cg.mode().is_functional() {
                    ew::copy_blocks(
                        cg,
                        block,
                        self.batch,
                        Some((
                            tops[0].diff(),
                            c_off * self.spatial,
                            total * self.spatial,
                            bottoms[i].diff_mut(),
                            0,
                            block,
                        )),
                    );
                } else {
                    ew::copy_blocks(cg, block, self.batch, None);
                }
            }
            c_off += c;
        }
    }
}

// ---------------------------------------------------------------------

/// Tensor-transformation layer (Sec. IV-C): NCHW <-> RCNB around implicit
/// convolution regions. Shapes are carried in NCHW terms regardless of
/// the physical layout.
pub(crate) struct TransformLayer {
    name: String,
    dir: TransDir,
    shape: TransShape,
}

impl TransformLayer {
    pub fn new(name: &str, dir: TransDir) -> Self {
        TransformLayer {
            name: name.into(),
            dir,
            shape: TransShape {
                batch: 0,
                channels: 0,
                height: 0,
                width: 0,
            },
        }
    }
}

impl Layer for TransformLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn layer_type(&self) -> &'static str {
        "TensorTransform"
    }

    fn setup(&mut self, bottoms: &[Vec<usize>], _m: bool) -> Result<Vec<Vec<usize>>, String> {
        let (b, c, h, w) = expect_4d(&bottoms[0], "TensorTransform")?;
        self.shape = TransShape {
            batch: b,
            channels: c,
            height: h,
            width: w,
        };
        Ok(vec![bottoms[0].clone()])
    }

    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]) {
        let io = cg
            .mode()
            .is_functional()
            .then(|| (bottoms[0].data(), tops[0].data_mut()));
        match self.dir {
            TransDir::NchwToRcnb => transform::nchw_to_rcnb(cg, &self.shape, io),
            TransDir::RcnbToNchw => transform::rcnb_to_nchw(cg, &self.shape, io),
        };
    }

    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        pd: &[bool],
    ) {
        if !pd[0] {
            return;
        }
        let io = cg
            .mode()
            .is_functional()
            .then(|| (tops[0].diff(), bottoms[0].diff_mut()));
        // The adjoint of a permutation is its inverse.
        match self.dir {
            TransDir::NchwToRcnb => transform::rcnb_to_nchw(cg, &self.shape, io),
            TransDir::RcnbToNchw => transform::nchw_to_rcnb(cg, &self.shape, io),
        };
    }
}

//! The `Layer` trait — swCaffe's algorithm-level extension point (one of
//! the three Caffe components the paper redesigns; Sec. II-C).

use sw26010::CoreGroup;

use crate::blob::Blob;

/// Training vs inference behaviour (Caffe's `phase`): dropout applies its
/// mask only in `Train`; batch normalisation uses batch statistics in
/// `Train` and the running averages in `Test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    #[default]
    Train,
    Test,
}

/// A network layer. Implementations wrap one or more `swdnn` kernels and
/// own their learnable parameters.
pub trait Layer: Send {
    fn name(&self) -> &str;

    fn layer_type(&self) -> &'static str;

    /// Infer top shapes from bottom shapes and allocate parameters.
    /// Called exactly once before the first forward pass.
    fn setup(
        &mut self,
        bottom_shapes: &[Vec<usize>],
        materialize: bool,
    ) -> Result<Vec<Vec<usize>>, String>;

    /// Forward pass: fill `tops` from `bottoms`, charging the core group.
    fn forward(&mut self, cg: &mut CoreGroup, bottoms: &[&Blob], tops: &mut [&mut Blob]);

    /// Backward pass: fill `bottoms[i].diff` for every `i` with
    /// `propagate_down[i]` set, and accumulate parameter gradients.
    /// Top data/diff are read-only.
    fn backward(
        &mut self,
        cg: &mut CoreGroup,
        tops: &[&Blob],
        bottoms: &mut [&mut Blob],
        propagate_down: &[bool],
    );

    /// Learnable parameter blobs (weights first, then biases), if any.
    fn params_mut(&mut self) -> Vec<&mut Blob> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Blob> {
        Vec::new()
    }

    /// True for loss-producing layers (their top seeds backpropagation).
    fn is_loss(&self) -> bool {
        false
    }

    /// Switch between training and inference behaviour. Layers without
    /// phase-dependent behaviour ignore this.
    fn set_phase(&mut self, _phase: Phase) {}

    /// Non-learnable persistent state (e.g. batch-norm running statistics),
    /// included in snapshots but never touched by the solver.
    fn state(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable access to the persistent state, for snapshot restore.
    fn state_mut(&mut self) -> Vec<&mut Vec<f32>> {
        Vec::new()
    }

    /// Current private RNG stream, for layers that consume randomness
    /// during training (dropout). Checkpoints capture it so a restored
    /// run replays the exact mask sequence an uninterrupted run would
    /// have drawn.
    fn rng_state(&self) -> Option<u64> {
        None
    }

    /// Restore the private RNG stream captured by [`Layer::rng_state`].
    fn set_rng_state(&mut self, _state: u64) {}
}

/// Helper shared by layer implementations: 4-D shape destructuring with a
/// clear error.
pub(crate) fn expect_4d(
    shape: &[usize],
    who: &str,
) -> Result<(usize, usize, usize, usize), String> {
    if shape.len() == 4 {
        Ok((shape[0], shape[1], shape[2], shape[3]))
    } else {
        Err(format!("{who} expects a 4-D bottom, got {shape:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_4d_accepts_and_rejects() {
        assert_eq!(expect_4d(&[1, 2, 3, 4], "t").unwrap(), (1, 2, 3, 4));
        assert!(expect_4d(&[1, 2, 3], "t").is_err());
    }
}

//! The `Layer` trait — swCaffe's algorithm-level extension point (one of
//! the three Caffe components the paper redesigns; Sec. II-C).

use std::sync::Arc;

use sw26010::CoreGroup;
use swdnn::host::PackedB;

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
/// own their learnable parameters. A layer is built fully in one step
/// from its definition and its bottom shapes, which the graph lint has
/// already checked (`layers::build_seeded`), so it has no setup phase.
pub trait Layer: Send {
    fn name(&self) -> &str;

    fn layer_type(&self) -> &'static str;

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

    /// This layer's weights packed once as the B panels of its
    /// `HostNative` forward GEMM, for a layer that multiplies by a fixed
    /// matrix (inner product) and holds data. `None` for every other
    /// layer.
    fn pack_weights(&self) -> Option<PackedB> {
        None
    }

    /// Multiply by `panels` in `HostNative` forward passes, instead of
    /// packing the weights on every call. They must have been packed by
    /// [`Layer::pack_weights`] from weights equal to this layer's. The
    /// layer drops them the next time [`Layer::params_mut`] hands its
    /// weights out, so new weights are never multiplied by stale panels.
    fn share_packed_weights(&mut self, _panels: Arc<PackedB>) -> Result<(), String> {
        Err(format!(
            "{} layers take no packed weights",
            self.layer_type()
        ))
    }
}

//! Blob: the 4-D tensor (data + gradient) that flows between layers,
//! mirroring Caffe's `Blob<float>`.
//!
//! In timing-only mode blobs carry shape but no storage — a full VGG-16
//! batch-128 activation set is tens of GB, which the performance sweeps
//! never need to materialise.

/// An N-dimensional tensor with a paired gradient buffer.
#[derive(Debug, Clone, Default)]
pub struct Blob {
    shape: Vec<usize>,
    data: Vec<f32>,
    diff: Vec<f32>,
    materialized: bool,
}

impl Blob {
    /// A materialised (functional-mode) blob, zero-filled.
    pub fn new(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Blob {
            shape: shape.to_vec(),
            data: vec![0.0; len],
            diff: vec![0.0; len],
            materialized: true,
        }
    }

    /// A shape-only (timing-mode) blob.
    pub(crate) fn shell(shape: &[usize]) -> Self {
        Blob {
            shape: shape.to_vec(),
            data: Vec::new(),
            diff: Vec::new(),
            materialized: false,
        }
    }

    pub fn with_mode(shape: &[usize], materialize: bool) -> Self {
        if materialize {
            Blob::new(shape)
        } else {
            Blob::shell(shape)
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn materialized(&self) -> bool {
        self.materialized
    }

    pub fn data(&self) -> &[f32] {
        debug_assert!(self.materialized, "data access on a shell blob");
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        debug_assert!(self.materialized, "data access on a shell blob");
        &mut self.data
    }

    pub fn diff(&self) -> &[f32] {
        debug_assert!(self.materialized, "diff access on a shell blob");
        &self.diff
    }

    pub fn diff_mut(&mut self) -> &mut [f32] {
        debug_assert!(self.materialized, "diff access on a shell blob");
        &mut self.diff
    }

    /// Split borrow: `(data, diff_mut)` — the common backward-pass pattern.
    pub(crate) fn data_and_diff_mut(&mut self) -> (&[f32], &mut [f32]) {
        debug_assert!(self.materialized, "access on a shell blob");
        (&self.data, &mut self.diff)
    }

    /// Split borrow the other way: `(diff, data_mut)` — optimizer updates.
    pub(crate) fn diff_and_data_mut(&mut self) -> (&[f32], &mut [f32]) {
        debug_assert!(self.materialized, "access on a shell blob");
        (&self.diff, &mut self.data)
    }

    pub fn set_data(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "set_data length mismatch");
        self.data_mut().copy_from_slice(values);
    }

    pub(crate) fn zero_diff(&mut self) {
        if self.materialized {
            self.diff.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_blob_is_zeroed() {
        let b = Blob::new(&[2, 3, 4, 5]);
        assert_eq!(b.len(), 120);
        assert_eq!(b.shape(), &[2, 3, 4, 5]);
        assert!(b.data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn shell_blob_has_no_storage() {
        let b = Blob::shell(&[128, 3, 224, 224]);
        assert_eq!(b.len(), 128 * 3 * 224 * 224);
        assert!(!b.materialized());
    }
}

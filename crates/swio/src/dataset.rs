//! Synthetic ImageNet (substitution for the real dataset, which this
//! environment does not have).
//!
//! Images are deterministic pseudo-random tensors derived from their
//! index, with a class-dependent bias so that training signal exists;
//! labels cover the 1000 ImageNet classes. Record sizes mirror the
//! paper's arithmetic: a 256-image mini-batch is ~192 MB, i.e. ~0.75 MB
//! per decoded image.

/// Bytes of one decoded training record (0.75 MB, per Sec. V-B's
/// "mini-batch of 256 is around 192 MB").
pub(crate) const RECORD_BYTES: usize = 768 * 1024;

/// ImageNet class count.
pub const CLASSES: usize = 1000;

/// A deterministic synthetic ImageNet-like dataset.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticImageNet {
    /// Number of training records (ImageNet-1k: ~1.28 M).
    pub images: usize,
}

impl SyntheticImageNet {
    pub fn new(images: usize) -> Self {
        SyntheticImageNet { images }
    }

    /// Label of a record.
    pub fn label(&self, idx: usize) -> usize {
        // Deterministic but scrambled so adjacent records differ in class.
        (splitmix(idx as u64) % CLASSES as u64) as usize
    }

    /// Fill `data` (one image of `c*h*w` floats) for a record, with a
    /// class-correlated stripe so learning is possible.
    pub(crate) fn fill_image(&self, idx: usize, c: usize, h: usize, w: usize, data: &mut [f32]) {
        assert_eq!(data.len(), c * h * w);
        let label = self.label(idx);
        let len = data.len();
        let mut s = splitmix(idx as u64 ^ 0xDEADBEEF);
        for (i, v) in data.iter_mut().enumerate() {
            s = splitmix(s);
            let noise = (s % 2048) as f32 / 2048.0 - 0.5;
            let stripe = (i * CLASSES / len) == label;
            *v = noise * 0.3 + if stripe { 1.0 } else { 0.0 };
        }
    }

    /// Sample a mini-batch (uniform with replacement, seeded) into flat
    /// NCHW data + label buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_batch(
        &self,
        seed: u64,
        batch: usize,
        c: usize,
        h: usize,
        w: usize,
        data: &mut [f32],
        labels: &mut [f32],
    ) {
        assert_eq!(data.len(), batch * c * h * w);
        assert_eq!(labels.len(), batch);
        let per = c * h * w;
        let mut s = splitmix(seed ^ 0x5EED);
        for b in 0..batch {
            s = splitmix(s);
            let idx = (s % self.images as u64) as usize;
            self.fill_image(idx, c, h, w, &mut data[b * per..][..per]);
            labels[b] = self.label(idx) as f32;
        }
    }

    /// Bytes a node reads per iteration for a sub-mini-batch.
    pub fn batch_bytes(&self, sub_batch: usize) -> usize {
        sub_batch * RECORD_BYTES
    }
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_of_256_is_about_192mb() {
        let ds = SyntheticImageNet::new(1_281_167); // ImageNet-1k
        let mb = ds.batch_bytes(256) as f64 / (1 << 20) as f64;
        assert_eq!(mb, 192.0);
    }

    #[test]
    fn images_are_deterministic_and_distinct() {
        let ds = SyntheticImageNet::new(1000);
        let mut a = vec![0.0f32; 3 * 8 * 8];
        let mut b = vec![0.0f32; 3 * 8 * 8];
        ds.fill_image(7, 3, 8, 8, &mut a);
        ds.fill_image(7, 3, 8, 8, &mut b);
        assert_eq!(a, b);
        ds.fill_image(8, 3, 8, 8, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_cover_many_classes() {
        let ds = SyntheticImageNet::new(100_000);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000 {
            let l = ds.label(i);
            assert!(l < CLASSES);
            seen.insert(l);
        }
        assert!(
            seen.len() > 900,
            "only {} classes in 5000 samples",
            seen.len()
        );
    }

    #[test]
    fn batches_are_seed_deterministic() {
        let ds = SyntheticImageNet::new(1000);
        let mut d1 = vec![0.0f32; 4 * 3 * 4 * 4];
        let mut l1 = vec![0.0f32; 4];
        let mut d2 = d1.clone();
        let mut l2 = l1.clone();
        ds.fill_batch(42, 4, 3, 4, 4, &mut d1, &mut l1);
        ds.fill_batch(42, 4, 3, 4, 4, &mut d2, &mut l2);
        assert_eq!(d1, d2);
        assert_eq!(l1, l2);
        ds.fill_batch(43, 4, 3, 4, 4, &mut d2, &mut l2);
        assert_ne!(d1, d2);
    }
}

//! Weight initialisers (Caffe "fillers").

use crate::rng::SplitMix64;

/// Initialisation policy for a parameter blob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Filler {
    /// Uniform in `[-scale, scale]` with `scale = sqrt(3 / fan_in)`.
    Xavier,
    /// Gaussian with `std = sqrt(2 / fan_in)` (He/MSRA, for ReLU nets).
    Msra,
}

impl Filler {
    /// Fill `data` in place. `fan_in` is the receptive-field size
    /// (`in_channels * k * k` for convolutions, input features for FC).
    pub fn fill(&self, data: &mut [f32], fan_in: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        match self {
            Filler::Xavier => {
                let scale = (3.0 / fan_in.max(1) as f64).sqrt();
                for v in data.iter_mut() {
                    *v = rng.uniform(-scale, scale) as f32;
                }
            }
            Filler::Msra => {
                let std = (2.0 / fan_in.max(1) as f64).sqrt();
                gaussian_fill(data, std, &mut rng);
            }
        }
    }
}

fn gaussian_fill(data: &mut [f32], std: f64, rng: &mut SplitMix64) {
    // Box-Muller on (0, 1] deviates; u1 > 0 keeps ln() finite.
    let mut i = 0;
    while i < data.len() {
        let u1: f64 = rng.next_f64_open0();
        let u2: f64 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        data[i] = (r * theta.cos() * std) as f32;
        if i + 1 < data.len() {
            data[i + 1] = (r * theta.sin() * std) as f32;
        }
        i += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_and_determinism() {
        let mut a = vec![0.0; 1000];
        let mut b = vec![0.0; 1000];
        Filler::Xavier.fill(&mut a, 75, 42);
        Filler::Xavier.fill(&mut b, 75, 42);
        assert_eq!(a, b, "same seed must reproduce");
        let bound = (3.0f64 / 75.0).sqrt() as f32 + 1e-6;
        assert!(a.iter().all(|v| v.abs() <= bound));
        assert!(a.iter().any(|v| v.abs() > bound * 0.5), "spread too narrow");
    }

    #[test]
    fn msra_std_is_plausible() {
        let mut d = vec![0.0; 20_000];
        Filler::Msra.fill(&mut d, 200, 7);
        let mean: f64 = d.iter().map(|v| *v as f64).sum::<f64>() / d.len() as f64;
        let var: f64 = d.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / d.len() as f64;
        let want = 2.0 / 200.0;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - want).abs() / want < 0.1, "var {var} vs {want}");
    }
}

//! Everything the benchmark draws from `--seed`. The crates under test
//! receive only the generated inputs, never the seed's meaning.

use swcaffe_core::rng::SplitMix64;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2018;

/// Largest request batch of the serving mix.
pub const MAX_BATCH: usize = 16;

/// Seed of the independent stream `lane` of `seed`.
fn lane_seed(seed: u64, lane: u64) -> u64 {
    seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `len` values in `[-1, 1)` from stream `lane` of `seed` (the fill the
/// `swcheck` kernel suite uses).
pub fn filled(seed: u64, lane: u64, len: usize) -> Vec<f32> {
    let mut v = vec![0.0; len];
    swcheck::suite::fill(lane_seed(seed, lane), &mut v);
    v
}

/// The serving request mix: batch 1 with probability 0.6, else uniform
/// in `2..=MAX_BATCH` — non-powers-of-two included, so bucket padding
/// is exercised.
pub fn batch_mix(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(lane_seed(seed, 0xBA7C));
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.6 {
                1
            } else {
                2 + (rng.next_u64() % (MAX_BATCH as u64 - 1)) as usize
            }
        })
        .collect()
}

/// Zero rows executed per row executed when `mix` is served in
/// power-of-two buckets.
pub fn pad_waste_frac(mix: &[usize]) -> f64 {
    let executed: usize = mix.iter().map(|&b| swserve::bucket(b)).sum();
    let useful: usize = mix.iter().sum();
    (executed - useful) as f64 / executed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use swserve::batcher::{poisson_trace, poisson_trace_tiered};

    #[test]
    fn one_seed_gives_identical_inputs_and_another_differs() {
        assert_eq!(batch_mix(7, 500), batch_mix(7, 500));
        assert_ne!(batch_mix(7, 500), batch_mix(8, 500));
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(filled(7, 1, 64)), bits(filled(7, 1, 64)));
        assert_ne!(bits(filled(7, 1, 64)), bits(filled(8, 1, 64)));
        assert_ne!(bits(filled(7, 1, 64)), bits(filled(7, 2, 64)));
        assert_eq!(poisson_trace(7, 100.0, 300), poisson_trace(7, 100.0, 300));
        assert_ne!(poisson_trace(7, 100.0, 300), poisson_trace(8, 100.0, 300));
        assert_eq!(
            poisson_trace_tiered(7, 100.0, 300, &[0, 1]),
            poisson_trace_tiered(7, 100.0, 300, &[0, 1])
        );
    }

    #[test]
    fn mix_has_the_stated_shape() {
        let mix = batch_mix(DEFAULT_SEED, 10_000);
        assert!(mix.iter().all(|&b| (1..=MAX_BATCH).contains(&b)));
        let ones = mix.iter().filter(|&&b| b == 1).count() as f64 / mix.len() as f64;
        assert!((ones - 0.6).abs() < 0.02, "batch-1 share {ones}");
        assert!(mix.iter().any(|&b| !b.is_power_of_two()));
        let waste = pad_waste_frac(&mix);
        assert!(waste > 0.0 && waste < 0.5, "{waste}");
        assert_eq!(pad_waste_frac(&[1, 2, 4]), 0.0);
        assert_eq!(pad_waste_frac(&[3]), 0.25);
    }
}

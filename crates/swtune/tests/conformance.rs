//! Conformance properties of the searched plans:
//!
//! 1. Every plan the candidate enumeration can emit passes
//!    `KernelPlan::validate` and launches through `CoreGroup::run_planned`
//!    — the searcher and the launch-time validator agree on feasibility.
//! 2. A searched winner computes *bit-identical* results to the hand
//!    blocking, on the simulated mesh and on the host-native backend:
//!    re-tiling changes the schedule, never the arithmetic.

use sw26010::{CoreGroup, ExecMode};
use swdnn::conv_explicit::{self, ConvBwdOperands, ConvFwdOperands};
use swdnn::conv_implicit::{
    self, ConvTiles, ImplicitBwdOperands, ImplicitFwdOperands, ImplicitPass,
};
use swdnn::{ConvShape, ExplicitSchemes, TilingScheme};
use swtune::search::{self, TunedPlan};
use swtune::space;

const MODES: [ExecMode; 2] = [ExecMode::Functional, ExecMode::HostNative { threads: 2 }];

fn pattern(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(seed);
            ((x >> 40) % 200) as f32 / 100.0 - 1.0
        })
        .collect()
}

fn small_shape() -> ConvShape {
    ConvShape {
        batch: 4,
        in_c: 12,
        in_h: 8,
        in_w: 8,
        out_c: 10,
        k: 3,
        stride: 1,
        pad: 1,
    }
}

/// The best explicit scheme for `pass` under the cost model (any
/// argmin will do here; order-independence is covered in `search`).
fn best_explicit(shape: &ConvShape, pass: ImplicitPass) -> TilingScheme {
    space::gemm_candidates(search::gemm_dims_for(shape, pass))
        .into_iter()
        .min_by(|a, b| {
            let (ta, tb) = (
                TunedPlan::Explicit(*a).seconds(shape, pass),
                TunedPlan::Explicit(*b).seconds(shape, pass),
            );
            ta.partial_cmp(&tb).unwrap()
        })
        .unwrap()
}

fn best_implicit(shape: &ConvShape, pass: ImplicitPass) -> ConvTiles {
    space::conv_tiles_candidates(shape, pass)
        .into_iter()
        .min_by(|a, b| {
            let (ta, tb) = (
                TunedPlan::Implicit(*a).seconds(shape, pass),
                TunedPlan::Implicit(*b).seconds(shape, pass),
            );
            ta.partial_cmp(&tb).unwrap()
        })
        .unwrap()
}

#[test]
fn every_searchable_plan_launches_through_the_checked_path() {
    // A shape that admits both strategies on all three passes, so the
    // zoo contains the GEMM *and* implicit plan families.
    let shape = ConvShape {
        batch: 8,
        in_c: 128,
        in_h: 7,
        in_w: 7,
        out_c: 128,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let zoo = space::zoo_plans(&shape);
    assert!(zoo.len() > 2_000, "zoo too small: {}", zoo.len());
    let mut cg = CoreGroup::new(ExecMode::TimingOnly);
    for (label, plan) in &zoo {
        plan.validate()
            .unwrap_or_else(|v| panic!("{label} rejected at launch: {v}"));
        cg.run_planned(plan, |cpe| cpe.charge_flops(1));
    }
    assert_eq!(cg.stats().launches as usize, zoo.len());
}

#[test]
fn tuned_explicit_forward_matches_hand_bitwise_on_all_backends() {
    let s = small_shape();
    let input = pattern(s.input_len(), 11);
    let weights = pattern(s.weight_len(), 22);
    let run = |mode: ExecMode, scheme: TilingScheme| {
        let mut out = vec![0.0f32; s.output_len()];
        let mut cg = CoreGroup::new(mode);
        conv_explicit::forward_with_scheme(
            &mut cg,
            &s,
            scheme,
            Some(ConvFwdOperands {
                input: &input,
                weights: &weights,
                output: &mut out,
            }),
        );
        out
    };
    let hand_scheme = TilingScheme::hand(conv_explicit::fwd_gemm_dims(&s));
    let tuned_scheme = best_explicit(&s, ImplicitPass::Forward);
    let hand = run(ExecMode::Functional, hand_scheme);
    for mode in MODES {
        assert_eq!(
            run(mode, tuned_scheme),
            hand,
            "tuned {} diverged from hand under {mode:?}",
            tuned_scheme.label()
        );
        assert_eq!(
            run(mode, hand_scheme),
            hand,
            "hand not stable under {mode:?}"
        );
    }
}

#[test]
fn tuned_explicit_backward_matches_hand_bitwise_on_all_backends() {
    let s = small_shape();
    let input = pattern(s.input_len(), 11);
    let weights = pattern(s.weight_len(), 22);
    let out_grad = pattern(s.output_len(), 33);
    let run = |mode: ExecMode, schemes: ExplicitSchemes| {
        let mut in_grad = vec![0.0f32; s.input_len()];
        let mut w_grad = vec![0.0f32; s.weight_len()];
        let mut cg = CoreGroup::new(mode);
        conv_explicit::backward_with_schemes(
            &mut cg,
            &s,
            schemes,
            Some(ConvBwdOperands {
                input: &input,
                weights: &weights,
                out_grad: &out_grad,
                in_grad: Some(&mut in_grad),
                w_grad: Some(&mut w_grad),
            }),
        );
        (in_grad, w_grad)
    };
    let tuned = ExplicitSchemes {
        forward: best_explicit(&s, ImplicitPass::Forward),
        backward_weights: best_explicit(&s, ImplicitPass::BackwardWeights),
        backward_input: best_explicit(&s, ImplicitPass::BackwardInput),
    };
    let hand = run(ExecMode::Functional, ExplicitSchemes::hand(&s));
    for mode in MODES {
        assert_eq!(
            run(mode, tuned),
            hand,
            "tuned gradients diverged under {mode:?}"
        );
    }
}

#[test]
fn tuned_implicit_tiles_match_hand_bitwise_on_all_backends() {
    let s = small_shape();
    let input = pattern(s.input_len(), 44);
    let weights = pattern(s.weight_len(), 55);
    let out_grad = pattern(s.output_len(), 66);

    let fwd = |mode: ExecMode, tiles: ConvTiles| {
        let mut out = vec![0.0f32; s.output_len()];
        let mut cg = CoreGroup::new(mode);
        conv_implicit::forward_with_tiles(
            &mut cg,
            &s,
            tiles,
            Some(ImplicitFwdOperands {
                input: &input,
                weights: &weights,
                output: &mut out,
            }),
        );
        out
    };
    let tuned_fwd = best_implicit(&s, ImplicitPass::Forward);
    let hand_fwd = fwd(ExecMode::Functional, ConvTiles::hand_forward(&s));
    for mode in MODES {
        assert_eq!(
            fwd(mode, tuned_fwd),
            hand_fwd,
            "tuned tiles {tuned_fwd:?} diverged from hand under {mode:?}"
        );
    }

    let bwd = |mode: ExecMode, input_tiles: ConvTiles, weight_tiles: ConvTiles| {
        let mut in_grad = vec![0.0f32; s.input_len()];
        let mut w_grad = vec![0.0f32; s.weight_len()];
        let mut cg = CoreGroup::new(mode);
        conv_implicit::backward_with_tiles(
            &mut cg,
            &s,
            input_tiles,
            weight_tiles,
            Some(ImplicitBwdOperands {
                input: &input,
                weights: &weights,
                out_grad: &out_grad,
                in_grad: Some(&mut in_grad),
                w_grad: Some(&mut w_grad),
            }),
        );
        (in_grad, w_grad)
    };
    let hand = bwd(
        ExecMode::Functional,
        ConvTiles::hand_backward_input(&s),
        ConvTiles::hand_backward_weights(&s),
    );
    let tuned_dx = best_implicit(&s, ImplicitPass::BackwardInput);
    let tuned_dw = best_implicit(&s, ImplicitPass::BackwardWeights);
    for mode in MODES {
        assert_eq!(
            bwd(mode, tuned_dx, tuned_dw),
            hand,
            "tuned gradients diverged under {mode:?}"
        );
    }
}

//! Tier: the full swdnn kernel zoo must run clean under the sanitizer,
//! and recording must not perturb results or simulated time.

use sw26010::{CheckMode, CoreGroup, CpeEvent, ExecMode, KernelPlan};
use swcheck::suite;
use swdnn::conv_implicit::{self, ImplicitBwdOperands, ImplicitFwdOperands};
use swdnn::{gemm, ConvShape, ConvTiles, GemmDims, ImplicitPass, Trans};

#[test]
fn kernel_zoo_runs_clean_under_sanitizer() {
    let outcome = swcheck::run_suite();
    assert!(outcome.launches > 40, "launches: {}", outcome.launches);
    assert!(outcome.events > 100_000, "events: {}", outcome.events);
    for expected in [
        "swdnn.gemm",
        "swdnn.gemm_db",
        "swdnn.gemm_norlc",
        "swdnn.pool.fwd",
        "swdnn.bn.fwd_stats",
        "swdnn.softmax.fwd",
        "swdnn.unary_map",
    ] {
        assert!(
            outcome.kernels.iter().any(|k| k == expected),
            "kernel {expected} missing from {:?}",
            outcome.kernels
        );
    }
    assert!(
        outcome.is_clean(),
        "sanitizer found violations:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The zero-cost-off claim: an unchecked run records nothing.
#[test]
fn unchecked_run_records_nothing() {
    let mut cg = CoreGroup::new(ExecMode::Functional);
    assert_eq!(cg.check_mode(), CheckMode::Off);
    swcheck::drive_kernel_zoo(&mut cg);
    assert!(cg.take_traces().is_empty());
}

#[test]
fn tracing_is_bit_identical_in_data_and_simulated_time() {
    let dims = GemmDims::new(40, 36, 24);
    let mut a = vec![0.0f32; dims.m * dims.k];
    let mut b = vec![0.0f32; dims.k * dims.n];
    let mut c0 = vec![0.0f32; dims.m * dims.n];
    suite::fill(1, &mut a);
    suite::fill(2, &mut b);
    suite::fill(3, &mut c0);
    let mut c1 = c0.clone();

    let mut plain = CoreGroup::new(ExecMode::Functional);
    let r0 = gemm::gemm(
        &mut plain,
        dims,
        Trans::No,
        Trans::No,
        0.5,
        Some(gemm::GemmOperands {
            a: &a,
            b: &b,
            c: &mut c0,
        }),
    );

    let mut checked = CoreGroup::new_checked(ExecMode::Functional);
    let r1 = gemm::gemm(
        &mut checked,
        dims,
        Trans::No,
        Trans::No,
        0.5,
        Some(gemm::GemmOperands {
            a: &a,
            b: &b,
            c: &mut c1,
        }),
    );

    for (i, (x, y)) in c0.iter().zip(&c1).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "c[{i}] differs under tracing");
    }
    assert_eq!(
        r0.elapsed.seconds().to_bits(),
        r1.elapsed.seconds().to_bits(),
        "simulated time perturbed by tracing"
    );
    let traces = checked.take_traces();
    assert_eq!(traces.len(), 1);
    assert!(traces[0].per_cpe.iter().any(|c| !c.events.is_empty()));
    assert!(swcheck::check_traces(&traces).is_empty());
}

/// Run `drive` on a recording core group and demand that every launch
/// is hazard-free and that its observed LDM high water *equals* the
/// bytes of the plan it was launched under — for the GEMM family both
/// are read off one buffer table, so `<=` would be too weak a check.
fn assert_high_water_is_planned(plans: &[KernelPlan], drive: impl FnOnce(&mut CoreGroup)) {
    let mut cg = CoreGroup::new_checked(ExecMode::Functional);
    drive(&mut cg);
    let traces = cg.take_traces();
    assert!(!traces.is_empty());
    for trace in &traces {
        let plan = plans
            .iter()
            .find(|p| p.name == trace.name)
            .unwrap_or_else(|| panic!("no plan for launch `{}`", trace.name));
        let violations = swcheck::check_traces(std::slice::from_ref(trace));
        assert!(violations.is_empty(), "{}: {violations:?}", trace.name);
        let high_water = trace
            .per_cpe
            .iter()
            .flat_map(|c| &c.events)
            .filter_map(|e| match e {
                CpeEvent::LdmAlloc { used_after, .. } => Some(*used_after),
                _ => None,
            })
            .max();
        assert_eq!(
            high_water,
            Some(plan.ldm_bytes()),
            "{}: observed LDM high water vs planned bytes",
            trace.name
        );
    }
}

#[test]
fn gemm_family_ldm_high_water_equals_planned_bytes() {
    // Two C panels along n and a ragged K tail under every variant.
    let dims = GemmDims::new(40, 36, 24);
    let a = vec![0.5f32; dims.m * dims.k];
    let b = vec![0.25f32; dims.k * dims.n];
    for scheme in suite::gemm_variants(dims) {
        let mut c = vec![1.0f32; dims.m * dims.n];
        assert_high_water_is_planned(&[scheme.kernel_plan()], |cg| {
            let ops = gemm::GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            };
            gemm::gemm_with_scheme(cg, dims, Trans::No, Trans::No, 0.5, scheme, Some(ops));
        });
    }

    let shape = ConvShape {
        batch: 4,
        in_c: 16,
        in_h: 5,
        in_w: 5,
        out_c: 12,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let input = vec![0.5f32; shape.input_len()];
    let weights = vec![0.25f32; shape.weight_len()];
    let out_grad = vec![0.125f32; shape.output_len()];
    let plans = [
        ConvTiles::hand_forward(&shape).kernel_plan(ImplicitPass::Forward),
        ConvTiles::hand_backward_input(&shape).kernel_plan(ImplicitPass::BackwardInput),
        ConvTiles::hand_backward_weights(&shape).kernel_plan(ImplicitPass::BackwardWeights),
    ];
    let mut output = vec![0.0f32; shape.output_len()];
    let mut in_grad = vec![0.0f32; shape.input_len()];
    let mut w_grad = vec![0.0f32; shape.weight_len()];
    assert_high_water_is_planned(&plans, |cg| {
        conv_implicit::forward(
            cg,
            &shape,
            Some(ImplicitFwdOperands {
                input: &input,
                weights: &weights,
                output: &mut output,
            }),
        );
        conv_implicit::backward(
            cg,
            &shape,
            Some(ImplicitBwdOperands {
                input: &input,
                weights: &weights,
                out_grad: &out_grad,
                in_grad: Some(&mut in_grad),
                w_grad: Some(&mut w_grad),
            }),
        );
    });
}

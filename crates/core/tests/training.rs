//! End-to-end framework tests: functional training convergence, gradient
//! sanity, and timing-mode execution of the full model zoo.

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::models;
use swcaffe_core::{Net, SgdSolver, SolverConfig};

/// Deterministic, linearly-separable-ish synthetic dataset: class k images
/// have elevated intensity in stripe k.
fn synth_batch(
    batch: usize,
    classes: usize,
    len_per_img: usize,
    seed: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut data = vec![0.0f32; batch * len_per_img];
    let mut labels = vec![0.0f32; batch];
    for b in 0..batch {
        let class = (b + seed) % classes;
        labels[b] = class as f32;
        for i in 0..len_per_img {
            let noise = (((b * 131 + i * 31 + seed * 17) % 97) as f32 / 97.0 - 0.5) * 0.2;
            let stripe = (i * classes / len_per_img) == class;
            data[b * len_per_img + i] = noise + if stripe { 1.0 } else { 0.0 };
        }
    }
    (data, labels)
}

#[test]
fn tiny_cnn_trains_to_lower_loss() {
    let classes = 4;
    let batch = 8;
    let def = models::tiny_cnn(batch, classes);
    let mut net = Net::from_def(&def, true).unwrap();
    let mut cg = CoreGroup::new(ExecMode::Functional);
    let mut solver = SgdSolver::new(SolverConfig {
        base_lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        ..Default::default()
    });

    let img = 3 * 16 * 16;
    let (data, labels) = synth_batch(batch, classes, img, 0);
    net.set_input("data", &data);
    net.set_input("label", &labels);
    let first_loss = net.forward(&mut cg);
    assert!(
        first_loss.is_finite() && first_loss > 0.5,
        "initial loss {first_loss}"
    );

    let mut last_loss = first_loss;
    for iter in 0..25 {
        let (data, labels) = synth_batch(batch, classes, img, iter % 3);
        net.set_input("data", &data);
        net.set_input("label", &labels);
        net.zero_param_diffs();
        last_loss = net.forward(&mut cg);
        net.backward(&mut cg);
        solver.step(&mut cg, &mut net);
    }
    assert!(
        last_loss < 0.6 * first_loss,
        "training failed to reduce loss: {first_loss} -> {last_loss}"
    );
    // Accuracy on the training distribution should be well above chance.
    let (data, labels) = synth_batch(batch, classes, img, 0);
    net.set_input("data", &data);
    net.set_input("label", &labels);
    net.forward(&mut cg);
    let acc = net.blob("accuracy").data()[0];
    assert!(acc >= 0.5, "accuracy {acc} not above chance");
    // The simulated clock advanced.
    assert!(cg.elapsed().seconds() > 0.0);
}

#[test]
fn gradients_flow_to_every_parameter() {
    let def = models::tiny_cnn(4, 3);
    let mut net = Net::from_def(&def, true).unwrap();
    let mut cg = CoreGroup::new(ExecMode::Functional);
    let (data, labels) = synth_batch(4, 3, 3 * 16 * 16, 1);
    net.set_input("data", &data);
    net.set_input("label", &labels);
    net.zero_param_diffs();
    net.forward(&mut cg);
    net.backward(&mut cg);
    for (i, p) in net.params().iter().enumerate() {
        assert!(
            p.diff().iter().any(|g| *g != 0.0),
            "parameter blob {i} received no gradient"
        );
        assert!(
            p.diff().iter().all(|v| v.is_finite()),
            "parameter blob {i} has NaN grads"
        );
    }
}

#[test]
fn timing_mode_runs_all_five_networks() {
    // Shrunk batches: timing models are closed-form so batch only scales
    // the numbers; this keeps the test quick while touching every layer.
    let nets: Vec<(&str, swcaffe_core::NetDef)> = vec![
        ("alexnet", models::alexnet_bn(16)),
        ("vgg16", models::vgg16(8)),
        ("vgg19", models::vgg19(8)),
        ("resnet50", models::resnet50(8)),
        ("googlenet", models::googlenet(8)),
    ];
    for (name, def) in nets {
        let mut net = Net::from_def(&def, false).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let (_, fwd) = net.forward_with_times(&mut cg);
        let bwd = net.backward_with_times(&mut cg);
        let f = fwd.total().seconds();
        let b = bwd.total().seconds();
        assert!(f > 0.0 && f.is_finite(), "{name}: bad forward time {f}");
        assert!(b > 0.0 && b.is_finite(), "{name}: bad backward time {b}");
        // Backward is roughly 1.5-3x forward for conv nets.
        assert!(
            b > 0.8 * f,
            "{name}: backward {b} implausibly small vs forward {f}"
        );
        assert_eq!(fwd.entries.len(), def.layers.len());
    }
}

#[test]
fn functional_and_timing_modes_charge_identically() {
    // The central simulator invariant at framework level: a full training
    // iteration charges the same simulated time in both modes.
    let def = models::tiny_cnn(4, 3);

    let run = |materialize: bool| -> f64 {
        let mode = if materialize {
            ExecMode::Functional
        } else {
            ExecMode::TimingOnly
        };
        let mut net = Net::from_def(&def, materialize).unwrap();
        let mut cg = CoreGroup::new(mode);
        if materialize {
            let (data, labels) = synth_batch(4, 3, 3 * 16 * 16, 2);
            net.set_input("data", &data);
            net.set_input("label", &labels);
        }
        net.forward(&mut cg);
        net.backward(&mut cg);
        cg.elapsed().seconds()
    };

    let functional = run(true);
    let timing = run(false);
    let rel = (functional - timing).abs() / functional;
    // Mesh execution vs closed-form models: small drift allowed.
    assert!(
        rel < 0.12,
        "mode mismatch: functional {functional} vs timing {timing} (rel {rel})"
    );
}

#[test]
fn netdef_json_roundtrip_preserves_execution() {
    let def = models::tiny_cnn(4, 3);
    let json = def.to_json();
    let def2 = swcaffe_core::NetDef::from_json(&json).unwrap();
    let mut net1 = Net::from_def(&def, true).unwrap();
    let mut net2 = Net::from_def(&def2, true).unwrap();
    let mut cg = CoreGroup::new(ExecMode::Functional);
    let (data, labels) = synth_batch(4, 3, 3 * 16 * 16, 3);
    for net in [&mut net1, &mut net2] {
        net.set_input("data", &data);
        net.set_input("label", &labels);
    }
    let l1 = net1.forward(&mut cg);
    let l2 = net2.forward(&mut cg);
    assert_eq!(l1, l2, "identical nets with identical seeds must agree");
}

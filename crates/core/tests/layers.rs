//! Direct layer-level tests: each framework layer exercised in isolation
//! through a minimal two-layer net, checked against hand-computed or
//! finite-difference oracles, plus phase (train/test) behaviour.

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{ConvFormat, LayerKind, Net, NetDef, Phase, PoolKind, TransDir};

fn cg() -> CoreGroup {
    CoreGroup::new(ExecMode::Functional)
}

fn single_layer_net(kind: LayerKind, in_shape: Vec<usize>) -> Net {
    let def = NetDef::new("t")
        .layer(
            "data",
            LayerKind::Input {
                shape: in_shape,
                with_labels: false,
            },
            &[],
            &["data"],
        )
        .layer("l", kind, &["data"], &["out"]);
    Net::from_def(&def, true).unwrap()
}

#[test]
fn relu_layer_forward() {
    let mut net = single_layer_net(LayerKind::ReLU, vec![1, 1, 2, 2]);
    net.set_input("data", &[-1.0, 2.0, 0.0, -0.5]);
    net.forward(&mut cg());
    assert_eq!(net.blob("out").data(), &[0.0, 2.0, 0.0, 0.0]);
}

#[test]
fn pooling_layer_forward() {
    let mut net = single_layer_net(
        LayerKind::Pooling {
            kernel: 2,
            stride: 2,
            pad: 0,
            method: PoolKind::Max,
        },
        vec![1, 1, 2, 2],
    );
    net.set_input("data", &[1.0, 3.0, 2.0, 0.0]);
    net.forward(&mut cg());
    assert_eq!(net.blob("out").data(), &[3.0]);
}

#[test]
fn conv_layer_1x1_is_channel_mix() {
    // A 1x1 convolution with hand-set weights is a per-pixel matrix
    // multiply over channels.
    let def = NetDef::new("t")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![1, 2, 2, 2],
                with_labels: false,
            },
            &[],
            &["data"],
        )
        .layer(
            "conv",
            LayerKind::Convolution {
                num_output: 1,
                kernel: 1,
                stride: 1,
                pad: 0,
                bias: false,
                format: ConvFormat::Nchw,
            },
            &["data"],
            &["out"],
        );
    let mut net = Net::from_def(&def, true).unwrap();
    // weights (1, 2, 1, 1) = [2, -1].
    net.params_mut()[0].set_data(&[2.0, -1.0]);
    // channel0 = [1,2,3,4], channel1 = [10,20,30,40].
    net.set_input("data", &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
    net.forward(&mut cg());
    assert_eq!(net.blob("out").data(), &[-8.0, -16.0, -24.0, -32.0]);
}

#[test]
fn eltwise_and_concat_layers() {
    let def = NetDef::new("t")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![1, 1, 2, 2],
                with_labels: false,
            },
            &[],
            &["a"],
        )
        .layer(
            "data2",
            LayerKind::Input {
                shape: vec![1, 1, 2, 2],
                with_labels: false,
            },
            &[],
            &["b"],
        )
        .layer("sum", LayerKind::EltwiseSum, &["a", "b"], &["sum"])
        .layer("cat", LayerKind::Concat, &["a", "sum"], &["cat"]);
    let mut net = Net::from_def(&def, true).unwrap();
    net.set_input("a", &[1.0, 2.0, 3.0, 4.0]);
    net.set_input("b", &[10.0, 10.0, 10.0, 10.0]);
    net.forward(&mut cg());
    assert_eq!(net.blob("sum").data(), &[11.0, 12.0, 13.0, 14.0]);
    assert_eq!(net.blob("cat").shape(), &[1, 2, 2, 2]);
    assert_eq!(
        net.blob("cat").data(),
        &[1.0, 2.0, 3.0, 4.0, 11.0, 12.0, 13.0, 14.0]
    );
}

#[test]
fn transform_layer_roundtrip_through_net() {
    let def = NetDef::new("t")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![2, 3, 2, 2],
                with_labels: false,
            },
            &[],
            &["data"],
        )
        .layer(
            "to",
            LayerKind::TensorTransform {
                dir: TransDir::NchwToRcnb,
            },
            &["data"],
            &["rcnb"],
        )
        .layer(
            "back",
            LayerKind::TensorTransform {
                dir: TransDir::RcnbToNchw,
            },
            &["rcnb"],
            &["out"],
        );
    let mut net = Net::from_def(&def, true).unwrap();
    let input: Vec<f32> = (0..24).map(|i| i as f32).collect();
    net.set_input("data", &input);
    net.forward(&mut cg());
    assert_eq!(net.blob("out").data(), &input[..]);
    assert_ne!(net.blob("rcnb").data(), &input[..]);
}

#[test]
fn dropout_respects_phase() {
    let mut net = single_layer_net(LayerKind::Dropout { ratio: 0.5 }, vec![1, 1, 10, 10]);
    let input = vec![1.0f32; 100];
    net.set_input("data", &input);
    let mut c = cg();

    net.set_phase(Phase::Train);
    net.forward(&mut c);
    let train_out: Vec<f32> = net.blob("out").data().to_vec();
    let zeros = train_out.iter().filter(|v| **v == 0.0).count();
    assert!(zeros > 20 && zeros < 80, "dropout zeroed {zeros}/100");
    // Survivors are scaled by 1/(1-p) = 2.
    assert!(train_out
        .iter()
        .all(|v| *v == 0.0 || (*v - 2.0).abs() < 1e-6));

    net.set_phase(Phase::Test);
    net.forward(&mut c);
    assert_eq!(
        net.blob("out").data(),
        &input[..],
        "inference must be the identity"
    );
}

#[test]
fn batchnorm_respects_phase() {
    let mut net = single_layer_net(
        LayerKind::BatchNorm {
            eps: 1e-5,
            momentum: 0.5,
        },
        vec![2, 1, 2, 2],
    );
    let mut c = cg();
    // Train on a biased batch so running stats move away from (0, 1).
    let input = vec![5.0f32, 5.0, 5.0, 5.0, 7.0, 7.0, 7.0, 7.0];
    net.set_input("data", &input);
    net.set_phase(Phase::Train);
    net.forward(&mut c);
    // Training output is batch-normalised: mean 0.
    let train_out: Vec<f32> = net.blob("out").data().to_vec();
    let mean: f32 = train_out.iter().sum::<f32>() / 8.0;
    assert!(mean.abs() < 1e-4);

    // In test phase the same input normalises with the *running* stats,
    // which have only moved halfway (momentum 0.5 from init (0,1)):
    // mean 3, var ~1 (0.5*1 + 0.5*1): output stays far from zero-mean.
    net.set_phase(Phase::Test);
    net.forward(&mut c);
    let test_out: Vec<f32> = net.blob("out").data().to_vec();
    let tmean: f32 = test_out.iter().sum::<f32>() / 8.0;
    assert!(
        tmean > 1.0,
        "test-phase output mean {tmean} should reflect running stats"
    );
    assert_ne!(train_out, test_out);
}

#[test]
fn inner_product_gradient_check() {
    // Drive the layer directly (bypassing the Net, which only backprops
    // from loss layers): d(sum of outputs)/d(weights) by finite
    // differences.
    use swcaffe_core::layers::InnerProductLayer;
    use swcaffe_core::{Blob, Layer};

    let input_data = [0.5f32, -1.0, 2.0, 1.5, 0.0, -0.5];
    let forward_sum = |w: &[f32]| -> f64 {
        let mut layer = InnerProductLayer::new("fc", 2, true, &[2, 3], true, 0);
        layer.params_mut()[0].set_data(w);
        let mut bottom = Blob::new(&[2, 3]);
        bottom.set_data(&input_data);
        let mut top = Blob::new(&[2, 2]);
        layer.forward(&mut cg(), &[&bottom], &mut [&mut top]);
        let total: f64 = top.data().iter().map(|v| *v as f64).sum();
        total
    };

    let mut layer = InnerProductLayer::new("fc", 2, true, &[2, 3], true, 0);
    let w0: Vec<f32> = layer.params()[0].data().to_vec();
    let mut bottom = Blob::new(&[2, 3]);
    bottom.set_data(&input_data);
    let mut top = Blob::new(&[2, 2]);
    layer.forward(&mut cg(), &[&bottom], &mut [&mut top]);
    top.diff_mut().fill(1.0);
    layer.backward(&mut cg(), &[&top], &mut [&mut bottom], &[true]);
    let dw: Vec<f32> = layer.params()[0].diff().to_vec();
    let db: Vec<f32> = layer.params()[1].diff().to_vec();

    // Bias gradient of sum-loss is the batch size per output.
    assert!(db.iter().all(|v| (*v - 2.0).abs() < 1e-4), "db = {db:?}");

    let eps = 1e-2f32;
    for wi in [0usize, 2, 5] {
        let mut wp = w0.clone();
        wp[wi] += eps;
        let up = forward_sum(&wp);
        wp[wi] = w0[wi] - eps;
        let down = forward_sum(&wp);
        let fd = (up - down) / (2.0 * eps as f64);
        assert!(
            (fd - dw[wi] as f64).abs() < 2e-2 * fd.abs().max(1.0),
            "dW[{wi}]: fd {fd} vs analytic {}",
            dw[wi]
        );
    }
}

#[test]
fn lrn_layer_runs_in_net() {
    let mut net = single_layer_net(
        LayerKind::Lrn {
            local_size: 3,
            alpha: 1e-4,
            beta: 0.75,
            k: 1.0,
        },
        vec![1, 4, 2, 2],
    );
    let input: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
    net.set_input("data", &input);
    net.forward(&mut cg());
    let out = net.blob("out").data().to_vec();
    // LRN shrinks magnitudes (scale >= k = 1) but preserves signs/zeros.
    for (o, i) in out.iter().zip(&input) {
        assert!(o.abs() <= i.abs() + 1e-6);
        assert_eq!(o.signum(), i.signum());
    }
}

#[test]
fn branched_dag_gradient_fan_in() {
    // A blob consumed by two branches (ResNet shortcut pattern): the
    // bottom's gradient must be the *sum* of both consumers' gradients.
    // Verified against finite differences through the loss.
    let def = {
        // data -> conv -> relu -> (branch A: conv2) + (shortcut) -> sum -> fc -> loss
        NetDef::new("branchy")
            .layer(
                "data",
                LayerKind::Input {
                    shape: vec![2, 2, 6, 6],
                    with_labels: true,
                },
                &[],
                &["data", "label"],
            )
            .layer(
                "conv1",
                LayerKind::Convolution {
                    num_output: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: true,
                    format: ConvFormat::Nchw,
                },
                &["data"],
                &["conv1"],
            )
            .layer("relu1", LayerKind::ReLU, &["conv1"], &["relu1"])
            .layer(
                "conv2",
                LayerKind::Convolution {
                    num_output: 4,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    bias: false,
                    format: ConvFormat::Nchw,
                },
                &["relu1"],
                &["conv2"],
            )
            .layer(
                "join",
                LayerKind::EltwiseSum,
                &["conv2", "relu1"],
                &["join"],
            )
            .layer(
                "fc",
                LayerKind::InnerProduct {
                    num_output: 3,
                    bias: false,
                },
                &["join"],
                &["fc"],
            )
            .layer(
                "loss",
                LayerKind::SoftmaxWithLoss,
                &["fc", "label"],
                &["loss"],
            )
    };
    swcaffe_core::lint::infer_shapes(&def).unwrap();

    let input: Vec<f32> = (0..2 * 2 * 36)
        .map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6)
        .collect();
    let labels = [0.0f32, 2.0];

    let loss_of = |data: &[f32]| -> f64 {
        let mut net = Net::from_def(&def, true).unwrap();
        net.set_input("data", data);
        net.set_input("label", &labels);
        net.forward(&mut cg()) as f64
    };

    // Analytic gradient w.r.t. the *data* blob requires propagating into
    // an input... instead check the first conv's weight gradient, which
    // receives contributions through BOTH branches.
    let mut net = Net::from_def(&def, true).unwrap();
    net.set_input("data", &input);
    net.set_input("label", &labels);
    net.zero_param_diffs();
    net.forward(&mut cg());
    net.backward(&mut cg());
    let w0: Vec<f32> = net.params()[0].data().to_vec();
    let dw: Vec<f32> = net.params()[0].diff().to_vec();
    assert!(dw.iter().any(|v| *v != 0.0), "conv1 got no gradient");

    let loss_with_w = |w: &[f32]| -> f64 {
        let mut net = Net::from_def(&def, true).unwrap();
        net.params_mut()[0].set_data(w);
        net.set_input("data", &input);
        net.set_input("label", &labels);
        net.forward(&mut cg()) as f64
    };
    let _ = loss_of;
    let eps = 5e-3f32;
    for wi in [0usize, 7, 31, 50] {
        let mut wp = w0.clone();
        wp[wi] += eps;
        let up = loss_with_w(&wp);
        wp[wi] = w0[wi] - eps;
        let down = loss_with_w(&wp);
        let fd = (up - down) / (2.0 * eps as f64);
        assert!(
            (fd - dw[wi] as f64).abs() < 5e-2 * fd.abs().max(0.05),
            "dW[{wi}] through branched DAG: fd {fd} vs analytic {}",
            dw[wi]
        );
    }
}

#[test]
fn inception_module_trains_functionally() {
    // A miniature GoogLeNet inception module (4 branches + concat) must
    // run forward/backward and learn — exercising Concat's gradient split
    // and the 4-way fan-out of the module input.
    let mk_conv = |n: usize| LayerKind::Convolution {
        num_output: n,
        kernel: 1,
        stride: 1,
        pad: 0,
        bias: true,
        format: ConvFormat::Nchw,
    };
    let def = NetDef::new("mini_inception")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![4, 6, 6, 6],
                with_labels: true,
            },
            &[],
            &["data", "label"],
        )
        .layer("b1", mk_conv(3), &["data"], &["b1"])
        .layer("b3r", mk_conv(2), &["data"], &["b3r"])
        .layer(
            "b3",
            LayerKind::Convolution {
                num_output: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: true,
                format: ConvFormat::Nchw,
            },
            &["b3r"],
            &["b3"],
        )
        .layer(
            "pool",
            LayerKind::Pooling {
                kernel: 3,
                stride: 1,
                pad: 1,
                method: PoolKind::Max,
            },
            &["data"],
            &["pool"],
        )
        .layer("bp", mk_conv(2), &["pool"], &["bp"])
        .layer("cat", LayerKind::Concat, &["b1", "b3", "bp"], &["cat"])
        .layer("relu", LayerKind::ReLU, &["cat"], &["relu"])
        .layer(
            "fc",
            LayerKind::InnerProduct {
                num_output: 3,
                bias: true,
            },
            &["relu"],
            &["fc"],
        )
        .layer(
            "loss",
            LayerKind::SoftmaxWithLoss,
            &["fc", "label"],
            &["loss"],
        );
    swcaffe_core::lint::infer_shapes(&def).unwrap();

    let mut net = Net::from_def(&def, true).unwrap();
    assert_eq!(net.blob("cat").shape(), &[4, 9, 6, 6]);

    let mut solver = swcaffe_core::SgdSolver::new(swcaffe_core::SolverConfig {
        base_lr: 0.1,
        ..Default::default()
    });
    let mut c = cg();
    let img = 6 * 6 * 6;
    let data: Vec<f32> = (0..4 * img)
        .map(|i| {
            let b = i / img;
            let pos = i % img;
            let stripe = pos * 3 / img == b % 3;
            ((i * 17 % 23) as f32 / 23.0 - 0.5) * 0.2 + if stripe { 1.0 } else { 0.0 }
        })
        .collect();
    let labels: Vec<f32> = (0..4).map(|b| (b % 3) as f32).collect();
    net.set_input("data", &data);
    net.set_input("label", &labels);
    let first = net.forward(&mut c);
    let mut last = first;
    for _ in 0..20 {
        net.zero_param_diffs();
        last = net.forward(&mut c);
        net.backward(&mut c);
        solver.step(&mut c, &mut net);
        // Every conv branch must receive gradient.
        for (i, p) in net.params().iter().enumerate() {
            assert!(p.diff().iter().all(|v| v.is_finite()), "param {i} NaN");
        }
    }
    assert!(
        last < 0.5 * first,
        "inception module failed to learn: {first} -> {last}"
    );
}

/// Accuracy over scores `[b, classes]` with the given labels.
fn accuracy(scores: &[f32], labels: &[f32], classes: usize) -> f32 {
    let def = NetDef::new("acc")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![labels.len(), classes],
                with_labels: true,
            },
            &[],
            &["data", "label"],
        )
        .layer(
            "acc",
            LayerKind::Accuracy { top_k: 1 },
            &["data", "label"],
            &["acc"],
        );
    let mut net = Net::from_def(&def, true).unwrap();
    net.set_input("data", scores);
    net.set_input("label", labels);
    net.forward(&mut cg());
    let hits = net.blob("acc").data()[0];
    hits
}

#[test]
fn accuracy_counts_top1_hits() {
    let scores = [0.1, 0.7, 0.2, 0.5, 0.3, 0.2];
    assert_eq!(accuracy(&scores, &[1.0, 1.0], 3), 0.5);
}

#[test]
#[should_panic(expected = "label 3 of image 1 is not a class in 0..3")]
fn accuracy_rejects_a_label_past_the_last_class() {
    accuracy(&[0.0; 6], &[0.0, 3.0], 3);
}

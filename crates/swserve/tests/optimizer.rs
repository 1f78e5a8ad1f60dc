//! Graph-optimizer correctness: the optimized frozen graph must produce
//! the same logits (bitwise) as the frozen unoptimized net, its layers
//! must be in a valid topological order, and malformed graphs
//! (cycles, orphaned inputs) must be rejected.

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{models, LayerDef, LayerKind, Net, NetDef, Phase, TransDir};
use swserve::graph::{optimize, topo_schedule, FrozenGraph};
use swserve::Engine;

fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed);
            ((x >> 33) % 2000) as f32 / 500.0 - 2.0
        })
        .collect()
}

/// Every layer's bottoms must be produced by an earlier layer.
fn assert_topological(def: &NetDef) {
    let mut produced: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for l in &def.layers {
        for b in &l.bottoms {
            assert!(
                produced.contains(b.as_str()),
                "layer `{}` consumes `{b}` before it is produced",
                l.name
            );
        }
        for t in &l.tops {
            produced.insert(t);
        }
    }
}

#[test]
fn optimized_logits_match_frozen_unoptimized_net_bitwise() {
    let batch = 4;
    let classes = 10;
    let def = models::tiny_dropout_cnn(batch, classes);
    let per_image = 3 * 8 * 8;
    let input = values(batch * per_image, 17);
    let labels: Vec<f32> = (0..batch).map(|i| (i % classes) as f32).collect();

    for mode in [ExecMode::Functional, ExecMode::HostNative { threads: 2 }] {
        // Frozen unoptimized reference: the training definition at test
        // phase (dropout = identity, BN on running stats).
        let mut net = Net::from_def_mode_seeded(&def, mode, 42).unwrap();
        net.set_phase(Phase::Test);
        net.set_input("data", &input);
        net.set_input("label", &labels);
        let mut cg = CoreGroup::new(mode);
        net.forward(&mut cg);
        let want = net.blob("fc").data().to_vec();

        let graph = FrozenGraph::freeze(&def, &net).unwrap();
        let mut engine = Engine::new(graph, mode);
        let got = engine.infer(batch, &input).unwrap();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{mode:?} logit {i}: optimized {g} vs unoptimized {w}"
            );
        }

        // Padded-bucket path: a batch of 3 rides in the 4-bucket and
        // must reproduce the first three rows exactly.
        let got3 = engine.infer(3, &input[..3 * per_image]).unwrap();
        assert_eq!(got3.len(), 3 * classes);
        for (i, (g, w)) in got3.iter().zip(&want[..3 * classes]).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{mode:?} padded logit {i}");
        }
    }
}

#[test]
fn optimizer_strips_training_nodes_and_fuses_the_chain() {
    let def = models::tiny_dropout_cnn(4, 10);
    // data, conv1, bn1, relu1, fc1, relu2, drop1, fc, loss, accuracy,
    // accuracy_top5 = 11 layers.
    assert_eq!(def.layers.len(), 11);
    let graph = optimize(&def).unwrap();
    // loss + 2 accuracy heads + dropout removed as training-only.
    assert_eq!(graph.stats.removed_training, 4);
    // The unused label input is dropped as dead.
    assert_eq!(graph.stats.removed_dead, 1);
    // conv1 -> bn1 -> relu1 becomes one fused layer.
    assert_eq!(graph.stats.fused, 1);
    assert_eq!(graph.fusions.len(), 1);
    assert_eq!(graph.fusions[0].conv, "conv1");
    assert_eq!(graph.fusions[0].bn, "bn1");
    assert!(graph.def.layers.iter().any(|l| l.name == "conv1+bn1+relu1"));
    // data, fused, fc1, relu2, fc = 5 scheduled nodes.
    assert_eq!(graph.stats.scheduled_nodes, 5);
    assert_eq!(graph.def.layers.len(), 5);
    assert_eq!(graph.output, "fc");
    assert_eq!(graph.input, "data");
    assert!(graph
        .def
        .layers
        .iter()
        .any(|l| matches!(l.kind, LayerKind::FusedConvBnRelu { .. })));
    // No label blob survives anywhere.
    assert!(graph
        .def
        .layers
        .iter()
        .all(|l| l.tops.iter().all(|t| t != "label")));
    assert_topological(&graph.def);
}

#[test]
fn inverse_transform_pairs_fold_away() {
    let mut def = NetDef::new("trans_pair");
    def = def
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![2, 3, 4, 4],
                with_labels: false,
            },
            &[],
            &["data"],
        )
        .layer(
            "to_rcnb",
            LayerKind::TensorTransform {
                dir: TransDir::NchwToRcnb,
            },
            &["data"],
            &["t1"],
        )
        .layer(
            "to_nchw",
            LayerKind::TensorTransform {
                dir: TransDir::RcnbToNchw,
            },
            &["t1"],
            &["t2"],
        )
        .layer("relu", LayerKind::ReLU, &["t2"], &["out"]);
    swcaffe_core::lint::infer_shapes(&def).unwrap();
    let graph = optimize(&def).unwrap();
    assert_eq!(graph.stats.folded, 1);
    assert_eq!(graph.def.layers.len(), 2);
    assert_eq!(graph.def.layers[1].name, "relu");
    // The relu now reads straight from the input blob.
    assert_eq!(graph.def.layers[1].bottoms, vec!["data".to_string()]);
    assert_topological(&graph.def);
}

#[test]
fn single_input_concat_collapses() {
    let def = NetDef::new("concat1")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![2, 8, 1, 1],
                with_labels: false,
            },
            &[],
            &["data"],
        )
        .layer("cat", LayerKind::Concat, &["data"], &["catted"])
        .layer("relu", LayerKind::ReLU, &["catted"], &["out"]);
    swcaffe_core::lint::infer_shapes(&def).unwrap();
    let graph = optimize(&def).unwrap();
    assert_eq!(graph.stats.folded, 1);
    assert_eq!(graph.def.layers.len(), 2);
    assert_eq!(graph.def.layers[1].bottoms, vec!["data".to_string()]);
}

#[test]
fn schedule_rejects_cycles() {
    let layers = vec![
        LayerDef {
            name: "a".into(),
            kind: LayerKind::ReLU,
            bottoms: vec!["y".into()],
            tops: vec!["x".into()],
        },
        LayerDef {
            name: "b".into(),
            kind: LayerKind::ReLU,
            bottoms: vec!["x".into()],
            tops: vec!["y".into()],
        },
    ];
    let err = topo_schedule(&layers).unwrap_err();
    assert!(err.contains("cycle"), "unexpected error: {err}");
}

#[test]
fn schedule_rejects_orphaned_inputs() {
    let layers = vec![LayerDef {
        name: "lonely".into(),
        kind: LayerKind::ReLU,
        bottoms: vec!["ghost".into()],
        tops: vec!["out".into()],
    }];
    let err = topo_schedule(&layers).unwrap_err();
    assert!(err.contains("no layer produces"), "unexpected error: {err}");
}

#[test]
fn schedule_handles_unordered_dags() {
    // Kahn must recover a valid order even when the layer list is not
    // already topologically sorted.
    let layers = vec![
        LayerDef {
            name: "late".into(),
            kind: LayerKind::ReLU,
            bottoms: vec!["mid".into()],
            tops: vec!["out".into()],
        },
        LayerDef {
            name: "src".into(),
            kind: LayerKind::Input {
                shape: vec![1, 4],
                with_labels: false,
            },
            bottoms: vec![],
            tops: vec!["data".into()],
        },
        LayerDef {
            name: "mid".into(),
            kind: LayerKind::ReLU,
            bottoms: vec!["data".into()],
            tops: vec!["mid".into()],
        },
    ];
    let order = topo_schedule(&layers).unwrap();
    assert_eq!(order, vec![1, 2, 0]);
}

/// Acceptance criterion: the optimized VGG graph schedules fewer nodes
/// and simulates a lower per-batch latency than the unoptimized frozen
/// graph.
#[test]
fn optimized_vgg_is_smaller_and_faster() {
    let batch = 8;
    let def = models::vgg16(batch);
    let graph = optimize(&def).unwrap();
    assert!(
        graph.stats.scheduled_nodes < def.layers.len(),
        "optimized VGG must schedule fewer nodes ({} vs {})",
        graph.stats.scheduled_nodes,
        def.layers.len()
    );
    assert_topological(&graph.def);

    let mut net = Net::from_def_mode_seeded(&def, ExecMode::TimingOnly, 0).unwrap();
    net.set_phase(Phase::Test);
    let mut cg = CoreGroup::new(ExecMode::TimingOnly);
    net.forward(&mut cg);
    let unoptimized = cg.elapsed().seconds();

    let mut engine = Engine::new(graph, ExecMode::TimingOnly);
    let optimized = engine.latency_seconds(batch).unwrap();
    assert!(
        optimized < unoptimized,
        "optimized VGG latency {optimized} !< unoptimized {unoptimized}"
    );
}

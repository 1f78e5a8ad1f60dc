//! Negative tests for `swcheck::graph`: hand-built net definitions with
//! one injected defect each; the lint must name the defect (and the
//! clean baseline must stay clean).

use swcaffe_core::{ConvFormat, LayerKind, NetDef, PoolKind, TransDir};
use swcheck::graph::{check_net_def, GraphViolation};

fn input(shape: &[usize]) -> LayerKind {
    LayerKind::Input {
        shape: shape.to_vec(),
        with_labels: false,
    }
}

fn kinds(def: &NetDef) -> Vec<&'static str> {
    check_net_def(def)
        .violations
        .iter()
        .map(GraphViolation::kind)
        .collect()
}

#[test]
fn clean_baseline_stays_clean() {
    let def = NetDef::new("clean")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer("relu", LayerKind::ReLU, &["data"], &["act"]);
    assert!(kinds(&def).is_empty(), "{:?}", kinds(&def));
}

#[test]
fn shape_mismatch_is_reported() {
    // Pooling window larger than the feature map: its output extent
    // would underflow; the lint reports it as a typed shape violation.
    let def = NetDef::new("bad_pool")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer(
            "pool",
            LayerKind::Pooling {
                kernel: 9,
                stride: 1,
                pad: 0,
                method: PoolKind::Max,
            },
            &["data"],
            &["pooled"],
        );
    let found = kinds(&def);
    assert!(found.contains(&"shape_mismatch"), "{found:?}");

    // Eltwise operands of different shapes.
    let def = NetDef::new("bad_sum")
        .layer("a", input(&[2, 3, 8, 8]), &[], &["a"])
        .layer("b", input(&[2, 3, 4, 4]), &[], &["b"])
        .layer("sum", LayerKind::EltwiseSum, &["a", "b"], &["out"]);
    let found = kinds(&def);
    assert!(found.contains(&"shape_mismatch"), "{found:?}");
}

#[test]
fn dangling_blob_and_dead_layer_are_reported() {
    // A side branch nobody consumes while the graph has a loss head:
    // its top dangles and the layer producing it is dead.
    let def = NetDef::new("dangler")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![2, 3, 8, 8],
                with_labels: true,
            },
            &[],
            &["data", "label"],
        )
        .layer("relu", LayerKind::ReLU, &["data"], &["act"])
        .layer("side", LayerKind::ReLU, &["data"], &["unused"])
        .layer(
            "fc",
            LayerKind::InnerProduct {
                num_output: 4,
                bias: true,
            },
            &["act"],
            &["scores"],
        )
        .layer(
            "loss",
            LayerKind::SoftmaxWithLoss,
            &["scores", "label"],
            &["loss"],
        );
    let found = kinds(&def);
    assert!(found.contains(&"dangling_blob"), "{found:?}");
    assert!(found.contains(&"dead_layer"), "{found:?}");
}

#[test]
fn in_place_alias_is_reported() {
    let def = NetDef::new("alias")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer("relu", LayerKind::ReLU, &["data"], &["data"]);
    let found = kinds(&def);
    assert!(found.contains(&"in_place_alias"), "{found:?}");
}

#[test]
fn undefined_and_redefined_blobs_are_reported() {
    let def = NetDef::new("undefined")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer("relu", LayerKind::ReLU, &["ghost"], &["act"]);
    let found = kinds(&def);
    assert!(found.contains(&"undefined_blob"), "{found:?}");

    let def = NetDef::new("redefined")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer("r1", LayerKind::ReLU, &["data"], &["act"])
        .layer("r2", LayerKind::ReLU, &["data"], &["act"]);
    let found = kinds(&def);
    assert!(found.contains(&"redefined_blob"), "{found:?}");
}

#[test]
fn layout_mismatch_is_reported() {
    // An RCNB convolution fed an NCHW blob without the transform.
    let def = NetDef::new("layout")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer(
            "conv",
            LayerKind::Convolution {
                num_output: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: true,
                format: ConvFormat::Rcnb,
            },
            &["data"],
            &["feat"],
        )
        .layer(
            "back",
            LayerKind::TensorTransform {
                dir: TransDir::RcnbToNchw,
            },
            &["feat"],
            &["out"],
        );
    let found = kinds(&def);
    assert!(found.contains(&"layout_mismatch"), "{found:?}");
}

#[test]
fn fusion_precondition_violation_is_reported() {
    // The inference-only fused layer coexisting with a training head.
    let def = NetDef::new("fused_train")
        .layer(
            "data",
            LayerKind::Input {
                shape: vec![2, 3, 8, 8],
                with_labels: true,
            },
            &[],
            &["data", "label"],
        )
        .layer(
            "fused",
            LayerKind::FusedConvBnRelu {
                num_output: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: true,
                eps: 1e-5,
            },
            &["data"],
            &["feat"],
        )
        .layer(
            "fc",
            LayerKind::InnerProduct {
                num_output: 4,
                bias: true,
            },
            &["feat"],
            &["scores"],
        )
        .layer(
            "loss",
            LayerKind::SoftmaxWithLoss,
            &["scores", "label"],
            &["loss"],
        );
    let found = kinds(&def);
    assert!(found.contains(&"fusion_precondition"), "{found:?}");
}

#[test]
fn bottom_arity_violation_is_reported() {
    let def = NetDef::new("arity")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer("sum", LayerKind::EltwiseSum, &["data"], &["out"]);
    let found = kinds(&def);
    assert!(found.contains(&"bottom_arity"), "{found:?}");
}

#[test]
fn typed_errors_reach_net_construction_and_the_optimizer() {
    // `Net::from_def` must reject an ill-formed definition with the
    // lint's message instead of building a layer from it.
    let def = NetDef::new("bad_pool")
        .layer("data", input(&[2, 3, 8, 8]), &[], &["data"])
        .layer(
            "pool",
            LayerKind::Pooling {
                kernel: 9,
                stride: 1,
                pad: 0,
                method: PoolKind::Max,
            },
            &["data"],
            &["pooled"],
        );
    let err = match swcaffe_core::Net::from_def_mode_seeded(&def, sw26010::ExecMode::Functional, 0)
    {
        Err(e) => e,
        Ok(_) => panic!("lint must reject the window underflow"),
    };
    assert!(err.contains("net lint"), "{err}");

    // The serving optimizer runs the same pre-pass.
    let err = swserve::optimize(&def).expect_err("optimizer pre-pass must reject");
    assert!(err.contains("lint"), "{err}");
}

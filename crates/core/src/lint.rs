//! Static net-graph lint: shape inference and structural analysis over a
//! [`NetDef`], *before* any layer is instantiated.
//!
//! This module holds the only shape rule of every layer kind. A
//! malformed definition is rejected with a typed [`GraphViolation`]
//! naming the layer and the rule: at def-load time via [`infer_shapes`],
//! whose blob-shape table `Net::from_def*` allocates every blob from and
//! builds every layer against, and exhaustively via [`lint_def`], which
//! additionally reports dangling and dead blobs, in-place aliasing,
//! NCHW/RCNB layout mismatches across transform boundaries, and
//! fusion-legality preconditions. The `swserve` graph optimizer runs
//! [`lint_def`] before and after its passes, and `swcheck --graph`
//! sweeps the model zoo with it.

use crate::netdef::{ConvFormat, LayerDef, LayerKind, NetDef, PoolKind, TransDir};
use swdnn::{ConvShape, PoolMethod, PoolShape};

/// One defect found in a net definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphViolation {
    /// A bottom no earlier layer produced.
    UndefinedBlob { layer: String, blob: String },
    /// A top that collides with an already-defined blob.
    RedefinedBlob { layer: String, blob: String },
    /// A layer naming one of its own bottoms as a top (in-place
    /// rewrite): the scheduler assumes write-once blobs, so aliasing
    /// would silently corrupt every other consumer of the bottom.
    InPlaceAlias { layer: String, blob: String },
    /// Wrong number of bottoms for the layer kind.
    BottomArity {
        layer: String,
        expected: &'static str,
        got: usize,
    },
    /// Wrong number of tops for the layer kind.
    TopArity {
        layer: String,
        expected: usize,
        got: usize,
    },
    /// Shape rule violated (dimension counts, window geometry,
    /// mismatched operands).
    ShapeMismatch { layer: String, detail: String },
    /// A produced blob no layer consumes and that is not a recognised
    /// network output.
    DanglingBlob { layer: String, blob: String },
    /// A layer whose outputs cannot reach any output or loss head.
    DeadLayer { layer: String },
    /// A blob produced in one data layout consumed by a kernel expecting
    /// the other (missing or mismatched TensorTransform).
    LayoutMismatch {
        layer: String,
        blob: String,
        expected: ConvFormat,
        got: ConvFormat,
    },
    /// An inference-only fused layer in a graph that still carries
    /// training machinery.
    FusionPrecondition { layer: String, detail: String },
}

impl GraphViolation {
    /// Layer the violation anchors to.
    pub fn layer(&self) -> &str {
        match self {
            GraphViolation::UndefinedBlob { layer, .. }
            | GraphViolation::RedefinedBlob { layer, .. }
            | GraphViolation::InPlaceAlias { layer, .. }
            | GraphViolation::BottomArity { layer, .. }
            | GraphViolation::TopArity { layer, .. }
            | GraphViolation::ShapeMismatch { layer, .. }
            | GraphViolation::DanglingBlob { layer, .. }
            | GraphViolation::DeadLayer { layer }
            | GraphViolation::LayoutMismatch { layer, .. }
            | GraphViolation::FusionPrecondition { layer, .. } => layer,
        }
    }

    /// Short machine-readable kind tag (report/JSON key).
    pub fn kind(&self) -> &'static str {
        match self {
            GraphViolation::UndefinedBlob { .. } => "undefined_blob",
            GraphViolation::RedefinedBlob { .. } => "redefined_blob",
            GraphViolation::InPlaceAlias { .. } => "in_place_alias",
            GraphViolation::BottomArity { .. } => "bottom_arity",
            GraphViolation::TopArity { .. } => "top_arity",
            GraphViolation::ShapeMismatch { .. } => "shape_mismatch",
            GraphViolation::DanglingBlob { .. } => "dangling_blob",
            GraphViolation::DeadLayer { .. } => "dead_layer",
            GraphViolation::LayoutMismatch { .. } => "layout_mismatch",
            GraphViolation::FusionPrecondition { .. } => "fusion_precondition",
        }
    }
}

impl std::fmt::Display for GraphViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphViolation::UndefinedBlob { layer, blob } => {
                write!(f, "layer '{layer}' consumes undefined blob '{blob}'")
            }
            GraphViolation::RedefinedBlob { layer, blob } => {
                write!(f, "layer '{layer}' redefines blob '{blob}'")
            }
            GraphViolation::InPlaceAlias { layer, blob } => {
                write!(
                    f,
                    "layer '{layer}' rewrites its own bottom '{blob}' in place"
                )
            }
            GraphViolation::BottomArity {
                layer,
                expected,
                got,
            } => write!(f, "layer '{layer}' expects {expected} bottoms, got {got}"),
            GraphViolation::TopArity {
                layer,
                expected,
                got,
            } => write!(
                f,
                "layer '{layer}' must declare {expected} top(s), got {got}"
            ),
            GraphViolation::ShapeMismatch { layer, detail } => {
                write!(f, "layer '{layer}': {detail}")
            }
            GraphViolation::DanglingBlob { layer, blob } => {
                write!(f, "blob '{blob}' (from layer '{layer}') is never consumed")
            }
            GraphViolation::DeadLayer { layer } => {
                write!(f, "layer '{layer}' cannot reach any network output")
            }
            GraphViolation::LayoutMismatch {
                layer,
                blob,
                expected,
                got,
            } => write!(
                f,
                "layer '{layer}' needs blob '{blob}' in {expected:?} layout, got {got:?}"
            ),
            GraphViolation::FusionPrecondition { layer, detail } => {
                write!(f, "fused layer '{layer}': {detail}")
            }
        }
    }
}

impl std::error::Error for GraphViolation {}

/// Is this layer a training/metric head whose scalar top is read by the
/// harness rather than by downstream layers?
fn is_head(kind: &LayerKind) -> bool {
    matches!(
        kind,
        LayerKind::SoftmaxWithLoss | LayerKind::Accuracy { .. }
    )
}

/// Expected top count for a layer kind.
fn expected_tops(kind: &LayerKind) -> usize {
    match kind {
        LayerKind::Input { with_labels, .. } => 1 + usize::from(*with_labels),
        _ => 1,
    }
}

fn expect_4d(layer: &str, shape: &[usize], what: &str) -> Result<[usize; 4], GraphViolation> {
    if shape.len() != 4 {
        return Err(GraphViolation::ShapeMismatch {
            layer: layer.to_string(),
            detail: format!("{what} requires a 4-d NCHW blob, got {shape:?}"),
        });
    }
    Ok([shape[0], shape[1], shape[2], shape[3]])
}

/// The convolution a `Convolution` or `FusedConvBnRelu` layer runs on
/// its 4-d NCHW `bottom`.
pub(crate) fn conv_shape(
    bottom: &[usize],
    num_output: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> ConvShape {
    ConvShape {
        batch: bottom[0],
        in_c: bottom[1],
        in_h: bottom[2],
        in_w: bottom[3],
        out_c: num_output,
        k: kernel,
        stride,
        pad,
    }
}

/// The pooling a `Pooling` layer runs on its 4-d NCHW `bottom`.
pub(crate) fn pool_shape(
    bottom: &[usize],
    kernel: usize,
    stride: usize,
    pad: usize,
    method: PoolKind,
) -> PoolShape {
    PoolShape {
        batch: bottom[0],
        channels: bottom[1],
        in_h: bottom[2],
        in_w: bottom[3],
        k: kernel,
        stride,
        pad,
        method: match method {
            PoolKind::Max => PoolMethod::Max,
            PoolKind::Average => PoolMethod::Average,
        },
    }
}

/// Output shapes of one layer given its bottom shapes: the shape rule of
/// every layer kind. A layer is built only from bottoms this accepted.
pub(crate) fn layer_out_shapes(
    l: &LayerDef,
    bottoms: &[&[usize]],
) -> Result<Vec<Vec<usize>>, GraphViolation> {
    let name = l.name.as_str();
    let arity = |expected: &'static str, want: usize| -> Result<(), GraphViolation> {
        if bottoms.len() != want {
            Err(GraphViolation::BottomArity {
                layer: name.to_string(),
                expected,
                got: bottoms.len(),
            })
        } else {
            Ok(())
        }
    };
    let shape_err = |detail: String| GraphViolation::ShapeMismatch {
        layer: name.to_string(),
        detail,
    };
    match &l.kind {
        LayerKind::Input { shape, with_labels } => {
            arity("0", 0)?;
            if shape.is_empty() || shape.contains(&0) {
                return Err(shape_err(format!(
                    "Input shape must be non-empty: {shape:?}"
                )));
            }
            let mut tops = vec![shape.clone()];
            if *with_labels {
                tops.push(vec![shape[0]]);
            }
            Ok(tops)
        }
        LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            ..
        }
        | LayerKind::FusedConvBnRelu {
            num_output,
            kernel,
            stride,
            pad,
            ..
        } => {
            arity("1", 1)?;
            expect_4d(name, bottoms[0], "Convolution")?;
            let shape = conv_shape(bottoms[0], *num_output, *kernel, *stride, *pad);
            shape.validate().map_err(|e| shape_err(e.to_string()))?;
            Ok(vec![vec![
                shape.batch,
                shape.out_c,
                shape.out_h(),
                shape.out_w(),
            ]])
        }
        LayerKind::Pooling {
            kernel,
            stride,
            pad,
            method,
        } => {
            arity("1", 1)?;
            expect_4d(name, bottoms[0], "Pooling")?;
            let shape = pool_shape(bottoms[0], *kernel, *stride, *pad, *method);
            shape.validate().map_err(|e| shape_err(e.to_string()))?;
            Ok(vec![vec![
                shape.batch,
                shape.channels,
                shape.out_h(),
                shape.out_w(),
            ]])
        }
        LayerKind::InnerProduct { num_output, .. } => {
            arity("1", 1)?;
            if bottoms[0].is_empty() {
                return Err(shape_err(
                    "InnerProduct bottom must have at least one axis".into(),
                ));
            }
            Ok(vec![vec![bottoms[0][0], *num_output]])
        }
        LayerKind::ReLU | LayerKind::Dropout { .. } => {
            arity("1", 1)?;
            Ok(vec![bottoms[0].to_vec()])
        }
        LayerKind::BatchNorm { .. } => {
            arity("1", 1)?;
            expect_4d(name, bottoms[0], "BatchNorm")?;
            Ok(vec![bottoms[0].to_vec()])
        }
        LayerKind::Lrn { .. } => {
            arity("1", 1)?;
            expect_4d(name, bottoms[0], "LRN")?;
            Ok(vec![bottoms[0].to_vec()])
        }
        LayerKind::TensorTransform { .. } => {
            arity("1", 1)?;
            expect_4d(name, bottoms[0], "TensorTransform")?;
            Ok(vec![bottoms[0].to_vec()])
        }
        LayerKind::SoftmaxWithLoss => {
            arity("2 ([logits, labels])", 2)?;
            if bottoms[0].is_empty() {
                return Err(shape_err("logits blob must have a batch axis".into()));
            }
            let batch = bottoms[0][0];
            if bottoms[1] != [batch] {
                return Err(shape_err(format!(
                    "label blob must be [batch={batch}], got {:?}",
                    bottoms[1]
                )));
            }
            Ok(vec![vec![1]])
        }
        LayerKind::Accuracy { .. } => {
            arity("2 ([scores, labels])", 2)?;
            if bottoms[0].is_empty() {
                return Err(shape_err("score blob must have a batch axis".into()));
            }
            Ok(vec![vec![1]])
        }
        LayerKind::Concat => {
            if bottoms.is_empty() {
                return Err(GraphViolation::BottomArity {
                    layer: name.to_string(),
                    expected: "at least 1",
                    got: 0,
                });
            }
            let [b, _, h, w] = expect_4d(name, bottoms[0], "Concat")?;
            let spatial = h * w;
            let mut total_c = 0;
            for shape in bottoms {
                let [bb, c, hh, ww] = expect_4d(name, shape, "Concat")?;
                if bb != b || hh * ww != spatial {
                    return Err(shape_err(format!("Concat bottoms disagree: {bottoms:?}")));
                }
                total_c += c;
            }
            Ok(vec![vec![b, total_c, h, w]])
        }
        LayerKind::EltwiseSum => {
            arity("2", 2)?;
            if bottoms[0] != bottoms[1] {
                return Err(shape_err(format!(
                    "EltwiseSum needs two equal-shaped bottoms, got {bottoms:?}"
                )));
            }
            Ok(vec![bottoms[0].to_vec()])
        }
    }
}

/// Structure + shape pass. Returns the first violation, or every blob's
/// inferred shape in definition order. `Net::from_def*` builds exactly
/// the definitions this accepts, with these shapes.
pub fn infer_shapes(def: &NetDef) -> Result<Vec<(String, Vec<usize>)>, GraphViolation> {
    let mut out = Vec::new();
    let mut first_err = None;
    analyze_structure(def, &mut |v| {
        if first_err.is_none() {
            first_err = Some(v);
        }
    })
    .into_iter()
    .for_each(|(blob, shape)| {
        if let Some(s) = shape {
            out.push((blob, s));
        }
    });
    match first_err {
        Some(v) => Err(v),
        None => Ok(out),
    }
}

/// Shared structure+shape walk. Reports violations through `report` and
/// returns the blob table (shape `None` where inference was poisoned by
/// an earlier violation).
#[allow(clippy::type_complexity)]
fn analyze_structure(
    def: &NetDef,
    report: &mut dyn FnMut(GraphViolation),
) -> Vec<(String, Option<Vec<usize>>)> {
    use std::collections::HashMap;
    let mut blob_shapes: HashMap<&str, Option<Vec<usize>>> = HashMap::new();
    let mut order: Vec<(String, Option<Vec<usize>>)> = Vec::new();
    for l in &def.layers {
        let mut bottoms: Vec<&[usize]> = Vec::with_capacity(l.bottoms.len());
        let mut poisoned = false;
        for b in &l.bottoms {
            match blob_shapes.get(b.as_str()) {
                Some(Some(s)) => bottoms.push(s.as_slice()),
                Some(None) => poisoned = true,
                None => {
                    report(GraphViolation::UndefinedBlob {
                        layer: l.name.clone(),
                        blob: b.clone(),
                    });
                    poisoned = true;
                }
            }
        }
        let expected = expected_tops(&l.kind);
        if l.tops.len() != expected {
            report(GraphViolation::TopArity {
                layer: l.name.clone(),
                expected,
                got: l.tops.len(),
            });
            poisoned = true;
        }
        let tops = if poisoned {
            None
        } else {
            match layer_out_shapes(l, &bottoms) {
                Ok(t) => Some(t),
                Err(v) => {
                    report(v);
                    None
                }
            }
        };
        for (i, t) in l.tops.iter().enumerate() {
            if l.bottoms.contains(t) {
                report(GraphViolation::InPlaceAlias {
                    layer: l.name.clone(),
                    blob: t.clone(),
                });
            } else if blob_shapes.contains_key(t.as_str()) {
                report(GraphViolation::RedefinedBlob {
                    layer: l.name.clone(),
                    blob: t.clone(),
                });
            }
            let shape = tops.as_ref().and_then(|ts| ts.get(i).cloned());
            blob_shapes.insert(t.as_str(), shape.clone());
            order.push((t.clone(), shape));
        }
    }
    order
}

/// Layout each blob is produced in, for the NCHW/RCNB transform lint.
fn track_layouts(def: &NetDef, violations: &mut Vec<GraphViolation>) {
    use std::collections::HashMap;
    let mut layout: HashMap<&str, ConvFormat> = HashMap::new();
    for l in &def.layers {
        let got = |b: &String| layout.get(b.as_str()).copied();
        let require = |b: &String, want: ConvFormat, out: &mut Vec<GraphViolation>| {
            if let Some(g) = got(b) {
                if g != want {
                    out.push(GraphViolation::LayoutMismatch {
                        layer: l.name.clone(),
                        blob: b.clone(),
                        expected: want,
                        got: g,
                    });
                }
            }
        };
        let produced: ConvFormat = match &l.kind {
            LayerKind::TensorTransform { dir } => match dir {
                TransDir::NchwToRcnb => {
                    require(&l.bottoms[0], ConvFormat::Nchw, violations);
                    ConvFormat::Rcnb
                }
                TransDir::RcnbToNchw => {
                    require(&l.bottoms[0], ConvFormat::Rcnb, violations);
                    ConvFormat::Nchw
                }
            },
            LayerKind::Convolution { format, .. } => {
                require(&l.bottoms[0], *format, violations);
                *format
            }
            // Element-wise layers are layout-agnostic and propagate
            // whatever layout they are fed.
            LayerKind::ReLU | LayerKind::Dropout { .. } => {
                got(&l.bottoms[0]).unwrap_or(ConvFormat::Nchw)
            }
            // Everything else (including the fused inference kernel)
            // addresses tensors as NCHW.
            _ => {
                for b in &l.bottoms {
                    require(b, ConvFormat::Nchw, violations);
                }
                ConvFormat::Nchw
            }
        };
        for t in &l.tops {
            layout.insert(t.as_str(), produced);
        }
    }
}

/// Full lint: the structure+shape pass plus dangling/dead-blob analysis,
/// layout tracking across TensorTransform boundaries, and
/// fusion-legality preconditions. Returns *all* violations (empty for a
/// clean definition).
pub fn lint_def(def: &NetDef) -> Vec<GraphViolation> {
    let mut violations = Vec::new();
    analyze_structure(def, &mut |v| violations.push(v));

    // --- Consumption analysis: dangling blobs and dead layers. -------
    use std::collections::{HashMap, HashSet};
    let mut consumed: HashSet<&str> = HashSet::new();
    let mut producer: HashMap<&str, usize> = HashMap::new();
    for (li, l) in def.layers.iter().enumerate() {
        for b in &l.bottoms {
            consumed.insert(b.as_str());
        }
        for t in &l.tops {
            producer.entry(t.as_str()).or_insert(li);
        }
    }
    let has_heads = def.layers.iter().any(|l| is_head(&l.kind));
    // Tops exempt from the dangling rule: Input products (a label can
    // legitimately go unused in a head-less graph), head scalars (read
    // by the harness), and — in a head-less inference graph — a *unique*
    // unconsumed top, which is the network output. Two or more
    // unconsumed interior tops always mean something was wired wrong.
    let mut exempt: HashSet<&str> = HashSet::new();
    for l in &def.layers {
        if matches!(l.kind, LayerKind::Input { .. }) || is_head(&l.kind) {
            for t in &l.tops {
                exempt.insert(t.as_str());
            }
        }
    }
    if !has_heads {
        let unconsumed: Vec<&str> = def
            .layers
            .iter()
            .flat_map(|l| l.tops.iter())
            .map(String::as_str)
            .filter(|t| !consumed.contains(t) && !exempt.contains(t))
            .collect();
        if let [output] = unconsumed.as_slice() {
            exempt.insert(output);
        }
    }
    for l in &def.layers {
        for t in &l.tops {
            if !consumed.contains(t.as_str()) && !exempt.contains(t.as_str()) {
                violations.push(GraphViolation::DanglingBlob {
                    layer: l.name.clone(),
                    blob: t.clone(),
                });
            }
        }
    }
    // Reverse-reachability: a layer is live if it is an Input or head,
    // or if one of its tops feeds a live layer or is a recognised
    // output. Definition order is topological (validated above), so one
    // reverse sweep suffices.
    let mut needed: HashSet<&str> = HashSet::new();
    for l in &def.layers {
        for t in &l.tops {
            if exempt.contains(t.as_str()) && !consumed.contains(t.as_str()) {
                needed.insert(t.as_str());
            }
        }
    }
    for l in def.layers.iter().rev() {
        let live = matches!(l.kind, LayerKind::Input { .. })
            || is_head(&l.kind)
            || l.tops.iter().any(|t| needed.contains(t.as_str()));
        if live {
            for b in &l.bottoms {
                needed.insert(b.as_str());
            }
        } else {
            violations.push(GraphViolation::DeadLayer {
                layer: l.name.clone(),
            });
        }
    }

    // --- Layout tracking across transform boundaries. -----------------
    track_layouts(def, &mut violations);

    // --- Fusion preconditions. ----------------------------------------
    // FusedConvBnRelu bakes BN statistics into the conv weights and is
    // only legal in a frozen inference graph: coexisting with training
    // heads or train-time stochastic layers means the optimizer fused
    // too early (or the def was assembled by hand incorrectly).
    for l in &def.layers {
        if matches!(l.kind, LayerKind::FusedConvBnRelu { .. }) {
            if let Some(t) = def
                .layers
                .iter()
                .find(|o| is_head(&o.kind) || matches!(o.kind, LayerKind::Dropout { .. }))
            {
                violations.push(GraphViolation::FusionPrecondition {
                    layer: l.name.clone(),
                    detail: format!(
                        "inference-only fusion in a graph that still carries training layer '{}'",
                        t.name
                    ),
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn zoo_defs_infer_cleanly() {
        for def in [
            models::tiny_cnn(4, 10),
            models::tiny_dropout_cnn(4, 10),
            models::alexnet_bn(8),
            models::vgg16(4),
        ] {
            let shapes = infer_shapes(&def).unwrap_or_else(|v| panic!("{}: {v}", def.name));
            assert!(!shapes.is_empty());
            assert!(lint_def(&def).is_empty(), "{} must lint clean", def.name);
        }
    }

    #[test]
    fn pooling_window_underflow_is_a_typed_error_not_a_panic() {
        let def = NetDef::new("bad_pool")
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
                "pool",
                LayerKind::Pooling {
                    kernel: 9,
                    stride: 1,
                    pad: 0,
                    method: crate::netdef::PoolKind::Max,
                },
                &["data"],
                &["pool"],
            );
        let err = infer_shapes(&def).unwrap_err();
        assert!(matches!(err, GraphViolation::ShapeMismatch { .. }), "{err}");
        assert_eq!(err.layer(), "pool");
    }

    #[test]
    fn shape_inference_matches_builder_tracking() {
        let def = models::tiny_cnn(4, 10);
        let shapes = infer_shapes(&def).unwrap();
        let lookup =
            |name: &str| -> &[usize] { &shapes.iter().find(|(n, _)| n == name).unwrap().1 };
        assert_eq!(lookup("data"), &[4, 3, 16, 16]);
        assert_eq!(lookup("pool1"), &[4, 8, 8, 8]);
        assert_eq!(lookup("fc"), &[4, 10]);
        assert_eq!(lookup("loss"), &[1]);
    }
}

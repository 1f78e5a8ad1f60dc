//! Declarative network definitions — the prototxt of swCaffe, as plain
//! JSON-serialisable Rust values (via the in-tree `swjson` crate).

use swjson::{obj, Json};

/// Pooling operator selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    Max,
    Average,
}

impl PoolKind {
    fn as_str(&self) -> &'static str {
        match self {
            PoolKind::Max => "max",
            PoolKind::Average => "average",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "max" => Ok(PoolKind::Max),
            "average" => Ok(PoolKind::Average),
            other => Err(format!("unknown pooling method '{other}'")),
        }
    }
}

/// Data layout a convolution runs in (Sec. IV-C): NCHW uses the explicit
/// plan, RCNB the implicit plan. Transform layers convert at region
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvFormat {
    #[default]
    Nchw,
    Rcnb,
}

impl ConvFormat {
    fn as_str(&self) -> &'static str {
        match self {
            ConvFormat::Nchw => "nchw",
            ConvFormat::Rcnb => "rcnb",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "nchw" => Ok(ConvFormat::Nchw),
            "rcnb" => Ok(ConvFormat::Rcnb),
            other => Err(format!("unknown conv format '{other}'")),
        }
    }
}

/// Direction of a tensor-transformation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransDir {
    NchwToRcnb,
    RcnbToNchw,
}

impl TransDir {
    fn as_str(&self) -> &'static str {
        match self {
            TransDir::NchwToRcnb => "nchw_to_rcnb",
            TransDir::RcnbToNchw => "rcnb_to_nchw",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "nchw_to_rcnb" => Ok(TransDir::NchwToRcnb),
            "rcnb_to_nchw" => Ok(TransDir::RcnbToNchw),
            other => Err(format!("unknown transform direction '{other}'")),
        }
    }
}

/// Layer kind plus its hyper-parameters.
#[derive(Debug, Clone)]
pub enum LayerKind {
    /// Produces a data blob of the given shape (and optionally a label
    /// blob of shape `[batch]` when `with_labels`).
    Input {
        shape: Vec<usize>,
        with_labels: bool,
    },
    Convolution {
        num_output: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        format: ConvFormat,
    },
    Pooling {
        kernel: usize,
        stride: usize,
        pad: usize,
        method: PoolKind,
    },
    InnerProduct {
        num_output: usize,
        bias: bool,
    },
    ReLU,
    BatchNorm {
        eps: f32,
        momentum: f32,
    },
    /// Inference-only fusion of Convolution → BatchNorm → ReLU (NCHW),
    /// emitted by `swserve`'s graph optimizer; never used for training.
    FusedConvBnRelu {
        num_output: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        eps: f32,
    },
    Lrn {
        local_size: usize,
        alpha: f32,
        beta: f32,
        k: f32,
    },
    Dropout {
        ratio: f32,
    },
    SoftmaxWithLoss,
    Accuracy {
        top_k: usize,
    },
    /// Channel-axis concatenation (GoogLeNet inception joins).
    Concat,
    /// Element-wise sum (ResNet shortcut joins).
    EltwiseSum,
    TensorTransform {
        dir: TransDir,
    },
}

impl LayerKind {
    fn to_json(&self) -> Json {
        match self {
            LayerKind::Input { shape, with_labels } => obj()
                .field("type", "input")
                .field(
                    "shape",
                    Json::Arr(shape.iter().map(|&d| Json::from(d)).collect()),
                )
                .field("with_labels", *with_labels)
                .build(),
            LayerKind::Convolution {
                num_output,
                kernel,
                stride,
                pad,
                bias,
                format,
            } => obj()
                .field("type", "convolution")
                .field("num_output", *num_output)
                .field("kernel", *kernel)
                .field("stride", *stride)
                .field("pad", *pad)
                .field("bias", *bias)
                .field("format", format.as_str())
                .build(),
            LayerKind::Pooling {
                kernel,
                stride,
                pad,
                method,
            } => obj()
                .field("type", "pooling")
                .field("kernel", *kernel)
                .field("stride", *stride)
                .field("pad", *pad)
                .field("method", method.as_str())
                .build(),
            LayerKind::InnerProduct { num_output, bias } => obj()
                .field("type", "inner_product")
                .field("num_output", *num_output)
                .field("bias", *bias)
                .build(),
            LayerKind::ReLU => obj().field("type", "relu").build(),
            LayerKind::BatchNorm { eps, momentum } => obj()
                .field("type", "batch_norm")
                .field("eps", *eps as f64)
                .field("momentum", *momentum as f64)
                .build(),
            LayerKind::FusedConvBnRelu {
                num_output,
                kernel,
                stride,
                pad,
                bias,
                eps,
            } => obj()
                .field("type", "fused_conv_bn_relu")
                .field("num_output", *num_output)
                .field("kernel", *kernel)
                .field("stride", *stride)
                .field("pad", *pad)
                .field("bias", *bias)
                .field("eps", *eps as f64)
                .build(),
            LayerKind::Lrn {
                local_size,
                alpha,
                beta,
                k,
            } => obj()
                .field("type", "lrn")
                .field("local_size", *local_size)
                .field("alpha", *alpha as f64)
                .field("beta", *beta as f64)
                .field("k", *k as f64)
                .build(),
            LayerKind::Dropout { ratio } => obj()
                .field("type", "dropout")
                .field("ratio", *ratio as f64)
                .build(),
            LayerKind::SoftmaxWithLoss => obj().field("type", "softmax_with_loss").build(),
            LayerKind::Accuracy { top_k } => obj()
                .field("type", "accuracy")
                .field("top_k", *top_k)
                .build(),
            LayerKind::Concat => obj().field("type", "concat").build(),
            LayerKind::EltwiseSum => obj().field("type", "eltwise_sum").build(),
            LayerKind::TensorTransform { dir } => obj()
                .field("type", "tensor_transform")
                .field("dir", dir.as_str())
                .build(),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let ty = str_field(v, "type")?;
        Ok(match ty.as_str() {
            "input" => LayerKind::Input {
                shape: v
                    .get("shape")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "input layer missing 'shape'".to_string())?
                    .iter()
                    .map(|d| {
                        d.as_u64()
                            .map(|u| u as usize)
                            .ok_or_else(|| "shape entries must be integers".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                with_labels: bool_field(v, "with_labels")?,
            },
            "convolution" => LayerKind::Convolution {
                num_output: usize_field(v, "num_output")?,
                kernel: usize_field(v, "kernel")?,
                stride: usize_field(v, "stride")?,
                pad: usize_field(v, "pad")?,
                bias: bool_field(v, "bias")?,
                format: ConvFormat::parse(&str_field(v, "format")?)?,
            },
            "pooling" => LayerKind::Pooling {
                kernel: usize_field(v, "kernel")?,
                stride: usize_field(v, "stride")?,
                pad: usize_field(v, "pad")?,
                method: PoolKind::parse(&str_field(v, "method")?)?,
            },
            "inner_product" => LayerKind::InnerProduct {
                num_output: usize_field(v, "num_output")?,
                bias: bool_field(v, "bias")?,
            },
            "relu" => LayerKind::ReLU,
            "batch_norm" => LayerKind::BatchNorm {
                eps: f32_field(v, "eps")?,
                momentum: f32_field(v, "momentum")?,
            },
            "fused_conv_bn_relu" => LayerKind::FusedConvBnRelu {
                num_output: usize_field(v, "num_output")?,
                kernel: usize_field(v, "kernel")?,
                stride: usize_field(v, "stride")?,
                pad: usize_field(v, "pad")?,
                bias: bool_field(v, "bias")?,
                eps: f32_field(v, "eps")?,
            },
            "lrn" => LayerKind::Lrn {
                local_size: usize_field(v, "local_size")?,
                alpha: f32_field(v, "alpha")?,
                beta: f32_field(v, "beta")?,
                k: f32_field(v, "k")?,
            },
            "dropout" => LayerKind::Dropout {
                ratio: f32_field(v, "ratio")?,
            },
            "softmax_with_loss" => LayerKind::SoftmaxWithLoss,
            "accuracy" => LayerKind::Accuracy {
                top_k: usize_field(v, "top_k")?,
            },
            "concat" => LayerKind::Concat,
            "eltwise_sum" => LayerKind::EltwiseSum,
            "tensor_transform" => LayerKind::TensorTransform {
                dir: TransDir::parse(&str_field(v, "dir")?)?,
            },
            other => return Err(format!("unknown layer type '{other}'")),
        })
    }
}

/// One layer instance in a network definition.
#[derive(Debug, Clone)]
pub struct LayerDef {
    pub name: String,
    pub kind: LayerKind,
    pub bottoms: Vec<String>,
    pub tops: Vec<String>,
}

impl LayerDef {
    fn to_json(&self) -> Json {
        obj()
            .field("name", self.name.as_str())
            .field("kind", self.kind.to_json())
            .field("bottoms", str_arr(&self.bottoms))
            .field("tops", str_arr(&self.tops))
            .build()
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(LayerDef {
            name: str_field(v, "name")?,
            kind: LayerKind::from_json(
                v.get("kind")
                    .ok_or_else(|| "layer missing 'kind'".to_string())?,
            )?,
            bottoms: str_vec_field(v, "bottoms")?,
            tops: str_vec_field(v, "tops")?,
        })
    }
}

/// A whole network.
#[derive(Debug, Clone)]
pub struct NetDef {
    pub name: String,
    pub layers: Vec<LayerDef>,
}

impl NetDef {
    pub fn new(name: impl Into<String>) -> Self {
        NetDef {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Builder-style push.
    pub fn layer(
        mut self,
        name: impl Into<String>,
        kind: LayerKind,
        bottoms: &[&str],
        tops: &[&str],
    ) -> Self {
        self.layers.push(LayerDef {
            name: name.into(),
            kind,
            bottoms: bottoms.iter().map(|s| s.to_string()).collect(),
            tops: tops.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Serialise to JSON (the swCaffe interchange format in this repo).
    pub fn to_json(&self) -> String {
        obj()
            .field("name", self.name.as_str())
            .field(
                "layers",
                Json::Arr(self.layers.iter().map(|l| l.to_json()).collect()),
            )
            .build()
            .to_pretty_string()
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = Json::parse(s)?;
        Ok(NetDef {
            name: str_field(&v, "name")?,
            layers: v
                .get("layers")
                .and_then(Json::as_arr)
                .ok_or_else(|| "net definition missing 'layers'".to_string())?
                .iter()
                .map(LayerDef::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn str_vec_field(v: &Json, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field '{key}'"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' entries must be strings"))
        })
        .collect()
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field '{key}'"))
}

fn f32_field(v: &Json, key: &str) -> Result<f32, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as f32)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetDef {
        NetDef::new("tiny")
            .layer(
                "data",
                LayerKind::Input {
                    shape: vec![2, 1, 4, 4],
                    with_labels: true,
                },
                &[],
                &["data", "label"],
            )
            .layer(
                "conv1",
                LayerKind::Convolution {
                    num_output: 3,
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
                "loss",
                LayerKind::SoftmaxWithLoss,
                &["relu1", "label"],
                &["loss"],
            )
    }

    #[test]
    fn json_roundtrip() {
        let def = tiny();
        let json = def.to_json();
        let back = NetDef::from_json(&json).unwrap();
        assert_eq!(back.name, "tiny");
        assert_eq!(back.layers.len(), 4);
        assert_eq!(back.layers[1].bottoms, vec!["data"]);
        // Stable rendering: parse -> render reproduces the input.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn all_layer_kinds_roundtrip() {
        let def = NetDef::new("zoo")
            .layer(
                "in",
                LayerKind::Input {
                    shape: vec![1, 3, 8, 8],
                    with_labels: false,
                },
                &[],
                &["in"],
            )
            .layer(
                "pool",
                LayerKind::Pooling {
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                    method: PoolKind::Average,
                },
                &["in"],
                &["pool"],
            )
            .layer(
                "ip",
                LayerKind::InnerProduct {
                    num_output: 10,
                    bias: false,
                },
                &["pool"],
                &["ip"],
            )
            .layer(
                "bn",
                LayerKind::BatchNorm {
                    eps: 1e-5,
                    momentum: 0.9,
                },
                &["ip"],
                &["bn"],
            )
            .layer(
                "lrn",
                LayerKind::Lrn {
                    local_size: 5,
                    alpha: 1e-4,
                    beta: 0.75,
                    k: 1.0,
                },
                &["bn"],
                &["lrn"],
            )
            .layer(
                "drop",
                LayerKind::Dropout { ratio: 0.5 },
                &["lrn"],
                &["drop"],
            )
            .layer("acc", LayerKind::Accuracy { top_k: 5 }, &["drop"], &["acc"])
            .layer("cat", LayerKind::Concat, &["acc"], &["cat"])
            .layer("sum", LayerKind::EltwiseSum, &["cat"], &["sum"])
            .layer(
                "t",
                LayerKind::TensorTransform {
                    dir: TransDir::NchwToRcnb,
                },
                &["sum"],
                &["t"],
            );
        let back = NetDef::from_json(&def.to_json()).unwrap();
        assert_eq!(back.layers.len(), def.layers.len());
        match &back.layers[3].kind {
            LayerKind::BatchNorm { eps, momentum } => {
                assert_eq!(*eps, 1e-5);
                assert_eq!(*momentum, 0.9);
            }
            other => panic!("wrong kind {other:?}"),
        }
        match &back.layers[9].kind {
            LayerKind::TensorTransform { dir } => assert_eq!(*dir, TransDir::NchwToRcnb),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn unknown_layer_type_is_rejected() {
        let bad = r#"{"name": "x", "layers": [
            {"name": "l", "kind": {"type": "warp_drive"}, "bottoms": [], "tops": ["y"]}
        ]}"#;
        assert!(NetDef::from_json(bad).unwrap_err().contains("warp_drive"));
    }

    // A definition is validated by the graph lint's structure and shape
    // pass, `lint::infer_shapes`.
    use crate::lint::{infer_shapes, GraphViolation};

    #[test]
    fn validate_accepts_well_formed() {
        infer_shapes(&tiny()).unwrap();
    }

    #[test]
    fn validate_rejects_undefined_bottom() {
        let def = NetDef::new("bad").layer("relu", LayerKind::ReLU, &["ghost"], &["out"]);
        assert!(matches!(
            infer_shapes(&def),
            Err(GraphViolation::UndefinedBlob { .. })
        ));
    }

    #[test]
    fn validate_rejects_redefined_top() {
        let def = NetDef::new("bad")
            .layer(
                "a",
                LayerKind::Input {
                    shape: vec![1],
                    with_labels: false,
                },
                &[],
                &["x"],
            )
            .layer("b", LayerKind::ReLU, &["x"], &["y"])
            .layer("c", LayerKind::ReLU, &["y"], &["x"]);
        assert!(matches!(
            infer_shapes(&def),
            Err(GraphViolation::RedefinedBlob { .. })
        ));
    }
}

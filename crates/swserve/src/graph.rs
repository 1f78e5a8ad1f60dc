//! Graph freeze + optimize: turn a training `NetDef` plus a trained
//! `Net`'s weights into an inference-only [`FrozenGraph`].
//!
//! The optimizer runs four passes, in order:
//!
//! 1. **Training-node elimination** — `SoftmaxWithLoss`, `Accuracy` and
//!    `Dropout` layers are removed (dropout is the identity at test
//!    phase, so consumers are rewired to its bottom bit-for-bit safely),
//!    and the label input is dropped once nothing consumes it.
//! 2. **Structural constant folding** — adjacent inverse tensor
//!    transforms (`nchw→rcnb→nchw`) cancel, and degenerate `Concat` /
//!    `EltwiseSum` nodes with a single bottom collapse to a rewire.
//!    Both folds are exact permutations or identities, so they cannot
//!    perturb a single bit of the output.
//! 3. **Conv+BN+ReLU fusion** — a linear `Convolution` (NCHW) →
//!    `BatchNorm` → `ReLU` chain whose intermediates have no other
//!    consumer becomes one `FusedConvBnRelu` layer backed by
//!    `swdnn::fused`. The fused kernel keeps the unfused arithmetic
//!    (same operations, same rounding points, f64 intermediates where
//!    the BN kernel used them) and wins by eliminating two kernel
//!    launches and two full activation round trips through main memory.
//!    Value-level folding of the BN affine into the conv weights is
//!    deliberately *not* done: it would change rounding and break the
//!    bit-identity contract the serving tests enforce.
//! 4. **Dead-node elimination + scheduling** — reverse reachability
//!    from the output blob removes anything that no longer feeds it,
//!    then a Kahn topological sort produces the eval schedule (and
//!    rejects cycles and orphaned inputs).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use swcaffe_core::net::{LayerSnapshot, PackedWeights};
use swcaffe_core::{ConvFormat, GraphViolation, LayerDef, LayerKind, Net, NetDef};

/// What the optimizer did, for reporting and regression gating.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizeStats {
    /// Layers in the imported (training) definition.
    pub source_layers: usize,
    /// Layers in the optimized eval schedule.
    pub scheduled_nodes: usize,
    /// Loss / accuracy / dropout nodes removed.
    pub removed_training: usize,
    /// Dead nodes removed (including the dropped label input).
    pub removed_dead: usize,
    /// Structural folds (transform pairs, single-input concat/eltwise).
    pub folded: usize,
    /// Conv+BN+ReLU chains fused.
    pub fused: usize,
}

/// A conv+bn+relu chain the optimizer replaced with one fused layer.
#[derive(Debug, Clone)]
pub struct FusionRecord {
    pub(crate) fused: String,
    pub conv: String,
    pub bn: String,
}

/// A frozen, optimized inference graph: definition and weights.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    /// Optimized inference definition (layers in schedule order).
    pub def: NetDef,
    /// Weight payload for the optimized layers, keyed by layer name.
    /// Fused layers carry snapshots assembled from their source chain.
    /// Fixed once frozen: the packed panels below are read from it.
    pub(crate) weights: Vec<LayerSnapshot>,
    /// The inner-product matrices of `weights` as `HostNative` GEMM B
    /// panels, one copy per graph: packed when the first `HostNative`
    /// engine builds a net, then shared by every clone of this graph —
    /// each replica of a `Cluster`, each bucket net of each engine.
    pub(crate) panels: Arc<OnceLock<PackedWeights>>,
    /// Name of the data input blob.
    pub input: String,
    /// Name of the output (logits) blob.
    pub output: String,
    /// Per-image input length (product of the non-batch input dims).
    pub per_image: usize,
    pub fusions: Vec<FusionRecord>,
    pub stats: OptimizeStats,
}

impl FrozenGraph {
    /// Bytes of the frozen weight/state payload (f32 elements × 4) — the
    /// read-back a crashed replica pays to re-warm from its snapshot,
    /// priced with the same striped-filesystem model as training
    /// checkpoint restore.
    pub fn snapshot_bytes(&self) -> u64 {
        self.weights
            .iter()
            .map(|s| {
                let elems: usize = s.params.iter().map(Vec::len).sum::<usize>()
                    + s.state.iter().map(Vec::len).sum::<usize>();
                elems as u64 * 4
            })
            .sum()
    }

    /// Freeze `net`'s weights against its definition and optimize the
    /// graph for inference. `net` must have been built from `def`.
    pub fn freeze(def: &NetDef, net: &Net) -> Result<FrozenGraph, String> {
        let snaps = net.layer_snapshots();
        let mut graph = optimize(def)?;
        let by_name: BTreeMap<&str, &LayerSnapshot> =
            snaps.iter().map(|s| (s.name.as_str(), s)).collect();

        let mut weights = Vec::new();
        for fr in &graph.fusions {
            let conv = by_name
                .get(fr.conv.as_str())
                .ok_or_else(|| format!("missing snapshot for fused conv `{}`", fr.conv))?;
            let bn = by_name
                .get(fr.bn.as_str())
                .ok_or_else(|| format!("missing snapshot for fused bn `{}`", fr.bn))?;
            let mut params = conv.params.clone();
            params.extend(bn.params.clone());
            weights.push(LayerSnapshot {
                name: fr.fused.clone(),
                layer_type: "FusedConvBnRelu".into(),
                params,
                state: bn.state.clone(),
            });
        }
        let kept: BTreeSet<&str> = graph.def.layers.iter().map(|l| l.name.as_str()).collect();
        weights.extend(
            snaps
                .iter()
                .filter(|s| kept.contains(s.name.as_str()))
                .cloned(),
        );
        graph.weights = weights;
        Ok(graph)
    }

    /// The shared panels, packed from `net` (built from this graph and
    /// loaded with its weights) if no clone of this graph has packed
    /// them yet.
    pub(crate) fn packed_weights(&self, net: &Net) -> &PackedWeights {
        self.panels.get_or_init(|| net.pack_weights())
    }
}

fn resolve(alias: &BTreeMap<String, String>, name: &str) -> String {
    let mut n = name.to_string();
    let mut hops = 0;
    while let Some(next) = alias.get(&n) {
        n = next.clone();
        hops += 1;
        assert!(hops <= alias.len(), "alias cycle through `{name}`");
    }
    n
}

fn apply_aliases(layers: &mut [LayerDef], alias: &BTreeMap<String, String>) {
    for l in layers.iter_mut() {
        for b in l.bottoms.iter_mut() {
            *b = resolve(alias, b);
        }
    }
}

/// Count how many remaining layers consume each blob.
fn consumer_counts(layers: &[LayerDef]) -> BTreeMap<String, usize> {
    let mut c: BTreeMap<String, usize> = BTreeMap::new();
    for l in layers {
        for b in &l.bottoms {
            *c.entry(b.clone()).or_insert(0) += 1;
        }
    }
    c
}

/// The single blob that is produced but never consumed (the logits).
fn sole_output(layers: &[LayerDef]) -> Result<String, String> {
    let consumed: BTreeSet<&str> = layers
        .iter()
        .flat_map(|l| l.bottoms.iter().map(|b| b.as_str()))
        .collect();
    let mut outs: Vec<&str> = layers
        .iter()
        .flat_map(|l| l.tops.iter().map(|t| t.as_str()))
        .filter(|t| !consumed.contains(t))
        .collect();
    if outs.len() != 1 {
        return Err(format!(
            "expected a single output blob after stripping heads, found {:?}",
            outs
        ));
    }
    Ok(outs.remove(0).to_string())
}

/// Kahn topological sort over layers (producer → consumer edges).
/// Errors on orphaned bottoms (no producer) and on cycles.
pub fn topo_schedule(layers: &[LayerDef]) -> Result<Vec<usize>, String> {
    let mut producer: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, l) in layers.iter().enumerate() {
        for t in &l.tops {
            producer.insert(t.as_str(), i);
        }
    }
    let mut indegree = vec![0usize; layers.len()];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); layers.len()];
    for (i, l) in layers.iter().enumerate() {
        for b in &l.bottoms {
            match producer.get(b.as_str()) {
                Some(&p) => {
                    edges[p].push(i);
                    indegree[i] += 1;
                }
                None => {
                    return Err(format!(
                        "layer `{}` consumes blob `{}` which no layer produces",
                        l.name, b
                    ))
                }
            }
        }
    }
    let mut ready: VecDeque<usize> = (0..layers.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(layers.len());
    while let Some(i) = ready.pop_front() {
        order.push(i);
        for &j in &edges[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push_back(j);
            }
        }
    }
    if order.len() != layers.len() {
        let stuck: Vec<&str> = (0..layers.len())
            .filter(|&i| indegree[i] > 0)
            .map(|i| layers[i].name.as_str())
            .collect();
        return Err(format!("cycle in graph through layers {stuck:?}"));
    }
    Ok(order)
}

/// Rewrite the Input layer of `def` to a new batch size (all other
/// shapes derive from it when a `Net` is built).
pub fn def_with_batch(def: &NetDef, batch: usize) -> NetDef {
    let mut out = def.clone();
    for l in out.layers.iter_mut() {
        if let LayerKind::Input { shape, .. } = &mut l.kind {
            if !shape.is_empty() {
                shape[0] = batch;
            }
        }
    }
    out
}

/// Run the optimizer passes over `def`, producing an (unweighted)
/// frozen graph. [`FrozenGraph::freeze`] fills in the weights.
pub fn optimize(def: &NetDef) -> Result<FrozenGraph, String> {
    // Mandatory lint pre-pass: structural, shape, layout, and fusion
    // defects fail fast with a layer-anchored typed violation instead of
    // surfacing as a panic (or silent garbage) downstream. Dangling
    // blobs and dead layers are tolerated on *input* — eliminating them
    // is this optimizer's job — but nothing else is.
    if let Some(v) = swcaffe_core::lint::lint_def(def).iter().find(|v| {
        !matches!(
            v,
            GraphViolation::DanglingBlob { .. } | GraphViolation::DeadLayer { .. }
        )
    }) {
        return Err(format!("graph lint rejected '{}': {v}", def.name));
    }
    let mut stats = OptimizeStats {
        source_layers: def.layers.len(),
        ..Default::default()
    };
    let mut layers: Vec<LayerDef> = def.layers.clone();
    let mut alias: BTreeMap<String, String> = BTreeMap::new();

    // Pass 1: training-only nodes.
    layers.retain(|l| {
        let drop = matches!(
            l.kind,
            LayerKind::SoftmaxWithLoss | LayerKind::Accuracy { .. }
        );
        if drop {
            stats.removed_training += 1;
        }
        !drop
    });
    layers.retain(|l| {
        if let LayerKind::Dropout { .. } = l.kind {
            alias.insert(l.tops[0].clone(), l.bottoms[0].clone());
            stats.removed_training += 1;
            false
        } else {
            true
        }
    });
    apply_aliases(&mut layers, &alias);

    // Drop the label input if nothing consumes it any more.
    let consumed = consumer_counts(&layers);
    for l in layers.iter_mut() {
        if let LayerKind::Input { with_labels, .. } = &mut l.kind {
            if *with_labels && l.tops.len() == 2 && !consumed.contains_key(&l.tops[1]) {
                *with_labels = false;
                l.tops.truncate(1);
                stats.removed_dead += 1;
            }
        }
    }

    let output = sole_output(&layers)?;

    // Pass 2: structural folds, to fixpoint.
    loop {
        let counts = consumer_counts(&layers);
        let mut fold: Option<(usize, usize)> = None; // (first, second) layer idx
        let mut collapse: Option<usize> = None; // single-input concat/eltwise
        'scan: for (i, l) in layers.iter().enumerate() {
            match &l.kind {
                LayerKind::TensorTransform { dir } => {
                    let t1 = &l.tops[0];
                    if t1 == &output || counts.get(t1.as_str()).copied().unwrap_or(0) != 1 {
                        continue;
                    }
                    for (j, m) in layers.iter().enumerate() {
                        if let LayerKind::TensorTransform { dir: d2 } = &m.kind {
                            if m.bottoms.first() == Some(t1) && *d2 != *dir {
                                fold = Some((i, j));
                                break 'scan;
                            }
                        }
                    }
                }
                LayerKind::Concat | LayerKind::EltwiseSum
                    if l.bottoms.len() == 1 && l.tops[0] != l.bottoms[0] =>
                {
                    collapse = Some(i);
                    break 'scan;
                }
                _ => {}
            }
        }
        if let Some((i, j)) = fold {
            // t2 (second transform's top) now flows from the first's bottom.
            alias.insert(layers[j].tops[0].clone(), layers[i].bottoms[0].clone());
            let (a, b) = (i.max(j), i.min(j));
            layers.remove(a);
            layers.remove(b);
            stats.folded += 1;
        } else if let Some(i) = collapse {
            alias.insert(layers[i].tops[0].clone(), layers[i].bottoms[0].clone());
            layers.remove(i);
            stats.folded += 1;
        } else {
            break;
        }
        apply_aliases(&mut layers, &alias);
    }
    let output = resolve(&alias, &output);

    // Pass 3: conv+BN+ReLU fusion.
    let mut fusions = Vec::new();
    loop {
        let counts = consumer_counts(&layers);
        let mut found: Option<(usize, usize, usize)> = None;
        'chains: for (ci, cl) in layers.iter().enumerate() {
            let LayerKind::Convolution {
                format: ConvFormat::Nchw,
                ..
            } = cl.kind
            else {
                continue;
            };
            let ct = &cl.tops[0];
            if ct == &output || counts.get(ct.as_str()).copied().unwrap_or(0) != 1 {
                continue;
            }
            for (bi, bl) in layers.iter().enumerate() {
                if !matches!(bl.kind, LayerKind::BatchNorm { .. }) || bl.bottoms.first() != Some(ct)
                {
                    continue;
                }
                let bt = &bl.tops[0];
                if bt == &output || counts.get(bt.as_str()).copied().unwrap_or(0) != 1 {
                    continue;
                }
                for (ri, rl) in layers.iter().enumerate() {
                    if matches!(rl.kind, LayerKind::ReLU) && rl.bottoms.first() == Some(bt) {
                        found = Some((ci, bi, ri));
                        break 'chains;
                    }
                }
            }
        }
        let Some((ci, bi, ri)) = found else { break };
        let (conv, bn, relu) = (layers[ci].clone(), layers[bi].clone(), layers[ri].clone());
        let LayerKind::Convolution {
            num_output,
            kernel,
            stride,
            pad,
            bias,
            ..
        } = conv.kind
        else {
            unreachable!()
        };
        let LayerKind::BatchNorm { eps, .. } = bn.kind else {
            unreachable!()
        };
        let fused_name = format!("{}+{}+{}", conv.name, bn.name, relu.name);
        let fused = LayerDef {
            name: fused_name.clone(),
            kind: LayerKind::FusedConvBnRelu {
                num_output,
                kernel,
                stride,
                pad,
                bias,
                eps,
            },
            bottoms: conv.bottoms.clone(),
            tops: relu.tops.clone(),
        };
        fusions.push(FusionRecord {
            fused: fused_name,
            conv: conv.name,
            bn: bn.name,
        });
        let mut drop = [ci, bi, ri];
        drop.sort_unstable();
        for &d in drop.iter().rev() {
            layers.remove(d);
        }
        layers.insert(drop[0], fused);
        stats.fused += 1;
    }

    // Pass 4: dead-node elimination (reverse reachability from output).
    let mut needed: BTreeSet<String> = BTreeSet::new();
    needed.insert(output.clone());
    let before = layers.len();
    let mut kept: Vec<LayerDef> = Vec::with_capacity(layers.len());
    for l in layers.into_iter().rev() {
        if l.tops.iter().any(|t| needed.contains(t)) {
            for b in &l.bottoms {
                needed.insert(b.clone());
            }
            kept.push(l);
        }
    }
    kept.reverse();
    stats.removed_dead += before - kept.len();
    let mut layers = kept;

    // Schedule (also validates: no cycles, no orphans) and reorder.
    let order = topo_schedule(&layers)?;
    let mut scheduled = Vec::with_capacity(layers.len());
    for &i in &order {
        scheduled.push(layers[i].clone());
    }
    layers = scheduled;
    stats.scheduled_nodes = layers.len();

    let (input, per_image) = layers
        .iter()
        .find_map(|l| match &l.kind {
            LayerKind::Input { shape, .. } => {
                Some((l.tops[0].clone(), shape.iter().skip(1).product::<usize>()))
            }
            _ => None,
        })
        .ok_or_else(|| "optimized graph has no Input layer".to_string())?;

    let mut def = NetDef::new(format!("{}.frozen", def.name));
    def.layers = layers;
    // Lint post-pass, fully strict: the frozen graph must be free of
    // *every* violation class — the optimizer may not manufacture
    // dangling blobs, dead layers, layout breaks, or illegal fusions.
    if let Some(v) = swcaffe_core::lint::lint_def(&def).first() {
        return Err(format!("optimizer produced an ill-formed graph: {v}"));
    }
    Ok(FrozenGraph {
        def,
        weights: Vec::new(),
        panels: Arc::default(),
        input,
        output,
        per_image,
        fusions,
        stats,
    })
}

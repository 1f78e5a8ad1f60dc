//! The network: blobs + layers + the forward/backward schedules
//! (Caffe's `Net`, the second of the three components in Sec. II-C).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use sw26010::{CoreGroup, SimTime};
use swdnn::elementwise as ew;
use swdnn::host::PackedB;

use crate::blob::Blob;
use crate::layer::{Layer, Phase};
use crate::layers;
use crate::netdef::{LayerKind, NetDef};

/// A runnable network instance.
pub struct Net {
    name: String,
    def: NetDef,
    layers: Vec<Box<dyn Layer>>,
    layer_bottoms: Vec<Vec<usize>>,
    layer_tops: Vec<Vec<usize>>,
    blobs: Vec<RefCell<Blob>>,
    blob_index: HashMap<String, usize>,
    /// Whether each blob needs a gradient (false for Input-layer products).
    needs_grad: Vec<bool>,
    materialize: bool,
    loss_blob: Option<usize>,
}

/// Layers' weights packed as `HostNative` GEMM B panels, by layer name
/// (what [`Net::pack_weights`] returns).
pub type PackedWeights = Vec<(String, Arc<PackedB>)>;

/// Per-layer timing breakdown of one pass (Figs. 8/9 raw data).
#[derive(Debug, Clone)]
pub struct LayerTimes {
    pub entries: Vec<(String, SimTime)>,
}

/// A gradient-ready event: layer `layer`, whose parameters occupy `span`
/// of the packed gradient vector (the `pack_gradients` layout), finished
/// its backward step at simulated core-group time `ready`.
///
/// Events fire in backward execution order — last layers first — which is
/// exactly the order an overlapped bucketed all-reduce wants to consume
/// them in.
#[derive(Debug, Clone, PartialEq)]
pub struct GradReady {
    pub layer: String,
    pub span: std::ops::Range<usize>,
    pub ready: SimTime,
}

impl LayerTimes {
    pub fn total(&self) -> SimTime {
        self.entries
            .iter()
            .fold(SimTime::ZERO, |acc, (_, t)| acc + *t)
    }
}

impl Net {
    /// Build a network from its definition. `materialize` selects
    /// functional (true) or timing-only (false) blobs; it must match the
    /// mode of the core group the net later runs on.
    pub fn from_def(def: &NetDef, materialize: bool) -> Result<Net, String> {
        Self::from_def_seeded(def, materialize, 0)
    }

    /// [`Net::from_def_mode_seeded`] with seed 0. Kept only because the
    /// `benchmark/` harness's own test calls it; no workspace code does.
    pub fn from_def_mode(def: &NetDef, mode: sw26010::ExecMode) -> Result<Net, String> {
        Self::from_def_mode_seeded(def, mode, 0)
    }

    /// Build a network for a specific execution mode: blobs are
    /// materialised exactly when the mode carries data. Equivalent to
    /// `from_def_seeded(def, mode.is_functional(), base_seed)`; the same
    /// mode must be used for the core group the net runs on.
    pub fn from_def_mode_seeded(
        def: &NetDef,
        mode: sw26010::ExecMode,
        base_seed: u64,
    ) -> Result<Net, String> {
        Self::from_def_seeded(def, mode.is_functional(), base_seed)
    }

    /// Like [`Net::from_def`] with an explicit base seed for every
    /// filler-initialised parameter blob: two nets built from the same
    /// definition and seed are bit-identical, and the seed can be varied
    /// per replica/run without touching the definition.
    ///
    /// The definition is checked once, by [`crate::lint::infer_shapes`]:
    /// a malformed one is rejected with its typed, layer-anchored
    /// violation. Every blob is allocated from the shape table it returns,
    /// and every layer is built in one step from its checked bottom
    /// shapes.
    pub fn from_def_seeded(def: &NetDef, materialize: bool, base_seed: u64) -> Result<Net, String> {
        let shapes = crate::lint::infer_shapes(def).map_err(|v| format!("net lint: {v}"))?;
        let mut net = Net {
            name: def.name.clone(),
            def: def.clone(),
            layers: Vec::with_capacity(def.layers.len()),
            layer_bottoms: Vec::with_capacity(def.layers.len()),
            layer_tops: Vec::with_capacity(def.layers.len()),
            blobs: shapes
                .iter()
                .map(|(_, shape)| RefCell::new(Blob::with_mode(shape, materialize)))
                .collect(),
            blob_index: shapes
                .iter()
                .enumerate()
                .map(|(id, (name, _))| (name.clone(), id))
                .collect(),
            needs_grad: vec![true; shapes.len()],
            materialize,
            loss_blob: None,
        };
        for ldef in &def.layers {
            let ids = |names: &[String]| -> Vec<usize> {
                names.iter().map(|n| net.blob_index[n.as_str()]).collect()
            };
            let (bottom_ids, top_ids) = (ids(&ldef.bottoms), ids(&ldef.tops));
            let bottoms: Vec<&[usize]> = bottom_ids.iter().map(|&i| &shapes[i].1[..]).collect();
            let layer = layers::build_seeded(ldef, &bottoms, materialize, base_seed);
            if matches!(ldef.kind, LayerKind::Input { .. }) {
                for &t in &top_ids {
                    net.needs_grad[t] = false;
                }
            }
            if layer.is_loss() {
                net.loss_blob = Some(top_ids[0]);
            }
            net.layers.push(layer);
            net.layer_bottoms.push(bottom_ids);
            net.layer_tops.push(top_ids);
        }
        Ok(net)
    }

    /// Blob lookup by name.
    pub fn blob(&self, name: &str) -> std::cell::Ref<'_, Blob> {
        self.blobs[self.blob_index[name]].borrow()
    }

    pub fn blob_mut(&self, name: &str) -> std::cell::RefMut<'_, Blob> {
        self.blobs[self.blob_index[name]].borrow_mut()
    }

    pub fn has_blob(&self, name: &str) -> bool {
        self.blob_index.contains_key(name)
    }

    /// Copy input data into a source blob (e.g. "data", "label").
    pub fn set_input(&self, name: &str, values: &[f32]) {
        self.blob_mut(name).set_data(values);
    }

    /// All learnable parameter blobs, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Blob> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    pub fn params(&self) -> Vec<&Blob> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Total learnable parameter count (the paper quotes 232.6 MB for
    /// AlexNet and 97.7 MB for ResNet-50 at 4 bytes each).
    pub fn param_len(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// All persistent layer state vectors (snapshot payload beyond the
    /// learnable parameters).
    pub fn state(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.state()).collect()
    }

    pub fn state_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.layers.iter_mut().flat_map(|l| l.state_mut()).collect()
    }

    /// Private RNG streams of randomness-consuming layers (dropout), in
    /// layer order. Part of a full-solver checkpoint: restoring them
    /// makes the replayed mask sequence bit-identical to the sequence an
    /// uninterrupted run would have drawn.
    pub fn rng_streams(&self) -> Vec<u64> {
        self.layers.iter().filter_map(|l| l.rng_state()).collect()
    }

    /// Restore the streams captured by [`Net::rng_streams`]. The stream
    /// count must match the net's randomness-consuming layer count.
    pub fn set_rng_streams(&mut self, streams: &[u64]) -> Result<(), String> {
        let holders: Vec<usize> = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.rng_state().is_some())
            .map(|(i, _)| i)
            .collect();
        if holders.len() != streams.len() {
            return Err(format!(
                "checkpoint has {} rng streams, network has {} randomness-consuming layers",
                streams.len(),
                holders.len()
            ));
        }
        for (&i, &s) in holders.iter().zip(streams) {
            self.layers[i].set_rng_state(s);
        }
        Ok(())
    }

    pub fn zero_param_diffs(&mut self) {
        for p in self.params_mut() {
            p.zero_diff();
        }
    }

    fn run_layer_forward(&mut self, cg: &mut CoreGroup, i: usize) {
        let bottoms: Vec<std::cell::Ref<'_, Blob>> = self.layer_bottoms[i]
            .iter()
            .map(|&b| self.blobs[b].borrow())
            .collect();
        let bottom_refs: Vec<&Blob> = bottoms.iter().map(|r| &**r).collect();
        let mut tops: Vec<std::cell::RefMut<'_, Blob>> = self.layer_tops[i]
            .iter()
            .map(|&t| self.blobs[t].borrow_mut())
            .collect();
        let mut top_refs: Vec<&mut Blob> = tops.iter_mut().map(|r| &mut **r).collect();
        self.layers[i].forward(cg, &bottom_refs, &mut top_refs);
    }

    /// Forward pass; returns the loss (0 in timing mode or for loss-less
    /// nets).
    pub fn forward(&mut self, cg: &mut CoreGroup) -> f32 {
        for i in 0..self.layers.len() {
            self.run_layer_forward(cg, i);
        }
        match self.loss_blob {
            Some(b) if self.materialize => self.blobs[b].borrow().data()[0],
            _ => 0.0,
        }
    }

    /// Forward pass with a per-layer time breakdown.
    pub fn forward_with_times(&mut self, cg: &mut CoreGroup) -> (f32, LayerTimes) {
        let mut entries = Vec::with_capacity(self.layers.len());
        for i in 0..self.layers.len() {
            let before = cg.elapsed();
            self.run_layer_forward(cg, i);
            entries.push((self.layers[i].name().to_string(), cg.elapsed() - before));
        }
        let loss = match self.loss_blob {
            Some(b) if self.materialize => self.blobs[b].borrow().data()[0],
            _ => 0.0,
        };
        (loss, LayerTimes { entries })
    }

    fn run_layer_backward(&mut self, cg: &mut CoreGroup, i: usize, diff_written: &mut [bool]) {
        // Skip layers whose outputs never received a gradient and which do
        // not originate one (e.g. Accuracy).
        let originates = self.layers[i].is_loss();
        let receives = self.layer_tops[i].iter().any(|&t| diff_written[t]);
        if !originates && !receives {
            return;
        }
        let pd: Vec<bool> = self.layer_bottoms[i]
            .iter()
            .map(|&b| self.needs_grad[b])
            .collect();

        // Gradient fan-in: if some bottom's diff was already written by a
        // later consumer, stash it, let this layer overwrite, then add the
        // stash back (the Caffe split-layer sum, expressed as an AXPY).
        let mut stashes: Vec<(usize, Option<Vec<f32>>)> = Vec::new();
        for (slot, &b) in self.layer_bottoms[i].iter().enumerate() {
            if pd[slot] && diff_written[b] {
                let stash = self
                    .materialize
                    .then(|| self.blobs[b].borrow().diff().to_vec());
                stashes.push((b, stash));
            }
        }

        {
            let tops: Vec<std::cell::Ref<'_, Blob>> = self.layer_tops[i]
                .iter()
                .map(|&t| self.blobs[t].borrow())
                .collect();
            let top_refs: Vec<&Blob> = tops.iter().map(|r| &**r).collect();
            let mut bottoms: Vec<std::cell::RefMut<'_, Blob>> = self.layer_bottoms[i]
                .iter()
                .map(|&b| self.blobs[b].borrow_mut())
                .collect();
            let mut bottom_refs: Vec<&mut Blob> = bottoms.iter_mut().map(|r| &mut **r).collect();
            self.layers[i].backward(cg, &top_refs, &mut bottom_refs, &pd);
        }

        for (b, stash) in stashes {
            let len = self.blobs[b].borrow().len();
            if let Some(stash) = stash {
                let mut blob = self.blobs[b].borrow_mut();
                ew::axpy(cg, len, 1.0, Some((&stash, blob.diff_mut())));
            } else {
                ew::axpy(cg, len, 1.0, None);
            }
        }
        for (slot, &b) in self.layer_bottoms[i].iter().enumerate() {
            if pd[slot] {
                diff_written[b] = true;
            }
        }
    }

    /// Backward pass (assumes `forward` ran).
    pub fn backward(&mut self, cg: &mut CoreGroup) {
        let mut diff_written = vec![false; self.blobs.len()];
        for i in (0..self.layers.len()).rev() {
            self.run_layer_backward(cg, i, &mut diff_written);
        }
    }

    /// Backward pass invoking `hook` whenever a parameterised layer's
    /// gradient becomes ready, with the layer's packed span and the
    /// simulated time on `cg` at that moment. The hook is observation
    /// only — the pass itself is identical to [`Net::backward`].
    pub(crate) fn backward_with_hook(
        &mut self,
        cg: &mut CoreGroup,
        mut hook: impl FnMut(GradReady),
    ) {
        let mut spans: Vec<Option<std::ops::Range<usize>>> = Vec::with_capacity(self.layers.len());
        let mut offset = 0;
        for l in &self.layers {
            let len: usize = l.params().iter().map(|p| p.len()).sum();
            spans.push((len > 0).then(|| offset..offset + len));
            offset += len;
        }
        let mut diff_written = vec![false; self.blobs.len()];
        for i in (0..self.layers.len()).rev() {
            self.run_layer_backward(cg, i, &mut diff_written);
            if let Some(span) = spans[i].clone() {
                hook(GradReady {
                    layer: self.layers[i].name().to_string(),
                    span,
                    ready: cg.elapsed(),
                });
            }
        }
    }

    /// Backward pass collecting the gradient-ready events (emission
    /// order: backward execution order, i.e. output layers first).
    pub fn backward_with_events(&mut self, cg: &mut CoreGroup) -> Vec<GradReady> {
        let mut events = Vec::new();
        self.backward_with_hook(cg, |e| events.push(e));
        events
    }

    /// Backward pass with per-layer times (in execution order, i.e.
    /// reversed topological order).
    pub fn backward_with_times(&mut self, cg: &mut CoreGroup) -> LayerTimes {
        let mut diff_written = vec![false; self.blobs.len()];
        let mut entries = Vec::with_capacity(self.layers.len());
        for i in (0..self.layers.len()).rev() {
            let before = cg.elapsed();
            self.run_layer_backward(cg, i, &mut diff_written);
            entries.push((self.layers[i].name().to_string(), cg.elapsed() - before));
        }
        LayerTimes { entries }
    }

    /// Human-readable network summary: layer table with shapes and
    /// parameter counts (the `caffe net summary` analogue).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "network '{}' — {} layers, {} parameters",
            self.name,
            self.layers.len(),
            self.param_len()
        );
        let _ = writeln!(
            out,
            "{:<24}{:<16}{:>20}{:>12}",
            "layer", "type", "output shape", "params"
        );
        for (i, layer) in self.layers.iter().enumerate() {
            let shape = self.layer_tops[i]
                .first()
                .map(|&t| format!("{:?}", self.blobs[t].borrow().shape()))
                .unwrap_or_default();
            let params: usize = layer.params().iter().map(|p| p.len()).sum();
            let _ = writeln!(
                out,
                "{:<24}{:<16}{:>20}{:>12}",
                layer.name(),
                layer.layer_type(),
                shape,
                params
            );
        }
        out
    }

    /// Switch every layer between training and inference behaviour.
    pub fn set_phase(&mut self, phase: Phase) {
        for l in &mut self.layers {
            l.set_phase(phase);
        }
    }

    /// Freeze hook: capture every layer's learnable parameters and
    /// persistent state by layer name. `swserve` uses this to carry
    /// trained weights (and BN running statistics) from a training net
    /// into an optimized inference graph whose layer set differs.
    pub fn layer_snapshots(&self) -> Vec<LayerSnapshot> {
        self.layers
            .iter()
            .map(|l| LayerSnapshot {
                name: l.name().to_string(),
                layer_type: l.layer_type().to_string(),
                params: l.params().iter().map(|p| p.data().to_vec()).collect(),
                state: l.state().iter().map(|s| s.to_vec()).collect(),
            })
            .collect()
    }

    /// Freeze hook: restore parameters/state captured by
    /// [`Net::layer_snapshots`], matched by layer name. Every layer of
    /// `self` that owns parameters or state must have a snapshot with
    /// matching vector lengths; snapshots for layers this net does not
    /// contain are ignored (they were optimized away).
    pub fn load_layer_snapshots(&mut self, snaps: &[LayerSnapshot]) -> Result<(), String> {
        let by_name: HashMap<&str, &LayerSnapshot> =
            snaps.iter().map(|s| (s.name.as_str(), s)).collect();
        for layer in &mut self.layers {
            let has_payload = !layer.params().is_empty() || !layer.state().is_empty();
            if !has_payload {
                continue;
            }
            let name = layer.name().to_string();
            let snap = by_name
                .get(name.as_str())
                .ok_or_else(|| format!("no snapshot for layer '{name}'"))?;
            let params = layer.params_mut();
            if params.len() != snap.params.len() {
                return Err(format!(
                    "layer '{name}': snapshot has {} param blobs, layer has {}",
                    snap.params.len(),
                    params.len()
                ));
            }
            for (blob, data) in params.into_iter().zip(&snap.params) {
                if blob.len() != data.len() {
                    return Err(format!(
                        "layer '{name}': param length {} != snapshot {}",
                        blob.len(),
                        data.len()
                    ));
                }
                blob.set_data(data);
            }
            let state = layer.state_mut();
            if state.len() != snap.state.len() {
                return Err(format!(
                    "layer '{name}': snapshot has {} state vectors, layer has {}",
                    snap.state.len(),
                    state.len()
                ));
            }
            for (vec, data) in state.into_iter().zip(&snap.state) {
                if vec.len() != data.len() {
                    return Err(format!(
                        "layer '{name}': state length {} != snapshot {}",
                        vec.len(),
                        data.len()
                    ));
                }
                vec.copy_from_slice(data);
            }
        }
        Ok(())
    }

    /// Every layer's weights packed as the B panels of its `HostNative`
    /// forward GEMM ([`Layer::pack_weights`]: the inner-product layers
    /// of a net that holds data), by layer name. A serving engine packs
    /// them once per frozen graph and hands them to every net it builds
    /// through [`Net::share_packed_weights`].
    pub fn pack_weights(&self) -> PackedWeights {
        self.layers
            .iter()
            .filter_map(|l| Some((l.name().to_string(), Arc::new(l.pack_weights()?))))
            .collect()
    }

    /// Hand each named layer its shared panels, packed by
    /// [`Net::pack_weights`] on a net holding the same weights. Fails if
    /// a name is not a layer of this net that takes panels of that shape.
    /// A layer drops its panels when its parameters are next borrowed
    /// mutably (a snapshot load, a solver step).
    pub fn share_packed_weights(
        &mut self,
        panels: &[(String, Arc<PackedB>)],
    ) -> Result<(), String> {
        for (name, p) in panels {
            let layer = self
                .layers
                .iter_mut()
                .find(|l| l.name() == name)
                .ok_or_else(|| format!("no layer '{name}' to take packed weights"))?;
            layer.share_packed_weights(Arc::clone(p))?;
        }
        Ok(())
    }

    /// Resolved per-layer descriptors (kind + actual blob shapes) — the
    /// interface external cost models (the GPU/CPU baselines) consume.
    pub fn ops(&self) -> Vec<LayerOp> {
        self.def
            .layers
            .iter()
            .enumerate()
            .map(|(i, ldef)| LayerOp {
                name: ldef.name.clone(),
                kind: ldef.kind.clone(),
                in_shapes: self.layer_bottoms[i]
                    .iter()
                    .map(|&b| self.blobs[b].borrow().shape().to_vec())
                    .collect(),
                out_shapes: self.layer_tops[i]
                    .iter()
                    .map(|&t| self.blobs[t].borrow().shape().to_vec())
                    .collect(),
            })
            .collect()
    }
}

/// One layer's frozen payload: parameters and persistent state, keyed by
/// layer name (see [`Net::layer_snapshots`]).
#[derive(Debug, Clone)]
pub struct LayerSnapshot {
    pub name: String,
    pub layer_type: String,
    pub params: Vec<Vec<f32>>,
    pub state: Vec<Vec<f32>>,
}

/// One resolved layer: its definition plus concrete bottom/top shapes.
#[derive(Debug, Clone)]
pub struct LayerOp {
    pub name: String,
    pub kind: LayerKind,
    pub in_shapes: Vec<Vec<usize>>,
    pub out_shapes: Vec<Vec<usize>>,
}

#[cfg(test)]
mod event_tests {
    use super::*;
    use crate::models;
    use sw26010::ExecMode;

    /// Per-layer spans of the packed parameter/gradient vector, in layer
    /// (== `params()` / `pack_gradients`) order, parameter-less layers
    /// omitted: the oracle the gradient-ready events are checked against.
    fn param_layout(net: &Net) -> Vec<(String, std::ops::Range<usize>)> {
        let mut offset = 0;
        let mut out = Vec::new();
        for l in &net.layers {
            let len: usize = l.params().iter().map(|p| p.len()).sum();
            if len > 0 {
                out.push((l.name().to_string(), offset..offset + len));
            }
            offset += len;
        }
        out
    }

    #[test]
    fn param_layout_partitions_packed_vector() {
        let def = models::alexnet_bn(2);
        let net = Net::from_def(&def, false).unwrap();
        let layout = param_layout(&net);
        assert!(!layout.is_empty());
        let mut offset = 0;
        for (name, span) in &layout {
            assert_eq!(span.start, offset, "gap before layer {name}");
            assert!(span.end > span.start, "empty span for layer {name}");
            offset = span.end;
        }
        assert_eq!(offset, net.param_len());
    }

    #[test]
    fn backward_events_cover_every_param_and_are_causally_ordered() {
        let def = models::tiny_cnn(2, 4);
        let mut net = Net::from_def(&def, true).unwrap();
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let x: Vec<f32> = (0..net.blob("data").len())
            .map(|i| ((i * 37 % 11) as f32 - 5.0) / 7.0)
            .collect();
        net.set_input("data", &x);
        net.set_input("label", &[1.0, 2.0]);
        net.forward(&mut cg);
        let start = cg.elapsed();
        let events = net.backward_with_events(&mut cg);
        // Backward order: last parameterised layer's gradient first.
        let layout = param_layout(&net);
        let reversed: Vec<&str> = layout.iter().rev().map(|(n, _)| n.as_str()).collect();
        let emitted: Vec<&str> = events.iter().map(|e| e.layer.as_str()).collect();
        assert_eq!(emitted, reversed);
        // Spans match the packed layout and ready times never decrease.
        let mut prev = start;
        for e in &events {
            let (_, span) = layout.iter().find(|(n, _)| *n == e.layer).unwrap();
            assert_eq!(&e.span, span, "span mismatch for {}", e.layer);
            assert!(e.ready.seconds() >= prev.seconds());
            prev = e.ready;
        }
    }

    #[test]
    fn backward_with_events_matches_plain_backward() {
        let def = models::tiny_cnn(2, 4);
        let mut a = Net::from_def_seeded(&def, true, 7).unwrap();
        let mut b = Net::from_def_seeded(&def, true, 7).unwrap();
        let mut cga = CoreGroup::new(ExecMode::Functional);
        let mut cgb = CoreGroup::new(ExecMode::Functional);
        let x: Vec<f32> = (0..a.blob("data").len())
            .map(|i| ((i * 13 % 23) as f32 - 11.0) / 9.0)
            .collect();
        for (net, cg) in [(&mut a, &mut cga), (&mut b, &mut cgb)] {
            net.set_input("data", &x);
            net.set_input("label", &[0.0, 3.0]);
            net.forward(cg);
        }
        a.backward(&mut cga);
        b.backward_with_events(&mut cgb);
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.diff(), pb.diff());
        }
        assert_eq!(cga.elapsed().seconds(), cgb.elapsed().seconds());
    }
}

#[cfg(test)]
mod seed_tests {
    use super::*;
    use crate::models;

    fn weights(net: &Net) -> Vec<f32> {
        net.params()
            .iter()
            .flat_map(|p| p.data().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_builds_identical_weights() {
        let def = models::alexnet_bn(2);
        let a = Net::from_def_seeded(&def, true, 42).unwrap();
        let b = Net::from_def_seeded(&def, true, 42).unwrap();
        assert_eq!(weights(&a), weights(&b));
    }

    #[test]
    fn different_seeds_diverge() {
        let def = models::alexnet_bn(2);
        let a = Net::from_def_seeded(&def, true, 1).unwrap();
        let b = Net::from_def_seeded(&def, true, 2).unwrap();
        assert_ne!(weights(&a), weights(&b));
    }

    #[test]
    fn from_def_is_seed_zero() {
        let def = models::vgg16(1);
        let a = Net::from_def(&def, true).unwrap();
        let b = Net::from_def_seeded(&def, true, 0).unwrap();
        assert_eq!(weights(&a), weights(&b));
    }
}

//! Frozen-graph executor: runs an optimized [`FrozenGraph`] on one core
//! group in whatever [`ExecMode`] the engine was built for, so the same
//! engine serves the `Functional` mesh, `HostNative` threads and
//! `TimingOnly` alike.
//!
//! Batch sizes are bucketed to powers of two: the `Input` shape bakes
//! the batch into every downstream blob, so the engine keeps one lazily
//! built net per bucket and pads functional batches with zero rows.
//! Latency estimates always come from a `TimingOnly` twin — identical
//! across value backends, which is what makes the batcher's virtual
//! clock backend-independent.
//!
//! Every fallible path returns a typed [`ServeError`] value — injected
//! faults and malformed inputs surface as data, never as aborts.

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{Net, Phase};

use crate::error::ServeError;
use crate::graph::{def_with_batch, FrozenGraph};

/// Round a batch size up to its serving bucket (next power of two).
pub fn bucket(batch: usize) -> usize {
    batch.max(1).next_power_of_two()
}

/// One core group executing a frozen graph.
pub struct Engine {
    graph: FrozenGraph,
    mode: ExecMode,
    cg: CoreGroup,
    timing_cg: CoreGroup,
    nets: Vec<(usize, Net)>,
    latencies: Vec<(usize, f64)>,
}

impl Engine {
    pub fn new(graph: FrozenGraph, mode: ExecMode) -> Engine {
        Engine {
            graph,
            mode,
            cg: CoreGroup::new(mode),
            timing_cg: CoreGroup::new(ExecMode::TimingOnly),
            nets: Vec::new(),
            latencies: Vec::new(),
        }
    }

    /// Simulated seconds one forward pass of `batch` images takes,
    /// evaluated at the batch's bucket on the `TimingOnly` twin and
    /// memoized per bucket. Fails with [`ServeError::Graph`] if the
    /// frozen def no longer builds at that bucket.
    pub fn latency_seconds(&mut self, batch: usize) -> Result<f64, ServeError> {
        let b = bucket(batch);
        if let Some(&(_, s)) = self.latencies.iter().find(|(k, _)| *k == b) {
            return Ok(s);
        }
        let def = def_with_batch(&self.graph.def, b);
        let mut net =
            Net::from_def_mode_seeded(&def, ExecMode::TimingOnly, 0).map_err(ServeError::Graph)?;
        net.set_phase(Phase::Test);
        let before = self.timing_cg.elapsed();
        net.forward(&mut self.timing_cg);
        let s = (self.timing_cg.elapsed() - before).seconds();
        self.latencies.push((b, s));
        Ok(s)
    }

    /// Run `batch` images (row-major, `graph.per_image` floats each)
    /// through the frozen graph and return their output rows. Pads the
    /// batch with zero rows up to its bucket. Requires a functional
    /// backend (`ExecMode::Functional` or `HostNative`). A `HostNative`
    /// net multiplies by the graph's shared pre-packed inner-product
    /// weights.
    pub fn infer(&mut self, batch: usize, input: &[f32]) -> Result<Vec<f32>, ServeError> {
        if !self.mode.is_functional() {
            return Err(ServeError::NonFunctionalBackend { mode: self.mode });
        }
        let per = self.graph.per_image;
        if input.len() != batch * per {
            return Err(ServeError::InputShape {
                got: input.len(),
                batch,
                per_image: per,
            });
        }
        let b = bucket(batch);
        let idx = match self.nets.iter().position(|(k, _)| *k == b) {
            Some(i) => i,
            None => {
                let def = def_with_batch(&self.graph.def, b);
                let mut net =
                    Net::from_def_mode_seeded(&def, self.mode, 0).map_err(ServeError::Graph)?;
                net.set_phase(Phase::Test);
                net.load_layer_snapshots(&self.graph.weights)
                    .map_err(ServeError::Snapshot)?;
                if let ExecMode::HostNative { .. } = self.mode {
                    let panels = self.graph.packed_weights(&net);
                    net.share_packed_weights(panels)
                        .map_err(ServeError::Snapshot)?;
                }
                self.nets.push((b, net));
                self.nets.len() - 1
            }
        };
        let net = &mut self.nets[idx].1;
        {
            // The images, then zero rows up to the bucket (none when the
            // batch fills it), written straight into the input blob.
            let mut blob = net.blob_mut(&self.graph.input);
            assert_eq!(blob.len(), b * per, "input blob is not bucket x image");
            let (rows, pad) = blob.data_mut().split_at_mut(input.len());
            rows.copy_from_slice(input);
            pad.fill(0.0);
        }
        net.forward(&mut self.cg);
        let out = net.blob(&self.graph.output);
        let data = out.data();
        let per_out = data.len() / b;
        Ok(data[..batch * per_out].to_vec())
    }

    /// [`Engine::infer`], stamped with the Fletcher-64 checksum of the
    /// response payload — the integrity tag the cluster's health state
    /// machine verifies on every reply, so a response corrupted in
    /// flight is detected (and retried) instead of handed to a client.
    pub fn infer_checked(
        &mut self,
        batch: usize,
        input: &[f32],
    ) -> Result<(Vec<f32>, u64), ServeError> {
        let out = self.infer(batch, input)?;
        let tag = swfault::checksum(&out);
        Ok((out, tag))
    }
}

/// Verify a response payload against its Fletcher-64 tag.
pub fn verify_response(payload: &[f32], tag: u64) -> bool {
    swfault::checksum(payload) == tag
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use swcaffe_core::models::NetBuilder;
    use swcaffe_core::NetDef;
    use swdnn::host::PackedB;

    use super::*;
    use crate::Cluster;

    const MODE: ExecMode = ExecMode::HostNative { threads: 2 };
    const BUCKETS: [usize; 5] = [1, 2, 4, 8, 16];
    const PER_IMAGE: usize = 3 * 8 * 8;
    const CLASSES: usize = 10;

    /// Conv+BN+ReLU (fused when frozen) into two inner products. `fc1`
    /// (512 -> 130 features) is ragged against both panel widths and
    /// forks at buckets 8 and 16.
    fn def(batch: usize) -> NetDef {
        NetBuilder::new("packed", batch, 3, 8)
            .force_nchw()
            .conv("conv1", 8, 3, 1, 1)
            .bn("bn1")
            .relu("relu1")
            .fc("fc1", 130)
            .relu("relu2")
            .fc("fc", CLASSES)
            .loss()
    }

    fn source_net(batch: usize, seed: u64) -> Net {
        let mut net = Net::from_def_mode_seeded(&def(batch), MODE, seed).unwrap();
        net.set_phase(Phase::Test);
        net
    }

    fn frozen(seed: u64) -> FrozenGraph {
        FrozenGraph::freeze(&def(16), &source_net(16, seed)).unwrap()
    }

    fn images(batch: usize) -> Vec<f32> {
        (0..batch * PER_IMAGE)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
            .collect()
    }

    /// Logits of a plain source net at `input`'s bucket, padding rows
    /// included: no panels, so every inner product packs per call.
    fn source_logits(input: &[f32], seed: u64) -> Vec<u32> {
        let batch = input.len() / PER_IMAGE;
        let b = bucket(batch);
        let mut padded = vec![0.0; b * PER_IMAGE];
        padded[..input.len()].copy_from_slice(input);
        let mut net = source_net(b, seed);
        net.set_input("data", &padded);
        net.forward(&mut CoreGroup::new(MODE));
        let logits = bits(&net.blob("fc").data()[..batch * CLASSES]);
        logits
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn cluster_replicas_share_one_panel_set() {
        let mut cluster = Cluster::new(&frozen(7), MODE);
        let x = images(16);
        for engine in cluster.engines_mut() {
            for b in BUCKETS {
                engine.infer(b, &x[..b * PER_IMAGE]).unwrap();
            }
        }
        let sets: Vec<&[(String, Arc<PackedB>)]> = cluster
            .engines
            .iter()
            .map(|e| {
                e.graph
                    .panels
                    .get()
                    .expect("packed at first use")
                    .as_slice()
            })
            .collect();
        let names: Vec<&str> = sets[0].iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fc1", "fc"]);
        for set in &sets {
            for ((_, p), (_, first)) in set.iter().zip(sets[0]) {
                assert!(Arc::ptr_eq(p, first), "a replica packed its own panels");
            }
        }
        // The graph's copy, and one handle per bucket net of each replica.
        for (name, p) in sets[0] {
            let holders = 1 + cluster.engines.len() * BUCKETS.len();
            assert_eq!(Arc::strong_count(p), holders, "{name}");
        }
    }

    #[test]
    fn engine_logits_match_the_source_net_at_every_bucket() {
        let mut engine = Engine::new(frozen(7), MODE);
        let x = images(16);
        for batch in [1, 2, 3, 7, 13] {
            let input = &x[..batch * PER_IMAGE];
            let got = engine.infer(batch, input).unwrap();
            assert_eq!(bits(&got), source_logits(input, 7), "batch {batch}");
        }
        assert_eq!(engine.graph.panels.get().map(Vec::len), Some(2));
    }

    /// Requests fork their host kernels onto the engine's core group's
    /// workers: the first request starts its one worker thread, and no
    /// later request starts another.
    #[test]
    fn requests_after_the_first_start_no_thread() {
        let mut engine = Engine::new(frozen(7), MODE);
        let x = images(16);
        assert_eq!(engine.cg.workers().started(), 0);
        engine.infer(1, &x[..PER_IMAGE]).unwrap();
        assert_eq!(engine.cg.workers().started(), 1, "a batch-1 request forks");
        for batch in [1, 16, 1, 1] {
            engine.infer(batch, &x[..batch * PER_IMAGE]).unwrap();
        }
        assert_eq!(engine.cg.workers().started(), 1);
    }

    #[test]
    fn new_weights_drop_the_packed_panels() {
        let mut engine = Engine::new(frozen(7), MODE);
        let x = images(1);
        assert_eq!(bits(&engine.infer(1, &x).unwrap()), source_logits(&x, 7));
        let other = frozen(8);
        engine.nets[0]
            .1
            .load_layer_snapshots(&other.weights)
            .unwrap();
        let got = engine.infer(1, &x).unwrap();
        assert_eq!(bits(&got), source_logits(&x, 8));
    }
}

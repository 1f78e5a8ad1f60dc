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

use sw26010::{CoreGroup, ExecMode, SimTime};
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

    pub fn graph(&self) -> &FrozenGraph {
        &self.graph
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
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

    /// [`Engine::latency_seconds`] as a [`SimTime`].
    pub fn latency(&mut self, batch: usize) -> Result<SimTime, ServeError> {
        Ok(SimTime::from_seconds(self.latency_seconds(batch)?))
    }

    /// Run `batch` images (row-major, `graph.per_image` floats each)
    /// through the frozen graph and return their output rows. Pads the
    /// batch with zero rows up to its bucket. Requires a functional
    /// backend (`Sw26010` functional or `HostNative`).
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

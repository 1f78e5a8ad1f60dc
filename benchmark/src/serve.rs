//! `serve_mixed`: forward-only inference the way a serving user drives it.
//!
//! Phase A (wall clock, closed loop, one client): requests at a seeded
//! batch mix go round-robin over the four `HostNative` replicas of a
//! `Cluster` holding the frozen `train_host` net; the reference
//! operation is a batch-1 request, response verification included.
//! Phase B (virtual clock, open loop): `Cluster::serve` and `serve_ft`
//! over seeded Poisson traces at 50 / 100 / 120 % of nominal capacity on
//! optimized AlexNet-BN — the paper-style serving result, deterministic.

use std::time::Instant;

use sw26010::arch::CORE_GROUPS;
use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{models, Net, NetDef, Phase};
use swfault::serve::ServeFaultPlan;
use swserve::batcher::{poisson_trace, poisson_trace_tiered, BatchConfig};
use swserve::{
    bucket, def_with_batch, optimize, verify_response, Cluster, FrozenGraph, ResilienceConfig,
    ServeOutcome,
};

use crate::harness::{self, closed_loop, repeat_setup};
use crate::outcome::Outcome;
use crate::registry::SERVE_MIXED;
use crate::seeded::{self, MAX_BATCH};
use crate::stats;
use crate::trace::Recorder;
use crate::train::{host_net, CLASSES};

pub const MODE: ExecMode = ExecMode::HostNative { threads: 2 };
/// Every bucket a request of the mix can land in.
pub const BUCKETS: [usize; 5] = [1, 2, 4, 8, 16];
/// Seeded images requests draw their inputs from.
const POOL_IMAGES: usize = 64;
/// Requests the mix repeats after.
const MIX_LEN: usize = 4096;

/// Requests per virtual-clock trace.
pub const SIM_REQUESTS: usize = 20_000;
/// Offered load as a share of nominal capacity.
pub const LOADS: [(u64, f64); 3] = [(50, 0.5), (100, 1.0), (120, 1.2)];

pub fn source_net(def: &NetDef, seed: u64) -> Result<Net, String> {
    let mut net = Net::from_def_mode_seeded(def, MODE, seed)?;
    net.set_phase(Phase::Test);
    Ok(net)
}

pub struct Session {
    pub def: NetDef,
    pub graph: FrozenGraph,
    pub cluster: Cluster,
    pub pool: Vec<f32>,
    pub mix: Vec<usize>,
}

/// Set-up: build and freeze the net, start the replicas, warm every
/// bucket on every replica so no timed request builds a net.
pub fn build(seed: u64) -> Result<Session, String> {
    let def = host_net(MAX_BATCH);
    let graph = FrozenGraph::freeze(&def, &source_net(&def, seed)?)?;
    let mut cluster = Cluster::new(&graph, MODE);
    let pool = seeded::filled(seed, 0x1A6E, POOL_IMAGES * graph.per_image);
    for engine in cluster.engines_mut() {
        for b in BUCKETS {
            engine
                .infer(b, &pool[..b * graph.per_image])
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(Session {
        def,
        graph,
        cluster,
        pool,
        mix: seeded::batch_mix(seed, MIX_LEN),
    })
}

/// Input of request `i`: `batch` consecutive images of the seeded pool.
fn input_of(pool: &[f32], per_image: usize, i: usize, batch: usize) -> &[f32] {
    let first = (i * 7) % (POOL_IMAGES - batch + 1);
    &pool[first * per_image..][..batch * per_image]
}

impl Session {
    /// Request `i` of the mix: infer on the next replica, verify the tag.
    /// Returns the batch size, or what went wrong.
    pub fn request(&mut self, rec: &Recorder, i: usize) -> Result<usize, String> {
        let batch = self.mix[i % self.mix.len()];
        let input = input_of(&self.pool, self.graph.per_image, i, batch);
        let engine = &mut self.cluster.engines_mut()[i % CORE_GROUPS];
        rec.span("request", || {
            let (logits, tag) = rec
                .span("swserve.infer_checked", || {
                    engine.infer_checked(batch, input)
                })
                .map_err(|e| e.to_string())?;
            let intact = rec.span("swserve.verify_response", || verify_response(&logits, tag));
            if !intact {
                return Err(format!("request {i}: response failed its checksum"));
            }
            if logits.len() != batch * CLASSES {
                return Err(format!("request {i}: {} logits", logits.len()));
            }
            Ok(batch)
        })
    }

    /// One request per bucket, padding included: the engine's logits must
    /// equal the source net's bit for bit.
    pub fn verify_buckets(&mut self, out: &mut Outcome, seed: u64) -> Result<(), String> {
        for (i, batch) in [1usize, 2, 3, 7, 13].into_iter().enumerate() {
            let b = bucket(batch);
            let mut padded = vec![0.0f32; b * self.graph.per_image];
            let input = input_of(&self.pool, self.graph.per_image, i, batch);
            padded[..input.len()].copy_from_slice(input);
            let mut net = source_net(&def_with_batch(&self.def, b), seed)?;
            net.set_input(&self.graph.input, &padded);
            net.forward(&mut CoreGroup::new(MODE));
            let want: Vec<u32> = net.blob(&self.graph.output).data()[..batch * CLASSES]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got = self.cluster.engines_mut()[i % CORE_GROUPS].infer(batch, input);
            out.check(
                got.as_ref()
                    .is_ok_and(|g| g.iter().map(|v| v.to_bits()).eq(want.iter().copied())),
                || format!("batch {batch} (bucket {b}): engine logits differ from the source net"),
            );
        }
        Ok(())
    }
}

/// Phase B: everything the virtual clock says, for one seed.
#[derive(Default)]
pub struct Sims {
    pub slo_ms: f64,
    pub capacity_qps: f64,
    /// Per entry of [`LOADS`].
    pub p50_ms: [f64; 3],
    pub p99_ms: [f64; 3],
    pub shed_frac: [f64; 3],
    pub mean_batch_100: f64,
    pub util_100: f64,
    /// Requests served inside the SLO per virtual second at 120 % load.
    pub goodput_120_qps: f64,
    pub ft_goodput_qps: f64,
    pub ft_retries: f64,
    /// Wall microseconds per thousand simulated requests.
    pub simulate_us_per_1k: f64,
    pub simulate_ft_us_per_1k: f64,
}

fn goodput(o: &ServeOutcome, slo: f64) -> f64 {
    let inside = o
        .served
        .iter()
        .filter(|s| s.latency() <= slo * (1.0 + 1e-12))
        .count();
    inside as f64 / o.makespan
}

pub fn sims(out: &mut Outcome, seed: u64) -> Result<Sims, String> {
    let graph = optimize(&models::alexnet_bn(MAX_BATCH))?;
    let mut cluster = Cluster::new(&graph, ExecMode::TimingOnly);
    let worst = cluster
        .latency_seconds(MAX_BATCH)
        .map_err(|e| e.to_string())?;
    let capacity = CORE_GROUPS as f64 * MAX_BATCH as f64 / worst;
    let cfg = BatchConfig {
        max_batch: MAX_BATCH,
        slo: 4.0 * worst,
        timeout: 0.5 * worst,
    };
    let mut s = Sims {
        slo_ms: cfg.slo * 1e3,
        capacity_qps: capacity,
        ..Sims::default()
    };
    let mut sim_us = Vec::new();
    for (i, (pct, share)) in LOADS.into_iter().enumerate() {
        let trace = poisson_trace(
            seed.wrapping_mul(1000) + pct,
            capacity * share,
            SIM_REQUESTS,
        );
        let t = Instant::now();
        let o = cluster.serve(&trace, &cfg).map_err(|e| e.to_string())?;
        sim_us.push(t.elapsed().as_secs_f64() * 1e6 / (SIM_REQUESTS as f64 / 1e3));
        out.check(o.served.len() + o.shed.len() == SIM_REQUESTS, || {
            format!("load {pct}: served + shed != offered")
        });
        out.check(
            o.latency_percentile(100.0) <= cfg.slo * (1.0 + 1e-12),
            || format!("load {pct}: a served request missed the SLO"),
        );
        s.p50_ms[i] = o.latency_percentile(50.0) * 1e3;
        s.p99_ms[i] = o.latency_percentile(99.0) * 1e3;
        s.shed_frac[i] = o.shed.len() as f64 / SIM_REQUESTS as f64;
        if pct == 100 {
            s.mean_batch_100 = o.served.len() as f64 / o.batches.len() as f64;
            let util = o.utilization();
            s.util_100 = util.iter().sum::<f64>() / util.len() as f64;
        }
        if pct == 120 {
            s.goodput_120_qps = goodput(&o, cfg.slo);
        }
    }
    s.simulate_us_per_1k = stats::median(&sim_us);

    // One replica crash plus one straggler, at nominal capacity.
    let span = SIM_REQUESTS as f64 / capacity;
    let plan = ServeFaultPlan::new(seed)
        .detect_timeout_s(0.2 * worst)
        .backoff_base_s(0.01 * worst)
        .crash(1, 0.25 * span)
        .straggle(2, 0.3, 4.0, 0.0..0.8 * span);
    let res = ResilienceConfig::default();
    let trace = poisson_trace_tiered(seed.wrapping_mul(1000) + 7, capacity, SIM_REQUESTS, &[0, 1]);
    let t = Instant::now();
    let a = cluster
        .serve_ft(&trace, &cfg, &res, &plan)
        .map_err(|e| e.to_string())?;
    s.simulate_ft_us_per_1k = t.elapsed().as_secs_f64() * 1e6 / (SIM_REQUESTS as f64 / 1e3);
    let b = cluster
        .serve_ft(&trace, &cfg, &res, &plan)
        .map_err(|e| e.to_string())?;
    out.check(
        a.outcome.served == b.outcome.served
            && a.outcome.shed == b.outcome.shed
            && a.health == b.health
            && a.faults == b.faults,
        || "fault-tolerant serving did not replay identically".into(),
    );
    out.check(a.faults.crashes == 1, || {
        format!("planned one crash, {} fired", a.faults.crashes)
    });
    out.check(
        a.outcome.served.len() + a.outcome.shed.len() == SIM_REQUESTS,
        || "crash plan: served + shed != offered".into(),
    );
    s.ft_goodput_qps = goodput(&a.outcome, cfg.slo);
    s.ft_retries = a.health.retries as f64;
    Ok(s)
}

impl Sims {
    /// Record the simulated serving metrics (per-layer names).
    pub fn record(&self, out: &mut Outcome) {
        out.layer("sim_serve_p99_ms", self.p99_ms[1]);
        out.layer("sim_serve_goodput_qps", self.goodput_120_qps);
        out.layer("swserve.sim_p50_ms.load50", self.p50_ms[0]);
        out.layer("swserve.sim_p50_ms.load100", self.p50_ms[1]);
        out.layer("swserve.sim_p50_ms.load120", self.p50_ms[2]);
        out.layer("swserve.sim_p99_ms.load50", self.p99_ms[0]);
        out.layer("swserve.sim_p99_ms.load120", self.p99_ms[2]);
        out.layer("swserve.sim_shed_frac.load100", self.shed_frac[1]);
        out.layer("swserve.sim_shed_frac.load120", self.shed_frac[2]);
        out.layer("swserve.sim_mean_batch.load100", self.mean_batch_100);
        out.layer("swserve.sim_util.load100", self.util_100);
        out.layer("swserve.sim_ft_goodput_qps.crash1", self.ft_goodput_qps);
        out.layer("swserve.sim_ft_retries.crash1", self.ft_retries);
        out.extra("sim_serve_slo_ms", self.slo_ms, "sim_ms", true);
        out.extra("sim_serve_capacity_qps", self.capacity_qps, "sim_qps", true);
    }
}

pub fn run_untraced(seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new(SERVE_MIXED, seed, false, seconds);
    let (mut session, setup_s) = repeat_setup(setups, || build(seed))?;
    let off = Recorder::new(false);
    let mut results = Vec::new();
    let timed = closed_loop(seconds, harness::MIN_OPS, |i| {
        results.push(session.request(&off, i))
    });
    let mut images = 0u64;
    let mut b1_ms = Vec::new();
    for (r, ms) in results.into_iter().zip(&timed.op_ms) {
        match r {
            Ok(batch) => {
                out.check(true, String::new);
                images += batch as u64;
                if batch == 1 {
                    b1_ms.push(*ms);
                }
            }
            Err(e) => out.check(false, || e),
        }
    }
    session.verify_buckets(&mut out, seed)?;
    sims(&mut out, seed)?.record(&mut out);
    out.extra("requests", timed.op_ms.len() as f64, "count", false);
    harness::report_end_to_end(&mut out, &setup_s, &b1_ms, images, &timed);
    Ok(out)
}

/// The traced part: every request runs once plain and once under spans,
/// back to back on the same replica, so the batch-1 medians differ only
/// by the recorder.
pub fn run_traced_part(
    out: &mut Outcome,
    rec: &Recorder,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let session = std::cell::RefCell::new(build(seed)?);
    let off = Recorder::new(false);
    // Only batch-1 pairs count: they are the reference operation.
    let request =
        |rec: &Recorder, i: usize| session.borrow_mut().request(rec, i).map(|batch| batch == 1);
    let overhead = harness::paired_overhead(seconds, |i| request(&off, i), |i| request(rec, i))?;
    harness::report_traced_part(out, rec, "request", overhead)
}

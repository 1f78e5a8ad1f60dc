//! `cluster_sweep`: what a figure-regeneration / control-plane user runs.
//!
//! One operation is a pass over a fixed list of items — cost models,
//! collective schedules, tuner search, static checks — with almost no
//! f32 kernel work. Every item is one span and one correctness check.

use sw26010::{CoreGroup, ExecMode, SimTime};
use swcaffe_core::{models, Net, NetDef, SolverConfig};
use swnet::cost::{step_time, Transfer};
use swnet::{
    allreduce, Algorithm, AllreduceReport, CommSpec, NetParams, RankMap, ReduceEngine, Topology,
};
use swtrain::{
    pack_params, ChipTrainer, ClusterConfig, ClusterTrainer, CommMode, OverlapModel, ScalingModel,
    DEFAULT_BUCKET_BYTES,
};
use swtune::TuneDb;

use crate::harness::{self, closed_loop, repeat_setup};
use crate::outcome::Outcome;
use crate::registry::CLUSTER_SWEEP;
use crate::seeded;
use crate::trace::Recorder;
use crate::train::{self, SIM_TOL};

/// The committed tuning database and the blessed simulated-clock
/// baselines of `crates/bench` (`bench-check`): the two harnesses must
/// agree on the simulated clock.
pub const TUNE_DB_TEXT: &str = include_str!("../../docs/tune/tune_db.json");
const BLESSED_TABLE3: &str = include_str!("../../docs/results/baseline/table3_networks.json");
const BLESSED_TUNE: &str = include_str!("../../docs/results/baseline/ablation_tune.json");

/// Paper figures the simulated results are read against.
pub const PAPER_ALEXNET_IMG_PER_S: f64 = 94.17;
pub const PAPER_VGG16_IMG_PER_S: f64 = 6.21;
pub const PAPER_ALEXNET_SPEEDUP_1024: f64 = 715.45;

/// Ranks and payload of the functional all-reduce item.
const FUNC_RANKS: usize = 32;
const FUNC_ELEMS: usize = 1 << 20;
/// Ranks of the full-machine static checks.
const MACHINE_RANKS: usize = 40_960;

fn blessed(doc: &str, metric: &str) -> Result<f64, String> {
    let json = swjson::Json::parse(doc)?;
    json.get("metrics")
        .and_then(|m| m.as_arr())
        .and_then(|m| {
            m.iter()
                .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(metric))
        })
        .and_then(|e| e.get("value"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("blessed baseline has no metric `{metric}`"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SIM_TOL * a.abs().max(b.abs())
}

pub fn net_params() -> NetParams {
    NetParams::sunway_allreduce(ReduceEngine::CpeClusters)
}

/// What set-up prepares once: definitions, blessed values, payload.
pub struct Fixture {
    /// Table III per-core-group definitions: key, def, chip batch.
    zoo: Vec<(&'static str, NetDef, usize)>,
    blessed_db: TuneDb,
    blessed_alexnet: f64,
    blessed_vgg16: f64,
    blessed_hand_s: f64,
    blessed_tuned_s: f64,
    /// VGG-16 gradient elements (the all-reduce payload size).
    vgg16_elems: usize,
    machine_specs: Vec<(String, CommSpec)>,
    /// Rank-major functional all-reduce payload and its element sums.
    payload: Vec<Vec<f32>>,
    payload_sum: Vec<f64>,
}

/// The nine configurations `swcheck --comm` verifies at full machine
/// scale: each algorithm on complete supernodes, with a partial trailing
/// supernode, and as a `ShrinkAndContinue` recovery leaves it.
fn machine_specs(elems: usize) -> Result<Vec<(String, CommSpec)>, String> {
    let ranks = MACHINE_RANKS;
    let tree = ranks.next_power_of_two();
    let mut specs = Vec::new();
    for algo in [
        Algorithm::RecursiveHalvingDoubling,
        Algorithm::Ring,
        Algorithm::Binomial,
    ] {
        let (p, full) = match algo {
            Algorithm::Ring => (ranks, tree / 2),
            _ => (tree, tree),
        };
        let survivors = full - 3;
        let shrunk = match algo {
            Algorithm::Ring => (Algorithm::Ring, RankMap::RoundRobin),
            _ => (Algorithm::Ring, RankMap::Natural),
        };
        for (label, topo, map, algo) in [
            (
                "pow2",
                Topology::with_supernode(full, 256),
                RankMap::RoundRobin,
                algo,
            ),
            (
                "partial",
                Topology::with_supernode(p, 384),
                RankMap::RoundRobin,
                algo,
            ),
            (
                "shrunk",
                Topology::with_supernode(survivors, 256),
                shrunk.1,
                shrunk.0,
            ),
        ] {
            let spec = CommSpec::monolithic(topo, map, algo, elems).map_err(|e| e.to_string())?;
            specs.push((format!("{algo:?}/{label}/{}", topo.nodes), spec));
        }
    }
    Ok(specs)
}

pub fn fixture(seed: u64) -> Result<Fixture, String> {
    let vgg16_elems = ChipTrainer::new(
        &models::vgg16(16),
        SolverConfig::default(),
        ExecMode::TimingOnly,
    )?
    .param_elems();
    let payload: Vec<Vec<f32>> = (0..FUNC_RANKS)
        .map(|r| seeded::filled(seed, 0xA11 + r as u64, FUNC_ELEMS))
        .collect();
    let mut payload_sum = vec![0.0f64; FUNC_ELEMS];
    for rank in &payload {
        for (s, v) in payload_sum.iter_mut().zip(rank) {
            *s += *v as f64;
        }
    }
    Ok(Fixture {
        zoo: vec![
            ("alexnet", models::alexnet_bn(64), 256),
            ("vgg16", models::vgg16(16), 64),
            ("vgg19", models::vgg19(16), 64),
            ("resnet50", models::resnet50(8), 32),
            ("googlenet", models::googlenet(32), 128),
        ],
        blessed_db: TuneDb::parse(TUNE_DB_TEXT)?,
        blessed_alexnet: blessed(BLESSED_TABLE3, "alexnet.sw_img_per_s")?,
        blessed_vgg16: blessed(BLESSED_TABLE3, "vgg16.sw_img_per_s")?,
        blessed_hand_s: blessed(BLESSED_TUNE, "hand_total_s")?,
        blessed_tuned_s: blessed(BLESSED_TUNE, "tuned_total_s")?,
        vgg16_elems,
        machine_specs: machine_specs(61 * 1024 * 1024 / 4)?,
        payload,
        payload_sum,
    })
}

/// The simulated-clock results one pass produces. Every pass of every
/// run must produce the same ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sims {
    pub alexnet_img_per_s: f64,
    pub vgg16_img_per_s: f64,
    pub allreduce_rhd_rr_1024_ms: f64,
    pub allreduce_rhd_nat_1024_ms: f64,
    pub allreduce_ring_1024_ms: f64,
    pub cross_bytes_rhd_rr_1024: f64,
    pub scaling_eff_1024: f64,
    pub alexnet_speedup_1024: f64,
    pub comm_frac_1024: f64,
    pub overlap_hidden_frac: f64,
    pub table2_hand_s: f64,
    pub table2_tuned_s: f64,
    pub layers_won: f64,
    pub violations: f64,
}

fn chip_iteration(def: &NetDef) -> Result<(f64, usize), String> {
    let mut chip = ChipTrainer::new(def, SolverConfig::default(), ExecMode::TimingOnly)?;
    let report = chip.iteration(None);
    Ok((
        ChipTrainer::iteration_time(&report).seconds(),
        chip.param_elems(),
    ))
}

fn scaling_model(node_s: f64, elems: usize) -> ScalingModel {
    ScalingModel {
        node_time: SimTime::from_seconds(node_s),
        param_elems: elems,
        net: net_params(),
        rank_map: RankMap::RoundRobin,
        algorithm: Algorithm::RecursiveHalvingDoubling,
        supernode_size: swnet::SUPERNODE_SIZE,
        io: None,
    }
}

fn overlap_model(def: &NetDef) -> Result<OverlapModel, String> {
    let mut chip = ChipTrainer::new(def, SolverConfig::default(), ExecMode::TimingOnly)?;
    let (report, mut packed, events) = chip.compute_gradients_with_events(None);
    let (update, bcast) = chip.apply_update(&mut packed, 0.25);
    Ok(OverlapModel {
        node_time: report.compute + report.intra + update + bcast,
        compute: report.compute,
        events,
        total_elems: chip.param_elems(),
        net: net_params(),
        rank_map: RankMap::RoundRobin,
        algorithm: Algorithm::RecursiveHalvingDoubling,
        supernode_size: swnet::SUPERNODE_SIZE,
        bucket_bytes: DEFAULT_BUCKET_BYTES,
    })
}

fn expected_steps(algo: Algorithm, p: usize) -> usize {
    match algo {
        Algorithm::Ring => 2 * (p - 1),
        _ => 2 * p.trailing_zeros() as usize,
    }
}

pub fn algo_key(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Ring => "ring",
        Algorithm::Binomial => "binomial",
        Algorithm::RecursiveHalvingDoubling => "rhd",
    }
}

pub fn timing_allreduce(algo: Algorithm, map: RankMap, p: usize, elems: usize) -> AllreduceReport {
    allreduce(&Topology::new(p), &net_params(), map, algo, elems, None)
}

/// Per-step simulated seconds of one all-reduce, rebuilt from the public
/// schedule and cost model: they must sum to what `allreduce` reports.
pub fn allreduce_step_seconds(
    algo: Algorithm,
    map: RankMap,
    p: usize,
    elems: usize,
) -> Result<Vec<f64>, String> {
    let topo = Topology::new(p);
    let spec = CommSpec::monolithic(topo, map, algo, elems).map_err(|e| e.to_string())?;
    let chunks = spec.chunk_table();
    let params = net_params();
    let mut ops = Vec::new();
    let mut steps = Vec::with_capacity(spec.num_steps());
    for step in 0..spec.num_steps() {
        ops.clear();
        spec.expand_step_into(step, &mut ops);
        let transfers: Vec<Transfer> = ops
            .iter()
            .filter(|o| o.is_send)
            .map(|o| {
                let (lo, hi) = CommSpec::elem_span(&chunks, o.chunks);
                let bytes = (hi - lo) * 4;
                Transfer {
                    src: map.physical(&topo, o.rank),
                    dst: map.physical(&topo, o.peer),
                    bytes,
                    reduce_bytes: if o.reduce { bytes } else { 0 },
                }
            })
            .collect();
        steps.push(step_time(&topo, &params, &transfers).seconds());
    }
    Ok(steps)
}

/// Functional all-reduce of the seeded payload; true when every rank
/// holds the same bits and they match the f64 element sums.
fn functional_allreduce(fx: &Fixture, algo: Algorithm) -> bool {
    let mut data = fx.payload.clone();
    allreduce(
        &Topology::with_supernode(FUNC_RANKS, FUNC_RANKS / 2),
        &net_params(),
        RankMap::RoundRobin,
        algo,
        FUNC_ELEMS,
        Some(&mut data),
    );
    let same = data[1..].iter().all(|r| {
        r.iter()
            .zip(&data[0])
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    let summed = data[0]
        .iter()
        .zip(&fx.payload_sum)
        .all(|(got, want)| (*got as f64 - want).abs() <= 1e-4 * (1.0 + want.abs()));
    same && summed
}

/// One 4-node functional `ClusterTrainer` step on `tiny_cnn`; returns
/// node 0's packed weights, or `None` if the nodes disagree.
fn cluster_step(fx_seed: u64, comm: CommMode) -> Result<Option<Vec<u32>>, String> {
    const NODES: usize = 4;
    let def = models::tiny_cnn(train::CG_BATCH, train::CLASSES);
    let mode = ExecMode::HostNative { threads: 1 };
    let config = ClusterConfig {
        supernode_size: 2,
        comm,
        ..ClusterConfig::swcaffe(NODES)
    };
    let mut cluster = ClusterTrainer::new(&def, SolverConfig::default(), config, mode)?;
    for chip in &mut cluster.chips {
        train::seed_weights(chip, &def, fx_seed)?;
    }
    let img = 3 * 16 * 16;
    let inputs: Vec<Vec<(Vec<f32>, Vec<f32>)>> = (0..NODES)
        .map(|n| {
            (0..sw26010::arch::CORE_GROUPS)
                .map(|cg| {
                    let lane = 0xC105 + (n * 8 + cg) as u64;
                    let data = seeded::filled(fx_seed, lane, train::CG_BATCH * img);
                    let labels = (0..train::CG_BATCH)
                        .map(|b| ((n + cg + b) % train::CLASSES) as f32)
                        .collect();
                    (data, labels)
                })
                .collect()
        })
        .collect();
    let report = cluster.iteration(Some(&inputs));
    if !report.loss.is_finite() {
        return Ok(None);
    }
    let weights: Vec<Vec<u32>> = cluster
        .chips
        .iter()
        .map(|c| pack_params(c.net()).iter().map(|v| v.to_bits()).collect())
        .collect();
    Ok(weights[1..]
        .iter()
        .all(|w| *w == weights[0])
        .then(|| weights[0].clone()))
}

/// One pass over the item list.
pub fn pass(fx: &Fixture, seed: u64, rec: &Recorder, out: &mut Outcome) -> Result<Sims, String> {
    rec.span("pass", || {
        let mut s = Sims::default();

        // (a) Table III: whole-chip timing iterations and per-layer times.
        let mut node = Vec::new();
        for (key, def, chip_batch) in &fx.zoo {
            let (iter_s, elems) = rec.span(&format!("swtrain.chip_timing.{key}"), || {
                chip_iteration(def)
            })?;
            let img_per_s = *chip_batch as f64 / iter_s;
            let want = match *key {
                "alexnet" => Some(fx.blessed_alexnet),
                "vgg16" => Some(fx.blessed_vgg16),
                _ => None,
            };
            out.check(
                iter_s > 0.0 && want.is_none_or(|w| close(w, img_per_s)),
                || format!("{key}: {img_per_s} img/s, blessed baseline {want:?}"),
            );
            match *key {
                "alexnet" => s.alexnet_img_per_s = img_per_s,
                "vgg16" => s.vgg16_img_per_s = img_per_s,
                _ => {}
            }
            node.push((iter_s, elems));
            let residual = rec.span(&format!("core.layer_times.{key}"), || {
                let mut net = Net::from_def(def, false)?;
                let mut cg = CoreGroup::new(ExecMode::TimingOnly);
                let (_, fwd) = net.forward_with_times(&mut cg);
                let bwd = net.backward_with_times(&mut cg);
                let layers = fwd.total().seconds() + bwd.total().seconds();
                Ok::<f64, String>((cg.elapsed().seconds() - layers).abs() / layers)
            })?;
            out.check(residual <= SIM_TOL, || {
                format!("{key}: per-layer times miss the pass total by {residual}")
            });
        }

        // (b) Fig. 10/11 scaling curves and the overlap model at 1,024.
        for (i, key) in [(0, "alexnet"), (1, "vgg16")] {
            let (node_s, elems) = node[i];
            let curve = rec.span(&format!("swtrain.scaling_curve.{key}"), || {
                scaling_model(node_s, elems).curve(1024)
            });
            let last = curve.last().expect("curve reaches 1,024");
            out.check(
                curve.len() == 11
                    && last.nodes == 1024
                    && curve
                        .iter()
                        .all(|p| p.speedup <= p.nodes as f64 * (1.0 + SIM_TOL)),
                || format!("{key}: scaling curve is malformed"),
            );
            if key == "alexnet" {
                s.alexnet_speedup_1024 = last.speedup;
                s.scaling_eff_1024 = last.speedup / 1024.0;
                s.comm_frac_1024 = last.comm_fraction;
            }
            let point = rec.span(&format!("swtrain.overlap_point.{key}"), || {
                overlap_model(&fx.zoo[i].1).map(|m| m.point(1024))
            })?;
            out.check(
                point.overlapped_iter.seconds()
                    <= point.serialized_iter.seconds() * (1.0 + SIM_TOL),
                || format!("{key}: overlapped iteration slower than serialized"),
            );
            if key == "vgg16" {
                s.overlap_hidden_frac =
                    1.0 - point.exposed_comm.seconds() / point.serial_comm.seconds();
            }
        }

        // (c) All-reduce timing grid at the VGG-16 gradient size. The
        // O(p^2) ring runs once at 4,096 (round-robin, swCaffe's map).
        for p in [64usize, 1024, 4096] {
            for algo in [
                Algorithm::Ring,
                Algorithm::RecursiveHalvingDoubling,
                Algorithm::Binomial,
            ] {
                for map in [RankMap::Natural, RankMap::RoundRobin] {
                    if p == 4096 && algo == Algorithm::Ring && map == RankMap::Natural {
                        continue;
                    }
                    let name = format!("swnet.allreduce_timing.{}_{map:?}_{p}", algo_key(algo));
                    let r = rec.span(&name, || timing_allreduce(algo, map, p, fx.vgg16_elems));
                    out.check(
                        r.steps == expected_steps(algo, p) && r.elapsed.seconds() > 0.0,
                        || format!("{name}: {} steps", r.steps),
                    );
                    if p == 1024 {
                        let ms = r.elapsed.seconds() * 1e3;
                        match (algo, map) {
                            (Algorithm::RecursiveHalvingDoubling, RankMap::RoundRobin) => {
                                s.allreduce_rhd_rr_1024_ms = ms;
                                s.cross_bytes_rhd_rr_1024 = r.cross_bytes as f64;
                            }
                            (Algorithm::RecursiveHalvingDoubling, RankMap::Natural) => {
                                s.allreduce_rhd_nat_1024_ms = ms
                            }
                            (Algorithm::Ring, RankMap::RoundRobin) => s.allreduce_ring_1024_ms = ms,
                            _ => {}
                        }
                    }
                }
            }
        }
        let big = rec.span("swnet.allreduce_timing.rhd_RoundRobin_32768", || {
            timing_allreduce(
                Algorithm::RecursiveHalvingDoubling,
                RankMap::RoundRobin,
                32_768,
                fx.vgg16_elems,
            )
        });
        out.check(big.steps == 30, || {
            format!("32,768 ranks: {} steps", big.steps)
        });
        let steps = rec.span("swnet.allreduce_steps.rhd_RoundRobin_1024", || {
            allreduce_step_seconds(
                Algorithm::RecursiveHalvingDoubling,
                RankMap::RoundRobin,
                1024,
                fx.vgg16_elems,
            )
        })?;
        let step_sum_ms = steps.iter().sum::<f64>() * 1e3;
        out.check(close(step_sum_ms, s.allreduce_rhd_rr_1024_ms), || {
            format!(
                "per-step times sum to {step_sum_ms} ms, all-reduce reports {} ms",
                s.allreduce_rhd_rr_1024_ms
            )
        });

        // (d) Functional all-reduce, checked against the sum.
        for algo in [Algorithm::RecursiveHalvingDoubling, Algorithm::Ring] {
            let name = format!("swnet.allreduce_func.{}_32x1m", algo_key(algo));
            let ok = rec.span(&name, || functional_allreduce(fx, algo));
            out.check(ok, || format!("{name}: ranks disagree or miss the sum"));
        }

        // (e) Serialized and overlapped cluster steps agree bitwise.
        let serial = rec.span("swtrain.cluster_step.serialized", || {
            cluster_step(seed, CommMode::Serialized)
        })?;
        let overlapped = rec.span("swtrain.cluster_step.overlapped", || {
            cluster_step(
                seed,
                CommMode::Overlapped {
                    bucket_bytes: 4 << 10,
                },
            )
        })?;
        out.check(serial.is_some() && serial == overlapped, || {
            "serialized and overlapped cluster steps leave different weights".into()
        });

        // (f) Tuner search and database round trip.
        let layers = rec.span("swtune.tune_all", || {
            swtune::tune_all(swtune::search::DEFAULT_SEED)
        });
        s.table2_hand_s = layers.iter().map(|l| l.hand_total()).sum();
        s.table2_tuned_s = layers.iter().map(|l| l.tuned_total()).sum();
        s.layers_won = layers.iter().filter(|l| l.is_win()).count() as f64;
        out.check(
            close(s.table2_hand_s, fx.blessed_hand_s)
                && close(s.table2_tuned_s, fx.blessed_tuned_s),
            || {
                format!(
                    "tuner totals {} / {} s, blessed baseline {} / {} s",
                    s.table2_hand_s, s.table2_tuned_s, fx.blessed_hand_s, fx.blessed_tuned_s
                )
            },
        );
        let db = TuneDb {
            seed: swtune::search::DEFAULT_SEED,
            layers,
        };
        let reparsed = rec.span("swtune.db_roundtrip", || TuneDb::parse(&db.render()))?;
        out.check(reparsed == db && db == fx.blessed_db, || {
            "tuning database differs from docs/tune/tune_db.json".into()
        });

        // (g) Static checks: the full-machine schedules and the model zoo.
        let mut violations = 0;
        rec.span("swcheck.comm_full_machine", || {
            for (_, spec) in &fx.machine_specs {
                violations += swcheck::check_spec(spec).violations.len();
            }
        });
        let zoo = rec.span("swcheck.graph_zoo", swcheck::check_model_zoo);
        violations += zoo.iter().filter(|o| !o.is_clean()).count();
        s.violations = violations as f64;
        out.check(violations == 0, || {
            format!("swcheck found {violations} violations")
        });
        Ok(s)
    })
}

impl Sims {
    pub fn record(&self, out: &mut Outcome) {
        let err = |got: f64, paper: f64| 100.0 * (got - paper).abs() / paper;
        out.layer("sim_alexnet_img_per_s", self.alexnet_img_per_s);
        out.layer("sim_vgg16_img_per_s", self.vgg16_img_per_s);
        out.layer("sim_allreduce_1024_ms", self.allreduce_rhd_rr_1024_ms);
        out.layer(
            "swnet.sim_allreduce_ms.rhd_roundrobin_1024",
            self.allreduce_rhd_rr_1024_ms,
        );
        out.layer(
            "swnet.sim_allreduce_ms.rhd_natural_1024",
            self.allreduce_rhd_nat_1024_ms,
        );
        out.layer(
            "swnet.sim_allreduce_ms.ring_1024",
            self.allreduce_ring_1024_ms,
        );
        out.layer(
            "swnet.cross_bytes.rhd_roundrobin_1024",
            self.cross_bytes_rhd_rr_1024,
        );
        out.layer("swtrain.sim_scaling_eff_1024", self.scaling_eff_1024);
        out.layer("swtrain.sim_comm_frac_1024", self.comm_frac_1024);
        out.layer("swtrain.overlap_hidden_sim_frac", self.overlap_hidden_frac);
        out.layer("swtune.table2_hand_sim_s", self.table2_hand_s);
        out.layer("swtune.table2_tuned_sim_s", self.table2_tuned_s);
        out.layer("swtune.layers_won", self.layers_won);
        out.layer("swcheck.violations", self.violations);
        out.layer(
            "paper.err_pct.alexnet_img_per_s",
            err(self.alexnet_img_per_s, PAPER_ALEXNET_IMG_PER_S),
        );
        out.layer(
            "paper.err_pct.vgg16_img_per_s",
            err(self.vgg16_img_per_s, PAPER_VGG16_IMG_PER_S),
        );
        out.layer(
            "paper.err_pct.alexnet_speedup_1024",
            err(self.alexnet_speedup_1024, PAPER_ALEXNET_SPEEDUP_1024),
        );
    }
}

/// Set-up: the fixture plus one warm-up pass.
pub fn build(seed: u64) -> Result<(Fixture, Sims), String> {
    let fx = fixture(seed)?;
    let mut scratch = Outcome::new(CLUSTER_SWEEP, seed, false, 0.0);
    let sims = pass(&fx, seed, &Recorder::new(false), &mut scratch)?;
    if scratch.failed > 0 {
        return Err(format!("warm-up pass failed: {:?}", scratch.failures));
    }
    Ok((fx, sims))
}

pub fn run_untraced(seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new(CLUSTER_SWEEP, seed, false, seconds);
    let ((fx, warm), setup_s) = repeat_setup(setups, || build(seed))?;
    let off = Recorder::new(false);
    let mut error = None;
    let mut drift = 0;
    let timed = closed_loop(seconds, harness::MIN_OPS, |_| {
        match pass(&fx, seed, &off, &mut out) {
            Ok(sims) => drift += (sims != warm) as usize,
            Err(e) => error = Some(e),
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let items = out.attempted;
    out.check(drift == 0, || {
        format!("{drift} passes changed a simulated result")
    });
    warm.record(&mut out);
    harness::report_end_to_end(&mut out, &setup_s, &timed.op_ms, items, &timed);
    Ok(out)
}

/// The traced part: plain and traced passes alternate.
pub fn run_traced_part(
    out: &mut Outcome,
    rec: &Recorder,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let (fx, _) = build(seed)?;
    let off = Recorder::new(false);
    let out_cell = std::cell::RefCell::new(&mut *out);
    let run = |rec: &Recorder| pass(&fx, seed, rec, &mut out_cell.borrow_mut()).map(|_| true);
    let overhead = harness::paired_overhead(seconds, |_| run(&off), |_| run(rec))?;
    harness::report_traced_part(out, rec, "pass", overhead)
}

//! The two training workloads: `train_host` (HostNative kernels do the
//! work) and `train_mesh` (the functional 8x8 mesh does).
//!
//! Untraced, the operation is `Trainer::run(1)`. Traced, the same
//! iteration is unrolled through public pieces (`Prefetcher::next` ->
//! `ChipTrainer::compute_gradients` -> `ChipTrainer::apply_update`) so a
//! span can sit on each; the unrolled losses must equal the trainer's.

use sw26010::arch::CORE_GROUPS;
use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::models::{self, NetBuilder};
use swcaffe_core::snapshot::SolverState;
use swcaffe_core::{Net, NetDef, PoolKind, SolverConfig};
use swio::{io_stall, IoModel, Layout, Prefetcher, SyntheticImageNet};
use swtrain::{pack_params, ChipTrainer, TrainConfig, Trainer};

use crate::harness::{self, closed_loop, repeat_setup};
use crate::outcome::Outcome;
use crate::registry::{TRAIN_HOST, TRAIN_MESH};
use crate::trace::Recorder;

pub const CLASSES: usize = 10;
/// Per-core-group batch; the chip trains `4 x` this per iteration.
pub const CG_BATCH: usize = 2;

/// The 17-layer CNN of `train_host` and `serve_mixed` (3x32x32 input).
pub fn host_net(batch: usize) -> NetDef {
    NetBuilder::new("bench_cnn", batch, 3, 32)
        .force_nchw()
        .conv("conv1", 32, 3, 1, 1)
        .bn("bn1")
        .relu("relu1")
        .pool("pool1", 2, 2, 0, PoolKind::Max)
        .conv("conv2", 64, 3, 1, 1)
        .bn("bn2")
        .relu("relu2")
        .conv("conv3", 64, 3, 1, 1)
        .relu("relu3")
        .pool("pool2", 2, 2, 0, PoolKind::Max)
        .fc("fc1", 256)
        .relu("relu4")
        .fc("fc2", CLASSES)
        .loss()
}

pub struct Spec {
    pub workload: &'static str,
    pub def: NetDef,
    pub mode: ExecMode,
    /// Untimed iterations that end set-up.
    pub warmups: usize,
}

pub fn spec(workload: &str) -> Spec {
    match workload {
        TRAIN_HOST => Spec {
            workload: TRAIN_HOST,
            def: host_net(CG_BATCH),
            mode: ExecMode::HostNative { threads: 1 },
            warmups: 2,
        },
        TRAIN_MESH => Spec {
            workload: TRAIN_MESH,
            def: models::tiny_cnn(CG_BATCH, CLASSES),
            mode: ExecMode::Functional,
            warmups: 1,
        },
        other => panic!("`{other}` is not a training workload"),
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        solver: SolverConfig::default(),
        eval_every: 0,
        eval_batches: 0,
        classes: CLASSES,
    }
}

pub fn io_model() -> IoModel {
    IoModel::taihulight(Layout::paper_striped())
}

/// The seed picks the dataset size, hence which records every batch draws.
pub fn dataset(seed: u64) -> SyntheticImageNet {
    SyntheticImageNet::new(50_000 + (seed % 50_000) as usize)
}

/// Overwrite every replica's weights with a seeded fill: `Trainer` and
/// `ChipTrainer` always build from filler seed 0.
pub fn seed_weights(chip: &mut ChipTrainer, def: &NetDef, seed: u64) -> Result<(), String> {
    let donor = Net::from_def_seeded(def, true, seed)?;
    let state: Vec<Vec<f32>> = donor.state().iter().map(|s| s.to_vec()).collect();
    chip.restore(
        &pack_params(&donor),
        &state,
        &SolverState {
            iteration: 0,
            momentum: Vec::new(),
            rng_streams: donor.rng_streams(),
        },
    )
}

/// One finished iteration: loss bits and simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub loss_bits: u32,
    pub sim_ms: f64,
}

fn trainer_step(trainer: &mut Trainer) -> Result<Step, String> {
    let log = trainer.run(1)?;
    Ok(Step {
        loss_bits: log[0].train_loss.to_bits(),
        sim_ms: log[0].iter_time.seconds() * 1e3,
    })
}

/// `Trainer` behind set-up: built, seeded, warmed.
pub struct Session {
    pub trainer: Trainer,
    pub warm: Vec<Step>,
}

pub fn build(spec: &Spec, mode: ExecMode, seed: u64) -> Result<Session, String> {
    let mut trainer =
        Trainer::with_mode(&spec.def, dataset(seed), io_model(), train_config(), mode)?;
    seed_weights(trainer.chip_mut(), &spec.def, seed)?;
    let warm = (0..spec.warmups)
        .map(|_| trainer_step(&mut trainer))
        .collect::<Result<_, _>>()?;
    Ok(Session { trainer, warm })
}

/// The same iteration as `Trainer::run(1)`, assembled from public pieces.
pub struct Unrolled {
    chip: ChipTrainer,
    prefetcher: Prefetcher,
    per_image: usize,
}

impl Unrolled {
    pub fn build(spec: &Spec, seed: u64) -> Result<Unrolled, String> {
        let mut chip = ChipTrainer::new(&spec.def, SolverConfig::default(), spec.mode)?;
        seed_weights(&mut chip, &spec.def, seed)?;
        let shape = chip.net().blob("data").shape().to_vec();
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let prefetcher =
            Prefetcher::spawn(dataset(seed), io_model(), 1, chip.chip_batch(), c, h, w, 1);
        Ok(Unrolled {
            chip,
            prefetcher,
            per_image: c * h * w,
        })
    }

    pub fn step(&mut self, rec: &Recorder) -> Result<Step, String> {
        rec.span("iter", || {
            let batch = rec.span("swio.prefetch_next", || self.prefetcher.next())?;
            let cg_batch = self.chip.cg_batch;
            let per = cg_batch * self.per_image;
            let inputs: Vec<(Vec<f32>, Vec<f32>)> = rec.span("bench.split_inputs", || {
                (0..CORE_GROUPS)
                    .map(|cg| {
                        let data = batch.data[cg * per..][..per].to_vec();
                        let labels = batch.labels[cg * cg_batch..][..cg_batch]
                            .iter()
                            .map(|l| l % CLASSES as f32)
                            .collect();
                        (data, labels)
                    })
                    .collect()
            });
            let (mut report, mut packed) = rec.span("swtrain.compute_gradients", || {
                self.chip.compute_gradients(Some(&inputs))
            });
            let (update, bcast) = rec.span("swtrain.apply_update", || {
                self.chip
                    .apply_update(&mut packed, 1.0 / CORE_GROUPS as f32)
            });
            report.update = update;
            report.intra += bcast;
            let compute = ChipTrainer::iteration_time(&report);
            let sim = compute + io_stall(batch.io_time, compute);
            Ok(Step {
                loss_bits: report.loss.to_bits(),
                sim_ms: sim.seconds() * 1e3,
            })
        })
    }

    pub fn stats(&self) -> sw26010::Stats {
        self.chip.stats()
    }
}

/// Simulated iteration time of `def` on the timing-only backend, with
/// the trainer's I/O stall rule, and the per-layer residual: the chip's
/// compute minus the sum of one core group's `LayerTimes`.
pub struct TimingTwin {
    pub iter_ms: f64,
    pub io_ms: f64,
    pub layer_sum_residual_s: f64,
}

pub fn timing_twin(def: &NetDef, seed: u64) -> Result<TimingTwin, String> {
    let mut chip = ChipTrainer::new(def, SolverConfig::default(), ExecMode::TimingOnly)?;
    let report = chip.iteration(None);
    let compute = ChipTrainer::iteration_time(&report);
    let io = io_model().batch_read_time(1, dataset(seed).batch_bytes(chip.chip_batch()));
    let mut net = Net::from_def(def, false)?;
    let mut cg = CoreGroup::new(ExecMode::TimingOnly);
    let before = cg.elapsed();
    let (_, fwd) = net.forward_with_times(&mut cg);
    let bwd = net.backward_with_times(&mut cg);
    let whole = (cg.elapsed() - before).seconds();
    let layers = fwd.total().seconds() + bwd.total().seconds();
    Ok(TimingTwin {
        iter_ms: (compute + io_stall(io, compute)).seconds() * 1e3,
        io_ms: io.seconds() * 1e3,
        layer_sum_residual_s: (whole - layers).abs(),
    })
}

/// Largest relative gap the repo's own mode-invariance test allows
/// between functional-mesh and timing-only simulated time.
pub const MODE_INVARIANCE_TOL: f64 = 0.12;

/// Relative tolerance for two evaluations of one simulated quantity.
pub const SIM_TOL: f64 = 1e-9;

fn images_per_iter() -> u64 {
    (CORE_GROUPS * CG_BATCH) as u64
}

/// Checks after timing: the host twin's losses, the timing twin's clock.
fn verify(out: &mut Outcome, spec: &Spec, seed: u64, steps: &[Step]) -> Result<(), String> {
    let twin = timing_twin(&spec.def, seed)?;
    out.check(twin.layer_sum_residual_s <= SIM_TOL, || {
        format!(
            "per-layer LayerTimes miss the pass total by {} s",
            twin.layer_sum_residual_s
        )
    });
    out.layer("core.sim_layer_sum_residual", twin.layer_sum_residual_s);
    if spec.workload == TRAIN_HOST {
        out.layer("sim_train_iter_ms.host_net", twin.iter_ms);
        return Ok(());
    }
    // The functional mesh's own clock (first timed iteration: the core
    // group clocks accumulate, so later differences round differently in
    // the last bits), and its gap to the timing model.
    let mesh_ms = steps[spec.warmups].sim_ms;
    let gap = (mesh_ms - twin.iter_ms).abs() / twin.iter_ms;
    out.layer("sim_train_iter_ms.mesh_net", mesh_ms);
    out.layer("core.sim_func_vs_timing_rel_diff", gap);
    out.check(gap <= MODE_INVARIANCE_TOL, || {
        format!(
            "functional mesh {mesh_ms} ms vs timing-only {} ms",
            twin.iter_ms
        )
    });
    out.check(
        steps
            .iter()
            .all(|s| (s.sim_ms - mesh_ms).abs() <= SIM_TOL * mesh_ms),
        || "simulated iteration time differs between iterations".into(),
    );
    // Same seeds on HostNative must give the same loss, bit for bit.
    let mut host = build(spec, ExecMode::HostNative { threads: 1 }, seed)?;
    let mut host_steps = host.warm.clone();
    while host_steps.len() < steps.len() {
        host_steps.push(trainer_step(&mut host.trainer)?);
    }
    let differ = steps
        .iter()
        .zip(&host_steps)
        .filter(|(m, h)| m.loss_bits != h.loss_bits)
        .count();
    out.check(differ == 0, || {
        format!(
            "{differ} of {} mesh losses differ from the HostNative twin",
            steps.len()
        )
    });
    Ok(())
}

pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    setups: usize,
) -> Result<Outcome, String> {
    let spec = spec(workload);
    let mut out = Outcome::new(spec.workload, seed, false, seconds);
    let (mut session, setup_s) = repeat_setup(setups, || build(&spec, spec.mode, seed))?;
    let mut steps = session.warm.clone();
    let mut errors = Vec::new();
    let timed = closed_loop(seconds, harness::MIN_OPS, |_| {
        match trainer_step(&mut session.trainer) {
            Ok(step) => steps.push(step),
            Err(e) => errors.push(e),
        }
    });
    let ops = timed.op_ms.len();
    for step in &steps[spec.warmups..] {
        out.check(f32::from_bits(step.loss_bits).is_finite(), || {
            "training loss is not finite".into()
        });
    }
    for e in errors {
        out.check(false, || e);
    }
    verify(&mut out, &spec, seed, &steps)?;
    harness::report_end_to_end(
        &mut out,
        &setup_s,
        &timed.op_ms,
        ops as u64 * images_per_iter(),
        &timed,
    );
    Ok(out)
}

/// The traced part of a training run: `Trainer::run(1)` and the unrolled
/// iteration alternate, so both see the same machine; their medians give
/// the tracing overhead and their losses must agree.
pub fn run_traced_part(
    out: &mut Outcome,
    rec: &Recorder,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let spec = spec(workload);
    let mut plain = build(&spec, spec.mode, seed)?;
    let mut unrolled = Unrolled::build(&spec, seed)?;
    let off = Recorder::new(false);
    let (mut plain_steps, mut unrolled_steps) = (plain.warm.clone(), Vec::new());
    for _ in 0..spec.warmups {
        unrolled_steps.push(unrolled.step(&off)?);
    }
    let overhead = harness::paired_overhead(
        seconds,
        |_| {
            plain_steps.push(trainer_step(&mut plain.trainer)?);
            Ok(true)
        },
        |_| {
            unrolled_steps.push(unrolled.step(rec)?);
            Ok(true)
        },
    )?;
    let mismatches = plain_steps
        .iter()
        .zip(&unrolled_steps)
        .filter(|(a, b)| a != b)
        .count();
    out.check(mismatches == 0, || {
        format!("{mismatches} unrolled iterations differ from Trainer::run(1)")
    });
    harness::report_traced_part(out, rec, "iter", overhead)
}

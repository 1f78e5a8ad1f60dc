//! Per-layer probes: direct calls into each crate's public functions,
//! timed from outside. Every traced run makes all of them, whatever its
//! workload, so the per-layer numbers of two commits are comparable on
//! any workload's traced run. Each probe is a span; wall values are
//! medians over the probe's repetitions.

use std::time::Instant;

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::snapshot::{read_weights, write_weights};
use swcaffe_core::{Net, SgdSolver, SolverConfig};
use swdnn::bn::{self, BnFwdOperands};
use swdnn::conv_explicit::{self, ConvBwdOperands, ConvFwdOperands};
use swdnn::fused::{self, ConvBnReluOperands};
use swdnn::gemm::{gemm, GemmOperands};
use swdnn::pool::{self, PoolFwdOperands};
use swdnn::transform::{self, TransShape};
use swdnn::{elementwise as ew, ConvShape, GemmDims, PoolMethod, PoolShape, Trans};
use swserve::{Engine, FrozenGraph};
use swtrain::{pack_gradients, pack_params, unpack_gradients, unpack_params};
use swtune::TuneDb;

use crate::outcome::Outcome;
use crate::registry::{TRAIN_HOST, TRAIN_MESH};
use crate::seeded::{self, filled};
use crate::trace::Recorder;
use crate::{replay, serve, stats, sweep, train};

const HOST1: ExecMode = ExecMode::HostNative { threads: 1 };

/// Time `reps` calls of `f` after one warm-up, each under a span named
/// `name`; returns the median in milliseconds.
fn wall_ms(rec: &Recorder, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            rec.span(name, &mut f);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Median milliseconds of the spans named `name` recorded from span
/// index `from` on.
fn span_ms(rec: &Recorder, name: &str, from: usize) -> Result<f64, String> {
    let ms: Vec<f64> = rec.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    if ms.is_empty() {
        return Err(format!("no span named `{name}` was recorded"));
    }
    Ok(stats::median(&ms))
}

/// conv2 of the benchmark CNN: 32 -> 64 channels, 3x3, on 16x16.
fn conv2(batch: usize) -> ConvShape {
    ConvShape {
        batch,
        in_c: 32,
        in_h: 16,
        in_w: 16,
        out_c: 64,
        k: 3,
        stride: 1,
        pad: 1,
    }
}

fn sw26010_probes(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    let mut cg = CoreGroup::new(ExecMode::Functional);
    let launch = wall_ms(rec, "sw26010.launch", 30, || {
        cg.run(64, |_| {});
    });
    out.layer("sw26010.launch_wall_us", launch * 1e3);

    // One functional-mesh training iteration of `train_mesh`'s net.
    let spec = train::spec(TRAIN_MESH);
    let mut mesh = train::Unrolled::build(&spec, seed)?;
    mesh.step(&Recorder::new(false))?;
    let before = mesh.stats();
    let mut iter_ms = Vec::new();
    let mut first = None;
    for _ in 0..2 {
        let t = Instant::now();
        let step = mesh.step(rec)?;
        iter_ms.push(t.elapsed().as_secs_f64() * 1e3);
        first.get_or_insert(step);
    }
    let per_iter = |total: u64| (total / 2) as f64;
    let d = mesh.stats().delta(&before);
    out.layer("sw26010.launches_per_iter", per_iter(d.launches));
    out.layer("sw26010.dma_bytes_per_iter", per_iter(d.dma_bytes()));
    out.layer("sw26010.dma_requests_per_iter", per_iter(d.dma_requests));
    out.layer("sw26010.rlc_msgs_per_iter", per_iter(d.rlc_messages));
    out.layer("sw26010.flops_per_iter", per_iter(d.flops));
    out.layer(
        "sw26010.wall_ns_per_sim_flop",
        stats::median(&iter_ms) * 1e6 / per_iter(d.flops),
    );

    // The mesh's own clock against the timing-only model of the same net.
    let mesh_ms = first.expect("two steps ran").sim_ms;
    let twin = train::timing_twin(&spec.def, seed)?;
    out.layer("sim_train_iter_ms.mesh_net", mesh_ms);
    out.layer(
        "core.sim_func_vs_timing_rel_diff",
        (mesh_ms - twin.iter_ms).abs() / twin.iter_ms,
    );
    Ok(())
}

fn swbackend_probes(out: &mut Outcome, rec: &Recorder) {
    let ms = wall_ms(rec, "swbackend.par_tasks", 200, || {
        swbackend::par_tasks(2, (0..64).collect(), |i: usize| {
            std::hint::black_box(i);
        });
    });
    out.layer("swbackend.par_tasks_wall_us", ms * 1e3);
}

fn swdnn_probes(out: &mut Outcome, rec: &Recorder, seed: u64) {
    let shape = conv2(train::CG_BATCH);
    let x = filled(seed, 0xD0, shape.input_len());
    let w = filled(seed, 0xD1, shape.weight_len());
    let dy = filled(seed, 0xD2, shape.output_len());
    let mut y = vec![0.0f32; shape.output_len()];
    let mut dx = vec![0.0f32; shape.input_len()];
    let mut dw = vec![0.0f32; shape.weight_len()];
    let mut host = CoreGroup::new(HOST1);
    let mut mesh = CoreGroup::new(ExecMode::Functional);

    let conv_fwd = |cg: &mut CoreGroup, y: &mut [f32]| {
        conv_explicit::forward(
            cg,
            &shape,
            Some(ConvFwdOperands {
                input: &x,
                weights: &w,
                output: y,
            }),
        );
    };
    let ms = wall_ms(rec, "swdnn.conv_fwd.host", 20, || {
        conv_fwd(&mut host, &mut y)
    });
    out.layer("swdnn.conv_fwd.host_wall_ms", ms);
    let ms = wall_ms(rec, "swdnn.conv_fwd.mesh", 3, || {
        conv_fwd(&mut mesh, &mut y)
    });
    out.layer("swdnn.conv_fwd.mesh_wall_ms", ms);
    let mut timing = CoreGroup::new(ExecMode::TimingOnly);
    conv_explicit::forward(&mut timing, &shape, None);
    out.layer("swdnn.conv_fwd.sim_ms", timing.elapsed().seconds() * 1e3);

    let mut conv_bwd = |in_grad: Option<&mut [f32]>, w_grad: Option<&mut [f32]>| {
        conv_explicit::backward(
            &mut host,
            &shape,
            Some(ConvBwdOperands {
                input: &x,
                weights: &w,
                out_grad: &dy,
                in_grad,
                w_grad,
            }),
        );
    };
    let ms = wall_ms(rec, "swdnn.conv_bwd_data.host", 20, || {
        conv_bwd(Some(&mut dx), None)
    });
    out.layer("swdnn.conv_bwd_data.host_wall_ms", ms);
    let ms = wall_ms(rec, "swdnn.conv_bwd_weights.host", 20, || {
        conv_bwd(None, Some(&mut dw))
    });
    out.layer("swdnn.conv_bwd_weights.host_wall_ms", ms);

    // conv2's forward GEMM: weights (64 x 288) times columns (288 x 256).
    let dims = conv_explicit::fwd_gemm_dims(&shape);
    let a = filled(seed, 0xD3, dims.m * dims.k);
    let b = filled(seed, 0xD4, dims.k * dims.n);
    let mut c = vec![0.0f32; dims.m * dims.n];
    let mut run_gemm = |cg: &mut CoreGroup| {
        gemm(
            cg,
            dims,
            Trans::No,
            Trans::No,
            0.0,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut c,
            }),
        );
    };
    let ms = wall_ms(rec, "swdnn.gemm.host", 50, || run_gemm(&mut host));
    let flop = 2.0 * (dims.m * dims.n * dims.k) as f64;
    out.layer("swdnn.gemm.host_gflops", flop / (ms * 1e-3) / 1e9);
    let ms = wall_ms(rec, "swdnn.gemm.mesh", 5, || run_gemm(&mut mesh));
    out.layer("swdnn.gemm.mesh_wall_ms", ms);

    // The serving side: two host threads, batch 1.
    let mut serve_cg = CoreGroup::new(serve::MODE);
    let ip = GemmDims::new(1, 256, 64 * 8 * 8);
    let feat = filled(seed, 0xD5, ip.k);
    let ip_w = filled(seed, 0xD6, ip.n * ip.k);
    let ip_b = filled(seed, 0xD7, ip.n);
    let mut ip_y = vec![0.0f32; ip.n];
    let ms = wall_ms(rec, "swdnn.ip_fwd_b1.host", 50, || {
        gemm(
            &mut serve_cg,
            ip,
            Trans::No,
            Trans::Yes,
            0.0,
            Some(GemmOperands {
                a: &feat,
                b: &ip_w,
                c: &mut ip_y,
            }),
        );
        ew::bias_rows(&mut serve_cg, 1, ip.n, Some((&ip_b, &mut ip_y)));
    });
    out.layer("swdnn.ip_fwd_b1.host_wall_ms", ms);

    let one = conv2(1);
    let channel = |lane: u64| filled(seed, lane, one.out_c);
    let (bias, gamma, beta, mean) = (channel(0xD8), channel(0xD9), channel(0xDA), channel(0xDB));
    let var: Vec<f32> = channel(0xDC).iter().map(|v| 1.0 + v.abs()).collect();
    let mut fused_y = vec![0.0f32; one.output_len()];
    let ms = wall_ms(rec, "swdnn.fused_conv_bn_relu.host", 30, || {
        fused::forward(
            &mut serve_cg,
            &one,
            1e-5,
            Some(ConvBnReluOperands {
                input: &x[..one.input_len()],
                weights: &w,
                bias: Some(&bias),
                gamma: &gamma,
                beta: &beta,
                mean: &mean,
                var: &var,
                output: &mut fused_y,
            }),
        );
    });
    out.layer("swdnn.fused_conv_bn_relu.host_wall_ms", ms);

    // Streaming kernels on conv2's output tensor (2 x 64 x 16 x 16).
    let (batch, ch, spatial) = (shape.batch, shape.out_c, shape.out_h() * shape.out_w());
    let (mut save_mean, mut save_istd) = (vec![0.0f32; ch], vec![0.0f32; ch]);
    let ms = wall_ms(rec, "swdnn.bn_fwd.host", 50, || {
        bn::forward(
            &mut host,
            batch,
            ch,
            spatial,
            1e-5,
            Some(BnFwdOperands {
                input: &dy,
                gamma: &gamma,
                beta: &beta,
                output: &mut y,
                save_mean: &mut save_mean,
                save_istd: &mut save_istd,
            }),
        );
    });
    out.layer("swdnn.bn_fwd.host_wall_ms", ms);

    let pshape = PoolShape {
        batch,
        channels: ch,
        in_h: shape.out_h(),
        in_w: shape.out_w(),
        k: 2,
        stride: 2,
        pad: 0,
        method: PoolMethod::Max,
    };
    let mut pooled = vec![0.0f32; pshape.output_len()];
    let mut argmax = vec![0.0f32; pshape.output_len()];
    let ms = wall_ms(rec, "swdnn.pool_fwd.host", 50, || {
        pool::forward(
            &mut host,
            &pshape,
            Some(PoolFwdOperands {
                input: &dy,
                output: &mut pooled,
                argmax: Some(&mut argmax),
            }),
        );
    });
    out.layer("swdnn.pool_fwd.host_wall_ms", ms);

    let ms = wall_ms(rec, "swdnn.relu_fwd.host", 100, || {
        ew::relu_forward(&mut host, dy.len(), Some((&dy, &mut y)));
    });
    out.layer("swdnn.relu_fwd.host_wall_ms", ms);

    let tshape = TransShape {
        batch,
        channels: ch,
        height: shape.out_h(),
        width: shape.out_w(),
    };
    let ms = wall_ms(rec, "swdnn.transform.host", 50, || {
        transform::nchw_to_rcnb(&mut host, &tshape, Some((&dy, &mut y)));
    });
    out.layer("swdnn.transform.host_wall_ms", ms);
}

/// One core group's share of a `train_host` iteration, piece by piece,
/// and the same net's operations replayed as bare kernel calls.
fn core_probes(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    let def = train::host_net(train::CG_BATCH);
    let build = || Net::from_def_mode_seeded(&def, HOST1, seed);
    build()?;
    let ms = wall_ms(rec, "core.net_build", 10, || {
        std::hint::black_box(build().is_ok());
    });
    out.layer("core.net_build_wall_ms", ms);

    let mut net = build()?;
    let mut cg = CoreGroup::new(HOST1);
    let mut solver = SgdSolver::new(SolverConfig::default());
    let data = filled(seed, 0xC0, net.blob("data").len());
    let labels: Vec<f32> = (0..train::CG_BATCH)
        .map(|b| (b % train::CLASSES) as f32)
        .collect();
    let mut piece: [Vec<f64>; 5] = Default::default();
    let mut kernels = Vec::new();
    for rep in 0..6 {
        let from = rec.spans().len();
        rec.span("cg_step", || {
            rec.span("core.set_input", || {
                net.set_input("data", &data);
                net.set_input("label", &labels);
            });
            rec.span("core.zero_param_diffs", || net.zero_param_diffs());
            rec.span("core.forward", || net.forward(&mut cg));
            rec.span("core.backward", || net.backward(&mut cg));
            rec.span("core.solver_step", || solver.step(&mut cg, &mut net));
        });
        let wall = replay::kernel_wall(&mut cg, &net, &def)?;
        if rep == 0 {
            continue; // warm-up: first solver step allocates its history
        }
        for (i, name) in [
            "cg_step",
            "core.set_input",
            "core.forward",
            "core.backward",
            "core.solver_step",
        ]
        .into_iter()
        .enumerate()
        {
            piece[i].push(span_ms(rec, name, from)?);
        }
        kernels.push((wall.forward_s + wall.backward_s) * 1e3);
    }
    let [step, set_input, forward, backward, solver_step] = piece.map(|v| stats::median(&v));
    let kernels = stats::median(&kernels);
    out.layer("core.set_input_wall_ms", set_input);
    out.layer("core.forward_wall_ms", forward);
    out.layer("core.backward_wall_ms", backward);
    out.layer("core.solver_step_wall_ms", solver_step);
    out.layer("swdnn.kernels_wall_frac", kernels / step);
    out.layer(
        "core.residual_wall_frac",
        (step - kernels - solver_step - set_input) / step,
    );

    let mut bytes = Vec::new();
    let ms = wall_ms(rec, "core.snapshot_roundtrip", 10, || {
        bytes.clear();
        write_weights(&net, &mut bytes).expect("write to memory");
        read_weights(&mut net, bytes.as_slice()).expect("snapshot reads back");
    });
    out.layer("core.snapshot_roundtrip_wall_ms", ms);

    let ms = wall_ms(rec, "swtrain.pack_unpack", 20, || {
        let grads = pack_gradients(&net);
        unpack_gradients(&mut net, &grads);
        let params = pack_params(&net);
        unpack_params(&mut net, &params);
    });
    out.layer("swtrain.pack_unpack_wall_ms", ms);
    Ok(())
}

/// `train_host`'s iteration unrolled: where a step waits for data, and
/// the chip-level phases of Algorithm 1.
fn train_probes(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    let spec = train::spec(TRAIN_HOST);
    let mut host = train::Unrolled::build(&spec, seed)?;
    let off = Recorder::new(false);
    for _ in 0..spec.warmups {
        host.step(&off)?;
    }
    let from = rec.spans().len();
    for _ in 0..5 {
        host.step(rec)?;
    }
    out.layer(
        "swio.prefetch_wait_wall_ms",
        span_ms(rec, "swio.prefetch_next", from)?,
    );
    out.layer(
        "swtrain.compute_gradients_wall_ms",
        span_ms(rec, "swtrain.compute_gradients", from)?,
    );
    out.layer(
        "swtrain.apply_update_wall_ms",
        span_ms(rec, "swtrain.apply_update", from)?,
    );

    let twin = train::timing_twin(&spec.def, seed)?;
    out.layer("sim_train_iter_ms.host_net", twin.iter_ms);
    out.layer("swio.sim_batch_io_ms", twin.io_ms);
    out.layer("core.sim_layer_sum_residual", twin.layer_sum_residual_s);

    let dataset = train::dataset(seed);
    let batch = sw26010::arch::CORE_GROUPS * train::CG_BATCH;
    let mut data = vec![0.0f32; batch * 3 * 32 * 32];
    let mut labels = vec![0.0f32; batch];
    let mut n = 0;
    let ms = wall_ms(rec, "swio.fill_batch", 50, || {
        n += 1;
        dataset.fill_batch(n, batch, 3, 32, 32, &mut data, &mut labels);
    });
    out.layer("swio.fill_batch_wall_ms", ms);
    Ok(())
}

/// `cluster_sweep`'s items under spans: their wall medians and, from the
/// last pass, every simulated result the sweep carries.
fn sweep_probes(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    let fx = sweep::fixture(seed)?;
    let from = rec.spans().len();
    let mut sims = None;
    for _ in 0..3 {
        sims = Some(sweep::pass(&fx, seed, rec, out)?);
    }
    sims.expect("three passes ran").record(out);
    for (metric, span) in [
        (
            "swnet.allreduce_timing_wall_ms.ring_4096",
            "swnet.allreduce_timing.ring_RoundRobin_4096",
        ),
        (
            "swnet.allreduce_timing_wall_ms.rhd_4096",
            "swnet.allreduce_timing.rhd_RoundRobin_4096",
        ),
        (
            "swnet.allreduce_timing_wall_ms.binomial_4096",
            "swnet.allreduce_timing.binomial_RoundRobin_4096",
        ),
        (
            "swnet.allreduce_timing_wall_ms.rhd_32768",
            "swnet.allreduce_timing.rhd_RoundRobin_32768",
        ),
        (
            "swnet.allreduce_func_wall_ms.rhd_32x1m",
            "swnet.allreduce_func.rhd_32x1m",
        ),
        (
            "swnet.allreduce_func_wall_ms.ring_32x1m",
            "swnet.allreduce_func.ring_32x1m",
        ),
        (
            "swtrain.cluster_step_wall_ms",
            "swtrain.cluster_step.serialized",
        ),
        ("swtune.tune_all_wall_ms", "swtune.tune_all"),
        (
            "swcheck.comm_full_machine_wall_ms",
            "swcheck.comm_full_machine",
        ),
        ("swcheck.graph_zoo_wall_ms", "swcheck.graph_zoo"),
    ] {
        out.layer(metric, span_ms(rec, span, from)?);
    }

    let ms = wall_ms(rec, "swtune.db_parse", 50, || {
        std::hint::black_box(TuneDb::parse(sweep::TUNE_DB_TEXT).is_ok());
    });
    out.layer("swtune.db_parse_wall_ms", ms);
    let ms = wall_ms(rec, "swjson.parse", 50, || {
        std::hint::black_box(swjson::Json::parse(sweep::TUNE_DB_TEXT).is_ok());
    });
    let mb = sweep::TUNE_DB_TEXT.len() as f64 / (1 << 20) as f64;
    out.layer("swjson.parse_mb_per_s", mb / (ms * 1e-3));
    Ok(())
}

fn serve_probes(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    let def = train::host_net(seeded::MAX_BATCH);
    let net = serve::source_net(&def, seed)?;
    let mut graph = None;
    let ms = wall_ms(rec, "swserve.freeze_optimize", 10, || {
        graph = FrozenGraph::freeze(&def, &net).ok();
    });
    out.layer("swserve.freeze_optimize_wall_ms", ms);
    let graph = graph.ok_or("the benchmark net does not freeze")?;

    let pool = filled(seed, 0x5E, seeded::MAX_BATCH * graph.per_image);
    let ms = wall_ms(rec, "swserve.engine_first_infer", 5, || {
        let mut engine = Engine::new(graph.clone(), serve::MODE);
        std::hint::black_box(engine.infer(1, &pool[..graph.per_image]).is_ok());
    });
    out.layer("swserve.engine_first_infer_wall_ms", ms);

    let mut engine = Engine::new(graph.clone(), serve::MODE);
    let mut infer_ms = |batch: usize, reps: usize| -> Result<Vec<f64>, String> {
        let input = &pool[..batch * graph.per_image];
        engine.infer(batch, input).map_err(|e| e.to_string())?;
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                rec.span(&format!("swserve.infer.b{batch}"), || {
                    engine.infer(batch, input)
                })
                .map_err(|e| e.to_string())?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    };
    let b1 = infer_ms(1, 100)?;
    out.layer("swserve.infer_wall_ms.b1", stats::median(&b1));
    out.layer("swserve.infer_wall_p90_ms.b1", stats::percentile(&b1, 90.0));
    let mut b16 = 0.0;
    for (batch, reps) in [(2usize, 10usize), (4, 6), (8, 4), (16, 3)] {
        b16 = stats::median(&infer_ms(batch, reps)?);
        out.layer(&format!("swserve.infer_wall_ms.b{batch}"), b16);
    }
    out.layer(
        "swserve.b1_per_img_ratio",
        stats::median(&b1) / (b16 / 16.0),
    );
    out.layer(
        "swserve.pad_waste_frac",
        seeded::pad_waste_frac(&seeded::batch_mix(seed, 4096)),
    );

    let sims = rec.span("swserve.simulate", || serve::sims(out, seed))?;
    sims.record(out);
    out.layer("swserve.simulate_wall_us_per_1k", sims.simulate_us_per_1k);
    out.layer(
        "swserve.simulate_ft_wall_us_per_1k",
        sims.simulate_ft_us_per_1k,
    );

    let payload = filled(seed, 0x5F, 1 << 20);
    let ms = wall_ms(rec, "swfault.checksum", 20, || {
        std::hint::black_box(swfault::checksum(&payload));
    });
    out.layer(
        "swfault.checksum_wall_gb_per_s",
        (payload.len() * 4) as f64 / 1e9 / (ms * 1e-3),
    );
    Ok(())
}

/// Every per-layer metric except the traced part's two.
pub fn run(out: &mut Outcome, rec: &Recorder, seed: u64) -> Result<(), String> {
    sw26010_probes(out, rec, seed)?;
    swbackend_probes(out, rec);
    swdnn_probes(out, rec, seed);
    core_probes(out, rec, seed)?;
    train_probes(out, rec, seed)?;
    sweep_probes(out, rec, seed)?;
    serve_probes(out, rec, seed)
}

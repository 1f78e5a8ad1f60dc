//! Host-side benchmarks of the simulator itself: how fast the functional
//! mesh kernels, the reference oracles, and the collectives execute on
//! the host. (Simulated-time results come from the `bin/` regenerators;
//! these benches track the cost of running the simulation.)
//!
//! Plain `harness = false` timer — no external benchmarking framework —
//! so the suite builds in the hermetic environment. Run with
//! `cargo bench --bench simulator`.

use std::hint::black_box;
use std::time::Instant;

use sw26010::{CoreGroup, ExecMode};
use swdnn::gemm::{gemm, GemmOperands};
use swdnn::{reference, ConvShape, GemmDims, Trans};
use swnet::{allreduce, Algorithm, NetParams, RankMap, ReduceEngine, Topology};

/// Time `f` over `iters` iterations (after one warm-up) and print a
/// mean-per-iteration line.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per = total / iters;
    println!("{name:<40} {per:>12.2?}/iter  ({iters} iters, {total:.2?} total)");
}

fn bench_mesh_gemm() {
    for size in [64usize, 128] {
        let dims = GemmDims::new(size, size, size);
        let a = vec![1.0f32; size * size];
        let b = vec![0.5f32; size * size];
        bench(&format!("mesh_gemm_functional/{size}"), 10, || {
            let mut cg = CoreGroup::new(ExecMode::Functional);
            let mut out = vec![0.0f32; size * size];
            gemm(
                &mut cg,
                dims,
                Trans::No,
                Trans::No,
                0.0,
                Some(GemmOperands {
                    a: &a,
                    b: &b,
                    c: &mut out,
                }),
            );
            black_box(out);
        });
    }
}

fn bench_reference_conv() {
    let shape = ConvShape {
        batch: 2,
        in_c: 8,
        in_h: 16,
        in_w: 16,
        out_c: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let input = vec![0.3f32; shape.input_len()];
    let weights = vec![0.1f32; shape.weight_len()];
    bench("reference_conv_forward", 20, || {
        let mut out = vec![0.0f32; shape.output_len()];
        reference::conv_forward(&shape, &input, &weights, &mut out);
        black_box(out);
    });
}

fn bench_allreduce_functional() {
    for nodes in [8usize, 32] {
        let topo = Topology::with_supernode(nodes, (nodes / 2).max(1));
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        bench(&format!("allreduce_functional/{nodes}"), 10, || {
            let mut data: Vec<Vec<f32>> = (0..nodes).map(|r| vec![r as f32; 10_000]).collect();
            allreduce(
                &topo,
                &params,
                RankMap::RoundRobin,
                Algorithm::RecursiveHalvingDoubling,
                10_000,
                Some(&mut data),
            );
            black_box(data);
        });
    }
}

fn bench_timing_models() {
    // The closed-form models must be cheap: they are called per layer per
    // iteration in every sweep.
    let shape = ConvShape {
        batch: 128,
        in_c: 256,
        in_h: 56,
        in_w: 56,
        out_c: 256,
        k: 3,
        stride: 1,
        pad: 1,
    };
    bench("conv_time_models", 1000, || {
        black_box((
            swdnn::conv_explicit::forward_time(&shape),
            swdnn::conv_implicit::forward_time(&shape),
        ));
    });
}

fn bench_double_buffered_gemm() {
    let dims = GemmDims::new(128, 128, 256);
    let a = vec![1.0f32; dims.m * dims.k];
    let b = vec![0.5f32; dims.k * dims.n];
    bench("gemm_variants/synchronous", 10, || {
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut out = vec![0.0f32; dims.m * dims.n];
        gemm(
            &mut cg,
            dims,
            Trans::No,
            Trans::No,
            0.0,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut out,
            }),
        );
        black_box(out);
    });
    bench("gemm_variants/double_buffered", 10, || {
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut out = vec![0.0f32; dims.m * dims.n];
        let scheme = swdnn::TilingScheme {
            buffering: swdnn::Buffering::Double,
            ..swdnn::TilingScheme::hand(dims)
        };
        swdnn::gemm::gemm_with_scheme(
            &mut cg,
            dims,
            Trans::No,
            Trans::No,
            0.0,
            scheme,
            Some(GemmOperands {
                a: &a,
                b: &b,
                c: &mut out,
            }),
        );
        black_box(out);
    });
}

fn bench_elementwise_streams() {
    let len = 200_000;
    let x = vec![1.0f32; len];
    bench("relu_forward_functional", 10, || {
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut y = vec![0.0f32; len];
        swdnn::elementwise::relu_forward(&mut cg, len, Some((&x, &mut y)));
        black_box(y);
    });
}

fn bench_network_timing_sweep() {
    // Whole-network timing-mode evaluation: the inner loop of every
    // table/figure regenerator. Must stay cheap enough to sweep.
    use swcaffe_core::{models, Net};
    let def = models::vgg16(16);
    bench("vgg16_timing_iteration", 10, || {
        let mut net = Net::from_def(&def, false).unwrap();
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        net.forward(&mut cg);
        net.backward(&mut cg);
        black_box(cg.elapsed());
    });
}

fn bench_pooling_mesh() {
    use swdnn::pool::{forward, PoolFwdOperands};
    use swdnn::{PoolMethod, PoolShape};
    let shape = PoolShape {
        batch: 4,
        channels: 16,
        in_h: 28,
        in_w: 28,
        k: 2,
        stride: 2,
        pad: 0,
        method: PoolMethod::Max,
    };
    let input = vec![1.0f32; shape.input_len()];
    bench("maxpool_mesh_functional", 10, || {
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut out = vec![0.0f32; shape.output_len()];
        let mut am = vec![0.0f32; shape.output_len()];
        forward(
            &mut cg,
            &shape,
            Some(PoolFwdOperands {
                input: &input,
                output: &mut out,
                argmax: Some(&mut am),
            }),
        );
        black_box(out);
    });
}

fn main() {
    // `cargo bench` passes flags like --bench; a positional filter
    // selects benchmarks by substring, mirroring the usual harness UX.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let run = |name: &str, f: fn()| {
        if filter.as_deref().is_none_or(|pat| name.contains(pat)) {
            f();
        }
    };
    run("mesh_gemm", bench_mesh_gemm);
    run("reference_conv", bench_reference_conv);
    run("allreduce", bench_allreduce_functional);
    run("timing_models", bench_timing_models);
    run("gemm_variants", bench_double_buffered_gemm);
    run("elementwise", bench_elementwise_streams);
    run("network_timing", bench_network_timing_sweep);
    run("pooling", bench_pooling_mesh);
}

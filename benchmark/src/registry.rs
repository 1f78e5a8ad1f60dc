//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repo root carries the same tables;
//! a self-test keeps the two equal.

/// Which clock (or counter) a number comes from. Wall values are noisy
/// and compared against a bound; simulated values and counts repeat
/// exactly for one seed and are compared exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Sim,
    Count,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

pub const TRAIN_HOST: &str = "train_host";
pub const TRAIN_MESH: &str = "train_mesh";
pub const SERVE_MIXED: &str = "serve_mixed";
pub const CLUSTER_SWEEP: &str = "cluster_sweep";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: TRAIN_HOST,
        why: "17-layer CNN trained on HostNative: swdnn host kernels do ~95% of the work, so a host-kernel or per-iteration allocation win shows here and the sw26010 mesh does nothing",
    },
    Workload {
        name: TRAIN_MESH,
        why: "tiny_cnn trained on the functional 8x8 mesh: kernels are tiny, so launch, DMA, RLC and barrier machinery dominates; a mesh-overhead win shows here and a host-kernel win does not",
    },
    Workload {
        name: SERVE_MIXED,
        why: "forward-only fused inference at a seeded batch mix (60% batch 1, else 2..=16): fork/join, padding and per-call allocation outweigh GEMM, the other way round from training",
    },
    Workload {
        name: CLUSTER_SWEEP,
        why: "figure regeneration and control plane: cost models, collective schedules, tuner search and static checks with almost no f32 kernel work, e.g. the O(p^2) ring timing",
    },
];

/// The bounds are what holds on the shared 2-core container the benchmark
/// was sized on: over ten runs the quartile spread of the same binary
/// reaches 8 % on `train_mesh` and 13 % on `serve_mixed`, whose two-thread
/// fork/join per kernel call is the most exposed to the host's other
/// tenants. See README, "Measured repeatability".
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_wall_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_item",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn wall(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Wall,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        clock: Clock::Wall,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Sim,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        clock: Clock::Count,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, layer = crate. Simulated-clock units carry a
/// `sim_` prefix so the clock can be read off the unit.
pub const PER_LAYER: [PerLayer; 96] = [
    // The paper-level simulated results (deterministic).
    sim("sim_train_iter_ms.host_net", "sim_ms", Lower),
    sim("sim_train_iter_ms.mesh_net", "sim_ms", Lower),
    sim("sim_vgg16_img_per_s", "sim_img/s", Higher),
    sim("sim_alexnet_img_per_s", "sim_img/s", Higher),
    sim("sim_allreduce_1024_ms", "sim_ms", Lower),
    sim("sim_serve_p99_ms", "sim_ms", Lower),
    sim("sim_serve_goodput_qps", "sim_qps", Higher),
    // The traced part of the run.
    wall("trace_overhead_frac", "ratio"),
    rate("trace.children_cover_frac", "ratio"),
    // sw26010
    wall("sw26010.launch_wall_us", "us"),
    count("sw26010.launches_per_iter", "count", Lower),
    count("sw26010.dma_bytes_per_iter", "count", Lower),
    count("sw26010.dma_requests_per_iter", "count", Lower),
    count("sw26010.rlc_msgs_per_iter", "count", Lower),
    count("sw26010.flops_per_iter", "count", Lower),
    wall("sw26010.wall_ns_per_sim_flop", "ns"),
    // swbackend
    wall("swbackend.par_tasks_wall_us", "us"),
    // swdnn
    wall("swdnn.conv_fwd.host_wall_ms", "ms"),
    wall("swdnn.conv_bwd_data.host_wall_ms", "ms"),
    wall("swdnn.conv_bwd_weights.host_wall_ms", "ms"),
    wall("swdnn.conv_fwd.mesh_wall_ms", "ms"),
    sim("swdnn.conv_fwd.sim_ms", "sim_ms", Lower),
    rate("swdnn.gemm.host_gflops", "Gflop/s"),
    wall("swdnn.gemm.mesh_wall_ms", "ms"),
    wall("swdnn.ip_fwd_b1.host_wall_ms", "ms"),
    wall("swdnn.fused_conv_bn_relu.host_wall_ms", "ms"),
    wall("swdnn.bn_fwd.host_wall_ms", "ms"),
    wall("swdnn.pool_fwd.host_wall_ms", "ms"),
    wall("swdnn.relu_fwd.host_wall_ms", "ms"),
    wall("swdnn.transform.host_wall_ms", "ms"),
    rate("swdnn.kernels_wall_frac", "ratio"),
    // core
    wall("core.net_build_wall_ms", "ms"),
    wall("core.forward_wall_ms", "ms"),
    wall("core.backward_wall_ms", "ms"),
    wall("core.solver_step_wall_ms", "ms"),
    wall("core.set_input_wall_ms", "ms"),
    wall("core.snapshot_roundtrip_wall_ms", "ms"),
    wall("core.residual_wall_frac", "ratio"),
    sim("core.sim_layer_sum_residual", "sim_s", Lower),
    sim("core.sim_func_vs_timing_rel_diff", "ratio", Lower),
    // swio
    wall("swio.fill_batch_wall_ms", "ms"),
    wall("swio.prefetch_wait_wall_ms", "ms"),
    sim("swio.sim_batch_io_ms", "sim_ms", Lower),
    // swtrain
    wall("swtrain.compute_gradients_wall_ms", "ms"),
    wall("swtrain.apply_update_wall_ms", "ms"),
    wall("swtrain.pack_unpack_wall_ms", "ms"),
    wall("swtrain.cluster_step_wall_ms", "ms"),
    sim("swtrain.overlap_hidden_sim_frac", "ratio", Higher),
    sim("swtrain.sim_scaling_eff_1024", "ratio", Higher),
    sim("swtrain.sim_comm_frac_1024", "ratio", Lower),
    // swnet
    wall("swnet.allreduce_timing_wall_ms.ring_4096", "ms"),
    wall("swnet.allreduce_timing_wall_ms.rhd_4096", "ms"),
    wall("swnet.allreduce_timing_wall_ms.binomial_4096", "ms"),
    wall("swnet.allreduce_timing_wall_ms.rhd_32768", "ms"),
    wall("swnet.allreduce_func_wall_ms.rhd_32x1m", "ms"),
    wall("swnet.allreduce_func_wall_ms.ring_32x1m", "ms"),
    sim("swnet.sim_allreduce_ms.rhd_natural_1024", "sim_ms", Lower),
    sim(
        "swnet.sim_allreduce_ms.rhd_roundrobin_1024",
        "sim_ms",
        Lower,
    ),
    sim("swnet.sim_allreduce_ms.ring_1024", "sim_ms", Lower),
    count("swnet.cross_bytes.rhd_roundrobin_1024", "count", Lower),
    // swserve
    wall("swserve.freeze_optimize_wall_ms", "ms"),
    wall("swserve.engine_first_infer_wall_ms", "ms"),
    wall("swserve.infer_wall_ms.b1", "ms"),
    wall("swserve.infer_wall_ms.b2", "ms"),
    wall("swserve.infer_wall_ms.b4", "ms"),
    wall("swserve.infer_wall_ms.b8", "ms"),
    wall("swserve.infer_wall_ms.b16", "ms"),
    wall("swserve.infer_wall_p90_ms.b1", "ms"),
    wall("swserve.b1_per_img_ratio", "ratio"),
    count("swserve.pad_waste_frac", "ratio", Lower),
    wall("swserve.simulate_wall_us_per_1k", "us"),
    wall("swserve.simulate_ft_wall_us_per_1k", "us"),
    sim("swserve.sim_p50_ms.load50", "sim_ms", Lower),
    sim("swserve.sim_p50_ms.load100", "sim_ms", Lower),
    sim("swserve.sim_p50_ms.load120", "sim_ms", Lower),
    sim("swserve.sim_p99_ms.load50", "sim_ms", Lower),
    sim("swserve.sim_p99_ms.load120", "sim_ms", Lower),
    sim("swserve.sim_shed_frac.load100", "ratio", Lower),
    sim("swserve.sim_shed_frac.load120", "ratio", Lower),
    sim("swserve.sim_mean_batch.load100", "count", Higher),
    sim("swserve.sim_util.load100", "ratio", Higher),
    sim("swserve.sim_ft_goodput_qps.crash1", "sim_qps", Higher),
    count("swserve.sim_ft_retries.crash1", "count", Lower),
    // swfault
    rate("swfault.checksum_wall_gb_per_s", "GB/s"),
    // swtune
    wall("swtune.tune_all_wall_ms", "ms"),
    wall("swtune.db_parse_wall_ms", "ms"),
    sim("swtune.table2_hand_sim_s", "sim_s", Lower),
    sim("swtune.table2_tuned_sim_s", "sim_s", Lower),
    count("swtune.layers_won", "count", Higher),
    // swcheck
    wall("swcheck.comm_full_machine_wall_ms", "ms"),
    wall("swcheck.graph_zoo_wall_ms", "ms"),
    count("swcheck.violations", "count", Lower),
    // swjson
    rate("swjson.parse_mb_per_s", "MB/s"),
    // The model's error against the paper, read beside every sim_* value.
    sim("paper.err_pct.alexnet_img_per_s", "%", Lower),
    sim("paper.err_pct.vgg16_img_per_s", "%", Lower),
    sim("paper.err_pct.alexnet_speedup_1024", "%", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json` as this registry would write it.
pub fn benchmark_json(run_seconds: u64) -> swjson::Json {
    use swjson::{obj, Json};
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    obj()
        .field("command", strs(&["bash", "benchmark/run.sh"]))
        .field("paths", strs(&["benchmark"]))
        .field("run_seconds", run_seconds as i64)
        .field(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj().field("name", w.name).field("why", w.why).build())
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better.as_str())
                            .field("bound", m.bound)
                            .build()
                    })
                    .collect(),
            ),
        )
        .field(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better.as_str())
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn simulated_clock_shows_in_the_unit() {
        for m in PER_LAYER.iter().filter(|m| m.clock == Clock::Sim) {
            assert!(
                m.unit.starts_with("sim_") || matches!(m.unit, "ratio" | "count" | "%"),
                "{}: simulated value in wall unit {}",
                m.name,
                m.unit
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.clock == Clock::Wall) {
            assert!(!m.unit.starts_with("sim_"), "{}", m.name);
        }
    }

    /// The committed `BENCHMARK.json` must be exactly what this registry
    /// renders (regenerate with `run.sh --print-benchmark-json`).
    #[test]
    fn registry_equals_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = swjson::Json::parse(text).expect("BENCHMARK.json parses");
        let run_seconds = doc
            .get("run_seconds")
            .and_then(|v| v.as_u64())
            .expect("run_seconds");
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(doc, benchmark_json(run_seconds));
        assert!(text.len() <= 64 * 1024);
    }
}

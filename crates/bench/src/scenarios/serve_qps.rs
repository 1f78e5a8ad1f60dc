//! Batched inference serving: seeded open-loop arrivals at stepped QPS
//! against frozen/optimized AlexNet-BN and VGG-16, dispatched across
//! the chip's 4 CGs as independent replicas by `swserve`'s
//! deterministic dynamic batcher.
//!
//! Two halves per network:
//!
//! 1. **Graph freeze/optimize**: node counts before/after the optimizer
//!    (training-head elimination, structural folds, conv+BN+ReLU
//!    fusion) and the simulated per-batch latency of the optimized
//!    graph vs the unoptimized frozen graph — the serving win that
//!    exists before a single request arrives.
//! 2. **Serving sweep**: Poisson arrivals at 25%, 50% and 100% of the
//!    cluster's nominal capacity, coalesced under a latency SLO;
//!    reported as p50/p99 latency, throughput, shed count, mean batch
//!    size and per-CG utilization. Everything runs on the virtual
//!    clock (`TimingOnly` engines), so the whole sweep is deterministic
//!    and regression-gated like any other scenario.

use std::fmt::Write as _;

use sw26010::arch::CORE_GROUPS;
use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{models, Net, Phase};
use swprof::Report;
use swserve::batcher::{poisson_trace, BatchConfig};
use swserve::graph::optimize;
use swserve::Cluster;

/// Load factors of nominal cluster capacity the sweep steps through.
pub const LOAD_STEPS: [(u64, f64); 3] = [(25, 0.25), (50, 0.5), (100, 1.0)];

/// Requests per sweep step.
pub const REQUESTS: usize = 240;

struct ModelSpec {
    key: &'static str,
    def: swcaffe_core::NetDef,
    max_batch: usize,
}

fn model_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            key: "alexnet",
            def: models::alexnet_bn(16),
            max_batch: 16,
        },
        ModelSpec {
            key: "vgg16",
            def: models::vgg16(8),
            max_batch: 8,
        },
    ]
}

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("serve_qps");
    report
        .config("backend", "timing")
        .config("replicas", CORE_GROUPS.to_string())
        .config("requests_per_step", REQUESTS.to_string());

    writeln!(
        out,
        "Batched inference serving on one SW26010 ({CORE_GROUPS} CG replicas, virtual clock)"
    )
    .unwrap();

    for (mi, spec) in model_specs().into_iter().enumerate() {
        let graph = optimize(&spec.def).expect("model optimizes");
        let s = graph.stats;

        // Unoptimized frozen baseline: the training definition at test
        // phase on the timing backend.
        let mut unopt =
            Net::from_def_mode_seeded(&spec.def, ExecMode::TimingOnly, 0).expect("valid def");
        unopt.set_phase(Phase::Test);
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        unopt.forward(&mut cg);
        let unopt_s = cg.elapsed().seconds();

        let mut cluster = Cluster::new(&graph, ExecMode::TimingOnly);
        let opt_s = cluster
            .latency_seconds(spec.max_batch)
            .expect("graph builds");

        writeln!(out).unwrap();
        writeln!(
            out,
            "{} (batch {}): {} -> {} nodes ({} training, {} dead, {} folded, {} fused); \
             per-batch {:.1} ms -> {:.1} ms",
            spec.key,
            spec.max_batch,
            s.source_layers,
            s.scheduled_nodes,
            s.removed_training,
            s.removed_dead,
            s.folded,
            s.fused,
            unopt_s * 1e3,
            opt_s * 1e3,
        )
        .unwrap();
        report.count(&format!("{}.nodes_src", spec.key), s.source_layers as u64);
        report.count(&format!("{}.nodes_opt", spec.key), s.scheduled_nodes as u64);
        report.count(
            &format!("{}.removed_training", spec.key),
            s.removed_training as u64,
        );
        report.count(&format!("{}.removed_dead", spec.key), s.removed_dead as u64);
        report.count(&format!("{}.folded", spec.key), s.folded as u64);
        report.count(&format!("{}.fused", spec.key), s.fused as u64);
        report.real(&format!("{}.batch_unopt_ms", spec.key), unopt_s * 1e3);
        report.real(&format!("{}.batch_opt_ms", spec.key), opt_s * 1e3);

        // Bucketed latency table (the batcher's execution model).
        write!(out, "  bucket latency:").unwrap();
        let mut b = 1;
        while b <= spec.max_batch {
            let l = cluster.latency_seconds(b).expect("graph builds");
            write!(out, "  b{b} {:.1} ms", l * 1e3).unwrap();
            report.real(&format!("{}.lat_b{b}_ms", spec.key), l * 1e3);
            b *= 2;
        }
        writeln!(out).unwrap();

        // Serving sweep at fractions of nominal capacity.
        let worst = cluster
            .latency_seconds(spec.max_batch)
            .expect("graph builds");
        let capacity = CORE_GROUPS as f64 * spec.max_batch as f64 / worst;
        let cfg = BatchConfig {
            max_batch: spec.max_batch,
            slo: 4.0 * worst,
            timeout: 0.5 * worst,
        };
        report.real(&format!("{}.slo_ms", spec.key), cfg.slo * 1e3);
        report.real(&format!("{}.capacity_qps", spec.key), capacity);

        writeln!(
            out,
            "  SLO {:.1} ms, timeout {:.1} ms, nominal capacity {:.1} qps",
            cfg.slo * 1e3,
            cfg.timeout * 1e3,
            capacity
        )
        .unwrap();
        writeln!(
            out,
            "  {:>5} {:>9} {:>9} {:>9} {:>9} {:>5} {:>7} {:>9}",
            "load", "qps", "p50 (ms)", "p99 (ms)", "thru", "shed", "batch", "util"
        )
        .unwrap();
        for (pct, frac) in LOAD_STEPS {
            let qps = capacity * frac;
            let trace = poisson_trace(1000 + mi as u64 * 100 + pct, qps, REQUESTS);
            let o = cluster.serve(&trace, &cfg).expect("SLO feasible");
            let p50 = o.latency_percentile(50.0);
            let p99 = o.latency_percentile(99.0);
            let avg_batch = if o.batches.is_empty() {
                0.0
            } else {
                o.served.len() as f64 / o.batches.len() as f64
            };
            let util = o.utilization();
            let util_mean = util.iter().sum::<f64>() / util.len() as f64;
            writeln!(
                out,
                "  {:>4}% {:>9.1} {:>9.2} {:>9.2} {:>9.1} {:>5} {:>7.2} {:>8.1}%",
                pct,
                qps,
                p50 * 1e3,
                p99 * 1e3,
                o.throughput(),
                o.shed.len(),
                avg_batch,
                util_mean * 100.0
            )
            .unwrap();
            let k = format!("{}.load{pct}", spec.key);
            report.real(&format!("{k}.qps"), qps);
            report.real(&format!("{k}.p50_ms"), p50 * 1e3);
            report.real(&format!("{k}.p99_ms"), p99 * 1e3);
            report.real(&format!("{k}.throughput_qps"), o.throughput());
            report.count(&format!("{k}.shed"), o.shed.len() as u64);
            report.count(&format!("{k}.batches"), o.batches.len() as u64);
            report.real(&format!("{k}.avg_batch"), avg_batch);
            for (i, u) in util.iter().enumerate() {
                report.real(&format!("{k}.util_cg{i}"), *u);
            }
        }
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "The optimizer's wins (head elimination, transform folds, fused \
         conv+bn+relu epilogues) land before any request arrives; the \
         batcher then trades queueing delay for batch efficiency under \
         the SLO, shedding only when arrivals outrun the 4-CG capacity."
    )
    .unwrap();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(report: &Report, name: &str) -> f64 {
        report
            .metric(name)
            .map(|m| m.value.as_f64())
            .unwrap_or_else(|| panic!("missing metric {name}"))
    }

    /// Acceptance criterion: the optimized graphs schedule fewer nodes
    /// and simulate a lower per-batch latency than the unoptimized
    /// frozen graphs.
    #[test]
    fn optimizer_shrinks_and_speeds_up_both_models() {
        let (_, report) = run(&[]);
        for key in ["alexnet", "vgg16"] {
            assert!(
                metric(&report, &format!("{key}.nodes_opt"))
                    < metric(&report, &format!("{key}.nodes_src")),
                "{key}: optimizer must remove nodes"
            );
            assert!(
                metric(&report, &format!("{key}.batch_opt_ms"))
                    < metric(&report, &format!("{key}.batch_unopt_ms")),
                "{key}: optimizer must lower per-batch latency"
            );
            assert!(metric(&report, &format!("{key}.removed_training")) >= 3.0);
        }
    }

    /// Admitted latencies respect the SLO at every load step, and the
    /// sweep actually batches under load.
    #[test]
    fn serving_meets_slo_and_batches() {
        let (_, report) = run(&[]);
        for key in ["alexnet", "vgg16"] {
            let slo = metric(&report, &format!("{key}.slo_ms"));
            for (pct, _) in LOAD_STEPS {
                let p99 = metric(&report, &format!("{key}.load{pct}.p99_ms"));
                assert!(
                    p99 <= slo + 1e-9,
                    "{key} load{pct}: p99 {p99} ms > SLO {slo} ms"
                );
            }
            assert!(
                metric(&report, &format!("{key}.load100.avg_batch")) > 1.5,
                "{key}: full load should coalesce real batches"
            );
        }
    }
}

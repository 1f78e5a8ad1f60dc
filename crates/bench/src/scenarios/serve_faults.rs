//! Fault-tolerant serving under injected replica failures: the
//! `swserve` resilience layer (health state machine, deadline-aware
//! retry/failover, hedged dispatch, snapshot re-warm, tiered brown-out)
//! driven by seeded `swfault` serving plans against frozen/optimized
//! AlexNet-BN on the chip's 4 CG replicas.
//!
//! Three fault plans — a mid-trace replica crash, a probabilistic
//! straggler window, a transient output-corruption window — each swept
//! at 25%, 50% and 100% of nominal cluster capacity. Everything runs on
//! the virtual clock with every fault drawn pure from the plan seed, so
//! the full schedule (crashes, retries, health transitions, brown-out
//! sheds) is deterministic and regression-gated: the blessed baseline
//! proves that p99 stays inside the SLO with one replica lost and that
//! nothing is shed at ≤ 50% load, and the `replay.bit_identical` metric
//! proves the whole outcome replays byte-for-byte.
//!
//! The re-warm cost is not a free parameter: it is the frozen AlexNet
//! snapshot read back through the same striped-filesystem model the
//! training checkpoints use (`ablation_faults`).

use std::fmt::Write as _;

use sw26010::arch::CORE_GROUPS;
use sw26010::ExecMode;
use swcaffe_core::{models, Net, Phase};
use swfault::serve::ServeFaultPlan;
use swio::{IoModel, Layout};
use swprof::Report;
use swserve::batcher::{poisson_trace_tiered, BatchConfig};
use swserve::graph::{optimize, FrozenGraph};
use swserve::{Cluster, ResilienceConfig};

/// Load factors of nominal cluster capacity the sweep steps through.
pub(crate) const LOAD_STEPS: [(u64, f64); 3] = [(25, 0.25), (50, 0.5), (100, 1.0)];

/// Requests per sweep cell.
pub(crate) const REQUESTS: usize = 240;

const MAX_BATCH: usize = 16;

/// The three fault archetypes the sweep injects. Windows are placed
/// relative to the expected trace span so every load step actually
/// overlaps its faults.
fn plans(span: f64, worst: f64) -> Vec<(&'static str, ServeFaultPlan)> {
    let base = |seed| {
        ServeFaultPlan::new(seed)
            .detect_timeout_s(0.2 * worst)
            .backoff_base_s(0.01 * worst)
    };
    vec![
        // One of four CGs dies a quarter of the way into the trace.
        ("crash", base(0xC0FE).crash(1, 0.25 * span)),
        // CG 2 straggles 30% of its batches by 4x for most of the trace.
        (
            "straggle",
            base(0x57A6).straggle(2, 0.3, 4.0, 0.0..0.8 * span),
        ),
        // CG 0 corrupts 30% of its responses in an early window.
        (
            "corrupt",
            base(0xC0BB).corrupt_output(0, 0.3, 0.05 * span..0.5 * span),
        ),
    ]
}

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("serve_faults");

    let def = models::alexnet_bn(MAX_BATCH);
    let graph = optimize(&def).expect("model optimizes");

    // Price the re-warm: the frozen snapshot (weights the crashed CG
    // must reload) read back through the striped filesystem, exactly
    // like a training checkpoint restore.
    let snapshot_bytes = {
        let mut net = Net::from_def_mode_seeded(&def, ExecMode::Functional, 42).expect("valid def");
        net.set_phase(Phase::Test);
        FrozenGraph::freeze(&def, &net)
            .expect("model freezes")
            .snapshot_bytes()
    };
    let io = IoModel::taihulight(Layout::paper_striped());
    let rewarm_s = io.batch_read_time(1, snapshot_bytes as usize).seconds();

    let mut cluster = Cluster::new(&graph, ExecMode::TimingOnly);
    let worst = cluster
        .latency_seconds(MAX_BATCH)
        .expect("frozen graph builds");
    let capacity = CORE_GROUPS as f64 * MAX_BATCH as f64 / worst;
    let cfg = BatchConfig {
        max_batch: MAX_BATCH,
        slo: 4.0 * worst,
        timeout: 0.5 * worst,
    };
    let res = ResilienceConfig { rewarm_s };

    report
        .config("backend", "timing")
        .config("model", "alexnet_bn")
        .config("replicas", CORE_GROUPS.to_string())
        .config("requests_per_cell", REQUESTS.to_string());
    report.count("snapshot_mb", snapshot_bytes >> 20);
    report.real("rewarm_ms", rewarm_s * 1e3);
    report.real("slo_ms", cfg.slo * 1e3);
    report.real("capacity_qps", capacity);

    writeln!(
        out,
        "Fault-tolerant serving, AlexNet-BN on {CORE_GROUPS} CG replicas \
         (SLO {:.1} ms, re-warm {:.1} ms = {} MB snapshot read-back)",
        cfg.slo * 1e3,
        rewarm_s * 1e3,
        snapshot_bytes >> 20,
    )
    .unwrap();

    // Reference span at 50% load, used to anchor every plan's windows so
    // the fault schedule is the same physical scenario at each load.
    let span_ref = REQUESTS as f64 / (0.5 * capacity);

    for (plan_key, plan) in plans(span_ref, worst) {
        writeln!(out).unwrap();
        writeln!(out, "plan {plan_key}:").unwrap();
        writeln!(
            out,
            "  {:>5} {:>9} {:>9} {:>9} {:>6} {:>6} {:>7} {:>7} {:>7}",
            "load", "qps", "p50 (ms)", "p99 (ms)", "served", "shed", "retry", "hedge", "deaths"
        )
        .unwrap();
        for (pct, frac) in LOAD_STEPS {
            let qps = capacity * frac;
            // Tiers 0/1 alternate so severe brown-out has traffic to
            // discriminate.
            let trace = poisson_trace_tiered(5000 + pct, qps, REQUESTS, &[0, 1]);
            let o = cluster
                .serve_ft(&trace, &cfg, &res, &plan)
                .expect("SLO feasible");
            let p50 = o.outcome.latency_percentile(50.0);
            let p99 = o.outcome.latency_percentile(99.0);
            writeln!(
                out,
                "  {:>4}% {:>9.1} {:>9.2} {:>9.2} {:>6} {:>6} {:>7} {:>7} {:>7}",
                pct,
                qps,
                p50 * 1e3,
                p99 * 1e3,
                o.outcome.served.len(),
                o.outcome.shed.len(),
                o.health.retries,
                o.health.hedges,
                o.health.dead_transitions,
            )
            .unwrap();
            let k = format!("{plan_key}.load{pct}");
            report.real(&format!("{k}.p50_ms"), p50 * 1e3);
            report.real(&format!("{k}.p99_ms"), p99 * 1e3);
            report.count(&format!("{k}.served"), o.outcome.served.len() as u64);
            report.count(&format!("{k}.shed"), o.outcome.shed.len() as u64);
            report.count(&format!("{k}.transitions"), o.transitions.len() as u64);
            o.health.export(&mut report, &format!("{k}.health"));
            report.count(&format!("{k}.faults.crashes"), o.faults.crashes);
            report.count(
                &format!("{k}.faults.straggled_batches"),
                o.faults.straggled_batches,
            );
            report.count(
                &format!("{k}.faults.corrupted_responses"),
                o.faults.corrupted_responses,
            );
        }
    }

    // Bit-identical replay proof: the crash plan's 50% cell run twice,
    // full outcome compared field for field.
    let (_, crash_plan) = plans(span_ref, worst).remove(0);
    let trace = poisson_trace_tiered(5050, 0.5 * capacity, REQUESTS, &[0, 1]);
    let a = cluster
        .serve_ft(&trace, &cfg, &res, &crash_plan)
        .expect("feasible");
    let b = cluster
        .serve_ft(&trace, &cfg, &res, &crash_plan)
        .expect("feasible");
    let identical = a.outcome.served == b.outcome.served
        && a.outcome.batches == b.outcome.batches
        && a.outcome.shed == b.outcome.shed
        && a.transitions == b.transitions
        && a.health == b.health
        && a.faults == b.faults;
    report.count("replay.bit_identical", u64::from(identical));

    writeln!(out).unwrap();
    writeln!(
        out,
        "Losing 1 of 4 CGs sheds nothing at <= 50% load: lost batches fail \
         over inside their deadline budget, the dead CG re-warms from its \
         frozen snapshot and rejoins, and every served request stays inside \
         the SLO by construction. Replay of the crash cell is bit-identical: {}.",
        if identical { "yes" } else { "NO" }
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

    /// Acceptance criterion: with one of four replicas crashed
    /// mid-trace, p99 stays inside the SLO and the shed rate is zero at
    /// every load at or below 50% of capacity.
    #[test]
    fn crash_keeps_slo_and_sheds_nothing_at_half_load() {
        let (_, report) = run(&[]);
        let slo = metric(&report, "slo_ms");
        for pct in [25u64, 50] {
            let p99 = metric(&report, &format!("crash.load{pct}.p99_ms"));
            assert!(p99 <= slo + 1e-9, "load{pct}: p99 {p99} ms > SLO {slo} ms");
            assert_eq!(
                metric(&report, &format!("crash.load{pct}.shed")),
                0.0,
                "load{pct}: crash must shed nothing at <= 50% load"
            );
            assert_eq!(
                metric(&report, &format!("crash.load{pct}.faults.crashes")),
                1.0
            );
        }
        // Served requests meet the SLO at every cell of every plan.
        for plan in ["crash", "straggle", "corrupt"] {
            for (pct, _) in LOAD_STEPS {
                let p99 = metric(&report, &format!("{plan}.load{pct}.p99_ms"));
                assert!(p99 <= slo + 1e-9, "{plan} load{pct}: p99 over SLO");
            }
        }
    }

    /// Every fault archetype actually fires, and the replay proof holds.
    #[test]
    fn faults_fire_and_replay_is_bit_identical() {
        let (_, report) = run(&[]);
        assert_eq!(metric(&report, "replay.bit_identical"), 1.0);
        assert!(metric(&report, "straggle.load50.faults.straggled_batches") >= 1.0);
        assert!(metric(&report, "corrupt.load50.faults.corrupted_responses") >= 1.0);
        assert!(metric(&report, "corrupt.load50.health.retries") >= 1.0);
        assert!(metric(&report, "crash.load50.health.failovers") >= 1.0);
    }
}

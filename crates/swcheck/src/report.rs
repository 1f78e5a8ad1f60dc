//! Serialize sanitizer and lint results as `swjson` reports, matching
//! the deterministic on-disk conventions of the bench/CI pipeline.

use swjson::{obj, Json};

use crate::comm::{CommOutcome, CommViolation};
use crate::graph::GraphOutcome;
use crate::lint::LintOutcome;
use crate::sanitize::{Violation, ViolationKind};
use crate::suite::SuiteOutcome;

fn kind_slug(kind: &ViolationKind) -> &'static str {
    match kind {
        ViolationKind::UseBeforeWait { .. } => "use_before_wait",
        ViolationKind::DoubleWait { .. } => "double_wait",
        ViolationKind::LeakedDma { .. } => "leaked_dma",
        ViolationKind::FreeInFlight { .. } => "free_in_flight",
        ViolationKind::SendRecvMismatch { .. } => "send_recv_mismatch",
        ViolationKind::Deadlock { .. } => "deadlock",
        ViolationKind::BarrierDivergence { .. } => "barrier_divergence",
        ViolationKind::PlanExceeded { .. } => "plan_exceeded",
        ViolationKind::UnusedRlcDeclared { .. } => "unused_rlc_declared",
    }
}

/// One violation as a JSON object: machine-readable kind plus the full
/// human diagnostic.
pub(crate) fn violation_json(v: &Violation) -> Json {
    let mut b = obj()
        .field("kernel", v.kernel.as_str())
        .field("kind", kind_slug(&v.kind));
    if let Some((row, col)) = v.cpe {
        b = b.field("row", row as i64).field("col", col as i64);
    }
    b.field("message", v.kind.to_string()).build()
}

pub(crate) fn violations_json(violations: &[Violation]) -> Json {
    Json::Arr(violations.iter().map(violation_json).collect())
}

/// The complete `swcheck` run as one JSON document: dynamic-suite
/// summary, static-lint summary, and every violation.
pub fn report_json(suite: &SuiteOutcome, lint: &LintOutcome, overhead_ratio: Option<f64>) -> Json {
    let rejected = Json::Arr(
        lint.rejected
            .iter()
            .map(|(label, v)| {
                obj()
                    .field("plan", label.as_str())
                    .field("message", v.to_string())
                    .build()
            })
            .collect(),
    );
    let mut b = obj()
        .field("tool", "swcheck")
        .field(
            "suite",
            obj()
                .field("launches", suite.launches as i64)
                .field("events", suite.events as i64)
                .field(
                    "kernels",
                    Json::Arr(suite.kernels.iter().map(|k| Json::Str(k.clone())).collect()),
                )
                .field("violations", violations_json(&suite.violations))
                .build(),
        )
        .field(
            "lint",
            obj()
                .field("plans_checked", lint.checked as i64)
                .field("rejected", rejected)
                .build(),
        );
    if let Some(r) = overhead_ratio {
        b = b.field("sanitizer_overhead_ratio", r);
    }
    b.field(
        "clean",
        suite.violations.is_empty() && lint.rejected.is_empty(),
    )
    .build()
}

/// One collective-schedule violation as a JSON object.
pub(crate) fn comm_violation_json(v: &CommViolation) -> Json {
    obj()
        .field("kind", v.kind())
        .field("message", v.to_string())
        .build()
}

/// The `--comm` pass as one JSON document: one case per checked
/// configuration with its mode, size, and violations.
pub fn comm_report_json(outcomes: &[(String, CommOutcome, f64)]) -> Json {
    let cases = Json::Arr(
        outcomes
            .iter()
            .map(|(label, out, secs)| {
                obj()
                    .field("case", label.as_str())
                    .field("algorithm", format!("{:?}", out.algo))
                    .field("nodes", out.nodes as i64)
                    .field("supernode_size", out.supernode_size as i64)
                    .field("mode", out.mode.to_string())
                    .field("steps", out.steps as i64)
                    .field("ops", out.ops as i64)
                    .field("seconds", *secs)
                    .field(
                        "violations",
                        Json::Arr(out.violations.iter().map(comm_violation_json).collect()),
                    )
                    .field("clean", out.is_clean())
                    .build()
            })
            .collect(),
    );
    obj()
        .field("tool", "swcheck")
        .field("pass", "comm")
        .field("cases", cases)
        .field("clean", outcomes.iter().all(|(_, out, _)| out.is_clean()))
        .build()
}

/// The `--graph` pass as one JSON document: one case per linted net
/// definition (raw and post-fusion).
pub fn graph_report_json(outcomes: &[GraphOutcome]) -> Json {
    let cases = Json::Arr(
        outcomes
            .iter()
            .map(|out| {
                let mut b = obj()
                    .field("case", out.name.as_str())
                    .field("layers", out.layers as i64)
                    .field(
                        "violations",
                        Json::Arr(
                            out.violations
                                .iter()
                                .map(|v| {
                                    obj()
                                        .field("kind", v.kind())
                                        .field("layer", v.layer())
                                        .field("message", v.to_string())
                                        .build()
                                })
                                .collect(),
                        ),
                    );
                if let Some(e) = &out.error {
                    b = b.field("error", e.as_str());
                }
                b.field("clean", out.is_clean()).build()
            })
            .collect(),
    );
    obj()
        .field("tool", "swcheck")
        .field("pass", "graph")
        .field("cases", cases)
        .field("clean", outcomes.iter().all(GraphOutcome::is_clean))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::ViolationKind;

    #[test]
    fn violation_serializes_with_coordinates() {
        let v = Violation {
            kernel: "swdnn.gemm".into(),
            cpe: Some((3, 4)),
            kind: ViolationKind::DoubleWait { seq: 9 },
        };
        let j = violation_json(&v);
        let text = j.to_pretty_string();
        assert!(text.contains("\"kind\": \"double_wait\""), "{text}");
        assert!(text.contains("\"row\": 3"), "{text}");
        // Round-trips through the parser.
        assert!(swjson::Json::parse(&text).is_ok());
    }
}

//! Baseline comparison — the logic behind `bench check`.
//!
//! Tolerance policy (documented in `docs/results/README.md`):
//!
//! * **counter** metrics (DMA bytes, RLC messages, flops, step counts)
//!   are deterministic outputs of the simulator and compare **exactly**;
//! * **timing** metrics come from the calibrated cost models and allow a
//!   small relative drift so legitimate recalibrations within the band
//!   don't break CI (default 2%). Anything larger must be re-blessed
//!   deliberately.

use crate::report::{MetricValue, Report};

/// Default relative tolerance for timing-class metrics.
pub(crate) const DEFAULT_TIMING_REL_TOL: f64 = 0.02;

/// Per-class tolerances. Counters are always exact by construction.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed relative error `|fresh - base| / |base|` for timing
    /// metrics; the boundary itself passes.
    pub(crate) timing_rel: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            timing_rel: DEFAULT_TIMING_REL_TOL,
        }
    }
}

/// Why a metric drifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Baseline metric absent from the fresh report.
    MissingInFresh,
    /// Fresh metric absent from the baseline (baseline is stale).
    MissingInBaseline,
    /// Metric class changed between baseline and fresh run.
    ClassChanged,
    /// Value moved beyond the allowed tolerance.
    ValueDrift,
}

/// One detected regression.
#[derive(Debug, Clone)]
pub struct Drift {
    pub(crate) metric: String,
    pub(crate) kind: DriftKind,
    pub(crate) baseline: Option<f64>,
    pub(crate) fresh: Option<f64>,
    /// Realised relative error (`f64::INFINITY` when undefined).
    pub(crate) rel_err: f64,
    /// Tolerance that applied.
    pub(crate) allowed: f64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            DriftKind::MissingInFresh => {
                write!(
                    f,
                    "{}: present in baseline, missing from fresh run",
                    self.metric
                )
            }
            DriftKind::MissingInBaseline => {
                write!(f, "{}: new metric not in baseline (re-bless)", self.metric)
            }
            DriftKind::ClassChanged => {
                write!(
                    f,
                    "{}: metric class changed (counter <-> timing)",
                    self.metric
                )
            }
            DriftKind::ValueDrift => write!(
                f,
                "{}: {} -> {} (rel err {:.4e} > allowed {:.4e})",
                self.metric,
                self.baseline.unwrap_or(f64::NAN),
                self.fresh.unwrap_or(f64::NAN),
                self.rel_err,
                self.allowed,
            ),
        }
    }
}

/// Compare a fresh report against a blessed baseline. Empty result means
/// the gate passes. Every baseline metric must exist in the fresh run
/// within tolerance, and the fresh run must not introduce metrics the
/// baseline lacks (that means the baseline is stale and needs
/// re-blessing).
pub fn compare(baseline: &Report, fresh: &Report, tol: &Tolerance) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for bm in &baseline.metrics {
        let Some(fm) = fresh.metric(&bm.name) else {
            drifts.push(Drift {
                metric: bm.name.clone(),
                kind: DriftKind::MissingInFresh,
                baseline: Some(bm.value.as_f64()),
                fresh: None,
                rel_err: f64::INFINITY,
                allowed: 0.0,
            });
            continue;
        };
        match (&bm.value, &fm.value) {
            (MetricValue::Count(b), MetricValue::Count(f)) => {
                if b != f {
                    let rel = relative_error(*b as f64, *f as f64);
                    drifts.push(Drift {
                        metric: bm.name.clone(),
                        kind: DriftKind::ValueDrift,
                        baseline: Some(*b as f64),
                        fresh: Some(*f as f64),
                        rel_err: rel,
                        allowed: 0.0,
                    });
                }
            }
            (MetricValue::Real(b), MetricValue::Real(f)) => {
                let rel = relative_error(*b, *f);
                if rel > tol.timing_rel {
                    drifts.push(Drift {
                        metric: bm.name.clone(),
                        kind: DriftKind::ValueDrift,
                        baseline: Some(*b),
                        fresh: Some(*f),
                        rel_err: rel,
                        allowed: tol.timing_rel,
                    });
                }
            }
            _ => drifts.push(Drift {
                metric: bm.name.clone(),
                kind: DriftKind::ClassChanged,
                baseline: Some(bm.value.as_f64()),
                fresh: Some(fm.value.as_f64()),
                rel_err: f64::INFINITY,
                allowed: 0.0,
            }),
        }
    }
    for fm in &fresh.metrics {
        if baseline.metric(&fm.name).is_none() {
            drifts.push(Drift {
                metric: fm.name.clone(),
                kind: DriftKind::MissingInBaseline,
                baseline: None,
                fresh: Some(fm.value.as_f64()),
                rel_err: f64::INFINITY,
                allowed: 0.0,
            });
        }
    }
    drifts
}

/// `|fresh - base| / |base|`; exact match is 0 even at base == 0, any
/// deviation from a zero baseline is infinite.
fn relative_error(base: f64, fresh: f64) -> f64 {
    if base == fresh {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (fresh - base).abs() / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    fn base() -> Report {
        let mut r = Report::new("t");
        r.count("dma_bytes", 1_000_000);
        r.real("iter_seconds", 2.0);
        r
    }

    #[test]
    fn identical_reports_pass() {
        let b = base();
        assert!(compare(&b, &b.clone(), &Tolerance::default()).is_empty());
    }

    #[test]
    fn timing_passes_exactly_at_the_boundary() {
        // 100 -> 102 is exactly +2%: (102-100)/100 computes to the same
        // f64 as the literal 0.02, so this probes the `<=` boundary.
        let mut b = Report::new("t");
        b.real("iter_seconds", 100.0);
        let mut f = Report::new("t");
        f.real("iter_seconds", 102.0);
        let drifts = compare(&b, &f, &Tolerance { timing_rel: 0.02 });
        assert!(drifts.is_empty(), "{drifts:?}");
    }

    #[test]
    fn timing_fails_just_past_the_boundary() {
        let mut b = Report::new("t");
        b.real("iter_seconds", 100.0);
        let mut f = Report::new("t");
        f.real("iter_seconds", 102.01);
        let drifts = compare(&b, &f, &Tolerance { timing_rel: 0.02 });
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].kind, DriftKind::ValueDrift);
        assert_eq!(drifts[0].metric, "iter_seconds");
    }

    #[test]
    fn counters_have_zero_tolerance() {
        let b = base();
        let mut f = Report::new("t");
        // One byte off on a megabyte: far below any relative tolerance,
        // still a failure — counters are exact.
        f.count("dma_bytes", 1_000_001);
        f.real("iter_seconds", 2.0);
        let drifts = compare(&b, &f, &Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "dma_bytes");
        assert_eq!(drifts[0].allowed, 0.0);
    }

    #[test]
    fn missing_metric_fails() {
        let b = base();
        let mut f = Report::new("t");
        f.count("dma_bytes", 1_000_000);
        let drifts = compare(&b, &f, &Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].kind, DriftKind::MissingInFresh);
    }

    #[test]
    fn new_metric_flags_stale_baseline() {
        let b = base();
        let mut f = base();
        f.real("extra", 1.0);
        let drifts = compare(&b, &f, &Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].kind, DriftKind::MissingInBaseline);
    }

    #[test]
    fn class_change_fails() {
        let b = base();
        let mut f = Report::new("t");
        f.real("dma_bytes", 1_000_000.0);
        f.real("iter_seconds", 2.0);
        let drifts = compare(&b, &f, &Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].kind, DriftKind::ClassChanged);
    }

    #[test]
    fn zero_baseline_allows_only_exact_zero() {
        let mut b = Report::new("t");
        b.real("comm_seconds", 0.0);
        let mut pass = Report::new("t");
        pass.real("comm_seconds", 0.0);
        assert!(compare(&b, &pass, &Tolerance::default()).is_empty());
        let mut fail = Report::new("t");
        fail.real("comm_seconds", 1e-12);
        assert_eq!(compare(&b, &fail, &Tolerance::default()).len(), 1);
    }
}

//! Serving-resilience counters: what the fault-tolerant serving path in
//! `swserve` did to keep requests inside their SLO while replicas
//! crashed, straggled or corrupted responses.
//!
//! The struct lives here — not in `swserve` — for the same reason
//! [`StatsSnap`](crate::StatsSnap) does: it is a *profiling surface*.
//! The serving layer produces it, the bench scenarios flatten it into
//! gated [`Report`] metrics with [`export`](ServeHealthCounters::export),
//! and `bench check` diffs every field against the blessed baseline, so
//! a regression in the detection, retry, hedge or shed paths shows up as
//! counter drift even when latencies still look healthy.

use crate::Report;

/// Counters accumulated by one fault-tolerant serving simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeHealthCounters {
    /// Healthy/Degraded -> Dead transitions (deadline timeout fired).
    pub dead_transitions: u64,
    /// Healthy -> Degraded transitions (corrupt or late response).
    pub degraded_transitions: u64,
    /// Degraded -> Healthy recoveries (probation served).
    pub recovered_transitions: u64,
    /// Re-warm cycles completed (frozen snapshot reloaded, CG rejoined).
    pub rewarms: u64,
    /// Requests re-enqueued after a failed batch (lost or corrupt).
    pub retries: u64,
    /// Batches lost to a dead replica whose requests were re-dispatched
    /// to a different, live replica.
    pub failovers: u64,
    /// Hedge copies issued (second replica raced against a suspect one).
    pub hedges: u64,
    /// Hedge copies that beat (or outlived) the primary.
    pub hedge_wins: u64,
    /// Requests dropped because their deadline expired before a live
    /// replica could serve them (includes exhausted retry budgets).
    pub deadline_shed: u64,
    /// Requests dropped by the brown-out policy's lowest-tier shed.
    pub brownout_shed: u64,
    /// Virtual seconds spent between a replica's crash and its
    /// detection (deadline-timeout latency, summed over detections).
    pub detect_latency_s: f64,
    /// Virtual seconds spent re-warming replicas (snapshot read-back).
    pub rewarm_s: f64,
    /// Virtual seconds charged as backoff before failed-batch retries.
    pub backoff_s: f64,
}

impl ServeHealthCounters {
    /// Flatten every counter into `report` under `prefix` — counts as
    /// exact-match metrics, durations as timing-class reals.
    pub fn export(&self, report: &mut Report, prefix: &str) {
        report.count(&format!("{prefix}.dead_transitions"), self.dead_transitions);
        report.count(
            &format!("{prefix}.degraded_transitions"),
            self.degraded_transitions,
        );
        report.count(
            &format!("{prefix}.recovered_transitions"),
            self.recovered_transitions,
        );
        report.count(&format!("{prefix}.rewarms"), self.rewarms);
        report.count(&format!("{prefix}.retries"), self.retries);
        report.count(&format!("{prefix}.failovers"), self.failovers);
        report.count(&format!("{prefix}.hedges"), self.hedges);
        report.count(&format!("{prefix}.hedge_wins"), self.hedge_wins);
        report.count(&format!("{prefix}.deadline_shed"), self.deadline_shed);
        report.count(&format!("{prefix}.brownout_shed"), self.brownout_shed);
        report.real(&format!("{prefix}.detect_latency_s"), self.detect_latency_s);
        report.real(&format!("{prefix}.rewarm_s"), self.rewarm_s);
        report.real(&format!("{prefix}.backoff_s"), self.backoff_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_flattens_every_field() {
        let counters = ServeHealthCounters {
            dead_transitions: 1,
            degraded_transitions: 2,
            recovered_transitions: 3,
            rewarms: 4,
            retries: 5,
            failovers: 6,
            hedges: 7,
            hedge_wins: 8,
            deadline_shed: 9,
            brownout_shed: 10,
            detect_latency_s: 0.25,
            rewarm_s: 1.5,
            backoff_s: 0.001,
        };
        let mut report = Report::new("t");
        counters.export(&mut report, "health");
        for (name, want) in [
            ("health.dead_transitions", 1.0),
            ("health.degraded_transitions", 2.0),
            ("health.recovered_transitions", 3.0),
            ("health.rewarms", 4.0),
            ("health.retries", 5.0),
            ("health.failovers", 6.0),
            ("health.hedges", 7.0),
            ("health.hedge_wins", 8.0),
            ("health.deadline_shed", 9.0),
            ("health.brownout_shed", 10.0),
            ("health.detect_latency_s", 0.25),
            ("health.rewarm_s", 1.5),
            ("health.backoff_s", 0.001),
        ] {
            let m = report
                .metric(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(m.value.as_f64(), want, "{name}");
        }
        assert_eq!(report.metrics.len(), 13);
    }
}

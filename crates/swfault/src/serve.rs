//! Serving-side fault injection: deterministic replica failures for the
//! `swserve` inference path.
//!
//! The training half of this crate reasons in *iterations*; a serving
//! cluster reasons in *virtual seconds* and *batch dispatches*. A
//! [`ServeFaultPlan`] declares what goes wrong with the chip's CG
//! replicas — a crash at virtual time `t`, a probabilistic per-batch
//! straggle, a transient output-corruption window — and a
//! [`ServeFaultSession`] answers the resilience layer's questions as pure
//! functions of the plan seed and the coordinates of the question
//! (replica, virtual time, batch sequence number):
//!
//! * when does this replica crash, if ever?
//! * does this particular batch execution straggle?
//! * is this particular response payload corrupted in flight?
//!
//! Because every answer is seed-pure, two sessions opened on the same
//! plan replay bit-identical fault schedules — the property the
//! `serve_faults` regression scenario and the swserve resilience tests
//! assert across reruns, backends and plan replays.

use crate::{decorrelated_backoff_s, mix, unit};

/// One declared serving fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ServeFaultEvent {
    /// Replica `replica` dies at virtual time `at_s` and stays dead
    /// until the resilience layer re-warms it. A crash fires once: a
    /// re-warmed replica is not re-killed by the same event.
    ReplicaCrash { replica: usize, at_s: f64 },
    /// Each batch dispatched to `replica` in the window independently
    /// straggles with probability `prob`, running `slowdown >= 1` times
    /// slower (OS jitter tail). Seed-pure per batch sequence number.
    Straggle {
        replica: usize,
        prob: f64,
        slowdown: f64,
        from_s: f64,
        until_s: f64,
    },
    /// Each response produced by `replica` in the window is corrupted
    /// in flight with probability `rate`, independently per batch —
    /// transient, so a retried execution usually comes back clean.
    CorruptOutput {
        replica: usize,
        rate: f64,
        from_s: f64,
        until_s: f64,
    },
}

/// A seeded serving-fault schedule. Build with the fluent methods, then
/// open a [`ServeFaultSession`] to consume it.
#[derive(Debug, Clone)]
pub struct ServeFaultPlan {
    seed: u64,
    events: Vec<ServeFaultEvent>,
    /// Seconds past a batch's *expected* completion before the
    /// dispatcher declares the replica dead (deadline timeout).
    detect_timeout_s: f64,
    /// Base of the decorrelated-jitter backoff charged before a failed
    /// batch's requests become dispatchable again.
    backoff_base_s: f64,
}

impl ServeFaultPlan {
    pub fn new(seed: u64) -> Self {
        ServeFaultPlan {
            seed,
            events: Vec::new(),
            detect_timeout_s: 1.0e-3,
            backoff_base_s: 50.0e-6,
        }
    }

    /// Crash `replica` at virtual time `at_s`.
    pub fn crash(mut self, replica: usize, at_s: f64) -> Self {
        assert!(at_s >= 0.0, "crash time must be non-negative");
        self.events
            .push(ServeFaultEvent::ReplicaCrash { replica, at_s });
        self
    }

    /// Straggle each of `replica`'s batches in `window` independently
    /// with probability `prob`, by `slowdown`.
    pub fn straggle(
        mut self,
        replica: usize,
        prob: f64,
        slowdown: f64,
        window: std::ops::Range<f64>,
    ) -> Self {
        assert!((0.0..1.0).contains(&prob), "prob must be in [0, 1)");
        assert!(slowdown >= 1.0, "straggler slowdown must be >= 1");
        self.events.push(ServeFaultEvent::Straggle {
            replica,
            prob,
            slowdown,
            from_s: window.start,
            until_s: window.end,
        });
        self
    }

    /// Corrupt each response `replica` produces in `window` with
    /// probability `rate`.
    pub fn corrupt_output(
        mut self,
        replica: usize,
        rate: f64,
        window: std::ops::Range<f64>,
    ) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        self.events.push(ServeFaultEvent::CorruptOutput {
            replica,
            rate,
            from_s: window.start,
            until_s: window.end,
        });
        self
    }

    pub fn detect_timeout_s(mut self, s: f64) -> Self {
        assert!(s >= 0.0, "detection timeout must be non-negative");
        self.detect_timeout_s = s;
        self
    }

    pub fn backoff_base_s(mut self, s: f64) -> Self {
        assert!(s >= 0.0, "backoff base must be non-negative");
        self.backoff_base_s = s;
        self
    }
}

/// Injection counters a serving session accumulates; flattened into the
/// profiling report by the `serve_faults` scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeFaultReport {
    /// Replica crashes observed (first dispatch or probe after `at_s`).
    pub crashes: u64,
    /// Batch executions that straggled.
    pub straggled_batches: u64,
    /// Responses the corruption model damaged in flight.
    pub corrupted_responses: u64,
}

/// A live view over a [`ServeFaultPlan`]. All queries are pure in the
/// plan seed and their coordinates; only the [`report`](Self::report)
/// counters mutate.
#[derive(Debug, Clone)]
pub struct ServeFaultSession {
    plan: ServeFaultPlan,
    pub report: ServeFaultReport,
}

impl ServeFaultSession {
    pub fn new(plan: ServeFaultPlan) -> Self {
        ServeFaultSession {
            plan,
            report: ServeFaultReport::default(),
        }
    }

    /// Earliest declared crash time of `replica`, if any.
    pub fn crash_time(&self, replica: usize) -> Option<f64> {
        self.plan
            .events
            .iter()
            .filter_map(|ev| match *ev {
                ServeFaultEvent::ReplicaCrash { replica: r, at_s } if r == replica => Some(at_s),
                _ => None,
            })
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Seconds past a batch's expected completion before the replica is
    /// declared dead.
    pub fn detect_timeout_s(&self) -> f64 {
        self.plan.detect_timeout_s
    }

    /// Straggle stretch of batch `batch_seq` dispatched on `replica` at
    /// time `t` (`1.0` = no straggle). Each active straggle window draws
    /// independently, keyed on the plan seed, the window's index, the
    /// replica and the batch sequence number.
    pub(crate) fn straggle_factor(&self, replica: usize, batch_seq: u64, t: f64) -> f64 {
        let mut f = 1.0;
        for (i, ev) in self.plan.events.iter().enumerate() {
            if let ServeFaultEvent::Straggle {
                replica: r,
                prob,
                slowdown,
                from_s,
                until_s,
            } = *ev
            {
                if r == replica && t >= from_s && t < until_s {
                    let key = mix((i as u64) << 32 | replica as u64)
                        .wrapping_add(mix(batch_seq ^ 0x5851_f42d_4c95_7f2d));
                    if unit(self.plan.seed.wrapping_add(key)) < prob {
                        f *= slowdown;
                    }
                }
            }
        }
        f
    }

    /// Is the response of batch `batch_seq`, produced by `replica` for a
    /// dispatch at time `t`, corrupted in flight? Independent per batch
    /// sequence number, so a retried execution (new sequence number)
    /// usually comes back clean.
    pub(crate) fn corrupts_output(&self, replica: usize, batch_seq: u64, t: f64) -> bool {
        for (i, ev) in self.plan.events.iter().enumerate() {
            if let ServeFaultEvent::CorruptOutput {
                replica: r,
                rate,
                from_s,
                until_s,
            } = *ev
            {
                if r == replica && t >= from_s && t < until_s {
                    let key = mix((i as u64) << 32 | replica as u64)
                        .wrapping_add(mix(batch_seq ^ 0x2545_f491_4f6c_dd1d));
                    if unit(self.plan.seed.wrapping_add(key) ^ 0xc0ff_ee00_dead_beef) < rate {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Resolve one batch execution: the straggle stretch factor with the
    /// injection counter charged. `1.0` = clean.
    pub fn charge_execution(&mut self, replica: usize, batch_seq: u64, t: f64) -> f64 {
        let straggle = self.straggle_factor(replica, batch_seq, t);
        if straggle > 1.0 {
            self.report.straggled_batches += 1;
        }
        straggle
    }

    /// Resolve one response delivery: true (and charged) if corrupted.
    pub fn charge_response(&mut self, replica: usize, batch_seq: u64, t: f64) -> bool {
        let corrupted = self.corrupts_output(replica, batch_seq, t);
        if corrupted {
            self.report.corrupted_responses += 1;
        }
        corrupted
    }

    /// Record an observed replica crash (the dispatcher noticed the
    /// deadline timeout fire).
    pub fn charge_crash(&mut self) {
        self.report.crashes += 1;
    }

    /// Decorrelated-jitter backoff before redispatch attempt `attempt`
    /// (1-based) of a failed batch — same schedule family as the
    /// training collectives, keyed on the batch sequence number.
    pub fn backoff_s(&self, batch_seq: u64, attempt: u32) -> f64 {
        decorrelated_backoff_s(
            self.plan.seed,
            batch_seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            self.plan.backoff_base_s,
            attempt,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_from_same_plan_replay_identically() {
        let plan = ServeFaultPlan::new(42)
            .crash(1, 0.5)
            .straggle(0, 0.3, 4.0, 0.0..1.0)
            .corrupt_output(3, 0.25, 0.0..2.0);
        let a = ServeFaultSession::new(plan.clone());
        let b = ServeFaultSession::new(plan);
        for replica in 0..4 {
            assert_eq!(a.crash_time(replica), b.crash_time(replica));
            for seq in 0..64u64 {
                let t = seq as f64 * 0.03;
                assert_eq!(
                    a.straggle_factor(replica, seq, t),
                    b.straggle_factor(replica, seq, t)
                );
                assert_eq!(
                    a.corrupts_output(replica, seq, t),
                    b.corrupts_output(replica, seq, t)
                );
                for attempt in 1..4 {
                    assert_eq!(a.backoff_s(seq, attempt), b.backoff_s(seq, attempt));
                }
            }
        }
    }

    #[test]
    fn windows_gate_every_fault_kind() {
        let s = ServeFaultSession::new(
            ServeFaultPlan::new(7)
                .straggle(0, 0.999, 5.0, 1.0..2.0)
                .corrupt_output(0, 0.999, 1.0..2.0),
        );
        // Outside the window: clean.
        assert_eq!(s.straggle_factor(0, 0, 0.5), 1.0);
        assert!(!s.corrupts_output(0, 0, 0.5));
        assert_eq!(s.straggle_factor(0, 0, 2.0), 1.0, "half-open window");
        assert!(!s.corrupts_output(0, 0, 2.0), "half-open window");
        // Inside: straggle/corrupt at ~0.999.
        let straggled = (0..64)
            .filter(|&q| s.straggle_factor(0, q, 1.5) > 1.0)
            .count();
        let corrupted = (0..64).filter(|&q| s.corrupts_output(0, q, 1.5)).count();
        assert!(straggled > 56, "straggled only {straggled}/64");
        assert!(corrupted > 56, "corrupted only {corrupted}/64");
        // The wrong replica is untouched.
        assert_eq!(s.straggle_factor(1, 0, 1.5), 1.0);
        assert!(!s.corrupts_output(1, 0, 1.5));
    }

    #[test]
    fn straggle_rate_is_roughly_honoured_and_independent_per_batch() {
        let s = ServeFaultSession::new(ServeFaultPlan::new(123).straggle(2, 0.2, 3.0, 0.0..10.0));
        let trials = 10_000u64;
        let hits = (0..trials)
            .filter(|&q| s.straggle_factor(2, q, 1.0) > 1.0)
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn charges_accumulate_in_the_report() {
        let mut s = ServeFaultSession::new(
            ServeFaultPlan::new(9)
                .straggle(0, 0.999, 2.0, 0.0..1.0)
                .corrupt_output(1, 0.999, 0.0..1.0),
        );
        assert_eq!(s.charge_execution(0, 0, 0.5), 2.0);
        assert_eq!(s.report.straggled_batches, 1);
        assert!(s.charge_response(1, 0, 0.5));
        assert_eq!(s.report.corrupted_responses, 1);
        assert!(!s.charge_response(1, 0, 5.0), "outside the window");
        assert_eq!(s.report.corrupted_responses, 1);
        s.charge_crash();
        assert_eq!(s.report.crashes, 1);
    }

    #[test]
    fn crash_time_is_the_earliest_declared() {
        let s = ServeFaultSession::new(ServeFaultPlan::new(1).crash(2, 0.7).crash(2, 0.3));
        assert_eq!(s.crash_time(2), Some(0.3));
        assert_eq!(s.crash_time(0), None);
    }
}

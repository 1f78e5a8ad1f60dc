//! Deterministic, seeded fault injection for the cluster simulation.
//!
//! A [`FaultPlan`] declares *what can go wrong* in a run — node crashes at
//! a given iteration and a transient per-message corruption rate. A
//! [`FaultSession`] walks the plan iteration by iteration and answers the
//! two questions that change a collective's control flow:
//!
//! * is this node dead? (crash at iteration k: the collective aborts
//!   after the detection timeout)
//! * is this particular message, on this particular attempt, corrupted?
//!   (checksum mismatch: the message is retransmitted)
//!
//! Neither changes how a step is priced (a detection or a retransmission
//! is charged on top), so collective pricing depends only on the topology
//! and the transfer list.
//!
//! Every answer is a pure function of the plan seed and the coordinates
//! of the question (iteration, collective sequence number, step, source,
//! destination, attempt), so two sessions created from the same plan give
//! byte-identical fault schedules — the property the recovery tests rely
//! on when they assert that a crashed-and-restored run reproduces the
//! uninterrupted run bit for bit.
//!
//! The session also accumulates a [`FaultReport`]: counters for injected
//! faults, checksum retries, detection latency and recovery wall-clock
//! that the profiling layer exports.

use std::fmt;

pub mod serve;

/// Seconds charged to detect an unresponsive rank (MPI-style keep-alive
/// timeout), added to the α-β-γ cost when a collective aborts on a dead
/// peer.
pub(crate) const DETECT_TIMEOUT_S: f64 = 0.25;

/// Base of the retransmission backoff: attempt `k` (1-based) waits a
/// decorrelated-jitter interval derived from the plan seed, bounded below
/// by this base (see `decorrelated_backoff_s`).
pub(crate) const BACKOFF_BASE_S: f64 = 50.0e-6;

/// A seeded fault schedule. Build with the fluent methods, then open a
/// [`FaultSession`] to consume it.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// `(node, at_iter)`: physical node `node` dies at the start of
    /// iteration `at_iter` and stays dead until a recovery action removes
    /// or replaces it.
    crashes: Vec<(usize, u64)>,
    /// Probability that any single message is corrupted in flight.
    corruption_rate: f64,
    /// Maximum retransmissions per message before the collective gives
    /// up with [`CollectiveFault::RetriesExhausted`].
    max_retries: u32,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            corruption_rate: 0.0,
            max_retries: 3,
        }
    }

    /// Crash `node` at the start of iteration `at_iter`.
    pub fn crash(mut self, node: usize, at_iter: u64) -> Self {
        self.crashes.push((node, at_iter));
        self
    }

    /// Corrupt each message independently with probability `rate`.
    pub fn corruption(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        self.corruption_rate = rate;
        self
    }

    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }
}

/// Counters a session accumulates; exported through swprof.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Node crashes that have taken effect so far.
    pub crashes: u64,
    /// Messages the corruption model damaged in flight.
    pub corrupted_msgs: u64,
    /// Retransmissions triggered by checksum mismatches.
    pub retries: u64,
    /// Messages whose retry budget ran out (each aborts a collective).
    pub retries_exhausted: u64,
    /// Dead-rank detections (timeout fired).
    pub detections: u64,
    /// Seconds of simulated time spent waiting for detection timeouts.
    pub detect_latency_s: f64,
    /// Seconds of simulated time spent on retransmissions + backoff.
    pub retry_cost_s: f64,
    /// Seconds of simulated time spent in recovery actions
    /// (re-forming the job, reloading checkpoints, replaying).
    pub recovery_s: f64,
}

/// Why a fault-aware collective aborted. Simulated time already spent
/// (including the detection timeout) rides along so callers can charge
/// it to their clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectiveFault {
    /// A peer did not answer within the keep-alive timeout.
    DeadRank { rank: usize, elapsed_s: f64 },
    /// A message failed its checksum `max_retries + 1` times in a row.
    RetriesExhausted {
        src: usize,
        dst: usize,
        step: usize,
        elapsed_s: f64,
    },
}

impl fmt::Display for CollectiveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveFault::DeadRank { rank, elapsed_s } => {
                write!(
                    f,
                    "rank {rank} unresponsive (detected after {elapsed_s:.3}s)"
                )
            }
            CollectiveFault::RetriesExhausted {
                src,
                dst,
                step,
                elapsed_s,
            } => write!(
                f,
                "message {src}->{dst} at step {step} failed every retry ({elapsed_s:.3}s spent)"
            ),
        }
    }
}

impl std::error::Error for CollectiveFault {}

/// SplitMix64 finalizer: a high-quality 64-bit mixer used to derive all
/// per-message fault decisions from the plan seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a mixed key.
pub(crate) fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// How many multiples of the base interval the decorrelated-jitter
/// backoff may grow to before it saturates.
pub(crate) const BACKOFF_CAP_FACTOR: f64 = 1024.0;

/// Decorrelated-jitter backoff (the AWS "decorrelated jitter" schedule):
/// attempt `k` waits `min(cap, base + u_k * (3*prev - base))` where
/// `u_k` is a uniform draw keyed on `(seed, key, k)`. Unlike the fixed
/// exponential it replaces, simultaneous retries of different messages
/// de-synchronise instead of hammering the wire in lockstep — yet the
/// whole schedule stays a pure function of the plan seed and the
/// message coordinates, so plans replay bit-identically.
///
/// The interval is computed iteratively from `sleep_0 = base`, so it is
/// deterministic for every `(seed, key, attempt)` triple and bounded in
/// `[base, base * BACKOFF_CAP_FACTOR]`.
pub(crate) fn decorrelated_backoff_s(seed: u64, key: u64, base_s: f64, attempt: u32) -> f64 {
    let cap = base_s * BACKOFF_CAP_FACTOR;
    let mut sleep = base_s;
    for k in 1..=attempt {
        let draw = unit(
            seed.wrapping_add(mix(key ^ 0x9e6c_63d0_876a_68de))
                .wrapping_add(mix(u64::from(k).wrapping_mul(0xd6e8_feb8_6659_fd93))),
        );
        sleep = (base_s + draw * (3.0 * sleep - base_s)).min(cap);
    }
    sleep
}

/// A live walk over a [`FaultPlan`]. One session per training run; the
/// trainer advances it with [`begin_iteration`](Self::begin_iteration)
/// and the network layer consults it per collective, per step, per
/// message.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    iter: u64,
    /// Collective sequence number within the run — distinguishes the
    /// corruption coordinates of the many collectives in one iteration.
    seq: u64,
    /// Physical nodes currently dead, sorted.
    dead: Vec<usize>,
    /// Indices of crashes already applied: a crash fires once, so a
    /// recovery that clears the dead set (a checkpoint restore) is not
    /// re-killed by the same event on the next iteration.
    fired_crashes: Vec<usize>,
    pub report: FaultReport,
}

impl FaultSession {
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession {
            plan,
            iter: 0,
            seq: 0,
            dead: Vec::new(),
            fired_crashes: Vec::new(),
            report: FaultReport::default(),
        }
    }

    /// Enter iteration `iter`: crashes scheduled at or before it take
    /// effect (a crash during a long repair window must not be missed).
    pub fn begin_iteration(&mut self, iter: u64) {
        self.iter = iter;
        for (i, &(node, at_iter)) in self.plan.crashes.iter().enumerate() {
            if at_iter <= iter && !self.fired_crashes.contains(&i) {
                self.fired_crashes.push(i);
                if !self.dead.contains(&node) {
                    self.dead.push(node);
                    self.report.crashes += 1;
                }
            }
        }
        self.dead.sort_unstable();
    }

    /// Start a new collective; returns its sequence number.
    pub fn begin_collective(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    pub fn dead_nodes(&self) -> &[usize] {
        &self.dead
    }

    /// Forget the dead nodes — called after a recovery action rebuilds
    /// the job without them (their ranks no longer exist).
    pub fn clear_dead(&mut self) {
        self.dead.clear();
    }

    /// Record a dead-rank detection: charges the keep-alive timeout and
    /// returns it in seconds.
    pub fn detect(&mut self) -> f64 {
        self.report.detections += 1;
        self.report.detect_latency_s += DETECT_TIMEOUT_S;
        DETECT_TIMEOUT_S
    }

    pub fn corruption_rate(&self) -> f64 {
        self.plan.corruption_rate
    }

    pub fn max_retries(&self) -> u32 {
        self.plan.max_retries
    }

    /// Backoff before retransmission attempt `attempt` (1-based) of the
    /// message `(src -> dst)` at `step` of collective `seq`: decorrelated
    /// jitter derived from the plan seed and the message coordinates, so
    /// concurrent retries spread out while every plan replays the exact
    /// same schedule.
    pub fn backoff_s(&self, seq: u64, step: usize, src: usize, dst: usize, attempt: u32) -> f64 {
        let key = mix(seq.wrapping_mul(0x517c_c1b7_2722_0a95))
            .wrapping_add(mix(step as u64 ^ 0xda94_2042_e4dd_58b5))
            .wrapping_add(mix((src as u64) << 32 | dst as u64));
        decorrelated_backoff_s(self.plan.seed, key, BACKOFF_BASE_S, attempt)
    }

    /// Is the message `(src -> dst)` of `step` within collective `seq`
    /// corrupted on its `attempt`-th transmission (0 = first send)?
    /// Deterministic in all coordinates; independent across attempts, so
    /// retransmissions usually succeed (the fault is transient).
    pub fn corrupts(&self, seq: u64, step: usize, src: usize, dst: usize, attempt: u32) -> bool {
        if self.plan.corruption_rate <= 0.0 {
            return false;
        }
        let key = self
            .plan
            .seed
            .wrapping_add(mix(self.iter))
            .wrapping_add(mix(seq.wrapping_mul(0x517c_c1b7_2722_0a95)))
            .wrapping_add(mix(step as u64 ^ 0xda94_2042_e4dd_58b5))
            .wrapping_add(mix((src as u64) << 32 | dst as u64))
            .wrapping_add(mix(u64::from(attempt) ^ 0x2545_f491_4f6c_dd1d));
        unit(key) < self.plan.corruption_rate
    }
}

/// Checksum used to detect in-flight corruption: Fletcher-64 over the
/// raw bit patterns of an f32 payload. Cheap, and any single bit flip
/// changes it.
pub fn checksum(payload: &[f32]) -> u64 {
    let mut a: u64 = 0;
    let mut b: u64 = 0;
    for v in payload {
        a = a.wrapping_add(u64::from(v.to_bits()));
        b = b.wrapping_add(a);
    }
    (b << 32) | (a & 0xffff_ffff)
}

/// Flip one deterministic bit of one deterministic element — the damage
/// the corruption model does to a message in flight.
pub fn corrupt_payload(payload: &mut [f32], seed: u64) {
    if payload.is_empty() {
        return;
    }
    let idx = (mix(seed) as usize) % payload.len();
    let bit = (mix(seed ^ 0xabcd) % 32) as u32;
    payload[idx] = f32::from_bits(payload[idx].to_bits() ^ (1 << bit));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_from_same_plan_agree() {
        let plan = FaultPlan::new(42).corruption(0.1).crash(3, 5);
        let mut a = FaultSession::new(plan.clone());
        let mut b = FaultSession::new(plan);
        for it in 0..10 {
            a.begin_iteration(it);
            b.begin_iteration(it);
            let sa = a.begin_collective();
            let sb = b.begin_collective();
            assert_eq!(sa, sb);
            for step in 0..4 {
                for src in 0..8 {
                    assert_eq!(
                        a.corrupts(sa, step, src, src ^ 1, 0),
                        b.corrupts(sb, step, src, src ^ 1, 0)
                    );
                }
            }
            assert_eq!(a.dead_nodes(), b.dead_nodes());
        }
    }

    #[test]
    fn crash_takes_effect_at_its_iteration() {
        let mut s = FaultSession::new(FaultPlan::new(7).crash(2, 3));
        s.begin_iteration(2);
        assert!(!s.dead_nodes().contains(&2));
        s.begin_iteration(3);
        assert_eq!(s.dead_nodes(), [2]);
        assert_eq!(s.report.crashes, 1);
        // Idempotent across iterations.
        s.begin_iteration(4);
        assert_eq!(s.report.crashes, 1);
        assert_eq!(s.detect(), DETECT_TIMEOUT_S);
        assert_eq!(s.report.detect_latency_s, DETECT_TIMEOUT_S);
        s.clear_dead();
        assert!(s.dead_nodes().is_empty());
    }

    #[test]
    fn corruption_rate_is_roughly_honoured() {
        let mut s = FaultSession::new(FaultPlan::new(123).corruption(0.2));
        s.begin_iteration(0);
        let seq = s.begin_collective();
        let mut hits = 0;
        let trials = 10_000;
        for i in 0..trials {
            if s.corrupts(seq, i % 7, i % 64, (i + 1) % 64, 0) {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn retries_are_independent_of_first_attempt() {
        // A corrupted first attempt does not doom the retry: the
        // decision depends on the attempt number.
        let mut s = FaultSession::new(FaultPlan::new(99).corruption(0.5));
        s.begin_iteration(0);
        let seq = s.begin_collective();
        let mut both = 0;
        let mut first = 0;
        for i in 0..4_000 {
            if s.corrupts(seq, 0, i, i + 1, 0) {
                first += 1;
                if s.corrupts(seq, 0, i, i + 1, 1) {
                    both += 1;
                }
            }
        }
        assert!(first > 1_500);
        let cond = both as f64 / first as f64;
        assert!((cond - 0.5).abs() < 0.06, "conditional rate {cond}");
    }

    #[test]
    fn backoff_is_jittered_deterministic_and_bounded() {
        let plan = FaultPlan::new(77);
        let a = FaultSession::new(plan.clone());
        let b = FaultSession::new(plan);
        let base = BACKOFF_BASE_S;
        let mut distinct = std::collections::BTreeSet::new();
        for attempt in 1..=6u32 {
            for (seq, step, src, dst) in
                [(0u64, 0usize, 0usize, 1usize), (3, 2, 5, 6), (9, 1, 7, 0)]
            {
                let s = a.backoff_s(seq, step, src, dst, attempt);
                // Plan replay: a second session gives the same schedule.
                assert_eq!(s, b.backoff_s(seq, step, src, dst, attempt));
                assert!(
                    (base..=base * BACKOFF_CAP_FACTOR).contains(&s),
                    "backoff {s} out of [base, cap]"
                );
                distinct.insert(s.to_bits());
            }
        }
        // Jitter actually decorrelates: different messages and attempts
        // do not share one lockstep exponential ladder.
        assert!(
            distinct.len() > 10,
            "only {} distinct intervals",
            distinct.len()
        );
    }

    #[test]
    fn decorrelated_backoff_grows_from_base() {
        // Attempt 0 is the base itself; later attempts never fall below
        // it and are reproducible.
        for seed in [1u64, 42, 0xdead_beef] {
            assert_eq!(decorrelated_backoff_s(seed, 5, 1e-4, 0), 1e-4);
            for attempt in 1..8 {
                let s = decorrelated_backoff_s(seed, 5, 1e-4, attempt);
                assert!((1e-4..=1e-4 * BACKOFF_CAP_FACTOR).contains(&s));
                assert_eq!(s, decorrelated_backoff_s(seed, 5, 1e-4, attempt));
            }
        }
    }

    #[test]
    fn checksum_catches_single_bit_flips() {
        let payload: Vec<f32> = (0..257).map(|i| (i as f32).sin()).collect();
        let clean = checksum(&payload);
        for seed in 0..64 {
            let mut dirty = payload.clone();
            corrupt_payload(&mut dirty, seed);
            assert_ne!(checksum(&dirty), clean, "seed {seed}");
        }
    }
}

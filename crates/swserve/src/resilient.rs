//! The serving event loop: the batching policy of [`crate::batcher`]
//! with the resilience layer built in.
//!
//! [`simulate_ft`] is the only serving simulator. It runs the
//! virtual-clock batching policy under everything that goes wrong in
//! production — replica crashes, latency degradation, stragglers,
//! transient response corruption — as declared by a seeded `swfault`
//! [`ServeFaultPlan`](swfault::serve::ServeFaultPlan);
//! [`crate::batcher::simulate`] and [`crate::Cluster::serve`] are this
//! loop with an empty plan.
//! Everything stays a pure function of the trace, the latency model, the
//! configuration and the plan seed, so outcomes are byte-identical
//! across reruns, plan replays and functional backends.
//!
//! The loop walks the admitted trace with a cursor merged against an
//! event heap, so an arrival is never a heap entry; outcomes are
//! recorded in resolution (completion) order.
//!
//! The moving parts, per the design doc's §10:
//!
//! * **Health state machine** per CG replica:
//!   `Healthy → Degraded → Dead → Rewarming → Healthy`. A corrupted
//!   (Fletcher-64 mismatch) or deadline-late response marks its replica
//!   `Degraded`; a deadline timeout with no response at all marks it
//!   `Dead`; a dead replica re-warms by reloading its frozen snapshot
//!   (cost modeled like a checkpoint read-back) and rejoins `Healthy`.
//!   A degraded replica serves a probation of clean on-time batches to
//!   recover.
//! * **Deadline-aware bounded retry with failover**: requests of a lost
//!   or corrupted batch re-enter the queue (after a seeded
//!   decorrelated-jitter backoff, charged to the virtual clock) and are
//!   re-dispatched — necessarily to a different, live replica when the
//!   original died — but only while their per-request deadline
//!   (`arrival + slo`) still covers an execution; otherwise they are
//!   shed. Served requests therefore meet the SLO *by construction*,
//!   faults or not.
//! * **Hedged dispatch**: a batch headed to a `Degraded` replica is
//!   raced against a second copy on an idle `Healthy` replica when one
//!   exists; the first clean response wins, the loser is just charged
//!   utilization.
//! * **Brown-out degradation** under capacity loss, in escalating tiers:
//!   with any replica down the coalescing horizon shrinks (less
//!   batching latency, tier 1); at ≤ 50% capacity the batch bucket is
//!   capped (smaller worst-case execution widens every queueing budget,
//!   tier 2); at ≤ 25% capacity the lowest request tiers are shed at
//!   admission so paying traffic keeps its SLO (tier 3).

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use swfault::serve::{ServeFaultReport, ServeFaultSession};
use swprof::ServeHealthCounters;

use crate::batcher::{BatchConfig, BatchRecord, Request, ServeOutcome, ServedRequest};
use crate::error::ServeError;

/// Replica health, as observed by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// Produced a corrupted or deadline-late response recently; still
    /// dispatched to (with hedging) until probation clears it.
    Degraded,
    /// Deadline timeout fired with no response: presumed crashed.
    Dead,
    /// Reloading its frozen snapshot before rejoining.
    Rewarming,
}

/// One recorded health transition of the state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    pub replica: usize,
    /// Virtual time of the transition.
    pub at: f64,
    pub to: Health,
}

/// Total dispatch attempts per request (1 would be no retry).
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Clean on-time winner batches a Degraded replica must serve before it
/// is Healthy again.
pub(crate) const PROBATION: u32 = 3;

// Escalating brown-out responses to capacity loss. The thresholds are
// fixed fractions of healthy replicas (any loss / ≤ 50% / ≤ 25%); these
// say what each tier does.

/// Tier 1: multiply the coalescing timeout by this factor while any
/// replica is down (trade batch efficiency for queueing headroom).
pub(crate) const BROWNOUT_HORIZON_SHRINK: f64 = 0.5;

/// Tier 2: cap `max_batch` at this fraction (rounded up, min 1) while
/// ≤ 50% of replicas are live (smaller worst-case execution widens every
/// request's queueing budget).
pub(crate) const BROWNOUT_BATCH_CAP_FRAC: f64 = 0.5;

/// Tier 3: while ≤ 25% of replicas are live, shed requests with
/// `tier <` this at admission (lowest tiers first).
pub(crate) const BROWNOUT_SHED_BELOW_TIER: u8 = 1;

/// Configuration of the resilience layer. Retry, probation and brown-out
/// are the crate's fixed policy; hedging is always on.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Virtual seconds a dead replica spends reloading its frozen
    /// snapshot before rejoining — model with the same striped-
    /// filesystem read-back the training checkpoints pay (see
    /// [`crate::FrozenGraph::snapshot_bytes`]).
    pub rewarm_s: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { rewarm_s: 0.05 }
    }
}

/// Result of a fault-tolerant serving simulation: the plain outcome plus
/// the resilience layer's own accounting.
#[derive(Debug, Clone)]
pub struct FtServeOutcome {
    /// Served/shed/batches/busy/makespan, in resolution order. `shed`
    /// holds every dropped request id regardless of reason.
    pub outcome: ServeOutcome,
    /// Every health transition, in virtual-time order.
    pub transitions: Vec<HealthTransition>,
    /// Health/retry/hedge/shed counters (exported through swprof).
    pub health: ServeHealthCounters,
    /// The fault session's injection counters.
    pub faults: ServeFaultReport,
}

/// A queued request attempt.
#[derive(Debug, Clone, Copy)]
struct QReq {
    req: Request,
    /// Dispatch attempts already consumed.
    attempts: u32,
    /// Earliest virtual time this attempt may dispatch (arrival, or
    /// retry time plus backoff).
    ready: f64,
}

/// One execution copy in flight on a replica.
#[derive(Debug, Clone, Copy)]
struct Flight {
    batch: usize,
    replica: usize,
    seq: u64,
    dispatch: f64,
    /// Actual completion (with degradation/straggle stretch); only
    /// meaningful when `lost` is false.
    completion: f64,
    lost: bool,
    corrupted: bool,
    hedge: bool,
}

/// One logical batch of requests, possibly executing as several copies.
#[derive(Debug, Clone)]
struct LogicalBatch {
    reqs: Vec<QReq>,
    copies: usize,
    failed: usize,
    resolved: bool,
    /// Latest failure-known time across copies (requeue happens when the
    /// last copy is known to have failed).
    last_fail: f64,
    /// True when some failed copy was a dead replica (failover).
    dead_copy: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A flight completes (possibly with a corrupted payload).
    FlightDone(usize),
    /// A lost flight's deadline timeout fires: replica presumed dead.
    FlightDead(usize),
    /// A rewarming replica rejoins healthy.
    Rewarmed(usize),
    /// Re-evaluate dispatch (coalescing timer / retry backoff expiry).
    Wake,
}

/// Event class of an arrival: arrivals are not heap events, but they
/// order against them as if they were, between `Rewarmed` and `Wake`.
const ARRIVAL_CLASS: u8 = 3;

/// Heap key: (time, class, insertion seq) with total f64 order — the
/// deterministic processing order the byte-identical replays rely on.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: f64,
    class: u8,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .total_cmp(&self.at)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

struct Sim<'a> {
    cfg: BatchConfig,
    res: ResilienceConfig,
    session: &'a mut ServeFaultSession,
    latency: &'a mut dyn FnMut(usize) -> f64,
    replicas: usize,

    state: Vec<Health>,
    /// Share of replicas currently `Healthy` or `Degraded`, kept by
    /// `record`.
    live_frac: f64,
    free: Vec<f64>,
    crash_pending: Vec<Option<f64>>,
    clean_streak: Vec<u32>,

    queue: VecDeque<QReq>,
    trace: Vec<Request>,
    flights: Vec<Flight>,
    batches_tbl: Vec<LogicalBatch>,
    heap: BinaryHeap<Scheduled>,
    /// Instants (`f64` bits) with a `Wake` in the heap: a second wake at
    /// the same instant would only repeat a `try_dispatch` that has
    /// nothing left to do, so it is never pushed.
    wakes: BTreeSet<u64>,
    ev_seq: u64,
    batch_seq: u64,

    out: ServeOutcome,
    transitions: Vec<HealthTransition>,
    health: ServeHealthCounters,
}

impl<'a> Sim<'a> {
    fn push_ev(&mut self, at: f64, ev: Ev) {
        let class = match ev {
            Ev::FlightDone(_) => 0,
            Ev::FlightDead(_) => 1,
            Ev::Rewarmed(_) => 2,
            Ev::Wake => {
                if !self.wakes.insert(at.to_bits()) {
                    return;
                }
                ARRIVAL_CLASS + 1
            }
        };
        let seq = self.ev_seq;
        self.ev_seq += 1;
        self.heap.push(Scheduled { at, class, seq, ev });
    }

    fn record(&mut self, replica: usize, at: f64, to: Health) {
        self.state[replica] = to;
        let live = (0..self.replicas).filter(|&r| self.live(r)).count();
        self.live_frac = live as f64 / self.replicas as f64;
        self.transitions.push(HealthTransition { replica, at, to });
    }

    fn live(&self, r: usize) -> bool {
        matches!(self.state[r], Health::Healthy | Health::Degraded)
    }

    /// Brown-out-adjusted (timeout, max_batch) for the current capacity.
    fn effective(&mut self) -> (f64, usize) {
        let frac = self.live_frac;
        let mut timeout = self.cfg.timeout;
        let mut max_batch = self.cfg.max_batch;
        if frac < 1.0 {
            timeout *= BROWNOUT_HORIZON_SHRINK;
        }
        if frac <= 0.5 {
            max_batch = ((max_batch as f64 * BROWNOUT_BATCH_CAP_FRAC).ceil() as usize).max(1);
        }
        (timeout, max_batch)
    }

    /// Is admission currently shedding `tier` (brown-out tier 3)?
    fn brownout_sheds(&self, tier: u8) -> bool {
        self.live_frac <= 0.25 && tier < BROWNOUT_SHED_BELOW_TIER
    }

    fn shed(&mut self, req: Request, brownout: bool) {
        self.out.shed.push(req.id);
        if brownout {
            self.health.brownout_shed += 1;
        } else {
            self.health.deadline_shed += 1;
        }
    }

    fn mark_degraded(&mut self, r: usize, at: f64) {
        if self.state[r] == Health::Healthy {
            self.health.degraded_transitions += 1;
            self.record(r, at, Health::Degraded);
        }
        self.clean_streak[r] = 0;
    }

    /// Insert an attempt keeping the queue sorted by (arrival, id) —
    /// FIFO admission order survives retries and rejoins. Equal keys keep
    /// their insertion order. A fresh arrival sorts last, so it is
    /// appended without a search.
    fn enqueue(&mut self, q: QReq) {
        let key = (q.req.arrival, q.req.id);
        let not_after = |e: &QReq| (e.req.arrival, e.req.id) <= key;
        if self.queue.back().is_none_or(not_after) {
            self.queue.push_back(q);
        } else {
            let pos = self.queue.partition_point(not_after);
            self.queue.insert(pos, q);
        }
    }

    /// All copies of `batch` failed: retry within the deadline budget or
    /// shed. `now` is when the last copy's failure became known.
    fn fail_batch(&mut self, bi: usize, now: f64) {
        let b = &mut self.batches_tbl[bi];
        debug_assert!(!b.resolved && b.failed == b.copies);
        b.resolved = true;
        let reqs = std::mem::take(&mut b.reqs);
        if b.dead_copy {
            self.health.failovers += 1;
        }
        // Key the backoff on the logical batch's first flight seq so the
        // whole failed cohort waits out one jittered interval together.
        let seq = self
            .flights
            .iter()
            .find(|f| f.batch == bi)
            .map(|f| f.seq)
            .unwrap_or(0);
        for q in reqs {
            let attempts = q.attempts + 1;
            if attempts >= MAX_ATTEMPTS {
                self.shed(q.req, false);
                continue;
            }
            let backoff = self.session.backoff_s(seq, attempts);
            self.health.retries += 1;
            self.health.backoff_s += backoff;
            self.enqueue(QReq {
                req: q.req,
                attempts,
                ready: now + backoff,
            });
        }
        self.push_ev(now, Ev::Wake);
    }

    /// Resolve a clean flight that won its batch: serve every request
    /// still inside its deadline, shed the rest (a served request can
    /// never be late — SLO safety by construction).
    fn resolve_batch(&mut self, fi: usize) {
        let f = self.flights[fi];
        let b = &mut self.batches_tbl[f.batch];
        b.resolved = true;
        let reqs = std::mem::take(&mut b.reqs);
        let mut ids = Vec::with_capacity(reqs.len());
        let mut any_late = false;
        for q in &reqs {
            ids.push(q.req.id);
            if f.completion <= q.req.arrival + self.cfg.slo + 1e-12 {
                self.out.served.push(ServedRequest {
                    id: q.req.id,
                    arrival: q.req.arrival,
                    dispatch: f.dispatch,
                    completion: f.completion,
                    replica: f.replica,
                });
            } else {
                any_late = true;
                self.shed(q.req, false);
            }
        }
        self.out.batches.push(BatchRecord {
            replica: f.replica,
            dispatch: f.dispatch,
            completion: f.completion,
            request_ids: ids,
        });
        self.out.makespan = self.out.makespan.max(f.completion);
        if f.hedge {
            self.health.hedge_wins += 1;
        }
        if any_late {
            // The response came back, but slower than the healthy
            // estimate promised: treat the replica as suspect.
            self.mark_degraded(f.replica, f.completion);
        } else if self.state[f.replica] == Health::Degraded {
            self.clean_streak[f.replica] += 1;
            if self.clean_streak[f.replica] >= PROBATION {
                self.health.recovered_transitions += 1;
                self.record(f.replica, f.completion, Health::Healthy);
            }
        }
    }

    fn on_flight_done(&mut self, fi: usize) {
        let f = self.flights[fi];
        if f.lost {
            return; // lost flights resolve via FlightDead
        }
        if f.corrupted {
            // Fletcher-64 mismatch on the response payload.
            self.mark_degraded(f.replica, f.completion);
            let b = &mut self.batches_tbl[f.batch];
            b.failed += 1;
            b.last_fail = b.last_fail.max(f.completion);
            if !b.resolved && b.failed == b.copies {
                self.fail_batch(f.batch, f.completion);
            }
            return;
        }
        if !self.batches_tbl[f.batch].resolved {
            self.resolve_batch(fi);
        }
        // A clean loser copy needs no bookkeeping: its utilization was
        // charged at dispatch.
    }

    fn on_flight_dead(&mut self, fi: usize, now: f64) {
        let f = self.flights[fi];
        let r = f.replica;
        if let Some(crash_t) = self.crash_pending[r] {
            // Deadline timeout with no response: declare the replica
            // dead and start the re-warm (snapshot read-back).
            self.session.charge_crash();
            self.health.dead_transitions += 1;
            self.health.detect_latency_s += now - crash_t.min(now);
            self.crash_pending[r] = None;
            self.record(r, now, Health::Dead);
            self.record(r, now, Health::Rewarming);
            self.health.rewarm_s += self.res.rewarm_s;
            self.free[r] = now + self.res.rewarm_s;
            self.push_ev(now + self.res.rewarm_s, Ev::Rewarmed(r));
        }
        let b = &mut self.batches_tbl[f.batch];
        b.failed += 1;
        b.dead_copy = true;
        b.last_fail = b.last_fail.max(now);
        if !b.resolved && b.failed == b.copies {
            self.fail_batch(f.batch, now);
        }
    }

    fn on_rewarmed(&mut self, r: usize, now: f64) {
        self.health.rewarms += 1;
        self.clean_streak[r] = 0;
        self.record(r, now, Health::Healthy);
    }

    /// Dispatch one execution copy of `batch` on `replica` at `now`.
    fn launch(&mut self, bi: usize, replica: usize, now: f64, base: f64, hedge: bool) {
        let seq = self.batch_seq;
        self.batch_seq += 1;
        self.batches_tbl[bi].copies += 1;
        let crash = self.crash_pending[replica];
        let detect = self.session.detect_timeout_s();
        if let Some(ct) = crash {
            if ct <= now + base {
                // The replica dies before this execution completes: the
                // response never arrives. The dispatcher notices when
                // the expected completion plus the deadline slack
                // passes in silence.
                let known = now + base + detect;
                self.flights.push(Flight {
                    batch: bi,
                    replica,
                    seq,
                    dispatch: now,
                    completion: f64::INFINITY,
                    lost: true,
                    corrupted: false,
                    hedge,
                });
                self.free[replica] = known;
                self.push_ev(known, Ev::FlightDead(self.flights.len() - 1));
                return;
            }
        }
        let factor = self.session.charge_execution(replica, seq, now);
        let exec = base * factor;
        let corrupted = self.session.charge_response(replica, seq, now);
        let completion = now + exec;
        self.flights.push(Flight {
            batch: bi,
            replica,
            seq,
            dispatch: now,
            completion,
            lost: false,
            corrupted,
            hedge,
        });
        self.out.busy[replica] += exec;
        self.free[replica] = completion;
        self.push_ev(completion, Ev::FlightDone(self.flights.len() - 1));
    }

    /// Pick a dispatchable replica at `now`: earliest free among the
    /// live ones, lowest index on ties — the batching policy's rotation.
    /// Degraded replicas stay in it (hedging covers the risk); Dead and
    /// Rewarming ones are out until they rejoin.
    fn pick_replica(&self, now: f64) -> Option<usize> {
        (0..self.replicas)
            .filter(|&r| self.live(r) && self.free[r] <= now)
            .min_by(|&a, &b| self.free[a].total_cmp(&self.free[b]).then(a.cmp(&b)))
    }

    /// Dispatch every batch that can go at `now`; schedule wakes for the
    /// decisions that must wait.
    fn try_dispatch(&mut self, now: f64) {
        loop {
            if self.queue.is_empty() {
                return;
            }
            let (eff_timeout, eff_max_batch) = self.effective();
            let eff_worst = (self.latency)(eff_max_batch);
            // Shed from the front anything whose deadline no longer
            // covers an execution (deadline-aware retry bound included:
            // an expired retry dies here).
            while let Some(front) = self.queue.front().copied() {
                let start = now.max(front.ready);
                if front.req.arrival + self.cfg.slo - eff_worst < start {
                    self.queue.pop_front();
                    self.shed(front.req, false);
                } else {
                    break;
                }
            }
            let Some(front) = self.queue.front().copied() else {
                return;
            };
            if front.ready > now {
                // Head-of-line retry still backing off (strict FIFO: no
                // overtaking, the backoff is microseconds).
                self.push_ev(front.ready, Ev::Wake);
                return;
            }
            let Some(replica) = self.pick_replica(now) else {
                // Every live replica is busy; a FlightDone/Rewarmed
                // event will call back.
                return;
            };
            // Coalesce: wait for the batch to fill until the shrunken
            // horizon or the front's own budget runs out, whichever is
            // first.
            let anchor = front.req.arrival.max(front.ready);
            let deadline_latest = front.req.arrival + self.cfg.slo - eff_worst;
            let coalesce_until = (anchor + eff_timeout).min(deadline_latest);
            if self.queue.len() < eff_max_batch && now < coalesce_until {
                self.push_ev(coalesce_until, Ev::Wake);
                return;
            }
            // Form and dispatch the batch.
            let size = self.queue.len().min(eff_max_batch);
            let mut reqs = Vec::with_capacity(size);
            for _ in 0..size {
                reqs.push(self.queue.pop_front().unwrap());
            }
            let base = (self.latency)(size);
            self.batches_tbl.push(LogicalBatch {
                reqs,
                copies: 0,
                failed: 0,
                resolved: false,
                last_fail: 0.0,
                dead_copy: false,
            });
            let bi = self.batches_tbl.len() - 1;
            self.launch(bi, replica, now, base, false);
            // Hedge a suspect primary onto an idle healthy replica when
            // the budget covers a second copy (it does by construction:
            // dispatch implies deadline >= now + eff_worst).
            if self.state[replica] == Health::Degraded {
                let second = (0..self.replicas)
                    .filter(|&r| {
                        r != replica && self.state[r] == Health::Healthy && self.free[r] <= now
                    })
                    .min_by(|&a, &b| self.free[a].total_cmp(&self.free[b]).then(a.cmp(&b)));
                if let Some(r2) = second {
                    self.health.hedges += 1;
                    self.launch(bi, r2, now, base, true);
                }
            }
        }
    }

    /// Process events and arrivals in `(at, class, seq)` order until both
    /// run out. The admitted trace is already in arrival order, so it is
    /// walked with a cursor: a heap event goes first only when its
    /// `(at, class)` is below the next arrival's `(arrival, ARRIVAL_CLASS)`.
    fn run(mut self) -> FtServeOutcome {
        let mut next = 0;
        loop {
            let arrival = self.trace.get(next).copied();
            let event_first = match (self.heap.peek(), arrival) {
                (Some(s), Some(req)) => {
                    s.at.total_cmp(&req.arrival)
                        .then(s.class.cmp(&ARRIVAL_CLASS))
                        .is_lt()
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let now = if event_first {
                let s = self.heap.pop().expect("peeked");
                match s.ev {
                    Ev::FlightDone(fi) => self.on_flight_done(fi),
                    Ev::FlightDead(fi) => self.on_flight_dead(fi, s.at),
                    Ev::Rewarmed(r) => self.on_rewarmed(r, s.at),
                    Ev::Wake => {
                        self.wakes.remove(&s.at.to_bits());
                    }
                }
                s.at
            } else {
                let req = self.trace[next];
                next += 1;
                if self.brownout_sheds(req.tier) {
                    self.shed(req, true);
                } else {
                    self.enqueue(QReq {
                        req,
                        attempts: 0,
                        ready: req.arrival,
                    });
                }
                req.arrival
            };
            self.try_dispatch(now);
        }
        debug_assert!(self.queue.is_empty(), "event loop drained with queued work");
        FtServeOutcome {
            outcome: self.out,
            transitions: self.transitions,
            health: self.health,
            faults: self.session.report,
        }
    }
}

/// Simulate serving `trace` on `replicas` replicas under the fault plan
/// walked by `session` (an empty plan is fault-free serving). `latency`
/// maps a batch size to its healthy execution seconds (monotone); all
/// stretch factors come from the plan. See the module docs for the
/// policy.
pub fn simulate_ft(
    trace: &[Request],
    replicas: usize,
    cfg: &BatchConfig,
    res: &ResilienceConfig,
    session: &mut ServeFaultSession,
    latency: &mut dyn FnMut(usize) -> f64,
) -> Result<FtServeOutcome, ServeError> {
    let trace = crate::batcher::admit(trace, replicas, cfg, latency)?;
    if (0..replicas).all(|r| session.crash_time(r).is_some_and(|t| t <= 0.0)) {
        return Err(ServeError::AllReplicasDead);
    }
    let crash_pending: Vec<Option<f64>> = (0..replicas).map(|r| session.crash_time(r)).collect();
    let out = ServeOutcome {
        served: Vec::with_capacity(trace.len()),
        busy: vec![0.0; replicas],
        ..Default::default()
    };
    let sim = Sim {
        cfg: *cfg,
        res: *res,
        session,
        latency,
        replicas,
        state: vec![Health::Healthy; replicas],
        live_frac: 1.0,
        free: vec![0.0; replicas],
        crash_pending,
        clean_streak: vec![0; replicas],
        queue: VecDeque::new(),
        trace,
        flights: Vec::new(),
        batches_tbl: Vec::new(),
        heap: BinaryHeap::new(),
        wakes: BTreeSet::new(),
        ev_seq: 0,
        batch_seq: 0,
        out,
        transitions: Vec::new(),
        health: ServeHealthCounters::default(),
    };
    Ok(sim.run())
}

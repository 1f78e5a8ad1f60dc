//! A core group's host worker threads: the fork/join every
//! `ExecMode::HostNative` kernel splits its work with.
//!
//! The paper gives each core group one long-lived thread (Fig. 5); on the
//! host path a core group also keeps the threads its kernels fork onto.
//! A [`Workers`] set starts no thread until a call first forks, then
//! starts only as many as that call needs, never more than its thread
//! count minus one (the caller runs a bucket itself). Between calls the
//! threads block on a channel; nothing spins. They are joined when the
//! set is dropped, which for a core group's set is when the core group
//! is dropped, beside its [`Workspace`](crate::Workspace).

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// One unit of work handed to a worker: a bucket of tasks and the
/// function to run on each, with its borrows erased (see
/// [`Workers::run`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a worker reports once a job has run and been dropped: the
/// panic payload, if the job panicked.
type Reply = thread::Result<()>;

/// A set of host worker threads, started on first use and kept until
/// the set is dropped. A `threads: 1` set never starts one.
pub struct Workers {
    threads: usize,
    started: Vec<Worker>,
    /// Cloned into every worker, which replies on it once per job.
    reply: Sender<Reply>,
    replies: Receiver<Reply>,
}

/// A started thread and the queue it takes its jobs from.
struct Worker {
    jobs: Sender<Job>,
    handle: JoinHandle<()>,
}

impl fmt::Debug for Workers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.threads)
            .field("started", &self.started.len())
            .finish()
    }
}

impl Workers {
    /// A set that forks onto at most `threads` threads, the caller's own
    /// included (0 = one per available host core). No thread starts
    /// here.
    pub fn new(threads: usize) -> Workers {
        let threads = if threads > 0 {
            threads
        } else {
            thread::available_parallelism().map_or(1, |n| n.get())
        };
        let (reply, replies) = mpsc::channel();
        Workers {
            threads,
            started: Vec::new(),
            reply,
            replies,
        }
    }

    /// The most threads a call runs on, the caller's own included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many worker threads this set has started so far.
    pub fn started(&self) -> usize {
        self.started.len()
    }

    /// Run independent work units on up to [`Workers::threads`] threads.
    /// Units are dealt round-robin into one bucket per thread; the
    /// caller runs bucket 0 and the set's workers the rest, so no thread
    /// sleeps in the join while another works.
    ///
    /// Every unit's result is fully determined by the unit itself (host
    /// kernels never share accumulators across units), so the partition
    /// does not affect results: output is bit-identical for any thread
    /// count, including 1.
    ///
    /// Returns only once every bucket has finished. If a unit panics,
    /// the rest of its bucket is skipped, every other bucket still runs
    /// to its end, and then the first panic is raised again on the
    /// caller.
    pub fn run<I, F>(&mut self, tasks: Vec<I>, f: F)
    where
        I: Send,
        F: Fn(I) + Sync,
    {
        let n = self.threads.min(tasks.len()).max(1);
        if n == 1 {
            tasks.into_iter().for_each(f);
            return;
        }
        self.start(n - 1);
        let mut buckets: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            buckets[i % n].push(t);
        }
        let f = &f;
        let mut buckets = buckets.into_iter();
        let own = buckets.next().expect("at least two buckets");
        let mut pending = Pending {
            replies: &self.replies,
            sent: 0,
        };
        for (worker, bucket) in self.started.iter().zip(buckets) {
            let job: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || bucket.into_iter().for_each(f));
            // SAFETY: the transmute changes only the job's lifetime. The
            // job borrows `f` and whatever the units borrow, all of which
            // outlive this call. `pending` is a drop guard
            // created before the first job is sent: its `wait`, run below
            // or by its `Drop` if anything here unwinds, takes one reply
            // per job sent, and a worker replies only after the job has
            // run and been dropped. So no job outlives `run`, although
            // its type says `'static`.
            let job: Job = unsafe { std::mem::transmute(job) };
            worker
                .jobs
                .send(job)
                .expect("a started worker serves until its set is dropped");
            pending.sent += 1;
        }
        own.into_iter().for_each(f);
        if let Some(payload) = pending.wait() {
            panic::resume_unwind(payload);
        }
    }

    /// Start workers until at least `want` are running.
    fn start(&mut self, want: usize) {
        while self.started.len() < want {
            let (jobs, queue) = mpsc::channel::<Job>();
            let reply = self.reply.clone();
            let handle = thread::Builder::new()
                .name(format!("host-worker-{}", self.started.len() + 1))
                .spawn(move || {
                    for job in queue {
                        let outcome = panic::catch_unwind(AssertUnwindSafe(job));
                        if reply.send(outcome).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn a host worker thread");
            self.started.push(Worker { jobs, handle });
        }
    }
}

impl Drop for Workers {
    /// Close every worker's queue, then join it.
    fn drop(&mut self) {
        for Worker { jobs, handle } in self.started.drain(..) {
            drop(jobs);
            // A job's panic is caught and replied, so a worker returns
            // normally; there is nothing to report if it did not.
            let _ = handle.join();
        }
    }
}

/// The drop guard of [`Workers::run`]: one reply is owed per job `sent`,
/// and neither `wait` nor the guard's drop returns until every owed
/// reply has arrived.
struct Pending<'w> {
    replies: &'w Receiver<Reply>,
    sent: usize,
}

impl Pending<'_> {
    /// Take the reply to every job sent; the first panic among them.
    fn wait(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut first = None;
        for _ in 0..std::mem::take(&mut self.sent) {
            let reply = self.replies.recv().expect("the set holds a reply sender");
            if let Err(payload) = reply {
                first.get_or_insert(payload);
            }
        }
        first
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreGroup, ExecMode};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// The threads other than the caller's that ran a unit of one call.
    fn helpers(workers: &mut Workers, tasks: usize) -> HashSet<ThreadId> {
        let caller = thread::current().id();
        let ran_on = Mutex::new(HashSet::new());
        workers.run((0..tasks).collect(), |_: usize| {
            ran_on.lock().unwrap().insert(thread::current().id());
        });
        let mut ran_on = ran_on.into_inner().unwrap();
        assert!(ran_on.remove(&caller), "the caller runs bucket 0");
        ran_on
    }

    #[test]
    fn workers_are_reused_across_calls() {
        let mut cg = CoreGroup::new(ExecMode::HostNative { threads: 3 });
        assert_eq!(cg.workers().started(), 0, "nothing starts before a fork");
        let first = helpers(cg.workers(), 9);
        let second = helpers(cg.workers(), 9);
        assert_eq!(first.len(), 2);
        assert_eq!(first, second, "the same two threads serve both calls");
        assert_eq!(cg.workers().started(), 2);
    }

    #[test]
    fn workers_grow_only_to_what_a_call_needs() {
        let mut workers = Workers::new(4);
        assert_eq!(helpers(&mut workers, 2).len(), 1);
        assert_eq!(workers.started(), 1);
        assert_eq!(helpers(&mut workers, 40).len(), 3);
        assert_eq!(workers.started(), 3);
    }

    #[test]
    fn workers_start_no_thread_at_one() {
        for mode in [
            ExecMode::HostNative { threads: 1 },
            ExecMode::Functional,
            ExecMode::TimingOnly,
        ] {
            let mut cg = CoreGroup::new(mode);
            assert!(helpers(cg.workers(), 16).is_empty(), "{mode:?}");
            assert_eq!(cg.workers().started(), 0, "{mode:?}");
        }
    }

    #[test]
    fn workers_raise_a_unit_panic_after_every_other_unit() {
        let mut cg = CoreGroup::new(ExecMode::HostNative { threads: 3 });
        let ran = AtomicUsize::new(0);
        let (told, hear) = mpsc::channel();
        let hear = Mutex::new(hear);
        // Bucket 1 holds units 1, 4 and 7, and unit 7 panics on a worker
        // after the rest of its bucket. Unit 8, the last of bucket 2,
        // starts only once unit 7 is about to panic, and then takes a
        // while.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            cg.workers().run((0..9).collect(), |i: usize| {
                if i == 7 {
                    told.send(()).unwrap();
                    panic!("unit 7 failed");
                }
                if i == 8 {
                    hear.lock().unwrap().recv().unwrap();
                    thread::sleep(std::time::Duration::from_millis(20));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = outcome.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 7 failed"));
        assert_eq!(ran.load(Ordering::SeqCst), 8, "every other unit ran first");

        // The same core group serves the next call in full.
        let hits: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        cg.workers().run((0..9).collect(), |i: usize| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        assert_eq!(cg.workers().started(), 2);
    }

    #[test]
    fn workers_wait_for_workers_when_the_caller_panics() {
        let mut workers = Workers::new(2);
        let ran = AtomicUsize::new(0);
        let (told, hear) = mpsc::channel();
        let hear = Mutex::new(hear);
        // The worker's unit starts once the caller's is about to panic.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            workers.run((0..2).collect(), |i: usize| {
                if i == 0 {
                    told.send(()).unwrap();
                    panic!("caller's unit failed");
                }
                hear.lock().unwrap().recv().unwrap();
                thread::sleep(std::time::Duration::from_millis(20));
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(outcome.is_err());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "the worker's unit finished first"
        );
    }

    #[test]
    fn workers_core_group_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CoreGroup>();
        assert_send::<Workers>();
    }
}

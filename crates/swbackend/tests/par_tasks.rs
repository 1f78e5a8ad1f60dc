//! `par_tasks` runs every unit exactly once whatever the thread and
//! task counts, and the calling thread takes a share of the work
//! instead of sleeping in the join.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use swbackend::par_tasks;

#[test]
fn every_task_runs_exactly_once() {
    for threads in [1, 2, 3, 8] {
        for tasks in [0, 1, 2, 7] {
            let hits: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
            par_tasks(threads, (0..tasks).collect(), |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            let hits: Vec<u32> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            assert_eq!(hits, vec![1; tasks], "threads={threads} tasks={tasks}");
        }
    }
}

#[test]
fn caller_runs_one_bucket_and_spawns_the_rest() {
    let caller = std::thread::current().id();
    for (threads, tasks, workers) in [(1, 7, 1), (2, 7, 2), (3, 7, 3), (8, 7, 7), (8, 2, 2)] {
        let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        par_tasks(threads, (0..tasks).collect(), |_: usize| {
            ran_on
                .lock()
                .expect("no task panics")
                .insert(std::thread::current().id());
        });
        let ran_on = ran_on.into_inner().expect("no task panics");
        assert!(ran_on.contains(&caller), "threads={threads} tasks={tasks}");
        assert_eq!(ran_on.len(), workers, "threads={threads} tasks={tasks}");
    }
}

//! # swbackend — a one-shot host fork/join
//!
//! A kernel's backend is the `sw26010::ExecMode` of the core group it
//! launches on; each `swdnn` kernel branches on that value directly
//! (`if let ExecMode::HostNative { .. } = cg.mode()`) and forks onto the
//! core group's own `sw26010::Workers`, threads that live as long as the
//! core group. [`par_tasks`] is that same fork for a caller with no core
//! group: it builds a worker set, runs one call on it and drops it, so
//! every call starts its threads and joins them.

use sw26010::Workers;

/// Run independent work units on `threads` threads (0 = one per
/// available host core): the caller's own plus `threads - 1` worker
/// threads started for this call alone and joined before it returns.
/// Units are dealt round-robin; see [`Workers::run`] for the contract,
/// which this shares.
pub fn par_tasks<I, F>(threads: usize, tasks: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    Workers::new(threads).run(tasks, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn par_tasks_covers_every_unit_once() {
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        par_tasks(4, (0..100).collect(), |i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Degenerate cases.
        par_tasks(8, Vec::<usize>::new(), |_| unreachable!());
        par_tasks(0, vec![0usize], |_| {});
    }
}

//! # swbackend — the host path's fork/join helper
//!
//! A kernel's backend is the `sw26010::ExecMode` of the core group it
//! launches on; each `swdnn` kernel branches on that value directly
//! (`if let ExecMode::HostNative { threads } = cg.mode()`). The
//! host-native path splits its work with [`par_tasks`] over
//! [`resolve_threads`] workers. There is no pool: every `par_tasks` call
//! spawns its scoped threads and joins them before it returns.

/// Resolve a requested worker count (0 = one per available host core).
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Run independent work units on `threads` threads: the caller's own
/// plus `threads - 1` scoped OS threads, so no worker is spawned only to
/// have the caller sleep in the join.
///
/// Units are distributed round-robin; since every unit's result is
/// fully determined by the unit itself (host mirrors never share
/// accumulators across units), the partition does not affect results —
/// output is bit-identical for any thread count, including 1.
pub fn par_tasks<I, F>(threads: usize, tasks: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let threads = resolve_threads(threads).min(tasks.len()).max(1);
    if threads == 1 {
        for t in tasks {
            f(t);
        }
        return;
    }
    let mut buckets: Vec<Vec<I>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        buckets[i % threads].push(t);
    }
    let f = &f;
    let mut buckets = buckets.into_iter();
    let own = buckets.next().expect("at least two buckets");
    std::thread::scope(|s| {
        for bucket in buckets {
            s.spawn(move || bucket.into_iter().for_each(f));
        }
        own.into_iter().for_each(f);
    });
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

//! # swbackend — where a kernel runs, chosen once per process
//!
//! A kernel's backend is the [`ExecMode`] of the core group it launches
//! on; each `swdnn` kernel branches on that value directly
//! (`if let ExecMode::HostNative { threads } = cg.mode()`). This crate
//! holds what the modes need beyond the value itself:
//!
//! * [`parse`] — the `--backend` names: `sw26010` (the simulated mesh,
//!   `ExecMode::Functional`), `host` and `host:<threads>`
//!   (`ExecMode::HostNative`).
//! * [`install_default`] / [`default_functional_mode`] — the
//!   process-default mode: the `--backend` flag if a binary installed
//!   one, else the `SWCAFFE_BACKEND` environment variable (read once),
//!   else `Functional`.
//! * [`par_tasks`] / [`resolve_threads`] — the host path's worker pool.

use std::sync::{Mutex, OnceLock};

use sw26010::ExecMode;

/// Resolve a `--backend` argument to the mode it names. Accepted names:
/// `sw26010` (aliases `sw`, `simulator`) for the simulated mesh, `host`
/// (alias `native`) for host-native on every core, `host:<threads>` for
/// host-native on `threads` workers.
pub fn parse(name: &str) -> Result<ExecMode, String> {
    match name {
        "sw26010" | "sw" | "simulator" => Ok(ExecMode::Functional),
        "host" | "native" => Ok(ExecMode::HostNative { threads: 0 }),
        other => {
            if let Some(t) = other.strip_prefix("host:") {
                let threads: usize = t
                    .parse()
                    .map_err(|_| format!("bad thread count in backend '{other}'"))?;
                return Ok(ExecMode::HostNative { threads });
            }
            Err(format!(
                "unknown backend '{other}' (expected sw26010, host or host:<threads>)"
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Process-default mode (the `--backend` flag / SWCAFFE_BACKEND env)
// ---------------------------------------------------------------------

static INSTALLED: Mutex<Option<ExecMode>> = Mutex::new(None);

/// Install the process-default mode (what [`default_functional_mode`]
/// follows). Called by binaries after parsing `--backend`; wins over the
/// environment.
pub fn install_default(mode: ExecMode) {
    *INSTALLED
        .lock()
        .expect("no panic while the default mode is held") = Some(mode);
}

fn env_default() -> Option<ExecMode> {
    static ENV: OnceLock<Option<ExecMode>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SWCAFFE_BACKEND")
            .ok()
            .filter(|v| !v.is_empty())
            .map(|v| parse(&v).unwrap_or_else(|e| panic!("SWCAFFE_BACKEND: {e}")))
    })
}

/// The mode value-materialising code should run in: the installed
/// default if any, else `SWCAFFE_BACKEND` (read once per process), else
/// `Functional`. An installed `TimingOnly` also yields `Functional`,
/// since the caller needs values.
pub fn default_functional_mode() -> ExecMode {
    let installed = *INSTALLED
        .lock()
        .expect("no panic while the default mode is held");
    match installed.or_else(env_default) {
        Some(ExecMode::TimingOnly) | None => ExecMode::Functional,
        Some(mode) => mode,
    }
}

// ---------------------------------------------------------------------
// Host-side parallel helper
// ---------------------------------------------------------------------

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
    fn parse_accepts_the_registry_names() {
        assert_eq!(parse("sw26010"), Ok(ExecMode::Functional));
        assert_eq!(parse("sw"), Ok(ExecMode::Functional));
        assert_eq!(parse("host"), Ok(ExecMode::HostNative { threads: 0 }));
        assert_eq!(parse("host:7"), Ok(ExecMode::HostNative { threads: 7 }));
        assert!(parse("cuda").is_err());
        assert!(parse("host:x").is_err());
        // No backend runs the cost models alone.
        assert!(parse("timing").is_err());
        assert!(parse("timing-only").is_err());
    }

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

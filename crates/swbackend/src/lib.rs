//! # swbackend — pluggable compute backends
//!
//! Separates *what* a kernel computes from *where* it runs (the kubecl /
//! SMAUG runtime split). Three backends share one kernel definition:
//!
//! * [`Sw26010`] — the cost-model-faithful simulator: kernels run on the
//!   64-thread CPE mesh with `KernelPlan` validation, charged simulated
//!   time and hardware counters. This is the blessed-baseline path.
//! * [`HostNative`] — plain blocked host loops on OS threads, **no timing
//!   model**: reports carry zero simulated time and zero counters, but
//!   values are bit-for-bit identical to `Sw26010` (the host mirrors
//!   replicate the mesh kernels' types and accumulation order exactly).
//! * [`TimingOnly`] — the analytic cost models only; no values move.
//!
//! Kernels dispatch through [`dispatch`], which resolves the core group's
//! [`ExecMode`] to a backend and asks it for its execution [`Path`]. The
//! backend carried by a mode is total — every mode maps to exactly one
//! backend — so a kernel without a host mirror simply keeps returning
//! [`Path::Mesh`] from its own dispatch site and degrades gracefully to
//! the (bit-identical, slower) simulated mesh.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use sw26010::ExecMode;

/// Backend identity, used for registry/reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    Sw26010,
    HostNative,
    TimingOnly,
}

/// Which execution path a kernel should take for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Run the validated mesh kernel on the simulator (timing + counters
    /// + optional happens-before checking).
    Mesh,
    /// Run the host mirror on `threads` OS threads (no timing model).
    Host { threads: usize },
    /// Charge the analytic model only.
    Timing,
}

/// A compute backend: resolves to an [`ExecMode`] for core groups and an
/// execution [`Path`] for kernel launches.
///
/// Invariants (see DESIGN.md):
/// * `Sw26010` carries timing, counters and checking; its results define
///   bitwise correctness.
/// * `HostNative` carries values only — bit-identical to `Sw26010` — and
///   reports zero time/counters.
/// * `TimingOnly` carries time/counters only; no values exist.
pub trait Backend: Send + Sync {
    fn kind(&self) -> BackendKind;
    /// Stable registry name (what `--backend` accepts).
    fn name(&self) -> &'static str;
    /// The mode a `CoreGroup` must run in for this backend.
    fn exec_mode(&self) -> ExecMode;
    /// The per-launch execution path kernels should take.
    fn path(&self) -> Path;
    /// Whether launch reports on this backend carry meaningful simulated
    /// time and counters.
    fn carries_timing(&self) -> bool {
        !matches!(self.path(), Path::Host { .. })
    }
    /// Whether the happens-before checker / `KernelPlan` validation can
    /// observe launches on this backend.
    fn carries_checking(&self) -> bool {
        matches!(self.path(), Path::Mesh)
    }
}

/// The simulator backend (default; blessed baselines run here).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sw26010;

/// The host-native backend. `threads == 0` means one worker per available
/// host core, resolved at launch time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostNative {
    pub threads: usize,
}

/// The cost-model-only backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingOnly;

impl Backend for Sw26010 {
    fn kind(&self) -> BackendKind {
        BackendKind::Sw26010
    }
    fn name(&self) -> &'static str {
        "sw26010"
    }
    fn exec_mode(&self) -> ExecMode {
        ExecMode::Functional
    }
    fn path(&self) -> Path {
        Path::Mesh
    }
}

impl Backend for HostNative {
    fn kind(&self) -> BackendKind {
        BackendKind::HostNative
    }
    fn name(&self) -> &'static str {
        "host"
    }
    fn exec_mode(&self) -> ExecMode {
        ExecMode::HostNative {
            threads: self.threads,
        }
    }
    fn path(&self) -> Path {
        Path::Host {
            threads: self.threads,
        }
    }
}

impl Backend for TimingOnly {
    fn kind(&self) -> BackendKind {
        BackendKind::TimingOnly
    }
    fn name(&self) -> &'static str {
        "timing"
    }
    fn exec_mode(&self) -> ExecMode {
        ExecMode::TimingOnly
    }
    fn path(&self) -> Path {
        Path::Timing
    }
}

/// Resolve a `--backend` argument to a backend. Accepted names:
/// `sw26010`/`sw` (simulator), `host`/`native` (host-native, optionally
/// `host:<threads>`), `timing` (cost models only).
pub fn parse(name: &str) -> Result<Box<dyn Backend>, String> {
    match name {
        "sw26010" | "sw" | "simulator" => Ok(Box::new(Sw26010)),
        "timing" | "timing-only" => Ok(Box::new(TimingOnly)),
        "host" | "native" => Ok(Box::new(HostNative { threads: 0 })),
        other => {
            if let Some(t) = other.strip_prefix("host:") {
                let threads: usize = t
                    .parse()
                    .map_err(|_| format!("bad thread count in backend '{other}'"))?;
                return Ok(Box::new(HostNative { threads }));
            }
            Err(format!(
                "unknown backend '{other}' (expected sw26010, host[:threads] or timing)"
            ))
        }
    }
}

/// The backend a core-group mode belongs to. Total: every mode maps to
/// exactly one backend.
pub fn backend_for(mode: ExecMode) -> Box<dyn Backend> {
    match mode {
        ExecMode::Functional => Box::new(Sw26010),
        ExecMode::TimingOnly => Box::new(TimingOnly),
        ExecMode::HostNative { threads } => Box::new(HostNative { threads }),
    }
}

/// Per-launch dispatch: the single point every swdnn kernel consults to
/// pick its execution path for the mode its core group runs in.
pub fn dispatch(mode: ExecMode) -> Path {
    backend_for(mode).path()
}

// ---------------------------------------------------------------------
// Process-default backend (the `--backend` flag / SWCAFFE_BACKEND env)
// ---------------------------------------------------------------------

const KIND_UNSET: u8 = 0;
const KIND_SW: u8 = 1;
const KIND_HOST: u8 = 2;
const KIND_TIMING: u8 = 3;

static DEFAULT_KIND: AtomicU8 = AtomicU8::new(KIND_UNSET);
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Install the process-default backend (what [`default_backend`]
/// returns). Called by binaries after parsing `--backend`.
pub fn install_default(backend: &dyn Backend) {
    let kind = match backend.kind() {
        BackendKind::Sw26010 => KIND_SW,
        BackendKind::HostNative => KIND_HOST,
        BackendKind::TimingOnly => KIND_TIMING,
    };
    if let ExecMode::HostNative { threads } = backend.exec_mode() {
        DEFAULT_THREADS.store(threads, Ordering::Relaxed);
    }
    DEFAULT_KIND.store(kind, Ordering::Relaxed);
}

fn env_default() -> &'static Option<Box<dyn Backend>> {
    static ENV: OnceLock<Option<Box<dyn Backend>>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("SWCAFFE_BACKEND")
            .ok()
            .filter(|v| !v.is_empty())
            .map(|v| parse(&v).unwrap_or_else(|e| panic!("SWCAFFE_BACKEND: {e}")))
    })
}

/// The process-default backend: `--backend` flag (via
/// [`install_default`]) if given, else the `SWCAFFE_BACKEND` environment
/// variable, else [`Sw26010`].
pub fn default_backend() -> Box<dyn Backend> {
    match DEFAULT_KIND.load(Ordering::Relaxed) {
        KIND_SW => Box::new(Sw26010),
        KIND_HOST => Box::new(HostNative {
            threads: DEFAULT_THREADS.load(Ordering::Relaxed),
        }),
        KIND_TIMING => Box::new(TimingOnly),
        _ => match env_default() {
            Some(b) => backend_for(b.exec_mode()),
            None => Box::new(Sw26010),
        },
    }
}

/// The mode value-materialising code should run in under the
/// process-default backend: `Functional` for `Sw26010` **and**
/// `TimingOnly` (values are still needed), `HostNative` for `host`.
pub fn default_functional_mode() -> ExecMode {
    match default_backend().exec_mode() {
        ExecMode::TimingOnly => ExecMode::Functional,
        mode => mode,
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

    #[test]
    fn modes_and_backends_are_a_bijection() {
        for mode in [
            ExecMode::Functional,
            ExecMode::TimingOnly,
            ExecMode::HostNative { threads: 3 },
        ] {
            assert_eq!(backend_for(mode).exec_mode(), mode);
        }
    }

    #[test]
    fn dispatch_paths() {
        assert_eq!(dispatch(ExecMode::Functional), Path::Mesh);
        assert_eq!(dispatch(ExecMode::TimingOnly), Path::Timing);
        assert_eq!(
            dispatch(ExecMode::HostNative { threads: 5 }),
            Path::Host { threads: 5 }
        );
    }

    #[test]
    fn parse_accepts_the_registry_names() {
        assert_eq!(parse("sw26010").unwrap().kind(), BackendKind::Sw26010);
        assert_eq!(parse("sw").unwrap().kind(), BackendKind::Sw26010);
        assert_eq!(parse("host").unwrap().kind(), BackendKind::HostNative);
        assert_eq!(
            parse("host:7").unwrap().exec_mode(),
            ExecMode::HostNative { threads: 7 }
        );
        assert_eq!(parse("timing").unwrap().kind(), BackendKind::TimingOnly);
        assert!(parse("cuda").is_err());
        assert!(parse("host:x").is_err());
    }

    #[test]
    fn invariant_flags() {
        assert!(Sw26010.carries_timing() && Sw26010.carries_checking());
        let host = HostNative { threads: 2 };
        assert!(!host.carries_timing() && !host.carries_checking());
        assert!(TimingOnly.carries_timing() && !TimingOnly.carries_checking());
    }

    #[test]
    fn par_tasks_covers_every_unit_once() {
        use std::sync::atomic::AtomicU32;
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

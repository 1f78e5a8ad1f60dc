//! Core group: one MPE + one 8x8 CPE cluster + one memory controller.
//!
//! A [`CoreGroup`] is the unit kernels are launched on and the unit the
//! swCaffe multi-threaded solver parallelises over (one pthread per CG,
//! Fig. 5 of the paper). It accumulates simulated time and hardware
//! counters across launches.
//!
//! With [`CheckMode::Record`] enabled the core group additionally keeps a
//! [`KernelTrace`] per launch for the `swcheck` sanitizer; recording is
//! off by default and costs nothing when off.
//!
//! Every launch runs its CPE bodies on the calling thread (see
//! [`crate::mesh`]). A kernel whose CPEs never wait for each other is a
//! `Fn(&mut Cpe)` and may be launched planned ([`CoreGroup::run_planned`]
//! / [`CoreGroup::try_run_planned`]) or unplanned ([`CoreGroup::run`] /
//! [`CoreGroup::run_named`]). A kernel that communicates or synchronises
//! is an `AsyncFn(&mut Cpe)` launched through
//! [`CoreGroup::run_planned_async`], whose plan declares the
//! [`RlcPattern`] that builds the register buses and the barrier.
//!
//! A core group also owns its main-memory scratch, the [`Workspace`]
//! that kernels stage intermediate operands in (the column matrix of the
//! explicit convolution, the host GEMM's packed operands). It lives as
//! long as the core group, so a trainer or serving engine that keeps its
//! core groups reuses the same buffers on every iteration.
//!
//! Beside it, a core group owns the host threads its `HostNative`
//! kernels fork onto, its [`Workers`]: started by the first kernel that
//! forks, blocked (not spinning) between kernels, and joined when the
//! core group is dropped. A `threads: 1` core group, and one in any
//! simulated mode, never starts a thread.

use std::fmt;

use crate::arch::MPE_PEAK_FLOPS;
use crate::check::{CheckMode, KernelTrace};
use crate::cpe::Cpe;
use crate::mesh;
use crate::plan::{KernelPlan, PlanViolation, RlcPattern};
use crate::stats::{LaunchReport, Stats};
use crate::time::{ExecMode, SimTime};
use crate::workers::Workers;

/// One SW26010 core group.
#[derive(Debug)]
pub struct CoreGroup {
    mode: ExecMode,
    stats: Stats,
    elapsed: SimTime,
    check: CheckMode,
    traces: Vec<KernelTrace>,
    workspace: Workspace,
    workers: Workers,
}

/// A core group's main-memory scratch: the counterpart of a launch's LDM
/// buffers, for what a kernel stages in main memory between launches or
/// on the host path. Its contents are unspecified when a kernel starts:
/// every kernel writes each element it reads first. The buffers keep
/// their capacity across calls, so the largest operands a core group has
/// staged stay allocated until the core group is dropped.
#[derive(Default)]
pub struct Workspace {
    /// Packed A rows, widened to f64 (host GEMM).
    pub a: Vec<f64>,
    /// Packed B panels, widened to f64 (host GEMM).
    pub b: Vec<f64>,
    /// The explicit convolution's column matrix.
    pub cols: Vec<f32>,
}

/// Byte counts only: the contents are scratch.
impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace")
            .field("a_bytes", &(self.a.capacity() * size_of::<f64>()))
            .field("b_bytes", &(self.b.capacity() * size_of::<f64>()))
            .field("cols_bytes", &(self.cols.capacity() * size_of::<f32>()))
            .finish()
    }
}

impl Default for CoreGroup {
    fn default() -> Self {
        Self::new(ExecMode::Functional)
    }
}

impl CoreGroup {
    pub fn new(mode: ExecMode) -> Self {
        CoreGroup {
            mode,
            stats: Stats::default(),
            elapsed: SimTime::ZERO,
            check: CheckMode::Off,
            traces: Vec::new(),
            workspace: Workspace::default(),
            workers: Workers::new(match mode {
                ExecMode::HostNative { threads } => threads,
                ExecMode::Functional | ExecMode::TimingOnly => 1,
            }),
        }
    }

    /// A core group with the kernel sanitizer armed: every launch records
    /// a [`KernelTrace`] retrievable via [`CoreGroup::take_traces`].
    pub fn new_checked(mode: ExecMode) -> Self {
        let mut cg = Self::new(mode);
        cg.check = CheckMode::Record;
        cg
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Current sanitizer mode.
    pub fn check_mode(&self) -> CheckMode {
        self.check
    }

    /// Drain the kernel traces recorded since the last call.
    pub fn take_traces(&mut self) -> Vec<KernelTrace> {
        std::mem::take(&mut self.traces)
    }

    /// This core group's main-memory scratch.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// The host threads this core group's `HostNative` kernels fork onto.
    pub fn workers(&mut self) -> &mut Workers {
        &mut self.workers
    }

    /// [`CoreGroup::workspace`] and [`CoreGroup::workers`] at once, for a
    /// host kernel that stages operands and forks.
    pub fn workspace_and_workers(&mut self) -> (&mut Workspace, &mut Workers) {
        (&mut self.workspace, &mut self.workers)
    }

    /// Launch a kernel on `n_cpes` CPEs of this core group's mesh and
    /// accumulate its time and counters.
    pub fn run<F>(&mut self, n_cpes: usize, kernel: F) -> LaunchReport
    where
        F: Fn(&mut Cpe),
    {
        self.run_named("unnamed", n_cpes, kernel)
    }

    /// Like [`CoreGroup::run`], with a kernel name carried into sanitizer
    /// traces and diagnostics.
    pub fn run_named<F>(&mut self, name: &str, n_cpes: usize, kernel: F) -> LaunchReport
    where
        F: Fn(&mut Cpe),
    {
        let kernel = async |cpe: &mut Cpe<'_>| kernel(cpe);
        self.launch(name, n_cpes, RlcPattern::None, &kernel)
    }

    /// Launch a kernel through its registered [`KernelPlan`]: the plan is
    /// validated first, so a shape whose working set cannot fit LDM is
    /// rejected with a named-buffer diagnostic *before* anything runs.
    pub fn run_planned<F>(&mut self, plan: &KernelPlan, kernel: F) -> LaunchReport
    where
        F: Fn(&mut Cpe),
    {
        self.run_planned_async(plan, async |cpe: &mut Cpe<'_>| kernel(cpe))
    }

    /// Like [`CoreGroup::run_planned`], for a kernel whose CPEs await
    /// register communication or the barrier. The buses and barrier exist
    /// when the plan declares an [`RlcPattern`] other than
    /// [`RlcPattern::None`].
    pub fn run_planned_async<F>(&mut self, plan: &KernelPlan, kernel: F) -> LaunchReport
    where
        F: AsyncFn(&mut Cpe<'_>),
    {
        plan.assert_valid();
        self.launch(&plan.name, plan.n_cpes, plan.rlc, &kernel)
    }

    /// Like [`CoreGroup::run_planned`], but an invalid plan is returned
    /// as the structured [`PlanViolation`] instead of panicking — the
    /// entry point for callers (like the autotuner's verification pass)
    /// that probe machine-generated plans.
    pub fn try_run_planned<F>(
        &mut self,
        plan: &KernelPlan,
        kernel: F,
    ) -> Result<LaunchReport, PlanViolation>
    where
        F: Fn(&mut Cpe),
    {
        plan.validate()?;
        let kernel = async |cpe: &mut Cpe<'_>| kernel(cpe);
        Ok(self.launch(&plan.name, plan.n_cpes, plan.rlc, &kernel))
    }

    /// Run one launch (`rlc`: the plan's pattern, [`RlcPattern::None`]
    /// when unplanned) and accumulate its time, counters and trace.
    fn launch<F>(&mut self, name: &str, n_cpes: usize, rlc: RlcPattern, kernel: &F) -> LaunchReport
    where
        F: AsyncFn(&mut Cpe<'_>),
    {
        let (report, trace) =
            mesh::launch(self.mode, n_cpes, name, rlc, self.check.is_on(), kernel);
        self.traces.extend(trace);
        self.stats.merge(&report.stats);
        self.elapsed += report.elapsed;
        report
    }

    /// Scalar compute on the MPE (11.6 GFlops peak).
    pub fn mpe_compute(&mut self, flops: u64) -> SimTime {
        let t = SimTime::from_seconds(flops as f64 / MPE_PEAK_FLOPS);
        self.stats.mpe_flops += flops;
        self.elapsed += t;
        t
    }

    /// Charge an externally-modelled duration (e.g. network wait) to this
    /// core group's timeline.
    pub fn charge(&mut self, t: SimTime) {
        self.elapsed += t;
    }

    /// Total simulated time accumulated on this core group.
    pub fn elapsed(&self) -> SimTime {
        self.elapsed
    }

    /// Accumulated hardware counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelPlan;

    #[test]
    fn accumulates_across_launches() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        cg.run(64, |cpe| cpe.charge_flops(1000));
        cg.run(64, |cpe| cpe.charge_flops(1000));
        assert_eq!(cg.stats().flops, 2 * 64 * 1000);
        assert_eq!(cg.stats().launches, 2);
        assert!(cg.elapsed().seconds() > 0.0);
    }

    #[test]
    fn mpe_paths_charge_time() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let t = cg.mpe_compute(11_600_000); // ~1 ms at 11.6 GFlops
        assert!((t.seconds() - 1.0e-3).abs() < 1e-9);
        cg.charge(t);
        assert!((cg.elapsed().seconds() - 2.0e-3).abs() < 1e-8);
        assert_eq!(cg.stats().mpe_flops, 11_600_000);
    }

    #[test]
    fn checked_runs_record_named_traces() {
        let mut cg = CoreGroup::new_checked(ExecMode::TimingOnly);
        assert!(cg.check_mode().is_on());
        cg.run_named("warmup", 8, |cpe| cpe.charge_flops(10));
        cg.run(8, |cpe| cpe.charge_flops(10));
        let traces = cg.take_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].name, "warmup");
        assert_eq!(traces[1].name, "unnamed");
        assert_eq!(traces[0].per_cpe.len(), 8);
        assert!(cg.take_traces().is_empty(), "traces drain once");
        let mut unchecked = CoreGroup::new(ExecMode::TimingOnly);
        unchecked.run(8, |cpe| cpe.charge_flops(10));
        assert!(unchecked.take_traces().is_empty());
    }

    #[test]
    fn unchecked_runs_record_nothing() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        cg.run(8, |cpe| cpe.charge_flops(10));
        assert!(cg.take_traces().is_empty());
    }

    #[test]
    fn try_run_planned_returns_violation_instead_of_panicking() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let good = KernelPlan::new("ok", 4).buffer("buf", 1024);
        let report = cg
            .try_run_planned(&good, |cpe| cpe.charge_flops(1))
            .unwrap();
        assert_eq!(report.stats.flops, 4);
        let bad = KernelPlan::new("huge", 4).buffer("buf", 1 << 20);
        let before = cg.stats().launches;
        assert!(matches!(
            cg.try_run_planned(&bad, |cpe| cpe.charge_flops(1)),
            Err(PlanViolation::LdmOverflow { .. })
        ));
        assert_eq!(cg.stats().launches, before, "rejected plan must not run");
    }

    #[test]
    fn run_planned_validates_then_runs() {
        let mut cg = CoreGroup::new_checked(ExecMode::TimingOnly);
        let plan = KernelPlan::new("tiny", 4).buffer("buf", 1024);
        cg.run_planned(&plan, |cpe| cpe.charge_flops(1));
        let traces = cg.take_traces();
        assert_eq!(traces[0].name, "tiny");
        assert_eq!(traces[0].n_cpes, 4);
    }

    #[test]
    fn every_launch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran = std::cell::RefCell::new(Vec::new());
        let note = |cpe: &Cpe| {
            let here = std::thread::current().id() == caller;
            ran.borrow_mut().push((cpe.idx(), here));
        };
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        cg.run(5, |cpe| note(cpe));
        cg.run_planned(&KernelPlan::new("path", 5), |cpe| note(cpe));
        let plan = KernelPlan::new("path", 5).rlc(RlcPattern::RowBroadcast);
        cg.run_planned_async(&plan, async |cpe| {
            if cpe.col() == 4 {
                cpe.rlc_row_bcast(&[1.0]).await;
            } else {
                cpe.rlc_row_recv(4, &mut [0.0]).await;
            }
            note(cpe);
        });
        // The sync bodies run in index order. The broadcast's receivers
        // suspend on their first poll and finish on their second, after
        // the sender.
        let sync: Vec<_> = (0..5).map(|i| (i, true)).collect();
        let bcast = [4, 0, 1, 2, 3].map(|i| (i, true));
        assert_eq!(
            ran.into_inner(),
            [&sync[..], &sync[..], &bcast[..]].concat()
        );
    }

    /// Launch `kernel` on two CPEs under a plan declaring no RLC.
    fn run_independent(name: &str, check: CheckMode, kernel: impl AsyncFn(&mut Cpe<'_>)) {
        let mut cg = match check {
            CheckMode::Off => CoreGroup::new(ExecMode::Functional),
            CheckMode::Record => CoreGroup::new_checked(ExecMode::Functional),
        };
        cg.run_planned_async(&KernelPlan::new(name, 2), kernel);
    }

    #[test]
    #[should_panic(expected = "kernel `misuse.send` CPE (0, 0) called rlc_row_send \
                               in an independent launch")]
    fn independent_launch_rejects_rlc_send() {
        run_independent("misuse.send", CheckMode::Off, async |cpe| {
            cpe.rlc_row_send(1 - cpe.col(), &[1.0]).await
        });
    }

    #[test]
    #[should_panic(expected = "kernel `misuse.recv` CPE (0, 0) called rlc_col_recv \
                               in an independent launch")]
    fn independent_launch_rejects_rlc_recv() {
        run_independent("misuse.recv", CheckMode::Record, async |cpe| {
            cpe.rlc_col_recv(1, &mut [0.0]).await
        });
    }

    #[test]
    #[should_panic(expected = "kernel `misuse.bcast` CPE (0, 0) called rlc_col_bcast \
                               in an independent launch")]
    fn independent_launch_rejects_rlc_bcast() {
        run_independent("misuse.bcast", CheckMode::Off, async |cpe| {
            cpe.rlc_col_bcast(&[1.0]).await
        });
    }

    #[test]
    #[should_panic(expected = "kernel `misuse.sync` CPE (0, 0) called sync \
                               in an independent launch")]
    fn independent_launch_rejects_sync() {
        run_independent("misuse.sync", CheckMode::Record, async |cpe| {
            cpe.sync().await
        });
    }

    #[test]
    #[should_panic(expected = "overflows LDM")]
    fn run_planned_rejects_overflowing_shape_before_launch() {
        let mut cg = CoreGroup::new(ExecMode::TimingOnly);
        let plan = KernelPlan::new("fat", 64).buffer("img", 1 << 20);
        cg.run_planned(&plan, |_| panic!("kernel must not run"));
    }
}

//! Mesh kernel launch: the simulator's equivalent of `athread_spawn` /
//! `athread_join`.
//!
//! A launch runs the kernel closure once per CPE on the first `n_cpes`
//! CPEs, each with its own [`Cpe`] context (LDM, DMA engine, local
//! clock). The launching plan's declared [`RlcPattern`] alone chooses how
//! those bodies execute:
//!
//! * **Threaded** — plans that declare register communication, and every
//!   unplanned launch ([`run_mesh`], [`run_mesh_traced`],
//!   `CoreGroup::run`/`run_named`): one scoped host thread per CPE, all
//!   sharing the register buses and the mesh barrier. RLC receives block
//!   exactly as the hardware FIFOs do, so a mis-scheduled kernel
//!   deadlocks in simulation the same way it would on silicon.
//! * **Independent** — plans that declare [`RlcPattern::None`]: the bodies
//!   run one after another on the launching thread, in index order, with
//!   no thread spawned and no buses or barrier built. A body that neither
//!   communicates nor synchronises cannot observe the other CPEs: DMA
//!   timing depends on the number of active CPEs, not on concurrency, and
//!   the disjoint-write contract of [`crate::view`] already forbids
//!   cross-CPE read-after-write inside one launch. So data, simulated
//!   time, counters, event logs and LDM high water are bit-identical to the
//!   threaded path. An RLC or barrier call in such a launch panics with
//!   the plan's name and the CPE.
//!
//! The launch's simulated duration is the spawn overhead plus the latest
//! per-CPE finish time.
//!
//! [`run_mesh_traced`] is the sanitizer entry point: same semantics and
//! bit-identical timing, but every CPE records a typed event log and
//! blocking operations wait with a timeout, so a deadlocked kernel is
//! unwound with per-CPE blocked-on diagnostics instead of hanging.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::arch::{ATHREAD_LAUNCH_OVERHEAD_SECONDS, CPES_PER_CG};
use crate::check::{CpeTrace, KernelTrace, LaunchCheck, StallMarker};
use crate::cpe::{Cpe, MeshLinks};
use crate::plan::RlcPattern;
use crate::stats::{LaunchReport, Stats};
use crate::time::{ExecMode, SimTime};

/// Run `kernel` on the first `n_cpes` CPEs (row-major) of one core group's
/// 8x8 mesh.
///
/// `kernel` must be deterministic given the CPE identity; all 64 instances
/// run concurrently on host threads.
pub fn run_mesh<F>(mode: ExecMode, n_cpes: usize, kernel: F) -> LaunchReport
where
    F: Fn(&mut Cpe) + Sync,
{
    run_mesh_inner(mode, n_cpes, "unnamed", None, false, &kernel).0
}

/// Run `kernel` under the sanitizer: identical data and simulated timing,
/// plus a complete per-CPE event trace for `swcheck` to analyze. Blocking
/// operations use bounded waits, so a deadlocked or diverged kernel
/// returns (with `stall` diagnostics in the trace) instead of hanging.
pub fn run_mesh_traced<F>(
    mode: ExecMode,
    n_cpes: usize,
    name: &str,
    kernel: F,
) -> (LaunchReport, KernelTrace)
where
    F: Fn(&mut Cpe) + Sync,
{
    let (report, trace) = run_mesh_inner(mode, n_cpes, name, None, true, &kernel);
    (report, trace.expect("traced launch must produce a trace"))
}

/// The one launch routine behind every entry point. `rlc` is the
/// launching plan's declared pattern, `None` for an unplanned launch;
/// `Some(RlcPattern::None)` selects the independent path. `traced` arms
/// the sanitizer and returns the launch's [`KernelTrace`].
pub(crate) fn run_mesh_inner<F>(
    mode: ExecMode,
    n_cpes: usize,
    name: &str,
    rlc: Option<RlcPattern>,
    traced: bool,
    kernel: &F,
) -> (LaunchReport, Option<KernelTrace>)
where
    F: Fn(&mut Cpe) + Sync,
{
    assert!(
        (1..=CPES_PER_CG).contains(&n_cpes),
        "launch must use 1..=64 CPEs, got {n_cpes}"
    );
    let links = (rlc != Some(RlcPattern::None)).then(|| MeshLinks::new(n_cpes));
    let check = traced.then(LaunchCheck::new);
    let links_ref = links.as_ref();
    let check_ref = check.as_ref();

    type CpeResult = Result<(SimTime, Stats, Option<CpeTrace>), Box<dyn std::any::Any + Send>>;

    let body = |idx: usize| -> CpeResult {
        let log = check_ref.map(|_| Rc::new(RefCell::new(Vec::new())));
        let mut cpe = Cpe::new(idx, n_cpes, mode, name, links_ref, log, check_ref);
        if check_ref.is_none() {
            // Unchecked fast path: no unwind catching; a panic surfaces
            // through the join, or straight to the caller when independent.
            kernel(&mut cpe);
            return Ok(cpe.finish());
        }
        match catch_unwind(AssertUnwindSafe(|| kernel(&mut cpe))) {
            Ok(()) => Ok(cpe.finish()),
            // A stall unwind (this CPE gave up on a blocked op) or
            // collateral damage of another CPE's stall (disconnected
            // channel, barrier timeout): keep the partial trace — it
            // carries the diagnostic.
            Err(p) if p.is::<StallMarker>() => Ok(cpe.finish()),
            Err(p) if check_ref.is_some_and(|c| c.is_stalled()) => {
                drop(p);
                Ok(cpe.finish())
            }
            Err(p) => Err(p),
        }
    };

    let per_cpe: Vec<CpeResult> = match links_ref {
        None => (0..n_cpes).map(body).collect(),
        Some(_) => std::thread::scope(|s| {
            let body = &body;
            let handles: Vec<_> = (0..n_cpes).map(|idx| s.spawn(move || body(idx))).collect();
            handles
                .into_iter()
                // Re-raise with the original payload so `should_panic`
                // expectations see the kernel's own message.
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        }),
    };

    let mut stats = Stats::default();
    let mut max_clock = SimTime::ZERO;
    let mut traces = Vec::new();
    for r in per_cpe {
        // A genuine kernel panic under tracing: re-raise it on the
        // launching thread with the original payload.
        let (clock, s, trace) = r.unwrap_or_else(|p| resume_unwind(p));
        stats.merge(&s);
        max_clock = max_clock.max(clock);
        traces.extend(trace);
    }
    stats.launches = 1;
    let report = LaunchReport {
        elapsed: SimTime::from_seconds(ATHREAD_LAUNCH_OVERHEAD_SECONDS) + max_clock,
        stats,
    };
    let trace = traced.then(|| KernelTrace {
        name: name.to_string(),
        n_cpes,
        rlc: rlc.unwrap_or_default(),
        per_cpe: traces,
    });
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{BlockedOn, CpeEvent, MemRange};
    use crate::view::{MemView, MemViewMut};

    #[test]
    fn all_64_cpes_run_with_identity() {
        let mut seen = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut seen);
        run_mesh(ExecMode::Functional, 64, |cpe| {
            let v = [cpe.idx() as f32 + 1.0];
            cpe.dma_put(out, cpe.idx(), &v);
            assert_eq!(cpe.idx(), cpe.row() * 8 + cpe.col());
        });
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.0);
        }
    }

    #[test]
    fn launch_time_includes_spawn_overhead() {
        let r = run_mesh(ExecMode::Functional, 8, |_| {});
        assert!(r.elapsed.seconds() >= ATHREAD_LAUNCH_OVERHEAD_SECONDS);
        assert_eq!(r.stats.launches, 1);
    }

    #[test]
    fn launch_time_is_max_over_cpes() {
        // One CPE does far more work; the launch takes its time.
        let r = run_mesh(ExecMode::TimingOnly, 64, |cpe| {
            if cpe.idx() == 13 {
                cpe.charge_flops(1_000_000);
            } else {
                cpe.charge_flops(10);
            }
        });
        let heavy =
            1_000_000.0 / (8.0 * crate::arch::KERNEL_COMPUTE_EFFICIENCY) / crate::arch::CLOCK_HZ;
        assert!(r.elapsed.seconds() >= heavy);
        assert_eq!(r.stats.flops, 1_000_000 + 63 * 10);
    }

    #[test]
    fn barrier_reconciles_clocks() {
        let r = run_mesh(ExecMode::TimingOnly, 16, |cpe| {
            if cpe.idx() == 0 {
                cpe.charge_flops(800_000);
            }
            cpe.sync();
            // After the barrier every CPE is at the straggler's time; more
            // work strictly extends the launch.
            cpe.charge_flops(800);
        });
        let straggler =
            800_000.0 / (8.0 * crate::arch::KERNEL_COMPUTE_EFFICIENCY) / crate::arch::CLOCK_HZ;
        let tail = 800.0 / (8.0 * crate::arch::KERNEL_COMPUTE_EFFICIENCY) / crate::arch::CLOCK_HZ;
        assert!(r.elapsed.seconds() >= straggler + tail);
    }

    #[test]
    fn rlc_ring_passes_values_around_a_row() {
        // CPE (0, c) sends its value to (0, (c+1) % 8); verify arrival.
        let mut results = vec![0.0f32; 8];
        let out = MemViewMut::new(&mut results);
        run_mesh(ExecMode::Functional, 8, |cpe| {
            let me = [cpe.col() as f64 * 10.0];
            let dst = (cpe.col() + 1) % 8;
            let src = (cpe.col() + 7) % 8;
            cpe.rlc_row_send(dst, &me);
            let mut buf = [0.0f64];
            cpe.rlc_row_recv(src, &mut buf);
            cpe.dma_put(out, cpe.col(), &[buf[0] as f32]);
        });
        for (c, r) in results.iter().enumerate() {
            let src = (c + 7) % 8;
            assert_eq!(*r, src as f32 * 10.0);
        }
    }

    #[test]
    fn row_broadcast_reaches_all_active_row_members() {
        let mut results = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut results);
        run_mesh(ExecMode::Functional, 64, |cpe| {
            // Column 3 of each row broadcasts row*100.
            if cpe.col() == 3 {
                cpe.rlc_row_bcast(&[cpe.row() as f64 * 100.0]);
                cpe.dma_put(out, cpe.idx(), &[cpe.row() as f32 * 100.0]);
            } else {
                let mut buf = [0.0f64];
                cpe.rlc_row_recv(3, &mut buf);
                cpe.dma_put(out, cpe.idx(), &[buf[0] as f32]);
            }
        });
        for (idx, r) in results.iter().enumerate() {
            assert_eq!(*r, (idx / 8) as f32 * 100.0);
        }
    }

    #[test]
    fn col_broadcast_reaches_column() {
        let mut results = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut results);
        run_mesh(ExecMode::Functional, 64, |cpe| {
            if cpe.row() == 5 {
                cpe.rlc_col_bcast(&[cpe.col() as f64 + 0.5]);
                cpe.dma_put(out, cpe.idx(), &[cpe.col() as f32 + 0.5]);
            } else {
                let mut buf = [0.0f64];
                cpe.rlc_col_recv(5, &mut buf);
                cpe.dma_put(out, cpe.idx(), &[buf[0] as f32]);
            }
        });
        for (idx, r) in results.iter().enumerate() {
            assert_eq!(*r, (idx % 8) as f32 + 0.5);
        }
    }

    #[test]
    fn timing_only_mode_skips_data_but_charges_time() {
        let src_data = vec![1.0f32; 1024];
        let mut dst_data = vec![0.0f32; 1024];
        let src = MemView::new(&src_data);
        let dst = MemViewMut::new(&mut dst_data);
        let r = run_mesh(ExecMode::TimingOnly, 1, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(1024);
            cpe.dma_get(src, 0, &mut buf);
            cpe.dma_put(dst, 0, &buf);
        });
        assert!(
            dst_data.iter().all(|&v| v == 0.0),
            "timing-only must not move data"
        );
        assert_eq!(r.stats.dma_get_bytes, 4096);
        assert_eq!(r.stats.dma_put_bytes, 4096);
        assert!(r.elapsed.seconds() > 0.0);
    }

    #[test]
    fn timing_matches_between_modes() {
        let src_data = vec![1.0f32; 4096];
        let src = MemView::new(&src_data);
        let run = |mode| {
            run_mesh(mode, 64, |cpe| {
                let mut buf = cpe.ldm.alloc_f32(64);
                cpe.dma_get(src, cpe.idx() * 64, &mut buf);
                cpe.charge_flops(1000);
                cpe.sync();
            })
        };
        let f = run(ExecMode::Functional);
        let t = run(ExecMode::TimingOnly);
        assert!((f.elapsed.seconds() - t.elapsed.seconds()).abs() < 1e-15);
        assert_eq!(f.stats.dma_get_bytes, t.stats.dma_get_bytes);
        assert_eq!(f.stats.flops, t.stats.flops);
    }

    #[test]
    fn async_dma_overlaps_with_compute() {
        let src_data = vec![0.0f32; 1 << 16];
        let src = MemView::new(&src_data);
        // Sequential: get then compute. Overlapped: async get, compute, wait.
        let seq = run_mesh(ExecMode::TimingOnly, 1, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(8192);
            cpe.dma_get(src, 0, &mut buf);
            cpe.charge_flops(40_000);
        });
        let ovl = run_mesh(ExecMode::TimingOnly, 1, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(8192);
            let h = cpe.dma_get_async(src, 0, &mut buf);
            cpe.charge_flops(40_000);
            cpe.dma_wait(h);
        });
        assert!(ovl.elapsed.seconds() < seq.elapsed.seconds());
    }

    #[test]
    #[should_panic(expected = "stale or already-waited")]
    fn double_wait_panics_unchecked() {
        let src_data = vec![0.0f32; 256];
        let src = MemView::new(&src_data);
        run_mesh(ExecMode::Functional, 1, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(256);
            let h = cpe.dma_get_async(src, 0, &mut buf);
            cpe.dma_wait(h);
            cpe.dma_wait(h); // stale: must panic
        });
    }

    /// `events` with every host address replaced by (LDM allocation id,
    /// offset), so the logs of two runs compare equal.
    fn rebased(events: &[CpeEvent]) -> Vec<CpeEvent> {
        fn rebase(live: &[(u64, MemRange)], r: MemRange) -> MemRange {
            let (id, buf) = live
                .iter()
                .rev()
                .find(|(_, b)| b.lo <= r.lo && r.hi <= b.hi)
                .expect("every range lies in an LDM buffer");
            let lo = ((*id as usize) << 32) | (r.lo - buf.lo);
            MemRange {
                lo,
                hi: lo + r.len(),
            }
        }
        let mut live: Vec<(u64, MemRange)> = Vec::new();
        events
            .iter()
            .map(|e| {
                let mut e = e.clone();
                match &mut e {
                    CpeEvent::LdmAlloc { id, range, .. } => {
                        live.push((*id, *range));
                        *range = rebase(&live, *range);
                    }
                    CpeEvent::DmaIssue { range, .. }
                    | CpeEvent::RlcSend { range, .. }
                    | CpeEvent::RlcRecv { range, .. }
                    | CpeEvent::LdmFree { range, .. } => *range = rebase(&live, *range),
                    _ => {}
                }
                e
            })
            .collect()
    }

    #[test]
    fn traced_run_is_bit_identical_and_records_events() {
        /// Every operation an independent body may use: async and sync
        /// DMA, strided DMA, accumulate, LDM alloc/free and compute. With
        /// `sync`, the CPEs also skew their clocks and meet at the mesh
        /// barrier, which only the threaded path supports.
        fn body(
            cpe: &mut Cpe,
            src: MemView<'_>,
            out: MemViewMut<'_>,
            acc: MemViewMut<'_>,
            sync: bool,
        ) {
            let n = 64;
            let base = cpe.idx() * n;
            let mut buf = cpe.ldm.alloc_f32(n);
            let h = cpe.dma_get_async(src, base, &mut buf);
            cpe.dma_wait(h);
            {
                let mut strided = cpe.ldm.alloc_f32(n / 2);
                cpe.dma_get_strided(src, base, 8, 16, 4, &mut strided);
                cpe.compute(n as u64 / 2, || {
                    for (b, s) in buf.iter_mut().zip(strided.iter()) {
                        *b += 2.0 * s;
                    }
                });
            }
            let mut tail = cpe.ldm.alloc_f32(n / 4);
            cpe.dma_get(src, base + 3 * n / 4, &mut tail);
            cpe.compute(n as u64, || {
                for v in buf.iter_mut() {
                    *v += 1.0;
                }
            });
            if sync {
                // Skewed on both sides of the barrier, so the launch time
                // depends on the barrier reconciling every clock to the max.
                let (idx, last) = (cpe.idx() as u64, cpe.n_active() as u64 - 1);
                cpe.charge_flops(100 * idx);
                cpe.sync();
                cpe.charge_flops(100 * (last - idx));
            }
            cpe.dma_put_strided(out, base, 16, 32, 2, &buf[..n / 2]);
            let h = cpe.dma_put_async(out, base + 16, &buf[n / 2..3 * n / 4]);
            cpe.dma_wait(h);
            cpe.dma_put(out, base + 48, &tail);
            cpe.dma_accumulate(acc, base, &buf);
        }
        let src_data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let src = MemView::new(&src_data);
        for n_cpes in [1, 7, 64] {
            for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
                let run = |rlc: Option<RlcPattern>, traced: bool, sync: bool| {
                    let mut out = vec![0.0f32; 64 * n_cpes];
                    let mut acc: Vec<f32> = (0..64 * n_cpes).map(|i| i as f32 * 0.5).collect();
                    let (o, a) = (MemViewMut::new(&mut out), MemViewMut::new(&mut acc));
                    let kernel = move |cpe: &mut Cpe| body(cpe, src, o, a, sync);
                    let (report, trace) =
                        run_mesh_inner(mode, n_cpes, "equiv", rlc, traced, &kernel);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    (bits(&out), bits(&acc), report, trace)
                };
                let independent = Some(RlcPattern::None);
                let threaded = run(None, false, false);
                let what = format!("{n_cpes} CPEs, {mode:?}");
                let mut traces = Vec::new();
                for (rlc, traced) in [(None, true), (independent, false), (independent, true)] {
                    let other = run(rlc, traced, false);
                    let path = format!("{what}, rlc {rlc:?}, traced {traced}");
                    assert_eq!(threaded.0, other.0, "{path}: output");
                    assert_eq!(threaded.1, other.1, "{path}: accumulated output");
                    assert_eq!(
                        threaded.2.elapsed.seconds().to_bits(),
                        other.2.elapsed.seconds().to_bits(),
                        "{path}: simulated time"
                    );
                    assert_eq!(threaded.2.stats, other.2.stats, "{path}: stats");
                    traces.extend(other.3);
                }
                if mode.is_functional() {
                    assert_ne!(threaded.0, vec![0; 64 * n_cpes], "{what}: kernel wrote");
                }
                let [a, b] = &traces[..] else {
                    panic!("{what}: two traced runs, two traces")
                };
                assert_eq!(
                    (a.name.as_str(), a.n_cpes, a.rlc),
                    ("equiv", n_cpes, RlcPattern::None)
                );
                assert_eq!(
                    (b.name.as_str(), b.n_cpes, b.rlc),
                    ("equiv", n_cpes, RlcPattern::None)
                );
                assert_eq!(a.per_cpe.len(), n_cpes);
                assert_eq!(b.per_cpe.len(), n_cpes);
                for (x, y) in a.per_cpe.iter().zip(&b.per_cpe) {
                    assert_eq!((x.idx, x.row, x.col), (y.idx, y.row, y.col));
                    assert_eq!(
                        rebased(&x.events),
                        rebased(&y.events),
                        "{what}: CPE {}",
                        x.idx
                    );
                    assert_eq!(x.ldm_high_water, y.ldm_high_water);
                    assert!(x.leaked_dma.is_empty() && y.leaked_dma.is_empty());
                    assert!(x.stall.is_none() && y.stall.is_none());
                }
                assert_eq!(a.ldm_high_water(), (64 + 32) * 4);
                let events = &a.per_cpe[0].events;
                assert!(events
                    .iter()
                    .any(|e| matches!(e, CpeEvent::DmaIssue { seq: 0, .. })));
                assert!(events
                    .iter()
                    .any(|e| matches!(e, CpeEvent::LdmFree { id: 1, .. })));

                // A synchronising kernel on the threaded path: the checked
                // barrier must reconcile clocks exactly as the plain one.
                let plain = run(None, false, true);
                let (o, acc, report, trace) = run(None, true, true);
                let trace = trace.expect("traced launch returns a trace");
                assert_eq!(plain.0, o, "{what}, sync: output");
                assert_eq!(plain.1, acc, "{what}, sync: accumulated output");
                assert_eq!(
                    plain.2.elapsed.seconds().to_bits(),
                    report.elapsed.seconds().to_bits(),
                    "{what}, sync: simulated time"
                );
                assert_eq!(plain.2.stats, report.stats, "{what}, sync: stats");
                assert!(
                    plain.2.elapsed.seconds() > threaded.2.elapsed.seconds() || n_cpes == 1,
                    "{what}: the barrier waits for the slowest CPE"
                );
                assert_eq!(trace.name, "equiv");
                assert_eq!(trace.per_cpe.len(), n_cpes);
                assert!(!trace.stalled());
                for c in &trace.per_cpe {
                    assert!(
                        c.events
                            .iter()
                            .any(|e| matches!(e, CpeEvent::Barrier { n: 1 })),
                        "{what}: CPE {} records the barrier",
                        c.idx
                    );
                    assert!(c.leaked_dma.is_empty());
                }
            }
        }
    }

    #[test]
    fn traced_deadlock_unwinds_with_diagnostics() {
        // Every CPE of a pair waits for the other to send first: a classic
        // cyclic RLC wait. Untraced this would hang; traced it must return
        // with both CPEs marked blocked on the receive.
        let (_, trace) = run_mesh_traced(ExecMode::Functional, 2, "deadlock", |cpe| {
            let mut buf = [0.0f64];
            let other = 1 - cpe.col();
            cpe.rlc_row_recv(other, &mut buf); // both block here forever
            cpe.rlc_row_send(other, &buf);
        });
        assert!(trace.stalled());
        for c in &trace.per_cpe {
            assert!(
                matches!(c.stall, Some(BlockedOn::RlcRecv { .. })),
                "CPE {} stall = {:?}",
                c.idx,
                c.stall
            );
        }
    }

    #[test]
    fn traced_barrier_divergence_unwinds() {
        // CPE 0 exits without syncing while CPE 1 waits in the barrier.
        let (_, trace) = run_mesh_traced(ExecMode::Functional, 2, "diverge", |cpe| {
            if cpe.idx() == 1 {
                cpe.sync();
            }
        });
        assert!(trace.stalled());
        assert_eq!(trace.per_cpe[1].stall, Some(BlockedOn::Barrier));
        assert_eq!(trace.per_cpe[0].stall, None);
    }
}

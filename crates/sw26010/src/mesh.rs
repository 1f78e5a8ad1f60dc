//! Mesh kernel launch: the simulator's equivalent of `athread_spawn` /
//! `athread_join`.
//!
//! A launch runs the kernel once per CPE on the first `n_cpes` CPEs, each
//! with its own [`Cpe`] context (LDM, DMA engine, local clock), and every
//! launch runs on the launching thread. Each CPE body is a future; a
//! small executor polls them round-robin in index order until all have
//! finished. A body suspends only inside the operations that wait for a
//! peer — a register receive from an empty FIFO, a send into a full one,
//! a barrier its peers have not all reached — so a body that never
//! communicates (every `Fn(&mut Cpe)` kernel) finishes on its first poll,
//! and the launch is the bodies one after another in index order. A
//! receive's completion time depends only on the message's send time, and
//! a wait on a full FIFO charges nothing, so data, simulated time,
//! counters, event logs and LDM high water do not depend on the
//! interleaving.
//!
//! The register buses and the barrier are built only when the launching
//! plan declares a [`RlcPattern`] other than [`RlcPattern::None`]; under
//! `None` an RLC or barrier call panics with the plan's name and the CPE.
//!
//! Deadlock is detected exactly, with no timeout: a full round of polls
//! with no FIFO push or pop, no barrier arrival and no body finished
//! leaves the mesh in the state it started the round in, so no later
//! round can differ. A checked launch then returns with every blocked
//! CPE's [`BlockedOn`](crate::check::BlockedOn) in its trace, for
//! `swcheck` to classify; an unchecked launch panics naming the kernel
//! and every blocked CPE. Bodies may await only [`Cpe`] operations.
//!
//! The launch's simulated duration is the spawn overhead plus the latest
//! per-CPE finish time.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use crate::arch::{ATHREAD_LAUNCH_OVERHEAD_SECONDS, CPES_PER_CG};
use crate::check::KernelTrace;
use crate::cpe::{Cpe, MeshLinks};
use crate::plan::RlcPattern;
use crate::stats::{LaunchReport, Stats};
use crate::time::{ExecMode, SimTime};

/// The one launch routine behind every entry point. `rlc` is the
/// launching plan's declared pattern ([`RlcPattern::None`] for an
/// unplanned launch); the buses and barrier exist only for another
/// pattern. `traced` arms the sanitizer and returns the launch's
/// [`KernelTrace`].
pub(crate) fn launch<F>(
    mode: ExecMode,
    n_cpes: usize,
    name: &str,
    rlc: RlcPattern,
    traced: bool,
    kernel: &F,
) -> (LaunchReport, Option<KernelTrace>)
where
    F: AsyncFn(&mut Cpe<'_>),
{
    assert!(
        (1..=CPES_PER_CG).contains(&n_cpes),
        "launch must use 1..=64 CPEs, got {n_cpes}"
    );
    let links = (rlc != RlcPattern::None).then(|| MeshLinks::new(n_cpes));
    let mut cpes: Vec<Cpe> = (0..n_cpes)
        .map(|idx| {
            let log = traced.then(|| Rc::new(RefCell::new(Vec::new())));
            Cpe::new(idx, n_cpes, mode, name, links.as_ref(), log)
        })
        .collect();
    let bodies = cpes
        .iter_mut()
        .map(|cpe| Box::pin(kernel(cpe)) as Pin<Box<dyn Future<Output = ()> + '_>>)
        .collect();
    let deadlocked = poll_round_robin(bodies, || links.as_ref().map_or(0, MeshLinks::progress));
    if deadlocked && !traced {
        let blocked: Vec<String> = cpes
            .iter()
            .filter_map(|c| {
                let on = c.blocked_on()?;
                Some(format!("CPE ({}, {}) blocked on {on}", c.row(), c.col()))
            })
            .collect();
        panic!("kernel `{name}` deadlocked: {}", blocked.join("; "));
    }

    let mut stats = Stats::default();
    let mut max_clock = SimTime::ZERO;
    let mut traces = Vec::new();
    for cpe in cpes {
        let (clock, s, trace) = cpe.finish();
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
        rlc,
        per_cpe: traces,
    });
    (report, trace)
}

/// Poll `bodies` round-robin in index order until all have finished, or
/// until a full round moves nothing: no body finishes and `progress`
/// (the launch's FIFO and barrier operations) stays put. Returns `true`
/// in that case, a deadlock, leaving the blocked bodies unfinished.
fn poll_round_robin(
    mut bodies: Vec<Pin<Box<dyn Future<Output = ()> + '_>>>,
    progress: impl Fn() -> u64,
) -> bool {
    let mut cx = Context::from_waker(Waker::noop());
    while !bodies.is_empty() {
        let before = (progress(), bodies.len());
        bodies.retain_mut(|body| body.as_mut().poll(&mut cx).is_pending());
        if (progress(), bodies.len()) == before {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use std::future::Future;
    use std::pin::pin;
    use std::task::{Context, Poll, Waker};

    use super::*;
    use crate::cg::CoreGroup;
    use crate::check::{BlockedOn, CpeEvent, MemRange};
    use crate::plan::KernelPlan;
    use crate::view::{MemView, MemViewMut};

    fn run<F: Fn(&mut Cpe)>(mode: ExecMode, n_cpes: usize, kernel: F) -> LaunchReport {
        CoreGroup::new(mode).run(n_cpes, kernel)
    }

    /// Launch a communicating `kernel` under a plan declaring `rlc`.
    fn run_async<F>(mode: ExecMode, n_cpes: usize, rlc: RlcPattern, kernel: F) -> LaunchReport
    where
        F: AsyncFn(&mut Cpe<'_>),
    {
        let plan = KernelPlan::new("mesh_test", n_cpes).rlc(rlc);
        CoreGroup::new(mode).run_planned_async(&plan, kernel)
    }

    /// Like [`run_async`] on a checked core group; returns the trace.
    fn run_async_traced<F>(n_cpes: usize, name: &str, kernel: F) -> KernelTrace
    where
        F: AsyncFn(&mut Cpe<'_>),
    {
        let plan = KernelPlan::new(name, n_cpes).rlc(RlcPattern::PointToPoint);
        let mut cg = CoreGroup::new_checked(ExecMode::Functional);
        cg.run_planned_async(&plan, kernel);
        cg.take_traces()
            .pop()
            .expect("checked launch records a trace")
    }

    #[test]
    fn all_64_cpes_run_with_identity() {
        let mut seen = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut seen);
        run(ExecMode::Functional, 64, |cpe| {
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
        let r = run(ExecMode::Functional, 8, |_| {});
        assert!(r.elapsed.seconds() >= ATHREAD_LAUNCH_OVERHEAD_SECONDS);
        assert_eq!(r.stats.launches, 1);
    }

    #[test]
    fn launch_time_is_max_over_cpes() {
        // One CPE does far more work; the launch takes its time.
        let r = run(ExecMode::TimingOnly, 64, |cpe| {
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
        let r = run_async(
            ExecMode::TimingOnly,
            16,
            RlcPattern::PointToPoint,
            async |cpe| {
                if cpe.idx() == 0 {
                    cpe.charge_flops(800_000);
                }
                cpe.sync().await;
                // After the barrier every CPE is at the straggler's time;
                // more work strictly extends the launch.
                cpe.charge_flops(800);
            },
        );
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
        run_async(
            ExecMode::Functional,
            8,
            RlcPattern::PointToPoint,
            async |cpe| {
                let me = [cpe.col() as f64 * 10.0];
                let dst = (cpe.col() + 1) % 8;
                let src = (cpe.col() + 7) % 8;
                cpe.rlc_row_send(dst, &me).await;
                let mut buf = [0.0f64];
                cpe.rlc_row_recv(src, &mut buf).await;
                cpe.dma_put(out, cpe.col(), &[buf[0] as f32]);
            },
        );
        for (c, r) in results.iter().enumerate() {
            let src = (c + 7) % 8;
            assert_eq!(*r, src as f32 * 10.0);
        }
    }

    #[test]
    fn row_broadcast_reaches_all_active_row_members() {
        let mut results = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut results);
        run_async(
            ExecMode::Functional,
            64,
            RlcPattern::RowBroadcast,
            async |cpe| {
                // Column 3 of each row broadcasts row*100.
                if cpe.col() == 3 {
                    cpe.rlc_row_bcast(&[cpe.row() as f64 * 100.0]).await;
                    cpe.dma_put(out, cpe.idx(), &[cpe.row() as f32 * 100.0]);
                } else {
                    let mut buf = [0.0f64];
                    cpe.rlc_row_recv(3, &mut buf).await;
                    cpe.dma_put(out, cpe.idx(), &[buf[0] as f32]);
                }
            },
        );
        for (idx, r) in results.iter().enumerate() {
            assert_eq!(*r, (idx / 8) as f32 * 100.0);
        }
    }

    #[test]
    fn col_broadcast_reaches_column() {
        let mut results = vec![0.0f32; 64];
        let out = MemViewMut::new(&mut results);
        run_async(
            ExecMode::Functional,
            64,
            RlcPattern::ColBroadcast,
            async |cpe| {
                if cpe.row() == 5 {
                    cpe.rlc_col_bcast(&[cpe.col() as f64 + 0.5]).await;
                    cpe.dma_put(out, cpe.idx(), &[cpe.col() as f32 + 0.5]);
                } else {
                    let mut buf = [0.0f64];
                    cpe.rlc_col_recv(5, &mut buf).await;
                    cpe.dma_put(out, cpe.idx(), &[buf[0] as f32]);
                }
            },
        );
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
        let r = run(ExecMode::TimingOnly, 1, |cpe| {
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
            run_async(mode, 64, RlcPattern::PointToPoint, async |cpe| {
                let mut buf = cpe.ldm.alloc_f32(64);
                cpe.dma_get(src, cpe.idx() * 64, &mut buf);
                cpe.charge_flops(1000);
                cpe.sync().await;
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
        let seq = run(ExecMode::TimingOnly, 1, |cpe| {
            let mut buf = cpe.ldm.alloc_f32(8192);
            cpe.dma_get(src, 0, &mut buf);
            cpe.charge_flops(40_000);
        });
        let ovl = run(ExecMode::TimingOnly, 1, |cpe| {
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
        run(ExecMode::Functional, 1, |cpe| {
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
                hi: lo + (r.hi - r.lo),
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

    /// Drive a future that never suspends to completion.
    fn now<T>(f: impl Future<Output = T>) -> T {
        match pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(v) => v,
            Poll::Pending => panic!("a non-communicating body suspended"),
        }
    }

    /// How a test launch is made.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        /// `CoreGroup::run_named` with a sync body.
        Unplanned,
        /// `CoreGroup::run_planned` with a sync body, plan `RlcPattern::None`.
        Planned,
        /// `CoreGroup::run_planned_async` under a plan declaring the pattern.
        Async(RlcPattern),
    }

    #[test]
    fn traced_run_is_bit_identical_and_records_events() {
        /// Every operation an independent body may use: async and sync
        /// DMA, strided DMA, LDM alloc/free and compute. With
        /// `sync`, the CPEs also skew their clocks and meet at the mesh
        /// barrier, which needs a plan declaring register communication.
        async fn body(
            cpe: &mut Cpe<'_>,
            src: MemView<'_>,
            out: MemViewMut<'_>,
            copy: MemViewMut<'_>,
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
                let idx = cpe.idx() as u64;
                cpe.charge_flops(100 * idx);
                cpe.sync().await;
                cpe.charge_flops(100 * (63 - idx));
            }
            cpe.dma_put_strided(out, base, 16, 32, 2, &buf[..n / 2]);
            let h = cpe.dma_put_async(out, base + 16, &buf[n / 2..3 * n / 4]);
            cpe.dma_wait(h);
            cpe.dma_put(out, base + 48, &tail);
            cpe.dma_put(copy, base, &buf);
        }
        let src_data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let src = MemView::new(&src_data);
        for n_cpes in [1, 7, 64] {
            for mode in [ExecMode::Functional, ExecMode::TimingOnly] {
                let run = |entry: Entry, traced: bool, sync: bool| {
                    let mut out = vec![0.0f32; 64 * n_cpes];
                    let mut copy = vec![0.0f32; 64 * n_cpes];
                    let (o, c) = (MemViewMut::new(&mut out), MemViewMut::new(&mut copy));
                    let mut cg = match traced {
                        true => CoreGroup::new_checked(mode),
                        false => CoreGroup::new(mode),
                    };
                    let plan = KernelPlan::new("equiv", n_cpes);
                    let report = match entry {
                        Entry::Unplanned => cg.run_named("equiv", n_cpes, |cpe| {
                            now(body(cpe, src, o, c, sync));
                        }),
                        Entry::Planned => {
                            cg.run_planned(&plan, |cpe| now(body(cpe, src, o, c, sync)))
                        }
                        Entry::Async(rlc) => cg.run_planned_async(&plan.rlc(rlc), async |cpe| {
                            body(cpe, src, o, c, sync).await
                        }),
                    };
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    (bits(&out), bits(&copy), report, cg.take_traces().pop())
                };
                let reference = run(Entry::Unplanned, false, false);
                let what = format!("{n_cpes} CPEs, {mode:?}");
                let mut traces = Vec::new();
                let p2p = RlcPattern::PointToPoint;
                for (entry, traced) in [
                    (Entry::Unplanned, true),
                    (Entry::Planned, false),
                    (Entry::Planned, true),
                    (Entry::Async(RlcPattern::None), false),
                    (Entry::Async(RlcPattern::None), true),
                    (Entry::Async(p2p), false),
                    (Entry::Async(p2p), true),
                ] {
                    let other = run(entry, traced, false);
                    let path = format!("{what}, {entry:?}, traced {traced}");
                    assert_eq!(reference.0, other.0, "{path}: output");
                    assert_eq!(reference.1, other.1, "{path}: copied output");
                    assert_eq!(
                        reference.2.elapsed.seconds().to_bits(),
                        other.2.elapsed.seconds().to_bits(),
                        "{path}: simulated time"
                    );
                    assert_eq!(reference.2.stats, other.2.stats, "{path}: stats");
                    assert_eq!(other.3.is_some(), traced, "{path}: trace");
                    traces.extend(other.3.map(|t| (entry, t)));
                }
                if mode.is_functional() {
                    assert_ne!(reference.0, vec![0; 64 * n_cpes], "{what}: kernel wrote");
                }
                let (_, a) = &traces[0];
                for (entry, b) in &traces {
                    let rlc = match entry {
                        Entry::Async(p) => *p,
                        _ => RlcPattern::None,
                    };
                    assert_eq!((b.name.as_str(), b.n_cpes, b.rlc), ("equiv", n_cpes, rlc));
                    assert_eq!(b.per_cpe.len(), n_cpes);
                    for (i, (x, y)) in a.per_cpe.iter().zip(&b.per_cpe).enumerate() {
                        assert_eq!((x.row, x.col), (y.row, y.col));
                        assert_eq!(
                            rebased(&x.events),
                            rebased(&y.events),
                            "{what}, {entry:?}: CPE {i}"
                        );
                        assert!(y.leaked_dma.is_empty());
                        assert!(y.stall.is_none());
                    }
                }
                // Working-set high water: 64 f32 plus 32 f32 live at once.
                for c in &a.per_cpe {
                    let high_water = c.events.iter().filter_map(|e| match e {
                        CpeEvent::LdmAlloc { used_after, .. } => Some(*used_after),
                        _ => None,
                    });
                    assert_eq!(high_water.max(), Some((64 + 32) * 4));
                }
                let events = &a.per_cpe[0].events;
                assert!(events
                    .iter()
                    .any(|e| matches!(e, CpeEvent::DmaIssue { seq: 0, .. })));
                assert!(events
                    .iter()
                    .any(|e| matches!(e, CpeEvent::LdmFree { id: 1, .. })));

                // A synchronising kernel: the checked barrier must
                // reconcile clocks exactly as the unchecked one.
                let plain = run(Entry::Async(p2p), false, true);
                let (o, copied, report, trace) = run(Entry::Async(p2p), true, true);
                let trace = trace.expect("traced launch returns a trace");
                assert_eq!(plain.0, o, "{what}, sync: output");
                assert_eq!(plain.1, copied, "{what}, sync: copied output");
                assert_eq!(
                    plain.2.elapsed.seconds().to_bits(),
                    report.elapsed.seconds().to_bits(),
                    "{what}, sync: simulated time"
                );
                assert_eq!(plain.2.stats, report.stats, "{what}, sync: stats");
                assert!(
                    plain.2.elapsed.seconds() > reference.2.elapsed.seconds() || n_cpes == 1,
                    "{what}: the barrier waits for the slowest CPE"
                );
                assert_eq!(trace.name, "equiv");
                assert_eq!(trace.per_cpe.len(), n_cpes);
                assert!(!trace.stalled());
                for (i, c) in trace.per_cpe.iter().enumerate() {
                    assert!(
                        c.events
                            .iter()
                            .any(|e| matches!(e, CpeEvent::Barrier { n: 1 })),
                        "{what}: CPE {i} records the barrier"
                    );
                    assert!(c.leaked_dma.is_empty());
                }
            }
        }
    }

    #[test]
    fn traced_deadlock_unwinds_with_diagnostics() {
        // Every CPE of a pair waits for the other to send first: a classic
        // cyclic RLC wait. Checked, the launch returns with both CPEs
        // marked blocked on the receive.
        let trace = run_async_traced(2, "deadlock", async |cpe| {
            let mut buf = [0.0f64];
            let other = 1 - cpe.col();
            cpe.rlc_row_recv(other, &mut buf).await; // both block here forever
            cpe.rlc_row_send(other, &buf).await;
        });
        assert!(trace.stalled());
        for (i, c) in trace.per_cpe.iter().enumerate() {
            assert!(
                matches!(c.stall, Some(BlockedOn::RlcRecv { .. })),
                "CPE {i} stall = {:?}",
                c.stall
            );
        }
    }

    #[test]
    fn traced_barrier_divergence_unwinds() {
        // CPE 0 exits without syncing while CPE 1 waits in the barrier.
        let trace = run_async_traced(2, "diverge", async |cpe| {
            if cpe.idx() == 1 {
                cpe.sync().await;
            }
        });
        assert!(trace.stalled());
        assert_eq!(trace.per_cpe[1].stall, Some(BlockedOn::Barrier));
        assert_eq!(trace.per_cpe[0].stall, None);
    }

    #[test]
    fn slow_progress_is_not_a_deadlock() {
        // A token travels three laps around row 0 against the polling
        // order (CPE c passes it to c - 1), so most rounds of polls move
        // it one hop and nothing else; the launch must still complete.
        const LAPS: usize = 3;
        let mut got = vec![0.0f32; 8];
        let out = MemViewMut::new(&mut got);
        run_async(
            ExecMode::Functional,
            8,
            RlcPattern::PointToPoint,
            async |cpe| {
                let c = cpe.col();
                let (next, prev) = ((c + 7) % 8, (c + 1) % 8);
                let mut token = [f64::from(c == 7)];
                for _ in 0..LAPS {
                    if c == 7 {
                        cpe.rlc_row_send(next, &token).await;
                    }
                    cpe.rlc_row_recv(prev, &mut token).await;
                    token[0] += 1.0;
                    if c != 7 {
                        cpe.rlc_row_send(next, &token).await;
                    }
                }
                cpe.dma_put(out, c, &[token[0] as f32]);
            },
        );
        // Every hop adds one: CPE 7 starts at 1 and gets the token back
        // after 8 * LAPS hops; CPE 0 held it one hop before.
        assert_eq!(got[7], 1.0 + (8 * LAPS) as f32);
        assert_eq!(got[0], (8 * LAPS) as f32);
    }

    #[test]
    #[should_panic(expected = "kernel `mesh_test` deadlocked: CPE (0, 0) blocked on RLC \
                               Row-bus send to CPE 1 (FIFO full); CPE (0, 1) blocked on \
                               RLC Row-bus send to CPE 0 (FIFO full)")]
    fn unchecked_deadlock_panics_naming_the_kernel() {
        // Both CPEs send one message more than the FIFO holds before
        // receiving anything: each waits for room the other never makes.
        run_async(
            ExecMode::Functional,
            2,
            RlcPattern::PointToPoint,
            async |cpe| {
                let other = 1 - cpe.col();
                for _ in 0..=crate::arch::RLC_FIFO_DEPTH {
                    cpe.rlc_row_send(other, &[1.0]).await;
                }
                cpe.rlc_row_recv(other, &mut [0.0]).await;
            },
        );
    }
}

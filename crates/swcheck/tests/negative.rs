//! Negative tests: kernels with injected hazards must each be caught by
//! the sanitizer with the right violation kind — this is the proof the
//! checker actually checks something.

use sw26010::arch::RLC_FIFO_DEPTH;
use sw26010::rlc::Axis;
use sw26010::{BlockedOn, CoreGroup, Cpe, ExecMode, KernelPlan, MemView, MemViewMut, RlcPattern};
use swcheck::{check_traces, Violation, ViolationKind};

fn run_and_check(name: &str, n_cpes: usize, kernel: impl Fn(&mut Cpe)) -> Vec<Violation> {
    let mut cg = CoreGroup::new_checked(ExecMode::Functional);
    cg.run_named(name, n_cpes, kernel);
    check_traces(&cg.take_traces())
}

/// Run a communicating `kernel` checked, under a plan declaring
/// point-to-point register communication; returns the per-CPE
/// blocked-on states and the violations.
fn run_and_check_async(
    name: &str,
    n_cpes: usize,
    kernel: impl AsyncFn(&mut Cpe<'_>),
) -> (Vec<Option<BlockedOn>>, Vec<Violation>) {
    let plan = KernelPlan::new(name, n_cpes).rlc(RlcPattern::PointToPoint);
    let mut cg = CoreGroup::new_checked(ExecMode::Functional);
    cg.run_planned_async(&plan, kernel);
    let traces = cg.take_traces();
    let stalls = traces[0].per_cpe.iter().map(|c| c.stall).collect();
    (stalls, check_traces(&traces))
}

#[test]
fn use_before_wait_is_caught() {
    let src = vec![1.0f32; 256];
    let mut dst = vec![0.0f32; 256];
    let sv = MemView::new(&src);
    let dv = MemViewMut::new(&mut dst);
    let v = run_and_check("inject.use_before_wait", 1, move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(256);
        let h = cpe.dma_get_async(sv, 0, &mut buf);
        // BUG: reads `buf` while the get is still in flight.
        cpe.dma_put(dv, 0, &buf[..]);
        cpe.dma_wait(h);
    });
    assert!(
        v.iter()
            .any(|v| matches!(v.kind, ViolationKind::UseBeforeWait { .. })),
        "{v:?}"
    );
}

#[test]
fn double_wait_is_caught() {
    let src = vec![1.0f32; 64];
    let sv = MemView::new(&src);
    let v = run_and_check("inject.double_wait", 1, move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(64);
        let h = cpe.dma_get_async(sv, 0, &mut buf);
        cpe.dma_wait(h);
        // BUG: the handle was already retired.
        cpe.dma_wait(h);
    });
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        matches!(v[0].kind, ViolationKind::DoubleWait { .. }),
        "{v:?}"
    );
}

#[test]
fn leaked_dma_is_caught() {
    let src = vec![1.0f32; 64];
    let sv = MemView::new(&src);
    let v = run_and_check("inject.leak", 1, move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(64);
        // BUG: issued but never waited.
        let _h = cpe.dma_get_async(sv, 0, &mut buf);
    });
    assert!(
        v.iter()
            .any(|v| matches!(v.kind, ViolationKind::LeakedDma { .. })),
        "{v:?}"
    );
}

#[test]
fn send_recv_mismatch_is_caught() {
    let (stalls, v) = run_and_check_async("inject.rlc_mismatch", 2, async |cpe| {
        if cpe.idx() == 0 {
            // BUG: two sends for a single receive.
            cpe.rlc_row_send(1, &[1.0f64]).await;
            cpe.rlc_row_send(1, &[2.0f64]).await;
        } else {
            let mut got = [0.0f64];
            cpe.rlc_row_recv(0, &mut got).await;
        }
    });
    assert_eq!(stalls, [None, None]);
    assert!(
        v.iter().any(|v| matches!(
            v.kind,
            ViolationKind::SendRecvMismatch {
                from: 0,
                to: 1,
                sent: 2,
                received: 1,
                ..
            }
        )),
        "{v:?}"
    );
}

#[test]
fn rlc_deadlock_is_caught() {
    // Both CPEs receive first: a classic cyclic wait. The launch stops
    // with both blocked and the checker classifies it as a deadlock.
    let (stalls, v) = run_and_check_async("inject.deadlock", 2, async |cpe| {
        let mut got = [0.0f64];
        if cpe.idx() == 0 {
            cpe.rlc_row_recv(1, &mut got).await;
            cpe.rlc_row_send(1, &[1.0f64]).await;
        } else {
            cpe.rlc_row_recv(0, &mut got).await;
            cpe.rlc_row_send(0, &[2.0f64]).await;
        }
    });
    assert_eq!(
        stalls,
        [
            Some(BlockedOn::RlcRecv {
                axis: Axis::Row,
                from: 1
            }),
            Some(BlockedOn::RlcRecv {
                axis: Axis::Row,
                from: 0
            }),
        ]
    );
    let deadlock = v
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::Deadlock { .. }))
        .unwrap_or_else(|| panic!("no deadlock diagnosis in {v:?}"));
    let msg = deadlock.to_string();
    assert!(msg.contains("blocked on"), "{msg}");
}

#[test]
fn rlc_send_deadlock_is_caught() {
    // Both CPEs send one message more than the FIFO holds before either
    // receives: each waits for room only the other's receive can make.
    let (stalls, v) = run_and_check_async("inject.send_deadlock", 2, async |cpe| {
        let other = 1 - cpe.idx();
        for i in 0..=RLC_FIFO_DEPTH {
            cpe.rlc_row_send(other, &[i as f64]).await;
        }
        let mut got = [0.0f64];
        for _ in 0..=RLC_FIFO_DEPTH {
            cpe.rlc_row_recv(other, &mut got).await;
        }
    });
    assert_eq!(
        stalls,
        [
            Some(BlockedOn::RlcSend {
                axis: Axis::Row,
                to: 1
            }),
            Some(BlockedOn::RlcSend {
                axis: Axis::Row,
                to: 0
            }),
        ]
    );
    assert_eq!(v.len(), 1, "{v:?}");
    let ViolationKind::Deadlock { waiting } = &v[0].kind else {
        panic!("no deadlock diagnosis in {v:?}")
    };
    assert_eq!(waiting.len(), 2, "{waiting:?}");
    assert!(
        waiting.iter().all(|w| w.contains("(FIFO full)")),
        "{waiting:?}"
    );
}

#[test]
fn barrier_divergence_is_caught() {
    let (stalls, v) = run_and_check_async("inject.divergence", 2, async |cpe| {
        if cpe.idx() == 0 {
            // BUG: only one of the two CPEs reaches the barrier.
            cpe.sync().await;
        }
    });
    assert_eq!(stalls, [Some(BlockedOn::Barrier), None]);
    assert!(
        v.iter()
            .any(|v| matches!(v.kind, ViolationKind::BarrierDivergence { .. })),
        "{v:?}"
    );
}

#[test]
fn unused_rlc_declaration_is_caught() {
    let src = vec![1.0f32; 64 * 16];
    let sv = MemView::new(&src);
    // BUG: the plan claims row broadcasts, but the body never touches a
    // bus or the barrier: the plan misdescribes its kernel.
    let plan = KernelPlan::new("inject.unused_rlc", 64)
        .buffer("buf", 64)
        .rlc(RlcPattern::RowBroadcast);
    let mut cg = CoreGroup::new_checked(ExecMode::Functional);
    cg.run_planned(&plan, move |cpe| {
        let mut buf = cpe.ldm.alloc_f32(16);
        cpe.dma_get(sv, cpe.idx() * 16, &mut buf);
    });
    let v = check_traces(&cg.take_traces());
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        v[0].kind,
        ViolationKind::UnusedRlcDeclared {
            pattern: RlcPattern::RowBroadcast
        }
    );
    assert!(v[0].to_string().contains("RlcPattern::None"), "{}", v[0]);
}

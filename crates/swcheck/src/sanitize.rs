//! The happens-before checker: replays recorded [`KernelTrace`]s and
//! reports every hazard as a typed [`Violation`].
//!
//! The analysis is a single forward pass per CPE over the program-order
//! event stream, tracking the set of in-flight DMA requests and the LDM
//! ranges they touch, followed by a mesh-wide pass that matches
//! register-communication send/recv counts and barrier arrivals. A
//! launch that deadlocked is classified instead of count-checked:
//! all-barrier stalls are barrier divergence, anything else is a
//! deadlock, each reported with per-CPE blocked-on detail. Finally the
//! trace is held to the [`RlcPattern`] its plan declared: a declared
//! pattern that the kernel never uses (no bus, no barrier) misdescribes
//! the kernel and is reported.

use sw26010::arch::MESH_DIM;
use sw26010::dma::DmaDir;
use sw26010::rlc::Axis;
use sw26010::{BlockedOn, CpeEvent, CpeTrace, KernelTrace, MemRange, RlcPattern};

/// Where and what went wrong in one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Kernel name from the launch (`run_named` / `run_planned`).
    pub(crate) kernel: String,
    /// `(row, col)` of the offending CPE; `None` for mesh-wide findings.
    pub(crate) cpe: Option<(usize, usize)>,
    pub kind: ViolationKind,
}

/// The typed hazard taxonomy of the sanitizer.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// An operation touched an LDM range that an un-waited DMA request
    /// is still reading or writing.
    UseBeforeWait { seq: u64, op: String },
    /// `dma_wait` was called with a handle that was already retired (or
    /// never issued).
    DoubleWait { seq: u64 },
    /// DMA requests still in flight when the kernel returned.
    LeakedDma { seqs: Vec<u64> },
    /// An LDM buffer was freed while a DMA request was still using it.
    FreeInFlight { seq: u64 },
    /// Register-communication counts disagree between two CPEs.
    /// `from`/`to` are mesh indices (`row * 8 + col`).
    SendRecvMismatch {
        axis: Axis,
        from: usize,
        to: usize,
        sent: usize,
        received: usize,
    },
    /// The mesh stopped making progress with CPEs blocked on RLC
    /// operations (cyclic waits or missing partners).
    Deadlock { waiting: Vec<String> },
    /// Some CPEs entered the mesh barrier while others exited the
    /// kernel (or the arrival counts differ).
    BarrierDivergence { detail: String },
    /// The plan declares register communication but no CPE sent,
    /// received or entered the barrier: the plan misdescribes its kernel,
    /// which should declare [`RlcPattern::None`].
    UnusedRlcDeclared { pattern: RlcPattern },
}

fn mesh_coord(idx: usize) -> (usize, usize) {
    (idx / MESH_DIM, idx % MESH_DIM)
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::UseBeforeWait { seq, op } => write!(
                f,
                "{op} overlaps the buffer of un-waited DMA request #{seq} \
                 (use before dma_wait)"
            ),
            ViolationKind::DoubleWait { seq } => write!(
                f,
                "dma_wait on stale handle #{seq} (already waited or never issued)"
            ),
            ViolationKind::LeakedDma { seqs } => {
                write!(f, "kernel returned with DMA requests still in flight:")?;
                for s in seqs {
                    write!(f, " #{s}")?;
                }
                Ok(())
            }
            ViolationKind::FreeInFlight { seq } => write!(
                f,
                "LDM buffer freed while DMA request #{seq} was still in flight"
            ),
            ViolationKind::SendRecvMismatch {
                axis,
                from,
                to,
                sent,
                received,
            } => {
                let (fr, fc) = mesh_coord(*from);
                let (tr, tc) = mesh_coord(*to);
                write!(
                    f,
                    "RLC {axis:?}-bus mismatch: CPE ({fr},{fc}) sent {sent} \
                     message(s) to CPE ({tr},{tc}) which received {received}"
                )
            }
            ViolationKind::Deadlock { waiting } => {
                write!(f, "mesh deadlocked: {}", waiting.join("; "))
            }
            ViolationKind::BarrierDivergence { detail } => {
                write!(f, "barrier divergence: {detail}")
            }
            ViolationKind::UnusedRlcDeclared { pattern } => write!(
                f,
                "plan declares RlcPattern::{pattern:?} but no CPE used a register bus \
                 or the barrier; the plan misdescribes its kernel: declare RlcPattern::None"
            ),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cpe {
            Some((r, c)) => write!(f, "kernel `{}` CPE ({r},{c}): {}", self.kernel, self.kind),
            None => write!(f, "kernel `{}`: {}", self.kernel, self.kind),
        }
    }
}

/// One in-flight DMA request on one CPE.
struct Inflight {
    seq: u64,
    dir: DmaDir,
    range: MemRange,
}

/// Check one CPE's event stream for intra-CPE hazards.
fn check_cpe(kernel: &str, cpe: &CpeTrace, trace_stalled: bool, out: &mut Vec<Violation>) {
    let here = Some((cpe.row, cpe.col));
    let push = |out: &mut Vec<Violation>, kind| {
        out.push(Violation {
            kernel: kernel.to_string(),
            cpe: here,
            kind,
        })
    };
    let mut inflight: Vec<Inflight> = Vec::new();
    for ev in &cpe.events {
        match ev {
            CpeEvent::DmaIssue {
                seq, dir, range, ..
            } => {
                for fl in &inflight {
                    // A get writes its LDM range, so it races any
                    // in-flight request touching the same bytes; a put
                    // only reads, so two overlapping puts are fine but
                    // reading a get's half-written destination is not.
                    let races = match dir {
                        DmaDir::Get => true,
                        DmaDir::Put => matches!(fl.dir, DmaDir::Get),
                    };
                    if races && range.overlaps(&fl.range) {
                        push(
                            out,
                            ViolationKind::UseBeforeWait {
                                seq: fl.seq,
                                op: format!("dma {dir:?} #{seq}"),
                            },
                        );
                    }
                }
                inflight.push(Inflight {
                    seq: *seq,
                    dir: *dir,
                    range: *range,
                });
            }
            CpeEvent::DmaWait { seq } => inflight.retain(|fl| fl.seq != *seq),
            CpeEvent::DmaWaitStale { seq } => push(out, ViolationKind::DoubleWait { seq: *seq }),
            CpeEvent::RlcSend { range, .. } => {
                // The send reads its source slice.
                for fl in &inflight {
                    if matches!(fl.dir, DmaDir::Get) && range.overlaps(&fl.range) {
                        push(
                            out,
                            ViolationKind::UseBeforeWait {
                                seq: fl.seq,
                                op: "RLC send".to_string(),
                            },
                        );
                    }
                }
            }
            CpeEvent::RlcRecv { range, .. } => {
                // The receive writes its destination slice.
                for fl in &inflight {
                    if range.overlaps(&fl.range) {
                        push(
                            out,
                            ViolationKind::UseBeforeWait {
                                seq: fl.seq,
                                op: "RLC receive".to_string(),
                            },
                        );
                    }
                }
            }
            CpeEvent::LdmFree { range, .. } => {
                // Freeing a buffer a DMA still uses is a hazard in its
                // own right; drop the stale entries afterwards so later
                // allocations reusing the address space don't cascade
                // into false use-before-wait reports.
                for fl in &inflight {
                    if range.overlaps(&fl.range) {
                        push(out, ViolationKind::FreeInFlight { seq: fl.seq });
                    }
                }
                inflight.retain(|fl| !range.overlaps(&fl.range));
            }
            CpeEvent::Barrier { .. } | CpeEvent::LdmAlloc { .. } => {}
        }
    }
    // A stalled launch unwinds kernels mid-flight; leak reports would be
    // collateral noise next to the deadlock diagnostic.
    if !cpe.leaked_dma.is_empty() && !trace_stalled {
        push(
            out,
            ViolationKind::LeakedDma {
                seqs: cpe.leaked_dma.clone(),
            },
        );
    }
}

fn axis_key(a: Axis) -> u8 {
    match a {
        Axis::Row => 0,
        Axis::Col => 1,
    }
}

/// Mesh-wide RLC send/recv count matching: for every directed pair
/// `(sender, receiver)` on each bus, the sender's send count must equal
/// the receiver's receive count.
fn check_rlc_matching(trace: &KernelTrace, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    // (axis, from mesh idx, to mesh idx) -> (sent, received)
    let mut pairs: BTreeMap<(u8, usize, usize), (usize, usize)> = BTreeMap::new();
    for cpe in &trace.per_cpe {
        let me = cpe.row * MESH_DIM + cpe.col;
        for ev in &cpe.events {
            match ev {
                CpeEvent::RlcSend { axis, peer, .. } => {
                    pairs.entry((axis_key(*axis), me, *peer)).or_default().0 += 1;
                }
                CpeEvent::RlcRecv { axis, peer, .. } => {
                    pairs.entry((axis_key(*axis), *peer, me)).or_default().1 += 1;
                }
                _ => {}
            }
        }
    }
    for ((axis, from, to), (sent, received)) in pairs {
        if sent != received {
            out.push(Violation {
                kernel: trace.name.clone(),
                cpe: None,
                kind: ViolationKind::SendRecvMismatch {
                    axis: if axis == 0 { Axis::Row } else { Axis::Col },
                    from,
                    to,
                    sent,
                    received,
                },
            });
        }
    }
}

/// Barrier arrival counts must agree across the whole launch.
fn check_barriers(trace: &KernelTrace, out: &mut Vec<Violation>) {
    let count = |c: &CpeTrace| {
        c.events
            .iter()
            .filter(|e| matches!(e, CpeEvent::Barrier { .. }))
            .count()
    };
    let Some(first) = trace.per_cpe.first() else {
        return;
    };
    let expect = count(first);
    if trace.per_cpe.iter().any(|c| count(c) != expect) {
        let mut detail = String::new();
        for c in &trace.per_cpe {
            let n = count(c);
            if n != expect {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!(
                    "CPE ({},{}) arrived {n} time(s) vs {expect}",
                    c.row, c.col
                ));
            }
        }
        out.push(Violation {
            kernel: trace.name.clone(),
            cpe: None,
            kind: ViolationKind::BarrierDivergence { detail },
        });
    }
}

/// A plan that declares register communication must describe a kernel
/// that uses a bus or the barrier.
fn check_declared_rlc(trace: &KernelTrace, out: &mut Vec<Violation>) {
    if trace.rlc == RlcPattern::None {
        return;
    }
    let uses_mesh = trace.per_cpe.iter().flat_map(|c| &c.events).any(|e| {
        matches!(
            e,
            CpeEvent::RlcSend { .. } | CpeEvent::RlcRecv { .. } | CpeEvent::Barrier { .. }
        )
    });
    if !uses_mesh {
        out.push(Violation {
            kernel: trace.name.clone(),
            cpe: None,
            kind: ViolationKind::UnusedRlcDeclared { pattern: trace.rlc },
        });
    }
}

/// Turn a stalled launch into a liveness diagnosis.
fn classify_stall(trace: &KernelTrace, out: &mut Vec<Violation>) {
    let stalled: Vec<&CpeTrace> = trace.per_cpe.iter().filter(|c| c.stall.is_some()).collect();
    let all_barrier = stalled
        .iter()
        .all(|c| matches!(c.stall, Some(BlockedOn::Barrier)));
    if all_barrier {
        let arrivals: Vec<String> = stalled
            .iter()
            .map(|c| format!("CPE ({},{})", c.row, c.col))
            .collect();
        out.push(Violation {
            kernel: trace.name.clone(),
            cpe: None,
            kind: ViolationKind::BarrierDivergence {
                detail: format!(
                    "{} of {} CPEs waited forever at the mesh barrier ({}) \
                     while the others exited the kernel",
                    stalled.len(),
                    trace.n_cpes,
                    arrivals.join(", ")
                ),
            },
        });
    } else {
        let waiting: Vec<String> = stalled
            .iter()
            .map(|c| {
                format!(
                    "CPE ({},{}) blocked on {}",
                    c.row,
                    c.col,
                    c.stall.expect("filtered on stall")
                )
            })
            .collect();
        out.push(Violation {
            kernel: trace.name.clone(),
            cpe: None,
            kind: ViolationKind::Deadlock { waiting },
        });
    }
}

/// Analyze one kernel launch trace. Returns every detected hazard, CPE
/// hazards first, mesh-wide findings after.
pub(crate) fn check_trace(trace: &KernelTrace) -> Vec<Violation> {
    let mut out = Vec::new();
    let stalled = trace.stalled();
    for cpe in &trace.per_cpe {
        check_cpe(&trace.name, cpe, stalled, &mut out);
    }
    if stalled {
        classify_stall(trace, &mut out);
    } else {
        check_rlc_matching(trace, &mut out);
        check_barriers(trace, &mut out);
        check_declared_rlc(trace, &mut out);
    }
    out
}

/// Analyze a batch of traces (the usual `take_traces()` result).
pub fn check_traces(traces: &[KernelTrace]) -> Vec<Violation> {
    traces.iter().flat_map(check_trace).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(events: Vec<CpeEvent>) -> KernelTrace {
        KernelTrace {
            name: "t".into(),
            n_cpes: 1,
            rlc: RlcPattern::None,
            per_cpe: vec![CpeTrace {
                row: 0,
                col: 0,
                events,
                leaked_dma: vec![],
                stall: None,
            }],
        }
    }

    fn issue(seq: u64, dir: DmaDir, lo: usize, hi: usize) -> CpeEvent {
        CpeEvent::DmaIssue {
            seq,
            dir,
            bytes: hi - lo,
            range: MemRange { lo, hi },
        }
    }

    #[test]
    fn overlapping_get_before_wait_is_flagged() {
        let t = trace_with(vec![
            issue(1, DmaDir::Get, 100, 200),
            issue(2, DmaDir::Put, 150, 250),
            CpeEvent::DmaWait { seq: 1 },
            CpeEvent::DmaWait { seq: 2 },
        ]);
        let v = check_trace(&t);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind,
            ViolationKind::UseBeforeWait { seq: 1, .. }
        ));
    }

    #[test]
    fn disjoint_pipelining_is_clean() {
        let t = trace_with(vec![
            issue(1, DmaDir::Get, 100, 200),
            issue(2, DmaDir::Get, 200, 300),
            CpeEvent::DmaWait { seq: 1 },
            CpeEvent::DmaWait { seq: 2 },
        ]);
        assert!(check_trace(&t).is_empty());
    }

    #[test]
    fn overlapping_puts_both_read_no_violation() {
        let t = trace_with(vec![
            issue(1, DmaDir::Put, 100, 200),
            issue(2, DmaDir::Put, 100, 200),
            CpeEvent::DmaWait { seq: 1 },
            CpeEvent::DmaWait { seq: 2 },
        ]);
        assert!(check_trace(&t).is_empty());
    }

    #[test]
    fn free_in_flight_is_flagged_once_and_suppresses_cascades() {
        let t = trace_with(vec![
            issue(1, DmaDir::Get, 100, 200),
            CpeEvent::LdmFree {
                id: 7,
                range: MemRange { lo: 100, hi: 200 },
            },
            // Address reuse after the free must NOT re-report against
            // the dead request.
            issue(2, DmaDir::Get, 100, 200),
            CpeEvent::DmaWait { seq: 2 },
            CpeEvent::DmaWait { seq: 1 },
        ]);
        let v = check_trace(&t);
        // One FreeInFlight, one DoubleWait-free stale wait? No: seq 1
        // was dropped from inflight by the free, so its wait retires an
        // unknown-to-the-checker handle, which the runtime would have
        // recorded as DmaWait (it was live there). Only the free fires.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].kind, ViolationKind::FreeInFlight { seq: 1 }));
    }

    #[test]
    fn send_recv_mismatch_across_cpes() {
        let t = KernelTrace {
            name: "pair".into(),
            n_cpes: 2,
            rlc: RlcPattern::PointToPoint,
            per_cpe: vec![
                CpeTrace {
                    row: 0,
                    col: 0,
                    events: vec![
                        CpeEvent::RlcSend {
                            axis: Axis::Row,
                            peer: 1,
                            bytes: 8,
                            range: MemRange { lo: 0, hi: 8 },
                        },
                        CpeEvent::RlcSend {
                            axis: Axis::Row,
                            peer: 1,
                            bytes: 8,
                            range: MemRange { lo: 0, hi: 8 },
                        },
                    ],
                    ..Default::default()
                },
                CpeTrace {
                    row: 0,
                    col: 1,
                    events: vec![CpeEvent::RlcRecv {
                        axis: Axis::Row,
                        peer: 0,
                        bytes: 8,
                        range: MemRange { lo: 16, hi: 24 },
                    }],
                    ..Default::default()
                },
            ],
        };
        let v = check_trace(&t);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind,
            ViolationKind::SendRecvMismatch {
                from: 0,
                to: 1,
                sent: 2,
                received: 1,
                ..
            }
        ));
    }
}

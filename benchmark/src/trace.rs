//! In-memory span recorder for the traced run.
//!
//! Spans are opened around each call the benchmark makes into a crate's
//! public function, on the benchmark's own thread, so they nest strictly
//! and a span's children never overlap. Nothing is written until the run
//! ends. A disabled recorder takes no timestamps: the untraced run pays
//! one branch per call site.

use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. A top-level span starts a new operation.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            if parent.is_none() {
                inner.op += 1;
            }
            let idx = inner.spans.len();
            let op = inner.op;
            inner.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            inner.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].start_ns = start;
        inner.spans[idx].end_ns = end;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(idx));
        out
    }

    /// The spans recorded so far. Release it before opening a span.
    pub fn spans(&self) -> std::cell::Ref<'_, [Span]> {
        std::cell::Ref::map(self.inner.borrow(), |inner| inner.spans.as_slice())
    }
}

/// Nanoseconds of `span`'s interval that its direct children cover
/// (union of their intervals, clipped to the parent).
pub fn child_cover_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    spans[idx].duration_ns() - child_cover_ns(spans, idx)
}

/// One row of the additive-decomposition report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The decomposition of every operation (top-level span) named `op`:
/// one row per span name beneath it, plus the share of the operations'
/// time their direct children cover.
pub struct Decomposition {
    pub ops: u64,
    pub op_total_ns: u64,
    pub cover_frac: f64,
    pub rows: Vec<Row>,
}

pub fn decompose(spans: &[Span], op: &str) -> Decomposition {
    let mut d = Decomposition {
        ops: 0,
        op_total_ns: 0,
        cover_frac: 0.0,
        rows: Vec::new(),
    };
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == op)
        .map(|s| s.op)
        .collect();
    let mut covered = 0u64;
    for (idx, s) in spans.iter().enumerate() {
        if !roots.contains(&s.op) {
            continue;
        }
        if s.parent.is_none() {
            d.ops += 1;
            d.op_total_ns += s.duration_ns();
            covered += child_cover_ns(spans, idx);
            continue;
        }
        let own = self_ns(spans, idx);
        match d.rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.calls += 1;
                r.total_ns += s.duration_ns();
                r.self_ns += own;
            }
            None => d.rows.push(Row {
                name: s.name.clone(),
                calls: 1,
                total_ns: s.duration_ns(),
                self_ns: own,
            }),
        }
    }
    if d.op_total_ns > 0 {
        d.cover_frac = covered as f64 / d.op_total_ns as f64;
    }
    d
}

/// Render the decomposition as the table the traced run prints.
pub fn render(op: &str, d: &Decomposition) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total_ms = d.op_total_ns as f64 / 1e6;
    writeln!(
        out,
        "decomposition of {} x `{op}` ({total_ms:.3} ms): children cover {:.1} %",
        d.ops,
        100.0 * d.cover_frac
    )
    .unwrap();
    writeln!(
        out,
        "  {:<44}{:>7}{:>12}{:>12}{:>8}",
        "span", "calls", "total ms", "self ms", "self %"
    )
    .unwrap();
    let share = |ns: u64| 100.0 * ns as f64 / d.op_total_ns.max(1) as f64;
    for r in &d.rows {
        writeln!(
            out,
            "  {:<44}{:>7}{:>12.3}{:>12.3}{:>8.1}",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            share(r.self_ns)
        )
        .unwrap();
    }
    let attributed: u64 = d.rows.iter().map(|r| r.self_ns).sum();
    let rest = d.op_total_ns.saturating_sub(attributed);
    writeln!(
        out,
        "  {:<44}{:>7}{:>12}{:>12.3}{:>8.1}",
        "unattributed",
        "",
        "",
        rest as f64 / 1e6,
        share(rest)
    )
    .unwrap();
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps.
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            swjson::Json::Str(s.name.clone()).to_compact_string(),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op
        )
        .unwrap();
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("b", 50, 90, Some(0), 1),
            span("a.inner", 15, 25, Some(1), 1),
        ];
        assert_eq!(child_cover_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("a", 10, 60, Some(0), 1),
            span("b", 40, 80, Some(0), 1),
            // Clipped to the parent's interval.
            span("c", 90, 130, Some(0), 1),
        ];
        assert_eq!(child_cover_ns(&spans, 0), 70 + 10);
    }

    #[test]
    fn decomposition_rows_sum_to_the_operation() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("a", 0, 60, Some(0), 1),
            span("b", 60, 95, Some(0), 1),
            span("op", 100, 200, None, 2),
            span("a", 100, 190, Some(3), 2),
            span("other", 200, 300, None, 3),
        ];
        let d = decompose(&spans, "op");
        assert_eq!(d.ops, 2);
        assert_eq!(d.op_total_ns, 200);
        assert!((d.cover_frac - 185.0 / 200.0).abs() < 1e-12);
        let a = d.rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!((a.calls, a.total_ns, a.self_ns), (2, 150, 150));
        let attributed: u64 = d.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(attributed, 185);
    }

    #[test]
    fn recorder_nests_and_numbers_operations() {
        let rec = Recorder::new(true);
        rec.span("op", || {
            rec.span("child", || std::hint::black_box(1));
        });
        rec.span("op", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_json(&spans);
        assert!(swjson::Json::parse(&json).is_ok(), "{json}");

        let off = Recorder::new(false);
        assert_eq!(off.span("op", || 7), 7);
        assert!(off.spans().is_empty());
    }
}

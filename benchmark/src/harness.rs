//! Shared measurement plumbing: repeated set-up, the time-budgeted
//! closed loop, and the end-to-end metrics every workload reports.

use std::time::Instant;

use crate::outcome::Outcome;
use crate::trace::{self, Recorder};
use crate::{stats, sys};

/// Times set-up is repeated in an untraced run; the median is reported.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed operations an untraced run accepts, however short
/// `--seconds` is.
pub const MIN_OPS: usize = 3;

/// Fewest plain/traced pairs the traced part of a traced run accepts.
pub const MIN_PAIRS: usize = 2;

/// Build the workload's state `times` times, dropping each build before
/// the next, and return the last build with every build's seconds.
pub fn repeat_setup<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one build"), secs))
}

/// What the closed loop measured.
pub struct Timed {
    /// Wall milliseconds of each operation, in issue order.
    pub op_ms: Vec<f64>,
    /// Wall seconds from the first operation's start to the last's end.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
}

/// Closed loop, one client: issue `op(i)` back to back until `seconds`
/// have passed (and at least `min_ops` ran).
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> Timed {
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let mut op_ms = Vec::new();
    while op_ms.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op(op_ms.len());
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;
    Timed {
        op_ms,
        wall_s,
        cpu_s,
    }
}

/// Record the five end-to-end metrics. `latency_ms` are the samples of
/// the workload's reference operation and `items` the work completed in
/// the timed interval (images, or sweep items).
pub fn report_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    latency_ms: &[f64],
    items: u64,
    timed: &Timed,
) {
    out.end_to_end("setup_s", stats::median(setup_s));
    out.end_to_end("op_wall_p50_ms", stats::median(latency_ms));
    out.end_to_end("wall_items_per_s", items as f64 / timed.wall_s);
    out.end_to_end("cpu_ms_per_item", timed.cpu_s * 1e3 / items as f64);
    out.end_to_end("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN));
    out.samples_ms = latency_ms.to_vec();
    out.extra("op_wall_samples", latency_ms.len() as f64, "count", false);
    // The highest percentile the sample supports (ten samples beyond it).
    if let Some((p, v)) = stats::tail(latency_ms) {
        out.extra(format!("op_wall_p{p}_ms"), v, "ms", false);
    }
}

/// The traced part of a traced run: `plain(i)` and `traced(i)` do the
/// same work, the second under spans. They run as pairs for `seconds`
/// (at least [`MIN_PAIRS`]), alternating which goes first, so both see
/// the same machine; the tracing overhead is the median over pairs of
/// the relative difference. A closure returns whether its operation is
/// the reference one (only those pairs count), or the error that ends
/// the run.
pub fn paired_overhead(
    seconds: f64,
    mut plain: impl FnMut(usize) -> Result<bool, String>,
    mut traced: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Option<f64>, String> {
    let time = |f: &mut dyn FnMut(usize) -> Result<bool, String>, i: usize| {
        let t = Instant::now();
        f(i).map(|counts| (t.elapsed().as_secs_f64(), counts))
    };
    let mut rel = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let ((p, keep_p), (t, keep_t)) = if i % 2 == 0 {
            let p = time(&mut plain, i)?;
            (p, time(&mut traced, i)?)
        } else {
            let t = time(&mut traced, i)?;
            (time(&mut plain, i)?, t)
        };
        if keep_p && keep_t {
            rel.push((t - p) / p);
        }
        i += 1;
    }
    Ok((!rel.is_empty()).then(|| stats::median(&rel)))
}

/// Close the traced part: record the overhead, print the additive
/// decomposition of the operations named `op`, and require that their
/// children cover at least 90 % of them.
pub fn report_traced_part(
    out: &mut Outcome,
    rec: &Recorder,
    op: &str,
    overhead: Option<f64>,
) -> Result<(), String> {
    out.layer(
        "trace_overhead_frac",
        overhead.ok_or("the traced part completed no pair of the reference operation")?,
    );
    let d = trace::decompose(&rec.spans(), op);
    out.layer("trace.children_cover_frac", d.cover_frac);
    out.check(d.cover_frac >= 0.9, || {
        format!("children cover only {} of `{op}`", d.cover_frac)
    });
    out.notes.push(trace::render(op, &d));
    Ok(())
}

//! Golden digests of serving outcomes. Each digest folds everything a
//! serving decision fixes — every served request's life cycle, the shed
//! ids, batch membership and dispatch times, per-replica busy seconds
//! and the makespan — into one `u64`, so any changed decision changes
//! it. Served requests and batches are sorted first: the event loop
//! emits them in resolution (completion) order, not dispatch order.
//!
//! The expected values were recorded from the dedicated fault-free
//! batching loop that `batcher::simulate` ran before it was folded into
//! the resilience layer's event loop (commit 440e437), by running this
//! test there: on a mismatch it prints the whole table as computed, in
//! the form of `WANT` below.

use sw26010::arch::CORE_GROUPS;
use sw26010::ExecMode;
use swcaffe_core::models;
use swserve::batcher::{poisson_trace, simulate, BatchConfig, Request, ServeOutcome};
use swserve::graph::optimize;
use swserve::Cluster;

const WANT: [(&str, u64); 9] = [
    ("alexnet_bn load 25%", 0x90f2c3f86099a45b),
    ("alexnet_bn load 50%", 0xae73894de3370622),
    ("alexnet_bn load 100%", 0x071cb018540ad8e3),
    ("alexnet_bn load 120%", 0x250550bcdb594188),
    ("vgg16 load 25%", 0x325582d21fb694b9),
    ("vgg16 load 50%", 0x84f09f7460699be5),
    ("vgg16 load 100%", 0xd1f595cffd145a79),
    ("vgg16 load 120%", 0x569f3f1e481240b2),
    ("duplicate arrivals", 0x5fb2a1694f279da7),
];

/// One splitmix64 finalizer round over the running hash xor `v`.
fn fold(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold, from the FNV-1a offset basis: the sorted served life cycles,
/// the sorted shed ids and the sorted batches, each preceded by its
/// count, then the busy seconds and the makespan.
fn digest(o: &ServeOutcome) -> u64 {
    let mut served: Vec<[u64; 4]> = o
        .served
        .iter()
        .map(|s| {
            [
                s.id,
                s.dispatch.to_bits(),
                s.completion.to_bits(),
                s.replica as u64,
            ]
        })
        .collect();
    served.sort_unstable();
    let mut shed = o.shed.clone();
    shed.sort_unstable();
    let mut batches: Vec<(u64, &[u64])> = o
        .batches
        .iter()
        .map(|b| (b.dispatch.to_bits(), &b.request_ids[..]))
        .collect();
    batches.sort_unstable();

    let mut words = vec![served.len() as u64];
    words.extend(served.iter().flatten());
    words.push(shed.len() as u64);
    words.extend(&shed);
    words.push(batches.len() as u64);
    for (dispatch, ids) in batches {
        words.extend([dispatch, ids.len() as u64]);
        words.extend(ids);
    }
    words.extend(o.busy.iter().map(|b| b.to_bits()));
    words.push(o.makespan.to_bits());
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, fold)
}

#[test]
fn serving_outcomes_match_recorded_digests() {
    let mut got = Vec::new();
    // The two `serve_qps` models with that scenario's configuration,
    // seeds and load steps, plus a 120% overload step that sheds.
    for (mi, (name, def, max_batch)) in [
        ("alexnet_bn", models::alexnet_bn(16), 16),
        ("vgg16", models::vgg16(8), 8),
    ]
    .into_iter()
    .enumerate()
    {
        let graph = optimize(&def).expect("model optimizes");
        let mut cluster = Cluster::new(&graph, ExecMode::TimingOnly);
        let worst = cluster.latency_seconds(max_batch).expect("graph builds");
        let capacity = CORE_GROUPS as f64 * max_batch as f64 / worst;
        let cfg = BatchConfig {
            max_batch,
            slo: 4.0 * worst,
            timeout: 0.5 * worst,
        };
        for (pct, frac, n) in [
            (25, 0.25, 240),
            (50, 0.5, 240),
            (100, 1.0, 240),
            (120, 1.2, 2000),
        ] {
            let trace = poisson_trace(1000 + mi as u64 * 100 + pct, capacity * frac, n);
            let out = cluster.serve(&trace, &cfg).expect("SLO feasible");
            assert!(
                pct < 120 || !out.shed.is_empty(),
                "{name}: overload must shed"
            );
            got.push((format!("{name} load {pct}%"), digest(&out)));
        }
    }

    // The duplicate-arrival trace of `hostile_traces.rs`: 41 requests on
    // 3 instants, ids out of arrival order, one id repeated.
    let request = |id, arrival| Request {
        id,
        arrival,
        tier: 0,
    };
    let mut trace: Vec<Request> = (0..40u64)
        .map(|i| request(39 - i, [0.0, 0.004, 0.004, 0.009][(i % 4) as usize]))
        .collect();
    trace.push(request(5, 0.004));
    let cfg = BatchConfig {
        max_batch: 8,
        slo: 0.0112,
        timeout: 0.0014,
    };
    let out = simulate(&trace, 4, &cfg, &mut |b| 0.002 + 0.0001 * b as f64).unwrap();
    got.push(("duplicate arrivals".into(), digest(&out)));

    let want: Vec<(String, u64)> = WANT.iter().map(|&(k, v)| (k.into(), v)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(k, v)| format!("    ({k:?}, {v:#018x}),\n"))
            .collect();
        panic!("serving digests changed; computed:\n{table}");
    }
}

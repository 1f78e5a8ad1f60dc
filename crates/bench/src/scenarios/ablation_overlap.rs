//! Ablation: serialized packed all-reduce (the paper's Sec. V-A scheme)
//! vs backward-overlapped bucketed all-reduce at 64/256/1024 nodes.
//!
//! One representative node is measured in timing mode — per-iteration
//! phase times plus the per-layer gradient-ready timeline from
//! `ChipTrainer::compute_gradients_with_events` — and the
//! [`swtrain::OverlapModel`] projects both communication schedules to
//! scale. A bucket-size sweep at 1024 nodes shows the trade-off: small
//! buckets start communicating earlier but pay start-up latencies and
//! one bulk-synchronous straggler penalty per collective step for every
//! bucket, so the optimum grows with node count. The "tuned" column
//! picks the sweep's best size per network — the knob DDP users turn as
//! `bucket_cap_mb`.

use std::fmt::Write as _;

use sw26010::ExecMode;
use swcaffe_core::{models, NetDef, SolverConfig};
use swnet::{Algorithm, NetParams, RankMap, ReduceEngine};
use swprof::Report;
use swtrain::{ChipTrainer, OverlapModel, OverlapPoint, DEFAULT_BUCKET_BYTES};

pub(crate) const SCALES: [usize; 3] = [64, 256, 1024];

/// Bucket-size sweep (bytes) for the 1024-node study.
pub(crate) const SWEEP_BYTES: [usize; 5] = [
    8 << 20,
    DEFAULT_BUCKET_BYTES,
    64 << 20,
    128 << 20,
    usize::MAX, // one bucket == packed reduce launched at backward finish
];

/// The three networks of the study: display label, metric key, per-CG
/// def (chip batch / 4).
pub(crate) fn configs() -> Vec<(&'static str, &'static str, NetDef)> {
    vec![
        ("AlexNet B=64", "alexnet_b64", models::alexnet_bn(16)),
        ("VGG-16 B=64", "vgg16_b64", models::vgg16(16)),
        ("ResNet50 B=32", "resnet50_b32", models::resnet50(8)),
    ]
}

/// Measure one representative node and build the overlap model (vary
/// `bucket_bytes` on clones — the measurement is the expensive part).
pub fn overlap_model(cg_def: &NetDef, bucket_bytes: usize) -> OverlapModel {
    let mut chip =
        ChipTrainer::new(cg_def, SolverConfig::default(), ExecMode::TimingOnly).expect("net build");
    let (report, mut packed, events) = chip.compute_gradients_with_events(None);
    let (update, bcast) = chip.apply_update(&mut packed, 0.25);
    OverlapModel {
        node_time: report.compute + report.intra + update + bcast,
        compute: report.compute,
        events,
        total_elems: chip.param_elems(),
        net: NetParams::sunway_allreduce(ReduceEngine::CpeClusters),
        rank_map: RankMap::RoundRobin,
        algorithm: Algorithm::RecursiveHalvingDoubling,
        supernode_size: swnet::SUPERNODE_SIZE,
        bucket_bytes,
    }
}

fn at_bucket(model: &OverlapModel, bytes: usize, nodes: usize) -> OverlapPoint {
    let mut m = model.clone();
    m.bucket_bytes = bytes;
    m.point(nodes)
}

/// Sweep bucket sizes at `nodes` and return `(bytes, point)` of the
/// fastest overlapped iteration.
pub fn tuned(model: &OverlapModel, nodes: usize) -> (usize, OverlapPoint) {
    SWEEP_BYTES
        .iter()
        .map(|&b| (b, at_bucket(model, b, nodes)))
        .min_by(|a, b| {
            a.1.overlapped_iter
                .seconds()
                .total_cmp(&b.1.overlapped_iter.seconds())
        })
        .expect("non-empty sweep")
}

fn bucket_label(bytes: usize) -> String {
    if bytes == usize::MAX {
        "whole".to_string()
    } else {
        format!("{}MB", bytes >> 20)
    }
}

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("ablation_overlap");
    report
        .config("algorithm", "rhd_roundrobin")
        .config("bucket_bytes", DEFAULT_BUCKET_BYTES as u64);

    writeln!(
        out,
        "Serialized packed vs backward-overlapped bucketed all-reduce\n\
         (iteration seconds; default bucket target {} MB, tuned = best of sweep)",
        DEFAULT_BUCKET_BYTES >> 20
    )
    .unwrap();
    writeln!(
        out,
        "{:<16}{:>6} {:>11} {:>12} {:>12} {:>14}",
        "config", "nodes", "serial (s)", "overlap (s)", "exposed (s)", "tuned (s)"
    )
    .unwrap();
    let mut alexnet_model = None;
    for (label, key, def) in configs() {
        let model = overlap_model(&def, DEFAULT_BUCKET_BYTES);
        report.count(
            &format!("{key}.param_mb"),
            ((model.total_elems * 4) >> 20) as u64,
        );
        for nodes in SCALES {
            let p = model.point(nodes);
            let (tuned_bytes, tp) = tuned(&model, nodes);
            writeln!(
                out,
                "{label:<16}{nodes:>6} {:>11.3} {:>12.3} {:>12.3} {:>8.3} {:>5}",
                p.serialized_iter.seconds(),
                p.overlapped_iter.seconds(),
                p.exposed_comm.seconds(),
                tp.overlapped_iter.seconds(),
                bucket_label(tuned_bytes),
            )
            .unwrap();
            report.real(
                &format!("{key}.serialized_iter_s.{nodes}"),
                p.serialized_iter.seconds(),
            );
            report.real(
                &format!("{key}.overlapped_iter_s.{nodes}"),
                p.overlapped_iter.seconds(),
            );
            report.real(
                &format!("{key}.exposed_comm_s.{nodes}"),
                p.exposed_comm.seconds(),
            );
            report.real(
                &format!("{key}.tuned_iter_s.{nodes}"),
                tp.overlapped_iter.seconds(),
            );
        }
        report.count(&format!("{key}.buckets"), model.point(1024).buckets as u64);
        if key == "alexnet_b64" {
            alexnet_model = Some(model);
        }
    }

    // Bucket sizing at 1024 nodes, AlexNet: each bucket pays its own
    // start-up latencies and one bulk-synchronous straggler penalty per
    // collective step, so tiny buckets erode the overlap win.
    writeln!(out).unwrap();
    writeln!(out, "Bucket-size sweep, AlexNet B=64 at 1024 nodes:").unwrap();
    writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>8}",
        "bucket", "overlap (s)", "exposed (s)", "buckets"
    )
    .unwrap();
    let model = alexnet_model.expect("alexnet config present");
    for bytes in SWEEP_BYTES {
        let p = at_bucket(&model, bytes, 1024);
        writeln!(
            out,
            "{:<8} {:>12.3} {:>12.3} {:>8}",
            bucket_label(bytes),
            p.overlapped_iter.seconds(),
            p.exposed_comm.seconds(),
            p.buckets
        )
        .unwrap();
        let key = if bytes == usize::MAX {
            "whole".to_string()
        } else {
            format!("{}mb", bytes >> 20)
        };
        report.real(
            &format!("sweep.{key}.overlapped_iter_s"),
            p.overlapped_iter.seconds(),
        );
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "The serialized path stays the framework default (it is what the \
         paper measures). Overlap wins where the comm fraction is large \
         and the ready timeline front-loads big layers (AlexNet's fc); at \
         1024 nodes the per-bucket straggler cost pushes the optimal \
         bucket size up."
    )
    .unwrap();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_beats_serialized_at_1024_for_alexnet() {
        // The acceptance criterion: at 1024 nodes with AlexNet-sized
        // gradients (232.6 MB), the (tuned) overlapped iteration is
        // strictly below compute + serialized comm.
        let (_, _, def) = configs().swap_remove(0);
        let model = overlap_model(&def, DEFAULT_BUCKET_BYTES);
        let (bytes, p) = tuned(&model, 1024);
        assert!(p.buckets > 1, "tuned schedule must actually bucket");
        assert!(
            p.overlapped_iter.seconds() < p.serialized_iter.seconds(),
            "overlap must win at 1024 nodes: {} vs {} (bucket {})",
            p.overlapped_iter.seconds(),
            p.serialized_iter.seconds(),
            bucket_label(bytes),
        );
    }

    #[test]
    fn overlap_wins_at_every_scale_for_compute_heavy_nets() {
        // VGG/ResNet have far more compute per gradient byte; the
        // default bucket size already wins at every scale.
        for (label, _, def) in configs().into_iter().skip(1) {
            let model = overlap_model(&def, DEFAULT_BUCKET_BYTES);
            for nodes in SCALES {
                let p = model.point(nodes);
                assert!(
                    p.overlapped_iter.seconds() < p.serialized_iter.seconds(),
                    "{label} at {nodes}: {} vs {}",
                    p.overlapped_iter.seconds(),
                    p.serialized_iter.seconds()
                );
            }
        }
    }
}

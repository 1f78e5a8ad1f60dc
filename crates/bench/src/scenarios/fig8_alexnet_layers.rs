//! Fig. 8: per-layer forward and backward time of AlexNet(-BN) on the
//! simulated SW26010 vs the K40m model, batch 256 (per core group: 64).

use std::fmt::Write as _;

use baselines::{gpu_k40m, network_times};
use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{models, Net};
use swprof::{PhaseTiming, Report};

pub fn run(_args: &[String]) -> (String, Report) {
    // SW26010: each core group runs a quarter of the 256 batch.
    let cg_def = models::alexnet_bn(64);
    let mut sw_net = Net::from_def(&cg_def, false).unwrap();
    let mut cg = CoreGroup::new(ExecMode::TimingOnly);
    let (_, fwd) = sw_net.forward_with_times(&mut cg);
    let bwd = sw_net.backward_with_times(&mut cg);

    // K40m: whole batch on the device.
    let full_def = models::alexnet_bn(256);
    let gpu_net = Net::from_def(&full_def, false).unwrap();
    let gpu = network_times(&gpu_net, &gpu_k40m());

    let mut out = String::new();
    let mut report = Report::new("fig8_alexnet_layers");
    report
        .config("network", "alexnet_bn")
        .config("chip_batch", 256);

    writeln!(out, "Fig. 8: AlexNet per-layer time (seconds), batch 256").unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>12} | {:>12} {:>12}",
        "layer", "SW fwd", "GPU fwd", "SW bwd", "GPU bwd"
    )
    .unwrap();
    for (name, t) in &fwd.entries {
        let bwd_t = bwd
            .entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.seconds())
            .unwrap_or(0.0);
        let g = gpu.iter().find(|l| &l.name == name);
        let (gf, gb) = g.map(|l| (l.forward, l.backward)).unwrap_or((0.0, 0.0));
        if t.seconds() == 0.0 && gf == 0.0 {
            continue;
        }
        writeln!(
            out,
            "{:<14} {:>12.6} {:>12.6} | {:>12.6} {:>12.6}",
            name,
            t.seconds(),
            gf,
            bwd_t,
            gb
        )
        .unwrap();
    }
    let sw_total = fwd.total().seconds() + bwd.total().seconds();
    let gpu_total: f64 = gpu.iter().map(|l| l.forward + l.backward).sum();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Totals: SW {:.3} s vs GPU {:.3} s per iteration -> SW is {:.2}x the GPU \
         (paper Table III: 1.19x, because PCIe data staging dominates the GPU).",
        sw_total,
        gpu_total,
        gpu_total / sw_total
    )
    .unwrap();

    report.phase_with_metrics(layer_phase("forward", &fwd.entries, fwd.total().seconds()));
    report.phase_with_metrics(layer_phase("backward", &bwd.entries, bwd.total().seconds()));
    report.real("sw_total_s", sw_total);
    report.real("gpu_total_s", gpu_total);
    (out, report)
}

/// A per-layer timing breakdown as one phase tree (zero-cost layers are
/// dropped to keep the baselines readable).
pub(crate) fn layer_phase(
    name: &str,
    entries: &[(String, sw26010::SimTime)],
    total: f64,
) -> PhaseTiming {
    let mut p = PhaseTiming::new(name, total);
    for (layer, t) in entries {
        if t.seconds() > 0.0 {
            p = p.child(PhaseTiming::leaf(layer, *t));
        }
    }
    p
}

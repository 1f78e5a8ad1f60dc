//! Fig. 10: weak-scaling speedup of swCaffe to 1024 nodes for AlexNet
//! (sub-mini-batch 64/128/256) and ResNet-50 (32/64).

use std::fmt::Write as _;

use sw26010::ExecMode;
use swcaffe_core::{models, NetDef, SolverConfig};
use swnet::{Algorithm, NetParams, RankMap, ReduceEngine};
use swprof::Report;
use swtrain::{ChipTrainer, ScalingModel};

pub(crate) const SCALES: [usize; 6] = [2, 8, 32, 128, 512, 1024];

pub(crate) fn node_model(cg_def: &NetDef) -> (f64, usize) {
    let mut t =
        ChipTrainer::new(cg_def, SolverConfig::default(), ExecMode::TimingOnly).expect("net build");
    let r = t.iteration(None);
    (ChipTrainer::iteration_time(&r).seconds(), t.param_elems())
}

/// The five Fig. 10 / Fig. 11 configurations: display label, metric key,
/// per-CG def (chip batch / 4), paper numbers at 1024 nodes
/// (speedup, comm %).
pub(crate) fn configs() -> Vec<(&'static str, &'static str, NetDef, f64, f64)> {
    vec![
        (
            "AlexNet B=64",
            "alexnet_b64",
            models::alexnet_bn(16),
            409.50,
            60.01,
        ),
        (
            "AlexNet B=128",
            "alexnet_b128",
            models::alexnet_bn(32),
            561.58,
            45.15,
        ),
        (
            "AlexNet B=256",
            "alexnet_b256",
            models::alexnet_bn(64),
            715.45,
            30.13,
        ),
        (
            "ResNet50 B=32",
            "resnet50_b32",
            models::resnet50(8),
            928.15,
            10.65,
        ),
        (
            "ResNet50 B=64",
            "resnet50_b64",
            models::resnet50(16),
            828.32,
            19.11,
        ),
    ]
}

pub fn scaling_model(node_time: f64, params: usize) -> ScalingModel {
    ScalingModel {
        node_time: sw26010::SimTime::from_seconds(node_time),
        param_elems: params,
        net: NetParams::sunway_allreduce(ReduceEngine::CpeClusters),
        rank_map: RankMap::RoundRobin,
        algorithm: Algorithm::RecursiveHalvingDoubling,
        supernode_size: swnet::SUPERNODE_SIZE,
        io: None,
    }
}

pub fn run(_args: &[String]) -> (String, Report) {
    let mut out = String::new();
    let mut report = Report::new("fig10_scalability");

    writeln!(
        out,
        "Fig. 10: scalability of swCaffe (speedup over one node)"
    )
    .unwrap();
    write!(out, "{:<16}", "config").unwrap();
    for s in SCALES {
        write!(out, "{s:>9}").unwrap();
    }
    writeln!(out, "{:>14}", "paper@1024").unwrap();
    for (label, key, def, paper, _) in configs() {
        let (node_time, params) = node_model(&def);
        let model = scaling_model(node_time, params);
        report.count(&format!("{key}.param_elems"), params as u64);
        write!(out, "{label:<16}").unwrap();
        for s in SCALES {
            let speedup = model.point(s).speedup;
            write!(out, "{speedup:>9.1}").unwrap();
            report.real(&format!("{key}.speedup.{s}"), speedup);
        }
        writeln!(out, "{paper:>14.1}").unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "Shape checks: larger sub-mini-batches scale better (more compute per \
         gradient byte); ResNet-50 scales best (97.7 MB of parameters vs \
         AlexNet's 232.6 MB, far more compute per image)."
    )
    .unwrap();
    (out, report)
}

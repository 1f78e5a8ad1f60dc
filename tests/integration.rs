//! Cross-crate integration tests: the full pipeline from the synthetic
//! dataset through the prefetcher, the four-core-group trainer, the
//! topology-aware all-reduce and the solver, all running functionally on
//! the simulated hardware, and the `bench` binary that regenerates the
//! paper's tables and figures.

use std::process::Command;

use sw26010::arch::CORE_GROUPS;
use sw26010::ExecMode;
use swcaffe_core::{models, SolverConfig};
use swio::{IoModel, Layout, Prefetcher, SyntheticImageNet};
use swtrain::{ChipTrainer, ClusterConfig, ClusterTrainer};

/// Dataset -> prefetch threads -> 4-CG chip trainer, end to end.
#[test]
fn full_pipeline_single_node_training() {
    let classes = 4;
    let cg_batch = 2;
    let def = models::tiny_cnn(cg_batch, classes);
    let mut trainer = ChipTrainer::new(
        &def,
        SolverConfig {
            base_lr: 0.05,
            ..Default::default()
        },
        ExecMode::Functional,
    )
    .unwrap();

    let dataset = SyntheticImageNet::new(2048);
    let io = IoModel::taihulight(Layout::paper_striped());
    let chip_batch = trainer.chip_batch();
    let prefetcher = Prefetcher::spawn(dataset, io, 1, chip_batch, 3, 16, 16, 7);

    let per_img = 3 * 16 * 16;
    let mut first = f32::NAN;
    let mut last = f32::NAN;
    for iter in 0..12 {
        let batch = prefetcher.next().expect("dataset read failed");
        assert!(batch.io_time.seconds() > 0.0);
        let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..CORE_GROUPS)
            .map(|cg| {
                let d = batch.data[cg * cg_batch * per_img..][..cg_batch * per_img].to_vec();
                let mut l = batch.labels[cg * cg_batch..][..cg_batch].to_vec();
                for v in l.iter_mut() {
                    *v %= classes as f32;
                }
                (d, l)
            })
            .collect();
        let r = trainer.iteration(Some(&inputs));
        assert!(r.loss.is_finite(), "loss diverged at iter {iter}");
        if iter == 0 {
            first = r.loss;
        }
        last = r.loss;
    }
    // Random-sampled batches: be lenient, but learning must be visible.
    assert!(last < first, "no learning: {first} -> {last}");
}

/// Timing-only cluster run touches every subsystem's cost model and
/// produces a coherent breakdown.
#[test]
fn timing_cluster_breakdown_is_coherent() {
    let def = models::tiny_cnn(8, 10);
    let mut cluster = ClusterTrainer::new(
        &def,
        SolverConfig::default(),
        ClusterConfig {
            supernode_size: 8,
            ..ClusterConfig::swcaffe(16)
        },
        ExecMode::TimingOnly,
    )
    .unwrap();
    let r = cluster.iteration(None);
    let total = r.total().seconds();
    assert!(total > 0.0 && total.is_finite());
    let parts = r.compute.seconds() + r.comm.seconds() + r.intra.seconds() + r.update.seconds();
    assert!(
        (parts - total).abs() < 1e-12,
        "breakdown does not sum to total"
    );
    assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
}

/// The simulator's central invariant, at the largest assembled scope:
/// a functional chip iteration charges the same simulated time as the
/// timing-only path.
#[test]
fn chip_iteration_mode_invariance() {
    let classes = 3;
    let cg_batch = 2;
    let def = models::tiny_cnn(cg_batch, classes);

    let time_of = |mode: ExecMode| -> (f64, f64) {
        let mut trainer = ChipTrainer::new(&def, SolverConfig::default(), mode).unwrap();
        let inputs: Option<Vec<(Vec<f32>, Vec<f32>)>> = mode.is_functional().then(|| {
            (0..CORE_GROUPS)
                .map(|cg| {
                    let data: Vec<f32> = (0..cg_batch * 3 * 16 * 16)
                        .map(|i| ((i * 13 + cg * 7) % 19) as f32 * 0.1 - 0.9)
                        .collect();
                    let labels: Vec<f32> =
                        (0..cg_batch).map(|b| ((b + cg) % classes) as f32).collect();
                    (data, labels)
                })
                .collect()
        });
        let r = trainer.iteration(inputs.as_deref());
        (
            r.compute.seconds(),
            ChipTrainer::iteration_time(&r).seconds(),
        )
    };

    let (fc, ft) = time_of(ExecMode::Functional);
    let (tc, tt) = time_of(ExecMode::TimingOnly);
    let rel_c = (fc - tc).abs() / fc;
    let rel_t = (ft - tt).abs() / ft;
    assert!(rel_c < 0.12, "compute: functional {fc} vs timing {tc}");
    assert!(rel_t < 0.12, "total: functional {ft} vs timing {tt}");
}

/// NetDef JSON round-trips through disk and still trains (the swCaffe
/// "prototxt" path).
#[test]
fn netdef_roundtrips_through_disk() {
    let def = models::vgg16(4);
    let json = def.to_json();
    let path = std::env::temp_dir().join("swcaffe_vgg16_test.json");
    std::fs::write(&path, &json).unwrap();
    let loaded = swcaffe_core::NetDef::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let net = swcaffe_core::Net::from_def(&loaded, false).unwrap();
    assert_eq!(
        net.param_len(),
        swcaffe_core::Net::from_def(&def, false)
            .unwrap()
            .param_len()
    );
}

/// All five model-zoo networks run a full timing-mode iteration through
/// the whole-chip trainer.
#[test]
fn model_zoo_runs_whole_chip() {
    let defs = vec![
        models::alexnet_bn(8),
        models::vgg16(4),
        models::vgg19(4),
        models::resnet50(4),
        models::googlenet(4),
    ];
    for def in defs {
        let name = def.name.clone();
        let mut trainer =
            ChipTrainer::new(&def, SolverConfig::default(), ExecMode::TimingOnly).unwrap();
        let r = trainer.iteration(None);
        let t = ChipTrainer::iteration_time(&r).seconds();
        assert!(t > 0.0 && t.is_finite(), "{name}: bad iteration time {t}");
        assert!(
            r.compute.seconds() > r.update.seconds(),
            "{name}: update dominates compute, implausible"
        );
    }
}

/// The `bench` binary: a scenario run prints the registry's text and
/// writes its report bytes, `bench check` passes against the committed
/// baseline, and usage errors exit 2.
#[test]
fn bench_binary_runs_and_gates_scenarios() {
    let bench = env!("CARGO_BIN_EXE_bench");
    let path = std::env::temp_dir().join(format!("swcaffe_bench_fig7_{}.json", std::process::id()));
    let run = Command::new(bench)
        .arg("fig7_allreduce")
        .arg("--json")
        .arg(&path)
        .output()
        .unwrap();
    let json = std::fs::read_to_string(&path);
    std::fs::remove_file(&path).ok();
    assert!(run.status.success(), "{run:?}");
    let (text, report) = (swcaffe_bench::find("fig7_allreduce").unwrap().run)(&[]);
    assert_eq!(String::from_utf8(run.stdout).unwrap(), text);
    assert_eq!(json.unwrap(), report.to_json_string());

    let check = Command::new(bench)
        .args(["check", "fig7_allreduce"])
        .output()
        .unwrap();
    assert!(check.status.success(), "{check:?}");

    for args in [
        &["fig7_allreduce", "--json"][..],
        &["no_such_figure"],
        &["fig7_allreduce", "--no-such-flag"],
        &["fig7_allreduce", "--backend", "host"],
    ] {
        let out = Command::new(bench).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

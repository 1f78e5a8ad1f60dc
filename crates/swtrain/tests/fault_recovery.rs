//! Acceptance properties of the fault-tolerance subsystem, at the
//! swtrain level: a full-solver checkpoint (weights, batch-norm running
//! statistics, momentum, iteration counter, dropout RNG streams)
//! restores to a state from which training replays **bit-identically**
//! to an uninterrupted run — for every all-reduce algorithm in both
//! communication modes — including after a real injected node crash.

use sw26010::arch::CORE_GROUPS;
use sw26010::ExecMode;
use swcaffe_core::{models, NetDef, SolverConfig};
use swnet::Algorithm;
use swtrain::{
    pack_params, CgBatch, ClusterConfig, ClusterTrainer, CollectiveFault, CommMode, FaultPlan,
    FaultSession,
};

const NODES: usize = 4;
const CLASSES: usize = 3;
const IMG: usize = 3 * 8 * 8;

fn synth_inputs(nodes: usize, seed: usize) -> Vec<Vec<CgBatch>> {
    (0..nodes)
        .map(|node| {
            (0..CORE_GROUPS)
                .map(|cgi| {
                    let mut data = vec![0.0f32; IMG];
                    let mut labels = vec![0.0f32; 1];
                    let class = (cgi + node * 2 + seed) % CLASSES;
                    labels[0] = class as f32;
                    for (i, v) in data.iter_mut().enumerate() {
                        let noise = (((i * 17 + node * 5 + cgi * 3 + seed * 7) % 83) as f32 / 83.0
                            - 0.5)
                            * 0.2;
                        let stripe = (i * CLASSES / IMG) == class;
                        *v = noise + if stripe { 1.0 } else { 0.0 };
                    }
                    (data, labels)
                })
                .collect()
        })
        .collect()
}

fn make_cluster(def: &NetDef, algo: Algorithm, comm: CommMode) -> ClusterTrainer {
    ClusterTrainer::new(
        def,
        SolverConfig::default(),
        ClusterConfig {
            supernode_size: 2,
            algorithm: algo,
            comm,
            ..ClusterConfig::swcaffe(NODES)
        },
        ExecMode::Functional,
    )
    .unwrap()
}

fn assert_bits_equal(want: &[f32], got: &[f32], ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: parameter count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: param {i}: {a} vs {b}");
    }
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::RecursiveHalvingDoubling,
    Algorithm::Ring,
    Algorithm::Binomial,
];

const MODES: [CommMode; 2] = [
    CommMode::Serialized,
    // Tiny buckets force several segmented reduces per iteration.
    CommMode::Overlapped { bucket_bytes: 4096 },
];

/// The core property: train M iterations, checkpoint, restore the
/// checkpoint into a *fresh* job, train N more — the weights must be
/// bit-identical to M+N uninterrupted iterations, for every mode and
/// algorithm. The net carries dropout (private RNG streams) and batch
/// norm (persistent statistics): exactly the state a naive weights-only
/// snapshot forgets.
#[test]
fn checkpoint_restore_replays_bit_identically_everywhere() {
    let def = models::tiny_dropout_cnn(1, CLASSES);
    for comm in MODES {
        for algo in ALGORITHMS {
            let ctx = format!("{algo:?}/{comm:?}");

            let mut clean = make_cluster(&def, algo, comm);
            for it in 0..4 {
                clean.iteration(Some(&synth_inputs(NODES, it)));
            }
            let want = pack_params(clean.chips[0].net());

            let mut first = make_cluster(&def, algo, comm);
            for it in 0..2 {
                first.iteration(Some(&synth_inputs(NODES, it)));
            }
            let ckpt = first.checkpoint();

            let mut resumed = make_cluster(&def, algo, comm);
            let at = resumed.restore_checkpoint(&ckpt).unwrap();
            assert_eq!(at, 2, "{ctx}: restored iteration");
            for it in 2..4 {
                resumed.iteration(Some(&synth_inputs(NODES, it)));
            }
            let got = pack_params(resumed.chips[0].net());
            assert_bits_equal(&want, &got, &ctx);
        }
    }
}

/// The same property end to end through the fault machinery: a node
/// crashes mid-run, the dead rank is detected at the collective, the job
/// restores from its last checkpoint and replays — final weights
/// bit-identical to a run that never faulted, in both comm modes.
#[test]
fn crash_restore_replay_is_bit_identical() {
    let def = models::tiny_dropout_cnn(1, CLASSES);
    for comm in MODES {
        let algo = Algorithm::RecursiveHalvingDoubling;
        let ctx = format!("crash/{comm:?}");

        let mut clean = make_cluster(&def, algo, comm);
        for it in 0..4 {
            clean.iteration(Some(&synth_inputs(NODES, it)));
        }
        let want = pack_params(clean.chips[0].net());

        let mut faulty = make_cluster(&def, algo, comm);
        let mut faults = FaultSession::new(FaultPlan::new(42).crash(1, 2));
        for it in 0..2 {
            faulty
                .iteration_ft(Some(&synth_inputs(NODES, it)), Some(&mut faults))
                .unwrap();
        }
        let ckpt = faulty.checkpoint();
        let err = faulty
            .iteration_ft(Some(&synth_inputs(NODES, 2)), Some(&mut faults))
            .expect_err("rank 1 must be detected dead");
        assert!(
            matches!(err, CollectiveFault::DeadRank { rank: 1, .. }),
            "{ctx}: {err:?}"
        );
        faulty.recover(&mut faults, &ckpt).unwrap();
        for it in 2..4 {
            faulty
                .iteration_ft(Some(&synth_inputs(NODES, it)), Some(&mut faults))
                .unwrap();
        }
        let got = pack_params(faulty.chips[0].net());
        assert_bits_equal(&want, &got, &ctx);
        assert_eq!(faults.report.crashes, 1, "{ctx}");
        assert_eq!(faults.report.detections, 1, "{ctx}");
        assert!(faults.report.recovery_s > 0.0, "{ctx}");
    }
}

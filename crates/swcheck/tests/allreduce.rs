//! The backward-overlapped bucketed all-reduce path under the
//! sanitizer: a real net's forward/backward runs on a recording core
//! group with zero violations, gradients stay bit-identical to an
//! unchecked run, and the bucketed reduce driven by the traced run's
//! backward events matches the monolithic reduce bit-for-bit.

use sw26010::{CoreGroup, ExecMode};
use swcaffe_core::{models, Net};
use swnet::{allreduce, Algorithm, NetParams, RankMap, ReduceEngine, Topology};
use swtrain::{build_buckets, overlapped_allreduce_ft, pack_gradients};

fn train_step(cg: &mut CoreGroup) -> (Net, Vec<swcaffe_core::GradReady>) {
    let def = models::tiny_cnn(2, 3);
    let mut net = Net::from_def(&def, true).unwrap();
    let img = 3 * 16 * 16;
    let data: Vec<f32> = (0..2 * img)
        .map(|i| ((i * 29 % 13) as f32 - 6.0) / 7.0)
        .collect();
    net.set_input("data", &data);
    net.set_input("label", &[0.0, 2.0]);
    net.zero_param_diffs();
    net.forward(cg);
    let events = net.backward_with_events(cg);
    (net, events)
}

#[test]
fn training_step_is_clean_and_bit_identical_under_sanitizer() {
    let mut plain = CoreGroup::new(ExecMode::Functional);
    let (ref_net, _) = train_step(&mut plain);
    let reference = pack_gradients(&ref_net);

    let mut checked = CoreGroup::new_checked(ExecMode::Functional);
    let (net, events) = train_step(&mut checked);
    let grads = pack_gradients(&net);

    assert_eq!(reference.len(), grads.len());
    for (i, (a, b)) in reference.iter().zip(&grads).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}] perturbed by tracing");
    }

    let traces = checked.take_traces();
    assert!(!traces.is_empty(), "training step produced no traces");
    let violations = swcheck::check_traces(&traces);
    assert!(
        violations.is_empty(),
        "sanitizer found violations in the training step:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The bucketed-overlapped reduce driven by the traced run's real
    // backward events must match the monolithic reduce bit-for-bit.
    let elems = net.param_len();
    let p = 8;
    let topo = Topology::with_supernode(p, 4);
    let params = NetParams::sunway_allreduce(ReduceEngine::CpeClusters);
    let make = || -> Vec<Vec<f32>> {
        (0..p)
            .map(|r| {
                (0..elems)
                    .map(|i| 1.0 / (1 + (r * 131 + i * 17) % 97) as f32 - 0.5)
                    .collect()
            })
            .collect()
    };
    for algo in [
        Algorithm::Ring,
        Algorithm::Binomial,
        Algorithm::RecursiveHalvingDoubling,
    ] {
        let mut mono = make();
        let mut seg = mono.clone();
        allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            algo,
            elems,
            Some(&mut mono),
        );
        let buckets = build_buckets(&events, 4096);
        assert!(buckets.len() > 1, "want multiple buckets");
        overlapped_allreduce_ft(
            &topo,
            &params,
            RankMap::RoundRobin,
            algo,
            elems,
            &buckets,
            Some(&mut seg),
            None,
        )
        .unwrap();
        for (rank, (a, b)) in mono.iter().zip(&seg).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "algo {algo:?} rank {rank} elem {i} differs"
                );
            }
        }
    }
}

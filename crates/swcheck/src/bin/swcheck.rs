//! `swcheck` CLI — three passes over the simulated stack:
//!
//! * default: the dynamic sanitizer suite over the swdnn kernel zoo plus
//!   the static plan lint over the benchmark shape sweep, with an
//!   overhead measurement (checked vs unchecked wall clock);
//! * `--comm`: static verification of the collective schedules for all
//!   three all-reduce algorithms over power-of-two, partial-supernode,
//!   and post-shrink topologies (the `--ranks` flag scales the suite;
//!   the default is the TaihuLight full-machine 40,960);
//! * `--graph`: net-definition lint over the whole model zoo and the
//!   optimizer's post-fusion outputs.
//!
//! Exits non-zero when any violation or rejected plan is found.
//!
//! Usage: `swcheck [--comm [--ranks N] | --graph] [--json PATH]`

use std::io::Write as _;
use std::time::Instant;

use sw26010::{CoreGroup, ExecMode};
use swcheck::{
    check_model_zoo, check_spec, comm_report_json, graph_report_json, lint_benchmark_sweep,
    report_json, run_suite, suite, CommOutcome,
};
use swnet::{Algorithm, CommSpec, RankMap, Topology};

fn write_json(path: &str, doc: &swjson::Json) {
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("swcheck: cannot create {path}: {e}"));
    f.write_all(doc.to_pretty_string().as_bytes())
        .expect("write report");
    println!("swcheck: report written to {path}");
}

/// The `--comm` verification suite: every algorithm over a
/// power-of-two-complete topology, a topology with a partial trailing
/// supernode, and the configuration a `ShrinkAndContinue` recovery
/// produces (non-power-of-two survivor count, which sends the tree
/// algorithms back to the ring with the natural mapping — the rule
/// `swtrain::ClusterTrainer::recover` applies).
fn comm_cases(ranks: usize) -> Vec<(String, CommSpec)> {
    let ranks = ranks.max(8);
    let tree_ranks = ranks.next_power_of_two();
    let pow2_ring = if ranks.is_power_of_two() {
        ranks
    } else {
        tree_ranks / 2
    };
    let elems = 61 * 1024 * 1024 / 4; // VGG-16's ~61M params, in f32
    let mut cases = Vec::new();
    for algo in [
        Algorithm::RecursiveHalvingDoubling,
        Algorithm::Ring,
        Algorithm::Binomial,
    ] {
        let p = match algo {
            Algorithm::Ring => ranks,
            _ => tree_ranks,
        };
        let full = match algo {
            Algorithm::Ring => pow2_ring,
            _ => tree_ranks,
        };
        // Complete supernodes, round-robin mapping.
        cases.push((
            format!("{algo:?}/pow2/{full}"),
            CommSpec::monolithic(
                Topology::with_supernode(full, 256.min(full)),
                RankMap::RoundRobin,
                algo,
                elems,
            )
            .expect("power-of-two configuration schedules"),
        ));
        // Partial trailing supernode.
        let ss = if p > 384 { 384 } else { (p / 2).max(1) + 1 };
        cases.push((
            format!("{algo:?}/partial-supernode/{p}"),
            CommSpec::monolithic(
                Topology::with_supernode(p, ss),
                RankMap::RoundRobin,
                algo,
                elems,
            )
            .expect("partial-supernode configuration schedules"),
        ));
        // Post-shrink: a few ranks died; the survivor count is not a
        // power of two, so trees fall back to Ring/Natural exactly as
        // `ClusterTrainer::recover` reconfigures them.
        let survivors = full - 3;
        let (shrunk_algo, shrunk_map) = if survivors.is_power_of_two() {
            (algo, RankMap::RoundRobin)
        } else {
            match algo {
                Algorithm::Ring => (Algorithm::Ring, RankMap::RoundRobin),
                _ => (Algorithm::Ring, RankMap::Natural),
            }
        };
        cases.push((
            format!("{algo:?}/shrunk/{survivors}"),
            CommSpec::monolithic(
                Topology::with_supernode(survivors, 256.min(survivors)),
                shrunk_map,
                shrunk_algo,
                elems,
            )
            .expect("post-shrink configuration schedules"),
        ));
    }
    cases
}

fn run_comm(ranks: usize, json_path: Option<&str>) -> bool {
    let cases = comm_cases(ranks);
    let mut outcomes: Vec<(String, CommOutcome, f64)> = Vec::new();
    for (label, spec) in &cases {
        let t = Instant::now();
        let out = check_spec(spec);
        let secs = t.elapsed().as_secs_f64();
        println!(
            "swcheck --comm: {label}: {} mode, {} steps, {} ops, {} violation(s) in {:.3}s",
            out.mode,
            out.steps,
            out.ops,
            out.violations.len(),
            secs
        );
        for v in &out.violations {
            println!("  VIOLATION: {v}");
        }
        outcomes.push((label.clone(), out, secs));
    }
    let clean = outcomes.iter().all(|(_, o, _)| o.is_clean());
    let total: f64 = outcomes.iter().map(|(_, _, s)| s).sum();
    println!(
        "swcheck --comm: {} configurations verified in {total:.3}s ({})",
        outcomes.len(),
        if clean {
            "all clean"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    if let Some(path) = json_path {
        write_json(path, &comm_report_json(&outcomes));
    }
    clean
}

fn run_graph(json_path: Option<&str>) -> bool {
    let t = Instant::now();
    let outcomes = check_model_zoo();
    let secs = t.elapsed().as_secs_f64();
    for out in &outcomes {
        let status = if out.is_clean() {
            "clean".to_string()
        } else if let Some(e) = &out.error {
            format!("ERROR: {e}")
        } else {
            format!("{} violation(s)", out.violations.len())
        };
        println!(
            "swcheck --graph: {} ({} layers): {status}",
            out.name, out.layers
        );
        for v in &out.violations {
            println!("  VIOLATION: {v}");
        }
    }
    let clean = outcomes.iter().all(|o| o.is_clean());
    println!(
        "swcheck --graph: {} definitions linted in {secs:.3}s ({})",
        outcomes.len(),
        if clean {
            "all clean"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    if let Some(path) = json_path {
        write_json(path, &graph_report_json(&outcomes));
    }
    clean
}

fn run_kernels(json_path: Option<&str>) -> bool {
    // Overhead: identical workload, recording off vs on.
    let t0 = Instant::now();
    let mut plain = CoreGroup::new(ExecMode::Functional);
    suite::drive_kernel_zoo(&mut plain);
    let unchecked_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcome = run_suite();
    let checked_s = t1.elapsed().as_secs_f64();
    let ratio = if unchecked_s > 0.0 {
        checked_s / unchecked_s
    } else {
        1.0
    };

    let lint = lint_benchmark_sweep();

    println!(
        "swcheck: traced {} launches of {} kernels ({} events); {} violation(s)",
        outcome.launches,
        outcome.kernels.len(),
        outcome.events,
        outcome.violations.len()
    );
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    println!(
        "swcheck: linted {} kernel plans across the benchmark sweep; {} rejected",
        lint.checked,
        lint.rejected.len()
    );
    for (label, v) in &lint.rejected {
        println!("  REJECTED {label}: {v}");
    }
    println!(
        "swcheck: sanitizer overhead {checked_s:.3}s checked vs {unchecked_s:.3}s \
         unchecked ({ratio:.2}x)"
    );

    if let Some(path) = json_path {
        write_json(path, &report_json(&outcome, &lint, Some(ratio)));
    }

    outcome.is_clean() && lint.is_clean()
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut comm = false;
    let mut graph = false;
    let mut ranks: usize = 40_960;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            "--comm" => comm = true,
            "--graph" => graph = true,
            "--ranks" => {
                ranks = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("swcheck: --ranks needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!("usage: swcheck [--comm [--ranks N] | --graph] [--json PATH]");
                return;
            }
            other => {
                eprintln!("swcheck: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let clean = match (comm, graph) {
        (true, true) => {
            // Both passes; a single --json path gets the comm report.
            let g = run_graph(None);
            run_comm(ranks, json_path.as_deref()) && g
        }
        (true, false) => run_comm(ranks, json_path.as_deref()),
        (false, true) => run_graph(json_path.as_deref()),
        (false, false) => run_kernels(json_path.as_deref()),
    };
    if !clean {
        std::process::exit(1);
    }
}

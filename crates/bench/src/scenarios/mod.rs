//! The experiment registry: every paper table/figure as a callable
//! scenario producing both the human-readable text and a structured
//! [`swprof::Report`].
//!
//! Scenarios are plain functions so `bench check` can run them
//! in-process (no subprocess plumbing).

pub(crate) mod ablation_faults;
pub(crate) mod ablation_overlap;
pub mod ablation_tune;
pub(crate) mod ablations;
pub(crate) mod fig10_scalability;
pub(crate) mod fig11_comm_fraction;
pub(crate) mod fig2_dma;
pub mod fig5_algorithm1;
pub(crate) mod fig6_p2p;
pub mod fig7_allreduce;
pub(crate) mod fig8_alexnet_layers;
pub(crate) mod fig9_vgg_layers;
pub(crate) mod serve_faults;
pub(crate) mod serve_qps;
pub(crate) mod table1_specs;
pub(crate) mod table2_conv;
pub mod table3_networks;

/// One registered experiment.
pub struct Scenario {
    /// Registry key: the `bench <name>` argument and the baseline file stem.
    pub name: &'static str,
    /// One-line description, listed by `bench --help`.
    pub about: &'static str,
    /// Member of the fast regression subset CI runs on every push.
    pub fast: bool,
    /// Produce the text output and the structured report. `args` are the
    /// positional arguments (flags already stripped by `bench`).
    pub run: fn(&[String]) -> (String, swprof::Report),
}

/// Every scenario, in paper order (post-paper additions at the end).
/// The `fast` subset covers the nine pillars: the DMA model (fig2),
/// Algorithm 1 on one chip (fig5), the topology-aware all-reduce
/// (fig7), the convolution engine (table2), the overlapped-
/// communication mode (ablation_overlap), the fault-tolerance
/// machinery (ablation_faults), the inference-serving stack
/// (serve_qps), the searched-tiling ablation (ablation_tune) and the
/// serving resilience layer (serve_faults).
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fig2_dma",
        about: "DMA bandwidth vs transfer size, stride and CPE count",
        fast: true,
        run: fig2_dma::run,
    },
    Scenario {
        name: "fig5_algorithm1",
        about: "Algorithm 1 phase breakdown on one SW26010",
        fast: true,
        run: fig5_algorithm1::run,
    },
    Scenario {
        name: "fig6_p2p",
        about: "MPI P2P bandwidth/latency, Sunway vs Infiniband",
        fast: false,
        run: fig6_p2p::run,
    },
    Scenario {
        name: "fig7_allreduce",
        about: "topology-aware vs natural halving/doubling all-reduce",
        fast: true,
        run: fig7_allreduce::run,
    },
    Scenario {
        name: "fig8_alexnet_layers",
        about: "AlexNet per-layer times, SW vs K40m",
        fast: false,
        run: fig8_alexnet_layers::run,
    },
    Scenario {
        name: "fig9_vgg_layers",
        about: "VGG-16 per-layer times, SW vs K40m",
        fast: false,
        run: fig9_vgg_layers::run,
    },
    Scenario {
        name: "fig10_scalability",
        about: "weak-scaling speedup to 1024 nodes",
        fast: false,
        run: fig10_scalability::run,
    },
    Scenario {
        name: "fig11_comm_fraction",
        about: "communication share of the iteration vs node count",
        fast: false,
        run: fig11_comm_fraction::run,
    },
    Scenario {
        name: "table1_specs",
        about: "SW26010 / K40m / KNL specification comparison",
        fast: false,
        run: table1_specs::run,
    },
    Scenario {
        name: "table2_conv",
        about: "explicit vs implicit GEMM convolution, VGG-16 layers",
        fast: true,
        run: table2_conv::run,
    },
    Scenario {
        name: "table3_networks",
        about: "training throughput of five networks on three processors",
        fast: false,
        run: table3_networks::run,
    },
    Scenario {
        name: "ablations",
        about: "ablations of the six design principles",
        fast: false,
        run: ablations::run,
    },
    Scenario {
        name: "ablation_overlap",
        about: "serialized packed vs backward-overlapped bucketed all-reduce",
        fast: true,
        run: ablation_overlap::run,
    },
    Scenario {
        name: "ablation_faults",
        about: "checkpoint/restart overhead and injected-fault recovery",
        fast: true,
        run: ablation_faults::run,
    },
    Scenario {
        name: "serve_qps",
        about: "batched multi-CG inference serving at stepped QPS",
        fast: true,
        run: serve_qps::run,
    },
    Scenario {
        name: "ablation_tune",
        about: "hand-picked kernel blocking vs searched LDM tiling plans",
        fast: true,
        run: ablation_tune::run,
    },
    Scenario {
        name: "serve_faults",
        about: "fault-tolerant serving under injected replica failures",
        fast: true,
        run: serve_faults::run,
    },
];

/// Look a scenario up by registry key.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_findable() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert_eq!(find(s.name).map(|f| f.name), Some(s.name));
            assert!(
                !SCENARIOS[..i].iter().any(|p| p.name == s.name),
                "duplicate scenario name {}",
                s.name
            );
        }
        assert!(find("no_such_figure").is_none());
    }

    #[test]
    fn fast_subset_is_the_ci_gate() {
        let fast: Vec<&str> = SCENARIOS
            .iter()
            .filter(|s| s.fast)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            fast,
            [
                "fig2_dma",
                "fig5_algorithm1",
                "fig7_allreduce",
                "table2_conv",
                "ablation_overlap",
                "ablation_faults",
                "serve_qps",
                "ablation_tune",
                "serve_faults"
            ]
        );
    }

    #[test]
    fn every_scenario_produces_text_and_metrics() {
        // Only the fast subset — the full set runs in `bench check`.
        for s in SCENARIOS.iter().filter(|s| s.fast) {
            let (text, report) = (s.run)(&[]);
            assert!(!text.is_empty(), "{}: empty text", s.name);
            assert_eq!(report.name, s.name);
            assert!(!report.metrics.is_empty(), "{}: no gated metrics", s.name);
        }
    }

    #[test]
    fn scenario_reports_are_deterministic() {
        // Byte-identical JSON across two in-process runs — the property
        // the regression gate relies on.
        let s = find("fig5_algorithm1").unwrap();
        let (_, a) = (s.run)(&[]);
        let (_, b) = (s.run)(&[]);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }
}

//! Scalability analytics for Figs. 10 and 11: strong-scaling speedups and
//! communication-time fractions from 1 to 1024 nodes.
//!
//! Under synchronous data parallelism every node is statistically
//! identical, so one representative node's per-iteration compute time
//! (from the timing-mode [`crate::ssgd::ChipTrainer`]) plus the all-reduce
//! cost at each scale determines the whole curve — which is also exactly
//! how the paper evaluates weak scaling (fixed sub-mini-batch per node).

use sw26010::SimTime;
use swio::IoModel;
use swnet::{allreduce, Algorithm, NetParams, RankMap, Topology};

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    pub nodes: usize,
    /// Per-iteration wall time.
    pub iter_time: SimTime,
    pub comm: SimTime,
    pub io_stall: SimTime,
    /// Throughput speedup over one node (weak scaling: same per-node
    /// batch, so ideal speedup is `nodes`).
    pub speedup: f64,
    /// Fig. 11's communication share.
    pub comm_fraction: f64,
}

/// Inputs of the scaling model.
#[derive(Debug, Clone, Copy)]
pub struct ScalingModel {
    /// Per-iteration on-node time (compute + intra-chip + update) at the
    /// chosen sub-mini-batch.
    pub node_time: SimTime,
    /// Gradient elements all-reduced per iteration.
    pub param_elems: usize,
    pub net: NetParams,
    pub rank_map: RankMap,
    pub algorithm: Algorithm,
    /// Nodes per supernode — `ClusterConfig` supports non-256 sizes, so
    /// the model must too (it used to hardcode `Topology::new`).
    pub supernode_size: usize,
    /// Optional I/O model and per-node bytes read each iteration.
    pub io: Option<(IoModel, usize)>,
}

impl ScalingModel {
    /// Evaluate one scale.
    pub fn point(&self, nodes: usize) -> ScalingPoint {
        let topo = Topology::with_supernode(nodes, self.supernode_size);
        let comm = if nodes > 1 {
            allreduce(
                &topo,
                &self.net,
                self.rank_map,
                self.algorithm,
                self.param_elems,
                None,
            )
            .elapsed
        } else {
            SimTime::ZERO
        };
        // Prefetch hides I/O behind compute; only the excess stalls.
        let io_stall = match self.io {
            Some((model, bytes)) => {
                swio::io_stall(model.batch_read_time(nodes, bytes), self.node_time)
            }
            None => SimTime::ZERO,
        };
        let iter_time = self.node_time + comm + io_stall;
        let single = self.node_time.seconds()
            + match self.io {
                Some((model, bytes)) => {
                    swio::io_stall(model.batch_read_time(1, bytes), self.node_time).seconds()
                }
                None => 0.0,
            };
        let speedup = nodes as f64 * single / iter_time.seconds();
        ScalingPoint {
            nodes,
            iter_time,
            comm,
            io_stall,
            speedup,
            comm_fraction: comm.seconds() / iter_time.seconds(),
        }
    }

    /// Evaluate the standard sweep (powers of two).
    pub fn curve(&self, max_nodes: usize) -> Vec<ScalingPoint> {
        let mut points = Vec::new();
        let mut n = 1;
        while n <= max_nodes {
            points.push(self.point(n));
            n *= 2;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swnet::ReduceEngine;

    fn model(node_seconds: f64, param_elems: usize) -> ScalingModel {
        ScalingModel {
            node_time: SimTime::from_seconds(node_seconds),
            param_elems,
            net: NetParams::sunway_allreduce(ReduceEngine::CpeClusters),
            rank_map: RankMap::RoundRobin,
            algorithm: Algorithm::RecursiveHalvingDoubling,
            supernode_size: swnet::SUPERNODE_SIZE,
            io: None,
        }
    }

    #[test]
    fn supernode_size_flows_into_the_topology() {
        // A pathological 2-node supernode forces nearly every exchange
        // across the over-subscribed switch, so comm must cost strictly
        // more than with the machine's 256-node supernodes.
        let big = model(1.0, 58_150_000);
        let tiny = ScalingModel {
            supernode_size: 2,
            ..big
        };
        assert!(
            tiny.point(256).comm.seconds() > big.point(256).comm.seconds(),
            "supernode size must affect the comm model"
        );
    }

    #[test]
    fn speedup_monotone_and_sublinear() {
        // AlexNet-like: 232.6 MB of parameters.
        let m = model(2.7, 58_150_000);
        let curve = m.curve(1024);
        let mut last = 0.0;
        for p in &curve {
            assert!(p.speedup >= last, "speedup dipped at {}", p.nodes);
            assert!(
                p.speedup <= p.nodes as f64 + 1e-9,
                "superlinear at {}",
                p.nodes
            );
            last = p.speedup;
        }
        let p1024 = curve.last().unwrap();
        assert_eq!(p1024.nodes, 1024);
        // The paper reports 409-715x for AlexNet depending on batch size.
        assert!(
            p1024.speedup > 300.0 && p1024.speedup < 1000.0,
            "1024-node speedup {:.0}",
            p1024.speedup
        );
    }

    #[test]
    fn larger_batch_scales_better() {
        // Fig. 10: AlexNet B=256 (longer compute) scales better than B=64.
        let params = 58_150_000;
        let big = model(2.7, params).point(1024).speedup;
        let small = model(0.68, params).point(1024).speedup;
        assert!(big > 1.3 * small, "B=256 {big:.0}x vs B=64 {small:.0}x");
    }

    #[test]
    fn resnet_scales_better_than_alexnet() {
        // Fig. 10/11: ResNet-50 (97.7 MB params, heavy compute) reaches
        // ~928x; AlexNet (232.6 MB, light compute) only ~715x.
        let resnet = model(5.7, 25_600_000).point(1024);
        let alexnet = model(2.7, 58_150_000).point(1024);
        assert!(resnet.speedup > alexnet.speedup);
        assert!(resnet.comm_fraction < alexnet.comm_fraction);
    }

    #[test]
    fn comm_fraction_grows_with_scale() {
        let m = model(1.0, 58_150_000);
        let f64n = m.point(64).comm_fraction;
        let f1024 = m.point(1024).comm_fraction;
        assert!(f1024 > f64n);
        assert!(f1024 < 1.0);
    }

    #[test]
    fn single_node_has_no_comm() {
        let p = model(1.0, 1_000_000).point(1);
        assert_eq!(p.comm.seconds(), 0.0);
        assert!((p.speedup - 1.0).abs() < 1e-9);
    }
}

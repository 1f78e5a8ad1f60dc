//! The alpha-beta-gamma communication cost model (after Thakur et al.
//! \[14\], which the paper adopts), calibrated to the measurements in
//! Fig. 6.
//!
//! * `alpha` — per-message start-up. The Sunway MPI switches from an
//!   eager to a rendezvous protocol around 2 KB, which is why its latency
//!   pulls away from Infiniband's for larger messages (Fig. 6, right).
//! * `beta1` — per-byte cost inside a supernode (~12 GB/s achieved of the
//!   16 GB/s theoretical link).
//! * `beta2 = 4 * beta1` — per-byte cost across supernodes when the
//!   central switch is over-subscribed (Sec. II-B: the switch carries a
//!   quarter of the aggregate bandwidth).
//! * `gamma` — per-byte cost of the local reduction, which depends on
//!   whether the sums run on the MPE (stock MPI) or are offloaded to the
//!   CPE clusters (the paper's improvement).

use sw26010::SimTime;

use crate::topology::{Topology, OVERSUBSCRIPTION};

/// Where all-reduce arithmetic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceEngine {
    /// Stock MPI: sums on the management core, bounded by its ~9.9 GB/s
    /// copy bandwidth split over three streams.
    Mpe,
    /// swCaffe: sums on the four CPE clusters, bounded by DMA bandwidth
    /// over three streams.
    CpeClusters,
}

/// Network cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Start-up latency for messages up to `eager_limit` bytes.
    pub(crate) alpha_eager: f64,
    /// Start-up latency beyond the eager limit (rendezvous handshake).
    pub alpha_rendezvous: f64,
    pub eager_limit: usize,
    /// Per-byte time inside a supernode (s/B).
    pub beta1: f64,
    /// Reduction engine for gamma.
    pub(crate) reduce: ReduceEngine,
    /// Fraction of the raw link bandwidth a *collective* step actually
    /// achieves (pipelining gaps, intermediate copies, progress-engine
    /// overheads). 1.0 for raw P2P benchmarks; calibrated to ~0.055 for
    /// MPI collectives at scale, which reproduces the measured
    /// communication times behind Figs. 10/11 (e.g. ~1 s to all-reduce
    /// AlexNet's 232.6 MB over 1024 nodes).
    pub collective_efficiency: f64,
    /// Per-step straggler/OS-jitter coefficient: each bulk-synchronous
    /// step additionally costs `straggler_coeff * ln(nodes)` seconds.
    pub straggler_coeff: f64,
}

impl NetParams {
    /// Sunway network, calibrated to Fig. 6 (12 GB/s achieved P2P).
    pub fn sunway(reduce: ReduceEngine) -> Self {
        NetParams {
            alpha_eager: 1.5e-6,
            alpha_rendezvous: 7.0e-6,
            eager_limit: 2 * 1024,
            beta1: 1.0 / 12.0e9,
            reduce,
            collective_efficiency: 1.0,
            straggler_coeff: 0.0,
        }
    }

    /// Sunway network with the *collective-scale* calibration used for the
    /// Figs. 10/11 sweeps: MPI all-reduce software efficiency and
    /// per-step straggler jitter measured into the model (see field docs).
    pub fn sunway_allreduce(reduce: ReduceEngine) -> Self {
        NetParams {
            collective_efficiency: 0.055,
            straggler_coeff: 2.0e-3,
            ..NetParams::sunway(reduce)
        }
    }

    /// Infiniband FDR comparator for Fig. 6: similar saturated bandwidth
    /// to the Sunway network but lower latency past the eager limit
    /// (paper: "while achieving similar high-bandwidth as Infiniband, the
    /// Sunway network has higher latency when message size is larger than
    /// 2 KB").
    pub fn infiniband() -> Self {
        NetParams {
            alpha_eager: 1.2e-6,
            alpha_rendezvous: 2.5e-6,
            eager_limit: 8 * 1024,
            beta1: 1.0 / 11.0e9,
            reduce: ReduceEngine::Mpe,
            collective_efficiency: 1.0,
            straggler_coeff: 0.0,
        }
    }

    /// Start-up latency for an `n`-byte message.
    pub fn alpha(&self, n: usize) -> f64 {
        if n <= self.eager_limit {
            self.alpha_eager
        } else {
            self.alpha_rendezvous
        }
    }

    /// Over-subscribed per-byte time across supernodes.
    pub fn beta2(&self) -> f64 {
        self.beta1 * OVERSUBSCRIPTION as f64
    }

    /// Per-byte local-reduction cost.
    pub fn gamma(&self) -> f64 {
        match self.reduce {
            // Read two operands + write one at the MPE's 9.9 GB/s.
            ReduceEngine::Mpe => 3.0 / 9.9e9,
            // Same three streams, but split over the four CPE clusters
            // (each CG reduces its quarter of the packed buffer at the
            // 28 GB/s DMA rate).
            ReduceEngine::CpeClusters => 3.0 / (4.0 * 28.0e9),
        }
    }

    /// Point-to-point message time over a link with congestion factor
    /// `share >= 1` applied to the per-byte term.
    pub fn p2p(&self, bytes: usize, share: f64) -> SimTime {
        SimTime::from_seconds(self.alpha(bytes) + bytes as f64 * self.beta1 * share)
    }

    /// Fig. 6 bandwidth curve (bytes/s) for a message size.
    pub fn p2p_bandwidth(&self, bytes: usize, oversubscribed: bool) -> f64 {
        let share = if oversubscribed {
            OVERSUBSCRIPTION as f64
        } else {
            1.0
        };
        bytes as f64 / self.p2p(bytes, share).seconds()
    }

    /// Fig. 6 latency curve for a message size.
    pub fn p2p_latency(&self, bytes: usize) -> SimTime {
        self.p2p(bytes, 1.0)
    }
}

/// A set of simultaneous point-to-point transfers forming one step of a
/// collective.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    pub src: usize,
    pub dst: usize,
    pub bytes: usize,
    /// Bytes locally reduced at the destination after arrival.
    pub reduce_bytes: usize,
}

/// Everything about a transfer's path that the cost model prices, apart
/// from its size: the switch crossing and its share of the source uplink.
/// Within one step these depend only on the endpoints and on how many
/// crossing flows leave each supernode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// Whether the transfer crosses the central switch.
    pub crosses: bool,
    /// Congestion factor (>= 1) on the per-byte term: 1 inside a
    /// supernode, the flow's share of the source uplink across it.
    pub share: f64,
}

/// Transfers of one step that the cost model cannot tell apart: `count`
/// of them, each of `bytes` bytes over the same kind of [`Route`]. A step
/// is priced once per class, not once per transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferClass {
    pub bytes: usize,
    pub reduce_bytes: usize,
    pub route: Route,
    pub count: usize,
}

/// Crossing flows leaving each supernode when the given `(src, dst)`
/// physical pairs send at once.
pub(crate) fn uplink_flows(
    topo: &Topology,
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<usize> {
    let mut outflows = vec![0usize; topo.supernodes()];
    for (src, dst) in pairs {
        let from = topo.supernode_of(src);
        if from != topo.supernode_of(dst) {
            outflows[from] += 1;
        }
    }
    outflows
}

/// The route of a `src -> dst` transfer in a step whose crossing flows per
/// supernode are `outflows` (see [`uplink_flows`]).
pub(crate) fn route(topo: &Topology, outflows: &[usize], src: usize, dst: usize) -> Route {
    let (from, to) = (topo.supernode_of(src), topo.supernode_of(dst));
    let crosses = from != to;
    let share = if crosses {
        let c = outflows[from] as f64;
        // The uplink aggregates q/4 link-bandwidths; c concurrent
        // flows split it, but a single flow still gets full link rate.
        (c * OVERSUBSCRIPTION as f64 / topo.q() as f64).max(1.0)
    } else {
        1.0
    };
    Route { crosses, share }
}

/// Fold a step's transfer list into its classes, replacing `classes`.
pub fn fold_transfers(topo: &Topology, transfers: &[Transfer], classes: &mut Vec<TransferClass>) {
    classes.clear();
    let outflows = uplink_flows(topo, transfers.iter().map(|t| (t.src, t.dst)));
    for t in transfers {
        let route = route(topo, &outflows, t.src, t.dst);
        // A step has a handful of classes, so a linear scan (newest
        // first) beats hashing.
        match classes
            .iter_mut()
            .rev()
            .find(|c| c.bytes == t.bytes && c.reduce_bytes == t.reduce_bytes && c.route == route)
        {
            Some(c) => c.count += 1,
            None => classes.push(TransferClass {
                bytes: t.bytes,
                reduce_bytes: t.reduce_bytes,
                route,
                count: 1,
            }),
        }
    }
}

impl NetParams {
    /// Seconds one transfer of a class takes, start-up and local
    /// reduction included: the one float expression every step is priced
    /// with.
    fn transfer_seconds(&self, class: &TransferClass) -> f64 {
        let wire = class.bytes as f64 * self.beta1 * class.route.share / self.collective_efficiency;
        self.alpha(class.bytes) + wire + class.reduce_bytes as f64 * self.gamma()
    }
}

/// Duration of one bulk-synchronous step given its transfer classes: the
/// step ends when the slowest transfer (plus its local reduction)
/// completes, plus the per-step straggler jitter. `max` is exact and
/// order-independent, so pricing each class once gives the same bits as
/// pricing every transfer.
pub fn class_step_time(topo: &Topology, params: &NetParams, classes: &[TransferClass]) -> SimTime {
    if classes.is_empty() {
        return SimTime::ZERO;
    }
    let worst = classes
        .iter()
        .map(|c| params.transfer_seconds(c))
        .fold(0.0f64, f64::max);
    SimTime::from_seconds(worst + params.straggler_coeff * (topo.nodes.max(2) as f64).ln())
}

/// Duration of one bulk-synchronous step: every transfer proceeds in
/// parallel; cross-supernode flows share the quarter-bandwidth uplink of
/// their source supernode; the step ends when the slowest transfer (plus
/// its local reduction) completes.
pub fn step_time(topo: &Topology, params: &NetParams, transfers: &[Transfer]) -> SimTime {
    let mut classes = Vec::new();
    fold_transfers(topo, transfers, &mut classes);
    class_step_time(topo, params, &classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sunway_bandwidth_saturates_at_12gbs() {
        let p = NetParams::sunway(ReduceEngine::Mpe);
        let bw = p.p2p_bandwidth(4 << 20, false);
        assert!(bw > 10.0e9 && bw <= 12.0e9, "bw {bw}");
        // Over-subscribed: about a quarter.
        let bw_os = p.p2p_bandwidth(4 << 20, true);
        assert!((bw_os - bw / 4.0).abs() / bw < 0.1, "os bw {bw_os}");
    }

    #[test]
    fn sunway_latency_exceeds_infiniband_beyond_2kb() {
        let sw = NetParams::sunway(ReduceEngine::Mpe);
        let ib = NetParams::infiniband();
        // Below the eager limit they are comparable.
        assert!(sw.p2p_latency(256).seconds() < 2.0 * ib.p2p_latency(256).seconds());
        // Beyond 2 KB the Sunway rendezvous cost dominates (Fig. 6).
        assert!(sw.p2p_latency(4096).seconds() > 1.5 * ib.p2p_latency(4096).seconds());
    }

    #[test]
    fn cpe_reduction_beats_mpe() {
        let mpe = NetParams::sunway(ReduceEngine::Mpe);
        let cpe = NetParams::sunway(ReduceEngine::CpeClusters);
        assert!(cpe.gamma() < 0.5 * mpe.gamma());
    }

    #[test]
    fn fully_crossing_step_pays_beta2() {
        // All q nodes of each supernode send across: share = 4 = beta2/beta1.
        let topo = Topology::with_supernode(8, 4);
        let p = NetParams::sunway(ReduceEngine::Mpe);
        let n = 1 << 20;
        let transfers: Vec<Transfer> = (0..4)
            .map(|i| Transfer {
                src: i,
                dst: i + 4,
                bytes: n,
                reduce_bytes: 0,
            })
            .collect();
        let t = step_time(&topo, &p, &transfers).seconds();
        let want = p.alpha(n) + n as f64 * p.beta2();
        assert!((t - want).abs() / want < 1e-9, "{t} vs {want}");
    }

    #[test]
    fn single_crossing_flow_keeps_full_bandwidth() {
        let topo = Topology::with_supernode(8, 4);
        let p = NetParams::sunway(ReduceEngine::Mpe);
        let n = 1 << 20;
        let t = step_time(
            &topo,
            &p,
            &[Transfer {
                src: 0,
                dst: 5,
                bytes: n,
                reduce_bytes: 0,
            }],
        )
        .seconds();
        let want = p.alpha(n) + n as f64 * p.beta1;
        assert!((t - want).abs() / want < 1e-9);
    }

    #[test]
    fn intra_supernode_step_uses_beta1() {
        let topo = Topology::with_supernode(8, 4);
        let p = NetParams::sunway(ReduceEngine::Mpe);
        let n = 1 << 16;
        let transfers: Vec<Transfer> = (0..2)
            .map(|i| Transfer {
                src: i,
                dst: i + 2,
                bytes: n,
                reduce_bytes: n,
            })
            .collect();
        let t = step_time(&topo, &p, &transfers).seconds();
        let want = p.alpha(n) + n as f64 * (p.beta1 + p.gamma());
        assert!((t - want).abs() / want < 1e-9);
    }
}

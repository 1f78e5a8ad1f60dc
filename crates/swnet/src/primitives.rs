//! The parameter-server round, the synchronisation design the paper
//! argues against (Sec. V-A). The ablation suite prices it next to the
//! all-reduce the paper chose.

use sw26010::SimTime;

use crate::cost::{step_time, NetParams, Transfer};
use crate::topology::Topology;

/// The parameter-server-style synchronisation the paper argues *against*
/// (Sec. V-A): every worker sends its gradient to one server rank, which
/// sums and sends updated state back. All traffic funnels through one
/// node's single network port. Returns the round's simulated time.
pub fn parameter_server_round(
    topo: &Topology,
    params: &NetParams,
    server_phys: usize,
    elems: usize,
) -> SimTime {
    let p = topo.nodes;
    let bytes = elems * 4;
    // Inbound: p-1 simultaneous sends into one port — serialised.
    let mut elapsed = SimTime::ZERO;
    for _ in 0..p - 1 {
        elapsed += step_time(
            topo,
            params,
            &[Transfer {
                src: (server_phys + 1) % p,
                dst: server_phys,
                bytes,
                reduce_bytes: bytes,
            }],
        );
    }
    // Outbound: p-1 sends of the fresh parameters.
    for _ in 0..p - 1 {
        elapsed += step_time(
            topo,
            params,
            &[Transfer {
                src: server_phys,
                dst: (server_phys + 1) % p,
                bytes,
                reduce_bytes: 0,
            }],
        );
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, Algorithm};
    use crate::cost::ReduceEngine;
    use crate::topology::RankMap;

    #[test]
    fn parameter_server_loses_to_allreduce_at_scale() {
        // The paper's Sec. V-A argument: one network port serialises all
        // gradient traffic.
        let topo = Topology::new(256);
        let params = NetParams::sunway(ReduceEngine::CpeClusters);
        let elems = 10_000_000; // 40 MB
        let ps = parameter_server_round(&topo, &params, 0, elems);
        let ar = allreduce(
            &topo,
            &params,
            RankMap::RoundRobin,
            Algorithm::RecursiveHalvingDoubling,
            elems,
            None,
        );
        assert!(
            ps.seconds() > 10.0 * ar.elapsed.seconds(),
            "parameter server {} vs all-reduce {}",
            ps.seconds(),
            ar.elapsed.seconds()
        );
    }
}

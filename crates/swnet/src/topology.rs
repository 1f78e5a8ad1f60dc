//! TaihuLight interconnect topology (Sec. II-B).
//!
//! Two levels: supernodes of 256 nodes with full intra-supernode
//! bandwidth, and a central switching network between supernodes
//! provisioned at **one quarter** of the aggregate — the over-subscription
//! at the heart of the paper's all-reduce redesign.

/// Nodes per supernode on the real machine.
pub const SUPERNODE_SIZE: usize = 256;

/// Over-subscription factor of the central switching network.
pub const OVERSUBSCRIPTION: usize = 4;

/// Typed rejection of an invalid allocation or rank mapping. Construction
/// and mapping used to `assert!`; the checked constructors below return
/// this instead so callers (the `swcheck::comm` static verifier) can
/// surface configuration errors without aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// An allocation of zero nodes.
    ZeroNodes,
    /// A supernode size of zero (the machine minimum is one node).
    ZeroSupernodeSize,
    /// A logical rank at or beyond the node count.
    RankOutOfRange { logical: usize, nodes: usize },
    /// Two logical ranks mapped onto one physical node.
    NonBijectiveMap {
        logical_a: usize,
        logical_b: usize,
        physical: usize,
    },
    /// A logical rank mapped to a physical node outside the allocation.
    PhantomPhysical { logical: usize, physical: usize },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroNodes => write!(f, "topology must hold at least one node"),
            TopologyError::ZeroSupernodeSize => {
                write!(f, "supernode size must be at least one node")
            }
            TopologyError::RankOutOfRange { logical, nodes } => {
                write!(f, "logical rank {logical} out of range for {nodes} nodes")
            }
            TopologyError::NonBijectiveMap {
                logical_a,
                logical_b,
                physical,
            } => write!(
                f,
                "logical ranks {logical_a} and {logical_b} both map to physical node {physical}"
            ),
            TopologyError::PhantomPhysical { logical, physical } => write!(
                f,
                "logical rank {logical} maps to phantom physical node {physical}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A job allocation: `nodes` ranks spread over supernodes of `supernode_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    pub supernode_size: usize,
}

impl Topology {
    /// Standard allocation: contiguous ranks, 256-node supernodes.
    pub fn new(nodes: usize) -> Self {
        Topology::try_new(nodes).expect("invalid topology")
    }

    /// Checked [`Topology::new`].
    pub(crate) fn try_new(nodes: usize) -> Result<Self, TopologyError> {
        Topology::try_with_supernode(nodes, SUPERNODE_SIZE)
    }

    /// Test-friendly allocation with a custom supernode size.
    pub fn with_supernode(nodes: usize, supernode_size: usize) -> Self {
        Topology::try_with_supernode(nodes, supernode_size).expect("invalid topology")
    }

    /// Checked [`Topology::with_supernode`].
    pub(crate) fn try_with_supernode(
        nodes: usize,
        supernode_size: usize,
    ) -> Result<Self, TopologyError> {
        if nodes == 0 {
            return Err(TopologyError::ZeroNodes);
        }
        if supernode_size == 0 {
            return Err(TopologyError::ZeroSupernodeSize);
        }
        Ok(Topology {
            nodes,
            supernode_size,
        })
    }

    /// Supernode housing a physical rank.
    pub fn supernode_of(&self, rank: usize) -> usize {
        rank / self.supernode_size
    }

    /// Number of (partially) occupied supernodes.
    pub fn supernodes(&self) -> usize {
        self.nodes.div_ceil(self.supernode_size)
    }

    /// Nodes co-located in one supernode (the paper's `q`), for full
    /// supernodes.
    pub fn q(&self) -> usize {
        self.supernode_size.min(self.nodes)
    }

    /// Whether a physical pair communicates across the central switch.
    pub fn crosses(&self, a: usize, b: usize) -> bool {
        self.supernode_of(a) != self.supernode_of(b)
    }
}

/// Rank mapping between the collective's logical numbering and physical
/// node placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankMap {
    /// MPI default: logical == physical (supernodes hold contiguous
    /// logical ranks).
    Natural,
    /// The paper's improvement: logical ranks assigned to supernodes
    /// round-robin, so large-message (large-distance) exchanges stay
    /// inside a supernode and only the small tail crosses the switch.
    RoundRobin,
}

impl RankMap {
    /// Physical node of a logical rank. Bijective for *every* allocation,
    /// including partially filled supernodes: physical nodes form a
    /// ragged matrix (one row per supernode, the last row possibly
    /// short), and logical ranks traverse it column by column — the
    /// round-robin order — switching to the shorter column height once
    /// the partial supernode is exhausted.
    pub fn physical(&self, topo: &Topology, logical: usize) -> usize {
        self.try_physical(topo, logical)
            .expect("invalid rank mapping")
    }

    /// Checked [`RankMap::physical`].
    pub(crate) fn try_physical(
        &self,
        topo: &Topology,
        logical: usize,
    ) -> Result<usize, TopologyError> {
        if logical >= topo.nodes {
            return Err(TopologyError::RankOutOfRange {
                logical,
                nodes: topo.nodes,
            });
        }
        Ok(match self {
            RankMap::Natural => logical,
            RankMap::RoundRobin => {
                let s = topo.supernodes();
                if s <= 1 {
                    return Ok(logical);
                }
                let ss = topo.supernode_size;
                // The first s-1 supernodes are full; the last holds the
                // remainder (1..=ss nodes).
                let rem = topo.nodes - (s - 1) * ss;
                let (sn, idx) = if logical < rem * s {
                    // Columns 0..rem exist in all s supernodes.
                    (logical % s, logical / s)
                } else {
                    // Columns rem..ss only exist in the s-1 full ones.
                    let l = logical - rem * s;
                    (l % (s - 1), rem + l / (s - 1))
                };
                sn * ss + idx
            }
        })
    }

    /// Materialize and validate the full logical→physical table: every
    /// logical rank must land on a distinct, existing physical node. The
    /// closed-form ragged-matrix mapping is proven bijective by tests,
    /// but the static checker re-establishes it per configuration so a
    /// future mapping bug cannot silently alias two ranks' gradients.
    pub fn physical_table(&self, topo: &Topology) -> Result<Vec<usize>, TopologyError> {
        let mut owner = vec![usize::MAX; topo.nodes];
        let mut table = Vec::with_capacity(topo.nodes);
        for logical in 0..topo.nodes {
            let physical = self.try_physical(topo, logical)?;
            if physical >= topo.nodes {
                return Err(TopologyError::PhantomPhysical { logical, physical });
            }
            if owner[physical] != usize::MAX {
                return Err(TopologyError::NonBijectiveMap {
                    logical_a: owner[physical],
                    logical_b: logical,
                    physical,
                });
            }
            owner[physical] = logical;
            table.push(physical);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supernode_membership() {
        let t = Topology::new(1024);
        assert_eq!(t.supernodes(), 4);
        assert_eq!(t.supernode_of(0), 0);
        assert_eq!(t.supernode_of(255), 0);
        assert_eq!(t.supernode_of(256), 1);
        assert!(t.crosses(10, 300));
        assert!(!t.crosses(10, 200));
    }

    #[test]
    fn round_robin_spreads_adjacent_logicals() {
        // Paper example: 4 supernodes; logical 0,4,8,... in supernode 0,
        // logical 1,5,9,... in supernode 1, etc.
        let t = Topology::with_supernode(16, 4);
        let m = RankMap::RoundRobin;
        for l in 0..16 {
            assert_eq!(t.supernode_of(m.physical(&t, l)), l % 4, "logical {l}");
        }
        // Bijective.
        let mut seen: Vec<usize> = (0..16).map(|l| m.physical(&t, l)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn natural_is_identity() {
        let t = Topology::new(512);
        for l in [0, 100, 511] {
            assert_eq!(RankMap::Natural.physical(&t, l), l);
        }
    }

    #[test]
    fn round_robin_is_bijective_for_uneven_allocations() {
        // Property sweep: for every allocation — including node counts
        // that do not divide evenly into supernodes — the mapping must be
        // a permutation of the physical ranks, and every physical rank it
        // produces must actually exist.
        for supernode_size in 1..=9usize {
            for nodes in 1..=40usize {
                let t = Topology::with_supernode(nodes, supernode_size);
                let m = RankMap::RoundRobin;
                let mut seen: Vec<usize> = (0..nodes).map(|l| m.physical(&t, l)).collect();
                for (l, &phys) in seen.iter().enumerate() {
                    assert!(
                        phys < nodes,
                        "nodes={nodes} ss={supernode_size}: logical {l} -> phantom physical {phys}"
                    );
                }
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..nodes).collect::<Vec<_>>(),
                    "nodes={nodes} ss={supernode_size}: mapping is not bijective"
                );
            }
        }
    }

    #[test]
    fn round_robin_spreads_uneven_fill_across_supernodes() {
        // The issue's example: 10 nodes over supernodes of 4 used to map
        // two logical ranks onto one physical node. Now adjacent logical
        // ranks land in distinct supernodes while all three supernodes
        // (4 + 4 + 2 nodes) are used.
        let t = Topology::with_supernode(10, 4);
        let m = RankMap::RoundRobin;
        for l in 0..5 {
            assert_ne!(
                t.supernode_of(m.physical(&t, 2 * l)),
                t.supernode_of(m.physical(&t, 2 * l + 1)),
                "adjacent logical ranks {l} share a supernode"
            );
        }
    }

    #[test]
    fn zero_node_allocation_is_rejected() {
        assert_eq!(Topology::try_new(0), Err(TopologyError::ZeroNodes));
        assert_eq!(
            Topology::try_with_supernode(0, 4),
            Err(TopologyError::ZeroNodes)
        );
    }

    #[test]
    fn zero_supernode_size_is_rejected() {
        assert_eq!(
            Topology::try_with_supernode(8, 0),
            Err(TopologyError::ZeroSupernodeSize)
        );
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn panicking_constructor_still_guards() {
        let _ = Topology::with_supernode(8, 0);
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let t = Topology::with_supernode(8, 4);
        for map in [RankMap::Natural, RankMap::RoundRobin] {
            assert_eq!(
                map.try_physical(&t, 8),
                Err(TopologyError::RankOutOfRange {
                    logical: 8,
                    nodes: 8
                })
            );
            assert_eq!(
                map.try_physical(&t, usize::MAX),
                Err(TopologyError::RankOutOfRange {
                    logical: usize::MAX,
                    nodes: 8
                })
            );
        }
    }

    #[test]
    fn physical_table_proves_bijectivity() {
        for supernode_size in 1..=9usize {
            for nodes in 1..=40usize {
                let t = Topology::with_supernode(nodes, supernode_size);
                for map in [RankMap::Natural, RankMap::RoundRobin] {
                    let table = map.physical_table(&t).expect("bijective");
                    assert_eq!(table.len(), nodes);
                }
            }
        }
    }

    #[test]
    fn topology_error_messages_name_the_offenders() {
        let msg = TopologyError::NonBijectiveMap {
            logical_a: 3,
            logical_b: 7,
            physical: 5,
        }
        .to_string();
        assert!(
            msg.contains('3') && msg.contains('7') && msg.contains('5'),
            "{msg}"
        );
        assert!(TopologyError::ZeroNodes
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn round_robin_keeps_large_distances_local() {
        // Fig. 7's point: with round-robin mapping, logical distance p/2
        // stays inside a supernode.
        let t = Topology::with_supernode(8, 4);
        let m = RankMap::RoundRobin;
        for l in 0..4 {
            let a = m.physical(&t, l);
            let b = m.physical(&t, l + 4);
            assert!(
                !t.crosses(a, b),
                "distance-4 pair ({l}) must be intra-supernode"
            );
        }
        // And distance 1 crosses.
        let a = m.physical(&t, 0);
        let b = m.physical(&t, 1);
        assert!(t.crosses(a, b));
    }
}

//! Physical interconnect topologies and their collective cost models.

use serde::{Deserialize, Serialize};

use crate::collective::{Collective, CollectiveCost};

/// The physical arrangement of links between the participants of a
/// communication group.
///
/// The topology determines two things for every [`Collective`]:
///
/// * the **topology factor** `T`: the number of times the payload crosses a
///   link, divided by the number of participants (the paper's `T_intra`,
///   `T_inter`, `T_MoE` — e.g. `2(N−1)/N` for a ring all-reduce);
/// * the number of serialized **steps**, which multiply the per-hop latency.
///
/// # Example
///
/// ```
/// use amped_topo::{Collective, Topology};
/// let t = Topology::FullyConnected.cost(Collective::AllToAll, 16);
/// assert!((t.factor - 15.0 / 16.0).abs() < 1e-12);
/// assert_eq!(t.steps, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Topology {
    /// A unidirectional ring; the canonical substrate of bandwidth-optimal
    /// all-reduce (`2(N−1)` steps, factor `2(N−1)/N`).
    Ring,
    /// A full crossbar (e.g. NVSwitch inside an HGX node, or a non-blocking
    /// fat-tree between nodes). Bandwidth-optimal collectives keep the ring
    /// factor (each port still moves `2(N−1)/N · V` bytes) but latency terms
    /// collapse to a constant number of phases.
    FullyConnected,
    /// A binary reduction tree: latency scales with `2·log2(N)` steps; each
    /// participant still moves `2(N−1)/N · V` in the bandwidth-optimal
    /// formulation (reduce + broadcast pipelined).
    Tree,
    /// Direct point-to-point neighbour links only (a pipeline). Only
    /// meaningful for [`Collective::PointToPoint`]; other collectives fall
    /// back to ring behaviour over the chain.
    Chain,
    /// A 2-D torus of `rows × cols` participants: collectives decompose
    /// into a ring phase per dimension, halving the serialized step count
    /// relative to one long ring while keeping the bandwidth-optimal
    /// per-participant volume.
    Torus2d {
        /// Ring length of the first dimension.
        rows: usize,
        /// Ring length of the second dimension.
        cols: usize,
    },
}

impl Topology {
    /// Cost of running `collective` over `n` participants on this topology.
    ///
    /// For `n <= 1` every collective is free (no communication partner).
    ///
    /// # Example
    ///
    /// ```
    /// use amped_topo::{Collective, Topology};
    /// assert_eq!(Topology::Ring.cost(Collective::AllReduce, 1).steps, 0);
    /// ```
    pub fn cost(self, collective: Collective, n: usize) -> CollectiveCost {
        if n <= 1 {
            return CollectiveCost::free();
        }
        let nf = n as f64;
        let ring_ar = CollectiveCost::new(2.0 * (nf - 1.0) / nf, 2 * (n - 1));
        let ring_half = CollectiveCost::new((nf - 1.0) / nf, n - 1);
        match (self, collective) {
            (Topology::Ring | Topology::Chain, Collective::AllReduce) => ring_ar,
            (Topology::Ring | Topology::Chain, Collective::ReduceScatter)
            | (Topology::Ring | Topology::Chain, Collective::AllGather)
            | (Topology::Ring | Topology::Chain, Collective::AllToAll)
            | (Topology::Ring | Topology::Chain, Collective::Broadcast) => ring_half,
            (Topology::FullyConnected, Collective::AllReduce) => {
                // Same per-port volume as a ring, but only two latency phases
                // (reduce-scatter + all-gather through the switch).
                CollectiveCost::new(2.0 * (nf - 1.0) / nf, 2)
            }
            (Topology::FullyConnected, Collective::ReduceScatter)
            | (Topology::FullyConnected, Collective::AllGather)
            | (Topology::FullyConnected, Collective::AllToAll)
            | (Topology::FullyConnected, Collective::Broadcast) => {
                CollectiveCost::new((nf - 1.0) / nf, 1)
            }
            (Topology::Tree, Collective::AllReduce) => {
                CollectiveCost::new(2.0 * (nf - 1.0) / nf, 2 * nf.log2().ceil() as usize)
            }
            (Topology::Tree, Collective::ReduceScatter)
            | (Topology::Tree, Collective::AllGather)
            | (Topology::Tree, Collective::AllToAll)
            | (Topology::Tree, Collective::Broadcast) => {
                CollectiveCost::new((nf - 1.0) / nf, nf.log2().ceil() as usize)
            }
            (Topology::Torus2d { rows, cols }, Collective::AllReduce) => {
                // Ring reduce-scatter + all-gather along each dimension.
                let (r, c) = (rows.max(1), cols.max(1));
                let steps = 2 * (r.saturating_sub(1)) + 2 * (c.saturating_sub(1));
                CollectiveCost::new(2.0 * (nf - 1.0) / nf, steps.max(1))
            }
            (Topology::Torus2d { rows, cols }, _) => {
                let (r, c) = (rows.max(1), cols.max(1));
                let steps = r.saturating_sub(1) + c.saturating_sub(1);
                CollectiveCost::new((nf - 1.0) / nf, steps.max(1))
            }
            (_, Collective::PointToPoint) => CollectiveCost::new(1.0, 1),
        }
    }
}

impl Default for Topology {
    /// Ring is the default because it is what the paper assumes for both
    /// intra- and inter-node all-reduce.
    fn default() -> Self {
        Topology::Ring
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Topology::Ring => "ring",
            Topology::FullyConnected => "fully-connected",
            Topology::Tree => "tree",
            Topology::Chain => "chain",
            Topology::Torus2d { .. } => "2d-torus",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_matches_paper_formula() {
        for n in 2..=64 {
            let c = Topology::Ring.cost(Collective::AllReduce, n);
            let nf = n as f64;
            assert!((c.factor - 2.0 * (nf - 1.0) / nf).abs() < 1e-12, "n={n}");
            assert_eq!(c.steps, 2 * (n - 1));
        }
    }

    #[test]
    fn pairwise_alltoall_matches_paper_formula() {
        // Eq. 9: T_MoE = (N_nodes - 1) / N_nodes in the pairwise case.
        for n in 2..=32 {
            let c = Topology::Ring.cost(Collective::AllToAll, n);
            let nf = n as f64;
            assert!((c.factor - (nf - 1.0) / nf).abs() < 1e-12);
            assert_eq!(c.steps, n - 1);
        }
    }

    #[test]
    fn single_participant_is_free() {
        for topo in [
            Topology::Ring,
            Topology::FullyConnected,
            Topology::Tree,
            Topology::Chain,
        ] {
            for coll in [
                Collective::AllReduce,
                Collective::ReduceScatter,
                Collective::AllGather,
                Collective::AllToAll,
                Collective::Broadcast,
                Collective::PointToPoint,
            ] {
                let c = topo.cost(coll, 1);
                assert_eq!(c.factor, 0.0);
                assert_eq!(c.steps, 0);
                let c0 = topo.cost(coll, 0);
                assert_eq!(c0.factor, 0.0);
            }
        }
    }

    #[test]
    fn switch_has_constant_latency_phases() {
        let c8 = Topology::FullyConnected.cost(Collective::AllReduce, 8);
        let c64 = Topology::FullyConnected.cost(Collective::AllReduce, 64);
        assert_eq!(c8.steps, c64.steps);
        assert!(c64.factor > c8.factor);
    }

    #[test]
    fn tree_latency_is_logarithmic() {
        let c = Topology::Tree.cost(Collective::AllReduce, 16);
        assert_eq!(c.steps, 8); // 2 * log2(16)
    }

    #[test]
    fn factors_bounded_by_two() {
        for n in 2..=128 {
            for topo in [Topology::Ring, Topology::FullyConnected, Topology::Tree] {
                let c = topo.cost(Collective::AllReduce, n);
                assert!(c.factor > 0.0 && c.factor < 2.0);
            }
        }
    }

    #[test]
    fn torus_has_fewer_steps_than_one_ring() {
        let n = 64;
        let torus = Topology::Torus2d { rows: 8, cols: 8 };
        let ring = Topology::Ring;
        let t = torus.cost(Collective::AllReduce, n);
        let r = ring.cost(Collective::AllReduce, n);
        assert!(t.steps < r.steps, "torus {} vs ring {}", t.steps, r.steps);
        assert!((t.factor - r.factor).abs() < 1e-12, "same per-port volume");
        assert_eq!(t.steps, 2 * 7 + 2 * 7);
    }

    #[test]
    fn torus_alltoall_cost() {
        let t = Topology::Torus2d { rows: 4, cols: 4 }.cost(Collective::AllToAll, 16);
        assert_eq!(t.steps, 6);
        assert!((t.factor - 15.0 / 16.0).abs() < 1e-12);
        assert_eq!(
            Topology::Torus2d { rows: 4, cols: 4 }.to_string(),
            "2d-torus"
        );
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Topology::Ring.to_string(), "ring");
        assert_eq!(Topology::FullyConnected.to_string(), "fully-connected");
    }
}

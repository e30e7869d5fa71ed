//! Deterministic placement of a mapping onto a failure-domain tree.
//!
//! A correlated outage's cost depends on *where* pipeline stages and DP
//! replicas sit relative to the failing domain: a layout that packs each
//! replica into its own rack loses one replica per rack outage (elastic
//! mode can absorb it), while one that stripes a stage of every replica
//! across the same rack loses them all (always fatal). The enumerator
//! below scores the two canonical layouts and picks the one with the
//! smallest blast radius — deterministically, so rankings that depend on
//! it stay bit-identical run to run.

use amped_core::{DomainPlacement, FailureDomainTree, Parallelism, SystemSpec};
use serde::{Deserialize, Serialize};

/// Which layout assigns devices to failure domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementChoice {
    /// Score replica-major and stage-major, keep the smaller blast radius
    /// (ties prefer replica-major).
    #[default]
    Auto,
    /// Consecutive devices belong to one DP replica (`d = r·pp + s`).
    ReplicaMajor,
    /// Consecutive devices belong to one pipeline stage (`d = s·dp + r`).
    StageMajor,
}

impl PlacementChoice {
    /// Parse a scenario/CLI spelling. Accepts `auto`, `replica-major`
    /// (or `replica`), `stage-major` (or `stage`).
    pub fn parse(s: &str) -> Option<PlacementChoice> {
        match s {
            "auto" => Some(PlacementChoice::Auto),
            "replica-major" | "replica" => Some(PlacementChoice::ReplicaMajor),
            "stage-major" | "stage" => Some(PlacementChoice::StageMajor),
            _ => None,
        }
    }
}

/// The blast-radius sort key: worst-case broken replicas per rack outage,
/// then per node, then per pod. Rack outages dominate the key because they
/// are the tier real clusters actually lose (PDU/ToR), and the node tier
/// breaks ties for preemption-heavy scenarios.
fn blast_key(p: &DomainPlacement) -> [usize; 3] {
    [p.replicas_per_rack, p.replicas_per_node, p.replicas_per_pod]
}

/// The placement used to price `parallelism` on `tree`: the explicitly
/// requested layout, or the blast-radius-minimizing one under `Auto`.
/// A pure function of its arguments — the deterministic placement
/// enumerator behind `search --goodput` and `recommend`.
pub fn placement_for(
    parallelism: &Parallelism,
    system: &SystemSpec,
    tree: &FailureDomainTree,
    choice: PlacementChoice,
) -> DomainPlacement {
    let dp = parallelism.dp();
    let pp = parallelism.pp();
    let tp = parallelism.tp();
    let apn = system.accels_per_node();
    let replica = DomainPlacement::replica_major(dp, pp, tp, apn, tree);
    match choice {
        PlacementChoice::ReplicaMajor => replica,
        PlacementChoice::StageMajor => DomainPlacement::stage_major(dp, pp, tp, apn, tree),
        PlacementChoice::Auto => {
            let stage = DomainPlacement::stage_major(dp, pp, tp, apn, tree);
            if blast_key(&stage) < blast_key(&replica) {
                stage
            } else {
                replica
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(PlacementChoice::parse("auto"), Some(PlacementChoice::Auto));
        assert_eq!(
            PlacementChoice::parse("replica-major"),
            Some(PlacementChoice::ReplicaMajor)
        );
        assert_eq!(PlacementChoice::parse("stage"), Some(PlacementChoice::StageMajor));
        assert_eq!(PlacementChoice::parse("diagonal"), None);
    }

    #[test]
    fn auto_prefers_the_smaller_blast_radius_and_breaks_ties_replica_major() {
        use amped_core::Link;
        // 16 single-accel nodes, racks of 4: dp 4 × pp 4 replica-major puts
        // one replica per rack (blast radius 1); stage-major stripes a
        // stage of every replica through each rack (blast radius 4).
        let sys =
            SystemSpec::new(16, 1, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 1).unwrap();
        let p = Parallelism::builder().dp(1, 4).pp(1, 4).build().unwrap();
        let tree = FailureDomainTree::new(16, 4, 2).unwrap();
        let auto = placement_for(&p, &sys, &tree, PlacementChoice::Auto);
        assert_eq!(auto.strategy, "replica-major");
        assert_eq!(auto.replicas_per_rack, 1);
        let forced = placement_for(&p, &sys, &tree, PlacementChoice::StageMajor);
        assert_eq!(forced.strategy, "stage-major");
        assert_eq!(forced.replicas_per_rack, 4);
        // Pure dp (pp = 1): both layouts coincide, the tie goes replica-major.
        let flat = Parallelism::builder().dp(1, 16).build().unwrap();
        let tied = placement_for(&flat, &sys, &tree, PlacementChoice::Auto);
        assert_eq!(tied.strategy, "replica-major");
    }
}

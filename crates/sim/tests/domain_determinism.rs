//! Property tests over correlated fault materialization.
//!
//! The laws the domain-event stream promises, checked over random domain
//! trees, tier rates, and seeds:
//!
//! * same seed + same tree ⇒ bit-identical event schedule, no matter how
//!   the stream is pulled (straight collect, one-at-a-time, or through
//!   clones) — this is what makes `search --goodput` reproducible;
//! * the merged stream is time-ordered and every event's blast radius
//!   stays inside the tree;
//! * a plan with no seed injects nothing at all.

use amped_core::FailureDomainTree;
use amped_sim::{DomainEvent, FaultPlan};
use proptest::prelude::*;

/// Random tree shapes and tier rates; the `mask` gates which of the three
/// tiers (rack outage / pod outage / preemption) are configured.
#[allow(clippy::type_complexity)]
fn domain_strategy(
) -> impl Strategy<Value = (usize, usize, usize, u64, f64, f64, f64, u8)> {
    (
        1usize..48,      // nodes
        1usize..9,       // nodes per rack
        1usize..5,       // racks per pod
        0u64..1_000_000, // master seed
        1e3f64..1e7,     // rack MTBF, seconds
        1e3f64..1e7,     // pod MTBF, seconds
        1e3f64..1e7,     // preemption MTBF, seconds
        0u8..8,          // tier mask
    )
}

#[allow(clippy::too_many_arguments)]
fn build(
    nodes: usize,
    npr: usize,
    rpp: usize,
    seed: Option<u64>,
    rack_mtbf: f64,
    pod_mtbf: f64,
    preempt_mtbf: f64,
    mask: u8,
) -> (FailureDomainTree, FaultPlan) {
    let mut tree = FailureDomainTree::new(nodes, npr.min(nodes), rpp).unwrap();
    if mask & 1 != 0 {
        tree = tree.with_rack_mtbf(rack_mtbf);
    }
    if mask & 2 != 0 {
        tree = tree.with_pod_mtbf(pod_mtbf);
    }
    let mut plan = match seed {
        Some(s) => FaultPlan::seeded(s),
        None => FaultPlan::none(),
    }
    .with_domain_tree(tree.clone());
    if mask & 4 != 0 {
        plan = plan.with_preemption(preempt_mtbf);
    }
    plan.validate().unwrap();
    (tree, plan)
}

proptest! {
    #[test]
    fn same_seed_and_tree_reproduce_the_schedule_in_any_pull_order(
        (nodes, npr, rpp, seed, rm, pm, em, mask) in domain_strategy(),
    ) {
        let (tree, plan) = build(nodes, npr, rpp, Some(seed), rm, pm, em, mask);
        let a: Vec<DomainEvent> = plan.domain_events().take(128).collect();
        let b: Vec<DomainEvent> = plan.domain_events().take(128).collect();
        prop_assert_eq!(&a, &b);

        // Time-ordered, and every blast radius stays inside the tree.
        let mut last = 0.0f64;
        for e in &a {
            prop_assert!(e.at_s >= last, "stream must be time-ordered");
            last = e.at_s;
            let (n0, n1) = e.node_span(&tree);
            prop_assert!(n0 < n1 && n1 <= nodes, "span [{}, {}) of {} nodes", n0, n1, nodes);
        }

        // Pulling one event at a time, probing a clone before each pull,
        // still yields the same schedule: enumeration order and stream
        // cloning never touch the per-tier generators.
        let mut stream = plan.domain_events();
        let mut interleaved: Vec<DomainEvent> = Vec::new();
        while interleaved.len() < a.len() {
            let mut probe = stream.clone();
            let _ = probe.next();
            match stream.next() {
                Some(e) => interleaved.push(e),
                None => break,
            }
        }
        prop_assert_eq!(a, interleaved);
    }

    #[test]
    fn unseeded_plans_inject_no_domain_events(
        (nodes, npr, rpp, _seed, rm, pm, em, mask) in domain_strategy(),
    ) {
        let (_, plan) = build(nodes, npr, rpp, None, rm, pm, em, mask | 7);
        prop_assert!(plan.domain_events().next().is_none());
    }
}

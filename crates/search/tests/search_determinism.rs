//! The acceptance fixture for the pruned, memoized and refined search
//! paths: Megatron 145B on a 16×8 A100/HDR cluster. Every run of the same
//! input gives the same ranking — same candidates, same order, same times
//! to the bit — and the same accounting, and pruning only ever drops rows
//! that cannot win.

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::{ElasticParams, FailureDomainTree, TrainingConfig};
use amped_obs::Observer;
use amped_search::{Candidate, DomainGoodput, GoodputOptions, PlacementChoice, SearchEngine};
use amped_sim::FaultPlan;

fn degrees(c: &Candidate) -> [usize; 6] {
    let p = &c.parallelism;
    [
        p.tp_intra(),
        p.tp_inter(),
        p.pp_intra(),
        p.pp_inter(),
        p.dp_intra(),
        p.dp_inter(),
    ]
}

fn assert_bit_identical(a: &[Candidate], b: &[Candidate]) {
    assert_eq!(a.len(), b.len(), "ranking lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(degrees(x), degrees(y), "candidate {i} differs");
        assert_eq!(
            x.estimate.total_time.get().to_bits(),
            y.estimate.total_time.get().to_bits(),
            "total time of candidate {i} differs"
        );
        assert_eq!(
            x.estimate.time_per_iteration.get().to_bits(),
            y.estimate.time_per_iteration.get().to_bits(),
            "iteration time of candidate {i} differs"
        );
        assert_eq!(x.estimate.num_microbatches, y.estimate.num_microbatches);
        assert_eq!(x.fits_memory, y.fits_memory);
        assert_eq!(
            x.energy.total_joules().to_bits(),
            y.energy.total_joules().to_bits(),
            "energy of candidate {i} differs"
        );
        assert_eq!(
            x.objective_time().to_bits(),
            y.objective_time().to_bits(),
            "objective of candidate {i} differs"
        );
        match (&x.refined, &y.refined) {
            (Some(rx), Some(ry)) => assert_eq!(
                rx.total_time.get().to_bits(),
                ry.total_time.get().to_bits(),
                "refined time of candidate {i} differs"
            ),
            (None, None) => {}
            _ => panic!("refinement outcome of candidate {i} differs"),
        }
    }
}

/// `pruned` is `full` with rows removed: same winner, and every row
/// bit-identical to its twin, in the same order.
fn assert_pruned_subsequence(pruned: &[Candidate], full: &[Candidate]) {
    assert!(!pruned.is_empty());
    assert_bit_identical(&pruned[..1], &full[..1]);
    let mut rest = full.iter();
    for (i, c) in pruned.iter().enumerate() {
        let twin = rest
            .by_ref()
            .find(|f| degrees(f) == degrees(c))
            .unwrap_or_else(|| panic!("pruned row {i} is missing from the full ranking"));
        assert_bit_identical(std::slice::from_ref(c), std::slice::from_ref(twin));
    }
}

/// `search --prune --memory-filter` on the fixture: the accounting is a
/// function of the input — identical run to run and with an observer
/// attached — and the memory filter rejects exactly what the unpruned
/// search rejects.
#[test]
fn megatron_145b_pruned_memory_filtered_stats_are_deterministic() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let base = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_memory_filter(true);
    let pruned = base.clone().with_pruning(true);

    let (ranked, stats) = pruned.search_with_stats(&training).unwrap();
    assert!(stats.pruned > 0, "the fixture should prune: {stats:?}");
    assert!(
        stats.memory_rejected.total() > 0,
        "the fixture should reject: {stats:?}"
    );
    assert_eq!(
        stats.generated,
        stats.pruned + stats.kept + stats.memory_rejected.total()
    );
    for _ in 0..2 {
        let (again, again_stats) = pruned.search_with_stats(&training).unwrap();
        assert_eq!(again_stats, stats);
        assert_bit_identical(&again, &ranked);
    }
    let obs = std::sync::Arc::new(Observer::new());
    let (observed, observed_stats) = pruned
        .clone()
        .with_observer(obs.clone())
        .search_with_stats(&training)
        .unwrap();
    assert_eq!(observed_stats, stats);
    assert_bit_identical(&observed, &ranked);
    assert_eq!(obs.counters()["search.candidates.pruned"], stats.pruned);

    let (full, full_stats) = base.search_with_stats(&training).unwrap();
    assert_eq!(stats.memory_rejected, full_stats.memory_rejected);
    assert_eq!(full_stats.pruned, 0);
    assert_pruned_subsequence(&ranked, &full);
}

/// Simulator-refined search (`--refine-sim 8`) is reproducible, and the
/// refined block is ranked by the simulator's times.
#[test]
fn megatron_145b_refined_search_is_deterministic() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(512, 1).expect("valid");
    let engine = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_memory_filter(true)
        .with_refine_sim(8);

    let first = engine.search(&training).unwrap();
    let second = engine.search(&training).unwrap();
    assert_bit_identical(&first, &second);
    assert!(
        first.len() >= 8,
        "fixture should rank at least the refined block"
    );
    assert!(first[..8].iter().any(|c| c.refined.is_some()));
    for w in first[..8].windows(2) {
        if let (Some(x), Some(y)) = (&w[0].refined, &w[1].refined) {
            assert!(x.total_time.get() <= y.total_time.get());
        }
    }
}

/// Fault injection must not cost determinism: the same fault seed through
/// simulator-refined search yields bit-identical refined totals run to
/// run, and the injected faults really move them.
#[test]
fn megatron_145b_fault_seeded_refinement_is_deterministic() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(512, 2).expect("valid");
    let plan = FaultPlan::seeded(0xFA17)
        .with_random_stragglers(3, 2.0)
        .with_device_mtbf(24.0 * 3600.0)
        .with_restart(120.0);
    let base = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_memory_filter(true)
        .with_refine_sim(6)
        .with_fault_plan(plan);

    let faulty = base.search(&training).unwrap();
    assert_bit_identical(&faulty, &base.search(&training).unwrap());

    // Injected faults actually moved the refined block relative to a clean
    // refinement pass — this test must not vacuously compare no-ops.
    let clean = base
        .clone()
        .with_fault_plan(FaultPlan::none())
        .search(&training)
        .unwrap();
    let slowed = faulty
        .iter()
        .zip(&clean)
        .filter_map(|(f, c)| Some((f.refined.as_ref()?, c.refined.as_ref()?)))
        .filter(|(f, c)| f.total_time.get() > c.total_time.get())
        .count();
    assert!(
        slowed > 0,
        "seeded stragglers must slow some refined candidate"
    );
}

/// Goodput-objective searches: every candidate carries its expected-time
/// analysis, and the pruned ranking keeps the expected-time winner.
#[test]
fn megatron_145b_goodput_pruned_ranking_keeps_the_winner() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let base = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_goodput(GoodputOptions::new(4380.0 * 3600.0));

    let full = base.search(&training).unwrap();
    assert!(full.iter().all(|c| c.resilience.is_some()));
    let pruned = base.clone().with_pruning(true).search(&training).unwrap();
    assert_pruned_subsequence(&pruned, &full);
}

/// The failure-domain layer: `search --goodput` with a domain tree —
/// placement enumeration, correlated tiers, elastic preemptions and all —
/// is reproducible, the tiers move the objective, and the degenerate
/// all-in-one-domain tree reproduces the plain goodput ranking bit for bit.
#[test]
fn megatron_145b_domain_goodput_ranking_is_deterministic() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let tree = FailureDomainTree::new(16, 4, 2)
        .unwrap()
        .with_rack_mtbf(0.5 * 365.25 * 86400.0)
        .with_pod_mtbf(2.0 * 365.25 * 86400.0);
    let domains = DomainGoodput {
        tree,
        elastic: Some(ElasticParams::new(600.0).with_preemption_mtbf(60.0 * 86400.0)),
        placement: PlacementChoice::Auto,
    };
    let engine = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_goodput(GoodputOptions::new(4380.0 * 3600.0).with_failure_domains(domains));

    let placed = engine.search(&training).unwrap();
    assert!(placed.iter().all(|c| c.resilience.is_some()));
    assert_bit_identical(&placed, &engine.search(&training).unwrap());

    // Correlated tiers must actually move the objective off the plain
    // goodput ranking's values.
    let plain = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_goodput(GoodputOptions::new(4380.0 * 3600.0))
        .search(&training)
        .unwrap();
    assert!(
        placed
            .iter()
            .zip(plain.iter())
            .any(|(d, p)| d.objective_time() != p.objective_time()),
        "domain tiers should perturb expected times"
    );

    // Degenerate tree (every device in one domain, no tier rates, no
    // preemption): the correlated path must reproduce the independent-
    // exponential goodput ranking bit for bit.
    let degenerate = SearchEngine::new(&model, &a100, &system)
        .with_efficiency(efficiency::case_study())
        .with_goodput(
            GoodputOptions::new(4380.0 * 3600.0).with_failure_domains(DomainGoodput {
                tree: FailureDomainTree::single_domain(16),
                elastic: None,
                placement: PlacementChoice::Auto,
            }),
        )
        .search(&training)
        .unwrap();
    assert_eq!(degenerate.len(), plain.len());
    for (x, y) in degenerate.iter().zip(&plain) {
        assert_eq!(degrees(x), degrees(y));
        assert_eq!(
            x.objective_time().to_bits(),
            y.objective_time().to_bits(),
            "degenerate domain tree must not perturb the goodput objective"
        );
        let (rx, ry) = (
            x.resilience.as_ref().unwrap(),
            y.resilience.as_ref().unwrap(),
        );
        assert_eq!(rx.expected_s.to_bits(), ry.expected_s.to_bits());
        assert_eq!(rx.interval_s.to_bits(), ry.interval_s.to_bits());
    }
}

#[test]
fn megatron_145b_best_agrees_across_modes() {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let base = SearchEngine::new(&model, &a100, &system).with_efficiency(efficiency::case_study());

    let reference = base.best(&training).unwrap().expect("fixture has a winner");
    for ranked in [
        base.search(&training).unwrap(),
        base.clone().with_pruning(true).search(&training).unwrap(),
    ] {
        assert_bit_identical(&ranked[..1], std::slice::from_ref(&reference));
    }
}

#[test]
fn shared_cache_pool_is_bit_identical_cold_and_warm() {
    use std::sync::Arc;

    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let base = SearchEngine::new(&model, &a100, &system).with_efficiency(efficiency::case_study());

    let reference = base.search(&training).unwrap();

    let pool = Arc::new(amped_core::CachePool::new());
    // Cold pass fills the pool; the warm pass re-leases the same cache.
    let pooled = base.clone().with_cache_pool(Arc::clone(&pool));
    let cold = pooled.search(&training).unwrap();
    assert_bit_identical(&reference, &cold);
    assert!(
        pool.shelved() > 0,
        "cold pass should shelve its warmed cache"
    );

    let warm = pooled.search(&training).unwrap();
    assert_bit_identical(&reference, &warm);
    assert!(
        pool.warm_checkouts() > 0,
        "warm pass should reuse the shelved cache"
    );
    assert_eq!(pool.lookups(), pool.hits() + pool.misses());
}

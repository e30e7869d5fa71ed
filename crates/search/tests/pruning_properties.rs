//! Property tests for branch-and-bound pruning. The kernel's lower bound
//! (compute plus the variant-invariant TP-communication floor) never
//! exceeds the kernel's full estimate, for any valid mapping of a random
//! scenario; the inequality must hold EXACTLY in f64 — that is what makes
//! pruning lossless. And over random preset scenarios, both searches drop
//! only rows that cannot win.

use amped_configs::{accelerators, efficiency, registry, systems};
use amped_core::{
    AcceleratorSpec, BatchEvaluator, EfficiencyModel, EngineOptions, EstimateCache, Link,
    MoeConfig, SystemSpec, TrainingConfig, TransformerModel,
};
use amped_infer::InferenceConfig;
use amped_search::{
    enumerate_mappings, Candidate, EnumerationOptions, GoodputOptions, SearchEngine,
    ServingCandidate, ServingSearch, ServingSweepOptions,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lower_bound_never_exceeds_full_estimate(
        (layers, heads, hidden_per_head) in (2usize..24, 0usize..3, 8usize..65),
        (seq_exp, vocab, batch_exp) in (6u32..10, 1000usize..60000, 4u32..10),
        (nodes_exp, per_node_exp) in (0u32..3, 1u32..4),
        (experts, recompute, imbalance) in (0usize..5, 0u8..2, 0u8..2),
        (eff_floor, eff_span) in (0.05f64..0.5, 0.1f64..0.5),
    ) {
        let heads = [4usize, 8, 16][heads];
        let mut builder = TransformerModel::builder("prop-m");
        builder
            .layers(layers)
            .hidden_size(heads * hidden_per_head)
            .heads(heads)
            .seq_len(1 << seq_exp)
            .vocab_size(vocab);
        if experts > 1 {
            builder.moe(MoeConfig::glam(experts));
        }
        let Ok(model) = builder.build() else { return Ok(()); };
        let accel = AcceleratorSpec::builder("prop-a")
            .frequency_hz(1e9)
            .cores(64)
            .mac_units(4, 256, 8)
            .nonlin_units(64, 4, 32)
            .memory(80e9, 2e12)
            .build()
            .expect("fixed accelerator is valid");
        let Ok(system) = SystemSpec::new(
            1 << nodes_exp,
            1 << per_node_exp,
            Link::new(1e-6, 2.4e12),
            Link::new(1e-5, 2e11),
            1 << per_node_exp,
        ) else { return Ok(()); };
        let training = TrainingConfig::new(1 << batch_exp, 3).expect("valid");
        let efficiency = EfficiencyModel::saturating(
            0.95,
            4.0,
            eff_floor,
            (eff_floor + eff_span).min(0.99),
        );
        let options = EngineOptions {
            activation_recompute: recompute == 1,
            stage_imbalance_correction: imbalance == 1,
            ..Default::default()
        };

        let mappings = enumerate_mappings(&system, &model, &EnumerationOptions::default());
        prop_assert!(!mappings.is_empty());
        let mut cache = EstimateCache::new();
        let evaluator = BatchEvaluator::new(&model, &accel, &system)
            .with_efficiency(efficiency)
            .with_options(options);
        let kernel = evaluator.prepare(&mut cache, &training).expect("valid shared inputs");
        for p in &mappings {
            let Ok(lb) = kernel.lower_bound(&mut cache, [*p]) else { continue };
            let cached = kernel
                .estimate_many(&mut cache, std::slice::from_ref(p))
                .remove(0)
                .expect("bound computed, so the estimate must too");
            prop_assert!(
                lb <= cached.total_time.get(),
                "lb {} > total {} for {:?}",
                lb, cached.total_time.get(), p
            );
            prop_assert!(lb >= 0.0);
            // The bound's TP floor is built from the very terms the
            // estimate reports (they are microbatch-variant-invariant), so
            // the stronger inequality also holds exactly in f64: the bound
            // never exceeds compute + TP communication of the estimate —
            // not just its grand total.
            let b = &cached.breakdown;
            let floor = (b.compute_total() + (b.tp_comm_intra + b.tp_comm_inter))
                * training.num_batches() as f64;
            prop_assert!(
                lb <= floor,
                "lb {} > compute+TP floor {} for {:?}",
                lb, floor, p
            );
        }
    }
}

/// The six parallelism degrees of a training candidate.
fn degrees(p: &amped_core::Parallelism) -> [usize; 6] {
    [
        p.tp_intra(),
        p.tp_inter(),
        p.pp_intra(),
        p.pp_inter(),
        p.dp_intra(),
        p.dp_inter(),
    ]
}

/// What a training ranking row is compared by: degrees, microbatches and
/// the bits of every priced number.
fn train_row(c: &Candidate) -> ([usize; 6], usize, [u64; 4]) {
    (
        degrees(&c.parallelism),
        c.estimate.num_microbatches,
        [
            c.estimate.total_time.get().to_bits(),
            c.objective_time().to_bits(),
            c.memory.total().to_bits(),
            c.energy.total_joules().to_bits(),
        ],
    )
}

/// What a serving ranking row is compared by.
fn serving_row(c: &ServingCandidate) -> ([usize; 6], usize, [u64; 3]) {
    (
        degrees(&c.parallelism),
        c.batch,
        [
            c.estimate.request_latency.get().to_bits(),
            c.estimate.tokens_per_sec.to_bits(),
            c.estimate.memory_total().to_bits(),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pruning soundness over random scenarios: the pruned training
    /// ranking is a bit-identical subsequence of the unpruned one with the
    /// same first row, and its memory rejections are the same; the serving
    /// ranking and accounting are identical with pruning on and off.
    #[test]
    fn pruning_drops_only_rows_that_cannot_win(
        preset in 0usize..registry::model_names().len(),
        (nodes_exp, batch_exp) in (0u32..4, 6u32..12),
        (recompute, goodput, memory_filter) in (0u8..2, 0u8..2, 0u8..2),
    ) {
        let name = registry::model_names()[preset];
        let model = registry::model(name).expect("listed preset resolves");
        let a100 = accelerators::a100();
        let system = systems::a100_hdr_cluster(1 << nodes_exp, 8);
        let training = TrainingConfig::new(1 << batch_exp, 10).expect("valid");
        let mut engine = SearchEngine::new(&model, &a100, &system)
            .with_efficiency(efficiency::case_study())
            .with_engine_options(EngineOptions {
                activation_recompute: recompute == 1,
                ..Default::default()
            })
            .with_memory_filter(memory_filter == 1);
        if goodput == 1 {
            engine = engine.with_goodput(GoodputOptions::new(2190.0 * 3600.0));
        }
        let (full, full_stats) = engine.search_with_stats(&training).unwrap();
        let (pruned, stats) = engine
            .clone()
            .with_pruning(true)
            .search_with_stats(&training)
            .unwrap();
        prop_assert_eq!(stats.memory_rejected, full_stats.memory_rejected);
        prop_assert_eq!(
            stats.generated,
            stats.pruned + stats.kept + stats.memory_rejected.total()
        );
        prop_assert_eq!(full.is_empty(), pruned.is_empty());
        if let (Some(first), Some(want)) = (pruned.first(), full.first()) {
            prop_assert_eq!(train_row(first), train_row(want));
        }
        let full_rows: Vec<_> = full.iter().map(train_row).collect();
        let mut rest = full_rows.iter();
        for row in pruned.iter().map(train_row) {
            prop_assert!(
                rest.any(|f| *f == row),
                "{name}: pruned row {:?} is not in the full ranking, in order",
                row.0
            );
        }

        let request = InferenceConfig::new(512, 128, 1).expect("valid");
        let serving = ServingSearch::new(&model, &a100, &system).with_sweep(ServingSweepOptions {
            max_batch: 16,
            ..ServingSweepOptions::default()
        });
        let (ranked, serving_stats) = serving.search_with_stats(&request).unwrap();
        let (ranked_pruned, pruned_stats) =
            serving.with_pruning(true).search_with_stats(&request).unwrap();
        prop_assert_eq!(serving_stats, pruned_stats);
        prop_assert_eq!(
            ranked.iter().map(serving_row).collect::<Vec<_>>(),
            ranked_pruned.iter().map(serving_row).collect::<Vec<_>>()
        );
    }
}

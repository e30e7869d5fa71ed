//! Property test for the branch-and-bound invariant: the kernel's lower
//! bound (compute plus the variant-invariant TP-communication floor) never
//! exceeds the kernel's full estimate, for any valid mapping of a random
//! scenario. The inequality must hold EXACTLY in f64 — that is what makes
//! pruning lossless.

use amped_core::{
    AcceleratorSpec, BatchEvaluator, EfficiencyModel, EngineOptions, EstimateCache, Link,
    MoeConfig, SystemSpec, TrainingConfig, TransformerModel,
};
use amped_search::{enumerate_mappings, EnumerationOptions};
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

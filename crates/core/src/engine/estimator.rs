//! The estimator: Eq. 1 of the paper for one parallelism mapping — a view
//! over the pricing kernel ([`BatchEvaluator`]).

use crate::accelerator::AcceleratorSpec;
use crate::efficiency::EfficiencyModel;
use crate::engine::{BatchEvaluator, DetailedEstimate, EngineOptions, Estimate, EstimateCache};
use crate::error::Result;
use crate::model::TransformerModel;
use crate::network::SystemSpec;
use crate::parallelism::Parallelism;
use crate::precision::Precision;
use crate::training::TrainingConfig;

/// The AMPeD analytical estimator.
///
/// Borrow the four specifications, optionally override precision,
/// efficiency and engine options, then call [`Estimator::estimate`].
///
/// # Example
///
/// ```
/// use amped_core::{
///     AcceleratorSpec, EfficiencyModel, Estimator, Link, Parallelism, SystemSpec,
///     TrainingConfig, TransformerModel,
/// };
///
/// # fn main() -> Result<(), amped_core::Error> {
/// let model = TransformerModel::builder("demo")
///     .layers(24).hidden_size(2048).heads(16).seq_len(1024).vocab_size(32000)
///     .build()?;
/// let accel = AcceleratorSpec::builder("A100")
///     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
///     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
///     .build()?;
/// let system = SystemSpec::new(2, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
/// let parallel = Parallelism::builder().tp(8, 1).dp(1, 2).build()?;
///
/// let estimate = Estimator::new(&model, &accel, &system, &parallel)
///     .with_efficiency(EfficiencyModel::Constant(0.5))
///     .estimate(&TrainingConfig::new(512, 100)?)?;
/// assert!(estimate.total_time.get() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Estimator<'a> {
    kernel: BatchEvaluator<'a>,
    parallelism: &'a Parallelism,
}

impl<'a> Estimator<'a> {
    /// Create an estimator over the four specifications with default
    /// precision (fp16), efficiency and options.
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
        parallelism: &'a Parallelism,
    ) -> Self {
        Estimator {
            kernel: BatchEvaluator::new(model, accel, system),
            parallelism,
        }
    }

    /// Override the operand precisions.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.kernel = self.kernel.with_precision(precision);
        self
    }

    /// Override the microbatch-efficiency model.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.kernel = self.kernel.with_efficiency(efficiency);
        self
    }

    /// Override the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.kernel = self.kernel.with_options(options);
        self
    }

    /// Run Eq. 1: predict the training time and its breakdown.
    ///
    /// Equivalent to [`Estimator::estimate_cached`] against a fresh
    /// [`EstimateCache`].
    ///
    /// # Errors
    ///
    /// Returns an error when any component fails validation or the
    /// parallelism mapping does not fit the system/model.
    pub fn estimate(&self, training: &TrainingConfig) -> Result<Estimate> {
        self.estimate_cached(&mut EstimateCache::new(), training)
    }

    /// [`Estimator::estimate`] with scenario-invariant sub-results memoized
    /// in `cache`: a batch of one through the kernel. Warming a cache never
    /// changes a result, so any cache respecting the context-binding
    /// contract described on [`EstimateCache`] gives the same bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn estimate_cached(
        &self,
        cache: &mut EstimateCache,
        training: &TrainingConfig,
    ) -> Result<Estimate> {
        self.kernel
            .estimate_many(cache, std::slice::from_ref(self.parallelism), training)
            .pop()
            .expect("one result per mapping")
    }

    /// Like [`Estimator::estimate`], but additionally attributes compute and
    /// communication to individual layers.
    ///
    /// Pipeline-boundary communication and bubble time are whole-pipeline
    /// quantities and appear only in the aggregate; every other breakdown
    /// component equals the sum of its per-layer rows (compute rows carry
    /// no stage-imbalance scaling).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn estimate_detailed(&self, training: &TrainingConfig) -> Result<DetailedEstimate> {
        self.kernel
            .estimate_detailed(&mut EstimateCache::new(), self.parallelism, training)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Link;
    use crate::parallelism::{MicrobatchPolicy, ZeroConfig};

    fn model() -> TransformerModel {
        TransformerModel::builder("test-1.3B")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(32000)
            .build()
            .unwrap()
    }

    fn accel() -> AcceleratorSpec {
        AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
            .offchip_bandwidth_bits_per_sec(2.4e12)
            .build()
            .unwrap()
    }

    fn system(nodes: usize, per_node: usize) -> SystemSpec {
        SystemSpec::new(
            nodes,
            per_node,
            Link::new(5e-6, 2.4e12),
            Link::new(1e-5, 2e11),
            per_node,
        )
        .unwrap()
    }

    fn estimate_with(p: &Parallelism, sys: &SystemSpec, batch: usize) -> Estimate {
        let m = model();
        let a = accel();
        Estimator::new(&m, &a, sys, p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate(&TrainingConfig::new(batch, 10).unwrap())
            .unwrap()
    }

    #[test]
    fn single_worker_has_no_communication() {
        let sys = system(1, 1);
        let p = Parallelism::single();
        let e = estimate_with(&p, &sys, 32);
        assert_eq!(e.breakdown.comm_total(), 0.0);
        assert_eq!(e.breakdown.bubble, 0.0);
        assert!(e.breakdown.compute_total() > 0.0);
    }

    #[test]
    fn total_time_is_batches_times_iteration() {
        let sys = system(1, 1);
        let p = Parallelism::single();
        let e = estimate_with(&p, &sys, 32);
        assert!(
            (e.total_time.get() - 10.0 * e.time_per_iteration.get()).abs()
                / e.total_time.get()
                < 1e-12
        );
    }

    #[test]
    fn dp_scales_compute_down() {
        let e1 = estimate_with(&Parallelism::single(), &system(1, 1), 64);
        let p8 = Parallelism::data_parallel_intra(8).unwrap();
        let e8 = estimate_with(&p8, &system(1, 8), 64);
        let ratio = e1.breakdown.compute_total() / e8.breakdown.compute_total();
        assert!((ratio - 8.0).abs() < 1e-6, "ratio = {ratio}");
        // DP adds gradient sync.
        assert!(e8.breakdown.dp_comm_intra > 0.0);
        assert_eq!(e8.breakdown.tp_comm_intra, 0.0);
    }

    #[test]
    fn tp_intra_adds_allreduce_per_layer() {
        let p = Parallelism::builder().tp(8, 1).build().unwrap();
        let e = estimate_with(&p, &system(1, 8), 64);
        assert!(e.breakdown.tp_comm_intra > 0.0);
        assert_eq!(e.breakdown.tp_comm_inter, 0.0);
        assert_eq!(e.breakdown.dp_comm_intra, 0.0);
        assert_eq!(e.breakdown.bubble, 0.0);
    }

    #[test]
    fn tp_inter_is_slower_than_tp_intra() {
        // Conclusion 2 of case study I: TP over slow inter-node links is
        // communication-bound.
        let intra = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let inter = Parallelism::builder().tp(1, 2).dp(8, 1).build().unwrap();
        let sys = system(2, 8);
        let e_intra = estimate_with(&intra, &sys, 256);
        let e_inter = estimate_with(&inter, &sys, 256);
        assert!(e_inter.breakdown.tp_comm_inter > e_intra.breakdown.tp_comm_intra);
    }

    #[test]
    fn pp_creates_bubble_that_shrinks_with_microbatches() {
        let sys = system(1, 8);
        let few = Parallelism::builder()
            .pp(8, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let many = Parallelism::builder()
            .pp(8, 1)
            .microbatches(MicrobatchPolicy::Explicit(64))
            .build()
            .unwrap();
        let e_few = estimate_with(&few, &sys, 512);
        let e_many = estimate_with(&many, &sys, 512);
        assert!(e_few.breakdown.bubble > 0.0);
        assert!(
            e_many.breakdown.bubble < e_few.breakdown.bubble,
            "more microbatches must shrink the bubble"
        );
    }

    #[test]
    fn bubble_ratio_scales_bubble_linearly() {
        let sys = system(1, 8);
        let naive = Parallelism::builder().pp(8, 1).build().unwrap();
        let interleaved = Parallelism::builder()
            .pp(8, 1)
            .bubble_ratio(0.25)
            .build()
            .unwrap();
        let e_n = estimate_with(&naive, &sys, 512);
        let e_i = estimate_with(&interleaved, &sys, 512);
        assert!((e_i.breakdown.bubble / e_n.breakdown.bubble - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_overhead_inflates_fwd_bwd_comm_only() {
        let sys = system(1, 8);
        let plain = Parallelism::builder().tp(8, 1).build().unwrap();
        let zero = Parallelism::builder()
            .tp(8, 1)
            .zero(ZeroConfig::stage(crate::parallelism::ZeroStage::OptimizerStates, 0.5))
            .build()
            .unwrap();
        let e_p = estimate_with(&plain, &sys, 64);
        let e_z = estimate_with(&zero, &sys, 64);
        assert!((e_z.breakdown.tp_comm_intra / e_p.breakdown.tp_comm_intra - 1.5).abs() < 1e-9);
        assert_eq!(e_z.breakdown.compute_total(), e_p.breakdown.compute_total());
    }

    #[test]
    fn moe_layers_add_alltoall() {
        let m = TransformerModel::builder("moe")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(32000)
            .moe(crate::model::MoeConfig::glam(8))
            .build()
            .unwrap();
        let a = accel();
        let sys = system(4, 8);
        let p = Parallelism::builder().tp(8, 1).dp(1, 4).build().unwrap();
        let e = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate(&TrainingConfig::new(256, 1).unwrap())
            .unwrap();
        assert!(e.breakdown.moe_comm > 0.0);
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let m = model();
        let a = accel();
        let p = Parallelism::builder().tp(8, 1).pp(1, 2).dp(1, 2).build().unwrap();
        let slow = SystemSpec::new(4, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 8).unwrap();
        let fast = SystemSpec::new(4, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 4e11), 8).unwrap();
        let t = TrainingConfig::new(256, 1).unwrap();
        let e_slow = Estimator::new(&m, &a, &slow, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate(&t)
            .unwrap();
        let e_fast = Estimator::new(&m, &a, &fast, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate(&t)
            .unwrap();
        assert!(e_fast.time_per_iteration.get() <= e_slow.time_per_iteration.get());
    }

    #[test]
    fn invalid_mapping_is_rejected() {
        let m = model();
        let a = accel();
        let sys = system(1, 8);
        let p = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 8
        let r = Estimator::new(&m, &a, &sys, &p).estimate(&TrainingConfig::new(8, 1).unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn detailed_layers_sum_to_aggregate_components() {
        let m = TransformerModel::builder("detail")
            .layers(8)
            .hidden_size(512)
            .heads(8)
            .seq_len(128)
            .vocab_size(2000)
            .moe(crate::model::MoeConfig::glam(4))
            .build()
            .unwrap();
        let a = accel();
        let sys = system(4, 8);
        let p = Parallelism::builder().tp(4, 1).pp(2, 2).dp(1, 2).build().unwrap();
        let t = TrainingConfig::new(128, 1).unwrap();
        let d = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate_detailed(&t)
            .unwrap();
        let b = &d.estimate.breakdown;
        let sum = |f: fn(&crate::engine::LayerEstimate) -> f64| -> f64 {
            d.layers.iter().map(f).sum()
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1e-12);
        assert!(close(sum(|l| l.compute_forward), b.compute_forward));
        assert!(close(sum(|l| l.compute_backward), b.compute_backward));
        assert!(close(sum(|l| l.weight_update), b.weight_update));
        assert!(close(sum(|l| l.tp_comm), b.tp_comm_intra + b.tp_comm_inter));
        assert!(close(sum(|l| l.moe_comm), b.moe_comm));
        assert!(close(sum(|l| l.dp_comm), b.dp_comm_intra + b.dp_comm_inter));
        // Only MoE layers carry all-to-all time; the head is attention-free.
        for l in &d.layers {
            if l.kind != crate::model::LayerKind::Moe {
                assert_eq!(l.moe_comm, 0.0);
            }
        }
        assert_eq!(d.layers.len(), 9);
    }

    #[test]
    fn detailed_hottest_layer_is_moe() {
        let m = TransformerModel::builder("detail-hot")
            .layers(4)
            .hidden_size(256)
            .heads(8)
            .seq_len(64)
            .vocab_size(500)
            .moe(crate::model::MoeConfig::glam(8))
            .build()
            .unwrap();
        let a = accel();
        let sys = system(2, 8);
        let p = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let d = Estimator::new(&m, &a, &sys, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .estimate_detailed(&TrainingConfig::new(16, 1).unwrap())
            .unwrap();
        let hot = d.hottest_layers(1);
        assert_eq!(hot[0].kind, crate::model::LayerKind::Moe);
    }

    #[test]
    fn imbalance_correction_matches_slowest_stage_share() {
        // 25 entries (24 layers + head) through 8 stages. The partition is
        // 7 stages of 3 entries and 1 stage of 4; the correction scales the
        // pipelined compute by max-stage work over mean-stage work.
        let sys = system(1, 8);
        let p = Parallelism::builder().pp(8, 1).build().unwrap();
        let m = model();
        let a = accel();
        let t = TrainingConfig::new(64, 1).unwrap();
        let run = |correct: bool| {
            Estimator::new(&m, &a, &sys, &p)
                .with_efficiency(EfficiencyModel::Constant(0.5))
                .with_options(EngineOptions {
                    stage_imbalance_correction: correct,
                    ..Default::default()
                })
                .estimate(&t)
                .unwrap()
                .breakdown
                .compute_forward
        };
        let ratio = run(true) / run(false);
        // The first stage holds 4 of 25 entries; layers dominate the head
        // here, so the factor sits between the naive 4/3.125 count ratio
        // shifted by the head's weight, and must exceed 1.
        assert!(ratio > 1.05 && ratio < 1.5, "ratio = {ratio}");
        // Balanced stacks are untouched: pp = 1.
        let p1 = Parallelism::single();
        let sys1 = system(1, 1);
        let e = |correct: bool| {
            Estimator::new(&m, &a, &sys1, &p1)
                .with_efficiency(EfficiencyModel::Constant(0.5))
                .with_options(EngineOptions {
                    stage_imbalance_correction: correct,
                    ..Default::default()
                })
                .estimate(&t)
                .unwrap()
                .time_per_iteration
                .get()
        };
        assert_eq!(e(true), e(false));
    }

    #[test]
    fn interleaving_shrinks_bubble() {
        let sys = system(1, 8);
        let naive = Parallelism::builder().pp(8, 1).build().unwrap();
        let interleaved = Parallelism::builder().pp(8, 1).interleaved(4).build().unwrap();
        assert!((interleaved.bubble_ratio() - 0.25).abs() < 1e-12);
        let e_n = estimate_with(&naive, &sys, 512);
        let e_i = estimate_with(&interleaved, &sys, 512);
        assert!((e_i.breakdown.bubble / e_n.breakdown.bubble - 0.25).abs() < 1e-9);
    }

    #[test]
    fn tflops_metric_is_consistent() {
        let sys = system(1, 8);
        let p = Parallelism::builder().tp(8, 1).build().unwrap();
        let e = estimate_with(&p, &sys, 64);
        let expect = e.model_flops_per_iteration / (e.time_per_iteration.get() * 8.0) / 1e12;
        assert!((e.tflops_per_gpu - expect).abs() < 1e-9);
        assert!(e.tflops_per_gpu > 0.0);
    }
}

//! The cost-backend abstraction: one interface over every way of pricing
//! a training scenario.
//!
//! The analytical estimator (Eq. 1–12) and the discrete-event simulator in
//! `amped-sim` answer the same question — "how long does one optimizer step
//! of this scenario take, and where does the time go?" — with different
//! fidelity/cost trade-offs. [`CostBackend`] is the common contract:
//! evaluate an owned [`Scenario`] bundle for a training run and return the
//! standard [`Estimate`] with its [`Breakdown`](crate::Breakdown) taxonomy.
//! Downstream crates (`amped-search`, `amped-cli`, `amped-report`,
//! `amped-bench`) program against the trait and gain new backends without
//! per-crate plumbing.
//!
//! [`AnalyticalBackend`] lives here; the simulator-driven `SimBackend`
//! lives in `amped-sim` (core cannot depend on it).

use std::sync::Arc;

use amped_obs::Observer;

use crate::accelerator::AcceleratorSpec;
use crate::efficiency::EfficiencyModel;
use crate::engine::{BatchEvaluator, EngineOptions, Estimate, EstimateCache, Estimator};
use crate::error::Result;
use crate::model::TransformerModel;
use crate::network::SystemSpec;
use crate::parallelism::Parallelism;
use crate::precision::Precision;
use crate::training::TrainingConfig;

/// A fully specified estimation scenario, owned in one bundle.
///
/// The [`Estimator`] borrows its four specifications, which is right for
/// tight per-candidate loops but forces every call site to thread six
/// arguments (plus precision/efficiency/options overrides) through each
/// layer. `Scenario` owns the whole configuration so it can be stored,
/// cloned, sent across threads, and handed to any [`CostBackend`].
///
/// # Example
///
/// ```
/// use amped_core::{
///     AcceleratorSpec, AnalyticalBackend, CostBackend, EfficiencyModel, Link, Parallelism,
///     Scenario, SystemSpec, TrainingConfig, TransformerModel,
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
/// let parallelism = Parallelism::builder().tp(8, 1).dp(1, 2).build()?;
///
/// let scenario = Scenario::new(model, accel, system, parallelism)
///     .with_efficiency(EfficiencyModel::Constant(0.5));
/// let estimate = AnalyticalBackend.evaluate(&scenario, &TrainingConfig::new(512, 100)?)?;
/// assert!(estimate.total_time.get() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The transformer under training.
    pub model: TransformerModel,
    /// The accelerator populating the cluster.
    pub accelerator: AcceleratorSpec,
    /// The cluster (nodes × accelerators, links).
    pub system: SystemSpec,
    /// The parallelism mapping.
    pub parallelism: Parallelism,
    /// Operand precisions.
    pub precision: Precision,
    /// Microbatch-efficiency model.
    pub efficiency: EfficiencyModel,
    /// Engine knobs shared by every backend.
    pub options: EngineOptions,
}

impl Scenario {
    /// Bundle the four specifications with default precision, efficiency
    /// and options.
    pub fn new(
        model: TransformerModel,
        accelerator: AcceleratorSpec,
        system: SystemSpec,
        parallelism: Parallelism,
    ) -> Self {
        Scenario {
            model,
            accelerator,
            system,
            parallelism,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            options: EngineOptions::default(),
        }
    }

    /// Override the operand precisions.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the microbatch-efficiency model.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Override the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The same scenario under a different parallelism mapping — the
    /// per-candidate operation of a design-space search.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// An [`Estimator`] borrowing this scenario, carrying its precision,
    /// efficiency and options overrides.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::new(
            &self.model,
            &self.accelerator,
            &self.system,
            &self.parallelism,
        )
        .with_precision(self.precision)
        .with_efficiency(self.efficiency.clone())
        .with_options(self.options)
    }
}

/// How literally a backend's [`Breakdown`](crate::Breakdown) components can
/// be read — the capability probe of the [`CostBackend`] contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownFidelity {
    /// Every component is computed from its own closed form; component
    /// sums and totals are exact in the backend's own terms.
    Exact,
    /// Totals are faithful but some components are re-attributed from
    /// another representation (e.g. a simulator timeline where TP traffic
    /// is folded into compute task durations).
    Approximate,
}

/// A cost model that prices a [`Scenario`] for a training run.
///
/// Implementations must be deterministic: the same scenario and training
/// config return the same [`Estimate`] bit-for-bit, which is what lets the
/// search rank candidates reproducibly. `Sync` is part of the contract so
/// one backend instance can be shared across threads.
pub trait CostBackend: Sync {
    /// A short stable identifier (`"analytical"`, `"sim"`, …) used in CLI
    /// flags and report provenance.
    fn name(&self) -> &'static str;

    /// Whether breakdown components are individually exact or partially
    /// re-attributed. Totals are always faithful.
    fn breakdown_fidelity(&self) -> BreakdownFidelity;

    /// Price `scenario` for `training`.
    ///
    /// # Errors
    ///
    /// Returns an error when any scenario component fails validation or
    /// the parallelism mapping does not fit the system/model.
    fn evaluate(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<Estimate>;

    /// Price many parallelism candidates under one scenario, returning one
    /// result per candidate in order (the scenario's own mapping is
    /// replaced by each candidate in turn).
    ///
    /// The default implementation loops [`evaluate`](Self::evaluate), so
    /// every backend batches correctly for free; backends with a real
    /// batch path (see [`AnalyticalBackend`] and
    /// [`BatchEvaluator`](crate::BatchEvaluator)) override it for speed.
    /// Overrides must stay bit-identical to the default loop.
    fn evaluate_many(
        &self,
        scenario: &Scenario,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        let mut scenario = scenario.clone();
        mappings
            .iter()
            .map(|p| {
                scenario.parallelism = *p;
                self.evaluate(&scenario, training)
            })
            .collect()
    }
}

/// The AMPeD analytical model (Eq. 1–12) as a [`CostBackend`].
///
/// Evaluates through the pricing kernel ([`BatchEvaluator`]) with a
/// private cache, which is bit-identical to evaluating with any warmed
/// cache for the same scenario — so trait-based results match
/// `amped-search`'s per-worker path exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalBackend;

impl AnalyticalBackend {
    /// Evaluate against a caller-owned cache (the memoized hot path: reuse
    /// one cache across many parallelism variants of one scenario).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CostBackend::evaluate`].
    pub fn evaluate_with_cache(
        &self,
        cache: &mut EstimateCache,
        scenario: &Scenario,
        training: &TrainingConfig,
    ) -> Result<Estimate> {
        self.evaluate_many_with_cache(
            cache,
            scenario,
            std::slice::from_ref(&scenario.parallelism),
            training,
        )
        .pop()
        .expect("one result per mapping")
    }

    /// Batch-evaluate many candidates against a caller-owned cache through
    /// [`BatchEvaluator`] — bit-identical to calling
    /// [`evaluate_with_cache`](Self::evaluate_with_cache) per candidate
    /// with the same cache, and fills the cache with the same entries.
    pub fn evaluate_many_with_cache(
        &self,
        cache: &mut EstimateCache,
        scenario: &Scenario,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        BatchEvaluator::from_scenario(scenario).estimate_many(cache, mappings, training)
    }
}

impl CostBackend for AnalyticalBackend {
    fn name(&self) -> &'static str {
        "analytical"
    }

    fn breakdown_fidelity(&self) -> BreakdownFidelity {
        BreakdownFidelity::Exact
    }

    fn evaluate(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<Estimate> {
        let mut cache = EstimateCache::new();
        self.evaluate_with_cache(&mut cache, scenario, training)
    }

    fn evaluate_many(
        &self,
        scenario: &Scenario,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        let mut cache = EstimateCache::new();
        self.evaluate_many_with_cache(&mut cache, scenario, mappings, training)
    }
}

/// A [`CostBackend`] decorator that records each evaluation on an
/// [`Observer`]: a timed span (category `"evaluate"`, named after the inner
/// backend) and a `backend.<name>.evaluations` counter.
///
/// Observation is passive — the wrapper forwards the call unchanged and the
/// observer only reads clocks and bumps atomics, so estimates are
/// bit-identical to the bare inner backend's.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use amped_core::{AnalyticalBackend, CostBackend, ObservedBackend};
/// use amped_obs::Observer;
///
/// let observer = Arc::new(Observer::new());
/// let backend = ObservedBackend::new(Box::new(AnalyticalBackend), observer.clone());
/// assert_eq!(backend.name(), "analytical");
/// // ... backend.evaluate(&scenario, &training) ...
/// assert_eq!(observer.counters().len(), 1); // registered eagerly at 0
/// ```
pub struct ObservedBackend {
    inner: Box<dyn CostBackend>,
    observer: Arc<Observer>,
    evaluations: amped_obs::Counter,
}

impl ObservedBackend {
    /// Wrap `inner` so every evaluation is recorded on `observer`. The
    /// `backend.<name>.evaluations` counter is registered immediately (at
    /// zero), so reports show the backend even before any evaluation.
    pub fn new(inner: Box<dyn CostBackend>, observer: Arc<Observer>) -> Self {
        let evaluations = observer.counter(&format!("backend.{}.evaluations", inner.name()));
        ObservedBackend {
            inner,
            observer,
            evaluations,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn CostBackend {
        self.inner.as_ref()
    }
}

impl std::fmt::Debug for ObservedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedBackend")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl CostBackend for ObservedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn breakdown_fidelity(&self) -> BreakdownFidelity {
        self.inner.breakdown_fidelity()
    }

    fn evaluate(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<Estimate> {
        let _span = self.observer.span_with_cat(self.inner.name(), "evaluate");
        self.evaluations.incr();
        self.inner.evaluate(scenario, training)
    }

    fn evaluate_many(
        &self,
        scenario: &Scenario,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        let _span = self
            .observer
            .span_with_cat(self.inner.name(), "evaluate_many");
        self.evaluations.add(mappings.len() as u64);
        self.inner.evaluate_many(scenario, mappings, training)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Link;

    fn scenario() -> Scenario {
        let model = TransformerModel::builder("backend-m")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(32000)
            .build()
            .unwrap();
        let accel = AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
            .build()
            .unwrap();
        let system = SystemSpec::new(
            2,
            8,
            Link::new(5e-6, 2.4e12),
            Link::new(1e-5, 2e11),
            8,
        )
        .unwrap();
        let parallelism = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        Scenario::new(model, accel, system, parallelism)
            .with_efficiency(EfficiencyModel::Constant(0.5))
    }

    #[test]
    fn analytical_backend_matches_estimator_bitwise() {
        let s = scenario();
        let training = TrainingConfig::new(256, 10).unwrap();
        let via_trait = AnalyticalBackend.evaluate(&s, &training).unwrap();
        let mut cache = EstimateCache::new();
        let direct = s.estimator().estimate_cached(&mut cache, &training).unwrap();
        assert_eq!(
            via_trait.total_time.get().to_bits(),
            direct.total_time.get().to_bits()
        );
        assert_eq!(
            via_trait.time_per_iteration.get().to_bits(),
            direct.time_per_iteration.get().to_bits()
        );
        assert_eq!(via_trait.num_microbatches, direct.num_microbatches);
    }

    #[test]
    fn analytical_backend_is_deterministic_through_the_trait_object() {
        let s = scenario();
        let training = TrainingConfig::new(256, 10).unwrap();
        let backend: &dyn CostBackend = &AnalyticalBackend;
        assert_eq!(backend.name(), "analytical");
        assert_eq!(backend.breakdown_fidelity(), BreakdownFidelity::Exact);
        let a = backend.evaluate(&s, &training).unwrap();
        let b = backend.evaluate(&s, &training).unwrap();
        assert_eq!(
            a.total_time.get().to_bits(),
            b.total_time.get().to_bits()
        );
    }

    #[test]
    fn observed_backend_is_transparent_and_counts() {
        let s = scenario();
        let training = TrainingConfig::new(256, 10).unwrap();
        let bare = AnalyticalBackend.evaluate(&s, &training).unwrap();
        let obs = Arc::new(Observer::new());
        let wrapped = ObservedBackend::new(Box::new(AnalyticalBackend), obs.clone());
        assert_eq!(wrapped.name(), "analytical");
        assert_eq!(wrapped.breakdown_fidelity(), BreakdownFidelity::Exact);
        assert_eq!(obs.counters()["backend.analytical.evaluations"], 0);
        let a = wrapped.evaluate(&s, &training).unwrap();
        let b = wrapped.evaluate(&s, &training).unwrap();
        assert_eq!(a.total_time.get().to_bits(), bare.total_time.get().to_bits());
        assert_eq!(b.total_time.get().to_bits(), bare.total_time.get().to_bits());
        assert_eq!(obs.counters()["backend.analytical.evaluations"], 2);
        // Each evaluation left a timed span on the trace.
        let spans = obs.trace_events();
        assert_eq!(
            spans.iter().filter(|e| e.cat == "evaluate").count(),
            2,
            "spans: {spans:?}"
        );
    }

    #[test]
    fn scenario_with_parallelism_swaps_only_the_mapping() {
        let s = scenario();
        let p2 = Parallelism::builder().tp(4, 1).dp(2, 2).build().unwrap();
        let swapped = s.clone().with_parallelism(p2);
        assert_eq!(swapped.parallelism.tp_intra(), 4);
        assert_eq!(swapped.model.num_layers(), s.model.num_layers());
    }

    #[test]
    fn evaluate_many_override_matches_the_default_loop_bitwise() {
        let s = scenario();
        let training = TrainingConfig::new(256, 10).unwrap();
        let mappings = vec![
            Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap(),
            Parallelism::builder().tp(4, 1).dp(2, 2).build().unwrap(),
            Parallelism::builder().tp(4, 1).build().unwrap(), // invalid: 4 != 32
            Parallelism::builder().tp(2, 1).dp(4, 2).build().unwrap(),
        ];

        // A shim backend that forwards `evaluate` but keeps the trait's
        // default `evaluate_many` loop, as the reference.
        struct DefaultLoop;
        impl CostBackend for DefaultLoop {
            fn name(&self) -> &'static str {
                "default-loop"
            }
            fn breakdown_fidelity(&self) -> BreakdownFidelity {
                BreakdownFidelity::Exact
            }
            fn evaluate(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<Estimate> {
                AnalyticalBackend.evaluate(scenario, training)
            }
        }

        let reference = DefaultLoop.evaluate_many(&s, &mappings, &training);
        let batched = AnalyticalBackend.evaluate_many(&s, &mappings, &training);
        assert_eq!(reference.len(), batched.len());
        for (r, b) in reference.iter().zip(&batched) {
            match (r, b) {
                (Ok(r), Ok(b)) => {
                    assert_eq!(
                        r.total_time.get().to_bits(),
                        b.total_time.get().to_bits()
                    );
                    assert_eq!(
                        r.time_per_iteration.get().to_bits(),
                        b.time_per_iteration.get().to_bits()
                    );
                }
                (Err(_), Err(_)) => {}
                (r, b) => panic!("outcome mismatch: {r:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn observed_backend_counts_batch_evaluations_per_candidate() {
        let s = scenario();
        let training = TrainingConfig::new(256, 10).unwrap();
        let mappings = vec![
            Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap(),
            Parallelism::builder().tp(4, 1).dp(2, 2).build().unwrap(),
        ];
        let obs = Arc::new(Observer::new());
        let wrapped = ObservedBackend::new(Box::new(AnalyticalBackend), obs.clone());
        let out = wrapped.evaluate_many(&s, &mappings, &training);
        assert_eq!(out.len(), 2);
        assert_eq!(obs.counters()["backend.analytical.evaluations"], 2);
        let spans = obs.trace_events();
        assert_eq!(
            spans.iter().filter(|e| e.cat == "evaluate_many").count(),
            1,
            "spans: {spans:?}"
        );
    }

    #[test]
    fn backend_propagates_invalid_mappings() {
        let s = scenario().with_parallelism(
            Parallelism::builder().tp(4, 1).build().unwrap(), // 4 != 32
        );
        let r = AnalyticalBackend.evaluate(&s, &TrainingConfig::new(8, 1).unwrap());
        assert!(r.is_err());
    }
}

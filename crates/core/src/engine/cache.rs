//! Memoized sub-results for repeated estimation over one scenario.
//!
//! Design-space search evaluates thousands of `(Parallelism, TrainingConfig)`
//! points against a *fixed* model / accelerator / system / precision /
//! efficiency / engine-option context. [`EstimateCache`] memoizes the
//! sub-results of
//! [`Estimator::estimate_cached`](super::Estimator::estimate_cached) that
//! are invariant across those points **and walk the layer stack** to
//! compute:
//!
//! - the layer-kind groups (one pass over the stack, and the grouping the
//!   kernel's float association is fixed by);
//! - the stage-imbalance ratio, keyed by `(PP, eff)` (per-layer forward
//!   times over the whole stack);
//! - the gradient-sync volume `N_g`, keyed by `(TP, PP)`;
//! - the model FLOPs per iteration, keyed by `(global batch, recompute)`.
//!
//! What takes fewer flops than one hash of its key is recomputed instead:
//! per-kind operation counts ([`LayerCounts::for_layer`](crate::counts::LayerCounts::for_layer),
//! about 30 flops) and collective cost factors (`Topology::cost`, a few
//! integer operations). A SipHash lookup costs more than either, so the
//! kernel calls them directly.
//!
//! # Context binding
//!
//! A cache carries no fingerprint of the scenario it was filled from. It
//! MUST only be reused across estimators that share the same model,
//! accelerator, system, precision, efficiency model and engine options —
//! the parallelism mapping and training configuration are the only inputs
//! allowed to vary (they are part of every key). `amped-search` upholds
//! this by creating one cache per search pass; ad-hoc callers should
//! create a fresh cache per scenario (construction is free).

use std::collections::HashMap;

use crate::model::{LayerKind, TransformerModel};

/// Memoized sub-results of the analytical model (see the module docs for
/// the context-binding contract).
///
/// # Example
///
/// ```
/// use amped_core::{
///     AcceleratorSpec, EstimateCache, Estimator, Link, Parallelism, SystemSpec,
///     TrainingConfig, TransformerModel,
/// };
/// # fn main() -> Result<(), amped_core::Error> {
/// let model = TransformerModel::builder("demo")
///     .layers(8).hidden_size(512).heads(8).seq_len(128).vocab_size(2000)
///     .build()?;
/// let accel = AcceleratorSpec::builder("A100")
///     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
///     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
///     .build()?;
/// let system = SystemSpec::new(1, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
/// let p = Parallelism::builder().tp(8, 1).build()?;
/// let training = TrainingConfig::new(64, 10)?;
///
/// let mut cache = EstimateCache::new();
/// let estimator = Estimator::new(&model, &accel, &system, &p);
/// let first = estimator.estimate_cached(&mut cache, &training)?;
/// let again = estimator.estimate_cached(&mut cache, &training)?;
/// assert_eq!(first.total_time, again.total_time);
/// assert!(cache.hits() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EstimateCache {
    /// Layer kinds with their multiplicities, in first-occurrence order.
    groups: Option<Vec<(LayerKind, usize)>>,
    /// Stage-imbalance ratio `t*/t̄ ≥ 1`, keyed by `(pp, eff.to_bits())`.
    imbalance: HashMap<(usize, u64), f64>,
    /// Fused gradient-sync volume `N_g` keyed by `(tp, pp)`.
    grad_volume: HashMap<(usize, usize), f64>,
    /// Model FLOPs per iteration keyed by `(global_batch, recompute)`.
    model_flops: HashMap<(usize, bool), f64>,
    hits: u64,
    misses: u64,
}

impl EstimateCache {
    /// An empty cache (construction allocates nothing).
    pub fn new() -> Self {
        EstimateCache::default()
    }

    /// How many sub-result lookups were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many sub-result lookups had to be computed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drop every memoized value (e.g. before switching scenarios).
    pub fn clear(&mut self) {
        self.groups = None;
        self.imbalance.clear();
        self.grad_volume.clear();
        self.model_flops.clear();
    }

    /// The model's layer kinds with multiplicities, first-occurrence order.
    /// The grouped order is what fixes the float summation association of
    /// the cached estimate (and of the lower bound, which must match it).
    pub(crate) fn groups(&mut self, model: &TransformerModel) -> Vec<(LayerKind, usize)> {
        if let Some(g) = &self.groups {
            self.hits += 1;
            return g.clone();
        }
        self.misses += 1;
        let mut groups: Vec<(LayerKind, usize)> = Vec::new();
        for kind in model.layer_stack() {
            match groups.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => groups.push((kind, 1)),
            }
        }
        self.groups = Some(groups.clone());
        groups
    }

    /// Memoized stage-imbalance ratio for `(pp, eff)`.
    pub(crate) fn imbalance_ratio(
        &mut self,
        pp: usize,
        eff_bits: u64,
    ) -> Option<f64> {
        let r = self.imbalance.get(&(pp, eff_bits)).copied();
        if r.is_some() {
            self.hits += 1;
        }
        r
    }

    /// Record the stage-imbalance ratio for `(pp, eff)`.
    pub(crate) fn set_imbalance_ratio(&mut self, pp: usize, eff_bits: u64, r: f64) {
        self.misses += 1;
        self.imbalance.insert((pp, eff_bits), r);
    }

    /// Memoized gradient-sync volume for `(tp, pp)`.
    pub(crate) fn grad_volume(&mut self, tp: usize, pp: usize) -> Option<f64> {
        let v = self.grad_volume.get(&(tp, pp)).copied();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }

    /// Record the gradient-sync volume for `(tp, pp)`.
    pub(crate) fn set_grad_volume(&mut self, tp: usize, pp: usize, v: f64) {
        self.misses += 1;
        self.grad_volume.insert((tp, pp), v);
    }

    /// Memoized model FLOPs for `(global_batch, recompute)`.
    pub(crate) fn model_flops(&mut self, global_batch: usize, recompute: bool) -> Option<f64> {
        let v = self.model_flops.get(&(global_batch, recompute)).copied();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }

    /// Record the model FLOPs for `(global_batch, recompute)`.
    pub(crate) fn set_model_flops(&mut self, global_batch: usize, recompute: bool, v: f64) {
        self.misses += 1;
        self.model_flops.insert((global_batch, recompute), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransformerModel {
        TransformerModel::builder("cache-m")
            .layers(6)
            .hidden_size(256)
            .heads(8)
            .seq_len(64)
            .vocab_size(1000)
            .moe(crate::model::MoeConfig::glam(4))
            .build()
            .unwrap()
    }

    #[test]
    fn groups_preserve_stack_multiplicities() {
        let m = model();
        let mut cache = EstimateCache::new();
        let groups = cache.groups(&m);
        let total: usize = groups.iter().map(|(_, n)| n).sum();
        assert_eq!(total, m.layer_stack().len());
        for (kind, n) in &groups {
            let expect = m.layer_stack().iter().filter(|k| *k == kind).count();
            assert_eq!(*n, expect, "{kind:?}");
        }
        // Second call is a hit and returns the same grouping.
        let again = cache.groups(&m);
        assert_eq!(groups, again);
        assert!(cache.hits() >= 1);
    }

    #[test]
    fn clear_forgets_everything() {
        let m = model();
        let mut cache = EstimateCache::new();
        cache.groups(&m);
        cache.set_imbalance_ratio(4, 0.5f64.to_bits(), 1.25);
        cache.set_grad_volume(2, 4, 1e6);
        cache.set_model_flops(64, true, 1e12);
        assert_eq!(cache.imbalance_ratio(4, 0.5f64.to_bits()), Some(1.25));
        assert_eq!(cache.grad_volume(2, 4), Some(1e6));
        assert_eq!(cache.model_flops(64, true), Some(1e12));
        cache.clear();
        assert_eq!(cache.imbalance_ratio(4, 0.5f64.to_bits()), None);
        assert_eq!(cache.grad_volume(2, 4), None);
        assert_eq!(cache.model_flops(64, true), None);
        // The groups are rebuilt: a miss, not a hit.
        let misses = cache.misses();
        cache.groups(&m);
        assert_eq!(cache.misses(), misses + 1);
    }
}

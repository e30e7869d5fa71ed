//! # amped-memory — per-device memory footprint model
//!
//! The AMPeD paper adjusts batch sizes “to fit into the GPU memory” during
//! validation and names a comprehensive memory model as future work. This
//! crate implements that model: per-accelerator bytes for weights,
//! gradients, optimizer states and activations under any
//! tensor/pipeline/data-parallel mapping, ZeRO stage and pipeline schedule,
//! plus a solver for the largest microbatch that fits.
//!
//! Activation sizing follows the standard Megatron-LM accounting
//! (`s·b·h·(34 + 5·a·s/h)` bytes per layer per microbatch at 2-byte
//! activations), generalized to arbitrary activation widths.
//!
//! # Example
//!
//! ```
//! use amped_core::{Parallelism, Precision, TransformerModel};
//! use amped_memory::{MemoryModel, OptimizerSpec, PipelineSchedule};
//!
//! # fn main() -> Result<(), amped_core::Error> {
//! let model = TransformerModel::builder("gpt-1.3b")
//!     .layers(24).hidden_size(2048).heads(16).seq_len(1024).vocab_size(50257)
//!     .build()?;
//! let mapping = Parallelism::builder().tp(2, 1).pp(4, 1).build()?;
//! let mem = MemoryModel::new(&model, &mapping)
//!     .with_optimizer(OptimizerSpec::adam_mixed_precision())
//!     .with_schedule(PipelineSchedule::OneFOneB);
//! let fp = mem.footprint(8.0, 4);
//! assert!(fp.total() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kv;

pub use kv::{KvCacheModel, KvCapacityFailure, KvFootprint, ServeBatchFit};

use amped_core::{Parallelism, Precision, Scenario, TransformerModel, ZeroStage};
use serde::{Deserialize, Serialize};

/// Optimizer state size per parameter, in bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerSpec {
    name: String,
    state_bytes_per_param: f64,
}

impl OptimizerSpec {
    /// An optimizer carrying `state_bytes_per_param` bytes of state per
    /// parameter.
    pub fn new(name: impl Into<String>, state_bytes_per_param: f64) -> Self {
        OptimizerSpec {
            name: name.into(),
            state_bytes_per_param: state_bytes_per_param.max(0.0),
        }
    }

    /// Mixed-precision Adam: fp32 master weights + first and second moments
    /// = 12 bytes of state per parameter.
    pub fn adam_mixed_precision() -> Self {
        Self::new("adam-mixed", 12.0)
    }

    /// Plain SGD with momentum: one fp32 buffer.
    pub fn sgd_momentum() -> Self {
        Self::new("sgd-momentum", 4.0)
    }

    /// Stateless SGD.
    pub fn sgd() -> Self {
        Self::new("sgd", 0.0)
    }

    /// Optimizer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes of optimizer state per parameter.
    pub fn state_bytes_per_param(&self) -> f64 {
        self.state_bytes_per_param
    }
}

impl Default for OptimizerSpec {
    fn default() -> Self {
        Self::adam_mixed_precision()
    }
}

/// Which activations are kept for the backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum RecomputePolicy {
    /// Store every intermediate (fastest, most memory).
    #[default]
    None,
    /// Megatron-style *selective* recomputation: the attention score and
    /// softmax tensors (the `5·a·s/h` term, which dominates at long
    /// sequences) are recomputed; linear-layer inputs are kept.
    Selective,
    /// Full recomputation: keep only the stage-boundary tensor per
    /// microbatch plus one layer's working set, recompute the rest.
    Full,
}


/// Which pipeline schedule holds activations in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum PipelineSchedule {
    /// GPipe: all forward microbatches before any backward — every stage
    /// holds activations for all `N_ub` microbatches at the peak.
    GPipe,
    /// 1F1B: at most `N_PP` microbatches in flight per stage.
    #[default]
    OneFOneB,
}


/// Per-device memory footprint in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Model weights resident on the device.
    pub weights: f64,
    /// Gradient buffers.
    pub gradients: f64,
    /// Optimizer state.
    pub optimizer: f64,
    /// Peak activation storage.
    pub activations: f64,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total(&self) -> f64 {
        self.weights + self.gradients + self.optimizer + self.activations
    }

    /// Bytes a checkpoint of this device's state must persist: weights plus
    /// optimizer state. Gradients and activations are transient and are not
    /// part of a restartable snapshot.
    pub fn checkpoint_bytes(&self) -> f64 {
        self.weights + self.optimizer
    }

    /// Which term first pushes this footprint past `capacity_bytes`,
    /// walking the same left-to-right accumulation as
    /// [`MemoryFootprint::total`]. Only meaningful when the total exceeds
    /// the capacity; an oversized footprint always blames exactly one term.
    pub fn capacity_failure(&self, capacity_bytes: f64) -> CapacityFailure {
        if self.weights > capacity_bytes {
            CapacityFailure::Weights
        } else if self.weights + self.gradients > capacity_bytes {
            CapacityFailure::Gradients
        } else if self.weights + self.gradients + self.optimizer > capacity_bytes {
            CapacityFailure::Optimizer
        } else {
            CapacityFailure::Activations
        }
    }
}

/// Which capacity inequality failed when a mapping fits under no
/// microbatch size, in the order the terms of
/// [`MemoryFootprint::total`] accumulate: a device that cannot even hold
/// the weights is reported as `Weights`, not `Activations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CapacityFailure {
    /// Resident weights alone exceed the device capacity.
    Weights,
    /// Weights fit, but weights + gradient buffers do not.
    Gradients,
    /// Weights + gradients fit, but adding optimizer state does not.
    Optimizer,
    /// Static state fits; peak activations overflow even at the smallest
    /// microbatch.
    Activations,
}

impl CapacityFailure {
    /// Stable lowercase name, matching the JSON artifact field.
    pub fn name(&self) -> &'static str {
        match self {
            CapacityFailure::Weights => "weights",
            CapacityFailure::Gradients => "gradients",
            CapacityFailure::Optimizer => "optimizer",
            CapacityFailure::Activations => "activations",
        }
    }
}

impl std::fmt::Display for CapacityFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The largest feasible power-of-two microbatch point on the trial
/// ladder, as found by [`MemoryModel::solve_max_microbatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicrobatchFit {
    /// Index on the power-of-two ladder: the trial size is `2^ladder_index`.
    pub ladder_index: u32,
    /// The trial microbatch size, `2^ladder_index` samples.
    pub trial_microbatch: usize,
    /// Microbatches per minibatch at that size:
    /// `ceil(replica / trial_microbatch)`.
    pub num_microbatches: usize,
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use amped_core::units::format_bytes;
        write!(
            f,
            "weights {} + grads {} + optimizer {} + activations {} = {}",
            format_bytes(self.weights),
            format_bytes(self.gradients),
            format_bytes(self.optimizer),
            format_bytes(self.activations),
            format_bytes(self.total())
        )
    }
}

/// The per-device memory model.
#[derive(Debug, Clone)]
pub struct MemoryModel<'a> {
    model: &'a TransformerModel,
    parallelism: &'a Parallelism,
    // `TransformerModel::total_parameters` loops over every layer; the
    // footprint needs it on every call, so it is computed once here.
    total_params: f64,
    precision: Precision,
    optimizer: OptimizerSpec,
    schedule: PipelineSchedule,
    recompute: RecomputePolicy,
}

impl<'a> MemoryModel<'a> {
    /// A memory model for `model` under `parallelism`, with default fp16
    /// precision, mixed-precision Adam and the 1F1B schedule.
    pub fn new(model: &'a TransformerModel, parallelism: &'a Parallelism) -> Self {
        MemoryModel {
            model,
            parallelism,
            total_params: model.total_parameters(),
            precision: Precision::default(),
            optimizer: OptimizerSpec::default(),
            schedule: PipelineSchedule::default(),
            recompute: RecomputePolicy::None,
        }
    }

    /// The memory model of `scenario`'s model and mapping under its
    /// precision and activation-recompute option.
    pub fn from_scenario(scenario: &'a Scenario) -> Self {
        MemoryModel::new(&scenario.model, &scenario.parallelism)
            .with_precision(scenario.precision)
            .with_activation_recompute(scenario.options.activation_recompute)
    }

    /// Override the precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the optimizer.
    pub fn with_optimizer(mut self, optimizer: OptimizerSpec) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Override the pipeline schedule.
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enable full activation recomputation (store only stage-boundary
    /// activations plus one layer's working set). Shorthand for
    /// [`MemoryModel::with_recompute`] with [`RecomputePolicy::Full`].
    pub fn with_activation_recompute(mut self, yes: bool) -> Self {
        self.recompute = if yes {
            RecomputePolicy::Full
        } else {
            RecomputePolicy::None
        };
        self
    }

    /// Choose the recomputation policy.
    pub fn with_recompute(mut self, policy: RecomputePolicy) -> Self {
        self.recompute = policy;
        self
    }

    /// Parameters resident per device: the model sharded over TP × PP
    /// (ZeRO-3 additionally shards over DP).
    pub fn params_per_device(&self) -> f64 {
        let p = self.parallelism;
        let shard = self.total_params / (p.tp() as f64 * p.pp() as f64);
        match p.zero().stage {
            ZeroStage::Parameters => shard / p.dp() as f64,
            _ => shard,
        }
    }

    /// Microbatches a stage holds activations for at its peak.
    pub fn microbatches_in_flight(&self, num_microbatches: usize) -> usize {
        match self.schedule {
            PipelineSchedule::GPipe => num_microbatches,
            PipelineSchedule::OneFOneB => num_microbatches.min(self.parallelism.pp()),
        }
    }

    /// Activation elements stored per layer for one microbatch of `ub`
    /// samples: `s·ub·h·(17 + 2.5·a·s/h)` elements (the Megatron formula at
    /// element granularity); selective recomputation drops the quadratic
    /// attention term, full recomputation is handled in
    /// [`MemoryModel::footprint`].
    pub fn activation_elems_per_layer(&self, ub: f64) -> f64 {
        let s = self.model.seq_len() as f64;
        let h = self.model.hidden_size() as f64;
        let a = self.model.num_heads() as f64;
        match self.recompute {
            RecomputePolicy::Selective => s * ub * h * 17.0,
            _ => s * ub * h * (17.0 + 2.5 * a * s / h),
        }
    }

    /// Full per-device footprint for microbatch size `ub` and
    /// `num_microbatches` microbatches per minibatch.
    pub fn footprint(&self, ub: f64, num_microbatches: usize) -> MemoryFootprint {
        let p = self.parallelism;
        let dp = p.dp() as f64;
        let params = self.params_per_device();
        let params_unsharded = self.total_params / (p.tp() as f64 * p.pp() as f64);

        let weights = params * self.precision.param_bits as f64 / 8.0;

        let grad_params = match p.zero().stage {
            ZeroStage::Gradients | ZeroStage::Parameters => params_unsharded / dp,
            _ => params_unsharded,
        };
        let gradients = grad_params * self.precision.grad_bits as f64 / 8.0;

        let opt_params = match p.zero().stage {
            ZeroStage::None => params_unsharded,
            _ => params_unsharded / dp,
        };
        let optimizer = opt_params * self.optimizer.state_bytes_per_param;

        let layers_per_stage =
            (self.model.num_layers() as f64 / p.pp() as f64).ceil().max(1.0);
        let act_bytes_per_elem = self.precision.act_bits as f64 / 8.0;
        let in_flight = self.microbatches_in_flight(num_microbatches) as f64;
        let tp = p.tp() as f64;
        let per_layer = if self.recompute == RecomputePolicy::Full {
            // Boundary tensor per microbatch; one layer's full working set
            // is amortized across the stage (added below).
            self.model.seq_len() as f64 * ub * self.model.hidden_size() as f64
        } else {
            self.activation_elems_per_layer(ub)
        };
        let mut activations =
            per_layer * layers_per_stage * in_flight * act_bytes_per_elem / tp;
        if self.recompute == RecomputePolicy::Full {
            activations += self.activation_elems_per_layer(ub) * act_bytes_per_elem / tp;
        }

        MemoryFootprint {
            weights,
            gradients,
            optimizer,
            activations,
        }
    }

    /// Per-pipeline-stage footprints, exposing the asymmetry the uniform
    /// [`MemoryModel::footprint`] averages away: stages split the layer
    /// stack contiguously (sizes differing by at most one layer), and with
    /// `gather_on_last_stage` the final stage additionally buffers every
    /// microbatch's output tensor — the torchgpipe behaviour that caps the
    /// paper's Fig. 2b scaling at 8 GPUs.
    pub fn stage_footprints(
        &self,
        ub: f64,
        num_microbatches: usize,
        gather_on_last_stage: bool,
    ) -> Vec<MemoryFootprint> {
        let p = self.parallelism;
        let pp = p.pp();
        let stack_len = self.model.layer_stack().len();
        let base = stack_len / pp;
        let extra = stack_len % pp;
        let uniform = self.footprint(ub, num_microbatches);
        let mean_layers = stack_len as f64 / pp as f64;
        let mut out = Vec::with_capacity(pp);
        for s in 0..pp {
            let layers = (base + usize::from(s < extra)) as f64;
            let scale = layers / mean_layers;
            let mut fp = MemoryFootprint {
                weights: uniform.weights * scale,
                gradients: uniform.gradients * scale,
                optimizer: uniform.optimizer * scale,
                activations: uniform.activations * scale,
            };
            if gather_on_last_stage && s + 1 == pp {
                // The gathered outputs: one boundary tensor per microbatch.
                let elems = self.model.seq_len() as f64
                    * ub
                    * self.model.hidden_size() as f64
                    * num_microbatches as f64;
                fp.activations += elems * self.precision.act_bits as f64 / 8.0;
            }
            out.push(fp);
        }
        out
    }

    /// Whether the footprint at (`ub`, `num_microbatches`) fits a device
    /// with `capacity_bytes` of memory.
    pub fn fits(&self, ub: f64, num_microbatches: usize, capacity_bytes: f64) -> bool {
        self.footprint(ub, num_microbatches).total() <= capacity_bytes
    }

    /// The largest integral microbatch size that fits in `capacity_bytes`,
    /// or `None` if even `ub = 1` does not fit. `num_microbatches` is held
    /// fixed (the caller decides the schedule).
    pub fn max_microbatch(
        &self,
        num_microbatches: usize,
        capacity_bytes: f64,
        upper_bound: usize,
    ) -> Option<usize> {
        if !self.fits(1.0, num_microbatches, capacity_bytes) {
            return None;
        }
        let (mut lo, mut hi) = (1usize, upper_bound.max(1));
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.fits(mid as f64, num_microbatches, capacity_bytes) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// The largest feasible point on the power-of-two microbatch trial
    /// ladder, solved in closed form from the capacity inequality instead
    /// of trial-evaluating the footprint at every rung.
    ///
    /// The ladder is the one the search tuner walks: trial sizes
    /// `1, 2, 4, … ≤ replica`, each pricing `ceil(replica / trial)`
    /// microbatches of `replica_batch / n_ub` samples. Static bytes
    /// (weights, gradients, optimizer state) do not depend on the rung, and
    /// peak activation bytes are `ub · (α · in_flight + β)` for
    /// schedule-dependent constants, so the minimum feasible microbatch
    /// count — and from it the ladder index — falls out of the inequality
    /// directly. The closed-form index is then confirmed against the exact
    /// [`MemoryModel::fits`] predicate (an O(1) walk when the algebra and
    /// the float evaluation agree, which is always in practice), so the
    /// result is *bit-identical* to the brute-force trial loop whenever the
    /// ladder's feasibility flags form a monotone prefix — which they do,
    /// because activation memory is monotone in the microbatch size.
    ///
    /// Returns `Err` with the failing capacity inequality when even the
    /// smallest rung (`trial = 1`, the most feasible point) overflows.
    pub fn solve_max_microbatch(
        &self,
        replica: usize,
        replica_batch: f64,
        capacity_bytes: f64,
    ) -> std::result::Result<MicrobatchFit, CapacityFailure> {
        let replica = replica.max(1);
        let rungs = replica.ilog2() + 1;
        let point = |k: u32| {
            let n_ub = replica.div_ceil(1usize << k);
            (replica_batch / n_ub as f64, n_ub)
        };
        let fits_at = |k: u32| {
            let (ub, n_ub) = point(k);
            self.fits(ub, n_ub, capacity_bytes)
        };

        let mut k = self
            .closed_form_rung(replica, replica_batch, capacity_bytes)
            .min(rungs - 1);
        // Confirm the algebraic guess against the exact footprint: walk
        // down while infeasible, then up while the next rung still fits.
        while !fits_at(k) {
            if k == 0 {
                let (ub, n_ub) = point(0);
                return Err(self.footprint(ub, n_ub).capacity_failure(capacity_bytes));
            }
            k -= 1;
        }
        while k + 1 < rungs && fits_at(k + 1) {
            k += 1;
        }
        Ok(MicrobatchFit {
            ladder_index: k,
            trial_microbatch: 1usize << k,
            num_microbatches: replica.div_ceil(1usize << k),
        })
    }

    /// The algebraic ladder-index guess behind
    /// [`MemoryModel::solve_max_microbatch`]: activation bytes at a rung
    /// with `n_ub` microbatches of `ub = replica_batch / n_ub` samples are
    /// `ub · (α · in_flight(n_ub) + β)` where `α` covers the per-layer
    /// stored tensors and `β` the full-recompute working set, so the
    /// minimum feasible `n_ub` solves the capacity inequality directly.
    fn closed_form_rung(&self, replica: usize, replica_batch: f64, capacity_bytes: f64) -> u32 {
        let static_bytes = self.footprint(0.0, 1).total();
        let budget = capacity_bytes - static_bytes;
        if budget <= 0.0 {
            return 0;
        }
        let layers_per_stage =
            (self.model.num_layers() as f64 / self.parallelism.pp() as f64).ceil().max(1.0);
        let act_bytes_per_elem = self.precision.act_bits as f64 / 8.0;
        let tp = self.parallelism.tp() as f64;
        let (alpha, beta) = if self.recompute == RecomputePolicy::Full {
            let boundary = self.model.seq_len() as f64 * self.model.hidden_size() as f64;
            (
                boundary * layers_per_stage * act_bytes_per_elem / tp,
                self.activation_elems_per_layer(1.0) * act_bytes_per_elem / tp,
            )
        } else {
            (
                self.activation_elems_per_layer(1.0) * layers_per_stage * act_bytes_per_elem
                    / tp,
                0.0,
            )
        };
        let rb = replica_batch;
        // Minimum real-valued n_ub with activations ≤ budget; the in-flight
        // count saturates at pp under 1F1B, making activations flat in the
        // deep regime under GPipe-like accounting.
        let shallow = || {
            // in_flight = n_ub: activations = rb·α + rb·β / n_ub.
            if budget > rb * alpha {
                if beta > 0.0 {
                    (rb * beta / (budget - rb * alpha)).max(1.0)
                } else {
                    1.0
                }
            } else {
                f64::INFINITY
            }
        };
        let n_req = match self.schedule {
            PipelineSchedule::GPipe => shallow(),
            PipelineSchedule::OneFOneB => {
                let pp = self.parallelism.pp() as f64;
                // Deep regime n_ub ≥ pp: activations = rb·(α·pp + β) / n_ub.
                let deep = rb * (alpha * pp + beta) / budget;
                if deep >= pp {
                    deep
                } else {
                    shallow()
                }
            }
        };
        if !n_req.is_finite() || n_req <= 1.0 {
            return if n_req.is_finite() { replica.ilog2() } else { 0 };
        }
        // Largest k with ceil(replica / 2^k) ≥ n_req.
        let ratio = replica as f64 / n_req;
        if ratio < 1.0 {
            0
        } else {
            (ratio.log2().floor() as u32).min(replica.ilog2())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::ZeroConfig;

    fn model() -> TransformerModel {
        TransformerModel::builder("gpt-1.3b")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(50257)
            .build()
            .unwrap()
    }

    #[test]
    fn single_device_holds_everything() {
        let m = model();
        let p = Parallelism::single();
        let mem = MemoryModel::new(&m, &p);
        let fp = mem.footprint(1.0, 1);
        // ~1.4B params at 2 bytes ~ 2.9 GB weights.
        assert!(fp.weights > 2e9 && fp.weights < 4e9, "weights = {}", fp.weights);
        // Adam states at 12 B/param dominate.
        assert!(fp.optimizer > 5.0 * fp.weights);
    }

    #[test]
    fn tp_pp_shard_weights() {
        let m = model();
        let p1 = Parallelism::single();
        let p8 = Parallelism::builder().tp(2, 1).pp(4, 1).build().unwrap();
        let f1 = MemoryModel::new(&m, &p1).footprint(1.0, 1);
        let f8 = MemoryModel::new(&m, &p8).footprint(1.0, 1);
        assert!((f1.weights / f8.weights - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_stages_shard_progressively() {
        let m = model();
        let make = |stage| {
            Parallelism::builder()
                .dp(8, 1)
                .zero(ZeroConfig::stage(stage, 0.0))
                .build()
                .unwrap()
        };
        let p0 = make(ZeroStage::None);
        let p1 = make(ZeroStage::OptimizerStates);
        let p2 = make(ZeroStage::Gradients);
        let p3 = make(ZeroStage::Parameters);
        let f =
            |p: &Parallelism| MemoryModel::new(&m, p).footprint(1.0, 1);
        let (f0, f1v, f2, f3) = (f(&p0), f(&p1), f(&p2), f(&p3));
        assert!(f1v.optimizer < f0.optimizer);
        assert_eq!(f1v.gradients, f0.gradients);
        assert!(f2.gradients < f1v.gradients);
        assert!(f3.weights < f2.weights);
        assert!(f3.total() < f2.total() && f2.total() < f1v.total() && f1v.total() < f0.total());
    }

    #[test]
    fn gpipe_holds_more_activations_than_1f1b() {
        let m = model();
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let gpipe = MemoryModel::new(&m, &p).with_schedule(PipelineSchedule::GPipe);
        let ofob = MemoryModel::new(&m, &p).with_schedule(PipelineSchedule::OneFOneB);
        let fg = gpipe.footprint(2.0, 32);
        let fo = ofob.footprint(2.0, 32);
        assert!((fg.activations / fo.activations - 8.0).abs() < 1e-9); // 32 vs 4 in flight
    }

    #[test]
    fn recompute_slashes_activation_memory() {
        let m = model();
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let plain = MemoryModel::new(&m, &p).footprint(4.0, 16);
        let rc = MemoryModel::new(&m, &p)
            .with_activation_recompute(true)
            .footprint(4.0, 16);
        assert!(rc.activations < 0.2 * plain.activations);
    }

    #[test]
    fn selective_recompute_sits_between_none_and_full() {
        let m = model();
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let act = |policy| {
            MemoryModel::new(&m, &p)
                .with_recompute(policy)
                .footprint(4.0, 16)
                .activations
        };
        let none = act(RecomputePolicy::None);
        let selective = act(RecomputePolicy::Selective);
        let full = act(RecomputePolicy::Full);
        assert!(full < selective && selective < none);
        // Selective drops exactly the quadratic attention term.
        let s = 1024.0_f64;
        let h = 2048.0_f64;
        let a = 16.0_f64;
        let expected_ratio = 17.0 / (17.0 + 2.5 * a * s / h);
        assert!((selective / none - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn activations_grow_linearly_with_microbatch() {
        let m = model();
        let p = Parallelism::single();
        let mem = MemoryModel::new(&m, &p);
        let a1 = mem.footprint(1.0, 1).activations;
        let a4 = mem.footprint(4.0, 1).activations;
        assert!((a4 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn max_microbatch_solver() {
        let m = model();
        let p = Parallelism::builder().tp(2, 1).pp(4, 1).build().unwrap();
        let mem = MemoryModel::new(&m, &p).with_optimizer(OptimizerSpec::sgd());
        let cap = 32e9; // a V100-class device
        let best = mem.max_microbatch(4, cap, 4096).unwrap();
        assert!(best >= 1);
        assert!(mem.fits(best as f64, 4, cap));
        assert!(!mem.fits((best + 1) as f64, 4, cap));
        // An impossible capacity yields None.
        assert_eq!(mem.max_microbatch(4, 1e6, 4096), None);
    }

    /// The reference the closed-form solve must reproduce: walk every rung
    /// of the power-of-two trial ladder and keep the last one that fits.
    fn brute_force_ladder(
        mem: &MemoryModel,
        replica: usize,
        replica_batch: f64,
        cap: f64,
    ) -> Option<u32> {
        let mut best = None;
        for k in 0..=replica.max(1).ilog2() {
            let n_ub = replica.max(1).div_ceil(1 << k);
            if mem.fits(replica_batch / n_ub as f64, n_ub, cap) {
                best = Some(k);
            }
        }
        best
    }

    #[test]
    fn closed_form_solve_matches_trial_ladder() {
        let m = model();
        let p = Parallelism::builder().tp(2, 1).pp(4, 1).dp(2, 1).build().unwrap();
        for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
            for recompute in
                [RecomputePolicy::None, RecomputePolicy::Selective, RecomputePolicy::Full]
            {
                for cap in [16e9, 32e9, 80e9, 640e9] {
                    let mem = MemoryModel::new(&m, &p)
                        .with_schedule(schedule)
                        .with_recompute(recompute)
                        .with_optimizer(OptimizerSpec::sgd());
                    let replica = 256usize;
                    let rb = 256.0;
                    let expect = brute_force_ladder(&mem, replica, rb, cap);
                    match mem.solve_max_microbatch(replica, rb, cap) {
                        Ok(fit) => {
                            assert_eq!(Some(fit.ladder_index), expect);
                            assert_eq!(fit.trial_microbatch, 1 << fit.ladder_index);
                            assert_eq!(
                                fit.num_microbatches,
                                replica.div_ceil(fit.trial_microbatch)
                            );
                        }
                        Err(_) => assert_eq!(expect, None, "{schedule:?}/{recompute:?}/{cap}"),
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_solve_names_the_failing_inequality() {
        let m = model();
        let p = Parallelism::single();
        let mem = MemoryModel::new(&m, &p);
        // Static terms from the model itself, so the thresholds stay robust
        // to parameter-count accounting changes.
        let fp = mem.footprint(0.0, 1);
        let cases = [
            (fp.weights * 0.5, CapacityFailure::Weights),
            (fp.weights + 0.5 * fp.gradients, CapacityFailure::Gradients),
            (
                fp.weights + fp.gradients + 0.5 * fp.optimizer,
                CapacityFailure::Optimizer,
            ),
            // ~1 GB of activation headroom < the ~3.7 GB a single ub = 1
            // microbatch stores on this model.
            (fp.total() + 1e9, CapacityFailure::Activations),
        ];
        for (cap, expect) in cases {
            assert_eq!(mem.solve_max_microbatch(64, 64.0, cap), Err(expect), "cap {cap}");
        }
        assert_eq!(CapacityFailure::Gradients.to_string(), "gradients");
    }

    #[test]
    fn last_stage_gather_dominates_under_recompute() {
        // With full recomputation only boundary tensors persist, so the
        // torchgpipe gather on the last stage dominates its activations.
        let m = model();
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let mem = MemoryModel::new(&m, &p).with_activation_recompute(true);
        let stages = mem.stage_footprints(2.0, 64, true);
        assert_eq!(stages.len(), 4);
        assert!(
            stages[3].activations > 1.5 * stages[0].activations,
            "last {} vs first {}",
            stages[3].activations,
            stages[0].activations
        );
        // Without the gather, per-stage totals track the uniform model.
        let plain = mem.stage_footprints(2.0, 64, false);
        let sum: f64 = plain.iter().map(|f| f.total()).sum();
        let uniform = mem.footprint(2.0, 64).total() * 4.0;
        assert!((sum - uniform).abs() / uniform < 1e-9);
    }

    #[test]
    fn gather_grows_with_microbatch_count() {
        // The paper's Fig. 2b saturation: scaling the pipeline (and with it
        // N_ub = N_PP) keeps growing the last GPU's gathered volume, which
        // is why the global batch could not scale past 8 GPUs.
        let m = model();
        let p8 = Parallelism::builder().pp(8, 1).build().unwrap();
        let p16 = Parallelism::builder().pp(16, 1).build().unwrap();
        let gathered = |p: &Parallelism, n_ub: usize| {
            let mem = MemoryModel::new(&m, p);
            let pp = p.pp();
            let with = mem.stage_footprints(4.0, n_ub, true)[pp - 1].activations;
            let without = mem.stage_footprints(4.0, n_ub, false)[pp - 1].activations;
            with - without
        };
        let g8 = gathered(&p8, 8);
        let g16 = gathered(&p16, 16);
        assert!(
            (g16 / g8 - 2.0).abs() < 1e-9,
            "gathered volume doubles with the microbatch count: {g8} -> {g16}"
        );
    }

    #[test]
    fn checkpoint_bytes_excludes_transient_state() {
        let m = model();
        let p = Parallelism::single();
        let fp = MemoryModel::new(&m, &p).footprint(4.0, 8);
        assert_eq!(fp.checkpoint_bytes(), fp.weights + fp.optimizer);
        assert!(fp.checkpoint_bytes() < fp.total());
    }

    #[test]
    fn optimizer_presets() {
        assert_eq!(OptimizerSpec::adam_mixed_precision().state_bytes_per_param(), 12.0);
        assert_eq!(OptimizerSpec::sgd().state_bytes_per_param(), 0.0);
        assert_eq!(OptimizerSpec::default().name(), "adam-mixed");
    }

    #[test]
    fn display_footprint() {
        let m = model();
        let p = Parallelism::single();
        let fp = MemoryModel::new(&m, &p).footprint(1.0, 1);
        let s = fp.to_string();
        assert!(s.contains("weights") && s.contains("GiB"));
    }
}

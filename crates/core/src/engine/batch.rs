//! The pricing kernel: Eq. 1–12 of the paper, evaluated for many
//! parallelism candidates in one pass.
//!
//! [`BatchEvaluator`] is the only implementation of the cost model; every
//! other entry point is a view over it:
//!
//! - [`Estimator::estimate_cached`](crate::Estimator::estimate_cached) is a
//!   batch of one, and [`Estimator::estimate`](crate::Estimator::estimate)
//!   is that batch of one against a fresh [`EstimateCache`];
//! - [`Estimator::estimate_detailed`](crate::Estimator::estimate_detailed)
//!   is one kernel call plus per-layer rows built from the same per-kind
//!   terms the kernel sums;
//! - the branch-and-bound lower bound ([`Prepared::lower_bound`]) reuses
//!   the kernel's hoisted compute terms and its TP communication function;
//! - the search's microbatch tuning ([`Prepared::best_rung`]) folds a
//!   mapping's ladder on the stack with the same per-rung code, building
//!   one [`Estimate`] for the winner.
//!
//! A pass is organised for throughput. Everything that does not depend on
//! the candidate (layer-kind groups, per-kind operation counts at the
//! global batch, precision scales, the left-associated constant products
//! of the per-kind compute terms) is hoisted once per pass
//! ([`BatchEvaluator::prepare`]). Communication depends on the mapping's
//! degrees and replica batch, never on the microbatch policy, so
//! consecutive microbatch variants of one mapping share one evaluation of
//! it. Layers of one kind are priced once and weighted by their
//! multiplicity, so every sum runs over the distinct layer kinds in
//! first-occurrence order. Per-kind operation counts and collective cost
//! factors are recomputed where they are needed: each is cheaper than the
//! hash lookup that would memoize it (see [`EstimateCache`]).
//!
//! Each candidate sees the same values, association and order whether it
//! is priced alone or inside any batch, against a cold or a warm cache, so
//! its result is the same bits either way.

use std::cmp::Reverse;

use amped_topo::Collective;

use crate::accelerator::AcceleratorSpec;
use crate::counts::LayerCounts;
use crate::efficiency::EfficiencyModel;
use crate::engine::{
    Breakdown, BubbleAccounting, DetailedEstimate, EngineOptions, Estimate, EstimateCache,
    LayerEstimate, Scenario,
};
use crate::error::Result;
use crate::metrics;
use crate::model::{even_split, LayerKind, TransformerModel};
use crate::network::SystemSpec;
use crate::parallelism::{MicrobatchPolicy, Parallelism, ZeroStage};
use crate::precision::Precision;
use crate::training::TrainingConfig;
use crate::units::Seconds;

/// The bandwidth of one inter-node stream fed by a whole intra-node TP
/// group: hierarchical collectives drive the node's NICs in parallel, so
/// `tp_intra` per-accelerator shares aggregate, capped at the node's full
/// NIC bandwidth.
fn tp_stream_bandwidth(system: &SystemSpec, p: &Parallelism) -> f64 {
    let nic_aggregate = system.inter().bandwidth_bits_per_sec * system.nics_per_node() as f64;
    (system.inter_bandwidth_per_accel() * p.tp_intra() as f64).min(nic_aggregate)
}

/// `(comm_passes, stage_share)`: forward plus backward communication passes
/// (inflated by ZeRO's overhead) and the `1/N_PP` share of the summed
/// per-layer traffic on the critical path — layers are spread over the
/// pipeline stages and their collectives run concurrently (DESIGN.md
/// interpretation note 7).
fn comm_scaling(options: EngineOptions, p: &Parallelism) -> (f64, f64) {
    let zero_factor = 1.0 + p.zero().comm_overhead;
    (
        zero_factor * (1.0 + options.backward_comm_factor),
        1.0 / p.pp() as f64,
    )
}

/// Eq. 6 (TP all-reduce, intra- and inter-node) and Eq. 9 (MoE all-to-all)
/// for one layer: the raw collective times before the pass and stage-share
/// scaling, zero where the collective does not run.
#[derive(Debug, Clone, Copy, Default)]
struct LayerComm {
    tp_intra: f64,
    tp_inter: f64,
    moe: f64,
}

/// One priced microbatch rung: its breakdown and microbatch split, before
/// the [`Estimate`]'s derived metrics.
#[derive(Debug, Clone, Copy)]
struct Rung {
    breakdown: Breakdown,
    microbatch_size: f64,
    num_microbatches: usize,
    efficiency: f64,
}

/// The winning rung of [`Prepared::best_rung`].
#[derive(Debug, Clone)]
pub struct BestRung {
    /// The winner's position in the rungs given.
    pub index: usize,
    /// The winning microbatch variant.
    pub parallelism: Parallelism,
    /// Whether the winner fits device memory (as the caller said).
    pub fits_memory: bool,
    /// The winner's estimate, bit-identical to
    /// [`Prepared::estimate_many`]'s for the same variant.
    pub estimate: Estimate,
}

/// The candidate-invariant slice of one layer kind's compute terms: the
/// constant left factors of `u_f`/`u_b`/`u_w`, each a prefix of the
/// left-associated product [`Prepared::layer_compute`] completes.
#[derive(Debug)]
struct KindTerms {
    kind: LayerKind,
    macs_fwd: f64,
    bwd_macs: f64,
    nl_f: f64,
    nl_b: f64,
    ww: f64,
    count: f64,
}

/// Batched analytical evaluation of many parallelism candidates under one
/// shared scenario (model, accelerator, system, precision, efficiency,
/// engine options).
///
/// # Example
///
/// ```
/// use amped_core::{
///     AcceleratorSpec, BatchEvaluator, EfficiencyModel, EstimateCache, Estimator, Link,
///     Parallelism, SystemSpec, TrainingConfig, TransformerModel,
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
/// let training = TrainingConfig::new(512, 100)?;
/// let mappings = vec![
///     Parallelism::builder().tp(8, 1).dp(1, 2).build()?,
///     Parallelism::builder().tp(4, 1).pp(2, 1).dp(1, 2).build()?,
/// ];
///
/// let mut cache = EstimateCache::new();
/// let batch = BatchEvaluator::new(&model, &accel, &system)
///     .with_efficiency(EfficiencyModel::Constant(0.5));
/// let estimates = batch.estimate_many(&mut cache, &mappings, &training);
///
/// // A batch of many prices each candidate exactly as a batch of one.
/// let alone = Estimator::new(&model, &accel, &system, &mappings[1])
///     .with_efficiency(EfficiencyModel::Constant(0.5))
///     .estimate(&training)?;
/// assert_eq!(estimates[1].as_ref().ok(), Some(&alone));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    precision: Precision,
    efficiency: EfficiencyModel,
    options: EngineOptions,
}

impl<'a> BatchEvaluator<'a> {
    /// A batch evaluator with default precision, efficiency and options —
    /// the same defaults as [`Estimator::new`](crate::Estimator::new).
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
    ) -> Self {
        BatchEvaluator {
            model,
            accel,
            system,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            options: EngineOptions::default(),
        }
    }

    /// A batch evaluator sharing a [`Scenario`]'s specifications (the
    /// scenario's own parallelism is ignored: candidates supply theirs).
    pub fn from_scenario(scenario: &'a Scenario) -> Self {
        BatchEvaluator {
            model: &scenario.model,
            accel: &scenario.accelerator,
            system: &scenario.system,
            precision: scenario.precision,
            efficiency: scenario.efficiency.clone(),
            options: scenario.options,
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

    /// Validate the shared inputs and hoist every candidate-invariant term
    /// of a pass over `training`, for any number of
    /// [`Prepared::estimate_many`] and [`Prepared::lower_bound`] calls.
    ///
    /// # Errors
    ///
    /// Returns the precision, efficiency or engine-option validation error,
    /// in that order.
    pub fn prepare(
        &self,
        cache: &mut EstimateCache,
        training: &TrainingConfig,
    ) -> Result<Prepared<'_>> {
        self.precision.validate()?;
        self.efficiency.validate()?;
        self.options.validate()?;
        let (model, accel, opts) = (self.model, self.accel, self.options);
        let c_nonlin = accel.c_nonlin();
        let nonlin_scale = accel.nonlin_precision_scale(self.precision.nonlin_bits);
        let recompute = if opts.activation_recompute { 1.0 } else { 0.0 };
        let bwd_c = opts.backward_compute_factor + recompute;
        let groups = cache.groups(model);
        let kinds = groups
            .iter()
            .map(|&(kind, count)| {
                let cg = LayerCounts::for_layer(model, kind, training.global_batch() as f64);
                KindTerms {
                    kind,
                    macs_fwd: cg.macs_fwd,
                    bwd_macs: bwd_c * cg.macs_fwd,
                    nl_f: cg.nonlin_fwd * c_nonlin * nonlin_scale,
                    nl_b: opts.backward_nonlin_factor * cg.nonlin_fwd * c_nonlin * nonlin_scale,
                    ww: opts.weight_update_factor * cg.weights,
                    count: count as f64,
                }
            })
            .collect();
        let stack_len: usize = groups.iter().map(|(_, n)| n).sum();
        Ok(Prepared {
            eval: self,
            training: *training,
            groups,
            kinds,
            c_nonlin,
            nonlin_scale,
            mac_scale: accel.mac_precision_scale(self.precision.mac_operand_bits()),
            param_scale: accel.mac_precision_scale(self.precision.param_bits),
            compute_scale: match opts.bubble_accounting {
                BubbleAccounting::GPipe => 1.0,
                BubbleAccounting::PaperEq8 => 1.0 / stack_len as f64,
            },
        })
    }

    /// Price every candidate mapping for `training`, returning one result
    /// per input in order.
    ///
    /// Per-candidate errors (an invalid mapping for the system/model) land
    /// in that candidate's slot; shared-input validation errors (bad
    /// precision/efficiency/options) fill every slot.
    pub fn estimate_many(
        &self,
        cache: &mut EstimateCache,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) -> Vec<Result<Estimate>> {
        match self.prepare(cache, training) {
            Ok(kernel) => kernel.estimate_many(cache, mappings),
            Err(e) => mappings.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// One kernel call for `p` plus its per-layer rows (see
    /// [`DetailedEstimate`]).
    pub(crate) fn estimate_detailed(
        &self,
        cache: &mut EstimateCache,
        p: &Parallelism,
        training: &TrainingConfig,
    ) -> Result<DetailedEstimate> {
        let kernel = self.prepare(cache, training)?;
        let estimate = kernel
            .estimate_many(cache, std::slice::from_ref(p))
            .pop()
            .expect("one result per mapping")?;
        let layers = kernel.layer_rows(cache, p, &estimate);
        Ok(DetailedEstimate { estimate, layers })
    }

    /// Eq. 6 and Eq. 9 for one layer of `kind` under mapping `p`.
    fn layer_comm(&self, p: &Parallelism, kind: LayerKind, replica_batch: f64) -> LayerComm {
        let system = self.system;
        let cr = LayerCounts::for_layer(self.model, kind, replica_batch);
        let (intra, inter) = (system.intra(), system.inter());
        let act_bits = self.precision.act_bits as f64;
        let mut out = LayerComm::default();
        // Eq. 6: intra-node TP all-reduce.
        if p.tp_intra() > 1 {
            let cost = intra.topology.cost(Collective::AllReduce, p.tp_intra());
            out.tp_intra = cost.time(
                cr.act_elems_tp * act_bits,
                intra.latency_s,
                intra.bandwidth_bits_per_sec,
            );
        }
        // Eq. 6 applied inter-node.
        if p.tp_inter() > 1 {
            let cost = inter.topology.cost(Collective::AllReduce, p.tp_inter());
            out.tp_inter = cost.time(
                cr.act_elems_tp * act_bits,
                inter.latency_s,
                tp_stream_bandwidth(system, p),
            );
        }
        // Eq. 9: MoE all-to-all over the node fabric. With tensor
        // parallelism each rank holds (and therefore routes) only its
        // h/N_TP feature shard of every token, so the per-accelerator
        // volume divides by the TP degree.
        if cr.act_elems_moe > 0.0 && system.num_nodes() >= 1 {
            let nodes = system.num_nodes() as f64;
            let cost = inter.topology.cost(Collective::AllToAll, system.num_nodes());
            let latency_term = 2.0 * inter.latency_s * cost.steps as f64;
            let volume_bits = cr.act_elems_moe * act_bits / p.tp() as f64;
            let bw_term = if nodes > 1.0 {
                2.0 * volume_bits
                    * cost.factor
                    * (1.0 / (nodes * intra.bandwidth_bits_per_sec)
                        + (nodes - 1.0) / (nodes * system.inter_bandwidth_per_accel()))
            } else {
                // Single node: the all-to-all stays on the intra fabric.
                2.0 * volume_bits / intra.bandwidth_bits_per_sec
            };
            out.moe = latency_term + bw_term;
        }
        out
    }
}

/// One pass of the kernel over a fixed [`TrainingConfig`]: the shared
/// inputs validated and every candidate-invariant term hoisted (see
/// [`BatchEvaluator::prepare`]).
#[derive(Debug)]
pub struct Prepared<'e> {
    eval: &'e BatchEvaluator<'e>,
    training: TrainingConfig,
    groups: Vec<(LayerKind, usize)>,
    kinds: Vec<KindTerms>,
    c_nonlin: f64,
    nonlin_scale: f64,
    mac_scale: f64,
    param_scale: f64,
    /// The Eq. 8 compute-term scale of the configured bubble accounting.
    compute_scale: f64,
}

impl Prepared<'_> {
    /// The training configuration this pass prices.
    pub fn training(&self) -> &TrainingConfig {
        &self.training
    }

    /// Eq. 2 forward/backward and Eq. 12 weight-update time of one layer of
    /// kind `kt` at the global batch, undivided by the workers.
    #[inline]
    fn layer_compute(&self, kt: &KindTerms, c_mac: f64) -> [f64; 3] {
        [
            kt.macs_fwd * c_mac * self.mac_scale + kt.nl_f,
            kt.bwd_macs * c_mac * self.mac_scale + kt.nl_b,
            kt.ww * c_mac * self.param_scale,
        ]
    }

    /// [`BatchEvaluator::estimate_many`] within this pass.
    pub fn estimate_many(
        &self,
        cache: &mut EstimateCache,
        mappings: &[Parallelism],
    ) -> Vec<Result<Estimate>> {
        let eval = self.eval;
        let model_flops = self.model_flops(cache);
        // Communication depends only on the mapping's degrees/ZeRO config
        // and the replica batch, never on the microbatch policy, so a run
        // of variants (adjacent by construction in the search) reuses one
        // evaluation. Keying on the policy-normalized mapping makes the
        // reuse exact rather than heuristic.
        let mut prev: Option<(Parallelism, (Breakdown, f64))> = None;
        mappings
            .iter()
            .map(|p| {
                p.validate_against(eval.system, eval.model)?;
                let norm = p.with_microbatches(MicrobatchPolicy::Explicit(1));
                let comm = match prev {
                    Some((key, t)) if key == norm => t,
                    _ => {
                        let t = self.mapping_comm(cache, p);
                        prev = Some((norm, t));
                        t
                    }
                };
                Ok(self.estimate_of(p, &self.price_rung(cache, p, comm), model_flops))
            })
            .collect()
    }

    /// The `(fits, −time)` winner among `rungs`, the microbatch variants of
    /// one mapping, each paired with whether it fits device memory: a
    /// fitting rung beats a non-fitting one, then the faster total time
    /// wins, and on a tie the earlier rung stays. With `require_fit`,
    /// non-fitting rungs are skipped unpriced. `Ok(None)` when no rung was
    /// retained.
    ///
    /// The mapping is validated once (the rungs share its degrees, and
    /// validation never reads the microbatch policy) and its communication
    /// is priced once. Each rung then prices only its compute and bubble,
    /// with [`Prepared::estimate_many`]'s code, and one [`Estimate`] is
    /// built, for the winner: the result is what folding
    /// `estimate_many`'s results over the same rungs gives, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the mapping's validation error, whether or not any rung is
    /// retained.
    pub fn best_rung(
        &self,
        cache: &mut EstimateCache,
        rungs: impl IntoIterator<Item = (Parallelism, bool)>,
        require_fit: bool,
    ) -> Result<Option<BestRung>> {
        let mut rungs = rungs.into_iter().peekable();
        let Some(&(first, _)) = rungs.peek() else {
            return Ok(None);
        };
        first.validate_against(self.eval.system, self.eval.model)?;
        let comm = self.mapping_comm(cache, &first);
        let num_batches = self.training.num_batches() as f64;
        let mut best: Option<(usize, Parallelism, bool, Rung, f64)> = None;
        for (index, (p, fits)) in rungs.enumerate() {
            debug_assert!(
                p.with_microbatches(first.microbatch_policy()) == first,
                "rungs of one mapping differ only in the microbatch policy"
            );
            if require_fit && !fits {
                continue;
            }
            let rung = self.price_rung(cache, &p, comm);
            let time = rung.breakdown.total() * num_batches;
            let better = best.as_ref().is_none_or(|&(_, _, b_fits, _, b_time)| {
                (fits, Reverse(time)) > (b_fits, Reverse(b_time))
            });
            if better {
                best = Some((index, p, fits, rung, time));
            }
        }
        let Some((index, parallelism, fits_memory, rung, _)) = best else {
            return Ok(None);
        };
        let estimate = self.estimate_of(&parallelism, &rung, self.model_flops(cache));
        Ok(Some(BestRung {
            index,
            parallelism,
            fits_memory,
            estimate,
        }))
    }

    /// The memoized model FLOPs per iteration of this pass.
    fn model_flops(&self, cache: &mut EstimateCache) -> f64 {
        let global_batch = self.training.global_batch();
        let recompute = self.eval.options.activation_recompute;
        cache.model_flops(global_batch, recompute).unwrap_or_else(|| {
            let v = metrics::model_flops_per_iteration(self.eval.model, global_batch, recompute);
            cache.set_model_flops(global_batch, recompute, v);
            v
        })
    }

    /// [`Prepared::comm_terms`] at `p`'s replica batch: communication
    /// volumes use the per-replica batch, compute terms the global one
    /// (see DESIGN.md interpretation notes).
    fn mapping_comm(&self, cache: &mut EstimateCache, p: &Parallelism) -> (Breakdown, f64) {
        self.comm_terms(cache, p, p.replica_batch(self.training.global_batch()))
    }

    /// One rung of a mapping whose communication block is `comm`: Eq. 1,
    /// 2, 8 and 12 at the rung's microbatch efficiency, added onto `comm`.
    fn price_rung(
        &self,
        cache: &mut EstimateCache,
        p: &Parallelism,
        (mut b, bubble_comm): (Breakdown, f64),
    ) -> Rung {
        let eval = self.eval;
        let global_batch = self.training.global_batch();
        let workers = p.total_workers() as f64;
        let n_ub = p.num_microbatches(global_batch);
        let ub = p.microbatch_size(global_batch);
        let eff = eval.efficiency.eval(ub);
        // Eq. 3-4 reciprocal at this candidate's microbatch efficiency.
        let c_mac = eval.accel.c_mac(eff);
        // With imbalance correction, the pipeline runs at the slowest
        // stage's rate. With per-microbatch stage times t_s over the
        // balanced contiguous partition (mean t̄, max t*), a GPipe-style
        // pipeline of m microbatches completes a pass in `p·t̄ + (m−1)·t*`,
        // while the balanced model charges `(m+p−1)·t̄`; scaling the compute
        // (and its bubble share) by the ratio reproduces the slowest-stage
        // behaviour exactly for compute-bound pipelines (see ablation 5 and
        // tests/sim_agreement.rs). Clamping to ≥ 1 keeps the lower bound,
        // which drops the correction, exact under rounding.
        let imbalance = if eval.options.stage_imbalance_correction && p.pp() > 1 {
            let r = self.stage_imbalance_ratio(cache, p.pp(), eff, c_mac);
            let (m, pf) = (n_ub as f64, p.pp() as f64);
            ((pf + (m - 1.0) * r) / (m + pf - 1.0)).max(1.0)
        } else {
            1.0
        };
        // Eq. 2 / Eq. 12, divided by the full worker product (Eq. 1).
        let (mut sum_uf, mut sum_ub) = (0.0, 0.0); // Σ U_f(l), Σ U_b(l)
        for kt in &self.kinds {
            let [u_f, u_b, u_w] = self.layer_compute(kt, c_mac);
            let (iuf, iub) = (imbalance * u_f, imbalance * u_b);
            sum_uf += iuf * kt.count;
            sum_ub += iub * kt.count;
            b.compute_forward += iuf / workers * kt.count;
            b.compute_backward += iub / workers * kt.count;
            b.weight_update += u_w / workers * kt.count;
        }
        // Eq. 8 (see DESIGN.md): bubble = R·(N_PP−1)/N_ub ×
        //   [ Σ(U_f+U_b)/(N_TP·N_DP·N_PP) + Σ(M_f+M_b) ].
        if p.pp() > 1 {
            b.bubble = p.bubble_ratio() * (p.pp() as f64 - 1.0) / n_ub as f64
                * (self.compute_scale * (sum_uf + sum_ub) / workers + bubble_comm);
        }
        Rung {
            breakdown: b,
            microbatch_size: ub,
            num_microbatches: n_ub,
            efficiency: eff,
        }
    }

    /// The [`Estimate`] of mapping `p` priced as `rung`.
    fn estimate_of(&self, p: &Parallelism, rung: &Rung, model_flops: f64) -> Estimate {
        let workers = p.total_workers() as f64;
        let time_per_iteration = rung.breakdown.total();
        Estimate {
            breakdown: rung.breakdown,
            time_per_iteration: Seconds::new(time_per_iteration),
            total_time: Seconds::new(time_per_iteration * self.training.num_batches() as f64),
            microbatch_size: rung.microbatch_size,
            num_microbatches: rung.num_microbatches,
            efficiency: rung.efficiency,
            model_flops_per_iteration: model_flops,
            tflops_per_gpu: metrics::tflops_per_gpu(model_flops, time_per_iteration, workers),
            total_workers: p.total_workers(),
            tokens_per_sec: if time_per_iteration > 0.0 {
                (self.training.global_batch() * self.eval.model.seq_len()) as f64
                    / time_per_iteration
            } else {
                0.0
            },
        }
    }

    /// A lower bound on the total training time of the fastest of
    /// `variants`, microbatch variants of one mapping: per variant,
    /// forward + backward + weight-update time at its own microbatch
    /// efficiency plus the tensor-parallel all-reduce floor, with all
    /// other communication, the pipeline bubble and stage imbalance
    /// dropped. `INFINITY` when `variants` is empty.
    ///
    /// The TP floor depends on the replica batch, never on the microbatch
    /// split, so the variants share one evaluation of it; the compute
    /// terms complete the pass's hoisted per-kind products. Every term is
    /// accumulated with [`Prepared::estimate_many`]'s expressions and
    /// order, and every dropped or shrunk term is non-negative under
    /// monotone float operations, so the bound never exceeds the kernel's
    /// total time **exactly in f64**. That exactness is what lets `amped-search`
    /// prune candidates against an incumbent best time without ever
    /// discarding the true optimum.
    ///
    /// # Errors
    ///
    /// Returns the first variant that does not fit the system/model.
    pub fn lower_bound(&self, variants: impl IntoIterator<Item = Parallelism>) -> Result<f64> {
        let eval = self.eval;
        let global_batch = self.training.global_batch();
        let num_batches = self.training.num_batches() as f64;
        let mut floor = None;
        let mut bound = f64::INFINITY;
        for v in variants {
            v.validate_against(eval.system, eval.model)?;
            let tp = *floor.get_or_insert_with(|| self.tp_floor(&v));
            let workers = v.total_workers() as f64;
            let eff = eval.efficiency.eval(v.microbatch_size(global_batch));
            let c_mac = eval.accel.c_mac(eff);
            let (mut cf, mut cb, mut wu) = (0.0, 0.0, 0.0);
            for kt in &self.kinds {
                let [u_f, u_b, u_w] = self.layer_compute(kt, c_mac);
                cf += u_f / workers * kt.count;
                cb += u_b / workers * kt.count;
                wu += u_w / workers * kt.count;
            }
            // Same association as Breakdown::compute_total(), the head of
            // Breakdown::comm_total()'s left fold, and Eq. 1's batch
            // multiplication, so the bound survives rounding exactly.
            bound = bound.min((cf + cb + wu + tp) * num_batches);
        }
        Ok(bound)
    }

    /// `tp_comm_intra + tp_comm_inter` of mapping `p`, accumulated exactly
    /// as [`Prepared::comm_terms`] accumulates them.
    fn tp_floor(&self, p: &Parallelism) -> f64 {
        if p.tp() == 1 {
            return 0.0;
        }
        let (comm_passes, stage_share) = comm_scaling(self.eval.options, p);
        let replica_batch = p.replica_batch(self.training.global_batch());
        let (mut intra, mut inter) = (0.0, 0.0);
        for &(kind, count) in &self.groups {
            let t = self.eval.layer_comm(p, kind, replica_batch);
            intra += comm_passes * stage_share * t.tp_intra * count as f64;
            inter += comm_passes * stage_share * t.tp_inter * count as f64;
        }
        intra + inter
    }

    /// One candidate's communication components (Eq. 6, 7, 9, 10-11) and
    /// `Σ(M_f + M_b)` without the DP sync — the traffic the bubble waits
    /// on.
    fn comm_terms(
        &self,
        cache: &mut EstimateCache,
        p: &Parallelism,
        replica_batch: f64,
    ) -> (Breakdown, f64) {
        let eval = self.eval;
        let (model, system) = (eval.model, eval.system);
        let (intra, inter) = (system.intra(), system.inter());
        let (comm_passes, stage_share) = comm_scaling(eval.options, p);
        let mut out = Breakdown::default();
        let mut bubble_comm = 0.0;
        for &(kind, count) in &self.groups {
            let t = eval.layer_comm(p, kind, replica_batch);
            let n = count as f64;
            let tp_intra = comm_passes * stage_share * t.tp_intra * n;
            out.tp_comm_intra += tp_intra;
            bubble_comm += tp_intra;
            let tp_inter = comm_passes * stage_share * t.tp_inter * n;
            out.tp_comm_inter += tp_inter;
            bubble_comm += tp_inter;
            let moe = comm_passes * stage_share * t.moe * n;
            out.moe_comm += moe;
            bubble_comm += moe;
        }

        // Eq. 7: pipeline communication — one whole-batch stage transfer,
        // the per-layer 1/L folds away when summing over the stack. The
        // pipeline runs at the slower of its intra/inter hops (Eq. 5 max).
        if p.pp() > 1 {
            let act_bits = eval.precision.act_bits as f64;
            let vol_bits =
                replica_batch * model.seq_len() as f64 * model.hidden_size() as f64 * act_bits;
            let t_intra = if p.pp_intra() > 1 {
                intra.latency_s + vol_bits / intra.bandwidth_bits_per_sec
            } else {
                0.0
            };
            let t_inter = if p.pp_inter() > 1 {
                // The stage's tensor-parallel shards leave the node through
                // their NIC shares concurrently.
                inter.latency_s + vol_bits / tp_stream_bandwidth(system, p)
            } else {
                0.0
            };
            out.pp_comm = comm_passes * t_intra.max(t_inter);
            bubble_comm += out.pp_comm;
        }

        // Eq. 10-11: hierarchical gradient all-reduce over the DP groups.
        // Gradients are bucketed into one fused all-reduce per group (as
        // DDP implementations do), so the per-hop latency is paid once and
        // only the volume sums over layers. ZeRO >= stage 2 turns it into a
        // reduce-scatter (half the volume).
        let grad_collective = if p.zero().stage >= ZeroStage::Gradients {
            Collective::ReduceScatter
        } else {
            Collective::AllReduce
        };
        let grad_bits = eval.precision.grad_bits as f64;
        let n_g_total = self.grad_sync_volume(cache, p);
        if p.dp_intra() > 1 {
            let cost = intra.topology.cost(grad_collective, p.dp_intra());
            out.dp_comm_intra = cost.time(
                n_g_total * grad_bits,
                intra.latency_s,
                intra.bandwidth_bits_per_sec,
            );
        }
        if p.dp_inter() > 1 {
            // The intra-node phase reduce-scatters, so each accelerator
            // carries only its 1/DP_intra shard across nodes.
            let cost = inter.topology.cost(grad_collective, p.dp_inter());
            out.dp_comm_inter = cost.time(
                n_g_total / p.dp_intra() as f64 * grad_bits,
                inter.latency_s,
                system.inter_bandwidth_per_accel(),
            );
        }
        (out, bubble_comm)
    }

    /// Eq. 10: one layer's per-accelerator share of the synchronized
    /// gradients under `p`. Expert parallelism (GShard/GLaM) shards expert
    /// weights across the nodes rather than replicating them, so each
    /// accelerator only synchronizes its 1/EP share of the expert
    /// gradients.
    fn grad_share(&self, kind: LayerKind, p: &Parallelism) -> f64 {
        let (model, system) = (self.eval.model, self.eval.system);
        let c = LayerCounts::for_layer(model, kind, 1.0);
        let expert_parallel = model
            .moe()
            .map(|cfg| cfg.num_experts.min(system.num_nodes()).max(1))
            .unwrap_or(1) as f64;
        (c.weights - c.weights_expert + c.weights_expert / expert_parallel)
            / (p.tp() as f64 * p.pp() as f64)
    }

    /// The memoized Eq. 10 per-accelerator gradient-sync volume `N_g` of
    /// `p`'s `(tp, pp)` shard, summed over the layer-kind groups.
    fn grad_sync_volume(&self, cache: &mut EstimateCache, p: &Parallelism) -> f64 {
        if let Some(v) = cache.grad_volume(p.tp(), p.pp()) {
            return v;
        }
        let v: f64 = self
            .groups
            .iter()
            .map(|&(kind, count)| self.grad_share(kind, p) * count as f64)
            .sum();
        cache.set_grad_volume(p.tp(), p.pp(), v);
        v
    }

    /// The memoized stage-imbalance ratio `r = t*/t̄ ≥ 1` of a `pp`-stage
    /// contiguous split of the layer stack, at per-layer forward times
    /// priced with `c_mac` (the efficiency `eff` gives).
    fn stage_imbalance_ratio(
        &self,
        cache: &mut EstimateCache,
        pp: usize,
        eff: f64,
        c_mac: f64,
    ) -> f64 {
        if let Some(r) = cache.imbalance_ratio(pp, eff.to_bits()) {
            return r;
        }
        let model = self.eval.model;
        let stack = model.layer_stack();
        let weights: Vec<f64> = stack
            .iter()
            .map(|&kind| {
                let c = LayerCounts::for_layer(model, kind, 1.0);
                c.macs_fwd * c_mac * self.mac_scale
                    + c.nonlin_fwd * self.c_nonlin * self.nonlin_scale
            })
            .collect();
        let mut max_stage = 0.0f64;
        let total: f64 = weights.iter().sum();
        for stage in even_split(stack.len(), pp) {
            max_stage = max_stage.max(weights[stage].iter().sum());
        }
        let r = if total > 0.0 {
            (max_stage * pp as f64 / total).max(1.0)
        } else {
            1.0
        };
        cache.set_imbalance_ratio(pp, eff.to_bits(), r);
        r
    }

    /// Per-layer rows of `estimate`, the kernel's result for `p`: each
    /// layer's compute and TP/MoE communication from the same per-kind
    /// terms the kernel sums (without the stage-imbalance scaling), and the
    /// fused gradient sync attributed to layers by their share of the
    /// synchronized volume.
    fn layer_rows(
        &self,
        cache: &mut EstimateCache,
        p: &Parallelism,
        estimate: &Estimate,
    ) -> Vec<LayerEstimate> {
        let eval = self.eval;
        let workers = p.total_workers() as f64;
        let c_mac = eval.accel.c_mac(estimate.efficiency);
        let replica_batch = p.replica_batch(self.training.global_batch());
        let (comm_passes, stage_share) = comm_scaling(eval.options, p);
        let n_g_total = self.grad_sync_volume(cache, p);
        let dp_total = estimate.breakdown.dp_comm_intra + estimate.breakdown.dp_comm_inter;
        let per_kind: Vec<LayerEstimate> = self
            .kinds
            .iter()
            .map(|kt| {
                let [u_f, u_b, u_w] = self.layer_compute(kt, c_mac);
                let t = eval.layer_comm(p, kt.kind, replica_batch);
                let n_g = self.grad_share(kt.kind, p);
                LayerEstimate {
                    index: 0,
                    kind: kt.kind,
                    compute_forward: u_f / workers,
                    compute_backward: u_b / workers,
                    weight_update: u_w / workers,
                    tp_comm: comm_passes * stage_share * t.tp_intra
                        + comm_passes * stage_share * t.tp_inter,
                    moe_comm: comm_passes * stage_share * t.moe,
                    dp_comm: if n_g_total > 0.0 {
                        dp_total * n_g / n_g_total
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        eval.model
            .layer_stack()
            .into_iter()
            .enumerate()
            .map(|(index, kind)| {
                let row = per_kind.iter().find(|r| r.kind == kind).expect("every kind is grouped");
                LayerEstimate { index, ..*row }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MoeConfig;
    use crate::network::Link;
    use crate::parallelism::ZeroConfig;
    use crate::Estimator;

    fn accel() -> AcceleratorSpec {
        AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
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

    fn dense_model() -> TransformerModel {
        TransformerModel::builder("batch-m")
            .layers(24)
            .hidden_size(2048)
            .heads(16)
            .seq_len(1024)
            .vocab_size(32000)
            .build()
            .unwrap()
    }

    fn moe_model() -> TransformerModel {
        TransformerModel::builder("batch-moe")
            .layers(12)
            .hidden_size(1024)
            .heads(16)
            .seq_len(512)
            .vocab_size(16000)
            .moe(MoeConfig::glam(8))
            .build()
            .unwrap()
    }

    /// Every valid 6-degree factorization of a 4x8 system, with microbatch
    /// variants interleaved the way the search tuner emits them.
    fn mappings_with_variants(global_batch: usize) -> Vec<Parallelism> {
        let mut out = Vec::new();
        for tp in [1usize, 2, 4, 8] {
            for pp in [1usize, 2, 4] {
                let rest = 32 / (tp * pp);
                let (dp_intra, dp_inter) = if rest >= 4 { (rest / 4, 4) } else { (rest, 1) };
                let Ok(p) = Parallelism::builder()
                    .tp(tp, 1)
                    .pp(pp, 1)
                    .dp(dp_intra, dp_inter)
                    .build()
                else {
                    continue;
                };
                let replica = (global_batch / p.dp()).max(1);
                let mut trial = 1usize;
                while trial <= replica {
                    out.push(
                        p.with_microbatches(MicrobatchPolicy::Explicit(replica.div_ceil(trial))),
                    );
                    trial *= 2;
                }
            }
        }
        out
    }

    fn assert_bit_identical(
        batch: &BatchEvaluator<'_>,
        alone: impl Fn(&Parallelism, &mut EstimateCache) -> Result<Estimate>,
        mappings: &[Parallelism],
        training: &TrainingConfig,
    ) {
        // Cold shared cache for the batch, cold shared cache for the
        // one-candidate loop: both must produce the same estimates AND the
        // same cache behaviour.
        let mut batch_cache = EstimateCache::new();
        let batched = batch.estimate_many(&mut batch_cache, mappings, training);
        let mut alone_cache = EstimateCache::new();
        assert_eq!(batched.len(), mappings.len());
        for (p, b) in mappings.iter().zip(&batched) {
            let s = alone(p, &mut alone_cache);
            match (s, b) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(
                        s.total_time.get().to_bits(),
                        b.total_time.get().to_bits(),
                        "total_time for {p:?}"
                    );
                    assert_eq!(
                        s.time_per_iteration.get().to_bits(),
                        b.time_per_iteration.get().to_bits()
                    );
                    for ((name, x), (_, y)) in
                        s.breakdown.components().iter().zip(b.breakdown.components())
                    {
                        assert_eq!(x.to_bits(), y.to_bits(), "{name} for {p:?}");
                    }
                    assert_eq!(s.num_microbatches, b.num_microbatches);
                    assert_eq!(s.microbatch_size.to_bits(), b.microbatch_size.to_bits());
                    assert_eq!(s.efficiency.to_bits(), b.efficiency.to_bits());
                    assert_eq!(s.tflops_per_gpu.to_bits(), b.tflops_per_gpu.to_bits());
                    assert_eq!(s.tokens_per_sec.to_bits(), b.tokens_per_sec.to_bits());
                    assert_eq!(
                        s.model_flops_per_iteration.to_bits(),
                        b.model_flops_per_iteration.to_bits()
                    );
                    assert_eq!(s.total_workers, b.total_workers);
                }
                (Err(_), Err(_)) => {}
                (s, b) => panic!("outcome mismatch for {p:?}: alone {s:?} vs batch {b:?}"),
            }
        }
        // Warm-cache rerun of the batch stays bit-identical.
        let again = batch.estimate_many(&mut batch_cache, mappings, training);
        for (x, y) in batched.iter().zip(&again) {
            if let (Ok(x), Ok(y)) = (x, y) {
                assert_eq!(x.total_time.get().to_bits(), y.total_time.get().to_bits());
            }
        }
    }

    #[test]
    fn batch_matches_one_at_a_time_bitwise_dense() {
        let m = dense_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9);
        let opts = EngineOptions {
            stage_imbalance_correction: true,
            ..Default::default()
        };
        let training = TrainingConfig::new(512, 10).unwrap();
        let mappings = mappings_with_variants(512);
        assert!(mappings.len() > 20);
        let batch = BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(effm.clone())
            .with_options(opts);
        assert_bit_identical(
            &batch,
            |p, cache| {
                Estimator::new(&m, &a, &sys, p)
                    .with_efficiency(effm.clone())
                    .with_options(opts)
                    .estimate_cached(cache, &training)
            },
            &mappings,
            &training,
        );
    }

    #[test]
    fn batch_matches_one_at_a_time_bitwise_moe_with_zero() {
        let m = moe_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::Constant(0.6);
        let training = TrainingConfig::new(128, 5).unwrap();
        let mut mappings = Vec::new();
        for (tp, dp_intra, dp_inter) in [(8, 1, 4), (4, 2, 4), (2, 4, 4), (1, 8, 4)] {
            mappings.push(
                Parallelism::builder()
                    .tp(tp, 1)
                    .dp(dp_intra, dp_inter)
                    .zero(ZeroConfig::stage(ZeroStage::Gradients, 0.5))
                    .build()
                    .unwrap(),
            );
        }
        let batch = BatchEvaluator::new(&m, &a, &sys).with_efficiency(effm.clone());
        assert_bit_identical(
            &batch,
            |p, cache| {
                Estimator::new(&m, &a, &sys, p)
                    .with_efficiency(effm.clone())
                    .estimate_cached(cache, &training)
            },
            &mappings,
            &training,
        );
    }

    #[test]
    fn batch_fills_the_cache_with_the_one_at_a_time_entries() {
        let m = dense_model();
        let a = accel();
        let sys = system(4, 8);
        let effm = EfficiencyModel::Constant(0.5);
        let training = TrainingConfig::new(512, 10).unwrap();
        let mappings = mappings_with_variants(512);

        // A cache warmed by a batch serves one-candidate calls fully: a
        // pass of batches of one over it adds no new misses.
        let mut cache = EstimateCache::new();
        BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(effm.clone())
            .estimate_many(&mut cache, &mappings, &training);
        let misses = cache.misses();
        for p in &mappings {
            let _ = Estimator::new(&m, &a, &sys, p)
                .with_efficiency(effm.clone())
                .estimate_cached(&mut cache, &training);
        }
        assert_eq!(cache.misses(), misses, "batch path must pre-fill every entry");
    }

    #[test]
    fn invalid_candidates_error_in_place_without_poisoning_the_batch() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(64, 1).unwrap();
        let good = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let bad = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 16
        let mut cache = EstimateCache::new();
        let out = BatchEvaluator::new(&m, &a, &sys).estimate_many(
            &mut cache,
            &[good, bad, good],
            &training,
        );
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(
            out[0].as_ref().unwrap().total_time.get().to_bits(),
            out[2].as_ref().unwrap().total_time.get().to_bits()
        );
        // The per-candidate error matches a batch of one's.
        let alone = Estimator::new(&m, &a, &sys, &bad).estimate(&training);
        assert_eq!(
            format!("{}", out[1].as_ref().unwrap_err()),
            format!("{}", alone.unwrap_err())
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let mut cache = EstimateCache::new();
        let out = BatchEvaluator::new(&m, &a, &sys).estimate_many(
            &mut cache,
            &[],
            &TrainingConfig::new(64, 1).unwrap(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn cache_survives_parallelism_and_batch_changes() {
        // The same cache serves different mappings and batch sizes; keyed
        // sub-results keep the outputs equal to fresh-cache runs.
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(256, 2).unwrap();
        let mut shared = EstimateCache::new();
        for (tp, pp, dp_intra, dp_inter) in [(8, 1, 1, 2), (4, 2, 1, 2), (1, 8, 1, 2), (2, 1, 4, 2)]
        {
            let p = Parallelism::builder()
                .tp(tp, 1)
                .pp(pp, 1)
                .dp(dp_intra, dp_inter)
                .build()
                .unwrap();
            let est = Estimator::new(&m, &a, &sys, &p)
                .with_efficiency(EfficiencyModel::Constant(0.5));
            let from_shared = est.estimate_cached(&mut shared, &training).unwrap();
            let from_fresh = est.estimate(&training).unwrap();
            assert_eq!(
                from_shared.total_time.get().to_bits(),
                from_fresh.total_time.get().to_bits()
            );
        }
        assert!(shared.hits() > 0);
    }

    /// The kernel's lower bound for the single variant `p`.
    fn lower_bound(
        batch: &BatchEvaluator<'_>,
        cache: &mut EstimateCache,
        p: &Parallelism,
        training: &TrainingConfig,
    ) -> Result<f64> {
        batch.prepare(cache, training)?.lower_bound([*p])
    }

    #[test]
    fn lower_bound_never_exceeds_the_estimate() {
        let m = moe_model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(256, 7).unwrap();
        let batch = BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.95, 4.0, 0.25, 0.95))
            .with_options(EngineOptions {
                stage_imbalance_correction: true,
                ..Default::default()
            });
        for p in [
            Parallelism::builder().tp(8, 1).dp(1, 4).build().unwrap(),
            Parallelism::builder().tp(2, 1).pp(4, 2).dp(1, 2).build().unwrap(),
            Parallelism::builder().pp(8, 1).dp(1, 4).build().unwrap(),
        ] {
            let mut cache = EstimateCache::new();
            let lb = lower_bound(&batch, &mut cache, &p, &training).unwrap();
            let full = batch.estimate_many(&mut cache, &[p], &training).remove(0).unwrap();
            assert!(
                lb <= full.total_time.get(),
                "lb {lb} > total {} for {p:?}",
                full.total_time.get()
            );
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn lower_bound_tp_floor_matches_estimate_terms_bitwise() {
        // With pp = 1 the imbalance correction is off, so the bound's
        // compute terms match the estimate's bitwise — and the TP floor
        // repeats the estimate's own accumulation, so the whole bound is
        // reconstructable from the breakdown, exactly.
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(256, 7).unwrap();
        let p = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
        let batch =
            BatchEvaluator::new(&m, &a, &sys).with_efficiency(EfficiencyModel::Constant(0.5));
        let mut cache = EstimateCache::new();
        let lb = lower_bound(&batch, &mut cache, &p, &training).unwrap();
        let full = batch.estimate_many(&mut cache, &[p], &training).remove(0).unwrap();
        let b = &full.breakdown;
        let expect = (b.compute_total() + (b.tp_comm_intra + b.tp_comm_inter)) * 7.0;
        assert_eq!(lb.to_bits(), expect.to_bits());
        // The floor genuinely tightens a compute-only bound.
        assert!(b.tp_comm_intra > 0.0);
        assert!(lb > b.compute_total() * 7.0);
        assert!(lb <= full.total_time.get());
    }

    #[test]
    fn lower_bound_over_a_ladder_is_the_minimum_of_its_rungs() {
        let m = dense_model();
        let a = accel();
        let sys = system(2, 8);
        let training = TrainingConfig::new(256, 3).unwrap();
        let batch = BatchEvaluator::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9));
        let p = Parallelism::builder().tp(4, 1).pp(2, 2).build().unwrap();
        let ladder: Vec<Parallelism> = [1usize, 2, 4, 8]
            .iter()
            .map(|&m| p.with_microbatches(MicrobatchPolicy::Explicit(m)))
            .collect();
        let mut cache = EstimateCache::new();
        let kernel = batch.prepare(&mut cache, &training).unwrap();
        let together = kernel.lower_bound(ladder.iter().copied()).unwrap();
        let alone = ladder
            .iter()
            .map(|v| lower_bound(&batch, &mut EstimateCache::new(), v, &training).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(together.to_bits(), alone.to_bits());
        assert_eq!(kernel.lower_bound([]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn lower_bound_equals_the_estimate_when_nothing_is_dropped() {
        // Single worker: no comms, no bubble, imbalance off — the bound is
        // the whole answer.
        let m = dense_model();
        let a = accel();
        let sys = system(1, 1);
        let p = Parallelism::single();
        let training = TrainingConfig::new(32, 4).unwrap();
        let batch =
            BatchEvaluator::new(&m, &a, &sys).with_efficiency(EfficiencyModel::Constant(0.5));
        let mut cache = EstimateCache::new();
        let lb = lower_bound(&batch, &mut cache, &p, &training).unwrap();
        let full = batch.estimate_many(&mut cache, &[p], &training).remove(0).unwrap();
        assert_eq!(lb.to_bits(), full.total_time.get().to_bits());
    }

    #[test]
    fn lower_bound_rejects_invalid_mappings() {
        let m = dense_model();
        let a = accel();
        let sys = system(1, 8);
        let p = Parallelism::builder().tp(4, 1).build().unwrap(); // 4 != 8
        let batch = BatchEvaluator::new(&m, &a, &sys);
        let training = TrainingConfig::new(8, 1).unwrap();
        assert!(lower_bound(&batch, &mut EstimateCache::new(), &p, &training).is_err());
    }
}

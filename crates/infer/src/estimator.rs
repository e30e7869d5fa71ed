//! The prefill/decode roofline estimator.
//!
//! # Model
//!
//! A request with prompt `s_p`, `d` generated tokens, batch `B` on a
//! mapping `(TP, PP, DP)`:
//!
//! * **Prefill** runs the prompt through every layer once. Per layer and
//!   sequence the MACs are `s_p·h²·(4 + 2f) + 2·s_p²·h` (QKV/out/MLP
//!   GEMMs plus the attention score and context products). The phase is
//!   priced at `peak · prefill_efficiency`, with a bandwidth floor of one
//!   weight-shard read plus the prompt's KV-cache write per stage.
//! * **Decode** emits one token per step. Per layer, token and sequence
//!   the MACs are `h²·(4 + 2f) + 2·c·h` at context `c`, plus the `h·V`
//!   head. Every step re-reads the weight shard and the KV cache — the
//!   bandwidth floor that makes decode memory-bound at small batch.
//! * **Communication**: two Megatron all-reduces per layer over the TP
//!   group (`2·tokens·h` elements, the training model's `N_act,TP`) and
//!   one boundary transfer per pipeline hop. A single request crosses
//!   all `PP` stages sequentially, so per-layer costs sum over the full
//!   stack — no steady-state `1/N_PP` share as in training (the
//!   pipeline is not kept full by microbatches).
//!
//! `TTFT = prefill + decode_step(s_p)` (the first sampled token),
//! `TPOT = decode_step(c̄)` at the mean decode context
//! `c̄ = s_p + (d−1)/2`, and `latency = prefill + d·TPOT`.
//!
//! Mixture-of-experts stacks are priced as their dense-FFN equivalent
//! (the router's all-to-all is not yet modeled for serving).

use amped_core::{Result, Scenario, Seconds};
use amped_memory::KvCacheModel;
use amped_topo::Collective;

use crate::estimate::{InferEstimate, PhaseBreakdown};
use crate::InferenceConfig;

/// Prices inference requests on one scenario.
#[derive(Debug, Clone)]
pub struct InferEstimator<'a> {
    scenario: &'a Scenario,
}

/// The per-layer GEMM MACs of one token at hidden size `h` and FFN
/// multiplier `f`: QKV (`3h²`), attention output (`h²`) and the two MLP
/// GEMMs (`2f·h²`).
fn gemm_macs_per_token(h: f64, f: f64) -> f64 {
    h * h * (4.0 + 2.0 * f)
}

impl<'a> InferEstimator<'a> {
    /// An estimator over `scenario`'s model, accelerator, system and
    /// parallelism mapping.
    pub fn new(scenario: &'a Scenario) -> Self {
        InferEstimator { scenario }
    }

    /// Price `config` on this scenario.
    ///
    /// # Errors
    ///
    /// [`Error::Incompatible`](amped_core::Error) when the scenario's
    /// parallelism does not tile its system or model.
    pub fn estimate(&self, config: &InferenceConfig) -> Result<InferEstimate> {
        self.estimate_with(config, &self.kv_model(config))
    }

    /// [`InferEstimator::estimate`] against a KV model built once by the
    /// caller — a serving search builds one per mapping and prices every
    /// batch of its ladder against it. `kv` must describe this scenario's
    /// model and mapping at `config`'s KV width (what
    /// [`InferEstimator::kv_model`] returns for any batch).
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferEstimator::estimate`].
    pub fn estimate_with(
        &self,
        config: &InferenceConfig,
        kv: &KvCacheModel<'_>,
    ) -> Result<InferEstimate> {
        let s = self.scenario;
        s.parallelism.validate_against(&s.system, &s.model)?;
        let footprint = kv.footprint(config.batch(), config.max_context());
        let capacity = s.accelerator.memory_bytes();

        let prefill = self.prefill_phase(config, kv);
        let first_step = self.decode_phase(config, kv, config.prompt_tokens() as f64);
        let decode = self.decode_phase(config, kv, config.mean_decode_context());

        let ttft = prefill.total.get() + first_step.total.get();
        let tpot = decode.total.get();
        let request_latency = prefill.total.get() + config.decode_tokens() as f64 * tpot;
        let replicas = s.parallelism.dp();
        let tokens_per_sec = replicas as f64 * config.batch() as f64 / tpot;

        Ok(InferEstimate {
            ttft: Seconds::new(ttft),
            tpot: Seconds::new(tpot),
            request_latency: Seconds::new(request_latency),
            tokens_per_sec,
            prefill,
            decode,
            kv_cache_bytes: footprint.kv_cache,
            weight_bytes: footprint.weights,
            fits_memory: footprint.total() <= capacity,
            batch: config.batch(),
            replicas,
            workers: s.parallelism.total_workers(),
        })
    }

    /// This scenario's KV-cache model under `config`'s cache precision.
    pub fn kv_model(&self, config: &InferenceConfig) -> KvCacheModel<'_> {
        KvCacheModel::new(&self.scenario.model, &self.scenario.parallelism)
            .with_precision(self.scenario.precision)
            .with_kv_bits(config.kv_bits())
    }

    /// The prefill phase: one batched forward pass over the prompt.
    fn prefill_phase(&self, config: &InferenceConfig, kv: &KvCacheModel<'_>) -> PhaseBreakdown {
        let s = self.scenario;
        let model = &s.model;
        let (h, f) = (model.hidden_size() as f64, model.ffn_mult());
        let layers = model.num_layers() as f64;
        let tp = s.parallelism.tp() as f64;
        let pp = s.parallelism.pp() as f64;
        let batch = config.batch() as f64;
        let prompt = config.prompt_tokens() as f64;

        // Per-sequence MACs across the stack; the score/context products
        // attend over the full prompt (2·s_p²·h per layer).
        let macs =
            batch * layers * (prompt * gemm_macs_per_token(h, f) + 2.0 * prompt * prompt * h) / tp;
        let eff = amped_core::roofline::prefill_efficiency(
            model,
            &s.accelerator,
            s.precision,
            batch,
            prompt,
        );
        let peak = s
            .accelerator
            .peak_flops_per_sec(s.precision.mac_operand_bits());
        let compute = 2.0 * macs / (peak * eff);

        // Bandwidth floor: each stage streams its weight shard once and
        // writes the prompt's KV entries; stages run sequentially.
        let bw = s.accelerator.memory_bandwidth_bytes_per_sec();
        let kv_write = batch * prompt * kv.kv_bytes_per_token();
        let memory = pp * (kv.weights_per_device() + kv_write) / bw;

        let tokens = batch * prompt;
        let comm = self.tp_comm(tokens, layers) + self.pp_comm(tokens);
        PhaseBreakdown::from_floors(compute, memory, comm)
    }

    /// One decode step: a single token per sequence at context `context`.
    fn decode_phase(
        &self,
        config: &InferenceConfig,
        kv: &KvCacheModel<'_>,
        context: f64,
    ) -> PhaseBreakdown {
        let s = self.scenario;
        let model = &s.model;
        let (h, f) = (model.hidden_size() as f64, model.ffn_mult());
        let layers = model.num_layers() as f64;
        let tp = s.parallelism.tp() as f64;
        let pp = s.parallelism.pp() as f64;
        let batch = config.batch() as f64;

        // GEMV floor: the step's MACs at peak. Decode GEMVs do not reach
        // peak in practice, but the bandwidth floor below is what binds in
        // that regime — the max() picks the governing constraint, so the
        // step can never be priced faster than the pure-bandwidth bound.
        let head = if model.include_head() {
            h * model.vocab_size() as f64
        } else {
            0.0
        };
        let macs = batch
            * (layers * (gemm_macs_per_token(h, f) + 2.0 * context * h) + head)
            / tp;
        let peak = s
            .accelerator
            .peak_flops_per_sec(s.precision.mac_operand_bits());
        let compute = 2.0 * macs / peak;

        // Bandwidth floor: every step re-reads the weight shard and each
        // sequence's cached context, and writes one new KV entry.
        let bw = s.accelerator.memory_bandwidth_bytes_per_sec();
        let kv_traffic = batch * (context + 1.0) * kv.kv_bytes_per_token();
        let memory = pp * (kv.weights_per_device() + kv_traffic) / bw;

        let comm = self.tp_comm(batch, layers) + self.pp_comm(batch);
        PhaseBreakdown::from_floors(compute, memory, comm)
    }

    /// Forward tensor-parallel all-reduces for `tokens` tokens across
    /// `layers` layers: the training model's Eq. 6 volumes (`2·t·h`
    /// elements per layer, hierarchical intra/inter split, NIC-aggregate
    /// bandwidth for the inter stream) summed over the full stack.
    fn tp_comm(&self, tokens: f64, layers: f64) -> f64 {
        let s = self.scenario;
        let p = &s.parallelism;
        if p.tp() <= 1 {
            return 0.0;
        }
        let elems = 2.0 * tokens * s.model.hidden_size() as f64;
        let act_bits = s.precision.act_bits as f64;
        let intra = s.system.intra();
        let inter = s.system.inter();
        let mut t = 0.0;
        if p.tp_intra() > 1 {
            let cost = intra.topology.cost(Collective::AllReduce, p.tp_intra());
            t += cost.time(elems * act_bits, intra.latency_s, intra.bandwidth_bits_per_sec);
        }
        if p.tp_inter() > 1 {
            let cost = inter.topology.cost(Collective::AllReduce, p.tp_inter());
            t += cost.time(elems * act_bits, inter.latency_s, self.inter_bw_tp_stream());
        }
        layers * t
    }

    /// Pipeline-boundary transfers for `tokens` tokens: `PP − 1` hops at
    /// the slower of the intra/inter link (the training model's Eq. 5
    /// max), each moving the `t·h` activation slab.
    fn pp_comm(&self, tokens: f64) -> f64 {
        let s = self.scenario;
        let p = &s.parallelism;
        if p.pp() <= 1 {
            return 0.0;
        }
        let vol_bits = tokens * s.model.hidden_size() as f64 * s.precision.act_bits as f64;
        let intra = s.system.intra();
        let inter = s.system.inter();
        let t_intra = if p.pp_intra() > 1 {
            intra.latency_s + vol_bits / intra.bandwidth_bits_per_sec
        } else {
            0.0
        };
        let t_inter = if p.pp_inter() > 1 {
            inter.latency_s + vol_bits / self.inter_bw_tp_stream()
        } else {
            0.0
        };
        (p.pp() - 1) as f64 * t_intra.max(t_inter)
    }

    /// Effective inter-node bandwidth of one tensor-parallel stream: the
    /// node's TP shards drive its NICs in parallel, capped at the NIC
    /// aggregate (the training estimator's hierarchical-collective rule).
    fn inter_bw_tp_stream(&self) -> f64 {
        let s = self.scenario;
        let nic_aggregate =
            s.system.inter().bandwidth_bits_per_sec * s.system.nics_per_node() as f64;
        (s.system.inter_bandwidth_per_accel() * s.parallelism.tp_intra() as f64).min(nic_aggregate)
    }
}

/// A cheap lower bound on [`InferEstimate::request_latency`]: compute
/// floors at full peak (efficiency 1), the exact bandwidth floors, no
/// communication. Exact in f64 against [`InferEstimator::estimate`]'s
/// own floors, so a serving search can prune with it and never drop a
/// candidate that would have ranked.
pub fn latency_lower_bound(scenario: &Scenario, config: &InferenceConfig) -> Result<f64> {
    let est = InferEstimator::new(scenario);
    latency_lower_bound_with(scenario, config, &est.kv_model(config))
}

/// [`latency_lower_bound`] against a KV model built once by the caller,
/// under the contract of [`InferEstimator::estimate_with`].
///
/// # Errors
///
/// Same conditions as [`latency_lower_bound`].
pub fn latency_lower_bound_with(
    scenario: &Scenario,
    config: &InferenceConfig,
    kv: &KvCacheModel<'_>,
) -> Result<f64> {
    let model = &scenario.model;
    let (h, f) = (model.hidden_size() as f64, model.ffn_mult());
    let layers = model.num_layers() as f64;
    let tp = scenario.parallelism.tp() as f64;
    let pp = scenario.parallelism.pp() as f64;
    let batch = config.batch() as f64;
    let prompt = config.prompt_tokens() as f64;
    let peak = scenario
        .accelerator
        .peak_flops_per_sec(scenario.precision.mac_operand_bits());
    let bw = scenario.accelerator.memory_bandwidth_bytes_per_sec();
    scenario
        .parallelism
        .validate_against(&scenario.system, &scenario.model)?;

    let prefill_macs =
        batch * layers * (prompt * gemm_macs_per_token(h, f) + 2.0 * prompt * prompt * h) / tp;
    let prefill_mem = pp
        * (kv.weights_per_device() + batch * prompt * kv.kv_bytes_per_token())
        / bw;
    let prefill = (2.0 * prefill_macs / peak).max(prefill_mem);

    let context = config.mean_decode_context();
    let head = if model.include_head() {
        h * model.vocab_size() as f64
    } else {
        0.0
    };
    let step_macs = batch * (layers * (gemm_macs_per_token(h, f) + 2.0 * context * h) + head) / tp;
    let step_mem = pp
        * (kv.weights_per_device() + batch * (context + 1.0) * kv.kv_bytes_per_token())
        / bw;
    let step = (2.0 * step_macs / peak).max(step_mem);

    Ok(prefill + config.decode_tokens() as f64 * step)
}

//! Serving-mapping search: sweep `TP × PP × DP × batch`, rank by request
//! latency, and expose the latency/throughput/memory Pareto frontier.
//!
//! Serving inverts the training search's economics. Training wants one
//! number (iteration time) minimized; serving trades **time to first
//! token** and **time per output token** against **aggregate tokens/s**
//! and **KV-cache headroom** — bigger batches amortize the decode
//! weight-stream over more sequences (throughput up) while lengthening
//! every step (latency up) and growing the cache (headroom down). So the
//! sweep keeps every `(mapping, batch)` point as its own candidate and
//! ranks by latency, and [`serving_pareto_front`] extracts the
//! non-dominated frontier over `(ttft, tpot, tokens/s, memory)`.
//!
//! The search runs on the same branch-and-bound executor as the training
//! search. The lower bound
//! ([`latency_lower_bound`](amped_infer::latency_lower_bound)) is exact
//! in f64 against the estimator's own floors and is computed for *every*
//! feasible point, and the kept set is always post-filtered to
//! `lower_bound <= best_latency` — so rankings and stats are
//! bit-identical with pruning on or off (pruning only skips work the
//! filter would discard anyway).

use std::sync::Arc;

use amped_core::{
    AcceleratorSpec, Parallelism, Precision, Result, Scenario, SystemSpec, TransformerModel,
};
use amped_infer::{latency_lower_bound_with, InferEstimate, InferEstimator, InferenceConfig};
use amped_memory::{KvCacheModel, KvCapacityFailure};
use amped_obs::Observer;
use serde::{Deserialize, Serialize};

use crate::executor::{self, Screened, Space};
use crate::{factor_triples, parallelism_key};

/// Constraints on the serving sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingSweepOptions {
    /// Permit tensor parallelism across nodes (usually dominated by the
    /// inter-node all-reduce latency on every decode step).
    pub allow_tp_inter: bool,
    /// Cap on the total tensor-parallel degree (None = head count).
    pub max_tp: Option<usize>,
    /// Cap on the total pipeline-parallel degree (None = layer count).
    pub max_pp: Option<usize>,
    /// Upper bound of the power-of-two batch ladder swept per mapping.
    pub max_batch: usize,
}

impl Default for ServingSweepOptions {
    fn default() -> Self {
        ServingSweepOptions {
            allow_tp_inter: false,
            max_tp: None,
            max_pp: None,
            max_batch: 64,
        }
    }
}

/// One evaluated `(mapping, batch)` serving point.
#[derive(Debug, Clone)]
pub struct ServingCandidate {
    /// The mapping (its DP degree is the replica count).
    pub parallelism: Parallelism,
    /// Concurrent sequences per replica at this point.
    pub batch: usize,
    /// The priced request.
    pub estimate: InferEstimate,
    /// Whether weights + KV cache fit device memory at the request's
    /// maximum context.
    pub fits_memory: bool,
}

impl ServingCandidate {
    /// The latency this candidate is ranked by.
    pub fn objective_time(&self) -> f64 {
        self.estimate.request_latency.get()
    }
}

/// Ranking order: fastest request first, ties broken by the parallelism
/// degrees and then the batch — a total order (no two sweep points share
/// all seven values), so rankings do not depend on evaluation order.
fn serving_order(a: &ServingCandidate, b: &ServingCandidate) -> std::cmp::Ordering {
    a.objective_time()
        .total_cmp(&b.objective_time())
        .then_with(|| parallelism_key(&a.parallelism).cmp(&parallelism_key(&b.parallelism)))
        .then_with(|| a.batch.cmp(&b.batch))
}

/// Memory rejections of one serving pass, by failing capacity term.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingRejections {
    /// The weight shard alone exceeds device memory.
    pub weights: u64,
    /// Weights fit but the KV cache at the maximum context does not.
    pub kv_cache: u64,
}

impl ServingRejections {
    /// Total points rejected by the memory filter.
    pub fn total(&self) -> u64 {
        self.weights + self.kv_cache
    }

    fn record(&mut self, failure: KvCapacityFailure) {
        match failure {
            KvCapacityFailure::Weights => self.weights += 1,
            KvCapacityFailure::KvCache => self.kv_cache += 1,
        }
    }
}

/// Accounting of one serving pass. `generated = pruned + kept +
/// memory_rejected.total()` holds exactly, and every field is
/// deterministic: the memory filter runs before the runtime prune (a
/// point's feasibility never depends on the incumbent) and the
/// `lower_bound <= best` post-filter normalizes the kept set, so the
/// whole struct is bit-identical with pruning on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingSearchStats {
    /// `(mapping, batch)` points enumerated.
    pub generated: u64,
    /// Points skipped by branch-and-bound pruning at runtime, plus points
    /// discarded by the deterministic `lower_bound <= best` post-filter.
    pub pruned: u64,
    /// Points in the returned ranking.
    pub kept: u64,
    /// Points rejected by the memory filter, by failing capacity term.
    pub memory_rejected: ServingRejections,
}

/// Evaluates and ranks every way of serving a model on a system.
#[derive(Debug, Clone)]
pub struct ServingSearch<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    precision: Precision,
    sweep: ServingSweepOptions,
    require_memory_fit: bool,
    prune: bool,
    observer: Option<Arc<Observer>>,
}

impl<'a> ServingSearch<'a> {
    /// A serving search over `model` × `system` with `accel` devices.
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
    ) -> Self {
        ServingSearch {
            model,
            accel,
            system,
            precision: Precision::default(),
            sweep: ServingSweepOptions::default(),
            require_memory_fit: true,
            prune: false,
            observer: None,
        }
    }

    /// Override the weight/activation precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the sweep constraints.
    pub fn with_sweep(mut self, sweep: ServingSweepOptions) -> Self {
        self.sweep = sweep;
        self
    }

    /// Keep points whose KV footprint overflows device memory (default:
    /// drop them — an overflowing cache is not a servable point).
    pub fn with_memory_filter(mut self, require_fit: bool) -> Self {
        self.require_memory_fit = require_fit;
        self
    }

    /// Enable branch-and-bound pruning: points are evaluated in order of
    /// their latency lower bound, and the search stops at the first bound
    /// above the incumbent best. Because every
    /// point's bound is computed anyway and the kept set is always
    /// post-filtered to `lower_bound <= best`, pruning changes *runtime
    /// only* — the ranking is bit-identical with it on or off.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Attach an observer recording phases
    /// (`infer.search.{enumerate,explore,rank}`) and candidate counters
    /// (`infer.search.candidates.{generated,pruned,kept,memory_rejected}`).
    /// Passive: rankings are bit-identical with or without it.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Every valid mapping of the sweep, in enumeration order.
    fn mappings(&self) -> Vec<Parallelism> {
        let max_tp = self.sweep.max_tp.unwrap_or(self.model.num_heads());
        let max_pp = self.sweep.max_pp.unwrap_or(self.model.num_layers());
        let mut out = Vec::new();
        for (tp_i, pp_i, dp_i) in factor_triples(self.system.accels_per_node()) {
            for (tp_x, pp_x, dp_x) in factor_triples(self.system.num_nodes()) {
                if !self.sweep.allow_tp_inter && tp_x > 1 {
                    continue;
                }
                if tp_i * tp_x > max_tp || pp_i * pp_x > max_pp {
                    continue;
                }
                let built = Parallelism::builder()
                    .tp(tp_i, tp_x)
                    .pp(pp_i, pp_x)
                    .dp(dp_i, dp_x)
                    .build();
                let Ok(p) = built else { continue };
                if p.validate_against(self.system, self.model).is_ok() {
                    out.push(p);
                }
            }
        }
        out
    }

    /// The power-of-two batch ladder swept per mapping.
    fn batches(&self) -> Vec<usize> {
        std::iter::successors(Some(1usize), |b| b.checked_mul(2))
            .take_while(|&b| b <= self.sweep.max_batch.max(1))
            .collect()
    }

    /// Rank every sweep point for `request`, fastest request first.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (an internal inconsistency — sweep
    /// points have already been validated).
    pub fn search(
        &self,
        request: &amped_infer::InferenceConfig,
    ) -> Result<Vec<ServingCandidate>> {
        Ok(self.search_with_stats(request)?.0)
    }

    /// [`ServingSearch::search`], additionally returning the pass's
    /// accounting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServingSearch::search`].
    pub fn search_with_stats(
        &self,
        request: &amped_infer::InferenceConfig,
    ) -> Result<(Vec<ServingCandidate>, ServingSearchStats)> {
        let (mappings, batches) = {
            let _phase = self
                .observer
                .as_ref()
                .map(|o| o.phase("infer.search.enumerate"));
            (self.mappings(), self.batches())
        };
        let generated = mappings.len() * batches.len();
        let explored = {
            let _phase = self
                .observer
                .as_ref()
                .map(|o| o.phase("infer.search.explore"));
            let configs = batches
                .iter()
                .map(|&b| request.with_batch(b))
                .collect::<Result<Vec<_>>>()?;
            let kv_models = mappings
                .iter()
                .map(|p| {
                    KvCacheModel::new(self.model, p)
                        .with_precision(self.precision)
                        .with_kv_bits(request.kv_bits())
                })
                .collect();
            let mut space = ServingSpace {
                search: self,
                mappings: &mappings,
                configs,
                kv_models,
                scenario: Scenario::new(
                    self.model.clone(),
                    self.accel.clone(),
                    self.system.clone(),
                    Parallelism::default(),
                )
                .with_precision(self.precision),
            };
            executor::explore(&mut space, generated, self.prune)?
        };
        let _rank = self.observer.as_ref().map(|o| o.phase("infer.search.rank"));
        let mut stats = ServingSearchStats {
            generated: generated as u64,
            kept: explored.kept.len() as u64,
            ..ServingSearchStats::default()
        };
        for &failure in &explored.rejected {
            stats.memory_rejected.record(failure);
        }
        // Runtime-skipped points plus the points the post-filter dropped:
        // the same count with pruning on or off.
        stats.pruned = stats.generated - stats.kept - stats.memory_rejected.total();
        if let Some(obs) = &self.observer {
            obs.add("infer.search.candidates.generated", stats.generated);
            obs.add("infer.search.candidates.pruned", stats.pruned);
            obs.add(
                "infer.search.candidates.memory_rejected",
                stats.memory_rejected.total(),
            );
            obs.add("infer.search.candidates.kept", stats.kept);
        }
        let mut out: Vec<ServingCandidate> = explored.kept.into_iter().map(|(_, c)| c).collect();
        out.sort_by(serving_order);
        Ok((out, stats))
    }
}

/// The serving search as an executor [`Space`]: every `(mapping, batch)`
/// point, mapping-major. The scenario and each mapping's KV model are
/// built once, not per point.
struct ServingSpace<'s, 'a> {
    search: &'s ServingSearch<'a>,
    mappings: &'s [Parallelism],
    /// The request at each batch of the ladder.
    configs: Vec<InferenceConfig>,
    /// One KV model per mapping, at the request's cache width.
    kv_models: Vec<KvCacheModel<'s>>,
    /// The search's scenario, re-pointed at each point's mapping.
    scenario: Scenario,
}

impl ServingSpace<'_, '_> {
    /// Point `index`'s mapping and batch indices, with the scenario set
    /// to its mapping.
    fn locate(&mut self, index: usize) -> (usize, usize) {
        let n = self.configs.len();
        let (m, b) = (index / n, index % n);
        self.scenario.parallelism = self.mappings[m];
        (m, b)
    }
}

impl Space for ServingSpace<'_, '_> {
    type Candidate = ServingCandidate;
    type Rejection = KvCapacityFailure;

    fn screen(&mut self, index: usize) -> Result<Screened<KvCapacityFailure>> {
        let (m, b) = self.locate(index);
        let (config, kv) = (&self.configs[b], &self.kv_models[m]);
        // Memory feasibility is a per-point fact, independent of the
        // incumbent. The footprint is closed-form, so this costs no
        // roofline evaluation.
        if self.search.require_memory_fit {
            let footprint = kv.footprint(config.batch(), config.max_context());
            let capacity = self.search.accel.memory_bytes();
            if footprint.total() > capacity {
                return Ok(Screened::Rejected(footprint.capacity_failure(capacity)));
            }
        }
        // The bound feeds the deterministic post-filter, so it is computed
        // for every point whether or not runtime pruning is on.
        Ok(Screened::Bounded(latency_lower_bound_with(
            &self.scenario,
            config,
            kv,
        )?))
    }

    fn evaluate(&mut self, index: usize) -> Result<ServingCandidate> {
        let (m, b) = self.locate(index);
        let config = &self.configs[b];
        let estimate =
            InferEstimator::new(&self.scenario).estimate_with(config, &self.kv_models[m])?;
        Ok(ServingCandidate {
            parallelism: self.mappings[m],
            batch: config.batch(),
            fits_memory: estimate.fits_memory,
            estimate,
        })
    }

    fn objective(candidate: &ServingCandidate) -> f64 {
        candidate.objective_time()
    }
}

/// The non-dominated serving candidates under
/// `(ttft, tpot, −tokens/s, memory)`: a point survives unless another
/// point is at least as good on all four axes and strictly better on
/// one. Input order (the latency ranking) is preserved.
pub fn serving_pareto_front(candidates: &[ServingCandidate]) -> Vec<&ServingCandidate> {
    let key = |c: &ServingCandidate| {
        [
            c.estimate.ttft.get(),
            c.estimate.tpot.get(),
            -c.estimate.tokens_per_sec,
            c.estimate.memory_total(),
        ]
    };
    let dominates = |a: &[f64; 4], b: &[f64; 4]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let keys: Vec<[f64; 4]> = candidates.iter().map(key).collect();
    candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| !keys.iter().enumerate().any(|(j, k)| j != *i && dominates(k, &keys[*i])))
        .map(|(_, c)| c)
        .collect()
}

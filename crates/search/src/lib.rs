//! # amped-search — parallelism design-space exploration
//!
//! The AMPeD case studies are exhaustive sweeps over every way of mapping
//! tensor, pipeline and data parallelism onto the intra- and inter-node
//! levels of a cluster. This crate is the engine that drives them:
//!
//! * [`enumerate_mappings`] lists every valid
//!   `(TPintra·PPintra·DPintra) × (TPinter·PPinter·DPinter)` factorization of
//!   a system's node shape;
//! * [`SearchEngine`] evaluates each candidate with the analytical model,
//!   filters by memory feasibility, attaches energy, and ranks;
//! * [`pareto_front`] extracts the non-dominated candidates under
//!   (time, energy, memory);
//! * [`GoodputOptions`] switches the objective to *expected* time under
//!   failures (the checkpoint/restart renewal model of
//!   [`ResilienceParams`](amped_core::ResilienceParams)), and a fault plan
//!   can be threaded into simulator refinement
//!   ([`SearchEngine::with_fault_plan`]).
//!
//! # Search performance
//!
//! Three cooperating optimisations keep large sweeps fast, all with
//! deterministic output (see DESIGN.md, "Search architecture"):
//!
//! * **One executor on the caller's thread** — both searches walk their
//!   candidates through one branch-and-bound executor: filter by memory
//!   and bound in enumeration order, sort the survivors by bound, then
//!   evaluate best-first. No threads are spawned and nothing outlives the
//!   call; rankings are sorted by a total key (time, then parallelism
//!   degrees).
//! * **Batched, memoized pricing** — the training search hoists the
//!   candidate-invariant terms once per pass
//!   ([`BatchEvaluator::prepare`](amped_core::BatchEvaluator::prepare))
//!   and folds each mapping's microbatch variants in one kernel call
//!   ([`Prepared::best_rung`](amped_core::engine::Prepared::best_rung))
//!   against one [`EstimateCache`](amped_core::EstimateCache), and a
//!   closed-form memory solve drops microbatch variants that cannot win.
//! * **Branch-and-bound pruning** — a compute-only lower bound lets the
//!   search stop before candidates that cannot beat the best time found
//!   so far ([`SearchEngine::with_pruning`]); the bound is exact in f64,
//!   so pruning never drops a candidate that would have ranked.
//!
//! # Example
//!
//! ```
//! use amped_core::{AcceleratorSpec, Link, SystemSpec, TransformerModel};
//! use amped_search::{enumerate_mappings, EnumerationOptions};
//!
//! # fn main() -> Result<(), amped_core::Error> {
//! let sys = SystemSpec::new(4, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
//! let model = TransformerModel::builder("m")
//!     .layers(32).hidden_size(4096).heads(32).seq_len(2048).vocab_size(51200)
//!     .build()?;
//! let mappings = enumerate_mappings(&sys, &model, &EnumerationOptions::default());
//! assert!(!mappings.is_empty());
//! for p in &mappings {
//!     assert_eq!(p.total_workers(), 32);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod placement;
pub mod recommend;
pub mod serving;
pub mod sweep;

pub use placement::{placement_for, PlacementChoice};
pub use recommend::Recommendation;
pub use serving::{
    serving_pareto_front, ServingCandidate, ServingRejections, ServingSearch, ServingSearchStats,
    ServingSweepOptions,
};
pub use sweep::{Sweep, SweepCell, SweepPoint, SweepRow};

use std::sync::Arc;

use amped_core::{
    engine::{BestRung, Prepared},
    AcceleratorSpec, BatchEvaluator, CacheLease, CachePool, CorrelatedResilience, CostBackend,
    EfficiencyModel, ElasticParams, EngineOptions, Estimate, EstimateCache, FailureDomainTree,
    MicrobatchPolicy, Parallelism, Precision, ResilienceParams, ResilienceReport, Result, Scenario,
    SystemSpec, TrainingConfig, TransformerModel, ZeroConfig,
};
use amped_energy::{EnergyEstimate, PowerModel};
use amped_memory::{MemoryFootprint, MemoryModel, MicrobatchFit, OptimizerSpec, PipelineSchedule};

pub use amped_memory::CapacityFailure;
use amped_obs::Observer;
use amped_sim::{FaultPlan, SimBackend};
use executor::{Explored, Screened, Space};
use serde::{Deserialize, Serialize};

/// Constraints on the enumeration of parallelism mappings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnumerationOptions {
    /// Permit tensor parallelism across nodes (the paper explores it; it is
    /// usually dominated, so sweeps can prune it).
    pub allow_tp_inter: bool,
    /// Cap on the total tensor-parallel degree (None = head count).
    pub max_tp: Option<usize>,
    /// Cap on the total pipeline-parallel degree (None = layer count).
    pub max_pp: Option<usize>,
    /// Microbatch policy stamped onto every candidate.
    pub microbatch_policy: MicrobatchPolicy,
    /// Bubble ratio `R` stamped onto every candidate.
    pub bubble_ratio: f64,
    /// ZeRO configuration stamped onto every candidate.
    pub zero: ZeroConfig,
}

impl Default for EnumerationOptions {
    /// Defaults to 8-sample microbatches — the practical regime for large
    /// models (whole-replica microbatches blow up activation memory and
    /// `N_ub = N_PP` maximizes the bubble).
    fn default() -> Self {
        EnumerationOptions {
            allow_tp_inter: true,
            max_tp: None,
            max_pp: None,
            microbatch_policy: MicrobatchPolicy::TargetMicrobatch(8),
            bubble_ratio: 1.0,
            zero: ZeroConfig::none(),
        }
    }
}

/// All ordered triples `(a, b, c)` with `a·b·c = n`.
pub fn factor_triples(n: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let rest = n / a;
        for b in 1..=rest {
            if rest.is_multiple_of(b) {
                out.push((a, b, rest / b));
            }
        }
    }
    out
}

/// Every parallelism mapping that tiles `system` and is compatible with
/// `model` under `opts`.
pub fn enumerate_mappings(
    system: &SystemSpec,
    model: &TransformerModel,
    opts: &EnumerationOptions,
) -> Vec<Parallelism> {
    let mut out = Vec::new();
    let max_tp = opts.max_tp.unwrap_or(model.num_heads());
    let max_pp = opts.max_pp.unwrap_or(model.num_layers());
    let inter = factor_triples(system.num_nodes());
    for (tp_i, pp_i, dp_i) in factor_triples(system.accels_per_node()) {
        for &(tp_x, pp_x, dp_x) in &inter {
            if !opts.allow_tp_inter && tp_x > 1 {
                continue;
            }
            if tp_i * tp_x > max_tp || pp_i * pp_x > max_pp {
                continue;
            }
            let built = Parallelism::builder()
                .tp(tp_i, tp_x)
                .pp(pp_i, pp_x)
                .dp(dp_i, dp_x)
                .microbatches(opts.microbatch_policy)
                .bubble_ratio(opts.bubble_ratio)
                .zero(opts.zero)
                .build();
            if let Ok(p) = built {
                if p.validate_against(system, model).is_ok() {
                    out.push(p);
                }
            }
        }
    }
    out
}

/// Failure and checkpoint parameters for ranking candidates by *expected*
/// training time under faults (goodput) instead of fault-free time.
///
/// Checkpoint write cost is derived per candidate from its memory
/// footprint: each device writes its own weight + optimizer shard
/// ([`MemoryFootprint::checkpoint_bytes`]) at `ckpt_write_bytes_per_s`, so
/// PP-heavy mappings (small shards, cheap checkpoints) and DP-heavy
/// mappings (replicated shards) are priced differently — which is exactly
/// what makes the goodput ranking diverge from the fault-free one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoodputOptions {
    /// Per-node mean time between failures, seconds.
    pub node_mtbf_s: f64,
    /// Restart cost after a failure (reload + requeue), seconds.
    #[serde(default = "default_restart_s")]
    pub restart_s: f64,
    /// Checkpoint write bandwidth per device, bytes/s.
    #[serde(default = "default_ckpt_write_bw")]
    pub ckpt_write_bytes_per_s: f64,
    /// Fixed checkpoint interval in seconds (`None` = the Young/Daly
    /// optimum per candidate).
    #[serde(default)]
    pub interval_s: Option<f64>,
    /// Correlated failure domains: when set, candidates are ranked by
    /// their expected time *under a placement* on this tree — the
    /// [`placement_for`] enumerator assigns each mapping's stages and
    /// replicas to domains and the correlated model prices rack/pod
    /// outages (and optionally elastic preemptions) on top of the
    /// independent node failures.
    #[serde(default)]
    pub failure_domains: Option<DomainGoodput>,
}

/// The failure-domain half of [`GoodputOptions`]: the tree, the optional
/// elastic (shrink/regrow) mode, and how mappings are placed on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainGoodput {
    /// The node < rack < pod hierarchy with per-tier outage rates.
    pub tree: FailureDomainTree,
    /// Elastic capacity parameters; `None` = every outage is fatal.
    #[serde(default)]
    pub elastic: Option<ElasticParams>,
    /// Placement layout (defaults to the blast-radius-minimizing pick).
    #[serde(default)]
    pub placement: PlacementChoice,
}

fn default_restart_s() -> f64 {
    300.0
}

fn default_ckpt_write_bw() -> f64 {
    2e9
}

impl GoodputOptions {
    /// Goodput options with the given per-node MTBF and default restart
    /// cost (300 s) and checkpoint bandwidth (2 GB/s per device).
    pub fn new(node_mtbf_s: f64) -> Self {
        GoodputOptions {
            node_mtbf_s,
            restart_s: default_restart_s(),
            ckpt_write_bytes_per_s: default_ckpt_write_bw(),
            interval_s: None,
            failure_domains: None,
        }
    }

    /// Rank by expected time under correlated outages on `tree` (see
    /// [`DomainGoodput`]).
    pub fn with_failure_domains(mut self, domains: DomainGoodput) -> Self {
        self.failure_domains = Some(domains);
        self
    }
}

/// A fully evaluated candidate mapping.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The mapping.
    pub parallelism: Parallelism,
    /// The analytical estimate at the search batch size.
    pub estimate: Estimate,
    /// Per-device memory footprint.
    pub memory: MemoryFootprint,
    /// Energy of the configured run.
    pub energy: EnergyEstimate,
    /// Whether the footprint fits the accelerator memory.
    pub fits_memory: bool,
    /// The simulator-refined estimate: `None` until a
    /// [`SearchEngine::with_refine_sim`] pass prices this candidate, or
    /// when the simulator rejects it (e.g. the last-stage gather exceeds
    /// device memory).
    pub refined: Option<Estimate>,
    /// Expected-time analysis under the engine's [`GoodputOptions`]:
    /// `None` unless the search ran with [`SearchEngine::with_goodput`].
    pub resilience: Option<ResilienceReport>,
}

impl Candidate {
    /// The estimate ranking this candidate: the simulator-refined one when
    /// present, the analytical one otherwise.
    pub fn ranking_estimate(&self) -> &Estimate {
        self.refined.as_ref().unwrap_or(&self.estimate)
    }

    /// The time this candidate is ranked by: the expected time under
    /// failures when a goodput analysis is attached, the fault-free
    /// analytical total otherwise.
    pub fn objective_time(&self) -> f64 {
        match &self.resilience {
            Some(r) => r.expected_s,
            None => self.estimate.total_time.get(),
        }
    }
}

/// The six parallelism degrees as a lexicographic sort key. Together with
/// the estimated time this is a *total* order over candidates (no two
/// enumerated mappings share all six degrees), which is what makes rankings
/// independent of evaluation order.
fn parallelism_key(p: &Parallelism) -> [usize; 6] {
    [
        p.tp_intra(),
        p.tp_inter(),
        p.pp_intra(),
        p.pp_inter(),
        p.dp_intra(),
        p.dp_inter(),
    ]
}

/// Ranking order: fastest objective time first (expected time under
/// goodput, fault-free time otherwise), ties broken by the parallelism
/// degrees.
fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.objective_time()
        .total_cmp(&b.objective_time())
        .then_with(|| parallelism_key(&a.parallelism).cmp(&parallelism_key(&b.parallelism)))
}

/// Order within a simulator-refined block: refined candidates first by
/// their simulated time (ties by parallelism degrees — a total order, so
/// the refined ranking is reproducible); candidates
/// the simulator rejected sink below every refined one, keeping their
/// analytical order among themselves.
fn refined_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    match (&a.refined, &b.refined) {
        (Some(ra), Some(rb)) => ra
            .total_time
            .get()
            .total_cmp(&rb.total_time.get())
            .then_with(|| parallelism_key(&a.parallelism).cmp(&parallelism_key(&b.parallelism))),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => candidate_order(a, b),
    }
}

/// One evaluated mapping: the winning microbatch variant, or the capacity
/// inequality that rejected every variant.
pub(crate) type Scored = std::result::Result<Box<Candidate>, CapacityFailure>;

/// One closed-form max-microbatch solve: the highest fitting ladder rung,
/// or the capacity inequality that rejects even the smallest microbatch.
type SolveOutcome = std::result::Result<MicrobatchFit, CapacityFailure>;

/// Memory-rejection counts of one search pass, split by which capacity
/// inequality failed first (checked in footprint order: weights, then
/// +gradients, then +optimizer, then +activations — see
/// [`CapacityFailure`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryRejections {
    /// Weights alone exceed device memory.
    pub weights: u64,
    /// Weights + gradients exceed device memory.
    pub gradients: u64,
    /// Weights + gradients + optimizer state exceed device memory.
    pub optimizer: u64,
    /// The full footprint (with activations) exceeds device memory at
    /// every microbatch size.
    pub activations: u64,
}

impl MemoryRejections {
    /// Total mappings rejected by the memory filter.
    pub fn total(&self) -> u64 {
        self.weights + self.gradients + self.optimizer + self.activations
    }

    fn record(&mut self, failure: CapacityFailure) {
        match failure {
            CapacityFailure::Weights => self.weights += 1,
            CapacityFailure::Gradients => self.gradients += 1,
            CapacityFailure::Optimizer => self.optimizer += 1,
            CapacityFailure::Activations => self.activations += 1,
        }
    }
}

/// Candidate accounting of one search pass:
/// `generated = pruned + kept + memory_rejected.total()` holds exactly.
/// Every field depends only on the input. The memory filter runs before
/// any pruning, so `memory_rejected` is the same with pruning on or off;
/// the pruned/kept split follows from the best-first evaluation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Mappings enumerated.
    pub generated: u64,
    /// Mappings skipped by branch-and-bound pruning without evaluation.
    pub pruned: u64,
    /// Mappings evaluated. With pruning on, the ranking keeps those whose
    /// lower bound does not exceed the best objective.
    pub kept: u64,
    /// Mappings rejected by the memory filter, by failing inequality.
    pub memory_rejected: MemoryRejections,
}

/// Evaluates and ranks every mapping of a model onto a system.
#[derive(Debug, Clone)]
pub struct SearchEngine<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    precision: Precision,
    efficiency: EfficiencyModel,
    engine_options: EngineOptions,
    enumeration: EnumerationOptions,
    power: PowerModel,
    optimizer: OptimizerSpec,
    schedule: PipelineSchedule,
    require_memory_fit: bool,
    tune_microbatches: bool,
    prune: bool,
    refine_sim: usize,
    goodput: Option<GoodputOptions>,
    fault_plan: Option<FaultPlan>,
    observer: Option<Arc<Observer>>,
    cache_pool: Option<Arc<CachePool>>,
}

/// The memoization cache a search pass evaluates against: either a
/// private fresh cache (the default) or a lease from a shared
/// [`CachePool`], so a long-lived process can carry warmed sub-results
/// across searches. Both are bit-identical to evaluate against (warming a
/// cache never changes a kernel result), so attaching a pool is
/// as invisible to rankings as attaching an observer.
enum PassCache<'pool> {
    Fresh(EstimateCache),
    Pooled(CacheLease<'pool>),
}

impl std::ops::Deref for PassCache<'_> {
    type Target = EstimateCache;

    fn deref(&self) -> &EstimateCache {
        match self {
            PassCache::Fresh(cache) => cache,
            PassCache::Pooled(lease) => lease,
        }
    }
}

impl std::ops::DerefMut for PassCache<'_> {
    fn deref_mut(&mut self) -> &mut EstimateCache {
        match self {
            PassCache::Fresh(cache) => cache,
            PassCache::Pooled(lease) => lease,
        }
    }
}

impl<'a> SearchEngine<'a> {
    /// A search over `model` × `system` with `accel` devices.
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
    ) -> Self {
        SearchEngine {
            model,
            accel,
            system,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            engine_options: EngineOptions::default(),
            enumeration: EnumerationOptions::default(),
            power: PowerModel::from_accelerator(accel),
            optimizer: OptimizerSpec::default(),
            schedule: PipelineSchedule::default(),
            require_memory_fit: false,
            tune_microbatches: true,
            prune: false,
            refine_sim: 0,
            goodput: None,
            fault_plan: None,
            observer: None,
            cache_pool: None,
        }
    }

    /// Override the precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the efficiency model.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Override the engine options.
    pub fn with_engine_options(mut self, options: EngineOptions) -> Self {
        self.engine_options = options;
        self
    }

    /// Override the enumeration constraints.
    pub fn with_enumeration(mut self, enumeration: EnumerationOptions) -> Self {
        self.enumeration = enumeration;
        self
    }

    /// Override the optimizer used for memory accounting.
    pub fn with_optimizer(mut self, optimizer: OptimizerSpec) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Drop candidates whose footprint exceeds device memory.
    pub fn with_memory_filter(mut self, require_fit: bool) -> Self {
        self.require_memory_fit = require_fit;
        self
    }

    /// Enable branch-and-bound pruning (default off): mappings are
    /// evaluated in order of their compute-only lower bound, and the search
    /// stops at the first bound above the best total time found so far —
    /// the rest skip full estimation, memory and energy accounting. The
    /// bound is exact in f64 against the kernel's totals, so the pruned
    /// ranking is the truncation of the full ranking to candidates with
    /// `lower_bound <= best_time` — deterministic and always containing the
    /// optimum.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Re-rank the analytical top-`k` through the discrete-event simulator
    /// (default 0 = off): after the analytical prune + rank, the `k`
    /// fastest candidates are re-priced by [`SimBackend`] one after another
    /// and re-ordered by simulated time (deterministic tie-breaking by
    /// parallelism degrees, so refined rankings are reproducible).
    /// Candidates the simulator rejects — e.g. the GPipe last-stage
    /// microbatch gather exceeds device memory — keep `refined = None` and
    /// sink below every refined candidate. The tail beyond `k` keeps its
    /// analytical order.
    pub fn with_refine_sim(mut self, k: usize) -> Self {
        self.refine_sim = k;
        self
    }

    /// Rank candidates by *expected* training time under failures — the
    /// checkpoint/restart renewal model of
    /// [`ResilienceParams`](amped_core::ResilienceParams) — instead of the
    /// fault-free total. Every kept candidate carries its
    /// [`ResilienceReport`] in [`Candidate::resilience`], with the
    /// checkpoint cost derived from that candidate's own memory footprint.
    ///
    /// Branch-and-bound pruning stays sound: the compute-only lower bound
    /// never exceeds the fault-free time, which never exceeds the expected
    /// time, so the incumbent (now an expected time) can only be *looser*
    /// than before — no candidate that would rank is ever skipped.
    pub fn with_goodput(mut self, goodput: GoodputOptions) -> Self {
        self.goodput = Some(goodput);
        self
    }

    /// Thread a [`FaultPlan`] into the simulator-refinement pass
    /// ([`SearchEngine::with_refine_sim`]): refined candidates are priced
    /// by a full fault-injected run (stragglers, link faults, failures and
    /// checkpoint writes) instead of a clean iteration. Inert plans
    /// (`seed = None`) leave refinement bit-identical to no plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attach an observer recording what the search did: phase timings
    /// (`search.enumerate` / `search.explore` / `search.rank` /
    /// `search.refine`), candidate counters
    /// (`search.candidates.{generated,pruned,evaluated,memory_rejected,kept}`),
    /// memoization cache traffic (`search.cache.{hits,misses,lookups}`),
    /// per-candidate `prune`/`evaluate`/`refine` spans on the caller's
    /// trace track, and — through the simulator-refinement backend — the
    /// `backend.sim.*` and `sim.des.*` series.
    ///
    /// Observation is passive: rankings, [`SearchStats`] and every estimate
    /// are bit-identical with or without an observer. The counters satisfy
    /// exact identities (`generated = pruned + evaluated`,
    /// `evaluated = kept + memory_rejected`, `lookups = hits + misses`),
    /// and like the stats they depend only on the input.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Share a process-wide [`CachePool`] across searches: each pass checks
    /// its [`EstimateCache`](amped_core::EstimateCache) out of the pool
    /// (shelved under this engine's [`context_key`](amped_core::context_key),
    /// so the cache's context-binding contract still holds) and returns it
    /// warmed when the pass finishes. Repeated or overlapping searches
    /// over the same scenario then start with their sub-results memoized.
    /// Like an observer, a pool is passive: rankings and every estimate in
    /// them are bit-identical with or without one.
    pub fn with_cache_pool(mut self, pool: Arc<CachePool>) -> Self {
        self.cache_pool = Some(pool);
        self
    }

    /// The model under search.
    pub fn model(&self) -> &TransformerModel {
        self.model
    }

    /// The accelerator under search.
    pub fn accel(&self) -> &AcceleratorSpec {
        self.accel
    }

    /// The system under search.
    pub fn system(&self) -> &SystemSpec {
        self.system
    }

    /// The configured precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The configured efficiency model.
    pub fn efficiency(&self) -> &EfficiencyModel {
        &self.efficiency
    }

    /// The configured engine options.
    pub fn engine_options(&self) -> EngineOptions {
        self.engine_options
    }

    /// The configured simulator-refinement depth (0 = off).
    pub fn refine_sim(&self) -> usize {
        self.refine_sim
    }

    /// An owned [`Scenario`] of this engine's configuration under
    /// `parallelism` — the bridge from the engine's borrowed specifications
    /// to any [`CostBackend`].
    pub fn scenario_for(&self, parallelism: Parallelism) -> Scenario {
        Scenario::new(
            self.model.clone(),
            self.accel.clone(),
            self.system.clone(),
            parallelism,
        )
        .with_precision(self.precision)
        .with_efficiency(self.efficiency.clone())
        .with_options(self.engine_options)
    }

    /// Tune the microbatch count per candidate (default on): every
    /// power-of-two microbatch size up to the replica batch is evaluated
    /// and the fastest feasible one kept — what an operator would do, and
    /// what makes DP-heavy and PP-heavy mappings comparable.
    pub fn with_microbatch_tuning(mut self, tune: bool) -> Self {
        self.tune_microbatches = tune;
        self
    }

    /// Evaluate every mapping for `training`, sorted fastest-first (ties
    /// broken by the parallelism degrees, so the ranking is a total order).
    ///
    /// With pruning on, the result is the full ranking truncated to
    /// candidates whose compute-only lower bound does not exceed the best
    /// total time — still deterministic, and always led by the optimum.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (which indicate an internal inconsistency
    /// — enumerated mappings have already been validated).
    pub fn search(&self, training: &TrainingConfig) -> Result<Vec<Candidate>> {
        Ok(self.search_with_stats(training)?.0)
    }

    /// [`SearchEngine::search`], additionally returning the pass's
    /// candidate accounting — including *which* capacity inequality
    /// rejected each memory-filtered mapping (weights, gradients,
    /// optimizer state, or activations), classified at the mapping's
    /// smallest microbatch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SearchEngine::search`].
    pub fn search_with_stats(
        &self,
        training: &TrainingConfig,
    ) -> Result<(Vec<Candidate>, SearchStats)> {
        let mappings = {
            let _phase = self.observer.as_ref().map(|o| o.phase("search.enumerate"));
            enumerate_mappings(self.system, self.model, &self.enumeration)
        };
        let explored = {
            let _phase = self.observer.as_ref().map(|o| o.phase("search.explore"));
            self.explore(&mappings, std::slice::from_ref(training))?
        };
        let _rank_phase = self.observer.as_ref().map(|o| o.phase("search.rank"));
        let stats = self.account(mappings.len(), &explored);
        // Sort the boxes, so each candidate moves once, when it is unboxed.
        let mut ranked: Vec<Box<Candidate>> = explored.kept.into_iter().map(|(_, c)| c).collect();
        ranked.sort_by(|a, b| candidate_order(a, b));
        let mut out: Vec<Candidate> = ranked.into_iter().map(|c| *c).collect();
        drop(_rank_phase);
        if self.refine_sim > 0 {
            let _phase = self.observer.as_ref().map(|o| o.phase("search.refine"));
            self.refine(&mut out, training);
        }
        Ok((out, stats))
    }

    /// The accounting of a pass over `generated` candidates, also recorded
    /// on the observer (`generated = pruned + evaluated` and
    /// `evaluated = kept + memory_rejected` hold exactly).
    fn account(
        &self,
        generated: usize,
        explored: &Explored<Box<Candidate>, CapacityFailure>,
    ) -> SearchStats {
        let mut stats = SearchStats {
            generated: generated as u64,
            pruned: explored.pruned,
            kept: explored.evaluated,
            ..SearchStats::default()
        };
        for &failure in &explored.rejected {
            stats.memory_rejected.record(failure);
        }
        if let Some(obs) = &self.observer {
            let rejected = stats.memory_rejected.total();
            obs.add("search.candidates.generated", stats.generated);
            obs.add("search.candidates.pruned", stats.pruned);
            obs.add("search.candidates.memory_rejected", rejected);
            obs.add("search.candidates.kept", stats.kept);
            obs.add("search.candidates.evaluated", rejected + stats.kept);
        }
        stats
    }

    /// Re-price the analytical top-`refine_sim` candidates through
    /// [`SimBackend`] and re-order that block by simulated time.
    ///
    /// The simulator is deterministic, so refined rankings are
    /// bit-identical run to run. A candidate the simulator rejects (e.g.
    /// the Fig. 2b last-stage microbatch gather exceeds device memory)
    /// keeps `refined = None` and sinks below every refined candidate in
    /// the block.
    fn refine(&self, ranked: &mut [Candidate], training: &TrainingConfig) {
        let k = self.refine_sim.min(ranked.len());
        if k == 0 {
            return;
        }
        // Simulate the schedule the analytical pass assumed, so the sim's
        // memory gate judges candidates under the same in-flight activation
        // policy as the engine's own fit check.
        let mut backend = SimBackend::new().with_schedule(match self.schedule {
            PipelineSchedule::GPipe => amped_sim::PipelineSchedule::GPipe,
            PipelineSchedule::OneFOneB => amped_sim::PipelineSchedule::OneFOneB,
        });
        if let Some(plan) = &self.fault_plan {
            backend = backend.with_fault_plan(plan.clone());
        }
        if let Some(obs) = &self.observer {
            // Skip per-device utilization samples: each refined candidate
            // would overwrite the previous one's, so the report would
            // describe whichever ran last. Counters and spans are additive
            // and stay exact.
            backend = backend
                .with_observer(obs.clone())
                .without_device_samples();
        }
        let mut scenario = self.scenario_for(ranked[0].parallelism);
        let mut n_accepted = 0u64;
        for candidate in &mut ranked[..k] {
            let _span = self.observer.as_ref().map(|o| o.span("refine"));
            scenario.parallelism = candidate.parallelism;
            candidate.refined = backend.evaluate(&scenario, training).ok();
            if candidate.refined.is_some() {
                n_accepted += 1;
            }
        }
        if let Some(obs) = &self.observer {
            obs.add("search.refine.attempted", k as u64);
            obs.add("search.refine.accepted", n_accepted);
            obs.add("search.refine.rejected", k as u64 - n_accepted);
        }
        ranked[..k].sort_by(refined_order);
    }

    /// Run every mapping under each of `trainings` (training-major)
    /// through the branch-and-bound executor, against one cache, one
    /// prepared kernel pass per training and one memory model.
    fn explore(
        &self,
        mappings: &[Parallelism],
        trainings: &[TrainingConfig],
    ) -> Result<Explored<Box<Candidate>, CapacityFailure>> {
        let evaluator = self.batch_evaluator();
        let single = Parallelism::single();
        let memory = self.memory_model(&single);
        self.with_cache(|cache| {
            let kernels = trainings
                .iter()
                .map(|t| evaluator.prepare(cache, t))
                .collect::<Result<Vec<_>>>()?;
            let mut space = TrainingSpace {
                engine: self,
                kernels,
                mappings,
                cache,
                memory,
                plans: (0..trainings.len() * mappings.len()).map(|_| None).collect(),
            };
            executor::explore(&mut space, trainings.len() * mappings.len(), self.prune)
        })
    }

    /// This engine's configuration as a [`BatchEvaluator`].
    fn batch_evaluator(&self) -> BatchEvaluator<'a> {
        BatchEvaluator::new(self.model, self.accel, self.system)
            .with_precision(self.precision)
            .with_efficiency(self.efficiency.clone())
            .with_options(self.engine_options)
    }

    /// Run `f` against this pass's cache — a lease from the shared
    /// [`CachePool`] (under this engine's context key) when one is
    /// attached, a private fresh cache otherwise — and record the pass's
    /// cache traffic on the observer. Only the delta is counted, so a
    /// pre-warmed pool cache is not re-counted.
    fn with_cache<T>(&self, f: impl FnOnce(&mut EstimateCache) -> T) -> T {
        let mut cache = match &self.cache_pool {
            Some(pool) => PassCache::Pooled(pool.checkout(amped_core::context_key(
                self.model,
                self.accel,
                self.system,
                self.precision,
                &self.efficiency,
                self.engine_options,
            ))),
            None => PassCache::Fresh(EstimateCache::new()),
        };
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let out = f(&mut cache);
        if let Some(obs) = &self.observer {
            let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
            obs.add("search.cache.hits", hits);
            obs.add("search.cache.misses", misses);
            obs.add("search.cache.lookups", hits + misses);
        }
        out
    }

    /// The cheapest possible total time of any microbatch variant of `p`:
    /// the kernel's lower bound over the whole tuning ladder (or `p`'s own
    /// policy without tuning) — one TP floor and O(layer kinds) compute
    /// work per rung.
    fn candidate_lower_bound(
        &self,
        kernel: &Prepared<'_>,
        p: &Parallelism,
        training: &TrainingConfig,
    ) -> Result<f64> {
        if self.tune_microbatches {
            kernel.lower_bound(ladder(p, training))
        } else {
            kernel.lower_bound([*p])
        }
    }

    /// Evaluate one mapping under `kernel`'s training, sized by `memory`
    /// re-pointed at it. The sweep grid evaluates through this.
    pub(crate) fn evaluate_mapping(
        &self,
        kernel: &Prepared<'_>,
        cache: &mut EstimateCache,
        memory: &MemoryModel<'_>,
        p: &Parallelism,
    ) -> Result<Scored> {
        let mem_model = memory.for_mapping(p);
        let solved = self.solve(&mem_model, p, kernel.training());
        self.score(kernel, cache, &mem_model, &solved, p)
    }

    /// This engine's memory model for `p`, under its precision, optimizer,
    /// schedule and recompute policy. A pass builds one and re-points it
    /// at each mapping ([`MemoryModel::for_mapping`]).
    fn memory_model<'m>(&'m self, p: &'m Parallelism) -> MemoryModel<'m> {
        MemoryModel::new(self.model, p)
            .with_precision(self.precision)
            .with_optimizer(self.optimizer.clone())
            .with_schedule(self.schedule)
            .with_activation_recompute(self.engine_options.activation_recompute)
    }

    /// The closed-form max-microbatch solve of `p` on the tuning ladder
    /// (`None` without tuning: the single variant carries its own policy,
    /// which need not be a ladder point, so it is sized directly).
    fn solve(
        &self,
        mem_model: &MemoryModel<'_>,
        p: &Parallelism,
        training: &TrainingConfig,
    ) -> Option<SolveOutcome> {
        self.tune_microbatches.then(|| {
            mem_model.solve_max_microbatch(
                (training.global_batch() / p.dp()).max(1),
                p.replica_batch(training.global_batch()),
                self.accel.memory_bytes(),
            )
        })
    }

    /// The capacity inequality that makes the memory filter reject `p`,
    /// decided before any pricing: with tuning, the solve's failure at
    /// the smallest microbatch; without, the footprint of `p`'s own
    /// microbatch split. `None` when the filter is off or `p` fits.
    fn memory_rejection(
        &self,
        mem_model: &MemoryModel<'_>,
        solved: &Option<SolveOutcome>,
        p: &Parallelism,
        training: &TrainingConfig,
    ) -> Option<CapacityFailure> {
        if !self.require_memory_fit {
            return None;
        }
        match solved {
            Some(Ok(_)) => None,
            Some(Err(failure)) => Some(*failure),
            None => {
                let batch = training.global_batch();
                let memory =
                    mem_model.footprint(p.microbatch_size(batch), p.num_microbatches(batch));
                let capacity = self.accel.memory_bytes();
                let fits = memory.total() <= capacity;
                (!fits).then(|| memory.capacity_failure(capacity))
            }
        }
    }

    /// Score one mapping, the one scoring path of search and sweep: fold
    /// its microbatch variants on `(fits, −time)` in the kernel
    /// ([`Prepared::best_rung`]) and keep the fastest memory-feasible one
    /// (fastest overall if nothing fits and the filter is off). When the
    /// filter rejects every variant, report which capacity inequality
    /// failed first, classified at the smallest microbatch — the mapping's
    /// most feasible point.
    ///
    /// Memory feasibility comes from the closed-form max-microbatch solve
    /// ([`SearchEngine::solve`]), one per mapping instead of one footprint
    /// per variant. The tuning ladder is exactly the solver's (trial
    /// microbatch `2^k`) and feasibility is a prefix of it, so:
    ///
    /// * when some rung fits, rungs past `ladder_index` can never win the
    ///   fold — a fitting variant always beats a non-fitting one — and are
    ///   not offered;
    /// * when nothing fits and the memory filter is on, the mapping is
    ///   rejected whatever the estimates say; the kernel still validates
    ///   it, so its errors propagate.
    ///
    /// The winner's stored footprint is computed once, at the end.
    fn score(
        &self,
        kernel: &Prepared<'_>,
        cache: &mut EstimateCache,
        mem_model: &MemoryModel<'_>,
        solved: &Option<SolveOutcome>,
        p: &Parallelism,
    ) -> Result<Scored> {
        let training = kernel.training();
        let require_fit = self.require_memory_fit;
        let best = match solved {
            None => {
                let batch = training.global_batch();
                let fits = mem_model.fits(
                    p.microbatch_size(batch),
                    p.num_microbatches(batch),
                    self.accel.memory_bytes(),
                );
                kernel.best_rung(cache, [(*p, fits)], require_fit)?
            }
            Some(outcome) => {
                let (rungs, fits) = match outcome {
                    Ok(fit) => (fit.ladder_index as usize + 1, true),
                    Err(_) if require_fit => (1, false),
                    Err(_) => (usize::MAX, false),
                };
                let variants = ladder(p, training).take(rungs).map(|v| (v, fits));
                kernel.best_rung(cache, variants, require_fit)?
            }
        };
        let Some(BestRung {
            parallelism,
            fits_memory,
            estimate,
            ..
        }) = best
        else {
            return Ok(Err(self
                .memory_rejection(mem_model, solved, p, training)
                .expect("a mapping with no retained variant failed the memory filter")));
        };
        let memory = mem_model.footprint(estimate.microbatch_size, estimate.num_microbatches);
        let energy = EnergyEstimate::from_estimate(&estimate, &self.power, training.num_batches());
        let mut candidate = Candidate {
            parallelism,
            estimate,
            memory,
            energy,
            fits_memory,
            refined: None,
            resilience: None,
        };
        if let Some(goodput) = &self.goodput {
            candidate.resilience = Some(self.resilience_report(goodput, &candidate)?);
        }
        Ok(Ok(Box::new(candidate)))
    }

    /// The checkpoint/restart expected-time report for one candidate: its
    /// per-device weight + optimizer shard priced at the configured write
    /// bandwidth, against a system MTBF scaled to this engine's node count.
    /// With failure domains configured, the candidate is first placed on
    /// the tree (see [`placement_for`]) and the correlated model prices
    /// the outage tiers its placement is exposed to; the degenerate tree
    /// (one domain, no tier rates) reproduces the independent-exponential
    /// report bit for bit.
    fn resilience_report(
        &self,
        goodput: &GoodputOptions,
        candidate: &Candidate,
    ) -> Result<ResilienceReport> {
        let ckpt_write_s = candidate.memory.checkpoint_bytes() / goodput.ckpt_write_bytes_per_s;
        let mut params = ResilienceParams::new(goodput.node_mtbf_s, self.system.num_nodes())?
            .with_checkpoint_cost(ckpt_write_s)
            .with_restart(goodput.restart_s);
        if let Some(interval) = goodput.interval_s {
            params = params.with_interval(interval);
        }
        let total = candidate.estimate.total_time.get();
        match &goodput.failure_domains {
            None => params.report(total),
            Some(fd) => {
                let placed = placement_for(
                    &candidate.parallelism,
                    self.system,
                    &fd.tree,
                    fd.placement,
                );
                let mut corr = CorrelatedResilience::new(params, fd.tree.clone(), placed)?;
                if let Some(elastic) = &fd.elastic {
                    corr = corr.with_elastic(elastic.clone());
                }
                Ok(corr.report(total)?.flat_report())
            }
        }
    }

    /// The fastest candidate, or `None` when every mapping was filtered out.
    ///
    /// Since only the optimum is returned — and the lower bound never
    /// prunes the optimum — pruning is always on here.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn best(&self, training: &TrainingConfig) -> Result<Option<Candidate>> {
        let engine = self.clone().with_pruning(true);
        Ok(engine.search(training)?.into_iter().next())
    }

    /// Co-optimize the mapping *and* the global batch size: search each
    /// batch in `batches` for a fixed token budget and return the fastest
    /// `(batch, candidate)` end to end. Larger batches raise efficiency but
    /// may harm convergence — the caller owns that judgement (the paper
    /// assumes "minimal impact" up to 16384).
    ///
    /// The whole batch × mapping grid is one pruned executor pass, so one
    /// incumbent best time bounds every batch. Ties go to the earlier
    /// batch, then the parallelism degrees (a total order — the winner is
    /// deterministic).
    ///
    /// # Errors
    ///
    /// Propagates estimator errors; batches that divide into no feasible
    /// mapping are skipped.
    pub fn best_over_batches(
        &self,
        batches: &[usize],
        seq_len: usize,
        token_budget: f64,
    ) -> Result<Option<(usize, Candidate)>> {
        let engine = self.clone().with_pruning(true);
        let mut trainings = Vec::with_capacity(batches.len());
        for &batch in batches {
            trainings.push(TrainingConfig::from_tokens(batch, seq_len, token_budget)?);
        }
        let mappings = enumerate_mappings(engine.system, engine.model, &engine.enumeration);
        if trainings.is_empty() || mappings.is_empty() {
            return Ok(None);
        }
        let explored = engine.explore(&mappings, &trainings)?;
        engine.account(trainings.len() * mappings.len(), &explored);
        let batch_of = |index: usize| index / mappings.len();
        let best = explored.kept.into_iter().min_by(|(i, a), (j, b)| {
            a.objective_time()
                .total_cmp(&b.objective_time())
                .then(batch_of(*i).cmp(&batch_of(*j)))
                .then_with(|| parallelism_key(&a.parallelism).cmp(&parallelism_key(&b.parallelism)))
        });
        Ok(best.map(|(i, c)| (batches[batch_of(i)], *c)))
    }
}

/// The training search as an executor [`Space`]: every mapping under
/// every training, training-major.
struct TrainingSpace<'s, 'a> {
    engine: &'s SearchEngine<'a>,
    /// One prepared kernel pass per training.
    kernels: Vec<Prepared<'s>>,
    mappings: &'s [Parallelism],
    cache: &'s mut EstimateCache,
    /// The pass's memory model, re-pointed at each mapping.
    memory: MemoryModel<'s>,
    /// Each screened candidate's memory model and solve, taken by its
    /// evaluation.
    plans: Vec<Option<(MemoryModel<'s>, Option<SolveOutcome>)>>,
}

impl<'s> TrainingSpace<'s, '_> {
    /// The training index and mapping of candidate `index`.
    fn locate(&self, index: usize) -> (usize, &'s Parallelism) {
        let n = self.mappings.len();
        (index / n, &self.mappings[index % n])
    }
}

impl Space for TrainingSpace<'_, '_> {
    type Candidate = Box<Candidate>;
    type Rejection = CapacityFailure;

    fn screen(&mut self, index: usize) -> Result<Screened<CapacityFailure>> {
        let (t, p) = self.locate(index);
        let (engine, kernel) = (self.engine, &self.kernels[t]);
        let training = kernel.training();
        let mem_model = self.memory.for_mapping(p);
        let solved = engine.solve(&mem_model, p, training);
        if let Some(failure) = engine.memory_rejection(&mem_model, &solved, p, training) {
            return Ok(Screened::Rejected(failure));
        }
        let bound = if engine.prune {
            let _span = engine.observer.as_ref().map(|o| o.span("prune"));
            engine.candidate_lower_bound(kernel, p, training)?
        } else {
            f64::NEG_INFINITY
        };
        self.plans[index] = Some((mem_model, solved));
        Ok(Screened::Bounded(bound))
    }

    fn evaluate(&mut self, index: usize) -> Result<Box<Candidate>> {
        let _span = self.engine.observer.as_ref().map(|o| o.span("evaluate"));
        let (t, p) = self.locate(index);
        let (mem_model, solved) = self.plans[index]
            .take()
            .expect("only screened candidates are evaluated");
        let scored = self
            .engine
            .score(&self.kernels[t], self.cache, &mem_model, &solved, p)?;
        Ok(scored.expect("screening rejects every mapping the memory filter drops"))
    }

    fn objective(candidate: &Box<Candidate>) -> f64 {
        candidate.objective_time()
    }
}

/// The microbatch tuning ladder of `p`: one variant per power-of-two
/// microbatch size up to the replica batch — trial microbatch `2^k`, the
/// ladder of the closed-form memory solve.
fn ladder(p: &Parallelism, training: &TrainingConfig) -> impl Iterator<Item = Parallelism> {
    let p = *p;
    let replica = (training.global_batch() / p.dp()).max(1);
    std::iter::successors(Some(1usize), |ub| ub.checked_mul(2))
        .take_while(move |&ub| ub <= replica)
        .map(move |ub| p.with_microbatches(MicrobatchPolicy::Explicit(replica.div_ceil(ub))))
}

/// Indices of the Pareto-optimal candidates under
/// (total time, total energy, peak memory) — lower is better on every axis.
pub fn pareto_front(candidates: &[Candidate]) -> Vec<usize> {
    let key = |c: &Candidate| {
        (
            c.estimate.total_time.get(),
            c.energy.total_joules(),
            c.memory.total(),
        )
    };
    let dominates = |a: (f64, f64, f64), b: (f64, f64, f64)| {
        a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
    };
    (0..candidates.len())
        .filter(|&i| {
            let ki = key(&candidates[i]);
            !candidates
                .iter()
                .enumerate()
                .any(|(j, c)| j != i && dominates(key(c), ki))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::{Estimator, Link};
    use proptest::prelude::*;

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

    fn model() -> TransformerModel {
        TransformerModel::builder("m")
            .layers(32)
            .hidden_size(4096)
            .heads(32)
            .seq_len(2048)
            .vocab_size(51200)
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
            .power(400.0, 0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn factor_triples_multiply_back() {
        for n in [1usize, 2, 8, 12, 16] {
            for (a, b, c) in factor_triples(n) {
                assert_eq!(a * b * c, n);
            }
        }
        assert_eq!(factor_triples(1), vec![(1, 1, 1)]);
        // d(8): triples of divisors with product 8 = 10 compositions.
        assert_eq!(factor_triples(8).len(), 10);
    }

    #[test]
    fn enumeration_covers_and_respects_constraints() {
        let sys = system(4, 8);
        let m = model();
        let all = enumerate_mappings(&sys, &m, &EnumerationOptions::default());
        assert!(!all.is_empty());
        for p in &all {
            assert_eq!(p.total_workers(), 32);
            assert!(p.validate_against(&sys, &m).is_ok());
        }
        let no_tp_inter = enumerate_mappings(
            &sys,
            &m,
            &EnumerationOptions {
                allow_tp_inter: false,
                ..Default::default()
            },
        );
        assert!(no_tp_inter.iter().all(|p| p.tp_inter() == 1));
        assert!(no_tp_inter.len() < all.len());
    }

    #[test]
    fn max_tp_prunes() {
        let sys = system(4, 8);
        let m = model();
        let pruned = enumerate_mappings(
            &sys,
            &m,
            &EnumerationOptions {
                max_tp: Some(4),
                ..Default::default()
            },
        );
        assert!(pruned.iter().all(|p| p.tp() <= 4));
    }

    #[test]
    fn search_ranks_fastest_first() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let engine = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let training = TrainingConfig::new(512, 10).unwrap();
        let results = engine.search(&training).unwrap();
        assert!(results.len() > 10);
        for w in results.windows(2) {
            assert!(w[0].estimate.total_time.get() <= w[1].estimate.total_time.get());
        }
        let best = engine.best(&training).unwrap().unwrap();
        assert_eq!(
            best.estimate.total_time.get(),
            results[0].estimate.total_time.get()
        );
    }

    #[test]
    fn tp_intra_beats_tp_inter_on_slow_networks() {
        // Case-study-I conclusion 2, as a search property: the best mapping
        // never puts TP across nodes when the node fabric is 12x faster.
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let engine = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let best = engine
            .best(&TrainingConfig::new(1024, 1).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(best.parallelism.tp_inter(), 1, "best = {:?}", best.parallelism);
    }

    #[test]
    fn memory_filter_drops_oversized() {
        let m = model();
        let a = accel();
        let sys = system(1, 2);
        let training = TrainingConfig::new(64, 1).unwrap();
        let all = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .search(&training)
            .unwrap();
        let fitting = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_memory_filter(true)
            .search(&training)
            .unwrap();
        assert!(fitting.len() <= all.len());
        assert!(fitting.iter().all(|c| c.fits_memory));
    }

    #[test]
    fn batch_co_optimization_prefers_larger_batches_for_fixed_tokens() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let engine = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 16.0, 0.05, 0.9));
        let (batch, c) = engine
            .best_over_batches(&[256, 1024, 4096], 2048, 1e9)
            .unwrap()
            .expect("found");
        // With a saturating efficiency, the bigger batch amortizes better.
        assert_eq!(batch, 4096);
        assert!(c.estimate.total_time.get() > 0.0);
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let results = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .search(&TrainingConfig::new(512, 10).unwrap())
            .unwrap();
        let front = pareto_front(&results);
        assert!(!front.is_empty());
        // The fastest candidate is always on the front.
        assert!(front.contains(&0));
        for &i in &front {
            for (j, c) in results.iter().enumerate() {
                if j == i {
                    continue;
                }
                let better_everywhere = c.estimate.total_time.get()
                    < results[i].estimate.total_time.get()
                    && c.energy.total_joules() < results[i].energy.total_joules()
                    && c.memory.total() < results[i].memory.total();
                assert!(!better_everywhere);
            }
        }
    }

    /// Rankings must be byte-identical: same candidates, same order, same
    /// times to the bit.
    fn assert_identical_rankings(a: &[Candidate], b: &[Candidate]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(parallelism_key(&x.parallelism), parallelism_key(&y.parallelism));
            assert_eq!(
                x.estimate.total_time.get().to_bits(),
                y.estimate.total_time.get().to_bits()
            );
            assert_eq!(
                x.estimate.time_per_iteration.get().to_bits(),
                y.estimate.time_per_iteration.get().to_bits()
            );
            assert_eq!(x.fits_memory, y.fits_memory);
        }
    }

    #[test]
    fn pruned_search_is_an_ordered_subset_of_the_full_ranking() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9));
        let full = base.clone().search(&training).unwrap();
        let pruned = base.clone().with_pruning(true).search(&training).unwrap();
        // Pruning keeps the same winner as the full search...
        assert!(!pruned.is_empty());
        assert_eq!(
            pruned[0].estimate.total_time.get().to_bits(),
            full[0].estimate.total_time.get().to_bits()
        );
        assert!(pruned.len() <= full.len());
        // ...and every retained candidate is in the full ranking, in order.
        let keys: Vec<_> = full.iter().map(|c| parallelism_key(&c.parallelism)).collect();
        let mut cursor = 0;
        for c in &pruned {
            let k = parallelism_key(&c.parallelism);
            let pos = keys[cursor..]
                .iter()
                .position(|x| *x == k)
                .expect("pruned candidate missing from full ranking");
            cursor += pos + 1;
        }
    }

    #[test]
    fn memoized_search_matches_fresh_cache_estimates() {
        // Every ranked estimate comes out of a warm pass cache; pricing
        // the same variant against a fresh cache gives the same bits.
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let engine =
            SearchEngine::new(&m, &a, &sys).with_efficiency(EfficiencyModel::Constant(0.5));
        let ranked = engine.search(&training).unwrap();
        assert_identical_candidates(&brute_force(&engine, &training).0, &ranked);
        for c in &ranked {
            let fresh = Estimator::new(&m, &a, &sys, &c.parallelism)
                .with_efficiency(EfficiencyModel::Constant(0.5))
                .estimate(&training)
                .unwrap();
            assert_eq!(
                c.estimate.total_time.get().to_bits(),
                fresh.total_time.get().to_bits(),
                "{:?}",
                c.parallelism
            );
        }
    }

    #[test]
    fn best_over_batches_matches_the_best_of_each_batch() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let engine = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 16.0, 0.05, 0.9));
        let batches = [256, 1024, 4096];
        let (batch, winner) = engine
            .best_over_batches(&batches, 2048, 1e9)
            .unwrap()
            .unwrap();
        // The one pass over the whole grid finds what searching each batch
        // separately and keeping the fastest finds.
        let (want_batch, want) = batches
            .iter()
            .map(|&b| {
                let training = TrainingConfig::from_tokens(b, 2048, 1e9).unwrap();
                (b, engine.best(&training).unwrap().unwrap())
            })
            .min_by(|(_, x), (_, y)| x.objective_time().total_cmp(&y.objective_time()))
            .unwrap();
        assert_eq!(batch, want_batch);
        assert_eq!(parallelism_key(&winner.parallelism), parallelism_key(&want.parallelism));
        assert_eq!(
            winner.estimate.total_time.get().to_bits(),
            want.estimate.total_time.get().to_bits()
        );
    }

    /// A model small enough that top-ranked mappings fit device memory, so
    /// simulator refinement accepts them (the big fixture model needs the
    /// memory filter to produce feasible candidates).
    fn small_model() -> TransformerModel {
        TransformerModel::builder("s")
            .layers(8)
            .hidden_size(1024)
            .heads(16)
            .seq_len(512)
            .vocab_size(32000)
            .build()
            .unwrap()
    }

    #[test]
    fn refine_sim_reprices_the_top_block_and_leaves_the_tail_analytical() {
        let m = small_model();
        let a = accel();
        let sys = system(2, 4);
        let training = TrainingConfig::new(64, 1).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let plain = base.clone().search(&training).unwrap();
        let k = 4;
        let refined = base.clone().with_refine_sim(k).search(&training).unwrap();
        assert_eq!(plain.len(), refined.len());
        // The refined block holds exactly the analytical top-k candidates
        // (re-ordered by simulated time), the tail is untouched.
        let mut plain_top: Vec<_> = plain[..k].iter().map(|c| parallelism_key(&c.parallelism)).collect();
        let mut refined_top: Vec<_> =
            refined[..k].iter().map(|c| parallelism_key(&c.parallelism)).collect();
        plain_top.sort();
        refined_top.sort();
        assert_eq!(plain_top, refined_top);
        for (x, y) in plain[k..].iter().zip(&refined[k..]) {
            assert_eq!(parallelism_key(&x.parallelism), parallelism_key(&y.parallelism));
            assert!(y.refined.is_none());
        }
        // The block is ordered by the refined estimate, simulator-accepted
        // candidates first; ranking_estimate picks the refined time there.
        assert!(refined[..k].iter().any(|c| c.refined.is_some()));
        for w in refined[..k].windows(2) {
            match (&w[0].refined, &w[1].refined) {
                (Some(x), Some(y)) => {
                    assert!(x.total_time.get() <= y.total_time.get());
                    assert_eq!(
                        w[0].ranking_estimate().total_time.get().to_bits(),
                        x.total_time.get().to_bits()
                    );
                }
                (None, Some(_)) => panic!("rejected candidate ranked above a refined one"),
                _ => {}
            }
        }
    }

    #[test]
    fn goodput_search_ranks_by_expected_time_and_annotates_candidates() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let results = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_goodput(GoodputOptions::new(4380.0 * 3600.0))
            .search(&training)
            .unwrap();
        assert!(!results.is_empty());
        for c in &results {
            let r = c.resilience.as_ref().expect("goodput annotates every candidate");
            assert_eq!(r.fault_free_s, c.estimate.total_time.get());
            assert!(r.expected_s >= r.fault_free_s);
            assert_eq!(c.objective_time(), r.expected_s);
        }
        for w in results.windows(2) {
            assert!(w[0].objective_time() <= w[1].objective_time());
        }
    }

    #[test]
    fn goodput_pruned_search_keeps_the_expected_time_winner() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9))
            .with_goodput(GoodputOptions::new(1000.0 * 3600.0));
        let full = base.clone().search(&training).unwrap();
        let pruned = base.clone().with_pruning(true).search(&training).unwrap();
        assert!(!pruned.is_empty());
        assert_eq!(
            pruned[0].objective_time().to_bits(),
            full[0].objective_time().to_bits()
        );
        assert_eq!(
            parallelism_key(&pruned[0].parallelism),
            parallelism_key(&full[0].parallelism)
        );
    }

    #[test]
    fn fault_plan_slows_refined_candidates() {
        let m = small_model();
        let a = accel();
        let sys = system(2, 4);
        let training = TrainingConfig::new(64, 1).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_refine_sim(4);
        let clean = base.clone().search(&training).unwrap();
        let faulty = base
            .clone()
            .with_fault_plan(amped_sim::FaultPlan::seeded(7).with_straggler(0, 3.0))
            .search(&training)
            .unwrap();
        // Compare per-mapping: the straggler can only slow a refined run.
        let mut slower = 0;
        for c in faulty.iter().filter(|c| c.refined.is_some()) {
            let twin = clean
                .iter()
                .find(|x| parallelism_key(&x.parallelism) == parallelism_key(&c.parallelism))
                .expect("same candidate set");
            let (Some(rf), Some(rc)) = (&c.refined, &twin.refined) else {
                continue;
            };
            assert!(rf.total_time.get() >= rc.total_time.get());
            if rf.total_time.get() > rc.total_time.get() {
                slower += 1;
            }
        }
        assert!(slower > 0, "a 3x straggler must slow at least one refined run");
    }

    #[test]
    fn observed_search_is_bit_identical_and_counters_reconcile() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9))
            .with_pruning(true);
        let (bare, bare_stats) = base.search_with_stats(&training).unwrap();
        let obs = Arc::new(Observer::new());
        let (observed, stats) = base
            .clone()
            .with_observer(obs.clone())
            .search_with_stats(&training)
            .unwrap();
        // Instrumentation must never perturb the ranking or the stats.
        assert_identical_rankings(&bare, &observed);
        assert_eq!(bare_stats, stats);
        // The counters are the stats, and reconcile exactly.
        let c = obs.counters();
        assert_eq!(c["search.candidates.pruned"], stats.pruned);
        assert_eq!(c["search.candidates.kept"], stats.kept);
        assert_eq!(
            c["search.candidates.generated"],
            c["search.candidates.pruned"] + c["search.candidates.evaluated"],
            "generated must equal pruned + evaluated: {c:?}"
        );
        assert_eq!(
            c["search.candidates.evaluated"],
            c["search.candidates.kept"] + c["search.candidates.memory_rejected"],
            "evaluated must equal kept + memory-rejected: {c:?}"
        );
        assert_eq!(
            c["search.cache.lookups"],
            c["search.cache.hits"] + c["search.cache.misses"]
        );
        assert!(c["search.cache.hits"] > 0, "memoization must pay off");
        assert!(c["search.candidates.generated"] > 0);
        // The report carries the search phases in execution order.
        let report = obs.report("search");
        let phases: Vec<&str> = report.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phases, ["search.enumerate", "search.explore", "search.rank"]);
    }

    #[test]
    fn observed_refine_counts_and_stays_bit_identical() {
        let m = small_model();
        let a = accel();
        let sys = system(2, 4);
        let training = TrainingConfig::new(64, 1).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_refine_sim(4);
        let bare = base.clone().search(&training).unwrap();
        let obs = Arc::new(Observer::new());
        let observed = base
            .clone()
            .with_observer(obs.clone())
            .search(&training)
            .unwrap();
        assert_identical_rankings(&bare, &observed);
        for (x, y) in bare.iter().zip(&observed) {
            match (&x.refined, &y.refined) {
                (Some(rx), Some(ry)) => assert_eq!(
                    rx.total_time.get().to_bits(),
                    ry.total_time.get().to_bits()
                ),
                (None, None) => {}
                _ => panic!("refinement outcome differs with observation"),
            }
        }
        let c = obs.counters();
        assert_eq!(c["search.refine.attempted"], 4);
        assert_eq!(
            c["search.refine.attempted"],
            c["search.refine.accepted"] + c["search.refine.rejected"]
        );
        // The refinement backend reports through the same observer.
        assert_eq!(c["backend.sim.evaluations"], c["search.refine.attempted"]);
        assert!(c["sim.des.runs"] >= c["search.refine.accepted"]);
        // Refinement must not record per-device samples that would only
        // describe the last refined candidate.
        assert!(obs.report("search").devices.is_empty());
        let phases: Vec<String> = obs
            .report("search")
            .phases
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert!(phases.contains(&"search.refine".to_string()));
    }

    /// The reference the batched explorer is checked against: every
    /// mapping's whole tuning ladder priced one rung at a time through
    /// `estimate_cached`, sized with `MemoryModel::footprint`, and folded on
    /// `(fits, −time)` — no closed-form truncation, no chunking, no pruning.
    fn brute_force(
        engine: &SearchEngine<'_>,
        training: &TrainingConfig,
    ) -> (Vec<Candidate>, SearchStats) {
        let mut cache = EstimateCache::new();
        let capacity = engine.accel.memory_bytes();
        let mappings = enumerate_mappings(engine.system, engine.model, &engine.enumeration);
        let mut stats = SearchStats {
            generated: mappings.len() as u64,
            ..SearchStats::default()
        };
        let mut ranked = Vec::new();
        for p in &mappings {
            let variants: Vec<Parallelism> = if engine.tune_microbatches {
                ladder(p, training).collect()
            } else {
                vec![*p]
            };
            let mut best: Option<Candidate> = None;
            let mut first_failure = None;
            for variant in variants {
                let estimate = Estimator::new(engine.model, engine.accel, engine.system, &variant)
                    .with_precision(engine.precision)
                    .with_efficiency(engine.efficiency.clone())
                    .with_options(engine.engine_options)
                    .estimate_cached(&mut cache, training)
                    .unwrap();
                let memory = engine
                    .memory_model(&variant)
                    .footprint(estimate.microbatch_size, estimate.num_microbatches);
                let fits_memory = memory.total() <= capacity;
                if engine.require_memory_fit && !fits_memory {
                    first_failure.get_or_insert(memory.capacity_failure(capacity));
                    continue;
                }
                let better = best.as_ref().is_none_or(|b| {
                    (fits_memory, std::cmp::Reverse(estimate.total_time.get()))
                        > (b.fits_memory, std::cmp::Reverse(b.estimate.total_time.get()))
                });
                if better {
                    let energy = EnergyEstimate::from_estimate(
                        &estimate,
                        &engine.power,
                        training.num_batches(),
                    );
                    best = Some(Candidate {
                        parallelism: variant,
                        estimate,
                        memory,
                        energy,
                        fits_memory,
                        refined: None,
                        resilience: None,
                    });
                }
            }
            match best {
                None => stats
                    .memory_rejected
                    .record(first_failure.expect("a mapping with no winner had a rejected rung")),
                Some(mut c) => {
                    if let Some(goodput) = &engine.goodput {
                        c.resilience = Some(engine.resilience_report(goodput, &c).unwrap());
                    }
                    ranked.push(c);
                }
            }
        }
        stats.kept = ranked.len() as u64;
        ranked.sort_by(candidate_order);
        (ranked, stats)
    }

    /// `brute_force`'s ranking cut to what a pruned search keeps: the
    /// candidates whose lower bound does not exceed the best objective.
    fn brute_force_pruned(engine: &SearchEngine<'_>, training: &TrainingConfig) -> Vec<Candidate> {
        let (ranked, _) = brute_force(engine, training);
        let best = ranked
            .iter()
            .map(Candidate::objective_time)
            .fold(f64::INFINITY, f64::min);
        let evaluator = engine.batch_evaluator();
        let mut cache = EstimateCache::new();
        let kernel = evaluator.prepare(&mut cache, training).unwrap();
        ranked
            .into_iter()
            .filter(|c| {
                let p = &c.parallelism;
                engine.candidate_lower_bound(&kernel, p, training).unwrap() <= best
            })
            .collect()
    }

    /// Every candidate field the batched path assembles, compared bitwise
    /// against the brute-force reference — stricter than
    /// `assert_identical_rankings`.
    fn assert_identical_candidates(a: &[Candidate], b: &[Candidate]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(parallelism_key(&x.parallelism), parallelism_key(&y.parallelism));
            assert_eq!(
                x.estimate.total_time.get().to_bits(),
                y.estimate.total_time.get().to_bits()
            );
            assert_eq!(
                x.estimate.time_per_iteration.get().to_bits(),
                y.estimate.time_per_iteration.get().to_bits()
            );
            assert_eq!(x.estimate.num_microbatches, y.estimate.num_microbatches);
            assert_eq!(
                x.estimate.microbatch_size.to_bits(),
                y.estimate.microbatch_size.to_bits()
            );
            assert_eq!(x.fits_memory, y.fits_memory);
            assert_eq!(x.memory.total().to_bits(), y.memory.total().to_bits());
            assert_eq!(
                x.energy.total_joules().to_bits(),
                y.energy.total_joules().to_bits()
            );
            match (&x.resilience, &y.resilience) {
                (Some(rx), Some(ry)) => {
                    assert_eq!(rx.expected_s.to_bits(), ry.expected_s.to_bits());
                }
                (None, None) => {}
                _ => panic!("resilience attachment differs between paths"),
            }
        }
    }

    #[test]
    fn batched_search_is_bit_identical_to_brute_force() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9));
        let (reference, _) = brute_force(&base, &training);
        assert_identical_candidates(&reference, &base.search(&training).unwrap());
    }

    #[test]
    fn batched_search_matches_brute_force_under_memory_filter_and_goodput() {
        let m = model();
        let a = accel();
        let sys = system(1, 2); // tight memory: the filter really rejects
        let training = TrainingConfig::new(64, 100).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_memory_filter(true)
            .with_goodput(GoodputOptions::new(1e6));
        let (reference, _) = brute_force(&base, &training);
        assert_identical_candidates(&reference, &base.search(&training).unwrap());
        assert!(reference.iter().all(|c| c.resilience.is_some()));
    }

    #[test]
    fn batched_pruned_search_matches_brute_force_pruned() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_pruning(true);
        let reference = brute_force_pruned(&base, &training);
        assert_identical_candidates(&reference, &base.search(&training).unwrap());
    }

    #[test]
    fn batched_search_through_a_cache_pool_stays_bit_identical() {
        let m = model();
        let a = accel();
        let sys = system(4, 8);
        let training = TrainingConfig::new(512, 10).unwrap();
        let base = SearchEngine::new(&m, &a, &sys).with_efficiency(EfficiencyModel::Constant(0.5));
        let (reference, _) = brute_force(&base, &training);
        let pool = Arc::new(CachePool::new());
        let pooled = base.with_cache_pool(pool.clone());
        // Cold pool, then warm pool: both bit-identical to the reference —
        // warming a cache never changes a kernel result.
        let cold = pooled.search(&training).unwrap();
        assert_identical_candidates(&reference, &cold);
        let warm = pooled.search(&training).unwrap();
        assert_identical_candidates(&reference, &warm);
    }

    /// Every number an [`Estimate`] carries, as bits.
    fn estimate_bits(e: &Estimate) -> Vec<u64> {
        let mut bits: Vec<u64> =
            e.breakdown.components().iter().map(|(_, x)| x.to_bits()).collect();
        bits.extend(
            [
                e.time_per_iteration.get(),
                e.total_time.get(),
                e.microbatch_size,
                e.efficiency,
                e.model_flops_per_iteration,
                e.tflops_per_gpu,
                e.tokens_per_sec,
            ]
            .map(f64::to_bits),
        );
        bits.extend([e.num_microbatches as u64, e.total_workers as u64]);
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The kernel's ladder fold against the path it replaced: price
        /// every rung with `estimate_many`, size it with its own footprint,
        /// and fold on `(fits, −time)`, first rung winning ties. Winner,
        /// fit and estimate agree bit for bit; an invalid mapping fails
        /// with the same error either way.
        #[test]
        fn ladder_fold_matches_estimate_many_and_the_fold(
            preset in 0usize..amped_configs::registry::model_names().len(),
            (nodes_exp, per_node_exp, batch_exp) in (0u32..4, 0u32..4, 4u32..12),
            (recompute, memory_filter, tune) in (0u8..2, 0u8..2, 0u8..2),
        ) {
            use amped_configs::{accelerators, efficiency, registry, systems};
            let name = registry::model_names()[preset];
            let model = registry::model(name).expect("listed preset resolves");
            let a100 = accelerators::a100();
            let system = systems::a100_hdr_cluster(1 << nodes_exp, 1 << per_node_exp);
            let training = TrainingConfig::new(1 << batch_exp, 10).expect("valid");
            let engine = SearchEngine::new(&model, &a100, &system)
                .with_efficiency(efficiency::case_study())
                .with_engine_options(EngineOptions {
                    activation_recompute: recompute == 1,
                    stage_imbalance_correction: true,
                    ..Default::default()
                })
                .with_memory_filter(memory_filter == 1)
                .with_microbatch_tuning(tune == 1);
            let require_fit = engine.require_memory_fit;
            let capacity = a100.memory_bytes();
            let evaluator = engine.batch_evaluator();
            let mut cache = EstimateCache::new();
            let kernel = evaluator.prepare(&mut cache, &training).expect("valid shared inputs");
            let mappings = enumerate_mappings(&system, &model, &engine.enumeration);
            for p in &mappings {
                let variants: Vec<Parallelism> = if engine.tune_microbatches {
                    ladder(p, &training).collect()
                } else {
                    vec![*p]
                };
                let estimates = kernel.estimate_many(&mut cache, &variants);
                let mut want: Option<(usize, bool, &Estimate)> = None;
                let mut flags = Vec::with_capacity(variants.len());
                for (k, (v, priced)) in variants.iter().zip(&estimates).enumerate() {
                    let estimate = priced.as_ref().expect("enumerated mappings are valid");
                    let fits = engine
                        .memory_model(v)
                        .footprint(estimate.microbatch_size, estimate.num_microbatches)
                        .total()
                        <= capacity;
                    flags.push(fits);
                    if require_fit && !fits {
                        continue;
                    }
                    let time = estimate.total_time.get();
                    if want.is_none_or(|(_, b_fits, b)| {
                        (fits, std::cmp::Reverse(time))
                            > (b_fits, std::cmp::Reverse(b.total_time.get()))
                    }) {
                        want = Some((k, fits, estimate));
                    }
                }
                let rungs = variants.iter().copied().zip(flags.iter().copied());
                let got = kernel.best_rung(&mut cache, rungs, require_fit).expect("valid mapping");
                match (want, got) {
                    (None, None) => {}
                    (Some((index, fits, estimate)), Some(best)) => {
                        prop_assert_eq!(best.index, index, "{}: {:?}", name, p);
                        prop_assert_eq!(best.fits_memory, fits);
                        prop_assert_eq!(
                            parallelism_key(&best.parallelism),
                            parallelism_key(&variants[index])
                        );
                        prop_assert_eq!(
                            best.parallelism.microbatch_policy(),
                            variants[index].microbatch_policy()
                        );
                        prop_assert_eq!(estimate_bits(&best.estimate), estimate_bits(estimate));
                    }
                    (want, got) => prop_assert!(
                        false,
                        "{name}: {p:?}: fold kept {:?}, kernel kept {:?}",
                        want.map(|w| w.0),
                        got.map(|g| g.index)
                    ),
                }
            }
            // An invalid mapping: the same error from both paths, even when
            // every rung would be skipped unpriced.
            let bad = Parallelism::builder()
                .tp(system.accels_per_node(), 1)
                .dp(1, system.num_nodes() + 1)
                .build()
                .expect("well-formed degrees");
            let old = kernel.estimate_many(&mut cache, &[bad]).remove(0).unwrap_err();
            for fits in [true, false] {
                let new = kernel.best_rung(&mut cache, [(bad, fits)], true).unwrap_err();
                prop_assert_eq!(new.to_string(), old.to_string());
            }
        }
    }

    #[test]
    fn search_stats_reconcile_and_classify_memory_rejections() {
        let m = model();
        let a = accel();
        let sys = system(1, 2); // tight memory: rejections occur
        let training = TrainingConfig::new(64, 1).unwrap();
        let base = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .with_memory_filter(true);
        let (results, stats) = base.clone().search_with_stats(&training).unwrap();
        assert_eq!(stats.kept, results.len() as u64);
        assert_eq!(
            stats.generated,
            stats.pruned + stats.kept + stats.memory_rejected.total()
        );
        assert!(
            stats.memory_rejected.total() > 0,
            "a 2-device cluster cannot fit every mapping of a 4096-hidden model"
        );
        // The closed-form solve classifies rejections exactly as sizing
        // every rung does.
        let (_, reference_stats) = brute_force(&base, &training);
        assert_eq!(stats, reference_stats);
        // The filter runs before any pruning, so pruning changes only the
        // pruned/kept split, never the rejections.
        let (_, pruned) = base.clone().with_pruning(true).search_with_stats(&training).unwrap();
        assert_eq!(pruned.memory_rejected, stats.memory_rejected);
        assert_eq!(pruned.generated, pruned.pruned + pruned.kept + pruned.memory_rejected.total());
        // Without the filter nothing is memory-rejected.
        let (_, open) = SearchEngine::new(&m, &a, &sys)
            .with_efficiency(EfficiencyModel::Constant(0.5))
            .search_with_stats(&training)
            .unwrap();
        assert_eq!(open.memory_rejected.total(), 0);
        assert_eq!(open.generated, open.kept);
    }
}

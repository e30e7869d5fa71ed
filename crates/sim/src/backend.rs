//! The discrete-event simulator as a [`CostBackend`].
//!
//! [`SimBackend`] makes the simulator consumable wherever the analytical
//! model is: the search's refinement pass, the CLI's `--backend sim`, and
//! the differential/regression tests all price a [`Scenario`] through the
//! same trait and read the same [`Estimate`] shape.
//!
//! # Breakdown attribution
//!
//! The simulator produces a task timeline, not Eq. 2–12 component sums, so
//! the [`Breakdown`](amped_core::Breakdown) is *re-attributed* from task
//! labels ([`BreakdownFidelity::Approximate`]):
//!
//! * `fwd` / `bwd` / `wupd` compute tasks map to the three compute
//!   components. Tensor-parallel and MoE collective time is folded into
//!   stage compute durations by the simulator's fidelity boundary, so
//!   `tp_comm_*` and `moe_comm` are always zero here and their time rides
//!   in `compute_forward`/`compute_backward`.
//! * `act>` / `err<` stage-boundary transfers map to `pp_comm`.
//! * Gradient-sync transfers map to `dp_comm_intra`/`dp_comm_inter` (the
//!   hierarchical phases by name; a flat ring by whether the mapping
//!   crosses nodes).
//! * Everything are per-device averages (total task seconds divided by the
//!   device count), matching the analytical model's per-worker accounting;
//!   `bubble` absorbs the remaining makespan so
//!   `Breakdown::total() == time_per_iteration` whenever attributed time
//!   does not exceed the makespan (it is clamped at zero otherwise).

use std::sync::Arc;

use amped_core::{
    metrics, BreakdownFidelity, CostBackend, Error, Estimate, Result, Scenario, Seconds,
    TrainingConfig,
};
use amped_memory::{MemoryModel, PipelineSchedule as MemorySchedule};
use amped_obs::Observer;

use crate::fault::FaultPlan;
use crate::timeline::Activity;
use crate::training::{PipelineSchedule, SimConfig};

/// The `amped-sim` discrete-event simulator behind the [`CostBackend`]
/// contract.
///
/// Deterministic: the simulator is event-ordered with stable tie-breaking,
/// and fault schedules are pure functions of their seed, so repeated
/// evaluations of one scenario are bit-identical — which is what lets the
/// search's `--refine-sim` pass re-rank candidates reproducibly.
#[derive(Debug, Clone, Default)]
pub struct SimBackend {
    schedule: PipelineSchedule,
    fault_plan: Option<FaultPlan>,
    observer: Option<Arc<Observer>>,
    skip_device_samples: bool,
}

impl SimBackend {
    /// A simulator backend running the default (GPipe) schedule — the
    /// schedule of the paper's experimental validation.
    pub fn new() -> Self {
        SimBackend::default()
    }

    /// Choose the pipeline schedule simulated for every scenario.
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Price scenarios under a fault plan: each evaluation becomes a full
    /// [`SimConfig::simulate_run`] replay (stragglers, link faults,
    /// checkpoints, seeded failures) instead of `iteration × batches`. An
    /// inactive plan (no seed) changes nothing — outputs stay bit-identical
    /// to a backend that never saw a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The configured fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Attach an observer: each evaluation records a `sim.evaluate` span,
    /// bumps `backend.sim.evaluations`, and forwards the observer into the
    /// simulator so DES internals (`sim.des.*`) are captured too. Attaching
    /// an observer never changes any estimate — instrumentation is passive.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Do not record per-device utilization samples. The search's parallel
    /// refine pass uses this: device samples are last-writer-wins, which
    /// would make the metrics report depend on worker scheduling.
    pub fn without_device_samples(mut self) -> Self {
        self.skip_device_samples = true;
        self
    }

    /// The configured pipeline schedule.
    pub fn schedule(&self) -> PipelineSchedule {
        self.schedule
    }

    /// The memory-model schedule matching the simulated one (the memory
    /// model has no interleaved variant; interleaving keeps 1F1B's
    /// in-flight bound per chunk).
    fn memory_schedule(&self) -> MemorySchedule {
        match self.schedule {
            PipelineSchedule::GPipe => MemorySchedule::GPipe,
            PipelineSchedule::OneFOneB | PipelineSchedule::Interleaved { .. } => {
                MemorySchedule::OneFOneB
            }
        }
    }

    /// The Fig. 2b feasibility gate: per-stage peak footprints, with the
    /// torchgpipe last-stage microbatch gather under GPipe — the effect
    /// that caps the paper's pipeline scaling at 8 GPUs.
    ///
    /// # Errors
    ///
    /// Returns an error naming the worst stage when its footprint exceeds
    /// the accelerator memory, so refined rankings can never surface a
    /// memory-infeasible candidate.
    fn check_memory(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<()> {
        let p = &scenario.parallelism;
        let global_batch = training.global_batch();
        let ub = p.microbatch_size(global_batch);
        let n_ub = p.num_microbatches(global_batch);
        let gather_on_last_stage = matches!(self.schedule, PipelineSchedule::GPipe) && p.pp() > 1;
        let mem = MemoryModel::from_scenario(scenario).with_schedule(self.memory_schedule());
        let stages = mem.stage_footprints(ub, n_ub, gather_on_last_stage);
        let capacity = scenario.accelerator.memory_bytes();
        let (worst_stage, worst) = stages
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total().total_cmp(&b.1.total()))
            .expect("at least one pipeline stage");
        if worst.total() > capacity {
            return Err(Error::invalid(
                "sim-backend",
                format!(
                    "stage {worst_stage} needs {:.2} GB but {} has {:.2} GB \
                     (microbatch {ub}, {n_ub} microbatches)",
                    worst.total() / 1e9,
                    scenario.accelerator.name(),
                    capacity / 1e9,
                ),
            ));
        }
        Ok(())
    }
}

impl CostBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn breakdown_fidelity(&self) -> BreakdownFidelity {
        BreakdownFidelity::Approximate
    }

    fn evaluate(&self, scenario: &Scenario, training: &TrainingConfig) -> Result<Estimate> {
        let _span = self.observer.as_ref().map(|o| o.span("sim.evaluate"));
        if let Some(obs) = &self.observer {
            obs.add("backend.sim.evaluations", 1);
        }
        let p = &scenario.parallelism;
        p.validate_against(&scenario.system, &scenario.model)?;
        self.check_memory(scenario, training)?;

        let global_batch = training.global_batch();
        let mut cfg = SimConfig::from_scenario(scenario).with_schedule(self.schedule);
        if let Some(obs) = &self.observer {
            cfg = cfg.with_observer(obs.clone());
            if self.skip_device_samples {
                cfg = cfg.without_device_samples();
            }
        }

        // An active fault plan turns the evaluation into a full-run replay;
        // otherwise the original iteration × batches path runs untouched.
        let active_plan = self.fault_plan.as_ref().filter(|plan| plan.is_active());
        let (result, total_time) = match active_plan {
            Some(plan) => {
                let run = cfg.simulate_run(global_batch, training.num_batches(), plan)?;
                let total = run.total_time_s;
                (run.iteration, total)
            }
            None => {
                let r = cfg.simulate_iteration(global_batch)?;
                let total = r.iteration_time * training.num_batches() as f64;
                (r, total)
            }
        };

        let devices = result.timeline.num_devices().max(1) as f64;
        let mut b = amped_core::Breakdown::default();
        for e in result.timeline.entries() {
            let share = (e.end_s - e.start_s) / devices;
            match (e.activity, e.label) {
                (Activity::Compute, "fwd") => b.compute_forward += share,
                (Activity::Compute, "bwd") => b.compute_backward += share,
                (Activity::Compute, "wupd") => b.weight_update += share,
                (Activity::Comm, "act>") | (Activity::Comm, "err<") => b.pp_comm += share,
                (Activity::Comm, "gsync-rs") | (Activity::Comm, "gsync-ag") => {
                    b.dp_comm_intra += share
                }
                (Activity::Comm, "gsync-x") => b.dp_comm_inter += share,
                (Activity::Comm, "gsync") => {
                    if p.dp_inter() > 1 {
                        b.dp_comm_inter += share;
                    } else {
                        b.dp_comm_intra += share;
                    }
                }
                _ => {}
            }
        }
        let attributed = b.compute_total() + b.comm_total();
        b.bubble = (result.iteration_time - attributed).max(0.0);

        let time_per_iteration = result.iteration_time;
        let model_flops = metrics::model_flops_per_iteration(
            &scenario.model,
            global_batch,
            scenario.options.activation_recompute,
        );
        let workers = p.total_workers() as f64;
        let tokens_per_sec = if time_per_iteration > 0.0 {
            (global_batch * scenario.model.seq_len()) as f64 / time_per_iteration
        } else {
            0.0
        };
        Ok(Estimate {
            breakdown: b,
            time_per_iteration: Seconds::new(time_per_iteration),
            total_time: Seconds::new(total_time),
            microbatch_size: result.microbatch_size,
            num_microbatches: result.num_microbatches,
            efficiency: scenario.efficiency.eval(result.microbatch_size),
            model_flops_per_iteration: model_flops,
            tflops_per_gpu: metrics::tflops_per_gpu(model_flops, time_per_iteration, workers),
            total_workers: p.total_workers(),
            tokens_per_sec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::{
        AcceleratorSpec, EfficiencyModel, Link, MicrobatchPolicy, Parallelism, SystemSpec,
        TransformerModel,
    };

    fn scenario(p: Parallelism, nodes: usize, per_node: usize) -> Scenario {
        let model = TransformerModel::builder("sim-backend-m")
            .layers(12)
            .hidden_size(768)
            .heads(12)
            .seq_len(512)
            .vocab_size(50257)
            .include_head(false)
            .build()
            .unwrap();
        let accel = AcceleratorSpec::builder("V100")
            .frequency_hz(1.53e9)
            .cores(80)
            .mac_units(8, 64, 16)
            .nonlin_units(80, 64, 32)
            .memory(32e9, 0.9e12)
            .build()
            .unwrap();
        let system = SystemSpec::new(
            nodes,
            per_node,
            Link::new(5e-6, 2.4e12),
            Link::new(1e-5, 1e11),
            per_node,
        )
        .unwrap();
        Scenario::new(model, accel, system, p)
            .with_efficiency(EfficiencyModel::Constant(0.5))
    }

    #[test]
    fn sim_backend_matches_raw_simulation_makespan() {
        let p = Parallelism::builder()
            .pp(4, 1)
            .dp(2, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let s = scenario(p, 1, 8);
        let training = TrainingConfig::new(64, 5).unwrap();
        let est = SimBackend::new().evaluate(&s, &training).unwrap();
        let raw = SimConfig::new(&s.model, &s.accelerator, &s.system, &s.parallelism)
            .with_efficiency(s.efficiency.clone())
            .simulate_iteration(64)
            .unwrap();
        assert_eq!(
            est.time_per_iteration.get().to_bits(),
            raw.iteration_time.to_bits()
        );
        assert_eq!(
            est.total_time.get().to_bits(),
            (raw.iteration_time * 5.0).to_bits()
        );
        assert_eq!(est.num_microbatches, raw.num_microbatches);
    }

    #[test]
    fn breakdown_total_reconstructs_the_iteration_time() {
        let p = Parallelism::builder()
            .pp(4, 1)
            .dp(2, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let s = scenario(p, 1, 8);
        let est = SimBackend::new()
            .evaluate(&s, &TrainingConfig::new(64, 1).unwrap())
            .unwrap();
        let b = &est.breakdown;
        assert!(b.compute_forward > 0.0);
        assert!(b.compute_backward > 0.0);
        assert!(b.pp_comm > 0.0, "stage transfers must be attributed");
        assert!(b.dp_comm_intra > 0.0, "grad sync must be attributed");
        // TP/MoE are folded into compute by the simulator's fidelity
        // boundary.
        assert_eq!(b.tp_comm_intra, 0.0);
        assert_eq!(b.moe_comm, 0.0);
        let total = b.total();
        let t = est.time_per_iteration.get();
        assert!(
            (total - t).abs() <= 1e-9 * t,
            "breakdown total {total} vs makespan {t}"
        );
        assert!(b.bubble > 0.0, "a 4-stage GPipe run has a bubble");
    }

    #[test]
    fn default_evaluate_many_is_a_bitwise_passthrough() {
        // SimBackend keeps the trait's default `evaluate_many` (a loop
        // over `evaluate`): batched results must match per-candidate calls
        // bit-for-bit, including per-slot errors for invalid mappings.
        let base = Parallelism::builder().pp(2, 1).dp(4, 1).build().unwrap();
        let s = scenario(base, 1, 8);
        let training = TrainingConfig::new(32, 3).unwrap();
        let mappings = vec![
            base,
            Parallelism::builder().pp(4, 1).dp(2, 1).build().unwrap(),
            Parallelism::builder().pp(2, 1).build().unwrap(), // invalid: 2 != 8
            Parallelism::builder().dp(8, 1).build().unwrap(),
        ];
        let backend = SimBackend::new();
        let batched = backend.evaluate_many(&s, &mappings, &training);
        assert_eq!(batched.len(), mappings.len());
        for (p, b) in mappings.iter().zip(&batched) {
            let scalar = backend.evaluate(&s.clone().with_parallelism(*p), &training);
            match (scalar, b) {
                (Ok(scalar), Ok(b)) => assert_eq!(
                    scalar.total_time.get().to_bits(),
                    b.total_time.get().to_bits()
                ),
                (Err(_), Err(_)) => {}
                (scalar, b) => panic!("outcome mismatch: {scalar:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn evaluations_are_deterministic() {
        let p = Parallelism::builder().pp(2, 1).dp(4, 1).build().unwrap();
        let s = scenario(p, 1, 8);
        let training = TrainingConfig::new(32, 3).unwrap();
        let backend: &dyn CostBackend = &SimBackend::new();
        assert_eq!(backend.name(), "sim");
        assert_eq!(backend.breakdown_fidelity(), BreakdownFidelity::Approximate);
        let a = backend.evaluate(&s, &training).unwrap();
        let b = backend.evaluate(&s, &training).unwrap();
        assert_eq!(
            a.total_time.get().to_bits(),
            b.total_time.get().to_bits()
        );
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_no_plan() {
        let p = Parallelism::builder()
            .pp(2, 1)
            .dp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let s = scenario(p, 1, 8);
        let training = TrainingConfig::new(64, 4).unwrap();
        let plain = SimBackend::new().evaluate(&s, &training).unwrap();
        let inert = SimBackend::new()
            .with_fault_plan(FaultPlan::none().with_random_stragglers(3, 2.0))
            .evaluate(&s, &training)
            .unwrap();
        assert_eq!(
            plain.total_time.get().to_bits(),
            inert.total_time.get().to_bits()
        );
        assert_eq!(
            plain.time_per_iteration.get().to_bits(),
            inert.time_per_iteration.get().to_bits()
        );
    }

    #[test]
    fn active_fault_plan_extends_the_total_time() {
        let p = Parallelism::builder()
            .pp(2, 1)
            .dp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let s = scenario(p, 1, 8);
        let training = TrainingConfig::new(64, 20).unwrap();
        let plain = SimBackend::new().evaluate(&s, &training).unwrap();
        let iter = plain.time_per_iteration.get();
        let faulted = SimBackend::new()
            .with_fault_plan(
                FaultPlan::seeded(7)
                    .with_random_stragglers(1, 1.5)
                    .with_device_mtbf(8.0 * 30.0 * iter)
                    .with_restart(iter),
            )
            .evaluate(&s, &training)
            .unwrap();
        assert!(
            faulted.total_time.get() > plain.total_time.get(),
            "faults must cost time: {} vs {}",
            faulted.total_time.get(),
            plain.total_time.get()
        );
        assert!(faulted.time_per_iteration.get() > plain.time_per_iteration.get());
        // Deterministic replay: same plan, same bits.
        let again = SimBackend::new()
            .with_fault_plan(
                FaultPlan::seeded(7)
                    .with_random_stragglers(1, 1.5)
                    .with_device_mtbf(8.0 * 30.0 * iter)
                    .with_restart(iter),
            )
            .evaluate(&s, &training)
            .unwrap();
        assert_eq!(
            faulted.total_time.get().to_bits(),
            again.total_time.get().to_bits()
        );
    }

    #[test]
    fn observed_backend_is_bit_identical_and_counts_evaluations() {
        let p = Parallelism::builder()
            .pp(2, 1)
            .dp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let s = scenario(p, 1, 8);
        let training = TrainingConfig::new(64, 4).unwrap();
        let plain = SimBackend::new().evaluate(&s, &training).unwrap();
        let obs = Arc::new(Observer::new());
        let observed = SimBackend::new()
            .with_observer(obs.clone())
            .evaluate(&s, &training)
            .unwrap();
        assert_eq!(
            plain.total_time.get().to_bits(),
            observed.total_time.get().to_bits()
        );
        let counters = obs.counters();
        assert_eq!(counters["backend.sim.evaluations"], 1);
        assert_eq!(counters["sim.des.runs"], 1);
        assert!(counters["sim.des.events_processed"] > 0);
        assert!(obs.gauges()["sim.des.max_queue_depth"] > 0.0);
        // Device samples are on by default and skippable for parallel use.
        assert!(!obs.report("t").devices.is_empty());
        let quiet = Arc::new(Observer::new());
        SimBackend::new()
            .with_observer(quiet.clone())
            .without_device_samples()
            .evaluate(&s, &training)
            .unwrap();
        assert!(quiet.report("t").devices.is_empty());
    }

    #[test]
    fn memory_infeasible_candidates_are_rejected() {
        // One microbatch of the whole replica batch on a GPipe pipeline:
        // the last stage gathers every output and a tiny device runs out.
        let p = Parallelism::builder()
            .pp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(1))
            .build()
            .unwrap();
        let mut s = scenario(p, 1, 4);
        s.accelerator = AcceleratorSpec::builder("tiny")
            .frequency_hz(1.53e9)
            .cores(80)
            .mac_units(8, 64, 16)
            .nonlin_units(80, 64, 32)
            .memory(0.2e9, 0.9e12)
            .build()
            .unwrap();
        let err = SimBackend::new()
            .evaluate(&s, &TrainingConfig::new(4096, 1).unwrap())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("GB"), "unexpected error: {msg}");
    }
}

//! Building and running full training-iteration task graphs.
//!
//! [`SimConfig`] lowers one optimizer step of distributed transformer
//! training — microbatched pipeline (GPipe, 1F1B or interleaved) over
//! `N_PP` stages, replicated `N_DP` ways, with ring gradient all-reduce and
//! weight update — into one [`TaskGraph`] and executes it.

use amped_core::counts::LayerCounts;
use amped_core::{
    even_split, AcceleratorSpec, EfficiencyModel, EngineOptions, Error, LayerKind, Parallelism,
    Precision, Result, Scenario, SystemSpec, TransformerModel,
};
use amped_memory::MemoryModel;
use amped_obs::{DeviceUtil, Observer};
use amped_topo::Collective;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

use crate::des::{DeviceStats, NetworkParams, Simulator};
use crate::fault::{FaultPlan, FaultSchedule, SplitMix64};
use crate::graph::{LinkClass, TaskGraph, TaskId, TaskKind};
use crate::timeline::Timeline;

/// Pipeline execution schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum PipelineSchedule {
    /// All forward microbatches, then all backward (Huang et al. 2018).
    #[default]
    GPipe,
    /// One-forward-one-backward steady state (PipeDream-flush /
    /// Megatron-LM's non-interleaved schedule).
    OneFOneB,
    /// Megatron-LM's interleaved schedule: each device owns
    /// `virtual_stages` model chunks, shrinking the bubble by roughly the
    /// interleaving factor at the cost of `virtual_stages`× the stage
    /// boundary traffic. The analytical model captures this as `R = 1/v`
    /// ([`Parallelism::interleaved`](amped_core::Parallelism)).
    Interleaved {
        /// Model chunks per device (`v ≥ 1`; `1` degenerates to GPipe).
        virtual_stages: usize,
    },
}

impl PipelineSchedule {
    /// Model chunks each pipeline device holds: `virtual_stages` for an
    /// interleaved schedule with more than one, else 1.
    fn chunks_per_device(self) -> usize {
        match self {
            PipelineSchedule::Interleaved { virtual_stages } if virtual_stages > 1 => {
                virtual_stages
            }
            _ => 1,
        }
    }
}


/// The outcome of simulating one training iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall-clock seconds of the iteration.
    pub iteration_time: f64,
    /// Per-device accounting.
    pub device_stats: Vec<DeviceStats>,
    /// Full activity timeline (Fig.-1-style traces).
    pub timeline: Timeline,
    /// Mean compute utilization across devices.
    pub mean_utilization: f64,
    /// Resolved microbatch count.
    pub num_microbatches: usize,
    /// Resolved microbatch size in samples.
    pub microbatch_size: f64,
    /// Total bytes moved over intra-node links this iteration.
    pub intra_bytes: f64,
    /// Total bytes moved over inter-node links this iteration.
    pub inter_bytes: f64,
}

/// What one wall-clock slice of a replayed run was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunSpan {
    /// Forward-progress training iterations.
    Train,
    /// A synchronous checkpoint commit.
    Checkpoint,
    /// Progress discarded by a failure (recomputed after restart).
    Lost,
    /// Restart overhead after a failure.
    Restart,
    /// Training at reduced DP width while an outage regrows: iterations
    /// still complete, but each takes `dp/(dp - k)` times longer.
    Shrunk,
    /// Re-replicating state onto regrown capacity after a shrink window.
    Regrow,
}

/// One wall-clock slice of a replayed run, for run-level trace export
/// ([`crate::trace::run_to_chrome_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunEvent {
    /// What the slice was spent on.
    pub span: RunSpan,
    /// Start of the slice, seconds since run start.
    pub start_s: f64,
    /// End of the slice, seconds since run start.
    pub end_s: f64,
}

/// The outcome of simulating a full training run under a [`FaultPlan`]:
/// the fault-perturbed iteration replayed over every batch with periodic
/// checkpoint writes, seeded transient failures, and restart-from-
/// checkpoint rework.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total wall-clock seconds of the run, everything included.
    pub total_time_s: f64,
    /// Seconds the run would take with no faults injected at all.
    pub fault_free_time_s: f64,
    /// Seconds per iteration under stragglers/link faults (no checkpoints).
    pub iteration_time_s: f64,
    /// Seconds of the iteration that also carries the checkpoint write.
    pub ckpt_iteration_time_s: f64,
    /// Iterations between checkpoints (the resolved interval).
    pub ckpt_interval_iters: u64,
    /// Total seconds spent writing checkpoints.
    pub checkpoint_time_s: f64,
    /// Total seconds lost to failures: discarded progress plus restarts.
    pub rework_time_s: f64,
    /// Failures the run survived.
    pub num_failures: u64,
    /// Checkpoints the run committed.
    pub num_checkpoints: u64,
    /// Correlated rack/pod outages that struck the run.
    pub num_domain_outages: u64,
    /// Spot preemptions that struck the run.
    pub num_preemptions: u64,
    /// Extra seconds spent in elastic shrink/regrow windows (slowdown
    /// relative to full-width iterations, plus re-replication costs).
    pub elastic_overhead_s: f64,
    /// Detail of the fault-perturbed iteration (timeline, device stats).
    pub iteration: SimResult,
    /// Wall-clock slices of the replay (train / checkpoint / lost /
    /// restart / shrunk / regrow), in time order — the run-level trace.
    pub events: Vec<RunEvent>,
}

impl RunResult {
    /// Fraction of wall-clock time spent making forward progress.
    pub fn goodput(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.fault_free_time_s / self.total_time_s
        } else {
            1.0
        }
    }
}

/// Configuration of a training-iteration simulation.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct SimConfig<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    parallelism: &'a Parallelism,
    precision: Precision,
    efficiency: EfficiencyModel,
    options: EngineOptions,
    schedule: PipelineSchedule,
    grad_sync: bool,
    faults: Option<FaultSchedule>,
    ckpt_stage_s: Option<Vec<f64>>,
    observer: Option<Arc<Observer>>,
    record_devices: bool,
}

impl<'a> SimConfig<'a> {
    /// A simulation of `model` on `system`'s accelerators under
    /// `parallelism`, with default precision/efficiency/options.
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
        parallelism: &'a Parallelism,
    ) -> Self {
        SimConfig {
            model,
            accel,
            system,
            parallelism,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            options: EngineOptions::default(),
            schedule: PipelineSchedule::default(),
            grad_sync: true,
            faults: None,
            ckpt_stage_s: None,
            observer: None,
            record_devices: true,
        }
    }

    /// A simulation of `scenario`'s model and mapping under its precision,
    /// efficiency and engine options.
    pub fn from_scenario(scenario: &'a Scenario) -> Self {
        SimConfig::new(
            &scenario.model,
            &scenario.accelerator,
            &scenario.system,
            &scenario.parallelism,
        )
        .with_precision(scenario.precision)
        .with_efficiency(scenario.efficiency.clone())
        .with_options(scenario.options)
    }

    /// Record DES internals, run counters, and per-device busy fractions
    /// into `observer`. Passive: simulated times are bit-identical with or
    /// without it.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Keep counters/spans but skip the per-device utilization samples —
    /// for callers (the search's sim-refine pass) that run many
    /// simulations concurrently, where a nondeterministic last writer
    /// would make the metrics file unstable.
    pub fn without_device_samples(mut self) -> Self {
        self.record_devices = false;
        self
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
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Choose the pipeline schedule (default GPipe, as in the paper's PP
    /// validation which uses torchgpipe).
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Include gradient synchronization (default true).
    pub fn with_grad_sync(mut self, yes: bool) -> Self {
        self.grad_sync = yes;
        self
    }

    /// Execute under a resolved fault schedule: straggler devices stretch
    /// their compute tasks and degraded links stretch transfers inside
    /// their windows. Without this call the executor never consults fault
    /// state.
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Append a synchronous checkpoint write to the iteration: one `"ckpt"`
    /// compute task per pipeline stage on its dp-rank-0 device, of the
    /// given duration, depending on the stage's weight update. Durations
    /// normally come from [`SimConfig::checkpoint_stage_seconds`].
    pub fn with_checkpoint_writes(mut self, stage_seconds: Vec<f64>) -> Self {
        self.ckpt_stage_s = Some(stage_seconds);
        self
    }

    /// Seconds each pipeline stage needs to drain its checkpointable state
    /// — weights plus optimizer, from the `amped-memory` footprint model —
    /// to stable storage at `write_bytes_per_s`. One DP rank writes per
    /// stage (the others hold replicas).
    pub fn checkpoint_stage_seconds(
        &self,
        global_batch: usize,
        write_bytes_per_s: f64,
    ) -> Vec<f64> {
        let p = self.parallelism;
        let ub = p.microbatch_size(global_batch);
        let n_ub = p.num_microbatches(global_batch);
        MemoryModel::new(self.model, p)
            .with_precision(self.precision)
            .stage_footprints(ub, n_ub, false)
            .iter()
            .map(|fp| fp.checkpoint_bytes() / write_bytes_per_s)
            .collect()
    }

    /// Simulate one optimizer step at `global_batch` sequences.
    ///
    /// # Errors
    ///
    /// Returns an error when the parallelism mapping does not fit the
    /// system/model or any component fails validation.
    pub fn simulate_iteration(&self, global_batch: usize) -> Result<SimResult> {
        self.precision.validate()?;
        self.efficiency.validate()?;
        self.options.validate()?;
        self.parallelism.validate_against(self.system, self.model)?;
        if global_batch == 0 {
            return Err(Error::invalid("simulation", "batch must be positive"));
        }

        let graph = self.build_graph(global_batch)?;
        let network = NetworkParams {
            intra_latency_s: self.system.intra().latency_s,
            intra_bw_bps: self.system.intra().bandwidth_bits_per_sec,
            inter_latency_s: self.system.inter().latency_s,
            inter_bw_bps: self.system.inter_bandwidth_per_accel(),
        };
        let mut simulator = Simulator::new(network);
        if let Some(schedule) = &self.faults {
            simulator = simulator.with_fault_schedule(schedule.clone());
        }
        if let Some(obs) = &self.observer {
            simulator = simulator.with_observer(Arc::clone(obs));
        }
        let outcome = simulator.run(&graph);
        if let Some(obs) = &self.observer {
            obs.add("sim.iterations", 1);
            if self.record_devices {
                let pp = self.parallelism.pp();
                obs.set_device_utilization(
                    outcome
                        .device_stats
                        .iter()
                        .enumerate()
                        .map(|(d, s)| DeviceUtil {
                            device: d,
                            stage: d % pp,
                            busy_fraction: s.utilization(outcome.makespan_s),
                        })
                        .collect(),
                );
            }
        }
        let n = outcome.device_stats.len().max(1);
        let mean_utilization = outcome
            .device_stats
            .iter()
            .map(|d| d.utilization(outcome.makespan_s))
            .sum::<f64>()
            / n as f64;

        Ok(SimResult {
            iteration_time: outcome.makespan_s,
            device_stats: outcome.device_stats,
            timeline: outcome.timeline,
            mean_utilization,
            num_microbatches: self.parallelism.num_microbatches(global_batch),
            microbatch_size: self.parallelism.microbatch_size(global_batch),
            intra_bytes: outcome.intra_bytes,
            inter_bytes: outcome.inter_bytes,
        })
    }

    /// Simulate a full training run of `num_batches` optimizer steps under
    /// `plan`.
    ///
    /// Three iteration graphs are priced through the discrete-event engine:
    /// healthy (the fault-free reference), fault-perturbed (stragglers and
    /// link faults applied), and fault-perturbed with per-stage checkpoint
    /// writes appended. The run then replays the perturbed iteration over
    /// every batch: checkpoints commit every `k` iterations (`k` from the
    /// plan's interval, or the Young/Daly optimum for the *measured*
    /// checkpoint cost), and transient failures — exponential arrivals
    /// seeded from the plan — discard progress back to the last checkpoint
    /// and charge the restart cost before replaying.
    ///
    /// With an inactive plan (no seed) nothing is injected and the result
    /// is exactly `num_batches` fault-free iterations.
    ///
    /// # Errors
    ///
    /// Returns an error when the plan or scenario fails validation,
    /// `num_batches` is zero, or the failure rate is so high the run cannot
    /// make progress (the replay gives up after `10_000 + 100·num_batches`
    /// failures).
    pub fn simulate_run(
        &self,
        global_batch: usize,
        num_batches: u64,
        plan: &FaultPlan,
    ) -> Result<RunResult> {
        plan.validate()?;
        if num_batches == 0 {
            return Err(Error::invalid("simulation", "run must have at least one batch"));
        }
        let mut base = self.clone();
        base.faults = None;
        base.ckpt_stage_s = None;
        let healthy = {
            let _span = self.observer.as_ref().map(|o| o.span("sim.iteration.healthy"));
            base.simulate_iteration(global_batch)?
        };
        let fault_free_time_s = healthy.iteration_time * num_batches as f64;
        if !plan.is_active() {
            return Ok(RunResult {
                total_time_s: fault_free_time_s,
                fault_free_time_s,
                iteration_time_s: healthy.iteration_time,
                ckpt_iteration_time_s: healthy.iteration_time,
                ckpt_interval_iters: num_batches,
                checkpoint_time_s: 0.0,
                rework_time_s: 0.0,
                num_failures: 0,
                num_checkpoints: 0,
                num_domain_outages: 0,
                num_preemptions: 0,
                elastic_overhead_s: 0.0,
                iteration: healthy,
                events: vec![RunEvent {
                    span: RunSpan::Train,
                    start_s: 0.0,
                    end_s: fault_free_time_s,
                }],
            });
        }

        let n_devices = self.parallelism.dp() * self.parallelism.pp();
        let schedule = plan.materialize(n_devices);
        let perturbed_cfg = base.with_fault_schedule(schedule);
        let perturbed = {
            let _span = self
                .observer
                .as_ref()
                .map(|o| o.span("sim.iteration.perturbed"));
            perturbed_cfg.simulate_iteration(global_batch)?
        };
        let t_iter = perturbed.iteration_time;

        // Checkpoint cost: the makespan delta of the same iteration with
        // the per-stage "ckpt" write tasks appended — overlap with other
        // devices' work is the simulator's to discover.
        let ckpt_enabled = plan.device_mtbf_s.is_some() || plan.ckpt_interval_s.is_some();
        let (t_ckpt_iter, ckpt_cost) = if ckpt_enabled {
            let _span = self
                .observer
                .as_ref()
                .map(|o| o.span("sim.iteration.checkpointed"));
            let writes =
                self.checkpoint_stage_seconds(global_batch, plan.ckpt_write_bytes_per_s);
            let with_ckpt = perturbed_cfg
                .clone()
                .with_checkpoint_writes(writes)
                .simulate_iteration(global_batch)?;
            let t = with_ckpt.iteration_time;
            (t, (t - t_iter).max(0.0))
        } else {
            (t_iter, 0.0)
        };

        let system_mtbf_s = plan.device_mtbf_s.map(|m| m / n_devices as f64);
        let interval_s = plan.ckpt_interval_s.unwrap_or_else(|| match system_mtbf_s {
            Some(m) => (2.0 * ckpt_cost * m).sqrt(),
            None => f64::INFINITY,
        });
        let interval_iters = if ckpt_enabled && interval_s.is_finite() && t_iter > 0.0 {
            ((interval_s / t_iter).round() as u64).clamp(1, num_batches)
        } else {
            num_batches
        };

        let _replay_span = self.observer.as_ref().map(|o| o.span("sim.replay"));
        let mut rng = SplitMix64::new(plan.seed.unwrap_or(0) ^ 0x4641_494C_5354_524D);
        let mut next_fail = system_mtbf_s.map(|m| rng.exp(m));
        let mut domain_stream = plan.domain_events();
        let mut next_domain = domain_stream.next();
        let dp = self.parallelism.dp();
        let max_failures = 10_000 + 100 * num_batches;
        let mut wall = 0.0f64;
        let mut done = 0u64;
        let mut num_failures = 0u64;
        let mut num_checkpoints = 0u64;
        let mut num_domain_outages = 0u64;
        let mut num_preemptions = 0u64;
        let mut checkpoint_time_s = 0.0f64;
        let mut rework_time_s = 0.0f64;
        let mut elastic_overhead_s = 0.0f64;
        let mut events = Vec::new();
        while done < num_batches {
            // Domain events that struck during downtime (restart, shrink)
            // are dropped: the renewal approximation restarts the clock.
            while next_domain.is_some_and(|e| e.at_s < wall) {
                next_domain = domain_stream.next();
            }
            let seg = interval_iters.min(num_batches - done);
            let seg_len =
                seg as f64 * t_iter + if ckpt_enabled { ckpt_cost } else { 0.0 };
            let fail_at = next_fail.filter(|&t| t < wall + seg_len);
            let dom_ev = next_domain.filter(|e| e.at_s < wall + seg_len);
            // A device failure and a domain event in the same segment:
            // the earlier one fires; an exact tie goes to the device.
            let domain_fires =
                dom_ev.is_some() && fail_at.is_none_or(|f| dom_ev.unwrap().at_s < f);
            if domain_fires {
                let ev = dom_ev.expect("domain_fires implies an event");
                next_domain = domain_stream.next();
                if ev.is_preemption() {
                    num_preemptions += 1;
                } else {
                    num_domain_outages += 1;
                }
                if num_failures + num_domain_outages + num_preemptions > max_failures {
                    return Err(Error::invalid(
                        "simulation",
                        format!(
                            "fault replay exceeded {max_failures} events — \
                             outage rates too high for the run to make progress"
                        ),
                    ));
                }
                let tree = plan.domain_tree.as_ref().expect("domain events imply a tree");
                let (n0, n1) = ev.node_span(tree);
                let k = self.broken_replicas(n0, n1);
                if k == 0 {
                    // The outage hit nodes the training grid does not
                    // occupy: nothing to do.
                    continue;
                }
                if plan.regrow_delay_s.is_some() && k < dp {
                    // Survivable: finish the iteration in flight, then run
                    // shrunk at dp-k replicas until capacity regrows, then
                    // pay one checkpoint-sized re-replication to rejoin.
                    let completed = (((ev.at_s - wall) / t_iter).floor() as u64).min(seg);
                    if completed > 0 {
                        events.push(RunEvent {
                            span: RunSpan::Train,
                            start_s: wall,
                            end_s: wall + completed as f64 * t_iter,
                        });
                        wall += completed as f64 * t_iter;
                        done += completed;
                    }
                    let remaining = num_batches - done;
                    if remaining == 0 {
                        continue;
                    }
                    let t_shrunk = t_iter * dp as f64 / (dp - k) as f64;
                    let regrow = plan.regrow_delay_s.unwrap_or(0.0);
                    let shrunk_iters =
                        ((regrow / t_shrunk).ceil() as u64).max(1).min(remaining);
                    events.push(RunEvent {
                        span: RunSpan::Shrunk,
                        start_s: wall,
                        end_s: wall + shrunk_iters as f64 * t_shrunk,
                    });
                    elastic_overhead_s += shrunk_iters as f64 * (t_shrunk - t_iter);
                    wall += shrunk_iters as f64 * t_shrunk;
                    done += shrunk_iters;
                    if ckpt_enabled && ckpt_cost > 0.0 && done < num_batches {
                        events.push(RunEvent {
                            span: RunSpan::Regrow,
                            start_s: wall,
                            end_s: wall + ckpt_cost,
                        });
                        elastic_overhead_s += ckpt_cost;
                        wall += ckpt_cost;
                    }
                } else {
                    // Blast radius covers every replica (or elastic mode is
                    // off): the outage is fatal, back to the checkpoint.
                    rework_time_s += (ev.at_s - wall) + plan.restart_s;
                    events.push(RunEvent {
                        span: RunSpan::Lost,
                        start_s: wall,
                        end_s: ev.at_s,
                    });
                    events.push(RunEvent {
                        span: RunSpan::Restart,
                        start_s: ev.at_s,
                        end_s: ev.at_s + plan.restart_s,
                    });
                    wall = ev.at_s + plan.restart_s;
                }
                continue;
            }
            match fail_at {
                Some(fail_at) => {
                    // The segment dies: progress since the last checkpoint
                    // is discarded and the run restarts from it.
                    num_failures += 1;
                    if num_failures + num_domain_outages + num_preemptions > max_failures {
                        return Err(Error::invalid(
                            "simulation",
                            format!(
                                "fault replay exceeded {max_failures} failures — \
                                 mtbf too small for the run to make progress"
                            ),
                        ));
                    }
                    rework_time_s += (fail_at - wall) + plan.restart_s;
                    events.push(RunEvent {
                        span: RunSpan::Lost,
                        start_s: wall,
                        end_s: fail_at,
                    });
                    events.push(RunEvent {
                        span: RunSpan::Restart,
                        start_s: fail_at,
                        end_s: fail_at + plan.restart_s,
                    });
                    wall = fail_at + plan.restart_s;
                    next_fail =
                        Some(wall + rng.exp(system_mtbf_s.expect("failures imply an mtbf")));
                }
                None => {
                    events.push(RunEvent {
                        span: RunSpan::Train,
                        start_s: wall,
                        end_s: wall + seg as f64 * t_iter,
                    });
                    if ckpt_enabled {
                        events.push(RunEvent {
                            span: RunSpan::Checkpoint,
                            start_s: wall + seg as f64 * t_iter,
                            end_s: wall + seg_len,
                        });
                    }
                    wall += seg_len;
                    done += seg;
                    if ckpt_enabled {
                        num_checkpoints += 1;
                        checkpoint_time_s += ckpt_cost;
                    }
                }
            }
        }

        if let Some(obs) = &self.observer {
            obs.add("sim.run.batches", done);
            obs.add("sim.run.failures", num_failures);
            obs.add("sim.run.checkpoints", num_checkpoints);
            obs.add("sim.run.domain_outages", num_domain_outages);
            obs.add("sim.run.preemptions", num_preemptions);
            if wall > 0.0 {
                obs.gauge_set("sim.run.goodput", fault_free_time_s / wall);
            }
            obs.gauge_set("sim.run.rework_s", rework_time_s);
            obs.gauge_set("sim.run.checkpoint_s", checkpoint_time_s);
            obs.gauge_set("sim.run.elastic_s", elastic_overhead_s);
        }

        Ok(RunResult {
            total_time_s: wall,
            fault_free_time_s,
            iteration_time_s: t_iter,
            ckpt_iteration_time_s: t_ckpt_iter,
            ckpt_interval_iters: interval_iters,
            checkpoint_time_s,
            rework_time_s,
            num_failures,
            num_checkpoints,
            num_domain_outages,
            num_preemptions,
            elastic_overhead_s,
            iteration: perturbed,
            events,
        })
    }

    /// How many DP replicas lose at least one device when nodes
    /// `[n0, n1)` go down. The simulator's logical device `(r, s)` spans
    /// tensor-parallel accelerators `[d·tp, (d+1)·tp)` laid out
    /// replica-major, so a replica breaks when any of its stages maps onto
    /// the dead node range.
    fn broken_replicas(&self, n0: usize, n1: usize) -> usize {
        let tp = self.parallelism.tp().max(1);
        let apn = self.system.accels_per_node().max(1);
        (0..self.parallelism.dp())
            .filter(|&r| {
                (0..self.parallelism.pp()).any(|s| {
                    let d = self.device(r, s);
                    let first = d * tp / apn;
                    let last = (d * tp + tp - 1) / apn;
                    first < n1 && last >= n0
                })
            })
            .count()
    }

    /// Device id of (data-parallel rank, pipeline stage). The simulator
    /// collapses tensor-parallel groups into one logical device per stage.
    fn device(&self, dp_rank: usize, stage: usize) -> usize {
        dp_rank * self.parallelism.pp() + stage
    }

    /// Whether two pipeline stages of one replica share a node.
    fn stage_link(&self, stage_a: usize, stage_b: usize) -> LinkClass {
        let pp_i = self.parallelism.pp_intra();
        if stage_a / pp_i == stage_b / pp_i {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }

    /// Whether two data-parallel ranks (same stage) share a node.
    fn dp_link(&self, rank_a: usize, rank_b: usize) -> LinkClass {
        let dp_i = self.parallelism.dp_intra();
        if rank_a / dp_i == rank_b / dp_i {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }

    /// Forward, backward and weight-update seconds of one microbatch on one
    /// chunk of layers, including the analytically folded TP all-reduce
    /// time.
    fn stage_durations(&self, layers: &[LayerKind], ub: f64) -> (f64, f64, f64) {
        let p = self.parallelism;
        let eff = self.efficiency.eval(ub);
        let c_mac = self.accel.c_mac(eff);
        let c_nonlin = self.accel.c_nonlin();
        let mac_scale = self
            .accel
            .mac_precision_scale(self.precision.mac_operand_bits());
        let param_scale = self.accel.mac_precision_scale(self.precision.param_bits);
        let nonlin_scale = self
            .accel
            .nonlin_precision_scale(self.precision.nonlin_bits);
        let tp = p.tp() as f64;
        let opts = self.options;
        let bwd_c =
            opts.backward_compute_factor + if opts.activation_recompute { 1.0 } else { 0.0 };

        let mut fwd = 0.0;
        let mut bwd = 0.0;
        let mut stage_weights = 0.0;
        for &kind in layers {
            let c = LayerCounts::for_layer(self.model, kind, ub);
            let f = (c.macs_fwd * c_mac * mac_scale + c.nonlin_fwd * c_nonlin * nonlin_scale) / tp;
            fwd += f;
            bwd += (bwd_c * c.macs_fwd * c_mac * mac_scale
                + opts.backward_nonlin_factor * c.nonlin_fwd * c_nonlin * nonlin_scale)
                / tp;
            stage_weights += c.weights;

            // Tensor parallelism: two activation all-reduces per layer,
            // folded analytically (sub-device behaviour is out of scope for
            // the DP×PP device grid).
            let act_bits = self.precision.act_bits as f64;
            if p.tp_intra() > 1 {
                let cost = self
                    .system
                    .intra()
                    .topology
                    .cost(Collective::AllReduce, p.tp_intra());
                let t = cost.time(
                    c.act_elems_tp * act_bits,
                    self.system.intra().latency_s,
                    self.system.intra().bandwidth_bits_per_sec,
                );
                fwd += t;
                bwd += opts.backward_comm_factor * t;
            }
            if p.tp_inter() > 1 {
                let cost = self
                    .system
                    .inter()
                    .topology
                    .cost(Collective::AllReduce, p.tp_inter());
                let t = cost.time(
                    c.act_elems_tp * act_bits,
                    self.system.inter().latency_s,
                    self.system.inter_bandwidth_per_accel(),
                );
                fwd += t;
                bwd += opts.backward_comm_factor * t;
            }
            // Mixture-of-experts all-to-all, folded analytically like TP
            // (Eq. 9, with the per-rank volume sharded by the TP degree).
            if c.act_elems_moe > 0.0 {
                let nodes = self.system.num_nodes();
                let cost = self
                    .system
                    .inter()
                    .topology
                    .cost(Collective::AllToAll, nodes);
                let volume_bits = c.act_elems_moe * act_bits / tp;
                let nf = nodes as f64;
                let t = if nodes > 1 {
                    2.0 * self.system.inter().latency_s * cost.steps as f64
                        + 2.0 * volume_bits
                            * cost.factor
                            * (1.0 / (nf * self.system.intra().bandwidth_bits_per_sec)
                                + (nf - 1.0) / (nf * self.system.inter_bandwidth_per_accel()))
                } else {
                    2.0 * volume_bits / self.system.intra().bandwidth_bits_per_sec
                };
                fwd += t;
                bwd += opts.backward_comm_factor * t;
            }
        }
        let wu = opts.weight_update_factor * stage_weights / tp * c_mac * param_scale;
        (fwd, bwd, wu)
    }

    /// Build the iteration's task graph. The layer stack is cut into
    /// `pp × v` contiguous chunks by [`even_split`], `v` being the
    /// schedule's chunks per device; chunk `c` runs on stage `c % pp`, so
    /// each microbatch loops through the stages `v` times (`v = 1` is the
    /// plain stage split). Each replica runs every microbatch forward
    /// through the chunks, then backward in reverse, in the order the
    /// schedule's priorities pick; then each stage synchronizes gradients
    /// over its DP group, updates its weights and, when configured, writes
    /// its checkpoint.
    fn build_graph(&self, global_batch: usize) -> Result<TaskGraph> {
        let p = self.parallelism;
        let (dp, pp) = (p.dp(), p.pp());
        let n_ub = p.num_microbatches(global_batch);
        let ub = p.microbatch_size(global_batch);
        let chunks = pp * self.schedule.chunks_per_device();
        let mut graph = TaskGraph::new(dp * pp);

        let stack = self.model.layer_stack();
        let ranges: Vec<Range<usize>> = even_split(stack.len(), chunks).collect();
        let durations: Vec<(f64, f64, f64)> = ranges
            .iter()
            .map(|r| self.stage_durations(&stack[r.clone()], ub))
            .collect();
        let act_bytes = ub
            * self.model.seq_len() as f64
            * self.model.hidden_size() as f64
            * self.precision.act_bits as f64
            / 8.0
            / p.tp() as f64;
        let priorities = self.schedule_priorities(chunks, n_ub);
        let link = |a: usize, b: usize| self.stage_link(a % pp, b % pp);

        let mut last_bwd: Vec<Vec<TaskId>> = vec![Vec::new(); dp * pp];
        // fwd_done[m·chunks + c]: microbatch m's forward through chunk c.
        let mut fwd_done = vec![0; n_ub * chunks];
        for rank in 0..dp {
            let device = |c: usize| self.device(rank, c % pp);
            for m in 0..n_ub {
                let mut inbound: Option<TaskId> = None;
                for c in 0..chunks {
                    let id = graph.add_with_priority(
                        TaskKind::Compute {
                            device: device(c),
                            duration_s: durations[c].0,
                        },
                        "fwd",
                        inbound.as_slice(),
                        priorities.fwd[m * chunks + c],
                    );
                    fwd_done[m * chunks + c] = id;
                    inbound = (c + 1 < chunks).then(|| {
                        let kind = TaskKind::Transfer {
                            src: device(c),
                            dst: device(c + 1),
                            bytes: act_bytes,
                            link: link(c, c + 1),
                        };
                        graph.add(kind, "act>", &[id])
                    });
                }
            }
            for m in 0..n_ub {
                let mut inbound: Option<TaskId> = None;
                for c in (0..chunks).rev() {
                    let deps = [fwd_done[m * chunks + c], inbound.unwrap_or_default()];
                    let id = graph.add_with_priority(
                        TaskKind::Compute {
                            device: device(c),
                            duration_s: durations[c].1,
                        },
                        "bwd",
                        &deps[..1 + usize::from(inbound.is_some())],
                        priorities.bwd[m * chunks + c],
                    );
                    last_bwd[device(c)].push(id);
                    inbound = (c > 0).then(|| {
                        let kind = TaskKind::Transfer {
                            src: device(c),
                            dst: device(c - 1),
                            bytes: act_bytes,
                            link: link(c, c - 1),
                        };
                        graph.add(kind, "err<", &[id])
                    });
                }
            }
        }

        // Per stage, over its chunks s, s + pp, …: the gradient all-reduce
        // over the DP group, lowered to exact ring steps, then the weight
        // update, then the checkpoint write.
        let grad_prio_base = (2 * n_ub * chunks + 16) as u64 * 1000;
        for s in 0..pp {
            let stage_weights: f64 = ranges
                .iter()
                .skip(s)
                .step_by(pp)
                .flat_map(|r| &stack[r.clone()])
                .map(|&k| LayerCounts::for_layer(self.model, k, 1.0).weights)
                .sum();
            let grad_bytes = stage_weights / p.tp() as f64 * self.precision.grad_bits as f64 / 8.0;
            let final_step = if self.grad_sync && dp > 1 {
                self.add_grad_sync(&mut graph, s, grad_bytes, &last_bwd, grad_prio_base)
            } else {
                Vec::new()
            };
            let update_s: f64 = durations.iter().skip(s).step_by(pp).map(|d| d.2).sum();
            let mut rank0_update = 0;
            for rank in 0..dp {
                let mut deps = std::mem::take(&mut last_bwd[self.device(rank, s)]);
                deps.extend(&final_step);
                let id = graph.add_with_priority(
                    TaskKind::Compute {
                        device: self.device(rank, s),
                        duration_s: update_s,
                    },
                    "wupd",
                    &deps,
                    grad_prio_base + 10_000,
                );
                if rank == 0 {
                    rank0_update = id;
                }
            }
            // The synchronous checkpoint the Young/Daly analysis assumes: a
            // `"ckpt"` task that blocks the stage's dp-rank-0 device until
            // the snapshot has drained to storage.
            if let Some(ckpt) = &self.ckpt_stage_s {
                graph.add_with_priority(
                    TaskKind::Compute {
                        device: self.device(0, s),
                        duration_s: ckpt.get(s).copied().unwrap_or(0.0),
                    },
                    "ckpt",
                    &[rank0_update],
                    grad_prio_base + 20_000,
                );
            }
        }

        Ok(graph)
    }

    /// Lower one ring collective among the DP ranks of `stage` into
    /// transfer tasks with exact ring dependencies; returns the final-step
    /// task ids. `rank_of` maps group-local positions to DP ranks.
    #[allow(clippy::too_many_arguments)]
    fn add_ring_phase(
        &self,
        graph: &mut TaskGraph,
        stage: usize,
        schedule: &amped_topo::Schedule,
        rank_of: &dyn Fn(usize) -> usize,
        entry_deps: &dyn Fn(usize) -> Vec<TaskId>,
        prio: u64,
        label: &'static str,
    ) -> Vec<TaskId> {
        let n = schedule.num_ranks();
        let steps = schedule.num_steps();
        let mut prev: Vec<Option<TaskId>> = vec![None; n];
        let mut finals = Vec::new();
        for (step, batch) in schedule.steps() {
            let mut cur: Vec<Option<TaskId>> = vec![None; n];
            for tr in batch {
                let mut deps: Vec<TaskId> = Vec::new();
                if step == 0 {
                    deps.extend(entry_deps(tr.src));
                }
                if let Some(Some(d)) = prev.get(tr.src).copied() {
                    deps.push(d);
                }
                let (src_rank, dst_rank) = (rank_of(tr.src), rank_of(tr.dst));
                let id = graph.add_with_priority(
                    TaskKind::Transfer {
                        src: self.device(src_rank, stage),
                        dst: self.device(dst_rank, stage),
                        bytes: tr.bytes as f64,
                        link: self.dp_link(src_rank, dst_rank),
                    },
                    label,
                    &deps,
                    prio + step as u64,
                );
                cur[tr.dst] = Some(id);
                if step + 1 == steps {
                    finals.push(id);
                }
            }
            prev = cur;
        }
        finals
    }

    /// Gradient synchronization for one stage: a flat ring when DP lives on
    /// one network level, or the hierarchical reduce-scatter → inter
    /// all-reduce → all-gather (Eq. 10) when it spans both.
    fn add_grad_sync(
        &self,
        graph: &mut TaskGraph,
        stage: usize,
        grad_bytes: f64,
        last_bwd: &[Vec<TaskId>],
        prio: u64,
    ) -> Vec<TaskId> {
        let p = self.parallelism;
        let (dp_i, dp_x) = (p.dp_intra(), p.dp_inter());
        let dp = p.dp();
        if dp_i == 1 || dp_x == 1 {
            let schedule = amped_topo::Schedule::ring_all_reduce(dp, grad_bytes as u64);
            return self.add_ring_phase(
                graph,
                stage,
                &schedule,
                &|g| g,
                &|g| last_bwd[self.device(g, stage)].clone(),
                prio,
                "gsync",
            );
        }
        // Phase 1: reduce-scatter inside each node group (ranks r0..r0+dp_i).
        let rs = amped_topo::Schedule::ring_reduce_scatter(dp_i, grad_bytes as u64);
        let mut phase1_finals: Vec<Vec<TaskId>> = Vec::new();
        for node in 0..dp_x {
            let base = node * dp_i;
            let finals = self.add_ring_phase(
                graph,
                stage,
                &rs,
                &move |g| base + g,
                &|g| last_bwd[self.device(base + g, stage)].clone(),
                prio,
                "gsync-rs",
            );
            phase1_finals.push(finals);
        }
        // Phase 2: all-reduce the 1/dp_i shards across nodes; the group of
        // inter peers at intra position q is {q, dp_i + q, ...}.
        let inter = amped_topo::Schedule::ring_all_reduce(dp_x, (grad_bytes / dp_i as f64) as u64);
        let mut phase2_finals: Vec<TaskId> = Vec::new();
        for q in 0..dp_i {
            let deps_src: Vec<Vec<TaskId>> = (0..dp_x).map(|n| phase1_finals[n].clone()).collect();
            let finals = self.add_ring_phase(
                graph,
                stage,
                &inter,
                &move |g| g * dp_i + q,
                &|g| deps_src[g].clone(),
                prio + 1000,
                "gsync-x",
            );
            phase2_finals.extend(finals);
        }
        // Phase 3: all-gather inside each node.
        let ag = amped_topo::Schedule::ring_all_gather(dp_i, grad_bytes as u64);
        let mut finals = Vec::new();
        for node in 0..dp_x {
            let base = node * dp_i;
            let entry = phase2_finals.clone();
            finals.extend(self.add_ring_phase(
                graph,
                stage,
                &ag,
                &move |g| base + g,
                &move |_| entry.clone(),
                prio + 2000,
                "gsync-ag",
            ));
        }
        finals
    }

    /// Per-(microbatch, chunk) priorities realizing the schedule, indexed
    /// `m·chunks + c`.
    fn schedule_priorities(&self, chunks: usize, n_ub: usize) -> SchedulePriorities {
        let mut fwd = vec![0u64; n_ub * chunks];
        let mut bwd = vec![0u64; n_ub * chunks];
        match self.schedule {
            PipelineSchedule::Interleaved { virtual_stages } if virtual_stages > 1 => {
                // Microbatch-major through the chunks, all forwards first;
                // backwards walk the chunks in reverse.
                for m in 0..n_ub {
                    for c in 0..chunks {
                        fwd[m * chunks + c] = (m * chunks + c) as u64;
                        bwd[m * chunks + c] =
                            (n_ub * chunks + m * chunks + (chunks - 1 - c)) as u64;
                    }
                }
            }
            PipelineSchedule::GPipe | PipelineSchedule::Interleaved { .. } => {
                // All forwards first (microbatch-major), then all backwards.
                for m in 0..n_ub {
                    for c in 0..chunks {
                        fwd[m * chunks + c] = m as u64;
                        bwd[m * chunks + c] = (n_ub + m) as u64;
                    }
                }
            }
            PipelineSchedule::OneFOneB => {
                // Per stage (one chunk each): warmup of (pp - s) forwards,
                // then alternate.
                for s in 0..chunks {
                    let warmup = (chunks - s).min(n_ub);
                    let mut slot = 0u64;
                    for m in 0..warmup {
                        fwd[m * chunks + s] = slot;
                        slot += 1;
                    }
                    let mut next_fwd = warmup;
                    for m in 0..n_ub {
                        bwd[m * chunks + s] = slot;
                        slot += 1;
                        if next_fwd < n_ub {
                            fwd[next_fwd * chunks + s] = slot;
                            slot += 1;
                            next_fwd += 1;
                        }
                    }
                }
            }
        }
        SchedulePriorities { fwd, bwd }
    }
}

struct SchedulePriorities {
    fwd: Vec<u64>,
    bwd: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::{Link, MicrobatchPolicy};

    fn mingpt() -> TransformerModel {
        TransformerModel::builder("minGPT")
            .layers(12)
            .hidden_size(768)
            .heads(12)
            .seq_len(512)
            .vocab_size(50257)
            .include_head(false)
            .build()
            .unwrap()
    }

    fn v100() -> AcceleratorSpec {
        AcceleratorSpec::builder("V100")
            .frequency_hz(1.53e9)
            .cores(80)
            .mac_units(8, 64, 16)
            .nonlin_units(80, 64, 32)
            .memory(32e9, 0.9e12)
            .build()
            .unwrap()
    }

    fn hgx(n: usize) -> SystemSpec {
        SystemSpec::new(1, n, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 1).unwrap()
    }

    #[test]
    fn single_device_iteration_runs() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(1);
        let p = Parallelism::single();
        let r = SimConfig::new(&m, &a, &sys, &p)
            .simulate_iteration(8)
            .unwrap();
        assert!(r.iteration_time > 0.0);
        assert_eq!(r.device_stats.len(), 1);
        assert!(r.mean_utilization > 0.99, "u = {}", r.mean_utilization);
    }

    #[test]
    fn dp_scaling_shows_near_linear_speedup() {
        let m = mingpt();
        let a = v100();
        let p1 = Parallelism::single();
        let t1 = SimConfig::new(&m, &a, &hgx(1), &p1)
            .simulate_iteration(64)
            .unwrap()
            .iteration_time;
        let p8 = Parallelism::data_parallel_intra(8).unwrap();
        let t8 = SimConfig::new(&m, &a, &hgx(8), &p8)
            .simulate_iteration(64)
            .unwrap()
            .iteration_time;
        let speedup = t1 / t8;
        assert!(speedup > 5.0 && speedup <= 8.2, "speedup = {speedup}");
    }

    #[test]
    fn gpipe_has_bubbles_that_more_microbatches_shrink(){
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let few = Parallelism::builder()
            .pp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(4))
            .build()
            .unwrap();
        let many = Parallelism::builder()
            .pp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(32))
            .build()
            .unwrap();
        // Hold the microbatch *size* constant (batch scales with count) so
        // only the bubble fraction changes.
        let r_few = SimConfig::new(&m, &a, &sys, &few).simulate_iteration(16).unwrap();
        let r_many = SimConfig::new(&m, &a, &sys, &many).simulate_iteration(128).unwrap();
        assert!(r_few.mean_utilization < r_many.mean_utilization);
        // Ideal-step counts: (M + P - 1)/M ratio should roughly hold for
        // compute-bound stages.
        let per_ub_few = r_few.iteration_time / 4.0;
        let per_ub_many = r_many.iteration_time / 32.0;
        assert!(per_ub_many < per_ub_few);
    }

    #[test]
    fn one_f_one_b_not_slower_than_gpipe() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::builder()
            .pp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(16))
            .build()
            .unwrap();
        let g = SimConfig::new(&m, &a, &sys, &p)
            .with_schedule(PipelineSchedule::GPipe)
            .simulate_iteration(64)
            .unwrap();
        let o = SimConfig::new(&m, &a, &sys, &p)
            .with_schedule(PipelineSchedule::OneFOneB)
            .simulate_iteration(64)
            .unwrap();
        // Same total work; 1F1B must not be slower (same bubble count).
        assert!(o.iteration_time <= g.iteration_time * 1.001);
    }

    #[test]
    fn grad_sync_adds_time_under_dp() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(8);
        let p = Parallelism::data_parallel_intra(8).unwrap();
        let with = SimConfig::new(&m, &a, &sys, &p).simulate_iteration(64).unwrap();
        let without = SimConfig::new(&m, &a, &sys, &p)
            .with_grad_sync(false)
            .simulate_iteration(64)
            .unwrap();
        assert!(with.iteration_time > without.iteration_time);
    }

    #[test]
    fn pipeline_timeline_shows_stagger() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let r = SimConfig::new(&m, &a, &sys, &p).simulate_iteration(16).unwrap();
        // First compute on stage 3 starts later than on stage 0.
        let first_start = |dev: usize| {
            r.timeline
                .entries()
                .iter()
                .filter(|e| e.device == dev && e.activity == crate::timeline::Activity::Compute)
                .map(|e| e.start_s)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(first_start(3) > first_start(0));
    }

    #[test]
    fn rejects_invalid_mapping() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(8);
        let p = Parallelism::builder().dp(4, 1).build().unwrap(); // 4 != 8
        assert!(SimConfig::new(&m, &a, &sys, &p).simulate_iteration(8).is_err());
        let good = Parallelism::data_parallel_intra(8).unwrap();
        assert!(SimConfig::new(&m, &a, &sys, &good).simulate_iteration(0).is_err());
    }

    fn mingpt16() -> TransformerModel {
        TransformerModel::builder("minGPT-16L")
            .layers(16)
            .hidden_size(1024)
            .heads(8)
            .seq_len(512)
            .vocab_size(50257)
            .include_head(false)
            .build()
            .unwrap()
    }

    #[test]
    fn interleaving_shrinks_the_simulated_bubble() {
        // 16 layers over 4 devices: naive GPipe vs 2- and 4-way interleaved.
        let m = mingpt16();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::builder()
            .pp(4, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let run = |schedule| {
            SimConfig::new(&m, &a, &sys, &p)
                .with_efficiency(amped_core::EfficiencyModel::Constant(0.5))
                .with_schedule(schedule)
                .simulate_iteration(16)
                .unwrap()
        };
        let gpipe = run(PipelineSchedule::GPipe);
        let v2 = run(PipelineSchedule::Interleaved { virtual_stages: 2 });
        let v4 = run(PipelineSchedule::Interleaved { virtual_stages: 4 });
        assert!(
            v2.iteration_time < gpipe.iteration_time,
            "2-way interleaving must beat GPipe: {} vs {}",
            v2.iteration_time,
            gpipe.iteration_time
        );
        assert!(v4.iteration_time < v2.iteration_time * 1.001);
        assert!(v2.mean_utilization > gpipe.mean_utilization);

        // The analytical knob R = 1/v tracks the simulated improvement:
        // bubble_sim(v) / bubble_sim(1) ≈ 1/v within a loose band.
        let compute_floor = gpipe
            .device_stats
            .iter()
            .map(|d| d.compute_busy_s)
            .fold(0.0f64, f64::max);
        let bubble = |r: &crate::training::SimResult| r.iteration_time - compute_floor;
        // The idle gap shrinks, though less than the ideal 1/v because each
        // microbatch now crosses 2x as many chunk boundaries.
        let ratio = bubble(&v2) / bubble(&gpipe).max(1e-12);
        assert!(ratio < 0.9, "interleaved bubble ratio = {ratio:.2}");
    }

    #[test]
    fn interleaved_one_equals_gpipe() {
        let m = mingpt16();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let g = SimConfig::new(&m, &a, &sys, &p)
            .simulate_iteration(16)
            .unwrap()
            .iteration_time;
        let i1 = SimConfig::new(&m, &a, &sys, &p)
            .with_schedule(PipelineSchedule::Interleaved { virtual_stages: 1 })
            .simulate_iteration(16)
            .unwrap()
            .iteration_time;
        assert!((g - i1).abs() / g < 1e-9);
    }

    #[test]
    fn interleaved_with_dp_still_syncs_gradients() {
        let m = mingpt16();
        let a = v100();
        let sys = hgx(8);
        let p = Parallelism::builder()
            .pp(4, 1)
            .dp(2, 1)
            .microbatches(MicrobatchPolicy::Explicit(8))
            .build()
            .unwrap();
        let with = SimConfig::new(&m, &a, &sys, &p)
            .with_schedule(PipelineSchedule::Interleaved { virtual_stages: 2 })
            .simulate_iteration(32)
            .unwrap();
        let without = SimConfig::new(&m, &a, &sys, &p)
            .with_schedule(PipelineSchedule::Interleaved { virtual_stages: 2 })
            .with_grad_sync(false)
            .simulate_iteration(32)
            .unwrap();
        assert!(with.iteration_time > without.iteration_time);
    }

    #[test]
    fn moe_layers_lengthen_stage_durations() {
        let moe = TransformerModel::builder("moe-sim")
            .layers(8)
            .hidden_size(512)
            .heads(8)
            .seq_len(128)
            .vocab_size(1000)
            .include_head(false)
            .moe(amped_core::MoeConfig::glam(4))
            .build()
            .unwrap();
        let dense = TransformerModel::builder("dense-sim")
            .layers(8)
            .hidden_size(512)
            .heads(8)
            .seq_len(128)
            .vocab_size(1000)
            .include_head(false)
            .build()
            .unwrap();
        let a = v100();
        let sys = SystemSpec::new(4, 2, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 2)
            .unwrap();
        let p = Parallelism::builder().tp(2, 1).dp(1, 4).build().unwrap();
        let t_moe = SimConfig::new(&moe, &a, &sys, &p)
            .simulate_iteration(32)
            .unwrap()
            .iteration_time;
        let t_dense = SimConfig::new(&dense, &a, &sys, &p)
            .simulate_iteration(32)
            .unwrap()
            .iteration_time;
        // Top-2 experts roughly double the MLP compute and add all-to-all.
        assert!(t_moe > 1.2 * t_dense, "moe {t_moe} dense {t_dense}");
    }

    #[test]
    fn dp_traffic_matches_the_analytical_ring_volume() {
        // Pure intra-node DP: the only transfers are the gradient ring.
        let m = mingpt();
        let a = v100();
        let sys = hgx(8);
        let p = Parallelism::data_parallel_intra(8).unwrap();
        let r = SimConfig::new(&m, &a, &sys, &p).simulate_iteration(64).unwrap();
        assert_eq!(r.inter_bytes, 0.0);
        // The synchronized volume covers the layer-stack weights (the
        // fixture excludes head and embeddings) at fp16.
        let grad_bytes: f64 = m
            .layer_stack()
            .iter()
            .map(|&k| LayerCounts::for_layer(&m, k, 1.0).weights * 2.0)
            .sum();
        // Ring all-reduce moves 2(n-1)/n * V per rank, n ranks total.
        let expect = 2.0 * 7.0 * grad_bytes / 8.0 * 8.0;
        let rel = (r.intra_bytes - expect).abs() / expect;
        assert!(rel < 0.02, "sim {} vs analytic {expect} ({rel:.3})", r.intra_bytes);
    }

    #[test]
    fn hierarchical_grad_sync_beats_flat_inter_ring() {
        // DP 4x4 over 4 nodes: the hierarchical sync keeps 3/4 of the ring
        // traffic on NVLink; compare against DP 1x16 (all hops inter-node).
        let m = mingpt();
        let a = v100();
        let hier_sys =
            SystemSpec::new(4, 4, Link::new(5e-6, 2.4e12), Link::new(1e-5, 5e10), 4).unwrap();
        let flat_sys =
            SystemSpec::new(16, 1, Link::new(5e-6, 2.4e12), Link::new(1e-5, 5e10), 1).unwrap();
        let p_hier = Parallelism::builder().dp(4, 4).build().unwrap();
        let p_flat = Parallelism::builder().dp(1, 16).build().unwrap();
        let run = |sys: &SystemSpec, p: &Parallelism| {
            let with = SimConfig::new(&m, &a, sys, p)
                .simulate_iteration(64)
                .unwrap()
                .iteration_time;
            let without = SimConfig::new(&m, &a, sys, p)
                .with_grad_sync(false)
                .simulate_iteration(64)
                .unwrap()
                .iteration_time;
            with - without
        };
        let hier_cost = run(&hier_sys, &p_hier);
        let flat_cost = run(&flat_sys, &p_flat);
        assert!(hier_cost > 0.0);
        assert!(
            hier_cost < flat_cost,
            "hierarchical sync {hier_cost} must beat flat inter ring {flat_cost}"
        );
    }

    #[test]
    fn straggler_schedule_slows_the_iteration() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let healthy = SimConfig::new(&m, &a, &sys, &p)
            .simulate_iteration(32)
            .unwrap();
        let plan = crate::fault::FaultPlan::seeded(3).with_straggler(0, 2.0);
        let slowed = SimConfig::new(&m, &a, &sys, &p)
            .with_fault_schedule(plan.materialize(4))
            .simulate_iteration(32)
            .unwrap();
        assert!(
            slowed.iteration_time > 1.2 * healthy.iteration_time,
            "straggler {} vs healthy {}",
            slowed.iteration_time,
            healthy.iteration_time
        );
    }

    #[test]
    fn checkpoint_writes_appear_and_extend_the_iteration() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::builder().pp(4, 1).build().unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let plain = cfg.clone().simulate_iteration(16).unwrap();
        let ckpt = cfg
            .with_checkpoint_writes(vec![0.5; 4])
            .simulate_iteration(16)
            .unwrap();
        assert!(
            ckpt.iteration_time >= plain.iteration_time + 0.5,
            "ckpt {} vs plain {}",
            ckpt.iteration_time,
            plain.iteration_time
        );
        let n_ckpt = ckpt
            .timeline
            .entries()
            .iter()
            .filter(|e| e.label == "ckpt")
            .count();
        assert_eq!(n_ckpt, 4, "one checkpoint task per stage");
        assert!(plain.timeline.entries().iter().all(|e| e.label != "ckpt"));
    }

    #[test]
    fn inactive_plan_run_is_exactly_the_fault_free_product() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap();
        let run = cfg.simulate_run(32, 7, &crate::fault::FaultPlan::none()).unwrap();
        assert_eq!(
            run.total_time_s.to_bits(),
            (iter.iteration_time * 7.0).to_bits()
        );
        assert_eq!(run.num_failures, 0);
        assert_eq!(run.num_checkpoints, 0);
        assert!((run.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_and_checkpoints_cost_time_and_replay_deterministically() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        // MTBF tuned so a 50-batch run sees a handful of failures.
        let plan = crate::fault::FaultPlan::seeded(17)
            .with_device_mtbf(4.0 * 40.0 * iter)
            .with_restart(2.0 * iter)
            .with_ckpt_write_bw(1e9);
        let run = cfg.simulate_run(32, 50, &plan).unwrap();
        assert!(run.num_failures > 0, "expected at least one failure");
        assert!(run.num_checkpoints > 0);
        assert!(run.total_time_s > run.fault_free_time_s);
        assert!(
            (run.total_time_s
                - (run.fault_free_time_s + run.checkpoint_time_s + run.rework_time_s))
                .abs()
                < 1e-6 * run.total_time_s,
            "accounting must decompose the wall clock"
        );
        assert!(run.goodput() < 1.0);
        let again = cfg.simulate_run(32, 50, &plan).unwrap();
        assert_eq!(run.total_time_s.to_bits(), again.total_time_s.to_bits());
        assert_eq!(run.num_failures, again.num_failures);
    }

    #[test]
    fn run_events_tile_the_wall_clock() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        let plan = crate::fault::FaultPlan::seeded(17)
            .with_device_mtbf(4.0 * 40.0 * iter)
            .with_restart(2.0 * iter)
            .with_ckpt_write_bw(1e9);
        let run = cfg.simulate_run(32, 50, &plan).unwrap();
        assert!(!run.events.is_empty());
        let mut cursor = 0.0f64;
        for ev in &run.events {
            assert_eq!(ev.start_s.to_bits(), cursor.to_bits(), "events must abut");
            assert!(ev.end_s >= ev.start_s);
            cursor = ev.end_s;
        }
        assert_eq!(cursor.to_bits(), run.total_time_s.to_bits());
        assert!(run.events.iter().any(|e| e.span == RunSpan::Lost));
        assert!(run.events.iter().any(|e| e.span == RunSpan::Restart));
        assert!(run.events.iter().any(|e| e.span == RunSpan::Checkpoint));
        let rework: f64 = run
            .events
            .iter()
            .filter(|e| matches!(e.span, RunSpan::Lost | RunSpan::Restart))
            .map(|e| e.end_s - e.start_s)
            .sum();
        assert!(
            (rework - run.rework_time_s).abs() < 1e-9 * run.total_time_s,
            "lost + restart slices must account for the rework time"
        );
    }

    /// Eight single-accel nodes: dp 4 × pp 2 lands one replica on each
    /// two-node rack, so a rack outage breaks exactly one replica.
    fn rack_cluster() -> (SystemSpec, Parallelism, amped_core::FailureDomainTree) {
        let sys = SystemSpec::new(8, 1, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 1)
            .unwrap();
        let p = Parallelism::builder().dp(1, 4).pp(1, 2).build().unwrap();
        let tree = amped_core::FailureDomainTree::new(8, 2, 4).unwrap();
        (sys, p, tree)
    }

    #[test]
    fn elastic_outages_shrink_and_regrow_instead_of_restarting() {
        let m = mingpt();
        let a = v100();
        let (sys, p, tree) = rack_cluster();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        let tree = tree.with_rack_mtbf(4.0 * 30.0 * iter);
        let base = crate::fault::FaultPlan::seeded(23)
            .with_domain_tree(tree)
            .with_restart(2.0 * iter)
            .with_ckpt_interval(10.0 * iter);
        let fatal = cfg.simulate_run(32, 60, &base).unwrap();
        assert!(fatal.num_domain_outages > 0, "expected rack outages");
        assert_eq!(fatal.elastic_overhead_s, 0.0);
        assert!(fatal.rework_time_s > 0.0, "without regrow, outages are fatal");
        assert!(fatal.events.iter().any(|e| e.span == RunSpan::Lost));

        let elastic = cfg
            .simulate_run(32, 60, &base.clone().with_regrow(5.0 * iter))
            .unwrap();
        assert!(elastic.num_domain_outages > 0);
        assert!(elastic.elastic_overhead_s > 0.0);
        assert!(elastic.events.iter().any(|e| e.span == RunSpan::Shrunk));
        assert!(elastic.events.iter().any(|e| e.span == RunSpan::Regrow));
        // Blast radius 1 of 4 replicas: nothing is ever fatal here, so the
        // only rework would come from device failures — there are none.
        assert_eq!(elastic.rework_time_s, 0.0);
        // The accounting identity extends to the elastic overhead.
        assert!(
            (elastic.total_time_s
                - (elastic.fault_free_time_s
                    + elastic.checkpoint_time_s
                    + elastic.rework_time_s
                    + elastic.elastic_overhead_s))
                .abs()
                < 1e-6 * elastic.total_time_s,
            "accounting must decompose the wall clock"
        );
        // Bit-identical replay on a second run.
        let again = cfg
            .simulate_run(32, 60, &base.with_regrow(5.0 * iter))
            .unwrap();
        assert_eq!(elastic.total_time_s.to_bits(), again.total_time_s.to_bits());
        assert_eq!(elastic.num_domain_outages, again.num_domain_outages);
        // Events still tile the wall clock bit-exactly.
        let mut cursor = 0.0f64;
        for ev in &elastic.events {
            assert_eq!(ev.start_s.to_bits(), cursor.to_bits(), "events must abut");
            cursor = ev.end_s;
        }
        assert_eq!(cursor.to_bits(), elastic.total_time_s.to_bits());
    }

    #[test]
    fn preemptions_are_elastic_when_regrow_is_configured() {
        let m = mingpt();
        let a = v100();
        let (sys, p, tree) = rack_cluster();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        let plan = crate::fault::FaultPlan::seeded(5)
            .with_domain_tree(tree)
            .with_preemption(8.0 * 25.0 * iter)
            .with_restart(2.0 * iter)
            .with_regrow(4.0 * iter);
        let run = cfg.simulate_run(32, 60, &plan).unwrap();
        assert!(run.num_preemptions > 0, "expected spot preemptions");
        assert_eq!(run.num_domain_outages, 0);
        assert!(run.events.iter().any(|e| e.span == RunSpan::Shrunk));
        assert!(run.elastic_overhead_s > 0.0);
        assert_eq!(run.rework_time_s, 0.0, "single-node blast radius never kills dp 4");
    }

    #[test]
    fn run_observer_reconciles_and_never_perturbs() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        let plan = crate::fault::FaultPlan::seeded(17)
            .with_device_mtbf(4.0 * 40.0 * iter)
            .with_restart(2.0 * iter)
            .with_ckpt_write_bw(1e9);
        let plain = cfg.simulate_run(32, 50, &plan).unwrap();

        let obs = std::sync::Arc::new(amped_obs::Observer::new());
        let observed = cfg
            .clone()
            .with_observer(obs.clone())
            .simulate_run(32, 50, &plan)
            .unwrap();
        assert_eq!(
            plain.total_time_s.to_bits(),
            observed.total_time_s.to_bits(),
            "instrumentation must not perturb the replay"
        );

        let counters = obs.counters();
        assert_eq!(counters["sim.run.batches"], 50);
        assert_eq!(counters["sim.run.failures"], observed.num_failures);
        assert_eq!(counters["sim.run.checkpoints"], observed.num_checkpoints);
        assert!(counters["sim.des.runs"] >= 3, "healthy + perturbed + ckpt");
        assert!(counters["sim.des.events_processed"] > 0);
        let gauges = obs.gauges();
        assert!((gauges["sim.run.goodput"] - observed.goodput()).abs() < 1e-12);
        assert!(gauges["sim.run.rework_s"] > 0.0);
        // The iteration phases show up as spans on the trace.
        let names: std::collections::BTreeSet<_> =
            obs.trace_events().iter().map(|e| e.name.clone()).collect();
        assert!(names.contains("sim.iteration.healthy"));
        assert!(names.contains("sim.iteration.perturbed"));
        assert!(names.contains("sim.replay"));
    }

    #[test]
    fn hopeless_mtbf_errors_instead_of_hanging() {
        let m = mingpt();
        let a = v100();
        let sys = hgx(4);
        let p = Parallelism::data_parallel_intra(4).unwrap();
        let cfg = SimConfig::new(&m, &a, &sys, &p);
        let iter = cfg.simulate_iteration(32).unwrap().iteration_time;
        let plan = crate::fault::FaultPlan::seeded(1)
            .with_device_mtbf(iter * 1e-3)
            .with_restart(iter);
        assert!(cfg.simulate_run(32, 10, &plan).is_err());
    }

    #[test]
    fn inter_node_dp_is_slower_than_intra() {
        let m = mingpt();
        let a = v100();
        let one_node = SystemSpec::new(
            1, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 8,
        )
        .unwrap();
        let eight_nodes = SystemSpec::new(
            8, 1, Link::new(5e-6, 2.4e12), Link::new(1e-5, 1e11), 1,
        )
        .unwrap();
        let p_intra = Parallelism::data_parallel_intra(8).unwrap();
        let p_inter = Parallelism::builder().dp(1, 8).build().unwrap();
        let t_intra = SimConfig::new(&m, &a, &one_node, &p_intra)
            .simulate_iteration(64)
            .unwrap()
            .iteration_time;
        let t_inter = SimConfig::new(&m, &a, &eight_nodes, &p_inter)
            .simulate_iteration(64)
            .unwrap()
            .iteration_time;
        assert!(t_inter > t_intra);
    }

    /// FNV-1a over one 64-bit word, little-endian.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every task's kind (durations and bytes bitwise), label,
    /// predecessors and priority, in creation order.
    fn graph_fingerprint(g: &TaskGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (id, t) in g.tasks().iter().enumerate() {
            match t.kind {
                TaskKind::Compute { device, duration_s } => {
                    fnv(&mut h, 0);
                    fnv(&mut h, device as u64);
                    fnv(&mut h, duration_s.to_bits());
                }
                TaskKind::Transfer { src, dst, bytes, link } => {
                    fnv(&mut h, 1);
                    fnv(&mut h, src as u64);
                    fnv(&mut h, dst as u64);
                    fnv(&mut h, bytes.to_bits());
                    fnv(&mut h, link as u64);
                }
            }
            for b in t.label.bytes() {
                fnv(&mut h, u64::from(b));
            }
            fnv(&mut h, g.preds(id).len() as u64);
            for &d in g.preds(id) {
                fnv(&mut h, d as u64);
            }
            fnv(&mut h, t.priority);
        }
        h
    }

    /// The bits of the iteration time, the link volumes and every
    /// device's stats.
    fn result_fingerprint(r: &SimResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for x in [r.iteration_time, r.intra_bytes, r.inter_bytes] {
            fnv(&mut h, x.to_bits());
        }
        for d in &r.device_stats {
            for x in [d.compute_busy_s, d.comm_busy_s, d.last_finish_s] {
                fnv(&mut h, x.to_bits());
            }
        }
        h
    }

    /// The DES task graph of every schedule and mapping kind, and what it
    /// simulates to, pinned task for task and bit for bit.
    #[test]
    fn task_graphs_and_results_are_pinned() {
        let a = v100();
        let link = |intra_bw, inter_bw| (Link::new(5e-6, intra_bw), Link::new(1e-5, inter_bw));
        let sys = |nodes, per_node| {
            let (intra, inter) = link(2.4e12, 1e11);
            SystemSpec::new(nodes, per_node, intra, inter, per_node).unwrap()
        };
        let map = |tp: (usize, usize), pp: (usize, usize), dp: (usize, usize), n_ub: usize| {
            Parallelism::builder()
                .tp(tp.0, tp.1)
                .pp(pp.0, pp.1)
                .dp(dp.0, dp.1)
                .microbatches(MicrobatchPolicy::Explicit(n_ub))
                .build()
                .unwrap()
        };
        let moe = TransformerModel::builder("moe-sim")
            .layers(8)
            .hidden_size(512)
            .heads(8)
            .seq_len(128)
            .vocab_size(1000)
            .moe(amped_core::MoeConfig::glam(4))
            .build()
            .unwrap();
        let (m12, m16) = (mingpt(), mingpt16());
        let interleaved = |v| PipelineSchedule::Interleaved { virtual_stages: v };
        let gpipe = PipelineSchedule::GPipe;
        let one_f = PipelineSchedule::OneFOneB;

        struct Case<'a> {
            name: &'static str,
            model: &'a TransformerModel,
            system: SystemSpec,
            mapping: Parallelism,
            schedule: PipelineSchedule,
            batch: usize,
        }
        let case = |name, model, system, mapping, schedule, batch| Case {
            name,
            model,
            system,
            mapping,
            schedule,
            batch,
        };
        #[rustfmt::skip]
        let cases = [
            case("gpipe pp4", &m16, sys(1, 4), map((1, 1), (4, 1), (1, 1), 8), gpipe, 16),
            case("gpipe pp8 uneven", &m12, sys(1, 8), map((1, 1), (8, 1), (1, 1), 8), gpipe, 16),
            case("1f1b pp4", &m16, sys(1, 4), map((1, 1), (4, 1), (1, 1), 8), one_f, 16),
            case("1f1b pp4 few ub", &m16, sys(1, 4), map((1, 1), (4, 1), (1, 1), 2), one_f, 8),
            case("1f1b pp2x2 dp2", &m16, sys(4, 2), map((1, 1), (2, 2), (1, 2), 4), one_f, 16),
            case("interleaved v1", &m16, sys(1, 4), map((1, 1), (4, 1), (1, 1), 8), interleaved(1), 16),
            case("interleaved v2 dp2", &m16, sys(1, 8), map((1, 1), (4, 1), (2, 1), 8), interleaved(2), 32),
            case("interleaved v2 uneven", &m12, sys(1, 4), map((1, 1), (4, 1), (1, 1), 4), interleaved(2), 16),
            case("interleaved v4", &m16, sys(1, 4), map((1, 1), (4, 1), (1, 1), 8), interleaved(4), 16),
            case("hierarchical dp", &m12, sys(2, 4), map((1, 1), (2, 1), (2, 2), 4), gpipe, 32),
            case("tp intra+inter", &m16, sys(2, 4), map((2, 2), (2, 1), (1, 1), 4), gpipe, 16),
            case("moe head pp2", &moe, sys(4, 2), map((2, 1), (1, 2), (1, 2), 4), gpipe, 32),
        ];
        // (name, tasks, graph fingerprint, result fingerprint)
        #[rustfmt::skip]
        let pinned: [(&str, usize, u64, u64); 15] = [
            ("gpipe pp4", 116, 0x30fc_eb6e_ea12_5c31, 0x8b69_3506_1ff9_ac8b),
            ("gpipe pp8 uneven", 248, 0xd8d7_fd58_321b_3ad5, 0xa680_2527_f8df_12ef),
            ("1f1b pp4", 116, 0x53a6_ab79_bc66_0281, 0x5eb6_d757_514e_64d7),
            ("1f1b pp4 few ub", 32, 0x0869_718b_0271_28cd, 0x9ef6_cb77_60ae_d717),
            ("1f1b pp2x2 dp2", 136, 0x4195_ea2c_1821_3f5d, 0x87bd_4188_7156_0680),
            ("interleaved v1", 116, 0x30fc_eb6e_ea12_5c31, 0x8b69_3506_1ff9_ac8b),
            ("interleaved v2 dp2", 504, 0xe0b6_41ea_093a_4586, 0xa911_a908_7032_e53c),
            ("interleaved v2 uneven", 124, 0x6e40_c934_0ae4_3565, 0xb582_5485_dc7d_8bca),
            ("interleaved v4", 500, 0x5a9f_430f_4f23_3f45, 0xb327_b877_5d5a_344a),
            ("hierarchical dp", 136, 0xdba8_e167_b764_1a5d, 0xee16_39b7_8ab2_7edf),
            ("tp intra+inter", 26, 0x06b6_f1a0_97bd_59b4, 0x1006_0140_3815_a38a),
            ("moe head pp2", 60, 0xa5e8_3e2c_2f85_de79, 0xb641_a5b1_8638_beee),
            ("checkpoint writes", 62, 0xdd03_a44e_e51b_2d89, 0xc394_ba4a_43f1_5faf),
            ("interleaved v2 checkpoint", 126, 0x48a8_591e_3a5c_f939, 0xdbc1_d13a_464c_675d),
            ("straggler", 248, 0x7513_9d43_ce20_1305, 0x6235_a3ce_4035_5947),
        ];

        let mut got: Vec<(&str, usize, u64, u64)> = Vec::new();
        let mut record = |name, cfg: &SimConfig, batch| {
            let graph = cfg.build_graph(batch).unwrap();
            let result = cfg.simulate_iteration(batch).unwrap();
            got.push((
                name,
                graph.len(),
                graph_fingerprint(&graph),
                result_fingerprint(&result),
            ));
        };
        for c in &cases {
            let cfg = SimConfig::new(c.model, &a, &c.system, &c.mapping).with_schedule(c.schedule);
            record(c.name, &cfg, c.batch);
        }
        let ckpt_sys = sys(1, 4);
        let ckpt_map = map((1, 1), (2, 1), (2, 1), 4);
        let cfg = SimConfig::new(&m12, &a, &ckpt_sys, &ckpt_map);
        let ckpt_s = cfg.checkpoint_stage_seconds(16, 2e9);
        record(
            "checkpoint writes",
            &cfg.clone().with_checkpoint_writes(ckpt_s.clone()),
            16,
        );
        let cfg = cfg
            .with_schedule(interleaved(2))
            .with_checkpoint_writes(ckpt_s);
        record("interleaved v2 checkpoint", &cfg, 16);
        let straggler_sys = sys(1, 8);
        let straggler_map = map((1, 1), (4, 1), (2, 1), 8);
        let plan = crate::fault::FaultPlan::seeded(3).with_straggler(5, 1.7);
        let cfg = SimConfig::new(&m16, &a, &straggler_sys, &straggler_map)
            .with_fault_schedule(plan.materialize(8));
        record("straggler", &cfg, 32);

        let table: String = got
            .iter()
            .map(|(n, t, g, r)| format!("(\"{n}\", {t}, {g:#018x}, {r:#018x}),\n"))
            .collect();
        assert_eq!(got, pinned, "actual:\n{table}");
    }
}

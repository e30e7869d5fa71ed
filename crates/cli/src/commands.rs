//! Subcommand implementations for the `amped` binary: the CLI transport.
//!
//! The six commands the HTTP service answers too — `estimate`, `infer`,
//! `search`, `recommend`, `sweep` and `resilience` — run through
//! [`amped_serve::ops`], the one operation layer: parameter parsing,
//! scenario resolution, engine configuration and the `--json` artifacts
//! all live there. This module keeps only what is the CLI's own:
//! `--config` files, `--dump-resolved`, the `--metrics-out` /
//! `--trace-out` / `-v` session, text tables, the `resilience --seed`
//! replay, and the commands only the CLI has. Flags reach the shared
//! layer through [`Args`]' `FlagReader` implementation.
//!
//! Every command returns `amped_core::Result<String>`: user mistakes become
//! [`Error::Usage`], unreadable files become [`Error::Io`], and model-layer
//! failures propagate typed — `main` maps them all to a non-zero exit.

use std::sync::Arc;

use amped_configs::pipeline::FlagSet;
use amped_configs::registry;
use amped_configs::scenario::{ResilienceSection, ResolvedScenario};
use amped_core::{Error, InferenceConfig, Result};
use amped_memory::{MemoryModel, OptimizerSpec};
use amped_obs::Observer;
use amped_report::Table;
use amped_search::{Candidate, SearchStats, ServingCandidate, ServingSearchStats};
use amped_serve::ops::{self, to_json, Context, Op, Outcome, Params};
use amped_sim::{FaultPlan, SimConfig};

use crate::args::Args;

const HELP: &str = "\
amped — analytical model for performance in distributed training of transformers

usage: amped <command> [flags]

commands:
  presets                     list model, accelerator and scenario presets
  schema                      print the versioned scenario schema (JSON):
                              every section, field, type and flag mapping
  estimate                    predict training time for one mapping
  infer                       price a serving workload: TTFT, TPOT, request
                              latency, tokens/s and KV-cache footprint
  detail                      per-layer attribution of an estimate
  search                      rank all parallelism mappings on a system
                              (--workload infer ranks serving mappings)
  recommend                   best mapping + lint + knob leverage in one shot
  sweep                       batch-size sweep over named mappings (CSV)
  simulate                    discrete-event simulation of one iteration
  trace                       simulate and emit Chrome-trace JSON
  memory                      per-device memory footprint of a mapping
  energy                      energy, cost and CO2 of a run
  resilience                  expected time under failures (checkpoint/restart)
  sensitivity                 which knob moves the training time most
  check                       lint a launch configuration for footguns
  serve                       long-lived HTTP service answering estimate/
                              search/recommend/sweep/resilience queries
  loadtest                    replay concurrent mixed traffic against a
                              running server; write BENCH_serve.json
  help                        this text

scenario flags (every command below resolves its scenario through one
layered pipeline — built-in defaults < --preset < --config < flags — the
same precedence the HTTP API applies to ?preset=, request body, and query
parameters):
  --preset NAME               start from a named scenario preset
                              (see `amped presets`, kind `scenario`)
  --config FILE               scenario file overlay (JSON; fields not set
                              in the file keep their lower-layer values)
  --dump-resolved             print the resolved scenario with per-field
                              provenance instead of running the command
  --model NAME                model preset (see `amped presets`)
  --accel NAME                accelerator preset (v100|p100|a100|h100)
  --nodes N                   number of nodes                  [default 1]
  --per-node N                accelerators per node            [default 8]
  --nics N                    NICs per node                    [default per-node]
  --intra-gbps G              intra-node bandwidth, Gbit/s     [default 2400]
  --inter-gbps G              per-NIC bandwidth, Gbit/s        [default 200]
  --tp I[,X] --pp I[,X] --dp I[,X]   intra,inter parallel degrees
  --batch B                   global batch size                [default 512]
  --batches N                 number of batches                [default 1]
  --microbatches N            explicit microbatch count
  --eff E                     constant efficiency in (0,1]
  --bits B                    uniform precision in bits        [default 16]
  --recompute                 enable activation recomputation
  --json                      machine-readable output
                              (estimate/search/recommend/sweep/resilience)
  --top K                     rows to print for search         [default 10]
  --prune                     skip search candidates that cannot beat the
                              best time seen (same winner, fewer rows)
  --backend NAME              cost backend for estimate/sweep:
                              analytical | sim      [default analytical]
  --refine-sim K              search/recommend: re-rank the analytical top K
                              through the simulator             [default 0]
  --memory-filter             search only: drop candidates whose footprint
                              does not fit device memory

observability flags (estimate/sweep/search/simulate/resilience):
  --metrics-out FILE          write a JSON run report: per-phase timings,
                              search counters, cache hit rates, DES internals,
                              per-device busy fractions
  --trace-out FILE            write Chrome-trace JSON (load in Perfetto):
                              search phase spans on the calling thread's
                              track; on simulate, the device timeline
                              (pid = pipeline stage, tid = device,
                              checkpoint/recompute categories)
  -v                          append a human-readable metrics summary
                              (instrumentation is off unless one of these is
                              given, and never changes any result)

serving flags (infer; search with --workload infer — they resolve the
scenario's `inference` section through the same layered pipeline as
every other flag family):
  --prompt N                  prompt (prefill) tokens          [default 512]
  --decode N                  generated tokens per request     [default 128]
  --serve-batch B             concurrent sequences per replica [default 1]
  --kv-bits B                 KV-cache precision in bits       [default 16]
  --workload NAME             search objective: train | infer
                              (infer ranks by request latency and flags the
                              TTFT/TPOT/throughput/memory Pareto frontier)
                              [default train]
  --max-serve-batch B         search --workload infer: top of the
                              power-of-two batch ladder swept per mapping
                              [default 64]

resilience flags (resilience; --mtbf also on estimate, --goodput on
search/recommend, --seed on resilience/simulate, --stragglers on simulate):
  --mtbf HOURS                per-node mean time between failures
                              (resilience default 4380 = 6 months)
  --restart S                 restart cost after a failure    [default 300]
  --ckpt-gbps G               checkpoint write bandwidth per device, Gbit/s
                              [default 16 = 2 GB/s]
  --ckpt-interval S           fixed checkpoint interval (default: Young/Daly)
  --goodput [HOURS]           search/recommend: rank by expected time under
                              failures (MTBF defaults to 4380 h)
  --seed N                    simulate/resilience: inject seeded faults and
                              replay the whole run (with --batches)
  --stragglers N[xF]          simulate only: N random stragglers slowed by
                              factor F                       [default F 1.5]

failure-domain flags (resilience; search/recommend when --goodput is on —
they extend the node-failure model with correlated rack/pod outages, spot
preemption and elastic shrink/regrow recovery):
  --domains N[,R]             domain tree shape: nodes per rack, racks per
                              pod                            [default 8,4]
  --rack-mtbf HOURS           per-rack mean time between outages
  --pod-mtbf HOURS            per-pod mean time between outages
  --preemption-mtbf HOURS     per-node spot preemption MTBF (survivable
                              under elastic recovery)
  --regrow-delay S            capacity-regrow delay after a survivable
                              outage                         [default 600]
  --placement NAME            device layout onto the tree: auto |
                              replica-major | stage-major    [default auto]

serve flags (serve only; request bodies are scenario JSON files, responses
the same artifacts the --json flags print):
  --port P                    TCP port on 127.0.0.1 (0 = ephemeral)
                              [default 8750]
  --jobs N                    worker threads (0 = one per CPU)  [default 0]
  --queue-depth N             bounded request queue; beyond it requests get
                              429 + Retry-After                [default 64]
  --timeout-ms MS             per-request deadline from enqueue (504 past
                              it)                           [default 30000]
  --access-log FILE           append one JSON line per request: endpoint,
                              status, bytes, queue/handler microseconds
  -v                          serve: mirror the access log to stderr
                              (per-endpoint latency histograms are always
                              on — GET /v1/metrics?format=prometheus)

loadtest flags (loadtest only; drives a live `amped serve` instance):
  --addr HOST:PORT            target server             [default 127.0.0.1:8750]
  --clients N                 concurrent client threads          [default 4]
  --requests N                requests per client                [default 8]
  --preset NAME               scenario preset each request carries
                              [default dev-small]
  --out FILE                  report path           [default BENCH_serve.json]
  --json                      print the report JSON instead of the table
";

/// The `--metrics-out` / `--trace-out` / `-v` observability session of one
/// command invocation.
///
/// When none of the three flags is given the session is disabled:
/// [`ObsSession::observer`] returns `None`, nothing is ever attached to the
/// engines, and the command runs exactly the uninstrumented code path —
/// the zero-overhead-when-disabled contract. When enabled, instrumentation
/// is passive (clock reads and atomic bumps), so results are bit-identical
/// either way.
struct ObsSession {
    observer: Arc<Observer>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    verbose: bool,
}

impl ObsSession {
    fn from_args(args: &Args) -> Self {
        ObsSession {
            observer: Arc::new(Observer::new()),
            metrics_out: args.get("metrics-out").map(String::from),
            trace_out: args.get("trace-out").map(String::from),
            verbose: args.switch("v") || args.switch("verbose"),
        }
    }

    fn enabled(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.verbose
    }

    /// The observer to attach to engines — `None` when the session is
    /// disabled, so disabled runs never pay even the passive recording.
    fn observer(&self) -> Option<Arc<Observer>> {
        self.enabled().then(|| Arc::clone(&self.observer))
    }

    /// Write `--metrics-out` / `--trace-out` files and append the `-v`
    /// summary to `out`. `trace_json` overrides the observer-span trace
    /// (the simulator commands export their device timeline instead).
    fn finish_with(
        &self,
        command: &str,
        trace_json: Option<String>,
        out: &mut String,
    ) -> Result<()> {
        if !self.enabled() {
            return Ok(());
        }
        let report = self.observer.report(command);
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, report.to_json())
                .map_err(|e| Error::io(path, e.to_string()))?;
        }
        if let Some(path) = &self.trace_out {
            let json = trace_json.unwrap_or_else(|| self.observer.chrome_trace());
            std::fs::write(path, json).map_err(|e| Error::io(path, e.to_string()))?;
        }
        if self.verbose {
            out.push_str("\n\n");
            out.push_str(&report.summary());
        }
        Ok(())
    }

    fn finish(&self, command: &str, out: &mut String) -> Result<()> {
        self.finish_with(command, None, out)
    }
}

/// Route a parsed command line to its implementation. `--help` or `-h`
/// anywhere on the line prints the help text instead of running anything.
pub fn dispatch(args: &Args) -> Result<String> {
    // `--help value` parses as a flag, so look for both spellings.
    if args.switch("help") || args.get("help").is_some() || args.switch("h") {
        return Ok(HELP.to_string());
    }
    let command = args.command.as_deref().unwrap_or("help");
    if let Some(op) = Op::for_command(command, args)? {
        return shared(args, command, op);
    }
    match command {
        "help" => Ok(HELP.to_string()),
        "presets" => presets(),
        "schema" => to_json(&amped_configs::schema::schema_value()),
        "serve" => serve(args),
        "loadtest" => loadtest(args),
        "detail" | "simulate" | "trace" | "memory" | "energy" | "sensitivity" | "check" => {
            let file = config_file(args)?;
            let r = ops::resolve(args, file.as_deref(), FlagSet::default(), None)?;
            if args.switch("dump-resolved") {
                return to_json(&r.dump_value());
            }
            let s = &r.scenario;
            match command {
                "detail" => detail(s),
                "simulate" => simulate(args, s),
                "trace" => trace(s),
                "memory" => Ok(memory(s)),
                "energy" => energy(s),
                "sensitivity" => sensitivity(args, s),
                _ => Ok(check(s)),
            }
        }
        other => Err(Error::usage(format!(
            "unknown command `{other}`; try `amped help`"
        ))),
    }
}

/// The text of the `--config` scenario file, when one is given.
fn config_file(args: &Args) -> Result<Option<String>> {
    args.get("config")
        .map(|path| std::fs::read_to_string(path).map_err(|e| Error::io(path, e.to_string())))
        .transpose()
}

/// A command the service answers too: parameters, resolution and
/// execution go through [`ops`]; this adds the `--config` file,
/// `--dump-resolved`, the observability session and the text views.
fn shared(args: &Args, command: &str, op: Op) -> Result<String> {
    let params = Params::read(args)?;
    let r = op.resolve(&params, args, config_file(args)?.as_deref())?;
    if args.switch("dump-resolved") {
        return to_json(&r.dump_value());
    }
    let s = &r.scenario;
    let obs = ObsSession::from_args(args);
    let ctx = Context {
        observer: obs.observer(),
        pool: None,
    };
    let outcome = op.execute(s, &params, &ctx)?;
    if args.switch("json") {
        // Observability files are still written; the -v summary never
        // pollutes machine-readable output.
        obs.finish(command, &mut String::new())?;
        return to_json(&outcome.artifact());
    }
    let mut trace_json = None;
    let mut out = match &outcome {
        Outcome::Estimate { estimate, resilience, backend } => {
            let mut out = format!(
                "{} on {} x {} ({} nodes x {}/node) via {backend} backend\n{estimate}",
                s.model.name(),
                s.system.total_accelerators(),
                s.accelerator.name(),
                s.system.num_nodes(),
                s.system.accels_per_node(),
            );
            if let Some(r) = resilience {
                out.push_str(&format!("\n{r}"));
            }
            out
        }
        Outcome::Infer { estimate, config, backend } => format!(
            "{} served on {} x {} ({} nodes x {}/node) via {backend} backend\n\
             prompt {} + decode {} tokens @ batch {} ({}-bit KV cache)\n{estimate}",
            s.model.name(),
            s.system.total_accelerators(),
            s.accelerator.name(),
            s.system.num_nodes(),
            s.system.accels_per_node(),
            config.prompt_tokens(),
            config.decode_tokens(),
            config.batch(),
            config.kv_bits(),
        ),
        Outcome::Search { results, stats, top, goodput } => {
            search_text(s, results, stats, *top, *goodput)
        }
        Outcome::ServingSearch { results, stats, top, request } => {
            serving_text(s, results, stats, *top, request)
        }
        Outcome::Recommend(rec) => rec.to_string(),
        Outcome::Sweep(sweep) => amped_report::artifacts::sweep_text(sweep),
        Outcome::Resilience { report, correlated, backend, .. } => {
            let section = s.resilience.expect("the resilience op resolves a section");
            let mut out = format!(
                "{} on {} accelerators ({} nodes, node MTBF {} h) via {backend} backend\n{report}",
                s.model.name(),
                s.system.total_accelerators(),
                s.system.num_nodes(),
                section.node_mtbf_hours,
            );
            if let Some(c) = correlated {
                out.push_str(&format!("\n{c}"));
            }
            // --seed cross-checks the analytical expectation against one
            // seeded fault-injected replay in the discrete-event simulator.
            if let Some(seed) = ops::parsed::<u64>(args, "seed")? {
                let run = seeded_replay(s, &section, seed, obs.observer())?;
                let deviation = (run.total_time_s - report.expected_s) / report.expected_s * 100.0;
                out.push_str(&format!(
                    "\nseeded simulation (seed {seed}): {:.2} s total, {} failure(s), {} checkpoint(s)\n  vs analytical expectation {:.2} s ({:+.1}%)",
                    run.total_time_s, run.num_failures, run.num_checkpoints, report.expected_s, deviation
                ));
                // The fault replay is the interesting trace here: training,
                // lost work, restarts and checkpoint writes per device.
                trace_json = obs
                    .trace_out
                    .is_some()
                    .then(|| amped_sim::trace::run_to_chrome_trace(&run, s.parallelism.pp()));
            }
            out
        }
    };
    obs.finish_with(command, trace_json, &mut out)?;
    Ok(out)
}

/// One seeded fault-injected replay of the whole run under the
/// scenario's resilience section and failure domains.
fn seeded_replay(
    s: &ResolvedScenario,
    section: &ResilienceSection,
    seed: u64,
    observer: Option<Arc<Observer>>,
) -> Result<amped_sim::RunResult> {
    let mut plan = FaultPlan::seeded(seed)
        // Node MTBF spread over the node's devices: same system-level
        // failure rate, expressed per simulated device.
        .with_device_mtbf(section.node_mtbf_s() * s.system.accels_per_node() as f64)
        .with_restart(section.restart_s)
        .with_ckpt_write_bw(section.ckpt_write_bytes_per_s());
    if let Some(interval) = section.interval_s {
        plan = plan.with_ckpt_interval(interval);
    }
    if let Some(fd) = &s.failure_domains {
        plan = plan
            .with_domain_tree(fd.tree(s.system.num_nodes())?)
            .with_regrow(fd.regrow_delay_s);
        if let Some(hours) = fd.preemption_mtbf_hours {
            plan = plan.with_preemption(hours * 3600.0);
        }
    }
    let scenario = s.to_scenario();
    let mut cfg = SimConfig::from_scenario(&scenario);
    if let Some(o) = observer {
        cfg = cfg.with_observer(o);
    }
    cfg.simulate_run(s.training.global_batch(), s.training.num_batches(), &plan)
}

/// The `search` table: the top rows of the ranking, the memory filter's
/// rejections, and the expected-time table under `--goodput`.
fn search_text(
    s: &ResolvedScenario,
    results: &[Candidate],
    stats: &SearchStats,
    top: usize,
    goodput: bool,
) -> String {
    let mut t = Table::new(["#", "tp", "pp", "dp", "time", "TFLOP/s/GPU", "fits mem", "backend"]);
    for (i, c) in results.iter().take(top).enumerate() {
        t.row([
            format!("{}", i + 1),
            format!("{}x{}", c.parallelism.tp_intra(), c.parallelism.tp_inter()),
            format!("{}x{}", c.parallelism.pp_intra(), c.parallelism.pp_inter()),
            format!("{}x{}", c.parallelism.dp_intra(), c.parallelism.dp_inter()),
            c.ranking_estimate().total_time.to_string(),
            format!("{:.1}", c.ranking_estimate().tflops_per_gpu),
            if c.fits_memory { "yes" } else { "NO" }.to_string(),
            if c.refined.is_some() { "sim" } else { "analytical" }.to_string(),
        ]);
    }
    let mut out = format!(
        "{} candidate mappings for {} on {} accelerators; top {top}:\n{}",
        results.len(),
        s.model.name(),
        s.system.total_accelerators(),
        t.to_ascii()
    );
    if stats.memory_rejected.total() > 0 {
        let r = &stats.memory_rejected;
        out.push_str(&format!(
            "\n\n{} mapping(s) dropped by the memory filter; first failing inequality: \
             weights {}, gradients {}, optimizer {}, activations {}",
            r.total(),
            r.weights,
            r.gradients,
            r.optimizer,
            r.activations
        ));
    }
    if goodput {
        let shown = top.min(results.len());
        out.push_str(&format!(
            "\n\nexpected time under failures (ranking objective):\n{}",
            amped_report::resilience_table(&results[..shown]).to_ascii()
        ));
    }
    out
}

/// The `search --workload infer` table: the top serving points by
/// request latency, Pareto-front members starred.
fn serving_text(
    s: &ResolvedScenario,
    results: &[ServingCandidate],
    stats: &ServingSearchStats,
    top: usize,
    request: &InferenceConfig,
) -> String {
    let front = amped_search::serving_pareto_front(results);
    let on_front = |c: &ServingCandidate| front.iter().any(|f| std::ptr::eq::<ServingCandidate>(*f, c));
    let mut t = Table::new([
        "#", "tp", "pp", "replicas", "batch", "ttft", "tpot", "tok/s", "memory", "pareto",
    ]);
    for (i, c) in results.iter().take(top).enumerate() {
        t.row([
            format!("{}", i + 1),
            format!("{}x{}", c.parallelism.tp_intra(), c.parallelism.tp_inter()),
            format!("{}x{}", c.parallelism.pp_intra(), c.parallelism.pp_inter()),
            format!("{}", c.estimate.replicas),
            format!("{}", c.batch),
            format!("{:.3} ms", c.estimate.ttft.get() * 1e3),
            format!("{:.3} ms", c.estimate.tpot.get() * 1e3),
            format!("{:.0}", c.estimate.tokens_per_sec),
            amped_core::units::format_bytes(c.estimate.memory_total()),
            if on_front(c) { "*" } else { "" }.to_string(),
        ]);
    }
    let mut out = format!(
        "{} serving points for {} on {} accelerators \
         (prompt {} + decode {}); top {top} by request latency:\n{}",
        results.len(),
        s.model.name(),
        s.system.total_accelerators(),
        request.prompt_tokens(),
        request.decode_tokens(),
        t.to_ascii()
    );
    if stats.memory_rejected.total() > 0 {
        let rej = &stats.memory_rejected;
        out.push_str(&format!(
            "\n\n{} point(s) dropped by the KV-capacity filter; first failing \
             inequality: weights {}, kv_cache {}",
            rej.total(),
            rej.weights,
            rej.kv_cache
        ));
    }
    out
}

fn presets() -> Result<String> {
    let mut t = Table::new(["kind", "name", "details"]);
    for name in registry::model_names() {
        let m = registry::model(name).expect("listed names resolve");
        t.row([
            "model".to_string(),
            name.to_string(),
            format!(
                "{} layers, h={}, {} heads, {:.1}B params",
                m.num_layers(),
                m.hidden_size(),
                m.num_heads(),
                m.total_parameters() / 1e9
            ),
        ]);
    }
    for name in registry::accelerator_names() {
        let a = registry::accelerator(name).expect("listed names resolve");
        t.row([
            "accel".to_string(),
            name.to_string(),
            format!(
                "{:.0} TFLOP/s fp16 peak, {:.0} GiB",
                a.peak_flops_per_sec(16) / 1e12,
                a.memory_bytes() / (1u64 << 30) as f64
            ),
        ]);
    }
    for name in registry::scenario_names() {
        t.row([
            "scenario".to_string(),
            name.to_string(),
            "complete scenario overlay for --preset / ?preset=".to_string(),
        ]);
    }
    Ok(t.to_ascii())
}

fn simulate(args: &Args, s: &ResolvedScenario) -> Result<String> {
    let obs = ObsSession::from_args(args);
    let scenario = s.to_scenario();
    let mut cfg = SimConfig::from_scenario(&scenario);
    if let Some(o) = obs.observer() {
        cfg = cfg.with_observer(o);
    }
    // --seed switches to a fault-injected whole-run replay.
    if let Some(seed) = ops::parsed::<u64>(args, "seed")? {
        let mut plan = FaultPlan::seeded(seed).with_restart(args.parse_or("restart", 300.0)?);
        if let Some((count, factor)) = args.straggler_spec("stragglers")? {
            plan = plan.with_random_stragglers(count, factor);
        }
        if let Some(hours) = ops::parsed::<f64>(args, "mtbf")? {
            plan = plan.with_device_mtbf(hours * 3600.0 * s.system.accels_per_node() as f64);
        }
        if let Some(interval) = ops::parsed(args, "ckpt-interval")? {
            plan = plan.with_ckpt_interval(interval);
        }
        let gbps: f64 = args.parse_or("ckpt-gbps", 16.0)?;
        plan = plan.with_ckpt_write_bw(gbps * 1e9 / 8.0);
        let run = cfg.simulate_run(s.training.global_batch(), s.training.num_batches(), &plan)?;
        let mut out = format!(
            "fault-injected run (seed {seed}): {:.4} s over {} batches\n  \
             fault-free: {:.4} s   checkpoints: {} ({:.4} s)   rework: {:.4} s\n  \
             failures: {}   ckpt interval: {} iteration(s)   goodput: {:.1}%",
            run.total_time_s,
            s.training.num_batches(),
            run.fault_free_time_s,
            run.num_checkpoints,
            run.checkpoint_time_s,
            run.rework_time_s,
            run.num_failures,
            run.ckpt_interval_iters,
            run.goodput() * 100.0
        );
        // Export the replay itself: train/ckpt/lost/restart slices per
        // device, pid = pipeline stage.
        let trace_json = obs
            .trace_out
            .is_some()
            .then(|| amped_sim::trace::run_to_chrome_trace(&run, s.parallelism.pp()));
        obs.finish_with("simulate", trace_json, &mut out)?;
        return Ok(out);
    }
    if args.get("stragglers").is_some() || args.get("mtbf").is_some() {
        return Err(Error::usage(
            "--stragglers/--mtbf on simulate need --seed N to draw the fault plan",
        ));
    }
    let result = cfg.simulate_iteration(s.training.global_batch())?;
    let mut out = format!(
        "simulated iteration: {:.4} s  (mean utilization {:.1}%)\n",
        result.iteration_time,
        result.mean_utilization * 100.0
    );
    let devices = result.timeline.num_devices().min(16);
    for d in 0..devices {
        out.push_str(&format!(
            "dev {d:>2} |{}| {:.0}%\n",
            result.timeline.ascii_trace(d, 60),
            result.device_stats[d].utilization(result.iteration_time) * 100.0
        ));
    }
    // The device timeline, grouped by pipeline stage in Perfetto.
    let trace_json = obs.trace_out.is_some().then(|| {
        amped_sim::trace::to_chrome_trace_staged(&result.timeline, s.parallelism.pp())
    });
    obs.finish_with("simulate", trace_json, &mut out)?;
    Ok(out)
}

fn detail(s: &ResolvedScenario) -> Result<String> {
    let detailed = s.to_scenario().estimator().estimate_detailed(&s.training)?;
    let mut out = format!("{detailed}

hottest layers:
");
    for l in detailed.hottest_layers(5) {
        out.push_str(&format!(
            "  layer {:>3}: {:.3e} s ({:.1}% of the iteration)
",
            l.index,
            l.total(),
            l.total() / detailed.estimate.time_per_iteration.get() * 100.0
        ));
    }
    Ok(out)
}

fn trace(s: &ResolvedScenario) -> Result<String> {
    let result =
        SimConfig::from_scenario(&s.to_scenario()).simulate_iteration(s.training.global_batch())?;
    Ok(amped_sim::trace::to_chrome_trace(&result.timeline))
}

fn energy(s: &ResolvedScenario) -> Result<String> {
    use amped_energy::{CostModel, EnergyEstimate, PowerModel};
    let estimate = s.to_scenario().estimator().estimate(&s.training)?;
    let power = PowerModel::from_accelerator(&s.accelerator);
    let energy =
        EnergyEstimate::from_estimate(&estimate, &power, s.training.num_batches());
    let cost = CostModel::cloud_a100();
    Ok(format!(
        "run: {} batches of {} on {} accelerators, {:.2} days
         energy: {energy}
         cost:   ${:.0} (cloud rates)   CO2: {:.1} t",
        s.training.num_batches(),
        s.training.global_batch(),
        estimate.total_workers,
        estimate.days(),
        cost.usd(&energy, estimate.total_workers, estimate.total_time.get()),
        cost.kg_co2(&energy) / 1000.0
    ))
}

fn sensitivity(args: &Args, s: &ResolvedScenario) -> Result<String> {
    use amped_core::SensitivityAnalysis;
    let factor: f64 = args.parse_or("factor", 2.0)?;
    let scenario = s.to_scenario();
    let tornado = SensitivityAnalysis::from_scenario(&scenario).tornado(factor, &s.training)?;
    let mut t = Table::new(["knob", &format!("{factor}x better"), "speedup"]);
    for r in &tornado {
        t.row([
            r.knob.name().to_string(),
            format!("{:.3e} -> {:.3e} s/sample", r.baseline_per_sample, r.improved_per_sample),
            format!("{:+.1}%", r.speedup() * 100.0),
        ]);
    }
    Ok(format!(
        "sensitivity of {} on {} accelerators (each knob improved {factor}x):
{}",
        s.model.name(),
        s.system.total_accelerators(),
        t.to_ascii()
    ))
}

fn check(s: &ResolvedScenario) -> String {
    let diagnostics =
        amped_core::check_scenario(&s.model, &s.system, &s.parallelism, &s.training);
    if diagnostics.is_empty() {
        return "configuration looks sane: no warnings".to_string();
    }
    let mut out = format!("{} finding(s):
", diagnostics.len());
    for d in diagnostics {
        out.push_str(&format!("  {d}
"));
    }
    out
}

fn memory(s: &ResolvedScenario) -> String {
    let scenario = s.to_scenario();
    let mem = MemoryModel::from_scenario(&scenario)
        .with_optimizer(OptimizerSpec::adam_mixed_precision());
    let ub = s.parallelism.microbatch_size(s.training.global_batch());
    let n_ub = s.parallelism.num_microbatches(s.training.global_batch());
    let fp = mem.footprint(ub, n_ub);
    format!(
        "per-device footprint at ub={ub:.1} x{n_ub}: {}\ncapacity {}: {}",
        fp,
        amped_core::units::format_bytes(s.accelerator.memory_bytes()),
        if fp.total() <= s.accelerator.memory_bytes() {
            "fits"
        } else {
            "DOES NOT FIT"
        }
    )
}

/// `amped serve` — run the HTTP query service until SIGINT (or a
/// `POST /v1/shutdown`), then report what it served. The listening line
/// goes straight to stdout before blocking so callers (and the CI smoke
/// test) can discover an ephemeral port.
fn serve(args: &Args) -> Result<String> {
    let port: u16 = args.parse_or("port", 8750)?;
    let config = amped_serve::ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        jobs: args.parse_or("jobs", 0)?,
        queue_depth: args.parse_or("queue-depth", 64)?,
        timeout_ms: args.parse_or("timeout-ms", 30_000)?,
        handle_sigint: true,
        access_log: args.get("access-log").map(String::from),
        verbose: args.switch("v"),
    };
    let server = amped_serve::Server::bind(config)?;
    println!("amped-serve listening on {}", server.local_addr()?);
    let summary = server.run()?;
    Ok(format!("amped-serve: {summary}"))
}

/// `amped loadtest` — replay concurrent mixed traffic against a running
/// server and record what it delivered. Writes the versioned
/// `BENCH_serve.json` report (`--out`) and prints either the raw JSON
/// (`--json`) or a per-endpoint quantile table rendered by the same
/// `amped_report::histogram_table` the metrics views use.
fn loadtest(args: &Args) -> Result<String> {
    let config = amped_serve::LoadTestConfig {
        addr: args.get_or("addr", "127.0.0.1:8750").to_string(),
        clients: args.parse_or("clients", 4)?,
        requests_per_client: args.parse_or("requests", 8)?,
        preset: args.get_or("preset", "dev-small").to_string(),
        ..amped_serve::LoadTestConfig::default()
    };
    let report = amped_serve::loadtest::run(&config)?;
    let value = report.to_value();
    let json = to_json(&value)?;
    let out = args.get_or("out", "BENCH_serve.json");
    std::fs::write(out, format!("{json}\n")).map_err(|e| Error::io(out, e.to_string()))?;
    if args.switch("json") {
        return Ok(json);
    }
    let mut text = format!(
        "loadtest {}: {} requests ({} clients x {}), {:.2} req/s over {:.2}s\n\
         errors {:.1}%  429 rejections {:.1}%  cache hit rate {:.1}% ({}/{})\n\n\
         client-observed latency, microseconds:\n{}\nreport written to {out}",
        config.addr,
        report.requests,
        report.clients,
        report.requests_per_client,
        report.req_per_sec,
        report.duration_s,
        report.error_rate * 100.0,
        report.rejected_429_rate * 100.0,
        report.cache_hit_rate * 100.0,
        report.cache_hits,
        report.cache_lookups,
        amped_report::histogram_table(value.get("endpoints").unwrap_or(&value)).to_ascii(),
    );
    if report.requests > 0 && report.error_rate == 0.0 {
        text.push_str("\nall requests succeeded");
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str) -> Result<String> {
        dispatch(&Args::parse(cmd.split_whitespace().map(String::from)))
    }

    #[test]
    fn help_lists_commands() {
        let h = run("help").unwrap();
        assert!(h.contains("estimate") && h.contains("search"));
        assert_eq!(run("").unwrap(), h);
    }

    #[test]
    fn help_flag_prints_help_instead_of_running() {
        let h = run("help").unwrap();
        // A shared command (it would run a default search) and a CLI-only
        // one (it would start a server).
        assert_eq!(run("search --help").unwrap(), h);
        assert_eq!(run("search --model gpt3-175b -h").unwrap(), h);
        assert_eq!(run("serve --help --port 0").unwrap(), h);
        assert_eq!(run("--help estimate").unwrap(), h);
    }

    #[test]
    fn presets_lists_models_and_accels() {
        let p = run("presets").unwrap();
        assert!(p.contains("gpt3-175b") && p.contains("a100"));
    }

    #[test]
    fn estimate_runs_with_defaults() {
        let out = run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64")
            .unwrap();
        assert!(out.contains("total"));
        assert!(out.contains("TFLOP/s/GPU"));
    }

    #[test]
    fn estimate_json_is_valid() {
        let out =
            run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --json")
                .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("tflops_per_gpu").is_some());
    }

    #[test]
    fn search_returns_table() {
        let out =
            run("search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 5")
                .unwrap();
        assert!(out.contains("candidate mappings"));
    }

    #[test]
    fn search_jobs_and_prune_keep_the_winner() {
        let serial =
            run("search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 1")
                .unwrap();
        // `--jobs` is not an execution parameter of the shared commands:
        // like any unknown flag it is ignored, malformed or not.
        let ignored =
            run("search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 1 --jobs lots")
                .unwrap();
        assert_eq!(serial, ignored);
        let tuned =
            run("search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 1 --prune")
                .unwrap();
        // Same top row (the candidate count in the header may shrink).
        let row = |s: &str| s.lines().last().unwrap().to_string();
        assert_eq!(row(&serial), row(&tuned), "{serial}\nvs\n{tuned}");
    }

    #[test]
    fn estimate_backend_flag_selects_the_cost_backend() {
        let analytical =
            run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --backend analytical")
                .unwrap();
        assert!(analytical.contains("via analytical backend"), "{analytical}");
        let sim =
            run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --backend sim")
                .unwrap();
        assert!(sim.contains("via sim backend"), "{sim}");
        assert!(sim.contains("total"));
        assert!(
            run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --backend bogus")
                .is_err()
        );
    }

    #[test]
    fn search_refine_sim_reprices_the_top_block() {
        let out = run(
            "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 5 --refine-sim 3",
        )
        .unwrap();
        assert!(out.contains("candidate mappings"), "{out}");
        assert!(out.contains("sim"), "refined rows must be marked: {out}");
        let json = run(
            "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 3 --refine-sim 3 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["rows"]
            .as_array()
            .unwrap()
            .iter()
            .any(|r| r["backend"] == "sim"));
        assert!(v["memory_rejected"]["total"].as_u64().is_some(), "{json}");
    }

    const RECOMPUTE_FIXTURE: &str =
        "--model mingpt-85m --accel v100 --per-node 8 --pp 2 --dp 4 --batch 64";

    #[test]
    fn detail_total_matches_estimate_under_recompute() {
        // The estimate's own breakdown lines, which `detail` prints after
        // its per-layer rows.
        let totals = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.starts_with("total ") || l.starts_with("iteration:"))
                .map(String::from)
                .collect()
        };
        let flags = format!("{RECOMPUTE_FIXTURE} --recompute");
        let estimate = run(&format!("estimate {flags}")).unwrap();
        let detail = run(&format!("detail {flags}")).unwrap();
        assert_eq!(totals(&estimate).len(), 2, "{estimate}");
        assert_eq!(totals(&estimate), totals(&detail), "{estimate}\nvs\n{detail}");
        let plain = run(&format!("detail {RECOMPUTE_FIXTURE}")).unwrap();
        assert_ne!(totals(&plain), totals(&detail), "--recompute must reach detail");
    }

    #[test]
    fn simulate_and_memory_honor_recompute() {
        for command in ["simulate", "memory"] {
            let plain = run(&format!("{command} {RECOMPUTE_FIXTURE}")).unwrap();
            let recompute = run(&format!("{command} {RECOMPUTE_FIXTURE} --recompute")).unwrap();
            // The first line carries the simulated time / the footprint
            // with its activation term.
            assert_ne!(
                plain.lines().next(),
                recompute.lines().next(),
                "{command}: --recompute was ignored\n{plain}"
            );
        }
    }

    #[test]
    fn search_memory_filter_keeps_only_feasible_mappings() {
        let out = run(
            "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 5 --memory-filter",
        )
        .unwrap();
        assert!(out.contains("yes"), "{out}");
        assert!(!out.contains("NO"), "filtered search must not list misfits: {out}");
    }

    #[test]
    fn sweep_backend_flag_prices_through_the_simulator() {
        let out = run(
            "sweep --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 64 --backend sim",
        )
        .unwrap();
        assert!(out.starts_with("batch,dp-inter"), "{out}");
        assert!(out.contains("winners:"));
    }

    #[test]
    fn simulate_prints_traces() {
        let out = run("simulate --model mingpt-85m --accel v100 --per-node 4 --pp 4 --dp 1 --batch 16")
            .unwrap();
        assert!(out.contains("dev  0"));
    }

    #[test]
    fn memory_reports_fit() {
        let out = run("memory --model mingpt-85m --accel v100 --per-node 1 --dp 1 --batch 8").unwrap();
        assert!(out.contains("fits") || out.contains("DOES NOT FIT"));
    }

    #[test]
    fn detail_prints_hottest_layers() {
        let out = run("detail --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64")
            .unwrap();
        assert!(out.contains("hottest layers"));
        assert!(out.contains("dense"));
    }

    #[test]
    fn recommend_gives_mapping_and_knob() {
        let out = run("recommend --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 128")
            .unwrap();
        assert!(out.contains("recommended mapping"), "{out}");
        assert!(out.contains("highest-leverage knob"), "{out}");
    }

    #[test]
    fn sweep_emits_csv_and_winners() {
        let out = run("sweep --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 64")
            .unwrap();
        assert!(out.starts_with("batch,dp-inter"));
        assert!(out.contains("winners:"));
    }

    #[test]
    fn trace_is_valid_chrome_json() {
        let out = run("trace --model mingpt-85m --accel v100 --per-node 4 --pp 4 --dp 1 --batch 16")
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(!v.as_array().unwrap().is_empty());
    }

    #[test]
    fn energy_reports_cost() {
        let out = run("energy --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --batches 100")
            .unwrap();
        assert!(out.contains("MWh") && out.contains("CO2"));
    }

    #[test]
    fn config_file_drives_estimate() {
        let dir = std::env::temp_dir().join("amped-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        std::fs::write(
            &path,
            r#"{
                "model": { "preset": "mingpt-85m" },
                "accelerator": { "preset": "v100" },
                "system": { "nodes": 1, "accels_per_node": 8,
                            "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
                "parallelism": { "dp": [8, 1] },
                "training": { "global_batch": 64, "num_batches": 2 }
            }"#,
        )
        .unwrap();
        let out = run(&format!("estimate --config {}", path.display())).unwrap();
        assert!(out.contains("minGPT-85M"));
        assert!(run("estimate --config /nonexistent.json").is_err());
    }

    #[test]
    fn sensitivity_ranks_knobs() {
        let out =
            run("sensitivity --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64")
                .unwrap();
        assert!(out.contains("accelerator frequency"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn check_lints_bad_configs() {
        // TP across nodes over the default HDR network: warned.
        let out = run(
            "check --model megatron-145b --accel a100 --nodes 4 --per-node 8 --nics 1 --tp 8,4 --dp 1,1 --batch 4096",
        )
        .unwrap();
        assert!(out.contains("tp-inter-slow-links"), "{out}");
        // A sane config is clean.
        let ok = run(
            "check --model megatron-145b --accel a100 --nodes 4 --per-node 8 --tp 8,1 --dp 1,4 --batch 4096",
        )
        .unwrap();
        assert!(ok.contains("no warnings"), "{ok}");
    }

    #[test]
    fn unknown_command_and_presets_error() {
        assert!(run("frobnicate").is_err());
        assert!(run("estimate --model nosuch").is_err());
        assert!(run("estimate --accel nosuch").is_err());
    }

    #[test]
    fn malformed_flags_are_typed_usage_errors() {
        for cmd in [
            "frobnicate",
            "estimate --model nosuch",
            "estimate --batch lots",
            "estimate --eff high",
            "estimate --microbatches some",
            "estimate --tp 1,2,3",
            "estimate --backend bogus",
            "simulate --model mingpt-85m --accel v100 --per-node 4 --dp 4 --batch 16 --seed nope",
            "simulate --model mingpt-85m --accel v100 --per-node 4 --dp 4 --batch 16 --seed 1 --stragglers many",
            "resilience --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --mtbf soon",
        ] {
            let err = run(cmd).unwrap_err();
            assert!(matches!(err, Error::Usage { .. }), "{cmd}: {err:?}");
        }
    }

    #[test]
    fn missing_config_file_is_a_typed_io_error() {
        let err = run("estimate --config /nonexistent/amped.json").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("/nonexistent/amped.json"));
    }

    #[test]
    fn malformed_config_file_is_rejected() {
        let dir = std::env::temp_dir().join("amped-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{ definitely not json").unwrap();
        let err = run(&format!("estimate --config {}", path.display())).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn fault_flags_without_seed_are_rejected() {
        let err = run(
            "simulate --model mingpt-85m --accel v100 --per-node 4 --dp 4 --batch 16 --stragglers 2",
        )
        .unwrap_err();
        assert!(err.to_string().contains("--seed"), "{err}");
    }

    #[test]
    fn resilience_reports_expected_time() {
        let out = run("resilience --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --dp 4,2 --batch 64 --batches 100")
            .unwrap();
        assert!(out.contains("expected"), "{out}");
        assert!(out.contains("Young/Daly"), "{out}");
        assert!(out.contains("node MTBF 4380 h"), "{out}");
    }

    #[test]
    fn resilience_json_bundles_estimate_and_report() {
        let out = run("resilience --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --dp 4,2 --batch 64 --batches 100 --mtbf 1000 --json")
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let est = v.get("estimate").unwrap();
        assert!(est.get("tflops_per_gpu").is_some());
        let res = v.get("resilience").unwrap();
        assert!(res.get("expected_s").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn resilience_seed_cross_checks_the_simulator() {
        let out = run("resilience --model mingpt-85m --accel v100 --per-node 4 --dp 4 --batch 16 --batches 20 --mtbf 2 --seed 7")
            .unwrap();
        assert!(out.contains("seeded simulation (seed 7)"), "{out}");
        assert!(out.contains("vs analytical expectation"), "{out}");
    }

    #[test]
    fn estimate_mtbf_layers_resilience_onto_the_estimate() {
        let plain =
            run("estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --json")
                .unwrap();
        let v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        assert!(v.get("resilience").is_none(), "no --mtbf, no wrapper: {plain}");
        let wrapped = run(
            "estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64 --mtbf 4380 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&wrapped).unwrap();
        assert!(v.get("estimate").unwrap().get("tflops_per_gpu").is_some());
        let res = v.get("resilience").unwrap();
        assert!(res.get("expected_s").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn simulate_seeded_run_reports_failures_and_checkpoints() {
        let out = run(
            "simulate --model mingpt-85m --accel v100 --per-node 4 --pp 4 --dp 1 --batch 16 --batches 20 --seed 42 --mtbf 1 --stragglers 1x2.0",
        )
        .unwrap();
        assert!(out.contains("fault-injected run (seed 42)"), "{out}");
        assert!(out.contains("failures:"), "{out}");
        assert!(out.contains("goodput:"), "{out}");
    }

    #[test]
    fn search_goodput_ranks_by_expected_time() {
        let out = run(
            "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 5 --goodput 1000",
        )
        .unwrap();
        assert!(out.contains("expected time under failures"), "{out}");
        assert!(out.contains("expected days"), "{out}");
        let json = run(
            "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 --batch 64 --top 3 --goodput 1000 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["rows"]
            .as_array()
            .unwrap()
            .iter()
            .all(|r| r.get("expected_days").unwrap().as_f64().unwrap() > 0.0));
    }

    #[test]
    fn config_resilience_section_feeds_the_resilience_command() {
        let dir = std::env::temp_dir().join("amped-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resilient-scenario.json");
        std::fs::write(
            &path,
            r#"{
                "model": { "preset": "mingpt-85m" },
                "accelerator": { "preset": "v100" },
                "system": { "nodes": 2, "accels_per_node": 4,
                            "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
                "parallelism": { "dp": [4, 2] },
                "training": { "global_batch": 64, "num_batches": 100 },
                "resilience": { "node_mtbf_hours": 500.0, "restart_s": 60.0 }
            }"#,
        )
        .unwrap();
        let out = run(&format!("resilience --config {}", path.display())).unwrap();
        assert!(out.contains("node MTBF 500 h"), "{out}");
        // A flag overrides the file.
        let out = run(&format!("resilience --config {} --mtbf 250", path.display())).unwrap();
        assert!(out.contains("node MTBF 250 h"), "{out}");
    }

    fn obs_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("amped-cli-obs-test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn search_obs_flags_write_valid_json_without_changing_output() {
        let dir = obs_dir("search");
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.json");
        let base = "search --model mingpt-85m --accel v100 --nodes 2 --per-node 4 \
                    --batch 64 --top 3";
        let bare = run(base).unwrap();
        let observed = run(&format!(
            "{base} --metrics-out {} --trace-out {}",
            metrics.display(),
            trace.display()
        ))
        .unwrap();
        // Instrumentation never perturbs results: byte-identical report.
        assert_eq!(bare, observed);

        let m: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(m["command"], "search");
        let c = &m["counters"];
        let n = |key: &str| {
            c.get(key)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or_else(|| panic!("missing counter {key} in {c:?}"))
        };
        assert_eq!(
            n("search.candidates.generated"),
            n("search.candidates.pruned") + n("search.candidates.evaluated")
        );
        assert_eq!(
            n("search.candidates.evaluated"),
            n("search.candidates.kept") + n("search.candidates.memory_rejected")
        );
        assert_eq!(
            n("search.cache.lookups"),
            n("search.cache.hits") + n("search.cache.misses")
        );
        assert!(n("search.candidates.generated") > 0);
        assert!(!m["phases"].as_array().unwrap().is_empty());

        let t: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = t.as_array().unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e["ph"] == "X" && e.get("ts").is_some() && e.get("name").is_some()));
    }

    #[test]
    fn verbose_switch_appends_the_run_summary() {
        let base = "estimate --model mingpt-85m --accel v100 --per-node 8 --dp 8 --batch 64";
        let quiet = run(base).unwrap();
        let verbose = run(&format!("{base} -v")).unwrap();
        assert!(verbose.starts_with(&quiet), "summary must append, not mutate");
        assert!(verbose.contains("backend.analytical.evaluations"), "{verbose}");
    }

    #[test]
    fn simulate_trace_out_exports_the_device_timeline() {
        let dir = obs_dir("simulate");
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        run(&format!(
            "simulate --model mingpt-85m --accel v100 --per-node 4 --pp 4 --dp 1 --batch 16 \
             --trace-out {} --metrics-out {}",
            trace.display(),
            metrics.display()
        ))
        .unwrap();
        let t: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let cats: Vec<&str> = t
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["cat"].as_str())
            .collect();
        assert!(cats.contains(&"compute"), "{cats:?}");
        let m: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(m["counters"]["sim.des.events_processed"].as_u64().unwrap() > 0);
        assert!(!m["devices"].as_array().unwrap().is_empty());
    }

    #[test]
    fn seeded_simulate_trace_has_checkpoint_and_recompute_slices() {
        let dir = obs_dir("simulate-seeded");
        let trace = dir.join("trace.json");
        run(&format!(
            "simulate --model mingpt-85m --accel v100 --per-node 4 --pp 4 --dp 1 --batch 16 \
             --batches 200 --seed 7 --mtbf 0.0001 --ckpt-interval 1 --trace-out {}",
            trace.display()
        ))
        .unwrap();
        let t: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let cats: Vec<&str> = t
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["cat"].as_str())
            .collect();
        assert!(cats.contains(&"ckpt"), "{cats:?}");
        assert!(cats.contains(&"recompute"), "no failures replayed: {cats:?}");
    }

    #[test]
    fn schema_is_versioned_and_self_describing() {
        let out = run("schema").unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(serde_json::Value::as_str),
            Some(amped_configs::schema::SCHEMA_VERSION)
        );
        for key in ["layers", "scenario", "scenario_presets"] {
            assert!(doc.get(key).is_some(), "schema missing `{key}`:\n{out}");
        }
    }

    #[test]
    fn scenario_presets_drive_commands() {
        let out = run("estimate --preset dev-small").unwrap();
        assert!(out.contains("minGPT-85M"), "{out}");
        let err = run("estimate --preset nope").unwrap_err();
        assert!(matches!(err, Error::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("unknown scenario preset"), "{err}");
        // The presets listing advertises scenario presets alongside
        // models and accelerators.
        let listing = run("presets").unwrap();
        assert!(listing.contains("dev-small"), "{listing}");
    }

    #[test]
    fn dump_resolved_names_the_layer_behind_every_field() {
        let out = run("estimate --preset dev-small --batch 128 --dump-resolved").unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(doc.get("schema_version").is_some());
        let batch = doc
            .get("scenario")
            .and_then(|s| s.get("training"))
            .and_then(|t| t.get("global_batch"))
            .and_then(serde_json::Value::as_i64);
        assert_eq!(batch, Some(128), "{out}");
        let provenance = doc.get("provenance").expect("dump has provenance");
        assert_eq!(
            provenance
                .get("training.global_batch")
                .and_then(serde_json::Value::as_str),
            Some("flags (--batch)"),
            "{out}"
        );
        assert_eq!(
            provenance.get("model").and_then(serde_json::Value::as_str),
            Some("preset `dev-small`"),
            "{out}"
        );
    }

    #[test]
    fn flags_override_config_file_fields() {
        let dir = std::env::temp_dir().join("amped-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layered-scenario.json");
        std::fs::write(
            &path,
            r#"{
                "model": { "preset": "mingpt-85m" },
                "accelerator": { "preset": "v100" },
                "system": { "nodes": 1, "accels_per_node": 8,
                            "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
                "parallelism": { "dp": [8, 1] },
                "training": { "global_batch": 64, "num_batches": 2 }
            }"#,
        )
        .unwrap();
        let out = run(&format!(
            "estimate --config {} --batch 128 --dump-resolved",
            path.display()
        ))
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        let scenario = doc.get("scenario").unwrap();
        // The flag wins the field it names; the file keeps the rest.
        assert_eq!(
            scenario
                .get("training")
                .and_then(|t| t.get("global_batch"))
                .and_then(serde_json::Value::as_i64),
            Some(128)
        );
        assert_eq!(
            scenario
                .get("training")
                .and_then(|t| t.get("num_batches"))
                .and_then(serde_json::Value::as_i64),
            Some(2)
        );
        let provenance = doc.get("provenance").unwrap();
        assert_eq!(
            provenance
                .get("training.num_batches")
                .and_then(serde_json::Value::as_str),
            Some("scenario file")
        );
    }

    #[test]
    fn resilience_domains_flags_add_the_correlated_report() {
        let base = "resilience --model mingpt-85m --accel v100 --nodes 16 --per-node 1 \
                    --dp 1,4 --pp 1,4 --batch 64 --batches 100 --mtbf 1000";
        let flat = run(base).unwrap();
        assert!(!flat.contains("correlated"), "no domain flags, no correlated block: {flat}");
        let out = run(&format!("{base} --domains 4,2 --rack-mtbf 720")).unwrap();
        assert!(out.contains("under correlated outages"), "{out}");
        assert!(out.contains("placement replica-major"), "{out}");
        // An explicit layout overrides the enumerator's pick.
        let forced = run(&format!(
            "{base} --domains 4,2 --rack-mtbf 720 --placement stage-major"
        ))
        .unwrap();
        assert!(forced.contains("placement stage-major"), "{forced}");
        let err = run(&format!("{base} --placement diagonal")).unwrap_err();
        assert!(matches!(err, Error::Usage { .. }), "{err:?}");
    }

    #[test]
    fn resilience_json_with_domains_leads_with_the_version() {
        let base = "resilience --model mingpt-85m --accel v100 --nodes 16 --per-node 1 \
                    --dp 1,4 --pp 1,4 --batch 64 --batches 100 --mtbf 1000 --json";
        let flat = run(base).unwrap();
        let v: serde_json::Value = serde_json::from_str(&flat).unwrap();
        assert_eq!(v["schema_version"], amped_configs::schema::SCHEMA_VERSION);
        assert!(v.get("correlated").is_none(), "{flat}");
        let out = run(&format!("{base} --domains 4,2 --rack-mtbf 720 --preemption-mtbf 168"))
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(out.trim_start().starts_with("{\n  \"schema_version\""), "{out}");
        let c = v.get("correlated").unwrap();
        assert!(c["expected_s"].as_f64().unwrap() > 0.0);
        assert!(c["placement"]["strategy"].as_str().is_some(), "{out}");
        assert!(c["elastic_rate_per_s"].as_f64().unwrap() > 0.0, "{out}");
    }

    #[test]
    fn resilience_seed_replays_domain_outages() {
        let out = run(
            "resilience --model mingpt-85m --accel v100 --nodes 4 --per-node 1 --dp 1,2 \
             --pp 1,2 --batch 16 --batches 20 --mtbf 2 --domains 2,2 --rack-mtbf 4 --seed 7",
        )
        .unwrap();
        assert!(out.contains("under correlated outages"), "{out}");
        assert!(out.contains("seeded simulation (seed 7)"), "{out}");
        assert!(out.contains("vs analytical expectation"), "{out}");
    }

    #[test]
    fn search_goodput_domains_stay_deterministic_across_jobs() {
        let base = "search --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 64 \
                    --top 5 --goodput 1000 --domains 2,2 --rack-mtbf 500 --json";
        let serial = run(base).unwrap();
        assert_eq!(serial, run(base).unwrap(), "goodput-with-domains ranking must be reproducible");
        // `--jobs` is not read by search: the ranking cannot depend on it.
        let ignored = run(&format!("{base} --jobs 4")).unwrap();
        assert_eq!(serial, ignored, "goodput-with-domains ranking must not depend on --jobs");
        let v: serde_json::Value = serde_json::from_str(&serial).unwrap();
        assert!(v["rows"]
            .as_array()
            .unwrap()
            .iter()
            .all(|r| r["expected_days"].as_f64().unwrap() > 0.0));
        // Domain flags without --goodput are not live on search.
        let err = run(
            "search --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 64 \
             --rack-mtbf 500 --domains 2,2",
        );
        assert!(err.is_ok(), "gated flags are simply ignored: {err:?}");
    }

    #[test]
    fn recommend_goodput_ranks_by_expected_time() {
        let out = run(
            "recommend --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 128 \
             --goodput 1000 --domains 2,2 --rack-mtbf 500",
        )
        .unwrap();
        assert!(out.contains("recommended mapping"), "{out}");
    }

    #[test]
    fn sweep_json_leads_with_the_version_and_names_winners() {
        let out = run(
            "sweep --model mingpt-85m --accel v100 --nodes 4 --per-node 2 --batch 64 --json",
        )
        .unwrap();
        assert!(out.trim_start().starts_with("{\n  \"schema_version\""), "{out}");
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["csv"].as_str().unwrap().starts_with("batch,dp-inter"), "{out}");
        let winners = v["winners"].as_array().unwrap();
        assert!(!winners.is_empty());
        assert!(winners.iter().all(|w| {
            w["batch"].as_u64().is_some() && w["winner"].as_str().is_some()
        }));
    }

    #[test]
    fn resilience_flags_without_an_mtbf_are_rejected() {
        let err = run("estimate --restart 60").unwrap_err();
        assert!(matches!(err, Error::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("resilience"), "{err}");
    }
}

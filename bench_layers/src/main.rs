//! `bench_layers`: the repository benchmark. Four workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs.
//!
//! ```text
//! bench_layers --workload NAME --seed N --seconds S --trace 0|1
//! bench_layers [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! bench_layers compare A.json... -- B.json...
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its JSON result. Without it, every workload runs
//! in a child process of its own (so caches and peak memory cannot leak
//! between them) and `--out` collects their results. `compare` judges two
//! sets of `--out` files against the bounds in `BENCHMARK.json`.

mod client;
mod compare;
mod http;
mod inputs;
mod report;
mod search;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use amped_obs::TraceEvent;
use serde_json::Value;

use report::Outcome;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "search-train",
    "search-serving",
    "http-estimate",
    "http-mixed",
];

/// Seconds one run measures, as `BENCHMARK.json` fixes it.
const DEFAULT_SECONDS: f64 = 30.0;

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Where traced runs write their Chrome traces.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Operations whose spans a traced run keeps for the Chrome trace.
const TRACED_OPS_KEPT: usize = 64;

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measure for this many seconds.
    Seconds(f64),
    /// Measure exactly this many operations.
    Ops(usize),
}

impl Budget {
    /// Whether operation number `done` should still run.
    pub fn more(&self, done: usize, start: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        }
    }
}

/// Spans of a traced run, kept in memory and written as a Chrome trace
/// when the run ends.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    pid: u64,
    ops: usize,
    events: Vec<TraceEvent>,
}

impl SpanSink {
    /// A sink whose events land on trace process `pid`.
    pub fn new(pid: u64) -> SpanSink {
        SpanSink {
            epoch: Instant::now(),
            pid,
            ops: 0,
            events: Vec::new(),
        }
    }

    /// Microseconds from the sink's epoch to `t`.
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// A span from `from` to `to` on the sink's clock.
    pub fn event(&self, name: &str, from: Instant, to: Instant) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "layer".into(),
            ts_us: self.offset_us(from),
            dur_us: to.saturating_duration_since(from).as_secs_f64() * 1e6,
            pid: self.pid,
            tid: 0,
        }
    }

    /// Keep one operation's spans (only the first few operations' are
    /// kept, so a long run's trace stays small).
    pub fn push_op(&mut self, events: Vec<TraceEvent>) {
        if self.ops < TRACED_OPS_KEPT {
            let pid = self.pid;
            self.events
                .extend(events.into_iter().map(|e| TraceEvent { pid, ..e }));
        }
        self.ops += 1;
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, seed: u64, budget: Budget, sink: Option<&mut SpanSink>) -> Outcome {
    match name {
        "search-train" => search::run(seed, false, budget, sink),
        "search-serving" => search::run(seed, true, budget, sink),
        "http-estimate" => http::run(seed, false, budget, sink),
        "http-mixed" => http::run(seed, true, budget, sink),
        other => Outcome::setup_failed(format!("unknown workload `{other}`")),
    }
}

/// Parsed command line of a run.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; use one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload's entry in the `--out` document.
fn workload_value(result: &Value, digest: Option<&str>) -> Value {
    let mut entries = result.as_object().cloned().unwrap_or_default();
    entries.push((
        "outputs_digest".to_string(),
        digest.map_or(Value::Null, |d| Value::Str(d.to_string())),
    ));
    Value::Object(entries)
}

fn out_document(args: &Args, workloads: Vec<(String, Value)>) -> Value {
    serde_json::json!({
        "schema_version": amped_configs::schema::SCHEMA_VERSION,
        "benchmark": "bench_layers",
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rates_per_s": {
            "http-estimate": http::ESTIMATE_RATE,
            "http-mixed": http::MIXED_RATE,
        },
        "workloads": Value::Object(workloads),
    })
}

fn write_out(path: &str, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))
}

/// `--workload NAME`: run it here, print its lines and then its JSON
/// result as the last line.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let pid = WORKLOADS.iter().position(|w| *w == name).unwrap_or(0) as u64;
    let mut sink = args.trace.then(|| SpanSink::new(pid));
    let outcome = run_workload(
        name,
        args.seed,
        Budget::Seconds(args.seconds),
        sink.as_mut(),
    );
    for e in &outcome.errors {
        eprintln!("{name}: {e}");
    }
    if let Some(sink) = &sink {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{name}.json");
        std::fs::write(&path, amped_obs::chrome_trace(sink.events()))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{name}: Chrome trace written to {path}");
    }
    for line in outcome.lines(name, args.trace) {
        println!("{line}");
    }
    if let Some(path) = &args.out {
        let entry = workload_value(
            &outcome.to_value(args.trace),
            outcome.digest_text().as_deref(),
        );
        write_out(path, &out_document(args, vec![(name.to_string(), entry)]))?;
    }
    println!("{}", outcome.json_line(args.trace));
    Ok(outcome.correct)
}

/// No `--workload`: run every workload in a child process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: cannot start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result: Value = lines
            .pop()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or_else(|| format!("{name}: exited with {} and no result", output.status))?;
        let mut digest = None;
        for line in &lines {
            println!("{line}");
            if let Some(rest) = line.strip_prefix(&format!("{name} outputs_digest ")) {
                digest = rest.split_whitespace().next().map(String::from);
            }
        }
        all_correct &= output.status.success() && result["correct"] == true;
        workloads.push((name.to_string(), workload_value(&result, digest.as_deref())));
    }
    if let Some(path) = &args.out {
        write_out(path, &out_document(args, workloads))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_layers: {e}");
            ExitCode::from(2)
        }
    }
}

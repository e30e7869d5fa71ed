//! Observability substrate for the AMPeD workspace: hierarchical spans,
//! a thread-safe counter/gauge registry, JSON run reports, and a
//! generalized Chrome-trace writer.
//!
//! AMPeD's whole point is explaining where training time goes; this crate
//! gives the tooling itself the same treatment. The parallel design-space
//! search, the cost backends, and the discrete-event simulator all accept
//! an optional [`Observer`] and record what they did: how many candidates
//! were generated / pruned / memory-rejected, how the estimate caches hit,
//! how many events the DES processed and how deep its queue got, and how
//! long each phase took on the wall clock.
//!
//! # Contract: observability never perturbs results
//!
//! Instrumentation is strictly *passive*. Counters and gauges are atomics
//! or mutex-guarded maps written on the side; spans only read the clock.
//! No estimate, ranking, or simulated makespan may depend on whether an
//! observer is attached — the search's bit-identical rankings and
//! accounting hold with instrumentation on or off (and are tested). When no
//! observer is attached the cost is a single `Option` check per site:
//! zero-overhead when disabled.
//!
//! # Outputs
//!
//! * [`Observer::report`] → [`RunReport`] → [`RunReport::to_json`]: the
//!   machine-readable metrics file behind the CLI's `--metrics-out`.
//! * [`Observer::chrome_trace`]: the recorded spans as a Chrome Trace
//!   Event JSON array (one track per recording thread; a search records
//!   on its caller's), the search half of
//!   the CLI's unified `--trace-out`. Simulator timelines use the same
//!   [`chrome_trace`] writer via `amped-sim`.
//! * [`prometheus_exposition`]: every counter, gauge, and [`Histogram`]
//!   in Prometheus text format, behind `GET /v1/metrics?format=prometheus`
//!   in `amped-serve`. Latency distributions come from the lock-free
//!   fixed-log-bucket [`Histogram`] (`Observer::histogram`), which every
//!   [`Observer::timer`] feeds alongside its legacy count/total/max
//!   series.
//!
//! # Example
//!
//! ```
//! use amped_obs::Observer;
//! use std::sync::Arc;
//!
//! let obs = Arc::new(Observer::new());
//! {
//!     let _phase = obs.phase("demo");
//!     obs.add("demo.widgets", 3);
//!     obs.gauge_max("demo.depth", 7.0);
//! }
//! let report = obs.report("demo");
//! assert_eq!(report.counters["demo.widgets"], 3);
//! assert!(report.to_json().contains("\"demo.depth\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod metrics;
mod prom;
mod report;
mod trace;

pub use histogram::{Histogram, HistogramSummary, NUM_BUCKETS, SUBBUCKETS};
pub use metrics::{Counter, DeviceUtil, Gauge, Observer, Span, Timer};
pub use prom::prometheus_exposition;
pub use report::RunReport;
pub use trace::{chrome_trace, escape_json, TraceEvent};

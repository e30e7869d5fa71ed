//! # amped-serve — a concurrent query service for AMPeD
//!
//! A long-lived HTTP/1.1 daemon, hand-rolled on `std::net` (no external
//! dependencies), that answers the same questions as the `amped` CLI but
//! keeps the process — and its warm [`amped_core::CachePool`] — alive
//! across requests:
//!
//! | Endpoint            | Method | Body              | Answer |
//! |---------------------|--------|-------------------|--------|
//! | `/v1/estimate`      | POST   | scenario JSON     | the CLI's `estimate --json` artifact |
//! | `/v1/infer`         | POST   | scenario JSON     | the CLI's `infer --json` serving estimate |
//! | `/v1/search`        | POST   | scenario JSON     | the CLI's `search --json` rows (`?workload=infer` for serving) |
//! | `/v1/recommend`     | POST   | scenario JSON     | the CLI's `recommend --json` artifact |
//! | `/v1/sweep`         | POST   | scenario JSON     | the CLI's `sweep` CSV + winners |
//! | `/v1/resilience`    | POST   | scenario JSON     | the CLI's `resilience --json` report |
//! | `/v1/health`        | GET    | —                 | `{"status": "ok"}` |
//! | `/v1/metrics`       | GET    | —                 | the `amped-obs` run report |
//! | `/v1/shutdown`      | POST   | —                 | graceful shutdown |
//!
//! Query parameters mirror the CLI flags (`?top=5&jobs=4&prune=true`,
//! `?backend=sim`, `?refine-sim=3`, ...).
//!
//! **Determinism contract:** a compute response body is byte-identical to
//! the stdout of the equivalent CLI invocation (minus the trailing
//! newline), at any worker count and regardless of cache warmth. Both
//! front ends are transports over one operation layer, [`ops`]: the same
//! parameter parsing, scenario resolution, engine configuration and
//! artifact rendering, and the shared cache pool only memoizes
//! bit-identical results.
//!
//! Concurrency is bounded end to end: a fixed worker pool prices requests
//! from a bounded queue, a full queue refuses new work with
//! `429 Too Many Requests` + `Retry-After`, and every job carries a
//! deadline (`504` past it). See [`server`] for the threading model.
//!
//! ```no_run
//! use amped_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr()?);
//! let summary = server.run()?; // blocks until shutdown
//! println!("{summary}");
//! # Ok::<(), amped_core::Error>(())
//! ```

#![deny(unsafe_code)] // one audited `signal(2)` registration in `server::signal`
#![warn(missing_docs)]

pub mod access;
pub mod api;
pub mod http;
pub mod loadtest;
pub mod ops;
pub mod server;

pub use access::{AccessEntry, AccessLog};
pub use api::{Endpoint, ServiceState};
pub use http::{Request, Response};
pub use loadtest::{LoadTestConfig, LoadTestReport};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};

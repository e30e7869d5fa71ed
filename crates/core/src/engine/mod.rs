//! The AMPeD estimation engine: Eq. 1–12 of the paper.
//!
//! [`Estimator`] combines a [`TransformerModel`](crate::TransformerModel),
//! an [`AcceleratorSpec`](crate::AcceleratorSpec), a
//! [`SystemSpec`](crate::SystemSpec) and a
//! [`Parallelism`](crate::Parallelism) mapping, and produces an
//! [`Estimate`]: the per-iteration and end-to-end training time with a full
//! [`Breakdown`] into compute, per-parallelism communication, and pipeline
//! bubbles.

mod backend;
mod batch;
mod breakdown;
mod cache;
mod detail;
mod estimator;
mod options;
mod pool;

pub use backend::{AnalyticalBackend, BreakdownFidelity, CostBackend, ObservedBackend, Scenario};
pub use batch::{BatchEvaluator, BestRung, Prepared};
pub use breakdown::{Breakdown, Estimate};
pub use cache::EstimateCache;
pub use pool::{context_key, CacheLease, CachePool};
pub use detail::{DetailedEstimate, LayerEstimate};
pub use estimator::Estimator;
pub use options::{BubbleAccounting, EngineOptions};

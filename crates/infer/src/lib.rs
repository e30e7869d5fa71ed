//! # amped-infer — the AMPeD serving-workload cost model
//!
//! AMPeD prices *training* iterations. This crate opens the second
//! workload the same hardware runs: autoregressive **inference**. A
//! serving request has two analytically distinct phases, and the crate
//! prices each with the roofline discipline of the training estimator:
//!
//! * **Prefill** — the prompt's tokens flow through the network in one
//!   batched forward pass. Arithmetic intensity is high (big GEMMs), so
//!   the phase is compute-bound and priced at the attainable fraction of
//!   peak given by [`prefill_efficiency`](amped_core::roofline::prefill_efficiency)
//!   — the *same* composite GEMM roofline the training model uses, just
//!   evaluated at the prompt length instead of the training sequence.
//! * **Decode** — one token per step per sequence. Every step re-reads
//!   the full weight shard and the KV cache, so per-step time is the
//!   maximum of a compute floor and a **memory-bandwidth floor** (plus
//!   tensor-parallel all-reduces and pipeline hops). At small batch the
//!   bandwidth term dominates: decode throughput is a property of HBM,
//!   not of the MAC array.
//!
//! KV-cache growth — the thing that actually limits serving batch sizes —
//! comes from [`KvCacheModel`](amped_memory::KvCacheModel) in
//! `amped-memory`, which also provides the closed-form max-batch and
//! max-context solves.
//!
//! The crate mirrors the training engine's layering:
//!
//! | training | serving |
//! |---|---|
//! | [`Estimate`](amped_core::Estimate) | [`InferEstimate`] |
//! | [`CostBackend`](amped_core::CostBackend) | [`InferBackend`] |
//! | [`AnalyticalBackend`](amped_core::AnalyticalBackend) | [`AnalyticalInferBackend`] |
//! | [`ObservedBackend`](amped_core::ObservedBackend) | [`ObservedInferBackend`] |
//!
//! # Example
//!
//! ```
//! use amped_core::prelude::*;
//! use amped_infer::{InferEstimator, InferenceConfig};
//!
//! # fn main() -> Result<(), amped_core::Error> {
//! let model = TransformerModel::builder("gpt-1.3b")
//!     .layers(24).hidden_size(2048).heads(16).seq_len(1024).vocab_size(50257)
//!     .build()?;
//! let a100 = AcceleratorSpec::builder("A100")
//!     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
//!     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
//!     .build()?;
//! let node = SystemSpec::new(1, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
//! let mapping = Parallelism::builder().tp(8, 1).build()?;
//! let scenario = Scenario::new(model, a100, node, mapping);
//!
//! let request = InferenceConfig::new(512, 128, 8)?;
//! let estimate = InferEstimator::new(&scenario).estimate(&request)?;
//! assert!(estimate.ttft.get() > 0.0);
//! assert!(estimate.tpot.get() >= estimate.decode.memory.get());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod estimate;
mod estimator;

pub use amped_core::InferenceConfig;
pub use backend::{AnalyticalInferBackend, InferBackend, ObservedInferBackend};
pub use estimate::{InferEstimate, PhaseBreakdown};
pub use estimator::{latency_lower_bound, latency_lower_bound_with, InferEstimator};

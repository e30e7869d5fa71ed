//! # amped-core — the AMPeD analytical model
//!
//! A Rust implementation of **AMPeD**, the analytical model for performance
//! in distributed training of transformers (Moolchandani et al.,
//! ISPASS 2023). Given
//!
//! * a [`TransformerModel`] (depth, width, heads, sequence, vocabulary,
//!   optional mixture-of-experts),
//! * an [`AcceleratorSpec`] (clock, cores, MAC/non-linear functional units
//!   and their native precisions — the knobs of the paper's Table IV),
//! * a [`SystemSpec`] (nodes × accelerators, intra-/inter-node links), and
//! * a [`Parallelism`] mapping (intra/inter-node degrees of tensor,
//!   pipeline and data parallelism, microbatching, ZeRO),
//!
//! the [`Estimator`] predicts per-iteration and end-to-end training time
//! with a full component [`Breakdown`] (Eq. 1–12 of the paper), the
//! achieved TFLOP/s per accelerator, and throughput metrics.
//!
//! # Quick start
//!
//! ```
//! use amped_core::prelude::*;
//!
//! # fn main() -> Result<(), amped_core::Error> {
//! // A 1.3B-parameter GPT on one 8-GPU node, tensor-parallel inside the node.
//! let model = TransformerModel::builder("gpt-1.3b")
//!     .layers(24).hidden_size(2048).heads(16).seq_len(1024).vocab_size(50257)
//!     .build()?;
//! let a100 = AcceleratorSpec::builder("A100")
//!     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
//!     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
//!     .build()?;
//! let node = SystemSpec::new(1, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8)?;
//! let mapping = Parallelism::builder().tp(8, 1).build()?;
//!
//! let estimate = Estimator::new(&model, &a100, &node, &mapping)
//!     .estimate(&TrainingConfig::new(512, 1000)?)?;
//!
//! println!("{estimate}");
//! assert!(estimate.tflops_per_gpu > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`model`] | transformer specification and parameter counting |
//! | [`counts`] | per-layer MAC / non-linear / tensor-size counts |
//! | [`accelerator`] | Eq. 3–4 accelerator throughput model |
//! | [`network`] | node/link system architecture |
//! | [`parallelism`] | TP/PP/DP/MoE mapping, microbatching, ZeRO |
//! | [`efficiency`] | the `eff(ub)` microbatch-efficiency models |
//! | [`engine`] | the Eq. 1 estimator and its breakdown |
//! | [`inference`] | serving-workload configuration (prefill/decode/batch) |
//! | [`metrics`] | model FLOPs and TFLOP/s/GPU |
//! | [`precision`] | operand bit-widths (`S_p`, `S_act`, …) |
//! | [`resilience`] | checkpoint/restart expected-time and Young/Daly interval |
//! | [`training`] | batch size and batch count of a run |
//! | [`units`] | `Seconds` and human formatting helpers |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod counts;
pub mod diagnostics;
pub mod efficiency;
pub mod engine;
pub mod error;
pub mod hetero;
pub mod inference;
pub mod metrics;
pub mod model;
pub mod network;
pub mod parallelism;
pub mod precision;
pub mod resilience;
pub mod roofline;
pub mod sensitivity;
pub mod training;
pub mod units;

pub use accelerator::{AcceleratorSpec, AcceleratorSpecBuilder};
pub use diagnostics::{check_scenario, Diagnostic, Severity};
pub use efficiency::EfficiencyModel;
pub use engine::{
    context_key, AnalyticalBackend, BatchEvaluator, Breakdown, BreakdownFidelity, BubbleAccounting,
    CacheLease, CachePool, CostBackend, DetailedEstimate, EngineOptions, Estimate, EstimateCache,
    Estimator, LayerEstimate, ObservedBackend, Scenario,
};
pub use error::{Error, Result};
pub use inference::InferenceConfig;
pub use model::{even_split, LayerKind, MoeConfig, TransformerModel, TransformerModelBuilder};
pub use network::{Link, SystemSpec};
pub use parallelism::{MicrobatchPolicy, Parallelism, ParallelismBuilder, ZeroConfig, ZeroStage};
pub use precision::Precision;
pub use resilience::{
    CorrelatedReport, CorrelatedResilience, DomainPlacement, ElasticParams, FailureDomainTree,
    ResilienceParams, ResilienceReport, DEFAULT_NODE_MTBF_HOURS,
};
pub use sensitivity::{Knob, SensitivityAnalysis, SensitivityResult};
pub use training::TrainingConfig;
pub use units::Seconds;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::accelerator::AcceleratorSpec;
    pub use crate::efficiency::EfficiencyModel;
    pub use crate::engine::{
        AnalyticalBackend, Breakdown, BreakdownFidelity, BubbleAccounting, CacheLease, CachePool,
        CostBackend, DetailedEstimate, EngineOptions, Estimate, EstimateCache, Estimator,
        LayerEstimate, Scenario,
    };
    pub use crate::inference::InferenceConfig;
    pub use crate::model::{LayerKind, MoeConfig, TransformerModel};
    pub use crate::network::{Link, SystemSpec};
    pub use crate::parallelism::{MicrobatchPolicy, Parallelism, ZeroConfig, ZeroStage};
    pub use crate::precision::Precision;
    pub use crate::resilience::{
        CorrelatedReport, CorrelatedResilience, DomainPlacement, ElasticParams, FailureDomainTree,
        ResilienceParams, ResilienceReport,
    };
    pub use crate::training::TrainingConfig;
    pub use crate::units::Seconds;
}

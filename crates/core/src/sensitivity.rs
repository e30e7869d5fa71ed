//! Sensitivity analysis: which knob moves the training time most?
//!
//! AMPeD's pitch is hardware–software co-design over "tunable knobs"; this
//! module quantifies each knob's leverage. For a scenario, every knob is
//! scaled by a factor (default 2×) one at a time, and the resulting change
//! in iteration time is reported — tornado-chart data for deciding whether
//! the next dollar goes into faster links, faster clocks, or a bigger
//! batch.

use serde::{Deserialize, Serialize};

use crate::accelerator::AcceleratorSpec;
use crate::efficiency::EfficiencyModel;
use crate::engine::{EngineOptions, Estimator, Scenario};
use crate::error::Result;
use crate::network::{Link, SystemSpec};
use crate::parallelism::Parallelism;
use crate::precision::Precision;
use crate::training::TrainingConfig;
use crate::TransformerModel;

/// A knob the analysis can scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Knob {
    /// Intra-node link bandwidth.
    IntraBandwidth,
    /// Inter-node (per-NIC) bandwidth.
    InterBandwidth,
    /// Intra-node link latency (scaling *down* helps).
    IntraLatency,
    /// Inter-node link latency.
    InterLatency,
    /// Accelerator clock frequency.
    Frequency,
    /// Global batch size.
    GlobalBatch,
}

impl Knob {
    /// All knobs, in display order.
    pub fn all() -> [Knob; 6] {
        [
            Knob::IntraBandwidth,
            Knob::InterBandwidth,
            Knob::IntraLatency,
            Knob::InterLatency,
            Knob::Frequency,
            Knob::GlobalBatch,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Knob::IntraBandwidth => "intra-node bandwidth",
            Knob::InterBandwidth => "inter-node bandwidth",
            Knob::IntraLatency => "intra-node latency",
            Knob::InterLatency => "inter-node latency",
            Knob::Frequency => "accelerator frequency",
            Knob::GlobalBatch => "global batch size",
        }
    }
}

/// One knob's measured leverage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResult {
    /// The knob that was scaled.
    pub knob: Knob,
    /// The factor it was scaled by (latencies are *divided* by it, so every
    /// row answers "what if this resource were `factor`× better?").
    pub factor: f64,
    /// Baseline per-sample time in seconds.
    pub baseline_per_sample: f64,
    /// Per-sample time with the knob improved.
    pub improved_per_sample: f64,
}

impl SensitivityResult {
    /// Fractional speedup: `baseline/improved − 1` (0 = knob is irrelevant).
    pub fn speedup(&self) -> f64 {
        self.baseline_per_sample / self.improved_per_sample - 1.0
    }
}

/// The scenario under analysis, borrowing the same inputs the estimator
/// takes.
#[derive(Debug, Clone)]
pub struct SensitivityAnalysis<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    parallelism: &'a Parallelism,
    precision: Precision,
    efficiency: EfficiencyModel,
    options: EngineOptions,
}

impl<'a> SensitivityAnalysis<'a> {
    /// Analyze the given scenario with default precision/efficiency/options.
    pub fn new(
        model: &'a TransformerModel,
        accel: &'a AcceleratorSpec,
        system: &'a SystemSpec,
        parallelism: &'a Parallelism,
    ) -> Self {
        SensitivityAnalysis {
            model,
            accel,
            system,
            parallelism,
            precision: Precision::default(),
            efficiency: EfficiencyModel::default(),
            options: EngineOptions::default(),
        }
    }

    /// Analyze `scenario` under its precision, efficiency and options.
    pub fn from_scenario(scenario: &'a Scenario) -> Self {
        SensitivityAnalysis::new(
            &scenario.model,
            &scenario.accelerator,
            &scenario.system,
            &scenario.parallelism,
        )
        .with_precision(scenario.precision)
        .with_efficiency(scenario.efficiency.clone())
        .with_options(scenario.options)
    }

    /// Override the efficiency model.
    pub fn with_efficiency(mut self, efficiency: EfficiencyModel) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Override the precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Override the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    fn per_sample(
        &self,
        accel: &AcceleratorSpec,
        system: &SystemSpec,
        training: &TrainingConfig,
    ) -> Result<f64> {
        let e = Estimator::new(self.model, accel, system, self.parallelism)
            .with_precision(self.precision)
            .with_efficiency(self.efficiency.clone())
            .with_options(self.options)
            .estimate(training)?;
        Ok(e.time_per_iteration.get() / training.global_batch() as f64)
    }

    /// Improve one knob by `factor` and measure the per-sample speedup.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (the scaled configurations remain valid
    /// by construction).
    pub fn probe(
        &self,
        knob: Knob,
        factor: f64,
        training: &TrainingConfig,
    ) -> Result<SensitivityResult> {
        assert!(factor > 1.0, "improvement factor must exceed 1");
        let baseline = self.per_sample(self.accel, self.system, training)?;
        let scale_link = |l: Link, bw: f64, lat: f64| {
            Link::new(l.latency_s * lat, l.bandwidth_bits_per_sec * bw)
                .with_topology(l.topology)
        };
        let (accel, system, training_mod);
        let improved = match knob {
            Knob::IntraBandwidth => {
                system = self
                    .system
                    .clone()
                    .with_intra(scale_link(self.system.intra(), factor, 1.0));
                self.per_sample(self.accel, &system, training)?
            }
            Knob::InterBandwidth => {
                system = self
                    .system
                    .clone()
                    .with_inter(scale_link(self.system.inter(), factor, 1.0));
                self.per_sample(self.accel, &system, training)?
            }
            Knob::IntraLatency => {
                system = self
                    .system
                    .clone()
                    .with_intra(scale_link(self.system.intra(), 1.0, 1.0 / factor));
                self.per_sample(self.accel, &system, training)?
            }
            Knob::InterLatency => {
                system = self
                    .system
                    .clone()
                    .with_inter(scale_link(self.system.inter(), 1.0, 1.0 / factor));
                self.per_sample(self.accel, &system, training)?
            }
            Knob::Frequency => {
                accel = AcceleratorSpec::builder(self.accel.name())
                    .frequency_hz(self.accel.frequency_hz() * factor)
                    .cores(self.accel.num_cores())
                    .mac_units(
                        self.accel.mac_units_per_core(),
                        self.accel.mac_unit_width(),
                        self.accel.mac_unit_bits(),
                    )
                    .nonlin_units(
                        self.accel.nonlin_units(),
                        self.accel.nonlin_unit_width(),
                        self.accel.nonlin_unit_bits(),
                    )
                    .memory(
                        self.accel.memory_bytes(),
                        self.accel.memory_bandwidth_bytes_per_sec(),
                    )
                    .offchip_bandwidth_bits_per_sec(self.accel.offchip_bandwidth_bits_per_sec())
                    .power(self.accel.tdp_watts(), self.accel.idle_power_fraction())
                    .build()?;
                self.per_sample(&accel, self.system, training)?
            }
            Knob::GlobalBatch => {
                training_mod = TrainingConfig::new(
                    (training.global_batch() as f64 * factor) as usize,
                    training.num_batches(),
                )?;
                self.per_sample(self.accel, self.system, &training_mod)?
            }
        };
        Ok(SensitivityResult {
            knob,
            factor,
            baseline_per_sample: baseline,
            improved_per_sample: improved,
        })
    }

    /// Probe every knob at `factor`, sorted by descending speedup — the
    /// tornado chart.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn tornado(&self, factor: f64, training: &TrainingConfig) -> Result<Vec<SensitivityResult>> {
        let mut out = Vec::with_capacity(Knob::all().len());
        for knob in Knob::all() {
            out.push(self.probe(knob, factor, training)?);
        }
        out.sort_by(|a, b| b.speedup().partial_cmp(&a.speedup()).expect("finite"));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Link;

    fn fixture() -> (TransformerModel, AcceleratorSpec, SystemSpec, Parallelism) {
        let model = TransformerModel::builder("sens")
            .layers(16)
            .hidden_size(1024)
            .heads(16)
            .seq_len(256)
            .vocab_size(8000)
            .build()
            .unwrap();
        let accel = AcceleratorSpec::builder("sens-a")
            .frequency_hz(1e9)
            .cores(32)
            .mac_units(4, 128, 8)
            .nonlin_units(32, 8, 32)
            .memory(32e9, 1e12)
            .build()
            .unwrap();
        let system =
            SystemSpec::new(4, 8, Link::new(1e-6, 2.4e12), Link::new(1e-5, 1e11), 8).unwrap();
        let p = Parallelism::builder().tp(8, 1).dp(1, 4).build().unwrap();
        (model, accel, system, p)
    }

    #[test]
    fn every_knob_helps_or_is_neutral() {
        let (model, accel, system, p) = fixture();
        let analysis = SensitivityAnalysis::new(&model, &accel, &system, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let training = TrainingConfig::new(256, 1).unwrap();
        for r in analysis.tornado(2.0, &training).unwrap() {
            assert!(
                r.speedup() >= -1e-9,
                "{} must not hurt, speedup {}",
                r.knob.name(),
                r.speedup()
            );
            assert!(r.baseline_per_sample > 0.0 && r.improved_per_sample > 0.0);
        }
    }

    #[test]
    fn frequency_dominates_a_compute_bound_scenario() {
        let (model, accel, system, p) = fixture();
        let analysis = SensitivityAnalysis::new(&model, &accel, &system, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let training = TrainingConfig::new(256, 1).unwrap();
        let tornado = analysis.tornado(2.0, &training).unwrap();
        assert_eq!(tornado[0].knob, Knob::Frequency, "tornado: {tornado:?}");
        // Doubling the clock roughly halves the compute-dominated time.
        assert!(tornado[0].speedup() > 0.5);
    }

    #[test]
    fn inter_bandwidth_dominates_a_comm_bound_scenario() {
        let (_, accel, _, _) = fixture();
        // TP across nodes over thin links: inter bandwidth is the wall.
        let model = TransformerModel::builder("sens-wide")
            .layers(16)
            .hidden_size(1024)
            .heads(32)
            .seq_len(256)
            .vocab_size(8000)
            .build()
            .unwrap();
        let system =
            SystemSpec::new(4, 8, Link::new(1e-6, 2.4e12), Link::new(1e-5, 5e9), 1).unwrap();
        let p = Parallelism::builder().tp(8, 4).build().unwrap();
        let analysis = SensitivityAnalysis::new(&model, &accel, &system, &p)
            .with_efficiency(EfficiencyModel::Constant(0.5));
        let training = TrainingConfig::new(256, 1).unwrap();
        let tornado = analysis.tornado(2.0, &training).unwrap();
        assert_eq!(tornado[0].knob, Knob::InterBandwidth, "tornado: {tornado:?}");
    }

    #[test]
    fn batch_knob_amortizes_fixed_costs() {
        let (model, accel, system, p) = fixture();
        let analysis = SensitivityAnalysis::new(&model, &accel, &system, &p);
        let training = TrainingConfig::new(64, 1).unwrap();
        let r = analysis.probe(Knob::GlobalBatch, 4.0, &training).unwrap();
        // Bigger batches raise eff(ub) under the default saturating model.
        assert!(r.speedup() > 0.0);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn factor_below_one_rejected() {
        let (model, accel, system, p) = fixture();
        let analysis = SensitivityAnalysis::new(&model, &accel, &system, &p);
        let _ = analysis.probe(
            Knob::Frequency,
            0.5,
            &TrainingConfig::new(64, 1).unwrap(),
        );
    }
}

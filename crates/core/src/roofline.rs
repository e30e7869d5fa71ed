//! A predictive model for `eff(ub)` — the future work the paper's
//! validation section closes with ("A predictive model for eff(ub) is left
//! for future work").
//!
//! The paper *fits* `eff(ub) = a·ub/(b+ub)` to measurements. This module
//! *derives* the curve from first principles with a roofline argument: a
//! GEMM of shape `(m × k) · (k × n)` performs `2mkn` FLOPs and moves
//! `(mk + kn + mn)` operands through device memory, so its attainable
//! fraction of peak is
//!
//! ```text
//! eff = min(1, intensity / balance),
//! intensity = 2mkn / ((mk + kn + mn) · bytes_per_operand)   [FLOP/byte]
//! balance   = peak_flops / memory_bandwidth                  [FLOP/byte]
//! ```
//!
//! Aggregated over a transformer layer's GEMMs at microbatch `ub`, this
//! yields an `eff(ub)` curve with exactly the saturating shape the paper
//! observed empirically — and it explains *why* `a` and `b` depend on the
//! application (the GEMM shapes) and the hardware (the machine balance).

use crate::accelerator::AcceleratorSpec;
use crate::efficiency::EfficiencyModel;
use crate::error::Result;
use crate::model::TransformerModel;
use crate::precision::Precision;

/// The machine balance of `accel` at the given operand width:
/// peak FLOP/s over memory bytes/s.
pub fn machine_balance(accel: &AcceleratorSpec, operand_bits: u32) -> f64 {
    accel.peak_flops_per_sec(operand_bits) / accel.memory_bandwidth_bytes_per_sec()
}

/// Attainable efficiency of one `(m × k) · (k × n)` GEMM under the roofline.
///
/// Returns a value in `(0, 1]`; degenerate shapes yield the memory-bound
/// limit.
pub fn gemm_efficiency(m: f64, k: f64, n: f64, bytes_per_operand: f64, balance: f64) -> f64 {
    let flops = 2.0 * m * k * n;
    let bytes = (m * k + k * n + m * n) * bytes_per_operand;
    if bytes <= 0.0 || balance <= 0.0 {
        return 1.0;
    }
    let intensity = flops / bytes;
    (intensity / balance).min(1.0)
}

/// The GEMM shapes of one transformer layer at microbatch `ub` and
/// sequence length `s` (tokens `t = ub·s`): QKV, attention scores,
/// attention-times-values, output projection and the two MLP matrices,
/// with their FLOP weights. Training evaluates at the model's context;
/// inference prefill runs the same GEMMs over the prompt.
fn layer_gemms_with_seq(model: &TransformerModel, ub: f64, s: f64) -> [(f64, f64, f64); 6] {
    let h = model.hidden_size() as f64;
    let a = model.num_heads() as f64;
    let f = model.ffn_mult();
    let t = ub * s;
    [
        (t, h, 3.0 * h),       // fused QKV projection
        (s, h / a, s),         // scores, per head (shape matters, not count)
        (s, s, h / a),         // attention · V, per head
        (t, h, h),             // output projection
        (t, h, f * h),         // MLP up
        (t, f * h, h),         // MLP down
    ]
}

/// Derive the whole-layer efficiency at microbatch `ub`: the FLOP-weighted
/// harmonic composition of per-GEMM rooflines (time adds, so efficiencies
/// combine harmonically).
pub fn layer_efficiency(
    model: &TransformerModel,
    accel: &AcceleratorSpec,
    precision: Precision,
    ub: f64,
) -> f64 {
    composite_efficiency(model, accel, precision, ub, model.seq_len() as f64)
}

/// FLOP-weighted harmonic composition of per-GEMM rooflines for one layer
/// at microbatch `ub` and sequence length `s`.
fn composite_efficiency(
    model: &TransformerModel,
    accel: &AcceleratorSpec,
    precision: Precision,
    ub: f64,
    s: f64,
) -> f64 {
    let balance = machine_balance(accel, precision.mac_operand_bits());
    let bytes = precision.act_bits as f64 / 8.0;
    let mut total_flops = 0.0;
    let mut total_time_units = 0.0; // flops / eff
    for (m, k, n) in layer_gemms_with_seq(model, ub.max(1.0 / s), s) {
        let flops = 2.0 * m * k * n;
        let eff = gemm_efficiency(m, k, n, bytes, balance);
        total_flops += flops;
        total_time_units += flops / eff;
    }
    (total_flops / total_time_units).clamp(1e-6, 1.0)
}

/// Attainable efficiency of an inference *prefill* pass: the roofline of
/// [`layer_efficiency`] evaluated over `batch` prompts of `prompt_tokens`
/// each, instead of the model's training context. Prefill is the
/// compute-bound phase of serving — long prompts at any batch run fat
/// GEMMs — and this is its ceiling.
pub fn prefill_efficiency(
    model: &TransformerModel,
    accel: &AcceleratorSpec,
    precision: Precision,
    batch: f64,
    prompt_tokens: f64,
) -> f64 {
    composite_efficiency(model, accel, precision, batch, prompt_tokens.max(1.0))
}

/// Build a table-form [`EfficiencyModel`] by sampling the roofline at
/// power-of-two microbatch sizes up to `max_ub`.
///
/// # Errors
///
/// Propagates validation errors from the constructed model (not expected
/// for positive `max_ub`).
///
/// # Example
///
/// ```
/// use amped_core::roofline::efficiency_from_roofline;
/// use amped_core::{AcceleratorSpec, Precision, TransformerModel};
///
/// # fn main() -> Result<(), amped_core::Error> {
/// let model = TransformerModel::builder("m")
///     .layers(4).hidden_size(1024).heads(16).seq_len(512).vocab_size(32000)
///     .build()?;
/// let a100 = AcceleratorSpec::builder("A100")
///     .frequency_hz(1.41e9).cores(108).mac_units(4, 512, 8)
///     .nonlin_units(192, 4, 32).memory(80e9, 2.0e12)
///     .build()?;
/// let eff = efficiency_from_roofline(&model, &a100, Precision::fp16(), 256)?;
/// assert!(eff.eval(64.0) > eff.eval(1.0)); // saturating, like the paper's fit
/// # Ok(())
/// # }
/// ```
pub fn efficiency_from_roofline(
    model: &TransformerModel,
    accel: &AcceleratorSpec,
    precision: Precision,
    max_ub: usize,
) -> Result<EfficiencyModel> {
    let mut points = Vec::new();
    let mut ub = 1usize;
    while ub <= max_ub.max(1) {
        points.push((
            ub as f64,
            layer_efficiency(model, accel, precision, ub as f64),
        ));
        ub *= 2;
    }
    let table = EfficiencyModel::Table(points);
    table.validate()?;
    Ok(table)
}

/// Derive the paper's `a·ub/(b+ub)` constants from first principles.
///
/// The paper cites NVIDIA's GEMM-efficiency guide for the functional form;
/// its origin is fixed per-kernel overhead: a microbatch launches a fixed
/// number of kernels whose setup cost does not scale with `ub`, so
///
/// ```text
/// t(ub) = work_per_sample · ub / a  +  kernels · overhead
/// eff(ub) = peak-normalized useful work / t(ub) = a · ub / (ub + b),
/// b = a · kernels · overhead / work_per_sample
/// ```
///
/// with `a` the roofline ceiling from [`layer_efficiency`] at large `ub`.
///
/// # Panics
///
/// Panics if `work_time_per_sample_s` is not positive.
pub fn derive_saturating(
    roofline_ceiling: f64,
    kernel_overhead_s: f64,
    kernels_per_microbatch: f64,
    work_time_per_sample_s: f64,
) -> EfficiencyModel {
    assert!(
        work_time_per_sample_s > 0.0,
        "per-sample work time must be positive"
    );
    let a = roofline_ceiling.clamp(1e-6, 1.0);
    let b = a * kernels_per_microbatch * kernel_overhead_s / work_time_per_sample_s;
    EfficiencyModel::saturating(a, b.max(0.0), 1e-6, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> AcceleratorSpec {
        AcceleratorSpec::builder("A100")
            .frequency_hz(1.41e9)
            .cores(108)
            .mac_units(4, 512, 8)
            .nonlin_units(192, 4, 32)
            .memory(80e9, 2.0e12)
            .build()
            .unwrap()
    }

    fn gpt(h: usize, heads: usize, s: usize) -> TransformerModel {
        TransformerModel::builder("roofline-m")
            .layers(4)
            .hidden_size(h)
            .heads(heads)
            .seq_len(s)
            .vocab_size(32000)
            .build()
            .unwrap()
    }

    #[test]
    fn balance_matches_datasheet_arithmetic() {
        // A100: 312 TFLOP/s fp16 over 2 TB/s = 156 FLOP/byte.
        let b = machine_balance(&a100(), 16);
        assert!((b - 156.0).abs() < 2.0, "balance = {b}");
    }

    #[test]
    fn square_gemms_become_compute_bound() {
        let balance = 156.0;
        // Tiny GEMM: memory bound.
        let small = gemm_efficiency(32.0, 32.0, 32.0, 2.0, balance);
        assert!(small < 0.2);
        // Huge GEMM: compute bound.
        let big = gemm_efficiency(8192.0, 8192.0, 8192.0, 2.0, balance);
        assert!((big - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_curve_is_saturating_like_the_papers_fit() {
        let m = gpt(4096, 32, 1024);
        let a = a100();
        let mut prev = 0.0;
        let mut gains = Vec::new();
        for ub in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let e = layer_efficiency(&m, &a, Precision::fp16(), ub);
            assert!(e > prev, "monotone: eff({ub}) = {e}");
            gains.push(e - prev);
            prev = e;
        }
        assert!(
            gains.last().unwrap() < &(gains[1] * 0.9),
            "diminishing returns: {gains:?}"
        );
    }

    #[test]
    fn wider_models_saturate_at_smaller_microbatches() {
        // The paper notes a and b are application-dependent; the roofline
        // explains it: fatter GEMMs (bigger h) reach compute-bound sooner.
        let a = a100();
        let narrow = layer_efficiency(&gpt(1024, 16, 512), &a, Precision::fp16(), 4.0);
        let wide = layer_efficiency(&gpt(8192, 64, 512), &a, Precision::fp16(), 4.0);
        assert!(wide > narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn table_constructor_validates() {
        let m = gpt(2048, 16, 512);
        let eff = efficiency_from_roofline(&m, &a100(), Precision::fp16(), 128).unwrap();
        eff.validate().unwrap();
        assert!(eff.eval(128.0) <= 1.0);
        assert!(eff.eval(0.5) > 0.0);
    }

    #[test]
    fn derived_saturating_has_the_papers_form() {
        // a = roofline ceiling; b grows with overhead and shrinks with work.
        let m = derive_saturating(0.9, 5e-6, 12.0, 3e-5);
        m.validate().unwrap();
        if let EfficiencyModel::Saturating { a, b, .. } = m {
            assert!((a - 0.9).abs() < 1e-12);
            assert!((b - 0.9 * 12.0 * 5e-6 / 3e-5).abs() < 1e-9);
        } else {
            panic!("expected saturating form");
        }
        // Heavier per-sample work (bigger model slice) saturates sooner.
        let heavy = derive_saturating(0.9, 5e-6, 12.0, 3e-4);
        assert!(heavy.eval(2.0) > m.eval(2.0));
    }

    #[test]
    fn prefill_efficiency_matches_training_roofline_at_the_training_context() {
        // With the prompt equal to the model's training context, the
        // prefill roofline is the training layer roofline, bit for bit.
        let m = gpt(2048, 16, 512);
        let a = a100();
        for b in [1.0, 4.0, 16.0] {
            let train = layer_efficiency(&m, &a, Precision::fp16(), b);
            let serve = prefill_efficiency(&m, &a, Precision::fp16(), b, 512.0);
            assert_eq!(train.to_bits(), serve.to_bits());
        }
    }

    #[test]
    fn longer_prompts_prefill_more_efficiently() {
        // Fatter prefill GEMMs climb the roofline, like larger microbatches
        // do in training.
        let m = gpt(2048, 16, 2048);
        let a = a100();
        let short = prefill_efficiency(&m, &a, Precision::fp16(), 1.0, 64.0);
        let long = prefill_efficiency(&m, &a, Precision::fp16(), 1.0, 2048.0);
        assert!(long > short, "long {long} vs short {short}");
    }

    #[test]
    fn degenerate_gemm_is_safe() {
        assert_eq!(gemm_efficiency(0.0, 0.0, 0.0, 2.0, 156.0), 1.0);
        assert_eq!(gemm_efficiency(10.0, 10.0, 10.0, 2.0, 0.0), 1.0);
    }
}

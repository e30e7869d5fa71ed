//! Operand precisions (the paper's `S_p`, `S_act`, `S_nonlin`, `S_g`).
//!
//! Eq. 2 scales the busy time of a functional unit by
//! `ceil(max(S_p, S_act) / S_FU)` — i.e. running 16-bit operands through a
//! unit whose native lane width is 8 bits halves its effective rate — and
//! Eq. 6/9/11 multiply communication volumes by the operand width in bits.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Bit widths of the numeric formats used during training.
///
/// # Example
///
/// ```
/// use amped_core::Precision;
/// let p = Precision::fp16();
/// assert_eq!(p.param_bits, 16);
/// assert_eq!(p.grad_bits, 16);
/// p.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Precision {
    /// Width of model parameters, the paper's `S_p` (bits).
    pub param_bits: u32,
    /// Width of activations, the paper's `S_act` (bits).
    pub act_bits: u32,
    /// Width of non-linear-operation operands, the paper's `S_nonlin` (bits).
    pub nonlin_bits: u32,
    /// Width of gradients, the paper's `S_g` (bits).
    pub grad_bits: u32,
}

impl Precision {
    /// Uniform precision: every tensor class uses `bits`.
    pub fn uniform(bits: u32) -> Self {
        Precision {
            param_bits: bits,
            act_bits: bits,
            nonlin_bits: bits,
            grad_bits: bits,
        }
    }

    /// IEEE single precision everywhere (classic FP32 training).
    pub fn fp32() -> Self {
        Self::uniform(32)
    }

    /// Half precision everywhere (mixed-precision training with FP16
    /// compute, gradients communicated in FP16 — the common Megatron setup).
    pub fn fp16() -> Self {
        Self::uniform(16)
    }

    /// 8-bit everywhere (case study III assumes 8-bit training).
    pub fn int8() -> Self {
        Self::uniform(8)
    }

    /// The wider of parameter and activation width — the operand width that
    /// gates MAC-unit throughput in Eq. 2.
    pub fn mac_operand_bits(&self) -> u32 {
        self.param_bits.max(self.act_bits)
    }

    /// Check all widths are non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any width is zero.
    pub fn validate(&self) -> Result<()> {
        for (name, bits) in [
            ("param_bits", self.param_bits),
            ("act_bits", self.act_bits),
            ("nonlin_bits", self.nonlin_bits),
            ("grad_bits", self.grad_bits),
        ] {
            if bits == 0 {
                return Err(Error::invalid("precision", format!("{name} must be > 0")));
            }
        }
        Ok(())
    }
}

impl Default for Precision {
    /// Mixed half precision, the configuration of all paper experiments
    /// except case study III.
    fn default() -> Self {
        Self::fp16()
    }
}

/// `ceil(operand_bits / unit_bits)` — the Eq. 2 throughput de-rating factor
/// for running wide operands through narrow functional-unit lanes.
///
/// # Panics
///
/// Panics if `unit_bits` is zero.
pub fn precision_scale(operand_bits: u32, unit_bits: u32) -> f64 {
    assert!(unit_bits > 0, "functional unit width must be positive");
    operand_bits.div_ceil(unit_bits) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_widths() {
        assert_eq!(Precision::fp32().act_bits, 32);
        assert_eq!(Precision::fp16().mac_operand_bits(), 16);
        assert_eq!(Precision::int8().grad_bits, 8);
        assert_eq!(Precision::default(), Precision::fp16());
    }

    #[test]
    fn mac_operand_is_max_of_param_and_act() {
        let p = Precision {
            param_bits: 8,
            act_bits: 16,
            nonlin_bits: 32,
            grad_bits: 16,
        };
        assert_eq!(p.mac_operand_bits(), 16);
    }

    #[test]
    fn precision_scale_is_ceiling() {
        assert_eq!(precision_scale(16, 8), 2.0);
        assert_eq!(precision_scale(16, 16), 1.0);
        assert_eq!(precision_scale(8, 16), 1.0);
        assert_eq!(precision_scale(17, 8), 3.0);
    }

    #[test]
    fn zero_width_rejected() {
        let mut p = Precision::fp16();
        p.grad_bits = 0;
        assert!(p.validate().is_err());
        assert!(Precision::fp16().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_unit_width_panics() {
        precision_scale(16, 0);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Precision::int8();
        let json = serde_json::to_string(&p).unwrap();
        let back: Precision = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}

//! Transformer model specification.
//!
//! Everything the op-count equations need: depth, width, attention shape,
//! sequence length, vocabulary, feed-forward expansion and the optional
//! mixture-of-experts configuration.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Mixture-of-experts configuration (GShard/GLaM style).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoeConfig {
    /// Number of experts per MoE layer (the paper's and GLaM's `E`).
    pub num_experts: usize,
    /// Experts activated per token (GLaM uses top-2).
    pub top_k: usize,
    /// Every `layer_interval`-th transformer layer is an MoE layer
    /// (GLaM interleaves: every other layer, i.e. `2`).
    pub layer_interval: usize,
    /// Token capacity headroom per expert; scales routed communication
    /// volume. `1.0` is perfect load balancing, which the paper assumes.
    pub capacity_factor: f64,
}

impl MoeConfig {
    /// GLaM-style config: `num_experts` experts, top-2 routing, every other
    /// layer, perfect load balance.
    pub fn glam(num_experts: usize) -> Self {
        MoeConfig {
            num_experts,
            top_k: 2,
            layer_interval: 2,
            capacity_factor: 1.0,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any count is zero, `top_k`
    /// exceeds `num_experts`, or the capacity factor is not positive.
    pub fn validate(&self) -> Result<()> {
        if self.num_experts == 0 || self.top_k == 0 || self.layer_interval == 0 {
            return Err(Error::invalid("moe", "counts must be positive"));
        }
        if self.top_k > self.num_experts {
            return Err(Error::invalid(
                "moe",
                format!(
                    "top_k ({}) cannot exceed num_experts ({})",
                    self.top_k, self.num_experts
                ),
            ));
        }
        if !(self.capacity_factor > 0.0 && self.capacity_factor.is_finite()) {
            return Err(Error::invalid("moe", "capacity factor must be positive"));
        }
        Ok(())
    }
}

/// The role of one layer in the stack, as seen by the op-count equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// A standard transformer layer: attention + dense MLP.
    Dense,
    /// A transformer layer whose MLP is a mixture of experts.
    Moe,
    /// The output head: final layer-norm + logits projection + softmax.
    Head,
}

/// A transformer model specification.
///
/// Construct with [`TransformerModel::builder`]; presets for the paper's
/// models (minGPT, GPT-3 175B, Megatron 145B–1T, GLaM) live in
/// `amped-configs`.
///
/// # Example
///
/// ```
/// use amped_core::TransformerModel;
/// // GPT-3 175B shape.
/// let gpt3 = TransformerModel::builder("GPT-3 175B")
///     .layers(96)
///     .hidden_size(12288)
///     .heads(96)
///     .seq_len(2048)
///     .vocab_size(51200)
///     .build()
///     .unwrap();
/// assert!((gpt3.total_parameters() / 1e9 - 175.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerModel {
    name: String,
    num_layers: usize,
    hidden_size: usize,
    num_heads: usize,
    seq_len: usize,
    vocab_size: usize,
    ffn_mult: f64,
    moe: Option<MoeConfig>,
    include_head: bool,
}

impl TransformerModel {
    /// Start building a model named `name`.
    pub fn builder(name: impl Into<String>) -> TransformerModelBuilder {
        TransformerModelBuilder {
            model: TransformerModel {
                name: name.into(),
                num_layers: 0,
                hidden_size: 0,
                num_heads: 0,
                seq_len: 0,
                vocab_size: 0,
                ffn_mult: 4.0,
                moe: None,
                include_head: true,
            },
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of transformer layers (the paper's `L`).
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Hidden dimensionality (the paper's `h`).
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Attention heads per layer (the paper's `a`).
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Sequence length (the paper's `s`).
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Vocabulary size (`V`).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Feed-forward expansion ratio (4 for GPT-family models).
    pub fn ffn_mult(&self) -> f64 {
        self.ffn_mult
    }

    /// Mixture-of-experts configuration, if any.
    pub fn moe(&self) -> Option<&MoeConfig> {
        self.moe.as_ref()
    }

    /// Whether the output head (logits + softmax) is included in estimates.
    pub fn include_head(&self) -> bool {
        self.include_head
    }

    /// Whether layer `index` (0-based) is an MoE layer.
    pub fn is_moe_layer(&self, index: usize) -> bool {
        match &self.moe {
            // Interleave starting at layer 1 (GLaM replaces every *other*
            // FFN, with the first layer dense).
            Some(cfg) => (index + 1).is_multiple_of(cfg.layer_interval),
            None => false,
        }
    }

    /// The stack of layers as layer kinds, head last.
    pub fn layer_stack(&self) -> Vec<LayerKind> {
        let mut stack: Vec<LayerKind> = (0..self.num_layers)
            .map(|i| {
                if self.is_moe_layer(i) {
                    LayerKind::Moe
                } else {
                    LayerKind::Dense
                }
            })
            .collect();
        if self.include_head {
            stack.push(LayerKind::Head);
        }
        stack
    }

    /// Number of MoE layers in the stack.
    pub fn num_moe_layers(&self) -> usize {
        (0..self.num_layers).filter(|&i| self.is_moe_layer(i)).count()
    }

    /// Weights of one layer of the given kind (elements, not bytes).
    ///
    /// Dense: `4h² + 2·f·h²` (attention QKV+output, two MLP matrices) plus
    /// biases and layer norms. MoE: attention plus `E` expert MLPs plus the
    /// gate. Head: `h·V` logits matrix (counted once, untied).
    pub fn layer_weights(&self, kind: LayerKind) -> f64 {
        let h = self.hidden_size as f64;
        let f = self.ffn_mult;
        let attn = 4.0 * h * h + 4.0 * h; // QKV + output proj + biases
        let ln = 4.0 * h; // two layer norms, scale + shift each
        match kind {
            LayerKind::Dense => attn + ln + 2.0 * f * h * h + (f + 1.0) * h,
            LayerKind::Moe => {
                let cfg = self.moe.expect("moe layer requires moe config");
                let e = cfg.num_experts as f64;
                attn + ln + e * (2.0 * f * h * h + (f + 1.0) * h) + h * e
            }
            LayerKind::Head => h * self.vocab_size as f64 + 2.0 * h,
        }
    }

    /// Embedding table weights: token embeddings plus learned positions.
    pub fn embedding_parameters(&self) -> f64 {
        (self.vocab_size as f64 + self.seq_len as f64) * self.hidden_size as f64
    }

    /// Total trainable parameters, embeddings included.
    pub fn total_parameters(&self) -> f64 {
        // One weight count per kind, added layer by layer in stack order:
        // the same sum as walking `layer_stack()`, without building it.
        let dense = self.layer_weights(LayerKind::Dense);
        let moe = self.moe.map(|_| self.layer_weights(LayerKind::Moe));
        let mut layers = 0.0;
        for i in 0..self.num_layers {
            layers += match moe {
                Some(w) if self.is_moe_layer(i) => w,
                _ => dense,
            };
        }
        let head = if self.include_head {
            self.layer_weights(LayerKind::Head)
        } else {
            0.0
        };
        layers + head + self.embedding_parameters()
    }

    /// Parameters of the dense-equivalent model (each MoE layer counted as
    /// if its MLP were a single expert) — the "activated" parameter count
    /// MoE papers quote.
    pub fn activated_parameters(&self) -> f64 {
        let h = self.hidden_size as f64;
        let f = self.ffn_mult;
        let per_dense = self.layer_weights(LayerKind::Dense);
        let k = self.moe.map_or(1.0, |m| m.top_k as f64);
        let per_moe_active = 4.0 * h * h + 8.0 * h + k * (2.0 * f * h * h + (f + 1.0) * h);
        let n_moe = self.num_moe_layers() as f64;
        let n_dense = (self.num_layers - self.num_moe_layers()) as f64;
        n_dense * per_dense
            + n_moe * per_moe_active
            + self.embedding_parameters()
            + if self.include_head {
                self.layer_weights(LayerKind::Head)
            } else {
                0.0
            }
    }
}

/// Builder for [`TransformerModel`]; see the type-level example.
#[derive(Debug, Clone)]
pub struct TransformerModelBuilder {
    model: TransformerModel,
}

impl TransformerModelBuilder {
    /// Number of transformer layers.
    pub fn layers(&mut self, n: usize) -> &mut Self {
        self.model.num_layers = n;
        self
    }

    /// Hidden dimensionality.
    pub fn hidden_size(&mut self, h: usize) -> &mut Self {
        self.model.hidden_size = h;
        self
    }

    /// Attention heads per layer.
    pub fn heads(&mut self, a: usize) -> &mut Self {
        self.model.num_heads = a;
        self
    }

    /// Sequence length.
    pub fn seq_len(&mut self, s: usize) -> &mut Self {
        self.model.seq_len = s;
        self
    }

    /// Vocabulary size.
    pub fn vocab_size(&mut self, v: usize) -> &mut Self {
        self.model.vocab_size = v;
        self
    }

    /// Feed-forward expansion ratio (defaults to 4).
    pub fn ffn_mult(&mut self, f: f64) -> &mut Self {
        self.model.ffn_mult = f;
        self
    }

    /// Enable mixture-of-experts layers.
    pub fn moe(&mut self, cfg: MoeConfig) -> &mut Self {
        self.model.moe = Some(cfg);
        self
    }

    /// Include or exclude the output head from estimates (default: include).
    pub fn include_head(&mut self, yes: bool) -> &mut Self {
        self.model.include_head = yes;
        self
    }

    /// Validate and produce the model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any dimension is zero, heads do
    /// not divide the hidden size, or the MoE config is invalid.
    pub fn build(&self) -> Result<TransformerModel> {
        let m = &self.model;
        let bad = |reason: String| Err(Error::invalid("model", reason));
        if m.num_layers == 0 {
            return bad("layer count must be positive".into());
        }
        if m.hidden_size == 0 || m.num_heads == 0 || m.seq_len == 0 || m.vocab_size == 0 {
            return bad("all model dimensions must be positive".into());
        }
        if !m.hidden_size.is_multiple_of(m.num_heads) {
            return bad(format!(
                "heads ({}) must divide hidden size ({})",
                m.num_heads, m.hidden_size
            ));
        }
        if !(m.ffn_mult > 0.0 && m.ffn_mult.is_finite()) {
            return bad("ffn multiplier must be positive".into());
        }
        if let Some(moe) = &m.moe {
            moe.validate()?;
        }
        Ok(m.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3() -> TransformerModel {
        TransformerModel::builder("GPT-3")
            .layers(96)
            .hidden_size(12288)
            .heads(96)
            .seq_len(2048)
            .vocab_size(51200)
            .build()
            .unwrap()
    }

    #[test]
    fn gpt3_parameter_count() {
        // 96 * 12h^2 = 174.0B + 0.63B embeddings ~ 175B
        let p = gpt3().total_parameters();
        assert!((p / 1e9 - 175.0).abs() < 5.0, "params = {p:.3e}");
    }

    #[test]
    fn mingpt_parameter_count() {
        // minGPT: 12 layers, h = 768 -> ~85M transformer parameters.
        let m = TransformerModel::builder("minGPT")
            .layers(12)
            .hidden_size(768)
            .heads(12)
            .seq_len(1024)
            .vocab_size(50257)
            .include_head(false)
            .build()
            .unwrap();
        let transformer_only = m.total_parameters() - m.embedding_parameters();
        assert!(
            (transformer_only / 1e6 - 85.0).abs() < 2.0,
            "got {transformer_only:.3e}"
        );
    }

    #[test]
    fn layer_stack_interleaves_moe() {
        let m = TransformerModel::builder("glam-ish")
            .layers(8)
            .hidden_size(1024)
            .heads(16)
            .seq_len(512)
            .vocab_size(32000)
            .moe(MoeConfig::glam(16))
            .build()
            .unwrap();
        let stack = m.layer_stack();
        assert_eq!(stack.len(), 9); // 8 layers + head
        assert_eq!(m.num_moe_layers(), 4);
        assert_eq!(stack[0], LayerKind::Dense);
        assert_eq!(stack[1], LayerKind::Moe);
        assert_eq!(stack[8], LayerKind::Head);
    }

    #[test]
    fn moe_total_exceeds_activated() {
        let m = TransformerModel::builder("glam-ish")
            .layers(8)
            .hidden_size(1024)
            .heads(16)
            .seq_len(512)
            .vocab_size(32000)
            .moe(MoeConfig::glam(64))
            .build()
            .unwrap();
        assert!(m.total_parameters() > 10.0 * m.activated_parameters() / 2.0);
        assert!(m.activated_parameters() < m.total_parameters());
    }

    #[test]
    fn dense_model_activated_equals_total() {
        let m = gpt3();
        let diff = (m.total_parameters() - m.activated_parameters()).abs();
        assert!(diff / m.total_parameters() < 1e-12);
    }

    #[test]
    fn builder_validation() {
        assert!(TransformerModel::builder("x").build().is_err());
        assert!(TransformerModel::builder("bad-heads")
            .layers(2)
            .hidden_size(100)
            .heads(3)
            .seq_len(8)
            .vocab_size(10)
            .build()
            .is_err());
        let mut b = TransformerModel::builder("bad-moe");
        b.layers(2)
            .hidden_size(96)
            .heads(3)
            .seq_len(8)
            .vocab_size(10)
            .moe(MoeConfig {
                num_experts: 2,
                top_k: 4,
                layer_interval: 2,
                capacity_factor: 1.0,
            });
        assert!(b.build().is_err());
    }

    #[test]
    fn head_toggle_changes_stack() {
        let m = TransformerModel::builder("no-head")
            .layers(4)
            .hidden_size(64)
            .heads(4)
            .seq_len(16)
            .vocab_size(100)
            .include_head(false)
            .build()
            .unwrap();
        assert_eq!(m.layer_stack().len(), 4);
        assert!(!m.layer_stack().contains(&LayerKind::Head));
    }

    #[test]
    fn serde_roundtrip() {
        let m = gpt3();
        let json = serde_json::to_string(&m).unwrap();
        let back: TransformerModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}

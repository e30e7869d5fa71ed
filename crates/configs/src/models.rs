//! Transformer model presets: the paper's validation models and case-study
//! models.

use amped_core::{MoeConfig, TransformerModel};

/// minGPT as trained in the paper's DP validation: 12 layers, 12 heads,
/// hidden 768 (≈85 M transformer parameters), GPT-2 vocabulary. The paper
/// does not state the block size; 512 is minGPT's chargpt-scale default.
pub fn mingpt_85m() -> TransformerModel {
    TransformerModel::builder("minGPT-85M")
        .layers(12)
        .hidden_size(768)
        .heads(12)
        .seq_len(512)
        .vocab_size(50257)
        .build()
        .expect("preset is valid")
}

/// The minGPT variant of the paper's PP validation: 16 layers, 8 heads,
/// hidden 1024. (The paper labels this "1.24 B parameters"; these shapes
/// give ≈0.2 B transformer parameters — see DESIGN.md. The shapes, not the
/// label, enter the model.)
pub fn mingpt_pp() -> TransformerModel {
    TransformerModel::builder("minGPT-PP")
        .layers(16)
        .hidden_size(1024)
        .heads(8)
        .seq_len(512)
        .vocab_size(50257)
        // The logits head is tied to the embedding and kept off the layer
        // stack so the 16 transformer layers split evenly across up to 16
        // pipeline stages, as in the paper's torchgpipe runs.
        .include_head(false)
        .build()
        .expect("preset is valid")
}

/// GPT-3 175B (Fig. 2c): 96 layers, hidden 12288, 96 heads, sequence 2048.
pub fn gpt3_175b() -> TransformerModel {
    TransformerModel::builder("GPT-3 175B")
        .layers(96)
        .hidden_size(12288)
        .heads(96)
        .seq_len(2048)
        .vocab_size(51200)
        .build()
        .expect("preset is valid")
}

/// Megatron 145B (Table II row 1, case studies I & II): 80 layers, hidden
/// 12288, 96 heads.
pub fn megatron_145b() -> TransformerModel {
    TransformerModel::builder("Megatron 145B")
        .layers(80)
        .hidden_size(12288)
        .heads(96)
        .seq_len(2048)
        .vocab_size(51200)
        .build()
        .expect("preset is valid")
}

/// Megatron 310B (Table II row 2): 96 layers, hidden 16384, 128 heads.
pub fn megatron_310b() -> TransformerModel {
    TransformerModel::builder("Megatron 310B")
        .layers(96)
        .hidden_size(16384)
        .heads(128)
        .seq_len(2048)
        .vocab_size(51200)
        .build()
        .expect("preset is valid")
}

/// Megatron 530B (Table II row 3): 105 layers, hidden 20480, 128 heads.
pub fn megatron_530b() -> TransformerModel {
    TransformerModel::builder("Megatron 530B")
        .layers(105)
        .hidden_size(20480)
        .heads(128)
        .seq_len(2048)
        .vocab_size(51200)
        .build()
        .expect("preset is valid")
}

/// Megatron 1T (Table II row 4): 128 layers, hidden 25600, 160 heads.
pub fn megatron_1t() -> TransformerModel {
    TransformerModel::builder("Megatron 1T")
        .layers(128)
        .hidden_size(25600)
        .heads(160)
        .seq_len(2048)
        .vocab_size(51200)
        .build()
        .expect("preset is valid")
}

/// GLaM with 64 experts (case study III): 64 layers, hidden 8192, 128
/// heads, every other layer a 64-expert top-2 MoE FFN, sequence 1024.
pub fn glam_64e() -> TransformerModel {
    TransformerModel::builder("GLaM-64E")
        .layers(64)
        .hidden_size(8192)
        .heads(128)
        .seq_len(1024)
        .vocab_size(51200)
        .moe(MoeConfig::glam(64))
        .build()
        .expect("preset is valid")
}

/// GPT-2 XL (1.5 B): 48 layers, hidden 1600, 25 heads — a handy mid-size
/// model for single-node what-ifs.
pub fn gpt2_xl() -> TransformerModel {
    TransformerModel::builder("GPT-2 XL")
        .layers(48)
        .hidden_size(1600)
        .heads(25)
        .seq_len(1024)
        .vocab_size(50257)
        .build()
        .expect("preset is valid")
}

/// A LLaMA-65B-shaped decoder: 80 layers, hidden 8192, 64 heads, sequence
/// 2048 (FFN ratio kept at 4 — the model spec does not distinguish gated
/// MLP variants; the parameter count lands within a few percent).
pub fn llama_65b() -> TransformerModel {
    TransformerModel::builder("LLaMA-65B")
        .layers(80)
        .hidden_size(8192)
        .heads(64)
        .seq_len(2048)
        .vocab_size(32000)
        .build()
        .expect("preset is valid")
}

/// BERT-Large (340 M): 24 encoder layers, hidden 1024, 16 heads, sequence
/// 512 — the op-count equations apply to encoders unchanged.
pub fn bert_large() -> TransformerModel {
    TransformerModel::builder("BERT-Large")
        .layers(24)
        .hidden_size(1024)
        .heads(16)
        .seq_len(512)
        .vocab_size(30522)
        .include_head(false)
        .build()
        .expect("preset is valid")
}

/// The 24-layer transformer of the GPipe validation (Table III), sized
/// after GPipe's big Transformer-L family on P100s.
pub fn gpipe_transformer_24l() -> TransformerModel {
    TransformerModel::builder("GPipe-24L")
        .layers(24)
        .hidden_size(1024)
        .heads(16)
        .seq_len(512)
        .vocab_size(32000)
        .build()
        .expect("preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_labels() {
        let close = |m: &TransformerModel, billions: f64, tol: f64| {
            let p = m.total_parameters() / 1e9;
            assert!((p - billions).abs() < tol, "{}: {p:.1}B vs {billions}B", m.name());
        };
        close(&gpt3_175b(), 175.0, 6.0);
        close(&megatron_145b(), 145.0, 6.0);
        close(&megatron_310b(), 310.0, 12.0);
        close(&megatron_530b(), 530.0, 20.0);
        close(&megatron_1t(), 1008.0, 40.0);
    }

    #[test]
    fn extra_presets_match_their_labels() {
        let p15 = gpt2_xl().total_parameters() / 1e9;
        assert!((p15 - 1.5).abs() < 0.2, "GPT-2 XL: {p15:.2}B");
        let p65 = llama_65b().total_parameters() / 1e9;
        assert!((p65 - 65.0).abs() < 5.0, "LLaMA-65B: {p65:.1}B");
        let bert = bert_large();
        let blocks = bert.total_parameters() - bert.embedding_parameters();
        assert!((blocks / 1e6 - 302.0).abs() < 15.0, "BERT blocks: {blocks:.2e}");
    }

    #[test]
    fn mingpt_transformer_params_near_85m() {
        let m = mingpt_85m();
        // minGPT ties the logits head to the token embedding, so the "85M"
        // label counts the transformer blocks only.
        let head = m.layer_weights(amped_core::LayerKind::Head);
        let transformer_only = m.total_parameters() - m.embedding_parameters() - head;
        assert!(
            (transformer_only / 1e6 - 85.0).abs() < 3.0,
            "got {transformer_only:.3e}"
        );
    }

    #[test]
    fn total_parameters_is_the_layer_stack_sum_to_the_bit() {
        for name in crate::registry::model_names() {
            let m = crate::registry::model(name).expect("listed preset resolves");
            let layers: f64 = m
                .layer_stack()
                .iter()
                .filter(|k| **k != amped_core::LayerKind::Head)
                .map(|&k| m.layer_weights(k))
                .sum();
            let head = if m.include_head() {
                m.layer_weights(amped_core::LayerKind::Head)
            } else {
                0.0
            };
            let reference = layers + head + m.embedding_parameters();
            assert_eq!(
                m.total_parameters().to_bits(),
                reference.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn glam_is_sparse() {
        let g = glam_64e();
        assert_eq!(g.num_moe_layers(), 32);
        // 64-expert FFNs in half the layers: total params far exceed activated.
        assert!(g.total_parameters() > 10.0 * g.activated_parameters());
        // Total parameter count lands in the GLaM ballpark (~1.2T).
        assert!((g.total_parameters() / 1e12 - 1.1).abs() < 0.3);
    }

    #[test]
    fn tp_divides_heads_for_case_study_mappings() {
        // Case studies use TP up to 48 (case study III 6x8 nodes).
        for m in [megatron_145b(), glam_64e()] {
            assert_eq!(m.hidden_size() % m.num_heads(), 0);
            assert!(m.num_heads() >= 48);
        }
    }
}

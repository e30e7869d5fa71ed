//! The reference transcription of Eq. 1–12, and the kernel checked
//! against it.
//!
//! `reference_estimate` below prices a scenario layer by layer, straight
//! from the paper's equations and the interpretation notes in DESIGN.md,
//! using only the public API. It shares no code with the pricing kernel
//! (`amped_core::BatchEvaluator`), which groups layers by kind, hoists
//! invariants and memoizes sub-results. The two sum in different orders,
//! so they agree to float associativity: every check here allows 1e-9
//! relative.

use amped::core::counts::LayerCounts;
use amped::core::metrics;
use amped::prelude::*;
use amped::topo::{Collective, Topology};
use proptest::prelude::*;

/// One scenario, priced by both the reference and the kernel.
struct Case<'a> {
    model: &'a TransformerModel,
    accel: &'a AcceleratorSpec,
    system: &'a SystemSpec,
    p: &'a Parallelism,
    precision: Precision,
    efficiency: EfficiencyModel,
    options: EngineOptions,
}

impl<'a> Case<'a> {
    /// The kernel's view of this scenario.
    fn estimator(&self) -> Estimator<'a> {
        Estimator::new(self.model, self.accel, self.system, self.p)
            .with_precision(self.precision)
            .with_efficiency(self.efficiency.clone())
            .with_options(self.options)
    }
}

/// Eq. 1 assembled from Eq. 2–12, one layer at a time.
fn reference_estimate(case: &Case<'_>, training: &TrainingConfig) -> Estimate {
    let (model, accel, system, p) = (case.model, case.accel, case.system, case.p);
    let (precision, efficiency, opts) = (case.precision, &case.efficiency, case.options);
    let global_batch = training.global_batch();
    let workers = p.total_workers() as f64;
    let n_ub = p.num_microbatches(global_batch);
    let ub = p.microbatch_size(global_batch);
    let eff = efficiency.eval(ub);
    let replica_batch = p.replica_batch(global_batch);

    // Eq. 3-4 reciprocals and Eq. 2 precision de-ratings.
    let c_mac = accel.c_mac(eff);
    let c_nonlin = accel.c_nonlin();
    let mac_scale = accel.mac_precision_scale(precision.mac_operand_bits());
    let param_scale = accel.mac_precision_scale(precision.param_bits);
    let nonlin_scale = accel.nonlin_precision_scale(precision.nonlin_bits);
    let bwd_c = opts.backward_compute_factor + if opts.activation_recompute { 1.0 } else { 0.0 };

    let mut b = Breakdown::default();
    let stack = model.layer_stack();

    // Stage imbalance: the pipeline runs at the slowest stage's rate. A
    // GPipe pass of m microbatches over p stages takes `p·t̄ + (m−1)·t*`
    // where the balanced model charges `(m+p−1)·t̄`.
    let imbalance = if opts.stage_imbalance_correction && p.pp() > 1 {
        let weights: Vec<f64> = stack
            .iter()
            .map(|&kind| {
                let c = LayerCounts::for_layer(model, kind, 1.0);
                c.macs_fwd * c_mac * mac_scale + c.nonlin_fwd * c_nonlin * nonlin_scale
            })
            .collect();
        let pp = p.pp();
        let (base, extra) = (stack.len() / pp, stack.len() % pp);
        let mut cursor = 0;
        let mut max_stage = 0.0f64;
        for s in 0..pp {
            let take = base + usize::from(s < extra);
            max_stage = max_stage.max(weights[cursor..cursor + take].iter().sum());
            cursor += take;
        }
        let total: f64 = weights.iter().sum();
        let r = max_stage * pp as f64 / total;
        let (m, pf) = (n_ub as f64, pp as f64);
        (pf + (m - 1.0) * r) / (m + pf - 1.0)
    } else {
        1.0
    };

    // Compute terms use the global batch and divide by every worker.
    let mut sum_uf = 0.0;
    let mut sum_ub = 0.0;
    for &kind in &stack {
        let cg = LayerCounts::for_layer(model, kind, global_batch as f64);
        // Eq. 2.
        let u_f = cg.macs_fwd * c_mac * mac_scale + cg.nonlin_fwd * c_nonlin * nonlin_scale;
        let u_b = bwd_c * cg.macs_fwd * c_mac * mac_scale
            + opts.backward_nonlin_factor * cg.nonlin_fwd * c_nonlin * nonlin_scale;
        // Eq. 12.
        let u_w = opts.weight_update_factor * cg.weights * c_mac * param_scale;
        sum_uf += imbalance * u_f;
        sum_ub += imbalance * u_b;
        b.compute_forward += imbalance * u_f / workers;
        b.compute_backward += imbalance * u_b / workers;
        b.weight_update += u_w / workers;
    }

    // Communication per layer, forward and backward, over the replica
    // batch; each stage carries a 1/N_PP share of the summed traffic.
    let comm_passes = (1.0 + p.zero().comm_overhead) * (1.0 + opts.backward_comm_factor);
    let (intra, inter) = (system.intra(), system.inter());
    let inter_bw = system.inter_bandwidth_per_accel();
    let nic_aggregate = inter.bandwidth_bits_per_sec * system.nics_per_node() as f64;
    let inter_bw_tp_stream = (inter_bw * p.tp_intra() as f64).min(nic_aggregate);
    let act_bits = precision.act_bits as f64;
    let stage_share = 1.0 / p.pp() as f64;
    let mut bubble_comm = 0.0;
    for &kind in &stack {
        let cr = LayerCounts::for_layer(model, kind, replica_batch);
        // Eq. 6, intra- and inter-node.
        if p.tp_intra() > 1 {
            let cost = intra.topology.cost(Collective::AllReduce, p.tp_intra());
            let t = cost.time(
                cr.act_elems_tp * act_bits,
                intra.latency_s,
                intra.bandwidth_bits_per_sec,
            );
            b.tp_comm_intra += comm_passes * stage_share * t;
            bubble_comm += comm_passes * stage_share * t;
        }
        if p.tp_inter() > 1 {
            let cost = inter.topology.cost(Collective::AllReduce, p.tp_inter());
            let t = cost.time(
                cr.act_elems_tp * act_bits,
                inter.latency_s,
                inter_bw_tp_stream,
            );
            b.tp_comm_inter += comm_passes * stage_share * t;
            bubble_comm += comm_passes * stage_share * t;
        }
        // Eq. 9: each rank routes its h/N_TP shard of every token.
        if cr.act_elems_moe > 0.0 {
            let nodes = system.num_nodes() as f64;
            let cost = inter
                .topology
                .cost(Collective::AllToAll, system.num_nodes());
            let latency_term = 2.0 * inter.latency_s * cost.steps as f64;
            let volume_bits = cr.act_elems_moe * act_bits / p.tp() as f64;
            let bw_term = if nodes > 1.0 {
                2.0 * volume_bits
                    * cost.factor
                    * (1.0 / (nodes * intra.bandwidth_bits_per_sec)
                        + (nodes - 1.0) / (nodes * inter_bw))
            } else {
                2.0 * volume_bits / intra.bandwidth_bits_per_sec
            };
            b.moe_comm += comm_passes * stage_share * (latency_term + bw_term);
            bubble_comm += comm_passes * stage_share * (latency_term + bw_term);
        }
    }

    // Eq. 7: one whole-batch stage transfer at the slower hop.
    if p.pp() > 1 {
        let vol_bits =
            replica_batch * model.seq_len() as f64 * model.hidden_size() as f64 * act_bits;
        let t_intra = if p.pp_intra() > 1 {
            intra.latency_s + vol_bits / intra.bandwidth_bits_per_sec
        } else {
            0.0
        };
        let t_inter = if p.pp_inter() > 1 {
            inter.latency_s + vol_bits / inter_bw_tp_stream
        } else {
            0.0
        };
        b.pp_comm = comm_passes * t_intra.max(t_inter);
        bubble_comm += b.pp_comm;
    }

    // Eq. 10-11: one fused hierarchical gradient sync per DP group;
    // expert gradients are sharded over the expert-parallel nodes.
    let grad_collective = if p.zero().stage >= ZeroStage::Gradients {
        Collective::ReduceScatter
    } else {
        Collective::AllReduce
    };
    let expert_parallel = model
        .moe()
        .map(|cfg| cfg.num_experts.min(system.num_nodes()).max(1))
        .unwrap_or(1) as f64;
    let n_g: f64 = stack
        .iter()
        .map(|&kind| {
            let c = LayerCounts::for_layer(model, kind, 1.0);
            (c.weights - c.weights_expert + c.weights_expert / expert_parallel)
                / (p.tp() * p.pp()) as f64
        })
        .sum();
    let grad_bits = precision.grad_bits as f64;
    if p.dp_intra() > 1 {
        let cost = intra.topology.cost(grad_collective, p.dp_intra());
        b.dp_comm_intra = cost.time(
            n_g * grad_bits,
            intra.latency_s,
            intra.bandwidth_bits_per_sec,
        );
    }
    if p.dp_inter() > 1 {
        let cost = inter.topology.cost(grad_collective, p.dp_inter());
        b.dp_comm_inter = cost.time(
            n_g / p.dp_intra() as f64 * grad_bits,
            inter.latency_s,
            inter_bw,
        );
    }

    // Eq. 8: bubble = R·(N_PP−1)/N_ub × [ Σ(U_f+U_b)/workers + Σ(M_f+M_b) ].
    if p.pp() > 1 {
        let compute_scale = match opts.bubble_accounting {
            BubbleAccounting::GPipe => 1.0,
            BubbleAccounting::PaperEq8 => 1.0 / stack.len() as f64,
        };
        b.bubble = p.bubble_ratio() * (p.pp() as f64 - 1.0) / n_ub as f64
            * (compute_scale * (sum_uf + sum_ub) / workers + bubble_comm);
    }

    let time_per_iteration = b.total();
    let model_flops =
        metrics::model_flops_per_iteration(model, global_batch, opts.activation_recompute);
    Estimate {
        breakdown: b,
        time_per_iteration: Seconds::new(time_per_iteration),
        total_time: Seconds::new(time_per_iteration * training.num_batches() as f64),
        microbatch_size: ub,
        num_microbatches: n_ub,
        efficiency: eff,
        model_flops_per_iteration: model_flops,
        tflops_per_gpu: metrics::tflops_per_gpu(model_flops, time_per_iteration, workers),
        total_workers: p.total_workers(),
        tokens_per_sec: (global_batch * model.seq_len()) as f64 / time_per_iteration,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

/// Where the kernel's `estimate` disagrees with the reference beyond
/// associativity, if anywhere.
fn disagreement(case: &Case<'_>, training: &TrainingConfig) -> Option<String> {
    let reference = reference_estimate(case, training);
    let kernel = case.estimator().estimate(training).expect("valid scenario");
    let mut pairs = vec![
        (
            "total_time",
            reference.total_time.get(),
            kernel.total_time.get(),
        ),
        (
            "tflops_per_gpu",
            reference.tflops_per_gpu,
            kernel.tflops_per_gpu,
        ),
        (
            "tokens_per_sec",
            reference.tokens_per_sec,
            kernel.tokens_per_sec,
        ),
    ];
    for ((name, r), (_, k)) in reference
        .breakdown
        .components()
        .into_iter()
        .zip(kernel.breakdown.components())
    {
        pairs.push((name, r, k));
    }
    let bad: Vec<String> = pairs
        .into_iter()
        .filter(|&(_, r, k)| !close(r, k))
        .map(|(name, r, k)| format!("{name}: reference {r} vs kernel {k}"))
        .collect();
    if reference.num_microbatches != kernel.num_microbatches {
        return Some("num_microbatches differ".into());
    }
    (!bad.is_empty()).then(|| bad.join("; "))
}

fn a100() -> AcceleratorSpec {
    AcceleratorSpec::builder("A100")
        .frequency_hz(1.41e9)
        .cores(108)
        .mac_units(4, 512, 8)
        .nonlin_units(192, 4, 32)
        .memory(80e9, 2.0e12)
        .offchip_bandwidth_bits_per_sec(2.4e12)
        .build()
        .unwrap()
}

fn system(nodes: usize, per_node: usize) -> SystemSpec {
    SystemSpec::new(
        nodes,
        per_node,
        Link::new(5e-6, 2.4e12),
        Link::new(1e-5, 2e11),
        per_node,
    )
    .unwrap()
}

fn dense_model() -> TransformerModel {
    TransformerModel::builder("ref-dense")
        .layers(24)
        .hidden_size(2048)
        .heads(16)
        .seq_len(1024)
        .vocab_size(32000)
        .build()
        .unwrap()
}

fn moe_model() -> TransformerModel {
    TransformerModel::builder("ref-moe")
        .layers(12)
        .hidden_size(1024)
        .heads(16)
        .seq_len(512)
        .vocab_size(16000)
        .moe(MoeConfig::glam(8))
        .build()
        .unwrap()
}

/// The kernel agrees with the reference, and a second call through the
/// same cache is served from it bit for bit.
fn assert_agrees(case: &Case<'_>, training: &TrainingConfig) {
    if let Some(why) = disagreement(case, training) {
        panic!("{why}");
    }
    let estimator = case.estimator();
    let mut cache = EstimateCache::new();
    let cold = estimator.estimate_cached(&mut cache, training).unwrap();
    let misses = cache.misses();
    let warm = estimator.estimate_cached(&mut cache, training).unwrap();
    assert_eq!(
        cold.total_time.get().to_bits(),
        warm.total_time.get().to_bits()
    );
    assert_eq!(cache.misses(), misses);
}

#[test]
fn kernel_matches_reference_dense_tp() {
    let (m, a, sys) = (dense_model(), a100(), system(2, 8));
    let p = Parallelism::builder().tp(8, 1).dp(1, 2).build().unwrap();
    let case = Case {
        model: &m,
        accel: &a,
        system: &sys,
        p: &p,
        precision: Precision::default(),
        efficiency: EfficiencyModel::Constant(0.5),
        options: EngineOptions::default(),
    };
    assert_agrees(&case, &TrainingConfig::new(256, 10).unwrap());
}

#[test]
fn kernel_matches_reference_pipelined_with_imbalance() {
    let (m, a, sys) = (dense_model(), a100(), system(2, 8));
    let p = Parallelism::builder()
        .tp(2, 1)
        .pp(4, 2)
        .dp(1, 1)
        .microbatches(MicrobatchPolicy::Explicit(16))
        .build()
        .unwrap();
    let case = Case {
        model: &m,
        accel: &a,
        system: &sys,
        p: &p,
        precision: Precision::default(),
        efficiency: EfficiencyModel::saturating(0.9, 4.0, 0.1, 0.9),
        options: EngineOptions {
            stage_imbalance_correction: true,
            ..Default::default()
        },
    };
    assert_agrees(&case, &TrainingConfig::new(512, 3).unwrap());
}

#[test]
fn kernel_matches_reference_moe_with_zero() {
    let (m, a, sys) = (moe_model(), a100(), system(4, 8));
    let p = Parallelism::builder()
        .tp(8, 1)
        .dp(1, 4)
        .zero(ZeroConfig::stage(ZeroStage::Gradients, 0.5))
        .build()
        .unwrap();
    let case = Case {
        model: &m,
        accel: &a,
        system: &sys,
        p: &p,
        precision: Precision::default(),
        efficiency: EfficiencyModel::Constant(0.6),
        options: EngineOptions::default(),
    };
    assert_agrees(&case, &TrainingConfig::new(128, 5).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_the_reference_on_random_scenarios(
        (layers, heads, hidden_per_head, seq_exp, vocab) in
            (2usize..20, 0usize..3, 8usize..65, 5u32..10, 500usize..40000),
        (experts, nodes_exp, per_node_exp, batch_exp, batches) in
            (0usize..9, 0u32..4, 0u32..4, 3u32..11, 1u64..100),
        (zero, zero_overhead, recompute, imbalance, paper_eq8) in
            (0usize..4, 0.0f64..0.6, 0u8..2, 0u8..2, 0u8..2),
        (policy, microbatches, interleave, bits, topo) in
            (0usize..3, 1usize..33, 1usize..5, 0usize..3, 0usize..3),
        (eff_floor, eff_span, inter_gbps, nics) in
            (0.05f64..0.5, 0.1f64..0.5, 25.0f64..800.0, 0usize..2),
    ) {
        let heads = [4usize, 8, 16][heads];
        let mut builder = TransformerModel::builder("ref-prop");
        builder
            .layers(layers)
            .hidden_size(heads * hidden_per_head)
            .heads(heads)
            .seq_len(1 << seq_exp)
            .vocab_size(vocab);
        if experts > 1 {
            builder.moe(MoeConfig::glam(experts));
        }
        let Ok(model) = builder.build() else { return Ok(()); };
        let accel = a100();
        let per_node = 1usize << per_node_exp;
        let topology = [Topology::Ring, Topology::Tree, Topology::FullyConnected][topo];
        let Ok(system) = SystemSpec::new(
            1 << nodes_exp,
            per_node,
            Link::new(5e-6, 2.4e12).with_topology(topology),
            Link::new(1e-5, inter_gbps * 1e9),
            if nics == 0 { per_node } else { 1 },
        ) else { return Ok(()); };
        let zero = [ZeroStage::None, ZeroStage::OptimizerStates, ZeroStage::Gradients, ZeroStage::Parameters][zero];
        let enumeration = EnumerationOptions {
            microbatch_policy: [
                MicrobatchPolicy::EqualToPipelineDepth,
                MicrobatchPolicy::Explicit(microbatches),
                MicrobatchPolicy::TargetMicrobatch(microbatches),
            ][policy],
            bubble_ratio: 1.0 / interleave as f64,
            zero: ZeroConfig::stage(zero, zero_overhead),
            ..EnumerationOptions::default()
        };
        let options = EngineOptions {
            activation_recompute: recompute == 1,
            stage_imbalance_correction: imbalance == 1,
            bubble_accounting: if paper_eq8 == 1 {
                BubbleAccounting::PaperEq8
            } else {
                BubbleAccounting::GPipe
            },
            ..EngineOptions::default()
        };
        let precision = [Precision::fp16(), Precision::fp32(), Precision::uniform(8)][bits];
        let efficiency =
            EfficiencyModel::saturating(0.95, 4.0, eff_floor, (eff_floor + eff_span).min(0.99));
        let training = TrainingConfig::new(1 << batch_exp, batches).expect("valid");

        let mappings = enumerate_mappings(&system, &model, &enumeration);
        prop_assert!(!mappings.is_empty());
        for p in &mappings {
            let case = Case {
                model: &model,
                accel: &accel,
                system: &system,
                p,
                precision,
                efficiency: efficiency.clone(),
                options,
            };
            if let Some(why) = disagreement(&case, &training) {
                prop_assert!(false, "{why} for {p:?}");
            }
        }
    }
}

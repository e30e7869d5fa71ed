//! Determinism and correctness pins for the serving-mapping search.

use std::sync::Arc;

use amped_core::{AcceleratorSpec, Link, Parallelism, Precision, SystemSpec, TransformerModel};
use amped_infer::InferenceConfig;
use amped_obs::Observer;
use amped_search::{serving_pareto_front, ServingCandidate, ServingSearch, ServingSweepOptions};

fn model() -> TransformerModel {
    TransformerModel::builder("serve-search")
        .layers(24)
        .hidden_size(2048)
        .heads(16)
        .seq_len(2048)
        .vocab_size(50257)
        .build()
        .unwrap()
}

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

fn system() -> SystemSpec {
    SystemSpec::new(2, 8, Link::new(5e-6, 2.4e12), Link::new(1e-5, 2e11), 8).unwrap()
}

fn request() -> InferenceConfig {
    InferenceConfig::new(512, 128, 1).unwrap()
}

fn fingerprint(ranked: &[ServingCandidate]) -> Vec<(u64, [usize; 3], usize)> {
    ranked
        .iter()
        .map(|c| {
            (
                c.estimate.request_latency.get().to_bits(),
                [c.parallelism.tp(), c.parallelism.pp(), c.parallelism.dp()],
                c.batch,
            )
        })
        .collect()
}

#[test]
fn rankings_and_stats_are_bit_identical_with_and_without_pruning() {
    let (m, a, s) = (model(), a100(), system());
    let (reference, want_stats) = ServingSearch::new(&m, &a, &s)
        .search_with_stats(&request())
        .unwrap();
    assert!(!reference.is_empty());
    let (pruned, stats) = ServingSearch::new(&m, &a, &s)
        .with_pruning(true)
        .search_with_stats(&request())
        .unwrap();
    assert_eq!(fingerprint(&pruned), fingerprint(&reference));
    // The accounting ships in the artifact, so it is held to the same
    // bit-identity bar as the ranking itself.
    assert_eq!(stats, want_stats);
}

#[test]
fn ranking_is_led_by_the_latency_optimum_and_sorted() {
    let (m, a, s) = (model(), a100(), system());
    let ranked = ServingSearch::new(&m, &a, &s).search(&request()).unwrap();
    for pair in ranked.windows(2) {
        assert!(pair[0].objective_time() <= pair[1].objective_time());
    }
    // Every kept point fits memory under the default filter.
    assert!(ranked.iter().all(|c| c.fits_memory));
}

#[test]
fn stats_identity_holds() {
    let (m, a, s) = (model(), a100(), system());
    let (ranked, stats) = ServingSearch::new(&m, &a, &s)
        .with_pruning(true)
        .search_with_stats(&request())
        .unwrap();
    assert_eq!(stats.kept, ranked.len() as u64);
    assert_eq!(
        stats.generated,
        stats.pruned + stats.kept + stats.memory_rejected.total()
    );
}

#[test]
fn observer_is_passive_and_counts() {
    let (m, a, s) = (model(), a100(), system());
    let bare = ServingSearch::new(&m, &a, &s).search(&request()).unwrap();
    let obs = Arc::new(Observer::new());
    let observed = ServingSearch::new(&m, &a, &s)
        .with_observer(obs.clone())
        .search(&request())
        .unwrap();
    assert_eq!(fingerprint(&bare), fingerprint(&observed));
    let counters = obs.counters();
    assert_eq!(
        counters["infer.search.candidates.generated"],
        counters["infer.search.candidates.pruned"]
            + counters["infer.search.candidates.kept"]
            + counters["infer.search.candidates.memory_rejected"]
    );
}

#[test]
fn pareto_front_is_nondominated_and_contains_the_optimum() {
    let (m, a, s) = (model(), a100(), system());
    let ranked = ServingSearch::new(&m, &a, &s)
        .with_sweep(ServingSweepOptions {
            max_batch: 32,
            ..ServingSweepOptions::default()
        })
        .search(&request())
        .unwrap();
    let front = serving_pareto_front(&ranked);
    assert!(!front.is_empty());
    // The latency winner's ttft+tpot cannot be dominated on all axes.
    assert!(front
        .iter()
        .any(|c| c.objective_time() == ranked[0].objective_time()));
    // No front member dominates another.
    let key = |c: &ServingCandidate| {
        [
            c.estimate.ttft.get(),
            c.estimate.tpot.get(),
            -c.estimate.tokens_per_sec,
            c.estimate.memory_total(),
        ]
    };
    for x in &front {
        for y in &front {
            let (kx, ky) = (key(x), key(y));
            let dominates = kx.iter().zip(&ky).all(|(a, b)| a <= b)
                && kx.iter().zip(&ky).any(|(a, b)| a < b);
            assert!(!dominates, "pareto front member dominates another");
        }
    }
}

#[test]
fn bigger_batches_trade_latency_for_throughput() {
    let (m, a, s) = (model(), a100(), system());
    let ranked = ServingSearch::new(&m, &a, &s)
        .with_precision(Precision::fp16())
        .search(&request())
        .unwrap();
    // Fix one mapping and compare its batch ladder.
    let mapping: Parallelism = ranked[0].parallelism;
    let ladder: Vec<&ServingCandidate> = ranked
        .iter()
        .filter(|c| {
            c.parallelism.tp() == mapping.tp()
                && c.parallelism.pp() == mapping.pp()
                && c.parallelism.dp() == mapping.dp()
        })
        .collect();
    assert!(ladder.len() >= 2);
    let small = ladder.iter().min_by_key(|c| c.batch).unwrap();
    let large = ladder.iter().max_by_key(|c| c.batch).unwrap();
    assert!(large.batch > small.batch);
    assert!(large.estimate.tokens_per_sec > small.estimate.tokens_per_sec);
    assert!(large.estimate.tpot.get() >= small.estimate.tpot.get());
}

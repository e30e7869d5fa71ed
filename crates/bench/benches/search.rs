//! Criterion benches of the design-space exploration engine: enumeration
//! and full ranked searches at two system sizes.
//!
//! `search/rank_all_16x8` exercises the default engine (batched kernel,
//! worker pool sized to the host); `search/rank_all_16x8_pruned` adds
//! branch-and-bound pruning. The repository benchmark (`bench_layers`,
//! workload `search-train`) measures the same path end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use amped_configs::{accelerators, efficiency, models, systems};
use amped_core::TrainingConfig;
use amped_search::{enumerate_mappings, EnumerationOptions, SearchEngine};

fn bench_enumeration(c: &mut Criterion) {
    let model = models::megatron_145b();
    let system = systems::a100_hdr_cluster(128, 8);
    c.bench_function("search/enumerate_128x8", |b| {
        b.iter(|| {
            black_box(enumerate_mappings(
                black_box(&system),
                black_box(&model),
                &EnumerationOptions::default(),
            ))
            .len()
        })
    });
}

fn bench_full_search(c: &mut Criterion) {
    let model = models::megatron_145b();
    let a100 = accelerators::a100();
    let system = systems::a100_hdr_cluster(16, 8);
    let training = TrainingConfig::new(2048, 1).expect("valid");
    let engine =
        SearchEngine::new(&model, &a100, &system).with_efficiency(efficiency::case_study());
    c.bench_function("search/rank_all_16x8", |b| {
        b.iter(|| black_box(engine.search(black_box(&training)).expect("searches")).len())
    });
    let pruned = engine.clone().with_pruning(true);
    c.bench_function("search/rank_all_16x8_pruned", |b| {
        b.iter(|| black_box(pruned.search(black_box(&training)).expect("searches")).len())
    });
}

criterion_group!(benches, bench_enumeration, bench_full_search);
criterion_main!(benches);

//! Keeps the criterion benches compiling and runnable: a single-iteration
//! `cargo bench -- --test` smoke run of the search bench, so bench rot is
//! caught by the ordinary test flow instead of at measurement time.

use std::path::Path;
use std::process::Command;

fn smoke_run(bench: &str, ids: &[&str]) {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(cargo)
        .current_dir(&root)
        .args([
            "bench",
            "--offline",
            "-p",
            "amped-bench",
            "--bench",
            bench,
            "--",
            "--test",
        ])
        .output()
        .expect("cargo bench spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "cargo bench --test failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for id in ids {
        assert!(
            stdout.contains(&format!("{id}: test passed")),
            "missing smoke line for {id}\nstdout:\n{stdout}"
        );
    }
}

#[test]
fn search_bench_smoke_run_passes() {
    smoke_run(
        "search",
        &[
            "search/enumerate_128x8",
            "search/rank_all_16x8",
            "search/rank_all_16x8_pruned",
        ],
    );
}

#[test]
fn estimator_bench_smoke_run_covers_the_batched_path() {
    smoke_run(
        "estimator",
        &[
            "scalar_vs_batched/evaluate_loop",
            "scalar_vs_batched/evaluate_many",
        ],
    );
}

//! Offline stand-in for `criterion`.
//!
//! Keeps the macro surface (`criterion_group!`, `criterion_main!`,
//! `Criterion::bench_function`, `Bencher::iter`) so the workspace's benches
//! compile and run without the real crate. Measurement is a simple
//! warmup + timed-batch loop reporting mean/min wall-clock time — adequate
//! for quick before/after comparisons, not a statistical engine.
//!
//! `--test` (as passed by `cargo bench -- --test`) runs every benchmark
//! body exactly once with no measurement, which is what the bench smoke
//! test in `amped-bench` relies on. Unknown CLI arguments (e.g. the bench
//! name filter cargo forwards) select benchmarks by substring, matching
//! criterion's behaviour loosely.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark harness entry point, one per `criterion_group!`.
#[derive(Default)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Read `--test` and an optional name filter from the process args.
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--test" => self.test_mode = true,
                // Flags criterion/cargo-bench pass that we accept and ignore.
                "--bench" | "--quiet" | "-q" | "--noplot" => {}
                s if s.starts_with("--") => {
                    // Value-carrying unknown flags: skip their value too.
                    if matches!(args.peek(), Some(v) if !v.starts_with('-')) {
                        args.next();
                    }
                }
                s => self.filter = Some(s.to_string()),
            }
        }
        self
    }

    /// Run (or smoke-run) one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher { test_mode: self.test_mode, samples: Vec::new() };
        f(&mut b);
        if self.test_mode {
            println!("{id}: test passed (single iteration)");
        } else if !b.samples.is_empty() {
            let n = b.samples.len() as f64;
            let mean = b.samples.iter().copied().sum::<f64>() / n;
            let min = b.samples.iter().copied().fold(f64::INFINITY, f64::min);
            println!("{id}  time: [min {} mean {}]  ({} samples)", fmt_s(min), fmt_s(mean), n);
        }
        self
    }
}

fn fmt_s(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.4} s")
    } else if secs >= 1e-3 {
        format!("{:.4} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.4} µs", secs * 1e6)
    } else {
        format!("{:.4} ns", secs * 1e9)
    }
}

/// Passed to the benchmark closure; runs the measured routine.
pub struct Bencher {
    test_mode: bool,
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `routine`. In `--test` mode it runs once, unmeasured.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warm up and estimate per-iteration cost.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < Duration::from_millis(200) {
            black_box(routine());
            warmup_iters += 1;
            if warmup_iters >= 10_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        // Aim for ~1s of measurement split into up to 20 samples.
        let samples = 20usize;
        let iters_per_sample = ((0.05 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            self.samples.push(t.elapsed().as_secs_f64() / iters_per_sample as f64);
        }
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

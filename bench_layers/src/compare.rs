//! `bench_layers compare A.json... -- B.json...`: for every (end-to-end
//! metric, workload) pair, the median and quartiles of each side's runs
//! and a verdict against the metric's bound in `BENCHMARK.json`.

use serde_json::Value;

use crate::stats::Quartiles;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs spread wider than the bound, so no change can be told.
    Unresolved,
}

/// A bounded end-to-end metric from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// Median and quartiles of one side. A single run has no known spread.
fn summary(values: &[f64]) -> Quartiles {
    Quartiles::of(values).unwrap_or(Quartiles {
        q1: f64::NEG_INFINITY,
        median: values[0],
        q3: f64::INFINITY,
    })
}

/// Judge side `b` against side `a`. The change is `b`'s median against
/// `a`'s as a share of `a`'s, signed so that positive is worse. Where
/// either side spreads wider than the bound, or is a single run whose
/// spread is unknown, the verdict is unresolved — unless every run of `b`
/// beats every run of `a` and both sides have at least two runs.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let (sa, sb) = (summary(a), summary(b));
    let worse_by = |from: f64, to: f64| {
        let d = if lower_is_better {
            to - from
        } else {
            from - to
        };
        if from == 0.0 {
            d.signum() * f64::from(u8::from(d != 0.0))
        } else {
            d / from.abs()
        }
    };
    let change = worse_by(sa.median, sb.median);
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let verdict = if sa.spread().max(sb.spread()) > bound {
        if a.len() > 1 && b.len() > 1 && b.iter().all(|&vb| a.iter().all(|&va| beats(vb, va))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, change)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let doc = load(BENCHMARK_JSON)?;
    doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m["name"].as_str()?.to_string(),
                unit: m["unit"].as_str()?.to_string(),
                lower_is_better: m["better"].as_str()? == "lower",
                bound: m["bound"].as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// The values of `metric` on `workload` across `docs` (runs missing it
/// are skipped).
fn values(docs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d["workloads"][workload]["metrics"][metric]["value"].as_f64())
        .collect()
}

fn digests(docs: &[Value], workload: &str) -> Vec<String> {
    docs.iter()
        .filter_map(|d| {
            d["workloads"][workload]["outputs_digest"]
                .as_str()
                .map(String::from)
        })
        .collect()
}

/// Run the comparison; `Ok(false)` when any pair got worse.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let usage = "usage: bench_layers compare A.json... -- B.json...";
    let split = argv.iter().position(|a| a == "--").ok_or(usage)?;
    let (a, b) = (&argv[..split], &argv[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err(usage.into());
    }
    let a: Vec<Value> = a.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let b: Vec<Value> = b.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let bounds = bounds()?;
    let mut any_worse = false;
    println!(
        "{:<15} {:<12} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for workload in crate::WORKLOADS {
        for m in &bounds {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, change) = judge(&va, &vb, m.bound, m.lower_is_better);
            any_worse |= verdict == Verdict::Worse;
            let side = |v: &[f64]| {
                let s = summary(v);
                format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, m.unit)
            };
            println!(
                "{workload:<15} {:<12} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {verdict:?}",
                m.name,
                side(&va),
                side(&vb),
                change * 100.0,
                m.bound * 100.0
            );
        }
        let mut all = digests(&a, workload);
        all.extend(digests(&b, workload));
        if !all.is_empty() {
            all.sort();
            all.dedup();
            let status = if all.len() == 1 {
                "identical"
            } else {
                "differ"
            };
            println!("{workload:<15} outputs_digest {status}: {}", all.join(" "));
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Within the bound either way.
        assert_eq!(
            judge(&base, &[10.3, 10.2, 10.4], 0.10, true).0,
            Verdict::Same
        );
        // 20% slower on a lower-is-better metric.
        let (v, change) = judge(&base, &[12.0, 12.1, 11.9], 0.10, true);
        assert_eq!(v, Verdict::Worse);
        assert!((change - 0.2).abs() < 1e-9);
        // 20% faster.
        assert_eq!(
            judge(&base, &[8.0, 8.1, 7.9], 0.10, true).0,
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&base, &[8.0, 8.1, 7.9], 0.10, false).0,
            Verdict::Worse
        );
        // A noisy side cannot be judged...
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(judge(&base, &noisy, 0.10, true).0, Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&[20.0, 30.0, 40.0], &[1.0, 5.0, 9.0], 0.10, true).0,
            Verdict::Better
        );
        // A single run has no spread to judge against.
        assert_eq!(judge(&[1.0], &[1.05], 0.10, true).0, Verdict::Unresolved);
        assert_eq!(judge(&[1.0], &[0.5], 0.10, true).0, Verdict::Unresolved);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = bounds().unwrap();
        assert!(b.iter().any(|m| m.name == "setup_s" && m.lower_is_better));
        assert!(b.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn values_and_digests_are_read_per_workload() {
        let doc: Value = serde_json::from_str(
            r#"{"workloads": {"search-train": {"outputs_digest": "ab/3", "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"}}}}}"#,
        )
        .unwrap();
        let docs = [doc.clone(), doc];
        assert_eq!(values(&docs, "search-train", "p50_ms"), [1.5, 1.5]);
        assert!(values(&docs, "http-mixed", "p50_ms").is_empty());
        assert_eq!(digests(&docs, "search-train"), ["ab/3", "ab/3"]);
    }
}

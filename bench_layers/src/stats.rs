//! Exact sample statistics: nearest-rank quantiles over the raw samples a
//! run collected (no histogram bucketing), plus the quartile spread the
//! `compare` verdicts and the stability check use.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q·n` samples at or below it. `q = 0` is the
/// minimum. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// A sample sorted once, queried many times.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank quantile, 0 for an empty sample (a layer the
    /// workload never reached).
    pub fn q(&self, q: f64) -> f64 {
        nearest_rank(&self.0, q).unwrap_or(0.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

/// Median and quartiles of a small set of run results, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so the spreads printed here match the ones an outside check computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `None` for fewer than two values (no spread to speak of).
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            return None;
        }
        // Python's exclusive method, in its integer arithmetic: position
        // i·(n+1)/4, clamped to the inner samples and extrapolated beyond.
        let at = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
        })
    }

    /// The interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// 64-bit FNV-1a, the digest of a workload's ranked outputs.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `n / d` as a share, 0 when nothing was counted.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, literally: the smallest sample `x` such that at
    /// least `q·n` samples are `<= x`.
    fn oracle(sorted: &[f64], q: f64) -> f64 {
        let need = q * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .unwrap()
    }

    #[test]
    fn nearest_rank_matches_the_sorted_oracle() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f64
                })
                .collect();
            v.sort_by(f64::total_cmp);
            for q in [0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(nearest_rank(&v, q), Some(oracle(&v, q)), "n={n} q={q}");
            }
            assert_eq!(nearest_rank(&v, 0.0), Some(v[0]));
        }
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_picks_whole_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.991), Some(100.0));
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q(0.5), s.mean(), s.len()), (2.0, 2.0, 3));
        assert_eq!(Samples::default().q(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((Quartiles::of(&v).unwrap().spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[1.0]), None);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

//! The branch-and-bound executor both searches run on.
//!
//! [`SearchEngine`](crate::SearchEngine) and
//! [`ServingSearch`](crate::ServingSearch) describe their candidates as a
//! [`Space`]; [`explore`] walks it on the calling thread in three steps:
//!
//! 1. **Filter and bound.** In enumeration order, decide each candidate's
//!    memory feasibility, then compute a lower bound on each survivor's
//!    objective. Feasibility never depends on the incumbent, so the
//!    rejection counts are the same with pruning on or off.
//! 2. **Order.** Sort the survivors by `(bound, enumeration index)`.
//! 3. **Evaluate.** Price the survivors in that order. With pruning on,
//!    stop at the first bound above the incumbent (the best objective so
//!    far): every later bound is at least as large.
//!
//! The kept set is post-filtered to `bound <= best` as the walk goes, so
//! a candidate that cannot rank is never held. Every candidate that passes
//! the filter was evaluated, because the incumbent never drops below the
//! final best, so the result is the same with pruning on or off.
//! Everything here depends only on the input, and nothing outlives the
//! call.

use amped_core::Result;

/// What step 1 decided about one candidate.
pub(crate) enum Screened<R> {
    /// Rejected by the memory filter, with the failing capacity term.
    Rejected(R),
    /// Feasible, with a lower bound on its objective (`-inf` when the
    /// space does not bound it).
    Bounded(f64),
}

/// A search space the executor can walk: candidates addressed by their
/// enumeration index.
pub(crate) trait Space {
    /// An evaluated candidate.
    type Candidate;
    /// Why the memory filter rejected a candidate.
    type Rejection;

    /// Step 1 for candidate `index`.
    fn screen(&mut self, index: usize) -> Result<Screened<Self::Rejection>>;

    /// Price candidate `index` (only called for bounded candidates).
    fn evaluate(&mut self, index: usize) -> Result<Self::Candidate>;

    /// The objective a candidate is ranked and pruned by.
    fn objective(candidate: &Self::Candidate) -> f64;
}

/// The outcome of one [`explore`] pass.
pub(crate) struct Explored<C, R> {
    /// Evaluated candidates whose bound does not exceed the best
    /// objective, with their enumeration index, in evaluation order.
    pub kept: Vec<(usize, C)>,
    /// Memory rejections, in enumeration order.
    pub rejected: Vec<R>,
    /// Candidates evaluated: the kept ones plus those the post-filter
    /// dropped.
    pub evaluated: u64,
    /// Bounded candidates skipped without evaluation.
    pub pruned: u64,
}

/// Walk the first `len` candidates of `space` (see the module docs).
///
/// # Errors
///
/// The first screening error in enumeration order, else the first
/// evaluation error in evaluation order.
pub(crate) fn explore<S: Space>(
    space: &mut S,
    len: usize,
    prune: bool,
) -> Result<Explored<S::Candidate, S::Rejection>> {
    let mut rejected = Vec::new();
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(len);
    for index in 0..len {
        match space.screen(index)? {
            Screened::Rejected(r) => rejected.push(r),
            Screened::Bounded(bound) => order.push((bound, index)),
        }
    }
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut best = f64::INFINITY;
    let mut n_evaluated = 0;
    let mut kept: Vec<(f64, usize, S::Candidate)> = Vec::new();
    for &(bound, index) in &order {
        if prune && bound > best {
            break;
        }
        let candidate = space.evaluate(index)?;
        n_evaluated += 1;
        best = best.min(S::objective(&candidate));
        // The post-filter `bound <= best`, applied as the walk goes: bounds
        // ascend and `best` only falls, so what fails it is always a tail.
        while kept.last().is_some_and(|(b, _, _)| *b > best) {
            kept.pop();
        }
        if bound <= best {
            kept.push((bound, index, candidate));
        }
    }
    Ok(Explored {
        kept: kept.into_iter().map(|(_, index, c)| (index, c)).collect(),
        rejected,
        evaluated: n_evaluated as u64,
        pruned: (order.len() - n_evaluated) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates with fixed bounds and objectives; odd rejections.
    struct Table {
        rows: Vec<(Option<&'static str>, f64, f64)>,
        evaluations: Vec<usize>,
    }

    impl Space for Table {
        type Candidate = f64;
        type Rejection = &'static str;

        fn screen(&mut self, index: usize) -> Result<Screened<&'static str>> {
            Ok(match self.rows[index] {
                (Some(r), _, _) => Screened::Rejected(r),
                (None, bound, _) => Screened::Bounded(bound),
            })
        }

        fn evaluate(&mut self, index: usize) -> Result<f64> {
            self.evaluations.push(index);
            Ok(self.rows[index].2)
        }

        fn objective(candidate: &f64) -> f64 {
            *candidate
        }
    }

    fn table() -> Table {
        Table {
            rows: vec![
                (None, 5.0, 9.0),
                (Some("weights"), 0.0, 0.0),
                (None, 1.0, 4.0),
                (None, 4.0, 4.5),
                (None, 3.0, 3.5),
                (None, 6.0, 6.0),
            ],
            evaluations: Vec::new(),
        }
    }

    #[test]
    fn evaluates_best_first_and_stops_at_the_incumbent() {
        let mut space = table();
        let out = explore(&mut space, 6, true).unwrap();
        // Bounds 1 and 3 are priced; bound 4 exceeds the incumbent 3.5.
        assert_eq!(space.evaluations, [2, 4]);
        assert_eq!((out.evaluated, out.pruned), (2, 3));
        assert_eq!(out.rejected, ["weights"]);
        let kept: Vec<usize> = out.kept.iter().map(|(i, _)| *i).collect();
        assert_eq!(kept, [2, 4]);
    }

    #[test]
    fn pruning_changes_work_not_the_kept_set() {
        let mut full = table();
        let unpruned = explore(&mut full, 6, false).unwrap();
        assert_eq!(full.evaluations, [2, 4, 3, 0, 5]);
        assert_eq!((unpruned.evaluated, unpruned.pruned), (5, 0));
        let pruned = explore(&mut table(), 6, true).unwrap();
        let ids = |e: &Explored<f64, &str>| e.kept.iter().map(|(i, _)| *i).collect::<Vec<_>>();
        assert_eq!(ids(&unpruned), ids(&pruned));
        assert_eq!(unpruned.rejected, pruned.rejected);
    }

    #[test]
    fn unbounded_candidates_run_in_enumeration_order() {
        let mut space = table();
        for row in &mut space.rows {
            row.1 = f64::NEG_INFINITY;
        }
        let out = explore(&mut space, 6, true).unwrap();
        assert_eq!(space.evaluations, [0, 2, 3, 4, 5]);
        assert_eq!(out.kept.len(), 5);
    }
}

//! Runtime-adaptive execution.
//!
//! §3.3: "the field of adaptive query processing has advanced
//! significantly over the past six years, and we can borrow and extend
//! some of the techniques to make query operators self-adaptable at
//! runtime." [`AdaptiveFilterChain`] is an eddy-flavored conjunctive
//! filter that continuously reorders its predicates by observed pass
//! rate, so the most selective predicate runs first without any optimizer
//! statistics.

use impliance_storage::Predicate;

use crate::tuple::Tuple;

/// A conjunctive filter that reorders itself while running.
#[derive(Debug)]
pub struct AdaptiveFilterChain {
    predicates: Vec<Predicate>,
    /// (evaluations, passes) per predicate, aligned with `predicates`.
    observed: Vec<(u64, u64)>,
    /// Re-sort period in tuples.
    reorder_every: u64,
    seen: u64,
    /// Total predicate evaluations performed (the efficiency observable).
    pub evaluations: u64,
}

impl AdaptiveFilterChain {
    /// Create a chain over conjunctive predicates.
    pub fn new(predicates: Vec<Predicate>, reorder_every: u64) -> AdaptiveFilterChain {
        let n = predicates.len();
        AdaptiveFilterChain {
            predicates,
            observed: vec![(0, 0); n],
            reorder_every: reorder_every.max(1),
            seen: 0,
            evaluations: 0,
        }
    }

    /// Current predicate order (for tests/diagnostics).
    pub fn order(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Evaluate the conjunction against one tuple's binding, short-
    /// circuiting on the first failure and adapting order periodically.
    pub fn matches(&mut self, tuple: &Tuple, alias: &str) -> bool {
        let Some(doc) = tuple.bindings.get(alias) else {
            return false;
        };
        let mut ok = true;
        for (i, p) in self.predicates.iter().enumerate() {
            self.evaluations += 1;
            self.observed[i].0 += 1;
            if p.matches(doc) {
                self.observed[i].1 += 1;
            } else {
                ok = false;
                break;
            }
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.reorder_every) {
            self.reorder();
        }
        ok
    }

    /// Filter a batch of tuples.
    pub fn filter(&mut self, tuples: Vec<Tuple>, alias: &str) -> Vec<Tuple> {
        tuples
            .into_iter()
            .filter(|t| self.matches(t, alias))
            .collect()
    }

    fn reorder(&mut self) {
        // pass rate with Laplace smoothing; lowest pass rate first
        let mut order: Vec<usize> = (0..self.predicates.len()).collect();
        let rate = |&(evals, passes): &(u64, u64)| (passes as f64 + 1.0) / (evals as f64 + 2.0);
        order.sort_by(|&a, &b| rate(&self.observed[a]).total_cmp(&rate(&self.observed[b])));
        let predicates = order
            .iter()
            .map(|&i| self.predicates[i].clone())
            .collect::<Vec<_>>();
        let observed = order.iter().map(|&i| self.observed[i]).collect::<Vec<_>>();
        self.predicates = predicates;
        self.observed = observed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
    use std::sync::Arc;

    fn tuple(i: u64) -> Tuple {
        Tuple::single(
            "d",
            Arc::new(
                DocumentBuilder::new(DocId(i), SourceFormat::Json, "c")
                    .field("common", (i % 2) as i64) // passes ~50%
                    .field("rare", (i % 100) as i64) // passes ~1%
                    .build(),
            ),
        )
    }

    fn preds() -> Vec<Predicate> {
        vec![
            // listed worst-first: the cheap-to-fail predicate is LAST
            Predicate::Eq("common".into(), Value::Int(0)),
            Predicate::Eq("rare".into(), Value::Int(0)),
        ]
    }

    #[test]
    fn chain_answers_match_fixed_conjunction() {
        let mut chain = AdaptiveFilterChain::new(preds(), 16);
        let fixed = Predicate::And(preds());
        for i in 0..1000 {
            let t = tuple(i);
            let expect = fixed.matches(t.bindings["d"].as_ref());
            assert_eq!(chain.matches(&t, "d"), expect, "tuple {i}");
        }
    }

    #[test]
    fn adaptation_reduces_evaluations() {
        let tuples: Vec<Tuple> = (0..10_000).map(tuple).collect();
        // adaptive chain, reordering every 64 tuples
        let mut adaptive = AdaptiveFilterChain::new(preds(), 64);
        let kept_a = adaptive.filter(tuples.clone(), "d").len();
        // frozen chain in the bad order: never reorders
        let mut frozen = AdaptiveFilterChain::new(preds(), u64::MAX);
        let kept_f = frozen.filter(tuples, "d").len();
        assert_eq!(kept_a, kept_f, "same answers");
        assert!(
            adaptive.evaluations < frozen.evaluations,
            "adaptive {} !< frozen {}",
            adaptive.evaluations,
            frozen.evaluations
        );
    }

    #[test]
    fn reorder_puts_selective_predicate_first() {
        let mut chain = AdaptiveFilterChain::new(preds(), 32);
        for i in 0..256 {
            chain.matches(&tuple(i), "d");
        }
        match &chain.order()[0] {
            Predicate::Eq(path, _) => assert_eq!(path, "rare"),
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn missing_alias_fails_closed() {
        let mut chain = AdaptiveFilterChain::new(preds(), 8);
        assert!(!chain.matches(&tuple(0), "nope"));
    }
}

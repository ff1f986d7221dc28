//! Property-based equivalence of the streaming fault sources.
//!
//! Every [`FaultSource`] combinator must enumerate **exactly** the
//! faults its eager counterpart produces, in the same order, no
//! matter how a consumer chunks its pulls — that equivalence is what
//! lets the campaign executor swap eager fault `Vec`s for live
//! sources without changing a single profile byte. Skipping faults
//! with [`FaultSource::discard`] must likewise equal pulling and
//! dropping them.

use conferr_model::{
    product_eager, sample_keeps, EagerSource, ErrorClass, FaultScenario, FaultSource,
    FaultSourceExt, GeneratedFault, TypoKind,
};
use conferr_tree::TreePath;
use proptest::prelude::*;

/// An arbitrary fault: mostly scenarios (with a one-edit list so
/// products concatenate something), some inexpressible.
fn arb_fault(tag: &'static str) -> impl Strategy<Value = GeneratedFault> {
    (0u32..1000, 0u32..100).prop_map(move |(n, roll)| {
        let inexpressible = roll < 15;
        if inexpressible {
            GeneratedFault::Inexpressible {
                id: format!("{tag}-na{n}"),
                description: format!("inexpressible {n}"),
                class: ErrorClass::Typo(TypoKind::Omission),
                reason: "cannot serialize".to_string(),
            }
        } else {
            GeneratedFault::Scenario(FaultScenario {
                id: format!("{tag}-f{n}"),
                description: format!("fault {n}"),
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: vec![conferr_model::TreeEdit::Delete {
                    file: format!("{tag}.conf"),
                    path: TreePath::from(vec![n as usize % 5]),
                }],
            })
        }
    })
}

fn arb_faults(tag: &'static str, max: usize) -> impl Strategy<Value = Vec<GeneratedFault>> {
    prop::collection::vec(arb_fault(tag), 0..max)
}

/// Pull sizes a consumer might use, cycled over the whole drain.
fn arb_pulls() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..9, 1..5)
}

/// Drains `source` using the cycled pull sizes (each pull also checks
/// the size-hint invariant in debug builds).
fn drain_with(mut source: impl FaultSource, pulls: &[usize]) -> Vec<GeneratedFault> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let before = out.len();
        let max = pulls[i % pulls.len()];
        i += 1;
        let n = source.next_chunk(max, &mut out).expect("eager-backed");
        assert_eq!(n, out.len() - before, "return value counts appended faults");
        assert!(n <= max, "never more than max");
        if n == 0 {
            assert_eq!(
                source.next_chunk(max, &mut out).expect("eager-backed"),
                0,
                "exhaustion is permanent"
            );
            return out;
        }
    }
}

/// One of the compositions `discard` is checked over, picked by
/// `kind`: eager, product, sampled product, skipped chain, and all of
/// them nested.
fn composition(
    kind: u8,
    a: &[GeneratedFault],
    b: &[GeneratedFault],
    seed: u64,
    rate: f64,
    skip: usize,
) -> Box<dyn FaultSource> {
    let eager = |faults: &[GeneratedFault]| EagerSource::new(faults.to_vec());
    match kind {
        0 => Box::new(eager(a)),
        1 => Box::new(eager(a).product(eager(b))),
        2 => Box::new(eager(a).product(eager(b)).sample(seed, rate)),
        3 => Box::new(eager(a).chain(eager(b)).skip(skip)),
        _ => Box::new(
            eager(a)
                .product(eager(b))
                .chain(eager(a))
                .sample(seed, rate)
                .skip(skip),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn discard_equals_dropping_the_pulled_prefix(
        kind in 0u8..5,
        a in arb_faults("a", 12),
        b in arb_faults("b", 12),
        seed in any::<u64>(),
        rate_pct in 0u32..=100,
        skip in 0usize..20,
        n in 0usize..60,
        pulls in arb_pulls(),
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let build = || composition(kind, &a, &b, seed, rate, skip);
        let all = drain_with(build(), &pulls);
        let mut source = build();
        let discarded = source.discard(n).expect("eager-backed");
        prop_assert_eq!(discarded, n.min(all.len()));
        let (lower, upper) = source.size_hint();
        let rest = drain_with(&mut source, &pulls);
        prop_assert_eq!(&rest[..], &all[discarded..]);
        prop_assert!(lower <= rest.len(), "lower bound {} > {}", lower, rest.len());
        prop_assert!(upper.is_none_or(|upper| rest.len() <= upper), "upper bound {:?} < {}", upper, rest.len());
        // A source that ran dry stays dry.
        prop_assert_eq!(source.discard(n).expect("eager-backed"), 0);
    }

    #[test]
    fn chain_equals_concatenation(
        a in arb_faults("a", 20),
        b in arb_faults("b", 20),
        pulls in arb_pulls(),
    ) {
        let mut eager = a.clone();
        eager.extend(b.iter().cloned());
        let streamed = drain_with(
            EagerSource::new(a).chain(EagerSource::new(b)),
            &pulls,
        );
        prop_assert_eq!(streamed, eager);
    }

    #[test]
    fn take_equals_truncation(
        faults in arb_faults("a", 30),
        n in 0usize..40,
        pulls in arb_pulls(),
    ) {
        let mut eager = faults.clone();
        eager.truncate(n);
        let streamed = drain_with(EagerSource::new(faults).take(n), &pulls);
        prop_assert_eq!(streamed, eager);
    }

    #[test]
    fn sample_equals_eager_index_filter(
        faults in arb_faults("a", 40),
        seed in any::<u64>(),
        rate_pct in 0u32..=100,
        pulls in arb_pulls(),
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let eager: Vec<GeneratedFault> = faults
            .iter()
            .enumerate()
            .filter(|(i, _)| sample_keeps(seed, *i as u64, rate))
            .map(|(_, f)| f.clone())
            .collect();
        let streamed = drain_with(EagerSource::new(faults).sample(seed, rate), &pulls);
        prop_assert_eq!(streamed, eager);
    }

    #[test]
    fn product_equals_eager_cross_product(
        a in arb_faults("a", 12),
        b in arb_faults("b", 12),
        pulls in arb_pulls(),
    ) {
        let eager = product_eager(&a, &b);
        let streamed = drain_with(
            EagerSource::new(a).product(EagerSource::new(b)),
            &pulls,
        );
        prop_assert_eq!(streamed, eager);
    }

    /// The combinators compose: a chained, sampled, truncated product
    /// still enumerates exactly what the eager pipeline computes.
    #[test]
    fn nested_combinators_match_eager_pipeline(
        a in arb_faults("a", 10),
        b in arb_faults("b", 10),
        c in arb_faults("c", 15),
        seed in any::<u64>(),
        rate_pct in 0u32..=100,
        n in 0usize..80,
        pulls in arb_pulls(),
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let eager: Vec<GeneratedFault> = {
            let mut all = product_eager(&a, &b);
            all.extend(c.iter().cloned());
            all.iter()
                .enumerate()
                .filter(|(i, _)| sample_keeps(seed, *i as u64, rate))
                .map(|(_, f)| f.clone())
                .take(n)
                .collect()
        };
        let streamed = drain_with(
            EagerSource::new(a)
                .product(EagerSource::new(b))
                .chain(EagerSource::new(c))
                .sample(seed, rate)
                .take(n),
            &pulls,
        );
        prop_assert_eq!(streamed, eager);
    }

    /// Chunk-size independence stated directly: any two pull patterns
    /// enumerate the same faults.
    #[test]
    fn enumeration_is_pull_pattern_independent(
        a in arb_faults("a", 12),
        b in arb_faults("b", 12),
        seed in any::<u64>(),
        pulls1 in arb_pulls(),
        pulls2 in arb_pulls(),
    ) {
        let build = || {
            EagerSource::new(a.clone())
                .product(EagerSource::new(b.clone()))
                .sample(seed, 0.5)
        };
        prop_assert_eq!(drain_with(build(), &pulls1), drain_with(build(), &pulls2));
    }
}

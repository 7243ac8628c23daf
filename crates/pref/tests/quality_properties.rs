//! Property tests tying the quality functions (§2.2.3) to the order
//! semantics: TOP/LEVEL/DISTANCE must be *monotone witnesses* of the
//! better-than relation — if `a` is better than `b`, then `a`'s quality
//! measures can never be worse than `b`'s.
//!
//! The quality side is what the engine runs: [`Preference::quality`] over
//! cells lowered through [`ScoreMatrix`], with the `LOWEST`/`HIGHEST`
//! optimum from [`ScoreMatrix::fold_minima`]. The order side is the
//! value-level oracle: [`BasePref::better`], `equiv` and `level`.

use prefsql_pref::{BasePref, Preference, ScoreMatrix};
use prefsql_types::Value;
use proptest::prelude::*;

/// `func` of each of `vals` under `base` as the engine computes it: the
/// values lowered to the cells of `Preference::single(base)`, the
/// `LOWEST`/`HIGHEST` optimum folded over all of them.
fn quality(base: &BasePref, func: &str, vals: &[Value]) -> Vec<Value> {
    let pref = Preference::single(base.clone()).expect("valid base preference");
    let rows: Vec<Vec<Value>> = vals.iter().map(|v| vec![v.clone()]).collect();
    let m = ScoreMatrix::lower(&pref, &rows);
    let mut best = [None];
    m.fold_minima(0, &mut best);
    (0..m.len())
        .map(|i| pref.quality(func, 0, m.row(i)[0], best[0]))
        .collect()
}

/// The numeric value of a LEVEL or DISTANCE result.
fn number(v: &Value) -> f64 {
    v.as_f64()
        .unwrap_or_else(|| panic!("numeric quality, got {v}"))
}

fn arb_categorical() -> impl Strategy<Value = BasePref> {
    let vals = || {
        proptest::collection::vec(0i64..6, 1..3)
            .prop_map(|v| v.into_iter().map(Value::Int).collect::<Vec<_>>())
    };
    prop_oneof![
        vals().prop_map(|values| BasePref::Pos { values }),
        vals().prop_map(|values| BasePref::Neg { values }),
        (vals(), vals()).prop_map(|(first, second)| BasePref::PosPos { first, second }),
        (vals(), vals()).prop_map(|(pos, neg)| BasePref::PosNeg { pos, neg }),
    ]
}

fn arb_numeric() -> impl Strategy<Value = BasePref> {
    prop_oneof![
        (-50.0f64..50.0).prop_map(|t| BasePref::Around { target: t }),
        (-50.0f64..0.0, 0.0f64..50.0).prop_map(|(l, u)| BasePref::Between { low: l, up: u }),
    ]
}

fn arb_val() -> impl Strategy<Value = Value> {
    (-60i64..60).prop_map(Value::Int)
}

proptest! {
    /// LEVEL is a monotone witness: better value ⇒ strictly smaller level.
    /// The cells' LEVEL is the oracle's.
    #[test]
    fn level_witnesses_better(p in arb_categorical(), a in arb_val(), b in arb_val()) {
        let levels = quality(&p, "level", &[a.clone(), b.clone()]);
        prop_assert_eq!(&levels[0], &Value::Int(p.level(&a).expect("non-null value has a level")));
        prop_assert_eq!(&levels[1], &Value::Int(p.level(&b).expect("non-null value has a level")));
        let (la, lb) = (number(&levels[0]), number(&levels[1]));
        if p.better(&a, &b) {
            prop_assert!(la < lb, "better {a} has level {la}, worse {b} has {lb}");
        }
        if p.equiv(&a, &b) {
            prop_assert_eq!(la, lb);
        }
    }

    /// DISTANCE is a monotone witness for the numeric preferences.
    #[test]
    fn distance_witnesses_better(p in arb_numeric(), a in arb_val(), b in arb_val()) {
        let d = quality(&p, "distance", &[a.clone(), b.clone()]);
        let (da, db) = (number(&d[0]), number(&d[1]));
        prop_assert!(da >= 0.0, "distance must be non-negative, got {da}");
        if p.better(&a, &b) {
            prop_assert!(da < db, "better {a} has distance {da}, worse {b} has {db}");
        }
        if p.equiv(&a, &b) {
            prop_assert_eq!(da, db);
        }
    }

    /// TOP values are maximal: nothing can be better than a perfect match,
    /// and a perfect match is at distance 0.
    #[test]
    fn top_values_are_undominated(p in arb_numeric(), a in arb_val(), b in arb_val()) {
        let vals = [a.clone(), b.clone()];
        let top = quality(&p, "top", &vals);
        let d = quality(&p, "distance", &vals);
        prop_assert_eq!(top[0] == Value::Bool(true), number(&d[0]) == 0.0);
        if top[0] == Value::Bool(true) {
            prop_assert!(!p.better(&b, &a), "{b} beats the perfect match {a}");
        }
    }

    #[test]
    fn categorical_top_is_level_one(p in arb_categorical(), a in arb_val()) {
        let top = quality(&p, "top", std::slice::from_ref(&a));
        prop_assert_eq!(&top[0], &Value::Bool(p.level(&a) == Some(1)));
    }

    /// LOWEST/HIGHEST distances are relative to the best value present:
    /// zero (and TOP) exactly at the values nothing present beats, and
    /// otherwise the gap to that best value.
    #[test]
    fn relative_distance_is_zero_at_the_best(vals in proptest::collection::vec(-50i64..50, 1..20)) {
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        for p in [BasePref::Lowest, BasePref::Highest] {
            let best = match p {
                BasePref::Lowest => *vals.iter().min().expect("non-empty"),
                _ => *vals.iter().max().expect("non-empty"),
            };
            let d = quality(&p, "distance", &values);
            let top = quality(&p, "top", &values);
            for (i, v) in values.iter().enumerate() {
                let maximal = !values.iter().any(|o| p.better(o, v));
                prop_assert_eq!(&d[i], &Value::Int((vals[i] - best).abs()));
                prop_assert_eq!(&top[i], &Value::Bool(maximal));
            }
        }
    }

    /// CONTAINS level = 1 + number of missing terms, bounded by the term
    /// count.
    #[test]
    fn contains_level_bounds(terms in proptest::collection::vec("[a-c]{1,3}", 1..4), text in "[a-c ]{0,12}") {
        let p = BasePref::Contains { terms: terms.clone() };
        let lvl = p.level(&Value::str(text.clone())).expect("non-null text");
        prop_assert!(lvl >= 1);
        prop_assert!(lvl <= 1 + terms.len() as i64);
        // All terms present => level 1.
        let all = terms.join(" ");
        prop_assert_eq!(p.level(&Value::str(all)), Some(1));
    }
}

#[test]
fn explicit_levels_follow_chain_depth() {
    let p = BasePref::Explicit {
        edges: vec![
            (Value::Int(1), Value::Int(2)),
            (Value::Int(2), Value::Int(3)),
            (Value::Int(3), Value::Int(4)),
            (Value::Int(1), Value::Int(5)),
        ],
    };
    assert_eq!(p.level(&Value::Int(1)), Some(1));
    assert_eq!(p.level(&Value::Int(2)), Some(2));
    assert_eq!(p.level(&Value::Int(3)), Some(3));
    assert_eq!(p.level(&Value::Int(4)), Some(4));
    assert_eq!(p.level(&Value::Int(5)), Some(2));
    assert_eq!(p.level(&Value::Int(99)), Some(1)); // unmentioned: undominated
    assert_eq!(
        quality(&p, "top", &[Value::Int(1), Value::Int(4)]),
        [Value::Bool(true), Value::Bool(false)]
    );
}

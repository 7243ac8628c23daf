//! The Best-Matches-Only (BMO) query model (paper §2.2.5).
//!
//! Given the slot vectors of the WHERE-qualified candidate tuples, BMO
//! returns exactly the non-dominated ("maximal") ones — through the one
//! selection rule of [`crate::algo`] (perfect-match pre-pass, then one
//! window with three ways to drive it; the measurements behind that are
//! referenced there): over the whole candidate set that is
//! [`crate::maximal_scored`], here it runs once per `GROUPING` partition.
//! The paper's perfect-match short-circuit is an optimization, not a
//! semantic change: a perfect match dominates every non-perfect tuple, so
//! when perfect matches exist they *are* the maximal set (provided no
//! tuple opts out of comparability through a NULL or otherwise unscorable
//! slot — the rule guards for that). `BUT ONLY` thresholds are applied by
//! the caller *before* the selection ("consider all other values within
//! the quality threshold, but discard worse values on the fly" — §2.2.5).
//! `GROUPING` partitions by [`Key`], the key contract of `prefsql-types`
//! that `GROUP BY` uses too.

use crate::algo::{select, SkylineAlgo};
use crate::compose::Preference;
use crate::score::ScoreMatrix;
use prefsql_types::{Key, Value};
use std::collections::BTreeMap;

/// Per-group BMO for the `GROUPING` clause: dominance is only tested
/// between tuples that agree on the grouping key ("performing with soft
/// constraints what GROUP BY does with hard constraints").
///
/// `keys[i]` is the evaluated grouping-attribute vector of candidate `i`.
/// Results come back sorted in input order.
///
/// The engine groups over a matrix it lowered ([`bmo_grouped_scored`]);
/// this entry point's only non-test caller is prefbench's staged replay,
/// and it goes with ROADMAP item 1(e).
pub fn bmo_grouped(
    slot_vectors: &[Vec<Value>],
    keys: &[Vec<Value>],
    pref: &Preference,
) -> Vec<usize> {
    assert_eq!(
        slot_vectors.len(),
        keys.len(),
        "one grouping key per candidate"
    );
    let m = ScoreMatrix::lower(pref, slot_vectors);
    bmo_grouped_scored(&m, pref, &m.ids(), |i| &keys[i], SkylineAlgo::Auto, 1)
}

/// [`bmo_grouped`] over rows the caller already lowered: `ids` are the
/// competing rows of `m`, `key_of(i)` the grouping key of row `i`. A
/// group is an index subset of the one matrix, selected from like any
/// other candidate set (`algo` and `threads` as in
/// [`crate::maximal_scored`]). Groups are [`Key`]s, the one key
/// contract: SQL `=` with NULLs grouped together (`Int(5)` and
/// `Float(5.0)` are one group, and so are `-0.0` and `0.0`), as in the
/// rewrite.
pub fn bmo_grouped_scored<'k>(
    m: &ScoreMatrix,
    pref: &Preference,
    ids: &[usize],
    key_of: impl Fn(usize) -> &'k [Value],
    algo: SkylineAlgo,
    threads: usize,
) -> Vec<usize> {
    let mut groups: BTreeMap<Key<'k>, Vec<usize>> = BTreeMap::new();
    for &i in ids {
        groups.entry(Key::borrowed(key_of(i))).or_default().push(i);
    }
    let mut tests = 0;
    let mut out: Vec<usize> = groups
        .values()
        .flat_map(|members| select(m, pref, members, algo, threads, &mut tests))
        .collect();
    pref.add_comparisons(tests);
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BasePref;
    use crate::compose::PrefNode;

    fn slots(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    /// BMO over `sv`: the engine's default selection, on one thread.
    fn bmo(sv: &[Vec<Value>], p: &Preference) -> Vec<usize> {
        crate::maximal_with_threads(sv, p, SkylineAlgo::Auto, 1)
    }

    fn pareto_lowest2() -> Preference {
        Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![BasePref::Lowest, BasePref::Lowest],
        )
        .unwrap()
    }

    #[test]
    fn bmo_returns_pareto_front() {
        let sv = slots(&[&[1, 5], &[2, 2], &[5, 1], &[3, 3], &[5, 5]]);
        let max = bmo(&sv, &pareto_lowest2());
        // (3,3) dominated by (2,2); (5,5) dominated by everything.
        assert_eq!(max, vec![0, 1, 2]);
    }

    #[test]
    fn perfect_match_shortcuts() {
        let p = Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Around { target: 14.0 },
                BasePref::Pos {
                    values: vec![Value::str("java")],
                },
            ],
        )
        .unwrap();
        let sv = vec![
            vec![Value::Int(14), Value::str("java")], // perfect
            vec![Value::Int(14), Value::str("cobol")],
            vec![Value::Int(13), Value::str("java")],
        ];
        assert_eq!(bmo(&sv, &p), vec![0]);
    }

    #[test]
    fn null_slots_survive_as_incomparable() {
        let p = Preference::single(BasePref::Around { target: 10.0 }).unwrap();
        let sv = vec![
            vec![Value::Int(10)], // perfect
            vec![Value::Null],    // incomparable — must survive
            vec![Value::Int(12)], // dominated
        ];
        assert_eq!(bmo(&sv, &p), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(bmo(&[], &pareto_lowest2()).is_empty());
    }

    #[test]
    fn single_candidate_is_maximal() {
        let sv = slots(&[&[100, 100]]);
        assert_eq!(bmo(&sv, &pareto_lowest2()), vec![0]);
    }

    #[test]
    fn grouped_bmo_isolates_groups() {
        // LOWEST(price) GROUPING make: cheapest per make.
        let p = Preference::single(BasePref::Lowest).unwrap();
        let sv = slots(&[&[30], &[20], &[50], &[40], &[20]]);
        let keys = vec![
            vec![Value::str("audi")],
            vec![Value::str("audi")],
            vec![Value::str("bmw")],
            vec![Value::str("bmw")],
            vec![Value::str("vw")],
        ];
        let max = bmo_grouped(&sv, &keys, &p);
        assert_eq!(max, vec![1, 3, 4]);
    }

    #[test]
    fn grouped_bmo_unifies_numeric_keys() {
        let p = Preference::single(BasePref::Lowest).unwrap();
        let sv = slots(&[&[3], &[1]]);
        let keys = vec![vec![Value::Int(5)], vec![Value::Float(5.0)]];
        // 5 and 5.0 are the same group: only the cheaper survives.
        assert_eq!(bmo_grouped(&sv, &keys, &p), vec![1]);
    }

    #[test]
    fn grouped_ties_keep_all_maxima() {
        let p = Preference::single(BasePref::Lowest).unwrap();
        let sv = slots(&[&[10], &[10]]);
        let keys = vec![vec![Value::str("a")], vec![Value::str("a")]];
        assert_eq!(bmo_grouped(&sv, &keys, &p), vec![0, 1]);
    }
}

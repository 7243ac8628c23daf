//! Incremental skyline maintenance — the delta algebra behind
//! `MATERIALIZED PREFERENCE VIEW`.
//!
//! A view (the engine's `MatViewDef`, held in its catalog) stores one
//! [`MatViewEntry`] per base-table row, mirroring row ids 1:1 and in
//! order, and one ascending list of winner positions. The functions here
//! work on those two vectors and the view's compiled preference alone,
//! and keep
//!
//! ```text
//! winners == the maximal set of the qualifying entries, ascending
//! ```
//!
//! across INSERT, DELETE and UPDATE without recomputing the skyline. They
//! rest on one fact: a preference is a strict partial order, so in a
//! finite set every qualifying entry that is not a winner is beaten by
//! some winner.
//!
//! * **New row** ([`apply_insert`], the new side of [`apply_replace`]): a
//!   qualifying row `r` that no winner beats joins the list and evicts
//!   the winners it beats — one dominance test per winner, deciding both
//!   directions. No other entry changes status: the winner that beat it
//!   either survives or was beaten by `r`, which then beats it too.
//!   Cost: O(|winners|).
//! * **Lost winners** `D` ([`apply_delete`], the old side of
//!   [`apply_replace`]): only an *orphan* — a row some `d ∈ D` beat and no
//!   surviving winner beats — can rise. Every other non-winner is still
//!   beaten by a surviving winner, and by transitivity none of them beats
//!   an orphan, so the new list is the surviving winners merged with the
//!   maximal set of the orphans ([`maximal_scored`]). Cost: one pass of
//!   `|D|` tests per non-winner, plus the winners for each row `D` beat.
//!   Losing only non-winners changes nothing; a DELETE then just
//!   renumbers the winners past the compacted ids.
//! * **Update** ([`apply_replace`]): the lost-winner step for the old
//!   entry, then the new-row step at the same position, so entry order
//!   keeps mirroring the base table's in-place `replace_row`.
//!
//! [`rebuild`] computes the list from scratch (CREATE/REFRESH and the
//! differential oracle of the maintenance proptests).

use crate::algo::{maximal_scored, SkylineAlgo};
use crate::compose::Preference;
use crate::score::{ScoreMatrix, Verdict};
use prefsql_types::Value;

/// Per-base-row state tracked by a materialized preference view.
///
/// Entries mirror the base table's row ids 1:1 and in order: INSERT
/// appends, DELETE compacts exactly as the table's `delete_rows` does,
/// UPDATE replaces in place. Serving depends on this mirroring — the
/// position of a winner's entry *is* the row id its row is fetched by. A
/// DML statement that breaks the mirroring marks the view stale.
#[derive(Debug, Clone, PartialEq)]
pub struct MatViewEntry {
    /// The evaluated base-preference expressions of this row.
    pub slots: Vec<Value>,
    /// True iff the row passed the view's WHERE clause. Non-qualifying
    /// rows are tracked (to keep ids aligned) but never compete.
    pub qualifies: bool,
}

/// The winner list from scratch: the maximal set of the qualifying
/// entries, ascending. Used by CREATE / REFRESH and as the test oracle.
pub fn rebuild(entries: &[MatViewEntry], pref: &Preference) -> Vec<usize> {
    let qualifying: Vec<usize> = (0..entries.len())
        .filter(|&i| entries[i].qualifies)
        .collect();
    maximal_of(entries, &qualifying, pref)
}

/// The maximal entries among the ascending positions `ids`, ascending.
fn maximal_of(entries: &[MatViewEntry], ids: &[usize], pref: &Preference) -> Vec<usize> {
    let m = ScoreMatrix::lower(pref, ids.iter().map(|&i| entries[i].slots.as_slice()));
    let maximal = maximal_scored(&m, &m.ids(), SkylineAlgo::Auto, 1);
    maximal.into_iter().map(|k| ids[k]).collect()
}

/// Append `entry` and integrate it into `winners`.
pub fn apply_insert(
    entries: &mut Vec<MatViewEntry>,
    winners: &mut Vec<usize>,
    entry: MatViewEntry,
    pref: &Preference,
) {
    entries.push(entry);
    admit(entries, winners, entries.len() - 1, pref);
}

/// Remove the entries at `doomed` (duplicates and out-of-range ids
/// tolerated), maintaining `winners` for the survivors, then compact the
/// vector exactly like the table's `delete_rows` compacts row ids:
/// surviving entries keep their relative order.
pub fn apply_delete(
    entries: &mut Vec<MatViewEntry>,
    winners: &mut Vec<usize>,
    doomed: &[usize],
    pref: &Preference,
) {
    let mut doomed: Vec<usize> = doomed
        .iter()
        .copied()
        .filter(|&i| i < entries.len())
        .collect();
    doomed.sort_unstable();
    doomed.dedup();
    if doomed.is_empty() {
        return;
    }
    retract(entries, winners, &doomed, pref);
    // One merge pass against the sorted ids, not a lookup per entry.
    let mut next = doomed.iter().peekable();
    let mut pos = 0;
    entries.retain(|_| {
        let gone = next.next_if_eq(&&pos).is_some();
        pos += 1;
        !gone
    });
    // Each winner moves down by the number of doomed ids below it.
    let mut below = 0;
    for w in winners.iter_mut() {
        while doomed.get(below).is_some_and(|&d| d < *w) {
            below += 1;
        }
        *w -= below;
    }
}

/// Replace the entry at `pos` with `entry` in place (an UPDATE of the
/// base row): retract the old entry, then admit the new one at the same
/// position so entry order keeps mirroring row ids.
pub fn apply_replace(
    entries: &mut [MatViewEntry],
    winners: &mut Vec<usize>,
    pos: usize,
    entry: MatViewEntry,
    pref: &Preference,
) {
    retract(entries, winners, &[pos], pref);
    entries[pos] = entry;
    admit(entries, winners, pos, pref);
}

/// New-row step: `entries[pos]` is not in `winners`. It joins them if it
/// qualifies and no winner beats it, evicting the winners it beats.
fn admit(entries: &[MatViewEntry], winners: &mut Vec<usize>, pos: usize, pref: &Preference) {
    let new = &entries[pos];
    if !new.qualifies {
        return;
    }
    let mut verdicts = Vec::with_capacity(winners.len());
    for &w in winners.iter() {
        let verdict = pref.verdict(&entries[w].slots, &new.slots);
        if verdict == Verdict::A_WINS {
            return;
        }
        verdicts.push(verdict);
    }
    let mut verdicts = verdicts.into_iter();
    winners.retain(|_| verdicts.next() != Some(Verdict::B_WINS));
    let at = winners.partition_point(|&w| w < pos);
    winners.insert(at, pos);
}

/// Lost-winner step: the entries at `doomed` (ascending, distinct) stop
/// competing. Drops them from `winners` and promotes the maximal orphans.
/// Does not remove the doomed entries — callers compact or replace them.
fn retract(
    entries: &[MatViewEntry],
    winners: &mut Vec<usize>,
    doomed: &[usize],
    pref: &Preference,
) {
    let is_doomed = |i: usize| doomed.binary_search(&i).is_ok();
    let mut lost = Vec::new();
    winners.retain(|&w| {
        let gone = is_doomed(w);
        if gone {
            lost.push(w);
        }
        !gone
    });
    if lost.is_empty() {
        return;
    }
    let beaten_by = |by: &[usize], e: usize| {
        (by.iter()).any(|&w| pref.better(&entries[w].slots, &entries[e].slots))
    };
    let orphans: Vec<usize> = (0..entries.len())
        .filter(|&e| {
            entries[e].qualifies
                && !is_doomed(e)
                && winners.binary_search(&e).is_err()
                && beaten_by(&lost, e)
                && !beaten_by(winners, e)
        })
        .collect();
    if orphans.is_empty() {
        return;
    }
    winners.extend(maximal_of(entries, &orphans, pref));
    winners.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BasePref;
    use crate::compose::arb::{arb_any_pref, arb_any_slots};
    use crate::compose::PrefNode;
    use proptest::prelude::*;

    /// LOWEST x AND LOWEST y — the classic 2-d skyline.
    fn pareto2() -> Preference {
        Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![BasePref::Lowest, BasePref::Lowest],
        )
        .unwrap()
    }

    fn entry(x: i64, y: i64) -> MatViewEntry {
        MatViewEntry {
            slots: vec![Value::Int(x), Value::Int(y)],
            qualifies: true,
        }
    }

    /// A view built from scratch over `rows`.
    fn view(rows: Vec<MatViewEntry>, p: &Preference) -> (Vec<MatViewEntry>, Vec<usize>) {
        let winners = rebuild(&rows, p);
        (rows, winners)
    }

    fn points(entries: &[MatViewEntry], winners: &[usize]) -> Vec<(i64, i64)> {
        (winners.iter())
            .map(|&w| &entries[w].slots)
            .map(|s| (s[0].as_int().unwrap(), s[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn insert_dominated_is_a_noop_on_the_skyline() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(1, 1)], &p);
        p.take_comparisons();
        apply_insert(&mut es, &mut ws, entry(5, 5), &p);
        assert_eq!(ws, vec![0]);
        // One test against the one winner; the loser is never revisited.
        assert_eq!(p.take_comparisons(), 1);
    }

    #[test]
    fn insert_evicts_dominated_winners() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(3, 5), entry(5, 3), entry(8, 8)], &p);
        assert_eq!(points(&es, &ws), vec![(3, 5), (5, 3)]);
        // (2,2) dominates everything; one test per winner decides it.
        p.take_comparisons();
        apply_insert(&mut es, &mut ws, entry(2, 2), &p);
        assert_eq!(p.take_comparisons(), 2);
        assert_eq!(ws, vec![3]);
        // An incomparable newcomer joins in entry order.
        apply_replace(&mut es, &mut ws, 2, entry(1, 9), &p);
        assert_eq!(ws, vec![2, 3]);
        assert_eq!(ws, rebuild(&es, &p));
    }

    #[test]
    fn delete_of_winner_promotes_maximal_candidates_only() {
        let p = pareto2();
        // (1,1) dominates both (2,3) and (3,4); (2,3) dominates (3,4).
        let (mut es, mut ws) = view(vec![entry(1, 1), entry(2, 3), entry(3, 4)], &p);
        assert_eq!(ws, vec![0]);
        apply_delete(&mut es, &mut ws, &[0], &p);
        // Both are orphans, but only (2,3) may be promoted.
        assert_eq!(es.len(), 2);
        assert_eq!(points(&es, &ws), vec![(2, 3)]);
        assert_eq!(ws, vec![0]);
    }

    #[test]
    fn delete_of_non_winner_is_free() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(1, 1), entry(4, 4), entry(0, 9)], &p);
        p.take_comparisons();
        apply_delete(&mut es, &mut ws, &[1], &p);
        assert_eq!(p.take_comparisons(), 0);
        // The winner past the compacted id is renumbered.
        assert_eq!(ws, vec![0, 1]);
        assert_eq!(points(&es, &ws), vec![(1, 1), (0, 9)]);
    }

    #[test]
    fn a_row_a_surviving_winner_beats_stays_a_loser() {
        let p = pareto2();
        // (4,4) is beaten by both winners; losing one of them leaves it
        // beaten by the other.
        let (mut es, mut ws) = view(vec![entry(1, 3), entry(3, 1), entry(4, 4)], &p);
        apply_delete(&mut es, &mut ws, &[0], &p);
        assert_eq!(points(&es, &ws), vec![(3, 1)]);
        // A multi-row delete that takes every winner promotes it.
        let (mut es, mut ws) = view(vec![entry(1, 3), entry(3, 1), entry(4, 4)], &p);
        apply_delete(&mut es, &mut ws, &[1, 0, 1], &p);
        assert_eq!(points(&es, &ws), vec![(4, 4)]);
    }

    #[test]
    fn replace_moves_a_row_across_the_skyline_boundary() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(2, 2), entry(5, 5)], &p);
        // Update the dominated row to dominate everything.
        apply_replace(&mut es, &mut ws, 1, entry(1, 1), &p);
        assert_eq!(points(&es, &ws), vec![(1, 1)]);
        // And push the ex-winner out again.
        apply_replace(&mut es, &mut ws, 1, entry(9, 9), &p);
        assert_eq!(points(&es, &ws), vec![(2, 2)]);
    }

    #[test]
    fn non_qualifying_entries_never_compete() {
        let p = pareto2();
        let mut hidden = entry(0, 0);
        hidden.qualifies = false;
        let (mut es, mut ws) = view(vec![hidden, entry(3, 3)], &p);
        assert_eq!(points(&es, &ws), vec![(3, 3)]);
        apply_insert(&mut es, &mut ws, entry(4, 4), &p);
        assert_eq!(points(&es, &ws), vec![(3, 3)]);
        apply_delete(&mut es, &mut ws, &[1], &p);
        assert_eq!(points(&es, &ws), vec![(4, 4)]);
    }

    /// One maintenance step of the randomized differential.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(MatViewEntry),
        /// Delete the picked positions (modulo the length, so some repeat)
        /// and, if set, every other current winner too.
        Delete(Vec<usize>, bool),
        Replace(usize, MatViewEntry),
    }

    fn arb_entry() -> impl Strategy<Value = MatViewEntry> {
        (arb_any_slots(), 0..4u8).prop_map(|(slots, q)| MatViewEntry {
            slots,
            qualifies: q != 0,
        })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_entry().prop_map(Op::Insert),
            arb_entry().prop_map(Op::Insert),
            (proptest::collection::vec(0..64usize, 1..4), 0..3u8)
                .prop_map(|(picks, w)| Op::Delete(picks, w == 0)),
            (0..64usize, arb_entry()).prop_map(|(k, e)| Op::Replace(k, e)),
        ]
    }

    proptest! {
        /// Randomized differential over every preference shape and value
        /// kind: a long interleaving of inserts, deletes (several winners
        /// at once among them) and replaces keeps the winner list equal to
        /// a full rebuild after every step.
        #[test]
        fn random_interleaving_matches_rebuild(
            p in arb_any_pref(),
            ops in proptest::collection::vec(arb_op(), 1..60)
        ) {
            let (mut es, mut ws) = (Vec::new(), Vec::new());
            for op in ops {
                match op.clone() {
                    Op::Insert(e) => apply_insert(&mut es, &mut ws, e, &p),
                    Op::Delete(picks, winners_too) => {
                        let len = es.len().max(1);
                        let mut doomed: Vec<usize> = picks.iter().map(|k| k % len).collect();
                        if winners_too {
                            doomed.extend(ws.iter().step_by(2));
                        }
                        apply_delete(&mut es, &mut ws, &doomed, &p);
                    }
                    Op::Replace(k, e) if !es.is_empty() => {
                        let pos = k % es.len();
                        apply_replace(&mut es, &mut ws, pos, e, &p);
                    }
                    Op::Replace(..) => {}
                }
                prop_assert_eq!(&ws, &rebuild(&es, &p), "after {:?} over {:?} with {:?}", op, es, p);
            }
        }
    }
}

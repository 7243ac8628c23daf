//! Incremental skyline maintenance — the delta algebra behind
//! `MATERIALIZED PREFERENCE VIEW`.
//!
//! A view's state is one [`ViewSkyline`]: a [`ScoreMatrix`] row and a
//! qualifies flag per base-table row, and the ascending winner list. Its
//! methods read only those cells — each row lowered once, on arrival —
//! and the view's compiled preference, and keep
//!
//! ```text
//! winners == the maximal set of the qualifying rows, ascending
//! ```
//!
//! across INSERT, DELETE and UPDATE without recomputing the skyline. They
//! rest on one fact: a preference is a strict partial order, so in a
//! finite set every qualifying row that is not a winner is beaten by
//! some winner.
//!
//! * **New row** ([`ViewSkyline::insert`], the new side of
//!   [`ViewSkyline::replace`]): a qualifying row `r` that no winner beats
//!   joins the list and evicts the winners it beats — one dominance test
//!   per winner, deciding both directions. No other row changes status:
//!   the winner that beat it either survives or was beaten by `r`, which
//!   then beats it too. Cost: O(|winners|).
//! * **Lost winners** `D` ([`ViewSkyline::delete`], the old side of
//!   [`ViewSkyline::replace`]): only an *orphan* — a row some `d ∈ D` beat
//!   and no surviving winner beats — can rise. Every other non-winner is
//!   still beaten by a surviving winner, and by transitivity none of them
//!   beats an orphan, so the new list is the surviving winners merged
//!   with the maximal set of the orphans ([`maximal_scored`] over their
//!   row ids). Cost: one pass of `|D|` tests per non-winner, plus the
//!   winners for each row `D` beat. Losing only non-winners changes
//!   nothing; a DELETE then just renumbers the winners past the
//!   compacted ids.
//! * **Update** ([`ViewSkyline::replace`]): the lost-winner step for the
//!   old row, then the new-row step at the same position, so row order
//!   keeps mirroring the base table's in-place `replace_row`.
//!
//! [`ViewSkyline::rebuild`] computes the list from scratch (CREATE). The
//! matrix's tag table lives as long as the view, so a value gets the same
//! tag on every DML statement; REFRESH rebuilds the table.

use crate::algo::{maximal_scored, SkylineAlgo};
use crate::compose::Preference;
use crate::score::{remove_rows, ScoreMatrix, Verdict};
use prefsql_types::Value;

/// The state of a materialized preference view (see the module docs).
/// Rows mirror the base table's row ids 1:1 and in order: INSERT
/// appends, DELETE compacts exactly as the table's `delete_rows` does,
/// UPDATE replaces in place. Serving depends on this mirroring — a
/// winner's position *is* the row id its row is fetched by. A DML
/// statement that breaks the mirroring marks the view stale.
#[derive(Debug)]
pub struct ViewSkyline {
    cells: ScoreMatrix,
    /// True iff the row passed the view's WHERE clause. Non-qualifying
    /// rows are tracked (to keep ids aligned) but never compete.
    qualifies: Vec<bool>,
    winners: Vec<usize>,
}

impl ViewSkyline {
    /// A view over base rows given as their slots back to back, each
    /// qualifying or not; the winners are computed from scratch.
    pub fn new(pref: &Preference, slots: &[Value], qualifies: Vec<bool>) -> Self {
        let mut cells = ScoreMatrix::new(pref);
        for row in slots.chunks_exact(pref.arity()) {
            cells.push(pref, row);
        }
        let winners = Vec::new();
        let mut view = ViewSkyline {
            cells,
            qualifies,
            winners,
        };
        view.rebuild(pref);
        view
    }

    /// The view contents: the base row ids of the maximal qualifying
    /// rows, ascending — the defining BMO query's order.
    pub fn winners(&self) -> &[usize] {
        &self.winners
    }

    /// Recompute the winners from scratch.
    pub fn rebuild(&mut self, pref: &Preference) {
        let qualifying: Vec<usize> = (0..self.qualifies.len())
            .filter(|&i| self.qualifies[i])
            .collect();
        self.winners = maximal_scored(&self.cells, pref, &qualifying, SkylineAlgo::Auto, 1);
    }

    /// Append a row and integrate it into the winners.
    pub fn insert(&mut self, pref: &Preference, slots: &[Value], qualifies: bool) {
        self.cells.push(pref, slots);
        self.qualifies.push(qualifies);
        self.admit(pref, self.qualifies.len() - 1);
    }

    /// Remove the rows at `doomed` (duplicates and out-of-range ids
    /// tolerated), maintaining the winners for the survivors, then compact
    /// exactly like the table's `delete_rows` compacts row ids: surviving
    /// rows keep their relative order.
    pub fn delete(&mut self, pref: &Preference, doomed: &[usize]) {
        let n = self.qualifies.len();
        let mut doomed: Vec<usize> = doomed.iter().copied().filter(|&i| i < n).collect();
        doomed.sort_unstable();
        doomed.dedup();
        if doomed.is_empty() {
            return;
        }
        self.retract(pref, &doomed);
        self.cells.remove_rows(&doomed);
        remove_rows(&mut self.qualifies, 1, &doomed);
        // Each winner moves down by the number of doomed ids below it.
        for w in &mut self.winners {
            *w -= doomed.partition_point(|&d| d < *w);
        }
    }

    /// Replace the row at `pos` in place (an UPDATE of the base row):
    /// retract the old row, then admit the new one at the same position
    /// so row order keeps mirroring row ids.
    pub fn replace(&mut self, pref: &Preference, pos: usize, slots: &[Value], qualifies: bool) {
        self.retract(pref, &[pos]);
        self.cells.replace(pref, pos, slots);
        self.qualifies[pos] = qualifies;
        self.admit(pref, pos);
    }

    /// New-row step: row `pos` is not a winner. It joins them if it
    /// qualifies and no winner beats it, evicting the winners it beats.
    fn admit(&mut self, pref: &Preference, pos: usize) {
        if !self.qualifies[pos] {
            return;
        }
        let mut verdicts = Vec::with_capacity(self.winners.len());
        for &w in &self.winners {
            let verdict = self.cells.compare(pref, w, pos);
            verdicts.push(verdict);
            if verdict == Verdict::A_WINS {
                break;
            }
        }
        pref.add_comparisons(verdicts.len() as u64);
        if verdicts.last() == Some(&Verdict::A_WINS) {
            return;
        }
        let mut verdicts = verdicts.into_iter();
        self.winners
            .retain(|_| verdicts.next() != Some(Verdict::B_WINS));
        let at = self.winners.partition_point(|&w| w < pos);
        self.winners.insert(at, pos);
    }

    /// Lost-winner step: the rows at `doomed` (ascending, distinct) stop
    /// competing. Drops them from the winners and promotes the maximal
    /// orphans. Does not remove the doomed rows — callers compact or
    /// replace them.
    fn retract(&mut self, pref: &Preference, doomed: &[usize]) {
        let is_doomed = |i: usize| doomed.binary_search(&i).is_ok();
        let mut lost = Vec::new();
        self.winners.retain(|&w| {
            let gone = is_doomed(w);
            if gone {
                lost.push(w);
            }
            !gone
        });
        if lost.is_empty() {
            return;
        }
        let mut tests = 0;
        let mut beaten_by = |by: &[usize], e: usize| {
            (by.iter()).any(|&w| {
                tests += 1;
                self.cells.compare(pref, w, e) == Verdict::A_WINS
            })
        };
        let orphans: Vec<usize> = (0..self.qualifies.len())
            .filter(|&e| {
                self.qualifies[e]
                    && !is_doomed(e)
                    && self.winners.binary_search(&e).is_err()
                    && beaten_by(&lost, e)
                    && !beaten_by(&self.winners, e)
            })
            .collect();
        pref.add_comparisons(tests);
        if orphans.is_empty() {
            return;
        }
        let risen = maximal_scored(&self.cells, pref, &orphans, SkylineAlgo::Auto, 1);
        self.winners.extend(risen);
        self.winners.sort_unstable();
    }
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

    /// A base row as the view sees it: its slots and whether it
    /// qualifies.
    type Row = (Vec<Value>, bool);

    fn entry(x: i64, y: i64) -> Row {
        (vec![Value::Int(x), Value::Int(y)], true)
    }

    /// A view built from scratch over `rows`, plus the rows themselves
    /// (the tests' mirror of the base table).
    fn view(rows: Vec<Row>, p: &Preference) -> (Vec<Row>, ViewSkyline) {
        let slots: Vec<Value> = rows.iter().flat_map(|r| r.0.clone()).collect();
        let v = ViewSkyline::new(p, &slots, rows.iter().map(|r| r.1).collect());
        (rows, v)
    }

    /// The winner list a fresh view over `rows` starts with.
    fn rebuild(rows: &[Row], p: &Preference) -> Vec<usize> {
        view(rows.to_vec(), p).1.winners
    }

    fn insert(rows: &mut Vec<Row>, v: &mut ViewSkyline, row: Row, p: &Preference) {
        v.insert(p, &row.0, row.1);
        rows.push(row);
    }

    fn delete(rows: &mut Vec<Row>, v: &mut ViewSkyline, doomed: &[usize], p: &Preference) {
        v.delete(p, doomed);
        let mut pos = 0;
        rows.retain(|_| {
            pos += 1;
            !doomed.contains(&(pos - 1))
        });
    }

    fn replace(rows: &mut [Row], v: &mut ViewSkyline, pos: usize, row: Row, p: &Preference) {
        v.replace(p, pos, &row.0, row.1);
        rows[pos] = row;
    }

    fn points(rows: &[Row], v: &ViewSkyline) -> Vec<(i64, i64)> {
        (v.winners().iter())
            .map(|&w| &rows[w].0)
            .map(|s| (s[0].as_int().unwrap(), s[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn insert_dominated_is_a_noop_on_the_skyline() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(1, 1)], &p);
        p.take_comparisons();
        insert(&mut es, &mut ws, entry(5, 5), &p);
        assert_eq!(ws.winners(), [0]);
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
        insert(&mut es, &mut ws, entry(2, 2), &p);
        assert_eq!(p.take_comparisons(), 2);
        assert_eq!(ws.winners(), [3]);
        // An incomparable newcomer joins in entry order.
        replace(&mut es, &mut ws, 2, entry(1, 9), &p);
        assert_eq!(ws.winners(), [2, 3]);
        assert_eq!(ws.winners(), rebuild(&es, &p));
    }

    #[test]
    fn delete_of_winner_promotes_maximal_candidates_only() {
        let p = pareto2();
        // (1,1) dominates both (2,3) and (3,4); (2,3) dominates (3,4).
        let (mut es, mut ws) = view(vec![entry(1, 1), entry(2, 3), entry(3, 4)], &p);
        assert_eq!(ws.winners(), [0]);
        delete(&mut es, &mut ws, &[0], &p);
        // Both are orphans, but only (2,3) may be promoted.
        assert_eq!(es.len(), 2);
        assert_eq!(points(&es, &ws), vec![(2, 3)]);
        assert_eq!(ws.winners(), [0]);
    }

    #[test]
    fn delete_of_non_winner_is_free() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(1, 1), entry(4, 4), entry(0, 9)], &p);
        p.take_comparisons();
        delete(&mut es, &mut ws, &[1], &p);
        assert_eq!(p.take_comparisons(), 0);
        // The winner past the compacted id is renumbered.
        assert_eq!(ws.winners(), [0, 1]);
        assert_eq!(points(&es, &ws), vec![(1, 1), (0, 9)]);
    }

    #[test]
    fn a_row_a_surviving_winner_beats_stays_a_loser() {
        let p = pareto2();
        // (4,4) is beaten by both winners; losing one of them leaves it
        // beaten by the other.
        let (mut es, mut ws) = view(vec![entry(1, 3), entry(3, 1), entry(4, 4)], &p);
        delete(&mut es, &mut ws, &[0], &p);
        assert_eq!(points(&es, &ws), vec![(3, 1)]);
        // A multi-row delete that takes every winner promotes it.
        let (mut es, mut ws) = view(vec![entry(1, 3), entry(3, 1), entry(4, 4)], &p);
        delete(&mut es, &mut ws, &[1, 0, 1], &p);
        assert_eq!(points(&es, &ws), vec![(4, 4)]);
    }

    #[test]
    fn replace_moves_a_row_across_the_skyline_boundary() {
        let p = pareto2();
        let (mut es, mut ws) = view(vec![entry(2, 2), entry(5, 5)], &p);
        // Update the dominated row to dominate everything.
        replace(&mut es, &mut ws, 1, entry(1, 1), &p);
        assert_eq!(points(&es, &ws), vec![(1, 1)]);
        // And push the ex-winner out again.
        replace(&mut es, &mut ws, 1, entry(9, 9), &p);
        assert_eq!(points(&es, &ws), vec![(2, 2)]);
    }

    #[test]
    fn non_qualifying_entries_never_compete() {
        let p = pareto2();
        let mut hidden = entry(0, 0);
        hidden.1 = false;
        let (mut es, mut ws) = view(vec![hidden, entry(3, 3)], &p);
        assert_eq!(points(&es, &ws), vec![(3, 3)]);
        insert(&mut es, &mut ws, entry(4, 4), &p);
        assert_eq!(points(&es, &ws), vec![(3, 3)]);
        delete(&mut es, &mut ws, &[1], &p);
        assert_eq!(points(&es, &ws), vec![(4, 4)]);
    }

    /// One maintenance step of the randomized differential.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Row),
        /// Delete the picked positions (modulo the length, so some repeat)
        /// and, if set, every other current winner too.
        Delete(Vec<usize>, bool),
        Replace(usize, Row),
    }

    fn arb_entry() -> impl Strategy<Value = Row> {
        (arb_any_slots(), 0..4u8).prop_map(|(slots, q)| (slots, q != 0))
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
            let (mut es, mut ws) = view(Vec::new(), &p);
            for op in ops {
                match op.clone() {
                    Op::Insert(e) => insert(&mut es, &mut ws, e, &p),
                    Op::Delete(picks, winners_too) => {
                        let len = es.len().max(1);
                        let mut doomed: Vec<usize> = picks.iter().map(|k| k % len).collect();
                        if winners_too {
                            doomed.extend(ws.winners().iter().step_by(2));
                        }
                        delete(&mut es, &mut ws, &doomed, &p);
                    }
                    Op::Replace(k, e) if !es.is_empty() => {
                        let pos = k % es.len();
                        replace(&mut es, &mut ws, pos, e, &p);
                    }
                    Op::Replace(..) => {}
                }
                prop_assert_eq!(ws.winners(), &rebuild(&es, &p)[..], "after {:?} over {:?} with {:?}", op, es, p);
            }
        }
    }
}

//! Incremental skyline maintenance — the delta algebra behind
//! `MATERIALIZED PREFERENCE VIEW`.
//!
//! The view stores one [`MatViewEntry`] per base-table row, mirroring row
//! ids 1:1 and in order. The functions here maintain the invariant
//!
//! ```text
//! e.dominators == |{ w : w.winner && better(w.slots, e.slots) }|
//! e.winner     ⇔  e.qualifies && e.dominators == 0
//! ```
//!
//! for every qualifying entry `e` across INSERT, DELETE and UPDATE,
//! without recomputing the skyline:
//!
//! * **Insert** ([`apply_insert`]): count the winners dominating the new
//!   tuple `t`. If any exist, `t` just records that count. Otherwise `t`
//!   becomes a winner, evicts the winners it dominates (their count
//!   becomes exactly 1 — only `t` beats them, or they would not have been
//!   winners), and every other qualifying non-winner `e` adjusts by
//!   `[better(t,e)] − |{evicted w : better(w,e)}|`. Transitivity of the
//!   strict partial order (`better(t,w) ∧ better(w,e) ⇒ better(t,e)`)
//!   guarantees the adjustment never drives a count to zero incorrectly.
//!   Cost: O(n·(1 + evicted)) comparisons per insert.
//! * **Delete** ([`apply_delete`]): removing non-winners is free (they
//!   dominate nothing that counts). For each deleted *winner*, surviving
//!   qualifying entries decrement by the number of deleted winners that
//!   dominated them. Entries whose count reaches zero are *candidates*
//!   for promotion — but they may dominate each other, so the promoted
//!   set is the maximal set over the candidates ([`maximal_scored`]); every
//!   non-promoted candidate (and every other non-winner) then counts the
//!   newly promoted winners that dominate it.
//! * **Update** ([`apply_replace`]): a delete followed by an insert at
//!   the same entry position, so entry order keeps mirroring
//!   [`Table::replace_row`](prefsql_storage::Table::replace_row)'s
//!   in-place semantics.
//!
//! [`rebuild`] recomputes the whole state from scratch (CREATE/REFRESH
//! and the differential oracle of the maintenance proptests).

use crate::algo::{maximal_scored, SkylineAlgo};
use crate::compose::Preference;
use crate::score::{ScoreMatrix, Verdict};
use prefsql_storage::MatViewEntry;

/// Recompute winner flags and domination counts from scratch: the maximal
/// set over qualifying entries, then one count pass. O(n·|winners|) after
/// the skyline itself. Used by CREATE / REFRESH and as the test oracle.
pub fn rebuild(entries: &mut [MatViewEntry], pref: &Preference) {
    let qualifying: Vec<usize> = (0..entries.len())
        .filter(|&i| entries[i].qualifies)
        .collect();
    let m = ScoreMatrix::lower(
        pref,
        qualifying.iter().map(|&i| entries[i].slots.as_slice()),
    );
    let ids = m.ids();
    let winners = maximal_scored(&m, &ids, SkylineAlgo::Auto, 1);
    for e in entries.iter_mut() {
        e.winner = false;
        e.dominators = 0;
    }
    let mut tests = 0;
    for &q in &ids {
        let others = winners.iter().filter(|&&w| w != q);
        let count = others
            .filter(|&&w| {
                tests += 1;
                m.compare(w, q) == Verdict::A_WINS
            })
            .count() as u32;
        entries[qualifying[q]].dominators = count;
    }
    pref.add_comparisons(tests);
    for w in winners {
        entries[qualifying[w]].winner = true;
    }
}

/// Append `entry` and integrate it into the maintained state.
pub fn apply_insert(entries: &mut Vec<MatViewEntry>, entry: MatViewEntry, pref: &Preference) {
    entries.push(entry);
    let last = entries.len() - 1;
    integrate(entries, last, pref);
}

/// Remove the entries at `doomed` (duplicates tolerated), maintaining the
/// invariant for the survivors, then compact the vector exactly like
/// [`Table::delete_rows`](prefsql_storage::Table::delete_rows) compacts
/// row ids: surviving entries keep their relative order.
pub fn apply_delete(entries: &mut Vec<MatViewEntry>, doomed: &[usize], pref: &Preference) {
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
    retract(entries, &doomed, pref);
    // One merge pass against the sorted ids, not a lookup per entry.
    let mut next = doomed.iter().peekable();
    let mut pos = 0;
    entries.retain(|_| {
        let gone = next.next_if_eq(&&pos).is_some();
        pos += 1;
        !gone
    });
}

/// Replace the entry at `pos` with `entry` in place (an UPDATE of the
/// base row): retract the old entry, then integrate the new one at the
/// same position so entry order keeps mirroring row ids.
pub fn apply_replace(
    entries: &mut [MatViewEntry],
    pos: usize,
    entry: MatViewEntry,
    pref: &Preference,
) {
    retract(entries, &[pos], pref);
    entries[pos] = entry;
    integrate(entries, pos, pref);
}

/// Insert phase: `entries[pos]` is a fresh entry (winner/dominators not
/// yet meaningful); fold it into the maintained state.
fn integrate(entries: &mut [MatViewEntry], pos: usize, pref: &Preference) {
    entries[pos].winner = false;
    entries[pos].dominators = 0;
    if !entries[pos].qualifies {
        return;
    }
    // Count the winners dominating the newcomer.
    let dominated_by = (0..entries.len())
        .filter(|&w| {
            w != pos && entries[w].winner && pref.better(&entries[w].slots, &entries[pos].slots)
        })
        .count() as u32;
    if dominated_by > 0 {
        entries[pos].dominators = dominated_by;
        return;
    }
    // The newcomer enters the skyline: evict the winners it dominates.
    entries[pos].winner = true;
    let evicted: Vec<usize> = (0..entries.len())
        .filter(|&w| {
            w != pos && entries[w].winner && pref.better(&entries[pos].slots, &entries[w].slots)
        })
        .collect();
    for &w in &evicted {
        // Winners had count 0; the only winner beating them now is `pos`
        // (any other winner beating them would have beaten them before).
        entries[w].winner = false;
        entries[w].dominators = 1;
    }
    // Every other qualifying non-winner adjusts: +1 if the newcomer beats
    // it, −1 per evicted ex-winner that beat it. Transitivity keeps the
    // result non-negative and never incorrectly zero.
    for e in 0..entries.len() {
        if e == pos || !entries[e].qualifies || entries[e].winner || evicted.contains(&e) {
            continue;
        }
        let gained = u32::from(pref.better(&entries[pos].slots, &entries[e].slots));
        let lost = evicted
            .iter()
            .filter(|&&w| pref.better(&entries[w].slots, &entries[e].slots))
            .count() as u32;
        entries[e].dominators = entries[e].dominators + gained - lost;
    }
}

/// Delete phase: neutralize the `doomed` entries (ascending, distinct;
/// they stop competing) and repair the survivors' counts, promoting
/// where counts reach zero. Does not remove the doomed entries — callers
/// compact or replace.
fn retract(entries: &mut [MatViewEntry], doomed: &[usize], pref: &Preference) {
    let is_doomed = |e: &usize| doomed.binary_search(e).is_ok();
    // Only doomed *winners* affect anyone else's bookkeeping.
    let dead_winners: Vec<usize> = doomed
        .iter()
        .copied()
        .filter(|&i| entries[i].winner)
        .collect();
    for &d in doomed {
        entries[d].qualifies = false;
        entries[d].winner = false;
        entries[d].dominators = 0;
    }
    if dead_winners.is_empty() {
        return;
    }
    // Survivors stop counting the dead winners.
    for e in 0..entries.len() {
        if is_doomed(&e) || !entries[e].qualifies || entries[e].winner {
            continue;
        }
        let lost = dead_winners
            .iter()
            .filter(|&&w| pref.better(&entries[w].slots, &entries[e].slots))
            .count() as u32;
        entries[e].dominators -= lost;
    }
    // Count-zero survivors are promotion candidates — but they may
    // dominate each other, so promote only the maximal set among them.
    let zero: Vec<usize> = (0..entries.len())
        .filter(|&e| {
            !is_doomed(&e)
                && entries[e].qualifies
                && !entries[e].winner
                && entries[e].dominators == 0
        })
        .collect();
    if zero.is_empty() {
        return;
    }
    let m = ScoreMatrix::lower(pref, zero.iter().map(|&e| entries[e].slots.as_slice()));
    let promoted: Vec<usize> = maximal_scored(&m, &m.ids(), SkylineAlgo::Auto, 1)
        .into_iter()
        .map(|zi| zero[zi])
        .collect();
    for &p in &promoted {
        entries[p].winner = true;
    }
    // Remaining non-winners now count the newly promoted winners.
    for e in 0..entries.len() {
        if is_doomed(&e) || !entries[e].qualifies || entries[e].winner {
            continue;
        }
        let gained = promoted
            .iter()
            .filter(|&&p| pref.better(&entries[p].slots, &entries[e].slots))
            .count() as u32;
        entries[e].dominators += gained;
    }
}

/// Debug/test helper: assert the maintained invariant holds for every
/// entry. Returns a description of the first violation, if any.
pub fn check_invariant(entries: &[MatViewEntry], pref: &Preference) -> Option<String> {
    for (i, e) in entries.iter().enumerate() {
        if !e.qualifies {
            if e.winner || e.dominators != 0 {
                return Some(format!("entry {i}: non-qualifying but winner/counted"));
            }
            continue;
        }
        let expect = entries
            .iter()
            .enumerate()
            .filter(|&(w, we)| w != i && we.winner && pref.better(&we.slots, &e.slots))
            .count() as u32;
        if e.dominators != expect {
            return Some(format!(
                "entry {i}: dominators {} but {} winners dominate it",
                e.dominators, expect
            ));
        }
        if e.winner != (e.dominators == 0) {
            return Some(format!(
                "entry {i}: winner={} with dominators={}",
                e.winner, e.dominators
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BasePref;
    use crate::compose::PrefNode;
    use prefsql_types::Value;

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
            winner: false,
            dominators: 0,
        }
    }

    fn winners(entries: &[MatViewEntry]) -> Vec<(i64, i64)> {
        entries
            .iter()
            .filter(|e| e.winner)
            .map(|e| (e.slots[0].as_int().unwrap(), e.slots[1].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn insert_dominated_is_a_noop_on_the_skyline() {
        let p = pareto2();
        let mut es = vec![entry(1, 1)];
        rebuild(&mut es, &p);
        apply_insert(&mut es, entry(5, 5), &p);
        assert_eq!(winners(&es), vec![(1, 1)]);
        assert_eq!(es[1].dominators, 1);
        assert_eq!(check_invariant(&es, &p), None);
    }

    #[test]
    fn insert_evicts_dominated_winners() {
        let p = pareto2();
        let mut es = vec![entry(3, 5), entry(5, 3), entry(8, 8)];
        rebuild(&mut es, &p);
        assert_eq!(winners(&es), vec![(3, 5), (5, 3)]);
        assert_eq!(es[2].dominators, 2);
        // (2,2) dominates everything.
        apply_insert(&mut es, entry(2, 2), &p);
        assert_eq!(winners(&es), vec![(2, 2)]);
        assert_eq!(es[0].dominators, 1);
        assert_eq!(es[1].dominators, 1);
        assert_eq!(es[2].dominators, 1); // lost both ex-winners, gained (2,2)
        assert_eq!(check_invariant(&es, &p), None);
    }

    #[test]
    fn delete_of_winner_promotes_maximal_candidates_only() {
        let p = pareto2();
        // (1,1) dominates both (2,3) and (3,4); (2,3) dominates (3,4).
        let mut es = vec![entry(1, 1), entry(2, 3), entry(3, 4)];
        rebuild(&mut es, &p);
        assert_eq!(winners(&es), vec![(1, 1)]);
        apply_delete(&mut es, &[0], &p);
        // Both counts hit zero, but only (2,3) may be promoted.
        assert_eq!(winners(&es), vec![(2, 3)]);
        assert_eq!(es.len(), 2);
        assert_eq!(es[1].dominators, 1);
        assert_eq!(check_invariant(&es, &p), None);
    }

    #[test]
    fn delete_of_non_winner_is_free() {
        let p = pareto2();
        let mut es = vec![entry(1, 1), entry(4, 4), entry(0, 9)];
        rebuild(&mut es, &p);
        apply_delete(&mut es, &[1], &p);
        assert_eq!(winners(&es), vec![(1, 1), (0, 9)]);
        assert_eq!(check_invariant(&es, &p), None);
    }

    #[test]
    fn replace_moves_a_row_across_the_skyline_boundary() {
        let p = pareto2();
        let mut es = vec![entry(2, 2), entry(5, 5)];
        rebuild(&mut es, &p);
        // Update the dominated row to dominate everything.
        apply_replace(&mut es, 1, entry(1, 1), &p);
        assert_eq!(winners(&es), vec![(1, 1)]);
        assert_eq!(es[0].dominators, 1);
        // And push the ex-winner out again.
        apply_replace(&mut es, 1, entry(9, 9), &p);
        assert_eq!(winners(&es), vec![(2, 2)]);
        assert_eq!(check_invariant(&es, &p), None);
    }

    #[test]
    fn non_qualifying_entries_never_compete() {
        let p = pareto2();
        let mut hidden = entry(0, 0);
        hidden.qualifies = false;
        let mut es = vec![hidden, entry(3, 3)];
        rebuild(&mut es, &p);
        assert_eq!(winners(&es), vec![(3, 3)]);
        apply_insert(&mut es, entry(4, 4), &p);
        assert_eq!(winners(&es), vec![(3, 3)]);
        assert_eq!(check_invariant(&es, &p), None);
    }

    /// Randomized differential: a long interleaving of inserts, deletes
    /// and replaces stays identical (winners, counts, order) to a full
    /// rebuild after every step.
    #[test]
    fn random_interleaving_matches_rebuild() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = pareto2();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut es: Vec<MatViewEntry> = Vec::new();
            for _ in 0..120 {
                let roll: u32 = rng.gen_range(0..10);
                if roll < 5 || es.is_empty() {
                    let mut e = entry(rng.gen_range(0..12), rng.gen_range(0..12));
                    e.qualifies = rng.gen_range(0..8) != 0;
                    apply_insert(&mut es, e, &p);
                } else if roll < 8 {
                    let n = rng.gen_range(1..=2.min(es.len()));
                    let doomed: Vec<usize> = (0..n).map(|_| rng.gen_range(0..es.len())).collect();
                    apply_delete(&mut es, &doomed, &p);
                } else {
                    let pos = rng.gen_range(0..es.len());
                    let mut e = entry(rng.gen_range(0..12), rng.gen_range(0..12));
                    e.qualifies = rng.gen_range(0..8) != 0;
                    apply_replace(&mut es, pos, e, &p);
                }
                if let Some(err) = check_invariant(&es, &p) {
                    panic!("seed {seed}: {err}");
                }
                let mut oracle = es.clone();
                rebuild(&mut oracle, &p);
                let got: Vec<_> = es.iter().map(|e| (e.winner, e.dominators)).collect();
                let want: Vec<_> = oracle.iter().map(|e| (e.winner, e.dominators)).collect();
                assert_eq!(got, want, "seed {seed}: incremental state diverged");
            }
        }
    }
}

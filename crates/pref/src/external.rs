//! External-memory skyline: multi-pass block-nested-loops with a
//! bounded window and spill-to-disk overflow runs — \[BKS01\]'s original
//! formulation, where the candidate set need not fit in memory.
//!
//! # The multi-pass loop
//!
//! ```text
//!            input stream (pass 0)          run k (pass k+1)
//!                  │                              │
//!                  ▼                              ▼
//!          ┌──────────────────── window (≤ budget bytes) ───┐
//!          │ dominated candidate → dropped                  │
//!          │ candidate dominates entry → entry evicted      │
//!          │ incomparable, window full → spilled to run k+1 │
//!          └──────────────┬───────────────────────┬─────────┘
//!                 winners │                       │ overflow
//!                         ▼                       ▼
//!                   result set           re-fed next pass …
//!                                        until the run is empty
//! ```
//!
//! # Why tuples exit early (the timestamp bookkeeping)
//!
//! Every window entry records how many tuples had already been spilled
//! to the pass's overflow run when it entered (`seen_spills`). A tuple
//! spilled *after* an entry arrived was compared against it at spill
//! time — so an entry only still owes comparisons to the first
//! `seen_spills` tuples of the run. Re-feeding a run in write order
//! therefore lets a carried entry be confirmed **maximal and output
//! mid-pass** as soon as the read position reaches its `seen_spills`,
//! freeing window space; entries that entered before the pass's first
//! spill are maximal at end of pass. Dominance checks run in both
//! directions on every comparison, so no domination is ever missed —
//! only repeated comparisons are skipped.
//!
//! The window always admits at least one tuple even when a single tuple
//! exceeds the budget, which guarantees every pass retires at least one
//! candidate and the loop terminates.
//!
//! Results are identical — same set, same input order — to every
//! in-memory algorithm in [`crate::algo`]; the repo's differential
//! harness pins that across random composition trees and window budgets.
//!
//! # Cells in, cells out
//!
//! A candidate arrives with the cells its caller lowered and leaves with
//! them if it wins. A spilled frame is the row, its cells as
//! [`Value::Float`]s ([`with_cells`]; the codec writes `f64::to_bits`, so
//! tags survive), then the sequence number; a shorter frame is an
//! [`Error::Io`]. An entry is charged `tuple_spill_bytes(row) + CELL_BYTES
//! × arity`, what its frame costs.

use crate::algo::probe;
use crate::compose::Preference;
use prefsql_storage::spill::{tuple_spill_bytes, RunReader, RunWriter, SpillManager};
use prefsql_types::{Error, Result, Tuple, Value};

// The metrics type moved next to the spill substrate it describes (the
// Grace hash join in the engine reports it too); re-exported here so
// `prefsql_pref::SpillMetrics` keeps working.
pub use prefsql_storage::spill::SpillMetrics;

/// Bytes a cell costs in a spilled frame: one tagged [`Value::Float`].
pub const CELL_BYTES: usize = 9;

/// A spilled candidate's frame: `row`, then `cells` as [`Value::Float`]s.
pub fn with_cells(row: Tuple, cells: &[f64]) -> Tuple {
    let mut values = row.into_values();
    values.extend(cells.iter().map(|&c| Value::Float(c)));
    Tuple::new(values)
}

/// Split the trailing `arity` cells off a frame [`with_cells`] wrote.
pub fn split_cells(frame: Tuple, arity: usize) -> Result<(Tuple, Vec<f64>)> {
    let mut values = frame.into_values();
    let first = values.len().checked_sub(arity);
    let cells = first.and_then(|first| values.drain(first..).map(|v| v.as_f64()).collect());
    let lacks = || Error::Io(format!("corrupt spill run: {arity} cells missing"));
    Ok((Tuple::new(values), cells.ok_or_else(lacks)?))
}

/// One window slot of the external BNL.
struct WinEntry {
    /// Input sequence number (winners are returned in this order).
    seq: u64,
    /// Tuples already spilled in the entry's pass when it entered — the
    /// prefix of the overflow run it has not been compared against.
    seen_spills: u64,
    /// True once the entry survived into a later pass.
    carried: bool,
    /// Byte weight charged against the window budget.
    bytes: usize,
    row: Tuple,
    /// The row's lowered slots, as its caller pushed them.
    cells: Vec<f64>,
}

/// A maximal candidate: its input sequence number, row and cells.
pub type Winner = (u64, Tuple, Vec<f64>);

/// Spilled tuples buffered into frames of this many before hitting the
/// run writer — one frame header and one write call per batch instead
/// of per tuple.
const SPILL_BATCH: usize = 256;

/// The bounded-window, spill-backed skyline state machine.
///
/// Feed candidates with [`ExternalSkyline::push`] (pass 0), then call
/// [`ExternalSkyline::finish`] to drive the overflow passes.
pub struct ExternalSkyline<'a> {
    pref: &'a Preference,
    budget: usize,
    spill: SpillManager,
    window: Vec<WinEntry>,
    window_bytes: usize,
    run: Option<RunWriter>,
    /// Tuples awaiting their batched write to the current run.
    spill_buf: Vec<Tuple>,
    spilled_this_pass: u64,
    winners: Vec<Winner>,
    next_seq: u64,
    passes: u32,
    /// Directed dominance tests so far; charged to `pref` on drop.
    tests: u64,
}

impl Drop for ExternalSkyline<'_> {
    fn drop(&mut self) {
        self.pref.add_comparisons(self.tests);
    }
}

impl<'a> ExternalSkyline<'a> {
    /// A machine with a window of `window_bytes`, spilling through `spill`
    /// (the native operator's `BUT ONLY` spool shares it).
    pub fn with_manager(pref: &'a Preference, window_bytes: usize, spill: SpillManager) -> Self {
        ExternalSkyline {
            pref,
            budget: window_bytes,
            spill,
            window: Vec::new(),
            window_bytes: 0,
            run: None,
            spill_buf: Vec::new(),
            spilled_this_pass: 0,
            winners: Vec::new(),
            next_seq: 0,
            passes: 0,
            tests: 0,
        }
    }

    /// Probe `row` against the window ([`crate::algo`]'s one probe step:
    /// dropped if dominated, evicting the entries it dominates), then
    /// keep it in the window (budget permitting) or spill it to the
    /// current pass's overflow run.
    fn process(&mut self, row: Tuple, cells: &[f64], seq: u64) -> Result<()> {
        let program = self.pref.program();
        let window_bytes = &mut self.window_bytes;
        let survives = probe(
            &mut self.window,
            |entry| program.compare(&entry.cells, cells),
            |evicted| *window_bytes -= evicted.bytes,
            &mut self.tests,
        );
        if !survives {
            return Ok(()); // dominated: the candidate dies here
        }
        let bytes = tuple_spill_bytes(&row) + CELL_BYTES * cells.len();
        if self.window.is_empty() || self.window_bytes + bytes <= self.budget {
            self.window.push(WinEntry {
                seq,
                seen_spills: self.spilled_this_pass,
                carried: false,
                bytes,
                cells: cells.to_vec(),
                row,
            });
            self.window_bytes += bytes;
        } else {
            // The sequence number rides along as the last column so a
            // later pass can restore input order.
            let mut values = with_cells(row, cells).into_values();
            values.push(Value::Int(seq as i64));
            self.spill_buf.push(Tuple::new(values));
            self.spilled_this_pass += 1;
            if self.spill_buf.len() >= SPILL_BATCH {
                self.flush_spills()?;
            }
        }
        Ok(())
    }

    /// Write the buffered spills to the current run (opening it on the
    /// pass's first flush) as one frame.
    fn flush_spills(&mut self) -> Result<()> {
        if self.spill_buf.is_empty() {
            return Ok(());
        }
        let writer = match self.run.as_mut() {
            Some(w) => w,
            None => self.run.insert(self.spill.begin_run()?),
        };
        writer.write_batch(&self.spill_buf)?;
        self.spill_buf.clear();
        Ok(())
    }

    /// Feed one candidate (pass 0): its row and its lowered slots.
    pub fn push(&mut self, row: Tuple, cells: &[f64]) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.process(row, cells, seq)
    }

    /// Move the carried entries whose owed run prefix ends at `pos` out
    /// of the window — they have now been compared against everything
    /// still alive, so they are maximal.
    fn release_carried(&mut self, pos: u64) {
        let mut k = 0;
        while k < self.window.len() {
            if self.window[k].carried && self.window[k].seen_spills <= pos {
                let e = self.window.swap_remove(k);
                self.window_bytes -= e.bytes;
                self.winners.push((e.seq, e.row, e.cells));
            } else {
                k += 1;
            }
        }
    }

    /// End of a pass: entries that entered before the pass's first spill
    /// (and all remaining carried ones) are maximal; the rest survive
    /// into the next pass as carried entries.
    fn harvest_pass(&mut self) {
        let mut kept = Vec::new();
        let mut kept_bytes = 0;
        for mut e in self.window.drain(..) {
            if e.carried || e.seen_spills == 0 {
                self.winners.push((e.seq, e.row, e.cells));
            } else {
                e.carried = true;
                kept_bytes += e.bytes;
                kept.push(e);
            }
        }
        self.window = kept;
        self.window_bytes = kept_bytes;
    }

    /// Drive the overflow passes until no run remains, then return the
    /// maximal candidates — `(input sequence, row, cells)` sorted by
    /// sequence, i.e. in input order like every in-memory algorithm —
    /// plus the spill metrics.
    pub fn finish(mut self) -> Result<(Vec<Winner>, SpillMetrics)> {
        self.passes = 1;
        let arity = self.pref.arity();
        loop {
            self.flush_spills()?;
            let run = match self.run.take() {
                Some(writer) => {
                    let run = writer.finish()?;
                    self.spill.record_run(&run);
                    Some(run)
                }
                None => None,
            };
            self.harvest_pass();
            let Some(run) = run else {
                // Nothing spilled this pass: every survivor was compared
                // against the whole remaining stream — all harvested.
                debug_assert!(self.window.is_empty());
                break;
            };
            self.passes += 1;
            self.spilled_this_pass = 0;
            let mut reader = RunReader::open(&run)?;
            let mut pos: u64 = 0;
            while let Some(stamped) = reader.next_tuple()? {
                self.release_carried(pos);
                let mut values = stamped.into_values();
                let seq = match values.pop() {
                    Some(Value::Int(s)) => s as u64,
                    other => {
                        return Err(Error::Io(format!(
                            "corrupt spill run: missing sequence column, got {other:?}"
                        )))
                    }
                };
                let (row, cells) = split_cells(Tuple::new(values), arity)?;
                self.process(row, &cells, seq)?;
                pos += 1;
            }
            drop(reader);
            run.delete()?;
        }
        self.winners.sort_unstable_by_key(|(seq, ..)| *seq);
        let metrics = SpillMetrics {
            runs_written: self.spill.runs_written(),
            bytes_spilled: self.spill.bytes_spilled(),
            passes: self.passes,
            spill_dir: (self.spill.runs_written() > 0).then(|| self.spill.dir().to_path_buf()),
        };
        Ok((std::mem::take(&mut self.winners), metrics))
        // `self.spill` drops here, removing the run directory.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{maximal_with_threads, SkylineAlgo};
    use crate::base::BasePref;
    use crate::compose::arb::{arb_any_pref, arb_any_slots};
    use crate::compose::PrefNode;
    use crate::score::ScoreMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pareto(d: usize) -> Preference {
        let root = if d == 1 {
            PrefNode::Base { slot: 0 }
        } else {
            PrefNode::Pareto((0..d).map(|slot| PrefNode::Base { slot }).collect())
        };
        Preference::new(root, vec![BasePref::Lowest; d]).unwrap()
    }

    fn maximal_naive(pts: &[Vec<Value>], p: &Preference) -> Vec<usize> {
        maximal_with_threads(pts, p, SkylineAlgo::Naive, 1)
    }

    /// The external window at `window_bytes` over `pts`, lowered and
    /// pushed with empty rows: winner indices in input order, and the
    /// spill metrics.
    fn maximal_external(
        pts: &[Vec<Value>],
        p: &Preference,
        window_bytes: usize,
    ) -> Result<(Vec<usize>, SpillMetrics)> {
        let m = ScoreMatrix::lower(p, pts);
        let mut machine = ExternalSkyline::with_manager(p, window_bytes, SpillManager::new()?);
        for i in 0..m.len() {
            machine.push(Tuple::new(Vec::new()), m.row(i))?;
        }
        let (winners, metrics) = machine.finish()?;
        let ids = winners.into_iter().map(|(seq, ..)| seq as usize);
        Ok((ids.collect(), metrics))
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| Value::Int(rng.gen_range(0..50))).collect())
            .collect()
    }

    #[test]
    fn agrees_with_naive_across_window_budgets() {
        for seed in 0..6 {
            for d in [1, 2, 3] {
                let pts = random_points(150, d, seed * 13 + d as u64);
                let p = pareto(d);
                let expected = maximal_naive(&pts, &p);
                // Budgets from "everything fits" down to "one tuple".
                for budget in [1 << 20, 4096, 256, 64, 0] {
                    let (got, _) = maximal_external(&pts, &p, budget).unwrap();
                    assert_eq!(got, expected, "budget={budget} d={d} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn anti_correlated_data_forces_many_passes() {
        // x + y = const: nothing dominates anything, so the whole input
        // is the skyline and a small window must spill and re-feed.
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::Int(i), Value::Int(300 - i)])
            .collect();
        let (got, metrics) = maximal_external(&pts, &p, 256).unwrap();
        assert_eq!(got, (0..300).collect::<Vec<_>>());
        assert!(metrics.runs_written >= 2, "{metrics:?}");
        assert!(metrics.passes >= 3, "{metrics:?}");
        assert!(metrics.bytes_spilled > 0, "{metrics:?}");
        let dir = metrics.spill_dir.expect("spilling records its directory");
        assert!(!dir.exists(), "finish() must remove the spill directory");
    }

    #[test]
    fn fitting_input_never_spills() {
        let p = pareto(2);
        let pts = random_points(100, 2, 9);
        let (got, metrics) = maximal_external(&pts, &p, 1 << 20).unwrap();
        assert_eq!(got, maximal_naive(&pts, &p));
        assert_eq!(metrics.runs_written, 0);
        assert_eq!(metrics.bytes_spilled, 0);
        assert_eq!(metrics.passes, 1);
        assert_eq!(metrics.spill_dir, None);
    }

    #[test]
    fn duplicates_survive_spilling_together() {
        let p = pareto(2);
        // All-identical points are pairwise incomparable: every copy is
        // maximal, and a tiny window spills most of them repeatedly.
        let pts = vec![vec![Value::Int(3), Value::Int(3)]; 40];
        let (got, metrics) = maximal_external(&pts, &p, 0).unwrap();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
        assert!(metrics.passes >= 2, "{metrics:?}");
    }

    #[test]
    fn correlated_data_single_winner_any_budget() {
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..200)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        for budget in [0, 64, 1 << 20] {
            let (got, _) = maximal_external(&pts, &p, budget).unwrap();
            assert_eq!(got, vec![0], "budget={budget}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let p = pareto(2);
        let (got, metrics) = maximal_external(&[], &p, 0).unwrap();
        assert!(got.is_empty());
        assert_eq!(metrics.passes, 1);
        let one = vec![vec![Value::Int(1), Value::Int(2)]];
        let (got, _) = maximal_external(&one, &p, 0).unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn prioritized_preference_with_nulls_agrees() {
        let p = Preference::new(
            PrefNode::Prioritized(vec![
                PrefNode::Base { slot: 0 },
                PrefNode::Pareto(vec![PrefNode::Base { slot: 1 }, PrefNode::Base { slot: 2 }]),
            ]),
            vec![BasePref::Lowest, BasePref::Lowest, BasePref::Highest],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let pts: Vec<Vec<Value>> = (0..180)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        if rng.gen_range(0..5) == 0 {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(0..8))
                        }
                    })
                    .collect()
            })
            .collect();
        let expected = maximal_naive(&pts, &p);
        for budget in [0, 128, 1024] {
            let (got, _) = maximal_external(&pts, &p, budget).unwrap();
            assert_eq!(got, expected, "budget={budget}");
        }
    }

    proptest! {
        /// Tag cells survive a spilled run: over every base kind — NULL,
        /// `EXPLICIT` graph nodes, values outside the graph, wrong-typed
        /// values — a one-entry window re-reads its overflow from disk and
        /// still selects exactly the naive maximal set.
        #[test]
        fn tags_survive_a_spilled_run(
            p in arb_any_pref(),
            pts in proptest::collection::vec(arb_any_slots(), 0..40)
        ) {
            let expected = maximal_naive(&pts, &p);
            let (got, metrics) = maximal_external(&pts, &p, 0).unwrap();
            prop_assert_eq!(&got, &expected);
            // Two maximal candidates never share a one-entry window.
            if expected.len() >= 2 {
                prop_assert!(metrics.passes >= 2, "{:?}", metrics);
            }
        }
    }
}

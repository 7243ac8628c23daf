//! Scored dominance: candidates lowered to flat `f64` rows once, one
//! compiled comparison kernel for every dominance test.
//!
//! Every base preference except `EXPLICIT` is a weak order over a numeric
//! score (§2.2.3) — the reason the paper's rewrite can express dominance
//! as `<`/`<=` over computed level columns (§3.2). The native path uses
//! the same fact: a [`ScoreMatrix`] holds one *cell* per candidate and
//! slot, computed once per query, and the composition tree is compiled
//! when [`Preference::new`] runs into a flat program over two rows of
//! cells. The skyline loops, the grouped BMO, the external window and the
//! two-row entry points [`Preference::better`] / [`Preference::equiv`]
//! all run that one program.
//!
//! # Cells
//!
//! A cell is an `f64`: the base preference's score (lower is better), or,
//! for a value that has none — NULL, a wrong-typed value, anything under
//! `EXPLICIT` — a quiet NaN whose payload is a small identity *tag*. A
//! NaN never satisfies `<` or `==`, so a tagged cell is incomparable to
//! every score without a branch, and two tagged cells are substitutable
//! exactly when their bits are equal. Tag 0 is NULL, tags `1..=g` are the
//! nodes of the slot's `EXPLICIT` graph, later tags are interned by
//! [`Value::key_eq`]. A score that is itself NaN is stored as the one NaN
//! bit pattern that is *not* a tag and equals nothing, itself included,
//! as in SQL. `-0.0` is stored as `0.0`, so `f64::total_cmp` on cells
//! agrees with `<`/`==` on scores.
//!
//! Cells are only ever loaded, stored and compared, never fed to
//! arithmetic before [`score_of`] has unwrapped them; Rust guarantees NaN
//! payloads survive that.

use crate::base::{BasePref, ExplicitGraph};
use crate::compose::{PrefNode, Preference};
use prefsql_types::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Bits of the canonical NaN *score*; every other NaN cell is a tag.
const NAN_SCORE: u64 = 0x7FF8_0000_0000_0000;

/// The cell of a NULL slot value.
const NULL_CELL: u64 = NAN_SCORE | 1;

fn tag_cell(tag: u32) -> f64 {
    f64::from_bits(NULL_CELL + u64::from(tag))
}

/// The tag of a tagged cell (0 = NULL).
fn tag_of(cell: f64) -> Option<u32> {
    let payload = cell.to_bits().wrapping_sub(NULL_CELL);
    u32::try_from(payload).ok()
}

fn score_cell(score: f64) -> f64 {
    if score.is_nan() {
        f64::from_bits(NAN_SCORE)
    } else {
        score + 0.0 // -0.0 → 0.0
    }
}

/// Is this the cell of a NULL slot value?
pub fn is_null_cell(cell: f64) -> bool {
    cell.to_bits() == NULL_CELL
}

/// The score a cell holds; `None` for a tagged cell (a value the base
/// preference cannot score).
pub fn score_of(cell: f64) -> Option<f64> {
    (!cell.is_nan() || cell.to_bits() == NAN_SCORE).then_some(cell)
}

/// The outcome of comparing row `a` with row `b`, both directions at
/// once. Bit 0: `a` is better than or substitutable for `b`; bit 1: the
/// same for `b` over `a`. Pareto accumulation is then the bitwise AND of
/// its children's verdicts, prioritization the first child verdict that
/// is not [`Verdict::EQUIV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict(u8);

impl Verdict {
    pub(crate) const INCOMPARABLE: Verdict = Verdict(0b00);
    pub(crate) const A_WINS: Verdict = Verdict(0b01);
    pub(crate) const B_WINS: Verdict = Verdict(0b10);
    pub(crate) const EQUIV: Verdict = Verdict(0b11);
}

/// One instruction of the flattened composition tree (pre-order; an
/// inner node's children are the steps up to its `end`).
#[derive(Debug, Clone)]
enum Step {
    /// A weak-order base preference over the cells of `slot`.
    Score {
        slot: usize,
    },
    /// An `EXPLICIT` base preference: closure lookup by the cells' tags.
    Explicit {
        slot: usize,
    },
    Pareto {
        end: usize,
    },
    Prioritized {
        end: usize,
    },
}

/// A [`Preference`]'s composition tree compiled for the kernel, plus what
/// lowering a slot value needs beyond its [`BasePref`].
#[derive(Debug, Clone)]
pub(crate) struct Program {
    steps: Vec<Step>,
    /// The precomputed graph of every `EXPLICIT` base, slot-indexed.
    graphs: Vec<Option<ExplicitGraph>>,
    /// The row of a statically perfect match (§2.2.5): per slot, the best
    /// score the base preference can give. `None` when some base has no
    /// static optimum (`LOWEST`/`HIGHEST`/`EXPLICIT`).
    perfect: Option<Vec<f64>>,
}

impl Program {
    pub(crate) fn compile(root: &PrefNode, bases: &[BasePref]) -> Program {
        fn flatten(node: &PrefNode, bases: &[BasePref], steps: &mut Vec<Step>) {
            let (children, at) = match node {
                PrefNode::Base { slot } => {
                    steps.push(match bases[*slot] {
                        BasePref::Explicit { .. } => Step::Explicit { slot: *slot },
                        _ => Step::Score { slot: *slot },
                    });
                    return;
                }
                PrefNode::Pareto(children) | PrefNode::Prioritized(children) => {
                    (children, steps.len())
                }
            };
            steps.push(Step::Pareto { end: 0 });
            for c in children {
                flatten(c, bases, steps);
            }
            let end = steps.len();
            steps[at] = match node {
                PrefNode::Prioritized(_) => Step::Prioritized { end },
                _ => Step::Pareto { end },
            };
        }
        let mut steps = Vec::new();
        flatten(root, bases, &mut steps);
        // The whole-row comparison with the perfect row only holds when
        // the tree reads every slot: a base it never reads ranks nothing.
        let reads = |slot: usize| {
            (steps.iter()).any(
                |s| matches!(s, Step::Score { slot: r } | Step::Explicit { slot: r } if *r == slot),
            )
        };
        let reads_every_slot = (0..bases.len()).all(reads);
        Program {
            graphs: bases
                .iter()
                .map(|b| match b {
                    BasePref::Explicit { edges } => Some(ExplicitGraph::new(edges)),
                    _ => None,
                })
                .collect(),
            perfect: bases
                .iter()
                .map(|b| match b {
                    BasePref::Around { .. } | BasePref::Between { .. } => Some(0.0),
                    BasePref::Lowest | BasePref::Highest | BasePref::Explicit { .. } => None,
                    _ => Some(1.0),
                })
                .collect::<Option<_>>()
                .filter(|_| reads_every_slot),
            steps,
        }
    }

    /// Lower one slot value to its cell. `intern` names a value that has
    /// neither a score nor a graph node, consistently with `key_eq`.
    fn cell(
        &self,
        bases: &[BasePref],
        slot: usize,
        v: &Value,
        intern: impl FnOnce(&Value) -> u32,
    ) -> f64 {
        if v.is_null() {
            return tag_cell(0);
        }
        let first_free = match &self.graphs[slot] {
            Some(graph) => match graph.node_of(v) {
                Some(node) => return tag_cell(1 + node as u32),
                None => 1 + graph.len() as u32,
            },
            None => match bases[slot].score(v) {
                Some(score) => return score_cell(score),
                None => 1,
            },
        };
        tag_cell(first_free + intern(v))
    }

    /// The verdict of the subtree at `pc`; `cells(slot)` yields the two
    /// rows' cells of one slot.
    fn eval(&self, pc: usize, cells: &impl Fn(usize) -> (f64, f64)) -> Verdict {
        match self.steps[pc] {
            Step::Score { slot } => {
                let (a, b) = cells(slot);
                let bits = u8::from(a <= b) | u8::from(b <= a) << 1;
                // Neither ordered: a NaN score, or tags — substitutable
                // when they are the same tag.
                if bits == 0 && a.to_bits() == b.to_bits() && a.to_bits() != NAN_SCORE {
                    Verdict::EQUIV
                } else {
                    Verdict(bits)
                }
            }
            Step::Explicit { slot } => {
                let (a, b) = cells(slot);
                if a.to_bits() == b.to_bits() {
                    return Verdict::EQUIV;
                }
                let graph = self.graphs[slot].as_ref().expect("compiled with the step");
                match (graph_node(graph, a), graph_node(graph, b)) {
                    (Some(x), Some(y)) if graph.better(x, y) => Verdict::A_WINS,
                    (Some(x), Some(y)) if graph.better(y, x) => Verdict::B_WINS,
                    _ => Verdict::INCOMPARABLE,
                }
            }
            Step::Pareto { end } => {
                let mut acc = Verdict::EQUIV;
                let mut child = pc + 1;
                while child < end && acc != Verdict::INCOMPARABLE {
                    acc = Verdict(acc.0 & self.eval(child, cells).0);
                    child = self.end_of(child);
                }
                acc
            }
            Step::Prioritized { end } => {
                let mut child = pc + 1;
                while child < end {
                    let v = self.eval(child, cells);
                    if v != Verdict::EQUIV {
                        return v;
                    }
                    child = self.end_of(child);
                }
                Verdict::EQUIV
            }
        }
    }

    fn end_of(&self, pc: usize) -> usize {
        match self.steps[pc] {
            Step::Score { .. } | Step::Explicit { .. } => pc + 1,
            Step::Pareto { end } | Step::Prioritized { end } => end,
        }
    }

    /// The lowered row of a perfect match, if every base preference has
    /// a static optimum and the composition tree reads every slot.
    pub(crate) fn perfect_row(&self) -> Option<&[f64]> {
        self.perfect.as_deref()
    }

    /// Compare two lowered rows.
    pub(crate) fn compare(&self, a: &[f64], b: &[f64]) -> Verdict {
        self.eval(0, &|slot| (a[slot], b[slot]))
    }

    /// Compare two slot vectors without lowering them anywhere: each
    /// leaf scores the two values it needs on the stack. Tags of values
    /// without a score only have to tell `a`'s value from `b`'s.
    pub(crate) fn compare_values(&self, bases: &[BasePref], a: &[Value], b: &[Value]) -> Verdict {
        self.eval(0, &|slot| {
            let (x, y) = (&a[slot], &b[slot]);
            (
                self.cell(bases, slot, x, |_| 0),
                self.cell(bases, slot, y, |y| u32::from(!y.key_eq(x))),
            )
        })
    }
}

/// The node of `graph` a cell of its slot stands for, if any.
fn graph_node(graph: &ExplicitGraph, cell: f64) -> Option<usize> {
    let tag = tag_of(cell)? as usize;
    (1..=graph.len()).contains(&tag).then(|| tag - 1)
}

/// Slot values ordered by [`Value::total_cmp`], so that equality is
/// exactly [`Value::key_eq`] per field (NULLs are equal, `Int(1)` equals
/// `Float(1.0)`): the interning and `GROUPING` key.
#[derive(Debug)]
pub(crate) struct ByKey<'a>(pub(crate) Cow<'a, [Value]>);

impl Ord for ByKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    }
}

impl PartialOrd for ByKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ByKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ByKey<'_> {}

/// A candidate set lowered to cells: row-major, one row per candidate,
/// one cell per base-preference slot. Build it once per query, then run
/// [`crate::maximal_scored`] / [`crate::bmo_grouped_scored`] over index
/// subsets of it. Lowering and comparing take the [`Preference`] the
/// rows are for.
#[derive(Debug)]
pub struct ScoreMatrix {
    arity: usize,
    cells: Vec<f64>,
    /// Tags handed to values with neither score nor graph node. One
    /// table for all slots: equal values under different slots may share
    /// a tag, cells are only ever compared within a slot.
    interned: BTreeMap<ByKey<'static>, u32>,
}

impl ScoreMatrix {
    /// An empty matrix for candidates of `pref`.
    pub fn new(pref: &Preference) -> Self {
        ScoreMatrix {
            arity: pref.arity(),
            cells: Vec::new(),
            interned: BTreeMap::new(),
        }
    }

    /// Lower every slot vector of `rows` (each [`Preference::arity`]
    /// values long), in order.
    pub fn lower(pref: &Preference, rows: &[Vec<Value>]) -> Self {
        let mut m = ScoreMatrix::new(pref);
        m.cells.reserve(rows.len() * m.arity);
        for slots in rows {
            m.push(pref, slots);
        }
        m
    }

    /// Lower one more candidate's slot vector as the last row.
    pub fn push(&mut self, pref: &Preference, slots: &[Value]) {
        let interned = &mut self.interned;
        assert_eq!(slots.len(), self.arity, "one value per base preference");
        self.cells.extend(slots.iter().enumerate().map(|(slot, v)| {
            pref.program().cell(pref.bases(), slot, v, |v| {
                let key = ByKey(Cow::Borrowed(std::slice::from_ref(v)));
                if let Some(&tag) = interned.get(&key) {
                    return tag;
                }
                let tag = interned.len() as u32;
                interned.insert(ByKey(Cow::Owned(vec![v.clone()])), tag);
                tag
            })
        }));
    }

    /// Lower `slots` over the cells of row `i`, in place.
    pub(crate) fn replace(&mut self, pref: &Preference, i: usize, slots: &[Value]) {
        let last = self.cells.len();
        self.push(pref, slots);
        self.cells.copy_within(last.., i * self.arity);
        self.cells.truncate(last);
    }

    /// Drop the rows at `doomed` (ascending, distinct, in range).
    pub(crate) fn remove_rows(&mut self, doomed: &[usize]) {
        remove_rows(&mut self.cells, self.arity, doomed);
    }

    /// Drop every row; interned tags stay valid for rows pushed later.
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        // A preference has at least the base its root refers to.
        self.cells.len() / self.arity
    }

    /// Every row id — the candidate list when all rows compete.
    pub fn ids(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    /// True iff the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells of row `i`, slot-ordered.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// Compare rows `a` and `b` under `pref`.
    pub(crate) fn compare(&self, pref: &Preference, a: usize, b: usize) -> Verdict {
        pref.program().compare(self.row(a), self.row(b))
    }

    /// Fold the scores of rows `first..` into `best`, the per-slot minima
    /// so far — the optima `LOWEST`/`HIGHEST` quality is relative to.
    pub fn fold_minima(&self, first: usize, best: &mut [Option<f64>]) {
        for row in self.cells[first * self.arity..].chunks_exact(self.arity) {
            for (best, &cell) in best.iter_mut().zip(row) {
                if let Some(s) = score_of(cell) {
                    if best.map_or(true, |b| s.total_cmp(&b).is_lt()) {
                        *best = Some(s);
                    }
                }
            }
        }
    }
}

/// Remove the `width`-wide rows at `doomed` (ascending, distinct, in
/// range) from `v`; the rows between them move down in one copy each.
pub(crate) fn remove_rows<T: Copy>(v: &mut Vec<T>, width: usize, doomed: &[usize]) {
    let rows = v.len() / width;
    let mut kept = doomed.first().map_or(rows, |&d| d);
    for (k, &d) in doomed.iter().enumerate() {
        let end = doomed.get(k + 1).map_or(rows, |&next| next);
        v.copy_within((d + 1) * width..end * width, kept * width);
        kept += end - d - 1;
    }
    v.truncate(kept * width);
}

impl Preference {
    /// `LEVEL` (§2.2.3) of a lowered cell of `slot`: the level the
    /// categorical preferences score by, an `EXPLICIT` node's depth
    /// (level 1 for values the graph does not mention); `None` for NULL,
    /// numeric preferences and values the preference cannot rank.
    pub fn level_of(&self, slot: usize, cell: f64) -> Option<i64> {
        if is_null_cell(cell) {
            return None;
        }
        match (&self.program().graphs[slot], &self.bases()[slot]) {
            (Some(graph), _) => Some(graph_node(graph, cell).map_or(1, |n| graph.depth(n))),
            (
                None,
                BasePref::Around { .. }
                | BasePref::Between { .. }
                | BasePref::Lowest
                | BasePref::Highest,
            ) => None,
            (None, _) => score_of(cell).map(|s| s as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_tell_scores_nan_scores_and_tags_apart() {
        assert_eq!(f64::NAN.to_bits(), NAN_SCORE);
        assert_eq!(score_of(score_cell(2.5)), Some(2.5));
        assert!(score_of(score_cell(-f64::NAN)).is_some_and(f64::is_nan));
        assert_eq!(score_cell(-0.0).to_bits(), 0.0f64.to_bits());
        assert!(is_null_cell(tag_cell(0)));
        for tag in [0, 1, 77, u32::MAX] {
            assert_eq!(tag_of(tag_cell(tag)), Some(tag));
            assert_eq!(score_of(tag_cell(tag)), None);
        }
        assert_eq!(tag_of(score_cell(f64::NAN)), None);
        assert_eq!(tag_of(1.0), None);
        // Tagged cells sort after every score, NaN scores included.
        assert!(score_cell(f64::INFINITY)
            .total_cmp(&score_cell(f64::NAN))
            .is_lt());
        assert!(score_cell(f64::NAN).total_cmp(&tag_cell(0)).is_lt());
    }

    #[test]
    fn interned_tags_follow_key_eq() {
        let p = Preference::single(BasePref::Lowest).unwrap();
        let rows = [
            vec![Value::str("a")],
            vec![Value::str("b")],
            vec![Value::str("a")],
            vec![Value::Null],
            vec![Value::Int(3)],
        ];
        let m = ScoreMatrix::lower(&p, &rows);
        assert_eq!(m.len(), 5);
        assert_eq!(m.compare(&p, 0, 2), Verdict::EQUIV);
        assert_eq!(m.compare(&p, 0, 1), Verdict::INCOMPARABLE);
        assert_eq!(m.compare(&p, 0, 3), Verdict::INCOMPARABLE);
        assert_eq!(m.compare(&p, 3, 3), Verdict::EQUIV);
        assert_eq!(m.compare(&p, 4, 0), Verdict::INCOMPARABLE);
        let mut best = [None];
        m.fold_minima(0, &mut best);
        assert_eq!(best, [Some(3.0)]);
    }

    #[test]
    fn perfect_match_detection() {
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
        let rows = [
            vec![Value::Int(14), Value::str("java")],
            vec![Value::Int(13), Value::str("java")],
            vec![Value::str("14"), Value::str("java")],
        ];
        let m = ScoreMatrix::lower(&p, &rows);
        let best = p.program().perfect_row().unwrap();
        assert_eq!(m.row(0), best);
        assert_ne!(m.row(1), best);
        assert_ne!(m.row(2), best);
        // HIGHEST is never statically perfect.
        let h = Preference::single(BasePref::Highest).unwrap();
        assert_eq!(h.program().perfect_row(), None);
        // A tree that skips a slot has none either: a row perfect in the
        // slot it skips must not beat one that is not.
        let skip = Preference::new(PrefNode::Base { slot: 0 }, p.bases().to_vec()).unwrap();
        assert_eq!(skip.program().perfect_row(), None);
        let rows = [rows[0].clone(), vec![Value::Int(14), Value::str("c")]];
        let m = ScoreMatrix::lower(&skip, &rows);
        let all = crate::maximal_scored(&m, &skip, &m.ids(), crate::SkylineAlgo::Auto, 1);
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn explicit_levels_read_off_the_cells() {
        let s = Value::str;
        let p = Preference::single(BasePref::Explicit {
            edges: vec![(s("red"), s("blue")), (s("blue"), s("grey"))],
        })
        .unwrap();
        let rows = [s("grey"), s("red"), s("pink"), Value::Null].map(|v| vec![v]);
        let m = ScoreMatrix::lower(&p, &rows);
        let levels: Vec<_> = (0..4).map(|i| p.level_of(0, m.row(i)[0])).collect();
        assert_eq!(levels, [Some(3), Some(1), Some(1), None]);
        assert_eq!(m.compare(&p, 1, 0), Verdict::A_WINS);
        assert_eq!(m.compare(&p, 0, 1), Verdict::B_WINS);
        assert_eq!(m.compare(&p, 2, 0), Verdict::INCOMPARABLE);
    }
}

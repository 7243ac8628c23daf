//! Scored dominance: candidates lowered to flat `f64` rows once, one
//! comparison kernel for every dominance test.
//!
//! Every base preference except `EXPLICIT` is a weak order over a numeric
//! score (§2.2.3) — the reason the paper's rewrite can express dominance
//! as `<`/`<=` over computed level columns (§3.2). The native path uses
//! the same fact: a [`ScoreMatrix`] holds one *cell* per candidate and
//! slot, computed once per query. The skyline loops, the grouped BMO, the
//! external window and view maintenance all compare two rows of cells
//! with one kernel.
//!
//! # The kernel
//!
//! [`Preference::new`] compiles the composition tree into one normal
//! form. Both operators are associative, so a child of the same kind as
//! its parent is flattened into it; what is left is a CASCADE *chain* of
//! Pareto *groups*. A group holds the slots of its weak-order leaves, and
//! its verdict is the AND, over that slice, of `(a <= b) | (b <= a) << 1`
//! (equal tags counting as substitutable) — computed with no branch per
//! leaf. Two rare kinds of member follow the slice: an `EXPLICIT` leaf (a
//! closure lookup) and a nested chain (a CASCADE under a Pareto, the only
//! recursion). The chain's verdict is the first group verdict that is not
//! EQUIV. It replaced a tree-walking interpreter over the same cells: on
//! `prefbench`'s `skyline_native` the traced cost of a dominance test fell
//! from 21–25 to 14–15 ns and the median statement by 28 %, 12.26 to
//! 8.81 ms (CHANGES.md, PR 35).
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
//! [`prefsql_types::Key`], the one key contract (so `-0.0` and `0.0`, or
//! INT 1 and FLOAT 1.0, share a tag). A score that is itself NaN is
//! stored as the one NaN bit pattern that is *not* a tag and equals
//! nothing, itself included, as in SQL. `-0.0` is stored as `0.0`, so `f64::total_cmp` on cells
//! agrees with `<`/`==` on scores.
//!
//! Cells are only ever loaded, stored and compared, never fed to
//! arithmetic before `score_of` has unwrapped them; Rust guarantees NaN
//! payloads survive that.

use crate::base::{BasePref, ExplicitGraph};
use crate::compose::{PrefNode, Preference};
use prefsql_types::{Key, Value};
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
fn is_null_cell(cell: f64) -> bool {
    cell.to_bits() == NULL_CELL
}

/// The score a cell holds; `None` for a tagged cell (a value the base
/// preference cannot score).
fn score_of(cell: f64) -> Option<f64> {
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

/// The verdict bits of one weak-order leaf over its two cells. A NaN is
/// ordered with nothing, so a pair without a `<=` either way is a NaN
/// score (incomparable) or two tags (substitutable when they are the
/// same tag). No branch: `&` and `|` where `&&` would short-circuit.
fn score_verdict(a: f64, b: f64) -> u8 {
    let same_tag = (a.to_bits() == b.to_bits()) & (a.to_bits() != NAN_SCORE);
    u8::from(a <= b) | (u8::from(b <= a) << 1) | (u8::from(same_tag) * Verdict::EQUIV.0)
}

/// A CASCADE chain in normal form: its verdict is the first group
/// verdict that is not [`Verdict::EQUIV`]. A composition tree is one
/// chain; a lone base or Pareto node is a chain of one group.
#[derive(Debug, Clone, PartialEq)]
struct Chain(Vec<Group>);

/// A Pareto group in normal form: the AND of its members' verdicts.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    /// The slots of its weak-order leaves, compared branch-free.
    scores: Vec<usize>,
    /// Its rare members, compared after the slice while the verdict is
    /// not yet [`Verdict::INCOMPARABLE`].
    rare: Vec<Rare>,
}

#[derive(Debug, Clone, PartialEq)]
enum Rare {
    /// An `EXPLICIT` leaf: closure lookup by the cells' tags.
    Explicit { slot: usize },
    /// A CASCADE under the Pareto — the kernel's only recursion.
    Chain(Chain),
}

impl Chain {
    /// The normal form of `node`. Both operators are associative, so a
    /// child of the same kind as its parent is flattened into it:
    /// `CASCADE(CASCADE(a, b), c)` is the chain `a, b, c`, and
    /// `Pareto(Pareto(a, b), c)` the group `{a, b, c}`.
    fn of(node: &PrefNode, bases: &[BasePref]) -> Chain {
        fn links(node: &PrefNode, bases: &[BasePref], chain: &mut Vec<Group>) {
            if let PrefNode::Prioritized(children) = node {
                children.iter().for_each(|c| links(c, bases, chain));
            } else {
                let mut group = Group {
                    scores: Vec::new(),
                    rare: Vec::new(),
                };
                members(node, bases, &mut group);
                chain.push(group);
            }
        }
        fn members(node: &PrefNode, bases: &[BasePref], group: &mut Group) {
            match node {
                PrefNode::Base { slot } => match bases[*slot] {
                    BasePref::Explicit { .. } => group.rare.push(Rare::Explicit { slot: *slot }),
                    _ => group.scores.push(*slot),
                },
                PrefNode::Pareto(children) => {
                    children.iter().for_each(|c| members(c, bases, group));
                }
                PrefNode::Prioritized(_) => group.rare.push(Rare::Chain(Chain::of(node, bases))),
            }
        }
        let mut chain = Vec::new();
        links(node, bases, &mut chain);
        Chain(chain)
    }

    /// The kernel: compare two lowered rows.
    fn compare(&self, graphs: &[Option<ExplicitGraph>], a: &[f64], b: &[f64]) -> Verdict {
        for group in &self.0 {
            let verdict = group.compare(graphs, a, b);
            if verdict != Verdict::EQUIV {
                return verdict;
            }
        }
        Verdict::EQUIV
    }
}

impl Group {
    fn compare(&self, graphs: &[Option<ExplicitGraph>], a: &[f64], b: &[f64]) -> Verdict {
        let mut acc = Verdict::EQUIV.0;
        for &slot in &self.scores {
            acc &= score_verdict(a[slot], b[slot]);
        }
        for member in &self.rare {
            if acc == Verdict::INCOMPARABLE.0 {
                break;
            }
            acc &= match member {
                Rare::Explicit { slot } => {
                    let graph = graphs[*slot].as_ref().expect("compiled with the leaf");
                    explicit_verdict(graph, a[*slot], b[*slot])
                }
                Rare::Chain(chain) => chain.compare(graphs, a, b),
            }
            .0;
        }
        Verdict(acc)
    }
}

/// The verdict of an `EXPLICIT` leaf over its two cells.
fn explicit_verdict(graph: &ExplicitGraph, a: f64, b: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        return Verdict::EQUIV;
    }
    match (graph_node(graph, a), graph_node(graph, b)) {
        (Some(x), Some(y)) if graph.better(x, y) => Verdict::A_WINS,
        (Some(x), Some(y)) if graph.better(y, x) => Verdict::B_WINS,
        _ => Verdict::INCOMPARABLE,
    }
}

/// A [`Preference`]'s composition tree compiled for the kernel, plus what
/// lowering a slot value needs beyond its [`BasePref`].
#[derive(Debug, Clone)]
pub(crate) struct Program {
    chain: Chain,
    /// The precomputed graph of every `EXPLICIT` base, slot-indexed.
    graphs: Vec<Option<ExplicitGraph>>,
    /// The row of a statically perfect match (§2.2.5): per slot, the best
    /// score the base preference can give. `None` when some base has no
    /// static optimum (`LOWEST`/`HIGHEST`/`EXPLICIT`).
    perfect: Option<Vec<f64>>,
}

impl Program {
    pub(crate) fn compile(root: &PrefNode, bases: &[BasePref]) -> Program {
        fn mark_read(node: &PrefNode, read: &mut [bool]) {
            match node {
                PrefNode::Base { slot } => read[*slot] = true,
                PrefNode::Pareto(children) | PrefNode::Prioritized(children) => {
                    children.iter().for_each(|c| mark_read(c, read));
                }
            }
        }
        // The whole-row comparison with the perfect row only holds when
        // the tree reads every slot: a base it never reads ranks nothing.
        let mut read = vec![false; bases.len()];
        mark_read(root, &mut read);
        let reads_every_slot = read.iter().all(|&r| r);
        Program {
            chain: Chain::of(root, bases),
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

    /// The lowered row of a perfect match, if every base preference has
    /// a static optimum and the composition tree reads every slot.
    pub(crate) fn perfect_row(&self) -> Option<&[f64]> {
        self.perfect.as_deref()
    }

    /// Compare two lowered rows.
    pub(crate) fn compare(&self, a: &[f64], b: &[f64]) -> Verdict {
        self.chain.compare(&self.graphs, a, b)
    }
}

/// The node of `graph` a cell of its slot stands for, if any.
fn graph_node(graph: &ExplicitGraph, cell: f64) -> Option<usize> {
    let tag = tag_of(cell)? as usize;
    (1..=graph.len()).contains(&tag).then(|| tag - 1)
}

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
    interned: BTreeMap<Key<'static>, u32>,
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

    /// Lower one more candidate's slot values, in slot order, as the
    /// last row. The values are borrowed — from a slot vector, or each
    /// straight from wherever it lies, such as a column of a source row.
    pub fn push<'v, I>(&mut self, pref: &Preference, slots: I)
    where
        I: IntoIterator<Item = &'v Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let interned = &mut self.interned;
        let slots = slots.into_iter();
        assert_eq!(slots.len(), self.arity, "one value per base preference");
        self.cells.extend(slots.enumerate().map(|(slot, v)| {
            pref.program().cell(pref.bases(), slot, v, |v| {
                let key = Key::borrowed(std::slice::from_ref(v));
                if let Some(&tag) = interned.get(&key) {
                    return tag;
                }
                let tag = interned.len() as u32;
                interned.insert(key.into_owned(), tag);
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
    fn level_of(&self, slot: usize, cell: f64) -> Option<i64> {
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

    /// Quality function `func` (`"top"`, `"level"` or `"distance"`,
    /// §2.2.3) of a lowered cell of `slot`, relative for `LOWEST`/`HIGHEST`
    /// to `best`, the slot's optimum ([`ScoreMatrix::fold_minima`]). NULL's
    /// quality is NULL, as on the rewrite path.
    pub fn quality(&self, func: &str, slot: usize, cell: f64, best: Option<f64>) -> Value {
        if is_null_cell(cell) {
            return Value::Null;
        }
        let base = &self.bases()[slot];
        let relative = matches!(base, BasePref::Lowest | BasePref::Highest);
        let numeric = matches!(base, BasePref::Around { .. } | BasePref::Between { .. });
        match func {
            "level" => self.level_of(slot, cell).map_or(Value::Null, Value::Int),
            "distance" => match (score_of(cell), best) {
                (Some(s), Some(b)) if relative => float_or_int(s - b),
                (Some(s), _) if !relative => float_or_int(s),
                _ => Value::Null,
            },
            _ if relative => {
                Value::Bool(matches!((score_of(cell), best), (Some(s), Some(b)) if s == b))
            }
            _ if numeric => Value::Bool(score_of(cell) == Some(0.0)),
            _ => Value::Bool(self.level_of(slot, cell) == Some(1)),
        }
    }
}

/// Distances are conceptually numeric; integers stay integral for display
/// parity with the rewrite path.
fn float_or_int(f: f64) -> Value {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        Value::Int(f as i64)
    } else {
        Value::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::arb::{arb_any_slots_of, arb_wide_pref};
    use proptest::prelude::*;

    proptest! {
        /// Slot values borrowed where they lie (each slot a column of a
        /// wider source row, in any order, one column read by two slots)
        /// lower to the cells of the same values owned in a slot vector,
        /// bit for bit, interned tags included.
        #[test]
        fn borrowed_slots_lower_to_the_cells_of_owned_ones(
            pref in arb_wide_pref(),
            rows in proptest::collection::vec(arb_any_slots_of(8), 1..6),
            columns in proptest::collection::vec(0..8usize, 6),
        ) {
            let owned: Vec<Vec<Value>> = (rows.iter())
                .map(|row| columns.iter().map(|&c| row[c].clone()).collect())
                .collect();
            let mut borrowed = ScoreMatrix::new(&pref);
            for row in &rows {
                borrowed.push(&pref, columns.iter().map(|&c| &row[c]));
            }
            let bits = |m: &ScoreMatrix| m.cells.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&borrowed), bits(&ScoreMatrix::lower(&pref, &owned)));
        }
    }

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
    fn same_kind_nests_flatten_to_the_flat_form() {
        let leaf = |slot| PrefNode::Base { slot };
        let bases = vec![
            BasePref::Lowest,
            BasePref::Around { target: 1.0 },
            BasePref::Pos {
                values: vec![Value::Int(0)],
            },
        ];
        let pref = |root| Preference::new(root, bases.clone()).unwrap();
        // Equal chains over the same bases compile to the same program,
        // so the nested forms give the flat form's verdicts.
        for kind in [PrefNode::Prioritized, PrefNode::Pareto] {
            let nested = pref(kind(vec![kind(vec![leaf(0), leaf(1)]), leaf(2)]));
            let nested_right = pref(kind(vec![leaf(0), kind(vec![leaf(1), leaf(2)])]));
            let flat = pref(kind(vec![leaf(0), leaf(1), leaf(2)]));
            assert_eq!(nested.program().chain, flat.program().chain);
            assert_eq!(nested_right.program().chain, flat.program().chain);
        }
        // Mixed nests keep their structure: a CASCADE under a Pareto is a
        // nested chain of the one group.
        let mixed = pref(PrefNode::Pareto(vec![
            leaf(0),
            PrefNode::Prioritized(vec![leaf(1), leaf(2)]),
        ]));
        let single = |slot| Group {
            scores: vec![slot],
            rare: Vec::new(),
        };
        assert_eq!(
            mixed.program().chain,
            Chain(vec![Group {
                scores: vec![0],
                rare: vec![Rare::Chain(Chain(vec![single(1), single(2)]))],
            }])
        );
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

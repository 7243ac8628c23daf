//! Complex preference composition (paper §2.2.2): Pareto accumulation
//! (`AND`) and prioritization (`CASCADE`).
//!
//! A [`Preference`] is defined over *slot vectors*: the engine (or a
//! test) evaluates each base preference's attribute expression against a
//! tuple once, producing one [`prefsql_types::Value`] per base
//! preference, which keeps the preference algebra independent of the SQL
//! layer. Dominance is not evaluated by walking the tree over those
//! values: [`Preference::new`] compiles the tree into one normal form, a
//! CASCADE chain of Pareto groups compared over *score rows* (see
//! [`crate::score`]). Every caller lowers each candidate's slot vector to
//! such a row once, into a [`crate::ScoreMatrix`], and compares rows with
//! the one kernel — the one implementation of the composition semantics
//! below.

use crate::base::BasePref;
use crate::score::Program;
use prefsql_types::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// A node of the preference composition tree. Leaves index into the slot
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefNode {
    /// A base preference applied to slot `slot`.
    Base {
        /// Index into the slot vector.
        slot: usize,
    },
    /// Pareto accumulation: all children equally important.
    Pareto(Vec<PrefNode>),
    /// Prioritization: earlier children dominate later ones.
    Prioritized(Vec<PrefNode>),
}

/// A complete complex preference: a composition tree plus the base
/// preferences its leaves refer to.
///
/// ```
/// use prefsql_pref::{maximal_scored, BasePref, PrefNode, Preference, ScoreMatrix, SkylineAlgo};
/// use prefsql_types::Value;
///
/// // HIGHEST(memory) AND HIGHEST(cpu) — the paper's computer example.
/// let p = Preference::new(
///     PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
///     vec![BasePref::Highest, BasePref::Highest],
/// ).unwrap();
///
/// let big_slow = vec![Value::Int(1024), Value::Int(800)];
/// let small_fast = vec![Value::Int(512), Value::Int(1200)];
/// let small_slow = vec![Value::Int(512), Value::Int(800)];
/// let m = ScoreMatrix::lower(&p, &[big_slow, small_fast, small_slow]);
/// // big_slow and small_fast trade off; big_slow dominates small_slow.
/// let best = maximal_scored(&m, &p, &m.ids(), SkylineAlgo::Auto, 1);
/// assert_eq!(best, vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct Preference {
    root: PrefNode,
    bases: Vec<BasePref>,
    /// `root` in the kernel's normal form.
    program: Program,
    /// Dominance tests performed — the paper's real cost unit. A skyline
    /// loop counts its directed tests in a local tally and adds it here
    /// once per call (per worker, for the parallel window). Relaxed
    /// atomics: only the total matters.
    comparisons: AtomicU64,
}

impl Clone for Preference {
    fn clone(&self) -> Self {
        Preference {
            root: self.root.clone(),
            bases: self.bases.clone(),
            program: self.program.clone(),
            // A clone is a fresh preference instance: it starts with a
            // zeroed comparison tally of its own.
            comparisons: AtomicU64::new(0),
        }
    }
}

// Value equality ignores the instrumentation counter: two preferences
// are the same preference iff they order tuples identically.
impl PartialEq for Preference {
    fn eq(&self, other: &Preference) -> bool {
        self.root == other.root && self.bases == other.bases
    }
}

impl Preference {
    /// Build a preference, validating that every leaf slot refers to a base
    /// preference and every base preference is internally consistent.
    pub fn new(root: PrefNode, bases: Vec<BasePref>) -> Result<Self> {
        fn check(node: &PrefNode, n: usize) -> Result<()> {
            match node {
                PrefNode::Base { slot } => {
                    if *slot >= n {
                        return Err(Error::Plan(format!(
                            "preference leaf references slot {slot} but only {n} bases exist"
                        )));
                    }
                    Ok(())
                }
                PrefNode::Pareto(children) | PrefNode::Prioritized(children) => {
                    if children.len() < 2 {
                        return Err(Error::Plan(
                            "Pareto/prioritized composition needs at least two children".into(),
                        ));
                    }
                    children.iter().try_for_each(|c| check(c, n))
                }
            }
        }
        check(&root, bases.len())?;
        for b in &bases {
            b.validate()?;
        }
        Ok(Preference {
            program: Program::compile(&root, &bases),
            root,
            bases,
            comparisons: AtomicU64::new(0),
        })
    }

    /// A single-base preference.
    pub fn single(base: BasePref) -> Result<Self> {
        Preference::new(PrefNode::Base { slot: 0 }, vec![base])
    }

    /// The composition tree.
    pub fn root(&self) -> &PrefNode {
        &self.root
    }

    /// The base preferences, slot-ordered.
    pub fn bases(&self) -> &[BasePref] {
        &self.bases
    }

    /// Number of slots a slot vector must have.
    pub fn arity(&self) -> usize {
        self.bases.len()
    }

    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Charge `n` dominance tests a skyline loop tallied locally.
    pub(crate) fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Dominance tests performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.load(Ordering::Relaxed)
    }

    /// Read and reset the dominance-test tally (per-statement harvesting:
    /// the executor drains this into its stats after each run).
    pub fn take_comparisons(&self) -> u64 {
        self.comparisons.swap(0, Ordering::Relaxed)
    }
}

/// Proptest generators shared by this crate's property tests: every
/// composition shape over every base kind and every value kind.
#[cfg(test)]
pub(crate) mod arb {
    use super::{PrefNode, Preference};
    use crate::base::BasePref;
    use crate::score::Verdict;
    use prefsql_types::Value;
    use proptest::prelude::*;

    /// How slot vector `a` compares with `b` under `p`: the two lowered
    /// into a two-row [`crate::ScoreMatrix`] and compared by the kernel.
    pub(crate) fn verdict(p: &Preference, a: &[Value], b: &[Value]) -> Verdict {
        crate::ScoreMatrix::lower(p, &[a.to_vec(), b.to_vec()]).compare(p, 0, 1)
    }

    /// Every base-preference kind, over three slots.
    pub(crate) fn arb_any_pref() -> impl Strategy<Value = Preference> {
        proptest::collection::vec(arb_any_base(), 3).prop_flat_map(|bs| {
            arb_tree(bs.len()).prop_map(move |t| Preference::new(t, bs.clone()).unwrap())
        })
    }

    /// Every base-preference kind.
    fn arb_any_base() -> impl Strategy<Value = BasePref> {
        let s = Value::str;
        prop_oneof![
            Just(BasePref::Lowest),
            Just(BasePref::Highest),
            (-3.0f64..3.0).prop_map(|t| BasePref::Around { target: t }),
            Just(BasePref::Between { low: -1.0, up: 1.0 }),
            Just(BasePref::Pos {
                values: vec![Value::Int(1), s("red")]
            }),
            Just(BasePref::Neg {
                values: vec![Value::Float(0.0)]
            }),
            Just(BasePref::PosPos {
                first: vec![s("red")],
                second: vec![Value::Int(2), s("blue")]
            }),
            Just(BasePref::PosNeg {
                pos: vec![Value::Int(0)],
                neg: vec![s("grey")]
            }),
            Just(BasePref::Contains {
                terms: vec!["re".into(), "D".into()]
            }),
            Just(explicit()),
        ]
    }

    fn explicit() -> BasePref {
        let s = Value::str;
        BasePref::Explicit {
            edges: vec![
                (s("red"), s("blue")),
                (s("blue"), s("grey")),
                (Value::Int(1), s("grey")),
                (Value::Int(1), Value::Int(2)),
            ],
        }
    }

    /// Six slots: four of every base kind, then two `EXPLICIT` ones, under
    /// trees of depth up to 4 whose inner nodes mix leaves and subtrees of
    /// either kind — so Pareto groups hold score leaves, `EXPLICIT` leaves
    /// and nested CASCADE chains side by side, and same-kind nests are
    /// there to be flattened.
    pub(crate) fn arb_wide_pref() -> impl Strategy<Value = Preference> {
        let s = Value::str;
        let second = BasePref::Explicit {
            edges: vec![
                (Value::Int(0), s("pink")),
                (Value::Float(2.5), Value::Int(0)),
            ],
        };
        proptest::collection::vec(arb_any_base(), 4).prop_flat_map(move |mut bs| {
            bs.extend([explicit(), second.clone()]);
            let leaf = (0..bs.len()).prop_map(|slot| PrefNode::Base { slot });
            let tree = leaf.clone().prop_recursive(4, 24, 3, move |inner| {
                let child = prop_oneof![leaf.clone(), inner.clone(), inner];
                prop_oneof![
                    proptest::collection::vec(child.clone(), 2..4).prop_map(PrefNode::Pareto),
                    proptest::collection::vec(child, 2..4).prop_map(PrefNode::Prioritized),
                ]
            });
            tree.prop_map(move |t| Preference::new(t, bs.clone()).unwrap())
        })
    }

    /// The values whose treatment differs between base preferences: NULL,
    /// NaN, signed zeros, `Int`/`Float` twins, strings and booleans where
    /// numbers are expected and numbers where strings are, dates,
    /// `EXPLICIT` nodes and values outside the graph.
    pub(crate) fn arb_any_slots() -> impl Strategy<Value = Vec<Value>> {
        arb_any_slots_of(3)
    }

    /// [`arb_any_slots`] over `n` slots.
    pub(crate) fn arb_any_slots_of(n: usize) -> impl Strategy<Value = Vec<Value>> {
        let values = vec![
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Bool(true),
            Value::Date(prefsql_types::Date::from_days(1)),
            Value::Date(prefsql_types::Date::from_days(2)),
            Value::str("red"),
            Value::str("Red dress"),
            Value::str("blue"),
            Value::str("grey"),
            Value::str("pink"),
        ];
        proptest::collection::vec((0..values.len()).prop_map(move |i| values[i].clone()), n)
    }

    pub(crate) fn arb_tree(n_slots: usize) -> impl Strategy<Value = PrefNode> {
        let leaf = (0..n_slots).prop_map(|slot| PrefNode::Base { slot });
        leaf.prop_recursive(3, 12, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 2..4).prop_map(PrefNode::Pareto),
                proptest::collection::vec(inner, 2..4).prop_map(PrefNode::Prioritized),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::arb::{
        arb_any_pref, arb_any_slots, arb_any_slots_of, arb_tree, arb_wide_pref, verdict,
    };
    use super::*;
    use crate::score::Verdict;
    use prefsql_types::Value;
    use proptest::prelude::*;

    fn better(p: &Preference, a: &[Value], b: &[Value]) -> bool {
        verdict(p, a, b) == Verdict::A_WINS
    }

    fn equiv(p: &Preference, a: &[Value], b: &[Value]) -> bool {
        verdict(p, a, b) == Verdict::EQUIV
    }

    fn vi(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    fn pareto2() -> Preference {
        // HIGHEST(memory) AND HIGHEST(cpu): the computer example.
        Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![BasePref::Highest, BasePref::Highest],
        )
        .unwrap()
    }

    #[test]
    fn pareto_dominance() {
        let p = pareto2();
        assert!(better(&p, &vi(&[4, 4]), &vi(&[3, 4])));
        assert!(better(&p, &vi(&[4, 4]), &vi(&[3, 3])));
        assert!(!better(&p, &vi(&[4, 3]), &vi(&[3, 4]))); // incomparable
        assert!(!better(&p, &vi(&[3, 4]), &vi(&[4, 3])));
        assert!(!better(&p, &vi(&[4, 4]), &vi(&[4, 4]))); // irreflexive
        assert!(equiv(&p, &vi(&[4, 4]), &vi(&[4, 4])));
    }

    #[test]
    fn prioritized_is_lexicographic() {
        // HIGHEST(memory) CASCADE POS(color in black, brown).
        let p = Preference::new(
            PrefNode::Prioritized(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Highest,
                BasePref::Pos {
                    values: vec![Value::str("black"), Value::str("brown")],
                },
            ],
        )
        .unwrap();
        let big_red = vec![Value::Int(8), Value::str("red")];
        let small_black = vec![Value::Int(4), Value::str("black")];
        let big_black = vec![Value::Int(8), Value::str("black")];
        // Memory dominates regardless of color.
        assert!(better(&p, &big_red, &small_black));
        // Equal memory: color decides.
        assert!(better(&p, &big_black, &big_red));
        assert!(!better(&p, &big_red, &big_black));
    }

    #[test]
    fn nested_composition() {
        // (A AND B) CASCADE C — the Opel query shape.
        let p = Preference::new(
            PrefNode::Prioritized(vec![
                PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
                PrefNode::Base { slot: 2 },
            ]),
            vec![
                BasePref::Around { target: 40000.0 },
                BasePref::Highest,
                BasePref::Pos {
                    values: vec![Value::str("red")],
                },
            ],
        )
        .unwrap();
        let a = vec![Value::Int(40000), Value::Int(150), Value::str("blue")];
        let b = vec![Value::Int(40000), Value::Int(150), Value::str("red")];
        let c = vec![Value::Int(39000), Value::Int(150), Value::str("red")];
        // Pareto level ties between a and b; color promotes b.
        assert!(better(&p, &b, &a));
        // Pareto level strictly prefers a and b over c; color is irrelevant.
        assert!(better(&p, &a, &c));
        assert!(better(&p, &b, &c));
        assert!(!better(&p, &c, &b));
    }

    #[test]
    fn dominance_tests_are_counted() {
        let p = pareto2();
        assert_eq!(p.comparisons(), 0);
        // A skyline loop charges its local tally once per call.
        p.add_comparisons(2);
        assert_eq!(p.comparisons(), 2);
        // Clones start a fresh tally; equality ignores the counter.
        let cloned = p.clone();
        assert_eq!(cloned.comparisons(), 0);
        assert_eq!(p, cloned);
        // Harvesting drains the tally.
        assert_eq!(p.take_comparisons(), 2);
        assert_eq!(p.comparisons(), 0);
    }

    #[test]
    fn validation_errors() {
        assert!(Preference::new(PrefNode::Base { slot: 1 }, vec![BasePref::Lowest]).is_err());
        assert!(Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }]),
            vec![BasePref::Lowest]
        )
        .is_err());
        assert!(Preference::new(
            PrefNode::Base { slot: 0 },
            vec![BasePref::Between { low: 5.0, up: 1.0 }]
        )
        .is_err());
    }

    // ---- reference oracle: the composition semantics as a tree walk over
    // `Value`s, one base preference at a time — what the compiled
    // program must agree with on every input ----

    fn node_better(p: &Preference, node: &PrefNode, a: &[Value], b: &[Value]) -> bool {
        match node {
            PrefNode::Base { slot } => p.bases[*slot].better(&a[*slot], &b[*slot]),
            PrefNode::Pareto(children) => {
                let mut strictly = false;
                for c in children {
                    if node_better(p, c, a, b) {
                        strictly = true;
                    } else if !node_equiv(p, c, a, b) {
                        return false;
                    }
                }
                strictly
            }
            PrefNode::Prioritized(children) => {
                for c in children {
                    if node_better(p, c, a, b) {
                        return true;
                    }
                    if !node_equiv(p, c, a, b) {
                        return false;
                    }
                }
                false
            }
        }
    }

    fn node_equiv(p: &Preference, node: &PrefNode, a: &[Value], b: &[Value]) -> bool {
        match node {
            PrefNode::Base { slot } => p.bases[*slot].equiv(&a[*slot], &b[*slot]),
            PrefNode::Pareto(children) | PrefNode::Prioritized(children) => {
                children.iter().all(|c| node_equiv(p, c, a, b))
            }
        }
    }

    proptest! {
        /// The compiled program is the tree walk: same `better` and
        /// `equiv` through a two-row lowering and through a lowered matrix
        /// of every row, for every composition shape and value kind.
        #[test]
        fn compiled_program_matches_the_tree_walk(
            p in arb_any_pref(),
            rows in proptest::collection::vec(arb_any_slots(), 2..6)
        ) {
            let m = crate::ScoreMatrix::lower(&p, &rows);
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in rows.iter().enumerate() {
                    let better = node_better(&p, &p.root, a, b);
                    let equiv = node_equiv(&p, &p.root, a, b);
                    let v = verdict(&p, a, b);
                    prop_assert_eq!(v == Verdict::A_WINS, better, "better({:?}, {:?})", a, b);
                    prop_assert_eq!(v == Verdict::EQUIV, equiv, "equiv({:?}, {:?})", a, b);
                    let verdict = m.compare(&p, i, j);
                    prop_assert_eq!(verdict == Verdict::A_WINS, better, "rows {} {}", i, j);
                    prop_assert_eq!(verdict == Verdict::EQUIV, equiv, "rows {} {}", i, j);
                    prop_assert_eq!(
                        verdict == Verdict::B_WINS,
                        node_better(&p, &p.root, b, a),
                        "rows {} {}", i, j
                    );
                }
            }
        }
    }

    proptest! {
        /// The kernel is the tree walk on wide, deep trees: six slots,
        /// depth up to 4, CASCADE and Pareto nested both ways, `EXPLICIT`
        /// leaves inside groups, every value kind. Both directions of the
        /// verdict are checked, through a lowered matrix.
        #[test]
        fn kernel_matches_the_tree_walk_on_wide_deep_trees(
            p in arb_wide_pref(),
            rows in proptest::collection::vec(arb_any_slots_of(6), 2..6)
        ) {
            let m = crate::ScoreMatrix::lower(&p, &rows);
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in rows.iter().enumerate() {
                    let walk = (
                        node_better(&p, &p.root, a, b),
                        node_better(&p, &p.root, b, a),
                        node_equiv(&p, &p.root, a, b),
                    );
                    let expected = match walk {
                        (true, false, false) => Verdict::A_WINS,
                        (false, true, false) => Verdict::B_WINS,
                        (false, false, true) => Verdict::EQUIV,
                        (false, false, false) => Verdict::INCOMPARABLE,
                        _ => panic!("tree walk is not an SPO: {walk:?} on {a:?} {b:?}"),
                    };
                    prop_assert_eq!(m.compare(&p, i, j), expected, "rows {:?} {:?}", a, b);
                }
            }
        }
    }

    // ---- property tests: composition preserves the SPO axioms ----

    fn arb_pref() -> impl Strategy<Value = Preference> {
        let bases = proptest::collection::vec(
            prop_oneof![
                Just(BasePref::Lowest),
                Just(BasePref::Highest),
                (-10.0f64..10.0).prop_map(|t| BasePref::Around { target: t }),
                proptest::collection::vec(-3i64..3, 1..3).prop_map(|vs| BasePref::Pos {
                    values: vs.into_iter().map(Value::Int).collect()
                }),
            ],
            3,
        );
        bases.prop_flat_map(|bs| {
            arb_tree(bs.len()).prop_map(move |t| Preference::new(t, bs.clone()).unwrap())
        })
    }

    fn arb_slots() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(
            prop_oneof![(-4i64..4).prop_map(Value::Int), Just(Value::Null)],
            3,
        )
    }

    proptest! {
        #[test]
        fn composed_better_is_irreflexive(p in arb_pref(), a in arb_slots()) {
            prop_assert!(!better(&p, &a, &a));
        }

        #[test]
        fn composed_better_is_asymmetric(p in arb_pref(), a in arb_slots(), b in arb_slots()) {
            if better(&p, &a, &b) {
                prop_assert!(!better(&p, &b, &a));
            }
        }

        #[test]
        fn composed_better_is_transitive(
            p in arb_pref(),
            a in arb_slots(),
            b in arb_slots(),
            c in arb_slots()
        ) {
            if better(&p, &a, &b) && better(&p, &b, &c) {
                prop_assert!(better(&p, &a, &c));
            }
        }

        #[test]
        fn composed_equiv_substitution(
            p in arb_pref(),
            a in arb_slots(),
            b in arb_slots(),
            c in arb_slots()
        ) {
            if equiv(&p, &a, &b) {
                prop_assert_eq!(better(&p, &a, &c), better(&p, &b, &c));
                prop_assert_eq!(better(&p, &c, &a), better(&p, &c, &b));
            }
        }

        /// The same three axioms for every base kind and value kind —
        /// NaN, signed zeros, wrong-typed values, `EXPLICIT` values outside
        /// the graph — over every triple of a small row set. Incremental
        /// view maintenance rests on them: in a finite set, every row that
        /// is not maximal is beaten by a maximal one.
        #[test]
        fn every_base_and_value_kind_is_a_strict_partial_order(
            p in arb_any_pref(),
            rows in proptest::collection::vec(arb_any_slots(), 3..=8)
        ) {
            for a in &rows {
                prop_assert!(!better(&p, a, a), "irreflexive: {:?}", a);
                for b in &rows {
                    if !better(&p, a, b) {
                        continue;
                    }
                    prop_assert!(!better(&p, b, a), "asymmetric: {:?} {:?}", a, b);
                    for c in &rows {
                        if better(&p, b, c) {
                            prop_assert!(better(&p, a, c), "transitive: {:?} {:?} {:?}", a, b, c);
                        }
                    }
                }
            }
        }
    }
}

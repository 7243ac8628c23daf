//! Base preference types (paper §2.2.1) and their quality semantics
//! (§2.2.3).
//!
//! Every base preference except `EXPLICIT` induces a *weak order*: tuples
//! are ranked by a numeric score where **lower is better**. This is exactly
//! what makes the paper's rewrite work — the score becomes a computed
//! `level`/`distance` column in the auxiliary relation and dominance becomes
//! plain `<`/`<=` comparisons. `EXPLICIT` is a general finite SPO given by
//! better-than edges; its dominance relation is the transitive closure of
//! those edges.

use prefsql_types::{Error, Result, Value};

/// A built-in base preference over a single attribute expression.
///
/// ```
/// use prefsql_pref::BasePref;
/// use prefsql_types::Value;
///
/// // `duration AROUND 14`: closer to 14 is better.
/// let p = BasePref::Around { target: 14.0 };
/// assert!(p.better(&Value::Int(13), &Value::Int(10)));
/// assert!(p.equiv(&Value::Int(13), &Value::Int(15))); // both distance 1
/// assert_eq!(p.distance(&Value::Int(10), None), Some(4.0));
/// assert!(p.top(&Value::Int(14), None));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum BasePref {
    /// `AROUND target`: the closer to `target` the better
    /// (distance `|v − target|`).
    Around {
        /// The desired value (numeric; dates compare by day count).
        target: f64,
    },
    /// `BETWEEN low, up`: perfect inside the interval, outside the closer
    /// to the violated limit the better.
    Between {
        /// Interval lower bound.
        low: f64,
        /// Interval upper bound.
        up: f64,
    },
    /// `LOWEST`: the smaller the better.
    Lowest,
    /// `HIGHEST`: the larger the better.
    Highest,
    /// POS: values in the set are preferred over all others (level 1 vs 2).
    Pos {
        /// The preferred values.
        values: Vec<Value>,
    },
    /// NEG: values *not* in the set are preferred (level 1 vs 2).
    Neg {
        /// The disliked values.
        values: Vec<Value>,
    },
    /// POS/POS: first-choice set (level 1), second-choice set (level 2),
    /// everything else (level 3).
    PosPos {
        /// First-choice values.
        first: Vec<Value>,
        /// Second-choice values.
        second: Vec<Value>,
    },
    /// POS/NEG: first-choice set (level 1), neutral values (level 2), the
    /// disliked set (level 3).
    PosNeg {
        /// First-choice values.
        pos: Vec<Value>,
        /// Disliked values.
        neg: Vec<Value>,
    },
    /// EXPLICIT: a finite better-than graph; dominance is its transitive
    /// closure. Values not mentioned in the graph are incomparable to all
    /// others (strict SPO semantics).
    Explicit {
        /// The user-stated `(better, worse)` edges.
        edges: Vec<(Value, Value)>,
    },
    /// CONTAINS: full-text preference — the more search terms occur in the
    /// text (case-insensitive substring match), the better.
    Contains {
        /// The search terms.
        terms: Vec<String>,
    },
}

impl BasePref {
    /// The *score* of a value: lower is better, `None` means the value does
    /// not participate in the order (NULL, wrong type, or an `EXPLICIT`
    /// preference, which is not a weak order).
    pub fn score(&self, v: &Value) -> Option<f64> {
        if v.is_null() {
            return None;
        }
        match self {
            BasePref::Around { target } => v.as_f64().map(|x| (x - target).abs()),
            BasePref::Between { low, up } => v.as_f64().map(|x| {
                if x < *low {
                    low - x
                } else if x > *up {
                    x - up
                } else {
                    0.0
                }
            }),
            BasePref::Lowest => v.as_f64(),
            BasePref::Highest => v.as_f64().map(|x| -x),
            BasePref::Pos { .. }
            | BasePref::Neg { .. }
            | BasePref::PosPos { .. }
            | BasePref::PosNeg { .. }
            | BasePref::Contains { .. } => self.level(v).map(|l| l as f64),
            BasePref::Explicit { .. } => None,
        }
    }

    /// The categorical *level* of a value (1 = best), per §2.2.3. Defined
    /// for the categorical preferences (POS/NEG families, CONTAINS,
    /// EXPLICIT); `None` for NULL or for the numeric preferences, whose
    /// quality measure is [`BasePref::distance`].
    pub fn level(&self, v: &Value) -> Option<i64> {
        if v.is_null() {
            return None;
        }
        let contains = |set: &[Value], v: &Value| set.iter().any(|s| s.key_eq(v));
        match self {
            BasePref::Pos { values } => Some(if contains(values, v) { 1 } else { 2 }),
            BasePref::Neg { values } => Some(if contains(values, v) { 2 } else { 1 }),
            BasePref::PosPos { first, second } => Some(if contains(first, v) {
                1
            } else if contains(second, v) {
                2
            } else {
                3
            }),
            BasePref::PosNeg { pos, neg } => Some(if contains(pos, v) {
                1
            } else if contains(neg, v) {
                3
            } else {
                2
            }),
            BasePref::Contains { terms } => {
                let text = v.as_str()?;
                let missing = terms
                    .iter()
                    .filter(|t| !contains_ignore_ascii_case(text, t))
                    .count() as i64;
                Some(1 + missing)
            }
            BasePref::Explicit { edges } => {
                // Values the graph does not mention are undominated.
                let graph = ExplicitGraph::new(edges);
                Some(graph.node_of(v).map_or(1, |n| graph.depth(n)))
            }
            BasePref::Around { .. }
            | BasePref::Between { .. }
            | BasePref::Lowest
            | BasePref::Highest => None,
        }
    }

    /// The numeric *distance* of a value from the preference's optimum
    /// (0 = perfect), per §2.2.3. For `LOWEST`/`HIGHEST` the optimum is
    /// data-dependent; pass the best value present as `best`.
    pub fn distance(&self, v: &Value, best: Option<&Value>) -> Option<f64> {
        match self {
            BasePref::Around { .. } | BasePref::Between { .. } => self.score(v),
            BasePref::Lowest | BasePref::Highest => {
                let s = self.score(v)?;
                let b = best.and_then(|b| self.score(b))?;
                Some(s - b)
            }
            _ => None,
        }
    }

    /// `TOP`: is the value a perfect match (§2.2.3)?
    ///
    /// For `LOWEST`/`HIGHEST`, perfection is relative to the best value
    /// present in the result, passed as `best`.
    pub fn top(&self, v: &Value, best: Option<&Value>) -> bool {
        match self {
            BasePref::Around { .. } | BasePref::Between { .. } => self.score(v) == Some(0.0),
            BasePref::Lowest | BasePref::Highest => {
                matches!(self.distance(v, best), Some(d) if d == 0.0)
            }
            _ => self.level(v) == Some(1),
        }
    }

    /// Strict better-than: `a <P b` reversed — true iff `a` is better
    /// than `b`. NULLs are incomparable to everything (keeps the SPO).
    pub fn better(&self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            BasePref::Explicit { edges } => {
                let graph = ExplicitGraph::new(edges);
                matches!(
                    (graph.node_of(a), graph.node_of(b)),
                    (Some(x), Some(y)) if graph.better(x, y)
                )
            }
            _ => match (self.score(a), self.score(b)) {
                (Some(x), Some(y)) => x < y,
                _ => false,
            },
        }
    }

    /// Substitutability: `a` and `b` are interchangeable w.r.t. this
    /// preference (same score; same value for `EXPLICIT`). Used by Pareto
    /// and prioritized composition ("equal or better").
    pub fn equiv(&self, a: &Value, b: &Value) -> bool {
        if a.is_null() && b.is_null() {
            return true;
        }
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            BasePref::Explicit { .. } => a.key_eq(b),
            _ => match (self.score(a), self.score(b)) {
                (Some(x), Some(y)) => x == y,
                _ => a.key_eq(b),
            },
        }
    }

    /// Validate internal consistency (e.g. the `EXPLICIT` graph must be
    /// cycle-free — a cyclic "better-than" graph is not a partial order,
    /// and `BETWEEN` needs `low <= up`).
    pub fn validate(&self) -> Result<()> {
        match self {
            BasePref::Between { low, up } if low > up => Err(Error::Plan(format!(
                "BETWEEN preference has low {low} > up {up}"
            ))),
            BasePref::Explicit { edges } => match ExplicitGraph::new(edges).cycle() {
                Some((a, b)) => Err(Error::Plan(format!(
                    "EXPLICIT preference graph has a cycle involving \
                     '{a}' and '{b}' — not a strict partial order"
                ))),
                None => Ok(()),
            },
            BasePref::Contains { terms } if terms.is_empty() => Err(Error::Plan(
                "CONTAINS preference needs at least one search term".into(),
            )),
            _ => Ok(()),
        }
    }

    /// The transitive closure of an `EXPLICIT` graph as `(better, worse)`
    /// pairs — also used by the rewriter to emit pairwise SQL conditions.
    pub fn explicit_closure(&self) -> Vec<(Value, Value)> {
        match self {
            BasePref::Explicit { edges } => ExplicitGraph::new(edges).pairs(),
            _ => Vec::new(),
        }
    }
}

/// Case-insensitive (ASCII) substring test without allocating — the
/// `CONTAINS` match, run once per lowered value and per two-row test.
fn contains_ignore_ascii_case(text: &str, term: &str) -> bool {
    term.is_empty()
        || text
            .as_bytes()
            .windows(term.len())
            .any(|w| w.eq_ignore_ascii_case(term.as_bytes()))
}

/// An `EXPLICIT` better-than graph with everything dominance needs
/// computed once: the distinct values it mentions (identity is
/// [`Value::key_eq`], like SQL `=` in the rewrite), the transitive
/// closure as a boolean matrix, and every node's depth.
/// [`crate::Preference::new`] builds one per `EXPLICIT` base; the
/// standalone [`BasePref`] methods build a throw-away one per call.
#[derive(Debug, Clone)]
pub(crate) struct ExplicitGraph {
    nodes: Vec<Value>,
    /// Row-major `nodes.len()²`: `closure[i * n + j]` iff node `i` is
    /// better than node `j`.
    closure: Vec<bool>,
    /// Longest chain of better values ending at each node (1 = maximal).
    depth: Vec<i64>,
}

impl ExplicitGraph {
    pub(crate) fn new(edges: &[(Value, Value)]) -> Self {
        let mut nodes: Vec<Value> = Vec::new();
        let mut index = |v: &Value| {
            nodes.iter().position(|u| u.key_eq(v)).unwrap_or_else(|| {
                nodes.push(v.clone());
                nodes.len() - 1
            })
        };
        let edges: Vec<(usize, usize)> = edges.iter().map(|(a, b)| (index(a), index(b))).collect();
        let n = nodes.len();
        let mut closure = vec![false; n * n];
        for (a, b) in edges {
            closure[a * n + b] = true;
        }
        // Warshall.
        for k in 0..n {
            for i in 0..n {
                if closure[i * n + k] {
                    for j in 0..n {
                        closure[i * n + j] |= closure[k * n + j];
                    }
                }
            }
        }
        // Every ancestor of a node has strictly fewer ancestors than the
        // node itself, so that count is a topological order (on a cyclic
        // graph — rejected by `validate` — this still terminates).
        let ancestors = |j: usize| (0..n).filter(|&i| closure[i * n + j]).count();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&j| ancestors(j));
        let mut depth = vec![1; n];
        for j in order {
            for i in 0..n {
                if closure[i * n + j] {
                    depth[j] = depth[j].max(depth[i] + 1);
                }
            }
        }
        ExplicitGraph {
            nodes,
            closure,
            depth,
        }
    }

    /// Number of distinct values the graph mentions.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node `v` is, if the graph mentions it (NULL never is).
    pub(crate) fn node_of(&self, v: &Value) -> Option<usize> {
        if v.is_null() {
            return None;
        }
        self.nodes.iter().position(|u| u.key_eq(v))
    }

    /// Is node `a` better than node `b` (transitively)?
    pub(crate) fn better(&self, a: usize, b: usize) -> bool {
        self.closure[a * self.nodes.len() + b]
    }

    /// Depth of a node in the DAG: 1 = nothing better, deeper = longer
    /// chain of better values above it.
    pub(crate) fn depth(&self, node: usize) -> i64 {
        self.depth[node]
    }

    /// Every `(better, worse)` node pair of the closure.
    fn better_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.nodes.len();
        (0..n * n)
            .filter(|&at| self.closure[at])
            .map(move |at| (at / n, at % n))
    }

    /// Two values each better than the other, if the graph is cyclic.
    fn cycle(&self) -> Option<(&Value, &Value)> {
        self.better_pairs()
            .find(|&(i, j)| self.better(j, i))
            .map(|(i, j)| (&self.nodes[i], &self.nodes[j]))
    }

    /// The closure as `(better, worse)` value pairs in `total_cmp` order.
    fn pairs(&self) -> Vec<(Value, Value)> {
        let mut v: Vec<(Value, Value)> = self
            .better_pairs()
            .map(|(i, j)| (self.nodes[i].clone(), self.nodes[j].clone()))
            .collect();
        v.sort_by(|(a1, b1), (a2, b2)| a1.total_cmp(a2).then_with(|| b1.total_cmp(b2)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn around_prefers_closer_values() {
        let p = BasePref::Around { target: 14.0 };
        assert!(p.better(&v(14), &v(13)));
        assert!(p.better(&v(13), &v(10)));
        assert!(p.better(&v(15), &v(10)));
        assert!(!p.better(&v(13), &v(15))); // both distance 1 -> equivalent
        assert!(p.equiv(&v(13), &v(15)));
        assert_eq!(p.score(&v(10)), Some(4.0));
    }

    #[test]
    fn between_interval_is_perfect_inside() {
        let p = BasePref::Between {
            low: 1500.0,
            up: 2000.0,
        };
        assert_eq!(p.score(&v(1700)), Some(0.0));
        assert_eq!(p.score(&v(1400)), Some(100.0));
        assert_eq!(p.score(&v(2200)), Some(200.0));
        assert!(p.better(&v(1500), &v(1400)));
        assert!(p.equiv(&v(1500), &v(2000)));
        assert!(p.top(&v(1999), None));
        assert!(!p.top(&v(2001), None));
    }

    #[test]
    fn between_validation() {
        assert!(BasePref::Between { low: 2.0, up: 1.0 }.validate().is_err());
        assert!(BasePref::Between { low: 1.0, up: 2.0 }.validate().is_ok());
    }

    #[test]
    fn lowest_and_highest() {
        let lo = BasePref::Lowest;
        assert!(lo.better(&v(1), &v(2)));
        let hi = BasePref::Highest;
        assert!(hi.better(&v(2), &v(1)));
        assert_eq!(lo.distance(&v(5), Some(&v(2))), Some(3.0));
        assert_eq!(hi.distance(&v(2), Some(&v(5))), Some(3.0));
        assert!(hi.top(&v(5), Some(&v(5))));
        assert!(!hi.top(&v(2), Some(&v(5))));
    }

    #[test]
    fn pos_neg_levels() {
        let pos = BasePref::Pos {
            values: vec![Value::str("java"), Value::str("C++")],
        };
        assert_eq!(pos.level(&Value::str("java")), Some(1));
        assert_eq!(pos.level(&Value::str("cobol")), Some(2));
        assert!(pos.better(&Value::str("C++"), &Value::str("cobol")));
        assert!(pos.equiv(&Value::str("java"), &Value::str("C++")));

        let neg = BasePref::Neg {
            values: vec![Value::str("downtown")],
        };
        assert_eq!(neg.level(&Value::str("suburb")), Some(1));
        assert_eq!(neg.level(&Value::str("downtown")), Some(2));
        assert!(neg.better(&Value::str("suburb"), &Value::str("downtown")));
    }

    #[test]
    fn pospos_three_levels() {
        // Oldtimer example: white else yellow.
        let p = BasePref::PosPos {
            first: vec![Value::str("white")],
            second: vec![Value::str("yellow")],
        };
        assert_eq!(p.level(&Value::str("white")), Some(1));
        assert_eq!(p.level(&Value::str("yellow")), Some(2));
        assert_eq!(p.level(&Value::str("red")), Some(3));
        assert!(p.better(&Value::str("white"), &Value::str("yellow")));
        assert!(p.better(&Value::str("yellow"), &Value::str("red")));
        assert!(p.better(&Value::str("white"), &Value::str("red")));
        assert!(p.equiv(&Value::str("red"), &Value::str("green")));
    }

    #[test]
    fn posneg_neutral_middle() {
        // Opel example: roadster else not passenger.
        let p = BasePref::PosNeg {
            pos: vec![Value::str("roadster")],
            neg: vec![Value::str("passenger")],
        };
        assert_eq!(p.level(&Value::str("roadster")), Some(1));
        assert_eq!(p.level(&Value::str("pickup")), Some(2));
        assert_eq!(p.level(&Value::str("passenger")), Some(3));
    }

    #[test]
    fn explicit_transitive_closure() {
        let p = BasePref::Explicit {
            edges: vec![
                (Value::str("red"), Value::str("blue")),
                (Value::str("blue"), Value::str("grey")),
            ],
        };
        p.validate().unwrap();
        assert!(p.better(&Value::str("red"), &Value::str("blue")));
        assert!(p.better(&Value::str("red"), &Value::str("grey"))); // transitivity
        assert!(!p.better(&Value::str("grey"), &Value::str("red")));
        // Unmentioned values are incomparable.
        assert!(!p.better(&Value::str("red"), &Value::str("green")));
        assert!(!p.better(&Value::str("green"), &Value::str("grey")));
        assert_eq!(p.explicit_closure().len(), 3);
        assert_eq!(p.level(&Value::str("red")), Some(1));
        assert_eq!(p.level(&Value::str("blue")), Some(2));
        assert_eq!(p.level(&Value::str("grey")), Some(3));
        assert_eq!(p.level(&Value::str("green")), Some(1)); // undominated
    }

    #[test]
    fn explicit_cycle_rejected() {
        let p = BasePref::Explicit {
            edges: vec![
                (Value::str("a"), Value::str("b")),
                (Value::str("b"), Value::str("c")),
                (Value::str("c"), Value::str("a")),
            ],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn contains_counts_matched_terms() {
        let p = BasePref::Contains {
            terms: vec!["skyline".into(), "pareto".into()],
        };
        assert_eq!(p.level(&Value::str("The Skyline operator")), Some(2));
        assert_eq!(
            p.level(&Value::str("skyline and PARETO optimality")),
            Some(1)
        );
        assert_eq!(p.level(&Value::str("nothing relevant")), Some(3));
        assert!(p.better(&Value::str("skyline pareto"), &Value::str("skyline only")));
        assert!(BasePref::Contains { terms: vec![] }.validate().is_err());
    }

    #[test]
    fn nulls_are_incomparable() {
        let p = BasePref::Lowest;
        assert!(!p.better(&Value::Null, &v(1)));
        assert!(!p.better(&v(1), &Value::Null));
        assert!(p.equiv(&Value::Null, &Value::Null));
        assert!(!p.equiv(&Value::Null, &v(1)));
        assert_eq!(p.score(&Value::Null), None);
    }

    #[test]
    fn date_values_score_by_day() {
        use prefsql_types::Date;
        let target = Date::parse("1999-07-03").unwrap();
        let p = BasePref::Around {
            target: target.days() as f64,
        };
        let d1 = Value::Date(Date::parse("1999-07-05").unwrap());
        assert_eq!(p.score(&d1), Some(2.0));
    }

    fn arb_base() -> impl Strategy<Value = BasePref> {
        prop_oneof![
            (-100.0f64..100.0).prop_map(|t| BasePref::Around { target: t }),
            (-100.0f64..0.0, 0.0f64..100.0).prop_map(|(l, u)| BasePref::Between { low: l, up: u }),
            Just(BasePref::Lowest),
            Just(BasePref::Highest),
            proptest::collection::vec(-5i64..5, 1..4).prop_map(|vs| BasePref::Pos {
                values: vs.into_iter().map(Value::Int).collect()
            }),
            (
                proptest::collection::vec(-5i64..0, 1..3),
                proptest::collection::vec(0i64..5, 1..3)
            )
                .prop_map(|(a, b)| BasePref::PosNeg {
                    pos: a.into_iter().map(Value::Int).collect(),
                    neg: b.into_iter().map(Value::Int).collect(),
                }),
        ]
    }

    fn arb_val() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-100i64..100).prop_map(Value::Int),
            (-100.0f64..100.0).prop_map(Value::Float),
            Just(Value::Null),
        ]
    }

    proptest! {
        // `better` must be a strict partial order on every base preference.
        #[test]
        fn better_is_irreflexive(p in arb_base(), a in arb_val()) {
            prop_assert!(!p.better(&a, &a));
        }

        #[test]
        fn better_is_asymmetric(p in arb_base(), a in arb_val(), b in arb_val()) {
            if p.better(&a, &b) {
                prop_assert!(!p.better(&b, &a));
            }
        }

        #[test]
        fn better_is_transitive(
            p in arb_base(),
            a in arb_val(),
            b in arb_val(),
            c in arb_val()
        ) {
            if p.better(&a, &b) && p.better(&b, &c) {
                prop_assert!(p.better(&a, &c));
            }
        }

        #[test]
        fn equiv_is_an_equivalence_compatible_with_better(
            p in arb_base(),
            a in arb_val(),
            b in arb_val(),
            c in arb_val()
        ) {
            prop_assert!(p.equiv(&a, &a));
            prop_assert_eq!(p.equiv(&a, &b), p.equiv(&b, &a));
            // Substitution property: equivalents relate identically.
            if p.equiv(&a, &b) {
                prop_assert_eq!(p.better(&a, &c), p.better(&b, &c));
                prop_assert_eq!(p.better(&c, &a), p.better(&c, &b));
            }
        }
    }
}

//! Maximal-set (generalized skyline) algorithms.
//!
//! Four implementations with identical semantics:
//!
//! * [`maximal_naive`] — the paper's "abstract selection method" (§3.2):
//!   keep a tuple iff no other tuple is better. O(n²) comparisons, no
//!   extra memory. This is also the computational shape of the SQL
//!   `NOT EXISTS` rewrite.
//! * [`maximal_bnl`] — block-nested-loops \[BKS01\]: maintain a window of
//!   incomparable tuples; each candidate is compared against the window,
//!   evicting dominated window entries.
//! * [`maximal_sfs`] — sort-filter-skyline: pre-sort by a topological
//!   order compatible with dominance (lexicographic over base-preference
//!   scores), then run the window filter. Sorting makes most dominated
//!   candidates die on their first window probe.
//! * [`maximal_parallel`] — the decomposable-window formulation of
//!   \[BKS01\]: partition the candidates across OS threads, skyline each
//!   partition locally, then merge-filter the union of the local
//!   skylines. Dominance is transitive, so checking survivors against
//!   the union of local skylines is exact.
//!
//! All of them run on a [`ScoreMatrix`]: the candidates' slot vectors are
//! lowered to flat score rows once, every dominance test is the
//! preference's compiled comparison program over two such rows, and the
//! SFS pre-sort orders the same rows. [`maximal_scored`] takes a matrix
//! the caller lowered itself plus the row ids that compete (all of them,
//! the `BUT ONLY` survivors, one `GROUPING` partition); the functions
//! over `&[Vec<Value>]` lower and delegate. Each call counts its directed
//! dominance tests locally — one when a window entry beats the candidate,
//! two otherwise, one per probe of the nested loop — and charges the
//! preference's counter once at the end.
//!
//! The ablation benchmark A1 compares them against the rewrite; the
//! `parallel_skyline` bench target covers the threaded window.

use crate::base::BasePref;
use crate::compose::Preference;
use crate::score::{ScoreMatrix, Verdict};
use prefsql_types::Value;

/// Which maximal-set algorithm evaluates a preference.
///
/// `Naive`, `Bnl` and `Sfs` force one implementation; [`SkylineAlgo::Auto`]
/// (the default) picks among them per evaluation with [`choose_algo`],
/// based on input cardinality and the shape of the preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkylineAlgo {
    /// The paper's abstract selection method (§3.2): O(n²) nested loop.
    Naive,
    /// Block-nested-loops \[BKS01\].
    Bnl,
    /// Sort-filter-skyline (pre-sort by a dominance-compatible order).
    Sfs,
    /// Cost-based selection among the three, per input.
    #[default]
    Auto,
}

impl SkylineAlgo {
    /// Short lowercase label (`naive`/`bnl`/`sfs`/`auto`).
    pub fn label(self) -> &'static str {
        match self {
            SkylineAlgo::Naive => "naive",
            SkylineAlgo::Bnl => "bnl",
            SkylineAlgo::Sfs => "sfs",
            SkylineAlgo::Auto => "auto",
        }
    }

    /// Parse a label produced by [`SkylineAlgo::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "naive" => Some(SkylineAlgo::Naive),
            "bnl" => Some(SkylineAlgo::Bnl),
            "sfs" => Some(SkylineAlgo::Sfs),
            "auto" => Some(SkylineAlgo::Auto),
            _ => None,
        }
    }
}

/// Below this cardinality the O(n²) nested loop wins: no window
/// bookkeeping, no pre-sort, perfect cache locality.
const NAIVE_CUTOFF: usize = 64;

/// Below this candidate count [`SkylineAlgo::Auto`] never parallelizes:
/// thread spawn + merge-filter overhead beats the window work saved.
pub const PARALLEL_CUTOFF: usize = 1024;

/// Minimum rows per partition worth dedicating a thread to.
const MIN_PARTITION: usize = 256;

/// The parallel degree [`SkylineAlgo::Auto`] runs `n` candidates at,
/// given the session's thread knob: `1` (serial) below
/// [`PARALLEL_CUTOFF`], otherwise `threads` clamped so every partition
/// keeps at least `MIN_PARTITION` (256) rows.
pub fn choose_degree(n: usize, threads: usize) -> usize {
    if threads <= 1 || n < PARALLEL_CUTOFF {
        1
    } else {
        threads.min(n / MIN_PARTITION).max(1)
    }
}

/// Cost-based algorithm selection for [`SkylineAlgo::Auto`]: pick the
/// concrete algorithm from the input cardinality `n` and the preference
/// shape. Small inputs run the naive nested loop; larger inputs run SFS
/// when every base preference is scorable (the pre-sort is then a true
/// topological order and most dominated tuples die on their first window
/// probe), and BNL otherwise (`EXPLICIT` bases have no scores, so the SFS
/// pre-sort would degenerate to an arbitrary order).
pub fn choose_algo(n: usize, pref: &Preference) -> SkylineAlgo {
    if n <= NAIVE_CUTOFF {
        SkylineAlgo::Naive
    } else if pref
        .bases()
        .iter()
        .any(|b| matches!(b, BasePref::Explicit { .. }))
    {
        SkylineAlgo::Bnl
    } else {
        SkylineAlgo::Sfs
    }
}

/// Lower `slot_vectors` and run `select` over all rows, charging the
/// tests it tallies to `pref`.
pub(crate) fn lowered(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    select: impl FnOnce(&ScoreMatrix<'_>, &[usize], &mut u64) -> Vec<usize>,
) -> Vec<usize> {
    let m = ScoreMatrix::lower(pref, slot_vectors.iter().map(Vec::as_slice));
    let mut tests = 0;
    let winners = select(&m, &m.ids(), &mut tests);
    pref.add_comparisons(tests);
    winners
}

/// Run the maximal-set selection with `algo`, resolving
/// [`SkylineAlgo::Auto`] through [`choose_algo`]. All algorithms return
/// identical index sets in input order (the cross-algorithm equivalence
/// test suites depend on that).
pub fn maximal(slot_vectors: &[Vec<Value>], pref: &Preference, algo: SkylineAlgo) -> Vec<usize> {
    maximal_with_threads(slot_vectors, pref, algo, 1)
}

/// [`maximal`] with a parallel-degree knob: [`SkylineAlgo::Auto`] runs
/// the threaded window ([`maximal_parallel`]) at the degree picked by
/// [`choose_degree`]; forced algorithms stay serial so the differential
/// suites can pin each implementation individually.
pub fn maximal_with_threads(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    algo: SkylineAlgo,
    threads: usize,
) -> Vec<usize> {
    lowered(slot_vectors, pref, |m, ids, tests| {
        select(m, ids, algo, threads, tests)
    })
}

/// [`maximal_with_threads`] over rows the caller already lowered: the
/// maximal rows among `ids` (ascending row ids of `m`), ascending.
pub fn maximal_scored(
    m: &ScoreMatrix<'_>,
    ids: &[usize],
    algo: SkylineAlgo,
    threads: usize,
) -> Vec<usize> {
    let mut tests = 0;
    let winners = select(m, ids, algo, threads, &mut tests);
    m.preference().add_comparisons(tests);
    winners
}

fn select(
    m: &ScoreMatrix<'_>,
    ids: &[usize],
    algo: SkylineAlgo,
    threads: usize,
    tests: &mut u64,
) -> Vec<usize> {
    match algo {
        SkylineAlgo::Naive => naive(m, ids, tests),
        SkylineAlgo::Bnl => bnl(m, ids, tests),
        SkylineAlgo::Sfs => sfs(m, ids, tests),
        SkylineAlgo::Auto => match choose_degree(ids.len(), threads) {
            1 => select(m, ids, choose_algo(ids.len(), m.preference()), 1, tests),
            degree => parallel(m, ids, degree, tests),
        },
    }
}

/// The external-memory engagement test for [`SkylineAlgo::Auto`] — the
/// cost model the native operator consults per input: spill when a
/// window budget is set and the estimated candidate bytes (the run
/// encoding's own size table, [`crate::external::slot_vectors_bytes`] /
/// `tuple_spill_bytes`) exceed it. Forced algorithms (`naive`/`bnl`/
/// `sfs`) always stay in memory so the differential suites can pin each
/// implementation individually.
pub fn should_spill(
    algo: SkylineAlgo,
    candidate_bytes: usize,
    window_bytes: Option<usize>,
) -> bool {
    matches!(algo, SkylineAlgo::Auto) && window_bytes.is_some_and(|b| candidate_bytes > b)
}

/// One pass of the BNL window filter over `candidates` (row ids of `m`):
/// dominated candidates are dropped, candidates evict dominated window
/// entries. One kernel call answers both directions of a probe; `tests`
/// still counts them as the directed tests they stand for. Returns the
/// window in insertion order — callers sort when they need input order.
fn window_filter(
    m: &ScoreMatrix<'_>,
    candidates: impl IntoIterator<Item = usize>,
    tests: &mut u64,
) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    'candidates: for i in candidates {
        let mut k = 0;
        while k < window.len() {
            let verdict = m.compare(window[k], i);
            if verdict == Verdict::A_WINS {
                *tests += 1;
                continue 'candidates; // dominated: drop the candidate
            }
            *tests += 2;
            if verdict == Verdict::B_WINS {
                window.swap_remove(k); // candidate evicts window entry
            } else {
                k += 1;
            }
        }
        window.push(i);
    }
    window
}

/// Parallel BNL \[BKS01\]'s decomposable window: split the candidates
/// into `threads` contiguous partitions, run the window filter on each
/// partition in its own scoped OS thread, then merge-filter the union of
/// the local skylines serially.
///
/// Exactness: `better` is a strict partial order, so if a candidate `t`
/// is dominated by some `u` outside its partition, then either `u`
/// survives its own local window, or something dominating `u` does — and
/// by transitivity that survivor dominates `t`. Checking the union of
/// local skylines therefore suffices.
///
/// The requested `threads` is honored exactly (clamped only to the
/// candidate count), so tests can force partitioning on tiny inputs;
/// cost-based clamping lives in [`choose_degree`]. Returns indices
/// sorted in input order, identical to every serial algorithm.
pub fn maximal_parallel(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    threads: usize,
) -> Vec<usize> {
    lowered(slot_vectors, pref, |m, ids, tests| {
        parallel(m, ids, threads, tests)
    })
}

fn parallel(m: &ScoreMatrix<'_>, ids: &[usize], threads: usize, tests: &mut u64) -> Vec<usize> {
    let n = ids.len();
    let degree = threads.clamp(1, n.max(1));
    if degree <= 1 {
        return bnl(m, ids, tests);
    }
    let locals: Vec<(Vec<usize>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .chunks(n.div_ceil(degree))
            .map(|part| {
                s.spawn(move || {
                    let mut tests = 0;
                    (window_filter(m, part.iter().copied(), &mut tests), tests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("skyline worker panicked"))
            .collect()
    });
    *tests += locals.iter().map(|(_, t)| t).sum::<u64>();
    let survivors = locals.into_iter().flat_map(|(window, _)| window);
    let mut merged = window_filter(m, survivors, tests);
    merged.sort_unstable();
    merged
}

/// The paper's abstract selection method: `t1` is maximal iff no `t2` in
/// the input is better. Returns indices in input order.
pub fn maximal_naive(slot_vectors: &[Vec<Value>], pref: &Preference) -> Vec<usize> {
    maximal(slot_vectors, pref, SkylineAlgo::Naive)
}

pub(crate) fn naive(m: &ScoreMatrix<'_>, ids: &[usize], tests: &mut u64) -> Vec<usize> {
    let mut dominated = |i: usize| {
        ids.iter().any(|&j| {
            j != i && {
                *tests += 1;
                m.compare(j, i) == Verdict::A_WINS
            }
        })
    };
    ids.iter().copied().filter(|&i| !dominated(i)).collect()
}

/// Block-nested-loops skyline \[BKS01\] with an unbounded window (the
/// in-memory case — the candidate sets of the paper's benchmark fit in
/// memory by construction). Returns indices sorted in input order.
pub fn maximal_bnl(slot_vectors: &[Vec<Value>], pref: &Preference) -> Vec<usize> {
    maximal(slot_vectors, pref, SkylineAlgo::Bnl)
}

fn bnl(m: &ScoreMatrix<'_>, ids: &[usize], tests: &mut u64) -> Vec<usize> {
    let mut window = window_filter(m, ids.iter().copied(), tests);
    window.sort_unstable();
    window
}

/// Sort-filter-skyline: pre-sort candidates lexicographically by their
/// score rows (NULL/unscorable slots last), which is a topological order
/// for the dominance relation of scored preferences, then run the BNL
/// window filter. Returns indices sorted in input order.
///
/// For preferences containing `EXPLICIT` bases (which have no scores) the
/// pre-sort degenerates to arbitrary order among ties; the window filter
/// still checks both dominance directions, so the result stays correct.
pub fn maximal_sfs(slot_vectors: &[Vec<Value>], pref: &Preference) -> Vec<usize> {
    maximal(slot_vectors, pref, SkylineAlgo::Sfs)
}

fn sfs(m: &ScoreMatrix<'_>, ids: &[usize], tests: &mut u64) -> Vec<usize> {
    let mut order = ids.to_vec();
    // `total_cmp` is a total order even with NaN scores, and agrees with
    // `<` on everything else (cells hold no -0.0).
    order.sort_by(|&a, &b| {
        let cells = m.row(a).iter().zip(m.row(b));
        cells
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Evictions inside the window remain possible only among sort ties
    // (EXPLICIT bases); the filter checks both directions regardless.
    let mut window = window_filter(m, order, tests);
    window.sort_unstable();
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BasePref;
    use crate::compose::PrefNode;
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

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<Value>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| Value::Int(rng.gen_range(0..50))).collect())
            .collect()
    }

    #[test]
    fn all_three_agree_on_random_pareto_inputs() {
        for seed in 0..10 {
            for d in [1, 2, 3, 5] {
                let pts = random_points(120, d, seed * 31 + d as u64);
                let p = pareto(d);
                let a = maximal_naive(&pts, &p);
                let b = maximal_bnl(&pts, &p);
                let c = maximal_sfs(&pts, &p);
                assert_eq!(a, b, "naive vs bnl, d={d} seed={seed}");
                assert_eq!(a, c, "naive vs sfs, d={d} seed={seed}");
            }
        }
    }

    #[test]
    fn agree_on_prioritized_preference() {
        let p = Preference::new(
            PrefNode::Prioritized(vec![
                PrefNode::Base { slot: 0 },
                PrefNode::Pareto(vec![PrefNode::Base { slot: 1 }, PrefNode::Base { slot: 2 }]),
            ]),
            vec![BasePref::Lowest, BasePref::Lowest, BasePref::Highest],
        )
        .unwrap();
        for seed in 0..10 {
            let pts = random_points(150, 3, seed);
            let a = maximal_naive(&pts, &p);
            let b = maximal_bnl(&pts, &p);
            let c = maximal_sfs(&pts, &p);
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn agree_with_explicit_base() {
        let p = Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Explicit {
                    edges: vec![
                        (Value::Int(0), Value::Int(1)),
                        (Value::Int(1), Value::Int(2)),
                    ],
                },
                BasePref::Lowest,
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Vec<Value>> = (0..100)
            .map(|_| {
                vec![
                    Value::Int(rng.gen_range(0..4)),
                    Value::Int(rng.gen_range(0..4)),
                ]
            })
            .collect();
        let a = maximal_naive(&pts, &p);
        let b = maximal_bnl(&pts, &p);
        let c = maximal_sfs(&pts, &p);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    /// NaN scores used to make the SFS pre-sort's comparator
    /// inconsistent (`partial_cmp(..).unwrap_or(Equal)`), which `sort_by`
    /// is allowed to answer with a panic. In the sizes `Auto` sends to
    /// serial SFS (65–1023 candidates) NaN rows are sorted like any
    /// other and stay undominated and undominating.
    #[test]
    fn sfs_sorts_nan_scores_without_panicking() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [65, 300, 1023] {
            let pts: Vec<Vec<Value>> = (0..n)
                .map(|_| {
                    (0..3)
                        .map(|_| match rng.gen_range(0..6) {
                            0 => Value::Float(f64::NAN),
                            1 => Value::Float(-f64::NAN),
                            _ => Value::Float(rng.gen_range(0..40) as f64 / 4.0),
                        })
                        .collect()
                })
                .collect();
            let p = pareto(3);
            let expected = maximal_naive(&pts, &p);
            assert_eq!(maximal_sfs(&pts, &p), expected, "n={n}");
            assert_eq!(choose_algo(n, &p), SkylineAlgo::Sfs);
            assert_eq!(maximal(&pts, &p, SkylineAlgo::Auto), expected, "n={n}");
            // A row with a NaN slot neither dominates nor is dominated.
            for (i, row) in pts.iter().enumerate() {
                if row.iter().any(|v| v.as_f64().is_some_and(f64::is_nan)) {
                    assert!(expected.contains(&i), "NaN row {i} must survive");
                }
            }
        }
    }

    #[test]
    fn maxima_of_identical_points_are_all_kept() {
        let p = pareto(2);
        let pts = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(1)],
        ];
        assert_eq!(maximal_naive(&pts, &p), vec![0, 1]);
        assert_eq!(maximal_bnl(&pts, &p), vec![0, 1]);
        assert_eq!(maximal_sfs(&pts, &p), vec![0, 1]);
    }

    #[test]
    fn anti_correlated_data_has_large_skyline() {
        // x + y = const: nothing dominates anything.
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(50 - i)])
            .collect();
        assert_eq!(maximal_bnl(&pts, &p).len(), 50);
    }

    #[test]
    fn correlated_data_has_tiny_skyline() {
        // y = x: total order, single maximum.
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        assert_eq!(maximal_bnl(&pts, &p), vec![0]);
    }

    #[test]
    fn auto_selection_matches_forced_algorithms() {
        for (n, seed) in [(20usize, 3u64), (200, 4)] {
            for d in [1, 2, 4] {
                let pts = random_points(n, d, seed);
                let p = pareto(d);
                let auto = maximal(&pts, &p, SkylineAlgo::Auto);
                assert_eq!(auto, maximal_naive(&pts, &p), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn choose_algo_heuristics() {
        let p = pareto(2);
        assert_eq!(choose_algo(10, &p), SkylineAlgo::Naive);
        assert_eq!(choose_algo(10_000, &p), SkylineAlgo::Sfs);
        let explicit = Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Explicit {
                    edges: vec![(Value::Int(0), Value::Int(1))],
                },
                BasePref::Lowest,
            ],
        )
        .unwrap();
        assert_eq!(choose_algo(10_000, &explicit), SkylineAlgo::Bnl);
    }

    #[test]
    fn parallel_agrees_with_serial_at_every_degree() {
        for seed in 0..6 {
            for d in [1, 2, 3] {
                let pts = random_points(140, d, seed * 17 + d as u64);
                let p = pareto(d);
                let serial = maximal_naive(&pts, &p);
                // Degrees beyond the candidate count must clamp, not panic.
                for threads in [1usize, 2, 3, 8, 200] {
                    assert_eq!(
                        maximal_parallel(&pts, &p, threads),
                        serial,
                        "parallel({threads}) vs naive, d={d} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_handles_degenerate_inputs() {
        let p = pareto(2);
        assert_eq!(maximal_parallel(&[], &p, 8), Vec::<usize>::new());
        let one = vec![vec![Value::Int(1), Value::Int(2)]];
        assert_eq!(maximal_parallel(&one, &p, 8), vec![0]);
        // All-identical points: every copy survives on every thread count.
        let pts = vec![vec![Value::Int(3), Value::Int(3)]; 10];
        for threads in [1, 2, 4, 16] {
            assert_eq!(
                maximal_parallel(&pts, &p, threads),
                (0..10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn parallel_agrees_with_explicit_bases() {
        let p = Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Explicit {
                    edges: vec![
                        (Value::Int(0), Value::Int(1)),
                        (Value::Int(1), Value::Int(2)),
                    ],
                },
                BasePref::Lowest,
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Vec<Value>> = (0..200)
            .map(|_| {
                vec![
                    Value::Int(rng.gen_range(0..4)),
                    Value::Int(rng.gen_range(0..4)),
                ]
            })
            .collect();
        let serial = maximal_naive(&pts, &p);
        for threads in [2, 5, 8] {
            assert_eq!(maximal_parallel(&pts, &p, threads), serial);
        }
    }

    #[test]
    fn choose_degree_cost_model() {
        // Serial below the cutoff or with a serial knob.
        assert_eq!(choose_degree(100_000, 1), 1);
        assert_eq!(choose_degree(PARALLEL_CUTOFF - 1, 8), 1);
        // Above the cutoff: the knob, clamped to MIN_PARTITION-sized work.
        assert_eq!(choose_degree(PARALLEL_CUTOFF, 2), 2);
        assert_eq!(choose_degree(64_000, 8), 8);
        assert_eq!(choose_degree(2_048, 64), 8); // 2048 / 256
        assert_eq!(choose_degree(PARALLEL_CUTOFF, 4096), 4);
    }

    #[test]
    fn maximal_with_threads_routes_by_algo_and_degree() {
        let p = pareto(2);
        let pts = random_points(PARALLEL_CUTOFF + 100, 2, 9);
        let expected = maximal_bnl(&pts, &p);
        // Auto over the cutoff with a wide knob takes the parallel path...
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Auto, 8),
            expected
        );
        // ...and stays serial when forced or when the knob is 1.
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Sfs, 8),
            expected
        );
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Auto, 1),
            expected
        );
        let small = random_points(30, 2, 10);
        assert_eq!(
            maximal_with_threads(&small, &p, SkylineAlgo::Auto, 8),
            maximal_naive(&small, &p)
        );
    }

    #[test]
    fn should_spill_requires_auto_and_an_exceeded_budget() {
        assert!(should_spill(SkylineAlgo::Auto, 10_000, Some(4_096)));
        assert!(!should_spill(SkylineAlgo::Auto, 4_000, Some(4_096)));
        assert!(!should_spill(SkylineAlgo::Auto, 10_000, None));
        // Forced algorithms never take the external path.
        for algo in [SkylineAlgo::Naive, SkylineAlgo::Bnl, SkylineAlgo::Sfs] {
            assert!(!should_spill(algo, 10_000, Some(64)));
        }
    }

    #[test]
    fn external_dispatch_under_should_spill_matches_in_memory() {
        let p = pareto(2);
        let pts = random_points(400, 2, 15);
        let expected = maximal_naive(&pts, &p);
        let bytes = crate::external::slot_vectors_bytes(&pts);
        // The budgets the engagement test fires at run the external
        // window to the same winners as the in-memory dispatch.
        assert!(should_spill(SkylineAlgo::Auto, bytes, Some(64)));
        let (got, metrics) = crate::external::maximal_external(&pts, &p, 64).unwrap();
        assert_eq!(got, expected);
        assert!(metrics.passes >= 1);
        // ...and the budgets it declines keep the in-memory result.
        assert!(!should_spill(SkylineAlgo::Auto, bytes, Some(1 << 20)));
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Auto, 1),
            expected
        );
    }

    #[test]
    fn labels_round_trip() {
        for algo in [
            SkylineAlgo::Naive,
            SkylineAlgo::Bnl,
            SkylineAlgo::Sfs,
            SkylineAlgo::Auto,
        ] {
            assert_eq!(SkylineAlgo::parse(algo.label()), Some(algo));
        }
        assert_eq!(SkylineAlgo::parse("warp"), None);
        assert_eq!(SkylineAlgo::default(), SkylineAlgo::Auto);
    }

    proptest! {
        // The defining property of the maximal set: m is in the result iff
        // nothing in the input is better than m.
        #[test]
        fn bnl_result_is_exactly_the_maximal_set(
            pts in proptest::collection::vec(
                proptest::collection::vec(0i64..10, 3),
                0..60
            )
        ) {
            let pts: Vec<Vec<Value>> =
                pts.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
            let p = pareto(3);
            let result = maximal_bnl(&pts, &p);
            for (i, cand) in pts.iter().enumerate() {
                let dominated = pts.iter().any(|o| p.better(o, cand));
                prop_assert_eq!(result.contains(&i), !dominated);
            }
        }

        #[test]
        fn sfs_agrees_with_naive(
            pts in proptest::collection::vec(
                proptest::collection::vec(0i64..8, 2),
                0..50
            )
        ) {
            let pts: Vec<Vec<Value>> =
                pts.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
            let p = pareto(2);
            prop_assert_eq!(maximal_sfs(&pts, &p), maximal_naive(&pts, &p));
        }
    }
}

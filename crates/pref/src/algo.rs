//! Maximal-set (generalized skyline) selection: one window, three ways
//! to drive it.
//!
//! The paper has one Best-Matches-Only query model (§2.2.5: perfect
//! matches first, otherwise the maximal set) and one "skyline operator in
//! the kernel" (§3.3). So does this crate: `select` is the one in-memory
//! selection rule —
//!
//! 1. the §2.2.5 perfect-match pre-pass, run once per candidate set when
//!    every base preference has a static optimum and no candidate has an
//!    unscorable slot;
//! 2. the block-nested-loops window of \[BKS01\]: each candidate is probed
//!    against a window of pairwise incomparable rows, is dropped when a
//!    window entry dominates it, and evicts the entries it dominates;
//!
//! and the window is driven
//!
//! * **serially** — one pass over the candidates ([`SkylineAlgo::Bnl`],
//!   and [`SkylineAlgo::Auto`] below [`PARALLEL_CUTOFF`]);
//! * **threaded** — \[BKS01\]'s decomposable formulation: one window per
//!   contiguous partition, each on its own scoped OS thread, then one
//!   serial pass over the union of the local windows ([`SkylineAlgo::Auto`]
//!   at the degree [`choose_degree`] picks, [`maximal_parallel`] at an
//!   exact degree);
//! * **spilled** — [`crate::external::ExternalSkyline`] bounds the window
//!   in bytes and re-feeds its overflow runs; it calls the same probe
//!   step.
//!
//! Grouped BMO ([`crate::bmo_grouped_scored`]) and incremental view
//! maintenance ([`crate::incremental`]) run the same rule over index
//! subsets of one matrix. [`SkylineAlgo::Naive`] — the paper's "abstract
//! selection method" (§3.2): keep a tuple iff no other tuple is better,
//! O(n²), the computational shape of the SQL `NOT EXISTS` rewrite — stays
//! as the oracle every differential suite compares the window against.
//!
//! Why there is nothing else: in the `a1_micro_kernel` table of the
//! `algo_micro` bench (bks01 d = 3, 32 to 45 k rows, four invocations;
//! CHANGES.md, PR 20) the serial window is ahead of the nested loop from
//! 32 rows up on independent, correlated and anti-correlated data, and a
//! sort-filter-skyline pre-sort in front of the window is behind it at
//! every tabled size from 2 k rows up (2–3× at 16 k and 45 k).
//!
//! Everything runs on a [`ScoreMatrix`]: the candidates' slot vectors are
//! lowered to flat score rows once and every dominance test is the
//! preference's kernel over two such rows.
//! [`maximal_scored`] takes a matrix the caller lowered itself plus the
//! row ids that compete (all of them, the `BUT ONLY` survivors, one
//! `GROUPING` partition) — the engine's entry point. The two over
//! `&[Vec<Value>]`, [`maximal_with_threads`] and [`maximal_parallel`],
//! lower and delegate; each says which caller keeps it. Each call counts
//! its directed dominance tests locally — one when a window entry beats
//! the candidate, two otherwise, one per probe of the nested loop — and
//! charges the preference's counter once at the end.

use crate::compose::Preference;
use crate::score::{ScoreMatrix, Verdict};
use prefsql_types::Value;

/// How the maximal-set selection of a preference is driven.
///
/// [`SkylineAlgo::Auto`] (the default) is the rule described in the
/// module docs; the other two pin one way of running it so the
/// differential suites have something fixed to compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkylineAlgo {
    /// The paper's abstract selection method (§3.2): O(n²) nested loop,
    /// no pre-pass — the oracle.
    Naive,
    /// The serial in-memory window, whatever the thread and window knobs
    /// say.
    Bnl,
    /// The window at the degree [`choose_degree`] picks, spilled when a
    /// window budget is set and exceeded.
    #[default]
    Auto,
}

impl SkylineAlgo {
    /// Short lowercase label (`naive`/`bnl`/`auto`).
    pub fn label(self) -> &'static str {
        match self {
            SkylineAlgo::Naive => "naive",
            SkylineAlgo::Bnl => "bnl",
            SkylineAlgo::Auto => "auto",
        }
    }

    /// Parse a label produced by [`SkylineAlgo::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "naive" => Some(SkylineAlgo::Naive),
            "bnl" => Some(SkylineAlgo::Bnl),
            "auto" => Some(SkylineAlgo::Auto),
            _ => None,
        }
    }
}

/// Below this candidate count [`SkylineAlgo::Auto`] stays serial.
///
/// Set from the `a1_micro_kernel` table (`pareto(3)` over bks01, seed 9,
/// two-CPU host, four invocations; median ms of the serial window → of
/// the window at degree 2), re-run after the normal-form kernel made a
/// dominance test about twice as cheap (CHANGES.md, PR 35; PR 20 has the
/// first table). Independent:
/// 2 k 0.157/0.145/0.221/0.266 → 0.231/0.221/0.293/0.292 (behind 4 of 4),
/// 4 k 0.293/0.295/0.475/0.450 → 0.405/0.344/0.416/0.494 (behind 3 of 4),
/// 16 k 1.29/1.49/1.67/1.25 → 1.20/1.69/1.46/1.58 (behind 2 of 4),
/// 45 k 3.19/4.85/3.13/4.72 → 3.26/3.09/4.09/4.45 (behind 2 of 4);
/// correlated 45 k 1.79/3.13/2.73/2.56 → 2.74/2.89/2.87/2.91 (behind
/// 3 of 4); anti-correlated 45 k 340/247/477/317 → 295/297/245/297
/// (behind 1 of 4). No tabled size has the threaded window ahead in
/// every invocation, on any distribution, so the cutoff still sits above
/// the largest tabled size; cheaper tests leave less work per partition
/// for a thread to win back (independent 45 k was behind in 1 of 4 at
/// PR 20). That host has two CPUs; it cannot speak for wider ones.
pub const PARALLEL_CUTOFF: usize = 65_536;

/// Minimum rows per partition worth dedicating a thread to. The table
/// has no row below [`PARALLEL_CUTOFF`] that could move it: at degree 2
/// every tabled partition of 256 rows up (n = 512) is behind the serial
/// window.
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

/// Lower `slot_vectors` and run `select` over all rows, charging the
/// tests it tallies to `pref`.
fn lowered(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    select: impl FnOnce(&ScoreMatrix, &[usize], &mut u64) -> Vec<usize>,
) -> Vec<usize> {
    let m = ScoreMatrix::lower(pref, slot_vectors);
    let mut tests = 0;
    let winners = select(&m, &m.ids(), &mut tests);
    pref.add_comparisons(tests);
    winners
}

/// The maximal-set selection over slot vectors it lowers itself:
/// [`SkylineAlgo::Auto`] runs the window at the degree [`choose_degree`]
/// picks, the forced algorithms stay serial so the differential suites can
/// pin them. Every [`SkylineAlgo`] returns the identical index set in input
/// order (the cross-algorithm equivalence suites depend on that).
///
/// The engine selects over a matrix it lowered ([`maximal_scored`]); this
/// entry point's only non-test caller is prefbench's staged replay, and it
/// goes with ROADMAP item 1(e).
pub fn maximal_with_threads(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    algo: SkylineAlgo,
    threads: usize,
) -> Vec<usize> {
    lowered(slot_vectors, pref, |m, ids, tests| {
        select(m, pref, ids, algo, threads, tests)
    })
}

/// [`maximal_with_threads`] over rows the caller already lowered: the
/// maximal rows among `ids` (ascending row ids of `m`), ascending.
pub fn maximal_scored(
    m: &ScoreMatrix,
    pref: &Preference,
    ids: &[usize],
    algo: SkylineAlgo,
    threads: usize,
) -> Vec<usize> {
    let mut tests = 0;
    let winners = select(m, pref, ids, algo, threads, &mut tests);
    pref.add_comparisons(tests);
    winners
}

/// The one in-memory selection rule (see the module docs): the maximal
/// rows among `ids`, ascending, with the directed tests made added to
/// `tests`.
pub(crate) fn select(
    m: &ScoreMatrix,
    pref: &Preference,
    ids: &[usize],
    algo: SkylineAlgo,
    threads: usize,
    tests: &mut u64,
) -> Vec<usize> {
    let degree = match algo {
        SkylineAlgo::Naive => return naive(m, pref, ids, tests),
        SkylineAlgo::Bnl => 1,
        SkylineAlgo::Auto => choose_degree(ids.len(), threads),
    };
    perfect_matches(m, pref, ids).unwrap_or_else(|| windowed(m, pref, ids, degree, tests))
}

/// The perfect-match pre-pass (§2.2.5, step 1): a row that is best
/// possible in every base preference dominates every row that is not, so
/// when such rows exist they *are* the maximal set and no dominance test
/// is needed. `None` when the shortcut does not apply: some base
/// preference has no static optimum (`LOWEST`/`HIGHEST`/`EXPLICIT` —
/// decided once, when the preference is compiled), some candidate has a
/// cell without a score (NULL, a wrong-typed value, a NaN — incomparable
/// to the perfect row, so it may be maximal too), or no candidate is
/// perfect.
fn perfect_matches(m: &ScoreMatrix, pref: &Preference, ids: &[usize]) -> Option<Vec<usize>> {
    let best = pref.program().perfect_row()?;
    let mut perfect = Vec::new();
    for &i in ids {
        let row = m.row(i);
        if row.iter().any(|cell| cell.is_nan()) {
            return None;
        }
        if row == best {
            perfect.push(i);
        }
    }
    (!perfect.is_empty()).then_some(perfect)
}

/// One probe of the window (the step the serial, threaded and spilled
/// windows share): `verdict_of(entry)` compares a window entry (as row
/// `a`) with the candidate (as row `b`). A dominated candidate is dropped
/// — `false` — at the first entry that beats it; entries the candidate
/// dominates are handed to `evict`; `true` means the candidate is
/// incomparable to everything left and belongs in the window. One kernel
/// call answers both directions of a probe; `tests` still counts them as
/// the directed tests they stand for.
pub(crate) fn probe<E>(
    window: &mut Vec<E>,
    mut verdict_of: impl FnMut(&E) -> Verdict,
    mut evict: impl FnMut(E),
    tests: &mut u64,
) -> bool {
    let mut k = 0;
    while k < window.len() {
        let verdict = verdict_of(&window[k]);
        if verdict == Verdict::A_WINS {
            *tests += 1;
            return false;
        }
        *tests += 2;
        if verdict == Verdict::B_WINS {
            evict(window.swap_remove(k));
        } else {
            k += 1;
        }
    }
    true
}

/// One pass of the window over `candidates` (row ids of `m`). Returns the
/// window in insertion order — callers sort when they need input order.
fn window_filter(
    m: &ScoreMatrix,
    pref: &Preference,
    candidates: impl IntoIterator<Item = usize>,
    tests: &mut u64,
) -> Vec<usize> {
    let program = pref.program();
    let mut window: Vec<usize> = Vec::new();
    for i in candidates {
        let candidate = m.row(i);
        if probe(
            &mut window,
            |&w| program.compare(m.row(w), candidate),
            |_| {},
            tests,
        ) {
            window.push(i);
        }
    }
    window
}

/// The window at an exact parallel degree, bypassing the pre-pass and
/// [`choose_degree`] (the requested `threads` is clamped only to the
/// candidate count, so tests can force partitioning on tiny inputs).
/// Returns indices sorted in input order, identical to the serial window.
///
/// Kept for the differential suites and the `algo_micro` bench: it is the
/// only way to run the threaded window below [`PARALLEL_CUTOFF`].
pub fn maximal_parallel(
    slot_vectors: &[Vec<Value>],
    pref: &Preference,
    threads: usize,
) -> Vec<usize> {
    lowered(slot_vectors, pref, |m, ids, tests| {
        windowed(m, pref, ids, threads, tests)
    })
}

/// Run the window over `ids` at `degree`: serially, or — \[BKS01\]'s
/// decomposable window — on `degree` contiguous partitions, each in its
/// own scoped OS thread, followed by one serial pass over the union of
/// the local windows.
///
/// Exactness of the threaded form: `better` is a strict partial order, so
/// if a candidate `t` is dominated by some `u` outside its partition,
/// then either `u` survives its own local window, or something
/// dominating `u` does — and by transitivity that survivor dominates
/// `t`. Checking the union of local windows therefore suffices.
fn windowed(
    m: &ScoreMatrix,
    pref: &Preference,
    ids: &[usize],
    degree: usize,
    tests: &mut u64,
) -> Vec<usize> {
    let n = ids.len();
    let degree = degree.clamp(1, n.max(1));
    let mut window = if degree == 1 {
        window_filter(m, pref, ids.iter().copied(), tests)
    } else {
        let locals: Vec<(Vec<usize>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .chunks(n.div_ceil(degree))
                .map(|part| {
                    s.spawn(move || {
                        let mut tests = 0;
                        let window = window_filter(m, pref, part.iter().copied(), &mut tests);
                        (window, tests)
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
        window_filter(m, pref, survivors, tests)
    };
    window.sort_unstable();
    window
}

/// The paper's abstract selection method ([`SkylineAlgo::Naive`]): `t1`
/// is maximal iff no `t2` among `ids` is better. Returns ids in input
/// order.
fn naive(m: &ScoreMatrix, pref: &Preference, ids: &[usize], tests: &mut u64) -> Vec<usize> {
    let mut dominated = |i: usize| {
        ids.iter().any(|&j| {
            j != i && {
                *tests += 1;
                m.compare(pref, j, i) == Verdict::A_WINS
            }
        })
    };
    ids.iter().copied().filter(|&i| !dominated(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BasePref;
    use crate::compose::arb::verdict;
    use crate::compose::PrefNode;
    use crate::score::Verdict;
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

    /// The selection `algo` runs on one thread.
    fn maximal(pts: &[Vec<Value>], p: &Preference, algo: SkylineAlgo) -> Vec<usize> {
        maximal_with_threads(pts, p, algo, 1)
    }

    #[test]
    fn every_algo_agrees_on_random_pareto_inputs() {
        for seed in 0..10 {
            for d in [1, 2, 3, 5] {
                let pts = random_points(120, d, seed * 31 + d as u64);
                let p = pareto(d);
                let a = maximal(&pts, &p, SkylineAlgo::Naive);
                let b = maximal(&pts, &p, SkylineAlgo::Bnl);
                let c = maximal(&pts, &p, SkylineAlgo::Auto);
                assert_eq!(a, b, "naive vs bnl, d={d} seed={seed}");
                assert_eq!(a, c, "naive vs auto, d={d} seed={seed}");
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
            let a = maximal(&pts, &p, SkylineAlgo::Naive);
            let b = maximal(&pts, &p, SkylineAlgo::Bnl);
            let c = maximal(&pts, &p, SkylineAlgo::Auto);
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
        let a = maximal(&pts, &p, SkylineAlgo::Naive);
        let b = maximal(&pts, &p, SkylineAlgo::Bnl);
        let c = maximal(&pts, &p, SkylineAlgo::Auto);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    /// NaN scores are stored like any other cell: at the sizes the old
    /// selection rules switched algorithms on, a row with a NaN slot
    /// neither dominates nor is dominated.
    #[test]
    fn nan_scores_stay_undominated_and_undominating() {
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
            let expected = maximal(&pts, &p, SkylineAlgo::Naive);
            assert_eq!(maximal(&pts, &p, SkylineAlgo::Bnl), expected, "n={n}");
            assert_eq!(maximal(&pts, &p, SkylineAlgo::Auto), expected, "n={n}");
            // A row with a NaN slot neither dominates nor is dominated.
            for (i, row) in pts.iter().enumerate() {
                if row.iter().any(|v| v.as_f64().is_some_and(f64::is_nan)) {
                    assert!(expected.contains(&i), "NaN row {i} must survive");
                }
            }
        }
    }

    /// AROUND 14 ⊗ POS 'java': both base preferences have a static
    /// optimum, so the §2.2.5 pre-pass can fire.
    fn around_and_pos() -> Preference {
        Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![
                BasePref::Around { target: 14.0 },
                BasePref::Pos {
                    values: vec![Value::str("java")],
                },
            ],
        )
        .unwrap()
    }

    /// Winners and directed-test count of `algo` over `rows`.
    fn tally(rows: &[Vec<Value>], p: &Preference, algo: SkylineAlgo) -> (Vec<usize>, u64) {
        let _ = p.take_comparisons();
        let winners = maximal(rows, p, algo);
        (winners, p.take_comparisons())
    }

    #[test]
    fn perfect_matches_are_returned_without_a_dominance_test() {
        let p = around_and_pos();
        let row = |x: i64, lang: &str| vec![Value::Int(x), Value::str(lang)];
        // All perfect, and perfect rows among imperfect ones.
        for rows in [
            vec![row(14, "java"); 5],
            vec![
                row(13, "java"),
                row(14, "java"),
                row(14, "cobol"),
                row(14, "java"),
            ],
        ] {
            let expected = maximal(&rows, &p, SkylineAlgo::Naive);
            for algo in [SkylineAlgo::Bnl, SkylineAlgo::Auto] {
                assert_eq!(tally(&rows, &p, algo), (expected.clone(), 0), "{algo:?}");
            }
            let (winners, tests) = tally(&rows, &p, SkylineAlgo::Naive);
            assert_eq!(winners, expected);
            assert!(tests > 0, "the oracle takes no shortcut");
        }
    }

    #[test]
    fn pre_pass_stands_aside_when_it_does_not_apply() {
        let p = around_and_pos();
        let row = |x: i64, lang: &str| vec![Value::Int(x), Value::str(lang)];
        // No perfect row; a perfect row beside a row that is incomparable
        // to it — a NULL slot, a wrong-typed value, a NaN score — which
        // must survive with it.
        let unscorable = [Value::Null, Value::str("fourteen"), Value::Float(f64::NAN)];
        let mut inputs = vec![vec![row(13, "java"), row(14, "cobol"), row(12, "cobol")]];
        for v in unscorable {
            inputs.push(vec![
                row(14, "java"),
                vec![v, Value::str("java")],
                row(12, "java"),
            ]);
        }
        for (case, rows) in inputs.iter().enumerate() {
            let expected = maximal(rows, &p, SkylineAlgo::Naive);
            if case > 0 {
                assert_eq!(expected, vec![0, 1], "case {case}");
            }
            for algo in [SkylineAlgo::Bnl, SkylineAlgo::Auto] {
                let (winners, tests) = tally(rows, &p, algo);
                assert_eq!(winners, expected, "case {case} {algo:?}");
                assert!(tests > 0, "case {case} {algo:?}: the window ran");
            }
        }
    }

    #[test]
    fn pre_pass_never_fires_with_a_data_dependent_optimum() {
        // AROUND 14 ⊗ LOWEST: row 0 is perfect in the only slot that has
        // a static optimum, and dominated all the same.
        let p = Preference::new(
            PrefNode::Pareto(vec![PrefNode::Base { slot: 0 }, PrefNode::Base { slot: 1 }]),
            vec![BasePref::Around { target: 14.0 }, BasePref::Lowest],
        )
        .unwrap();
        assert_eq!(p.program().perfect_row(), None);
        let rows = vec![
            vec![Value::Int(14), Value::Int(9)],
            vec![Value::Int(14), Value::Int(3)],
            vec![Value::Int(14), Value::Int(9)],
        ];
        for algo in [SkylineAlgo::Bnl, SkylineAlgo::Auto] {
            let (winners, tests) = tally(&rows, &p, algo);
            assert_eq!(winners, vec![1], "{algo:?}");
            assert!(tests > 0, "{algo:?}");
        }
    }

    #[test]
    fn maxima_of_identical_points_are_all_kept() {
        let p = pareto(2);
        let pts = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(1)],
        ];
        assert_eq!(maximal(&pts, &p, SkylineAlgo::Naive), vec![0, 1]);
        assert_eq!(maximal(&pts, &p, SkylineAlgo::Bnl), vec![0, 1]);
    }

    #[test]
    fn anti_correlated_data_has_large_skyline() {
        // x + y = const: nothing dominates anything.
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(50 - i)])
            .collect();
        assert_eq!(maximal(&pts, &p, SkylineAlgo::Bnl).len(), 50);
    }

    #[test]
    fn correlated_data_has_tiny_skyline() {
        // y = x: total order, single maximum.
        let p = pareto(2);
        let pts: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        assert_eq!(maximal(&pts, &p, SkylineAlgo::Bnl), vec![0]);
    }

    #[test]
    fn auto_selection_matches_forced_algorithms() {
        for (n, seed) in [(20usize, 3u64), (200, 4)] {
            for d in [1, 2, 4] {
                let pts = random_points(n, d, seed);
                let p = pareto(d);
                let auto = maximal(&pts, &p, SkylineAlgo::Auto);
                assert_eq!(auto, maximal(&pts, &p, SkylineAlgo::Naive), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn parallel_agrees_with_serial_at_every_degree() {
        for seed in 0..6 {
            for d in [1, 2, 3] {
                let pts = random_points(140, d, seed * 17 + d as u64);
                let p = pareto(d);
                let serial = maximal(&pts, &p, SkylineAlgo::Naive);
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
        let serial = maximal(&pts, &p, SkylineAlgo::Naive);
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
        assert_eq!(choose_degree(4 * PARALLEL_CUTOFF, 8), 8);
        assert_eq!(
            choose_degree(PARALLEL_CUTOFF, usize::MAX),
            PARALLEL_CUTOFF / MIN_PARTITION
        );
    }

    #[test]
    fn maximal_with_threads_routes_by_algo_and_degree() {
        let p = pareto(2);
        let pts = random_points(PARALLEL_CUTOFF + 100, 2, 9);
        let expected = maximal(&pts, &p, SkylineAlgo::Bnl);
        // Auto over the cutoff with a wide knob takes the parallel path...
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Auto, 8),
            expected
        );
        // ...and stays serial when forced or when the knob is 1.
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Bnl, 8),
            expected
        );
        assert_eq!(
            maximal_with_threads(&pts, &p, SkylineAlgo::Auto, 1),
            expected
        );
        let small = random_points(30, 2, 10);
        assert_eq!(
            maximal_with_threads(&small, &p, SkylineAlgo::Auto, 8),
            maximal(&small, &p, SkylineAlgo::Naive)
        );
    }

    #[test]
    fn labels_round_trip() {
        for algo in [SkylineAlgo::Naive, SkylineAlgo::Bnl, SkylineAlgo::Auto] {
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
            let result = maximal(&pts, &p, SkylineAlgo::Bnl);
            for (i, cand) in pts.iter().enumerate() {
                let dominated = pts.iter().any(|o| verdict(&p, o, cand) == Verdict::A_WINS);
                prop_assert_eq!(result.contains(&i), !dominated);
            }
        }
    }
}

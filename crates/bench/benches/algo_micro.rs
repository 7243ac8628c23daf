//! **A1-micro** — the maximal-set selection in isolation (no SQL layer):
//! the naive nested loop (§3.2's abstract selection method) vs the serial
//! window vs the 2-way threaded window on raw slot vectors. Complements
//! the end-to-end A1 sweep by separating algorithm cost from engine
//! overhead. Every timed call includes lowering the slot vectors to score
//! rows, as a query pays it.
//!
//! The last group prints the table `PARALLEL_CUTOFF` was set from and the
//! nested loop was retired on (ROADMAP item 3a): 32 to 45 k candidates of
//! each bks01 distribution, with the exact dominance-test count of each
//! run and the resulting `ns_per_test`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql_pref::{maximal_bnl, maximal_naive, maximal_parallel, BasePref, PrefNode, Preference};
use prefsql_types::Value;
use prefsql_workload::bks01::{points, Distribution};
use std::time::Instant;

fn pareto(d: usize) -> Preference {
    Preference::new(
        PrefNode::Pareto((0..d).map(|slot| PrefNode::Base { slot }).collect()),
        vec![BasePref::Lowest; d],
    )
    .expect("well-formed")
}

fn slot_vectors(n: usize, d: usize, dist: Distribution, seed: u64) -> Vec<Vec<Value>> {
    points(n, d, dist, seed)
        .into_iter()
        .map(|p| p.into_iter().map(Value::Float).collect())
        .collect()
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_micro_algorithms");
    group.sample_size(20);
    let d = 3;
    let pref = pareto(d);
    for n in [1_000usize, 4_000, 16_000] {
        let sv = slot_vectors(n, d, Distribution::Independent, 9);
        // The O(n²) naive method is only benched at sizes where a single
        // iteration stays sub-second.
        if n <= 4_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &sv, |b, sv| {
                b.iter(|| maximal_naive(sv, &pref).len())
            });
        }
        group.bench_with_input(BenchmarkId::new("bnl", n), &sv, |b, sv| {
            b.iter(|| maximal_bnl(sv, &pref).len())
        });
    }
    group.finish();

    // The hard case: anti-correlated data, where the window grows large.
    let mut group = c.benchmark_group("a1_micro_anticorrelated");
    group.sample_size(10);
    for n in [1_000usize, 2_000] {
        let sv = slot_vectors(n, d, Distribution::AntiCorrelated, 10);
        group.bench_with_input(BenchmarkId::new("bnl", n), &sv, |b, sv| {
            b.iter(|| maximal_bnl(sv, &pref).len())
        });
    }
    group.finish();
}

/// Median wall time of `runs` calls and the distance between their
/// quartiles, in nanoseconds.
fn median_iqr_ns(runs: usize, mut f: impl FnMut() -> usize) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let at = |q: usize| samples[(samples.len() - 1) * q / 4];
    (at(2), at(3) - at(1))
}

type Algo = fn(&[Vec<Value>], &Preference) -> Vec<usize>;

fn bench_kernel(_c: &mut Criterion) {
    println!(
        "\n── table: a1_micro_kernel (bks01 d=3, seed 9; host parallelism {}) ──",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<15} {:<12} {:>6} {:>5} {:>12} {:>10} {:>10} {:>12}",
        "distribution", "algo", "n", "runs", "tests", "ms", "iqr_ms", "ns_per_test"
    );
    let pref = pareto(3);
    let parallel2: Algo = |sv, p| maximal_parallel(sv, p, 2);
    for dist in Distribution::ALL {
        for n in [32usize, 64, 128, 512, 2_000, 4_000, 16_000, 45_000] {
            let sv = slot_vectors(n, 3, dist, 9);
            // The O(n²) nested loop is tabled up to 4 k rows only.
            for (name, algo, largest) in [
                ("naive", maximal_naive as Algo, 4_000),
                ("window", maximal_bnl as Algo, usize::MAX),
                ("parallel(2)", parallel2, usize::MAX),
            ] {
                if n > largest {
                    continue;
                }
                // The warm-up call yields the test count and sizes the
                // sample: about half a second per line, 5 to 201 calls.
                let start = Instant::now();
                algo(&sv, &pref);
                let warm = start.elapsed().as_secs_f64();
                let tests = pref.take_comparisons();
                let runs = ((0.5 / warm) as usize).clamp(5, 201) | 1;
                let (ns, iqr) = median_iqr_ns(runs, || algo(black_box(&sv), &pref).len());
                pref.take_comparisons();
                println!(
                    "{:<15} {name:<12} {n:>6} {runs:>5} {tests:>12} {:>10.4} {:>10.4} {:>12.2}",
                    dist.label(),
                    ns / 1e6,
                    iqr / 1e6,
                    ns / tests as f64
                );
            }
        }
    }
}

criterion_group!(benches, bench_algorithms, bench_kernel);
criterion_main!(benches);

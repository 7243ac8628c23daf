//! **A1-micro** — the maximal-set algorithms in isolation (no SQL layer):
//! naive nested-loop (§3.2's abstract selection method) vs BNL vs SFS on
//! raw slot vectors. Complements the end-to-end A1 sweep by separating
//! algorithm cost from engine overhead. Every timed call includes
//! lowering the slot vectors to score rows, as a query pays it.
//!
//! The last group prints the table `choose_algo` / `choose_degree` are to
//! be re-set from (ROADMAP item 3a): BNL vs SFS vs the 2-way parallel
//! window at 4 k and 16 k candidates, with the exact dominance-test count
//! of each and the resulting `ns_per_test`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql_pref::{
    maximal_bnl, maximal_naive, maximal_parallel, maximal_sfs, BasePref, PrefNode, Preference,
};
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
    for n in [1_000usize, 4_000] {
        let sv = slot_vectors(n, d, Distribution::Independent, 9);
        // The O(n²) naive method is only benched at sizes where a single
        // iteration stays sub-second.
        group.bench_with_input(BenchmarkId::new("naive", n), &sv, |b, sv| {
            b.iter(|| maximal_naive(sv, &pref).len())
        });
        group.bench_with_input(BenchmarkId::new("bnl", n), &sv, |b, sv| {
            b.iter(|| maximal_bnl(sv, &pref).len())
        });
        group.bench_with_input(BenchmarkId::new("sfs", n), &sv, |b, sv| {
            b.iter(|| maximal_sfs(sv, &pref).len())
        });
    }
    // BNL/SFS scale further; show them alone at larger n.
    {
        let n = 16_000usize;
        let sv = slot_vectors(n, d, Distribution::Independent, 9);
        group.bench_with_input(BenchmarkId::new("bnl", n), &sv, |b, sv| {
            b.iter(|| maximal_bnl(sv, &pref).len())
        });
        group.bench_with_input(BenchmarkId::new("sfs", n), &sv, |b, sv| {
            b.iter(|| maximal_sfs(sv, &pref).len())
        });
    }
    group.finish();

    // The hard case: anti-correlated data, where the window grows large.
    let mut group = c.benchmark_group("a1_micro_anticorrelated");
    group.sample_size(10);
    let pref = pareto(d);
    for n in [1_000usize, 2_000] {
        let sv = slot_vectors(n, d, Distribution::AntiCorrelated, 10);
        group.bench_with_input(BenchmarkId::new("bnl", n), &sv, |b, sv| {
            b.iter(|| maximal_bnl(sv, &pref).len())
        });
        group.bench_with_input(BenchmarkId::new("sfs", n), &sv, |b, sv| {
            b.iter(|| maximal_sfs(sv, &pref).len())
        });
    }
    group.finish();
}

/// Median wall time of `runs` calls, in nanoseconds.
fn median_ns(runs: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

type Algo = fn(&[Vec<Value>], &Preference) -> Vec<usize>;

fn bench_kernel(_c: &mut Criterion) {
    println!(
        "\n── table: a1_micro_kernel (bks01 independent d=3, seed 9; host parallelism {}) ──",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<12} {:>7} {:>12} {:>10} {:>12}",
        "algo", "n", "tests", "ms", "ns_per_test"
    );
    let pref = pareto(3);
    let parallel2: Algo = |sv, p| maximal_parallel(sv, p, 2);
    for n in [4_000usize, 16_000] {
        let sv = slot_vectors(n, 3, Distribution::Independent, 9);
        for (name, algo) in [
            ("bnl", maximal_bnl as Algo),
            ("sfs", maximal_sfs as Algo),
            ("parallel(2)", parallel2),
        ] {
            algo(&sv, &pref);
            let tests = pref.take_comparisons();
            let ns = median_ns(21, || algo(black_box(&sv), &pref).len());
            pref.take_comparisons();
            println!(
                "{name:<12} {n:>7} {tests:>12} {:>10.3} {:>12.2}",
                ns / 1e6,
                ns / tests as f64
            );
        }
    }
}

criterion_group!(benches, bench_algorithms, bench_kernel);
criterion_main!(benches);

//! **P3** — the external-memory skyline window.
//!
//! The full native preference query over the jobs and cars workloads at
//! 8 k / 64 k rows, with the external-memory window budget at ∞ (never
//! spills), 1 MiB, and 64 KiB. Bounded budgets stream the candidate set
//! through the multi-pass BNL with spill-to-disk overflow runs; the
//! cost is the extra passes plus run serialization, in exchange for a
//! materialization footprint capped at the budget.
//!
//! Numbers are recorded in the README's external-memory section. The
//! thread knob is pinned to 1 so the ablation isolates the window from
//! the parallel degree (the `parallel_skyline` bench measures that).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prefsql::{ExecutionMode, PrefSqlConnection};
use prefsql_bench::{conn_with, run};
use prefsql_workload::{cars, jobs};

const SIZES: [usize; 2] = [8_000, 64_000];

fn jobs_pref_sql() -> String {
    let soft: Vec<&str> = jobs::second_selection(0).iter().map(|&(_, s)| s).collect();
    // No pre-selection: the whole table is the candidate set.
    format!("SELECT id FROM profiles PREFERRING {}", soft.join(" AND "))
}

fn bench_window_budgets(c: &mut Criterion) {
    let mut group = c.benchmark_group("p3_external_window");
    group.sample_size(10);
    for n in SIZES {
        let workloads: [(&str, PrefSqlConnection, String); 2] = [
            ("jobs", conn_with(jobs::table(n, 41)), jobs_pref_sql()),
            (
                "cars",
                conn_with(cars::market(n, 42)),
                cars::OPEL_QUERY.to_string(),
            ),
        ];
        for (name, mut conn, sql) in workloads {
            conn.set_mode(ExecutionMode::native());
            conn.set_threads(1);
            for (label, window) in [
                ("unbounded", None),
                ("1MiB", Some(1 << 20)),
                ("64KiB", Some(64 << 10)),
            ] {
                conn.set_window_bytes(window);
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{n}"), label),
                    &sql,
                    |b, sql| b.iter(|| run(&mut conn, sql).len()),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_window_budgets);
criterion_main!(benches);

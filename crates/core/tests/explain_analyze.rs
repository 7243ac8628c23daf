//! `EXPLAIN ANALYZE` differential suite.
//!
//! The analyzed run *is* the plain run with instrumentation attached:
//! results and catalog side effects must be byte-identical, and the
//! counters it reports must match ground truth (BNL dominance
//! comparisons bounded by n², hash-join probe rows exact).

use prefsql::engine::{BackendKind, EngineCore};
use prefsql::{ExecutionMode, QueryResult, Session, SkylineAlgo};

/// A session over the paper's §3.2-style cars table.
fn seeded() -> Session {
    let mut s = Session::new();
    run(
        &mut s,
        "CREATE TABLE cars (id INTEGER NOT NULL, price INTEGER, mileage INTEGER, \
         make VARCHAR)",
    );
    run(
        &mut s,
        "INSERT INTO cars VALUES \
         (1, 40000, 15000, 'Audi'), (2, 35000, 30000, 'BMW'), \
         (3, 20000, 10000, 'VW'), (4, 20000, 60000, 'Opel'), \
         (5, 55000, 5000, 'Porsche'), (6, 35000, 30000, 'BMW')",
    );
    s
}

fn run(s: &mut Session, sql: &str) -> QueryResult {
    s.execute(sql)
        .unwrap_or_else(|e| panic!("statement failed: {sql}: {e}"))
}

/// Run `EXPLAIN ANALYZE <sql>` and return the report text.
fn analyze(s: &mut Session, sql: &str) -> String {
    match run(s, &format!("EXPLAIN ANALYZE {sql}")) {
        QueryResult::Explain(text) => text,
        other => panic!("EXPLAIN ANALYZE produced {other:?}"),
    }
}

/// Render a query's full result, ordered, for byte-level comparison.
fn dump(s: &mut Session, sql: &str) -> String {
    format!("{}", s.query(sql).expect(sql))
}

/// Pull `<label>=<number>` out of a report (first occurrence).
fn counter(text: &str, label: &str) -> u64 {
    let key = format!("{label}=");
    let at = text
        .find(&key)
        .unwrap_or_else(|| panic!("no `{key}` in:\n{text}"));
    let digits: String = text[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("counter digits")
}

const PREF_SELECT: &str =
    "SELECT id, price, mileage FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)";

#[test]
fn analyzed_select_leaves_results_byte_identical() {
    let mut plain = seeded();
    let mut analyzed = seeded();

    let expected = dump(&mut plain, PREF_SELECT);
    let report = analyze(&mut analyzed, PREF_SELECT);
    // Rewrite mode reports the rewrite plus the executed host plan.
    assert!(report.contains("Preference SQL rewrite:"), "{report}");
    assert!(report.contains("Host engine plan:"), "{report}");
    assert!(report.contains("actual rows="), "{report}");
    assert!(report.contains("Execution: returned"), "{report}");

    // The analyzed run evaluated the very same statement: re-running it
    // plainly on either session yields the same bytes.
    assert_eq!(dump(&mut analyzed, PREF_SELECT), expected);
    assert_eq!(dump(&mut plain, PREF_SELECT), expected);
}

#[test]
fn analyzed_dml_side_effects_byte_identical() {
    let mut plain = seeded();
    let mut analyzed = seeded();
    for s in [&mut plain, &mut analyzed] {
        run(
            s,
            "CREATE MATERIALIZED VIEW sky AS SELECT id, price, mileage FROM cars \
             PREFERRING LOWEST(price) AND LOWEST(mileage)",
        );
    }

    let statements = [
        "INSERT INTO cars VALUES (7, 18000, 8000, 'Skoda'), (8, 90000, 90000, 'Tank')",
        "UPDATE cars SET price = 15000 WHERE id = 4",
        "DELETE FROM cars WHERE id = 7",
    ];
    for sql in statements {
        let a = run(&mut plain, sql);
        let report = analyze(&mut analyzed, sql);
        // The analyzed run executed the DML for real and says so.
        if let QueryResult::Count(n) = a {
            assert!(
                report.contains(&format!("affected {n} row(s)")),
                "{sql}: {report}"
            );
        }
        // Base table and the incrementally-maintained view agree byte
        // for byte after every statement.
        for probe in [
            "SELECT * FROM cars ORDER BY id",
            "SELECT * FROM sky ORDER BY id",
        ] {
            assert_eq!(
                dump(&mut analyzed, probe),
                dump(&mut plain, probe),
                "diverged after {sql}"
            );
        }
    }
}

#[test]
fn bnl_dominance_comparisons_bounded_by_n_squared() {
    let mut s = seeded();
    s.set_mode(ExecutionMode::Native(SkylineAlgo::Bnl));
    let n: u64 = 6;

    let expected = dump(&mut s, PREF_SELECT);
    let expected_winners = s.query(PREF_SELECT).unwrap().len();
    let report = analyze(&mut s, PREF_SELECT);
    assert!(report.contains("Native preference plan:"), "{report}");

    // "Preference evaluation: W winner(s), C dominance comparison(s)"
    let line = report
        .lines()
        .find(|l| l.starts_with("Preference evaluation:"))
        .unwrap_or_else(|| panic!("no evaluation line in:\n{report}"));
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect();
    let (winners, comparisons) = (nums[0], nums[1]);
    assert!(comparisons >= 1, "{line}");
    assert!(comparisons <= n * n, "BNL exceeded n²: {line}");
    assert_eq!(winners as usize, expected_winners, "{line}");

    // The analyzed native run changed nothing observable.
    assert_eq!(dump(&mut s, PREF_SELECT), expected);
}

#[test]
fn hash_join_probe_rows_exact() {
    let mut s = Session::new();
    run(&mut s, "CREATE TABLE a (k INTEGER, x INTEGER)");
    run(&mut s, "CREATE TABLE b (k INTEGER, y INTEGER)");
    run(&mut s, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)");
    run(
        &mut s,
        "INSERT INTO b VALUES (1, 1), (1, 2), (2, 3), (9, 4), (9, 5)",
    );

    let report = analyze(&mut s, "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k");
    assert!(report.contains("join=hash"), "{report}");

    // In one in-memory pass the left side streams through the probe
    // exactly once: probe rows equal its cardinality, build rows the
    // right side's.
    assert_eq!(counter(&report, "build_rows"), 5, "{report}");
    assert_eq!(counter(&report, "probe_rows"), 3, "{report}");
    // Zero-valued counters are suppressed — nothing spilled, no key.
    assert!(!report.contains("spilled_rows="), "{report}");
    assert!(report.contains("Execution: returned 3 row(s)"), "{report}");
}

/// The rewrite's `NOT EXISTS` runs as one anti join: the six candidates
/// are built once and probed once each, no sub-query runs per row, and
/// `residual_tests` counts the dominance predicates evaluated — 18 with
/// match-first probing (the last partner, car 3, is tried first), where
/// walking the build in order would evaluate 24.
#[test]
fn rewrite_not_exists_is_one_anti_join() {
    let mut s = seeded();
    let report = analyze(&mut s, PREF_SELECT);
    let anti = node_line(&report, "Anti join on ");
    assert_eq!(counter(anti, "build_rows"), 6, "{report}");
    assert_eq!(counter(anti, "probe_rows"), 6, "{report}");
    assert_eq!(counter(anti, "residual_tests"), 18, "{report}");
    assert!(report.contains("Execution: returned 2 row(s)"), "{report}");
    // `prefsql_a1` and `prefsql_a2` share one materialization: the
    // second body never runs.
    assert!(report.contains("(never executed)"), "{report}");
}

/// One pull protocol, one accounting path: `actual rows=` is what the
/// node *emitted* — for a filter the selected rows, not the run of the
/// scan's buffer it selected them from — and `batches=` is the number
/// of pulls it answered, the one reporting the end included.
#[test]
fn filter_actuals_count_emitted_rows_and_pulls() {
    let mut s = seeded();
    // Two of the six cars cost less than 30 000.
    let report = analyze(&mut s, "SELECT id FROM cars WHERE price < 30000");
    for (node, rows) in [("Project:", 2), ("Filter:", 2), ("Seq scan:", 6)] {
        assert_eq!(
            counter(node_line(&report, node), "actual rows"),
            rows,
            "{report}"
        );
        // One pull carried every row, the next one found the end.
        assert_eq!(counter(node_line(&report, node), "batches"), 2, "{report}");
    }

    // Under LIMIT 1 every pull asks for one row: the scan lends rows 1,
    // 2 and 3, the filter answers those three pulls with 0, 0 and 1
    // selected rows, and the satisfied limit never pulls again.
    let report = analyze(&mut s, "SELECT id FROM cars WHERE price < 30000 LIMIT 1");
    assert_eq!(
        counter(node_line(&report, "Filter:"), "actual rows"),
        1,
        "{report}"
    );
    assert_eq!(
        counter(node_line(&report, "Filter:"), "batches"),
        3,
        "{report}"
    );
    assert_eq!(
        counter(node_line(&report, "Seq scan:"), "actual rows"),
        3,
        "{report}"
    );
    assert_eq!(
        counter(node_line(&report, "Seq scan:"), "batches"),
        3,
        "{report}"
    );
}

/// The ISSUE's acceptance scenario: a three-table hash-join preference
/// query under `EXPLAIN ANALYZE` reports per-node rows/time, the
/// dominance-comparison tally, and spill/pool counters.
#[test]
fn three_table_join_preference_query_reports_all_counters() {
    let core = EngineCore::shared();
    core.set_backend(BackendKind::Paged).unwrap();
    let mut s = Session::with_core(core);
    s.set_mode(ExecutionMode::native());
    run(
        &mut s,
        "CREATE TABLE cars (id INTEGER, dealer INTEGER, price INTEGER, mileage INTEGER)",
    );
    run(&mut s, "CREATE TABLE dealers (id INTEGER, region INTEGER)");
    run(&mut s, "CREATE TABLE regions (id INTEGER, name VARCHAR)");
    // Anti-correlated price/mileage: every car is a skyline winner, so
    // the BMO window must hold all of them — far past the 4 KiB floor —
    // and the external skyline has to spill runs.
    let mut rows = Vec::new();
    for i in 0..200 {
        rows.push(format!(
            "({i}, {}, {}, {})",
            i % 8,
            20000 + i * 50,
            100000 - i * 50
        ));
    }
    run(
        &mut s,
        &format!("INSERT INTO cars VALUES {}", rows.join(", ")),
    );
    let dealers: Vec<String> = (0..8).map(|i| format!("({i}, {})", i % 3)).collect();
    run(
        &mut s,
        &format!("INSERT INTO dealers VALUES {}", dealers.join(", ")),
    );
    run(
        &mut s,
        "INSERT INTO regions VALUES (0, 'north'), (1, 'south'), (2, 'west')",
    );

    // A window too small for 120 joined rows forces the external
    // skyline to spill runs.
    s.set_window_bytes(Some(512));
    let sql = "SELECT cars.id, cars.price, cars.mileage, regions.name \
               FROM cars JOIN dealers ON cars.dealer = dealers.id \
               JOIN regions ON dealers.region = regions.id \
               PREFERRING LOWEST(cars.price) AND LOWEST(cars.mileage)";

    let expected = dump(&mut s, sql);
    let report = analyze(&mut s, sql);

    // One annotated tree: per-node actuals from the Preference operator
    // down through the joins to the scans.
    let pref = preference_line(&report);
    assert!(pref.contains("window=4 KiB"), "{pref}");
    assert_eq!(counter(pref, "actual rows"), 200, "every car wins: {pref}");
    assert!(counter(pref, "comparisons") > 0, "{pref}");
    assert!(report.contains("join=hash"), "{report}");
    assert!(counter(&report, "probe_rows") > 0, "{report}");
    assert!(!report.contains("(never executed)"), "{report}");
    // The paper's cost unit.
    assert!(report.contains("dominance comparison(s)"), "{report}");
    // Spill and buffer-pool activity for this statement.
    assert!(report.contains("Spill: window="), "{report}");
    assert!(counter(&report, "spilled_runs") > 0, "{report}");
    assert!(report.contains("Pool: size="), "{report}");

    // Side effects: none — the analyzed run returns the same skyline.
    assert_eq!(dump(&mut s, sql), expected);

    // The forced spill landed in the session's own directory (set once on
    // the engine by `\window`), and every run file is gone again.
    let rs = s.query(sql).unwrap();
    let m = rs.spill_metrics().expect("bounded window reports metrics");
    assert!(m.runs_written > 0, "{m:?}");
    let run_dir = m.spill_dir.as_deref().expect("spilling names its dir");
    let session_dir = run_dir.parent().expect("runs live under the session dir");
    let name = session_dir.file_name().unwrap().to_string_lossy();
    assert!(name.starts_with("prefsql-session-"), "{session_dir:?}");
    assert_eq!(
        std::fs::read_dir(session_dir).unwrap().count(),
        0,
        "spill dir not empty after the statement: {session_dir:?}"
    );
}

/// The first plan line of a rendering whose node label starts with
/// `label`.
fn node_line<'r>(report: &'r str, label: &str) -> &'r str {
    report
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` node in:\n{report}"))
}

/// The `Preference (BMO, …)` line of a native plan rendering.
fn preference_line(report: &str) -> &str {
    node_line(report, "Preference (BMO")
}

/// Indentation depth of the first line containing `needle`.
fn depth_of(report: &str, needle: &str) -> usize {
    let line = report
        .lines()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no `{needle}` in:\n{report}"));
    line.len() - line.trim_start().len()
}

/// Native mode has no tail of its own: ORDER BY / DISTINCT / LIMIT are
/// the engine's Sort / Distinct / Limit nodes, stacked above `Preference`
/// in the one plan tree EXPLAIN renders.
#[test]
fn native_explain_shows_engine_tail_above_preference() {
    let mut s = seeded();
    s.set_mode(ExecutionMode::native());
    let sql = "SELECT DISTINCT make FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage) \
               ORDER BY DISTANCE(price), make LIMIT 2";
    let QueryResult::Explain(plan) = run(&mut s, &format!("EXPLAIN {sql}")) else {
        panic!("expected EXPLAIN output");
    };
    assert!(plan.starts_with("Native preference plan:\n"), "{plan}");
    let pref = depth_of(&plan, "Preference (BMO, algo=auto");
    for node in ["limit 2", "distinct", "Project: make", "sort(2 keys)"] {
        assert!(
            depth_of(&plan, node) < pref,
            "{node} not above Preference:\n{plan}"
        );
    }
    assert!(depth_of(&plan, "Seq scan: cars") > pref, "{plan}");
    // ... and the tree it shows is the tree it runs.
    assert_eq!(
        s.query(sql).unwrap().column_as_strings(0),
        vec!["VW", "Porsche"]
    );
}

/// Native `EXPLAIN ANALYZE` is the ordinary profiled execution of that
/// tree: the `Preference` line carries its own actuals and dominance
/// tally, and every node below it ran.
#[test]
fn native_analyze_annotates_the_preference_node() {
    let mut s = seeded();
    s.set_mode(ExecutionMode::Native(SkylineAlgo::Bnl));
    let report = analyze(&mut s, PREF_SELECT);
    let pref = preference_line(&report);
    let winners = s.query(PREF_SELECT).unwrap().len() as u64;
    assert_eq!(counter(pref, "actual rows"), winners, "{pref}");
    let comparisons = counter(pref, "comparisons");
    assert!((1..=36).contains(&comparisons), "BNL over 6 rows: {pref}");
    // The per-node counter and the statement footer are one tally.
    assert!(
        report.contains(&format!("{comparisons} dominance comparison(s)")),
        "{report}"
    );
    assert!(!report.contains("(never executed)"), "{report}");
    assert!(
        report.contains(&format!("Execution: returned {winners} row(s)")),
        "{report}"
    );
}

/// The §2.2.5 perfect-match pre-pass, seen from SQL: when perfect
/// matches exist among comparable candidates they are the answer and the
/// `Preference` node reports no dominance test at all — over the whole
/// candidate set, over the `BUT ONLY` survivors, and once per `GROUPING`
/// partition. `prefbench`'s `wire_short` runs the first query
/// (`hotels::table(300, 1)`): its ~240 perfect matches used to cost
/// 56 943 tests comparing them with each other.
#[test]
fn perfect_matches_cost_no_dominance_test() {
    use prefsql_workload::hotels;
    let mut s = Session::new();
    s.engine_mut()
        .catalog_mut()
        .create_table(hotels::table(300, 1))
        .unwrap();
    s.set_mode(ExecutionMode::native());
    let rewrite_agrees = |s: &mut Session, sql: &str| {
        let native = dump(s, sql);
        s.set_mode(ExecutionMode::Rewrite);
        assert_eq!(dump(s, sql), native, "{sql}");
        s.set_mode(ExecutionMode::native());
    };

    let neg = "SELECT id, price FROM hotels PREFERRING location <> 'downtown' ORDER BY id";
    let rs = s.query(neg).unwrap();
    assert!(rs.len() > 200, "{} perfect matches", rs.len());
    assert_eq!(rs.dominance_tests(), 0);
    let report = analyze(&mut s, neg);
    assert!(report.contains(", 0 dominance comparison(s)"), "{report}");
    rewrite_agrees(&mut s, neg);

    // BUT ONLY removes the rows that would have blocked the shortcut.
    run(
        &mut s,
        "INSERT INTO hotels VALUES (900, 'Nowhere', NULL, 10, 1, 1.0)",
    );
    let blocked = s.query(neg).unwrap();
    assert!(
        blocked.dominance_tests() > 0,
        "a NULL location is incomparable"
    );
    assert_eq!(blocked.len(), rs.len() + 1, "and survives");
    rewrite_agrees(&mut s, neg);
    let but_only = "SELECT id FROM hotels PREFERRING location <> 'downtown' \
                    BUT ONLY LEVEL(location) <= 1 ORDER BY id";
    let filtered = s.query(but_only).unwrap();
    assert_eq!(filtered.column_as_ints(0), rs.column_as_ints(0));
    assert_eq!(filtered.dominance_tests(), 0);
    rewrite_agrees(&mut s, but_only);
    run(&mut s, "DELETE FROM hotels WHERE id = 900");

    // Per group: every star class with a hotel outside downtown answers
    // from the pre-pass; one made up of downtown hotels alone falls
    // through to the window.
    let grouped = "SELECT id, stars FROM hotels PREFERRING location <> 'downtown' \
                   GROUPING stars ORDER BY id";
    let per_group = s.query(grouped).unwrap();
    assert_eq!(per_group.column_as_ints(0), rs.column_as_ints(0));
    assert_eq!(per_group.dominance_tests(), 0);
    run(
        &mut s,
        "INSERT INTO hotels VALUES (901, 'A', 'downtown', 10, 9, 1.0), \
         (902, 'B', 'downtown', 20, 9, 2.0)",
    );
    let with_downtown_group = s.query(grouped).unwrap();
    assert_eq!(with_downtown_group.len(), rs.len() + 2);
    assert_eq!(
        with_downtown_group.dominance_tests(),
        2,
        "one probe, both ways"
    );
    rewrite_agrees(&mut s, grouped);
}

/// A paged sequential scan names the conjuncts its page synopses are
/// checked against, and its actuals count the pages it read and skipped.
/// Ids arrive ascending, so `id = 500` reads the one page holding 500 —
/// and the filter above still sees every row of that page.
#[test]
fn paged_point_lookup_reads_one_page_and_says_so() {
    let core = EngineCore::shared();
    core.set_backend(BackendKind::Paged).unwrap();
    let mut s = Session::with_core(core);
    run(
        &mut s,
        "CREATE TABLE cars (id INTEGER NOT NULL, price INTEGER, make VARCHAR)",
    );
    let rows: Vec<String> = (0..1000)
        .map(|i| format!("({i}, {}, 'make-{}')", 20000 + i * 7 % 500, i % 13))
        .collect();
    run(
        &mut s,
        &format!("INSERT INTO cars VALUES {}", rows.join(", ")),
    );
    let sql = "SELECT price FROM cars WHERE id = 500";
    let report = analyze(&mut s, sql);
    let scan = node_line(&report, "Seq scan:");
    assert!(
        scan.trim_start()
            .starts_with("Seq scan: cars (1000 rows) [backend=paged] [prune: id = 500] ("),
        "{report}"
    );
    assert_eq!(counter(scan, "pages_read"), 1, "{report}");
    assert_eq!(counter(scan, "pages_skipped"), 9, "{report}");
    // ~37 encoded bytes a row: 109 rows share the page 500 is on.
    assert_eq!(counter(scan, "actual rows"), 109, "{report}");
    assert_eq!(
        counter(node_line(&report, "Filter:"), "actual rows"),
        1,
        "{report}"
    );
    assert_eq!(s.query(sql).unwrap().column_as_ints(0), vec![20000]);
    // Without a sarg there is nothing to prune by: every page is read.
    let report = analyze(&mut s, "SELECT price FROM cars WHERE id + 0 = 500");
    let scan = node_line(&report, "Seq scan:");
    assert!(!scan.contains("[prune"), "{report}");
    assert!(!scan.contains("pages_skipped="), "{report}");
    assert_eq!(counter(scan, "pages_read"), 10, "{report}");
    assert_eq!(counter(scan, "actual rows"), 1000, "{report}");
}

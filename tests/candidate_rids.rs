//! Rid mode of the native preference operator: a candidate is a row id
//! plus its score cells whenever the source is a chain of filters over one
//! base-table scan or index probe, and only the winners are fetched whole.
//!
//! Every case runs on the in-memory backend and on the paged backend
//! behind the smallest legal pool (four pages, so every scan evicts), and
//! its native result must equal the rewrite's. Rid-mode cases must also be
//! byte-identical, row order included, to the same statement forced onto
//! the row path (a drive pull larger than the table), and their plans must
//! say rid mode; the row-path cases (`BUT ONLY`, a join, a derived table,
//! a window budget, a source of one pull) must say the row path. Every
//! plan is walked for the scan-mask invariant: a scan decodes at least
//! the columns read above it, and the scan at the bottom of a rid-mode
//! preference's filter chain exactly those its filters and slots read.

use prefsql::{ExecutionMode, Session};
use prefsql_engine::bind::{BoundExpr, LikeOperand};
use prefsql_engine::physical::DEFAULT_BATCH;
use prefsql_engine::plan::{JoinKind, Projection};
use prefsql_engine::{BackendKind, EngineCore, NativeOptions, PlanNode, QueryPlan};
use prefsql_parser::ast::Statement;
use prefsql_types::knobs::{DEFAULT_POOL_BYTES, MIN_POOL_BYTES};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows in `cars`: more than one default drive pull, so rid mode applies
/// to a full scan, and every make probes more than one pull of row ids.
const ROWS: usize = 6_000;

/// The two backends every case runs on: label and a fresh core.
fn cores() -> [(&'static str, Arc<EngineCore>); 2] {
    [
        (
            "mem",
            Arc::new(EngineCore::with_storage(
                BackendKind::Mem,
                DEFAULT_POOL_BYTES,
            )),
        ),
        (
            "paged",
            Arc::new(EngineCore::with_storage(BackendKind::Paged, MIN_POOL_BYTES)),
        ),
    ]
}

/// A session over `core` with no window budget, whatever the environment
/// says, holding `cars` (seven columns, NULLs in `power`, a B-tree index
/// on `power`), `dealers` (one row per make) and `tiny`.
fn loaded(core: Arc<EngineCore>) -> Session {
    let mut s = Session::with_core(core);
    let unbounded = knobs(&s, None, Some(DEFAULT_BATCH));
    s.engine_mut().set_knobs(unbounded);
    run(
        &mut s,
        "CREATE TABLE cars (id INTEGER NOT NULL, make VARCHAR NOT NULL, \
         price INTEGER, power INTEGER, mileage INTEGER, color VARCHAR, note VARCHAR)",
    );
    let makes = ["audi", "bmw", "opel", "vw"];
    let colors = ["red", "blue", "black"];
    let mut state = 0x2545_f491_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % m
    };
    let rows: Vec<String> = (0..ROWS)
        .map(|id| {
            let power = match next(40) {
                0 => "NULL".to_string(),
                p => (60 + p * 5).to_string(),
            };
            format!(
                "({id}, '{}', {}, {power}, {}, '{}', 'note {id}')",
                makes[id % makes.len()],
                5_000 + next(60_000),
                next(200_000),
                colors[next(3) as usize],
            )
        })
        .collect();
    run(
        &mut s,
        &format!("INSERT INTO cars VALUES {}", rows.join(", ")),
    );
    run(&mut s, "CREATE INDEX idx_power ON cars (power) USING btree");
    run(&mut s, "CREATE TABLE dealers (make VARCHAR, city VARCHAR)");
    run(
        &mut s,
        "INSERT INTO dealers VALUES ('audi', 'Ingolstadt'), ('bmw', 'Munich'), \
         ('opel', 'Ruesselsheim'), ('vw', 'Wolfsburg')",
    );
    run(
        &mut s,
        "CREATE TABLE tiny (id INTEGER, x INTEGER, y INTEGER)",
    );
    run(
        &mut s,
        "INSERT INTO tiny VALUES (1, 3, 1), (2, 2, 2), (3, 1, 3), (4, 3, 3)",
    );
    s
}

fn run(s: &mut Session, sql: &str) {
    s.execute(sql)
        .unwrap_or_else(|e| panic!("{sql} failed: {e}"));
}

/// The session's knobs with the window budget and drive pull given.
fn knobs(s: &Session, window: Option<usize>, batch: Option<usize>) -> NativeOptions {
    NativeOptions {
        window_bytes: window,
        batch,
        ..s.engine().knobs()
    }
}

/// The rendered rows of `sql` in `mode`, sorted unless `ordered`.
fn rows(s: &mut Session, mode: ExecutionMode, sql: &str, ordered: bool) -> Vec<String> {
    s.set_mode(mode);
    let rs = s
        .query(sql)
        .unwrap_or_else(|e| panic!("{} failed on {sql}: {e}", mode.label()));
    let mut out: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
    if !ordered {
        out.sort();
    }
    out
}

/// Plan `sql` natively and return whether its preference runs in rid
/// mode, after checking the plan's scan masks.
fn rid_mode(s: &Session, sql: &str) -> bool {
    let plan = planned(s, sql);
    assert_masks_cover_reads(plan.root());
    let mut node = Some(plan.root());
    while let Some(n) = node {
        if let PlanNode::Preference { spec, .. } = n {
            return spec.rid_table.is_some();
        }
        node = n.input();
    }
    panic!("no preference node in the plan of {sql}");
}

fn planned(s: &Session, sql: &str) -> Arc<prefsql_engine::QueryPlan> {
    let Statement::Select(query) = prefsql_parser::parse_statement(sql).unwrap() else {
        panic!("expected a SELECT: {sql}");
    };
    let ctx = s.engine().read_ctx().unwrap();
    ctx.plan_for(&query).unwrap()
}

/// The mask invariant: every scan's mask — a sequential scan's, an index
/// probe's, a view scan's, and a rid-mode preference's winner fetch —
/// covers every column a node above it reads, at whatever depth the read
/// comes from: a correlated sub-query's, a semi or anti join residual's
/// left row, a `BUT ONLY` threshold's source row. A `Distinct` and the
/// statement's root read every column. And the scan at the bottom of a
/// rid-mode preference's filter chain decodes exactly what the filters,
/// slots and `GROUPING` keys read, as it always has.
fn assert_masks_cover_reads(root: &PlanNode) {
    let mut masks = HashMap::new();
    collect_masks(root, &mut masks);
    check_reads(root, &[], true, &masks);
}

/// Where an output column comes from: column `c` of the scan (or rid-mode
/// winner fetch) at plan address `s` — or nowhere, if it is computed.
type Origin = Option<(usize, usize)>;

fn addr(node: &PlanNode) -> usize {
    node as *const PlanNode as usize
}

/// Every scan's mask, and every rid-mode preference's fetch mask, by
/// node address, in every plan under `node` (sub-queries' included); and
/// the exact mask check of each rid-mode chain.
fn collect_masks(node: &PlanNode, masks: &mut HashMap<usize, Option<Vec<bool>>>) {
    match node {
        PlanNode::SeqScan { mask, .. }
        | PlanNode::IndexScan { mask, .. }
        | PlanNode::MatViewScan { mask, .. } => {
            masks.insert(addr(node), mask.clone());
        }
        PlanNode::Preference { input, spec, .. } if spec.rid_table.is_some() => {
            masks.insert(addr(node), spec.rid_mask.clone());
            let slots = spec.slots.iter().chain(&spec.groups);
            let mut read: Vec<&BoundExpr> = slots.map(|c| &c.expr).collect();
            let mut scan = input.as_ref();
            while let PlanNode::Filter { input, pred } = scan {
                read.push(&pred.expr);
                scan = input;
            }
            let width = scan.schema().len();
            let mut expected = Some(vec![false; width]);
            for e in read {
                walk(e, &mut |x| match x {
                    BoundExpr::Column { depth: 0, ordinal } => {
                        if let Some(m) = expected.as_mut() {
                            m[*ordinal] = true;
                        }
                    }
                    BoundExpr::Exists { .. }
                    | BoundExpr::InSubquery { .. }
                    | BoundExpr::ScalarSubquery(_) => expected = None,
                    _ => {}
                });
            }
            let whole = |m: &Option<Vec<bool>>| m.clone().filter(|m| m.contains(&false));
            let (PlanNode::SeqScan { mask, .. } | PlanNode::IndexScan { mask, .. }) = scan else {
                panic!("a rid-mode chain ends in a scan: {scan:?}");
            };
            assert_eq!(
                whole(mask),
                whole(&expected),
                "rid-mode scan mask: {scan:?}"
            );
        }
        _ => {}
    }
    for_each_expr(node, &mut |e, _| {
        walk(e, &mut |x| {
            if let Some((plan, _)) = subplan(x) {
                collect_masks(plan.root(), masks);
            }
        })
    });
    for child in children(node) {
        collect_masks(child, masks);
    }
}

/// The direct children of a plan node.
fn children(node: &PlanNode) -> Vec<&PlanNode> {
    match node {
        PlanNode::Join { left, right, .. } => vec![left, right],
        other => other.input().into_iter().collect(),
    }
}

/// Where each output column of `node` comes from.
fn origins(node: &PlanNode) -> Vec<Origin> {
    let width = node.schema().len();
    let own = |n: usize| (0..n).map(|c| Some((addr(node), c)));
    match node {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } | PlanNode::MatViewScan { .. } => {
            own(width).collect()
        }
        PlanNode::Project {
            input, projections, ..
        } => {
            let from = origins(input);
            let of = |p: &Projection| match p {
                Projection::Passthrough(j) => from[*j],
                Projection::Computed(_) => None,
            };
            projections.iter().map(of).collect()
        }
        PlanNode::Join {
            kind, left, right, ..
        } => {
            let mut out = origins(left);
            if *kind == JoinKind::Inner {
                out.extend(origins(right));
            }
            out
        }
        PlanNode::Preference { input, spec, .. } if spec.rid_table.is_some() => {
            let w = input.schema().len();
            own(w).chain((w..width).map(|_| None)).collect()
        }
        PlanNode::Preference { input, .. } | PlanNode::Aggregate { input, .. } => {
            let mut out = origins(input);
            out.resize(width, None);
            out
        }
        PlanNode::Nothing { .. } => Vec::new(),
        other => origins(other.input().expect("a single-input node")),
    }
}

/// Check every read under `node` against the masks. `scope` holds the
/// origins of the enclosing rows, innermost first (a sub-query's outer
/// rows); `whole` says whether `node`'s own consumer reads all of it.
fn check_reads(
    node: &PlanNode,
    scope: &[Vec<Origin>],
    whole: bool,
    masks: &HashMap<usize, Option<Vec<bool>>>,
) {
    let covered = |origin: Origin, what: &dyn std::fmt::Debug| {
        if let Some((at, c)) = origin {
            if let Some(Some(mask)) = masks.get(&at) {
                assert!(mask[c], "column {c} is read ({what:?}) but masked out");
            }
        }
    };
    if whole || matches!(node, PlanNode::Distinct { .. }) {
        let read = match node {
            PlanNode::Distinct { input } => origins(input),
            _ => origins(node),
        };
        read.into_iter().for_each(|o| covered(o, &"a whole row"));
    }
    // The frames an expression of `node` sees, innermost first.
    let input = |n: &PlanNode| origins(n);
    for_each_expr(node, &mut |e, frames_of| {
        let mut frames: Vec<Vec<Origin>> = match (node, frames_of) {
            (
                PlanNode::Join {
                    kind, left, right, ..
                },
                Frames::Residual,
            ) => match kind {
                JoinKind::Inner => {
                    let mut both = input(left);
                    both.extend(input(right));
                    vec![both]
                }
                _ => vec![input(right), input(left)],
            },
            (PlanNode::Join { left, .. }, Frames::LeftKey) => vec![input(left)],
            (PlanNode::Join { right, .. }, Frames::RightKey) => vec![input(right)],
            (
                PlanNode::Preference {
                    input: i, schema, ..
                },
                Frames::ButOnly,
            ) => {
                let quality = schema.len() - i.schema().len();
                vec![vec![None; quality], input(i)]
            }
            (other, _) => vec![other.input().map(input).unwrap_or_default()],
        };
        frames.extend_from_slice(scope);
        walk(e, &mut |x| {
            if let BoundExpr::Column { depth, ordinal } = x {
                let origin = frames.get(*depth).and_then(|f| f.get(*ordinal)).copied();
                covered(origin.flatten(), x);
            }
            if let Some((plan, whole)) = subplan(x) {
                check_reads(plan.root(), &frames, whole, masks);
            }
        });
    });
    for child in children(node) {
        check_reads(child, scope, false, masks);
    }
}

/// Which frames an expression of a node is bound over.
enum Frames {
    /// The node's input row.
    Input,
    /// A join's combined row, or a semi/anti join's right then left row.
    Residual,
    LeftKey,
    RightKey,
    /// A preference's quality values, then its source row.
    ButOnly,
}

/// Every expression a node holds (aggregate call arguments aside), with
/// the frames it is bound over.
fn for_each_expr(node: &PlanNode, f: &mut dyn FnMut(&BoundExpr, Frames)) {
    match node {
        PlanNode::Filter { pred, .. } => f(&pred.expr, Frames::Input),
        PlanNode::Project { projections, .. } => {
            for p in projections {
                if let Projection::Computed(b) = p {
                    f(&b.expr, Frames::Input);
                }
            }
        }
        PlanNode::Sort { keys, .. } => keys.iter().for_each(|k| f(&k.key.expr, Frames::Input)),
        PlanNode::Join { keys, residual, .. } => {
            for (l, r) in keys {
                f(&l.expr, Frames::LeftKey);
                f(&r.expr, Frames::RightKey);
            }
            if let Some(r) = residual {
                f(&r.expr, Frames::Residual);
            }
        }
        PlanNode::Preference { spec, .. } => {
            for c in spec.slots.iter().chain(&spec.groups) {
                f(&c.expr, Frames::Input);
            }
            if let Some(c) = &spec.but_only {
                f(&c.expr, Frames::ButOnly);
            }
        }
        PlanNode::Aggregate { spec, .. } => {
            spec.group_by.iter().for_each(|c| f(&c.expr, Frames::Input));
        }
        _ => {}
    }
}

/// The plan of a sub-query node, and whether its rows are read (all but
/// a first-row `EXISTS` probe's).
fn subplan(e: &BoundExpr) -> Option<(&QueryPlan, bool)> {
    match e {
        BoundExpr::Exists {
            plan, first_row, ..
        } => Some((plan, !*first_row)),
        BoundExpr::InSubquery { plan, .. } | BoundExpr::ScalarSubquery(plan) => Some((plan, true)),
        _ => None,
    }
}

/// Call `f` on `e` and every sub-expression (not into sub-query plans).
fn walk(e: &BoundExpr, f: &mut dyn FnMut(&BoundExpr)) {
    f(e);
    let kids: Vec<&BoundExpr> = match e {
        BoundExpr::Literal(_)
        | BoundExpr::Column { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::ScalarSubquery(_) => Vec::new(),
        BoundExpr::Neg(a)
        | BoundExpr::Not(a)
        | BoundExpr::IsNull { expr: a, .. }
        | BoundExpr::InSubquery { expr: a, .. } => vec![a],
        BoundExpr::And(a, b)
        | BoundExpr::Or(a, b)
        | BoundExpr::Arith {
            left: a, right: b, ..
        }
        | BoundExpr::Compare {
            left: a, right: b, ..
        } => vec![a, b],
        BoundExpr::Between {
            expr, low, high, ..
        } => vec![expr, low, high],
        BoundExpr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
        BoundExpr::Like { expr, pattern, .. } => match pattern {
            LikeOperand::Dynamic(p) => vec![expr, p],
            LikeOperand::Fixed(_) => vec![expr],
        },
        BoundExpr::Case {
            operand,
            branches,
            else_result,
        } => {
            let mut kids: Vec<&BoundExpr> =
                operand.iter().chain(else_result).map(|b| &**b).collect();
            kids.extend(branches.iter().flat_map(|(w, t)| [w, t]));
            kids
        }
        BoundExpr::Call { args, .. } => args.iter().collect(),
    };
    for k in kids {
        walk(k, f);
    }
}

/// The statement agrees across modes and backends, and takes the
/// candidate path `rid` says; a rid-mode statement is also identical,
/// order included, to the row path forced by a drive pull wider than
/// the table. Returns the native rows of the last backend.
fn check(sql: &str, ordered: bool, rid: bool) -> Vec<String> {
    let mut per_backend = Vec::new();
    for (label, core) in cores() {
        let mut s = loaded(core);
        assert_eq!(rid_mode(&s, sql), rid, "{label}: candidate path of {sql}");
        let native = rows(&mut s, ExecutionMode::native(), sql, true);
        let rewrite = rows(&mut s, ExecutionMode::Rewrite, sql, ordered);
        let mut sorted = native.clone();
        if !ordered {
            sorted.sort();
        }
        assert_eq!(
            sorted, rewrite,
            "{label}: native and rewrite differ on {sql}"
        );
        if rid {
            let row_path = knobs(&s, None, Some(2 * ROWS));
            s.engine_mut().set_knobs(row_path);
            assert!(!rid_mode(&s, sql), "a pull wider than the table");
            let by_rows = rows(&mut s, ExecutionMode::native(), sql, true);
            assert_eq!(
                native, by_rows,
                "{label}: rid mode and row path differ on {sql}"
            );
        }
        per_backend.push(native);
    }
    assert_eq!(per_backend[0], per_backend[1], "backends differ on {sql}");
    let native = per_backend.pop().expect("two backends");
    assert!(!native.is_empty(), "{sql} selected nothing");
    native
}

/// `SELECT *` over a masked scan: the scan decodes price, mileage and
/// power only, yet every winner comes back whole — no NULL leaks into
/// the columns the mask left out.
#[test]
fn select_star_winners_come_back_whole() {
    let sql = "SELECT * FROM cars WHERE price < 40000 \
               PREFERRING LOWEST(mileage) AND HIGHEST(power)";
    let rows = check(sql, false, true);
    for row in &rows {
        // (id, make, price, power, mileage, color, note): `note` is
        // 'note <id>' and `make` and `color` are never NULL.
        let fields: Vec<&str> = row
            .trim_matches(|c| c == '(' || c == ')')
            .split(", ")
            .collect();
        assert_eq!(fields[6], format!("note {}", fields[0]), "{row}");
        assert!(fields[1] != "NULL" && fields[5] != "NULL", "{row}");
    }
    for (_, core) in cores() {
        let s = loaded(core);
        let plan = planned(&s, sql);
        let mut node = plan.root();
        while !matches!(node, PlanNode::SeqScan { .. }) {
            node = node.input().expect("a chain down to the scan");
        }
        let PlanNode::SeqScan { mask, .. } = node else {
            unreachable!()
        };
        // id, make, price, power, mileage, color, note
        let read = [false, false, true, true, true, false, false];
        assert_eq!(mask.as_deref(), Some(&read[..]));
    }
}

#[test]
fn grouping_runs_in_rid_mode() {
    check(
        "SELECT id, make, price, power FROM cars WHERE mileage < 150000 \
         PREFERRING LOWEST(price) AND HIGHEST(power) GROUPING make",
        false,
        true,
    );
}

#[test]
fn quality_functions_in_select_and_order_by() {
    check(
        "SELECT id, DISTANCE(price), TOP(power), LEVEL(color) FROM cars \
         PREFERRING price AROUND 20000 AND HIGHEST(power) AND color IN ('red') \
         ORDER BY DISTANCE(price), id",
        true,
        true,
    );
}

/// A B-tree range probe feeds candidates in key order, not row-id order;
/// rid mode keeps it (the row-path comparison includes the order).
#[test]
fn index_probe_source_keeps_key_order() {
    let sql = "SELECT id, power, price FROM cars WHERE power >= 100 \
               PREFERRING LOWEST(price) AND LOWEST(mileage)";
    for (_, core) in cores() {
        let s = loaded(core);
        let plan = planned(&s, sql);
        let mut node = plan.root();
        while !matches!(node, PlanNode::IndexScan { .. }) {
            node = node.input().expect("a chain down to the probe");
        }
    }
    check(sql, false, true);
}

/// Under a 4 KiB window the candidates spill, and a spill run holds rows:
/// the statement takes the row path and returns what the unbounded
/// rid-mode run returns.
#[test]
fn a_spilling_window_run_matches_the_rid_mode_run() {
    let sql = "SELECT * FROM cars \
               PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(power) AND HIGHEST(id)";
    let unbounded = check(sql, false, true);
    for (label, core) in cores() {
        let mut s = loaded(core);
        let windowed = knobs(&s, Some(4096), Some(DEFAULT_BATCH));
        s.engine_mut().set_knobs(windowed);
        assert!(!rid_mode(&s, sql), "{label}: a budget keeps the row path");
        s.set_mode(ExecutionMode::native());
        let rs = s.query(sql).unwrap();
        let m = rs.spill_metrics().expect("a budgeted run reports metrics");
        assert!(m.runs_written >= 1, "{label}: {m:?}");
        let got: Vec<String> = rs.rows().iter().map(|r| r.to_string()).collect();
        assert_eq!(got, unbounded, "{label}: the window changed the result");
    }
}

#[test]
fn but_only_keeps_the_row_path() {
    check(
        "SELECT id, price FROM cars PREFERRING price AROUND 20000 AND HIGHEST(power) \
         BUT ONLY DISTANCE(price) <= 5000",
        false,
        false,
    );
}

#[test]
fn a_join_source_keeps_the_row_path() {
    check(
        "SELECT c.id, d.city FROM cars c, dealers d WHERE c.make = d.make \
         PREFERRING LOWEST(c.price) AND HIGHEST(c.power)",
        false,
        false,
    );
}

#[test]
fn a_derived_table_source_keeps_the_row_path() {
    check(
        "SELECT id, price FROM (SELECT * FROM cars WHERE mileage > 1000) AS x \
         PREFERRING LOWEST(price) AND HIGHEST(power)",
        false,
        false,
    );
}

#[test]
fn a_source_of_one_pull_keeps_the_row_path() {
    check(
        "SELECT * FROM tiny PREFERRING LOWEST(x) AND LOWEST(y)",
        false,
        false,
    );
}

/// Plain SQL, sub-queries, views and every preference shape above: every
/// scan mask covers what the plan reads, and a rid-mode chain's is exact.
#[test]
fn scan_masks_cover_every_column_read_above() {
    for (_, core) in cores() {
        let mut s = loaded(core);
        run(
            &mut s,
            "CREATE VIEW cheap AS SELECT * FROM cars WHERE price < 20000",
        );
        for sql in [
            "SELECT * FROM cars WHERE price < 20000",
            "SELECT id FROM cars WHERE power >= 100 ORDER BY price LIMIT 5",
            "SELECT make, COUNT(*) FROM cars GROUP BY make",
            "SELECT c.id FROM cars c, dealers d WHERE c.make = d.make",
            "SELECT id FROM cars c WHERE EXISTS (SELECT * FROM dealers d WHERE d.make = c.make)",
            "SELECT id FROM cars WHERE price IN (SELECT price FROM cars WHERE power > 200)",
            "SELECT * FROM cheap",
            "SELECT id FROM cheap PREFERRING LOWEST(price)",
            "SELECT id FROM cars WHERE price < (SELECT AVG(price) FROM cars) \
             PREFERRING LOWEST(mileage)",
            "SELECT id FROM cars c WHERE EXISTS (SELECT * FROM dealers d WHERE d.make = c.make) \
             PREFERRING LOWEST(price)",
            "SELECT id FROM cars PREFERRING LOWEST(price) BUT ONLY TOP(price)",
        ] {
            assert_masks_cover_reads(planned(&s, sql).root());
        }
    }
}

/// The `actual rows=` of the first plan line starting with `label`.
fn actual_rows(report: &str, label: &str) -> u64 {
    let line = (report.lines())
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no {label} line in:\n{report}"));
    let at = line.find("actual rows=").expect("an analyzed line") + "actual rows=".len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("row count digits")
}

/// Rid mode changes no EXPLAIN text, and under it the scan and the
/// filter still run as operators: EXPLAIN ANALYZE reports their exact
/// row counts, as on the row path.
#[test]
fn explain_is_unchanged_and_analyze_counts_the_scan_and_filter() {
    let sql = "SELECT id FROM cars WHERE mileage < 100000 \
               PREFERRING LOWEST(price) AND HIGHEST(power)";
    for (label, core) in cores() {
        let mut s = loaded(core);
        s.set_mode(ExecutionMode::native());
        let passing = s
            .query("SELECT COUNT(*) FROM cars WHERE mileage < 100000")
            .unwrap()
            .rows()[0][0]
            .as_int()
            .unwrap() as u64;
        let mut reports = Vec::new();
        for (batch, rid) in [(Some(DEFAULT_BATCH), true), (Some(2 * ROWS), false)] {
            let k = knobs(&s, None, batch);
            s.engine_mut().set_knobs(k);
            assert_eq!(rid_mode(&s, sql), rid, "{label}");
            let explain = match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
                prefsql::QueryResult::Explain(text) => text,
                other => panic!("EXPLAIN produced {other:?}"),
            };
            let analyzed = match s.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
                prefsql::QueryResult::Explain(text) => text,
                other => panic!("EXPLAIN ANALYZE produced {other:?}"),
            };
            assert_eq!(actual_rows(&analyzed, "Seq scan"), ROWS as u64, "{label}");
            assert_eq!(actual_rows(&analyzed, "Filter"), passing, "{label}");
            reports.push(explain);
        }
        assert_eq!(reports[0], reports[1], "{label}: EXPLAIN differs by path");
    }
}

// ------------------------------------------------------------------ DML
//
// UPDATE and DELETE find their targets through the same planner: the
// access path a SELECT takes under one filter, whose lent row ids are the
// targets. The scan decodes only the predicate's columns; every target
// row is fetched whole by row id.

/// The text of `EXPLAIN [ANALYZE] …` of `sql`.
fn explained(s: &mut Session, sql: &str) -> String {
    match s.execute(sql) {
        Ok(prefsql::QueryResult::Explain(text)) => text,
        other => panic!("{sql} produced {other:?}"),
    }
}

/// The affected count and the whole of `cars` after `sql`, which must
/// agree with indexes on and off and on both backends. A hash index on
/// `make` joins the B-tree on `power`, so an equality on either column
/// is answered by a probe when indexes are on and by the masked scan
/// when they are off. A materialized preference view over `cars` is
/// maintained off the targets' row ids, ascending, and must still serve
/// what the cold BMO computes.
fn dml(sql: &str) -> (usize, Vec<String>) {
    let pref = "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)";
    let mut outcomes = Vec::new();
    for indexed in [true, false] {
        for (label, core) in cores() {
            let mut s = loaded(core);
            run(&mut s, "CREATE INDEX idx_make ON cars (make) USING hash");
            run(
                &mut s,
                &format!("CREATE MATERIALIZED PREFERENCE VIEW best AS {pref}"),
            );
            s.engine_mut().set_use_indexes(indexed);
            let n = match s.execute(sql) {
                Ok(prefsql::QueryResult::Count(n)) => n,
                other => panic!("{label}: {sql} produced {other:?}"),
            };
            s.engine_mut().set_use_indexes(true);
            let all = rows(
                &mut s,
                ExecutionMode::Rewrite,
                "SELECT * FROM cars ORDER BY id",
                true,
            );
            let served = rows(&mut s, ExecutionMode::Rewrite, "SELECT * FROM best", false);
            let cold = rows(&mut s, ExecutionMode::Rewrite, pref, false);
            assert_eq!(
                served, cold,
                "{label}, indexes {indexed}: the view after {sql}"
            );
            outcomes.push((format!("{label}, indexes {indexed}"), n, all));
        }
    }
    let (first, n, all) = outcomes.swap_remove(0);
    for (label, m, other) in outcomes {
        assert_eq!(m, n, "{label} and {first} count differently on {sql}");
        assert!(
            other == all,
            "{label} and {first} leave different rows after {sql}"
        );
    }
    assert!(n > 0, "{sql} targets no row");
    (n, all)
}

/// The SET reads `mileage`, which the predicate does not: the scan's mask
/// leaves it out, yet the new row is built from the whole fetched row —
/// no NULL leaks into it.
#[test]
fn update_set_reads_columns_outside_the_predicate_mask() {
    let (n, all) = dml("UPDATE cars SET price = mileage WHERE make = 'opel'");
    assert_eq!(n, ROWS / 4);
    for row in &all {
        // (id, make, price, power, mileage, color, note)
        let fields: Vec<&str> = row
            .trim_matches(|c| c == '(' || c == ')')
            .split(", ")
            .collect();
        assert_eq!(fields[6], format!("note {}", fields[0]), "{row}");
        assert!(fields[5] != "NULL", "{row}");
        if fields[1] == "opel" {
            assert_eq!(fields[2], fields[4], "{row}");
        }
    }
}

/// A sub-query in the WHERE leaves the scan unmasked; an uncorrelated
/// `IN` and a correlated `EXISTS` are both checked per row in the filter.
#[test]
fn delete_with_sub_queries_in_the_predicate() {
    let (n, all) = dml(
        "DELETE FROM cars WHERE make IN (SELECT make FROM dealers WHERE city <> 'Munich') \
         AND price < 30000",
    );
    assert_eq!(all.len(), ROWS - n);
    let (n, all) = dml("DELETE FROM cars WHERE mileage < 100000 AND EXISTS \
         (SELECT 1 FROM dealers d WHERE d.make = cars.make AND d.city = 'Munich')");
    assert_eq!(all.len(), ROWS - n);
    assert!(n < ROWS / 4, "only bmw rows go");
}

/// A B-tree range probe yields its candidates in key order; the rows
/// and the view it leaves are the scan's.
#[test]
fn a_range_probe_target_matches_the_scan() {
    for (label, core) in cores() {
        let mut s = loaded(core);
        let plan = explained(
            &mut s,
            "EXPLAIN DELETE FROM cars WHERE power BETWEEN 100 AND 150",
        );
        assert!(
            plan.contains("Index probe: cars via btree index on power"),
            "{label}: {plan}"
        );
    }
    let (n, all) = dml("DELETE FROM cars WHERE power BETWEEN 100 AND 150");
    assert_eq!(all.len(), ROWS - n);
    let (n, all) = dml("UPDATE cars SET note = 'tuned' WHERE power >= 250");
    let tuned = all.iter().filter(|r| r.ends_with(", tuned)")).count();
    assert_eq!(tuned, n);
}

/// Without a WHERE every row is a target, and nothing is scanned.
#[test]
fn delete_without_where_empties_the_table() {
    let (n, all) = dml("DELETE FROM cars");
    assert_eq!((n, all.len()), (ROWS, 0));
}

/// A view is no DML target: the error is the catalog's, as before, and
/// EXPLAIN plans no target for it either.
#[test]
fn dml_against_a_view_fails_as_before() {
    for (label, core) in cores() {
        let mut s = loaded(core);
        run(
            &mut s,
            "CREATE VIEW cheap AS SELECT * FROM cars WHERE price < 20000",
        );
        for sql in [
            "DELETE FROM cheap WHERE price < 10000",
            "DELETE FROM cheap",
            "UPDATE cheap SET price = 0 WHERE id = 1",
        ] {
            for sql in [sql.to_string(), format!("EXPLAIN {sql}")] {
                let err = s.execute(&sql).expect_err(&sql);
                assert_eq!(
                    err.to_string(),
                    "catalog error: unknown table 'cheap'",
                    "{label}: {sql}"
                );
            }
        }
        let left = rows(
            &mut s,
            ExecutionMode::Rewrite,
            "SELECT COUNT(*) FROM cars",
            true,
        );
        assert_eq!(left, vec![format!("({ROWS})")], "{label}");
    }
}

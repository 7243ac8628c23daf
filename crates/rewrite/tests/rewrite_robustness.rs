//! Robustness: the rewriter must never panic. Every statement that
//! parses is either rewritten, passed through, handled, or refused with a
//! typed error. The inputs are the parser's own never-panic generators
//! (arbitrary UTF-8 and SQL token soup), where little parses, and
//! preference statements assembled from random parts, where most does.

use prefsql_parser::{parse_statement, parse_statements};
use prefsql_rewrite::Rewriter;
use prefsql_types::Error;
use proptest::prelude::*;

#[path = "../../parser/tests/generators/mod.rs"]
mod generators;
use generators::{arbitrary_utf8, sql_token_soup};

/// Feed every statement of `input` that parses to one rewriter, in order
/// (so a `CREATE PREFERENCE` registers for the statements after it).
fn process_all(input: &str) {
    let mut rewriter = Rewriter::new();
    let stmts = parse_statements(input).or_else(|_| parse_statement(input).map(|s| vec![s]));
    for stmt in stmts.into_iter().flatten() {
        let _ = rewriter.process(&stmt);
    }
}

/// What a base preference scores or a quality function names: a
/// column, a qualified column, or an expression of any type.
fn attribute() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("c1"),
        Just("c2"),
        Just("t.c1"),
        Just("d.c2"),
        Just("u.c1"),
        Just("(c1 + 1)"),
        Just("(c2 * -1)"),
        Just("ABS(c2)"),
        Just("LEVEL(c1)"),
        Just("(SELECT c1 FROM u)"),
        Just("NULL"),
        Just("42"),
    ]
}

/// A literal of any type, numbers twice as likely as the rest.
fn literal() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("'x'"),
        Just("''"),
        Just("NULL"),
        Just("'1999/7/3'"),
        number(),
        number(),
    ]
}

/// A numeric constant: a literal, extremes included, or arithmetic over
/// literals that overflows, divides by zero or shifts a date.
fn number() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("42"),
        Just("-3.5"),
        Just("0"),
        Just("-0.0"),
        Just("1e308"),
        Just("9223372036854775807"),
        Just("(-9223372036854775807 - 1)"),
        Just("-(-9223372036854775807 - 1)"),
        Just("(9223372036854775807 * 2)"),
        Just("(1 / 0)"),
        Just("(DATE '1999-07-03' - 9223372036854775807)"),
        Just("(DATE '1999-07-03' - -9223372036854775807)"),
    ]
}

/// A base preference (or a named one).
fn base_pref() -> impl Strategy<Value = String> {
    (
        0usize..16,
        attribute(),
        (literal(), literal()),
        (number(), number()),
    )
        .prop_map(|(k, a, (b, c), (x, y))| match k {
            0 => format!("LOWEST({a})"),
            1 => format!("HIGHEST({a})"),
            2 => format!("{a} AROUND {x}"),
            3 => format!("{a} BETWEEN {x}, {y}"),
            4 => format!("{a} IN ({b}, {c})"),
            5 => format!("{a} NOT IN ({b})"),
            6 => format!("{a} = {b}"),
            7 => format!("{a} <> {b}"),
            8 => format!("{a} = {b} ELSE {a} = {c}"),
            9 => format!("{a} IN ({b}) ELSE {a} <> {c}"),
            10 => format!("{a} EXPLICIT ({b} BETTER {c}, {c} BETTER {b})"),
            11 => format!("{a} EXPLICIT ({b} BETTER {c})"),
            12 => "c2 CONTAINS ('x', 'y z')".into(),
            13 => "PREFERENCE p".into(),
            14 => format!("({a} AROUND {b} AND LOWEST({a}))"),
            _ => format!("{a} AROUND {b}"),
        })
}

/// A Pareto / prioritized composition of one to four base preferences.
fn pref_term() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            base_pref(),
            prop_oneof![Just(" AND "), Just(" CASCADE "), Just(", ")],
        ),
        1..5,
    )
    .prop_map(|parts| {
        let mut out = String::new();
        for (i, (base, join)) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(join);
            }
            out.push_str(base);
        }
        out
    })
}

/// A quality-function call, or a plain attribute, for select lists,
/// `BUT ONLY` and `ORDER BY`.
fn quality() -> impl Strategy<Value = String> {
    (0usize..7, attribute(), literal()).prop_map(|(k, a, b)| match k {
        0 => format!("LEVEL({a})"),
        1 => format!("DISTANCE({a})"),
        2 => format!("TOP({a})"),
        3 => format!("LEVEL({a}, {b})"),
        4 => "TOP()".into(),
        5 => format!("DISTANCE({a}) <= {b}"),
        _ => a.to_string(),
    })
}

/// A preference statement assembled from random parts: a select list,
/// FROM item, WHERE, `PREFERRING` term, `GROUPING`, `BUT ONLY` and
/// `ORDER BY`, under a random statement kind, sometimes after a
/// `CREATE PREFERENCE`.
fn preference_statement() -> impl Strategy<Value = String> {
    let select = prop_oneof![
        Just("*".to_string()),
        Just("c1, c2".to_string()),
        Just("t.*".to_string()),
        quality(),
        (quality(), quality()).prop_map(|(a, b)| format!("c1, {a}, {b} AS q")),
    ];
    let from = prop_oneof![
        Just("t"),
        Just("t, u"),
        Just("t JOIN u ON t.c1 = u.c1"),
        Just("(SELECT * FROM t PREFERRING LOWEST(c1)) d"),
        Just("(SELECT c1 FROM t) d"),
    ];
    let where_clause = prop_oneof![
        Just(String::new()),
        attribute().prop_map(|a| format!(" WHERE {a} > 1")),
        Just(" WHERE EXISTS (SELECT * FROM u PREFERRING LOWEST(c1))".to_string()),
        Just(" WHERE c1 IN (SELECT c1 FROM u)".to_string()),
    ];
    let grouping = prop_oneof![
        Just(String::new()),
        attribute().prop_map(|a| format!(" GROUPING {a}")),
        (attribute(), attribute()).prop_map(|(a, b)| format!(" GROUPING {a}, {b}")),
    ];
    let but_only = prop_oneof![
        Just(String::new()),
        quality().prop_map(|q| format!(" BUT ONLY {q}")),
        (quality(), quality()).prop_map(|(a, b)| format!(" BUT ONLY {a} AND {b}")),
    ];
    let order_by = prop_oneof![
        Just(String::new()),
        quality().prop_map(|q| format!(" ORDER BY {q}")),
        Just(" ORDER BY 1 DESC LIMIT 2".to_string()),
    ];
    let kind = prop_oneof![
        Just(""),
        Just("EXPLAIN "),
        Just("EXPLAIN ANALYZE "),
        Just("INSERT INTO u "),
        Just("CREATE VIEW v AS "),
        Just("CREATE MATERIALIZED PREFERENCE VIEW m AS "),
        Just("SELECT * FROM u WHERE c1 IN ("),
    ];
    let named = prop_oneof![
        Just(String::new()),
        pref_term().prop_map(|p| format!("CREATE PREFERENCE p AS {p}; ")),
    ];
    (
        (named, kind, select, from),
        (where_clause, pref_term(), grouping, but_only, order_by),
    )
        .prop_map(
            |((named, kind, select, from), (where_clause, pref, grouping, but_only, order_by))| {
                let close = if kind.ends_with('(') { ")" } else { "" };
                format!(
                    "{named}{kind}SELECT {select} FROM {from}{where_clause} PREFERRING {pref}\
                     {grouping}{but_only}{order_by}{close}"
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_input_never_panics_the_rewriter(input in arbitrary_utf8()) {
        process_all(&input);
    }

    #[test]
    fn sql_token_soup_never_panics_the_rewriter(input in sql_token_soup()) {
        process_all(&input);
    }

    #[test]
    fn preference_statements_never_panic_the_rewriter(input in preference_statement()) {
        process_all(&input);
    }
}

/// The inputs the properties found panicking — a constant that overflows
/// as it folds — are typed errors.
#[test]
fn overflowing_constants_are_typed_errors() {
    for sql in [
        "SELECT * FROM t PREFERRING x AROUND -(-9223372036854775807 - 1)",
        "SELECT * FROM t PREFERRING x AROUND DATE '1999-07-03' - -9223372036854775807",
    ] {
        let stmt = parse_statement(sql).unwrap();
        let err = Rewriter::new().process(&stmt).unwrap_err();
        assert!(matches!(err, Error::Exec(_)), "{sql}: {err:?}");
        assert!(err.to_string().contains("integer overflow"), "{sql}: {err}");
    }
}

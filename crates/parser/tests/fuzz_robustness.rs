//! Robustness: the lexer and parser must never panic — arbitrary input
//! yields either an AST or a positioned parse error. Parsed output must
//! survive a print → re-parse round trip (printing is a fixed point).

use prefsql_parser::{parse_statement, parse_statements, Lexer};
use proptest::prelude::*;

mod generators;
use generators::{arbitrary_utf8, sql_token_soup};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary UTF-8: no panics anywhere in the pipeline.
    #[test]
    fn arbitrary_input_never_panics(input in arbitrary_utf8()) {
        let _ = Lexer::new(&input).tokenize();
        let _ = parse_statement(&input);
        let _ = parse_statements(&input);
    }

    /// SQL-ish token soup: higher keyword density than raw Unicode, still
    /// no panics.
    #[test]
    fn sql_token_soup_never_panics(input in sql_token_soup()) {
        let _ = parse_statements(&input);
    }

    /// Whatever parses must print to SQL that re-parses to the same AST.
    #[test]
    fn parse_print_parse_is_identity(
        words in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("PREFERRING"),
                Just("AND"), Just("OR"), Just("CASCADE"), Just("AROUND"),
                Just("LOWEST"), Just("HIGHEST"), Just("IN"), Just("("),
                Just(")"), Just(","), Just("*"), Just("="), Just("<>"),
                Just("'x'"), Just("'y'"), Just("42"), Just("t"), Just("a"),
                Just("b"), Just("ORDER"), Just("BY"), Just("DESC"),
            ],
            1..25
        )
    ) {
        let input = words.join(" ");
        if let Ok(ast1) = parse_statement(&input) {
            let printed = ast1.to_string();
            let ast2 = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("printed SQL unparseable: {e}\n{printed}"));
            prop_assert_eq!(ast1, ast2, "round trip differs for input: {}", input);
        }
    }
}

#[test]
fn pathological_inputs() {
    for input in [
        "",
        ";",
        ";;;;",
        "(((((((((",
        ")))))",
        "SELECT SELECT SELECT",
        "''''''",
        "'unterminated",
        "\"unterminated",
        "/* unterminated",
        "--",
        "SELECT * FROM t PREFERRING",
        "SELECT * FROM t PREFERRING x",
        "SELECT * FROM t PREFERRING x AROUND",
        "SELECT * FROM t PREFERRING ELSE",
        "1e999999",
        "99999999999999999999999999999",
        "SELECT 1 + + + + 1",
        "SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT 1) a) b) c",
        "x.y.z.w",
        ".5",
        "CASE",
        "NOT NOT NOT NOT 1",
    ] {
        // Must not panic; success or error both fine.
        let _ = parse_statement(input);
    }
}

#[test]
fn nesting_depth_is_bounded_not_fatal() {
    let nested = |depth: usize| {
        let mut q = String::from("SELECT ");
        for _ in 0..depth {
            q.push('(');
        }
        q.push('1');
        for _ in 0..depth {
            q.push(')');
        }
        q
    };
    // Reasonable nesting parses fine.
    let stmt = parse_statement(&nested(30)).unwrap();
    assert_eq!(stmt.to_string(), "SELECT 1");
    // Pathological nesting is a clean parse error, not a stack overflow.
    let err = parse_statement(&nested(5000)).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    // Same guard for NOT chains and unary minus chains.
    let nots = format!("SELECT * FROM t WHERE {} x = 1", "NOT ".repeat(5000));
    assert!(parse_statement(&nots).is_err());
    let minuses = format!("SELECT {}1", "- ".repeat(5000));
    assert!(parse_statement(&minuses).is_err());
    // Deep derived-table nesting is also bounded.
    let mut q = String::from("SELECT 1");
    for i in 0..5000 {
        q = format!("SELECT * FROM ({q}) t{i}");
    }
    assert!(parse_statement(&q).is_err());
}

/// A chain of binary operators parses iteratively, but its tree is as
/// deep as it is long: the count is bounded per expression, counted from
/// its outermost start through everything nested in it.
#[test]
fn operator_chains_are_bounded_not_fatal() {
    let chain = |n: usize, op: &str| format!("SELECT id FROM t WHERE id = 1{}", op.repeat(n));
    for op in [" AND id = 1", " OR id = 1", " + 1", " * 2"] {
        assert!(parse_statement(&chain(1_000, op)).is_ok(), "{op}");
        let err = parse_statement(&chain(1_001, op)).unwrap_err();
        assert!(err.to_string().contains("chained operators"), "{err}");
    }
    // Nested parentheses and sub-queries count toward their outermost
    // expression.
    let nested = format!(
        "SELECT id FROM t WHERE id = 1{} AND (id = 1{})",
        " AND id = 1".repeat(600),
        " OR id = 1".repeat(600)
    );
    assert!(parse_statement(&nested).is_err());
    let sub = format!(
        "SELECT id FROM t WHERE id = 1{} AND EXISTS (SELECT 1 FROM t WHERE id = 1{})",
        " AND id = 1".repeat(600),
        " OR id = 1".repeat(600)
    );
    assert!(parse_statement(&sub).is_err());
    // Separate expressions each get the whole budget.
    let items = format!(
        "SELECT 1{c}, 1{c} FROM t WHERE id = 1{c}",
        c = " + 1".repeat(900)
    );
    assert!(parse_statement(&items).is_ok());
}

#[test]
fn huge_in_list_parses() {
    let values: Vec<String> = (0..2000).map(|i| i.to_string()).collect();
    let q = format!("SELECT * FROM t WHERE x IN ({})", values.join(", "));
    assert!(parse_statement(&q).is_ok());
    let p = format!("SELECT * FROM t PREFERRING x IN ({})", values.join(", "));
    assert!(parse_statement(&p).is_ok());
}

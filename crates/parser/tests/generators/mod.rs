//! Input generators for the never-panic properties: the parser's
//! (`fuzz_robustness.rs`) and the rewriter's
//! (`crates/rewrite/tests/rewrite_robustness.rs`), which includes this
//! module by path.

use proptest::prelude::*;

/// Arbitrary printable UTF-8, up to 120 characters.
pub fn arbitrary_utf8() -> &'static str {
    "\\PC{0,120}"
}

/// SQL-ish token soup: a far higher keyword density than raw Unicode.
pub fn sql_token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("SELECT"),
            Just("FROM"),
            Just("WHERE"),
            Just("PREFERRING"),
            Just("AND"),
            Just("CASCADE"),
            Just("AROUND"),
            Just("BETWEEN"),
            Just("LOWEST"),
            Just("HIGHEST"),
            Just("IN"),
            Just("ELSE"),
            Just("BUT"),
            Just("ONLY"),
            Just("GROUPING"),
            Just("NOT"),
            Just("EXISTS"),
            Just("("),
            Just(")"),
            Just(","),
            Just(";"),
            Just("*"),
            Just("="),
            Just("<>"),
            Just("<="),
            Just("'x'"),
            Just("42"),
            Just("3.5"),
            Just("t"),
            Just("c1"),
            Just("c2"),
            Just("CASE"),
            Just("WHEN"),
            Just("THEN"),
            Just("END"),
            Just("ORDER"),
            Just("BY"),
            Just("GROUP"),
            Just("LEVEL"),
            Just("DISTANCE"),
            Just("TOP"),
            Just("EXPLICIT"),
            Just("BETTER"),
        ],
        0..40,
    )
    .prop_map(|words| words.join(" "))
}

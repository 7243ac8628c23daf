//! The wire protocol: line-oriented, human-readable, trivially
//! scriptable with `nc`.
//!
//! Requests are single lines (UTF-8, `\n`-terminated, at most
//! [`crate::MAX_REQUEST_BYTES`] long — a line that is not UTF-8 or is
//! longer is answered `ERROR:` and the connection stays usable): one SQL
//! statement (a trailing `;` is tolerated), a `\`-meta-command
//! (`\mode`, `\algo`, `\threads`, `\window`, `\pool`, `\backend`,
//! `\metrics`, `\rewrite`, `\d`, `\q`), or the bare verb `METRICS` (the
//! engine-wide metrics
//! registry as machine-parseable `key<TAB>value` payload lines, one
//! counter per line, terminated by `OK`).
//!
//! Every response is zero or more *payload* lines followed by exactly
//! one *terminator* line:
//!
//! | line | meaning |
//! |---|---|
//! | `# a<TAB>b` | column header of a row result |
//! | `\| 1<TAB>x` | one row, cells tab-separated and escaped |
//! | `\| text` | one line of message/EXPLAIN/meta-command output |
//! | `\| key<TAB>value` | one counter of a `METRICS` reply |
//! | `OK <n> rows` | row-result terminator |
//! | `OK INSERT <n>` | DML terminator |
//! | `OK` | message/meta/`METRICS` terminator |
//! | `ERROR: <msg>` | failure terminator (session stays usable) |
//! | `BYE` | reply to `\q`; the server closes the connection |
//!
//! On connect the server greets with [`GREETING`]. Cell and message
//! text is escaped so payload is always exactly one line per row
//! (`\` → `\\`, tab → `\t`, newline → `\n`, CR → `\r`); payload lines
//! always start with `# ` or `| `, so the terminator is unambiguous
//! even when a cell's text itself starts with `OK`.

use prefsql::{QueryResult, ResultSet};
use prefsql_types::Error;

/// The banner the server sends on accept (protocol version 1).
pub const GREETING: &str = "PREFSQL 1 ready";

/// Request verb returning the engine-wide metrics registry as
/// `key<TAB>value` payload lines.
pub const METRICS_VERB: &str = "METRICS";

/// Prefix of a column-header payload line.
pub const HEADER_PREFIX: &str = "# ";

/// Prefix of a row/message payload line.
pub const PAYLOAD_PREFIX: &str = "| ";

/// Terminator acknowledging `\q`.
pub const BYE: &str = "BYE";

/// Escape one cell or message line so it never spans or breaks a
/// protocol line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Unknown escapes keep the backslash verbatim.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Render a row result as protocol lines: header, rows, `OK <n> rows`.
pub fn render_rows(rs: &ResultSet, out: &mut Vec<String>) {
    let header: Vec<String> = rs.column_names().iter().map(|n| escape(n)).collect();
    out.push(format!("{HEADER_PREFIX}{}", header.join("\t")));
    for row in rs.rows() {
        let cells: Vec<String> = row
            .values()
            .iter()
            .map(|v| escape(&v.to_string()))
            .collect();
        out.push(format!("{PAYLOAD_PREFIX}{}", cells.join("\t")));
    }
    out.push(format!("OK {} rows", rs.len()));
}

/// Render multi-line message text (EXPLAIN output, meta-command
/// acknowledgements) as payload lines plus a bare `OK`.
pub fn render_text(text: &str, out: &mut Vec<String>) {
    for line in text.lines() {
        out.push(format!("{PAYLOAD_PREFIX}{}", escape(line)));
    }
    out.push("OK".into());
}

/// Render one statement outcome as protocol lines.
pub fn render_result(result: &Result<QueryResult, Error>, out: &mut Vec<String>) {
    match result {
        Ok(QueryResult::Rows(rs)) => render_rows(rs, out),
        Ok(QueryResult::Count(n)) => out.push(format!("OK INSERT {n}")),
        Ok(QueryResult::Message(m)) => render_text(m, out),
        Ok(QueryResult::Explain(text)) => render_text(text, out),
        Err(e) => out.push(format!("ERROR: {}", escape(&e.to_string()))),
    }
}

/// True iff `line` terminates a response block.
pub fn is_terminator(line: &str) -> bool {
    line == BYE || line.starts_with("OK") || line.starts_with("ERROR:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefsql::engine::Relation;
    use prefsql_types::{Column, DataType, Schema, Tuple, Value};
    use proptest::prelude::*;

    /// Text dense in what the protocol treats specially — line breaks,
    /// tabs, backslashes and what follows one in an escape, the letters
    /// of the terminators, the payload prefixes — mixed with arbitrary
    /// Unicode scalars.
    fn arb_text() -> impl Strategy<Value = String> {
        let special = prop_oneof![
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\\'),
            Just('n'),
            Just('t'),
            Just(' '),
            Just('|'),
            Just('#'),
            Just('O'),
            Just('K'),
            Just('E'),
            Just('R'),
            Just(':'),
        ];
        let scalar = any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}'));
        let c = prop_oneof![special.clone(), special, scalar];
        proptest::collection::vec(c, 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    /// A row result of string cells under arbitrary column names (made
    /// distinct by their position, as a schema requires).
    fn arb_rows() -> impl Strategy<Value = ResultSet> {
        (1usize..4).prop_flat_map(|width| {
            let names = proptest::collection::vec(arb_text(), width);
            let rows =
                proptest::collection::vec(proptest::collection::vec(arb_text(), width), 0..5);
            (names, rows).prop_map(|(names, rows)| {
                let columns = (names.into_iter().enumerate())
                    .map(|(i, name)| Column::new(format!("{name}{i}"), DataType::Str))
                    .collect();
                let rows = (rows.into_iter())
                    .map(|cells| Tuple::new(cells.into_iter().map(Value::str).collect()))
                    .collect();
                ResultSet::new(Relation {
                    schema: Schema::new(columns).expect("distinct names"),
                    rows,
                })
            })
        })
    }

    /// Every rendered line is one protocol line, and only the last
    /// terminates the response.
    fn assert_one_response(out: &[String]) {
        let (last, payload) = out.split_last().expect("a terminator");
        for line in out {
            assert!(!line.contains(['\n', '\r']), "{line:?}");
        }
        assert!(is_terminator(last), "{out:?}");
        for line in payload {
            assert!(!is_terminator(line), "{out:?}");
        }
    }

    proptest! {
        #[test]
        fn escape_is_one_line_and_inverts(s in arb_text()) {
            let e = escape(&s);
            prop_assert!(!e.contains(['\n', '\r', '\t']), "{e:?}");
            prop_assert_eq!(unescape(&e), s);
        }

        #[test]
        fn any_text_outcome_renders_as_one_response(text in arb_text(), kind in 0u8..3) {
            let result = match kind {
                0 => Ok(QueryResult::Message(text)),
                1 => Ok(QueryResult::Explain(text)),
                _ => Err(Error::Exec(text)),
            };
            let mut out = Vec::new();
            render_result(&result, &mut out);
            assert_one_response(&out);
        }

        #[test]
        fn any_row_result_renders_as_one_response(rs in arb_rows()) {
            let mut out = Vec::new();
            let rows = rs.len();
            render_result(&Ok(QueryResult::Rows(rs)), &mut out);
            prop_assert_eq!(out.len(), rows + 2);
            assert_one_response(&out);
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "a\tb", "line1\nline2", "back\\slash", "cr\rlf\n\t"] {
            let e = escape(s);
            assert!(!e.contains('\n'), "{e}");
            assert!(!e.contains('\t'), "{e}");
            assert_eq!(unescape(&e), s);
        }
    }

    #[test]
    fn terminators_are_unambiguous() {
        assert!(is_terminator("OK 3 rows"));
        assert!(is_terminator("OK"));
        assert!(is_terminator("ERROR: parse error: nope"));
        assert!(is_terminator(BYE));
        // A cell whose text starts with OK still ships as payload.
        assert!(!is_terminator("| OK 3 rows"));
        assert!(!is_terminator("# OK"));
    }

    #[test]
    fn error_rendering_is_single_line() {
        let mut out = Vec::new();
        render_result(&Err(Error::Parse("bad\nnews".into())), &mut out);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].starts_with("ERROR: parse error: bad\\nnews"),
            "{}",
            out[0]
        );
    }
}

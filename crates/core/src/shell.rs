//! An interactive Preference SQL shell (the engine behind the
//! `prefsql-cli` binary).
//!
//! Statements are buffered until a terminating `;`. Backslash
//! meta-commands control the session:
//!
//! | command | effect |
//! |---|---|
//! | `\d` | list tables, views and named preferences |
//! | `\d <table>` | show a table's schema and indexes |
//! | `\mode [rewrite\|native\|naive\|bnl\|auto]` | show/switch the execution mode |
//! | `\algo [auto\|naive\|bnl]` | show/set the native skyline algorithm |
//! | `\threads [N]` | show/set the parallel skyline degree |
//! | `\window [N[k\|m]\|off]` | show/set the external-memory window budget |
//! | `\pool [N[k\|m]]` | show/resize the shared buffer pool (paged backend) |
//! | `\backend [mem\|paged]` | show/set the storage backend (empty catalog only) |
//! | `\metrics` | show the engine-wide metrics registry |
//! | `\timing [on\|off]` | toggle or set per-statement timing |
//! | `\rewrite <query>` | show the SQL a preference query rewrites into |
//! | `\help` | list commands |
//! | `\q` | quit |
//!
//! The shell is a *thin* front end: everything except line buffering,
//! `\timing` and `\q` is delegated to [`Session`] (knob handling lives
//! in [`Session::command`], shared with the `prefsql-server` front
//! end).

use crate::session::{QueryResult, Session};
use prefsql_parser::ast::Statement;
use prefsql_parser::parse_statement;
use std::fmt::Write as _;
use std::time::Instant;

/// A line-oriented shell over a [`Session`].
pub struct Shell {
    session: Session,
    buffer: String,
    timing: bool,
    quit: bool,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    /// A fresh session with an empty catalog.
    pub fn new() -> Self {
        Shell::over(Session::new())
    }

    /// A shell over an existing session (e.g. one sharing a server's
    /// engine core).
    pub fn over(session: Session) -> Self {
        Shell {
            session,
            buffer: String::new(),
            timing: false,
            quit: false,
        }
    }

    /// Access the underlying session (for pre-loading data).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// True after `\q`.
    pub fn should_quit(&self) -> bool {
        self.quit
    }

    /// The prompt reflecting buffer state: `prefsql>` or continuation `...>`.
    pub fn prompt(&self) -> &'static str {
        if self.buffer.trim().is_empty() {
            "prefsql> "
        } else {
            "    ...> "
        }
    }

    /// Feed one input line; returns the text to print.
    pub fn feed_line(&mut self, line: &str) -> String {
        let trimmed = line.trim();
        if self.buffer.trim().is_empty() && trimmed.starts_with('\\') {
            return self.meta_command(trimmed);
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        // Execute every complete `;`-terminated statement in the buffer.
        let mut out = String::new();
        while let Some(pos) = statement_end(&self.buffer) {
            let stmt: String = self.buffer.drain(..=pos).collect();
            let stmt = stmt.trim().trim_end_matches(';').trim().to_string();
            if stmt.is_empty() {
                continue;
            }
            out.push_str(&self.run_statement(&stmt));
        }
        out
    }

    fn run_statement(&mut self, sql: &str) -> String {
        let t0 = Instant::now();
        let result = parse_statement(sql).and_then(|stmt| {
            let done = self.session.execute_statement(&stmt)?;
            Ok((stmt, done))
        });
        let elapsed = t0.elapsed();
        let mut out = match result {
            Ok((_, QueryResult::Rows(rs))) => {
                // Every row result carries one observability footer
                // block (spill, pool, view cache) in a fixed order — the
                // formats live in `crate::footer`, shared with EXPLAIN
                // ANALYZE's native annotations.
                format!("{rs}{}", crate::footer::result_footer(&self.session, &rs))
            }
            Ok((stmt, QueryResult::Count(n))) => {
                let verb = match stmt {
                    Statement::Update { .. } => "UPDATE",
                    Statement::Delete { .. } => "DELETE",
                    _ => "INSERT",
                };
                let mut text = format!("{verb} {n}\n");
                // DML that incrementally maintained materialized
                // preference views reports how many it touched.
                let maintained = self.session.last_view_maintained();
                if maintained > 0 {
                    let _ = writeln!(text, "{}", crate::footer::maintained_line(maintained));
                }
                text
            }
            Ok((_, QueryResult::Message(m))) => format!("{m}\n"),
            Ok((_, QueryResult::Explain(text))) => text,
            Err(e) => format!("ERROR: {e}\n"),
        };
        if self.timing {
            let _ = writeln!(out, "{}", crate::footer::time_line(elapsed));
        }
        out
    }

    fn meta_command(&mut self, cmd: &str) -> String {
        let mut parts = cmd.splitn(2, char::is_whitespace);
        let head = parts.next().unwrap_or("");
        let arg = parts.next().map(str::trim).unwrap_or("");
        // Session-level knobs and introspection are shared with the
        // server front end; the shell only adds its own REPL commands.
        if let Some(out) = self.session.command(head, arg) {
            return out;
        }
        match head {
            "\\q" | "\\quit" => {
                self.quit = true;
                "bye\n".into()
            }
            "\\help" | "\\?" => "\\d [table]   list relations / describe a table\n\
                 \\mode [m]    show or set execution mode (rewrite|native|naive|bnl|auto)\n\
                 \\algo [a]    show or set the native skyline algorithm (auto|naive|bnl)\n\
                 \\threads [n] show or set the parallel skyline degree (1 = serial)\n\
                 \\window [w]  show or set the external-memory window budget\n\
                 \\            (bytes with optional k/m suffix, or 'off' = never spill)\n\
                 \\pool [p]    show or resize the shared buffer pool (paged backend)\n\
                 \\backend [b] show or set the storage backend (mem|paged; empty catalog only)\n\
                 \\rewrite q   show the standard SQL a preference query becomes\n\
                 \\metrics     show the engine-wide metrics registry\n\
                 \\timing [t]  toggle timing, or set it (on|off)\n\
                 \\q           quit\n"
                .into(),
            "\\timing" => {
                match arg {
                    "" => self.timing = !self.timing,
                    "on" => self.timing = true,
                    "off" => self.timing = false,
                    other => return format!("unknown timing argument '{other}' (on|off)\n"),
                }
                format!("timing {}\n", if self.timing { "on" } else { "off" })
            }
            other => format!("unknown command '{other}' (try \\help)\n"),
        }
    }
}

/// Index of the `;` ending the first complete statement, respecting
/// string literals (quoted semicolons do not terminate).
fn statement_end(buffer: &str) -> Option<usize> {
    let mut in_string = false;
    for (i, c) in buffer.char_indices() {
        match c {
            '\'' => in_string = !in_string,
            ';' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_complete_statements() {
        let mut sh = Shell::new();
        assert_eq!(
            sh.feed_line("CREATE TABLE t (x INTEGER);"),
            "created table t\n"
        );
        assert_eq!(sh.feed_line("INSERT INTO t VALUES (1), (2);"), "INSERT 2\n");
        let out = sh.feed_line("SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(out.contains("| 1 |"), "{out}");
        assert!(out.contains("(1 rows)"), "{out}");
    }

    #[test]
    fn dml_counts_are_labelled_by_statement() {
        let mut sh = Shell::new();
        sh.feed_line("CREATE TABLE r (id INTEGER, a INTEGER);");
        assert_eq!(
            sh.feed_line("INSERT INTO r VALUES (1, 5), (2, 6), (3, 7);"),
            "INSERT 3\n"
        );
        assert_eq!(
            sh.feed_line("UPDATE r SET a = 0 WHERE id = 1;"),
            "UPDATE 1\n"
        );
        assert_eq!(sh.feed_line("DELETE FROM r;"), "DELETE 3\n");
        assert_eq!(
            sh.feed_line("INSERT INTO r SELECT id, a FROM r;"),
            "INSERT 0\n"
        );
    }

    #[test]
    fn buffers_across_lines() {
        let mut sh = Shell::new();
        assert_eq!(sh.prompt(), "prefsql> ");
        assert_eq!(sh.feed_line("CREATE TABLE t"), "");
        assert_eq!(sh.prompt(), "    ...> ");
        assert_eq!(sh.feed_line("(x INTEGER);"), "created table t\n");
        assert_eq!(sh.prompt(), "prefsql> ");
    }

    #[test]
    fn semicolons_inside_strings_do_not_split() {
        let mut sh = Shell::new();
        sh.feed_line("CREATE TABLE t (s VARCHAR);");
        assert_eq!(sh.feed_line("INSERT INTO t VALUES ('a;b');"), "INSERT 1\n");
        let out = sh.feed_line("SELECT s FROM t;");
        assert!(out.contains("a;b"), "{out}");
    }

    #[test]
    fn multiple_statements_one_line() {
        let mut sh = Shell::new();
        let out = sh.feed_line("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1);");
        assert!(out.contains("created table t"));
        assert!(out.contains("INSERT 1"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = Shell::new();
        let out = sh.feed_line("SELECT * FROM missing;");
        assert!(out.starts_with("ERROR:"), "{out}");
        assert!(!sh.should_quit());
        assert_eq!(
            sh.feed_line("CREATE TABLE t (x INTEGER);"),
            "created table t\n"
        );
    }

    #[test]
    fn meta_commands() {
        let mut sh = Shell::new();
        sh.feed_line("CREATE TABLE cars (make VARCHAR, price INTEGER);");
        sh.feed_line("CREATE INDEX i ON cars (price);");
        let out = sh.feed_line("\\d");
        assert!(out.contains("cars (0 rows)"), "{out}");
        let out = sh.feed_line("\\d cars");
        assert!(out.contains("make VARCHAR"), "{out}");
        assert!(out.contains("indexes: i"), "{out}");
        let out = sh.feed_line("\\d nope");
        assert!(out.starts_with("ERROR"), "{out}");
        assert!(sh.feed_line("\\help").contains("\\mode"));
        assert!(sh.feed_line("\\nosuch").contains("unknown command"));
    }

    #[test]
    fn mode_switching() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\mode"), "mode: rewrite\n");
        assert_eq!(sh.feed_line("\\mode bnl"), "mode: native (bnl)\n");
        assert_eq!(sh.feed_line("\\mode"), "mode: native (bnl)\n");
        sh.feed_line("CREATE TABLE t (x INTEGER);");
        sh.feed_line("INSERT INTO t VALUES (2), (1);");
        let out = sh.feed_line("SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(out.contains("| 1 |"), "{out}");
        assert!(sh.feed_line("\\mode warp").contains("unknown mode"));
    }

    #[test]
    fn native_mode_defaults_to_auto() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\mode native"), "mode: native (auto)\n");
        assert_eq!(sh.feed_line("\\mode auto"), "mode: native (auto)\n");
        sh.feed_line("CREATE TABLE t (x INTEGER);");
        sh.feed_line("INSERT INTO t VALUES (2), (1);");
        let out = sh.feed_line("SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(out.contains("| 1 |"), "{out}");
    }

    #[test]
    fn algo_command_switches_native_algorithm() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\algo"), "algo: auto\n");
        // Setting the algorithm outside native mode is remembered...
        assert_eq!(sh.feed_line("\\algo bnl"), "algo: bnl\n");
        assert_eq!(sh.feed_line("\\mode"), "mode: rewrite\n");
        assert_eq!(sh.feed_line("\\mode native"), "mode: native (bnl)\n");
        // ...and changing it while native applies immediately.
        assert_eq!(sh.feed_line("\\algo auto"), "algo: auto\n");
        assert_eq!(sh.feed_line("\\mode"), "mode: native (auto)\n");
        assert!(sh.feed_line("\\algo warp").contains("unknown algorithm"));
        assert!(sh.feed_line("\\help").contains("\\algo"));
    }

    #[test]
    fn threads_command_controls_parallel_degree() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\threads 4"), "threads: 4\n");
        assert_eq!(sh.feed_line("\\threads"), "threads: 4\n");
        // Queries still work with the knob set, in both modes.
        sh.feed_line("CREATE TABLE t (x INTEGER);");
        sh.feed_line("INSERT INTO t VALUES (2), (1);");
        sh.feed_line("\\mode native");
        let out = sh.feed_line("SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(out.contains("| 1 |"), "{out}");
        // EXPLAIN surfaces the degree ceiling next to the algorithm.
        let out = sh.feed_line("EXPLAIN SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(out.contains("algo=auto, threads=4"), "{out}");
        // Serial knob drops the annotation again.
        sh.feed_line("\\threads 1");
        let out = sh.feed_line("EXPLAIN SELECT x FROM t PREFERRING LOWEST(x);");
        assert!(!out.contains("threads="), "{out}");
        assert!(sh.feed_line("\\threads 0").contains("invalid thread count"));
        assert!(sh
            .feed_line("\\threads many")
            .contains("invalid thread count"));
        assert!(sh.feed_line("\\help").contains("\\threads"));
    }

    #[test]
    fn window_command_controls_external_memory_budget() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\window 64k"), "window: 64 KiB\n");
        assert_eq!(sh.feed_line("\\window"), "window: 64 KiB\n");
        assert_eq!(sh.feed_line("\\window 1m"), "window: 1 MiB\n");
        // Sub-minimum budgets clamp up to MIN_WINDOW_BYTES (4 KiB), and
        // the answer admits the clamp instead of silently differing.
        assert_eq!(sh.feed_line("\\window 100"), "window: 4 KiB (clamped)\n");
        assert_eq!(sh.feed_line("\\window"), "window: 4 KiB\n");
        // Zero and garbage are rejected like `\threads 0`.
        assert!(sh.feed_line("\\window 0").contains("invalid window budget"));
        assert!(sh
            .feed_line("\\window banana")
            .contains("invalid window budget"));
        assert_eq!(sh.feed_line("\\window off"), "window: off\n");
        assert_eq!(sh.feed_line("\\window"), "window: off\n");
        assert!(sh.feed_line("\\help").contains("\\window"));
    }

    #[test]
    fn window_budget_spills_prints_metrics_and_explains() {
        let mut sh = Shell::new();
        sh.feed_line("CREATE TABLE pts (x INTEGER, y INTEGER);");
        // Anti-correlated points: x + y = 400, nothing dominates
        // anything, so the whole table is the skyline and a 4 KiB
        // window must overflow and re-feed runs.
        let values: Vec<String> = (0..400).map(|i| format!("({i}, {})", 400 - i)).collect();
        sh.feed_line(&format!("INSERT INTO pts VALUES {};", values.join(", ")));
        sh.feed_line("\\mode native");
        sh.feed_line("\\window 4k");

        // EXPLAIN surfaces the budget the operator will stream under.
        let out = sh.feed_line("EXPLAIN SELECT x FROM pts PREFERRING LOWEST(x) AND LOWEST(y);");
        assert!(out.contains("window=4 KiB"), "{out}");

        // Execution reports the spill metrics after the rows.
        let out = sh.feed_line("SELECT x FROM pts PREFERRING LOWEST(x) AND LOWEST(y);");
        assert!(out.contains("(400 rows)"), "{out}");
        assert!(out.contains("Spill: window=4 KiB"), "{out}");
        assert!(out.contains("spilled_runs="), "{out}");
        assert!(out.contains("passes="), "{out}");
        let runs: u64 = out
            .split("spilled_runs=")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("metrics line carries a run count");
        assert!(runs >= 1, "{out}");

        // Turning the window off drops both the annotation and the line.
        sh.feed_line("\\window off");
        let out = sh.feed_line("EXPLAIN SELECT x FROM pts PREFERRING LOWEST(x) AND LOWEST(y);");
        assert!(!out.contains("window="), "{out}");
        let out = sh.feed_line("SELECT x FROM pts PREFERRING LOWEST(x) AND LOWEST(y);");
        assert!(!out.contains("Spill:"), "{out}");
    }

    #[test]
    fn explain_formats_join_and_preference_windows_alike() {
        let mut sh = Shell::new();
        sh.feed_line("CREATE TABLE a (k INTEGER, x INTEGER);");
        sh.feed_line("CREATE TABLE b (k INTEGER, y INTEGER);");
        sh.feed_line("\\mode native");
        sh.feed_line("\\window 5000");
        let out =
            sh.feed_line("EXPLAIN SELECT a.x FROM a JOIN b ON a.k = b.k PREFERRING LOWEST(b.y);");
        for node in ["Preference (BMO", "join=hash keys=[a.k = b.k]"] {
            let line = out
                .lines()
                .find(|l| l.contains(node))
                .unwrap_or_else(|| panic!("no `{node}` line in:\n{out}"));
            assert!(line.contains("window=4.9 KiB"), "{line}");
        }
    }

    #[test]
    fn rewrite_inspection() {
        let mut sh = Shell::new();
        let out = sh.feed_line("\\rewrite SELECT * FROM t PREFERRING LOWEST(x)");
        assert!(out.contains("NOT EXISTS"), "{out}");
        let out = sh.feed_line("\\rewrite SELECT * FROM t");
        assert!(out.contains("no preference constructs"), "{out}");
    }

    #[test]
    fn timing_toggle_and_quit() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed_line("\\timing"), "timing on\n");
        sh.feed_line("CREATE TABLE t (x INTEGER);");
        let out = sh.feed_line("SELECT 1;");
        assert!(out.contains("Time:"), "{out}");
        assert_eq!(sh.feed_line("\\timing"), "timing off\n");
        assert_eq!(sh.feed_line("\\q"), "bye\n");
        assert!(sh.should_quit());
    }
}

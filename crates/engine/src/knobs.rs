//! The session knobs, and the one place the `PREFSQL_*` environment is
//! read.
//!
//! A session's native-evaluation knobs are one [`NativeOptions`] value,
//! held by its [`crate::Engine`] façade and copied into every statement's
//! [`crate::ExecCtx`]; the planner reads them from there. The environment
//! supplies defaults, under one policy (a set variable is a ceiling, see
//! [`prefsql_types::knobs::ceiling_from_value`]):
//!
//! * `PREFSQL_THREADS` — the parallel-window degree (the shell's
//!   `\threads N`); absent falls back to the host width.
//! * `PREFSQL_WINDOW` — the external-memory window budget in bytes, with
//!   optional `k`/`m` suffixes (the shell's `\window N[k|m]`); absent
//!   means unbounded (no spilling).
//!
//! Both are resolved once per process and cached. `PREFSQL_BACKEND` and
//! `PREFSQL_POOL` pick and size the storage substrate; they are read per
//! [`crate::EngineCore`], not cached, so every core (and every CI matrix
//! leg) sees the environment it was started under.

use crate::exec::BackendKind;
use crate::physical::DEFAULT_BATCH;
use prefsql_pref::SkylineAlgo;
use prefsql_types::knobs::{
    ceiling_from_value, parse_size, DEFAULT_POOL_BYTES, MIN_POOL_BYTES, MIN_WINDOW_BYTES,
};
use std::sync::OnceLock;

/// Execution knobs for native preference evaluation and spill-capable
/// operators: one value per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeOptions {
    /// How the maximal-set selection is driven (the shell's `\algo`).
    pub algo: SkylineAlgo,
    /// Parallel-window degree knob (the shell's `\threads N`):
    /// [`SkylineAlgo::Auto`] splits the window across up to this many
    /// scoped OS threads once the candidate set reaches
    /// [`prefsql_pref::PARALLEL_CUTOFF`]; `1` forces the serial window.
    pub threads: usize,
    /// Rows requested per pull by the loop draining the source plan;
    /// `None` drives it one tuple per pull, like `Some(1)` (the
    /// differential suites pin that the result does not depend on the
    /// drive granularity with this).
    pub batch: Option<usize>,
    /// External-memory window budget in bytes (the shell's
    /// `\window N[k|m]`): [`SkylineAlgo::Auto`] streams the candidate
    /// set through the bounded-window multi-pass BNL with spill-to-disk
    /// overflow runs once the candidates exceed this many bytes, and a
    /// keyed join partitions a build side over it. `None` (the default
    /// without `PREFSQL_WINDOW`) never spills.
    pub window_bytes: Option<usize>,
}

impl Default for NativeOptions {
    /// Auto algorithm, session-default parallelism (`PREFSQL_THREADS`
    /// or the host width), batched drive loop, session-default window
    /// budget (`PREFSQL_WINDOW` or unbounded).
    fn default() -> Self {
        static THREADS: OnceLock<usize> = OnceLock::new();
        static WINDOW: OnceLock<Option<usize>> = OnceLock::new();
        NativeOptions {
            algo: SkylineAlgo::default(),
            threads: *THREADS.get_or_init(|| match std::env::var("PREFSQL_THREADS") {
                Ok(v) => ceiling_from_value(&v, |s| s.parse::<usize>().ok(), 1),
                Err(_) => std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .max(1),
            }),
            batch: Some(DEFAULT_BATCH),
            window_bytes: *WINDOW.get_or_init(|| {
                std::env::var("PREFSQL_WINDOW")
                    .ok()
                    .map(|v| ceiling_from_value(&v, parse_size, MIN_WINDOW_BYTES))
            }),
        }
    }
}

impl NativeOptions {
    /// Default options with a forced algorithm.
    pub fn with_algo(algo: SkylineAlgo) -> Self {
        NativeOptions {
            algo,
            ..NativeOptions::default()
        }
    }

    /// Default options without a window budget: what a bare
    /// [`crate::Engine`] or [`crate::ExecCtx::over`] runs under, so they
    /// never spill unless told to.
    pub fn without_window() -> Self {
        NativeOptions {
            window_bytes: None,
            ..NativeOptions::default()
        }
    }
}

/// The storage substrate of a fresh core: `PREFSQL_BACKEND=paged`
/// selects heap files for new tables (anything else, or unset, the
/// in-memory store), and `PREFSQL_POOL=N[k|m]` sizes the buffer pool
/// (ceiling semantics: garbage or sub-minimum values cap at
/// [`MIN_POOL_BYTES`]; unset means [`DEFAULT_POOL_BYTES`]).
pub(crate) fn storage_from_env() -> (BackendKind, usize) {
    let kind =
        std::env::var("PREFSQL_BACKEND").map_or(BackendKind::Mem, |v| BackendKind::parse(&v));
    let pool_bytes = std::env::var("PREFSQL_POOL").map_or(DEFAULT_POOL_BYTES, |v| {
        ceiling_from_value(&v, parse_size, MIN_POOL_BYTES)
    });
    (kind, pool_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads_of(raw: &str) -> usize {
        ceiling_from_value(raw, |s| s.parse::<usize>().ok(), 1)
    }

    fn window_of(raw: &str) -> usize {
        ceiling_from_value(raw, parse_size, MIN_WINDOW_BYTES)
    }

    #[test]
    fn thread_ceiling_resolution() {
        assert_eq!(threads_of("4"), 4);
        assert_eq!(threads_of(" 2 "), 2);
        // Zero or garbage caps at serial — the knob is a ceiling, so a
        // set-but-invalid value must never raise the degree.
        assert_eq!(threads_of("0"), 1);
        assert_eq!(threads_of("banana"), 1);
        assert_eq!(threads_of(""), 1);
        // A huge unparseable value (u64 overflow) is garbage, not ∞.
        assert_eq!(threads_of("99999999999999999999999999"), 1);
    }

    #[test]
    fn window_ceiling_resolution() {
        assert_eq!(window_of("65536"), 65536);
        assert_eq!(window_of("64k"), 65536);
        assert_eq!(window_of("1M"), 1 << 20);
        // Zero, sub-minimum, and garbage all cap at the minimum window.
        assert_eq!(window_of("0"), MIN_WINDOW_BYTES);
        assert_eq!(window_of("100"), MIN_WINDOW_BYTES);
        assert_eq!(window_of("lots"), MIN_WINDOW_BYTES);
        assert_eq!(window_of("99999999999999999999999999"), MIN_WINDOW_BYTES);
        // Suffix overflow is garbage too, not a wrapped tiny number.
        assert_eq!(window_of("999999999999999999m"), MIN_WINDOW_BYTES);
    }

    #[test]
    fn size_suffixes_reexported() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("4k"), Some(4096));
        assert_eq!(parse_size("k"), None);
        assert_eq!(parse_size("99999999999999999999k"), None);
    }

    #[test]
    fn defaults_are_sane() {
        // Whatever the environment says, the resolved defaults respect
        // the knob minimums.
        let d = NativeOptions::default();
        assert!(d.threads >= 1);
        if let Some(w) = d.window_bytes {
            assert!(w >= MIN_WINDOW_BYTES);
        }
        assert_eq!(NativeOptions::without_window().window_bytes, None);
        const _: () = assert!(MIN_POOL_BYTES >= MIN_WINDOW_BYTES);
        const _: () = assert!(DEFAULT_POOL_BYTES > MIN_POOL_BYTES);
    }
}

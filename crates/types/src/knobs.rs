//! Resource-knob parsing shared by every layer of the stack.
//!
//! The shell's `\window`/`\pool` commands, the `PREFSQL_WINDOW` /
//! `PREFSQL_POOL` environment ceilings, and the storage layer's pool
//! sizing all speak the same dialect: a byte count with an optional
//! binary suffix, clamped to a per-knob minimum. The helpers live here —
//! below both `prefsql-storage` and `prefsql-engine` in the crate
//! graph — so the buffer pool can size itself with the exact parser the
//! session layer uses. The `prefsql` facade re-exports this crate as
//! `prefsql::types`; the environment itself is read in one place,
//! `prefsql_engine::knobs`.
//!
//! The shared semantics, pinned by [`ceiling_from_value`]: **a set env
//! var is a ceiling**. A parseable value is clamped to at least the
//! knob's minimum; zero or garbage caps *at* the minimum — a
//! set-but-invalid value must never escalate past the most conservative
//! setting (serial execution, the smallest window, the smallest pool).

/// The smallest admissible external-memory window budget (4 KiB).
/// Budgets below this thrash: the window always admits at least one
/// tuple, but a sub-page budget spills nearly every candidate every
/// pass. Both the env ceiling and the shell's `\window` clamp up to it.
pub const MIN_WINDOW_BYTES: usize = 4096;

/// The smallest admissible buffer-pool size: four pages (16 KiB). A
/// smaller pool cannot hold a scan's current page plus an insert's tail
/// page plus an index build's probe without evicting its own working
/// set every call. `\pool` and `PREFSQL_POOL` clamp up to it.
pub const MIN_POOL_BYTES: usize = 16 * 1024;

/// The default buffer-pool size when `PREFSQL_POOL` is unset: 1 MiB
/// (256 pages) — enough that small-table workloads never evict, small
/// enough that eviction is easy to provoke deliberately.
pub const DEFAULT_POOL_BYTES: usize = 1024 * 1024;

/// Resolve a *set* `PREFSQL_*` ceiling value: parse it with `parse` and
/// clamp to at least `min`; zero or garbage (unparseable, overflowing)
/// caps at `min`. Callers handle the unset case themselves — the knobs
/// fall back differently (host width vs unbounded vs a fixed default).
pub fn ceiling_from_value<T: Ord>(raw: &str, parse: impl FnOnce(&str) -> Option<T>, min: T) -> T {
    match parse(raw.trim()) {
        Some(v) if v > min => v,
        _ => min,
    }
}

/// Parse a byte size with an optional binary suffix: `65536`, `64k`,
/// `1M` (case-insensitive; `k` = KiB, `m` = MiB). `None` on garbage or
/// overflow.
pub fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, factor) = match s.char_indices().next_back()? {
        (i, 'k') | (i, 'K') => (&s[..i], 1024usize),
        (i, 'm') | (i, 'M') => (&s[..i], 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok()?.checked_mul(factor)
}

/// Render a byte count the way the shell and EXPLAIN display it:
/// `512 B`, `64 KiB`, `1.5 MiB`.
pub fn fmt_bytes(n: u64) -> String {
    if n < 1024 {
        format!("{n} B")
    } else if n < 1024 * 1024 {
        let kib = n as f64 / 1024.0;
        if kib.fract() == 0.0 {
            format!("{kib:.0} KiB")
        } else {
            format!("{kib:.1} KiB")
        }
    } else {
        let mib = n as f64 / (1024.0 * 1024.0);
        if mib.fract() == 0.0 {
            format!("{mib:.0} MiB")
        } else {
            format!("{mib:.1} MiB")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("4k"), Some(4096));
        assert_eq!(parse_size("4K"), Some(4096));
        assert_eq!(parse_size("2m"), Some(2 << 20));
        assert_eq!(parse_size(" 8 k "), Some(8192));
        assert_eq!(parse_size("4g"), None);
        assert_eq!(parse_size("-1"), None);
    }

    #[test]
    fn bare_suffixes_are_garbage() {
        // A suffix with no digits must not parse as zero or one unit.
        assert_eq!(parse_size("k"), None);
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size("m"), None);
        assert_eq!(parse_size(" M "), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn overflow_is_garbage_not_a_wrapped_value() {
        // Digits past u64/usize range fail in `parse`...
        assert_eq!(parse_size("99999999999999999999"), None);
        assert_eq!(parse_size("99999999999999999999k"), None);
        // ...and digits that parse but overflow the suffix multiply fail
        // in `checked_mul`, never wrapping to a tiny budget.
        assert_eq!(parse_size("18446744073709551615k"), None);
        assert_eq!(parse_size("999999999999999999m"), None);
    }

    #[test]
    fn ceiling_clamps_garbage_to_the_minimum() {
        let of = |raw: &str| ceiling_from_value(raw, parse_size, MIN_POOL_BYTES);
        assert_eq!(of("64k"), 65536);
        assert_eq!(of("0"), MIN_POOL_BYTES);
        assert_eq!(of("100"), MIN_POOL_BYTES);
        assert_eq!(of("lots"), MIN_POOL_BYTES);
        assert_eq!(of("99999999999999999999k"), MIN_POOL_BYTES);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4 KiB");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(1 << 20), "1 MiB");
        assert_eq!(fmt_bytes(3 << 19), "1.5 MiB");
    }
}

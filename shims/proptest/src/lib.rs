//! Offline stand-in for the `proptest` crate (1.x API line).
//!
//! The build environment for this workspace has no crates.io access, so
//! this shim implements the subset of proptest the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive` / `boxed`, range and tuple strategies, [`Just`],
//! [`prop_oneof!`], [`collection::vec`], string-pattern strategies,
//! [`any`], [`ProptestConfig`] and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Semantics differ from real proptest in one deliberate way: failing
//! cases are **not shrunk** — a failure panics immediately with the
//! generated inputs (printed via the assertion message), then names the
//! property, the case index and the seed. Generation is deterministic per
//! test-function name and `PROPTEST_SEED`, so failures reproduce.
//!
//! Two environment variables steer a run: `PROPTEST_CASES` sets the
//! cases of a property without a count of its own and is a floor for
//! one with ([`ProptestConfig::with_cases`]); `PROPTEST_SEED` draws
//! other cases than the default run's ([`seed_for`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore as _, SeedableRng as _};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Deterministic random source used by all strategies; like real
/// proptest, a wrapper over a rand generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(state: u64) -> Self {
        TestRng {
            // Decorrelate from plain StdRng streams built on the same seed.
            inner: StdRng::seed_from_u64(state ^ 0xD1B5_4A32_D192_ED03),
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen()
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        self.inner.gen_range(0..bound)
    }
}

/// Hash a test name into a stable seed (FNV-1a), with the run seed
/// `PROPTEST_SEED`, if set, hashed in after it. Unset, the seed is the
/// name's alone, so every run replays the same cases; a soak run varies
/// `PROPTEST_SEED` to draw new ones.
pub fn seed_for(name: &str) -> u64 {
    mix_seed(name, run_seed().as_deref())
}

/// The `PROPTEST_SEED` a run was started with, if any.
fn run_seed() -> Option<String> {
    std::env::var("PROPTEST_SEED").ok()
}

/// [`seed_for`] with the run seed given.
fn mix_seed(name: &str, run_seed: Option<&str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let run = run_seed.map(|s| format!("/{s}")).unwrap_or_default();
    for b in name.bytes().chain(run.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Names the failing case while a property's body unwinds: the property,
/// the case index and the seed, and the run seed to replay it with.
#[doc(hidden)]
pub struct CaseGuard {
    /// The property's name.
    pub name: &'static str,
    /// The case being run, from 0.
    pub case: u32,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let run = run_seed().map_or("unset".into(), |s| format!("{s:?}"));
            eprintln!(
                "proptest: {} failed at case {} (seed {:#018x}, PROPTEST_SEED {run})",
                self.name,
                self.case,
                seed_for(self.name)
            );
        }
    }
}

/// A generator of values for property tests.
///
/// Unlike real proptest there is no shrinking: a strategy is just a
/// deterministic function from RNG state to a value.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform every generated value with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Build recursive structures: `self` is the leaf strategy and
    /// `recurse` wraps an inner strategy into a branch strategy.
    /// `_desired_size` and `_expected_branch_size` are accepted for
    /// API compatibility but only `depth` is honoured.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
    {
        Recursive {
            base: self.boxed(),
            depth,
            recurse: Rc::new(move |inner| recurse(inner).boxed()),
        }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// Object-safe view of [`Strategy`] used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    inner: Rc<dyn DynStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    depth: u32,
    recurse: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
}

impl<T> Clone for Recursive<T> {
    fn clone(&self) -> Self {
        Recursive {
            base: self.base.clone(),
            depth: self.depth,
            recurse: Rc::clone(&self.recurse),
        }
    }
}

impl<T> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let levels = rng.below(self.depth as usize + 1) as u32;
        let mut strat = self.base.clone();
        for _ in 0..levels {
            strat = (self.recurse)(strat);
        }
        strat.generate(rng)
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between several strategies producing the same type.
/// Built by [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<T> Union<T> {
    /// Build from pre-boxed options; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.options.len());
        self.options[idx].generate(rng)
    }
}

// Range sampling delegates to the rand shim, which already widens to
// i128 to avoid overflow; empty ranges panic there.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.inner.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.inner.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

// ---- string pattern strategies -------------------------------------------

/// `&str` patterns act as simplified regex strategies, supporting the
/// forms the workspace uses: `[class]{m,n}` (char class with ranges)
/// and `\PC{m,n}` (arbitrary printable chars). Anything else falls
/// back to short alphanumeric strings.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (pool, lo, hi) = parse_pattern(self);
        let len = lo + rng.below(hi - lo + 1);
        (0..len).map(|_| pool[rng.below(pool.len())]).collect()
    }
}

/// Decompose a simplified pattern into (char pool, min len, max len).
fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
    let (body, lo, hi) = match pat.rfind('{') {
        Some(brace) if pat.ends_with('}') => {
            let counts = &pat[brace + 1..pat.len() - 1];
            // Both `{m,n}` ranges and `{n}` exact counts.
            let parsed = match counts.split_once(',') {
                Some((a, b)) => a
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .zip(b.trim().parse::<usize>().ok()),
                None => counts.trim().parse::<usize>().ok().map(|n| (n, n)),
            };
            match parsed {
                Some((lo, hi)) if lo <= hi => (&pat[..brace], lo, hi),
                _ => (pat, 0, 16),
            }
        }
        _ => (pat, 0, 16),
    };
    let pool = if body.starts_with('[') && body.ends_with(']') {
        expand_class(&body[1..body.len() - 1])
    } else if body == "\\PC" {
        // Any printable char: ASCII plus a few multi-byte samples.
        let mut pool: Vec<char> = (' '..='~').collect();
        pool.extend(['ä', 'é', 'λ', '中', '🙂', '\u{2028}']);
        pool
    } else {
        ('a'..='z').chain('0'..='9').collect()
    };
    if pool.is_empty() {
        (vec!['a'], lo, hi)
    } else {
        (pool, lo, hi)
    }
}

/// Expand a character class body like `a-c` or `a-c ` into its chars.
fn expand_class(body: &str) -> Vec<char> {
    let chars: Vec<char> = body.chars().collect();
    let mut pool = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            if lo <= hi {
                pool.extend(lo..=hi);
            }
            i += 3;
        } else {
            pool.push(chars[i]);
            i += 1;
        }
    }
    pool
}

// ---- collection strategies -----------------------------------------------

/// Strategies over collections, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below(self.size.hi - self.size.lo + 1);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---- any / Arbitrary -----------------------------------------------------

/// Types with a canonical "anything goes" strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// The strategy type [`any`] returns.
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-range strategy.
    fn arbitrary() -> Self::Strategy;
}

/// A strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-domain strategy returned by [`any`] for primitive types.
#[derive(Debug, Clone, Copy)]
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

impl Strategy for AnyPrimitive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Mix of ordinary magnitudes and unit-interval values.
        let raw = rng.unit_f64();
        (raw - 0.5) * 2e6
    }
}

impl Arbitrary for f64 {
    type Strategy = AnyPrimitive<f64>;
    fn arbitrary() -> Self::Strategy {
        AnyPrimitive(std::marker::PhantomData)
    }
}

// ---- config + macros -----------------------------------------------------

/// Runner configuration; only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// `PROPTEST_CASES` cases, 256 when it is unset.
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(256),
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` iterations per property, or
    /// `PROPTEST_CASES` if that is more: the variable is a floor, so a
    /// run can widen a block that pins its own count, never narrow it.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases.max(env_cases().unwrap_or(0)),
        }
    }
}

/// The `PROPTEST_CASES` a run was started with, if set and a number.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Uniform choice among strategy expressions yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Assert within a property; the shim panics immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert within a property; panics immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert within a property; panics immediately (no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests. Each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` that generates `cases` inputs and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::seed_from_u64($crate::seed_for(stringify!($name)));
            for case in 0..config.cases {
                let _guard = $crate::CaseGuard { name: stringify!($name), case };
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_and_vec() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = (0i64..10).generate(&mut rng);
            assert!((0..10).contains(&v));
            let xs = collection::vec(0i64..5, 2..4).generate(&mut rng);
            assert!(xs.len() == 2 || xs.len() == 3);
            let fixed = collection::vec(Just(7u8), 3).generate(&mut rng);
            assert_eq!(fixed, vec![7, 7, 7]);
        }
    }

    #[test]
    fn string_patterns() {
        let mut rng = TestRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = "[a-c]{1,3}".generate(&mut rng);
            assert!((1..=3).contains(&s.chars().count()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let exact = "[a-z]{5}".generate(&mut rng);
            assert_eq!(exact.chars().count(), 5);
            assert!(exact.chars().all(|c| c.is_ascii_lowercase()));
            let t = "\\PC{0,120}".generate(&mut rng);
            assert!(t.chars().count() <= 120);
        }
    }

    #[test]
    fn oneof_and_recursive() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(n) => {
                    assert!((0..4).contains(n), "leaf value out of strategy range");
                    0
                }
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0i64..4).prop_map(Tree::Leaf);
        let tree = leaf.prop_recursive(3, 12, 3, |inner| {
            prop_oneof![collection::vec(inner, 2..4).prop_map(Tree::Node)]
        });
        let mut rng = TestRng::seed_from_u64(3);
        let mut saw_node = false;
        for _ in 0..100 {
            let t = tree.generate(&mut rng);
            assert!(depth(&t) <= 3);
            saw_node |= matches!(t, Tree::Node(_));
        }
        assert!(saw_node, "recursion never produced a branch");
    }

    #[test]
    fn run_seed_is_mixed_in_and_the_default_is_the_name_alone() {
        // FNV-1a of the name, as it always was.
        assert_eq!(mix_seed("", None), 0xcbf2_9ce4_8422_2325);
        assert_eq!(mix_seed("a", None), 0xaf63_dc4c_8601_ec8c);
        let runs = [None, Some("0"), Some("1"), Some("12")];
        let seeds: Vec<u64> = runs.iter().map(|r| mix_seed("p", *r)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|b| a != b), "{seeds:x?}");
        }
        // The name and the run seed cannot trade characters.
        assert_ne!(mix_seed("p1", Some("2")), mix_seed("p", Some("12")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: patterns, tuples, flat_map, any.
        #[test]
        fn macro_smoke(
            x in 0i64..100,
            (a, b) in (0i64..10, 10i64..20),
            flag in any::<bool>(),
            v in prop_oneof![Just(1u8), Just(2u8)],
            len in (1usize..4).prop_flat_map(|n| collection::vec(0u32..9, n..n + 1))
        ) {
            prop_assert!((0..100).contains(&x));
            prop_assert!(a < b);
            prop_assert!(usize::from(flag) <= 1);
            prop_assert!(v == 1 || v == 2);
            prop_assert!(!len.is_empty() && len.len() < 4);
        }
    }
}

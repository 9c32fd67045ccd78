//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This workspace must build with **no third-party dependencies** (CI and
//! the paper-reproduction containers have no crates.io access), so this
//! crate re-implements the small slice of the proptest API the test
//! suites actually use: the [`proptest!`] macro, `prop_assert*`
//! assertions, range/`Just`/tuple/vec strategies, `prop_map` /
//! `prop_flat_map` combinators, [`any`] and [`prop_oneof!`].
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   generated inputs' debug formatting is up to the assertion message.
//! * **Deterministic seeding.** Every test derives its RNG seed from the
//!   test's name, so failures reproduce exactly across runs and machines.
//! * Default case count is 64 (vs. 256) to keep `cargo test` quick;
//!   override per-block with `#![proptest_config(...)]` as usual.
//!
//! If the workspace ever regains registry access, deleting this crate and
//! pointing the `proptest` workspace dependency at crates.io restores the
//! real engine without touching any test file.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic split-mix RNG used to drive generation.
#[derive(Debug, Clone)]
pub struct ShimRng(u64);

impl ShimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw 64-bit draw (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Error carried by `prop_assert!` failures out of a test case body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: String) -> Self {
        Self(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A value generator. The real proptest couples this with shrinking; the
/// shim only generates.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut ShimRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then a value from the strategy
    /// `f` returns for it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut ShimRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut ShimRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut ShimRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ShimRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ShimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width range: any draw is valid.
                    return rng.next_u64() as $t;
                }
                (lo as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut ShimRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let x = self.start + (self.end - self.start) * rng.next_f64() as $t;
                if x >= self.end { self.start } else { x }
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut ShimRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut ShimRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut ShimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut ShimRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy yielding arbitrary values of `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut ShimRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct OneOf<T> {
    /// The alternatives.
    pub options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut ShimRng) -> T {
        assert!(
            !self.options.is_empty(),
            "prop_oneof! needs at least one option"
        );
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{ShimRng, Strategy};
    use std::ops::Range;

    /// Something usable as a vec-length specification.
    pub trait VecLen {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut ShimRng) -> usize;
    }

    impl VecLen for usize {
        fn draw_len(&self, _rng: &mut ShimRng) -> usize {
            *self
        }
    }

    impl VecLen for Range<usize> {
        fn draw_len(&self, rng: &mut ShimRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for vectors with elements from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: VecLen> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut ShimRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Builds a vector strategy of `len` elements drawn from `element`.
    pub fn vec<S: Strategy, L: VecLen>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// format string), for `proptest!`'s failure report.
#[doc(hidden)]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf { options: vec![$(::std::boxed::Box::new($strat)),+] }
    };
}

/// Defines property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( cfg = $cfg:expr; ) => {};
    ( cfg = $cfg:expr;
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            // Per-test deterministic seed: FNV-1a over the test name.
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in stringify!($name).bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = $crate::ShimRng::new(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)*
                // A panicking body (an `unwrap`, an `assert!` in the code
                // under test) is reported like a `prop_assert` failure.
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    },
                ));
                let message = match outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => continue,
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => e.to_string(),
                    ::std::result::Result::Err(payload) => $crate::panic_message(&*payload),
                };
                panic!(
                    "property {} failed at case {}/{}: {}",
                    stringify!($name), case + 1, config.cases, message
                );
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -1.5f32..2.5, z in 1u8..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.5..2.5).contains(&y));
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn combinators_compose(v in collection::vec(0.0f32..1.0, 5)) {
            prop_assert_eq!(v.len(), 5);
            prop_assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        }

        #[test]
        fn flat_map_threads_values(pair in (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
            collection::vec(0.0f32..1.0, r * c).prop_map(move |data| (r, c, data))
        })) {
            let (r, c, data) = pair;
            prop_assert_eq!(data.len(), r * c);
        }

        #[test]
        fn oneof_and_any(b in any::<bool>(), x in prop_oneof![Just(0.0f32), Just(1.0f32)]) {
            prop_assert!(x == 0.0 || x == 1.0);
            let _: bool = b;
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = crate::ShimRng::new(7);
        let mut b = crate::ShimRng::new(7);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics() {
        proptest! {
            #[allow(dead_code)]
            fn always_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "property always_panics failed at case 1/64: x was small")]
    fn panicking_property_reports_name_and_case() {
        proptest! {
            #[allow(dead_code)]
            fn always_panics(x in 0usize..10) {
                assert!(x > 100, "x was small");
            }
        }
        always_panics();
    }
}

#![forbid(unsafe_code)]
//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Implements [`Strategy`] with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, [`collection::vec`], [`Just`], `prop_oneof!`,
//! `any::<T>()`, and the [`proptest!`] / `prop_assert*` macros. Each test
//! runs `ProptestConfig::cases` deterministic cases seeded from the test
//! name, so failures reproduce across runs. No shrinking: a failing case
//! panics with the generated inputs' `Debug` representation via the plain
//! `assert!` machinery, which is enough for this workspace's CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::{Range, RangeInclusive};

/// The RNG driving test-case generation.
pub type TestRng = StdRng;

/// Per-block configuration (subset of the real `ProptestConfig`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A generator of values (no shrinking in this shim).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Type-erased strategy (what `prop_oneof!` stores).
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Weighted union over same-valued strategies (backs `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> OneOf<T> {
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        let total = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights sum to zero");
        Self { options, total }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        use rand::Rng;
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.options {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                use rand::Rng;
                rng.gen::<$t>()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// Strategy form of [`Arbitrary`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `proptest::prelude::any::<T>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`]: an exact `usize`, a
    /// half-open range, or an inclusive range.
    pub trait SizeRange {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element_strategy, len)`.
    pub fn vec<S: Strategy, L: SizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }
}

/// The `prop::` module path used by `prop::collection::vec` etc.
pub mod prop {
    pub use crate::collection;
}

/// Seed a test RNG deterministically from the test's name.
pub fn rng_for_test(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// The `proptest! { ... }` block: expands each
/// `#[test] fn name(arg in strategy, ...) { body }` item into a plain
/// `#[test]` that runs `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    (@munch ($config:expr)) => {};
    (@munch ($config:expr)
        $(#[$meta:meta])+
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::rng_for_test("strategies_generate_in_bounds");
        let s = (1usize..=10, 0.0f64..1.0).prop_flat_map(|(n, _d)| {
            prop::collection::vec(-5.0f64..5.0, n).prop_map(|v| (v.len(), v))
        });
        for _ in 0..200 {
            let (n, v) = s.generate(&mut rng);
            assert!((1..=10).contains(&n));
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|x| (-5.0..5.0).contains(x)));
        }
    }

    #[test]
    fn oneof_respects_weights() {
        let mut rng = crate::rng_for_test("oneof_respects_weights");
        let s = prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!(ones > 800, "ones = {ones}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_cases(x in 0u32..100, v in prop::collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
        }
    }
}

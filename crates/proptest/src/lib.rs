//! In-tree stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the subset of the `proptest` 1.x API its test suites use:
//! the [`strategy::Strategy`] trait with `prop_map` / `prop_recursive` /
//! `boxed`, range and regex-subset string strategies, tuple and
//! collection combinators, [`option::of`], [`bool::ANY`],
//! [`arbitrary::any`], and
//! the `proptest!` / `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` / `prop_oneof!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case reports the generated inputs via
//!   the panic message of the assertion that tripped, unminimized.
//! - **Deterministic seeding** derived from the test name, so failures
//!   reproduce across runs without a persistence file.
//! - String strategies accept only the regex subset actually used:
//!   sequences of `[class]` atoms (literal chars and `a-z` ranges) with
//!   optional `{n}` / `{lo,hi}` repetition, plus bare literal chars.
//!
//! Case count defaults to 64 per property; override with
//! `PROPTEST_CASES`.

pub mod test_runner {
    //! Case execution: RNG plumbing and the pass/reject/fail loop.

    pub use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Random source handed to strategies.
    pub struct TestRng(pub StdRng);

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed — the whole property fails.
        Fail(String),
        /// `prop_assume!` filtered the inputs — draw fresh ones.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail<S: Into<String>>(msg: S) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject<S: Into<String>>(msg: S) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Run one property: `cases` passing executions, retrying rejected
    /// draws up to a bounded number of extra attempts.
    pub fn run_cases<F>(name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let cases = case_count();
        // FNV-1a over the test name: reproducible seeds without any
        // global state or wall-clock input.
        let seed_base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        let mut passed = 0u64;
        let mut attempts = 0u64;
        while passed < cases {
            attempts += 1;
            if attempts > cases * 20 {
                panic!(
                    "proptest '{name}': too many rejected cases \
                     ({passed}/{cases} passed after {attempts} attempts)"
                );
            }
            let mut rng = TestRng(StdRng::seed_from_u64(seed_base ^ attempts));
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed (case {passed}, attempt {attempts}): {msg}")
                }
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::test_runner::TestRng;
    use rand::Rng;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Build a recursive strategy: `recurse` receives a strategy for
        /// the current depth and returns one for the next level up. The
        /// `_desired_size` / `_expected_branch_size` tuning knobs of real
        /// proptest are accepted and ignored.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(strat).boxed();
                let leaf = leaf.clone();
                // Bias toward structure but keep leaves reachable so
                // generated sizes stay bounded.
                strat = BoxedStrategy {
                    f: Rc::new(move |rng: &mut TestRng| {
                        if rng.gen_bool(0.6) {
                            deeper.generate(rng)
                        } else {
                            leaf.generate(rng)
                        }
                    }),
                };
            }
            strat
        }

        /// Type-erase the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                f: Rc::new(move |rng: &mut TestRng| self.generate(rng)),
            }
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T> {
        f: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                f: Rc::clone(&self.f),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among alternatives (the `prop_oneof!` backend).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! numeric_range_strategy {
        ($($t:ty),*) => {
            $(
                impl Strategy for std::ops::Range<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        rng.gen_range(self.clone())
                    }
                }
                impl Strategy for std::ops::RangeInclusive<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        rng.gen_range(self.clone())
                    }
                }
            )*
        };
    }

    numeric_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, f32, f64);

    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            super::string::generate(self, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {
            $(
                #[allow(non_snake_case)]
                impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                    type Value = ($($s::Value,)+);
                    fn generate(&self, rng: &mut TestRng) -> Self::Value {
                        let ($($s,)+) = self;
                        ($($s.generate(rng),)+)
                    }
                }
            )*
        };
    }

    tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E)(
        A, B, C, D, E, G
    )(A, B, C, D, E, G, H)(A, B, C, D, E, G, H, I)(
        A, B, C, D, E, G, H, I, J
    )(A, B, C, D, E, G, H, I, J, K));
}

mod string {
    //! Regex-subset string generation: `[class]{lo,hi}` atom sequences.

    use super::test_runner::TestRng;
    use rand::Rng;

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated [ in pattern {pattern:?}"));
                let class = expand_class(&chars[i + 1..close], pattern);
                i = close + 1;
                class
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            let (lo, hi) = parse_repeat(&chars, &mut i, pattern);
            let n = rng.gen_range(lo..=hi);
            for _ in 0..n {
                out.push(alphabet[rng.gen_range(0..alphabet.len())]);
            }
        }
        out
    }

    fn expand_class(body: &[char], pattern: &str) -> Vec<char> {
        assert!(!body.is_empty(), "empty [] in pattern {pattern:?}");
        let mut set = Vec::new();
        let mut j = 0;
        while j < body.len() {
            if j + 2 < body.len() && body[j + 1] == '-' {
                let (lo, hi) = (body[j], body[j + 2]);
                assert!(lo <= hi, "bad range {lo}-{hi} in pattern {pattern:?}");
                for c in lo..=hi {
                    set.push(c);
                }
                j += 3;
            } else {
                set.push(body[j]);
                j += 1;
            }
        }
        set
    }

    fn parse_repeat(chars: &[char], i: &mut usize, pattern: &str) -> (u32, u32) {
        if *i >= chars.len() || chars[*i] != '{' {
            return (1, 1);
        }
        let close = chars[*i..]
            .iter()
            .position(|&c| c == '}')
            .map(|p| *i + p)
            .unwrap_or_else(|| panic!("unterminated {{ in pattern {pattern:?}"));
        let body: String = chars[*i + 1..close].iter().collect();
        *i = close + 1;
        let parse = |s: &str| -> u32 {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad repeat {body:?} in pattern {pattern:?}"))
        };
        match body.split_once(',') {
            Some((lo, hi)) => (parse(lo), parse(hi)),
            None => {
                let n = parse(&body);
                (n, n)
            }
        }
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `hash_set`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification accepted by the collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    /// `Vec` of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `HashSet` of values from `element`, size drawn from `size`.
    /// Duplicates are redrawn a bounded number of times; a small
    /// alphabet may therefore yield a set below the drawn size.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            let mut set = HashSet::with_capacity(n);
            let mut attempts = 0;
            while set.len() < n && attempts < 10 * n + 20 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod option {
    //! The [`of`] combinator for optional values.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;

    /// `Some` from `inner` about 70% of the time, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.7) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod bool {
    //! Strategies for `bool`.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;

    /// Uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical instance of [`Any`].
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;

        fn generate(&self, rng: &mut TestRng) -> ::core::primitive::bool {
            rng.gen_bool(0.5)
        }
    }
}

pub mod arbitrary {
    //! The [`any`] entry point and the [`Arbitrary`] trait behind it.

    use super::strategy::{BoxedStrategy, Strategy};

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized + 'static {
        fn arbitrary() -> BoxedStrategy<Self>;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> BoxedStrategy<T> {
        T::arbitrary()
    }

    impl Arbitrary for ::core::primitive::bool {
        fn arbitrary() -> BoxedStrategy<Self> {
            super::bool::ANY.boxed()
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {
            $(
                impl Arbitrary for $t {
                    fn arbitrary() -> BoxedStrategy<Self> {
                        (<$t>::MIN..=<$t>::MAX).boxed()
                    }
                }
            )*
        };
    }

    arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use super::arbitrary::{any, Arbitrary};
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::TestCaseError;
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests: each `fn` runs its body for many random
/// draws of its `name in strategy` parameters.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategy = ($($strat,)+);
                $crate::test_runner::run_cases(stringify!($name), move |rng| {
                    let ($($pat,)+) = $crate::strategy::Strategy::generate(&strategy, rng);
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )+
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Reject the current case (redraw inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_patterns_match_shape() {
        use crate::test_runner::{StdRng, TestRng};
        use rand::SeedableRng;
        let mut rng = TestRng(StdRng::seed_from_u64(3));
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z][a-z0-9_]{0,6}", &mut rng);
            assert!((1..=7).contains(&s.len()), "bad length: {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
            let t = Strategy::generate(&"[a-e]", &mut rng);
            assert_eq!(t.len(), 1);
            assert!(('a'..='e').contains(&t.chars().next().unwrap()));
        }
    }

    proptest! {
        /// Smoke test: macro forms, ranges, maps, unions, collections.
        #[test]
        fn macro_and_combinators_work(
            x in -100i64..100,
            f in 0.0f64..=1.0,
            s in "[a-c]{1,3}",
            v in prop::collection::vec(prop_oneof![0i64..10, 90i64..100], 0..8),
            set in prop::collection::hash_set("[a-f]", 1..4),
            flag in crate::bool::ANY,
            opt in crate::option::of(0i64..5),
            b in any::<::core::primitive::bool>(),
        ) {
            prop_assume!(x != 0);
            prop_assert!((-100..100).contains(&x));
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!((1..=3).contains(&s.len()));
            prop_assert!(v.iter().all(|&n| (0..10).contains(&n) || (90..100).contains(&n)));
            prop_assert!(!set.is_empty() && set.len() <= 3);
            prop_assert_eq!(flag, flag);
            if let Some(o) = opt {
                prop_assert!((0..5).contains(&o));
            }
            prop_assert_ne!(b, !b);
        }

        #[test]
        fn recursive_strategy_terminates(depths in prop::collection::vec(
            (0i64..10).prop_map(|n| n).prop_recursive(3, 24, 4, |inner| {
                (inner, Just(1i64)).prop_map(|(a, b)| a + b)
            }),
            1..5,
        )) {
            prop_assert!(depths.iter().all(|&d| (0..14).contains(&d)));
        }
    }
}

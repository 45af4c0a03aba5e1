//! In-tree shim for the `proptest` crate used by hermetic builds of this
//! workspace (no registry access).
//!
//! Supported surface — exactly what the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with an optional leading
//!   `#![proptest_config(...)]`), generating one `#[test]` per contained fn,
//! * `name in strategy` bindings where a strategy is a numeric [`Range`],
//!   a tuple of strategies, or [`collection::vec`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//! * [`ProptestConfig::with_cases`],
//! * the `PROPTEST_CASES_MULTIPLIER` environment variable, which scales
//!   every test's case count proportionally (see [`scaled_cases`]; CI's
//!   nightly job runs the suite at 10×).
//!
//! Cases are generated deterministically from the test's module path, name
//! and case index; there is no shrinking. A rejected case (`prop_assume!`) is
//! retried with the next index and does not count towards the case budget.
//!
//! ## Corpus-seed persistence
//!
//! When a case fails, its `(test identity, case index)` pair is appended to a
//! persistence file (default `proptest-regressions.txt` in the working
//! directory, overridable via the `PROPTEST_PERSISTENCE` environment
//! variable; set it to `off` to disable). On the next run every persisted
//! case for a test is **replayed before any fresh cases**, so a failure found
//! once — locally or by the nightly deep run — keeps reproducing until the
//! bug is fixed and the line is deleted. Because case generation is
//! deterministic, the index alone reconstructs the exact failing inputs; no
//! serialized values are needed. See [`persistence`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::Range;

/// Per-test configuration (subset of the upstream type).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum number of `prop_assume!` rejections tolerated before the test
    /// aborts (mirrors upstream's `max_global_rejects` in spirit).
    pub max_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 64,
            max_rejects: 4096,
        }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

/// The effective case count for a test configured with `base` cases:
/// `base × PROPTEST_CASES_MULTIPLIER` when that environment variable is a
/// positive integer, `base` otherwise.
///
/// Upstream proptest's `PROPTEST_CASES` replaces the *default* case count;
/// this workspace sets an explicit count on almost every test, so an
/// absolute override would distort the suite's carefully budgeted expensive
/// tests. The multiplier scales every test proportionally instead — CI's
/// scheduled nightly job runs the whole suite at 10× depth with
/// `PROPTEST_CASES_MULTIPLIER=10`.
pub fn scaled_cases(base: u32) -> u32 {
    static MULTIPLIER: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    let m = *MULTIPLIER.get_or_init(|| {
        std::env::var("PROPTEST_CASES_MULTIPLIER")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&m| m > 0)
            .unwrap_or(1)
    });
    base.saturating_mul(m)
}

/// Corpus-seed persistence: failing case indices are written to a text file
/// and replayed ahead of fresh cases on subsequent runs.
///
/// The file format is one `<test identity> <case index>` pair per line
/// (identity is `module_path!()::test_name`); blank lines and lines starting
/// with `#` are ignored. The file location comes from the
/// `PROPTEST_PERSISTENCE` environment variable — a path, or `off`/`0` to
/// disable persistence — and defaults to [`DEFAULT_FILE`] in the working
/// directory (for `cargo test` that is the crate root, so each crate keeps
/// its own corpus). The environment is consulted on every call rather than
/// cached: the fuzz CLI spawns per-run files and tests point it at scratch
/// paths.
///
/// [`DEFAULT_FILE`]: persistence::DEFAULT_FILE
pub mod persistence {
    use std::io::Write;
    use std::path::PathBuf;

    /// Default persistence file name, relative to the working directory.
    pub const DEFAULT_FILE: &str = "proptest-regressions.txt";

    /// Environment variable naming the persistence file (`off`/`0` disables).
    pub const ENV_VAR: &str = "PROPTEST_PERSISTENCE";

    fn file() -> Option<PathBuf> {
        match std::env::var(ENV_VAR) {
            Ok(v) if v == "off" || v == "0" => None,
            Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
            _ => Some(PathBuf::from(DEFAULT_FILE)),
        }
    }

    /// The recorded failing case indices for `ident`, sorted and deduplicated.
    ///
    /// Returns an empty vector when persistence is disabled, the file does
    /// not exist, or no line matches. Unparseable lines are skipped (a stale
    /// or hand-edited corpus must never break the suite outright).
    pub fn persisted_cases(ident: &str) -> Vec<u64> {
        let Some(path) = file() else {
            return Vec::new();
        };
        let Ok(content) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        let mut cases: Vec<u64> = content
            .lines()
            .filter_map(|line| {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    return None;
                }
                let (id, case) = line.rsplit_once(' ')?;
                if id.trim() != ident {
                    return None;
                }
                case.parse().ok()
            })
            .collect();
        cases.sort_unstable();
        cases.dedup();
        cases
    }

    /// Records `case` as a failing corpus seed for `ident`.
    ///
    /// Appends one line, deduplicating against already-persisted cases. All
    /// I/O errors are swallowed: persistence is best-effort bookkeeping and
    /// must never mask the assertion failure that triggered it.
    pub fn record_failure(ident: &str, case: u64) {
        let Some(path) = file() else { return };
        if persisted_cases(ident).contains(&case) {
            return;
        }
        let header_needed = !path.exists();
        let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        else {
            return;
        };
        if header_needed {
            let _ = writeln!(
                f,
                "# proptest corpus seeds: one `<test identity> <case index>` per line.\n\
                 # Persisted failures replay before fresh cases; delete a line once fixed."
            );
        }
        let _ = writeln!(f, "{ident} {case}");
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is retried.
    Reject(String),
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self::Fail(msg.into())
    }

    /// Creates a rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        Self::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fail(m) => write!(f, "test case failed: {m}"),
            Self::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic per-case RNG (SplitMix64 keyed by test identity and case
/// index).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Derives the RNG for `ident` (usually `module_path!() :: test name`)
    /// and the given case index.
    pub fn deterministic(ident: &str, case: u64) -> Self {
        // FNV-1a over the identity, mixed with the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in ident.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self {
            state: h ^ case.wrapping_mul(0x9E3779B97F4A7C15),
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A source of generated values (vastly simplified from upstream: a strategy
/// produces a value directly; there is no value tree and no shrinking).
pub trait Strategy {
    /// The type of the generated values.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[inline]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    #[inline]
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    #[inline]
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_strategy_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// A strategy producing a constant value (upstream `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (subset: [`collection::vec`]).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose length lies in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "cannot sample empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    /// Upstream re-exports the crate itself as `prop` inside the prelude so
    /// paths like `prop::collection::vec` resolve.
    pub use crate as prop;
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult, TestRng,
    };
}

/// Fails the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current test case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}` ({:?} != {:?}) at {}:{}",
                        stringify!($left), stringify!($right), l, r, file!(), line!()
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}` ({:?} != {:?}) at {}:{}: {}",
                        stringify!($left), stringify!($right), l, r, file!(), line!(),
                        format!($($fmt)+)
                    )));
                }
            }
        }
    };
}

/// Fails the current test case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{} != {}` (both {:?}) at {}:{}",
                        stringify!($left),
                        stringify!($right),
                        l,
                        file!(),
                        line!()
                    )));
                }
            }
        }
    };
}

/// Rejects the current case (retried with fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Declares property tests. See the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[allow(unreachable_code)]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let ident = concat!(module_path!(), "::", stringify!($name));
            let run_case = |case: u64| -> $crate::TestCaseResult {
                let mut __proptest_rng = $crate::TestRng::deterministic(ident, case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)*
                $body
                ::std::result::Result::Ok(())
            };
            // Replay the persisted failure corpus before any fresh cases: a
            // failure found once keeps reproducing until its line is removed.
            for case in $crate::persistence::persisted_cases(ident) {
                match run_case(case) {
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "{} (persisted corpus case #{} of {})",
                            msg, case, stringify!($name)
                        );
                    }
                    // Ok: the recorded bug is fixed (stale line). Reject: the
                    // strategy changed under the corpus. Neither blocks fresh
                    // exploration.
                    _ => {}
                }
            }
            let target_cases = $crate::scaled_cases(config.cases);
            let mut executed: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while executed < target_cases {
                let result = run_case(case);
                case += 1;
                match result {
                    ::std::result::Result::Ok(()) => executed += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        if rejected > config.max_rejects {
                            panic!(
                                "{}: too many rejected cases ({} rejects for {} accepted)",
                                stringify!($name), rejected, executed
                            );
                        }
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        $crate::persistence::record_failure(ident, case - 1);
                        panic!(
                            "{} (case #{} of {}; seed persisted for replay)",
                            msg, case - 1, stringify!($name)
                        );
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, f in -2.0..2.0f64) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn tuples_and_vecs_compose(
            v in prop::collection::vec((0u16..240, 0u16..180), 1..50),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 50);
            for (x, y) in &v {
                prop_assert!(*x < 240 && *y < 180, "({}, {}) out of sensor", x, y);
            }
        }

        #[test]
        fn assume_rejects_without_failing(a in 0u32..100) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(x in 0u8..10) {
            prop_assert_ne!(x, 200);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = TestRng::deterministic("ident", 5);
        let mut b = TestRng::deterministic("ident", 5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("ident", 6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    mod persistence_tests {
        use crate::persistence::{self, ENV_VAR};
        use std::path::PathBuf;
        use std::sync::Mutex;

        /// Serializes env-var mutation across the persistence tests; other
        /// tests in this binary only ever read the variable.
        static ENV_LOCK: Mutex<()> = Mutex::new(());

        fn scratch(name: &str) -> PathBuf {
            std::env::temp_dir().join(format!("proptest-shim-{}-{}.txt", std::process::id(), name))
        }

        fn with_corpus_file<R>(name: &str, f: impl FnOnce(&PathBuf) -> R) -> R {
            let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let path = scratch(name);
            let _ = std::fs::remove_file(&path);
            std::env::set_var(ENV_VAR, &path);
            let out = f(&path);
            std::env::remove_var(ENV_VAR);
            let _ = std::fs::remove_file(&path);
            out
        }

        #[test]
        fn record_then_replay_round_trips_and_dedups() {
            with_corpus_file("roundtrip", |_| {
                assert!(persistence::persisted_cases("mod::test_a").is_empty());
                persistence::record_failure("mod::test_a", 17);
                persistence::record_failure("mod::test_a", 3);
                persistence::record_failure("mod::test_a", 17); // duplicate
                persistence::record_failure("mod::test_b", 99);
                assert_eq!(persistence::persisted_cases("mod::test_a"), vec![3, 17]);
                assert_eq!(persistence::persisted_cases("mod::test_b"), vec![99]);
                assert!(persistence::persisted_cases("mod::test_c").is_empty());
            });
        }

        #[test]
        fn comments_blanks_and_garbage_lines_are_ignored() {
            with_corpus_file("garbage", |path| {
                std::fs::write(
                    path,
                    "# header\n\nmod::t 5\nmod::t not-a-number\nno-space-line\nmod::t 5\nmod::t 2\n",
                )
                .unwrap();
                assert_eq!(persistence::persisted_cases("mod::t"), vec![2, 5]);
            });
        }

        #[test]
        fn off_disables_persistence_entirely() {
            let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            std::env::set_var(ENV_VAR, "off");
            persistence::record_failure("mod::disabled", 1);
            assert!(persistence::persisted_cases("mod::disabled").is_empty());
            std::env::remove_var(ENV_VAR);
        }
    }
}

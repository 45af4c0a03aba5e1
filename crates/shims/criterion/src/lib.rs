//! In-tree shim for the `criterion` crate used by hermetic builds of this
//! workspace (no registry access).
//!
//! Implements the subset of the Criterion API the workspace's benches use —
//! [`criterion_group!`] / [`criterion_main!`], [`Criterion::benchmark_group`],
//! `bench_function`, `iter` / `iter_batched`, [`Throughput`] — with a simple
//! wall-clock sampler: a short warm-up, then `sample_size` timed samples of an
//! adaptively chosen iteration count. Reports mean / best / worst time per
//! iteration and derived throughput.
//!
//! Every benchmark additionally appends a machine-readable JSON document to
//! `target/criterion-shim/<group>/<benchmark>.json` (schema documented in
//! `docs/BENCHMARKS.md`) so figures can be regenerated without scraping
//! stdout.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Prevents the optimizer from eliding a value (re-export of
/// [`std::hint::black_box`], which is what upstream criterion uses too).
#[inline]
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How much work one benchmark iteration represents, for derived throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (events, votes, ...) processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The shim times each batch
/// individually, so the variants only influence the *number* of batches used
/// per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many batches per sample.
    SmallInput,
    /// Large inputs: one batch per sample.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// One measured sample set for a benchmark.
#[derive(Debug, Clone, Copy, Default)]
struct Measurement {
    samples: u64,
    iters_per_sample: u64,
    mean_ns: f64,
    best_ns: f64,
    worst_ns: f64,
}

/// The per-benchmark timing driver handed to `bench_function` closures.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement: Option<Measurement>,
}

const TARGET_SAMPLE_NS: f64 = 20_000_000.0; // aim for ~20 ms per sample
const MAX_CALIBRATION_ITERS: u64 = 1 << 20;

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            measurement: None,
        }
    }

    /// Benchmarks `routine` by running it repeatedly and timing batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: how many iterations fit the per-sample budget?
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = t.elapsed().as_nanos() as f64;
            if elapsed >= TARGET_SAMPLE_NS / 4.0 || iters >= MAX_CALIBRATION_ITERS {
                break;
            }
            iters *= 2;
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.record(&samples, iters);
    }

    /// Benchmarks `routine` on fresh inputs from `setup`; only the routine is
    /// timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            samples.push(t.elapsed().as_nanos() as f64);
        }
        self.record(&samples, 1);
    }

    fn record(&mut self, samples: &[f64], iters: u64) {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = samples.iter().copied().fold(0.0, f64::max);
        self.measurement = Some(Measurement {
            samples: samples.len() as u64,
            iters_per_sample: iters,
            mean_ns: mean,
            best_ns: best,
            worst_ns: worst,
        });
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    context: Vec<(String, String)>,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration of subsequent benchmarks does.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Attaches a key/value annotation to every subsequent benchmark in the
    /// group. Annotations are emitted as a `"context"` object in the
    /// `eventor-bench/1` JSON document (an additive schema extension; the
    /// object is omitted when no annotations are set) so run conditions that
    /// affect the numbers — e.g. which SIMD dispatch tier actually executed —
    /// travel with the measurement. Not part of upstream criterion; benches
    /// relying on it are shim-only.
    pub fn context(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let key = key.into();
        self.context.retain(|(k, _)| *k != key);
        self.context.push((key, value.into()));
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        let m = bencher
            .measurement
            .unwrap_or_else(|| panic!("benchmark {id} never called iter()/iter_batched()"));
        self.criterion
            .report(&self.name, &id, self.throughput, &self.context, m);
        self
    }

    /// Finishes the group (stdout separator only; reports are flushed as each
    /// benchmark completes).
    pub fn finish(&mut self) {
        println!();
    }
}

/// The benchmark driver (subset of upstream `Criterion`).
#[derive(Debug)]
pub struct Criterion {
    out_dir: Option<PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            out_dir: output_dir(),
        }
    }
}

/// Where this shim writes its per-benchmark JSON documents
/// (`<target>/criterion-shim`): `CARGO_TARGET_DIR` when set, else the first
/// `target` ancestor of the running executable. Exposed so benches that
/// post-process their own JSON (e.g. to compute a speedup ratio) resolve
/// the directory through the same logic that produced the files, instead
/// of re-implementing it.
pub fn output_dir() -> Option<PathBuf> {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            std::env::current_exe().ok().and_then(|exe| {
                // target/release/deps/bench-... -> target
                exe.ancestors()
                    .find(|p| p.file_name() == Some("target".as_ref()))
                    .map(PathBuf::from)
            })
        })
        .map(|t| t.join("criterion-shim"))
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
            sample_size: 10,
            context: Vec::new(),
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("ungrouped").bench_function(id, f);
        self
    }

    fn report(
        &self,
        group: &str,
        id: &str,
        throughput: Option<Throughput>,
        context: &[(String, String)],
        m: Measurement,
    ) {
        let mut line = format!(
            "{group}/{id}: mean {} (best {}, worst {}, {} samples x {} iters)",
            fmt_ns(m.mean_ns),
            fmt_ns(m.best_ns),
            fmt_ns(m.worst_ns),
            m.samples,
            m.iters_per_sample,
        );
        let per_sec = |n: u64| n as f64 / (m.mean_ns * 1e-9);
        match throughput {
            Some(Throughput::Elements(n)) => {
                let _ = write!(line, "; {:.3} Melem/s", per_sec(n) / 1e6);
            }
            Some(Throughput::Bytes(n)) => {
                let _ = write!(line, "; {:.3} MiB/s", per_sec(n) / (1024.0 * 1024.0));
            }
            None => {}
        }
        for (k, v) in context {
            let _ = write!(line, "; {k}={v}");
        }
        println!("{line}");
        self.write_json(group, id, throughput, context, m);
    }

    fn write_json(
        &self,
        group: &str,
        id: &str,
        throughput: Option<Throughput>,
        context: &[(String, String)],
        m: Measurement,
    ) {
        let Some(dir) = self.out_dir.as_ref() else {
            return;
        };
        let dir = dir.join(sanitize(group));
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let (tp_kind, tp_amount) = match throughput {
            Some(Throughput::Elements(n)) => ("elements", n),
            Some(Throughput::Bytes(n)) => ("bytes", n),
            None => ("none", 0),
        };
        // Hand-rolled JSON: group/benchmark ids and context annotations in
        // this workspace are simple identifiers (context values may also
        // carry decimal numbers), so sanitize()/sanitize_value() guarantee
        // no escaping is needed. The "context" object is additive
        // (eventor-bench/1 readers must ignore unknown keys) and omitted
        // when empty.
        let context_json = if context.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = context
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", sanitize(k), sanitize_value(v)))
                .collect();
            format!(",\n  \"context\": {{ {} }}", pairs.join(", "))
        };
        let json = format!(
            concat!(
                "{{\n",
                "  \"schema\": \"eventor-bench/1\",\n",
                "  \"group\": \"{}\",\n",
                "  \"benchmark\": \"{}\",\n",
                "  \"samples\": {},\n",
                "  \"iters_per_sample\": {},\n",
                "  \"mean_ns\": {:.3},\n",
                "  \"best_ns\": {:.3},\n",
                "  \"worst_ns\": {:.3},\n",
                "  \"throughput\": {{ \"kind\": \"{}\", \"amount_per_iter\": {} }}{}\n",
                "}}\n"
            ),
            sanitize(group),
            sanitize(id),
            m.samples,
            m.iters_per_sample,
            m.mean_ns,
            m.best_ns,
            m.worst_ns,
            tp_kind,
            tp_amount,
            context_json,
        );
        let _ = std::fs::write(dir.join(format!("{}.json", sanitize(id))), json);
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Like [`sanitize`] but also keeps `.`, so context values can carry
/// decimal numbers (e.g. a p99 in seconds) without mangling.
fn sanitize_value(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Declares a function running the listed benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let mut b = Bencher::new(3);
        b.iter(|| (0..100u64).sum::<u64>());
        let m = b.measurement.unwrap();
        assert!(m.mean_ns > 0.0);
        assert!(m.best_ns <= m.worst_ns);
    }

    #[test]
    fn iter_batched_times_only_the_routine() {
        let mut b = Bencher::new(3);
        b.iter_batched(
            || vec![1u8; 1024],
            |v| v.iter().map(|&x| x as u64).sum::<u64>(),
            BatchSize::LargeInput,
        );
        assert!(b.measurement.unwrap().samples == 3);
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion { out_dir: None };
        let mut group = c.benchmark_group("shim_selftest");
        group.throughput(Throughput::Elements(100));
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.finish();
    }

    #[test]
    fn sanitize_keeps_identifiers() {
        assert_eq!(sanitize("voting/bilinear_f32"), "voting_bilinear_f32");
    }

    #[test]
    fn context_annotations_land_in_the_json_document() {
        let dir =
            std::env::temp_dir().join(format!("criterion-shim-ctx-test-{}", std::process::id()));
        let mut c = Criterion {
            out_dir: Some(dir.clone()),
        };
        let mut group = c.benchmark_group("ctx_selftest");
        group.sample_size(2);
        group.context("dispatch_tier", "swar");
        group.context("dispatch_tier", "avx2"); // later set wins
        group.context("p99_seconds", "1.250000");
        group.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        group.finish();
        let json = std::fs::read_to_string(dir.join("ctx_selftest").join("sum.json")).unwrap();
        assert!(json.contains(
            "\"context\": { \"dispatch_tier\": \"avx2\", \"p99_seconds\": \"1.250000\" }"
        ));
        assert!(!json.contains("swar"));
        assert!(json.contains("\"schema\": \"eventor-bench/1\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_omits_context_when_unset() {
        let dir =
            std::env::temp_dir().join(format!("criterion-shim-noctx-test-{}", std::process::id()));
        let mut c = Criterion {
            out_dir: Some(dir.clone()),
        };
        let mut group = c.benchmark_group("noctx_selftest");
        group.sample_size(2);
        group.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        group.finish();
        let json = std::fs::read_to_string(dir.join("noctx_selftest").join("sum.json")).unwrap();
        assert!(!json.contains("context"));
        let _ = std::fs::remove_dir_all(dir);
    }
}

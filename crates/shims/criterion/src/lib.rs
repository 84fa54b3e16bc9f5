//! Workspace-local stand-in for the
//! [`criterion`](https://crates.io/crates/criterion) benchmark harness.
//!
//! Implements the API surface this repository's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::sample_size`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros — as a minimal
//! wall-clock timer: each benchmark runs a short warm-up plus a fixed
//! number of timed samples and prints the per-iteration mean. There is no
//! statistical analysis, outlier detection, plotting, or CLI filtering;
//! the point is that `cargo bench` compiles and gives a usable number
//! without registry access.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export so `criterion::black_box` callers keep working.
pub use std::hint::black_box;

/// Harness entry point; holds the default per-benchmark sample count.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 50 }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.sample_size, f);
    }
}

/// A named set of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

/// Two-part benchmark identifier (`function_name/parameter`).
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.to_string(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// How much setup output `iter_batched` materialises per timing batch.
/// The shim times one routine call per batch regardless, so the variants
/// only exist for source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over `self.iters` back-to-back calls.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on fresh input from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            // Like criterion, drop the routine's output off the clock: a
            // routine that hands its large input back is not charged for
            // tearing it down.
            drop(output);
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    // Warm-up: one untimed pass, also used to size the timed batches so
    // fast routines get enough iterations for the clock to resolve.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    f(&mut b);
    let once = start.elapsed().max(Duration::from_nanos(1));
    let target = Duration::from_millis(5);
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;

    let mut total = Duration::ZERO;
    let mut count = 0u64;
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total += b.elapsed;
        count += b.iters;
    }
    let per_iter = if count == 0 {
        Duration::ZERO
    } else {
        total / count as u32
    };
    println!("bench: {label:<48} {per_iter:>12.2?}/iter  ({count} iters)");
}

/// Collects benchmark functions under one runner name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_iter_and_iter_batched() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut calls = 0u64;
        group.bench_function(BenchmarkId::new("iter", "x"), |b| b.iter(|| calls += 1));
        assert!(calls > 0);
        group.bench_function("batched", |b| {
            b.iter_batched(|| 21u64, |v| v * 2, BatchSize::SmallInput)
        });
        group.finish();
    }
}

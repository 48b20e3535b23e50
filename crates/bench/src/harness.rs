//! Minimal wall-clock benchmark harness with a Criterion-shaped API.
//!
//! The workspace builds hermetically (no registry access), so the real
//! `criterion` crate is not available. This module implements the small
//! subset of its surface the bench targets use — `Criterion`,
//! `BenchmarkId`, benchmark groups, `b.iter` / `b.iter_with_setup`, and
//! the `criterion_group!` / `criterion_main!` macros — reporting the
//! median ns/iter over a fixed number of samples.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall time per sample; iteration counts are calibrated to it.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(2);

pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let stats = run_samples(self.sample_size, &mut f);
        report(name, &stats);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            sample_size: 10,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let stats = run_samples(self.sample_size, &mut |b: &mut Bencher| {
            b_input(b, input, &mut f)
        });
        report(&format!("{}/{}", self.name, id.0), &stats);
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let stats = run_samples(self.sample_size, &mut f);
        report(&format!("{}/{name}", self.name), &stats);
        self
    }

    pub fn finish(self) {}
}

fn b_input<I, F>(b: &mut Bencher, input: &I, f: &mut F)
where
    F: FnMut(&mut Bencher, &I),
{
    f(b, input)
}

pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to benchmark closures; `iter*` methods time the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }

    pub fn iter_with_setup<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }
}

struct Stats {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

fn time_iters<F: FnMut(&mut Bencher)>(iters: u64, f: &mut F) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_samples<F: FnMut(&mut Bencher)>(sample_size: usize, f: &mut F) -> Stats {
    // Calibrate: grow the iteration count until one sample reaches the
    // target wall time (or the routine is clearly slow enough already).
    let mut iters = 1u64;
    loop {
        let t = time_iters(iters, f);
        if t >= TARGET_SAMPLE_TIME || iters >= 1 << 20 {
            break;
        }
        let scale = (TARGET_SAMPLE_TIME.as_secs_f64() / t.as_secs_f64().max(1e-9)).ceil();
        iters = (iters.saturating_mul(scale as u64)).clamp(iters + 1, 1 << 20);
    }
    let mut per_iter: Vec<f64> = (0..sample_size)
        .map(|_| time_iters(iters, f).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    Stats {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn report(name: &str, stats: &Stats) {
    println!(
        "{name:<48} median {:>12}  (min {}, max {})",
        fmt_ns(stats.median_ns),
        fmt_ns(stats.min_ns),
        fmt_ns(stats.max_ns),
    );
}

/// Criterion-compatible group macro: defines a function running each
/// registered benchmark against a fresh `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Criterion-compatible main macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs() {
        let mut c = Criterion::default();
        let mut count = 0u64;
        c.bench_function("noop", |b| b.iter(|| count += 1));
        assert!(count > 0);
    }

    #[test]
    fn group_runs_with_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        let mut hits = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7usize), &7usize, |b, &n| {
            b.iter(|| hits += n as u64)
        });
        group.finish();
        assert!(hits > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).0, "f/3");
        assert_eq!(BenchmarkId::from_parameter(9).0, "9");
    }
}

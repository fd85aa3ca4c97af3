//! A dependency-free micro-benchmark harness: warmup, batch
//! calibration, median-of-N reporting, JSON output.
//!
//! Replaces the Criterion benches. The model is deliberately simple:
//! each benchmark calibrates a batch size so one sample takes a
//! measurable slice of wall-clock (amortizing timer granularity for
//! nanosecond-scale bodies), takes `sample_size` samples, and reports
//! the median per-iteration time. Results print as a table and are
//! written as JSON under `<workspace target>/bench-results/` (override
//! the directory with `RMA_BENCH_OUT_DIR`).

use crate::json::{self, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall-clock per sample the calibrator aims for.
const TARGET_SAMPLE: Duration = Duration::from_millis(2);

/// One benchmark's measurements.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id within the group.
    pub id: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Per-iteration times of each sample, nanoseconds.
    pub samples_ns: Vec<f64>,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
}

/// A named group of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// A group named `name` with the default sample size (20).
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup { name: name.into(), sample_size: 20, results: Vec::new() }
    }

    /// Overrides the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 3, "need at least 3 samples for a meaningful median");
        self.sample_size = n;
        self
    }

    /// Measures `f`, which runs one iteration of the benchmark body and
    /// returns a value kept opaque to the optimizer.
    pub fn bench<R>(&mut self, id: impl Into<String>, mut f: impl FnMut() -> R) {
        let id = id.into();
        // Warmup + calibration: double the batch until a batch takes
        // TARGET_SAMPLE (also warms caches and branch predictors).
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 24 {
                break;
            }
            // Jump straight to the estimated batch when we are within
            // 8x, otherwise keep doubling to stay robust to noise.
            if elapsed >= TARGET_SAMPLE / 8 {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                iters = ((TARGET_SAMPLE.as_secs_f64() / per_iter).ceil() as u64).max(iters + 1);
                break;
            }
            iters *= 2;
        }

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        let mut sorted = samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let median_ns = sorted[sorted.len() / 2];
        eprintln!("{}/{id}: {} ({iters} iters/sample)", self.name, fmt_ns(median_ns));
        self.results.push(BenchResult { id, iters_per_sample: iters, samples_ns, median_ns });
    }

    /// Prints the summary table and writes the group's JSON report.
    /// Returns the path of the JSON file.
    pub fn finish(&self) -> std::path::PathBuf {
        let width = self.results.iter().map(|r| r.id.len()).max().unwrap_or(4).max(4);
        println!("\n{} ({} samples each)", self.name, self.sample_size);
        println!("{}", "-".repeat(width + 16));
        for r in &self.results {
            println!("{:<width$}  {:>12}", r.id, fmt_ns(r.median_ns));
        }
        let dir = match std::env::var("RMA_BENCH_OUT_DIR") {
            Ok(d) => std::path::PathBuf::from(d),
            Err(_) => default_out_dir(),
        };
        let path = dir.join(format!("{}.json", self.name.replace('/', "_")));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.to_json())) {
            Ok(()) => println!("results written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        path
    }

    /// The group's results as a JSON document.
    pub fn to_json(&self) -> String {
        let benches = self.results.iter().map(|r| {
            let samples = r.samples_ns.iter().map(|&s| json::fixed(s, 1)).collect();
            json::obj([
                ("id", r.id.as_str().into()),
                ("iters_per_sample", r.iters_per_sample.into()),
                ("median_ns", json::fixed(r.median_ns, 1)),
                ("samples_ns", Value::Arr(samples)),
            ])
        });
        json::obj([
            ("group", self.name.as_str().into()),
            ("sample_size", self.sample_size.into()),
            ("benches", Value::Arr(benches.collect())),
        ])
        .to_document()
    }

    /// Measurements collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Cargo runs bench binaries with the *package* directory as cwd, so a
/// bare `target/` would land inside `crates/<pkg>/` for workspace
/// members. Walk up to the nearest ancestor that already has a
/// `target/` directory (the workspace build dir) before giving up and
/// using a local one.
fn default_out_dir() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        let candidate = dir.join("target");
        if candidate.is_dir() {
            return candidate.join("bench-results");
        }
        if !dir.pop() {
            return std::path::PathBuf::from("target/bench-results");
        }
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports_median() {
        let mut g = BenchGroup::new("selftest");
        g.sample_size(5);
        g.bench("noop", || 1 + 1);
        assert_eq!(g.results().len(), 1);
        let r = &g.results()[0];
        assert!(r.median_ns >= 0.0);
        assert!(r.iters_per_sample >= 1);
        assert_eq!(r.samples_ns.len(), 5);
    }

    #[test]
    fn json_escapes_and_includes_fields() {
        let mut g = BenchGroup::new("self\"test");
        g.sample_size(3);
        g.bench("a", || 0u8);
        let j = g.to_json();
        assert!(j.contains(r#""group":"self\"test""#));
        let doc = json::parse(&j).unwrap();
        let bench = &doc["benches"].as_array().unwrap()[0];
        assert!(bench["median_ns"].as_f64().is_some());
        assert_eq!(bench["id"].as_str(), Some("a"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.300 us");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}

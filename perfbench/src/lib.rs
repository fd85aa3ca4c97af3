//! Benchmark of the repository's serving path: trace bytes in, verdict
//! out, through the public `rma_served` API.
//!
//! An untraced run (`trace = false`) serves a workload end to end for the
//! time budget and reports what a user sees: throughput, verdict
//! latency, set-up time and peak memory. A traced run (`trace = true`)
//! splits the same work into layers from the outside: it composes the
//! layers' public functions single-threaded, in the order a service
//! worker runs them, and times each call — `StreamDecoder` (decode),
//! `replay_trace` (scheduler), the Service's store engine (through a
//! timing `AccessStore` decorator), `verdict_line` — then times the
//! client side of `Service` calls and the spool daemon against a
//! Service-only pass. Nothing inside the program is instrumented.
//!
//! Every verdict, served or composed, is compared with a reference
//! computed by direct replay; a mismatch marks the run incorrect.

mod inputs;
mod layers;
mod serve;

use std::time::Duration;

/// Bytes per `feed` call, matching the daemon's spool reader.
pub const CHUNK: usize = 4096;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Three large single-rank churn streams, one closed-loop client.
    LargeChurn,
    /// The 240 suite cases, one closed-loop client.
    SuiteMany,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order. The spool daemon has no
    /// workload of its own — its batch wall time varied 2.5x between
    /// runs on a 2-core container (fsync-bound) — and is measured in
    /// every traced run instead. Nor do the recorded CFD-Proxy and
    /// MiniVite runs: on the same container their served throughput
    /// moved 1.5x from run to run and between minutes, as the one-client
    /// 4 KiB feed pipeline settled into one of two speeds.
    pub const ALL: [Workload; 2] = [Workload::LargeChurn, Workload::SuiteMany];

    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeChurn => "large-churn",
            Workload::SuiteMany => "suite-many",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients (one tenant each) feeding the Service. One
    /// each: with two suite-many clients, four busy threads on a 2-core
    /// container gave throughputs 1.2x apart from run to run, as the
    /// scheduler placed them.
    fn clients(self) -> usize {
        match self {
            Workload::LargeChurn | Workload::SuiteMany => 1,
        }
    }

    /// Streams each client serves per round, out of `n` distinct ones.
    /// Each round gives one median latency, and the end-to-end p50 is
    /// their median: a large-churn stream alone takes about a second, a
    /// suite-many round of 1920 streams tens of milliseconds.
    fn round_streams(self, n: usize) -> usize {
        match self {
            Workload::LargeChurn => 1,
            Workload::SuiteMany => 8 * n,
        }
    }
}

/// Input size: `Full` is the benchmark, `Tiny` the smoke test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few thousand events per workload.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Which workload to serve.
    pub workload: Workload,
    /// Sets submission order and the churn interleaving.
    pub seed: u64,
    /// How long to measure.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Tail latency is a per-layer metric: only `suite-many` has the samples
/// for a p99, and on a 2-core host its value mostly measures the
/// scheduler.
pub const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "events/s"),
    ("streams_per_s", "streams/s"),
    ("verdict_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
/// Times and counts are per pass over the workload's distinct streams.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("trace.stream.ns_per_event", "ns/event"),
    ("trace.stream.busy_ms", "ms"),
    ("trace.stream.peak_buffered_bytes", "bytes"),
    ("trace.replay.self_ns_per_event", "ns/event"),
    ("trace.replay.self_ms", "ms"),
    ("trace.replay.epochs", "count"),
    ("core.store.record_ns_per_access", "ns/access"),
    ("core.store.record_ms", "ms"),
    ("core.store.clear_ms", "ms"),
    ("core.store.build_us_per_store", "us/store"),
    ("core.store.accesses", "count"),
    ("core.store.peak_nodes", "count"),
    ("core.store.cum_epoch_end_nodes", "count"),
    ("core.store.fragments", "count"),
    ("core.store.merges", "count"),
    ("core.store.fast_hit_ratio", "ratio"),
    ("core.store.tree_record_ns_per_access", "ns/access"),
    ("trace.verdict.us_per_stream", "us/stream"),
    ("served.service.submit_us", "us"),
    ("served.service.finish_wait_ms", "ms"),
    ("served.service.latency_p99_ms", "ms"),
    ("served.service.overhead_us_per_stream", "us/stream"),
    ("served.service.feed_ms", "ms"),
    ("served.service.blocked_sends", "count"),
    ("served.service.queue_peak", "count"),
    ("served.service.refused", "count"),
    ("served.daemon.overhead_ms_per_stream", "ms/stream"),
    ("served.daemon.fs_ops_per_stream", "ops/stream"),
    ("served.daemon.publish_failures", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every verdict matched its reference and every check held.
    pub correct: bool,
    /// Streams whose verdict was checked.
    pub attempted: u64,
    /// Streams refused, lost, or answered with a wrong verdict.
    pub failed: u64,
    /// The metrics, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn new(
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        values: &[f64],
    ) -> Report {
        assert_eq!(table.len(), values.len(), "one value per metric");
        let metrics: Vec<Metric> = table
            .iter()
            .zip(values)
            .map(|(&(name, unit), &value)| Metric { name, unit, value })
            .collect();
        let finite = metrics.iter().all(|m| m.value.is_finite());
        Report {
            correct: failed == 0 && attempted > 0 && finite,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the workload's inputs from the seed and runs it.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let streams = inputs::build(opts.workload, opts.size, opts.seed)?;
    if !opts.trace {
        return Ok(serve::run(opts, &streams));
    }
    let scratch = scratch_dir();
    let report = layers::run(opts, &streams, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// Where spool directories go: under the cargo target directory, so a
/// run writes nothing outside the build tree.
fn scratch_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join(format!("perfbench-{}", std::process::id()))
}

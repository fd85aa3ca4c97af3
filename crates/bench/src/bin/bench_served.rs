//! Service-ingest benchmark with a reproducible baseline: drives a
//! fixed batch of suite-recorded trace streams through the `rma-served`
//! pipeline — chunked feeds over the bounded queues, round-robin
//! scheduling, per-stream decode and detector replay, structured
//! shutdown — at several pool sizes, against a direct in-process
//! `replay_trace` of the same traces over the store the Service builds
//! (the no-service cost floor, same engine on both sides), plus full
//! spool-daemon passes (WAL admission, verdict publishes) at every
//! `--durability` fsync discipline so the durability tax is a measured
//! number. Emits `BENCH_served.json` holding, per configuration:
//! median and best wall time for the whole batch and the derived
//! events/second.
//!
//! The JSON is byte-stable modulo the timing fields: `streams`,
//! `events` and `races` are pure functions of the deterministic
//! workload (and are asserted identical between the direct and served
//! paths — the bench doubles as a verdict-equivalence check), so two
//! runs differ only in `median_ns`/`best_ns`/`events_per_sec`.
//!
//! Flags:
//!
//! * `--smoke` — fewer streams + 3 samples, for CI under `timeout`;
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_served.json` in the current directory);
//! * `--check <path>` — validate an existing report instead of
//!   benchmarking: required keys present, every number finite; exits
//!   non-zero on violation.

use rma_served::daemon::{run_daemon, DaemonCfg, DaemonExit};
use rma_served::{resolve_rcfg, Durability, ServeCfg, Service, Spool};
use rma_core::{Interval, SrcLoc};
use rma_substrate::fs::Fs;
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::{
    replay_trace, ReplayOutcome, StoreTarget, Trace, TraceEvent, TraceHeader, TraceWriter,
};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per `StreamHandle::feed` call, matching the daemon's spool
/// reader.
const FEED_CHUNK: usize = 4096;

/// Pool shapes compared (label, workers). `queue_bound` is fixed at the
/// service default so the comparison isolates pool parallelism.
const POOLS: [(&str, usize); 3] = [("served/w1", 1), ("served/w2", 2), ("served/w4", 4)];

/// Full spool-daemon passes (inbox → WAL → feed → verdict publish) at
/// each fsync discipline, so the durability tax is a measured number
/// against the same in-process pool and the direct floor.
const SPOOL_MODES: [(&str, Durability); 3] = [
    ("spool/none", Durability::None),
    ("spool/batch", Durability::Batch),
    ("spool/strict", Durability::Strict),
];

/// Replays `trace` through the store the Service builds for every
/// stream (`ServeCfg::default()`, algorithm resolved from its detector)
/// — the direct rows compare the service against the same engine.
fn direct_replay(trace: &Trace) -> ReplayOutcome {
    let rcfg = resolve_rcfg(&ServeCfg::default());
    replay_trace(trace, Box::new(StoreTarget::new(move || rcfg.build_store(None))))
}

struct Workload {
    streams: Vec<Vec<u8>>,
    events: usize,
    races: usize,
}

/// A single outsized stream. The many-small-streams batch exercises
/// scheduling and admission; this row exercises per-stream store
/// growth, chunked decode of a long stream, and sustained single-worker
/// throughput. Churn-shaped (see `bench_hotpath`): one rank, one
/// `lock_all` epoch, disjoint tracked accesses interleaved across 1 MiB
/// regions so the interval store accumulates a node per access.
struct LargeStream {
    bytes: Vec<u8>,
    events: usize,
    races: usize,
}

fn record_large(regions: u64, per_region: u64) -> LargeStream {
    let mut ev = Vec::new();
    let win = rma_sim::WinId(0);
    ev.push(TraceEvent::WinAllocate { win, base: 0, len: regions << 20 });
    ev.push(TraceEvent::LockAll { win });
    for i in 0..per_region {
        for r in 0..regions {
            let lo = (r << 20) + i * 3;
            ev.push(TraceEvent::Local {
                interval: Interval::new(lo, lo + 1),
                write: i % 4 == 0,
                on_stack: false,
                tracked: true,
                loc: SrcLoc::synthetic("large.c", r as u32 + 1),
            });
        }
    }
    ev.push(TraceEvent::UnlockAll { win });
    ev.push(TraceEvent::Finish);
    let trace = Trace {
        header: TraceHeader { version: 1, nranks: 1, seed: 0x5EED, app: "large".into() },
        streams: vec![ev],
    };
    let outcome = direct_replay(&trace);
    LargeStream { bytes: trace.encode(), events: outcome.events, races: outcome.races.len() }
}

/// Records the first `n` suite cases and pins the direct-replay
/// totals every configuration must reproduce.
fn record_workload(n: usize) -> Workload {
    let mut streams = Vec::new();
    let mut events = 0;
    let mut races = 0;
    for spec in generate_suite().iter().take(n) {
        let writer = Arc::new(TraceWriter::new(spec.name(), 0x5EED));
        run_case_with_monitor(spec, writer.clone());
        let trace = writer.trace();
        let outcome = direct_replay(&trace);
        events += outcome.events;
        races += outcome.races.len();
        streams.push(trace.encode());
    }
    Workload { streams, events, races }
}

/// One served pass over the whole batch: fresh service, every stream
/// fed chunked from its own thread (in waves bounding thread count),
/// structured shutdown. Returns `(events, races)` from the final stats.
fn serve_batch(w: &Workload, workers: usize) -> (u64, u64) {
    let svc = Service::new(ServeCfg { workers, ..Default::default() });
    for wave in w.streams.chunks(16) {
        let handles: Vec<_> = wave
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                let h = svc.submit("bench", &format!("s{i}")).expect("admission");
                let bytes = bytes.clone();
                std::thread::spawn(move || {
                    for piece in bytes.chunks(FEED_CHUNK) {
                        h.feed(piece).expect("feed");
                    }
                    h.finish().expect("verdict")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("feeder");
        }
    }
    let (stats, _) = svc.shutdown();
    let t = &stats.tenants["bench"];
    (t.events, t.races)
}

/// One full spool-daemon pass: the batch dropped into a fresh inbox
/// with a shutdown sentinel, served through [`run_daemon`] (WAL
/// admission, chunked feeds, idempotent verdict publishes, structured
/// drain) at the given durability. Returns `(events, races)` from the
/// final stats.
fn spool_batch(w: &Workload, durability: Durability) -> (u64, u64) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bench-served-spool-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = Spool::create(&dir, Fs::real()).expect("spool");
    for (i, bytes) in w.streams.iter().enumerate() {
        std::fs::write(spool.inbox.join(format!("bench__s{i}.rmatrc")), bytes)
            .expect("inbox write");
    }
    std::fs::write(spool.inbox.join("__shutdown__"), b"").expect("sentinel");
    let cfg = DaemonCfg {
        serve: ServeCfg { workers: 2, ..Default::default() },
        durability,
        serial: false,
        poll: Duration::from_millis(1),
    };
    let DaemonExit::Drained { stats, .. } = run_daemon(&spool, &cfg).expect("daemon") else {
        panic!("bench daemon crashed without an injected fault");
    };
    let t = &stats.tenants["bench"];
    let out = (t.events, t.races);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One served pass over the single large stream: one submission, one
/// feeder, chunked feeds through the bounded queue.
fn serve_large(l: &LargeStream) -> (u64, u64) {
    let svc = Service::new(ServeCfg { workers: 2, ..Default::default() });
    let h = svc.submit("bench", "large").expect("admission");
    for piece in l.bytes.chunks(FEED_CHUNK) {
        h.feed(piece).expect("feed");
    }
    h.finish().expect("verdict");
    let (stats, _) = svc.shutdown();
    let t = &stats.tenants["bench"];
    (t.events, t.races)
}

/// Direct in-process replay of the large stream — its no-service floor.
fn direct_large(l: &LargeStream) -> (u64, u64) {
    let trace = rma_trace::Trace::decode(&l.bytes).expect("large stream decodes");
    let out = direct_replay(&trace);
    (out.events as u64, out.races.len() as u64)
}

/// Direct in-process replay of the same batch — the no-service floor.
fn direct_batch(w: &Workload) -> (u64, u64) {
    let mut events = 0u64;
    let mut races = 0u64;
    for bytes in &w.streams {
        let trace = rma_trace::Trace::decode(bytes).expect("bench stream decodes");
        let out = direct_replay(&trace);
        events += out.events as u64;
        races += out.races.len() as u64;
    }
    (events, races)
}

struct Row {
    config: &'static str,
    workers: usize,
    durability: &'static str,
    median_ns: f64,
    best_ns: f64,
    events_per_sec: f64,
}

fn report_json(smoke: bool, w: &Workload, l: &LargeStream, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"served\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"streams\": {},\n", w.streams.len()));
    out.push_str(&format!("  \"events\": {},\n", w.events));
    out.push_str(&format!("  \"races\": {},\n", w.races));
    out.push_str(&format!("  \"large_bytes\": {},\n", l.bytes.len()));
    out.push_str(&format!("  \"large_events\": {},\n", l.events));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"workers\": {}, \"durability\": \"{}\", \
             \"median_ns\": {:.1}, \"best_ns\": {:.1}, \"events_per_sec\": {:.0}}}{}\n",
            r.config,
            r.workers,
            r.durability,
            r.median_ns,
            r.best_ns,
            r.events_per_sec,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema validation of an existing report — same targeted-scan style
/// as `bench_hotpath --check`.
fn check_report(text: &str) -> Result<(), String> {
    for key in [
        "\"bench\"",
        "\"smoke\"",
        "\"streams\"",
        "\"events\"",
        "\"races\"",
        "\"large_bytes\"",
        "\"large_events\"",
        "\"rows\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    if !text.contains("\"served\"") {
        return Err("bench id is not \"served\"".into());
    }
    let mut rows = 0;
    let mut large_rows = 0;
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"config\"") {
            continue;
        }
        rows += 1;
        large_rows += usize::from(line.contains("large"));
        for key in [
            "\"config\"",
            "\"workers\"",
            "\"durability\"",
            "\"median_ns\"",
            "\"best_ns\"",
            "\"events_per_sec\"",
        ] {
            if !line.contains(key) {
                return Err(format!("row {rows}: missing key {key}"));
            }
        }
    }
    if rows == 0 {
        return Err("no measurement rows".into());
    }
    if large_rows == 0 {
        return Err("no large-trace rows".into());
    }
    for key in
        ["\"workers\":", "\"median_ns\":", "\"best_ns\":", "\"events_per_sec\":", "\"events\":"]
    {
        let mut from = 0;
        while let Some(pos) = text[from..].find(key) {
            let start = from + pos + key.len();
            let rest = text[start..].trim_start();
            let end = rest
                .find(|c: char| {
                    !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
                })
                .unwrap_or(rest.len());
            let num: f64 = rest[..end]
                .parse()
                .map_err(|_| format!("{key} followed by non-number {:?}", &rest[..end.min(16)]))?;
            if !num.is_finite() {
                return Err(format!("{key} is not finite: {num}"));
            }
            from = start;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();

    if let Some(path) = flag_value("--check") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_served --check: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check_report(&text) {
            Ok(()) => {
                println!("bench_served --check: {path} ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_served --check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_served.json".to_string());
    let (nstreams, samples, regions, per_region) =
        if smoke { (16, 3, 8, 200) } else { (120, 7, 64, 2000) };
    let w = record_workload(nstreams);
    let l = record_large(regions, per_region);
    eprintln!(
        "bench_served: {} stream(s), {} event(s), {} race(s) direct; \
         large stream {} bytes / {} event(s)",
        w.streams.len(),
        w.events,
        w.races,
        l.bytes.len(),
        l.events
    );

    // Equivalence gate before any timing: every pool shape and every
    // spool durability mode must reproduce the direct totals exactly.
    for &(label, workers) in &POOLS {
        let (events, races) = serve_batch(&w, workers);
        assert_eq!(
            (events, races),
            (w.events as u64, w.races as u64),
            "{label}: served totals diverged from direct replay"
        );
    }
    for &(label, durability) in &SPOOL_MODES {
        let (events, races) = spool_batch(&w, durability);
        assert_eq!(
            (events, races),
            (w.events as u64, w.races as u64),
            "{label}: spool-daemon totals diverged from direct replay"
        );
    }
    assert_eq!(
        serve_large(&l),
        (l.events as u64, l.races as u64),
        "served/large: totals diverged from direct replay of the large stream"
    );

    let mut rows = Vec::new();
    let mut measure = |config: &'static str,
                       workers: usize,
                       durability: &'static str,
                       events: usize,
                       f: &dyn Fn() -> (u64, u64)| {
        let mut ns: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let (median_ns, best_ns) = (ns[ns.len() / 2], ns[0]);
        eprintln!("bench_served/{config}: median {:.2} ms", median_ns / 1e6);
        rows.push(Row {
            config,
            workers,
            durability,
            median_ns,
            best_ns,
            events_per_sec: events as f64 / (best_ns / 1e9),
        });
    };
    measure("direct", 0, "-", w.events, &|| direct_batch(&w));
    for &(label, workers) in &POOLS {
        measure(label, workers, "-", w.events, &|| serve_batch(&w, workers));
    }
    for &(label, durability) in &SPOOL_MODES {
        measure(label, 2, durability.name(), w.events, &|| spool_batch(&w, durability));
    }
    measure("direct/large", 0, "-", l.events, &|| direct_large(&l));
    measure("served/large", 2, "-", l.events, &|| serve_large(&l));

    let eps = |config: &str| {
        rows.iter().find(|r| r.config == config).map(|r| r.events_per_sec).unwrap_or(f64::NAN)
    };
    println!("service overhead (w2 vs direct): {:.2}x", eps("direct") / eps("served/w2"));
    println!("pool scaling (w4 vs w1): {:.2}x", eps("served/w4") / eps("served/w1"));
    println!(
        "durability tax (strict vs none): {:.2}x",
        eps("spool/none") / eps("spool/strict")
    );
    println!(
        "large-trace overhead (served vs direct): {:.2}x",
        eps("direct/large") / eps("served/large")
    );

    let json = report_json(smoke, &w, &l, &rows);
    if let Err(e) = check_report(&json) {
        eprintln!("bench_served: generated report fails its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("bench_served: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

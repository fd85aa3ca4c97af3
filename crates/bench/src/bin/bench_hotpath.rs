//! Hot-path detection benchmark with a reproducible baseline:
//! replays the checked-in trace corpus plus synthetic high-churn
//! workloads through five store configurations — naive full-history,
//! legacy RMA-Analyzer, fragmentation+merging over the AVL tree (the
//! paper-faithful reference), the flat sorted-vec engine, and the
//! adaptive engine (flat until promotion, then blocked leaves: the
//! production store) — and emits
//! `BENCH_hotpath.json` holding, per (workload, config): median
//! events/second, peak node count, and fast-path hit rate. The
//! 64-region churn (`synthetic/churn64`) runs only the tree, flat and
//! adaptive configurations.
//!
//! Besides the offline replays, the `live/churn` row drives the full
//! `Messages`-mode analyzer pipeline (origin-side records, notification
//! batching, receiver threads, epoch drain) through a two-rank simulated
//! world on the production store with `batch_size` = 64. The live
//! analyzer has no tree engine, so this row has no reference to be
//! guarded against; the adaptive-vs-tree comparison is made on every
//! replay workload.
//!
//! The JSON is byte-stable modulo the timing fields: `events`,
//! `peak_nodes`, `fast_hit_rate` and `races` are pure functions of the
//! (deterministic) workloads, so two runs differ only in
//! `median_ns`/`best_ns`/`events_per_sec`. `events_per_sec` derives from
//! `best_ns`, the fastest sample: the replays are deterministic, so the
//! cost floor is the measurement and scheduler noise is strictly
//! one-sided.
//!
//! Flags:
//!
//! * `--smoke` — tiny workloads + 3 samples, for CI under `timeout`;
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_hotpath.json` in the current directory);
//! * `--check <path>` — validate an existing report instead of
//!   benchmarking: it must parse as JSON with exactly the keys and value
//!   kinds this binary writes, every number finite; exits non-zero on
//!   violation;
//! * `--guard <path> [--tolerance <f>]` — regression guard: on every
//!   workload of an existing report that has a `fragmerge` (tree
//!   reference) row, `adaptive-flat` must reach at least `tolerance` ×
//!   its events/sec — and report the identical race count. `tolerance`
//!   defaults to `1.0` (for the frozen checked-in baseline); CI passes
//!   a slack factor for freshly-measured smoke runs on noisy machines.

use rma_core::{
    AccessStore, AdaptiveStore, FlatStore, FragMergeStore, Interval, LegacyStore, NaiveStore,
    SrcLoc,
};
use rma_monitor::{AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_sim::{Monitor, RankId, World, WorldCfg};
use rma_substrate::bench::BenchGroup;
use rma_substrate::json::{self, Value};
use rma_trace::{replay_trace, ReplayOutcome, StoreTarget, Trace, TraceEvent, TraceHeader};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

/// Region count of `synthetic/churn` and of the live churn run.
const REGIONS: u64 = 4;

/// Notification batch size of the live pipeline run.
const LIVE_BATCH: usize = 64;

/// The store configurations compared.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Naive,
    Legacy,
    FragMerge,
    Flat,
    AdaptiveFlat,
}

impl Config {
    const ALL: [Config; 5] =
        [Config::Naive, Config::Legacy, Config::FragMerge, Config::Flat, Config::AdaptiveFlat];

    /// The configurations a workload runs: all but the naive and legacy
    /// stores on the 64-region churn, whose quadratic scans would take
    /// minutes and measure nothing the other rows don't.
    fn for_workload(workload: &str) -> &'static [Config] {
        if workload == "synthetic/churn64" {
            &Config::ALL[2..]
        } else {
            &Config::ALL
        }
    }

    fn name(self) -> &'static str {
        match self {
            Config::Naive => "naive",
            Config::Legacy => "legacy",
            Config::FragMerge => "fragmerge",
            Config::Flat => "flat",
            Config::AdaptiveFlat => "adaptive-flat",
        }
    }

    fn store(self) -> Box<dyn AccessStore + Send> {
        match self {
            Config::Naive => Box::new(NaiveStore::new()),
            Config::Legacy => Box::new(LegacyStore::new()),
            Config::FragMerge => Box::new(FragMergeStore::new()),
            Config::Flat => Box::new(FlatStore::new()),
            Config::AdaptiveFlat => Box::new(AdaptiveStore::new()),
        }
    }
}

fn replay_with(trace: &Trace, cfg: Config) -> ReplayOutcome {
    replay_trace(trace, Box::new(StoreTarget::new(move || cfg.store())))
}

/// Synthetic high-churn workload: `regions` interleaved ascending scans
/// (region stride 1 MiB), width-2 intervals separated by a 1-byte gap —
/// never adjacent, so nothing merges and every access but the top
/// region's lands inside the store's hull, between two stored nodes: a
/// sorted vec shifts everything above it, a tree walks to it. A single
/// rank inside one `lock_all` epoch; per-region source lines keep
/// provenance distinct.
fn synthetic_churn(regions: u64, per_region: u64) -> Trace {
    let mut ev = Vec::new();
    let win = rma_sim::WinId(0);
    let len = regions << 20;
    ev.push(TraceEvent::WinAllocate { win, base: 0, len });
    ev.push(TraceEvent::LockAll { win });
    for i in 0..per_region {
        for r in 0..regions {
            let lo = (r << 20) + i * 3;
            ev.push(TraceEvent::Local {
                interval: Interval::new(lo, lo + 1),
                write: false,
                on_stack: false,
                tracked: true,
                loc: SrcLoc::synthetic("churn.c", r as u32 + 1),
            });
        }
    }
    ev.push(TraceEvent::UnlockAll { win });
    ev.push(TraceEvent::Finish);
    Trace {
        header: TraceHeader { version: 1, nranks: 1, seed: 0, app: "churn".into() },
        streams: vec![ev],
    }
}

/// Synthetic hotspot workload: overlapping accesses cycling through a
/// small dense region — the merge-friendly extreme, where sharding has
/// nothing to skip and must not cost anything either.
fn synthetic_hotspot(accesses: u64) -> Trace {
    let mut ev = Vec::new();
    let win = rma_sim::WinId(0);
    ev.push(TraceEvent::WinAllocate { win, base: 0, len: 256 });
    ev.push(TraceEvent::LockAll { win });
    for i in 0..accesses {
        let lo = (i % 64) * 2;
        ev.push(TraceEvent::Local {
            interval: Interval::new(lo, lo + 3),
            write: false,
            on_stack: false,
            tracked: true,
            loc: SrcLoc::synthetic("hotspot.c", 1),
        });
    }
    ev.push(TraceEvent::UnlockAll { win });
    ev.push(TraceEvent::Finish);
    Trace {
        header: TraceHeader { version: 1, nranks: 1, seed: 0, app: "hotspot".into() },
        streams: vec![ev],
    }
}

/// One live `Messages`-pipeline run of the churn pattern: rank 0 issues
/// `ops` width-2 puts, ascending within `REGIONS` interleaved 1 MiB
/// regions of rank 1's window. Origin-side records, notification
/// batching, the receiver thread and the epoch drain are all on the
/// measured path. Returns the analyzer for stats inspection.
fn live_churn_run(ops: u64) -> Arc<RmaAnalyzer> {
    let cfg = AnalyzerCfg {
        on_race: OnRace::Collect,
        delivery: Delivery::Messages,
        batch_size: LIVE_BATCH,
        ..AnalyzerCfg::default()
    };
    let mon = Arc::new(RmaAnalyzer::new(cfg));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone() as Arc<dyn Monitor>, move |ctx| {
        let win = ctx.win_allocate(REGIONS << 20);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            for i in 0..ops {
                let r = i % REGIONS;
                let off = (r << 20) + (i / REGIONS) * 3;
                ctx.put(&buf, 0, 2, RankId(1), off, win);
            }
        }
        ctx.win_unlock_all(win);
    });
    assert!(out.is_clean(), "live churn run not clean: {:?} {:?}", out.aborts, out.panics);
    assert!(mon.races().is_empty(), "live churn workload must be race-free");
    mon
}

/// Checked-in corpus recordings (walk up from cwd to the workspace).
fn checked_in_corpus() -> Vec<(String, Trace)> {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        let corpus = dir.join("tests/corpus");
        if corpus.is_dir() {
            let mut out = Vec::new();
            let Ok(entries) = std::fs::read_dir(&corpus) else { return out };
            let mut paths: Vec<_> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rmatrc"))
                .collect();
            paths.sort();
            for p in paths {
                let name = format!(
                    "corpus/{}",
                    p.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
                );
                match std::fs::read(&p).map_err(|_| ()).and_then(|b| Trace::decode(&b).map_err(|_| ())) {
                    Ok(t) => out.push((name, t)),
                    Err(()) => eprintln!("skipping unreadable corpus file {}", p.display()),
                }
            }
            return out;
        }
        if !dir.pop() {
            return Vec::new();
        }
    }
}

/// Paired measurement for the sub-microsecond corpus replays: every
/// config's batch size is calibrated up front, then the sample rounds
/// interleave round-robin over the configs so slow machine drift hits
/// all of them equally. Returns `(median_ns, best_ns)` per config, in
/// `Config::ALL` order.
fn bench_interleaved(
    trace: &Trace,
    samples: usize,
    mut report: impl FnMut(Config, (f64, f64)),
) -> Vec<(f64, f64)> {
    use std::time::{Duration, Instant};
    const TARGET_SAMPLE: Duration = Duration::from_millis(2);
    // Calibrate (and warm) each config: double the batch until one
    // batch takes TARGET_SAMPLE.
    let iters: Vec<u64> = Config::ALL
        .iter()
        .map(|&cfg| {
            let mut iters: u64 = 1;
            loop {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(replay_with(trace, cfg).events);
                }
                let elapsed = t0.elapsed();
                if elapsed >= TARGET_SAMPLE || iters >= 1 << 24 {
                    break iters;
                }
                if elapsed >= TARGET_SAMPLE / 8 {
                    let per_iter = elapsed.as_secs_f64() / iters as f64;
                    break ((TARGET_SAMPLE.as_secs_f64() / per_iter).ceil() as u64)
                        .max(iters + 1);
                }
                iters *= 2;
            }
        })
        .collect();
    let mut samples_ns: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); Config::ALL.len()];
    for _ in 0..samples {
        for (c, &cfg) in Config::ALL.iter().enumerate() {
            let n = iters[c];
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(replay_with(trace, cfg).events);
            }
            samples_ns[c].push(t0.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    Config::ALL
        .iter()
        .zip(samples_ns)
        .map(|(&cfg, mut s)| {
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
            let out = (s[s.len() / 2], s[0]);
            report(cfg, out);
            out
        })
        .collect()
}

/// The fastest sample of a finished benchmark (falls back to the median
/// for a pathological empty sample set).
fn best_sample(res: &rma_substrate::bench::BenchResult) -> f64 {
    res.samples_ns.iter().copied().fold(f64::INFINITY, f64::min).min(res.median_ns)
}

/// One (workload, config) measurement row of the report.
#[derive(Default)]
struct Row {
    workload: String,
    config: &'static str,
    events: usize,
    peak_nodes: usize,
    fast_hit_rate: f64,
    races: usize,
    median_ns: f64,
    /// Fastest sample. `events_per_sec` derives from this, not the
    /// median: the replays are deterministic, so their cost floor is the
    /// measurement and scheduler noise is strictly one-sided — a noisy
    /// co-tenant can inflate a whole median block but never deflate the
    /// best sample.
    best_ns: f64,
    events_per_sec: f64,
}

fn report_json(smoke: bool, rows: &[Row]) -> String {
    let rows = rows.iter().map(|r| {
        json::obj([
            ("workload", r.workload.as_str().into()),
            ("config", r.config.into()),
            ("events", r.events.into()),
            ("peak_nodes", r.peak_nodes.into()),
            ("fast_hit_rate", json::fixed(r.fast_hit_rate, 4)),
            ("races", r.races.into()),
            ("median_ns", json::fixed(r.median_ns, 1)),
            ("best_ns", json::fixed(r.best_ns, 1)),
            ("events_per_sec", json::fixed(r.events_per_sec, 0)),
        ])
    });
    json::obj([
        ("bench", "hotpath".into()),
        ("smoke", smoke.into()),
        ("rows", Value::Arr(rows.collect())),
    ])
    .to_document()
}

/// Parses a report and validates it: exactly the key paths and value
/// kinds [`report_json`] writes (every number finite, so a truncated,
/// NaN-poisoned or hand-mangled file fails), bench id `hotpath`, and at
/// least one row.
fn check_report(text: &str) -> Result<Value, String> {
    let doc = json::parse_as(text, &report_json(false, &[Row::default()]))?;
    if doc["bench"].as_str() != Some("hotpath") {
        return Err("bench id is not \"hotpath\"".into());
    }
    if doc["rows"].as_array().is_none_or(<[Value]>::is_empty) {
        return Err("no measurement rows".into());
    }
    Ok(doc)
}

/// The bench-smoke regression guard: `text` must pass [`check_report`],
/// and on every workload with a `fragmerge` (tree reference) row the
/// `adaptive-flat` production engine must reach at least `tolerance` ×
/// its events/sec, and must report the identical race count — losing
/// anywhere, or diverging on a verdict, is a regression.
fn guard_report(text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    // (workload, config, events_per_sec, races)
    let doc = check_report(text)?;
    let measured: Vec<(&str, &str, f64, u64)> = doc["rows"]
        .as_array()
        .unwrap_or_default()
        .iter()
        .map(|r| {
            let text = move |key| r[key].as_str().unwrap_or_default();
            let eps = r["events_per_sec"].as_f64().unwrap_or(f64::NAN);
            (text("workload"), text("config"), eps, r["races"].as_u64().unwrap_or_default())
        })
        .collect();
    let find = |workload: &str, config: &str| {
        measured.iter().find(|(w, c, _, _)| *w == workload && *c == config)
    };
    let mut workloads: Vec<&str> =
        measured.iter().filter(|(_, c, _, _)| *c == "fragmerge").map(|(w, _, _, _)| *w).collect();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no fragmerge rows to guard against".into());
    }
    let mut lines = Vec::new();
    for w in &workloads {
        let (_, _, seed_eps, seed_races) =
            find(w, "fragmerge").ok_or_else(|| format!("{w}: missing fragmerge row"))?;
        let (_, _, ad_eps, ad_races) =
            find(w, "adaptive-flat").ok_or_else(|| format!("{w}: missing adaptive-flat row"))?;
        if ad_races != seed_races {
            return Err(format!(
                "{w}: adaptive-flat races {ad_races} != fragmerge races {seed_races} — \
                 verdict divergence"
            ));
        }
        let ratio = ad_eps / seed_eps;
        // NaN (from a zero/garbage seed rate) must fail, not pass.
        if ratio.is_nan() || ratio < tolerance {
            return Err(format!(
                "{w}: adaptive-flat is {ratio:.3}x fragmerge ({ad_eps:.0} vs {seed_eps:.0} \
                 events/sec), below tolerance {tolerance}"
            ));
        }
        lines.push(format!("{w}: adaptive-flat/fragmerge = {ratio:.2}x"));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };

    if let Some(path) = flag_value("--check") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_hotpath --check: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check_report(&text) {
            Ok(_) => {
                println!("bench_hotpath --check: {path} ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_hotpath --check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = flag_value("--guard") {
        let tolerance: f64 = match flag_value("--tolerance").as_deref().map(str::parse) {
            None => 1.0,
            Some(Ok(t)) => t,
            Some(Err(e)) => {
                eprintln!("bench_hotpath --guard: bad --tolerance: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_hotpath --guard: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match guard_report(&text, tolerance) {
            Ok(lines) => {
                for l in &lines {
                    println!("bench_hotpath --guard: {l}");
                }
                println!("bench_hotpath --guard: {path} ok (tolerance {tolerance})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_hotpath --guard: {path}: REGRESSION: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // Both churns record 64k accesses at full size; the smoke churn64
    // is still large enough to promote the adaptive store.
    let (per_region, per_region64, hotspot_n) =
        if smoke { (128, 64, 512) } else { (16384, 1024, 8192) };

    let mut workloads: Vec<(String, Trace)> = vec![
        ("synthetic/churn".to_string(), synthetic_churn(REGIONS, per_region)),
        ("synthetic/churn64".to_string(), synthetic_churn(64, per_region64)),
        ("synthetic/hotspot".to_string(), synthetic_hotspot(hotspot_n)),
    ];
    workloads.extend(checked_in_corpus());

    let mut group = BenchGroup::new("bench_hotpath");
    let mut rows: Vec<Row> = Vec::new();
    for (name, trace) in &workloads {
        let events = trace.event_count();
        let configs = Config::for_workload(name);
        // Deterministic pass per config first: stats and verdict are a
        // pure function of (trace, config), measured outside the timer.
        let outcomes: Vec<_> = configs
            .iter()
            .map(|&cfg| {
                let out = replay_with(trace, cfg);
                assert!(out.complete, "{name}: replay incomplete under {}", cfg.name());
                out
            })
            .collect();
        // The corpus traces replay in well under a microsecond, so
        // sequential per-config sample blocks pick up machine drift
        // (frequency scaling, co-tenants) as a systematic bias against
        // whichever config is measured last. Their samples interleave
        // round-robin instead — every config sees the same drift — and
        // they get far more samples than the millisecond-scale
        // synthetic workloads.
        let timings: Vec<(f64, f64)> = if name.starts_with("corpus/") {
            let samples = if smoke { 3 } else { 61 };
            bench_interleaved(trace, samples, |cfg, t| {
                eprintln!("bench_hotpath/{name}/{}: {:.1} ns (interleaved)", cfg.name(), t.1);
            })
        } else {
            group.sample_size(if smoke { 3 } else { 7 });
            configs
                .iter()
                .map(|&cfg| {
                    let id = format!("{name}/{}", cfg.name());
                    group.bench(&id, || black_box(replay_with(trace, cfg).events));
                    let res = group.results().last().expect("just benched");
                    (res.median_ns, best_sample(res))
                })
                .collect()
        };
        for ((&cfg, out), (median_ns, best_ns)) in configs.iter().zip(&outcomes).zip(timings)
        {
            let fast_hit_rate = if out.stats.recorded == 0 {
                0.0
            } else {
                out.stats.fast_hits as f64 / out.stats.recorded as f64
            };
            rows.push(Row {
                workload: name.clone(),
                config: cfg.name(),
                events,
                peak_nodes: out.stats.peak_nodes(),
                fast_hit_rate,
                races: out.races.len(),
                median_ns,
                best_ns,
                events_per_sec: events as f64 / (best_ns / 1e9),
            });
        }
    }
    // Live `Messages`-pipeline run on the production store, batch 64.
    // One bench iteration is one complete two-rank world run.
    let live_ops: u64 = if smoke { 2_000 } else { 100_000 };
    group.sample_size(if smoke { 3 } else { 7 });
    // Deterministic pass for the stats columns, outside the timer.
    let mon = live_churn_run(live_ops);
    let stats: Vec<_> = mon.window_stats().into_iter().flatten().collect();
    let recorded: u64 = stats.iter().map(|s| s.recorded as u64).sum();
    let fast: u64 = stats.iter().map(|s| s.fast_hits as u64).sum();
    let fast_hit_rate = if recorded == 0 { 0.0 } else { fast as f64 / recorded as f64 };
    let peak_nodes = mon.total_peak_nodes();
    group.bench("live/churn/adaptive-flat", || {
        black_box(live_churn_run(live_ops).races().len())
    });
    let res = group.results().last().expect("just benched");
    let (median_ns, best_ns) = (res.median_ns, best_sample(res));
    rows.push(Row {
        workload: "live/churn".to_string(),
        config: "adaptive-flat",
        events: live_ops as usize,
        peak_nodes,
        fast_hit_rate,
        races: 0,
        median_ns,
        best_ns,
        events_per_sec: live_ops as f64 / (best_ns / 1e9),
    });
    group.finish();

    let eps = |workload: &str, cfg: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.config == cfg)
            .map(|r| r.events_per_sec)
            .unwrap_or(f64::NAN)
    };
    println!();
    for w in ["synthetic/churn", "synthetic/churn64"] {
        let speedup = eps(w, "adaptive-flat") / eps(w, "fragmerge");
        println!("adaptive-flat vs fragmerge, offline replay of {w}: {speedup:.2}x");
    }
    println!(
        "adaptive-flat (batch={LIVE_BATCH}), live pipeline: {:.0} events/sec",
        eps("live/churn", "adaptive-flat")
    );

    let json = report_json(smoke, &rows);
    if let Err(e) = check_report(&json) {
        eprintln!("bench_hotpath: generated report fails its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("bench_hotpath: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked_in() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
        std::fs::read_to_string(path).expect("checked-in BENCH_hotpath.json")
    }

    fn row(config: &'static str, events_per_sec: f64, races: usize) -> Row {
        Row { workload: "w".into(), config, events: 10, races, events_per_sec, ..Row::default() }
    }

    fn report(adaptive_eps: f64, adaptive_races: usize) -> String {
        let adaptive = row("adaptive-flat", adaptive_eps, adaptive_races);
        report_json(false, &[row("fragmerge", 100.0, 1), adaptive])
    }

    #[test]
    fn checked_in_baseline_passes_check_and_guard() {
        let text = checked_in();
        check_report(&text).unwrap();
        assert_eq!(
            guard_report(&text, 1.0).unwrap(),
            [
                "synthetic/churn: adaptive-flat/fragmerge = 11.54x",
                "synthetic/hotspot: adaptive-flat/fragmerge = 1.41x",
                "corpus/ll_get_load_inwindow_origin_race: adaptive-flat/fragmerge = 1.04x",
                "corpus/ll_put_put_inwindow_target_epochs_safe: adaptive-flat/fragmerge = 1.06x",
                "corpus/lo2_put_put_inwindow_target_race: adaptive-flat/fragmerge = 1.03x",
            ]
        );
    }

    #[test]
    fn check_rejects_broken_reports() {
        let good = report(150.0, 1);
        assert_eq!(guard_report(&good, 1.0).unwrap(), ["w: adaptive-flat/fragmerge = 1.50x"]);
        let broken = [
            ("truncated", good[..good.len() - 4].to_string()),
            ("NaN", good.replace(r#""events_per_sec":150"#, r#""events_per_sec":NaN"#)),
            ("missing row key", good.replacen(r#""peak_nodes":0,"#, "", 1)),
            ("extra key", good.replacen(r#""races":1,"#, r#""races":1,"extra":0,"#, 1)),
            ("no rows", report_json(false, &[])),
            ("wrong bench", good.replace(r#""hotpath""#, r#""served""#)),
        ];
        for (what, text) in broken {
            assert_ne!(text, good, "{what}: mutation did not apply");
            assert!(check_report(&text).is_err(), "{what} must fail --check");
            assert!(guard_report(&text, 0.0).is_err(), "{what} must fail --guard");
        }
        let nan_timing = report_json(false, &[Row { median_ns: f64::NAN, ..row("flat", 1.0, 0) }]);
        assert!(check_report(&nan_timing).is_err(), "a NaN timing must fail its self-check");
    }

    #[test]
    fn guard_rejects_divergence_and_slow_engine() {
        let err = guard_report(&report(150.0, 2), 1.0).unwrap_err();
        assert!(err.contains("verdict divergence"), "{err}");
        let err = guard_report(&report(90.0, 1), 1.0).unwrap_err();
        assert!(err.contains("0.900x fragmerge") && err.contains("below tolerance"), "{err}");
        assert!(guard_report(&report(90.0, 1), 0.5).is_ok());
    }
}

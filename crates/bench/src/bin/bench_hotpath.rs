//! Hot-path detection benchmark with a reproducible baseline:
//! replays the checked-in trace corpus plus synthetic high-churn
//! workloads through four store configurations — naive full-history,
//! legacy RMA-Analyzer, fragmentation+merging over the AVL tree (the
//! paper-faithful reference), and the blocked engine (the production
//! store) — and emits `BENCH_hotpath.json` holding, per (workload,
//! config): per-round ns, their median and best, events/second, peak
//! node count, and fast-path hit rate. The 64-region churn
//! (`synthetic/churn64`) runs only the tree and blocked configurations.
//!
//! Every replay workload is measured in paired rounds: each config's
//! batch size is calibrated once, then every round times one batch of
//! each config back to back, so machine drift hits all of them alike
//! and round `i` of the tree pairs with round `i` of the production
//! store. The corpus traces get 61 rounds, the synthetic workloads 7,
//! each round at a stack depth of its own.
//!
//! Besides the offline replays, the `live/churn` row drives the full
//! `Messages`-mode analyzer pipeline (origin-side records, notification
//! batching, receiver threads, epoch drain) through a two-rank simulated
//! world on the production store (`Messages` batches 64 notifications
//! per target, `rma_monitor::BATCH_LEN`). The live analyzer has no tree
//! engine, so this row has no reference to be guarded against; each of
//! its rounds times one whole world run, after one untimed warm-up run.
//!
//! The JSON is byte-stable modulo the timing fields: `events`,
//! `peak_nodes`, `fast_hit_rate` and `races` are pure functions of the
//! (deterministic) workloads, so two runs differ only in `round_ns`,
//! `median_ns`, `best_ns` and `events_per_sec` (from `best_ns`).
//!
//! Flags:
//!
//! * `--smoke` — tiny workloads and 7 rounds each (`live/churn`: 3),
//!   for CI under `timeout`;
//! * `--out <path>` — where to write the JSON (default
//!   `BENCH_hotpath.json` in the current directory);
//! * `--check <path>` — validate an existing report instead of
//!   benchmarking: it must parse as JSON with exactly the keys and value
//!   kinds this binary writes (or the earlier layout without
//!   `round_ns`), every number finite; exits non-zero on violation;
//! * `--guard <path> [--tolerance <f>]` — regression guard: on every
//!   workload of an existing report that has a `fragmerge` (tree
//!   reference) row, the `blocked` row must report the tree's `races`,
//!   `peak_nodes` and `fast_hit_rate`, and the per-round speedups
//!   `tree_ns / blocked_ns` must not put the upper end of their median's
//!   95% order-statistic confidence interval below `tolerance`
//!   (default `1.0`). A row with fewer than 6 rounds fails: no 95%
//!   interval on its median exists.

use rma_core::{
    AccessStore, BlockedStore, FragMergeStore, Interval, LegacyStore, NaiveStore, SrcLoc,
};
use rma_monitor::{AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_sim::{Monitor, RankId, World, WorldCfg};
use rma_substrate::json::{self, Value};
use rma_trace::{replay_trace, ReplayOutcome, StoreTarget, Trace, TraceEvent, TraceHeader};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Region count of `synthetic/churn` and of the live churn run.
const REGIONS: u64 = 4;

/// Paired rounds per replay workload: full-size corpus traces, other
/// full-size workloads, and every workload of a smoke run. Fewer than 6
/// rounds cannot bound a median at 95% (see [`median_ci`]).
const CORPUS_ROUNDS: usize = 61;
const ROUNDS: usize = 7;
const SMOKE_ROUNDS: usize = 7;

/// Confidence of the guard's interval on the median speedup.
const CONFIDENCE: f64 = 0.95;

/// The store configurations compared.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Config {
    Naive,
    Legacy,
    FragMerge,
    Blocked,
}

/// The production store's config name: the row the guard judges.
const PRODUCTION: &str = "blocked";

impl Config {
    const ALL: [Config; 4] = [Config::Naive, Config::Legacy, Config::FragMerge, Config::Blocked];

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
            Config::Blocked => PRODUCTION,
        }
    }

    fn store(self) -> Box<dyn AccessStore + Send> {
        match self {
            Config::Naive => Box::new(NaiveStore::new()),
            Config::Legacy => Box::new(LegacyStore::new()),
            Config::FragMerge => Box::new(FragMergeStore::new()),
            Config::Blocked => Box::new(BlockedStore::new()),
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
/// small dense region — the merge-friendly extreme, where every access
/// fragments and merges into one node.
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

/// Paired measurement of one replay workload: every config's batch
/// size is calibrated up front (one batch takes at least 2 ms), then
/// each of `rounds` rounds times one batch of every config back to
/// back, starting one config later each round so no config always runs
/// first, and at a stack depth of its own ([`at_depth`]). Returns each
/// config's per-replay ns, round by round, in `configs` order.
fn bench_interleaved(trace: &Trace, configs: &[Config], rounds: usize) -> Vec<Vec<f64>> {
    const TARGET_SAMPLE: Duration = Duration::from_millis(2);
    let batch = |cfg: Config, iters: u64| {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(replay_with(trace, cfg).events);
        }
        t0.elapsed()
    };
    // Calibrate (and warm) each config: double the batch until one
    // batch takes TARGET_SAMPLE.
    let iters: Vec<u64> = configs
        .iter()
        .map(|&cfg| {
            let mut iters: u64 = 1;
            loop {
                let elapsed = batch(cfg, iters);
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
    let mut round_ns = vec![Vec::with_capacity(rounds); configs.len()];
    for round in 0..rounds {
        // 37 is odd, so 64 rounds in a row visit every depth once.
        let depth = round * 37 % 64;
        for k in 0..configs.len() {
            let c = (round + k) % configs.len();
            let elapsed = at_depth(depth, &mut || batch(configs[c], iters[c]));
            round_ns[c].push(elapsed.as_nanos() as f64 / iters[c] as f64);
        }
    }
    round_ns
}

/// Runs `f` `depth` frames further down the stack. Where a process's
/// stack sits relative to its heap moved a corpus trace's tree/blocked
/// ratio by up to 4% from one run of this binary to the next, with every
/// round of a run seeing the same shift. Running each round at its own
/// depth puts that part of the layout's spread inside the rounds the
/// guard's interval is computed from; the rest of a process's layout is
/// shared by all its rounds.
#[inline(never)]
fn at_depth(depth: usize, f: &mut dyn FnMut() -> Duration) -> Duration {
    let pad = black_box([0u8; 40]);
    let out = if depth == 0 { f() } else { at_depth(depth - 1, f) };
    black_box(pad);
    out
}

/// The distribution-free confidence interval, at [`CONFIDENCE`] or
/// more, for the median of `xs`: the narrowest `[x(k), x(n+1-k)]` of the
/// sorted values (1-based) whose coverage, `1 - 2·P(Bin(n, ½) < k)`,
/// reaches it. Unbounded when even `[min, max]` falls short (`n < 6`).
fn median_ci(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // P(Bin(n, ½) = 0), then the CDF below k as k grows.
    let mut pmf = 0.5f64.powi(n as i32);
    let mut below = pmf;
    if n == 0 || 1.0 - 2.0 * below < CONFIDENCE {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let mut k = 1;
    loop {
        pmf *= (n - k + 1) as f64 / k as f64;
        if 1.0 - 2.0 * (below + pmf) < CONFIDENCE {
            return (s[k - 1], s[n - k]);
        }
        below += pmf;
        k += 1;
    }
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
    /// Per-replay (or per-run) ns of every round, in round order.
    round_ns: Vec<f64>,
    median_ns: f64,
    /// Fastest round. `events_per_sec` derives from this.
    best_ns: f64,
    events_per_sec: f64,
}

impl Row {
    /// A row timed by `round_ns` (non-empty), over `events` events.
    fn timed(round_ns: Vec<f64>, events: usize) -> Row {
        let mut sorted = round_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let best_ns = sorted[0];
        Row {
            events,
            median_ns: sorted[sorted.len() / 2],
            best_ns,
            events_per_sec: events as f64 / (best_ns / 1e9),
            round_ns,
            ..Row::default()
        }
    }
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
            ("round_ns", Value::Arr(r.round_ns.iter().map(|&ns| json::fixed(ns, 1)).collect())),
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
/// least one row. Reports written before rows carried `round_ns` pass
/// too; `--guard` needs the rounds.
fn check_report(text: &str) -> Result<Value, String> {
    let sample = report_json(false, &[Row { round_ns: vec![0.0], ..Row::default() }]);
    let earlier = sample.replace(r#""round_ns":[0.0],"#, "");
    let doc = json::parse_as(text, &sample)
        .or_else(|e| json::parse_as(text, &earlier).map_err(|_| e))?;
    if doc["bench"].as_str() != Some("hotpath") {
        return Err("bench id is not \"hotpath\"".into());
    }
    if doc["rows"].as_array().is_none_or(<[Value]>::is_empty) {
        return Err("no measurement rows".into());
    }
    Ok(doc)
}

/// The regression guard: `text` must pass [`check_report`], and on
/// every workload with a `fragmerge` (tree reference) row the `blocked`
/// row must report the tree's `races`, `peak_nodes` and `fast_hit_rate`
/// (a divergence is a verdict or statistics bug), and the per-round
/// speedups `tree_ns / blocked_ns` must keep the upper end of their
/// median's confidence interval ([`median_ci`]) at `tolerance` or more:
/// the guard fails only when the production store is slower than
/// `tolerance` × the tree with 95% confidence. A workload with too few
/// rounds for such an interval fails.
fn guard_report(text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    let doc = check_report(text)?;
    let rows = doc["rows"].as_array().unwrap_or_default();
    let find = |workload: &str, config: &str| {
        rows.iter().find(|r| {
            r["workload"].as_str() == Some(workload) && r["config"].as_str() == Some(config)
        })
    };
    let mut workloads: Vec<&str> = rows
        .iter()
        .filter(|r| r["config"].as_str() == Some("fragmerge"))
        .filter_map(|r| r["workload"].as_str())
        .collect();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no fragmerge rows to guard against".into());
    }
    let mut lines = Vec::new();
    for w in workloads {
        let tree = find(w, "fragmerge").ok_or_else(|| format!("{w}: missing fragmerge row"))?;
        let prod =
            find(w, PRODUCTION).ok_or_else(|| format!("{w}: missing {PRODUCTION} row"))?;
        for key in ["races", "peak_nodes", "fast_hit_rate"] {
            if prod[key] != tree[key] {
                return Err(format!(
                    "{w}: {PRODUCTION} {key} {:?} != fragmerge {key} {:?} — divergence",
                    prod[key], tree[key]
                ));
            }
        }
        let rounds = |r: &Value| -> Option<Vec<f64>> {
            r["round_ns"].as_array()?.iter().map(Value::as_f64).collect()
        };
        let (Some(tree_ns), Some(prod_ns)) = (rounds(tree), rounds(prod)) else {
            return Err(format!("{w}: no round_ns to pair (re-record the report)"));
        };
        if tree_ns.len() != prod_ns.len() || tree_ns.is_empty() {
            return Err(format!(
                "{w}: {} fragmerge rounds vs {} {PRODUCTION} rounds",
                tree_ns.len(),
                prod_ns.len()
            ));
        }
        let ratios: Vec<f64> = tree_ns.iter().zip(&prod_ns).map(|(t, p)| t / p).collect();
        let (lo, hi) = median_ci(&ratios);
        if hi == f64::INFINITY {
            return Err(format!(
                "{w}: {} rounds cannot bound a median at {CONFIDENCE} (6 or more needed)",
                ratios.len()
            ));
        }
        let mut sorted = ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        // NaN (from a zero or garbage round) must fail, not pass.
        if ratios.iter().any(|r| !r.is_finite()) || hi < tolerance {
            return Err(format!(
                "{w}: {PRODUCTION}/fragmerge median {median:.3}x, {CONFIDENCE} CI \
                 [{lo:.3}, {hi:.3}] over {} rounds, below tolerance {tolerance}",
                ratios.len()
            ));
        }
        lines.push(format!(
            "{w}: {PRODUCTION}/fragmerge median {median:.2}x, CI [{lo:.2}, {hi:.2}]"
        ));
    }
    Ok(lines)
}

/// The replay workloads, synthetic then corpus. Both churns record 64k
/// accesses at full size; the smoke churn64 still holds 4,096 nodes, at
/// least 32 leaves of the blocked store.
fn replay_workloads(smoke: bool) -> Vec<(String, Trace)> {
    let (per_region, per_region64, hotspot_n) =
        if smoke { (128, 64, 512) } else { (16384, 1024, 8192) };
    let mut workloads = vec![
        ("synthetic/churn".to_string(), synthetic_churn(REGIONS, per_region)),
        ("synthetic/churn64".to_string(), synthetic_churn(64, per_region64)),
        ("synthetic/hotspot".to_string(), synthetic_hotspot(hotspot_n)),
    ];
    workloads.extend(checked_in_corpus());
    workloads
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
    let (corpus_rounds, other_rounds) =
        if smoke { (SMOKE_ROUNDS, SMOKE_ROUNDS) } else { (CORPUS_ROUNDS, ROUNDS) };
    let mut rows: Vec<Row> = Vec::new();
    for (name, trace) in &replay_workloads(smoke) {
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
        let rounds = if name.starts_with("corpus/") { corpus_rounds } else { other_rounds };
        let timings = bench_interleaved(trace, configs, rounds);
        for ((&cfg, out), round_ns) in configs.iter().zip(&outcomes).zip(timings) {
            let fast_hit_rate = if out.stats.recorded == 0 {
                0.0
            } else {
                out.stats.fast_hits as f64 / out.stats.recorded as f64
            };
            let row = Row {
                workload: name.clone(),
                config: cfg.name(),
                peak_nodes: out.stats.peak_nodes(),
                fast_hit_rate,
                races: out.races.len(),
                ..Row::timed(round_ns, events)
            };
            eprintln!("bench_hotpath/{name}/{}: median {:.1} ns", row.config, row.median_ns);
            rows.push(row);
        }
    }
    // Live `Messages`-pipeline run on the production store, batch 64.
    // One round is one complete two-rank world run. The first run gives
    // the stats columns and warms up, untimed.
    let live_ops: u64 = if smoke { 2_000 } else { 100_000 };
    let mon = live_churn_run(live_ops);
    let stats: Vec<_> = mon.window_stats().into_iter().flatten().collect();
    let recorded: u64 = stats.iter().map(|s| s.recorded as u64).sum();
    let fast: u64 = stats.iter().map(|s| s.fast_hits as u64).sum();
    let fast_hit_rate = if recorded == 0 { 0.0 } else { fast as f64 / recorded as f64 };
    let peak_nodes = mon.total_peak_nodes();
    let round_ns = (0..if smoke { 3 } else { ROUNDS })
        .map(|_| {
            let t0 = Instant::now();
            black_box(live_churn_run(live_ops));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let row = Row {
        workload: "live/churn".to_string(),
        config: PRODUCTION,
        peak_nodes,
        fast_hit_rate,
        races: 0,
        ..Row::timed(round_ns, live_ops as usize)
    };
    eprintln!("bench_hotpath/live/churn/{PRODUCTION}: median {:.1} ns", row.median_ns);
    rows.push(row);

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

    fn row(config: &'static str, round_ns: Vec<f64>, races: usize) -> Row {
        Row { workload: "w".into(), config, races, ..Row::timed(round_ns, 10) }
    }

    /// 61 speedups spread evenly over `center ± spread`, in a shuffled
    /// round order.
    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..61u32).map(|i| center + spread * (f64::from(i * 23 % 61) - 30.0) / 30.0).collect()
    }

    /// A tree row at 100 ns a round and a production row `speedups`
    /// faster, round by round.
    fn report(speedups: &[f64], races: usize) -> String {
        let tree = row("fragmerge", vec![100.0; speedups.len()], 1);
        let prod = row(PRODUCTION, speedups.iter().map(|s| 100.0 / s).collect(), races);
        report_json(false, &[tree, prod])
    }

    /// The report without its `round_ns` arrays: the earlier layout.
    fn without_rounds(text: &str) -> String {
        let mut out = text.to_string();
        while let Some(at) = out.find(r#""round_ns":["#) {
            let end = at + out[at..].find("],").expect("round_ns is closed") + 2;
            out.replace_range(at..end, "");
        }
        out
    }

    #[test]
    fn checked_in_baseline_passes_check_and_guard() {
        let text = checked_in();
        check_report(&text).unwrap();
        assert_eq!(
            guard_report(&text, 1.0).unwrap(),
            [
                "synthetic/churn: blocked/fragmerge median 4.03x, CI [3.39, 4.26]",
                "synthetic/churn64: blocked/fragmerge median 2.09x, CI [1.73, 4.20]",
                "synthetic/hotspot: blocked/fragmerge median 1.31x, CI [1.23, 1.35]",
                "corpus/ll_accum_store_outwindow_origin_race: blocked/fragmerge median 1.00x, CI [0.99, 1.01]",
                "corpus/ll_get_load_inwindow_origin_race: blocked/fragmerge median 1.02x, CI [1.00, 1.03]",
                "corpus/ll_put_put_inwindow_target_epochs_safe: blocked/fragmerge median 1.03x, CI [1.02, 1.04]",
                "corpus/ll_put_store_inwindow_origin_race: blocked/fragmerge median 1.00x, CI [0.99, 1.01]",
                "corpus/ll_store_accum_outwindow_origin_safe: blocked/fragmerge median 1.06x, CI [1.05, 1.07]",
                "corpus/lo2_accum_accum_inwindow_target_safe: blocked/fragmerge median 1.07x, CI [1.06, 1.08]",
                "corpus/lo2_accum_put_inwindow_target_race: blocked/fragmerge median 1.00x, CI [0.99, 1.02]",
                "corpus/lo2_get_get_inwindow_target_safe: blocked/fragmerge median 1.06x, CI [1.05, 1.07]",
                "corpus/lo2_get_put_inwindow_target_race: blocked/fragmerge median 0.99x, CI [0.99, 1.02]",
                "corpus/lo2_put_put_inwindow_target_race: blocked/fragmerge median 1.00x, CI [0.99, 1.01]",
                "corpus/lt_get_store_inwindow_target_race: blocked/fragmerge median 1.03x, CI [1.00, 1.04]",
                "corpus/min_ll_get_load_inwindow_origin_race: blocked/fragmerge median 1.01x, CI [1.00, 1.03]",
                "corpus/min_lo2_accum_put_inwindow_target_race: blocked/fragmerge median 1.00x, CI [0.98, 1.01]",
                "corpus/min_lo2_put_put_inwindow_target_race: blocked/fragmerge median 0.99x, CI [0.99, 1.01]",
            ]
        );
    }

    #[test]
    fn check_rejects_broken_reports() {
        let good = report(&around(1.5, 0.1), 1);
        assert_eq!(
            guard_report(&good, 1.0).unwrap(),
            ["w: blocked/fragmerge median 1.50x, CI [1.47, 1.53]"]
        );
        let broken = [
            ("truncated", good[..good.len() - 4].to_string()),
            ("NaN", good.replacen(r#""round_ns":["#, r#""round_ns":[NaN,"#, 1)),
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
        let nan_timing = report_json(
            false,
            &[Row { median_ns: f64::NAN, ..row(PRODUCTION, vec![1.0], 0) }],
        );
        assert!(check_report(&nan_timing).is_err(), "a NaN timing must fail its self-check");
        // The layout before `round_ns` still checks, but cannot be
        // guarded: it has no rounds to pair.
        let earlier = without_rounds(&good);
        assert!(!earlier.contains("round_ns"));
        check_report(&earlier).unwrap();
        let err = guard_report(&earlier, 0.0).unwrap_err();
        assert!(err.contains("no round_ns"), "{err}");
    }

    #[test]
    fn guard_rejects_divergence_and_slow_engine() {
        // Parity: the median is 1.0 and the interval straddles it.
        let parity = guard_report(&report(&around(1.0, 0.1), 1), 1.0).unwrap();
        assert_eq!(parity, ["w: blocked/fragmerge median 1.00x, CI [0.97, 1.03]"]);
        // Rounds tightly around 0.9x: slower with 95% confidence.
        let slow = report(&around(0.9, 0.01), 1);
        let err = guard_report(&slow, 1.0).unwrap_err();
        assert!(err.contains("median 0.900x") && err.contains("below tolerance"), "{err}");
        assert!(guard_report(&slow, 0.5).is_ok());
        // One fast round does not rescue a slow median.
        let mut one_fast = around(0.9, 0.01);
        one_fast[0] = 5.0;
        assert!(guard_report(&report(&one_fast, 1), 1.0).is_err());
        // Divergent races, and any other deterministic column, fail
        // however fast the production store is.
        let err = guard_report(&report(&around(2.0, 0.1), 2), 1.0).unwrap_err();
        assert!(err.contains("races") && err.contains("divergence"), "{err}");
        for prod in [
            Row { peak_nodes: 3, ..row(PRODUCTION, vec![50.0; 61], 1) },
            Row { fast_hit_rate: 0.25, ..row(PRODUCTION, vec![50.0; 61], 1) },
        ] {
            let text = report_json(false, &[row("fragmerge", vec![100.0; 61], 1), prod]);
            let err = guard_report(&text, 1.0).unwrap_err();
            assert!(err.contains("divergence"), "{err}");
        }
        // Too few rounds for a 95% interval cannot be judged, however
        // fast the rounds are.
        let err = guard_report(&report(&[2.0; 5], 1), 1.0).unwrap_err();
        assert!(err.contains("5 rounds cannot bound"), "{err}");
        assert!(guard_report(&report(&[2.0; 6], 1), 1.0).is_ok());
        // Unpaired round counts cannot be judged.
        let text = report_json(
            false,
            &[row("fragmerge", vec![100.0; 61], 1), row(PRODUCTION, vec![50.0; 7], 1)],
        );
        assert!(guard_report(&text, 1.0).unwrap_err().contains("61 fragmerge rounds vs 7"));
    }

    /// The interval is the binomial one: `[x(k), x(n+1-k)]` with the
    /// largest `k` whose coverage still reaches 95%, and unbounded below
    /// 6 rounds, where even `[min, max]` covers less.
    #[test]
    fn median_ci_order_statistics() {
        let xs = |n: u32| -> Vec<f64> { (1..=n).rev().map(f64::from).collect() };
        // Coverage of [x(1), x(6)] is 1 - 2/64 = 0.969; of [x(1), x(5)] 0.9375.
        assert_eq!(median_ci(&xs(5)), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(median_ci(&xs(6)), (1.0, 6.0));
        assert_eq!(median_ci(&xs(7)), (1.0, 7.0));
        // Standard tables: n = 20 gives k = 6, n = 61 gives k = 23.
        assert_eq!(median_ci(&xs(20)), (6.0, 15.0));
        assert_eq!(median_ci(&xs(61)), (23.0, 39.0));
    }
}

//! Serving the workload through the public API: Service rounds with
//! closed-loop clients, spool-daemon batches, and the untraced
//! end-to-end run built from them.

use crate::inputs::{Reference, Stream};
use crate::{Opts, Report, Workload, CHUNK, END_TO_END};
use rma_served::{
    recover, run_daemon, DaemonCfg, DaemonExit, DrainOutcome, ServeCfg, Service, Spool,
    StreamReport, Tier,
};
use rma_substrate::fs::Fs;
use rma_substrate::rng::{SliceRandom, SmallRng};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime};

/// Sums over everything a set of Service or daemon rounds served.
#[derive(Default)]
pub(crate) struct Served {
    /// Rounds run.
    pub rounds: u64,
    /// Wall time from the first byte offered to the last verdict
    /// returned, summed over rounds.
    pub wall: Duration,
    /// Per-round events over that round's wall, and the round's median
    /// verdict latency.
    pub round_events_per_s: Vec<f64>,
    pub round_latency_p50_ms: Vec<f64>,
    /// Streams whose verdict was checked.
    pub attempted: u64,
    /// Streams refused, lost or answered wrongly.
    pub failed: u64,
    /// Events in correct verdicts.
    pub events: u64,
    /// Per-stream verdict latency.
    pub latencies_ms: Vec<f64>,
    /// Set-up time samples, one per Service brought up.
    pub setups_s: Vec<f64>,
    /// Client time in `submit`, `feed` and `finish`.
    pub submit: Duration,
    pub feed: Duration,
    pub finish: Duration,
    /// Chunks whose `feed` blocked on a full queue.
    pub blocked_sends: u64,
    /// Deepest any stream queue got.
    pub queue_peak: usize,
    /// Busy and Quota refusals.
    pub refused: u64,
    /// Mutating filesystem operations the daemon performed.
    pub fs_ops: u64,
    /// Verdict publishes the daemon reported as failed.
    pub publish_failures: u64,
}

impl Served {
    fn absorb(&mut self, c: Client) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.events += c.events;
        self.latencies_ms.extend(c.latencies_ms);
        self.submit += c.submit;
        self.feed += c.feed;
        self.finish += c.finish;
        self.blocked_sends += c.blocked_sends;
        self.queue_peak = self.queue_peak.max(c.queue_peak);
        self.refused += c.refused;
    }

    /// Correct verdicts returned.
    pub fn verdicts(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One closed-loop client's log for one round.
struct Client {
    start: Instant,
    end: Instant,
    attempted: u64,
    failed: u64,
    events: u64,
    latencies_ms: Vec<f64>,
    submit: Duration,
    feed: Duration,
    finish: Duration,
    blocked_sends: u64,
    queue_peak: usize,
    refused: u64,
}

impl Client {
    fn new() -> Client {
        let now = Instant::now();
        Client {
            start: now,
            end: now,
            attempted: 0,
            failed: 0,
            events: 0,
            latencies_ms: Vec::new(),
            submit: Duration::ZERO,
            feed: Duration::ZERO,
            finish: Duration::ZERO,
            blocked_sends: 0,
            queue_peak: 0,
            refused: 0,
        }
    }

    /// Submits, feeds and finishes one stream, checking its verdict.
    fn serve(&mut self, svc: &Service, tenant: &str, name: &str, s: &Stream) {
        self.attempted += 1;
        let t0 = Instant::now();
        let handle = match svc.submit(tenant, name) {
            Ok(h) => h,
            Err(_) => {
                self.refused += 1;
                self.failed += 1;
                return;
            }
        };
        let t1 = Instant::now();
        for piece in s.bytes.chunks(CHUNK) {
            if handle.feed(piece).is_err() {
                self.failed += 1;
                return;
            }
        }
        let t2 = Instant::now();
        self.blocked_sends += handle.blocked_sends();
        self.queue_peak = self.queue_peak.max(handle.queue_peak());
        let report = handle.finish();
        let t3 = Instant::now();
        self.submit += t1 - t0;
        self.feed += t2 - t1;
        self.finish += t3 - t2;
        self.latencies_ms.push((t3 - t0).as_secs_f64() * 1e3);
        match report {
            Ok(rep) if report_matches(&rep, &s.reference) => self.events += rep.events as u64,
            Ok(rep) => {
                eprintln!(
                    "perfbench: {}: served {:?} `{}`, want `{}`",
                    s.name, rep.tier, rep.verdict, s.reference.verdict
                );
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {}: no verdict: {e}", s.name);
                self.failed += 1;
            }
        }
    }
}

fn report_matches(rep: &StreamReport, want: &Reference) -> bool {
    matches!(rep.tier, Tier::Clean | Tier::Racy)
        && rep.verdict == want.verdict
        && rep.events == want.events
        && rep.races == want.races
}

/// Per-client submission orders, round after round: each client walks
/// pass after pass over the `n` distinct streams, each pass in a seeded
/// order, and a round takes the client's next `round_streams` of them.
pub(crate) struct Planner {
    rng: SmallRng,
    n: usize,
    per_round: usize,
    pending: Vec<Vec<usize>>,
}

impl Planner {
    pub(crate) fn new(workload: Workload, n: usize, seed: u64) -> Planner {
        Planner {
            rng: SmallRng::seed_from_u64(seed),
            n,
            per_round: workload.round_streams(n),
            pending: vec![Vec::new(); workload.clients()],
        }
    }

    /// The next round's order for each client.
    pub(crate) fn round(&mut self) -> Vec<Vec<usize>> {
        let (n, per_round) = (self.n, self.per_round);
        let rng = &mut self.rng;
        self.pending
            .iter_mut()
            .map(|queue| {
                while queue.len() < per_round {
                    queue.extend(shuffled(n, rng));
                }
                queue.drain(..per_round).collect()
            })
            .collect()
    }
}

/// `0..n` in a seeded order.
pub(crate) fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// Set-up samples taken before the measured rounds, each a Service
/// brought up and torn down: the measured rounds share one Service.
const SETUP_SAMPLES: usize = 16;

/// `Service::new`, timed as set-up.
fn start_service(acc: &mut Served) -> Service {
    let t = Instant::now();
    let svc = Service::new(ServeCfg::default());
    acc.setups_s.push(t.elapsed().as_secs_f64());
    svc
}

/// Structured shutdown; streams still pending count as failed.
fn stop_service(svc: Service, acc: &mut Served) {
    let (_, outcome) = svc.shutdown();
    if let DrainOutcome::Wedged { pending } = outcome {
        eprintln!(
            "perfbench: service wedged with {} stream(s) pending",
            pending.len()
        );
        acc.failed += pending.len() as u64;
    }
}

/// One Service lifetime: `Service::new` (timed as set-up), one round,
/// structured shutdown.
pub(crate) fn service_round(streams: &[Stream], plan: &[Vec<usize>], acc: &mut Served) {
    let svc = start_service(acc);
    serve_round(&svc, streams, plan, acc);
    stop_service(svc, acc);
}

/// One round on a running Service: one client thread per order in
/// `plan` (tenant `t<client>`).
fn serve_round(svc: &Service, streams: &[Stream], plan: &[Vec<usize>], acc: &mut Served) {
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(c, order)| {
                scope.spawn(move || {
                    let tenant = format!("t{c}");
                    let mut log = Client::new();
                    for (k, &i) in order.iter().enumerate() {
                        log.serve(svc, &tenant, &format!("s{k}"), &streams[i]);
                    }
                    log.end = Instant::now();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = clients
        .iter()
        .map(|c| c.start)
        .min()
        .expect("at least one client");
    let end = clients
        .iter()
        .map(|c| c.end)
        .max()
        .expect("at least one client");
    let events: u64 = clients.iter().map(|c| c.events).sum();
    acc.round_events_per_s
        .push(events as f64 / (end - start).as_secs_f64());
    let latencies: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    acc.round_latency_p50_ms.push(median(&latencies));
    acc.wall += end - start;
    acc.rounds += 1;
    for c in clients {
        acc.absorb(c);
    }
}

/// One Service lifetime that submits every stream of `order` at once and
/// feeds each from its own thread — the daemon's feeding pattern without
/// the spool, so the two can be compared.
pub(crate) fn service_batch(streams: &[Stream], order: &[usize], acc: &mut Served) {
    let svc = Service::new(ServeCfg::default());
    let t0 = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let svc = &svc;
                scope.spawn(move || {
                    let mut log = Client::new();
                    log.serve(svc, "bench", &format!("{k:05}"), &streams[i]);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("feeder thread panicked"))
            .collect()
    });
    acc.wall += t0.elapsed();
    acc.rounds += 1;
    for c in clients {
        acc.absorb(c);
    }
    let _ = svc.shutdown();
}

/// A fresh spool plus the daemon's start-up steps (recovery scan, pool
/// start), timed as set-up. `run_daemon` repeats them on the fresh
/// spool, where they find nothing to recover.
fn start_daemon(dir: &Path, cfg: &DaemonCfg, acc: &mut Served) -> Result<Spool, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let spool = Spool::create(dir, Fs::real())?;
    recover(&spool, &cfg.serve, cfg.durability).map_err(|e| format!("recovery: {e}"))?;
    let svc = Service::new(cfg.serve.clone());
    acc.setups_s.push(t.elapsed().as_secs_f64());
    drop(svc);
    Ok(spool)
}

/// One spool-daemon batch: a fresh spool brought up (timed as set-up),
/// then every stream
/// of `order` dropped into the inbox with the shutdown sentinel and
/// drained by `run_daemon` at the default durability. A stream's latency
/// runs from the first inbox write to its verdict file's mtime.
pub(crate) fn daemon_round(
    streams: &[Stream],
    order: &[usize],
    dir: &Path,
    acc: &mut Served,
) -> Result<(), String> {
    let cfg = DaemonCfg::default();
    let spool = start_daemon(dir, &cfg, acc)?;

    let offered = SystemTime::now();
    let t0 = Instant::now();
    for (k, &i) in order.iter().enumerate() {
        let path = spool
            .inbox
            .join(Spool::stream_file("bench", &format!("{k:05}"), "rmatrc"));
        std::fs::write(&path, &streams[i].bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::write(spool.inbox.join("__shutdown__"), b"").map_err(|e| format!("sentinel: {e}"))?;
    let exit = run_daemon(&spool, &cfg)?;
    acc.wall += t0.elapsed();
    acc.rounds += 1;
    let DaemonExit::Drained { stats, .. } = exit else {
        return Err("daemon crashed without an injected fault".into());
    };
    acc.publish_failures += stats.recovery.publish_failures;
    acc.fs_ops += spool.fs().mutating_ops();

    for (k, &i) in order.iter().enumerate() {
        let s = &streams[i];
        acc.attempted += 1;
        let path = spool.verdict_path("bench", &format!("{k:05}"));
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        if !body_matches(&body, &s.reference) {
            eprintln!("perfbench: {}: daemon verdict differs:\n{body}", s.name);
            acc.failed += 1;
            continue;
        }
        acc.events += s.reference.events as u64;
        let published = std::fs::metadata(&path).and_then(|m| m.modified());
        if let Ok(d) = published.map(|p| p.duration_since(offered).unwrap_or_default()) {
            acc.latencies_ms.push(d.as_secs_f64() * 1e3);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Checks a published verdict file against the reference.
fn body_matches(body: &str, want: &Reference) -> bool {
    let field = |key: &str| body.lines().find_map(|l| l.strip_prefix(key));
    matches!(field("tier: "), Some("clean" | "racy"))
        && body.lines().any(|l| l == want.verdict)
        && field("events: ") == Some(want.events.to_string().as_str())
        && field("races: ") == Some(want.races.to_string().as_str())
}

/// Nearest-rank percentile of an ascending slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of values in any order.
pub(crate) fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 50.0)
}

/// Resets the kernel's peak-RSS mark for this process, so the peak read
/// later covers only the measured phase.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: bring the Service up and down `SETUP_SAMPLES` times
/// for set-up time, then serve the workload round after round on one
/// long-lived Service until the budget is spent, after one unmeasured
/// warm-up round, and report the end-to-end metrics.
///
/// Throughput is events and verdicts over the summed wall time of the
/// measured rounds, latency the median of the rounds' median latencies.
/// Between rounds, one more Service is brought up and down, so the
/// set-up median spans the whole run.
pub(crate) fn run(opts: &Opts, streams: &[Stream]) -> Report {
    let mut planner = Planner::new(opts.workload, streams.len(), opts.seed);
    let mut acc = Served::default();
    let deadline = Instant::now() + opts.budget;
    for _ in 0..SETUP_SAMPLES {
        drop(start_service(&mut acc));
    }
    let svc = Service::new(ServeCfg::default());
    let mut warm_up = Served::default();
    serve_round(&svc, streams, &planner.round(), &mut warm_up);
    reset_peak_rss();
    while acc.rounds == 0 || Instant::now() < deadline {
        serve_round(&svc, streams, &planner.round(), &mut acc);
        // Only the round's median is kept: a log of every sample would
        // grow the peak RSS being measured.
        acc.latencies_ms.clear();
        drop(start_service(&mut acc));
    }
    stop_service(svc, &mut acc);
    acc.attempted += warm_up.attempted;
    acc.failed += warm_up.failed;
    let peak_rss = peak_rss_mb();
    eprintln!(
        "perfbench: {} untraced: {} round(s), {} verdict(s) in {:.3} s; \
         events/s per round: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}; \
         setup median over {} sample(s)",
        opts.workload.name(),
        acc.rounds,
        acc.verdicts(),
        acc.wall.as_secs_f64(),
        quantile(&acc.round_events_per_s, 0.0),
        quantile(&acc.round_events_per_s, 25.0),
        quantile(&acc.round_events_per_s, 50.0),
        quantile(&acc.round_events_per_s, 75.0),
        quantile(&acc.round_events_per_s, 100.0),
        acc.setups_s.len()
    );
    let values = [
        acc.events as f64 / acc.wall.as_secs_f64(),
        acc.verdicts() as f64 / acc.wall.as_secs_f64(),
        median(&acc.round_latency_p50_ms),
        median(&acc.setups_s),
        peak_rss,
    ];
    Report::new(acc.attempted, acc.failed, &END_TO_END, &values)
}

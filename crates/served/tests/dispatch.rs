//! On-demand dispatch: `submit` wakes no worker, so a parked pool is
//! summoned only by a client that cannot go on alone. Each test pins
//! one wake rule (DESIGN.md §13.2) and is bounded by a watchdog or a
//! patience deadline, so a missing wake fails it instead of hanging it.

use rma_served::{DrainOutcome, ServeCfg, Service, Tier};
use rma_substrate::clock::Clock;
use rma_suite::{find_case, generate_suite, run_case_with_monitor};
use rma_trace::{replay, verdict_line, Detector, TraceWriter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CASE: &str = "lo2_put_put_inwindow_target_race";

/// `CASE`'s encoded trace and its direct-replay verdict.
fn record() -> (Vec<u8>, String) {
    let cases = generate_suite();
    let spec = find_case(&cases, CASE).expect("suite case");
    let writer = Arc::new(TraceWriter::new(CASE, 0x5EED));
    run_case_with_monitor(&spec, writer.clone());
    let trace = writer.trace();
    (trace.encode(), verdict_line(&replay(&trace, Detector::FragMerge).races))
}

/// `bytes` cut into `n` contiguous, non-empty pieces.
fn pieces(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    assert!(bytes.len() >= n, "{} bytes cannot make {n} pieces", bytes.len());
    (0..n).map(|i| &bytes[i * bytes.len() / n..(i + 1) * bytes.len() / n]).collect()
}

/// A service whose pool has served one abandoned, empty stream (tenant
/// "warm") before the test's streams arrive, so its workers are parked
/// rather than still starting up: a worker that finds a stream queued
/// when it first looks needs no summons, and the wake under test would
/// go unexercised. Counts one stream in the drain outcome.
fn warmed(cfg: ServeCfg) -> Service {
    let svc = Service::new(cfg);
    drop(svc.submit("warm", "up").unwrap());
    let served = || svc.stats().tenants.get("warm").is_some_and(|t| t.streams == 1);
    patiently("the warm-up stream was never served", served);
    svc
}

/// Polls `done` until it holds, failing the test after 10 s.
fn patiently(what: &str, mut done: impl FnMut() -> bool) {
    let patience = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < patience, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Rule 2: a `feed` that finds its queue full wakes a worker before it
/// parks, and that chunk counts once in `blocked_sends`. The worker's
/// per-chunk delay runs on a manual clock that moves only once the
/// third feed has parked, so the worker pops one chunk until then:
/// feed 2 waits for the worker it summons (unless the warmed worker,
/// between its last stream and its park, took this one first), and
/// feed 3 always waits.
#[test]
fn a_full_queue_summons_a_worker() {
    let (bytes, direct) = record();
    let clock = Clock::manual(0);
    let svc = warmed(ServeCfg {
        workers: 1,
        queue_bound: 1,
        ingest_delay: Some(Duration::from_millis(10)),
        clock: clock.clone(),
        ..Default::default()
    });

    let handle = Arc::new(svc.submit("t", "full").unwrap());
    let (after_f2_tx, after_f2) = std::sync::mpsc::channel();
    let feeder = {
        let (handle, bytes) = (handle.clone(), bytes.clone());
        std::thread::spawn(move || {
            let [p1, p2, p3] = pieces(&bytes, 3)[..] else { unreachable!() };
            handle.feed(p1).unwrap();
            handle.feed(p2).unwrap();
            after_f2_tx.send(handle.blocked_sends()).unwrap();
            handle.feed(p3).unwrap();
        })
    };
    let waited_f2 = after_f2
        .recv_timeout(Duration::from_secs(10))
        .expect("a feed on a full queue never summoned a worker");
    assert!(waited_f2 <= 1, "feed 2 counted {waited_f2} times");
    patiently("feed 3 never parked", || handle.blocked_sends() == waited_f2 + 1);
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let (clock, stop) = (clock.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                clock.advance(10);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    patiently("feed 3 never returned", || feeder.is_finished());
    feeder.join().unwrap();
    let waited = waited_f2 + 1;
    assert_eq!(handle.blocked_sends(), waited, "each waiting chunk counts once");
    let handle = Arc::into_inner(handle).expect("the feeder's clone is gone");
    let report = handle.finish().unwrap();
    stop.store(true, Ordering::SeqCst);
    ticker.join().unwrap();
    assert_eq!(report.verdict, direct);

    let (stats, outcome) = svc.shutdown();
    assert!(matches!(outcome, DrainOutcome::Drained { streams: 2 }), "{outcome:?}");
    assert_eq!(stats.tenants["t"].blocked_sends, waited);
}

/// Rules 3 and 6: tenant "b"'s claim is refused because round-robin
/// serves tenant "a" first. The refusal wakes one worker, which takes
/// "a"'s open stream and, with "b" still queued and a slot free, wakes
/// the next worker for "b". `finish` returns "b"'s verdict while "a" is
/// still open; without either wake it reports `Wedged`.
#[test]
fn a_refused_claim_summons_a_worker_and_the_worker_chains() {
    let (bytes, direct) = record();
    let svc = warmed(ServeCfg { workers: 2, watchdog_ms: 2_000, ..Default::default() });
    let open = svc.submit("a", "open").unwrap();
    open.feed(&bytes[..bytes.len() / 2]).unwrap();
    let closed = svc.submit("b", "closed").unwrap();
    closed.feed(bytes.clone()).unwrap();
    let report = closed.finish().expect("b must not wait on a's open stream");
    assert_eq!(report.verdict, direct);
    assert_eq!(report.stream, "closed");

    open.feed(&bytes[bytes.len() / 2..]).unwrap();
    assert_eq!(open.finish().unwrap().verdict, direct);
    let (_, outcome) = svc.shutdown();
    assert!(matches!(outcome, DrainOutcome::Drained { streams: 3 }), "{outcome:?}");
}

/// Rule 4: a handle dropped without `finish` closes its stream and
/// hands it to the pool, which reports it before any drain asks. (The
/// warm-up leans on this rule too.)
#[test]
fn an_abandoned_handle_summons_a_worker() {
    let (bytes, _) = record();
    let svc = warmed(ServeCfg { workers: 1, ..Default::default() });
    let handle = svc.submit("t", "abandoned").unwrap();
    handle.feed(bytes).unwrap();
    drop(handle);
    let reported = || svc.stats().tenants.get("t").map_or(0, |t| t.streams);
    patiently("no worker took the abandoned stream", || reported() == 1);
    let (stats, outcome) = svc.shutdown();
    assert!(matches!(outcome, DrainOutcome::Drained { streams: 2 }), "{outcome:?}");
    assert_eq!(stats.tenants["t"].streams, 1);
    assert_eq!(stats.tenants["t"].tiers[Tier::Racy.idx()], 1);
}

/// Rule 5: `drain` wakes the pool for a queued stream whose client is
/// still feeding, so the stream is consumed (and the watchdog sees
/// progress) before its client finishes.
#[test]
fn drain_summons_the_pool_for_queued_streams() {
    let (bytes, direct) = record();
    let svc = warmed(ServeCfg { workers: 1, watchdog_ms: 30_000, ..Default::default() });
    let handle = svc.submit("t", "slow").unwrap();
    handle.feed(&bytes[..bytes.len() / 2]).unwrap();
    std::thread::scope(|s| {
        let drain = s.spawn(|| svc.drain());
        patiently("drain never summoned a worker", || handle.progress().0 > 0);
        handle.feed(&bytes[bytes.len() / 2..]).unwrap();
        // The worker holds the stream, so this client waits for it.
        assert_eq!(handle.finish().unwrap().verdict, direct);
        let outcome = drain.join().unwrap();
        assert!(matches!(outcome, DrainOutcome::Drained { streams: 2 }), "{outcome:?}");
    });
}

/// The enqueue stamp: a client feeding slowly into a queue no worker
/// has claimed is making progress. Six pieces 60 ms apart on a 100 ms
/// deadline span 300 ms with no chunk consumed, and the stream is still
/// analyzed, not evicted.
#[test]
fn a_slow_feeder_under_its_queue_bound_is_not_stalled() {
    let (bytes, direct) = record();
    let clock = Clock::manual(0);
    let svc = warmed(ServeCfg {
        clock: clock.clone(),
        stream_deadline: Some(100),
        ..Default::default()
    });
    let handle = svc.submit("t", "slow").unwrap();
    for (i, piece) in pieces(&bytes, 6).into_iter().enumerate() {
        if i > 0 {
            clock.advance(60);
            // The monitor's check at the new time has run before the
            // next piece goes in.
            assert!(clock.wait_parked(1, Duration::from_secs(10)), "monitor never re-parked");
        }
        handle.feed(piece).map_err(|e| format!("piece {i}: {e}")).unwrap();
    }
    let report = handle.finish().unwrap();
    assert_ne!(report.tier, Tier::Timeout, "verdict: {}", report.verdict);
    assert_eq!(report.verdict, direct);
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["t"].tiers[Tier::Timeout.idx()], 0);
}

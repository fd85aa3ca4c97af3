//! Closed-loop single-client serving, where the finishing client
//! analyzes its own streams: a small stream fits its queue, so no pool
//! worker is summoned, and `finish` finds it unclaimed and runs it on
//! the caller's thread. Verdicts, chaos kills, quarantine and
//! deadline eviction must come out exactly as on a pool worker, and the
//! `workers` bound must hold for both kinds of claimant.

use rma_served::{
    ChaosCfg, DrainOutcome, ServeCfg, ServeError, Service, StreamHandle, StreamReport, Tier,
};
use rma_sim::FaultKind;
use rma_substrate::clock::Clock;
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::{replay, verdict_line, Detector, TraceWriter};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The daemon's feed chunk: a suite case fits in one.
const CHUNK: usize = 4096;

struct CaseRec {
    name: String,
    bytes: Vec<u8>,
    direct: String,
    direct_races: usize,
}

/// Records every suite case once (shared across tests) and pins its
/// direct-replay verdict.
fn recordings() -> &'static [CaseRec] {
    static RECS: OnceLock<Vec<CaseRec>> = OnceLock::new();
    RECS.get_or_init(|| {
        generate_suite()
            .iter()
            .map(|spec| {
                let name = spec.name();
                let writer = Arc::new(TraceWriter::new(name.clone(), 0x5EED));
                run_case_with_monitor(spec, writer.clone());
                let trace = writer.trace();
                let outcome = replay(&trace, Detector::FragMerge);
                CaseRec {
                    name,
                    bytes: trace.encode(),
                    direct: verdict_line(&outcome.races),
                    direct_races: outcome.races.len(),
                }
            })
            .collect()
    })
}

/// One closed-loop client: each stream is submitted, fed and finished
/// before the next is submitted.
fn serve_closed_loop(svc: &Service, tenant: &str, recs: &[&CaseRec]) -> Vec<StreamReport> {
    recs.iter()
        .map(|rec| {
            let handle = svc.submit(tenant, &rec.name).unwrap();
            for piece in rec.bytes.chunks(CHUNK) {
                handle.feed(piece).unwrap();
            }
            handle.finish().unwrap()
        })
        .collect()
}

#[test]
fn every_suite_case_matches_direct_replay() {
    let recs = recordings();
    let svc = Service::new(ServeCfg::default());
    let all: Vec<&CaseRec> = recs.iter().collect();
    let reports = serve_closed_loop(&svc, "suite", &all);
    assert_eq!(reports.len(), 240);
    for (rec, rep) in recs.iter().zip(&reports) {
        assert_eq!(rep.verdict, rec.direct, "{}: served verdict diverged", rec.name);
        assert_eq!(rep.races, rec.direct_races, "{}", rec.name);
        let want = if rec.direct_races == 0 { Tier::Clean } else { Tier::Racy };
        assert_eq!(rep.tier, want, "{}", rec.name);
        assert_eq!(rep.respawns, 0, "{}", rec.name);
        assert!(rep.completeness.is_complete(), "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["suite"].streams, 240, "one report per stream");
}

#[test]
fn chaos_kills_are_absorbed_by_redelivery() {
    let recs = recordings();
    let victims: Vec<&CaseRec> = recs.iter().step_by(10).collect();
    let svc = Service::new(ServeCfg {
        chaos: Some(ChaosCfg {
            kind: FaultKind::KillWorker { times: 2 },
            tenant: "victim".to_string(),
            at_event: 1,
        }),
        ..Default::default()
    });
    for (rec, rep) in victims.iter().zip(serve_closed_loop(&svc, "victim", &victims)) {
        assert_eq!(rep.respawns, 2, "{}: both kills absorbed", rec.name);
        assert_eq!(rep.verdict, rec.direct, "{}: verdict changed by the kills", rec.name);
        assert!(rep.completeness.is_complete(), "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["victim"].respawns, 2 * victims.len() as u64);
}

#[test]
fn a_poison_stream_quarantines() {
    let recs = recordings();
    let svc = Service::new(ServeCfg {
        max_respawns: 5,
        quarantine_after: 2,
        chaos: Some(ChaosCfg {
            kind: FaultKind::KillWorker { times: 99 },
            tenant: "poison".to_string(),
            at_event: 1,
        }),
        ..Default::default()
    });
    let rep = serve_closed_loop(&svc, "poison", &[&recs[50]]).remove(0);
    assert_eq!(rep.tier, Tier::Quarantined, "verdict: {}", rep.verdict);
    assert_eq!(rep.respawns, 2);
    // The next client stream of a healthy tenant is untouched.
    let calm = serve_closed_loop(&svc, "calm", &[&recs[50]]).remove(0);
    assert_eq!(calm.verdict, recs[50].direct);
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["poison"].tiers[Tier::Quarantined.idx()], 1);
    assert_eq!(stats.tenants["poison"].streams, 1);
}

/// Submits `rec` under tenant "t" and feeds all of it but the last
/// byte, then waits until a pool worker has decoded that prefix. The
/// worker then holds the stream, parked on its empty queue with nothing
/// in flight, and keeps its slot until the stream is finished.
///
/// The service must have `queue_bound: 1`: the prefix goes in two
/// chunks, and the second finds the queue full, which is what summons
/// the worker (no worker wakes for a stream that fits its queue). The
/// first chunk is one byte, which decodes no event, so decoded events
/// mean the worker has consumed both.
fn hold_a_slot(svc: &Service, rec: &CaseRec) -> StreamHandle {
    let held = svc.submit("t", "held").unwrap();
    held.feed(&rec.bytes[..1]).unwrap();
    held.feed(&rec.bytes[1..rec.bytes.len() - 1]).unwrap();
    let patience = Instant::now() + Duration::from_secs(10);
    while held.progress().0 == 0 {
        assert!(Instant::now() < patience, "no worker picked the held stream up");
        std::thread::yield_now();
    }
    held
}

/// With the only slot held by a worker, a finishing client must not
/// analyze its stream itself: `finish` waits under the watchdog (and,
/// with nothing else moving, reports the wedge), and a worker serves
/// the stream once the slot frees.
#[test]
fn a_finishing_client_never_exceeds_the_workers_bound() {
    let recs = recordings();
    let rec = &recs[0];
    let svc = Service::new(ServeCfg {
        workers: 1,
        queue_bound: 1,
        watchdog_ms: 200,
        ..Default::default()
    });
    let held = hold_a_slot(&svc, rec);
    let waiting = svc.submit("q", "waiting").unwrap();
    waiting.feed(rec.bytes.clone()).unwrap();
    assert_eq!(waiting.finish().unwrap_err(), ServeError::Wedged);

    held.feed(&rec.bytes[rec.bytes.len() - 1..]).unwrap();
    assert_eq!(held.finish().unwrap().verdict, rec.direct);
    let (stats, outcome) = svc.shutdown();
    assert!(matches!(outcome, DrainOutcome::Drained { streams: 2 }), "{outcome:?}");
    assert_eq!(stats.tenants["q"].streams, 1);
}

/// A stream still queued when its deadline passes is evicted by the
/// monitor. `finish` returns that one `Tier::Timeout` report whether it
/// was called before the eviction (refused a claim, since the only slot
/// is held) or after it (nothing left to claim).
#[test]
fn a_queued_stream_evicted_by_the_deadline_reports_timeout() {
    let recs = recordings();
    let rec = &recs[0];
    let clock = Clock::manual(0);
    let svc = Service::new(ServeCfg {
        workers: 1,
        queue_bound: 1,
        clock: clock.clone(),
        stream_deadline: Some(100),
        watchdog_ms: 30_000,
        ..Default::default()
    });
    let held = hold_a_slot(&svc, rec);
    // Tenant "q" is round-robin's next pick, so only the held slot
    // keeps this client from claiming its stream.
    let queued = svc.submit("q", "queued").unwrap();
    queued.feed(rec.bytes.clone()).unwrap();
    let finisher = std::thread::spawn(move || queued.finish());
    // Both streams last made progress at 0: one advance evicts both.
    clock.advance(101);
    let rep = finisher.join().unwrap().unwrap();
    assert_eq!(rep.tier, Tier::Timeout, "verdict: {}", rep.verdict);
    assert_eq!(rep.stream, "queued");
    // The drain waits for the held stream's worker to report its own
    // eviction; closing it first would race that with end-of-stream.
    let (stats, outcome) = svc.shutdown();
    assert!(matches!(outcome, DrainOutcome::Drained { streams: 2 }), "{outcome:?}");
    assert_eq!(stats.tenants["q"].streams, 1, "exactly one report");
    assert_eq!(stats.tenants["q"].tiers[Tier::Timeout.idx()], 1);
    assert_eq!(held.finish().unwrap().tier, Tier::Timeout);
}

//! Overload resilience: the four pressure valves, each structured and
//! each provably harmless to bystanders.
//!
//! * memory-pressure brownout is FP-only over the whole validation
//!   suite (a brownout may add races, never hide one);
//! * per-stream deadlines on the injectable clock evict zero-progress
//!   streams with [`Tier::Timeout`], byte-identically to bystanders;
//! * poison streams quarantine within the death budget, survive
//!   crash-restart without recovery re-analyzing them, and keep their
//!   bytes replayable under `spool/quarantine/`;
//! * tenant quotas shed with structured, machine-readable verdicts and
//!   re-admit after drain.

use rma_served::daemon::{run_daemon, DaemonCfg, DaemonExit};
use rma_served::{
    recover, ChaosCfg, Durability, RecoveryStats, ServeCfg, ServeError, Service, Spool,
    StreamReport, Tier, WalRecord, WalWriter,
};
use rma_sim::FaultKind;
use rma_substrate::clock::Clock;
use rma_substrate::fs::{Fs, FsFault, FsPlan};
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::trace::fnv1a;
use rma_trace::{replay, verdict_line, Detector, TraceWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct CaseRec {
    name: String,
    bytes: Vec<u8>,
    direct: String,
    direct_races: usize,
}

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

fn serve_all(svc: &Service, tenant: &str, recs: &[&CaseRec], chunk: usize) -> Vec<StreamReport> {
    let mut reports = Vec::new();
    for wave in recs.chunks(12) {
        let feeders: Vec<_> = wave
            .iter()
            .map(|rec| {
                let handle = svc.submit(tenant, &rec.name).unwrap();
                let bytes = rec.bytes.clone();
                let chunk = chunk.max(1);
                std::thread::spawn(move || {
                    for piece in bytes.chunks(chunk) {
                        handle.feed(piece).unwrap();
                    }
                    handle.finish().unwrap()
                })
            })
            .collect();
        for f in feeders {
            reports.push(f.join().unwrap());
        }
    }
    reports
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let d = std::env::temp_dir().join(format!("rma-overload-{}-{seq}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

// ---------------------------------------------------------------------
// (a) Memory-pressure brownout: FP-only over the whole suite.
// ---------------------------------------------------------------------

/// Every suite case served under a starvation-level service memory
/// budget: a brownout may coalesce stores into conservative supersets
/// (more races, `degraded` + `brownout` flagged) but must never hide a
/// race the exact detector reports — and any verdict that was *not*
/// degraded must be byte-identical to direct replay.
#[test]
fn brownout_never_hides_a_race_across_the_suite() {
    let recs = recordings();
    let svc = Service::new(ServeCfg {
        workers: 4,
        queue_bound: 8,
        memory_budget: Some(2),
        ..Default::default()
    });
    let all: Vec<&CaseRec> = recs.iter().collect();
    let reports = serve_all(&svc, "suite", &all, 512);
    assert_eq!(reports.len(), recs.len());

    let mut false_negatives = Vec::new();
    let mut false_positives = 0usize;
    let mut degraded = 0usize;
    for (rec, rep) in recs.iter().zip(&reports) {
        if rec.direct_races > 0 && rep.races == 0 {
            false_negatives.push(rec.name.clone());
        }
        if rec.direct_races == 0 && rep.races > 0 {
            false_positives += 1;
            assert!(
                rep.degraded,
                "{}: extra races on a non-degraded verdict are plain wrong",
                rec.name
            );
        }
        if rep.degraded {
            degraded += 1;
        } else {
            assert_eq!(rep.verdict, rec.direct, "{}: exact when not degraded", rec.name);
        }
        if rep.brownout {
            assert!(rep.degraded, "{}: brownout implies degraded", rec.name);
        }
    }
    assert!(
        false_negatives.is_empty(),
        "brownout hid {} race(s): {false_negatives:?}",
        false_negatives.len()
    );
    assert!(degraded > 0, "a 2-node service budget must visibly degrade something");

    let (stats, _) = svc.shutdown();
    let t = &stats.tenants["suite"];
    assert!(t.degraded_stores > 0, "degradation shows in stats: {t:?}");
    assert!(
        t.brownout > 0,
        "the first store to cross the service budget must retro-coalesce: {t:?}"
    );
    eprintln!(
        "brownout run: {false_positives} false positives, {degraded} degraded verdicts, \
         {} brownouts in stats",
        t.brownout
    );
}

/// A slack service budget the tiny suite never crosses changes nothing:
/// verdicts byte-identical to direct replay, zero brownouts.
#[test]
fn slack_memory_budget_changes_nothing() {
    let recs = recordings();
    let some: Vec<&CaseRec> = recs.iter().step_by(7).collect();
    let svc = Service::new(ServeCfg {
        workers: 2,
        memory_budget: Some(1 << 20),
        ..Default::default()
    });
    let reports = serve_all(&svc, "suite", &some, 512);
    for (rec, rep) in some.iter().zip(&reports) {
        assert_eq!(rep.verdict, rec.direct, "{}", rec.name);
        assert!(!rep.degraded && !rep.brownout, "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["suite"].brownout, 0);
}

// ---------------------------------------------------------------------
// (b) Deterministic-clock deadline eviction.
// ---------------------------------------------------------------------

/// A zero-progress stream on a manual clock is evicted with
/// [`Tier::Timeout`] exactly when the clock crosses its deadline, and a
/// bystander tenant's verdict is byte-identical to a solo run without
/// the stuck sibling.
#[test]
fn deadline_evicts_the_stuck_stream_and_spares_bystanders() {
    let recs = recordings();
    let bystander = &recs[0];

    // Solo baseline: the bystander alone, no deadline machinery.
    let solo = Service::new(ServeCfg { workers: 2, ..Default::default() });
    let solo_rep = serve_all(&solo, "calm", &[bystander], 256).remove(0);
    drop(solo);

    let clock = Clock::manual(0);
    let svc = Service::new(ServeCfg {
        workers: 2,
        clock: clock.clone(),
        stream_deadline: Some(500),
        watchdog_ms: 30_000,
        ..Default::default()
    });

    // The victim submits and then never feeds a byte.
    let stuck = svc.submit("victim", "stuck").unwrap();
    // The bystander completes normally while the victim sits there.
    let shared_rep = serve_all(&svc, "calm", &[bystander], 256).remove(0);
    assert_eq!(shared_rep.verdict, solo_rep.verdict, "bystander verdict changed");
    assert_eq!(shared_rep.tier, solo_rep.tier);

    // One tick short of the deadline: nothing evicted yet. The monitor
    // re-parking having seen 499 means its check at 499 has run.
    clock.advance(499);
    assert!(clock.wait_parked(1, Duration::from_secs(10)), "deadline monitor never re-parked");
    let timeouts =
        |svc: &Service| svc.stats().tenants.get("victim").map_or(0, |t| t.tiers[Tier::Timeout.idx()]);
    assert_eq!(timeouts(&svc), 0, "evicted before the deadline");
    // Crossing it: the monitor wakes and evicts. Wait for the eviction
    // to land before closing the stream — a close racing the monitor
    // would let the worker classify the empty stream first.
    clock.advance(2);
    let patience = Instant::now() + Duration::from_secs(10);
    while timeouts(&svc) == 0 {
        assert!(Instant::now() < patience, "deadline monitor never evicted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rep = stuck.finish().unwrap();
    assert_eq!(rep.tier, Tier::Timeout, "verdict: {}", rep.verdict);
    assert!(rep.verdict.contains("timeout"), "{}", rep.verdict);
    assert!(rep.verdict.contains("500ms"), "deadline echoed: {}", rep.verdict);
    assert!(!rep.completeness.is_complete());

    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["victim"].tiers[Tier::Timeout.idx()], 1);
    assert_eq!(stats.tenants["calm"].tiers[Tier::Timeout.idx()], 0);
}

/// A stream that keeps making progress is never evicted, no matter how
/// much virtual time passes between chunks — the deadline is
/// zero-progress, not total-duration.
#[test]
fn progress_resets_the_deadline() {
    let recs = recordings();
    let rec = &recs[0];
    let clock = Clock::manual(0);
    // A queue of one: each `feed` returns only after the previous chunk
    // was popped, so at most three advances separate two completed
    // progress stamps (each consumed chunk re-stamps the clock).
    let svc = Service::new(ServeCfg {
        workers: 1,
        queue_bound: 1,
        clock: clock.clone(),
        stream_deadline: Some(100),
        ..Default::default()
    });
    let h = svc.submit("steady", &rec.name).unwrap();
    let pieces = rec.bytes.chunks(32);
    let bytes = rec.bytes.len();
    assert!(pieces.len() * 30 > 100, "{bytes} bytes: the advances must sum past the deadline");
    for piece in pieces {
        h.feed(piece).unwrap();
        // Three advances stay under the deadline: 3 × 30 < 100.
        clock.advance(30);
    }
    let rep = h.finish().unwrap();
    assert_ne!(rep.tier, Tier::Timeout, "steady progress must never time out");
    assert_eq!(rep.verdict, rec.direct);
}

// ---------------------------------------------------------------------
// (c) Poison-stream quarantine, live and across crash-restart.
// ---------------------------------------------------------------------

/// A worker that keeps dying on one stream quarantines it within the
/// death budget (before the respawn budget declares it merely lost):
/// structured [`Tier::Quarantined`] verdict, sibling tenants untouched.
#[test]
fn poison_stream_quarantines_within_budget() {
    let recs = recordings();
    let bystanders: Vec<&CaseRec> = recs.iter().take(10).collect();
    let poison: Vec<&CaseRec> = recs.iter().skip(50).take(1).collect();
    let svc = Service::new(ServeCfg {
        workers: 2,
        max_respawns: 5,
        quarantine_after: 2,
        chaos: Some(ChaosCfg {
            kind: FaultKind::KillWorker { times: 99 },
            tenant: "poison".to_string(),
            at_event: 1,
        }),
        ..Default::default()
    });
    let main_reports = std::thread::scope(|scope| {
        let svc_ref = &svc;
        let bys = &bystanders;
        let main = scope.spawn(move || serve_all(svc_ref, "main", bys, 256));
        let poison_reports = serve_all(svc_ref, "poison", &poison, 256);
        for rep in &poison_reports {
            assert_eq!(rep.tier, Tier::Quarantined, "verdict: {}", rep.verdict);
            assert_eq!(rep.respawns, 2, "quarantined at the death budget, not after");
            assert!(rep.verdict.contains("quarantined"), "{}", rep.verdict);
            assert!(!rep.completeness.is_complete());
        }
        main.join().unwrap()
    });
    for (rec, rep) in bystanders.iter().zip(&main_reports) {
        assert_eq!(rep.verdict, rec.direct, "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["poison"].tiers[Tier::Quarantined.idx()], 1);
}

/// The daemon parks a quarantined stream's bytes under
/// `spool/quarantine/` — still a valid, replayable trace — cleans its
/// WAL, and reports the tier in stats.
#[test]
fn daemon_parks_quarantined_bytes_replayably() {
    let recs = recordings();
    let rec = &recs[3];
    let dir = fresh_dir("daemon-quarantine");
    std::fs::create_dir_all(dir.join("inbox")).unwrap();
    std::fs::write(dir.join("inbox").join(format!("poison__{}.rmatrc", rec.name)), &rec.bytes)
        .unwrap();
    std::fs::write(dir.join("inbox").join("__shutdown__"), b"").unwrap();
    let spool = Spool::create(&dir, Fs::real()).unwrap();
    let dcfg = DaemonCfg {
        serve: ServeCfg {
            workers: 1,
            max_respawns: 5,
            quarantine_after: 2,
            chaos: Some(ChaosCfg {
                kind: FaultKind::KillWorker { times: 99 },
                tenant: "poison".to_string(),
                at_event: 1,
            }),
            ..Default::default()
        },
        durability: Durability::Batch,
        serial: true,
        poll: Duration::from_millis(1),
    };
    let DaemonExit::Drained { stats, .. } = run_daemon(&spool, &dcfg).unwrap() else {
        panic!("daemon must drain");
    };
    assert_eq!(stats.tenants["poison"].tiers[Tier::Quarantined.idx()], 1);

    let verdict =
        std::fs::read_to_string(spool.verdict_path("poison", &rec.name)).unwrap();
    assert!(verdict.contains("tier: quarantined"), "{verdict}");

    // Bytes parked, spool otherwise clean.
    let parked = std::fs::read(spool.quarantine_path("poison", &rec.name)).unwrap();
    assert_eq!(parked, rec.bytes, "quarantined bytes are the admitted bytes");
    assert!(!spool.work_path("poison", &rec.name).exists());
    assert!(!spool.wal_path("poison", &rec.name).exists());

    // Offline replay of the parked bytes still works (the stream was
    // poison to *this service's worker*, not undecodable).
    let trace = rma_trace::Trace::decode(&parked).unwrap();
    let outcome = replay(&trace, Detector::FragMerge);
    assert_eq!(verdict_line(&outcome.races), rec.direct, "parked bytes replay to truth");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-restart: a WAL carrying the `Quarantined` record is honored by
/// recovery — verdict republished byte-identically, bytes parked, and
/// crucially *never re-analyzed*. The work bytes here are garbage that
/// would classify as `malformed` if recovery ever decoded them; the
/// quarantined verdict surviving proves it did not.
#[test]
fn recovery_honors_the_quarantined_record_without_reanalysis() {
    let durability = Durability::Batch;
    let cfg = ServeCfg { quarantine_after: 3, ..Default::default() };
    let dir = fresh_dir("recover-quarantine");
    let spool = Spool::create(&dir, Fs::real()).unwrap();
    let poison = b"poison bytes that are not a trace at all".to_vec();
    std::fs::write(spool.work_path("t", "bad"), &poison).unwrap();
    let wal = WalWriter::create(Fs::real(), spool.wal_path("t", "bad"), durability).unwrap();
    wal.append(&WalRecord::Admit { bytes_len: poison.len() as u64, bytes_fnv: fnv1a(&poison) })
        .unwrap();
    wal.append(&WalRecord::Quarantined { deaths: 3 }).unwrap();

    let stats = recover(&spool, &cfg, durability).unwrap();
    assert_eq!(
        stats,
        RecoveryStats {
            recovered: 1,
            republished: 1,
            quarantined: 1,
            wal_records: 2,
            ..Default::default()
        }
    );
    let verdict = std::fs::read_to_string(spool.verdict_path("t", "bad")).unwrap();
    assert!(verdict.contains("tier: quarantined"), "re-analysis would say malformed: {verdict}");
    assert!(verdict.contains("died 3 times"), "{verdict}");
    assert_eq!(std::fs::read(spool.quarantine_path("t", "bad")).unwrap(), poison);
    assert!(!spool.wal_path("t", "bad").exists());
    assert!(!spool.work_path("t", "bad").exists());

    // Idempotent: a second pass finds nothing to do.
    assert_eq!(recover(&spool, &cfg, durability).unwrap(), RecoveryStats::default());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The restart-crash loop converges: each recovery attempt journals an
/// `Admit`, and when the attempt count reaches `quarantine_after` the
/// stream is quarantined at startup instead of being re-analyzed. Here
/// attempt two dies mid-recovery (injected ENOSPC); attempt three finds
/// two journaled admissions and quarantines.
#[test]
fn repeated_recovery_crashes_converge_to_quarantine() {
    let recs = recordings();
    let rec = &recs[0];
    let durability = Durability::None;
    let cfg = ServeCfg { quarantine_after: 2, ..Default::default() };
    let dir = fresh_dir("recover-converge");
    let spool = Spool::create(&dir, Fs::real()).unwrap();
    std::fs::write(spool.work_path("t", &rec.name), &rec.bytes).unwrap();
    let wal = WalWriter::create(Fs::real(), spool.wal_path("t", &rec.name), durability).unwrap();
    wal.append(&WalRecord::Admit {
        bytes_len: rec.bytes.len() as u64,
        bytes_fnv: fnv1a(&rec.bytes),
    })
    .unwrap();

    // Recovery attempt that dies right after journaling its Admit (op 1
    // is the WAL append; op 2, the staged verdict write, hits ENOSPC).
    let faulty = Spool::create(&dir, Fs::faulty(FsPlan::new(FsFault::Enospc, 2))).unwrap();
    assert!(recover(&faulty, &cfg, durability).is_err(), "injected fault must surface");

    // Next incarnation: two Admits on the log >= quarantine_after → the
    // stream is declared poison without touching its bytes.
    let stats = recover(&spool, &cfg, durability).unwrap();
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    let verdict = std::fs::read_to_string(spool.verdict_path("t", &rec.name)).unwrap();
    assert!(verdict.contains("tier: quarantined"), "{verdict}");
    assert!(verdict.contains("died 2 times"), "{verdict}");
    assert_eq!(std::fs::read(spool.quarantine_path("t", &rec.name)).unwrap(), rec.bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without quarantine enabled, recovery's operation sequence is exactly
/// the pre-existing one — no Admit is appended, the stream re-analyzes
/// to its true verdict. (The durability fault sweeps pin op counts;
/// this is the gate that keeps them stable.)
#[test]
fn attempt_journaling_is_gated_on_the_quarantine_knob() {
    let recs = recordings();
    let rec = &recs[0];
    let durability = Durability::None;
    let cfg = ServeCfg::default(); // quarantine_after: 0
    let dir = fresh_dir("recover-gated");
    let spool = Spool::create(&dir, Fs::real()).unwrap();
    std::fs::write(spool.work_path("t", &rec.name), &rec.bytes).unwrap();
    // Three stale Admits: would cross any small threshold.
    let wal = WalWriter::create(Fs::real(), spool.wal_path("t", &rec.name), durability).unwrap();
    for _ in 0..3 {
        wal.append(&WalRecord::Admit {
            bytes_len: rec.bytes.len() as u64,
            bytes_fnv: fnv1a(&rec.bytes),
        })
        .unwrap();
    }

    let stats = recover(&spool, &cfg, durability).unwrap();
    assert_eq!(stats.quarantined, 0, "quarantine off: never declared poison");
    assert_eq!(stats.recovered, 1);
    let verdict = std::fs::read_to_string(spool.verdict_path("t", &rec.name)).unwrap();
    assert!(verdict.contains(&rec.direct), "re-analyzed to truth: {verdict}");
    assert!(!spool.quarantine_path("t", &rec.name).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// (d) Tenant quotas: structured shed, re-admission after drain.
// ---------------------------------------------------------------------

/// Service-level quota: the (quota+1)-th concurrent submit for a tenant
/// sheds with [`ServeError::Quota`], other tenants are unaffected, and
/// the slot re-opens the moment a stream finishes.
#[test]
fn quota_sheds_structurally_and_readmits_after_drain() {
    let recs = recordings();
    let rec = &recs[0];
    let svc = Service::new(ServeCfg {
        workers: 2,
        max_streams_per_tenant: 1,
        ..Default::default()
    });

    let held = svc.submit("acme", "first").unwrap();
    let refused = svc.submit("acme", "second");
    assert!(matches!(refused, Err(ServeError::Quota)), "expected a quota refusal");
    assert_eq!(
        ServeError::Quota.to_string(),
        "tenant quota reached (per-tenant live-stream cap)"
    );
    // Another tenant is not impeded by acme's quota pressure.
    let other = svc.submit("zeta", "unbothered").unwrap();
    for piece in rec.bytes.chunks(256) {
        other.feed(piece).unwrap();
    }
    assert_eq!(other.finish().unwrap().verdict, rec.direct);

    // Drain the held slot: re-admission succeeds.
    for piece in rec.bytes.chunks(256) {
        held.feed(piece).unwrap();
    }
    held.finish().unwrap();
    let readmitted = svc.submit("acme", "second").unwrap();
    for piece in rec.bytes.chunks(256) {
        readmitted.feed(piece).unwrap();
    }
    assert_eq!(readmitted.finish().unwrap().verdict, rec.direct);
    drop(svc);
}

/// Daemon-level quota: of three same-tenant submissions in one inbox
/// scan, exactly quota-many serve; the rest get machine-readable shed
/// verdicts (`shed:` + `retry-after-ms:`) and count as `shed` in
/// stats. Resubmitting after the flood drains gets a real verdict over
/// the shed one.
#[test]
fn daemon_quota_shed_is_structured_and_retryable() {
    let recs = recordings();
    let rec = &recs[0];
    let dir = fresh_dir("daemon-quota");
    std::fs::create_dir_all(dir.join("inbox")).unwrap();
    for n in ["s1", "s2", "s3"] {
        std::fs::write(dir.join("inbox").join(format!("acme__{n}.rmatrc")), &rec.bytes).unwrap();
    }
    std::fs::write(dir.join("inbox").join("__shutdown__"), b"").unwrap();
    let dcfg = DaemonCfg {
        serve: ServeCfg { workers: 1, max_streams_per_tenant: 1, ..Default::default() },
        durability: Durability::None,
        serial: true,
        poll: Duration::from_millis(1),
    };
    let run = |dir: &Path| {
        let spool = Spool::create(dir, Fs::real()).unwrap();
        let DaemonExit::Drained { stats, .. } = run_daemon(&spool, &dcfg).unwrap() else {
            panic!("daemon must drain");
        };
        (spool, stats)
    };
    let (spool, stats) = run(&dir);
    assert_eq!(stats.tenants["acme"].shed, 2, "two of three shed under quota 1");
    assert_eq!(stats.tenants["acme"].streams, 1, "one served");
    let mut served = 0;
    for n in ["s1", "s2", "s3"] {
        let body = std::fs::read_to_string(spool.verdict_path("acme", n)).unwrap();
        if body.contains("\nshed: tenant quota reached\n") {
            assert!(body.contains("\nretry-after-ms: "), "machine-readable hint: {body}");
        } else {
            assert!(body.contains(&rec.direct), "{body}");
            served += 1;
        }
    }
    assert_eq!(served, 1);

    // The flood is over: resubmit one shed stream; its real verdict
    // replaces the shed marker.
    std::fs::write(dir.join("inbox").join("acme__s2.rmatrc"), &rec.bytes).unwrap();
    std::fs::write(dir.join("inbox").join("__shutdown__"), b"").unwrap();
    let (spool, stats) = run(&dir);
    assert_eq!(stats.tenants["acme"].shed, 0, "no pressure, no shed");
    let body = std::fs::read_to_string(spool.verdict_path("acme", "s2")).unwrap();
    assert!(body.contains(&rec.direct), "re-admitted to a real verdict: {body}");
    assert!(!body.contains("shed:"), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Service-replay equivalence: every suite case submitted through the
//! service produces the same verdict as direct offline replay — with
//! and without kill-worker chaos on a sibling tenant.

use rma_served::{check_stats_json, ChaosCfg, ServeCfg, Service, StreamReport, Tier};
use rma_sim::FaultKind;
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::{replay, verdict_line, Detector, Trace, TraceWriter, MAGIC};
use std::sync::{Arc, OnceLock};

struct CaseRec {
    name: String,
    bytes: Vec<u8>,
    direct: String,
    direct_races: usize,
}

/// Records every suite case once (shared across tests) and pins its
/// direct-replay verdict as the equivalence baseline.
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

/// Submits `recs` to `svc` under `tenant`, feeding each stream from its
/// own thread in `chunk`-byte pieces (waves bound the thread count),
/// and returns the reports in input order.
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

#[test]
fn all_suite_cases_match_direct_replay_through_the_service() {
    let recs = recordings();
    let svc = Service::new(ServeCfg { workers: 4, queue_bound: 8, ..Default::default() });
    let all: Vec<&CaseRec> = recs.iter().collect();
    let reports = serve_all(&svc, "suite", &all, 512);
    assert_eq!(reports.len(), recs.len());
    for (rec, rep) in recs.iter().zip(&reports) {
        assert_eq!(rep.verdict, rec.direct, "{}: served verdict diverged", rec.name);
        assert_eq!(rep.races, rec.direct_races, "{}", rec.name);
        let want_tier = if rec.direct_races == 0 { Tier::Clean } else { Tier::Racy };
        assert_eq!(rep.tier, want_tier, "{}", rec.name);
        assert!(rep.completeness.is_complete(), "{}", rec.name);
        assert_eq!(rep.respawns, 0, "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["suite"].streams, recs.len() as u64);
    check_stats_json(&stats.to_json()).unwrap();
}

/// The multi-tenant isolation contract: a kill-worker fault plan aimed
/// at one tenant leaves every other tenant's verdicts byte-identical to
/// a solo run, and the victim recovers crash-equivalently within the
/// respawn budget.
#[test]
fn kill_worker_chaos_recovers_and_isolates_tenants() {
    let recs = recordings();
    let all: Vec<&CaseRec> = recs.iter().collect();
    let victims: Vec<&CaseRec> = recs.iter().step_by(31).collect();

    // Solo baseline for the bystander tenant.
    let solo = Service::new(ServeCfg { workers: 2, queue_bound: 8, ..Default::default() });
    let solo_reports = serve_all(&solo, "main", &all, 512);
    drop(solo);

    // Shared pool, chaos aimed at "victim": its worker dies twice per
    // stream once 4 events have decoded.
    let svc = Service::new(ServeCfg {
        workers: 2,
        queue_bound: 8,
        max_respawns: 3,
        chaos: Some(ChaosCfg {
            kind: FaultKind::KillWorker { times: 2 },
            tenant: "victim".to_string(),
            at_event: 4,
        }),
        ..Default::default()
    });
    let main_reports = std::thread::scope(|scope| {
        let svc_ref = &svc;
        let main = scope.spawn(move || serve_all(svc_ref, "main", &all, 512));
        let victim_reports = serve_all(svc_ref, "victim", &victims, 512);
        for (rec, rep) in victims.iter().zip(&victim_reports) {
            assert_eq!(rep.respawns, 2, "{}: both kills absorbed", rec.name);
            assert_eq!(rep.verdict, rec.direct, "{}: not crash-equivalent", rec.name);
            assert!(rep.completeness.is_complete(), "{}", rec.name);
        }
        main.join().unwrap()
    });
    for (solo_rep, shared_rep) in solo_reports.iter().zip(&main_reports) {
        assert_eq!(
            shared_rep.verdict, solo_rep.verdict,
            "{}: bystander verdict changed under sibling chaos",
            solo_rep.stream
        );
        assert_eq!(shared_rep.respawns, 0, "{}", solo_rep.stream);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["victim"].respawns, 2 * victims.len() as u64);
    assert_eq!(stats.tenants["main"].respawns, 0);
    check_stats_json(&stats.to_json()).unwrap();
}

/// Beyond the respawn budget the victim stream fail-stops with a
/// structured `Lost` verdict and partial completeness — and nothing
/// else is harmed.
#[test]
fn kill_budget_exhaustion_degrades_the_victim_stream_only() {
    let recs = recordings();
    let bystanders: Vec<&CaseRec> = recs.iter().take(20).collect();
    let victims: Vec<&CaseRec> = recs.iter().skip(100).take(2).collect();
    let svc = Service::new(ServeCfg {
        workers: 2,
        queue_bound: 8,
        max_respawns: 3,
        chaos: Some(ChaosCfg {
            kind: FaultKind::KillWorker { times: 99 },
            tenant: "victim".to_string(),
            at_event: 1,
        }),
        ..Default::default()
    });
    let main_reports = std::thread::scope(|scope| {
        let svc_ref = &svc;
        let bys = &bystanders;
        let main = scope.spawn(move || serve_all(svc_ref, "main", bys, 256));
        let victim_reports = serve_all(svc_ref, "victim", &victims, 256);
        for rep in &victim_reports {
            assert_eq!(rep.tier, Tier::Lost, "{}", rep.stream);
            assert!(!rep.completeness.is_complete(), "{}", rep.stream);
            assert_eq!(rep.respawns, 4, "budget 3 + the final straw");
            assert!(rep.verdict.starts_with("verdict: detector lost"));
        }
        main.join().unwrap()
    });
    for (rec, rep) in bystanders.iter().zip(&main_reports) {
        assert_eq!(rep.verdict, rec.direct, "{}", rec.name);
    }
    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["victim"].tiers[Tier::Lost.idx()], 2);
}

/// Truncated and garbage streams end in structured per-tenant verdicts,
/// never a panic or a hang.
#[test]
fn truncated_and_malformed_streams_are_structured() {
    let recs = recordings();
    let racy = recs.iter().find(|r| r.direct_races > 0).unwrap();
    let svc = Service::new(ServeCfg { workers: 1, ..Default::default() });

    // A deep cut: decoder salvages an epoch-aligned prefix.
    let cut = &racy.bytes[..racy.bytes.len() * 3 / 5];
    let h = svc.submit("trunc", "cut-stream").unwrap();
    for piece in cut.chunks(64) {
        h.feed(piece).unwrap();
    }
    let rep = h.finish().unwrap();
    assert_eq!(rep.tier, Tier::Truncated, "verdict: {}", rep.verdict);
    assert!(!rep.completeness.is_complete());
    assert!(rep.verdict.starts_with("verdict:"));

    // Garbage: structured malformed verdict.
    let h = svc.submit("trunc", "garbage").unwrap();
    h.feed(&b"this is not a trace file at all"[..]).unwrap();
    let rep = h.finish().unwrap();
    assert_eq!(rep.tier, Tier::Malformed);
    assert!(rep.verdict.contains("malformed"));

    let (stats, _) = svc.shutdown();
    assert_eq!(stats.tenants["trunc"].streams, 2);
    check_stats_json(&stats.to_json()).unwrap();
}

/// A header declaring `u32::MAX` ranks (17 bytes: magic, version 2, the
/// rank count, seed 0, an empty app and an empty string table) is a
/// malformed stream, not a per-rank allocation that aborts the process;
/// the service then serves the next stream as usual.
#[test]
fn an_oversized_rank_count_is_malformed_and_the_service_goes_on() {
    let mut hostile = MAGIC.to_vec();
    hostile.extend_from_slice(&[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0]);
    assert_eq!(hostile.len(), 17);
    let svc = Service::new(ServeCfg { workers: 1, ..Default::default() });
    let h = svc.submit("hostile", "ranks").unwrap();
    h.feed(hostile).unwrap();
    let rep = h.finish().unwrap();
    assert_eq!(rep.tier, Tier::Malformed, "verdict: {}", rep.verdict);
    assert!(rep.verdict.contains("rank count out of range"), "verdict: {}", rep.verdict);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/lo2_accum_put_inwindow_target_race.rmatrc"
    );
    let bytes = std::fs::read(path).unwrap();
    let direct = replay(&Trace::decode(&bytes).unwrap(), Detector::FragMerge);
    let h = svc.submit("hostile", "corpus").unwrap();
    h.feed(bytes).unwrap();
    let rep = h.finish().unwrap();
    assert_eq!(rep.tier, Tier::Racy);
    assert_eq!(rep.verdict, verdict_line(&direct.races));
    svc.shutdown();
}

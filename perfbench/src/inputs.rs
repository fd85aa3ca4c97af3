//! Workload inputs: the trace streams a workload serves, built from the
//! seed, each with the reference verdict every served verdict must
//! match.

use crate::{Size, Workload};
use rma_core::{Interval, RankId, SrcLoc};
use rma_monitor::AnalyzerCfg;
use rma_served::ServeCfg;
use rma_sim::{RmaDir, WinId};
use rma_substrate::rng::{SliceRandom, SmallRng};
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::{
    replay, replay_trace, verdict_line, Detector, StoreTarget, Trace, TraceEvent, TraceHeader,
    TraceWriter, FORMAT_VERSION,
};
use std::sync::Arc;

/// What a correct analysis of one stream yields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Canonical verdict line (`verdict: clean` / `verdict: N race(s) ..`).
    pub verdict: String,
    /// Trace events analyzed.
    pub events: usize,
    /// Races in the verdict.
    pub races: usize,
}

/// One distinct input stream of a workload.
pub struct Stream {
    /// Stream label (app or suite-case name).
    pub name: String,
    /// Encoded trace, format v2.
    pub bytes: Vec<u8>,
    /// The verdict direct replay produces for these bytes.
    pub reference: Reference,
}

/// Totals over a workload's distinct streams. Pinned per workload and
/// size, so a run that analyzes different input fails instead of
/// reporting a number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Totals {
    /// Distinct streams.
    pub streams: usize,
    /// Events summed over the streams.
    pub events: usize,
    /// Races summed over the streams.
    pub races: usize,
}

fn pinned(workload: Workload, size: Size) -> Totals {
    let t = |streams, events, races| Totals {
        streams,
        events,
        races,
    };
    match (workload, size) {
        (Workload::LargeChurn, Size::Full) => t(3, 384_013, 1),
        (Workload::LargeChurn, Size::Tiny) => t(2, 6_409, 1),
        (Workload::SuiteMany, Size::Full) => t(240, 5_520, 51),
        (Workload::SuiteMany, Size::Tiny) => t(24, 552, 6),
    }
}

/// The store configuration the Service replays every stream under:
/// `ServeCfg::default().analyzer` with the detector's algorithm.
pub fn served_store_cfg() -> AnalyzerCfg {
    let cfg = ServeCfg::default();
    let mut rcfg = cfg.analyzer;
    if let Some(algo) = cfg.detector.algorithm() {
        rcfg.algorithm = algo;
    }
    rcfg
}

/// Builds the workload's distinct streams, computes each reference
/// verdict twice (tree `FragMergeStore` and the Service's store
/// constructor, which must agree) and checks the pinned totals.
pub fn build(workload: Workload, size: Size, seed: u64) -> Result<Vec<Stream>, String> {
    let traces = match workload {
        Workload::LargeChurn => churn_traces(size, seed),
        Workload::SuiteMany => suite_traces(size),
    };
    let mut streams = Vec::with_capacity(traces.len());
    for trace in traces {
        if trace.header.version != FORMAT_VERSION {
            return Err(format!(
                "{}: encoded as v{}, want v{FORMAT_VERSION}",
                trace.header.app, trace.header.version
            ));
        }
        let name = trace.header.app.clone();
        let bytes = trace.encode();
        drop(trace);
        let reference = reference_for(&name, &bytes)?;
        streams.push(Stream {
            name,
            bytes,
            reference,
        });
    }
    let got = Totals {
        streams: streams.len(),
        events: streams.iter().map(|s| s.reference.events).sum(),
        races: streams.iter().map(|s| s.reference.races).sum(),
    };
    let want = pinned(workload, size);
    if got != want {
        return Err(format!(
            "{} inputs differ from the pinned totals: got {got:?}, want {want:?}",
            workload.name()
        ));
    }
    Ok(streams)
}

fn reference_for(name: &str, bytes: &[u8]) -> Result<Reference, String> {
    let trace = Trace::decode(bytes).map_err(|e| format!("{name}: {e}"))?;
    let tree = replay(&trace, Detector::FragMerge);
    let rcfg = served_store_cfg();
    let served = replay_trace(
        &trace,
        Box::new(StoreTarget::new(move || rcfg.build_store(None))),
    );
    if !tree.complete || !served.complete {
        return Err(format!("{name}: replay did not complete"));
    }
    let verdict = verdict_line(&tree.races);
    let served_verdict = verdict_line(&served.races);
    if verdict != served_verdict || tree.events != served.events {
        return Err(format!(
            "{name}: tree and served store engines disagree:\n  tree:   {verdict}\n  served: {served_verdict}"
        ));
    }
    Ok(Reference {
        verdict,
        events: tree.events,
        races: tree.races.len(),
    })
}

/// `bench_served`'s large stream shape: one rank, one `lock_all` epoch,
/// `per_region` rounds of disjoint accesses over `regions` interleaved
/// 1 MiB regions (visited in `order`), 1 in 4 writes. With `race`, the
/// epoch opens with a put whose origin buffer the first local write then
/// overwrites while the put may still be reading it.
fn churn_trace(regions: u64, per_region: u64, order: &[u64], race: bool, seed: u64) -> Trace {
    let win = WinId(0);
    let mut ev = Vec::with_capacity((regions * per_region) as usize + 5);
    ev.push(TraceEvent::WinAllocate {
        win,
        base: 0,
        len: regions << 20,
    });
    ev.push(TraceEvent::LockAll { win });
    if race {
        let origin = order[0] << 20;
        let target = regions << 20;
        ev.push(TraceEvent::Rma {
            dir: RmaDir::Put,
            target: RankId(0),
            win,
            origin_interval: Interval::new(origin, origin + 1),
            target_interval: Interval::new(target, target + 1),
            origin_on_stack: false,
            loc: SrcLoc::synthetic("churn.c", 999),
        });
    }
    for i in 0..per_region {
        for &r in order {
            let lo = (r << 20) + i * 3;
            ev.push(TraceEvent::Local {
                interval: Interval::new(lo, lo + 1),
                write: i % 4 == 0,
                on_stack: false,
                tracked: true,
                loc: SrcLoc::synthetic("churn.c", r as u32 + 1),
            });
        }
    }
    ev.push(TraceEvent::UnlockAll { win });
    ev.push(TraceEvent::Finish);
    Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            nranks: 1,
            seed,
            app: format!("churn-{}", if race { "racy" } else { "clean" }),
        },
        streams: vec![ev],
    }
}

/// A few copies of the churn stream, each with its own seeded region
/// interleaving; the second copy carries one race.
fn churn_traces(size: Size, seed: u64) -> Vec<Trace> {
    let (copies, regions, per_region) = match size {
        Size::Full => (3, 64, 2000),
        Size::Tiny => (2, 8, 400),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..copies)
        .map(|c| {
            let mut order: Vec<u64> = (0..regions).collect();
            order.shuffle(&mut rng);
            churn_trace(regions, per_region, &order, c == 1, seed)
        })
        .collect()
}

/// The recorded microbenchmark-suite cases (3 ranks each).
fn suite_traces(size: Size) -> Vec<Trace> {
    let n = match size {
        Size::Full => usize::MAX,
        Size::Tiny => 24,
    };
    generate_suite()
        .iter()
        .take(n)
        .map(|spec| {
            let writer = Arc::new(TraceWriter::new(spec.name(), 0x5EED));
            run_case_with_monitor(spec, writer.clone());
            writer.trace()
        })
        .collect()
}

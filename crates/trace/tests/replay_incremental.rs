//! Incremental-replay equivalence: a [`Replayer`] fed a trace's events in
//! wire order, in arbitrary batches, must produce exactly what
//! whole-trace [`replay_trace`] produces — races, store statistics,
//! event count, completeness and unsupported flushes, field for field.
//! The served path replays every stream this way, batch by batch as its
//! chunks decode, so any schedule drift would show here first.
//!
//! Coverage: every suite case through the production store, the tree
//! reference, the naive store and MUST; every corpus trace at format v1
//! and v2, also fed through a chunked [`StreamDecoder`]; and every
//! epoch-aligned truncation of the multi-epoch corpus traces.
//!
//! Run dispatch is checked the same way: [`StoreTarget`] takes each run
//! of local events at once ([`ReplayTarget::locals`]), and must produce
//! exactly what the same target fed one event at a time produces, on the
//! suite, the corpus, and hand-built two-window traces (plain and with
//! metered stores sharing one gauge).

use rma_core::{Interval, MemGauge, RankId, SrcLoc};
use rma_monitor::{Algorithm, AnalyzerCfg};
use rma_sim::{RmaDir, WinId};
use rma_substrate::rng::SmallRng;
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::format::is_epoch_boundary;
use rma_trace::{
    replay_trace, MustTarget, ReplayOutcome, ReplayTarget, Replayer, StoreTarget, StreamDecoder,
    Trace, TraceEvent, TraceHeader, TraceWriter, FORMAT_VERSION,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The detectors compared: the Service's production store, the tree
/// reference, the naive store, and MUST.
#[derive(Clone, Copy, Debug)]
enum Det {
    Production,
    Tree,
    Naive,
    Must,
}

const DETECTORS: [Det; 4] = [Det::Production, Det::Tree, Det::Naive, Det::Must];

fn target(det: Det) -> Box<dyn ReplayTarget> {
    match det {
        Det::Production => {
            let cfg = AnalyzerCfg::default();
            Box::new(StoreTarget::new(move || cfg.build_store(None)))
        }
        Det::Tree => Box::new(StoreTarget::new(|| Algorithm::FragMerge.new_store())),
        Det::Naive => Box::new(StoreTarget::new(|| Algorithm::FullHistory.new_store())),
        Det::Must => Box::new(MustTarget::new()),
    }
}

/// How a trace's events are cut into batches.
#[derive(Clone, Copy, Debug)]
enum Split {
    /// One event per batch.
    Single,
    /// Seeded random sizes, 1 to 16 events.
    Random(u64),
    /// Three-event batches around every `Finish`: each straddles the
    /// end of one rank's stream and the start of the next.
    AcrossFinish,
}

const SPLITS: [Split; 4] = [
    Split::Single,
    Split::Random(1),
    Split::Random(2),
    Split::AcrossFinish,
];

/// Cut points (exclusive batch ends) over `events`.
fn cuts(events: &[TraceEvent], split: Split) -> Vec<usize> {
    let n = events.len();
    let mut ends = match split {
        Split::Single => (1..=n).collect(),
        Split::Random(seed) => {
            let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
            let mut ends = Vec::new();
            let mut at = 0;
            while at < n {
                at = (at + rng.gen_range(1..17usize)).min(n);
                ends.push(at);
            }
            ends
        }
        Split::AcrossFinish => {
            let mut ends = Vec::new();
            for (i, e) in events.iter().enumerate() {
                if matches!(e, TraceEvent::Finish) {
                    ends.push(i.saturating_sub(1));
                    ends.push((i + 2).min(n));
                }
            }
            ends.push(n);
            ends
        }
    };
    ends.retain(|&e| e > 0);
    ends.dedup();
    ends
}

/// Pushes `trace` into a [`Replayer`] in wire order, cut by `split`. A
/// trace whose streams all end in `Finish` is one wire sequence, cut
/// anywhere; otherwise each rank's stream is cut on its own and closed
/// with [`Replayer::end_rank`].
fn incremental(trace: &Trace, det: Det, split: Split) -> ReplayOutcome {
    assert_eq!(trace.streams.len(), trace.header.nranks as usize);
    let mut rep = Replayer::new(trace.header.nranks, target(det));
    let finished = trace
        .streams
        .iter()
        .all(|s| matches!(s.last(), Some(TraceEvent::Finish)))
        && trace
            .streams
            .iter()
            .all(|s| s.iter().filter(|e| matches!(e, TraceEvent::Finish)).count() == 1);
    if finished {
        let wire: Vec<TraceEvent> = trace.streams.concat();
        let mut lo = 0;
        for hi in cuts(&wire, split) {
            rep.push(wire[lo..hi].to_vec());
            lo = hi;
        }
    } else {
        for s in &trace.streams {
            let mut lo = 0;
            for hi in cuts(s, split) {
                rep.push(s[lo..hi].to_vec());
                lo = hi;
            }
            rep.end_rank();
        }
    }
    rep.finish()
}

fn assert_same(what: &str, got: &ReplayOutcome, want: &ReplayOutcome) {
    assert_eq!(got.races, want.races, "{what}: races");
    assert_eq!(got.stats, want.stats, "{what}: store statistics");
    assert_eq!(got.events, want.events, "{what}: events");
    assert_eq!(got.complete, want.complete, "{what}: complete");
    assert_eq!(
        got.unsupported_flushes, want.unsupported_flushes,
        "{what}: unsupported flushes"
    );
}

fn check(what: &str, trace: &Trace) {
    for det in DETECTORS {
        let whole = replay_trace(trace, target(det));
        for split in SPLITS {
            let inc = incremental(trace, det, split);
            assert_same(&format!("{what} {det:?} {split:?}"), &inc, &whole);
        }
    }
}

/// A target fed one event at a time: it keeps the trait's default
/// [`ReplayTarget::locals`], so every run reaches the inner target
/// through [`ReplayTarget::event`].
struct PerEvent(Box<dyn ReplayTarget>);

impl ReplayTarget for PerEvent {
    fn start(&mut self, nranks: u32) {
        self.0.start(nranks);
    }

    fn event(&mut self, rank: RankId, ev: &TraceEvent) {
        self.0.event(rank, ev);
    }

    fn arrive(&mut self, rank: RankId, ev: &TraceEvent) {
        self.0.arrive(rank, ev);
    }

    fn release(&mut self, ev: &TraceEvent) {
        self.0.release(ev);
    }

    fn rank_finish(&mut self, rank: RankId) {
        self.0.rank_finish(rank);
    }

    fn finish(self: Box<Self>, events: usize, complete: bool) -> ReplayOutcome {
        self.0.finish(events, complete)
    }
}

/// Run dispatch ≡ per-event dispatch for every store-based detector.
fn check_runs(what: &str, trace: &Trace) {
    for det in [Det::Production, Det::Tree, Det::Naive] {
        let runs = replay_trace(trace, target(det));
        let per_event = replay_trace(trace, Box::new(PerEvent(target(det))));
        assert_same(&format!("{what} {det:?} runs"), &runs, &per_event);
    }
}

#[test]
fn every_suite_case_replays_the_same_in_any_batches() {
    let cases = generate_suite();
    assert_eq!(cases.len(), 240);
    for spec in &cases {
        let writer = Arc::new(TraceWriter::new(spec.name(), 0x5EED));
        run_case_with_monitor(spec, writer.clone());
        let trace = writer.trace();
        check(spec.name().as_ref(), &trace);
        check_runs(spec.name().as_ref(), &trace);
    }
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rmatrc"))
        .collect();
    files.sort();
    assert!(files.len() >= 10, "corpus at {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect()
}

/// `trace` encoded at format `version`.
fn at_version(trace: &Trace, version: u64) -> Vec<u8> {
    let mut t = trace.clone();
    t.header.version = version;
    t.encode()
}

#[test]
fn every_corpus_trace_replays_the_same_at_v1_and_v2() {
    for (name, bytes) in corpus() {
        let trace = Trace::decode(&bytes).unwrap();
        for version in [1, 2] {
            let decoded = Trace::decode(&at_version(&trace, version)).unwrap();
            assert_eq!(decoded.streams, trace.streams, "{name} v{version}");
            check(&format!("{name} v{version}"), &decoded);
        }
        check_runs(&name, &trace);
    }
}

fn local(lo: u64, hi: u64, write: bool, tracked: bool, line: u32) -> TraceEvent {
    TraceEvent::Local {
        interval: Interval::new(lo, hi),
        write,
        on_stack: false,
        tracked,
        loc: SrcLoc::synthetic("two_windows.c", line),
    }
}

fn put(target: u32, win: WinId, origin: u64, at: u64, line: u32) -> TraceEvent {
    TraceEvent::Rma {
        dir: RmaDir::Put,
        target: RankId(target),
        win,
        origin_interval: Interval::new(origin, origin + 7),
        target_interval: Interval::new(at, at + 7),
        origin_on_stack: false,
        loc: SrcLoc::synthetic("two_windows.c", line),
    }
}

fn two_rank_trace(app: &str, streams: Vec<Vec<TraceEvent>>) -> Trace {
    Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            nranks: streams.len() as u32,
            seed: 7,
            app: app.to_string(),
        },
        streams,
    }
}

/// Two windows, and one stretch of rank 0's stream between sync points
/// that holds a `LockAll` on window 1 (which ends a local run) and an
/// untracked access (which does not): accesses before the `LockAll` land
/// in window 0's store only, those after it in both, the untracked one
/// in neither. Both races (a local write over a put's origin buffer, a
/// local read under a put's target) are found either way.
#[test]
fn run_dispatch_matches_per_event_on_two_windows() {
    let (w0, w1) = (WinId(0), WinId(1));
    let open = || {
        vec![
            TraceEvent::WinAllocate { win: w0, base: 0, len: 4096 },
            TraceEvent::WinAllocate { win: w1, base: 8192, len: 4096 },
        ]
    };
    let close = [
        TraceEvent::UnlockAll { win: w0 },
        TraceEvent::UnlockAll { win: w1 },
        TraceEvent::Barrier,
        TraceEvent::Finish,
    ];
    let mut r0 = open();
    r0.extend([
        TraceEvent::LockAll { win: w0 },
        put(1, w0, 100, 0, 1),
        local(100, 103, true, true, 2),
        local(200, 207, true, false, 3),
        TraceEvent::LockAll { win: w1 },
        local(104, 107, true, true, 4),
        put(1, w1, 300, 8192, 5),
        local(300, 300, false, true, 6),
        local(400, 407, true, true, 7),
    ]);
    r0.extend(close);
    let mut r1 = open();
    r1.extend([
        TraceEvent::LockAll { win: w0 },
        TraceEvent::LockAll { win: w1 },
        local(0, 7, false, true, 8),
        local(8192, 8195, false, true, 9),
    ]);
    r1.extend(close);
    let trace = two_rank_trace("two-windows", vec![r0, r1]);
    let out = replay_trace(&trace, target(Det::Production));
    assert!(out.complete && out.races.len() >= 2, "{:?}", out.races);
    check_runs("two windows", &trace);
}

/// Metered stores share one gauge, so the order in which a local run
/// reaches the windows decides which store browns out first: run
/// dispatch keeps per-event order, access by access, so statistics and
/// verdicts stay identical under a budget the run crosses.
#[test]
fn run_dispatch_keeps_the_metered_order_across_windows() {
    let (w0, w1) = (WinId(0), WinId(1));
    let mut ev = vec![
        TraceEvent::WinAllocate { win: w0, base: 0, len: 1 << 20 },
        TraceEvent::WinAllocate { win: w1, base: 1 << 20, len: 1 << 20 },
        TraceEvent::LockAll { win: w0 },
        TraceEvent::LockAll { win: w1 },
        put(0, w1, 5000, 1 << 20, 1),
    ];
    for i in 0..40u64 {
        ev.push(local(i * 16, i * 16 + 3 + (i % 3), i % 2 == 0, true, 2 + (i % 5) as u32));
    }
    ev.push(local(5004, 5004, true, true, 9));
    ev.extend([
        TraceEvent::UnlockAll { win: w0 },
        TraceEvent::UnlockAll { win: w1 },
        TraceEvent::Finish,
    ]);
    let trace = two_rank_trace("metered-two-windows", vec![ev]);
    for budget in [3, 8, 20, 61] {
        let metered = |gauge: MemGauge| {
            let cfg = AnalyzerCfg::default();
            StoreTarget::new(move || cfg.build_store_metered(&gauge))
        };
        let runs = replay_trace(&trace, Box::new(metered(MemGauge::new(budget))));
        let per_event = replay_trace(
            &trace,
            Box::new(PerEvent(Box::new(metered(MemGauge::new(budget))))),
        );
        assert!(runs.stats.brownouts > 0, "budget {budget}: no brownout");
        assert_same(&format!("metered budget {budget}"), &runs, &per_event);
    }
}

/// The served path: bytes decoded chunk by chunk, each chunk's events
/// taken from the decoder and pushed as one batch. Only a stream whose
/// ranks all run to `Finish` decodes whole (the minimized corpus traces
/// do not; the Service replays those from their `StreamEnd`).
#[test]
fn decoder_fed_batches_replay_the_same() {
    let mut fed = 0;
    for (name, bytes) in corpus() {
        let trace = Trace::decode(&bytes).unwrap();
        let v2 = at_version(&trace, 2);
        if !trace
            .streams
            .iter()
            .all(|s| matches!(s.last(), Some(TraceEvent::Finish)))
        {
            let mut dec = StreamDecoder::new();
            dec.feed(&v2).unwrap();
            assert!(!dec.is_complete(), "{name}");
            continue;
        }
        fed += 1;
        for chunk in [1, 7, 64, 4096] {
            for det in DETECTORS {
                let mut dec = StreamDecoder::new();
                let mut rep = None;
                for piece in v2.chunks(chunk) {
                    dec.feed(piece).unwrap();
                    let Some(h) = dec.header() else { continue };
                    let rep = rep.get_or_insert_with(|| Replayer::new(h.nranks, target(det)));
                    rep.push(dec.take_events());
                }
                assert!(dec.is_complete(), "{name}: chunk {chunk}");
                let got = rep.unwrap().finish();
                let want = replay_trace(&trace, target(det));
                assert_same(&format!("{name} chunk {chunk} {det:?}"), &got, &want);
            }
        }
        // A v1 stream is buffered whole: nothing is taken before finish.
        let mut dec = StreamDecoder::new();
        dec.feed(&at_version(&trace, 1)).unwrap();
        assert!(
            dec.take_events().is_empty() && !dec.is_complete(),
            "{name} v1"
        );
    }
    assert!(fed >= 10, "{fed} corpus traces decoded whole");
}

/// Each rank's stream cut after its `k`-th epoch-closing record.
fn truncated(trace: &Trace, k: usize) -> Trace {
    let mut t = trace.clone();
    for s in &mut t.streams {
        let keep = s
            .iter()
            .enumerate()
            .filter(|(_, e)| is_epoch_boundary(e))
            .map(|(i, _)| i + 1)
            .take(k)
            .last();
        s.truncate(keep.unwrap_or(0));
    }
    t
}

#[test]
fn every_epoch_aligned_truncation_replays_the_same() {
    let mut multi = 0;
    for (name, bytes) in corpus() {
        let trace = Trace::decode(&bytes).unwrap();
        let epochs = trace
            .streams
            .iter()
            .map(|s| s.iter().filter(|e| is_epoch_boundary(e)).count())
            .min()
            .unwrap_or(0);
        if epochs < 2 {
            continue;
        }
        multi += 1;
        for k in 0..=epochs {
            check(
                &format!("{name} cut after epoch {k}"),
                &truncated(&trace, k),
            );
        }
    }
    assert!(multi > 0, "no multi-epoch corpus trace");
}

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

use rma_monitor::{Algorithm, AnalyzerCfg};
use rma_substrate::rng::SmallRng;
use rma_suite::{generate_suite, run_case_with_monitor};
use rma_trace::format::is_epoch_boundary;
use rma_trace::{
    replay_trace, MustTarget, ReplayOutcome, ReplayTarget, Replayer, StoreTarget, StreamDecoder,
    Trace, TraceEvent, TraceWriter,
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

#[test]
fn every_suite_case_replays_the_same_in_any_batches() {
    let cases = generate_suite();
    assert_eq!(cases.len(), 240);
    for spec in &cases {
        let writer = Arc::new(TraceWriter::new(spec.name(), 0x5EED));
        run_case_with_monitor(spec, writer.clone());
        check(spec.name().as_ref(), &writer.trace());
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

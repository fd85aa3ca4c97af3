//! The two-core stream pipeline: the feeding thread decodes each chunk
//! and queues it with its events, and the consumer replays them as they
//! arrive. Driven with a single-rank stream many times longer than its
//! queue, so a worker is summoned and replays while the client is still
//! feeding. The verdict, the published progress, chaos redelivery and
//! the damaged-stream paths must all be what a direct decode and replay
//! of the same bytes gives.

use rma_core::{Interval, RankId, SrcLoc};
use rma_must::Completeness;
use rma_served::{ChaosCfg, ServeCfg, Service, StreamReport, Tier};
use rma_sim::{FaultKind, RmaDir, WinId};
use rma_trace::{
    replay, verdict_line, Detector, StreamDecoder, Trace, TraceError, TraceEvent, TraceHeader,
    FORMAT_VERSION, MAGIC,
};
use std::time::{Duration, Instant};

const QUEUE_BOUND: usize = 2;
const CHUNK: usize = 256;

/// One rank, four `lock_all` epochs of disjoint local accesses, the
/// second opening with a put whose origin buffer its first local write
/// then overwrites: one race.
fn solo_trace() -> Trace {
    let win = WinId(0);
    let mut ev = vec![TraceEvent::WinAllocate {
        win,
        base: 0,
        len: 1 << 20,
    }];
    for epoch in 0..4u64 {
        ev.push(TraceEvent::LockAll { win });
        if epoch == 1 {
            ev.push(TraceEvent::Rma {
                dir: RmaDir::Put,
                target: RankId(0),
                win,
                origin_interval: Interval::new(1 << 21, (1 << 21) + 7),
                target_interval: Interval::new(0, 7),
                origin_on_stack: false,
                loc: SrcLoc::synthetic("pipeline.c", 1),
            });
        }
        for i in 0..150u64 {
            let lo = (1 << 21) + i * 16;
            ev.push(TraceEvent::Local {
                interval: Interval::new(lo, lo + 7),
                write: i % 3 == 0,
                on_stack: false,
                tracked: true,
                loc: SrcLoc::synthetic("pipeline.c", 10 + i as u32 % 7),
            });
        }
        ev.push(TraceEvent::UnlockAll { win });
    }
    ev.push(TraceEvent::Finish);
    Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            nranks: 1,
            seed: 7,
            app: "pipeline-solo".into(),
        },
        streams: vec![ev],
    }
}

fn cfg(chaos: Option<ChaosCfg>) -> ServeCfg {
    ServeCfg {
        workers: 1,
        queue_bound: QUEUE_BOUND,
        chaos,
        ..Default::default()
    }
}

fn kill(at_event: u64) -> Option<ChaosCfg> {
    Some(ChaosCfg {
        kind: FaultKind::KillWorker { times: 1 },
        tenant: "t".to_string(),
        at_event,
    })
}

/// A direct decoder's `(decoded events, epoch marks)` after each chunk.
fn direct_progress(bytes: &[u8]) -> Vec<(u64, u64)> {
    let mut dec = StreamDecoder::new();
    bytes
        .chunks(CHUNK)
        .map(|piece| {
            let _ = dec.feed(piece);
            (dec.decoded_events() as u64, dec.epoch_marks() as u64)
        })
        .collect()
}

/// Serves `bytes` in `CHUNK`-byte pieces. Every progress reading taken
/// while feeding is one the direct decoder had after some chunk, and
/// before `finish` the progress settles on its value after the last.
fn serve(svc: &Service, bytes: &[u8]) -> StreamReport {
    let want = direct_progress(bytes);
    let seen = |p: (u64, u64)| {
        p == (0, 0) || (want.iter().any(|w| w.0 == p.0) && want.iter().any(|w| w.1 == p.1))
    };
    let handle = svc.submit("t", "solo").unwrap();
    for piece in bytes.chunks(CHUNK) {
        handle.feed(piece).unwrap();
        let p = handle.progress();
        assert!(seen(p), "progress {p:?} is no chunk's decoder state");
    }
    let last = *want.last().unwrap();
    let patience = Instant::now() + Duration::from_secs(10);
    while handle.progress() != last {
        assert!(
            Instant::now() < patience,
            "progress {:?}, want {last:?}",
            handle.progress()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.finish().unwrap()
}

#[test]
fn a_long_single_rank_stream_matches_direct_replay_and_progress() {
    let trace = solo_trace();
    let bytes = trace.encode();
    let chunks = bytes.len().div_ceil(CHUNK);
    assert!(chunks >= 4 * QUEUE_BOUND, "{chunks} chunks");
    let direct = replay(&trace, Detector::FragMerge);
    assert_eq!(direct.races.len(), 1);

    let svc = Service::new(cfg(None));
    let rep = serve(&svc, &bytes);
    assert_eq!(rep.verdict, verdict_line(&direct.races));
    assert_eq!(
        (rep.tier, rep.events, rep.races),
        (Tier::Racy, direct.events, 1)
    );
    assert_eq!(rep.epochs_kept, 4);
    assert!(rep.completeness.is_complete());
    assert_eq!(rep.respawns, 0);
    let (stats, _) = svc.shutdown();
    assert!(
        stats.tenants["t"].blocked_sends > 0,
        "the queue never filled"
    );
}

#[test]
fn a_kill_after_several_chunks_redelivers_to_the_same_verdict() {
    let trace = solo_trace();
    let bytes = trace.encode();
    let direct = replay(&trace, Detector::FragMerge);
    let progress = direct_progress(&bytes);
    for k in [3, progress.len() / 2, progress.len() - 1] {
        // The threshold is first reached by chunk `k`.
        let at_event = progress[k - 1].0 + 1;
        assert!(progress[k].0 >= at_event, "chunk {k} completes no event");
        let svc = Service::new(cfg(kill(at_event)));
        let rep = serve(&svc, &bytes);
        assert_eq!(rep.respawns, 1, "kill at chunk {k}");
        assert_eq!(
            rep.verdict,
            verdict_line(&direct.races),
            "kill at chunk {k}"
        );
        assert_eq!(rep.events, direct.events);
        assert_eq!(rep.tier, Tier::Racy);
    }
}

#[test]
fn a_corrupt_record_after_good_chunks_is_diagnosed_as_directly() {
    let trace = solo_trace();
    let mut bytes = trace.encode();
    // An invalid opcode where a record starts, several chunks in: the
    // events before it stand, the stream is cut at the last epoch close.
    let mut dec = StreamDecoder::new();
    let mut at = None;
    for (i, piece) in bytes.chunks(CHUNK).enumerate() {
        dec.feed(piece).unwrap();
        if i == 4 {
            at = Some(dec.decoded_events());
        }
    }
    let good = at.unwrap();
    // Where record `good` starts: the shortest prefix holding `good`
    // whole records (the count grows with the prefix).
    let cuts: Vec<usize> = (0..=bytes.len()).collect();
    let offset = cuts.partition_point(|&cut| {
        let mut d = StreamDecoder::new();
        let _ = d.feed(&bytes[..cut]);
        d.decoded_events() < good
    });
    bytes.truncate(offset);
    bytes.push(0xFF);
    bytes.extend(std::iter::repeat_n(0u8, 4 * CHUNK));

    let mut dec = StreamDecoder::new();
    for piece in bytes.chunks(CHUNK) {
        dec.feed(piece).unwrap();
    }
    let end = dec.finish().unwrap();
    assert_eq!(end.diagnosis, Some(TraceError::Corrupt("unknown opcode")));
    assert!(end.epochs_kept >= 1);
    let direct = replay(&end.trace, Detector::FragMerge);

    let svc = Service::new(cfg(None));
    let handle = svc.submit("t", "corrupt").unwrap();
    for piece in bytes.chunks(CHUNK) {
        handle.feed(piece).unwrap();
    }
    let rep = handle.finish().unwrap();
    assert_eq!(rep.tier, Tier::Truncated);
    assert_eq!(rep.verdict, verdict_line(&direct.races));
    assert_eq!(rep.events, direct.events);
    assert_eq!(rep.epochs_kept, end.epochs_kept);
    assert_eq!(
        rep.completeness,
        Completeness::Partial {
            processed: (end.decoded_events - end.dropped_events) as u64,
            target: end.decoded_events as u64,
        }
    );
}

#[test]
fn a_corrupt_header_after_good_chunks_is_malformed_as_directly() {
    // Magic, version 2, then a rank count above the limit, fed one byte
    // per chunk: nine good chunks, then the field that can never parse.
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0]);
    let mut dec = StreamDecoder::new();
    let err = bytes.chunks(1).find_map(|b| dec.feed(b).err()).unwrap();
    let svc = Service::new(cfg(None));
    let handle = svc.submit("t", "hostile").unwrap();
    for b in bytes.chunks(1) {
        handle.feed(b).unwrap();
    }
    let rep = handle.finish().unwrap();
    assert_eq!(rep.tier, Tier::Malformed);
    assert_eq!(rep.verdict, format!("verdict: malformed ({err})"));
}

#[test]
fn a_v1_corpus_stream_is_still_served() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/lo2_accum_put_inwindow_target_race.rmatrc"
    );
    let mut trace = Trace::decode(&std::fs::read(path).unwrap()).unwrap();
    // v1 keeps its string table in the footer: the stream cannot decode
    // as it arrives and is replayed from its journal at end-of-stream.
    trace.header.version = 1;
    let bytes = trace.encode();
    let direct = replay(&trace, Detector::FragMerge);
    let svc = Service::new(cfg(None));
    let handle = svc.submit("t", "v1").unwrap();
    for piece in bytes.chunks(64) {
        handle.feed(piece).unwrap();
    }
    let rep = handle.finish().unwrap();
    assert_eq!(rep.verdict, verdict_line(&direct.races));
    assert_eq!(rep.events, direct.events);
    assert_eq!(rep.tier, Tier::Racy);
}

//! Journal redelivery across many chunks: a stream fed in small pieces
//! and killed mid-stream is redelivered from the journaled chunks, in
//! order, and still reaches the direct-replay verdict. Suite streams
//! fit in one feed chunk, so this drives a corpus trace in 64-byte
//! pieces instead.

use rma_must::Completeness;
use rma_served::{ChaosCfg, ServeCfg, Service, StreamReport, Tier};
use rma_sim::FaultKind;
use rma_trace::{replay, verdict_line, Detector, StreamDecoder, Trace};

const CHUNK: usize = 64;

fn corpus_bytes() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/lo2_accum_put_inwindow_target_race.rmatrc"
    );
    std::fs::read(path).unwrap()
}

/// Serves `bytes` as one stream, fed in `CHUNK`-byte pieces.
fn serve(cfg: ServeCfg, bytes: &[u8]) -> StreamReport {
    let svc = Service::new(cfg);
    let handle = svc.submit("victim", "corpus").unwrap();
    for piece in bytes.chunks(CHUNK) {
        handle.feed(piece).unwrap();
    }
    handle.finish().unwrap()
}

#[test]
fn kills_after_several_chunks_redeliver_the_journal_in_order() {
    let bytes = corpus_bytes();
    // Events decoded after each chunk: the kill threshold is set so it
    // is first reached by the last chunk that completes a record, at
    // least the third.
    let mut dec = StreamDecoder::new();
    let decoded: Vec<usize> = bytes
        .chunks(CHUNK)
        .map(|piece| {
            dec.feed(piece).unwrap();
            dec.decoded_events()
        })
        .collect();
    let last = decoded.iter().position(|&n| n == dec.decoded_events()).unwrap();
    assert!(last >= 2, "the kill must land on the third chunk or later: {decoded:?}");
    let at_event = decoded[last - 1] as u64 + 1;

    let trace = Trace::decode(&bytes).unwrap();
    let direct = replay(&trace, Detector::FragMerge);
    assert!(!direct.races.is_empty(), "a racy trace makes the verdict check meaningful");

    let rep = serve(
        ServeCfg {
            workers: 1,
            queue_bound: 2,
            chaos: Some(ChaosCfg {
                kind: FaultKind::KillWorker { times: 2 },
                tenant: "victim".to_string(),
                at_event,
            }),
            ..Default::default()
        },
        &bytes,
    );
    assert_eq!(rep.respawns, 2, "both kills absorbed");
    assert_eq!(rep.verdict, verdict_line(&direct.races));
    assert_eq!(rep.events, direct.events);
    assert_eq!(rep.tier, Tier::Racy);
    assert!(rep.completeness.is_complete());
}

#[test]
fn a_lost_stream_reports_every_shipped_byte() {
    let bytes = corpus_bytes();
    let rep = serve(
        ServeCfg {
            workers: 1,
            queue_bound: 2,
            max_respawns: 1,
            chaos: Some(ChaosCfg {
                kind: FaultKind::KillWorker { times: 99 },
                tenant: "victim".to_string(),
                at_event: 1,
            }),
            ..Default::default()
        },
        &bytes,
    );
    assert_eq!(rep.tier, Tier::Lost);
    assert_eq!(rep.respawns, 2, "budget 1 + the final straw");
    assert_eq!(
        rep.completeness,
        Completeness::Partial { processed: 0, target: bytes.len() as u64 }
    );
}

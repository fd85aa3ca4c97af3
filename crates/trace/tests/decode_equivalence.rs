//! Golden equivalence of every trace reader on damaged inputs.
//!
//! Every corpus trace, as format v1 and re-encoded as v2, is cut at
//! every length and has bits `0x01`, `0x10` and `0x80` flipped at every
//! byte. Each input goes through the whole-file decode, the epoch seek
//! (at every epoch mark of the intact file), salvage, and the chunk-fed
//! decoder at three chunk sizes. Every outcome is folded into one FNV
//! digest, pinned below, so a refactor of the readers that changes any
//! verdict, count, diagnosis or recovered event on any of these inputs
//! fails here.

use rma_trace::trace::fnv1a;
use rma_trace::{salvage, StreamDecoder, Trace, TraceError};
use std::fmt::Debug;
use std::path::PathBuf;

/// The digest of every outcome below over the whole sweep.
const PINNED: u64 = 0xde42_ffba_7d56_fb98;

/// Folds one outcome line into the running digest.
fn fold(digest: &mut u64, line: impl Debug) {
    let mut bytes = digest.to_le_bytes().to_vec();
    bytes.extend_from_slice(format!("{line:?}").as_bytes());
    *digest = fnv1a(&bytes);
}

/// A trace's identity: the hash of its canonical encoding.
fn trace_hash(t: &Trace) -> u64 {
    fnv1a(&t.encode())
}

/// The chunk-fed decoder's outcome: the first error `feed` or `finish`
/// returns, or the fields of the finished stream.
fn stream_outcome(bytes: &[u8], chunk: usize) -> String {
    let mut dec = StreamDecoder::new();
    for piece in bytes.chunks(chunk) {
        if let Err(e) = dec.feed(piece) {
            return format!("err {e:?}");
        }
    }
    match dec.finish() {
        Ok(end) => format!(
            "complete {} diagnosis {:?} decoded {} kept {} dropped {} trace {:x}",
            end.complete,
            end.diagnosis,
            end.decoded_events,
            end.epochs_kept,
            end.dropped_events,
            trace_hash(&end.trace)
        ),
        Err(e) => format!("err {e:?}"),
    }
}

/// Folds every reader's outcome on `bytes`; `marks` are the intact
/// file's epoch marks as `(rank, k)` seek targets.
fn fold_input(digest: &mut u64, bytes: &[u8], marks: &[(u32, usize)]) {
    fold(digest, Trace::decode(bytes).map(|t| trace_hash(&t)));
    for &(rank, k) in marks {
        let seek: Result<String, TraceError> =
            Trace::decode_from_epoch(bytes, rank, k).map(|evs| format!("{evs:?}"));
        fold(digest, seek.map(|s| fnv1a(s.as_bytes())));
    }
    fold(
        digest,
        salvage(bytes).map(|rep| {
            (
                rep.diagnosis,
                rep.trace.event_count(),
                rep.epochs_kept,
                rep.dropped_events,
                trace_hash(&rep.trace),
            )
        }),
    );
    for chunk in [1, 7, 4096] {
        fold(digest, stream_outcome(bytes, chunk));
    }
}

/// The corpus traces, each as v1 and as v2.
fn inputs() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rmatrc"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut t = Trace::decode(&std::fs::read(&path).expect("corpus file")).expect(&name);
        for version in [1, 2] {
            t.header.version = version;
            out.push((format!("{name}@v{version}"), t.encode()));
        }
    }
    out
}

#[test]
fn every_reader_keeps_its_outcome_on_every_damaged_corpus_input() {
    let files = inputs();
    assert_eq!(files.len(), 28, "14 corpus traces, two versions each");
    let mut digest = 0u64;
    let mut count = 0usize;
    for (name, bytes) in &files {
        let mut seen = std::collections::HashMap::<u32, usize>::new();
        let marks: Vec<(u32, usize)> = Trace::epoch_marks(bytes)
            .expect(name)
            .iter()
            .map(|m| {
                let k = seen.entry(m.rank).or_default();
                *k += 1;
                (m.rank, *k - 1)
            })
            .collect();
        fold(&mut digest, name);
        fold_input(&mut digest, bytes, &marks);
        count += 1;
        for cut in 0..bytes.len() {
            fold_input(&mut digest, &bytes[..cut], &marks);
            count += 1;
        }
        for at in 0..bytes.len() {
            for bit in [0x01u8, 0x10, 0x80] {
                let mut dam = bytes.clone();
                dam[at] ^= bit;
                fold_input(&mut digest, &dam, &marks);
                count += 1;
            }
        }
    }
    eprintln!("{count} inputs, digest {digest:#018x}");
    assert_eq!(digest, PINNED, "a reader's outcome changed on one of {count} inputs");
}

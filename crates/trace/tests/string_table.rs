//! String-table resolution through every decode path: each decoder
//! resolves a file's names once per stream or file, and what it hands
//! out must be the same events, and the same interned `&'static str`s,
//! whichever path decoded them.

use rma_core::{Interval, RankId, SrcLoc};
use rma_sim::{RmaDir, WinId};
use rma_trace::{
    intern_static, salvage, StreamDecoder, Trace, TraceEvent, TraceHeader, FORMAT_VERSION,
};

const FILES: [&str; 3] = ["names/alpha.c", "names/beta.c", "names/gamma.c"];

/// Two ranks, three epochs each, whose located records cycle through
/// three file names out of phase, so each rank references every name
/// and the two ranks interleave them differently.
fn interleaved() -> Trace {
    let rank = |r: u32, base: u64| {
        let mut evs = vec![
            TraceEvent::WinAllocate { win: WinId(0), base, len: 256 },
            TraceEvent::Barrier,
        ];
        for e in 0..3u64 {
            evs.push(TraceEvent::LockAll { win: WinId(0) });
            for i in 0..4u64 {
                let k = (r as u64 + e * 4 + i) as usize;
                let loc = SrcLoc::synthetic(FILES[k % FILES.len()], 10 + k as u32);
                let lo = base + (e * 4 + i) * 8;
                evs.push(if i % 2 == 0 {
                    TraceEvent::Local {
                        interval: Interval::new(lo, lo + 7),
                        write: i == 0,
                        on_stack: false,
                        tracked: true,
                        loc,
                    }
                } else {
                    TraceEvent::Rma {
                        dir: RmaDir::Put,
                        target: RankId(1 - r),
                        win: WinId(0),
                        origin_interval: Interval::new(lo, lo + 7),
                        target_interval: Interval::new(lo ^ (1 << 20), (lo ^ (1 << 20)) + 7),
                        origin_on_stack: false,
                        loc,
                    }
                });
            }
            evs.push(TraceEvent::UnlockAll { win: WinId(0) });
            evs.push(TraceEvent::Barrier);
        }
        evs.push(TraceEvent::Finish);
        evs
    };
    Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            nranks: 2,
            seed: 3,
            app: "string-table".into(),
        },
        streams: vec![rank(0, 0), rank(1, 1 << 20)],
    }
}

/// Asserts every located event's file is the process-wide interned name.
fn assert_interned(events: &[TraceEvent], path: &str) {
    let mut located = 0;
    for ev in events {
        let loc = match ev {
            TraceEvent::Local { loc, .. } | TraceEvent::Rma { loc, .. } => loc,
            _ => continue,
        };
        located += 1;
        assert!(
            std::ptr::eq(loc.file, intern_static(loc.file)),
            "{path}: {} is not the interned name",
            loc.file
        );
    }
    assert!(located > 0, "{path}: no located events");
}

fn all_events(t: &Trace) -> Vec<TraceEvent> {
    t.streams.iter().flatten().copied().collect()
}

#[test]
fn chunked_stream_decode_matches_whole_file_decode() {
    let t = interleaved();
    let bytes = t.encode();
    let whole = Trace::decode(&bytes).unwrap();
    assert_eq!(whole, t);
    assert_interned(&all_events(&whole), "whole file");
    for chunk in [1, 7, 4096] {
        let mut dec = StreamDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.feed(piece).unwrap();
        }
        let end = dec.finish().unwrap();
        assert!(end.complete, "chunk {chunk}: incomplete");
        assert_eq!(end.trace, whole, "chunk {chunk}: differs from Trace::decode");
        assert_interned(&all_events(&end.trace), &format!("stream, chunk {chunk}"));
    }
}

#[test]
fn every_decode_path_hands_out_interned_names() {
    let t = interleaved();
    let bytes = t.encode();
    for rank in 0..2u32 {
        let tail = Trace::decode_from_epoch(&bytes, rank, 1).unwrap();
        let full = &t.streams[rank as usize];
        assert_eq!(tail.as_slice(), &full[full.len() - tail.len()..]);
        assert_interned(&tail, &format!("decode_from_epoch, rank {rank}"));
    }

    // A flipped checksum byte leaves the footer index usable: the
    // indexed salvage layer recovers everything.
    let mut flipped = bytes.clone();
    let sum_at = bytes.len() - rma_trace::TAIL_MAGIC.len() - 8;
    flipped[sum_at] ^= 1;
    let rep = salvage(&flipped).unwrap();
    assert_eq!(rep.trace, t, "indexed salvage");
    assert_interned(&all_events(&rep.trace), "salvage, indexed");

    // Without the trailer only the sequential layer can decode.
    let rep = salvage(&bytes[..sum_at - 4]).unwrap();
    assert_eq!(rep.trace, t, "sequential salvage");
    assert_interned(&all_events(&rep.trace), "salvage, sequential");
}

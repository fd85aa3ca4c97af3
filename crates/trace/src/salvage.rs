//! Best-effort recovery of damaged trace files.
//!
//! A trace that fails [`Trace::decode`] is not necessarily worthless: the
//! record streams are self-delimiting (`Finish`-terminated) and, from
//! format v2, the string table lives in the *header*, so everything
//! needed to decode records survives any damage to the file's tail.
//! Salvage recovers the longest usable prefix in three layers:
//!
//! 1. **Intact** — the full decode succeeds; nothing to do.
//! 2. **Damaged body, intact trailer** (bit flip → `BadChecksum`): the
//!    footer's stream index still parses, so each rank's stream is
//!    decoded independently up to its first undecodable record.
//! 3. **Destroyed trailer** (truncation → `Truncated`): the whole file is
//!    fed to one [`StreamDecoder`], which reads the streams in order
//!    from the end of the header, splitting at each `Finish`, until the
//!    bytes run out or stop making sense. Requires v2 — a v1 file keeps
//!    its string table in the (lost) footer and is reported
//!    unsalvageable.
//!
//! The outcome is a [`StreamEnd`], the same type the chunk-fed decoder
//! ends in, built the same way: unless every rank's stream ends in
//! `Finish`, each stream is cut after its `k`-th epoch-closing record,
//! where `k` is the minimum close count over all ranks. For the SPMD
//! programs this tracer records, all ranks execute the same
//! collective/epoch skeleton, so the aligned prefix is a consistent
//! global state that replays to completion — the per-epoch verdicts of
//! the salvaged prefix match the original trace's first `k` epochs
//! exactly (nothing is re-ordered, only truncated).
//!
//! What salvage can *not* promise: damage in the middle of the byte
//! stream destroys the tail of the rank it lands in, and — in the
//! sequential layer, where streams are concatenated — every later rank's
//! stream too. The epoch alignment then shrinks all ranks to the
//! shortest survivor. Garbage that happens to decode as valid records is
//! bounded by the epoch cut but cannot be detected record-by-record.

use crate::format::{decode_event, DeltaState, ResolvedStrings, TraceEvent};
use crate::stream::{StreamDecoder, StreamEnd};
use crate::trace::{parse_container_unverified, parse_header, stream_span, Trace};
use crate::TraceError;

/// Recovers the longest decodable epoch-prefix of `bytes`. An intact
/// file comes back whole with no diagnosis; a damaged one comes back
/// epoch-aligned, diagnosed with the whole-file decode's error.
///
/// Errors only when nothing can be recovered *structurally*: not a trace
/// file at all (`BadMagic`), a format from the future (`BadVersion`), a
/// header that does not parse, or a v1 file whose footer — and with it
/// the string table — is gone. A damaged-but-salvageable file returns
/// `Ok` even when the recovered prefix is empty (damage before the first
/// epoch close).
pub fn salvage(bytes: &[u8]) -> Result<StreamEnd, TraceError> {
    let primary = match Trace::decode(bytes) {
        Ok(trace) => return Ok(StreamEnd::new(trace.header, trace.streams, None)),
        // Not this container / cannot ever decode the records: give up.
        Err(e @ (TraceError::BadMagic | TraceError::BadVersion(_))) => return Err(e),
        Err(e) => e,
    };

    // Both recovery layers need the header; if even that is gone there
    // is nothing to anchor a decode to.
    let (header, _, _) = parse_header(bytes)?;

    // Layer 2: trailer survived (e.g. a bit flip tripped the checksum) —
    // use the unverified stream index and decode each rank until its
    // first bad record. One string table serves the whole file.
    let indexed = parse_container_unverified(bytes).ok().map(|(_, footer, _)| {
        let mut strings = ResolvedStrings::new(footer.strings);
        let decode_span = |&(off, len, _): &(u64, u64, u64)| {
            let body = stream_span(bytes, off, len).unwrap_or_else(|part| part);
            let mut events = Vec::new();
            let mut pos = 0;
            let mut state = DeltaState::default();
            while pos < body.len() {
                match decode_event(body, &mut pos, &mut state, &mut strings) {
                    Ok(ev) => events.push(ev),
                    Err(_) => break,
                }
            }
            events
        };
        footer.stream_index.iter().map(decode_span).collect::<Vec<Vec<TraceEvent>>>()
    });

    // Layer 3: no usable trailer — the chunk-fed decoder, fed the whole
    // file. v2 only, since the decoder needs the string table and v1
    // kept it in the lost footer.
    let sequential = if header.version >= 2 {
        let mut dec = StreamDecoder::new();
        dec.feed(bytes)?;
        Some(dec.finish()?)
    } else {
        None
    };

    // Prefer whichever layer decoded more records (the index on a tie).
    let end = match (indexed, sequential) {
        (Some(streams), Some(seq))
            if streams.iter().map(Vec::len).sum::<usize>() < seq.decoded_events =>
        {
            seq
        }
        (Some(streams), _) => return Ok(StreamEnd::new(header, streams, Some(primary))),
        (None, Some(seq)) => seq,
        (None, None) => return Err(primary),
    };
    // The decoder may have read every stream to `Finish` (a cut in the
    // footer); the file is damaged all the same.
    Ok(StreamEnd { complete: false, diagnosis: Some(primary), ..end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::is_epoch_boundary;
    use crate::trace::{TraceHeader, FORMAT_VERSION};
    use rma_core::{Interval, SrcLoc};
    use rma_sim::WinId;

    /// Two ranks, three epochs each, with enough located events that the
    /// string table matters.
    fn sample() -> Trace {
        let mk = |lo: u64, line: u32| TraceEvent::Local {
            interval: Interval::new(lo, lo + 7),
            write: true,
            on_stack: false,
            tracked: true,
            loc: SrcLoc::synthetic("salvage.c", line),
        };
        let rank = |base: u64| {
            let mut evs = vec![
                TraceEvent::WinAllocate { win: WinId(0), base, len: 64 },
                TraceEvent::Barrier,
            ];
            for e in 0..3u64 {
                evs.push(TraceEvent::LockAll { win: WinId(0) });
                evs.push(mk(base + e * 8, 10 + e as u32));
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
                seed: 7,
                app: "salvage-unit".into(),
            },
            streams: vec![rank(0), rank(1 << 20)],
        }
    }

    #[test]
    fn intact_file_is_a_noop() {
        let t = sample();
        let rep = salvage(&t.encode()).unwrap();
        assert!(rep.diagnosis.is_none());
        assert_eq!(rep.trace, t);
        assert_eq!(rep.dropped_events, 0);
        assert_eq!(rep.epochs_kept, 3);
    }

    #[test]
    fn truncation_recovers_complete_epochs() {
        let t = sample();
        let bytes = t.encode();
        // Cut deep enough to lose the trailer and part of rank 1's
        // stream: 30 bytes is past the footer but within stream data.
        let cut = &bytes[..bytes.len() - 60];
        let rep = salvage(cut).unwrap();
        assert!(matches!(rep.diagnosis, Some(TraceError::Truncated)));
        assert!(rep.epochs_kept >= 1, "at least one epoch survives: {rep:?}");
        assert!(rep.epochs_kept <= 3);
        assert_eq!(rep.trace.streams.len(), 2, "padded to nranks");
        // The salvaged prefix is exactly a prefix of the original.
        for (sal, full) in rep.trace.streams.iter().zip(&t.streams) {
            assert_eq!(sal.as_slice(), &full[..sal.len()]);
        }
        // And the recovered trace is itself a valid, re-encodable file.
        let re = rep.trace.encode();
        assert_eq!(Trace::decode(&re).unwrap(), rep.trace);
    }

    #[test]
    fn every_truncation_point_is_salvageable_or_structured() {
        let bytes = sample().encode();
        // Cuts inside the header/string region legitimately error; every
        // cut at or past the record region must salvage.
        let body_start = parse_header(&bytes).unwrap().2;
        for cut in (body_start..bytes.len()).step_by(7) {
            match salvage(&bytes[..cut]) {
                Ok(rep) => {
                    // Alignment invariant: equal close counts per rank
                    // unless everything survived.
                    let closes: Vec<usize> = rep
                        .trace
                        .streams
                        .iter()
                        .map(|s| s.iter().filter(|e| is_epoch_boundary(e)).count())
                        .collect();
                    assert!(
                        closes.iter().all(|&c| c == rep.epochs_kept),
                        "cut {cut}: unaligned closes {closes:?}"
                    );
                }
                Err(e) => panic!("cut {cut}: v2 header survived, expected Ok, got {e}"),
            }
        }
    }

    #[test]
    fn bitflip_in_body_recovers_via_stream_index() {
        let t = sample();
        let bytes = t.encode();
        let mut dam = bytes.clone();
        // Flip a bit somewhere in rank 0's records (early in the body,
        // after the ~60-byte header+strings region).
        let mid = 80;
        dam[mid] ^= 0x10;
        let rep = salvage(&dam).unwrap();
        assert!(matches!(rep.diagnosis, Some(TraceError::BadChecksum)));
        // Rank 1's stream is independent in the indexed layer, so its
        // full epoch structure can survive rank 0's damage — but the
        // aligned result must still be consistent.
        assert_eq!(rep.trace.streams.len(), 2);
    }

    /// A valid file (checksum included) whose rank 0 record right after
    /// the first epoch close names string-table index 127 of 2.
    fn bad_string_index() -> Vec<u8> {
        let mk = |lo: u64, file: &'static str| TraceEvent::Local {
            interval: Interval::new(lo, lo + 7),
            write: true,
            on_stack: false,
            tracked: true,
            loc: SrcLoc::synthetic(file, 10),
        };
        let rank = |base: u64| {
            vec![
                TraceEvent::WinAllocate { win: WinId(0), base, len: 64 },
                TraceEvent::LockAll { win: WinId(0) },
                mk(base + 8, "salvage.c"),
                TraceEvent::UnlockAll { win: WinId(0) },
                mk(base + 16, "other.c"),
                TraceEvent::Finish,
            ]
        };
        let t = Trace {
            header: TraceHeader {
                version: FORMAT_VERSION,
                nranks: 2,
                seed: 7,
                app: "bad-index".into(),
            },
            streams: vec![rank(0), rank(1 << 20)],
        };
        let mut bytes = t.encode();
        let (_, footer, _) = parse_container_unverified(&bytes).unwrap();
        let mark = footer.epoch_marks.iter().find(|m| m.rank == 0).unwrap();
        // op, flags, lo delta (16 zigzags to one byte), span, file index.
        let at = (footer.stream_index[0].0 + mark.byte_off) as usize + 4;
        assert_eq!(bytes[at], 1, "the index of other.c");
        bytes[at] = 127;
        let sum_at = bytes.len() - crate::TAIL_MAGIC.len() - 8;
        let sum = crate::trace::fnv1a(&bytes[..sum_at]);
        bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn out_of_range_string_index_is_one_error_on_every_decode_path() {
        let want = TraceError::Corrupt("string table index out of range");
        let bytes = bad_string_index();
        assert_eq!(Trace::decode(&bytes), Err(want), "whole file");
        assert_eq!(Trace::decode_from_epoch(&bytes, 0, 0), Err(want), "epoch seek");
        let mut dec = crate::StreamDecoder::new();
        for piece in bytes.chunks(5) {
            dec.feed(piece).unwrap();
        }
        assert_eq!(dec.finish().unwrap().diagnosis, Some(want), "stream");
        assert_eq!(salvage(&bytes).unwrap().diagnosis, Some(want));
    }

    #[test]
    fn v1_without_trailer_is_unsalvageable() {
        let mut t = sample();
        t.header.version = 1;
        let bytes = t.encode();
        assert!(Trace::decode(&bytes).is_ok(), "v1 still encodes/decodes");
        let cut = &bytes[..bytes.len() - 40];
        assert!(matches!(salvage(cut), Err(TraceError::Truncated)));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(salvage(b"not a trace at all"), Err(TraceError::BadMagic)));
        assert!(matches!(salvage(b""), Err(TraceError::Truncated) | Err(TraceError::BadMagic)));
    }
}

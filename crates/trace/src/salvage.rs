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
//! 3. **Destroyed trailer** (truncation → `Truncated`): the streams are
//!    decoded sequentially from the end of the header, splitting at each
//!    `Finish`, until the bytes run out or stop making sense. Requires
//!    v2 — a v1 file keeps its string table in the (lost) footer and is
//!    reported unsalvageable.
//!
//! The raw recovered streams are then **epoch-aligned**: unless every
//! rank's stream ends in `Finish`, each stream is cut after its `k`-th
//! epoch-closing record, where `k` is the minimum close count over all
//! ranks. For the SPMD programs this tracer records, all ranks execute
//! the same collective/epoch skeleton, so the aligned prefix is a
//! consistent global state that replays to completion — the per-epoch
//! verdicts of the salvaged prefix match the original trace's first `k`
//! epochs exactly (nothing is re-ordered, only truncated).
//!
//! What salvage can *not* promise: damage in the middle of the byte
//! stream destroys the tail of the rank it lands in, and — in the
//! sequential layer, where streams are concatenated — every later rank's
//! stream too. The epoch alignment then shrinks all ranks to the
//! shortest survivor. Garbage that happens to decode as valid records is
//! bounded by the epoch cut but cannot be detected record-by-record.

use crate::format::{decode_event, is_epoch_boundary, DeltaState, ResolvedStrings, TraceEvent};
use crate::trace::{parse_container_unverified, parse_header, Footer, Trace, TraceHeader};
use crate::TraceError;

/// Outcome of a [`salvage`] run: the recovered (epoch-aligned) trace
/// plus enough numbers to judge how much was lost.
#[derive(Debug)]
pub struct SalvageReport {
    /// The recovered prefix, re-encodable and replayable like any trace.
    pub trace: Trace,
    /// Why the full decode failed — `None` when the file was intact and
    /// salvage was a no-op.
    pub diagnosis: Option<TraceError>,
    /// Events in `trace` (post-alignment).
    pub recovered_events: usize,
    /// Closed epochs every rank retains (`usize::MAX`-free: 0 when the
    /// damage precedes the first epoch close).
    pub epochs_kept: usize,
    /// Events decoded from the damaged file but discarded by the epoch
    /// alignment. The events destroyed by the damage itself are unknown
    /// and not counted.
    pub dropped_events: usize,
}

/// Recovers the longest decodable epoch-prefix of `bytes`.
///
/// Errors only when nothing can be recovered *structurally*: not a trace
/// file at all (`BadMagic`), a format from the future (`BadVersion`), or
/// a v1 file whose footer — and with it the string table — is gone. A
/// damaged-but-salvageable file returns `Ok` even when the recovered
/// prefix is empty (damage before the first epoch close).
pub fn salvage(bytes: &[u8]) -> Result<SalvageReport, TraceError> {
    let primary = match Trace::decode(bytes) {
        Ok(trace) => {
            let recovered_events = trace.event_count();
            let epochs_kept = trace
                .streams
                .iter()
                .map(|s| s.iter().filter(|e| is_epoch_boundary(e)).count())
                .min()
                .unwrap_or(0);
            return Ok(SalvageReport {
                trace,
                diagnosis: None,
                recovered_events,
                epochs_kept,
                dropped_events: 0,
            });
        }
        // Not this container / cannot ever decode the records: give up.
        Err(e @ (TraceError::BadMagic | TraceError::BadVersion(_))) => return Err(e),
        Err(e) => e,
    };

    // Both recovery layers need the header; if even that is gone there
    // is nothing to anchor a decode to.
    let (header, header_strings, body_start) = parse_header(bytes)?;

    // Layer 2: trailer survived (e.g. a bit flip tripped the checksum) —
    // use the unverified stream index and decode each rank until its
    // first bad record.
    let indexed = parse_container_unverified(bytes)
        .ok()
        .map(|(_, footer, _)| decode_indexed(bytes, footer).0);

    // Layer 3: no usable trailer. Streams are concatenated and
    // `Finish`-delimited, so walk them sequentially — v2 only, since the
    // decoder needs the string table and v1 kept it in the lost footer.
    let sequential = if header.version >= 2 {
        Some(decode_sequential(bytes, body_start, &header, header_strings).0)
    } else if indexed.is_none() {
        return Err(primary);
    } else {
        None
    };

    // Prefer whichever layer recovered more.
    let count = |ss: &Vec<Vec<TraceEvent>>| ss.iter().map(Vec::len).sum::<usize>();
    let raw = match (indexed, sequential) {
        (Some(a), Some(b)) => {
            if count(&a) >= count(&b) {
                a
            } else {
                b
            }
        }
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => return Err(primary),
    };

    let decoded = count(&raw);
    let (streams, epochs_kept) = align_to_epochs(raw, header.nranks as usize);
    let recovered_events = count(&streams);
    Ok(SalvageReport {
        trace: Trace { header, streams },
        diagnosis: Some(primary),
        recovered_events,
        epochs_kept,
        dropped_events: decoded - recovered_events,
    })
}

/// Salvage layer 2: decodes each rank's stream through the footer's
/// (unverified) stream index up to its first undecodable record. One
/// string table serves the whole file. Returns the streams and the
/// first record error met, in rank order.
fn decode_indexed(bytes: &[u8], footer: Footer) -> (Vec<Vec<TraceEvent>>, Option<TraceError>) {
    let mut strings = ResolvedStrings::new(footer.strings);
    let mut first_error = None;
    let mut streams = Vec::new();
    for &(off, len, _) in &footer.stream_index {
        let mut events = Vec::new();
        let start = usize::try_from(off).unwrap_or(usize::MAX);
        let end = start.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
        if let Some(body) = bytes.get(start..end.min(bytes.len())) {
            let mut pos = 0;
            let mut state = DeltaState::default();
            while pos < body.len() {
                match decode_event(body, &mut pos, &mut state, &mut strings) {
                    Ok(ev) => events.push(ev),
                    Err(e) => {
                        first_error.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        streams.push(events);
    }
    (streams, first_error)
}

/// Salvage layer 3: decodes concatenated streams from `start`, splitting
/// at `Finish` (which is where the encoder's delta state would be
/// abandoned anyway), stopping at the first undecodable record or once
/// all `nranks` streams have closed — whichever comes first. Trailing
/// footer bytes in a mid-footer truncation are thereby never misread as
/// records. Returns the streams and the record error it stopped at, if
/// any.
fn decode_sequential(
    bytes: &[u8],
    start: usize,
    header: &TraceHeader,
    strings: Vec<String>,
) -> (Vec<Vec<TraceEvent>>, Option<TraceError>) {
    let mut strings = ResolvedStrings::new(strings);
    let mut streams: Vec<Vec<TraceEvent>> = Vec::new();
    let mut cur: Vec<TraceEvent> = Vec::new();
    let mut state = DeltaState::default();
    let mut pos = start;
    let mut error = None;
    while pos < bytes.len() && streams.len() < header.nranks as usize {
        match decode_event(bytes, &mut pos, &mut state, &mut strings) {
            Ok(ev) => {
                let finished = matches!(ev, TraceEvent::Finish);
                cur.push(ev);
                if finished {
                    streams.push(std::mem::take(&mut cur));
                    state = DeltaState::default();
                }
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    if !cur.is_empty() {
        streams.push(cur);
    }
    (streams, error)
}

/// Cuts every stream after its `k`-th epoch-closing record, `k` being
/// the minimum close count across ranks — except when every rank ran to
/// `Finish`, where the damage evidently spared the records and nothing
/// needs trimming. Missing streams are padded so the trace always has
/// `nranks` of them. Shared with the incremental [`crate::stream`]
/// decoder, whose truncated endings need the same consistent cut.
pub(crate) fn align_to_epochs(
    mut streams: Vec<Vec<TraceEvent>>,
    nranks: usize,
) -> (Vec<Vec<TraceEvent>>, usize) {
    streams.truncate(nranks);
    streams.resize_with(nranks, Vec::new);
    let closes = |s: &[TraceEvent]| s.iter().filter(|e| is_epoch_boundary(e)).count();
    let k = streams.iter().map(|s| closes(s)).min().unwrap_or(0);
    let complete = !streams.is_empty()
        && streams.iter().all(|s| matches!(s.last(), Some(TraceEvent::Finish)));
    if complete {
        return (streams, k);
    }
    for s in &mut streams {
        if k == 0 {
            s.clear();
            continue;
        }
        let mut seen = 0usize;
        let cut = s
            .iter()
            .position(|e| {
                if is_epoch_boundary(e) {
                    seen += 1;
                }
                seen == k
            })
            .map_or(0, |i| i + 1);
        s.truncate(cut);
    }
    (streams, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FORMAT_VERSION;
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
        let (_, footer, _) = parse_container_unverified(&bytes).unwrap();
        assert_eq!(decode_indexed(&bytes, footer).1, Some(want), "salvage, indexed");
        let (header, strings, body_start) = parse_header(&bytes).unwrap();
        assert_eq!(
            decode_sequential(&bytes, body_start, &header, strings).1,
            Some(want),
            "salvage, sequential"
        );
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

//! Incremental, chunk-feedable trace decoding — the one reader of
//! `Finish`-delimited record streams.
//!
//! [`Trace::decode`] wants the whole file: it verifies the trailer
//! checksum and walks the footer indexes. A serving system cannot wait
//! for the trailer — it receives a trace as an open-ended sequence of
//! byte chunks and wants events (and progress accounting) as they
//! arrive. [`StreamDecoder`] fills that gap: record streams are
//! self-delimiting (`Finish`-terminated) and, from format v2, the string
//! table lives in the *header*, so every record can be decoded the
//! moment its bytes are in. The trailer is never required — a stream
//! that simply stops ends in a structured, epoch-aligned truncation
//! outcome, never a panic and never an unbounded wait. Salvage's
//! sequential layer is this decoder fed the whole damaged file, and
//! [`StreamEnd`] is the outcome type of both.
//!
//! v1 files keep their string table in the footer and therefore cannot
//! be decoded incrementally; the decoder detects the version from the
//! header and falls back to buffering a v1 stream whole, handing it to
//! [`crate::salvage`] at [`StreamDecoder::finish`]. v2 chunks are
//! dropped as soon as they are decoded, so the decoder's own buffer
//! stays O(largest record) for a well-formed v2 stream. The decoded
//! events are held for `finish` unless the caller moves them out as they
//! complete ([`StreamDecoder::take_events`]) — what the served path does,
//! handing each batch straight to an incremental [`crate::Replayer`].
//!
//! Trade-off (shared with salvage layer 3): skipping the trailer means
//! skipping the checksum. A bit flip inside a v2 record region either
//! fails to decode (structured `Corrupt`/truncation outcome) or decodes
//! as a plausible record — byte-level integrity is the transport's job
//! here, the format's only for whole-file reads.

use crate::format::{decode_event, is_epoch_boundary, DeltaState, ResolvedStrings, TraceEvent};
use crate::trace::{parse_header, Trace, TraceHeader};
use crate::TraceError;

/// How far past consumed bytes the v2 buffer may grow before the
/// consumed prefix is compacted away.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Terminal outcome of an incrementally decoded stream.
#[derive(Debug)]
pub struct StreamEnd {
    /// The decoded trace — complete, or the epoch-aligned prefix of a
    /// truncated/corrupt stream.
    pub trace: Trace,
    /// `true` when nothing was found wrong: every rank's stream ran to
    /// `Finish` (salvage: the whole-file decode succeeded).
    pub complete: bool,
    /// Why the stream fell short — `None` when complete.
    pub diagnosis: Option<TraceError>,
    /// Events decoded from the wire (before epoch alignment).
    pub decoded_events: usize,
    /// Closed epochs every rank retains after alignment.
    pub epochs_kept: usize,
    /// Decoded events discarded by the epoch alignment.
    pub dropped_events: usize,
}

impl StreamEnd {
    /// The outcome for decoded `streams`. With no `diagnosis` they are
    /// kept whole. Otherwise they are padded or cut to `nranks` and,
    /// unless every one ran to `Finish`, each is cut after its `k`-th
    /// epoch-closing record, `k` being the minimum close count across
    /// ranks — the consistent global state salvage promises.
    pub(crate) fn new(
        header: TraceHeader,
        mut streams: Vec<Vec<TraceEvent>>,
        diagnosis: Option<TraceError>,
    ) -> StreamEnd {
        let decoded_events = streams.iter().map(Vec::len).sum();
        if diagnosis.is_some() {
            streams.truncate(header.nranks as usize);
            streams.resize_with(header.nranks as usize, Vec::new);
        }
        let epochs_kept = streams
            .iter()
            .map(|s| s.iter().filter(|e| is_epoch_boundary(e)).count())
            .min()
            .unwrap_or(0);
        let finished = !streams.is_empty()
            && streams.iter().all(|s| matches!(s.last(), Some(TraceEvent::Finish)));
        if diagnosis.is_some() && !finished {
            for s in &mut streams {
                // Keep through the `epochs_kept`-th close (none when 0).
                let keep = s
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| is_epoch_boundary(e))
                    .map(|(i, _)| i + 1)
                    .take(epochs_kept)
                    .last();
                s.truncate(keep.unwrap_or(0));
            }
        }
        let trace = Trace { header, streams };
        StreamEnd {
            dropped_events: decoded_events - trace.event_count(),
            trace,
            complete: diagnosis.is_none(),
            diagnosis,
            decoded_events,
            epochs_kept,
        }
    }
}

/// Incremental decoder: feed byte chunks as they arrive, read events
/// out as they complete, [`finish`](StreamDecoder::finish) when the
/// producer stops.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Undecoded tail (v2) or the entire stream so far (v1 fallback).
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded (v2 only; compacted lazily).
    consumed: usize,
    header: Option<TraceHeader>,
    /// The header string table, resolved on first reference.
    strings: ResolvedStrings,
    /// `true` once a v1 header is seen: buffer whole, decode at finish.
    legacy: bool,
    state: DeltaState,
    /// Decoded events not yet moved out by `take_events`, in wire
    /// order: rank-major, each rank's stream closed by its `Finish`.
    events: Vec<TraceEvent>,
    /// Rank streams that have run to `Finish`, taken or not.
    closed_ranks: usize,
    /// First unrecoverable record error — decoding stops there, the
    /// events before it stand.
    poisoned: Option<TraceError>,
    decoded_events: usize,
    /// Epoch-boundary events decoded so far, across all rank streams.
    epoch_marks: usize,
    /// Epoch boundaries in the stream being decoded.
    rank_marks: usize,
    /// The fewest epoch boundaries any closed rank stream holds.
    min_closed_marks: Option<usize>,
}

impl StreamDecoder {
    /// A decoder with nothing fed yet.
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// The header, once enough bytes have arrived to parse it.
    pub fn header(&self) -> Option<&TraceHeader> {
        self.header.as_ref()
    }

    /// Events decoded so far (v1 fallback: 0 until `finish`).
    pub fn decoded_events(&self) -> usize {
        self.decoded_events
    }

    /// Rank streams that have run to `Finish` so far.
    pub fn closed_streams(&self) -> usize {
        self.closed_ranks
    }

    /// Epoch-boundary events decoded so far, summed across rank
    /// streams (v1 fallback: 0 until `finish`). Monotone as bytes are
    /// fed — the progress signal durability checkpoints key on.
    pub fn epoch_marks(&self) -> usize {
        self.epoch_marks
    }

    /// `true` once every rank's stream has run to `Finish` — any
    /// further bytes are trailer and are ignored.
    pub fn is_complete(&self) -> bool {
        match &self.header {
            Some(h) => !self.legacy && self.closed_ranks >= h.nranks as usize,
            None => false,
        }
    }

    /// The fewest epoch boundaries any rank stream closed so far holds
    /// (0 before one closes). Once [`is_complete`](Self::is_complete),
    /// this is the `epochs_kept` that `finish` reports.
    pub fn epochs_kept(&self) -> usize {
        self.min_closed_marks.unwrap_or(0)
    }

    /// Moves out every event decoded since the last take, in wire order:
    /// rank-major, each rank's stream closed by its `Finish`. Taken
    /// events are no longer the decoder's: `finish` covers only the
    /// rest, so a caller that takes reads the progress accessors instead
    /// of finishing. The events move without a copy.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        // Size the next batch like this one, so decoding does not regrow
        // it record by record; a complete stream decodes nothing more.
        let cap = if self.is_complete() { 0 } else { self.events.len() };
        std::mem::replace(&mut self.events, Vec::with_capacity(cap))
    }

    /// Bytes currently buffered. Stays O(largest record) for a
    /// well-formed v2 stream; grows with the file for the v1 fallback.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Feeds the next chunk, decoding every record it completes.
    /// Returns the number of newly decoded events.
    ///
    /// Only a header that can never parse errors here — not a trace
    /// file at all (`BadMagic`), a format from the future
    /// (`BadVersion`), or a corrupt field such as a rank count above
    /// [`crate::trace::MAX_RANKS`]. The error is final: later chunks are
    /// ignored, not buffered. Everything else is recoverable-in-principle
    /// until the producer stops: a header or record cut mid-chunk simply
    /// waits for more bytes, and a genuinely corrupt record poisons the
    /// decode at its position, to be reported (with the events before it
    /// intact) by `finish`.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<usize, TraceError> {
        if self.poisoned.is_some() || self.is_complete() {
            // A poisoned or complete v2 decode ignores further bytes
            // (trailer or unusable), so it does not buffer them either.
            return Ok(0);
        }
        self.buf.extend_from_slice(chunk);
        if self.header.is_none() {
            match parse_header(&self.buf) {
                Ok((header, strings, body_start)) => {
                    self.legacy = header.version < 2;
                    self.header = Some(header);
                    self.strings = ResolvedStrings::new(strings);
                    self.consumed = body_start;
                }
                // Short header: wait for more bytes; `finish` classifies
                // if they never come.
                Err(TraceError::Truncated) => return Ok(0),
                // Permanent: more bytes cannot fix a field already read.
                Err(e) => {
                    self.poisoned = Some(e);
                    return Err(e);
                }
            }
        }
        if self.legacy {
            // v1 buffers the whole file and decodes it at `finish`.
            return Ok(0);
        }
        let before = self.decoded_events;
        let nranks = self.header.as_ref().map_or(0, |h| h.nranks as usize);
        while self.consumed < self.buf.len() && self.closed_ranks < nranks {
            // Decode speculatively: a record cut at the chunk boundary
            // must not corrupt the committed position or delta chain.
            let mut pos = self.consumed;
            let mut state = self.state;
            match decode_event(&self.buf, &mut pos, &mut state, &mut self.strings) {
                Ok(ev) => {
                    self.consumed = pos;
                    self.state = state;
                    self.decoded_events += 1;
                    if is_epoch_boundary(&ev) {
                        self.epoch_marks += 1;
                        self.rank_marks += 1;
                    }
                    let finished = matches!(ev, TraceEvent::Finish);
                    self.events.push(ev);
                    if finished {
                        self.closed_ranks += 1;
                        let marks = std::mem::take(&mut self.rank_marks);
                        self.min_closed_marks =
                            Some(self.min_closed_marks.map_or(marks, |m| m.min(marks)));
                        self.state = DeltaState::default();
                    }
                }
                Err(TraceError::Truncated) => break, // mid-record: wait
                Err(e) => {
                    self.poisoned = Some(e);
                    break;
                }
            }
        }
        if self.consumed >= COMPACT_THRESHOLD {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(self.decoded_events - before)
    }

    /// Ends the stream: the producer has no more bytes. Returns the
    /// decoded trace — whole if every rank finished, otherwise the
    /// epoch-aligned prefix with a diagnosis — or an error when nothing
    /// event-shaped was ever decodable (no parseable header).
    pub fn finish(self) -> Result<StreamEnd, TraceError> {
        let Some(header) = self.header else {
            // Never got a header: replay parsing for the precise error.
            return Err(match parse_header(&self.buf) {
                Ok(_) => TraceError::Truncated, // header only, no body
                Err(e) => e,
            });
        };
        if self.legacy {
            // v1: the string table lived at the end; decode (or salvage)
            // now that the end has arrived.
            return crate::salvage(&self.buf);
        }
        let diagnosis = (self.closed_ranks < header.nranks as usize)
            .then(|| self.poisoned.unwrap_or(TraceError::Truncated));
        Ok(StreamEnd::new(header, split_ranks(self.events), diagnosis))
    }
}

/// Wire-order `events` as per-rank streams: one per `Finish`, plus the
/// unfinished tail when there is one. Rank 0 keeps the vector; each
/// later event is copied once.
fn split_ranks(mut events: Vec<TraceEvent>) -> Vec<Vec<TraceEvent>> {
    let ends: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i], TraceEvent::Finish))
        .map(|i| i + 1)
        .filter(|&end| end < events.len())
        .collect();
    let mut streams: Vec<Vec<TraceEvent>> =
        ends.iter().rev().map(|&at| events.split_off(at)).collect();
    if !events.is_empty() {
        streams.push(events);
    }
    streams.reverse();
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FORMAT_VERSION;
    use rma_core::{Interval, SrcLoc};
    use rma_sim::WinId;

    /// Two ranks, three epochs each — same shape as the salvage tests.
    fn sample() -> Trace {
        let mk = |lo: u64, line: u32| TraceEvent::Local {
            interval: Interval::new(lo, lo + 7),
            write: true,
            on_stack: false,
            tracked: true,
            loc: SrcLoc::synthetic("stream.c", line),
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
                seed: 9,
                app: "stream-unit".into(),
            },
            streams: vec![rank(0), rank(1 << 20)],
        }
    }

    /// Feeds `bytes` in `chunk`-sized pieces and finishes.
    fn feed_all(bytes: &[u8], chunk: usize) -> StreamEnd {
        let mut dec = StreamDecoder::new();
        for piece in bytes.chunks(chunk.max(1)) {
            dec.feed(piece).unwrap();
        }
        dec.finish().unwrap()
    }

    #[test]
    fn chunked_decode_matches_whole_file_at_every_chunk_size() {
        let t = sample();
        let bytes = t.encode();
        for chunk in [1, 2, 3, 7, 64, bytes.len()] {
            let end = feed_all(&bytes, chunk);
            assert!(end.complete, "chunk {chunk}: incomplete");
            assert!(end.diagnosis.is_none());
            assert_eq!(end.trace, t, "chunk {chunk}: mismatch");
            assert_eq!(end.dropped_events, 0);
            assert_eq!(end.epochs_kept, 3);
        }
    }

    #[test]
    fn v2_buffer_stays_small() {
        let t = sample();
        let bytes = t.encode();
        let mut dec = StreamDecoder::new();
        let mut last_marks = 0;
        for piece in bytes.chunks(16) {
            dec.feed(piece).unwrap();
            // Trailer bytes at the tail are the only thing a complete
            // decode keeps around; mid-stream the buffer holds at most
            // one partial record past the header.
            assert!(dec.buffered_bytes() < 256, "buffer grew: {}", dec.buffered_bytes());
            assert!(dec.epoch_marks() >= last_marks, "epoch progress must be monotone");
            last_marks = dec.epoch_marks();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decoded_events(), t.event_count());
        let boundary_total: usize = t
            .streams
            .iter()
            .map(|s| s.iter().filter(|e| is_epoch_boundary(e)).count())
            .sum();
        assert_eq!(dec.epoch_marks(), boundary_total);
    }

    #[test]
    fn bytes_after_completion_or_poison_are_not_buffered() {
        let bytes = sample().encode();
        let more = vec![0u8; 1 << 20];

        let mut dec = StreamDecoder::new();
        dec.feed(&bytes).unwrap();
        assert!(dec.is_complete());
        let tail = dec.buffered_bytes();
        assert!(tail < 256, "only trailer bytes remain: {tail}");
        assert_eq!(dec.feed(&more), Ok(0));
        assert_eq!(dec.buffered_bytes(), tail, "a complete decode buffered more");

        // An invalid opcode where rank 0's first record should start.
        let body_start = parse_header(&bytes).unwrap().2;
        let mut dam = bytes[..body_start].to_vec();
        dam.push(0xFF);
        let mut dec = StreamDecoder::new();
        dec.feed(&dam).unwrap();
        let tail = dec.buffered_bytes();
        assert!(tail <= 1, "only the bad record remains: {tail}");
        assert_eq!(dec.feed(&more), Ok(0));
        assert_eq!(dec.buffered_bytes(), tail, "a poisoned decode buffered more");
        let end = dec.finish().unwrap();
        assert_eq!(end.diagnosis, Some(TraceError::Corrupt("unknown opcode")));
    }

    /// Byte offset one past the last record (the footer's start), from
    /// the footer's own stream index.
    fn records_end(bytes: &[u8]) -> usize {
        let (_, footer, _) = crate::trace::parse_container_unverified(bytes).unwrap();
        footer
            .stream_index
            .iter()
            .map(|&(off, len, _)| (off + len) as usize)
            .max()
            .unwrap()
    }

    #[test]
    fn truncation_matches_salvage_alignment() {
        let t = sample();
        let bytes = t.encode();
        let body_start = parse_header(&bytes).unwrap().2;
        let records_end = records_end(&bytes);
        for cut in (body_start..bytes.len()).step_by(5) {
            let end = feed_all(&bytes[..cut], 11);
            let sal = crate::salvage(&bytes[..cut]).unwrap();
            assert_eq!(
                end.trace.streams, sal.trace.streams,
                "cut {cut}: stream decoder and salvage disagree"
            );
            assert_eq!(end.epochs_kept, sal.epochs_kept, "cut {cut}");
            if cut < records_end {
                // A cut inside the record region loses events; a cut
                // inside the footer leaves every record intact and the
                // incremental decode (which never needs the footer)
                // legitimately completes.
                assert!(
                    !end.complete,
                    "cut {cut}: a mid-record cut must be diagnosed"
                );
                assert!(matches!(end.diagnosis, Some(TraceError::Truncated)));
            } else {
                assert!(end.complete, "cut {cut}: all records present");
            }
        }
    }

    #[test]
    fn header_only_and_empty_feeds_are_structured() {
        let t = sample();
        let bytes = t.encode();
        let body_start = parse_header(&bytes).unwrap().2;
        // Header only: no events, truncated, zero epochs.
        let end = feed_all(&bytes[..body_start], 4);
        assert!(!end.complete);
        assert_eq!(end.decoded_events, 0);
        assert_eq!(end.epochs_kept, 0);
        // Less than a header: structured error, not a panic.
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes[..4]).unwrap();
        assert!(matches!(dec.finish(), Err(TraceError::Truncated)));
        let dec = StreamDecoder::new();
        assert!(dec.finish().is_err());
    }

    #[test]
    fn garbage_is_rejected_up_front() {
        let mut dec = StreamDecoder::new();
        assert_eq!(dec.feed(b"definitely not a trace"), Err(TraceError::BadMagic));
        // A future version is permanent too.
        let mut t = sample();
        t.header.version = FORMAT_VERSION; // encode() writes header.version? ensure bytes then bump
        let mut bytes = t.encode();
        // Version varint sits right after the 8-byte magic; a one-byte
        // varint bump to 99 forges a future version.
        bytes[8] = 99;
        let mut dec = StreamDecoder::new();
        assert_eq!(dec.feed(&bytes), Err(TraceError::BadVersion(99)));
    }

    #[test]
    fn an_oversized_rank_count_is_a_structured_error() {
        // Magic, version 2, `nranks = u32::MAX`, seed 0, an empty app
        // and an empty string table: a header that parses but would
        // size per-rank tables by four billion.
        let mut bytes = crate::MAGIC.to_vec();
        bytes.extend_from_slice(&[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0]);
        assert_eq!(bytes.len(), 17);
        let want = TraceError::Corrupt("rank count out of range");
        let mut dec = StreamDecoder::new();
        assert_eq!(dec.feed(&bytes), Err(want));
        // The error is final: later bytes are not buffered.
        assert_eq!(dec.feed(&[0; 4096]), Ok(0));
        assert_eq!(dec.buffered_bytes(), bytes.len());
        assert_eq!(dec.finish().unwrap_err(), want);
        assert_eq!(crate::salvage(&bytes).unwrap_err(), want);
        // The largest permitted count still parses.
        let mut t = sample();
        t.header.nranks = crate::trace::MAX_RANKS;
        assert_eq!(parse_header(&t.encode()).unwrap().0.nranks, crate::trace::MAX_RANKS);
    }

    #[test]
    fn corrupt_record_poisons_with_prefix_kept() {
        let t = sample();
        let bytes = t.encode();
        let body_start = parse_header(&bytes).unwrap().2;
        // Rank 0's stream followed by an invalid opcode where rank 1's
        // first record should start: the decode poisons exactly there.
        let (off, len, _) = crate::trace::parse_container_unverified(&bytes)
            .unwrap()
            .1
            .stream_index[1];
        let mut dam = bytes[..off as usize].to_vec();
        dam.push(0xFF); // `unknown opcode`
        dam.extend_from_slice(&bytes[off as usize + 1..(off + len) as usize]);
        assert!(body_start < dam.len());
        let mut dec = StreamDecoder::new();
        for piece in dam.chunks(9) {
            dec.feed(piece).unwrap();
        }
        assert_eq!(dec.closed_streams(), 1, "rank 0 decoded fully");
        let end = dec.finish().unwrap();
        assert!(!end.complete);
        assert!(matches!(end.diagnosis, Some(TraceError::Corrupt(_))));
        // Whatever survived is epoch-aligned and re-encodable.
        let re = end.trace.encode();
        assert_eq!(Trace::decode(&re).unwrap(), end.trace);
    }

    #[test]
    fn v1_falls_back_to_whole_file_decode() {
        let mut t = sample();
        t.header.version = 1;
        let bytes = t.encode();
        let end = feed_all(&bytes, 13);
        assert!(end.complete);
        assert_eq!(end.trace, t);
        // Truncated v1 still ends structurally (salvage can refuse, but
        // never panic): a deep cut loses the footer string table.
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes[..bytes.len() - 40]).unwrap();
        assert!(matches!(dec.finish(), Err(TraceError::Truncated)));
    }
}

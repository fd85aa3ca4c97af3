//! The trace container: header, per-rank record streams, string table,
//! stream/epoch indexes and a checksummed trailer.
//!
//! ## File layout
//!
//! ```text
//! magic            8 bytes  b"RMATRC01"
//! header           varints: version, nranks, seed, app (len + UTF-8)
//! string table     (version ≥ 2 only) count + strings — see below
//! streams          nranks concatenated record streams (format.rs)
//! footer           v1: string table, stream index, epoch index
//!                  v2: stream index, epoch index
//! footer_len       u32 LE — distance from footer start to this field
//! checksum         u64 LE — FNV-1a over every preceding byte
//! tail magic       8 bytes  b"RMAT_END"
//! ```
//!
//! The indexes live at the *end* so the reader finds them in O(1) from
//! the trailer. The checksum covers everything before it, so any
//! truncation or bit flip — including inside the footer — is detected
//! before a single record is decoded.
//!
//! Version 2 moves the **string table** from the footer into the header:
//! the encoder pre-scans every event in stream order (the same traversal
//! the record encoder performs, so the interning indices are identical)
//! and emits the complete table up front. This is what makes *salvage*
//! of a damaged file possible (see [`crate::salvage`]): a truncated tail
//! destroys the footer, but record streams are self-delimiting
//! (`Finish`-terminated) and can be decoded without any index — provided
//! the string table survives, which at the head of the file it does.
//! Version 1 files (the pinned corpus) keep decoding via the old path.
//!
//! ## Versioning policy
//!
//! The trailing two digits of the magic are the *container* major
//! version; the `version` varint in the header is the *record-format*
//! version. Additive record kinds bump `version`; readers reject
//! versions newer than [`FORMAT_VERSION`]. Anything that changes the
//! container layout itself gets a new magic, so old readers fail with
//! `BadMagic` instead of misparsing.

use crate::format::{
    decode_event, encode_event, is_epoch_boundary, DeltaState, ResolvedStrings, StringTable,
    TraceEvent,
};
use crate::varint::{read_u64, write_u64};
use crate::TraceError;

/// File magic (container version 01).
pub const MAGIC: &[u8; 8] = b"RMATRC01";
/// Trailer magic.
pub const TAIL_MAGIC: &[u8; 8] = b"RMAT_END";
/// Newest record-format version this build reads and writes. Version 2
/// carries the string table in the header (salvageable); version 1 files
/// keep decoding.
pub const FORMAT_VERSION: u64 = 2;
/// Largest rank count a header may declare.
pub const MAX_RANKS: u32 = 1 << 16;

/// Identity of a recorded run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceHeader {
    /// Record-format version.
    pub version: u64,
    /// Number of ranks (= number of streams).
    pub nranks: u32,
    /// Seed of the recorded world (for reproducing the live run).
    pub seed: u64,
    /// Free-form name of the recorded program (app or suite-case name).
    pub app: String,
}

/// One seekable position: the record *after* an epoch-closing record of
/// `rank`'s stream, where the delta predictors are freshly reset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochMark {
    /// Stream (rank) the mark belongs to.
    pub rank: u32,
    /// Byte offset of the seek point, relative to the stream's start.
    pub byte_off: u64,
    /// Index of the first event at/after the seek point.
    pub event_idx: u64,
}

/// A fully decoded trace: header plus one event stream per rank.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    /// Run identity.
    pub header: TraceHeader,
    /// `streams[r]` = the events recorded on rank `r`, in program order.
    pub streams: Vec<Vec<TraceEvent>>,
}

/// 64-bit FNV-1a, the trailer checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Footer contents in decoded form (also the seek metadata for readers).
/// For v2 files `strings` is populated from the header table.
#[derive(Clone, Debug)]
pub(crate) struct Footer {
    pub(crate) strings: Vec<String>,
    /// Per rank: (absolute byte offset, byte length, event count).
    pub(crate) stream_index: Vec<(u64, u64, u64)>,
    pub(crate) epoch_marks: Vec<EpochMark>,
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = read_u64(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(TraceError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(TraceError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Corrupt("string not UTF-8"))
}

impl Trace {
    /// Serializes the trace into the container format (the layout of
    /// `self.header.version` — v1 for re-encoding old files, v2 normally).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u64(&mut out, self.header.version);
        write_u64(&mut out, u64::from(self.header.nranks));
        write_u64(&mut out, self.header.seed);
        write_string(&mut out, &self.header.app);

        let mut strings = StringTable::default();
        if self.header.version >= 2 {
            // Pre-scan every event in stream order — the exact traversal
            // the record encoder below performs — so the table is
            // complete up front with identical indices.
            for stream in &self.streams {
                for ev in stream {
                    if let TraceEvent::Local { loc, .. } | TraceEvent::Rma { loc, .. } = ev {
                        strings.intern(loc.file);
                    }
                }
            }
            write_u64(&mut out, strings.strings().len() as u64);
            for s in strings.strings() {
                write_string(&mut out, s);
            }
        }
        let mut stream_index: Vec<(u64, u64, u64)> = Vec::new();
        let mut epoch_marks: Vec<EpochMark> = Vec::new();
        for (rank, stream) in self.streams.iter().enumerate() {
            let start = out.len() as u64;
            let mut state = DeltaState::default();
            let mut body = Vec::new();
            for (idx, ev) in stream.iter().enumerate() {
                encode_event(&mut body, ev, &mut state, &mut strings);
                if is_epoch_boundary(ev) {
                    epoch_marks.push(EpochMark {
                        rank: rank as u32,
                        byte_off: body.len() as u64,
                        event_idx: idx as u64 + 1,
                    });
                }
            }
            out.extend_from_slice(&body);
            stream_index.push((start, body.len() as u64, stream.len() as u64));
        }

        let footer_start = out.len();
        if self.header.version < 2 {
            write_u64(&mut out, strings.strings().len() as u64);
            for s in strings.strings() {
                write_string(&mut out, s);
            }
        }
        for &(off, len, count) in &stream_index {
            write_u64(&mut out, off);
            write_u64(&mut out, len);
            write_u64(&mut out, count);
        }
        write_u64(&mut out, epoch_marks.len() as u64);
        for m in &epoch_marks {
            write_u64(&mut out, u64::from(m.rank));
            write_u64(&mut out, m.byte_off);
            write_u64(&mut out, m.event_idx);
        }
        let footer_len = (out.len() - footer_start) as u32;
        out.extend_from_slice(&footer_len.to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(TAIL_MAGIC);
        out
    }

    /// Decodes a complete trace, verifying magic, version and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let (header, footer, _) = parse_container(bytes)?;
        let mut strings = ResolvedStrings::new(footer.strings);
        let mut streams = Vec::with_capacity(footer.stream_index.len());
        for &(off, len, count) in &footer.stream_index {
            let body = stream_span(bytes, off, len).map_err(|_| TraceError::Truncated)?;
            let mut pos = 0;
            let mut state = DeltaState::default();
            // Untrusted count; every record costs at least one byte.
            let mut events = Vec::with_capacity((count as usize).min(body.len()));
            for _ in 0..count {
                events.push(decode_event(body, &mut pos, &mut state, &mut strings)?);
            }
            if pos != body.len() {
                return Err(TraceError::Corrupt("trailing garbage in stream"));
            }
            streams.push(events);
        }
        Ok(Trace { header, streams })
    }

    /// Decodes only the header (cheap: trailer + header, no records).
    pub fn decode_header(bytes: &[u8]) -> Result<TraceHeader, TraceError> {
        Ok(parse_container(bytes)?.0)
    }

    /// The file's epoch index: every seekable epoch-boundary position.
    pub fn epoch_marks(bytes: &[u8]) -> Result<Vec<EpochMark>, TraceError> {
        Ok(parse_container(bytes)?.1.epoch_marks)
    }

    /// Decodes rank `rank`'s stream starting at its `k`-th epoch mark
    /// (skipping everything before it — the seek path). Returns the
    /// events from the mark to the end of the stream.
    pub fn decode_from_epoch(
        bytes: &[u8],
        rank: u32,
        k: usize,
    ) -> Result<Vec<TraceEvent>, TraceError> {
        let (_, footer, _) = parse_container(bytes)?;
        let mark = footer
            .epoch_marks
            .iter()
            .filter(|m| m.rank == rank)
            .nth(k)
            .copied()
            .ok_or(TraceError::Corrupt("epoch mark out of range"))?;
        let &(off, len, count) = footer
            .stream_index
            .get(rank as usize)
            .ok_or(TraceError::Corrupt("rank out of range"))?;
        let body = stream_span(bytes, off, len).map_err(|_| TraceError::Truncated)?;
        let mut pos = usize::try_from(mark.byte_off).map_err(|_| TraceError::Truncated)?;
        if pos > body.len() {
            return Err(TraceError::Truncated);
        }
        let mut state = DeltaState::default();
        let mut strings = ResolvedStrings::new(footer.strings);
        let mut events = Vec::new();
        for _ in mark.event_idx..count {
            events.push(decode_event(body, &mut pos, &mut state, &mut strings)?);
        }
        Ok(events)
    }

    /// Total number of recorded events across all streams.
    pub fn event_count(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// The record bytes the footer's stream index places at `off..off+len`:
/// `Ok` when the whole span lies inside `bytes`, otherwise `Err` with
/// the part that does (empty when the span starts past the end). The
/// whole-file decode and the epoch seek need the whole span; salvage
/// takes what is there.
pub(crate) fn stream_span(bytes: &[u8], off: u64, len: u64) -> Result<&[u8], &[u8]> {
    let start = usize::try_from(off).unwrap_or(usize::MAX);
    let end = start.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
    match bytes.get(start..end.min(bytes.len())) {
        Some(span) if end <= bytes.len() => Ok(span),
        part => Err(part.unwrap_or_default()),
    }
}

/// Parses the file-head structures only: magic, header fields, and (for
/// v2) the header string table. Never touches the trailer, so it works
/// on truncated files — the salvage entry point. Returns the header, the
/// string table (empty for v1), and the byte offset where the record
/// streams begin. A rank count above [`MAX_RANKS`] is `Corrupt`: every
/// reader sizes per-rank tables from it before a record is seen.
pub(crate) fn parse_header(
    bytes: &[u8],
) -> Result<(TraceHeader, Vec<String>, usize), TraceError> {
    if bytes.len() < MAGIC.len() {
        return Err(TraceError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let version = read_u64(bytes, &mut pos)?;
    if version > FORMAT_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let nranks = u32::try_from(read_u64(bytes, &mut pos)?)
        .map_err(|_| TraceError::Corrupt("rank count out of range"))?;
    let seed = read_u64(bytes, &mut pos)?;
    let app = read_string(bytes, &mut pos)?;
    let mut strings = Vec::new();
    if version >= 2 {
        let nstrings = read_u64(bytes, &mut pos)? as usize;
        // Clamp the pre-allocation: the count is untrusted, and each
        // string costs at least one length byte.
        strings.reserve(nstrings.min(bytes.len().saturating_sub(pos)));
        for _ in 0..nstrings {
            strings.push(read_string(bytes, &mut pos)?);
        }
    }
    if nranks > MAX_RANKS {
        return Err(TraceError::Corrupt("rank count out of range"));
    }
    Ok((TraceHeader { version, nranks, seed, app }, strings, pos))
}

/// Verifies the trailer and parses header + footer.
fn parse_container(bytes: &[u8]) -> Result<(TraceHeader, Footer, usize), TraceError> {
    parse_container_impl(bytes, true)
}

/// Like [`parse_container`], but skips the checksum comparison — for
/// salvaging a file whose trailer structure survived a bit flip. The
/// parsed indexes are unverified and must be treated as hints.
pub(crate) fn parse_container_unverified(
    bytes: &[u8],
) -> Result<(TraceHeader, Footer, usize), TraceError> {
    parse_container_impl(bytes, false)
}

fn parse_container_impl(
    bytes: &[u8],
    verify_checksum: bool,
) -> Result<(TraceHeader, Footer, usize), TraceError> {
    // Trailer: footer_len (4) + checksum (8) + tail magic (8).
    if bytes.len() < MAGIC.len() + 20 {
        return Err(TraceError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let tail_start = bytes.len() - 8;
    if &bytes[tail_start..] != TAIL_MAGIC {
        return Err(TraceError::Truncated);
    }
    let sum_start = tail_start - 8;
    let stored = u64::from_le_bytes(bytes[sum_start..tail_start].try_into().expect("8 bytes"));
    if verify_checksum && fnv1a(&bytes[..sum_start]) != stored {
        return Err(TraceError::BadChecksum);
    }
    let lenfield_start = sum_start - 4;
    let footer_len =
        u32::from_le_bytes(bytes[lenfield_start..sum_start].try_into().expect("4 bytes")) as usize;
    let footer_start = lenfield_start
        .checked_sub(footer_len)
        .ok_or(TraceError::Corrupt("footer length exceeds file"))?;

    // Header (and, for v2, the header-resident string table).
    let (header, header_strings, _) = parse_header(bytes)?;
    let nranks = header.nranks;

    // Footer.
    let fbuf = &bytes[..lenfield_start];
    let mut pos = footer_start;
    let strings = if header.version >= 2 {
        header_strings
    } else {
        let nstrings = read_u64(fbuf, &mut pos)? as usize;
        let mut strings = Vec::with_capacity(nstrings.min(1 << 16));
        for _ in 0..nstrings {
            strings.push(read_string(fbuf, &mut pos)?);
        }
        strings
    };
    let mut stream_index = Vec::with_capacity(nranks as usize);
    for _ in 0..nranks {
        let off = read_u64(fbuf, &mut pos)?;
        let len = read_u64(fbuf, &mut pos)?;
        let count = read_u64(fbuf, &mut pos)?;
        stream_index.push((off, len, count));
    }
    let nmarks = read_u64(fbuf, &mut pos)? as usize;
    let mut epoch_marks = Vec::with_capacity(nmarks.min(1 << 16));
    for _ in 0..nmarks {
        let rank = u32::try_from(read_u64(fbuf, &mut pos)?)
            .map_err(|_| TraceError::Corrupt("mark rank out of range"))?;
        let byte_off = read_u64(fbuf, &mut pos)?;
        let event_idx = read_u64(fbuf, &mut pos)?;
        epoch_marks.push(EpochMark { rank, byte_off, event_idx });
    }
    if pos != lenfield_start {
        return Err(TraceError::Corrupt("trailing garbage in footer"));
    }
    Ok((header, Footer { strings, stream_index, epoch_marks }, footer_start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{Interval, SrcLoc};
    use rma_sim::WinId;

    fn sample_trace() -> Trace {
        let loc = SrcLoc::synthetic("t.c", 10);
        let mk = |lo: u64, line: u32| TraceEvent::Local {
            interval: Interval::new(lo, lo + 7),
            write: line.is_multiple_of(2),
            on_stack: false,
            tracked: true,
            loc: SrcLoc::synthetic(loc.file, line),
        };
        Trace {
            header: TraceHeader {
                version: FORMAT_VERSION,
                nranks: 2,
                seed: 0x5EED,
                app: "unit".into(),
            },
            streams: vec![
                vec![
                    TraceEvent::WinAllocate { win: WinId(0), base: 0, len: 64 },
                    TraceEvent::Barrier,
                    TraceEvent::LockAll { win: WinId(0) },
                    mk(0, 10),
                    TraceEvent::UnlockAll { win: WinId(0) },
                    TraceEvent::LockAll { win: WinId(0) },
                    mk(32, 11),
                    TraceEvent::UnlockAll { win: WinId(0) },
                    TraceEvent::Barrier,
                    TraceEvent::Finish,
                ],
                vec![
                    TraceEvent::WinAllocate { win: WinId(0), base: 1 << 20, len: 64 },
                    TraceEvent::Barrier,
                    TraceEvent::LockAll { win: WinId(0) },
                    TraceEvent::UnlockAll { win: WinId(0) },
                    TraceEvent::LockAll { win: WinId(0) },
                    TraceEvent::UnlockAll { win: WinId(0) },
                    TraceEvent::Barrier,
                    TraceEvent::Finish,
                ],
            ],
        }
    }

    #[test]
    fn container_roundtrips() {
        let t = sample_trace();
        let bytes = t.encode();
        assert_eq!(Trace::decode(&bytes).unwrap(), t);
        assert_eq!(Trace::decode_header(&bytes).unwrap(), t.header);
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let bytes = sample_trace().encode();
        // Any truncation breaks the tail magic or the checksum.
        for cut in [1usize, 8, 20, bytes.len() / 2] {
            let cut = &bytes[..bytes.len() - cut];
            assert!(Trace::decode(cut).is_err(), "cut {} not detected", cut.len());
        }
        // A single flipped bit in the body breaks the checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(Trace::decode(&flipped), Err(TraceError::BadChecksum)));
        // Wrong magic is reported as such.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(Trace::decode(&wrong), Err(TraceError::BadMagic)));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut t = sample_trace();
        t.header.version = FORMAT_VERSION + 1;
        let bytes = t.encode();
        assert!(matches!(Trace::decode(&bytes), Err(TraceError::BadVersion(v)) if v == FORMAT_VERSION + 1));
    }

    #[test]
    fn epoch_index_seeks_to_identical_suffixes() {
        let t = sample_trace();
        let bytes = t.encode();
        let marks = Trace::epoch_marks(&bytes).unwrap();
        assert!(!marks.is_empty());
        for rank in 0..t.header.nranks {
            let rank_marks: Vec<_> = marks.iter().filter(|m| m.rank == rank).collect();
            assert_eq!(rank_marks.len(), 2, "two epochs per rank");
            for (k, m) in rank_marks.iter().enumerate() {
                let seeked = Trace::decode_from_epoch(&bytes, rank, k).unwrap();
                let full = &t.streams[rank as usize][m.event_idx as usize..];
                assert_eq!(seeked.as_slice(), full);
            }
        }
    }

    #[test]
    fn empty_streams_and_zero_ranks_roundtrip() {
        let t = Trace {
            header: TraceHeader {
                version: FORMAT_VERSION,
                nranks: 1,
                seed: 0,
                app: String::new(),
            },
            streams: vec![vec![]],
        };
        let bytes = t.encode();
        assert_eq!(Trace::decode(&bytes).unwrap(), t);
    }
}

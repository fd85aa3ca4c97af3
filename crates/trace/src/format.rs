//! Record-level encoding: one [`TraceEvent`] ⇄ one variable-length
//! binary record inside a per-rank stream.
//!
//! ## Record layout
//!
//! Every record starts with a one-byte opcode, followed by the event's
//! fields as LEB128 varints (see [`crate::varint`]). Two fields are
//! *delta-coded against per-stream predictor state*:
//!
//! * interval lower bounds — zigzag of `lo − previous lo` (successive
//!   accesses of a rank tend to be near each other, so deltas are short);
//!   an RMA record chains its two intervals through the same predictor
//!   (origin first, then target);
//! * source lines — zigzag of `line − previous line`.
//!
//! Interval upper bounds are stored as `hi − lo` (the access length − 1,
//! which is tiny). Source files are indices into the file's string table.
//!
//! The predictor state resets to zero after every epoch-closing record
//! (`UnlockAll`, `Fence`), which makes those positions valid seek points:
//! the epoch index of the container (see [`crate::trace`]) stores them,
//! and decoding may start at any of them with a fresh [`DeltaState`].

use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::TraceError;
use rma_core::{Interval, RankId, SrcLoc};
use rma_sim::{AccumOp, RmaDir, WinId};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// One recorded event of a rank's stream. The rank itself is implicit in
/// which stream the event belongs to; for RMA events the stream's rank is
/// the *origin*.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A plain CPU access by the stream's rank ([`rma_sim::LocalEvent`]).
    Local {
        /// Addresses touched.
        interval: Interval,
        /// `true` for a store, `false` for a load.
        write: bool,
        /// The buffer models a stack array.
        on_stack: bool,
        /// `false` when alias analysis would have filtered the access.
        tracked: bool,
        /// Source location.
        loc: SrcLoc,
    },
    /// A one-sided operation issued by the stream's rank
    /// ([`rma_sim::RmaEvent`]).
    Rma {
        /// Put/get/accumulate.
        dir: RmaDir,
        /// Rank whose window is accessed.
        target: RankId,
        /// Window accessed.
        win: WinId,
        /// Interval touched in the origin's address space.
        origin_interval: Interval,
        /// Interval touched in the target's address space.
        target_interval: Interval,
        /// The origin buffer models a stack array.
        origin_on_stack: bool,
        /// Source location of the call.
        loc: SrcLoc,
    },
    /// This rank's contribution to a collective window allocation.
    WinAllocate {
        /// New window.
        win: WinId,
        /// Base address of this rank's contribution.
        base: u64,
        /// Length in bytes of this rank's contribution.
        len: u64,
    },
    /// Collective window destruction.
    WinFree {
        /// Freed window.
        win: WinId,
    },
    /// `MPI_Win_lock_all` — a passive-target epoch opened.
    LockAll {
        /// Locked window.
        win: WinId,
    },
    /// `MPI_Win_unlock_all` — the epoch closed (epoch boundary: the
    /// stream's delta predictors reset after this record).
    UnlockAll {
        /// Unlocked window.
        win: WinId,
    },
    /// `MPI_Win_flush_all`.
    FlushAll {
        /// Flushed window.
        win: WinId,
    },
    /// `MPI_Win_flush` towards one target.
    Flush {
        /// Flushed window.
        win: WinId,
        /// Flush target rank.
        target: RankId,
    },
    /// `MPI_Win_fence` arrival (epoch boundary, like `UnlockAll`).
    Fence {
        /// Fenced window.
        win: WinId,
    },
    /// Barrier arrival.
    Barrier,
    /// The rank's program returned normally.
    Finish,
}

const OP_LOCAL: u8 = 1;
const OP_RMA: u8 = 2;
const OP_WIN_ALLOCATE: u8 = 3;
const OP_WIN_FREE: u8 = 4;
const OP_LOCK_ALL: u8 = 5;
const OP_UNLOCK_ALL: u8 = 6;
const OP_FLUSH_ALL: u8 = 7;
const OP_FLUSH: u8 = 8;
const OP_FENCE: u8 = 9;
const OP_BARRIER: u8 = 10;
const OP_FINISH: u8 = 11;

const LOCAL_WRITE: u8 = 1 << 0;
const LOCAL_ON_STACK: u8 = 1 << 1;
const LOCAL_TRACKED: u8 = 1 << 2;

/// Per-stream delta predictors. Fresh state decodes from the stream
/// start or from any epoch-index seek point.
#[derive(Clone, Copy, Default, Debug)]
pub struct DeltaState {
    last_lo: u64,
    last_line: i64,
}

impl DeltaState {
    fn push_lo(&mut self, out: &mut Vec<u8>, lo: u64) {
        write_i64(out, lo.wrapping_sub(self.last_lo) as i64);
        self.last_lo = lo;
    }

    fn pull_lo(&mut self, buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
        let delta = read_i64(buf, pos)?;
        self.last_lo = self.last_lo.wrapping_add(delta as u64);
        Ok(self.last_lo)
    }

    fn push_line(&mut self, out: &mut Vec<u8>, line: u32) {
        write_i64(out, i64::from(line) - self.last_line);
        self.last_line = i64::from(line);
    }

    fn pull_line(&mut self, buf: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
        let delta = read_i64(buf, pos)?;
        let line = self.last_line + delta;
        self.last_line = line;
        u32::try_from(line).map_err(|_| TraceError::Corrupt("line delta out of range"))
    }

    fn reset(&mut self) {
        *self = DeltaState::default();
    }
}

/// Interns source-file names at encode time: file → string-table index.
#[derive(Default, Debug)]
pub struct StringTable {
    strings: Vec<String>,
    index: HashMap<String, u64>,
}

impl StringTable {
    /// Index of `s`, inserting it on first sight.
    pub fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }

    /// The table's strings in index order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }
}

/// Leaks-and-dedups decoded file names back into `&'static str`, the
/// representation [`SrcLoc`] requires. Each distinct file name is leaked
/// at most once per process, so replaying any number of traces costs a
/// bounded handful of small allocations.
///
/// Every call takes one process-wide lock and hashes `s`, so decoders do
/// not call it per record: a [`ResolvedStrings`] table calls it once per
/// string-table entry that some record references, and answers every
/// later reference with a plain index.
pub fn intern_static(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    // A poisoned lock only means another thread panicked mid-insert; the
    // map is still a valid dedup cache, so keep going rather than panic
    // on every subsequent decode.
    let mut map = pool.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&st) = map.get(s) {
        return st;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    leaked
}

/// A file's string table as one decode sees it: index → `&'static str`,
/// resolved through [`intern_static`] the first time a record references
/// the index and by a bounds-checked index every time after. Each
/// decoder builds one per stream or file, so decoding a record never
/// takes the process-wide intern lock once its file name is resolved,
/// and names no record references are never leaked.
#[derive(Debug, Default)]
pub struct ResolvedStrings {
    slots: Vec<Slot>,
}

#[derive(Debug)]
enum Slot {
    /// Not referenced by any record yet.
    Raw(String),
    /// Resolved on first reference.
    Interned(&'static str),
}

impl ResolvedStrings {
    /// A table over `strings` (in string-table index order) with
    /// nothing resolved yet.
    pub fn new(strings: Vec<String>) -> ResolvedStrings {
        ResolvedStrings { slots: strings.into_iter().map(Slot::Raw).collect() }
    }

    fn resolve(&mut self, idx: usize) -> Result<&'static str, TraceError> {
        let slot = self
            .slots
            .get_mut(idx)
            .ok_or(TraceError::Corrupt("string table index out of range"))?;
        Ok(match slot {
            Slot::Interned(file) => *file,
            Slot::Raw(name) => {
                let file = intern_static(name);
                *slot = Slot::Interned(file);
                file
            }
        })
    }
}

fn dir_code(dir: RmaDir) -> u8 {
    let op_code = |op: AccumOp| match op {
        AccumOp::Sum => 0,
        AccumOp::Max => 1,
        AccumOp::Replace => 2,
        AccumOp::Bor => 3,
    };
    match dir {
        RmaDir::Put => 0,
        RmaDir::Get => 1,
        RmaDir::Accum(op) => 2 + op_code(op),
        RmaDir::FetchAccum(op) => 6 + op_code(op),
    }
}

fn dir_from_code(code: u8) -> Result<RmaDir, TraceError> {
    let op = |c: u8| match c {
        0 => Ok(AccumOp::Sum),
        1 => Ok(AccumOp::Max),
        2 => Ok(AccumOp::Replace),
        3 => Ok(AccumOp::Bor),
        _ => Err(TraceError::Corrupt("bad accumulate op code")),
    };
    match code {
        0 => Ok(RmaDir::Put),
        1 => Ok(RmaDir::Get),
        2..=5 => Ok(RmaDir::Accum(op(code - 2)?)),
        6..=9 => Ok(RmaDir::FetchAccum(op(code - 6)?)),
        _ => Err(TraceError::Corrupt("bad RMA direction code")),
    }
}

fn push_interval(out: &mut Vec<u8>, state: &mut DeltaState, iv: Interval) {
    state.push_lo(out, iv.lo);
    write_u64(out, iv.hi - iv.lo);
}

fn pull_interval(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
) -> Result<Interval, TraceError> {
    let lo = state.pull_lo(buf, pos)?;
    let span = read_u64(buf, pos)?;
    let hi = lo
        .checked_add(span)
        .ok_or(TraceError::Corrupt("interval overflows the address space"))?;
    Ok(Interval::new(lo, hi))
}

fn push_loc(out: &mut Vec<u8>, state: &mut DeltaState, strings: &mut StringTable, loc: SrcLoc) {
    write_u64(out, strings.intern(loc.file));
    state.push_line(out, loc.line);
}

fn pull_loc(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
    strings: &mut ResolvedStrings,
) -> Result<SrcLoc, TraceError> {
    let file = strings.resolve(read_u64(buf, pos)? as usize)?;
    let line = state.pull_line(buf, pos)?;
    Ok(SrcLoc::synthetic(file, line))
}

/// Appends one event record to a stream, updating its delta state and the
/// file's string table.
pub fn encode_event(
    out: &mut Vec<u8>,
    ev: &TraceEvent,
    state: &mut DeltaState,
    strings: &mut StringTable,
) {
    match *ev {
        TraceEvent::Local { interval, write, on_stack, tracked, loc } => {
            out.push(OP_LOCAL);
            let mut flags = 0u8;
            if write {
                flags |= LOCAL_WRITE;
            }
            if on_stack {
                flags |= LOCAL_ON_STACK;
            }
            if tracked {
                flags |= LOCAL_TRACKED;
            }
            out.push(flags);
            push_interval(out, state, interval);
            push_loc(out, state, strings, loc);
        }
        TraceEvent::Rma {
            dir,
            target,
            win,
            origin_interval,
            target_interval,
            origin_on_stack,
            loc,
        } => {
            out.push(OP_RMA);
            out.push(dir_code(dir));
            out.push(u8::from(origin_on_stack));
            write_u64(out, u64::from(target.0));
            write_u64(out, u64::from(win.0));
            push_interval(out, state, origin_interval);
            push_interval(out, state, target_interval);
            push_loc(out, state, strings, loc);
        }
        TraceEvent::WinAllocate { win, base, len } => {
            out.push(OP_WIN_ALLOCATE);
            write_u64(out, u64::from(win.0));
            write_u64(out, base);
            write_u64(out, len);
        }
        TraceEvent::WinFree { win } => {
            out.push(OP_WIN_FREE);
            write_u64(out, u64::from(win.0));
        }
        TraceEvent::LockAll { win } => {
            out.push(OP_LOCK_ALL);
            write_u64(out, u64::from(win.0));
        }
        TraceEvent::UnlockAll { win } => {
            out.push(OP_UNLOCK_ALL);
            write_u64(out, u64::from(win.0));
            state.reset();
        }
        TraceEvent::FlushAll { win } => {
            out.push(OP_FLUSH_ALL);
            write_u64(out, u64::from(win.0));
        }
        TraceEvent::Flush { win, target } => {
            out.push(OP_FLUSH);
            write_u64(out, u64::from(win.0));
            write_u64(out, u64::from(target.0));
        }
        TraceEvent::Fence { win } => {
            out.push(OP_FENCE);
            write_u64(out, u64::from(win.0));
            state.reset();
        }
        TraceEvent::Barrier => out.push(OP_BARRIER),
        TraceEvent::Finish => out.push(OP_FINISH),
    }
}

/// Is this record an epoch boundary (delta predictors reset after it)?
pub fn is_epoch_boundary(ev: &TraceEvent) -> bool {
    matches!(ev, TraceEvent::UnlockAll { .. } | TraceEvent::Fence { .. })
}

fn read_win(buf: &[u8], pos: &mut usize) -> Result<WinId, TraceError> {
    let w = read_u64(buf, pos)?;
    u32::try_from(w)
        .map(WinId)
        .map_err(|_| TraceError::Corrupt("window id out of range"))
}

fn read_rank(buf: &[u8], pos: &mut usize) -> Result<RankId, TraceError> {
    let r = read_u64(buf, pos)?;
    u32::try_from(r)
        .map(RankId)
        .map_err(|_| TraceError::Corrupt("rank id out of range"))
}

/// Decodes one event record at `*pos`, advancing it. `strings` is the
/// decode's own table: pass the same one for every record of a stream
/// or file.
pub fn decode_event(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
    strings: &mut ResolvedStrings,
) -> Result<TraceEvent, TraceError> {
    let op = *buf.get(*pos).ok_or(TraceError::Truncated)?;
    *pos += 1;
    Ok(match op {
        OP_LOCAL => {
            let flags = *buf.get(*pos).ok_or(TraceError::Truncated)?;
            *pos += 1;
            let interval = pull_interval(buf, pos, state)?;
            let loc = pull_loc(buf, pos, state, strings)?;
            TraceEvent::Local {
                interval,
                write: flags & LOCAL_WRITE != 0,
                on_stack: flags & LOCAL_ON_STACK != 0,
                tracked: flags & LOCAL_TRACKED != 0,
                loc,
            }
        }
        OP_RMA => {
            let dir = dir_from_code(*buf.get(*pos).ok_or(TraceError::Truncated)?)?;
            *pos += 1;
            let origin_on_stack = match *buf.get(*pos).ok_or(TraceError::Truncated)? {
                0 => false,
                1 => true,
                _ => return Err(TraceError::Corrupt("bad on-stack flag")),
            };
            *pos += 1;
            let target = read_rank(buf, pos)?;
            let win = read_win(buf, pos)?;
            let origin_interval = pull_interval(buf, pos, state)?;
            let target_interval = pull_interval(buf, pos, state)?;
            let loc = pull_loc(buf, pos, state, strings)?;
            TraceEvent::Rma {
                dir,
                target,
                win,
                origin_interval,
                target_interval,
                origin_on_stack,
                loc,
            }
        }
        OP_WIN_ALLOCATE => {
            let win = read_win(buf, pos)?;
            let base = read_u64(buf, pos)?;
            let len = read_u64(buf, pos)?;
            TraceEvent::WinAllocate { win, base, len }
        }
        OP_WIN_FREE => TraceEvent::WinFree { win: read_win(buf, pos)? },
        OP_LOCK_ALL => TraceEvent::LockAll { win: read_win(buf, pos)? },
        OP_UNLOCK_ALL => {
            let win = read_win(buf, pos)?;
            state.reset();
            TraceEvent::UnlockAll { win }
        }
        OP_FLUSH_ALL => TraceEvent::FlushAll { win: read_win(buf, pos)? },
        OP_FLUSH => {
            let win = read_win(buf, pos)?;
            let target = read_rank(buf, pos)?;
            TraceEvent::Flush { win, target }
        }
        OP_FENCE => {
            let win = read_win(buf, pos)?;
            state.reset();
            TraceEvent::Fence { win }
        }
        OP_BARRIER => TraceEvent::Barrier,
        OP_FINISH => TraceEvent::Finish,
        _ => return Err(TraceError::Corrupt("unknown opcode")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(events: &[TraceEvent]) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut st = DeltaState::default();
        let mut strings = StringTable::default();
        for ev in events {
            encode_event(&mut out, ev, &mut st, &mut strings);
        }
        let mut strings = ResolvedStrings::new(strings.strings().to_vec());
        let mut pos = 0;
        let mut st = DeltaState::default();
        let mut back = Vec::new();
        while pos < out.len() {
            back.push(decode_event(&out, &mut pos, &mut st, &mut strings).unwrap());
        }
        back
    }

    #[test]
    fn every_variant_roundtrips() {
        let loc = SrcLoc::synthetic("case.c", 42);
        let events = vec![
            TraceEvent::WinAllocate { win: WinId(0), base: 4096, len: 64 },
            TraceEvent::Barrier,
            TraceEvent::LockAll { win: WinId(0) },
            TraceEvent::Local {
                interval: Interval::new(4096, 4103),
                write: true,
                on_stack: true,
                tracked: true,
                loc,
            },
            TraceEvent::Rma {
                dir: RmaDir::FetchAccum(AccumOp::Bor),
                target: RankId(2),
                win: WinId(0),
                origin_interval: Interval::point(8),
                target_interval: Interval::new(4100, 4107),
                origin_on_stack: false,
                loc: SrcLoc::synthetic("case.c", 43),
            },
            TraceEvent::FlushAll { win: WinId(0) },
            TraceEvent::Flush { win: WinId(0), target: RankId(1) },
            TraceEvent::Fence { win: WinId(0) },
            TraceEvent::UnlockAll { win: WinId(0) },
            TraceEvent::WinFree { win: WinId(0) },
            TraceEvent::Finish,
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn max_address_bounds_roundtrip() {
        let loc = SrcLoc::synthetic("edge.c", u32::MAX);
        let events = vec![
            TraceEvent::Local {
                interval: Interval::new(u64::MAX, u64::MAX),
                write: false,
                on_stack: false,
                tracked: false,
                loc,
            },
            TraceEvent::Local {
                interval: Interval::new(0, u64::MAX),
                write: true,
                on_stack: false,
                tracked: true,
                loc,
            },
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn delta_state_resets_at_epoch_boundaries() {
        let loc = SrcLoc::synthetic("a.c", 7);
        let mk = |lo| TraceEvent::Local {
            interval: Interval::new(lo, lo + 3),
            write: false,
            on_stack: false,
            tracked: true,
            loc,
        };
        let mut out = Vec::new();
        let mut st = DeltaState::default();
        let mut strings = StringTable::default();
        encode_event(&mut out, &mk(1000), &mut st, &mut strings);
        encode_event(&mut out, &TraceEvent::UnlockAll { win: WinId(0) }, &mut st, &mut strings);
        let boundary = out.len();
        encode_event(&mut out, &mk(1000), &mut st, &mut strings);

        // Decoding the tail with a *fresh* state must work — that is what
        // makes the epoch index a valid seek table.
        let mut strs = ResolvedStrings::new(strings.strings().to_vec());
        let mut pos = boundary;
        let mut st = DeltaState::default();
        let ev = decode_event(&out, &mut pos, &mut st, &mut strs).unwrap();
        assert_eq!(ev, mk(1000));
    }

    #[test]
    fn intern_static_dedups() {
        let a = intern_static("some/file.rs");
        let b = intern_static("some/file.rs");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn resolved_strings_intern_on_first_reference_only() {
        let mut strings = ResolvedStrings::new(vec![
            "resolve/used.c".to_string(),
            "resolve/never.c".to_string(),
        ]);
        let a = strings.resolve(0).unwrap();
        assert!(std::ptr::eq(a, strings.resolve(0).unwrap()));
        assert!(std::ptr::eq(a, intern_static("resolve/used.c")));
        assert!(
            matches!(&strings.slots[1], Slot::Raw(_)),
            "an unreferenced name must not be interned"
        );
        assert_eq!(
            strings.resolve(2),
            Err(TraceError::Corrupt("string table index out of range"))
        );
    }

    #[test]
    fn corrupt_records_are_rejected_not_panicked() {
        let mut strings = ResolvedStrings::default();
        for bad in [&[0xFFu8][..], &[OP_RMA, 200][..], &[OP_LOCAL][..]] {
            let mut pos = 0;
            let mut st = DeltaState::default();
            assert!(decode_event(bad, &mut pos, &mut st, &mut strings).is_err());
        }
    }
}

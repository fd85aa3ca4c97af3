//! The production engine: Algorithm 1 over bounded leaf blocks.
//!
//! [`BlockedStore`] keeps the epoch's sorted, pairwise **disjoint**
//! accesses (the invariant of [`crate::FragMergeStore`]) in a sequence of
//! leaf vecs of at most `2 · LEAF` entries each, plus a parallel index
//! of every leaf's last `hi` once there are two or more. A lookup is a
//! `partition_point` over that index, then one inside a single leaf;
//! every stored access that intersects or touches a new one lies in one
//! contiguous run, which may cross leaves. The tree's cheap-reject hull
//! is simply the first node's `lo` and the last node's `hi`: an access
//! clear of it goes first or last with no search, and is counted in
//! [`StoreStats::fast_hits`] as the tree counts it. Steps 3–5 of
//! Algorithm 1 run through the shared
//! [`crate::fragmerge::fragment_accesses`] / `merge_accesses` passes over
//! that run, and budget degradation through the shared `coalesce_plan`
//! over the whole store, so snapshots and [`StoreStats`] are
//! byte-identical to the tree's.
//!
//! Four rules make interleaved writers cheap:
//!
//! * **Gap insert.** An access whose widened query finds nothing it
//!   intersects or touches cannot race, fragment or merge: it is
//!   inserted directly, with no conflict scan. Unlike the hull fast path
//!   it is *not* counted in [`StoreStats::fast_hits`] (the tree walks for
//!   it), which keeps the statistics equal to the tree's.
//! * **Append before prepend.** An insertion at index 0 of leaf `i > 0`
//!   is an append to leaf `i - 1` instead, so a writer whose frontier
//!   sits at a leaf boundary never shifts the next leaf.
//! * **A full leaf opens a leaf for its writer.** An append past the end
//!   of a full leaf starts a new leaf right after it, so each of many
//!   interleaved ascending writers fills a leaf of its own. If the next
//!   leaf is short (under `LEAF / 2` entries, e.g. the one a descending
//!   writer just opened) the access is prepended to it instead.
//! * **Split at the insertion point.** A full leaf taking a gap insert
//!   inside it splits there — the new access ends the left leaf — with
//!   the cut moved just far enough that both halves keep `LEAF / 2`
//!   entries. If the part after the insertion point is shorter than
//!   that and fits the next leaf, it moves there instead.
//!
//! A store's first leaf is allocated lazily: it grows from empty,
//! doubling, and never past `2 · LEAF`, and `clear` keeps its allocation
//! for the next epoch. While it is the only leaf it lives on its own,
//! with no index entry and no vec of leaves around it, so a store of a
//! few nodes costs one allocation for its contents, as a bare vec would.
//! Every other leaf is allocated once at its full capacity, `2 · LEAF`,
//! and never reallocates. No two short leaves are ever adjacent: the
//! rules above never put one next to another, and a fragment/merge
//! splice that would leave a short leaf beside a short neighbour
//! rebuilds the two together. So a store of `n` nodes has at most
//! `4n / LEAF + 1` leaves, and leaf memory stays within eight times the
//! node memory plus one leaf (the first leaf's allocation, which a
//! cleared store keeps), which keeps the node budget and the memory
//! gauge, both counted in nodes, meaningful.

use crate::access::MemAccess;
use crate::conflict::conflicts;
use crate::fragmerge::{coalesce_plan, fragment_accesses, merge_accesses};
use crate::interval::{Addr, Interval};
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};

/// Half the leaf capacity: bulk loads fill leaves to `LEAF`, inserts
/// grow them to `2 · LEAF` before they split. On 64-region churn, 64
/// was faster than 32, 128 and 512.
const LEAF: usize = 64;
/// Allocated capacity of every leaf but a store's first, which grows up
/// to it: no leaf ever holds more.
const CAP: usize = 2 * LEAF;

/// A position in the store: (leaf, index within the leaf).
type Pos = (usize, usize);

/// The index entry of a (non-empty) leaf.
fn last_hi(leaf: &[MemAccess]) -> Addr {
    leaf[leaf.len() - 1].interval.hi
}

fn leaf_of(chunk: &[MemAccess]) -> Vec<MemAccess> {
    let mut leaf = Vec::with_capacity(CAP);
    leaf.extend_from_slice(chunk);
    leaf
}

/// Makes room for `n` entries in `leaf` (`n <= CAP`). Only a store's
/// first leaf is ever short of room: it doubles, from 4, up to `CAP`.
fn fit(leaf: &mut Vec<MemAccess>, n: usize) {
    if n > leaf.capacity() {
        leaf.reserve_exact(n.next_power_of_two().clamp(4, CAP) - leaf.len());
    }
}

/// Access store implementing Algorithm 1 over bounded sorted leaves
/// (see module docs).
///
/// Configuration mirrors [`crate::FragMergeStore`]: merging on or off
/// (the fragmentation-only ablation), and an optional node budget with
/// the same conservative `RMA_Write` coalescing, applied to the whole
/// store.
pub struct BlockedStore {
    /// The store's only leaf while it has no other (`leaves` is then
    /// empty), else empty. `clear` puts a leaf's allocation back here.
    first: Vec<MemAccess>,
    /// Non-empty leaves, each sorted; concatenated they are sorted and
    /// disjoint. Empty while `first` holds the contents, if any.
    leaves: Vec<Vec<MemAccess>>,
    /// `his[i]` is the `hi` of `leaves[i]`'s last access.
    his: Vec<Addr>,
    /// `stats.len` is the live node count.
    stats: StoreStats,
    merge_enabled: bool,
    /// The node budget, `0` for none. Packed with `merge_enabled` into
    /// one word: a store is built per (rank, window) per stream, and
    /// its construction cost grows with its size.
    budget: u32,
    /// Scratch buffer for the fragment / merge passes.
    frags: Vec<MemAccess>,
}

impl Default for BlockedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockedStore {
    /// An empty store with merging enabled (the paper's algorithm).
    #[inline]
    pub fn new() -> Self {
        Self::with_cfg(true, None)
    }

    /// An empty store with the merging pass on or off and an optional
    /// node budget (clamped to at least 2; same degradation contract as
    /// [`crate::FragMergeStore::with_budget`], over the whole store).
    #[inline]
    pub fn with_cfg(merging: bool, budget: Option<usize>) -> Self {
        BlockedStore {
            first: Vec::new(),
            leaves: Vec::new(),
            his: Vec::new(),
            stats: StoreStats::default(),
            merge_enabled: merging,
            budget: budget.map_or(0, |cap| u32::try_from(cap.max(2)).unwrap_or(u32::MAX)),
            frags: Vec::new(),
        }
    }

    /// Every leaf, in address order (none iff the store is empty).
    fn leaves(&self) -> &[Vec<MemAccess>] {
        if self.leaves.is_empty() && !self.first.is_empty() {
            std::slice::from_ref(&self.first)
        } else {
            &self.leaves
        }
    }

    fn leaves_mut(&mut self) -> &mut [Vec<MemAccess>] {
        if self.leaves.is_empty() && !self.first.is_empty() {
            std::slice::from_mut(&mut self.first)
        } else {
            &mut self.leaves
        }
    }

    /// The leaves as a vec that can gain or lose leaves: moves a lone
    /// first leaf into it, with its index entry.
    fn leaves_vec(&mut self) -> &mut Vec<Vec<MemAccess>> {
        if self.leaves.is_empty() && !self.first.is_empty() {
            self.his.push(last_hi(&self.first));
            self.leaves.push(std::mem::take(&mut self.first));
        }
        &mut self.leaves
    }

    /// Refreshes leaf `l`'s index entry (a lone first leaf has none).
    fn reindex(&mut self, l: usize) {
        if let Some(hi) = self.his.get_mut(l) {
            *hi = last_hi(&self.leaves[l]);
        }
    }

    /// Position of the first stored access with `hi >= lo`, or the end.
    /// An answer at the head of leaf `i > 0` is given as the end of leaf
    /// `i - 1` (append before prepend).
    #[inline]
    fn lower_bound(&self, lo: Addr) -> Pos {
        let leaves = self.leaves();
        let l = self.his.partition_point(|&h| h < lo);
        if l == leaves.len() {
            return match leaves.last() {
                Some(leaf) => (l - 1, leaf.len()),
                None => (0, 0),
            };
        }
        // An interleaved writer's frontier sits just before a leaf head:
        // test that before searching the leaf.
        let leaf = &leaves[l];
        let i = if leaf[0].interval.hi >= lo {
            0
        } else if last_hi(leaf) < lo {
            leaf.len()
        } else {
            leaf.partition_point(|a| a.interval.hi < lo)
        };
        match i {
            0 if l > 0 => (l - 1, leaves[l - 1].len()),
            i => (l, i),
        }
    }

    /// Steps 1 and 2 in one pass: the end (exclusive) of the run of
    /// accesses from `start` on whose `lo <= hi`, or the first of them
    /// that conflicts with `acc`, in address order like the tree's
    /// overlap walk (`conflicts` requires intersection, so touching
    /// neighbours in the run never report).
    fn scan(&self, (mut l, mut i): Pos, acc: &MemAccess, hi: Addr) -> Result<Pos, MemAccess> {
        let leaves = self.leaves();
        while let Some(leaf) = leaves.get(l) {
            while let Some(stored) = leaf.get(i).filter(|s| s.interval.lo <= hi) {
                if conflicts(stored, acc) {
                    return Err(*stored);
                }
                i += 1;
            }
            match leaves.get(l + 1) {
                Some(next) if i == leaf.len() && next[0].interval.lo <= hi => (l, i) = (l + 1, 0),
                _ => break,
            }
        }
        Ok((l, i))
    }

    /// The run `start..end` as one slice per leaf, in address order.
    fn run(&self, start: Pos, end: Pos) -> impl Iterator<Item = &[MemAccess]> {
        let leaves = self.leaves();
        (start.0..=end.0).map(move |l| {
            let leaf = &leaves[l];
            let from = if l == start.0 { start.1 } else { 0 };
            let to = if l == end.0 { end.1 } else { leaf.len() };
            &leaf[from..to]
        })
    }

    /// Inserts an access that neither intersects nor touches anything
    /// stored at `at` (steps 2–4 degenerate to `frags = [acc]`).
    #[inline]
    fn insert_gap(&mut self, (l, i): Pos, acc: MemAccess) {
        self.stats.fragments += 1;
        self.stats.len += 1;
        match self.leaves_mut().get_mut(l) {
            None => {
                fit(&mut self.first, 1);
                self.first.push(acc);
            }
            Some(leaf) if leaf.len() < CAP => {
                fit(leaf, leaf.len() + 1);
                leaf.insert(i, acc);
                self.reindex(l);
            }
            Some(_) => self.insert_full((l, i), acc),
        }
        self.grew();
    }

    /// [`Self::insert_gap`] into the full leaf `l`.
    #[inline(never)]
    fn insert_full(&mut self, (l, i): Pos, acc: MemAccess) {
        let next = self.leaves().get(l + 1).map(Vec::len);
        if i == CAP && next.is_some_and(|m| m < LEAF / 2) {
            // The next leaf is short: prepend to it (a writer descending
            // into the leaf it opened).
            self.leaves[l + 1].insert(0, acc);
        } else if i == CAP {
            // Appending past its end: open a leaf for the writer.
            self.leaves_vec().insert(l + 1, leaf_of(&[acc]));
            self.his.insert(l + 1, acc.interval.hi);
        } else if CAP - i < LEAF / 2 && next.is_some_and(|m| m + CAP - i <= CAP) {
            // A short tail that fits the next leaf: hand the tail over,
            // so the access ends this leaf.
            let (head, rest) = self.leaves.split_at_mut(l + 1);
            let leaf = &mut head[l];
            rest[0].splice(0..0, leaf[i..].iter().copied());
            leaf.truncate(i);
            leaf.push(acc);
            self.his[l] = acc.interval.hi;
        } else {
            // Split at the insertion point, moved just far enough that
            // both halves keep half a leaf.
            let at = i.clamp(LEAF / 2, CAP - LEAF / 2);
            let leaf = &mut self.leaves_vec()[l];
            let mut right = leaf_of(&leaf[at..]);
            leaf.truncate(at);
            if i <= at {
                leaf.insert(i, acc);
            } else {
                right.insert(i - at, acc);
            }
            self.his[l] = last_hi(leaf);
            self.his.insert(l + 1, last_hi(&right));
            self.leaves.insert(l + 1, right);
        }
    }

    /// Is leaf `l` present and shorter than half a leaf? No two such
    /// leaves are ever adjacent.
    fn short(&self, l: usize) -> bool {
        self.leaves().get(l).is_some_and(|leaf| leaf.len() < LEAF / 2)
    }

    /// Step 5: replaces the run `start..end` by `repl` (non-empty). A
    /// run inside one leaf that still fits is spliced in place, unless
    /// that leaves two short leaves side by side; anything else rebuilds
    /// the leaves the run touches, re-chunked, absorbing a short
    /// neighbour if the result is short too.
    fn replace(&mut self, start: Pos, end: Pos, repl: &[MemAccess]) {
        let l0 = start.0;
        if l0 == end.0 {
            let n = self.leaves()[l0].len() - (end.1 - start.1) + repl.len();
            let beside_short = || (l0 > 0 && self.short(l0 - 1)) || self.short(l0 + 1);
            if n <= CAP && (n >= LEAF / 2 || !beside_short()) {
                let leaf = &mut self.leaves_mut()[l0];
                if repl.len() == end.1 - start.1 {
                    leaf[start.1..end.1].copy_from_slice(repl);
                } else {
                    fit(leaf, n);
                    leaf.splice(start.1..end.1, repl.iter().copied());
                }
                self.reindex(l0);
                self.stats.len = self.stats.len + repl.len() - (end.1 - start.1);
                return;
            }
        }
        self.rebuild(start, end, repl);
    }

    /// [`Self::replace`] by re-chunking the leaves `start..=end` touches.
    #[inline(never)]
    fn rebuild(&mut self, start: Pos, end: Pos, repl: &[MemAccess]) {
        let (mut l0, mut l1) = (start.0, end.0);
        self.leaves_vec();
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.leaves[l0][..start.1]);
        buf.extend_from_slice(repl);
        buf.extend_from_slice(&self.leaves[l1][end.1..]);
        if buf.len() < LEAF / 2 {
            if self.short(l1 + 1) {
                l1 += 1;
                buf.extend_from_slice(&self.leaves[l1]);
            }
            if l0 > 0 && self.short(l0 - 1) {
                l0 -= 1;
                buf.splice(0..0, self.leaves[l0].iter().copied());
            }
        }
        let old: usize = self.leaves[l0..=l1].iter().map(Vec::len).sum();
        let size = buf.len().div_ceil(buf.len().div_ceil(2 * LEAF));
        let leaves: Vec<_> = buf.chunks(size).map(leaf_of).collect();
        self.his.splice(l0..=l1, leaves.iter().map(|leaf| last_hi(leaf)));
        self.leaves.splice(l0..=l1, leaves);
        self.stats.len = self.stats.len + buf.len() - old;
    }

    /// Bookkeeping after any insertion: the peak and the whole-store
    /// budget.
    #[inline]
    fn grew(&mut self) {
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        if self.budget != 0 && self.stats.len > self.budget as usize {
            self.coalesce(self.budget as usize / 2);
        }
    }

    /// Budget degradation through the shared plan, over the whole store.
    #[inline(never)]
    fn coalesce(&mut self, target: usize) {
        if let Some(merged) = coalesce_plan(&self.snapshot(), target) {
            self.stats.coalesced += self.stats.len - merged.len();
            self.load(&merged);
        }
    }

    /// Replaces the contents by `accs` (sorted, disjoint), leaves filled
    /// to `LEAF` so inserts have room before they split.
    fn load(&mut self, accs: &[MemAccess]) {
        self.first.clear();
        self.leaves = accs.chunks(LEAF).map(leaf_of).collect();
        self.his = self.leaves.iter().map(|leaf| last_hi(leaf)).collect();
        self.stats.len = accs.len();
    }

    /// Steps 3–5 for a race-free access whose run is `start..end`
    /// (non-empty): the shared fragment / merge passes over the run, then
    /// the splice.
    fn apply(&mut self, start: Pos, end: Pos, acc: MemAccess) {
        let mut frags = std::mem::take(&mut self.frags);
        if start.0 == end.0 {
            fragment_accesses(&self.leaves()[start.0][start.1..end.1], &acc, &mut frags);
        } else {
            let run: Vec<MemAccess> = self.run(start, end).flatten().copied().collect();
            fragment_accesses(&run, &acc, &mut frags);
        }
        self.stats.fragments += frags.len();
        if self.merge_enabled {
            self.stats.merges += merge_accesses(&mut frags);
        }
        self.replace(start, end, &frags);
        self.frags = frags;
        self.grew();
    }

    /// `record` for an access that intersects or touches the hull.
    /// Steps 1 and 2 find the run (or the race); an empty run is a gap.
    /// Kept out of line: a small `record` keeps the fast path cheap to
    /// call (on the 20-event corpus traces, a few percent of a replay).
    #[inline(never)]
    fn record_within_hull(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        let q = acc.interval.widened();
        let mut start = self.lower_bound(q.lo);
        let end = match self.scan(start, &acc, q.hi) {
            Ok(end) => end,
            Err(stored) => {
                self.stats.races += 1;
                return Err(Box::new(RaceReport::new(stored, acc)));
            }
        };
        if start == end {
            self.insert_gap(start, acc);
            return Ok(());
        }
        if start.1 == self.leaves()[start.0].len() {
            start = (start.0 + 1, 0);
        }

        self.apply(start, end, acc);
        Ok(())
    }

    /// Checks the leaf invariants (test helper): leaves non-empty and
    /// bounded, no two short leaves side by side, a lone leaf's
    /// capacity within `CAP` and every other leaf's exactly `CAP`, the
    /// index in step, and the contents sorted and disjoint. Panics on
    /// violation.
    pub fn assert_invariants(&self) {
        assert!(self.leaves.is_empty() || self.first.is_empty(), "first leaf held twice");
        assert_eq!(self.leaves.len(), self.his.len(), "index out of step");
        let leaves = self.leaves();
        let n = leaves.len();
        for (l, leaf) in leaves.iter().enumerate() {
            assert!(!leaf.is_empty() && leaf.len() <= CAP, "leaf size {}", leaf.len());
            assert!(
                !(self.short(l) && self.short(l + 1)),
                "leaves {l} and {} of {n} are both short: {} and {} entries",
                l + 1,
                leaf.len(),
                leaves[l + 1].len()
            );
            if n == 1 {
                assert!(leaf.capacity() <= CAP, "lone leaf grew to {}", leaf.capacity());
            } else {
                assert_eq!(leaf.capacity(), CAP, "leaf reallocated");
            }
        }
        for (leaf, &hi) in self.leaves.iter().zip(&self.his) {
            assert_eq!(last_hi(leaf), hi, "stale index entry");
        }
        let snap = self.snapshot();
        assert_eq!(snap.len(), self.stats.len, "length out of step");
        for w in snap.windows(2) {
            assert!(
                w[0].interval.hi < w[1].interval.lo,
                "stored intervals overlap or are unsorted: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

impl AccessStore for BlockedStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        self.stats.recorded += 1;

        // The tree's cheap-reject rule, counted the same way: clear of
        // the contents' bounds, the access goes first or last.
        let leaves = self.leaves();
        let fast = match (leaves.first(), leaves.last()) {
            (Some(first), Some(last)) => {
                let hull = Interval { lo: first[0].interval.lo, hi: last_hi(last) };
                if acc.interval.intersects_or_touches(&hull) {
                    None
                } else if acc.interval.hi < hull.lo {
                    Some((0, 0))
                } else {
                    Some((leaves.len() - 1, last.len()))
                }
            }
            _ => Some((0, 0)),
        };
        match fast {
            Some(at) => {
                self.stats.fast_hits += 1;
                self.insert_gap(at, acc);
                Ok(())
            }
            None => self.record_within_hull(acc),
        }
    }

    fn len(&self) -> usize {
        self.stats.len
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn clear(&mut self) {
        self.stats.on_clear(self.stats.len);
        if !self.leaves.is_empty() {
            self.first = self.leaves.swap_remove(0);
            self.leaves.clear();
            self.his.clear();
        }
        self.first.clear(); // keeps its allocation for the next epoch
        self.stats.len = 0;
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.leaves().concat()
    }

    /// Exact rollback, mirroring [`crate::FragMergeStore::restore`]: the
    /// snapshot is loaded verbatim (the hull is its bounds).
    fn restore(&mut self, snap: &[MemAccess]) {
        self.load(snap);
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmerge::FragMergeStore;
    use crate::{AccessKind, RankId, SrcLoc};
    use AccessKind::*;

    fn acc(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
        MemAccess::new(Interval::new(lo, hi), kind, RankId(rank), SrcLoc::synthetic("leaf.c", line))
    }

    /// Interleaved ascending writers: each ends up appending to a leaf
    /// of its own, and the result is the tree's, byte for byte.
    #[test]
    fn interleaved_writers_split_into_own_leaves() {
        let mut b = BlockedStore::new();
        let mut t = FragMergeStore::new();
        for i in 0..2000u64 {
            for r in 0..8u64 {
                let lo = (r << 20) + i * 3;
                let a = acc(lo, lo + 1, LocalRead, 0, 1 + r as u32);
                assert_eq!(b.record(a), t.record(a));
            }
        }
        b.assert_invariants();
        assert_eq!(b.snapshot(), t.snapshot());
        assert_eq!(b.stats(), t.stats());
        // Every leaf holds a single writer's region.
        for leaf in b.leaves() {
            assert_eq!(leaf[0].interval.lo >> 20, leaf[leaf.len() - 1].interval.lo >> 20);
        }
        // Leaves are dense: appends fill them to 2·LEAF before a writer
        // opens its next leaf.
        assert!(b.leaves().len() <= 16000 / CAP + 16, "{} leaves", b.leaves().len());
    }

    /// Replays `accs` into a blocked store and the tree, step by step,
    /// and checks the leaf-count bound the gauge relies on.
    fn replay_bounded(accs: impl IntoIterator<Item = MemAccess>) -> BlockedStore {
        let mut b = BlockedStore::new();
        let mut t = FragMergeStore::new();
        for a in accs {
            assert_eq!(b.record(a), t.record(a));
            b.assert_invariants(); // no two short leaves side by side
            let (leaves, n) = (b.leaves().len(), b.stats.len);
            assert!(leaves <= 4 * n / LEAF + 1, "{leaves} leaves for {n} nodes");
        }
        assert_eq!(b.snapshot(), t.snapshot());
        assert_eq!(b.stats(), t.stats());
        b
    }

    /// A descending writer above a nearly full leaf: every access lands
    /// just before the previous one, at the end of a full leaf. The
    /// leaves it fills stay dense instead of holding one entry each.
    #[test]
    fn descending_writer_keeps_leaves_dense() {
        let below = (0..127u64).map(|i| acc(3 * i, 3 * i + 1, LocalRead, 0, 1));
        let above = (0..5000u64).map(|i| {
            let lo = (1 << 20) - 3 * i;
            acc(lo, lo + 1, LocalRead, 0, 2)
        });
        let b = replay_bounded(below.chain(above));
        let leaves = b.leaves().len();
        assert!(leaves <= 5127 / (CAP - LEAF / 2) + 4, "{leaves} leaves");
    }

    /// Descending writers at leaf boundaries, between full leaves of
    /// ascending data: same bound.
    #[test]
    fn descending_writers_between_full_leaves() {
        let base = (0..4 * CAP as u64).map(|i| acc(i << 12, (i << 12) + 1, LocalRead, 0, 1));
        let desc = (0..2000u64).flat_map(|i| {
            (0..4u64).map(move |r| {
                let lo = ((r * CAP as u64 + CAP as u64 - 1) << 12) + 4000 - 2 * i;
                acc(lo, lo, LocalRead, 0, 2 + r as u32)
            })
        });
        replay_bounded(base.chain(desc));
    }

    /// Merges that shrink a leaf in place, next to a short leaf: the
    /// ascending fill ends with a one-entry last leaf, then filling the
    /// gaps of the full leaf before it fuses its accesses into one
    /// growing node. The shrinking leaf absorbs the short one rather
    /// than sit beside it.
    #[test]
    fn merges_never_leave_two_short_leaves_side_by_side() {
        let n = 15 * CAP as u64 + 1;
        let fill = (0..n).map(|i| acc(3 * i, 3 * i + 1, LocalRead, 0, 1));
        let from = 14 * CAP as u64;
        let gaps = (from..n - 1).map(|i| acc(3 * i + 2, 3 * i + 2, LocalRead, 0, 1));
        let b = replay_bounded(fill.chain(gaps));
        assert_eq!(b.stats.len, from as usize + 1);
    }

    /// A split keeps both halves at least half a leaf long, even when
    /// the insertion point sits next to a leaf edge.
    #[test]
    fn splits_keep_both_halves_half_full() {
        let full = (0..CAP as u64).map(|i| acc(1000 + 5 * i, 1001 + 5 * i, LocalRead, 0, 1));
        // Below everything (index 0 of the full leaf), then between the
        // two lowest of the original accesses.
        let edges = [acc(0, 0, LocalRead, 0, 2), acc(1003, 1003, LocalRead, 0, 3)];
        let b = replay_bounded(full.chain(edges));
        let lens: Vec<usize> = b.leaves().iter().map(Vec::len).collect();
        assert!(lens.iter().all(|&n| n >= LEAF / 2), "{lens:?}");
    }

    /// Restore is exact, loads into fresh leaves, and rebuilds the hull.
    #[test]
    fn restore_is_exact() {
        let mut b = BlockedStore::new();
        for i in 0..500u64 {
            b.record(acc(i * 10, i * 10 + 3, RmaWrite, 1, 1)).unwrap();
        }
        let snap = b.snapshot();
        b.record(acc(10_000, 10_009, RmaWrite, 1, 2)).unwrap();
        b.restore(&snap);
        b.assert_invariants();
        assert_eq!(b.snapshot(), snap);
        let fast = b.stats().fast_hits;
        b.record(acc(10_000, 10_009, LocalWrite, 0, 3)).unwrap();
        assert_eq!(b.stats().fast_hits, fast + 1, "stale hull must not linger");
    }

    /// The first leaf grows from empty, doubling, and stops at `CAP`:
    /// the access past it opens a second leaf, and only then does the
    /// store index its leaves.
    #[test]
    fn first_leaf_grows_to_cap_and_no_further() {
        let mut b = BlockedStore::new();
        let mut caps = Vec::new();
        for i in 0..CAP as u64 {
            b.record(acc(3 * i, 3 * i + 1, LocalRead, 0, 1)).unwrap();
            b.assert_invariants();
            assert_eq!((b.leaves().len(), b.his.len()), (1, 0), "one unindexed leaf");
            caps.push(b.leaves()[0].capacity());
        }
        caps.dedup();
        assert_eq!(caps, [4, 8, 16, 32, 64, 128]);
        b.record(acc(3 * CAP as u64, 3 * CAP as u64 + 1, LocalRead, 0, 1)).unwrap();
        b.assert_invariants();
        assert_eq!((b.leaves().len(), b.his.len()), (2, 2));
        assert!(b.leaves().iter().all(|leaf| leaf.capacity() == CAP));
    }

    /// `clear` keeps the first leaf's allocation, also when the store
    /// had grown many leaves, and the next epoch records into it.
    #[test]
    fn clear_reuses_the_first_leaf() {
        let mut b = BlockedStore::new();
        for i in 0..6u64 {
            b.record(acc(10 * i, 10 * i + 2, RmaWrite, 1, 1)).unwrap();
        }
        let (ptr, cap) = (b.leaves()[0].as_ptr(), b.leaves()[0].capacity());
        let fast = b.stats().fast_hits;
        b.clear();
        assert!(b.leaves().is_empty() && b.stats.len == 0);
        b.record(acc(5, 6, RmaWrite, 1, 2)).unwrap();
        b.assert_invariants();
        assert_eq!((b.leaves()[0].as_ptr(), b.leaves()[0].capacity()), (ptr, cap));
        assert_eq!(b.stats().fast_hits, fast + 1, "clear must reset the cached hull");

        for i in 0..1000u64 {
            b.record(acc(100 + 3 * i, 101 + 3 * i, LocalRead, 0, 3)).unwrap();
        }
        assert!(b.leaves().len() > 1);
        b.clear();
        b.assert_invariants();
        assert_eq!(b.first.capacity(), CAP, "a leaf survives a many-leaf epoch");
        assert_eq!((b.stats().epochs, b.stats().cum_epoch_end_len), (2, 6 + 1001));
    }

    /// A budget crossed while the first leaf is still growing coalesces
    /// it exactly as the tree does, and the store stays well formed.
    #[test]
    fn budget_coalesces_a_grown_first_leaf() {
        let mut b = BlockedStore::with_cfg(true, Some(8));
        let mut t = FragMergeStore::with_budget(8);
        for i in 0..40u64 {
            let a = acc(10 * i, 10 * i + 2, if i % 3 == 0 { RmaWrite } else { RmaRead }, 1, 1);
            assert_eq!(b.record(a), t.record(a));
            b.assert_invariants();
            assert_eq!(b.snapshot(), t.snapshot(), "after access {i}");
            assert_eq!(b.stats(), t.stats(), "after access {i}");
        }
        assert!(b.stats().coalesced > 0, "the budget must coalesce");
        let probe = acc(51, 52, LocalWrite, 0, 2);
        assert_eq!(b.record(probe), t.record(probe));
    }
}

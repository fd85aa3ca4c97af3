//! The blocked engine: Algorithm 1 over bounded leaf blocks — the
//! layout [`crate::AdaptiveStore`] promotes into once a trace grows or
//! churns.
//!
//! [`BlockedStore`] keeps the epoch's sorted, pairwise **disjoint**
//! accesses (the invariant of [`crate::FragMergeStore`]) in a sequence of
//! leaf vecs of at most `2 · LEAF` entries each, plus a parallel index
//! of every leaf's last `hi`. A lookup is a `partition_point` over that
//! index, then one inside a single leaf; every stored access that
//! intersects or touches a new one lies in one contiguous run, which may
//! cross leaves. Steps 3–5 of Algorithm 1 run through the shared
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
//! Every leaf is allocated once at its full capacity, `2 · LEAF`, so
//! leaves never reallocate. No two short leaves are ever adjacent: the
//! rules above never put one next to another, and a fragment/merge
//! splice that would leave a short leaf beside a short neighbour
//! rebuilds the two together. So a store of `n` nodes has at most
//! `4n / LEAF + 1` leaves, and leaf memory stays within eight times the
//! node memory (plus one leaf), which keeps the node budget and the
//! memory gauge, both counted in nodes, meaningful.

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
/// Allocated capacity of every leaf: no leaf ever holds more.
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

/// Access store implementing Algorithm 1 over bounded sorted leaves
/// (see module docs).
///
/// Configuration mirrors [`crate::FragMergeStore`]: merging on or off
/// (the fragmentation-only ablation), and an optional node budget with
/// the same conservative `RMA_Write` coalescing, applied to the whole
/// store.
pub struct BlockedStore {
    /// Non-empty leaves, each sorted; concatenated they are sorted and
    /// disjoint. Empty iff the store is.
    leaves: Vec<Vec<MemAccess>>,
    /// `his[i]` is the `hi` of `leaves[i]`'s last access.
    his: Vec<Addr>,
    len: usize,
    stats: StoreStats,
    merge_enabled: bool,
    budget: Option<usize>,
    /// Bounding interval of the contents: the tree's cheap-reject rule,
    /// counted in [`StoreStats::fast_hits`] exactly as the tree counts it.
    hull: Option<Interval>,
    /// Scratch buffers reused across insertions.
    inter: Vec<MemAccess>,
    frags: Vec<MemAccess>,
}

impl Default for BlockedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockedStore {
    /// An empty store with merging enabled (the paper's algorithm).
    pub fn new() -> Self {
        Self::with_cfg(true, None)
    }

    /// An empty store with the merging pass on or off and an optional
    /// node budget (clamped to at least 2; same degradation contract as
    /// [`crate::FragMergeStore::with_budget`], over the whole store).
    pub fn with_cfg(merging: bool, budget: Option<usize>) -> Self {
        BlockedStore {
            leaves: Vec::new(),
            his: Vec::new(),
            len: 0,
            stats: StoreStats::default(),
            merge_enabled: merging,
            budget: budget.map(|cap| cap.max(2)),
            hull: None,
            inter: Vec::new(),
            frags: Vec::new(),
        }
    }

    /// The node budget, if one was set.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Is the merging pass enabled?
    pub fn merging_enabled(&self) -> bool {
        self.merge_enabled
    }

    /// Position of the first stored access with `hi >= lo`, or the end.
    /// An answer at the head of leaf `i > 0` is given as the end of leaf
    /// `i - 1` (append before prepend).
    fn lower_bound(&self, lo: Addr) -> Pos {
        let l = self.his.partition_point(|&h| h < lo);
        if l == self.leaves.len() {
            return match self.leaves.last() {
                Some(leaf) => (l - 1, leaf.len()),
                None => (0, 0),
            };
        }
        // An interleaved writer's frontier sits just before a leaf head:
        // test that before searching the leaf.
        let leaf = &self.leaves[l];
        let i = if leaf[0].interval.hi >= lo {
            0
        } else {
            leaf.partition_point(|a| a.interval.hi < lo)
        };
        match i {
            0 if l > 0 => (l - 1, self.leaves[l - 1].len()),
            i => (l, i),
        }
    }

    /// End (exclusive) of the run of accesses from `start` on whose
    /// `lo <= hi`. Equals `start` when the run is empty.
    fn run_end(&self, (mut l, mut i): Pos, hi: Addr) -> Pos {
        while let Some(leaf) = self.leaves.get(l) {
            while i < leaf.len() && leaf[i].interval.lo <= hi {
                i += 1;
            }
            match self.leaves.get(l + 1) {
                Some(next) if i == leaf.len() && next[0].interval.lo <= hi => (l, i) = (l + 1, 0),
                _ => break,
            }
        }
        (l, i)
    }

    /// The run `start..end` as one slice per leaf, in address order.
    fn run(&self, start: Pos, end: Pos) -> impl Iterator<Item = &[MemAccess]> {
        (start.0..=end.0).map(move |l| {
            let leaf = &self.leaves[l];
            let from = if l == start.0 { start.1 } else { 0 };
            let to = if l == end.0 { end.1 } else { leaf.len() };
            &leaf[from..to]
        })
    }

    /// Inserts an access that neither intersects nor touches anything
    /// stored at `at` (steps 2–4 degenerate to `frags = [acc]`).
    fn insert_gap(&mut self, (l, i): Pos, acc: MemAccess) {
        self.stats.fragments += 1;
        self.len += 1;
        let n = self.leaves.get(l).map_or(0, Vec::len);
        let next = self.leaves.get(l + 1).map(Vec::len);
        if n == 0 {
            self.leaves.push(leaf_of(&[acc]));
            self.his.push(acc.interval.hi);
        } else if n < CAP {
            let leaf = &mut self.leaves[l];
            leaf.insert(i, acc);
            self.his[l] = last_hi(leaf);
        } else if i == n && next.is_some_and(|m| m < LEAF / 2) {
            // Full, and the next leaf is short: prepend to it (a writer
            // descending into the leaf it opened).
            self.leaves[l + 1].insert(0, acc);
        } else if i == n {
            // Full, appending past its end: open a leaf for the writer.
            self.leaves.insert(l + 1, leaf_of(&[acc]));
            self.his.insert(l + 1, acc.interval.hi);
        } else if n - i < LEAF / 2 && next.is_some_and(|m| m + n - i <= CAP) {
            // Full, with a short tail that fits the next leaf: hand the
            // tail over, so the access ends this leaf.
            let (head, rest) = self.leaves.split_at_mut(l + 1);
            let leaf = &mut head[l];
            rest[0].splice(0..0, leaf[i..].iter().copied());
            leaf.truncate(i);
            leaf.push(acc);
            self.his[l] = acc.interval.hi;
        } else {
            // Full: split at the insertion point, moved just far enough
            // that both halves keep half a leaf.
            let at = i.clamp(LEAF / 2, CAP - LEAF / 2);
            let leaf = &mut self.leaves[l];
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
        self.grew(acc.interval);
    }

    /// Is leaf `l` present and shorter than half a leaf? No two such
    /// leaves are ever adjacent.
    fn short(&self, l: usize) -> bool {
        self.leaves.get(l).is_some_and(|leaf| leaf.len() < LEAF / 2)
    }

    /// Step 5: replaces the run `start..end` by `repl` (non-empty). A
    /// run inside one leaf that still fits is spliced in place, unless
    /// that leaves two short leaves side by side; anything else rebuilds
    /// the leaves the run touches, re-chunked, absorbing a short
    /// neighbour if the result is short too.
    fn replace(&mut self, start: Pos, end: Pos, repl: &[MemAccess]) {
        let (mut l0, mut l1) = (start.0, end.0);
        if l0 == l1 {
            let n = self.leaves[l0].len() - (end.1 - start.1) + repl.len();
            let beside_short = (l0 > 0 && self.short(l0 - 1)) || self.short(l0 + 1);
            if n <= CAP && (n >= LEAF / 2 || !beside_short) {
                let leaf = &mut self.leaves[l0];
                if repl.len() == end.1 - start.1 {
                    leaf[start.1..end.1].copy_from_slice(repl);
                } else {
                    leaf.splice(start.1..end.1, repl.iter().copied());
                }
                self.his[l0] = last_hi(leaf);
                self.len = self.len + repl.len() - (end.1 - start.1);
                return;
            }
        }
        let mut buf = std::mem::take(&mut self.inter);
        buf.clear();
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
        self.len = self.len + buf.len() - old;
        self.inter = buf;
    }

    /// Bookkeeping after any insertion: hull, peak, and the whole-store
    /// budget.
    fn grew(&mut self, iv: Interval) {
        self.hull = Some(self.hull.map_or(iv, |h| h.hull(&iv)));
        self.stats.peak_len = self.stats.peak_len.max(self.len);
        if let Some(cap) = self.budget {
            if self.len > cap {
                if let Some(merged) = coalesce_plan(&self.snapshot(), cap / 2) {
                    self.stats.coalesced += self.len - merged.len();
                    self.load(&merged);
                }
            }
        }
    }

    /// Replaces the contents by `accs` (sorted, disjoint), leaves filled
    /// to `LEAF` so inserts have room before they split.
    fn load(&mut self, accs: &[MemAccess]) {
        self.leaves = accs.chunks(LEAF).map(leaf_of).collect();
        self.his = self.leaves.iter().map(|leaf| last_hi(leaf)).collect();
        self.len = accs.len();
    }

    /// Checks the leaf invariants (test helper): leaves non-empty and
    /// bounded, no two short leaves side by side, never reallocated, the
    /// index in step, and the contents sorted and disjoint. Panics on
    /// violation.
    pub fn assert_invariants(&self) {
        assert_eq!(self.leaves.len(), self.his.len(), "index out of step");
        let n = self.leaves.len();
        for (l, (leaf, &hi)) in self.leaves.iter().zip(&self.his).enumerate() {
            assert!(!leaf.is_empty() && leaf.len() <= 2 * LEAF, "leaf size {}", leaf.len());
            assert!(
                !(self.short(l) && self.short(l + 1)),
                "leaves {l} and {} of {n} are both short: {} and {} entries",
                l + 1,
                leaf.len(),
                self.leaves[l + 1].len()
            );
            assert_eq!(leaf.capacity(), CAP, "leaf reallocated");
            assert_eq!(last_hi(leaf), hi, "stale index entry");
        }
        let snap = self.snapshot();
        assert_eq!(snap.len(), self.len, "length out of step");
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

        // The tree's cheap-reject rule, counted the same way.
        if !self.hull.is_some_and(|h| acc.interval.intersects_or_touches(&h)) {
            self.stats.fast_hits += 1;
            self.insert_gap(self.lower_bound(acc.interval.lo), acc);
            return Ok(());
        }

        // 2. The widened query: one run, possibly across leaves.
        let q = acc.interval.widened();
        let mut start = self.lower_bound(q.lo);
        let end = self.run_end(start, q.hi);
        if start == end {
            self.insert_gap(start, acc);
            return Ok(());
        }
        if start.1 == self.leaves[start.0].len() {
            start = (start.0 + 1, 0);
        }

        // 1. Race check, in address order like the tree's overlap walk
        //    (`conflicts` requires intersection, so touching neighbours
        //    in the run never report).
        let hit = self.run(start, end).flatten().find(|s| conflicts(s, &acc)).copied();
        if let Some(stored) = hit {
            self.stats.races += 1;
            return Err(Box::new(RaceReport::new(stored, acc)));
        }

        // 3–4. Shared fragment / merge passes over the run.
        let mut frags = std::mem::take(&mut self.frags);
        if start.0 == end.0 {
            fragment_accesses(&self.leaves[start.0][start.1..end.1], &acc, &mut frags);
        } else {
            let mut inter = std::mem::take(&mut self.inter);
            inter.clear();
            for part in self.run(start, end) {
                inter.extend_from_slice(part);
            }
            fragment_accesses(&inter, &acc, &mut frags);
            self.inter = inter;
        }
        self.stats.fragments += frags.len();
        if self.merge_enabled {
            self.stats.merges += merge_accesses(&mut frags);
        }

        // 5. Splice the result back.
        self.replace(start, end, &frags);
        self.frags = frags;
        self.grew(acc.interval);
        Ok(())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> StoreStats {
        StoreStats { len: self.len, ..self.stats }
    }

    fn clear(&mut self) {
        self.stats.on_clear(self.len);
        self.leaves.clear();
        self.his.clear();
        self.len = 0;
        self.hull = None;
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.leaves.concat()
    }

    /// Exact rollback, mirroring [`crate::FragMergeStore::restore`]: the
    /// snapshot is loaded verbatim and the hull rebuilt from its bounds.
    fn restore(&mut self, snap: &[MemAccess]) {
        self.load(snap);
        self.hull = match (snap.first(), snap.last()) {
            (Some(f), Some(l)) => Some(Interval::new(f.interval.lo, l.interval.hi)),
            _ => None,
        };
        self.stats.peak_len = self.stats.peak_len.max(self.len);
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
        for leaf in &b.leaves {
            assert_eq!(leaf[0].interval.lo >> 20, leaf[leaf.len() - 1].interval.lo >> 20);
        }
        // Leaves are dense: appends fill them to 2·LEAF before a writer
        // opens its next leaf.
        assert!(b.leaves.len() <= 16000 / CAP + 16, "{} leaves", b.leaves.len());
    }

    /// Replays `accs` into a blocked store and the tree, step by step,
    /// and checks the leaf-count bound the gauge relies on.
    fn replay_bounded(accs: impl IntoIterator<Item = MemAccess>) -> BlockedStore {
        let mut b = BlockedStore::new();
        let mut t = FragMergeStore::new();
        for a in accs {
            assert_eq!(b.record(a), t.record(a));
            b.assert_invariants(); // no two short leaves side by side
            let (leaves, n) = (b.leaves.len(), b.len);
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
        assert!(b.leaves.len() <= 5127 / (CAP - LEAF / 2) + 4, "{} leaves", b.leaves.len());
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
        assert_eq!(b.len, from as usize + 1);
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
        let lens: Vec<usize> = b.leaves.iter().map(Vec::len).collect();
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
}

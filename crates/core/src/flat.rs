//! The flat cache-friendly engine: Algorithm 1 over a contiguous sorted
//! vec instead of an AVL tree.
//!
//! [`FlatStore`] keeps the epoch's accesses in one arena-backed `Vec`,
//! sorted by lower bound and pairwise **disjoint** — the same invariant
//! as [`crate::FragMergeStore`], so the same soundness argument applies:
//! every stored access intersecting a new one lies in one contiguous run
//! of the vec, found by a single lower-bound search.
//!
//! Why flat beats the tree on the traces that matter (HMTRace's
//! observation, quantified in `BENCH_hotpath.json`): small and sparse
//! traces hold a handful of intervals, where a pointer-chasing balanced
//! tree pays allocation, rebalancing and cache misses for nothing — a
//! sorted vec of `Copy` structs is one or two cache lines scanned
//! branchlessly. The costs move to *mid-vec insertion* on large stores
//! (the `memmove` tail), which is exactly what [`crate::AdaptiveStore`]
//! erases by promoting to the bounded leaves of [`crate::BlockedStore`]
//! once the vec grows or churns; [`FlatStore::shifted`] is the
//! contention probe it watches.
//!
//! The lower-bound search **gallops from the end** before falling back
//! to a branchless binary search: monotonically growing epochs (the
//! common pattern — ascending stencil sweeps, ring exchanges) append at
//! or near the tail, so the bracket is found in O(log distance-from-end)
//! with the hot tail already in cache.
//!
//! Insertion semantics are *identical* to [`crate::FragMergeStore`] by
//! construction: steps 3–5 of Algorithm 1 run through the very same
//! [`crate::fragmerge::fragment_accesses`] / `merge_accesses` code over
//! the contiguous overlap run, and budget degradation uses the shared
//! `coalesce_plan`. The differential campaign in
//! `tests/engine_prop.rs` verifies contents, verdicts and statistics
//! against the AVL engine on randomized sequences.

use crate::access::MemAccess;
use crate::conflict::conflicts;
use crate::fragmerge::{coalesce_plan, fragment_accesses, merge_accesses};
use crate::interval::{Addr, Interval};
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};

/// Access store implementing Algorithm 1 over a flat sorted vec.
///
/// Construction mirrors [`crate::FragMergeStore`]: [`FlatStore::new`] is
/// the paper's algorithm, [`FlatStore::without_merging`] the
/// fragmentation-only ablation, [`FlatStore::with_budget`] the graceful
/// degradation mode (same conservative `RMA_Write` coalescing).
pub struct FlatStore {
    /// The arena: sorted by `interval.lo`, pairwise disjoint. `clear`
    /// keeps the capacity, so a long-running per-(rank, window) store
    /// stops allocating after its first epoch warms the buffer.
    v: Vec<MemAccess>,
    stats: StoreStats,
    merge_enabled: bool,
    /// Node-count cap for graceful degradation (see
    /// [`crate::FragMergeStore::with_budget`]; identical semantics).
    /// Packed: `0` means unbounded (real caps are clamped to ≥ 2).
    budget: u32,
    /// Cached bounding interval — the cheap-reject fast path, same rule
    /// as the AVL engine: strictly outside (not touching) the hull means
    /// no conflict and no merge partner, so the access is spliced in
    /// directly and counted in [`StoreStats::fast_hits`]. Packed as a
    /// raw pair (`lo > hi` means empty) to keep the struct — and the
    /// per-store allocation every replay pays for — small.
    hull_lo: Addr,
    hull_hi: Addr,
    /// Cumulative count of elements displaced by mid-vec splices — the
    /// contention probe [`crate::AdaptiveStore`] uses to decide when the
    /// flat layout has started paying quadratic `memmove` costs.
    shifted: u64,
    /// Scratch buffer reused across insertions (allocation-free once
    /// warm).
    frags: Vec<MemAccess>,
}

impl Default for FlatStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatStore {
    /// An empty store with merging enabled (the paper's algorithm).
    #[inline]
    pub fn new() -> Self {
        FlatStore {
            v: Vec::new(),
            stats: StoreStats::default(),
            merge_enabled: true,
            budget: 0,
            hull_lo: 1,
            hull_hi: 0,
            shifted: 0,
            frags: Vec::new(),
        }
    }

    /// An empty store running fragmentation only (ablation).
    #[inline]
    pub fn without_merging() -> Self {
        FlatStore { merge_enabled: false, ..Self::new() }
    }

    /// An empty store with a node budget (clamped to at least 2); same
    /// degradation contract as [`crate::FragMergeStore::with_budget`].
    #[inline]
    pub fn with_budget(cap: usize) -> Self {
        FlatStore { budget: u32::try_from(cap.max(2)).unwrap_or(u32::MAX), ..Self::new() }
    }

    /// A budgeted store with the merging pass disabled.
    #[inline]
    pub fn without_merging_budgeted(cap: usize) -> Self {
        FlatStore { merge_enabled: false, ..Self::with_budget(cap) }
    }

    /// The node budget, if one was set.
    pub fn budget(&self) -> Option<usize> {
        (self.budget != 0).then_some(self.budget as usize)
    }

    /// Is the merging pass enabled?
    pub fn merging_enabled(&self) -> bool {
        self.merge_enabled
    }

    /// Cumulative elements displaced by mid-vec insertions — the
    /// contention signal behind adaptive promotion. Monotone within an
    /// engine's lifetime; `clear` does *not* reset it (churny epochs keep
    /// churning).
    pub fn shifted(&self) -> u64 {
        self.shifted
    }

    /// First index whose stored interval could intersect or follow an
    /// interval starting at `lo`: the least `i` with `v[i].hi >= lo`
    /// (stored intervals are disjoint and sorted, so their `hi`s are
    /// sorted too).
    ///
    /// Gallops from the end first — appends and hot-tail traffic resolve
    /// in O(log distance-from-end) touching only cache-resident tail
    /// elements — then finishes with a branchless binary search over the
    /// bracket.
    #[inline]
    fn lower_bound(&self, lo: Addr) -> usize {
        let v = &self.v;
        let n = v.len();
        if n == 0 || v[n - 1].interval.hi < lo {
            return n; // strict append: O(1)
        }
        // Gallop: double the look-back until v[n-1-back] is left of `lo`
        // (or the whole vec is bracketed).
        let mut back = 1usize;
        while back < n && v[n - 1 - back].interval.hi >= lo {
            back = back.saturating_mul(2);
        }
        let (mut base, mut len) = if back >= n { (0, n) } else { (n - back, back) };
        // Branchless binary search: the bracket invariant is that the
        // answer lies in [base, base + len).
        while len > 1 {
            let half = len / 2;
            base += usize::from(v[base + half - 1].interval.hi < lo) * half;
            len -= half;
        }
        base
    }

    /// The contiguous run of stored accesses intersecting or touching
    /// `iv` (the widened step-2 query), as an index range.
    #[inline]
    fn overlap_run(&self, iv: Interval) -> (usize, usize) {
        let q = iv.widened();
        let start = self.lower_bound(q.lo);
        let mut end = start;
        while end < self.v.len() && self.v[end].interval.lo <= q.hi {
            end += 1;
        }
        (start, end)
    }

    /// Step 1 of Algorithm 1: is there a stored access racing with
    /// `acc`? Non-mutating. Visits candidates in address order, so the
    /// *first* conflicting stored access reported is the same one the
    /// AVL engine's in-order overlap walk finds.
    pub fn check(&self, acc: &MemAccess) -> Option<RaceReport> {
        if self.hull_lo > self.hull_hi
            || acc.interval.lo > self.hull_hi
            || acc.interval.hi < self.hull_lo
        {
            return None;
        }
        let start = self.lower_bound(acc.interval.lo);
        for stored in &self.v[start..] {
            if stored.interval.lo > acc.interval.hi {
                break;
            }
            if conflicts(stored, acc) {
                return Some(RaceReport::new(*stored, *acc));
            }
        }
        None
    }

    /// Steps 2–5 of Algorithm 1 for an access already proved race-free:
    /// the widened overlap run is fragmented and merged through the
    /// *shared* passes, then spliced back in place.
    fn apply(&mut self, acc: MemAccess) {
        let (start, end) = self.overlap_run(acc.interval);

        let mut frags = std::mem::take(&mut self.frags);
        fragment_accesses(&self.v[start..end], &acc, &mut frags);
        self.stats.fragments += frags.len();
        if self.merge_enabled {
            self.stats.merges += merge_accesses(&mut frags);
        }
        self.splice(start, end, &frags);
        self.frags = frags;

        self.stats.len = self.v.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        self.grow_hull(acc.interval);
        if self.budget != 0 && self.v.len() > self.budget as usize {
            self.coalesce_to(self.budget as usize / 2);
        }
    }

    /// Replaces `v[start..end]` by `repl`, counting displaced tail
    /// elements into the contention probe. The equal-length case (by far
    /// the most common: idempotent re-insertions, absorbed accesses,
    /// 1-for-1 fragment swaps) is a straight `copy_from_slice` with no
    /// tail movement at all.
    fn splice(&mut self, start: usize, end: usize, repl: &[MemAccess]) {
        if repl.len() == end - start {
            self.v[start..end].copy_from_slice(repl);
        } else {
            self.shifted += (self.v.len() - end) as u64;
            self.v.splice(start..end, repl.iter().copied());
        }
    }

    /// Direct insertion of an access proved isolated (the fast path):
    /// steps 2–4 degenerate to `frags = [acc]`, so the node is spliced
    /// in at its sorted position with no overlap query.
    fn insert_isolated(&mut self, acc: MemAccess) {
        let i = self.lower_bound(acc.interval.lo);
        if i == self.v.len() {
            self.v.push(acc);
        } else {
            self.shifted += (self.v.len() - i) as u64;
            self.v.insert(i, acc);
        }
        self.stats.fragments += 1;
        self.stats.len = self.v.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        self.grow_hull(acc.interval);
        if self.budget != 0 && self.v.len() > self.budget as usize {
            self.coalesce_to(self.budget as usize / 2);
        }
    }

    /// Budget degradation through the shared plan — degraded contents
    /// are byte-identical to the AVL engine's.
    fn coalesce_to(&mut self, target: usize) {
        let Some(merged) = coalesce_plan(&self.v, target) else {
            return;
        };
        self.stats.coalesced += self.v.len() - merged.len();
        self.v.clear();
        self.v.extend_from_slice(&merged);
        self.stats.len = self.v.len();
    }

    /// Widens the cached bounding interval to cover `iv`.
    fn grow_hull(&mut self, iv: Interval) {
        if self.hull_lo > self.hull_hi {
            (self.hull_lo, self.hull_hi) = (iv.lo, iv.hi);
        } else {
            self.hull_lo = self.hull_lo.min(iv.lo);
            self.hull_hi = self.hull_hi.max(iv.hi);
        }
    }

    /// Checks the sorted-disjoint invariant (test helper). Panics on
    /// violation.
    pub fn assert_disjoint(&self) {
        for w in self.v.windows(2) {
            assert!(
                w[0].interval.hi < w[1].interval.lo,
                "stored intervals overlap or are unsorted: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

impl AccessStore for FlatStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        self.stats.recorded += 1;

        // Cheap-reject fast path, same rule as the AVL engine: strictly
        // outside the hull (not touching it) means nothing stored can
        // conflict, fragment or merge with this access. (An empty hull
        // has `lo > hi`, so both touch tests fail and the access goes
        // straight in — same behaviour as the AVL engine on an empty
        // tree.)
        if acc.interval.lo > self.hull_hi.saturating_add(1)
            || acc.interval.hi.saturating_add(1) < self.hull_lo
            || self.hull_lo > self.hull_hi
        {
            self.stats.fast_hits += 1;
            self.insert_isolated(acc);
            return Ok(());
        }

        if let Some(report) = self.check(&acc) {
            self.stats.races += 1;
            return Err(Box::new(report));
        }

        self.apply(acc);
        Ok(())
    }

    fn len(&self) -> usize {
        self.v.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats { len: self.v.len(), ..self.stats }
    }

    fn clear(&mut self) {
        self.stats.on_clear(self.v.len());
        self.v.clear(); // keeps capacity: the arena survives the epoch
        (self.hull_lo, self.hull_hi) = (1, 0);
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.v.clone()
    }

    /// Exact rollback, mirroring [`crate::FragMergeStore::restore`]: the
    /// snapshot is copied in verbatim (no re-record, no statistics
    /// drift, no re-merging of budget-coalesced chunks) and the hull is
    /// rebuilt from the snapshot bounds — a pre-restore hull can never
    /// survive.
    fn restore(&mut self, snap: &[MemAccess]) {
        self.v.clear();
        self.v.extend_from_slice(snap);
        (self.hull_lo, self.hull_hi) = match (snap.first(), snap.last()) {
            (Some(f), Some(l)) => (f.interval.lo, l.interval.hi),
            _ => (1, 0),
        };
        self.stats.len = self.v.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmerge::FragMergeStore;
    use crate::{AccessKind, RankId, SrcLoc};
    use AccessKind::*;

    fn acc(lo: u64, hi: u64, kind: AccessKind, line: u32) -> MemAccess {
        acc_by(lo, hi, kind, 0, line)
    }

    fn acc_by(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            kind,
            RankId(rank),
            SrcLoc::synthetic("code.c", line),
        )
    }

    /// Code 1 / Figure 5b on the flat engine: the Store(7) race IS
    /// caught, with the same report the AVL engine produces.
    #[test]
    fn code1_race_detected() {
        let mut s = FlatStore::new();
        s.record(acc(4, 4, LocalRead, 1)).unwrap();
        s.record(acc(2, 12, RmaRead, 2)).unwrap();
        let err = s.record(acc(7, 7, LocalWrite, 3)).unwrap_err();
        assert_eq!(err.existing.kind, RmaRead);
        assert_eq!(err.existing.loc.line, 2);
        s.assert_disjoint();
    }

    /// The gallop + branchless lower bound against a brute-force scan,
    /// over every probe address of a fixed layout.
    #[test]
    fn lower_bound_matches_linear_scan() {
        let mut s = FlatStore::new();
        for i in 0..40u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
        }
        for probe in 0..420u64 {
            let want = s.v.iter().position(|a| a.interval.hi >= probe).unwrap_or(s.v.len());
            assert_eq!(s.lower_bound(probe), want, "probe {probe}");
        }
        assert_eq!(s.lower_bound(0), 0);
        assert_eq!(s.lower_bound(Addr::MAX), s.v.len());
    }

    /// Appends never displace elements; a mid-vec insert displaces the
    /// tail and the probe counts it.
    #[test]
    fn shifted_counts_mid_vec_displacement() {
        let mut s = FlatStore::new();
        for i in 0..10u64 {
            s.record(acc(i * 100, i * 100 + 3, LocalRead, 1)).unwrap();
        }
        assert_eq!(s.shifted(), 0, "ascending appends are O(1)");
        s.record(acc(50, 53, LocalRead, 1)).unwrap(); // before 9 stored nodes
        assert_eq!(s.shifted(), 9);
    }

    /// Differential: randomized sequences give identical contents,
    /// verdicts and statistics to the AVL engine. (The heavyweight
    /// campaign lives in tests/engine_prop.rs; this is the in-crate
    /// smoke version.)
    #[test]
    fn matches_fragmerge_on_mixed_sequences() {
        let kinds = [LocalRead, LocalWrite, RmaRead, RmaWrite, RmaAccum];
        let mut x = 0x9E37_79B9_97F4_A7C1u64;
        let mut flat = FlatStore::new();
        let mut tree = FragMergeStore::new();
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lo = x % 2048;
            let width = (x >> 11) % 64;
            let a = acc_by(
                lo,
                lo + width,
                kinds[(x >> 20) as usize % kinds.len()],
                (x >> 30) as u32 % 3,
                (x >> 40) as u32 % 7,
            );
            let f = flat.record(a);
            let t = tree.record(a);
            assert_eq!(f, t, "verdict diverged at step {step} on {a:?}");
            if step % 512 == 511 {
                flat.clear();
                tree.clear();
            }
        }
        assert_eq!(flat.snapshot(), tree.snapshot());
        assert_eq!(flat.stats(), tree.stats());
        flat.assert_disjoint();
    }

    /// Same differential under a tiny budget: the shared coalesce plan
    /// keeps degraded contents byte-identical.
    #[test]
    fn budgeted_matches_fragmerge() {
        let mut flat = FlatStore::with_budget(8);
        let mut tree = FragMergeStore::with_budget(8);
        for i in 0..200u64 {
            let a = acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32);
            assert_eq!(flat.record(a), tree.record(a));
        }
        assert_eq!(flat.snapshot(), tree.snapshot());
        assert_eq!(flat.stats(), tree.stats());
        assert!(flat.stats().coalesced > 0);
        let gap = acc(55, 56, LocalRead, 999);
        assert_eq!(flat.record(gap).is_err(), tree.record(gap).is_err());
    }

    /// Fast path bookkeeping matches the AVL engine exactly (same hull
    /// rule, same counts), and `clear` keeps the arena capacity.
    #[test]
    fn fast_path_and_arena_reuse() {
        let mut s = FlatStore::new();
        s.record(acc(10, 19, LocalRead, 1)).unwrap();
        s.record(acc(40, 49, LocalRead, 1)).unwrap();
        assert_eq!(s.stats().fast_hits, 2);
        s.record(acc(20, 29, LocalRead, 1)).unwrap(); // touching: slow path
        assert_eq!(s.stats().fast_hits, 2);
        assert_eq!(
            s.snapshot().iter().map(|a| a.interval).collect::<Vec<_>>(),
            vec![Interval::new(10, 29), Interval::new(40, 49)]
        );
        let cap = s.v.capacity();
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.v.capacity(), cap, "clear must keep the arena");
        s.record(acc_by(10, 19, LocalWrite, 0, 2)).unwrap();
        assert_eq!(s.stats().fast_hits, 3, "clear must reset the cached hull");
    }

    /// Restore is exact and can never resurrect a pre-restore hull: an
    /// access over memory only the rolled-back suffix covered must take
    /// the fast path and must not conflict.
    #[test]
    fn restore_is_exact_and_shrinks_hull() {
        let mut s = FlatStore::new();
        s.record(acc(10, 19, RmaWrite, 1)).unwrap();
        let snap = s.snapshot();
        s.record(acc(60, 99, RmaWrite, 2)).unwrap();
        s.restore(&snap);
        assert_eq!(s.snapshot(), snap);
        let fast = s.stats().fast_hits;
        s.record(acc_by(60, 99, LocalWrite, 1, 3)).unwrap();
        assert_eq!(s.stats().fast_hits, fast + 1, "stale hull must not linger");
    }

    /// Interval ending at Addr::MAX: gallop and cursor arithmetic must
    /// not overflow.
    #[test]
    fn interval_at_addr_max() {
        let mut s = FlatStore::new();
        s.record(acc(Addr::MAX - 9, Addr::MAX, LocalRead, 1)).unwrap();
        s.record(acc(Addr::MAX - 4, Addr::MAX, LocalRead, 1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot()[0].interval, Interval::new(Addr::MAX - 9, Addr::MAX));
    }
}

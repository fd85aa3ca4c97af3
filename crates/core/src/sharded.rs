//! Range-sharded access stores: the detection hot path.
//!
//! [`ShardedStore`] partitions the address space into N contiguous range
//! shards, each backed by an independent inner store. `record`/`check`
//! route only to the shards a new interval overlaps; an interval
//! straddling a cut is split into per-shard pieces, and a racing access
//! is reported once (the first conflicting shard in address order wins
//! — races are deduplicated, and the report carries the *original*
//! interval, not the piece).
//!
//! On top of the routing, the wrapper keeps a **cheap-reject fast
//! path**: a cached global bounding interval plus one per shard, tagged
//! with an epoch generation counter (bumped on `clear`, so invalidation
//! is O(1) instead of O(shards)). A new access that does not intersect
//! *or touch* the cached hull of a shard provably cannot conflict with
//! — or merge into — anything stored there, so the piece is inserted
//! directly ([`ShardableStore::record_isolated`]) and the inner search
//! is skipped entirely. Touching accesses deliberately take the slow path:
//! they cannot race, but the merging pass may fuse them, and skipping it
//! would change the stored contents. [`StoreStats::fast_hits`] counts
//! *logical* accesses whose every piece cheap-rejected (never pieces, so
//! `fast_hits <= recorded` always);
//! [`StoreStats::shards`]/[`StoreStats::peak_shard_len`] expose shard
//! occupancy.
//!
//! A store constructed with **one shard** degenerates to a true
//! passthrough: `record`/`clear`/`restore`/`stats` forward straight to
//! the inner store with no boundary routing, no piece splitting and no
//! wrapper hull bookkeeping, so a one-shard store costs nothing over
//! the unwrapped store.
//!
//! The production inner store is [`crate::FlatStore`], inside
//! [`crate::AdaptiveStore`] after promotion; the tree
//! [`crate::FragMergeStore`] is the unsharded reference it is checked
//! against.
//!
//! # Equivalence
//!
//! For every address, the stored (kind, issuer, loc) content of a
//! sharded fragmenting store equals the plain store's: fragmentation and
//! Table 1 combination are per-address operations, and the merging pass
//! only ever fuses *adjacent same-provenance* fragments, which cannot
//! change per-address content — splitting at shard cuts merely prevents
//! some fusions (more nodes, same bytes). A conflicting stored access
//! intersects the new interval, hence intersects at least one of its
//! pieces, hence is found by that piece's shard. So race-or-not verdicts
//! are identical to the unsharded store; the differential property
//! campaign in `tests/sharded_prop.rs` checks exactly this.

use crate::access::MemAccess;
use crate::interval::{Addr, Interval};
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};

/// The extra surface an inner store must expose to be sharded: a
/// non-mutating conflict check and two insertion entry points that skip
/// work [`ShardedStore`] has already done.
pub trait ShardableStore: AccessStore {
    /// Is there a stored access racing with `acc`? Non-mutating; no
    /// statistics side effects.
    fn check_access(&self, acc: &MemAccess) -> Option<RaceReport>;

    /// Inserts an access the caller has already proved race-free
    /// (full fragment/merge pipeline, no repeated conflict check).
    fn record_unchecked(&mut self, acc: MemAccess);

    /// Inserts an access the caller has proved **isolated** — it neither
    /// intersects nor touches anything stored — so the store may skip
    /// its overlap query outright and insert the node directly.
    fn record_isolated(&mut self, acc: MemAccess);
}

/// Range-sharded wrapper over a [`ShardableStore`] (see module docs).
///
/// Construct with [`ShardedStore::new`] for a full-`u64` address domain
/// or [`ShardedStore::with_domain`] to split a known window's address
/// range evenly (addresses outside the domain clamp to the edge shards,
/// so the domain is a load-balancing hint, never a correctness
/// requirement).
pub struct ShardedStore<S> {
    shards: Vec<S>,
    /// `boundaries[i]` is the first address owned by shard `i + 1`;
    /// shard 0 extends down to address 0 and the last shard up to
    /// `Addr::MAX`.
    boundaries: Vec<Addr>,
    /// Top-level statistics: `recorded`/`races`/`fast_hits` and the
    /// epoch counters are kept here (each logical access counts once,
    /// however many pieces it split into); tree-shape counters are
    /// aggregated from the shards on demand.
    stats: StoreStats,
    /// Epoch generation; bumped on `clear`/`restore`.
    generation: u64,
    /// Generation the cached hulls belong to; when it trails
    /// `generation` the hulls are stale and read as empty.
    hull_generation: u64,
    /// Cached bounding interval of everything stored (this generation).
    hull: Option<Interval>,
    /// Per-shard bounding intervals (this generation).
    shard_hulls: Vec<Option<Interval>>,
}

impl<S: ShardableStore> ShardedStore<S> {
    /// `nshards` shards (clamped to at least 1) evenly splitting the
    /// full `u64` address space, each built by `factory`.
    pub fn new(nshards: usize, factory: impl FnMut() -> S) -> Self {
        Self::with_domain(nshards, Interval::new(0, Addr::MAX), factory)
    }

    /// `nshards` shards evenly splitting `domain` (clamped so no shard
    /// is narrower than one address). Pass the address range accesses
    /// actually land in — e.g. a window's `[base, base + len)` — so the
    /// shards balance; out-of-domain addresses clamp to the edge shards.
    pub fn with_domain(nshards: usize, domain: Interval, mut factory: impl FnMut() -> S) -> Self {
        let span = (domain.hi - domain.lo) as u128 + 1;
        let n = (nshards.max(1) as u128).min(span);
        let step = span / n;
        let boundaries: Vec<Addr> =
            (1..n).map(|i| domain.lo + (i * step) as Addr).collect();
        let shards: Vec<S> = (0..=boundaries.len()).map(|_| factory()).collect();
        let shard_hulls = vec![None; shards.len()];
        ShardedStore {
            shards,
            boundaries,
            stats: StoreStats::default(),
            generation: 0,
            hull_generation: 0,
            hull: None,
            shard_hulls,
        }
    }

    /// Number of range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current node count per shard, in address order (diagnostics).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The interior cut addresses (diagnostics/tests).
    pub fn boundaries(&self) -> &[Addr] {
        &self.boundaries
    }

    /// Shard owning address `a`.
    fn shard_of(&self, a: Addr) -> usize {
        self.boundaries.partition_point(|&b| b <= a)
    }

    fn shard_lo(&self, s: usize) -> Addr {
        if s == 0 {
            0
        } else {
            self.boundaries[s - 1]
        }
    }

    fn shard_hi(&self, s: usize) -> Addr {
        if s == self.shards.len() - 1 {
            Addr::MAX
        } else {
            self.boundaries[s] - 1
        }
    }

    /// The part of `iv` owned by shard `s` (callers guarantee overlap).
    fn piece(&self, iv: &Interval, s: usize) -> Interval {
        Interval::new(iv.lo.max(self.shard_lo(s)), iv.hi.min(self.shard_hi(s)))
    }

    /// Lazily invalidates the hull cache after a generation bump.
    fn refresh_hulls(&mut self) {
        if self.hull_generation != self.generation {
            self.hull = None;
            self.shard_hulls.iter_mut().for_each(|h| *h = None);
            self.hull_generation = self.generation;
        }
    }
}

impl<S: ShardableStore> AccessStore for ShardedStore<S> {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        // Degenerate single-shard store: a true passthrough. No boundary
        // routing, no piece splitting, no wrapper hull bookkeeping — the
        // inner store's own fast path and statistics do all the work, so
        // `shards = 1` costs nothing over the unwrapped store.
        if self.shards.len() == 1 {
            return self.shards[0].record(acc);
        }
        self.stats.recorded += 1;
        self.refresh_hulls();
        let first = self.shard_of(acc.interval.lo);
        let last = self.shard_of(acc.interval.hi);
        // Cheap reject: disjoint from (and not touching) everything
        // stored ⇒ no conflict and no merge partner anywhere.
        let global_miss =
            !self.hull.is_some_and(|h| acc.interval.intersects_or_touches(&h));

        // Phase 1 — check every overlapped shard before mutating any:
        // inserting earlier pieces first could mask a later piece's race
        // behind the store's own fragments.
        if !global_miss {
            for s in first..=last {
                let piece = self.piece(&acc.interval, s);
                if !self.shard_hulls[s].is_some_and(|h| piece.intersects_or_touches(&h)) {
                    continue;
                }
                if let Some(hit) = self.shards[s].check_access(&acc.with_interval(piece)) {
                    self.stats.races += 1;
                    // One report per access (dedup), carrying the full
                    // original interval.
                    return Err(Box::new(RaceReport::new(hit.existing, acc)));
                }
            }
        }

        // Phase 2 — insert all pieces; per-shard hull misses still take
        // the isolated fast path even when the global hull was hit.
        // `fast_hits` counts *logical* accesses, not pieces: a crossing
        // interval whose every piece cheap-rejects is one fast hit, and
        // an access with any slow piece is none — so the counter can
        // never exceed `recorded` (the invariant the differential
        // campaign asserts).
        let mut all_fast = true;
        for s in first..=last {
            let piece = self.piece(&acc.interval, s);
            let slow = !global_miss
                && self.shard_hulls[s].is_some_and(|h| piece.intersects_or_touches(&h));
            if slow {
                all_fast = false;
                self.shards[s].record_unchecked(acc.with_interval(piece));
            } else {
                self.shards[s].record_isolated(acc.with_interval(piece));
            }
            self.shard_hulls[s] = Some(match self.shard_hulls[s] {
                None => piece,
                Some(h) => h.hull(&piece),
            });
            self.stats.peak_shard_len = self.stats.peak_shard_len.max(self.shards[s].len());
        }
        if all_fast {
            self.stats.fast_hits += 1;
        }
        self.hull = Some(match self.hull {
            None => acc.interval,
            Some(h) => h.hull(&acc.interval),
        });
        self.stats.len = self.shards.iter().map(|s| s.len()).sum();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        Ok(())
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn stats(&self) -> StoreStats {
        // Single-shard passthrough: the inner store keeps every counter
        // (see `record`); only the shard-shape fields are overlaid.
        if self.shards.len() == 1 {
            let inner = self.shards[0].stats();
            return StoreStats { shards: 1, peak_shard_len: inner.peak_len, ..inner };
        }
        let mut inner = StoreStats::default();
        for s in &self.shards {
            inner.absorb(&s.stats());
        }
        StoreStats {
            len: inner.len,
            peak_len: self.stats.peak_len,
            recorded: self.stats.recorded,
            races: self.stats.races,
            fragments: inner.fragments,
            merges: inner.merges,
            coalesced: inner.coalesced,
            brownouts: inner.brownouts,
            epochs: self.stats.epochs,
            cum_epoch_end_len: self.stats.cum_epoch_end_len,
            fast_hits: self.stats.fast_hits,
            shards: self.shards.len(),
            peak_shard_len: self.stats.peak_shard_len,
        }
    }

    fn clear(&mut self) {
        if self.shards.len() == 1 {
            self.shards[0].clear(); // passthrough: inner epoch accounting
            return;
        }
        let len = self.len();
        self.stats.on_clear(len);
        for s in &mut self.shards {
            s.clear();
        }
        // O(1) invalidation of every cached hull.
        self.generation += 1;
    }

    /// Concatenation of the per-shard snapshots: shards partition the
    /// address space in order, so the result is globally address-sorted.
    fn snapshot(&self) -> Vec<MemAccess> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            out.extend(s.snapshot());
        }
        out
    }

    /// Exact rollback: routes each snapshot entry to its shards (pieces
    /// split at cuts) and restores every shard directly, then rebuilds
    /// the hull cache — no re-record, no statistics drift.
    fn restore(&mut self, snap: &[MemAccess]) {
        if self.shards.len() == 1 {
            self.shards[0].restore(snap); // passthrough: no routing
            return;
        }
        let n = self.shards.len();
        let mut per: Vec<Vec<MemAccess>> = vec![Vec::new(); n];
        for acc in snap {
            let first = self.shard_of(acc.interval.lo);
            let last = self.shard_of(acc.interval.hi);
            for (s, bucket) in per.iter_mut().enumerate().take(last + 1).skip(first) {
                bucket.push(acc.with_interval(self.piece(&acc.interval, s)));
            }
        }
        self.generation += 1;
        self.hull_generation = self.generation;
        self.hull = bounding(snap);
        let mut total = 0;
        let mut widest = 0;
        for (s, accs) in per.iter().enumerate() {
            self.shards[s].restore(accs);
            total += self.shards[s].len();
            widest = widest.max(self.shards[s].len());
            self.shard_hulls[s] = bounding(accs);
        }
        self.stats.len = total;
        self.stats.peak_len = self.stats.peak_len.max(total);
        // Shard occupancy is *recomputed* from the restored contents, not
        // carried over from the rolled-back (or, on a fresh store, never
        // observed) history: a rollback must not report peaks of work it
        // just undid, and a fresh store restored from a checkpoint must
        // report the occupancy it actually holds.
        self.stats.peak_shard_len = widest;
    }
}

/// Bounding interval of a set of accesses (`None` when empty).
fn bounding(accs: &[MemAccess]) -> Option<Interval> {
    accs.iter().map(|a| a.interval).reduce(|a, b| a.hull(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatStore;
    use crate::{AccessKind, RankId, SrcLoc};
    use AccessKind::*;

    fn acc_by(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            kind,
            RankId(rank),
            SrcLoc::synthetic("code.c", line),
        )
    }

    fn acc(lo: u64, hi: u64, kind: AccessKind, line: u32) -> MemAccess {
        acc_by(lo, hi, kind, 0, line)
    }

    fn sharded(n: usize, domain: Interval) -> ShardedStore<FlatStore> {
        ShardedStore::with_domain(n, domain, FlatStore::new)
    }

    /// Even split of a small domain: cuts at 25/50/75.
    #[test]
    fn domain_partition_cuts() {
        let s = sharded(4, Interval::new(0, 99));
        assert_eq!(s.boundaries(), &[25, 50, 75]);
        assert_eq!(s.shard_count(), 4);
    }

    /// More shards than addresses degrades to one shard per address.
    #[test]
    fn tiny_domain_clamps_shard_count() {
        let s = sharded(16, Interval::new(10, 12));
        assert_eq!(s.shard_count(), 3);
    }

    /// A straddling interval splits; the snapshot still reads back in
    /// address order and `len` counts the pieces.
    #[test]
    fn cross_shard_interval_splits() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc(20, 60, LocalRead, 1)).unwrap();
        assert_eq!(s.shard_lens(), vec![1, 1, 1, 0]);
        let snap = s.snapshot();
        let ivs: Vec<_> = snap.iter().map(|a| a.interval).collect();
        assert_eq!(
            ivs,
            vec![Interval::new(20, 24), Interval::new(25, 49), Interval::new(50, 60)]
        );
    }

    /// An access conflicting in several shards reports exactly one race,
    /// carrying the original (unsplit) new interval, and leaves every
    /// shard unchanged.
    #[test]
    fn races_dedup_across_shards() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc_by(0, 99, RmaWrite, 1, 7)).unwrap();
        let before = s.snapshot();
        let err = s.record(acc_by(10, 90, LocalWrite, 0, 8)).unwrap_err();
        assert_eq!(err.new.interval, Interval::new(10, 90), "report carries the original");
        assert_eq!(s.snapshot(), before, "rejected access must not be inserted");
        assert_eq!(s.stats().races, 1);
    }

    /// Disjoint accesses take the fast path; a touching one must not
    /// (the merging pass needs to see it).
    #[test]
    fn fast_path_counts_and_touching_takes_slow_path() {
        let mut s = sharded(1, Interval::new(0, 999));
        s.record(acc(10, 19, LocalRead, 1)).unwrap(); // empty store: fast
        s.record(acc(40, 49, LocalRead, 1)).unwrap(); // gap of 20: fast
        assert_eq!(s.stats().fast_hits, 2);
        s.record(acc(20, 29, LocalRead, 1)).unwrap(); // touches [10,19]
        assert_eq!(s.stats().fast_hits, 2, "touching access must take the slow path");
        assert_eq!(
            s.snapshot().iter().map(|a| a.interval).collect::<Vec<_>>(),
            vec![Interval::new(10, 29), Interval::new(40, 49)],
            "merging across the fast-path cache must still happen"
        );
    }

    /// `clear` invalidates the cached hulls via the generation counter:
    /// a post-clear access over the old hot range is a fast hit again.
    #[test]
    fn clear_invalidates_hull_by_generation() {
        let mut s = sharded(2, Interval::new(0, 99));
        s.record(acc(0, 99, RmaRead, 1)).unwrap();
        s.clear();
        assert_eq!(s.len(), 0);
        let fast_before = s.stats().fast_hits;
        s.record(acc_by(0, 99, LocalWrite, 1, 2)).unwrap();
        assert_eq!(
            s.stats().fast_hits,
            fast_before + 1,
            "stale hull must read as empty — and one logical access is ONE fast hit, \
             however many shard pieces it split into"
        );
    }

    /// `fast_hits` counts logical accesses, not pieces: a crossing
    /// interval whose pieces all cheap-reject is one hit; a mixed
    /// fast/slow access is none; the counter never exceeds `recorded`.
    #[test]
    fn crossing_fast_hit_counts_once_per_logical_access() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc(20, 60, LocalRead, 1)).unwrap(); // empty: all pieces fast
        assert_eq!(s.stats().fast_hits, 1, "3 pieces, 1 logical fast hit");
        s.record(acc_by(40, 55, LocalRead, 0, 1)).unwrap(); // overlaps: slow somewhere
        assert_eq!(s.stats().fast_hits, 1, "an access with a slow piece is no fast hit");
        s.record(acc(90, 95, LocalRead, 2)).unwrap(); // isolated single piece
        let st = s.stats();
        assert_eq!(st.fast_hits, 2);
        assert!(st.fast_hits <= st.recorded, "{st:?}");
    }

    /// One shard is a true passthrough: statistics match the unwrapped
    /// store field for field (modulo the shard-shape overlay), including
    /// the epoch accounting and the fast path.
    #[test]
    fn single_shard_is_passthrough() {
        let mut plain = FlatStore::new();
        let mut one = sharded(1, Interval::new(0, 999));
        let seq = [
            acc(10, 19, LocalRead, 1),
            acc(40, 49, LocalRead, 1),
            acc(20, 29, LocalRead, 1),
            acc_by(200, 220, RmaRead, 1, 2),
        ];
        for a in seq {
            assert_eq!(plain.record(a).is_err(), one.record(a).is_err());
        }
        plain.clear();
        one.clear();
        for a in seq {
            let _ = plain.record(a);
            let _ = one.record(a);
        }
        assert_eq!(one.snapshot(), plain.snapshot());
        let (p, o) = (plain.stats(), one.stats());
        assert_eq!(o, StoreStats { shards: 1, peak_shard_len: p.peak_len, ..p });
        // Racy access still rejected identically.
        assert_eq!(
            plain.record(acc_by(205, 210, LocalWrite, 0, 9)).is_err(),
            one.record(acc_by(205, 210, LocalWrite, 0, 9)).is_err()
        );
        assert_eq!(one.stats().races, plain.stats().races);
    }

    /// Restore can never resurrect a pre-snapshot hull, and shard
    /// occupancy is recomputed from the restored contents: a rolled-back
    /// region reads as empty (fast path + no conflict), and a fresh
    /// store restored from a checkpoint reports the occupancy it holds.
    #[test]
    fn restore_shrinks_hull_and_recomputes_peaks() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc(10, 19, RmaWrite, 1)).unwrap();
        let snap = s.snapshot();
        s.record(acc(60, 99, RmaWrite, 2)).unwrap(); // grows hull + peaks
        let dirty_peak = s.stats().peak_shard_len;
        s.restore(&snap);
        // The rolled-back region [60, 99] must read as empty: a local
        // write there would race with the undone RMA write if any cached
        // hull or shard content survived the rollback.
        let fast_before = s.stats().fast_hits;
        s.record(acc_by(60, 99, LocalWrite, 1, 3)).unwrap();
        assert_eq!(s.stats().fast_hits, fast_before + 1, "rolled-back region must fast-hit");

        // Fresh store, same checkpoint: occupancy must be visible, not
        // carried over as zero.
        let mut fresh = sharded(4, Interval::new(0, 99));
        fresh.restore(&snap);
        assert_eq!(fresh.stats().peak_shard_len, 1, "restored occupancy is recomputed");
        assert!(fresh.stats().peak_shard_len <= dirty_peak);
    }

    /// Full-`u64` addresses and a full-domain interval across 16 shards.
    #[test]
    fn full_u64_domain_and_interval() {
        let mut s = ShardedStore::new(16, FlatStore::new);
        s.record(acc(0, Addr::MAX, LocalRead, 1)).unwrap();
        assert_eq!(s.len(), 16);
        s.record(acc(Addr::MAX, Addr::MAX, LocalRead, 1)).unwrap();
        assert_eq!(s.len(), 16, "duplicate tail byte merges into the last piece");
        let err = s.record(acc_by(Addr::MAX - 10, Addr::MAX, RmaWrite, 1, 9)).unwrap_err();
        assert_eq!(err.new.interval, Interval::new(Addr::MAX - 10, Addr::MAX));
    }

    /// Out-of-domain addresses clamp to the edge shards instead of
    /// faulting: the domain is a balancing hint only.
    #[test]
    fn out_of_domain_addresses_clamp() {
        let mut s = sharded(4, Interval::new(1000, 1999));
        s.record(acc(0, 10, LocalRead, 1)).unwrap();
        s.record(acc(5000, 5010, LocalRead, 2)).unwrap();
        assert_eq!(s.shard_lens(), vec![1, 0, 0, 1]);
    }

    /// Statistics: recorded counts logical accesses (not pieces), shard
    /// occupancy is surfaced, epoch accounting matches the plain store's.
    #[test]
    fn stats_shape() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc(20, 60, LocalRead, 1)).unwrap();
        s.record(acc(90, 95, LocalRead, 2)).unwrap();
        let st = s.stats();
        assert_eq!(st.recorded, 2);
        assert_eq!(st.len, 4);
        assert_eq!(st.shards, 4);
        assert_eq!(st.peak_shard_len, 1);
        s.clear();
        let st = s.stats();
        assert_eq!((st.epochs, st.cum_epoch_end_len, st.len), (1, 4, 0));
    }

    /// snapshot/restore round-trips exactly, including the hull cache
    /// (a post-restore access over stored memory must not fast-path).
    #[test]
    fn snapshot_restore_round_trip() {
        let mut s = sharded(4, Interval::new(0, 99));
        s.record(acc(20, 60, LocalRead, 1)).unwrap();
        s.record(acc(70, 80, RmaRead, 2)).unwrap();
        let snap = s.snapshot();
        s.record(acc(90, 95, LocalRead, 3)).unwrap();
        s.restore(&snap);
        assert_eq!(s.snapshot(), snap);
        // The restored hull must still catch conflicts (no stale-empty
        // fast path): rank 1's local write under rank 0's RMA read races.
        assert!(s.record(acc_by(75, 78, LocalWrite, 1, 9)).is_err());
    }

    /// Budgeted shards still degrade conservatively: per-shard budgets
    /// coalesce, the coalesced counter aggregates, and a race over
    /// once-covered memory is still caught.
    #[test]
    fn budgeted_shards_stay_conservative() {
        let mut s = ShardedStore::with_domain(4, Interval::new(0, 9999), || {
            FlatStore::with_budget(4)
        });
        for i in 0..100u64 {
            s.record(acc_by(i * 100, i * 100 + 9, RmaRead, 1, i as u32)).unwrap();
        }
        assert!(s.stats().coalesced > 0);
        assert!(s.record(acc(500, 505, LocalWrite, 999)).is_err());
    }
}

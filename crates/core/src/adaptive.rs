//! The adaptive store: flat until the trace proves it needs more, then
//! blocked.
//!
//! The flat store keeps up with the tree on the 20-event corpus traces
//! of the hot-path benchmark (`bench_hotpath`) but pays quadratic
//! `memmove` tails on interleaved churn, which the blocked store caps at
//! one leaf. [`AdaptiveStore`] starts as a bare [`FlatStore`] — one vec,
//! the measured layout for small traces — and **promotes** to a
//! [`BlockedStore`] only when the store either grows past
//! [`AdaptiveCfg::promote_len`] nodes or the flat engine's displacement
//! probe ([`FlatStore::shifted`]) crosses
//! [`AdaptiveCfg::promote_shifted`] — i.e. when mid-vec insertion has
//! demonstrably started moving memory around. Small traces never pay for
//! scale; churny traces stop paying for flatness after a bounded prefix.
//!
//! Promotion is **exact**: the flat contents are snapshotted and
//! [`BlockedStore`]'s `restore` loads them (no re-record, no statistics
//! drift, no re-checking), and the retired engine's counters are carried
//! so [`AccessStore::stats`] reads continuously across the switch. Both
//! engines share the tree's fragment / merge / coalesce passes, so the
//! contents and statistics equal [`crate::FragMergeStore`]'s before and
//! after promotion. Promotion is sticky — a store that promoted once
//! stays blocked across `clear`s (epoch boundaries don't un-churn a
//! workload).

use crate::access::MemAccess;
use crate::blocked::BlockedStore;
use crate::flat::FlatStore;
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};

/// Tuning knobs for [`AdaptiveStore`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveCfg {
    /// Run the merging pass (Algorithm 1 step 4)? `false` is the
    /// fragmentation-only ablation.
    pub merging: bool,
    /// Node budget for the whole store, in both phases (same semantics
    /// as [`crate::FragMergeStore::with_budget`]); `None` is exact.
    pub budget: Option<usize>,
    /// Promote once the flat store holds this many nodes.
    pub promote_len: usize,
    /// Promote once the flat store has displaced this many elements in
    /// mid-vec splices (the contention probe): interleaved writers can
    /// thrash a small vec long before `promote_len` triggers.
    pub promote_shifted: u64,
}

impl Default for AdaptiveCfg {
    #[inline]
    fn default() -> Self {
        AdaptiveCfg { merging: true, budget: None, promote_len: 4096, promote_shifted: 1 << 18 }
    }
}

/// The blocked variant is boxed so the enum (and every unpromoted
/// store's allocation) stays [`FlatStore`]-sized — a per-(rank, window)
/// store is constructed per replay, so tiny traces must not pay for the
/// blocked engine's footprint (or an extra `StoreStats`) up front.
enum Inner {
    Flat(FlatStore),
    Blocked(Box<Promoted>),
}

/// Everything only a promoted store needs, behind one allocation.
struct Promoted {
    store: BlockedStore,
    /// Statistics of the retired flat engine (with `len` zeroed), folded
    /// into [`AccessStore::stats`] so counters read continuously across
    /// promotion.
    carried: StoreStats,
}

/// Adaptive access store: [`FlatStore`] until promotion, then
/// [`BlockedStore`] (see module docs).
///
/// The configuration is stored compactly — merging and budget already
/// live inside the engines. Keeping the struct small matters: a
/// per-(rank, window) store is constructed per replay, and the
/// allocation + move cost scales with the struct, so the unpromoted
/// store must stay as close to a bare [`FlatStore`] as possible.
pub struct AdaptiveStore {
    inner: Inner,
    promote_shifted: u64,
    promote_len: u32,
}

impl Default for AdaptiveStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveStore {
    /// An adaptive store with default thresholds, exact and merging.
    #[inline]
    pub fn new() -> Self {
        Self::with_cfg(AdaptiveCfg::default())
    }

    /// An adaptive store with explicit knobs.
    #[inline]
    pub fn with_cfg(cfg: AdaptiveCfg) -> Self {
        let flat = match (cfg.merging, cfg.budget) {
            (true, None) => FlatStore::new(),
            (false, None) => FlatStore::without_merging(),
            (true, Some(cap)) => FlatStore::with_budget(cap),
            (false, Some(cap)) => FlatStore::without_merging_budgeted(cap),
        };
        AdaptiveStore {
            inner: Inner::Flat(flat),
            promote_shifted: cfg.promote_shifted,
            promote_len: u32::try_from(cfg.promote_len).unwrap_or(u32::MAX),
        }
    }

    /// Has the store promoted to the blocked engine?
    pub fn is_promoted(&self) -> bool {
        matches!(self.inner, Inner::Blocked(_))
    }

    /// The configuration in effect (reassembled from its packed form;
    /// `merging` and `budget` live inside the engines themselves).
    pub fn cfg(&self) -> AdaptiveCfg {
        let (merging, budget) = match &self.inner {
            Inner::Flat(s) => (s.merging_enabled(), s.budget()),
            Inner::Blocked(p) => (p.store.merging_enabled(), p.store.budget()),
        };
        AdaptiveCfg {
            merging,
            budget,
            promote_len: self.promote_len as usize,
            promote_shifted: self.promote_shifted,
        }
    }

    /// Promotes if the flat engine crossed a threshold; no-op once
    /// blocked.
    fn maybe_promote(&mut self) {
        let Inner::Flat(flat) = &mut self.inner else { return };
        if flat.len() < self.promote_len as usize && flat.shifted() < self.promote_shifted {
            return;
        }
        self.promote();
    }

    /// Promotion plus the record that tripped it, outlined so the
    /// record fast path has no spills: with the slow path out of line,
    /// every exit of [`AccessStore::record`] is a bare tail call.
    #[cold]
    fn promote_and_record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        self.promote();
        match &mut self.inner {
            Inner::Blocked(p) => p.store.record(acc),
            Inner::Flat(s) => s.record(acc),
        }
    }

    /// The promotion itself, kept out of the record fast path (the
    /// threshold check runs per record; this body runs once per store).
    fn promote(&mut self) {
        let Inner::Flat(flat) = &mut self.inner else { return };
        let flat = std::mem::take(flat);
        let mut carried = flat.stats();
        carried.len = 0; // live nodes are counted by the new engine
        let mut store = BlockedStore::with_cfg(flat.merging_enabled(), flat.budget());
        store.restore(&flat.snapshot());
        self.inner = Inner::Blocked(Box::new(Promoted { store, carried }));
    }
}

impl AccessStore for AdaptiveStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        // Threshold check *before* the record: the unpromoted arm is
        // then a tail call into [`FlatStore::record`], so the wrapper
        // costs one predicted branch over the bare engine (the slow
        // path is outlined in [`Self::promote_and_record`], keeping
        // this frame spill-free). Promotion lands one record after a
        // threshold is crossed — the thresholds are sizing heuristics,
        // not correctness boundaries, so the off-by-one changes
        // nothing observable.
        match &mut self.inner {
            Inner::Blocked(p) => p.store.record(acc),
            Inner::Flat(s) => {
                if s.len() < self.promote_len as usize && s.shifted() < self.promote_shifted {
                    return s.record(acc);
                }
                self.promote_and_record(acc)
            }
        }
    }

    fn len(&self) -> usize {
        match &self.inner {
            Inner::Flat(s) => s.len(),
            Inner::Blocked(p) => p.store.len(),
        }
    }

    fn stats(&self) -> StoreStats {
        match &self.inner {
            Inner::Flat(s) => s.stats(),
            Inner::Blocked(p) => {
                let mut st = p.carried;
                st.absorb(&p.store.stats());
                st
            }
        }
    }

    fn clear(&mut self) {
        match &mut self.inner {
            Inner::Flat(s) => s.clear(),
            Inner::Blocked(p) => p.store.clear(),
        }
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        match &self.inner {
            Inner::Flat(s) => s.snapshot(),
            Inner::Blocked(p) => p.store.snapshot(),
        }
    }

    fn restore(&mut self, snap: &[MemAccess]) {
        match &mut self.inner {
            Inner::Flat(s) => s.restore(snap),
            Inner::Blocked(p) => p.store.restore(snap),
        }
        // A checkpoint big enough to warrant promotion promotes right
        // away instead of thrashing flat first.
        self.maybe_promote();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmerge::FragMergeStore;
    use crate::{AccessKind, Interval, RankId, SrcLoc};
    use AccessKind::*;

    fn acc_by(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            kind,
            RankId(rank),
            SrcLoc::synthetic("code.c", line),
        )
    }

    fn small_cfg() -> AdaptiveCfg {
        AdaptiveCfg { promote_len: 16, promote_shifted: 64, ..AdaptiveCfg::default() }
    }

    /// Small traces never promote: a corpus-sized run stays flat.
    #[test]
    fn small_traces_stay_flat() {
        let mut s = AdaptiveStore::new();
        for i in 0..20u64 {
            s.record(acc_by(i * 100, i * 100 + 3, RmaRead, 1, i as u32)).unwrap();
        }
        assert!(!s.is_promoted());
    }

    /// Growth past `promote_len` promotes; verdicts and contents carry
    /// over exactly and statistics read continuously.
    #[test]
    fn promotes_on_len_and_stays_exact() {
        let mut s = AdaptiveStore::with_cfg(small_cfg());
        let mut oracle = FragMergeStore::new();
        for i in 0..200u64 {
            let a = acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32);
            assert_eq!(s.record(a).is_err(), oracle.record(a).is_err());
        }
        assert!(s.is_promoted());
        let st = s.stats();
        assert_eq!(st.recorded, 200, "recorded must not drift across promotion");
        assert_eq!(s.snapshot(), oracle.snapshot(), "promoted contents are the tree's");
        assert_eq!(st, oracle.stats(), "promoted statistics are the tree's");
        let race = acc_by(500, 505, LocalWrite, 0, 999);
        assert_eq!(s.record(race), oracle.record(race));
        assert!(oracle.stats().races == 1 && s.stats() == oracle.stats());
    }

    /// Interleaved mid-vec churn trips the displacement probe before the
    /// length threshold.
    #[test]
    fn promotes_on_contention() {
        let cfg = AdaptiveCfg { promote_len: 100_000, promote_shifted: 256, ..Default::default() };
        let mut s = AdaptiveStore::with_cfg(cfg);
        // Two interleaved ascending regions: every second insert lands
        // mid-vec and displaces the other region's tail.
        let mut i = 0u64;
        while !s.is_promoted() && i < 10_000 {
            let base = if i.is_multiple_of(2) { 0 } else { 1 << 20 };
            s.record(acc_by(base + (i / 2) * 10, base + (i / 2) * 10 + 3, RmaRead, 1, 1)).unwrap();
            i += 1;
        }
        assert!(s.is_promoted(), "contention must trigger promotion");
        assert!(s.len() < cfg.promote_len, "promoted well before the length threshold");
    }

    /// Promotion is sticky across epoch clears.
    #[test]
    fn promotion_survives_clear() {
        let mut s = AdaptiveStore::with_cfg(small_cfg());
        for i in 0..50u64 {
            s.record(acc_by(i * 10, i * 10 + 3, RmaRead, 1, 1)).unwrap();
        }
        assert!(s.is_promoted());
        s.clear();
        assert!(s.is_promoted(), "a workload that promoted stays promoted");
        assert_eq!(s.len(), 0);
        let epochs = s.stats().epochs;
        assert_eq!(epochs, 1, "clear closes exactly one epoch across engines");
    }

    /// snapshot/restore round-trips across the promotion boundary: a
    /// checkpoint taken while flat restores into the promoted store.
    #[test]
    fn restore_round_trips_across_promotion() {
        let mut s = AdaptiveStore::with_cfg(small_cfg());
        for i in 0..10u64 {
            s.record(acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32)).unwrap();
        }
        let checkpoint = s.snapshot();
        for i in 10..50u64 {
            s.record(acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32)).unwrap();
        }
        assert!(s.is_promoted());
        s.restore(&checkpoint);
        assert_eq!(s.snapshot(), checkpoint);
        // And the rolled-back suffix is really gone.
        s.record(acc_by(400, 403, LocalWrite, 0, 9)).unwrap();
    }

    /// A large checkpoint restored into a fresh store promotes
    /// immediately instead of churning flat first.
    #[test]
    fn restore_of_large_checkpoint_promotes() {
        let mut big = AdaptiveStore::with_cfg(small_cfg());
        for i in 0..100u64 {
            big.record(acc_by(i * 10, i * 10 + 3, RmaRead, 1, 1)).unwrap();
        }
        let checkpoint = big.snapshot();
        let mut fresh = AdaptiveStore::with_cfg(small_cfg());
        fresh.restore(&checkpoint);
        assert!(fresh.is_promoted());
        let mut tree = FragMergeStore::new();
        tree.restore(&checkpoint);
        assert_eq!(fresh.snapshot(), tree.snapshot(), "restored contents are the tree's");
        assert_eq!(fresh.stats(), tree.stats(), "restored statistics are the tree's");
    }

    /// A descending writer above the contents the store promoted with
    /// (default thresholds; the last loaded leaf ends one short of
    /// full): the promoted leaves stay dense and the result is the
    /// tree's.
    #[test]
    fn descending_writer_after_promotion() {
        let mut s = AdaptiveStore::new();
        let mut tree = FragMergeStore::new();
        let below = (0..4159u64).map(|i| acc_by(3 * i, 3 * i + 1, LocalRead, 0, 1));
        let above = (0..5000u64).map(|i| {
            let lo = (1 << 20) - 3 * i;
            acc_by(lo, lo + 1, LocalRead, 0, 2)
        });
        for a in below.chain(above) {
            assert_eq!(s.record(a), tree.record(a));
        }
        let Inner::Blocked(p) = &s.inner else { panic!("must have promoted") };
        p.store.assert_invariants(); // no two short leaves side by side
        assert_eq!(s.snapshot(), tree.snapshot());
        assert_eq!(s.stats(), tree.stats());
    }

    /// The budget knob degrades conservatively in both phases.
    #[test]
    fn budget_respected_across_promotion() {
        let cfg = AdaptiveCfg { budget: Some(4), ..small_cfg() };
        let mut s = AdaptiveStore::with_cfg(cfg);
        for i in 0..100u64 {
            s.record(acc_by(i * 100, i * 100 + 9, RmaRead, 1, i as u32)).unwrap();
        }
        assert!(s.stats().coalesced > 0);
        assert!(s.record(acc_by(500, 505, LocalWrite, 0, 999)).is_err());
    }

    /// Once promoted, the budget caps the whole store, and the degraded
    /// contents are the tree's, byte for byte, so the FP-only argument
    /// for budget coalescing holds for the promoted store too.
    #[test]
    fn budget_caps_the_whole_promoted_store() {
        let cfg = AdaptiveCfg { budget: Some(5000), ..Default::default() };
        let mut s = AdaptiveStore::with_cfg(cfg);
        let mut tree = FragMergeStore::with_budget(5000);
        for i in 0..40_000u64 {
            let a = acc_by(i * 10, i * 10 + 3, RmaRead, 1, i as u32);
            assert_eq!(s.record(a), tree.record(a));
        }
        assert!(s.is_promoted());
        let st = s.stats();
        assert!(st.peak_len <= 5001, "peak {} exceeds budget + 1", st.peak_len);
        assert!(st.coalesced > 0);
        assert_eq!(s.snapshot(), tree.snapshot());
        assert_eq!(st, tree.stats());
    }
}

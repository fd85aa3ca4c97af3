//! Service-wide memory-pressure accounting and FP-only brownout.
//!
//! A single budgeted store bounds *its own* node count; a serving layer
//! analyzing many streams concurrently needs a ceiling on the *sum*.
//! [`MemGauge`] is that accountant: every live [`MeteredStore`] keeps
//! its current node count synced into a shared gauge, and when the
//! total crosses the budget the gauge hands out a per-store fair-share
//! cap ([`MemGauge::brownout_cap`]). A metered store over its cap
//! retroactively *coalesces* — its contents are replaced by the
//! conservative bounding-superset plan ([`crate::fragmerge`]'s shared
//! `coalesce_plan`, the exact primitive behind the proven `node_budget`
//! degradation) and re-recorded into a fresh store built *with* that
//! budget, so future growth stays capped too.
//!
//! The soundness argument is inherited, not new: coalescing replaces a
//! run of disjoint accesses by one `RMA_WRITE` access covering their
//! bounding interval. `RMA_WRITE` conflicts with everything the
//! originals conflicted with (and possibly more), so a browned-out
//! store can report *extra* races (false positives) but can never miss
//! one (false negatives) — the same FP-only contract `degradation.rs`
//! pins for static budgets, now triggered by global pressure.
//!
//! Stats bookkeeping: a retro-coalesce discards the inner store, so the
//! wrapper folds the discarded generation's [`StoreStats`] into a carry
//! and absorbs it back in [`AccessStore::stats`]. Re-recording the plan
//! counts into `recorded` again — the same diagnostic drift the trait's
//! `restore` documents; verdicts are unaffected.

use crate::access::MemAccess;
use crate::fragmerge::coalesce_plan;
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Floor for the per-store brownout cap: coalescing below 2 nodes would
/// collapse whole stores to a single interval for little memory gain.
const MIN_CAP: usize = 2;

struct GaugeInner {
    /// Service-wide node budget (total across live stores); always ≥ 1.
    budget: usize,
    /// Sum of the current node counts of all live metered stores.
    live_nodes: AtomicUsize,
    /// Number of live metered stores.
    stores: AtomicUsize,
    /// Highest `live_nodes` ever observed.
    peak_nodes: AtomicUsize,
    /// Retro-coalesce events across all stores (the brownout counter).
    brownouts: AtomicU64,
}

/// Shared memory-pressure accountant. Clones observe the same totals;
/// one gauge per service, one [`MeteredStore`] wrapper per live stream
/// store.
#[derive(Clone)]
pub struct MemGauge {
    inner: Arc<GaugeInner>,
}

impl std::fmt::Debug for MemGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemGauge")
            .field("budget", &self.inner.budget)
            .field("live_nodes", &self.live_nodes())
            .field("stores", &self.stores())
            .field("brownouts", &self.brownouts())
            .finish()
    }
}

impl MemGauge {
    /// A gauge with a total node budget (clamped to ≥ 1).
    pub fn new(budget: usize) -> MemGauge {
        MemGauge {
            inner: Arc::new(GaugeInner {
                budget: budget.max(1),
                live_nodes: AtomicUsize::new(0),
                stores: AtomicUsize::new(0),
                peak_nodes: AtomicUsize::new(0),
                brownouts: AtomicU64::new(0),
            }),
        }
    }

    /// The configured total budget.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Current total node count across live metered stores.
    pub fn live_nodes(&self) -> usize {
        self.inner.live_nodes.load(Ordering::SeqCst)
    }

    /// Highest total ever observed.
    pub fn peak_nodes(&self) -> usize {
        self.inner.peak_nodes.load(Ordering::SeqCst)
    }

    /// Number of live metered stores.
    pub fn stores(&self) -> usize {
        self.inner.stores.load(Ordering::SeqCst)
    }

    /// Retro-coalesce events so far (monotonic).
    pub fn brownouts(&self) -> u64 {
        self.inner.brownouts.load(Ordering::SeqCst)
    }

    /// Is the service past its budget right now?
    pub fn over_budget(&self) -> bool {
        self.live_nodes() > self.inner.budget
    }

    /// Per-store fair-share node cap while over budget (`None` while
    /// under). Stores above the cap are exactly the "heaviest" ones —
    /// they brown out; stores within their share are untouched.
    pub fn brownout_cap(&self) -> Option<usize> {
        if !self.over_budget() {
            return None;
        }
        Some((self.inner.budget / self.stores().max(1)).max(MIN_CAP))
    }

    fn open_store(&self) {
        self.inner.stores.fetch_add(1, Ordering::SeqCst);
    }

    fn close_store(&self, len: usize) {
        self.inner.live_nodes.fetch_sub(len, Ordering::SeqCst);
        self.inner.stores.fetch_sub(1, Ordering::SeqCst);
    }

    fn adjust(&self, old_len: usize, new_len: usize) {
        let total = if new_len >= old_len {
            self.inner.live_nodes.fetch_add(new_len - old_len, Ordering::SeqCst) + (new_len - old_len)
        } else {
            self.inner.live_nodes.fetch_sub(old_len - new_len, Ordering::SeqCst) - (old_len - new_len)
        };
        self.inner.peak_nodes.fetch_max(total, Ordering::SeqCst);
    }

    fn note_brownout(&self) {
        self.inner.brownouts.fetch_add(1, Ordering::SeqCst);
    }
}

/// Store factory used to rebuild a browned-out store under a node
/// budget; the argument is the budget the replacement must enforce.
pub type StoreRebuild = Box<dyn FnMut(usize) -> Box<dyn AccessStore + Send> + Send>;

/// An [`AccessStore`] wrapper that keeps its node count synced into a
/// [`MemGauge`] and retro-coalesces itself (FP-only, see module docs)
/// when the service crosses its budget and this store exceeds its
/// fair share.
pub struct MeteredStore {
    inner: Box<dyn AccessStore + Send>,
    rebuild: StoreRebuild,
    gauge: MemGauge,
    /// Stats of generations discarded by retro-coalesce (len forced 0).
    carry: StoreStats,
    /// Node count last synced into the gauge.
    last_len: usize,
    /// Retro-coalesce events on this store.
    brownouts: usize,
}

impl MeteredStore {
    /// Wraps `inner`, registering it with `gauge`. `rebuild` must
    /// produce an empty store enforcing the given node budget — the
    /// brownout replacement.
    pub fn new(inner: Box<dyn AccessStore + Send>, rebuild: StoreRebuild, gauge: MemGauge) -> MeteredStore {
        gauge.open_store();
        let mut s = MeteredStore {
            inner,
            rebuild,
            gauge,
            carry: StoreStats::default(),
            last_len: 0,
            brownouts: 0,
        };
        s.sync_gauge();
        s
    }

    fn sync_gauge(&mut self) {
        let len = self.inner.len();
        if len != self.last_len {
            self.gauge.adjust(self.last_len, len);
            self.last_len = len;
        }
    }

    /// Applies pressure: if the service is over budget and this store is
    /// past its fair share, coalesce it down to the cap and rebuild
    /// under that budget.
    fn maybe_brownout(&mut self) {
        let Some(cap) = self.gauge.brownout_cap() else {
            return;
        };
        if self.inner.len() <= cap {
            return;
        }
        let snap = self.inner.snapshot();
        let Some(plan) = coalesce_plan(&snap, cap) else {
            return;
        };
        // Fold the discarded generation's counters into the carry; the
        // nodes eliminated by this pass count as `coalesced` just like
        // an in-store budget pass would.
        let mut gen = self.inner.stats();
        gen.coalesced += snap.len() - plan.len();
        gen.len = 0;
        self.carry.absorb(&gen);
        // Re-record the conservative plan through a fresh store built
        // *with* the cap as its budget (restore() paths skip budget
        // enforcement, so going through record() is load-bearing).
        let mut fresh = (self.rebuild)(cap);
        for acc in &plan {
            let _ = fresh.record(*acc);
        }
        self.inner = fresh;
        self.brownouts += 1;
        self.gauge.note_brownout();
        self.sync_gauge();
    }
}

impl std::fmt::Debug for MeteredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeteredStore")
            .field("len", &self.inner.len())
            .field("brownouts", &self.brownouts)
            .field("gauge", &self.gauge)
            .finish()
    }
}

impl Drop for MeteredStore {
    fn drop(&mut self) {
        self.gauge.close_store(self.last_len);
    }
}

impl AccessStore for MeteredStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        let out = self.inner.record(acc);
        self.sync_gauge();
        self.maybe_brownout();
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.inner.stats();
        s.absorb(&self.carry);
        s.brownouts += self.brownouts;
        s
    }

    fn clear(&mut self) {
        self.inner.clear();
        self.sync_gauge();
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.inner.snapshot()
    }

    // `restore` deliberately uses the trait default (clear + record):
    // it routes through this wrapper's `record`, so the gauge stays
    // synced and pressure applies to restored contents too.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess, RankId, SrcLoc};
    use crate::blocked::BlockedStore;
    use crate::interval::Interval;

    fn acc(lo: u64, hi: u64) -> MemAccess {
        MemAccess::new(Interval::new(lo, hi), AccessKind::RmaRead, RankId(0), SrcLoc::here())
    }

    fn metered(gauge: &MemGauge) -> MeteredStore {
        MeteredStore::new(
            Box::new(BlockedStore::new()),
            Box::new(|cap| Box::new(BlockedStore::with_cfg(true, Some(cap)))),
            gauge.clone(),
        )
    }

    #[test]
    fn under_budget_stores_stay_exact() {
        let g = MemGauge::new(1_000);
        let mut s = metered(&g);
        for i in 0..10 {
            s.record(acc(i * 10, i * 10 + 2)).unwrap();
        }
        assert_eq!(s.len(), 10);
        assert_eq!(g.live_nodes(), 10);
        assert_eq!(g.brownouts(), 0);
        assert_eq!(s.stats().brownouts, 0);
    }

    #[test]
    fn over_budget_coalesces_the_heavy_store() {
        let g = MemGauge::new(8);
        let mut s = metered(&g);
        for i in 0..20 {
            s.record(acc(i * 10, i * 10 + 2)).unwrap();
        }
        assert!(s.len() <= 8, "browned below the budget, got {}", s.len());
        assert!(g.brownouts() >= 1);
        let st = s.stats();
        assert!(st.brownouts >= 1);
        assert!(st.coalesced > 0);
        assert_eq!(g.live_nodes(), s.len(), "gauge tracks the post-brownout size");
    }

    #[test]
    fn brownout_is_fp_only() {
        // Every conflict the exact store reports must still be reported
        // by the browned store (possibly among extras).
        let g = MemGauge::new(4);
        let mut exact = BlockedStore::new();
        let mut browned = metered(&g);
        for i in 0..16 {
            exact.record(acc(i * 10, i * 10 + 2)).unwrap();
            browned.record(acc(i * 10, i * 10 + 2)).unwrap();
        }
        let probe = MemAccess::new(
            Interval::new(51, 52),
            AccessKind::LocalWrite,
            RankId(1),
            SrcLoc::here(),
        );
        assert!(exact.record(probe).is_err(), "exact store sees the conflict");
        assert!(browned.record(probe).is_err(), "browned store must not miss it");
    }

    #[test]
    fn drop_releases_gauge_footprint() {
        let g = MemGauge::new(100);
        {
            let mut s = metered(&g);
            s.record(acc(0, 3)).unwrap();
            assert_eq!(g.stores(), 1);
            assert_eq!(g.live_nodes(), 1);
        }
        assert_eq!(g.stores(), 0);
        assert_eq!(g.live_nodes(), 0);
        assert!(g.peak_nodes() >= 1, "peak survives the drop");
    }

    #[test]
    fn fair_share_spares_light_stores() {
        let g = MemGauge::new(10);
        let mut heavy = metered(&g);
        let mut light = metered(&g);
        light.record(acc(1_000_000, 1_000_001)).unwrap();
        for i in 0..30 {
            heavy.record(acc(i * 10, i * 10 + 2)).unwrap();
        }
        assert_eq!(light.stats().brownouts, 0, "store within its share is untouched");
        assert!(heavy.stats().brownouts >= 1);
    }
}

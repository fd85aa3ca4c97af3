//! The common interface of all per-epoch access stores.

use crate::access::MemAccess;
use crate::report::RaceReport;

/// Size statistics of a store, the metric behind the paper's Table 4 and
/// the CFD-Proxy node-count discussion of Section 5.3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Current number of nodes.
    pub len: usize,
    /// Highest number of nodes ever held (across `clear`s).
    pub peak_len: usize,
    /// Total accesses recorded (dynamic access count).
    pub recorded: usize,
    /// Races reported.
    pub races: usize,
    /// Fragments produced by the fragmentation pass (0 for stores without
    /// one).
    pub fragments: usize,
    /// Node pairs fused by the merging pass (0 for stores without one).
    pub merges: usize,
    /// Nodes eliminated by budget-driven conservative coalescing (0 for
    /// unbudgeted stores). A non-zero value means the store has traded
    /// precision for memory: reported races may include false positives,
    /// but never false negatives.
    pub coalesced: usize,
    /// Times a service-wide memory-pressure brownout retroactively
    /// coalesced this store (0 outside metered serving; see
    /// `rma_core::gauge`). Like `coalesced`, non-zero means precision
    /// was traded for memory: false positives possible, false negatives
    /// still impossible.
    pub brownouts: usize,
    /// Number of epochs closed (`clear` calls).
    pub epochs: usize,
    /// Sum over epochs of the node count at epoch end — the per-run
    /// "number of nodes in the BST" metric of the paper's Section 5.3.
    pub cum_epoch_end_len: usize,
    /// Accesses admitted through the cheap-reject fast path: the cached
    /// bounding interval proved them disjoint from (and not touching)
    /// everything stored, so the overlap query was skipped and the
    /// access inserted directly.
    pub fast_hits: usize,
}

impl StoreStats {
    /// Folds `clear`-time accounting into the stats: one more epoch ended
    /// with `len` nodes still stored.
    pub(crate) fn on_clear(&mut self, len: usize) {
        self.epochs += 1;
        self.cum_epoch_end_len += len;
        self.len = 0;
    }

    /// Folds another store's statistics into these, for aggregating over
    /// the per-(rank, window) stores of a whole run. Counters add up;
    /// `peak_len` reports the largest single store observed (the paper's
    /// "peak nodes in one BST" metric, not a sum of unrelated peaks).
    pub fn absorb(&mut self, other: &StoreStats) {
        self.len += other.len;
        self.peak_len = self.peak_len.max(other.peak_len);
        self.recorded += other.recorded;
        self.races += other.races;
        self.fragments += other.fragments;
        self.merges += other.merges;
        self.coalesced += other.coalesced;
        self.brownouts += other.brownouts;
        self.epochs += other.epochs;
        self.cum_epoch_end_len += other.cum_epoch_end_len;
        self.fast_hits += other.fast_hits;
    }

    /// Dynamic accesses this store has processed (every `record` call,
    /// whether it inserted, merged, or reported a race). The uniform
    /// "events processed" counter used by replay throughput reporting.
    #[inline]
    pub fn events_processed(&self) -> usize {
        self.recorded
    }

    /// Largest node count ever held, the uniform "peak nodes" counter.
    #[inline]
    pub fn peak_nodes(&self) -> usize {
        self.peak_len
    }
}

/// A per-(rank, window) store of the current epoch's memory accesses, with
/// an on-the-fly race check on every insertion.
///
/// `record` returns `Err` with a [`RaceReport`] when the new access races
/// with a stored one; the access is *not* inserted in that case (the real
/// tool aborts the program at this point).
pub trait AccessStore {
    /// Checks the new access against the stored ones and inserts it.
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>>;

    /// Current node count.
    fn len(&self) -> usize;

    /// `true` when no access is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size/usage statistics.
    fn stats(&self) -> StoreStats;

    /// Drops all stored accesses (end of epoch). Statistics other than
    /// `len` survive.
    fn clear(&mut self);

    /// Snapshot of the stored accesses in address order (diagnostics,
    /// and the checkpoint half of crash recovery: a `snapshot` taken at
    /// an epoch boundary can later be [`AccessStore::restore`]d into a
    /// fresh or rolled-back store).
    fn snapshot(&self) -> Vec<MemAccess>;

    /// Rolls the store back to a [`AccessStore::snapshot`]: clears the
    /// current contents and re-records the checkpointed accesses,
    /// swallowing race reports (every access in a snapshot was already
    /// checked — and reported, if racing — when first recorded, so
    /// re-raising here would double-report).
    ///
    /// Default implementation in terms of `clear` + `record`; stores
    /// with cheaper rollback paths may override it. Note the statistics
    /// drift this implies: the replayed `record`s count into `recorded`
    /// again and `clear` closes an epoch, so stats are *diagnostic* and
    /// not crash-invariant — verdicts (the race list kept by the
    /// analyzer, not the store) are.
    fn restore(&mut self, snap: &[MemAccess]) {
        self.clear();
        for acc in snap {
            let _ = self.record(*acc);
        }
    }
}

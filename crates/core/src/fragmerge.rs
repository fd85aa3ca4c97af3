//! The paper's contribution: the fragmentation + merging insertion
//! algorithm (Algorithm 1, Sections 4.1 and 4.2).
//!
//! Invariant: the stored intervals are always pairwise **disjoint**. This
//! is what restores soundness — with disjoint intervals the augmented
//! interval-tree query of [`Avl::for_each_overlapping`] finds *every*
//! stored access intersecting a new one, so no conflict can hide in an
//! unvisited subtree (the legacy failure mode of Figure 5a).
//!
//! Each insertion performs the five steps of Algorithm 1 / Figure 4:
//!
//! 1. `data_race_detection` — exact intersection query with the
//!    order-aware conflict rule; on conflict the access is rejected with a
//!    [`RaceReport`].
//! 2. `get_intersecting_accesses` — all stored accesses intersecting *or
//!    touching* the new interval (touching neighbours are needed by the
//!    merging pass; a candidate that ends up unchanged is left in place).
//! 3. `fragment_accesses` — splits the stored accesses and the new access
//!    into disjoint fragments; on each overlap the access type and debug
//!    information are resolved by Table 1 ([`combine`]).
//! 4. `merge_accesses` — fuses adjacent fragments with identical access
//!    type, issuer and debug information (Figure 7).
//! 5. `finish_insertion` — swaps the old nodes for the new fragments,
//!    leaving untouched nodes in place.

use crate::access::MemAccess;
use crate::avl::Avl;
use crate::conflict::{combine, conflicts};
use crate::interval::{Addr, Interval};
use crate::report::RaceReport;
use crate::store::{AccessStore, StoreStats};
use core::ops::ControlFlow;

/// Access store implementing the new insertion algorithm.
///
/// The merging pass can be disabled ([`FragMergeStore::without_merging`])
/// to measure the node blow-up the paper warns about at the end of
/// Section 4.1 ("each new access possibly increases the nodes in the BST
/// by two"); this is the `fragmentation-only` ablation of the benchmark
/// suite.
pub struct FragMergeStore {
    tree: Avl,
    stats: StoreStats,
    merge_enabled: bool,
    /// Node-count cap for graceful degradation under memory pressure.
    /// When an insertion pushes the tree past the cap, stored accesses
    /// are conservatively coalesced (see [`FragMergeStore::with_budget`]).
    budget: Option<usize>,
    /// Cached bounding interval of everything stored — the cheap-reject
    /// fast path. An access that neither intersects nor touches the hull
    /// can neither race with nor merge into any stored access, so
    /// [`AccessStore::record`] skips the conflict walk and the widened
    /// overlap query and inserts the node directly
    /// ([`StoreStats::fast_hits`] counts the skips). Epoch boundaries
    /// reset it to `None` in [`AccessStore::clear`].
    hull: Option<Interval>,
    /// Scratch buffers reused across insertions to keep the hot path
    /// allocation-free once warmed up.
    inter: Vec<MemAccess>,
    frags: Vec<MemAccess>,
}

impl Default for FragMergeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FragMergeStore {
    /// An empty store with merging enabled (the paper's algorithm).
    pub fn new() -> Self {
        FragMergeStore {
            tree: Avl::new(),
            stats: StoreStats::default(),
            merge_enabled: true,
            budget: None,
            hull: None,
            inter: Vec::new(),
            frags: Vec::new(),
        }
    }

    /// An empty store running fragmentation only (ablation).
    pub fn without_merging() -> Self {
        FragMergeStore { merge_enabled: false, ..Self::new() }
    }

    /// An empty store with a node budget: whenever an insertion pushes
    /// the node count past `cap` (clamped to at least 2), stored accesses
    /// are coalesced down to roughly `cap / 2` nodes by fusing runs of
    /// neighbouring intervals into their bounding interval with the
    /// conservative access type `RMA_Write`.
    ///
    /// This is the graceful-degradation mode for memory-constrained runs.
    /// The trade is one-sided by construction: a coalesced node covers a
    /// superset of the addresses of its members and `RMA_Write` conflicts
    /// with every access kind, so any race the exact store would report is
    /// still reported (no false negatives) — but accesses landing in the
    /// widened gaps or overlapping a formerly-compatible member may now be
    /// flagged too (false positives). [`StoreStats::coalesced`] counts the
    /// nodes eliminated, so consumers can tell degraded verdicts apart.
    pub fn with_budget(cap: usize) -> Self {
        FragMergeStore { budget: Some(cap.max(2)), ..Self::new() }
    }

    /// A budgeted store with the merging pass disabled (ablation under
    /// memory pressure): budget coalescing is the only node-count relief.
    pub fn without_merging_budgeted(cap: usize) -> Self {
        FragMergeStore { merge_enabled: false, ..Self::with_budget(cap) }
    }

    /// The node budget, if one was set.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Coalesces the stored accesses down to at most `target` nodes by
    /// fusing runs of consecutive (address-ordered, disjoint) nodes into
    /// one node spanning their bounding interval, typed `RMA_Write`.
    ///
    /// Soundness: members are consecutive in address order, so bounding
    /// intervals of distinct runs stay disjoint (the store invariant);
    /// each bounding interval is a superset of its members, and a stored
    /// `RMA_Write` conflicts with every intersecting new access, so every
    /// conflict the exact contents would produce is still produced.
    fn coalesce_to(&mut self, target: usize) {
        let snap = self.tree.in_order();
        let Some(merged) = coalesce_plan(&snap, target) else {
            return;
        };
        self.tree.clear();
        for m in &merged {
            self.tree.insert(*m);
        }
        self.stats.coalesced += snap.len() - self.tree.len();
        self.stats.len = self.tree.len();
    }

    /// Is the merging pass enabled?
    pub fn merging_enabled(&self) -> bool {
        self.merge_enabled
    }

    /// Read access to the underlying tree (diagnostics/benchmarks).
    pub fn tree(&self) -> &Avl {
        &self.tree
    }

    /// Step 1 of Algorithm 1: is there a stored access racing with `acc`?
    ///
    /// Exposed separately so callers (and tests) can run the detection
    /// without mutating the store.
    pub fn check(&self, acc: &MemAccess) -> Option<RaceReport> {
        // Cheap reject: no stored interval intersects `acc` if the cached
        // bounding interval doesn't.
        if self.hull.is_none_or(|h| h.intersection(&acc.interval).is_none()) {
            return None;
        }
        let mut hit = None;
        let _ = self.tree.for_each_overlapping(acc.interval, &mut |stored| {
            if conflicts(stored, acc) {
                hit = Some(RaceReport::new(*stored, *acc));
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        hit
    }

    /// Steps 2–5 of Algorithm 1: inserts an access already known not to
    /// race with the stored ones (fragmenting, merging, budget
    /// coalescing). Callers must have run [`FragMergeStore::check`] (or
    /// otherwise proved no conflict) first.
    fn apply(&mut self, acc: MemAccess) {
        // 2. get_intersecting_accesses (widened by one address so touching
        //    neighbours are candidates for the merging pass).
        let mut inter = std::mem::take(&mut self.inter);
        inter.clear();
        let _ = self.tree.for_each_overlapping(acc.interval.widened(), &mut |a| {
            inter.push(*a);
            ControlFlow::Continue(())
        });

        // 3. fragment_accesses
        let mut frags = std::mem::take(&mut self.frags);
        fragment_accesses(&inter, &acc, &mut frags);
        self.stats.fragments += frags.len();

        // 4. merge_accesses
        if self.merge_enabled {
            self.stats.merges += merge_accesses(&mut frags);
        }

        // 5. finish_insertion: replace the old accesses by the new ones,
        //    skipping nodes that come out unchanged.
        for old in &inter {
            if !frags.contains(old) {
                let removed = self.tree.remove(old);
                debug_assert!(removed, "intersecting access vanished: {old:?}");
            }
        }
        for frag in &frags {
            if !inter.contains(frag) {
                self.tree.insert(*frag);
            }
        }

        self.stats.len = self.tree.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        self.grow_hull(acc.interval);
        self.inter = inter;
        self.frags = frags;
        if let Some(cap) = self.budget {
            if self.tree.len() > cap {
                self.coalesce_to(cap / 2);
            }
        }
    }

    /// Widens the cached bounding interval to cover `iv`.
    fn grow_hull(&mut self, iv: Interval) {
        self.hull = Some(match self.hull {
            None => iv,
            Some(h) => h.hull(&iv),
        });
    }

    /// Direct insertion of an access proved isolated (it neither
    /// intersects nor touches anything stored): no conflict walk, no
    /// overlap query, no merging pass — the outcome is identical because
    /// steps 2–4 of Algorithm 1 degenerate to `frags = [acc]`.
    fn insert_isolated(&mut self, acc: MemAccess) {
        self.tree.insert(acc);
        self.stats.fragments += 1;
        self.stats.len = self.tree.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
        self.grow_hull(acc.interval);
        if let Some(cap) = self.budget {
            if self.tree.len() > cap {
                self.coalesce_to(cap / 2);
            }
        }
    }

    /// Checks the disjointness invariant (test helper). Panics on
    /// violation.
    pub fn assert_disjoint(&self) {
        let snap = self.tree.in_order();
        for w in snap.windows(2) {
            assert!(
                w[0].interval.hi < w[1].interval.lo,
                "stored intervals overlap: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// The budget-coalescing plan shared by every engine: fuses runs of
/// consecutive (address-ordered, disjoint) accesses into one node spanning
/// their bounding interval, typed `RMA_Write`, so at most `target` nodes
/// remain. Returns `None` when the contents already fit. Centralised here
/// so the AVL and flat engines degrade to byte-identical contents.
pub(crate) fn coalesce_plan(snap: &[MemAccess], target: usize) -> Option<Vec<MemAccess>> {
    let target = target.max(1);
    if snap.len() <= target {
        return None;
    }
    let group = snap.len().div_ceil(target);
    let mut out = Vec::with_capacity(snap.len().div_ceil(group));
    for run in snap.chunks(group) {
        let first = run[0];
        out.push(if run.len() == 1 {
            first
        } else {
            MemAccess::new(
                Interval::new(first.interval.lo, run[run.len() - 1].interval.hi),
                crate::AccessKind::RmaWrite,
                first.issuer,
                first.loc,
            )
        });
    }
    Some(out)
}

/// Step 3: fragments `inter ∪ {new}` into disjoint pieces.
///
/// `inter` must be sorted by lower bound, pairwise disjoint, and contain
/// only accesses intersecting or touching `new.interval` (the output of
/// step 2). Purely touching accesses pass through unchanged, positioned so
/// the output stays sorted. The output covers exactly
/// `new.interval ∪ ⋃ inter` and is pairwise disjoint.
///
/// `pub(crate)` because the flat engine ([`crate::flat::FlatStore`]) runs
/// the very same pass over a contiguous run of its sorted vec.
pub(crate) fn fragment_accesses(inter: &[MemAccess], new: &MemAccess, out: &mut Vec<MemAccess>) {
    out.clear();
    // Next still-uncovered address of the new access; `None` once the new
    // interval is fully covered (also guards Addr::MAX overflow).
    let mut cursor: Option<Addr> = Some(new.interval.lo);
    for a in inter {
        match a.interval.intersection(&new.interval) {
            None if a.interval.hi < new.interval.lo => out.push(*a), // touching left neighbour
            None => {
                // Touching right neighbour: emit the uncovered tail of the
                // new access first to keep the output sorted.
                if let Some(c) = cursor.take() {
                    out.push(new.with_interval(Interval::new(c, new.interval.hi)));
                }
                out.push(*a);
            }
            Some(ov) => {
                // Left overhang of the stored access.
                if a.interval.lo < ov.lo {
                    out.push(a.with_interval(Interval::new(a.interval.lo, ov.lo - 1)));
                }
                // Uncovered part of the new access before this overlap.
                if let Some(c) = cursor {
                    if c < ov.lo {
                        out.push(new.with_interval(Interval::new(c, ov.lo - 1)));
                    }
                }
                // The intersection fragment, Table 1 resolution.
                out.push(combine(a, new, ov));
                cursor = ov.hi.checked_add(1).filter(|&c| c <= new.interval.hi);
                // Right overhang of the stored access.
                if a.interval.hi > ov.hi {
                    out.push(a.with_interval(Interval::new(ov.hi + 1, a.interval.hi)));
                }
            }
        }
    }
    if let Some(c) = cursor {
        out.push(new.with_interval(Interval::new(c, new.interval.hi)));
    }
}

/// Step 4: fuses adjacent fragments with identical provenance, in place.
/// Returns the number of fusions performed. `frags` must be sorted and
/// disjoint. Shared with the flat engine (see [`fragment_accesses`]).
pub(crate) fn merge_accesses(frags: &mut Vec<MemAccess>) -> usize {
    let mut merges = 0;
    let mut write = 0;
    for read in 0..frags.len() {
        if write > 0 {
            let prev = frags[write - 1];
            let cur = frags[read];
            if prev.interval.precedes_adjacent(&cur.interval) && prev.same_provenance(&cur) {
                frags[write - 1].interval.hi = cur.interval.hi;
                merges += 1;
                continue;
            }
        }
        frags[write] = frags[read];
        write += 1;
    }
    frags.truncate(write);
    merges
}

impl AccessStore for FragMergeStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        self.stats.recorded += 1;

        // Cheap-reject fast path: strictly outside the cached bounding
        // interval means no stored access can conflict with, fragment
        // against, or merge with this one — skip the AVL walks entirely.
        // Touching accesses must take the slow path (the merging pass may
        // fuse them with a neighbour).
        if !self.hull.is_some_and(|h| acc.interval.intersects_or_touches(&h)) {
            self.stats.fast_hits += 1;
            self.insert_isolated(acc);
            return Ok(());
        }

        // 1. data_race_detection
        if let Some(report) = self.check(&acc) {
            self.stats.races += 1;
            return Err(Box::new(report));
        }

        // 2–5. fragment / merge / finish_insertion (+ budget coalescing).
        self.apply(acc);
        Ok(())
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats { len: self.tree.len(), ..self.stats }
    }

    fn clear(&mut self) {
        self.stats.on_clear(self.tree.len());
        self.tree.clear();
        self.hull = None;
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.tree.in_order()
    }

    /// Exact rollback: rebuilds the tree verbatim from the snapshot
    /// instead of re-recording through the insertion pipeline.
    ///
    /// The default (clear + re-record) path is *semantically* fine but
    /// interacts badly with budget coalescing and with the recovery
    /// statistics: re-recording a budget-coalesced checkpoint can
    /// re-merge adjacent coalesced chunks (so the restored tree diverges
    /// from the checkpoint it claims to equal), and every crash recovery
    /// would inflate `recorded`, `fragments`, `merges` and close a
    /// phantom epoch. Snapshot entries are disjoint by the store
    /// invariant, so inserting them directly is both exact and cheaper.
    fn restore(&mut self, snap: &[MemAccess]) {
        self.tree.clear();
        for acc in snap {
            self.tree.insert(*acc);
        }
        // Snapshots are address-ordered and disjoint (store invariant),
        // so the bounding interval runs from the first lo to the last hi.
        self.hull = match (snap.first(), snap.last()) {
            (Some(f), Some(l)) => Some(Interval::new(f.interval.lo, l.interval.hi)),
            _ => None,
        };
        self.stats.len = self.tree.len();
        self.stats.peak_len = self.stats.peak_len.max(self.stats.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Code 1 / Figure 5b: with fragmentation the Store(7) race IS caught.
    #[test]
    fn code1_race_detected() {
        let mut s = FragMergeStore::new();
        s.record(acc(4, 4, LocalRead, 1)).unwrap();
        s.record(acc(2, 12, RmaRead, 2)).unwrap();
        let err = s.record(acc(7, 7, LocalWrite, 3)).unwrap_err();
        assert_eq!(err.existing.kind, RmaRead);
        assert_eq!(err.existing.loc.line, 2);
        assert_eq!(err.new.kind, LocalWrite);
        s.assert_disjoint();
    }

    /// The in-store cheap-reject fast path: isolated accesses skip the
    /// walks (counted by `fast_hits`) with contents identical to the slow
    /// path; touching accesses still reach the merging pass; clearing
    /// resets the cached hull.
    #[test]
    fn cheap_reject_fast_path() {
        let mut s = FragMergeStore::new();
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
        s.assert_disjoint();

        // Conflicts beyond the old hull are still found once it grows.
        let err = s.record(acc_by(25, 25, RmaWrite, 1, 9)).unwrap_err();
        assert_eq!(err.existing.interval, Interval::new(10, 29));

        s.clear();
        assert_eq!(s.len(), 0);
        s.record(acc_by(10, 19, LocalWrite, 0, 2)).unwrap();
        assert_eq!(s.stats().fast_hits, 3, "clear must reset the cached hull");
    }

    /// Figure 5b's tree, merging disabled: [2...3], [4], [5...12], all
    /// RMA_Read (the Local_Read at 4 was overwritten per Table 1).
    #[test]
    fn figure5b_tree_without_merging() {
        let mut s = FragMergeStore::without_merging();
        s.record(acc(4, 4, LocalRead, 1)).unwrap();
        s.record(acc(2, 12, RmaRead, 2)).unwrap();
        let snap = s.snapshot();
        let got: Vec<_> = snap.iter().map(|a| (a.interval, a.kind)).collect();
        assert_eq!(
            got,
            vec![
                (Interval::new(2, 3), RmaRead),
                (Interval::new(4, 4), RmaRead),
                (Interval::new(5, 12), RmaRead),
            ]
        );
        s.assert_disjoint();
    }

    /// With merging the same three fragments share type and debug info
    /// (Table 1 keeps the put's), so they collapse into a single node.
    #[test]
    fn figure5b_tree_with_merging() {
        let mut s = FragMergeStore::new();
        s.record(acc(4, 4, LocalRead, 1)).unwrap();
        s.record(acc(2, 12, RmaRead, 2)).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].interval, Interval::new(2, 12));
        assert_eq!(snap[0].kind, RmaRead);
        assert_eq!(snap[0].loc.line, 2);
    }

    /// Code 2 (Figure 8b): 1,000 adjacent one-byte accesses from one
    /// source line collapse into one node.
    #[test]
    fn code2_adjacent_accesses_merge_to_one_node() {
        let mut s = FragMergeStore::new();
        for i in 0..1000u64 {
            s.record(acc(i, i, RmaWrite, 3)).unwrap();
        }
        assert_eq!(s.len(), 1);
        let snap = s.snapshot();
        assert_eq!(snap[0].interval, Interval::new(0, 999));
        assert_eq!(s.stats().merges, 999);
        s.assert_disjoint();
    }

    /// Same accesses from *different* source lines never merge ("they will
    /// not be fixed in the same way").
    #[test]
    fn different_debug_info_does_not_merge() {
        let mut s = FragMergeStore::new();
        for i in 0..10u64 {
            s.record(acc(i, i, LocalRead, 100 + i as u32)).unwrap();
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.stats().merges, 0);
    }

    /// Different issuers never merge even at the same line (the conflict
    /// rule needs the issuer).
    #[test]
    fn different_issuer_does_not_merge() {
        let mut s = FragMergeStore::new();
        s.record(acc_by(0, 4, RmaRead, 0, 7)).unwrap();
        s.record(acc_by(5, 9, RmaRead, 1, 7)).unwrap();
        assert_eq!(s.len(), 2);
    }

    /// The safe `Load; MPI_Get` order is accepted (the Section 5.2 fix);
    /// the racy `MPI_Get; Load` order is flagged.
    #[test]
    fn order_sensitivity_fix() {
        // Load then Get (same process): safe.
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, LocalRead, 1)).unwrap();
        s.record(acc(0, 9, RmaWrite, 2)).unwrap();

        // Get then Load: race.
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, RmaWrite, 1)).unwrap();
        assert!(s.record(acc(0, 9, LocalRead, 2)).is_err());
    }

    /// Figure 9: duplicated put from the same origin races at the target.
    #[test]
    fn duplicated_put_races() {
        let mut s = FragMergeStore::new();
        s.record(acc_by(0, 9, RmaWrite, 0, 612)).unwrap();
        let err = s.record(acc_by(0, 9, RmaWrite, 0, 614)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("RMA_WRITE"), "{msg}");
        assert!(msg.contains(":612"), "{msg}");
        assert!(msg.contains(":614"), "{msg}");
    }

    /// Re-recording the same access is idempotent (same line, same range).
    #[test]
    fn idempotent_reinsertion() {
        let mut s = FragMergeStore::new();
        for _ in 0..50 {
            s.record(acc(10, 20, LocalRead, 5)).unwrap();
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot()[0].interval, Interval::new(10, 20));
    }

    /// New access bridging two stored islands of the same provenance:
    /// everything fuses into one node.
    #[test]
    fn bridge_merges_three_pieces() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 3, LocalRead, 5)).unwrap();
        s.record(acc(8, 11, LocalRead, 5)).unwrap();
        assert_eq!(s.len(), 2);
        s.record(acc(4, 7, LocalRead, 5)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot()[0].interval, Interval::new(0, 11));
    }

    /// New access strictly inside a stored one of lower precedence:
    /// fragments into three nodes when provenance differs.
    #[test]
    fn contained_access_fragments() {
        let mut s = FragMergeStore::without_merging();
        s.record(acc(0, 9, LocalRead, 1)).unwrap();
        s.record(acc(3, 5, LocalWrite, 2)).unwrap();
        let got: Vec<_> = s.snapshot().iter().map(|a| (a.interval, a.kind)).collect();
        assert_eq!(
            got,
            vec![
                (Interval::new(0, 2), LocalRead),
                (Interval::new(3, 5), LocalWrite),
                (Interval::new(6, 9), LocalRead),
            ]
        );
        s.assert_disjoint();
    }

    /// Higher-precedence stored access absorbs a contained new one: the
    /// stored node survives unchanged (old prevails on the overlap, and
    /// the fragments re-merge).
    #[test]
    fn lower_precedence_new_access_absorbed() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, LocalWrite, 1)).unwrap();
        s.record(acc(3, 5, LocalRead, 2)).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].interval, Interval::new(0, 9));
        assert_eq!(snap[0].kind, LocalWrite);
        assert_eq!(snap[0].loc.line, 1, "old node left in place");
    }

    /// Racing access is rejected without modifying the tree.
    #[test]
    fn racy_access_leaves_tree_unchanged() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, RmaWrite, 1)).unwrap();
        let before = s.snapshot();
        assert!(s.record(acc(5, 14, LocalWrite, 2)).is_err());
        assert_eq!(s.snapshot(), before);
        assert_eq!(s.stats().races, 1);
    }

    /// Overlapping accesses with partial overlap on both sides.
    #[test]
    fn staircase_overlaps_stay_disjoint() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, LocalRead, 1)).unwrap();
        s.record(acc(5, 14, LocalWrite, 2)).unwrap();
        s.record(acc(10, 19, LocalRead, 3)).unwrap();
        s.assert_disjoint();
        let got: Vec<_> = s.snapshot().iter().map(|a| (a.interval, a.kind)).collect();
        assert_eq!(
            got,
            vec![
                (Interval::new(0, 4), LocalRead),
                (Interval::new(5, 14), LocalWrite), // Local_W beats Local_R both ways
                (Interval::new(15, 19), LocalRead),
            ]
        );
    }

    #[test]
    fn stats_track_fragments() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, LocalRead, 1)).unwrap();
        s.record(acc(3, 5, LocalWrite, 2)).unwrap();
        let st = s.stats();
        assert!(st.fragments >= 4, "{st:?}"); // 1 + 3 fragments at least
        assert_eq!(st.recorded, 2);
    }

    #[test]
    fn clear_resets_len_only() {
        let mut s = FragMergeStore::new();
        s.record(acc(0, 9, LocalRead, 1)).unwrap();
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats().recorded, 1);
        assert_eq!(s.stats().peak_len, 1);
    }

    /// Budgeted store: the node count never exceeds the cap after an
    /// insertion, coalescing is counted, and the invariant holds.
    #[test]
    fn budget_caps_node_count() {
        let mut s = FragMergeStore::with_budget(8);
        // 100 well-separated accesses from distinct lines: unmergeable.
        for i in 0..100u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
            assert!(s.len() <= 8, "len {} exceeds budget", s.len());
            s.assert_disjoint();
        }
        let st = s.stats();
        assert!(st.coalesced > 0, "{st:?}");
        assert_eq!(st.recorded, 100);
    }

    /// Degradation is conservative: a race the exact store reports is
    /// still reported after coalescing (here: a local write landing on
    /// memory once covered by remote reads).
    #[test]
    fn budget_never_hides_a_race() {
        let mut exact = FragMergeStore::new();
        let mut tight = FragMergeStore::with_budget(2);
        for i in 0..20u64 {
            // Remote reads from rank 1 into scattered targets.
            exact.record(acc_by(i * 100, i * 100 + 9, RmaRead, 1, i as u32)).unwrap();
            tight.record(acc_by(i * 100, i * 100 + 9, RmaRead, 1, i as u32)).unwrap();
        }
        let racy = acc(500, 505, LocalWrite, 999);
        assert!(exact.record(racy).is_err(), "exact store must flag this");
        assert!(tight.record(racy).is_err(), "budgeted store must too");
    }

    /// Coalescing may introduce false positives (the documented trade):
    /// an access in a widened gap is flagged even though the exact store
    /// accepts it.
    #[test]
    fn budget_false_positives_are_possible() {
        let mut tight = FragMergeStore::with_budget(2);
        for i in 0..20u64 {
            tight.record(acc_by(i * 100, i * 100 + 9, RmaRead, 1, i as u32)).unwrap();
        }
        // Address 50 was never accessed, but now sits inside a coalesced
        // RMA_Write node.
        let gap = acc(50, 55, LocalRead, 999);
        assert!(FragMergeStore::new().record(gap).is_ok());
        assert!(tight.record(gap).is_err(), "gap access flagged when degraded");
        assert!(tight.stats().coalesced > 0);
    }

    /// A budget-coalesced store survives `snapshot()`/`restore()`: the
    /// restored contents equal the checkpoint byte-for-byte and the
    /// `coalesced` counter is intact. The scattered layout keeps the
    /// coalesced chunks non-adjacent, so even the old re-record path
    /// would have kept the shape — the next test pins the dense case
    /// where it did not.
    #[test]
    fn budgeted_store_survives_snapshot_restore() {
        let mut s = FragMergeStore::with_budget(8);
        for i in 0..100u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
        }
        let checkpoint = s.snapshot();
        assert!(s.stats().coalesced > 0, "layout must trigger coalescing");

        // Dirty the store past the checkpoint, then roll back.
        for i in 100..140u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
        }
        let coalesced = s.stats().coalesced;
        s.restore(&checkpoint);

        assert_eq!(s.snapshot(), checkpoint, "restore must be exact");
        assert_eq!(
            s.stats().coalesced,
            coalesced,
            "restore neither zeroes nor inflates the cumulative coalesced counter"
        );
        s.assert_disjoint();
        // The store keeps degrading correctly after the rollback: the
        // budget is still enforced and conflicts are still caught.
        for i in 100..200u64 {
            s.record(acc(i * 10, i * 10 + 3, LocalRead, i as u32)).unwrap();
            assert!(s.len() <= 8, "budget still enforced after restore");
        }
        assert!(s.record(acc(0, 5, LocalWrite, 999)).is_err(), "coalesced node still conflicts");
    }

    /// The dense case the default (clear + re-record) restore got wrong:
    /// adjacent coalesced chunks share provenance, so re-recording them
    /// fused what the checkpoint kept apart — `restore` must not launder
    /// the snapshot through the merging pass.
    #[test]
    fn restore_does_not_remerge_adjacent_coalesced_chunks() {
        let mut s = FragMergeStore::with_budget(4);
        // Five adjacent reads, issuers cycling mod 3 so nothing merges:
        // the coalesce into chunks of 3 produces two *adjacent* RMA_Write
        // chunks whose first members share issuer 0 — same provenance.
        for i in 0..5u64 {
            s.record(acc_by(i * 2, i * 2 + 1, LocalRead, (i % 3) as u32, 7)).unwrap();
        }
        let checkpoint = s.snapshot();
        assert!(s.stats().coalesced > 0);
        assert!(
            checkpoint
                .windows(2)
                .any(|w| w[0].interval.precedes_adjacent(&w[1].interval)
                    && w[0].same_provenance(&w[1])),
            "checkpoint must contain adjacent same-provenance chunks: {checkpoint:?}"
        );
        let recorded = s.stats().recorded;
        let epochs = s.stats().epochs;

        s.restore(&checkpoint);

        assert_eq!(s.snapshot(), checkpoint, "chunks must not re-merge on restore");
        assert_eq!(s.stats().recorded, recorded, "restore is not a record");
        assert_eq!(s.stats().epochs, epochs, "restore closes no epoch");
    }

    /// Interval ending at Addr::MAX: cursor arithmetic must not overflow.
    #[test]
    fn interval_at_addr_max() {
        let mut s = FragMergeStore::new();
        s.record(acc(Addr::MAX - 9, Addr::MAX, LocalRead, 1)).unwrap();
        s.record(acc(Addr::MAX - 4, Addr::MAX, LocalRead, 1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.snapshot()[0].interval, Interval::new(Addr::MAX - 9, Addr::MAX));
    }
}

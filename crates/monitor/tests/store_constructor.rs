//! Pins the mapping from analyzer configuration to production store.
//!
//! [`AnalyzerCfg::build_store`] is the one production constructor: the
//! fragmentation-based algorithms run on the blocked engine, every
//! other algorithm on its one store. Below and above promotion (a
//! workload the blocked store keeps in its lone first leaf, and a churn
//! that promotes it to an index over many leaves) it must behave
//! exactly like the paper-faithful reference — [`Algorithm::new_store`],
//! or the tree's budgeted constructor when a node budget is set. Fixed
//! sequences exercising fragmentation, merging, budget coalescing, races
//! and an epoch clear go through both; per-access verdicts, snapshots
//! and statistics must agree, so a mis-wired `merging` flag or budget
//! fails here.

use rma_core::{
    AccessKind, AccessStore, FragMergeStore, Interval, MemAccess, RankId, SrcLoc, StoreStats,
};
use rma_monitor::{Algorithm, AnalyzerCfg};

/// Entries a blocked-store leaf holds at most (`2 · LEAF` in
/// `blocked.rs`): a store that never outgrows it stays one leaf.
const LEAF_CAP: usize = 128;

fn acc(lo: u64, hi: u64, kind: AccessKind, rank: u32, line: u32) -> MemAccess {
    MemAccess::new(Interval::new(lo, hi), kind, RankId(rank), SrcLoc::synthetic("map.c", line))
}

/// Two epochs of: adjacent same-provenance reads (merge), overlapping
/// mixed kinds (fragment), scattered reads past a budget of 2
/// (coalesce) and racing writes. `None` is an epoch boundary.
fn workload() -> Vec<Option<MemAccess>> {
    use AccessKind::*;
    let mut ops = Vec::new();
    for epoch in 0..2u32 {
        ops.extend((0..8u64).map(|i| Some(acc(i * 4, i * 4 + 3, LocalRead, 0, 1 + epoch))));
        ops.push(Some(acc(6, 17, RmaRead, 1, 10)));
        ops.push(Some(acc(10, 12, LocalWrite, 0, 11)));
        ops.extend((0..6u64).map(|i| Some(acc(1000 + i * 100, 1009 + i * 100, RmaRead, 2, 20))));
        ops.push(Some(acc(1205, 1206, LocalWrite, 0, 30)));
        ops.push(Some(acc(64, 70, RmaWrite, 1, 31)));
        ops.push(Some(acc(66, 66, LocalRead, 0, 32)));
        ops.push(None);
    }
    ops
}

/// Many leaves: 64 interleaved ascending regions (a churn of 5,120
/// nodes), then a read across a region head (fragment and merge), a
/// racing write and a clear, then a second, smaller epoch ending in two
/// adjacent same-provenance reads (merge, even after budget
/// coalescing).
fn churn_workload() -> Vec<Option<MemAccess>> {
    use AccessKind::*;
    let round = |i: u64| {
        (0..64u64).map(move |r| {
            let lo = (r << 20) + i * 3;
            Some(acc(lo, lo + 1, LocalRead, 0, 1 + r as u32))
        })
    };
    let mut ops: Vec<_> = (0..80).flat_map(round).collect();
    ops.push(Some(acc(5 << 20, (5 << 20) + 100, RmaRead, 0, 90)));
    ops.push(Some(acc((7 << 20) + 30, (7 << 20) + 30, RmaWrite, 1, 91)));
    ops.push(None);
    ops.extend((0..4).flat_map(round));
    ops.push(Some(acc(1 << 30, (1 << 30) + 3, RmaRead, 2, 92)));
    ops.push(Some(acc((1 << 30) + 4, (1 << 30) + 7, RmaRead, 2, 92)));
    ops
}

/// The reference a configuration must equal.
fn reference(algorithm: Algorithm, budget: Option<usize>) -> Box<dyn AccessStore + Send> {
    match (algorithm, budget) {
        (Algorithm::FragMerge, Some(cap)) => Box::new(FragMergeStore::with_budget(cap)),
        (Algorithm::FragmentOnly, Some(cap)) => {
            Box::new(FragMergeStore::without_merging_budgeted(cap))
        }
        _ => algorithm.new_store(),
    }
}

/// Runs `ops` through `build_store` and the reference, comparing
/// verdicts on every access, statistics after every step and snapshots
/// every `snapshot_every` steps and at every epoch boundary. Returns the
/// final statistics.
fn check_against_reference(
    algorithm: Algorithm,
    budget: Option<usize>,
    ops: &[Option<MemAccess>],
    snapshot_every: usize,
) -> StoreStats {
    let cfg = AnalyzerCfg { algorithm, node_budget: budget, ..AnalyzerCfg::default() };
    let mut built = cfg.build_store(None);
    let mut want = reference(algorithm, budget);
    let case = format!("{algorithm:?}/{budget:?}");
    for (i, op) in ops.iter().enumerate() {
        match op {
            Some(a) => assert_eq!(built.record(*a), want.record(*a), "{case} op {i}"),
            None => {
                assert_eq!(built.snapshot(), want.snapshot(), "{case} op {i}: contents diverge");
                built.clear();
                want.clear();
            }
        }
        assert_eq!(built.stats(), want.stats(), "{case} op {i}: statistics diverge");
        if i % snapshot_every == 0 || i + 1 == ops.len() {
            assert_eq!(built.snapshot(), want.snapshot(), "{case} op {i}: contents diverge");
        }
    }
    let stats = built.stats();
    assert!(stats.races > 0, "{case}: the racing writes must be caught");
    match algorithm {
        Algorithm::FragMerge => assert!(stats.merges > 0, "{case}: nothing merged"),
        Algorithm::FragmentOnly => assert_eq!(stats.merges, 0, "{case}: merged"),
        _ => {}
    }
    let fragmenting = matches!(algorithm, Algorithm::FragMerge | Algorithm::FragmentOnly);
    if fragmenting && budget.is_some() {
        assert!(stats.coalesced > 0, "{case}: the budget must be enforced");
    }
    stats
}

#[test]
fn build_store_matches_reference_below_promotion() {
    let ops = workload();
    for algorithm in [
        Algorithm::Legacy,
        Algorithm::FragMerge,
        Algorithm::FragmentOnly,
        Algorithm::FullHistory,
        Algorithm::StrideExtension,
    ] {
        for budget in [None, Some(2)] {
            let stats = check_against_reference(algorithm, budget, &ops, 1);
            assert!(stats.peak_len <= LEAF_CAP, "{algorithm:?}: the store must stay one leaf");
        }
    }
}

#[test]
fn build_store_matches_reference_above_promotion() {
    let ops = churn_workload();
    for algorithm in [Algorithm::FragMerge, Algorithm::FragmentOnly] {
        for budget in [None, Some(3000)] {
            let stats = check_against_reference(algorithm, budget, &ops, 256);
            assert!(stats.peak_len > LEAF_CAP, "{algorithm:?}: the store must outgrow one leaf");
        }
    }
}

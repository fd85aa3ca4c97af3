//! Pins the mapping from analyzer configuration to production store.
//!
//! [`AnalyzerCfg::build_store`] is the one production constructor: the
//! fragmentation-based algorithms run on the adaptive engine, every
//! other algorithm on its one store. Below the adaptive engine's
//! promotion threshold it must behave exactly like the paper-faithful
//! reference — [`Algorithm::new_store`], or the tree's budgeted
//! constructor when a node budget is set. A fixed sequence exercising
//! fragmentation, merging, budget coalescing, races and an epoch clear
//! goes through both; per-access verdicts, snapshots and statistics must
//! agree, so a mis-wired `merging` flag or budget fails here.

use rma_core::{
    AccessKind, AccessStore, AdaptiveCfg, FragMergeStore, Interval, MemAccess, RankId, SrcLoc,
};
use rma_monitor::{Algorithm, AnalyzerCfg};

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

#[test]
fn build_store_matches_reference_below_promotion() {
    let ops = workload();
    assert!(ops.len() < AdaptiveCfg::default().promote_len, "workload must stay unpromoted");
    for algorithm in [
        Algorithm::Legacy,
        Algorithm::FragMerge,
        Algorithm::FragmentOnly,
        Algorithm::FullHistory,
        Algorithm::StrideExtension,
    ] {
        for budget in [None, Some(2)] {
            let cfg = AnalyzerCfg { algorithm, node_budget: budget, ..AnalyzerCfg::default() };
            let mut built = cfg.build_store(None);
            let mut want: Box<dyn AccessStore + Send> = match (algorithm, budget) {
                (Algorithm::FragMerge, Some(cap)) => Box::new(FragMergeStore::with_budget(cap)),
                (Algorithm::FragmentOnly, Some(cap)) => {
                    Box::new(FragMergeStore::without_merging_budgeted(cap))
                }
                _ => algorithm.new_store(),
            };
            let case = format!("{algorithm:?}/{budget:?}");
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Some(a) => assert_eq!(built.record(*a), want.record(*a), "{case} op {i}"),
                    None => {
                        built.clear();
                        want.clear();
                    }
                }
                assert_eq!(built.snapshot(), want.snapshot(), "{case} op {i}: contents diverge");
            }
            let stats = built.stats();
            assert_eq!(stats, want.stats(), "{case}: statistics diverge");
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
        }
    }
}

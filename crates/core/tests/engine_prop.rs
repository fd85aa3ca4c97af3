//! Differential property campaign: the production engine,
//! `BlockedStore`, must equal the tree `FragMergeStore` exactly — the
//! same verdict (race report included) on every record, the same
//! snapshot after every step (no normalization: both share the tree's
//! fragment / merge / coalesce passes) and the same `StoreStats` — for
//! merging and fragmentation-only stores, with and without a node
//! budget.
//!
//! Two stream shapes: short streams over scattered addresses (extremes,
//! `u64::MAX` bounds, epoch clears) that stay in the lazily grown first
//! leaf, and long dense streams that fill many leaves and throw wide
//! accesses across leaf boundaries.
//!
//! Failing seeds print a `RMA_PROP_REPLAY` line; the named regression
//! tests at the bottom pin a few seeds permanently (shrunk streams stay
//! replayable from the seed alone, so the seed *is* the regression).

use rma_core::{
    AccessKind, AccessStore, BlockedStore, FragMergeStore, Interval, MemAccess, RankId, SrcLoc,
};
use rma_substrate::prop::{shrink_vec, Gen, Prop};

const OWNER: RankId = RankId(0);

/// (merging, budget) of every store configuration compared.
const CONFIGS: [(bool, Option<usize>); 5] =
    [(true, None), (false, None), (true, Some(8)), (false, Some(8)), (true, Some(300))];

/// One workload step: an access, or an epoch boundary.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(MemAccess),
    Clear,
}

fn access(lo: u64, hi: u64, kind: AccessKind, issuer: RankId, line: u32) -> Op {
    Op::Access(MemAccess::new(
        Interval::new(lo, hi),
        kind,
        issuer,
        SrcLoc::synthetic("prop.c", line),
    ))
}

/// Address biased toward a small dense region and the extremes.
fn arb_addr(g: &mut Gen) -> u64 {
    match g.range(0u32..4) {
        0 | 1 => g.range(0u64..256),
        2 => u64::MAX - g.range(0u64..32),
        _ => g.u64_any(),
    }
}

fn arb_op(g: &mut Gen) -> Op {
    if g.range(0u32..16) == 0 {
        return Op::Clear;
    }
    let lo = arb_addr(g);
    let hi = lo.saturating_add(g.range(0u64..31));
    let kind = AccessKind::ALL[g.range(0usize..5)];
    let issuer = if kind.is_local() { OWNER } else { RankId(g.range(0u32..3)) };
    access(lo, hi, kind, issuer, g.range(1u32..6))
}

/// Dense-stream step: mostly narrow reads (which never race with each
/// other, so the store keeps growing), now and then a write, and one in
/// 32 a wide access spanning many leaves.
fn arb_dense_op(g: &mut Gen) -> Op {
    if g.range(0u32..256) == 0 {
        return Op::Clear;
    }
    let lo = g.range(0u64..8192);
    let width = if g.range(0u32..32) == 0 { g.range(64u64..4096) } else { g.range(0u64..3) };
    let kind = match g.range(0u32..16) {
        0 => AccessKind::ALL[g.range(0usize..5)],
        k if k % 2 == 0 => AccessKind::LocalRead,
        _ => AccessKind::RmaRead,
    };
    let issuer = if kind.is_local() { OWNER } else { RankId(g.range(0u32..2)) };
    access(lo, lo + width, kind, issuer, g.range(1u32..4))
}

fn arb_ops(g: &mut Gen) -> Vec<Op> {
    if g.range(0u32..4) == 0 {
        g.vec(200..1200, arb_dense_op)
    } else {
        g.vec(1..150, arb_op)
    }
}

/// The differential check itself, shared by the property and the pinned
/// streams.
fn check_equivalence(ops: &[Op]) {
    for (merging, budget) in CONFIGS {
        let mut tree = match (merging, budget) {
            (true, None) => FragMergeStore::new(),
            (false, None) => FragMergeStore::without_merging(),
            (true, Some(cap)) => FragMergeStore::with_budget(cap),
            (false, Some(cap)) => FragMergeStore::without_merging_budgeted(cap),
        };
        let mut blocked = BlockedStore::with_cfg(merging, budget);
        let case = format!("merging {merging}, budget {budget:?}");
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Clear => {
                    tree.clear();
                    blocked.clear();
                }
                Op::Access(acc) => {
                    let want = tree.record(*acc);
                    assert_eq!(
                        blocked.record(*acc),
                        want,
                        "{case}, op {i}: blocked verdict on {acc:?}"
                    );
                }
            }
            blocked.assert_invariants();
            let (snap, stats) = (tree.snapshot(), tree.stats());
            assert_eq!(blocked.snapshot(), snap, "{case}, op {i}: blocked contents diverge");
            assert_eq!(blocked.stats(), stats, "{case}, op {i}: blocked statistics diverge");
        }
    }
}

#[test]
fn engines_match_tree_fragmerge() {
    Prop::new("engines_match_tree_fragmerge").cases(96).run(
        arb_ops,
        |v| shrink_vec(v),
        |ops| check_equivalence(ops),
    );
}

/// Hand-built extremes: a full-domain interval, `u64::MAX` endpoints,
/// races, and an epoch clear.
#[test]
fn extremes_and_epoch_clear() {
    use AccessKind::*;
    let cut = 1u64 << 62;
    check_equivalence(&[
        access(cut - 1, cut, RmaRead, RankId(1), 1),
        access(cut - 8, cut + 8, RmaRead, RankId(1), 1),
        access(0, u64::MAX, RmaRead, RankId(1), 2), // full domain
        access(u64::MAX, u64::MAX, RmaRead, RankId(1), 3), // point at the top
        access(u64::MAX - 7, u64::MAX, RmaWrite, RankId(2), 4), // races
        Op::Clear,
        access(cut - 1, cut, LocalWrite, OWNER, 5),
        access(cut, cut + 1, RmaWrite, RankId(1), 6), // races on one byte
    ]);
}

/// One access spanning many leaves: 3,000 disjoint nodes (at most
/// 128 per blocked leaf, so at least 24 leaves) in ascending and
/// then descending order, then wide accesses over most of them — one
/// that fragments every node it covers, one that races mid-span, and
/// one that absorbs the span into a single node.
#[test]
fn access_spanning_many_leaves() {
    use AccessKind::*;
    let mut ops: Vec<Op> =
        (0..1500u64).map(|i| access(i * 4, i * 4 + 1, LocalRead, OWNER, 1)).collect();
    ops.extend((1500..3000u64).rev().map(|i| access(i * 4, i * 4 + 1, RmaRead, RankId(1), 2)));
    ops.extend([
        access(10, 11_000, RmaRead, RankId(2), 3), // fragments ~2,750 nodes
        access(6001, 6002, LocalWrite, OWNER, 4),  // races inside the span
        access(0, 11_999, RmaWrite, RankId(2), 5), // absorbs everything
        access(12_000, 12_000, RmaWrite, RankId(2), 5), // touching: merges
    ]);
    check_equivalence(&ops);
}

// Pinned seeds for the campaign (shrinker-friendly: each replays the
// full generate+check pipeline from the seed, so a future divergence
// reports the shrunk stream and the RMA_PROP_REPLAY line).
#[test]
fn regression_seed_3c6ef372() {
    check_equivalence(&arb_ops(&mut Gen::new(0x3C6E_F372)));
}

#[test]
fn regression_seed_9e3779b9() {
    check_equivalence(&arb_ops(&mut Gen::new(0x9E37_79B9)));
}

#[test]
fn regression_seed_daa66d2b() {
    check_equivalence(&arb_ops(&mut Gen::new(0xDAA6_6D2B)));
}

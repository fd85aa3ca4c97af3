//! Differential property campaign: `ShardedStore<FlatStore>` must be
//! *verdict-equivalent* to the plain tree `FragMergeStore` — same
//! race-or-not answer on every record, same per-address stored content —
//! for shard counts {1, 2, 4, 16}, on random interval workloads biased
//! toward the nasty spots: intervals straddling shard cuts, `u64::MAX`
//! bounds, and epoch clears in the middle of a stream.
//!
//! Contents are compared modulo boundary splits: sharding never merges
//! across a cut, so the sharded snapshot may hold an adjacent
//! same-provenance pair where the plain store holds one node. Fusing
//! such pairs (`normalize`) recovers the plain store's canonical form;
//! any other difference is a real divergence.
//!
//! Failing seeds print a `RMA_PROP_REPLAY` line; the named regression
//! tests at the bottom pin a few seeds permanently (shrunk streams stay
//! replayable from the seed alone, so the seed *is* the regression).
//!
//! The same streams also drive the unsharded engines: `FlatStore`
//! (exact snapshot + stats equality with the plain store) and
//! `AdaptiveStore` with a deliberately tiny promotion threshold so every
//! stream of any size exercises the flat→sharded promotion mid-sequence.

use rma_core::{
    AccessKind, AccessStore, AdaptiveCfg, AdaptiveStore, FlatStore, FragMergeStore, Interval,
    MemAccess, RankId, ShardedStore, SrcLoc,
};
use rma_substrate::prop::{shrink_vec, Gen, Prop};

const OWNER: RankId = RankId(0);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 16];

/// One workload step: an access, or an epoch boundary.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(MemAccess),
    Clear,
}

/// Address biased toward shard cuts of the full-`u64` partitions used
/// below (multiples of 2^60), the extremes, and a small dense region.
fn arb_addr(g: &mut Gen) -> u64 {
    match g.range(0u32..4) {
        0 => g.range(0u64..256),
        1 => {
            // Around a 16-shard cut (also covers the 2- and 4-shard cuts,
            // which are a subset of the multiples of 1 << 60).
            let cut = (1u64 << 60).wrapping_mul(g.range(1u64..16));
            cut.wrapping_add(g.range(0u64..16)).wrapping_sub(8)
        }
        2 => u64::MAX - g.range(0u64..32),
        _ => g.u64_any(),
    }
}

fn arb_op(g: &mut Gen) -> Op {
    if g.range(0u32..16) == 0 {
        return Op::Clear;
    }
    let lo = arb_addr(g);
    let len = g.range(1u64..32);
    let hi = lo.saturating_add(len - 1);
    let kind = AccessKind::ALL[g.range(0usize..5)];
    let issuer = if kind.is_local() { OWNER } else { RankId(g.range(0u32..3)) };
    let line = g.range(1u32..6);
    Op::Access(MemAccess::new(
        Interval::new(lo, hi),
        kind,
        issuer,
        SrcLoc::synthetic("prop.c", line),
    ))
}

fn arb_ops(g: &mut Gen) -> Vec<Op> {
    g.vec(1..150, arb_op)
}

/// Fuses adjacent same-provenance nodes: the canonical form both
/// snapshots must share (see module docs).
fn normalize(snap: &[MemAccess]) -> Vec<MemAccess> {
    let mut out: Vec<MemAccess> = Vec::new();
    for a in snap {
        if let Some(last) = out.last_mut() {
            if last.interval.precedes_adjacent(&a.interval) && last.same_provenance(a) {
                last.interval.hi = a.interval.hi;
                continue;
            }
        }
        out.push(*a);
    }
    out
}

/// The differential check itself, shared by the property and the pinned
/// regression seeds.
fn check_equivalence(ops: &[Op]) {
    for &n in &SHARD_COUNTS {
        let mut plain = FragMergeStore::new();
        let mut sharded = ShardedStore::new(n, FlatStore::new);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Clear => {
                    plain.clear();
                    sharded.clear();
                }
                Op::Access(acc) => {
                    let p = plain.record(*acc);
                    let s = sharded.record(*acc);
                    assert_eq!(
                        p.is_err(),
                        s.is_err(),
                        "op {i}: verdicts diverge at {n} shards for {acc:?} \
                         (plain {p:?} vs sharded {s:?})"
                    );
                }
            }
            assert_eq!(
                normalize(&plain.snapshot()),
                normalize(&sharded.snapshot()),
                "op {i}: contents diverge at {n} shards"
            );
        }
        let (ps, ss) = (plain.stats(), sharded.stats());
        assert_eq!(ps.races, ss.races, "race totals diverge at {n} shards");
        assert_eq!(ps.recorded, ss.recorded, "recorded totals diverge at {n} shards");
        assert!(
            ss.fast_hits <= ss.recorded,
            "fast_hits {} exceeds logical accesses {} at {n} shards",
            ss.fast_hits,
            ss.recorded
        );
    }
    check_engine_equivalence(ops);
}

/// The unsharded engines run the same differential campaign against the
/// plain `FragMergeStore` oracle. `FlatStore` shares the fragment /
/// merge helpers with the tree, so its snapshot must be byte-identical
/// (no `normalize`); the adaptive store is compared modulo boundary
/// splits like the sharded store above.
fn check_engine_equivalence(ops: &[Op]) {
    let mut plain = FragMergeStore::new();
    let mut flat = FlatStore::new();
    // Tiny promotion threshold: streams of every size cross it, so the
    // flat→sharded handoff happens mid-sequence, not just at scale.
    let mut adaptive = AdaptiveStore::with_cfg(AdaptiveCfg {
        promote_len: 24,
        shards: 4,
        ..AdaptiveCfg::default()
    });
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Clear => {
                plain.clear();
                flat.clear();
                adaptive.clear();
            }
            Op::Access(acc) => {
                let p = plain.record(*acc).is_err();
                let f = flat.record(*acc).is_err();
                let ad = adaptive.record(*acc).is_err();
                assert_eq!(p, f, "op {i}: flat verdict diverges for {acc:?}");
                assert_eq!(p, ad, "op {i}: adaptive verdict diverges for {acc:?}");
            }
        }
        let want = plain.snapshot();
        assert_eq!(want, flat.snapshot(), "op {i}: flat contents diverge");
        assert_eq!(
            normalize(&want),
            normalize(&adaptive.snapshot()),
            "op {i}: adaptive contents diverge"
        );
    }
    let ps = plain.stats();
    for (name, s) in [("flat", flat.stats()), ("adaptive", adaptive.stats())] {
        assert_eq!(ps.races, s.races, "{name}: race totals diverge");
        assert_eq!(ps.recorded, s.recorded, "{name}: recorded totals diverge");
        assert!(
            s.fast_hits <= s.recorded,
            "{name}: fast_hits {} exceeds logical accesses {}",
            s.fast_hits,
            s.recorded
        );
    }
    // The flat layout shares the tree's hull fast path exactly.
    assert_eq!(ps.fast_hits, flat.stats().fast_hits, "flat fast-hit accounting diverges");
}

#[test]
fn sharded_matches_plain_fragmerge() {
    Prop::new("sharded_matches_plain_fragmerge")
        .cases(96)
        .run(arb_ops, |v| shrink_vec(v), |ops| check_equivalence(ops));
}

/// Hand-built boundary torture: intervals exactly straddling 4-shard
/// cuts, a full-domain interval, and `u64::MAX` endpoints.
#[test]
fn boundary_straddles_and_extremes() {
    let cut = 1u64 << 62; // first 4-shard cut of the full-u64 domain
    let a = |lo, hi, kind, rank, line| {
        Op::Access(MemAccess::new(
            Interval::new(lo, hi),
            kind,
            RankId(rank),
            SrcLoc::synthetic("edge.c", line),
        ))
    };
    use AccessKind::*;
    check_equivalence(&[
        a(cut - 1, cut, RmaRead, 1, 1),               // exactly straddles the cut
        a(cut - 8, cut + 8, RmaRead, 1, 1),           // overlaps + both sides
        a(0, u64::MAX, RmaRead, 1, 2),                // full domain, every shard
        a(u64::MAX, u64::MAX, RmaRead, 1, 3),         // point at the top
        a(u64::MAX - 7, u64::MAX, RmaWrite, 2, 4),    // races across top shards
        Op::Clear,
        a(cut - 1, cut, LocalWrite, 0, 5),            // fresh epoch straddle
        a(cut, cut + 1, RmaWrite, 1, 6),              // conflicts on one piece only
    ]);
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

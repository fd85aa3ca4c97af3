//! Model-based testing of the AVL multiset against a sorted-vector
//! reference: random interleavings of inserts, exact removals and
//! overlap queries must agree, with structural invariants holding after
//! every operation and every query's node visits within its bound. Runs
//! on the `rma_substrate::prop` harness.

use core::ops::ControlFlow;
use rma_core::avl::Avl;
use rma_core::{AccessKind, Interval, MemAccess, RankId, SrcLoc};
use rma_substrate::prop::{shrink_vec, Gen, Prop};

#[derive(Clone, Debug)]
enum Op {
    Insert { lo: u64, len: u64, line: u32 },
    RemoveExisting { pick: usize },
    RemoveMissing { lo: u64, line: u32 },
    Query { lo: u64, len: u64 },
}

fn arb_op(g: &mut Gen) -> Op {
    match g.range(0u32..4) {
        0 => Op::Insert { lo: g.range(0u64..200), len: g.range(1u64..24), line: g.range(1u32..6) },
        1 => Op::RemoveExisting { pick: g.u64_any() as usize },
        2 => Op::RemoveMissing { lo: g.range(0u64..200), line: g.range(100u32..105) },
        _ => Op::Query { lo: g.range(0u64..220), len: g.range(1u64..40) },
    }
}

fn acc(lo: u64, len: u64, line: u32) -> MemAccess {
    MemAccess::new(
        Interval::sized(lo, len),
        AccessKind::LocalRead,
        RankId(0),
        SrcLoc::synthetic("model.c", line),
    )
}

#[test]
fn avl_matches_vector_model() {
    Prop::new("avl_matches_vector_model").cases(256).run(
        |g| g.vec(1..200, arb_op),
        |ops| shrink_vec(ops),
        |ops| {
            let mut tree = Avl::new();
            let mut model: Vec<MemAccess> = Vec::new();
            for op in ops {
                match *op {
                    Op::Insert { lo, len, line } => {
                        let a = acc(lo, len, line);
                        tree.insert(a);
                        model.push(a);
                    }
                    Op::RemoveExisting { pick } => {
                        if !model.is_empty() {
                            let ix = pick % model.len();
                            let a = model.swap_remove(ix);
                            assert!(tree.remove(&a), "tree lost {a:?}");
                        }
                    }
                    Op::RemoveMissing { lo, line } => {
                        // Lines 100+ are never inserted: removal must fail
                        // and change nothing.
                        let before = tree.len();
                        assert!(!tree.remove(&acc(lo, 1, line)));
                        assert_eq!(tree.len(), before);
                    }
                    Op::Query { lo, len } => {
                        let q = Interval::sized(lo, len);
                        let (mut got, mut visits) = (Vec::new(), 0);
                        let _ = tree.for_each_overlapping(q, &mut || visits += 1, &mut |a| {
                            got.push(*a);
                            ControlFlow::Continue(())
                        });
                        // The query's cost (Section 4.2). It enters every
                        // node it reports. Every node it enters is the
                        // root or a child of an entered node it did not
                        // prune, and those lie on the search path for
                        // `q.hi` or on a path to a reported node: at most
                        // 1 + 2h(k + 1) visits. On the store's disjoint
                        // trees a one-overlap probe costs at most 2h
                        // (`paper_counts`); here overlapping intervals let
                        // the paths to the k reports part near the root.
                        let (h, k) = (tree.height() as usize, got.len());
                        assert!(
                            k <= visits && visits <= 1 + 2 * h * (k + 1),
                            "{visits} visits for {k} overlaps at height {h}"
                        );
                        let mut want: Vec<MemAccess> = model
                            .iter()
                            .copied()
                            .filter(|a| a.interval.intersects(&q))
                            .collect();
                        let key = |a: &MemAccess| (a.interval.lo, a.interval.hi, a.loc.line);
                        got.sort_by_key(key);
                        want.sort_by_key(key);
                        assert_eq!(got, want);
                    }
                }
                tree.validate();
                assert_eq!(tree.len(), model.len());
            }
            // Final in-order traversal is sorted by lower bound and contains
            // exactly the model's accesses.
            let snap = tree.in_order();
            assert!(snap.windows(2).all(|w| w[0].interval.lo <= w[1].interval.lo));
            let mut a: Vec<_> =
                snap.iter().map(|x| (x.interval.lo, x.interval.hi, x.loc.line)).collect();
            let mut b: Vec<_> =
                model.iter().map(|x| (x.interval.lo, x.interval.hi, x.loc.line)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        },
    );
}

/// Height stays logarithmic (AVL bound: 1.44 log2(n+2)).
#[test]
fn height_is_logarithmic() {
    Prop::new("height_is_logarithmic").run(
        |g| g.range(1usize..2000),
        |&n| rma_substrate::prop::shrink_u64(n as u64, 1).into_iter().map(|x| x as usize).collect(),
        |&n| {
            let mut tree = Avl::new();
            for i in 0..n {
                tree.insert(acc(i as u64, 1, 1));
            }
            let bound = (1.45 * ((n + 2) as f64).log2()).ceil() as i32 + 1;
            assert!(tree.height() <= bound, "h={} n={}", tree.height(), n);
        },
    );
}

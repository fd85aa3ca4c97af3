//! A self-balancing (AVL) binary search multiset of [`MemAccess`]es keyed
//! by the lower bound of their interval, augmented with the classic
//! interval-tree `max_hi` field.
//!
//! We deliberately roll our own tree instead of using `BTreeMap`:
//!
//! * The legacy RMA-Analyzer false negative (Figure 5a) is an artifact of
//!   a *real binary search descent* — the conflict check visits only the
//!   root-to-leaf path selected by lower-bound comparisons, so an interval
//!   stored in the "wrong" subtree is never examined. Reproducing that
//!   behaviour requires access to the tree's actual shape
//!   ([`Avl::first_conflict_on_path`]).
//! * The original implementation used C++ `std::multiset`: duplicate lower
//!   bounds must coexist (multiset semantics), and node counts — the
//!   paper's Table 4 metric — must be exact.
//! * The new algorithm needs an *exact* intersection query, which the
//!   `max_hi` augmentation provides in `O(log n + k)` on the disjoint
//!   trees the fragmentation pass maintains.
//!
//! All operations are `O(log n)` (plus output size), matching the
//! complexity argument at the end of the paper's Section 4.2.

use core::ops::ControlFlow;

use crate::access::MemAccess;
use crate::interval::{Addr, Interval};

struct Node {
    acc: MemAccess,
    /// Max `interval.hi` over this whole subtree.
    max_hi: Addr,
    height: i32,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(acc: MemAccess) -> Box<Node> {
        Box::new(Node { acc, max_hi: acc.interval.hi, height: 1, left: None, right: None })
    }
}

#[inline]
fn height(n: &Option<Box<Node>>) -> i32 {
    n.as_ref().map_or(0, |n| n.height)
}

#[inline]
fn max_hi(n: &Option<Box<Node>>) -> Option<Addr> {
    n.as_ref().map(|n| n.max_hi)
}

#[inline]
fn update(n: &mut Box<Node>) {
    n.height = 1 + height(&n.left).max(height(&n.right));
    let mut m = n.acc.interval.hi;
    if let Some(h) = max_hi(&n.left) {
        m = m.max(h);
    }
    if let Some(h) = max_hi(&n.right) {
        m = m.max(h);
    }
    n.max_hi = m;
}

#[inline]
fn balance_factor(n: &Node) -> i32 {
    height(&n.left) - height(&n.right)
}

fn rotate_right(mut n: Box<Node>) -> Box<Node> {
    let mut l = n.left.take().expect("rotate_right without left child");
    n.left = l.right.take();
    update(&mut n);
    l.right = Some(n);
    update(&mut l);
    l
}

fn rotate_left(mut n: Box<Node>) -> Box<Node> {
    let mut r = n.right.take().expect("rotate_left without right child");
    n.right = r.left.take();
    update(&mut n);
    r.left = Some(n);
    update(&mut r);
    r
}

fn rebalance(mut n: Box<Node>) -> Box<Node> {
    update(&mut n);
    let bf = balance_factor(&n);
    if bf > 1 {
        if balance_factor(n.left.as_ref().expect("bf>1 implies left")) < 0 {
            n.left = Some(rotate_left(n.left.take().expect("left")));
        }
        rotate_right(n)
    } else if bf < -1 {
        if balance_factor(n.right.as_ref().expect("bf<-1 implies right")) > 0 {
            n.right = Some(rotate_right(n.right.take().expect("right")));
        }
        rotate_left(n)
    } else {
        n
    }
}

fn insert_node(n: Option<Box<Node>>, acc: MemAccess) -> Box<Node> {
    match n {
        None => Node::new(acc),
        Some(mut node) => {
            // Multiset semantics: equal lower bounds go right, like C++
            // std::multiset::insert (insertion at the upper bound).
            if acc.interval.lo < node.acc.interval.lo {
                node.left = Some(insert_node(node.left.take(), acc));
            } else {
                node.right = Some(insert_node(node.right.take(), acc));
            }
            rebalance(node)
        }
    }
}

/// Removes one node exactly equal to `key`. Returns (new subtree, removed?).
fn remove_node(n: Option<Box<Node>>, key: &MemAccess) -> (Option<Box<Node>>, bool) {
    let Some(mut node) = n else { return (None, false) };
    let removed;
    if key.interval.lo < node.acc.interval.lo {
        let (sub, r) = remove_node(node.left.take(), key);
        node.left = sub;
        removed = r;
    } else if key.interval.lo > node.acc.interval.lo {
        let (sub, r) = remove_node(node.right.take(), key);
        node.right = sub;
        removed = r;
    } else if node.acc == *key {
        // Delete this node.
        return match (node.left.take(), node.right.take()) {
            (None, None) => (None, true),
            (Some(l), None) => (Some(l), true),
            (None, Some(r)) => (Some(r), true),
            (Some(l), Some(r)) => {
                // Replace with the in-order successor (leftmost of right).
                let (r, succ) = pop_leftmost(r);
                node.acc = succ;
                node.left = Some(l);
                node.right = r;
                (Some(rebalance(node)), true)
            }
        };
    } else {
        // Equal lower bound but different payload: after rotations, equal
        // keys may live on either side. Try right (the insertion side)
        // first, then left.
        let (sub, r) = remove_node(node.right.take(), key);
        node.right = sub;
        if r {
            removed = true;
        } else {
            let (sub, r) = remove_node(node.left.take(), key);
            node.left = sub;
            removed = r;
        }
    }
    (Some(rebalance(node)), removed)
}

fn pop_leftmost(mut n: Box<Node>) -> (Option<Box<Node>>, MemAccess) {
    match n.left.take() {
        None => (n.right.take(), n.acc),
        Some(l) => {
            let (sub, acc) = pop_leftmost(l);
            n.left = sub;
            (Some(rebalance(n)), acc)
        }
    }
}

/// AVL multiset of memory accesses ordered by `interval.lo`.
///
/// See the module docs for why this exists instead of a `BTreeMap`.
#[derive(Default)]
pub struct Avl {
    root: Option<Box<Node>>,
    len: usize,
}

impl Avl {
    /// An empty tree.
    pub fn new() -> Self {
        Avl { root: None, len: 0 }
    }

    /// Number of nodes (the paper's Table 4 metric).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 for empty); `O(1)`.
    #[inline]
    pub fn height(&self) -> i32 {
        height(&self.root)
    }

    /// Inserts an access (duplicates allowed).
    pub fn insert(&mut self, acc: MemAccess) {
        self.root = Some(insert_node(self.root.take(), acc));
        self.len += 1;
    }

    /// Removes one node exactly equal to `key`; returns whether a node was
    /// removed.
    pub fn remove(&mut self, key: &MemAccess) -> bool {
        let (root, removed) = remove_node(self.root.take(), key);
        self.root = root;
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Drops every node.
    pub fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }

    /// Walks the *insertion search path* for `probe` (lower-bound
    /// comparisons only, ties descend right — exactly the multiset lookup
    /// of the legacy implementation) and returns the first visited access
    /// for which `pred` holds.
    ///
    /// This models the legacy RMA-Analyzer conflict check: accesses lying
    /// off the search path are never examined, which is the mechanism of
    /// the paper's Figure 5a false negative.
    pub fn first_conflict_on_path(
        &self,
        probe: &MemAccess,
        mut pred: impl FnMut(&MemAccess) -> bool,
    ) -> Option<MemAccess> {
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            if pred(&node.acc) {
                return Some(node.acc);
            }
            cur = if probe.interval.lo < node.acc.interval.lo {
                node.left.as_deref()
            } else {
                node.right.as_deref()
            };
        }
        None
    }

    /// Visits every stored access whose interval intersects `query`, in
    /// address order, using the `max_hi` augmentation for pruning. The
    /// callback can stop the walk early by returning
    /// [`ControlFlow::Break`]. `visit` runs once per node the walk
    /// enters, pruned or not: the query's cost, which `rma-bench`'s
    /// `check_visits` rows count. Other callers pass `&mut || {}`.
    pub fn for_each_overlapping(
        &self,
        query: Interval,
        visit: &mut impl FnMut(),
        f: &mut impl FnMut(&MemAccess) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        fn walk(
            n: &Option<Box<Node>>,
            q: Interval,
            visit: &mut impl FnMut(),
            f: &mut impl FnMut(&MemAccess) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            let Some(node) = n else { return ControlFlow::Continue(()) };
            visit();
            if node.max_hi < q.lo {
                // Nothing in this subtree reaches the query.
                return ControlFlow::Continue(());
            }
            walk(&node.left, q, visit, f)?;
            if node.acc.interval.intersects(&q) {
                f(&node.acc)?;
            }
            if node.acc.interval.lo <= q.hi {
                walk(&node.right, q, visit, f)?;
            }
            ControlFlow::Continue(())
        }
        walk(&self.root, query, visit, f)
    }

    /// Collects every stored access intersecting `query`, in address order.
    pub fn overlapping(&self, query: Interval) -> Vec<MemAccess> {
        let mut out = Vec::new();
        let _ = self.for_each_overlapping(query, &mut || {}, &mut |a| {
            out.push(*a);
            ControlFlow::Continue(())
        });
        out
    }

    /// In-order traversal into a vector (test/diagnostic helper).
    pub fn in_order(&self) -> Vec<MemAccess> {
        fn walk(n: &Option<Box<Node>>, out: &mut Vec<MemAccess>) {
            if let Some(node) = n {
                walk(&node.left, out);
                out.push(node.acc);
                walk(&node.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    /// Checks all structural invariants (BST order on `lo`, AVL balance,
    /// `max_hi` correctness, `len` accuracy). Intended for tests; panics
    /// with a description on violation.
    pub fn validate(&self) {
        fn walk(n: &Option<Box<Node>>) -> (usize, i32, Option<(Addr, Addr, Addr)>) {
            let Some(node) = n else { return (0, 0, None) };
            let (lc, lh, lb) = walk(&node.left);
            let (rc, rh, rb) = walk(&node.right);
            assert_eq!(node.height, 1 + lh.max(rh), "stale height");
            assert!((lh - rh).abs() <= 1, "AVL balance violated");
            let mut lo = node.acc.interval.lo;
            let mut hi = node.acc.interval.lo;
            let mut mh = node.acc.interval.hi;
            if let Some((llo, lhi, lmh)) = lb {
                assert!(lhi <= node.acc.interval.lo, "left subtree out of order");
                lo = lo.min(llo);
                hi = hi.max(lhi);
                mh = mh.max(lmh);
            }
            if let Some((rlo, rhi, rmh)) = rb {
                assert!(rlo >= node.acc.interval.lo, "right subtree out of order");
                lo = lo.min(rlo);
                hi = hi.max(rhi);
                mh = mh.max(rmh);
            }
            assert_eq!(node.max_hi, mh, "stale max_hi");
            (lc + rc + 1, node.height, Some((lo, hi, mh)))
        }
        let (count, _, _) = walk(&self.root);
        assert_eq!(count, self.len, "stale len");
    }
}

impl core::fmt::Debug for Avl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.in_order()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, RankId, SrcLoc};

    fn acc(lo: Addr, hi: Addr) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            AccessKind::LocalRead,
            RankId(0),
            SrcLoc::synthetic("t.c", 1),
        )
    }

    fn acc_line(lo: Addr, hi: Addr, line: u32) -> MemAccess {
        MemAccess::new(
            Interval::new(lo, hi),
            AccessKind::LocalRead,
            RankId(0),
            SrcLoc::synthetic("t.c", line),
        )
    }

    #[test]
    fn insert_iterate_sorted() {
        let mut t = Avl::new();
        for lo in [5u64, 1, 9, 3, 7, 0, 2] {
            t.insert(acc(lo, lo + 1));
        }
        t.validate();
        let order: Vec<_> = t.in_order().iter().map(|a| a.interval.lo).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 5, 7, 9]);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn multiset_duplicates_coexist() {
        let mut t = Avl::new();
        for line in 1..=5 {
            t.insert(acc_line(4, 4, line));
        }
        t.validate();
        assert_eq!(t.len(), 5);
        assert_eq!(t.overlapping(Interval::point(4)).len(), 5);
    }

    #[test]
    fn remove_exact_payload_among_duplicates() {
        let mut t = Avl::new();
        for line in 1..=5 {
            t.insert(acc_line(4, 4, line));
        }
        assert!(t.remove(&acc_line(4, 4, 3)));
        assert!(!t.remove(&acc_line(4, 4, 3)));
        t.validate();
        assert_eq!(t.len(), 4);
        let lines: Vec<_> = t.in_order().iter().map(|a| a.loc.line).collect();
        assert!(!lines.contains(&3));
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = Avl::new();
        t.insert(acc(1, 2));
        assert!(!t.remove(&acc(3, 4)));
        assert!(!t.remove(&acc_line(1, 2, 99)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_root_with_two_children() {
        let mut t = Avl::new();
        for lo in [10u64, 5, 15, 3, 7, 12, 20] {
            t.insert(acc(lo, lo));
        }
        assert!(t.remove(&acc(10, 10)));
        t.validate();
        let order: Vec<_> = t.in_order().iter().map(|a| a.interval.lo).collect();
        assert_eq!(order, vec![3, 5, 7, 12, 15, 20]);
    }

    #[test]
    fn balanced_under_sorted_insertion() {
        let mut t = Avl::new();
        for lo in 0..1024u64 {
            t.insert(acc(lo, lo));
        }
        t.validate();
        // 1.44 * log2(1024) ~ 14.4
        assert!(t.height() <= 15, "height {}", t.height());
    }

    #[test]
    fn overlap_query_exact() {
        let mut t = Avl::new();
        t.insert(acc(0, 3));
        t.insert(acc(5, 9));
        t.insert(acc(2, 12)); // lower bound smaller than an existing node
        t.insert(acc(20, 30));
        t.validate();
        let hits: Vec<_> = t
            .overlapping(Interval::new(7, 7))
            .iter()
            .map(|a| a.interval)
            .collect();
        assert_eq!(hits, vec![Interval::new(2, 12), Interval::new(5, 9)]);
        assert!(t.overlapping(Interval::new(13, 19)).is_empty());
        assert_eq!(t.overlapping(Interval::new(0, 100)).len(), 4);
    }

    #[test]
    fn overlap_query_early_exit() {
        let mut t = Avl::new();
        for lo in 0..100u64 {
            t.insert(acc(lo * 10, lo * 10 + 5));
        }
        let mut seen = 0;
        let flow = t.for_each_overlapping(Interval::new(0, 1000), &mut || {}, &mut |_| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, 3);
    }

    /// The exact Figure 5a scenario: the legacy path-bound check misses the
    /// wide interval in the left subtree, the interval-aware query finds it.
    #[test]
    fn figure5a_path_check_misses_off_path_interval() {
        let mut t = Avl::new();
        t.insert(acc(4, 4)); // Load(4) -> root
        t.insert(acc(2, 12)); // MPI_Put(2,12) -> left child of [4]
        let probe = acc(7, 7); // Store(7)
        let on_path =
            t.first_conflict_on_path(&probe, |a| a.interval.intersects(&probe.interval));
        assert_eq!(on_path, None, "legacy path check must miss [2...12]");
        let full = t.overlapping(probe.interval);
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].interval, Interval::new(2, 12));
    }

    #[test]
    fn path_check_finds_on_path_conflicts() {
        let mut t = Avl::new();
        t.insert(acc(4, 10));
        let probe = acc(7, 7);
        let hit = t.first_conflict_on_path(&probe, |a| a.interval.intersects(&probe.interval));
        assert_eq!(hit.map(|a| a.interval), Some(Interval::new(4, 10)));
    }

    #[test]
    fn clear_resets() {
        let mut t = Avl::new();
        for lo in 0..10u64 {
            t.insert(acc(lo, lo));
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.in_order().is_empty());
    }
}

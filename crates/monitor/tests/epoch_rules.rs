//! The epoch protocol of `rma_monitor::epoch`, one rule at a time, on two
//! ranks and two windows. Every observation goes through the public
//! surface: store lengths through `window_stats`, open epochs through
//! where a local access lands, and `flushed` marks through which windows
//! `barrier_release` asks to drain (it asks exactly for the windows where
//! every rank is flushed).

use rma_core::{AccessKind, FragMergeStore, Interval, MemAccess, RankId, SrcLoc};
use rma_monitor::epoch::{EpochState, Verdict};
use rma_sim::WinId;

const W0: WinId = WinId(0);
const W1: WinId = WinId(1);
const P0: RankId = RankId(0);
const P1: RankId = RankId(1);

/// Two ranks, two windows.
fn state() -> EpochState {
    let mut st = EpochState::new(2);
    st.ensure_window(W1, || Box::new(FragMergeStore::new()));
    st
}

fn acc(lo: u64, kind: AccessKind, issuer: RankId) -> MemAccess {
    MemAccess::new(Interval::new(lo, lo + 7), kind, issuer, SrcLoc::synthetic("epoch.rs", 1))
}

/// Current store length of every (window, rank), `[w][r]`.
fn lens(st: &EpochState) -> Vec<Vec<usize>> {
    st.window_stats().iter().map(|w| w.iter().map(|s| s.len).collect()).collect()
}

/// The windows where every rank is flushed: the ones a barrier release
/// asks about. Declining the drain leaves the state untouched.
fn flushed_everywhere(st: &EpochState) -> Vec<WinId> {
    let mut asked = Vec::new();
    st.barrier_release(|w| {
        asked.push(w);
        false
    });
    asked
}

/// Records `acc` as `rank`'s local access: the windows it landed in,
/// and whether each record was race-free.
fn local(st: &EpochState, rank: RankId, acc: MemAccess) -> Vec<(WinId, bool)> {
    let mut out = Vec::new();
    st.local(rank, acc, |w, v| out.push((w, v.is_ok())));
    out
}

/// P1 puts 8 bytes at `lo` into P0's window `win`: both halves.
fn put(st: &EpochState, win: WinId, lo: u64) -> [Verdict; 2] {
    [
        st.rma_origin(win, P1, acc(lo, AccessKind::RmaRead, P1)),
        st.rma_target(win, P0, acc(lo, AccessKind::RmaWrite, P1)),
    ]
}

fn race_free(verdicts: [Verdict; 2]) -> bool {
    verdicts.iter().all(Result::is_ok)
}

#[test]
fn local_access_outside_an_epoch_is_not_recorded() {
    let st = state();
    assert!(local(&st, P0, acc(0, AccessKind::LocalWrite, P0)).is_empty());
    assert_eq!(lens(&st), vec![vec![0, 0], vec![0, 0]]);
}

#[test]
fn lock_all_and_fence_arrival_open_the_epoch() {
    let st = state();
    st.open(W0, P0); // lock_all
    assert_eq!(local(&st, P0, acc(0, AccessKind::LocalWrite, P0)), vec![(W0, true)]);
    st.open(W1, P0); // fence arrival
    assert_eq!(
        local(&st, P0, acc(16, AccessKind::LocalWrite, P0)),
        vec![(W0, true), (W1, true)]
    );
    assert_eq!(lens(&st), vec![vec![2, 0], vec![1, 0]]);
    // Per rank: P1's epochs stay closed.
    assert!(local(&st, P1, acc(0, AccessKind::LocalWrite, P1)).is_empty());
}

#[test]
fn rma_after_flush_all_cancels_the_barrier_clear() {
    let st = state();
    for r in [P0, P1] {
        st.open(W0, r);
        st.flush_all(W0, r);
    }
    assert_eq!(flushed_everywhere(&st), vec![W0]);
    assert!(race_free(put(&st, W0, 0)));
    assert!(flushed_everywhere(&st).is_empty(), "the origin's flush is cancelled");
    st.barrier_release(|_| true);
    assert_eq!(lens(&st)[0], vec![1, 1], "nothing cleared");
    st.flush_all(W0, P1);
    assert_eq!(flushed_everywhere(&st), vec![W0], "the target's flush stood");
}

#[test]
fn barrier_release_clears_only_windows_flushed_everywhere() {
    let st = state();
    for w in [W0, W1] {
        for r in [P0, P1] {
            st.open(w, r);
        }
        assert!(race_free(put(&st, w, 0)));
    }
    for r in [P0, P1] {
        st.flush_all(W0, r);
    }
    st.flush_all(W1, P0);
    st.barrier_release(|w| {
        assert_eq!(w, W0);
        true
    });
    assert_eq!(lens(&st), vec![vec![0, 0], vec![1, 1]]);
    // W0's marks were reset; W1 kept P0's, so P1's flush completes it.
    st.flush_all(W1, P1);
    assert_eq!(flushed_everywhere(&st), vec![W1]);
    // A window flushed everywhere but not drained is not cleared.
    assert_eq!(lens(&st)[1], vec![1, 1]);
}

#[test]
fn fence_release_keeps_the_flushed_marks() {
    let st = state();
    for r in [P0, P1] {
        st.open(W0, r);
    }
    assert!(race_free(put(&st, W0, 0)));
    st.flush_all(W0, P0);
    st.flush_all(W0, P1);
    st.fence_release(W0, |_| true);
    assert_eq!(lens(&st)[0], vec![0, 0]);
    assert_eq!(flushed_everywhere(&st), vec![W0]);
    // The fence epoch stays open after the release.
    assert_eq!(local(&st, P0, acc(0, AccessKind::LocalRead, P0)), vec![(W0, true)]);
}

#[test]
fn fence_release_keeps_a_window_that_did_not_drain() {
    let st = state();
    for w in [W0, W1] {
        for r in [P0, P1] {
            st.open(w, r);
        }
        assert!(race_free(put(&st, w, 0)));
    }
    let mut asked = Vec::new();
    st.fence_release(W1, |w| {
        asked.push(w);
        false
    });
    assert_eq!(asked, vec![W1], "only the fenced window is asked about");
    assert_eq!(lens(&st), vec![vec![1, 1], vec![1, 1]], "nothing cleared");
    // A notification landing after the patience still meets its epoch:
    // P1's conflicting write into P0's window is caught.
    assert!(st.rma_target(W1, P0, acc(0, AccessKind::RmaWrite, P1)).is_err());
    st.fence_release(W1, |_| true);
    assert_eq!(lens(&st), vec![vec![1, 1], vec![0, 0]]);
}

#[test]
fn unlock_all_clears_only_the_closing_ranks_store() {
    let st = state();
    for w in [W0, W1] {
        for r in [P0, P1] {
            st.open(w, r);
        }
        assert!(race_free(put(&st, w, 0)));
    }
    st.unlock_all(W0, P0);
    assert_eq!(lens(&st), vec![vec![0, 1], vec![1, 1]]);
    assert_eq!(
        local(&st, P0, acc(64, AccessKind::LocalRead, P0)),
        vec![(W1, true)],
        "the closed epoch records no more local accesses"
    );
}

#[test]
fn a_race_stops_no_record() {
    let st = state();
    for w in [W0, W1] {
        st.open(w, P0);
    }
    st.open(W0, P1);
    // P1 puts into P0[0,8) on W0; P0's local write there races on W0
    // and is still recorded on W1.
    assert!(race_free(put(&st, W0, 0)));
    assert_eq!(
        local(&st, P0, acc(0, AccessKind::LocalWrite, P0)),
        vec![(W0, false), (W1, true)]
    );
    // P0 puts from its window bytes [0,8) (the origin half races with
    // P1's put) into P1[32,40): the target half still lands…
    assert!(st.rma_origin(W0, P0, acc(0, AccessKind::RmaRead, P0)).is_err());
    assert!(st.rma_target(W0, P1, acc(32, AccessKind::RmaWrite, P0)).is_ok());
    assert_eq!(lens(&st)[0], vec![1, 2]);
    // …so a later write there by P1 is caught.
    assert!(st.rma_target(W0, P1, acc(32, AccessKind::RmaWrite, P1)).is_err());
}

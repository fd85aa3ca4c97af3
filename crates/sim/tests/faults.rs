//! Fault-injection and watchdog behaviour: every injected fault must
//! produce a *structured* outcome — `RunOutcome::panics`, an abort
//! reason, or `RunOutcome::deadlock` — never a hang, never a poisoned
//! lock, never an unexplained panic.

use rma_sim::{FaultKind, FaultPlan, NullMonitor, RankId, World, WorldCfg};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg_with_fault(nranks: u32, fault: FaultPlan) -> WorldCfg {
    WorldCfg { nranks, fault: Some(fault), ..WorldCfg::default() }
}

/// A rank crashing mid-epoch is recorded in `panics`, every sibling
/// unwinds via the abort flag, and the world joins promptly.
#[test]
fn crash_mid_epoch_is_recorded_and_siblings_unwind() {
    // Rank 1's 5th event lands inside the lock_all..unlock_all epoch
    // (win_allocate=1, lock_all=2, put=3, store=4, unlock_all=5...).
    let cfg = cfg_with_fault(3, FaultPlan::new(FaultKind::Crash, 1, 4));
    let started = Instant::now();
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        let win = ctx.win_allocate(64);
        ctx.win_lock_all(win);
        let buf = ctx.alloc(8);
        ctx.put(&buf, 0, 8, RankId((ctx.rank().0 + 1) % 3), 0, win);
        let wb = ctx.win_buf(win);
        ctx.store(&wb, 40 + u64::from(ctx.rank().0), 1);
        ctx.win_unlock_all(win);
        ctx.barrier();
        ctx.rank().0
    });
    assert!(started.elapsed() < Duration::from_secs(10), "must not hang");
    assert_eq!(outcome.panics.len(), 1, "outcome: {outcome:?}");
    assert_eq!(outcome.panics[0].0, RankId(1));
    assert!(
        outcome.panics[0].1.contains("fault injection"),
        "panic message: {}",
        outcome.panics[0].1
    );
    assert!(outcome.results[1].is_none());
    assert!(outcome.deadlock.is_none(), "a crash is not a deadlock");
    // No secondary panics: siblings unwound through the abort flag, so
    // no mailbox/window/barrier lock was left poisoned in their way.
    assert_eq!(outcome.panics.len(), 1);

    // And the process-global state (panic hook, intern pools) is fine:
    // an immediately following world runs clean.
    let after = World::run(WorldCfg::with_ranks(3), Arc::new(NullMonitor), |ctx| {
        let win = ctx.win_allocate(64);
        ctx.win_lock_all(win);
        ctx.win_unlock_all(win);
        ctx.win_free(win);
        ctx.rank().0
    });
    assert_eq!(after.expect_clean("world after crash"), vec![0, 1, 2]);
}

/// Crash while siblings are parked on a barrier the victim will never
/// reach: the siblings must unwind, not wait forever.
#[test]
fn crash_before_barrier_releases_blocked_siblings() {
    let cfg = cfg_with_fault(4, FaultPlan::new(FaultKind::Crash, 0, 2));
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        ctx.barrier(); // event 1
        ctx.barrier(); // event 2: rank 0 crashes here
        ctx.barrier();
    });
    assert_eq!(outcome.panics.len(), 1);
    assert_eq!(outcome.panics[0].0, RankId(0));
    assert!(outcome.results.iter().all(|r| r.is_none()));
}

/// An injected `HookResult` error takes the detector-report abort path:
/// the world aborts with a Race reason whose source file marks it as
/// fault injection.
#[test]
fn hook_error_aborts_via_race_path() {
    let cfg = cfg_with_fault(2, FaultPlan::new(FaultKind::HookError, 1, 3));
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        let win = ctx.win_allocate(32);
        ctx.win_lock_all(win);
        let wb = ctx.win_buf(win);
        ctx.store(&wb, 0, 1);
        ctx.store(&wb, 1, 1);
        ctx.win_unlock_all(win);
    });
    assert!(outcome.raced(), "outcome: {outcome:?}");
    let reports = outcome.race_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].existing.loc.file, "<fault-injection>");
    assert!(outcome.panics.is_empty());
}

/// A failed window allocation aborts the world with a structured
/// reason; ranks blocked in the allocation's collective barrier unwind.
#[test]
fn win_alloc_failure_aborts_structured() {
    let cfg = cfg_with_fault(3, FaultPlan::new(FaultKind::FailWinAlloc, 2, 1));
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        let win = ctx.win_allocate(128);
        ctx.win_lock_all(win);
        ctx.win_unlock_all(win);
    });
    assert!(!outcome.is_clean());
    assert_eq!(outcome.aborts.len(), 1);
    let (rank, reason) = &outcome.aborts[0];
    assert_eq!(*rank, RankId(2));
    assert!(
        reason.to_string().contains("window allocation"),
        "reason: {reason}"
    );
    assert!(outcome.panics.is_empty());
    assert!(outcome.deadlock.is_none());
}

/// Stalled sends are delayed, not lost: the receiver still gets the
/// message and the run completes clean.
#[test]
fn stalled_sends_are_delayed_not_lost() {
    let cfg = cfg_with_fault(2, FaultPlan::new(FaultKind::StallSends, 0, 1));
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        if ctx.rank() == RankId(0) {
            ctx.send(RankId(1), 7, vec![42]); // event 1 arms, this send stalls
            ctx.send(RankId(1), 7, vec![43]);
            Vec::new()
        } else {
            let (_, a) = ctx.recv(Some(RankId(0)), 7);
            let (_, b) = ctx.recv(Some(RankId(0)), 7);
            vec![a[0], b[0]]
        }
    });
    let results = outcome.expect_clean("stalled sends");
    assert_eq!(results[1], vec![42, 43], "FIFO preserved through the stall");
}

/// Duplicated sends deliver two copies; the program sees both.
#[test]
fn duplicated_sends_deliver_twice() {
    let cfg = cfg_with_fault(2, FaultPlan::new(FaultKind::DuplicateSends, 0, 1));
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        if ctx.rank() == RankId(0) {
            ctx.send(RankId(1), 3, vec![9]);
            0
        } else {
            let (_, a) = ctx.recv(Some(RankId(0)), 3);
            let (_, b) = ctx.recv(Some(RankId(0)), 3);
            u32::from(a[0]) + u32::from(b[0])
        }
    });
    let results = outcome.expect_clean("duplicated sends");
    assert_eq!(results[1], 18);
}

/// The deadlock watchdog converts an all-ranks-blocked world into a
/// structured outcome instead of wedging the process: one rank waits on
/// a message nobody sends while the other waits on a barrier the first
/// will never reach.
#[test]
fn watchdog_fires_on_deadlocked_world() {
    let cfg = WorldCfg { nranks: 2, watchdog_ms: 200, ..WorldCfg::default() };
    let started = Instant::now();
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        if ctx.rank() == RankId(0) {
            let _ = ctx.recv(None, 99); // never sent
        } else {
            ctx.barrier(); // rank 0 never arrives
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog must fire long before any outer timeout"
    );
    let desc = outcome.deadlock.as_deref().expect("watchdog must fire");
    assert!(desc.contains("recv"), "description: {desc}");
    assert!(desc.contains("barrier"), "description: {desc}");
    assert!(outcome.results.iter().all(|r| r.is_none()));
    assert!(outcome.aborts.is_empty(), "deadlock is reported via its own channel");
    assert!(outcome.panics.is_empty());
    assert!(!outcome.is_clean());
}

/// A slow-but-progressing world must NOT trip the watchdog: a rank
/// busy outside any simulator primitive is running, not blocked, however
/// long it takes, so the stall clock never starts.
#[test]
fn watchdog_ignores_slow_progress() {
    const WINDOW_MS: u64 = 60;
    let cfg = WorldCfg { nranks: 2, watchdog_ms: WINDOW_MS, ..WorldCfg::default() };
    let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
        // Ping-pong whose think time outlasts the whole watchdog window
        // while the peer waits in `recv`.
        for i in 0..4u8 {
            if ctx.rank() == RankId(0) {
                ctx.send(RankId(1), 1, vec![i]);
                let _ = ctx.recv(Some(RankId(1)), 2);
            } else {
                let _ = ctx.recv(Some(RankId(0)), 1);
                std::thread::sleep(Duration::from_millis(WINDOW_MS + 40));
                ctx.send(RankId(0), 2, vec![i]);
            }
        }
    });
    assert!(outcome.deadlock.is_none(), "outcome: {outcome:?}");
    outcome.expect_clean("ping-pong");
}

/// Fault plans derived from a seed replay identically: same seed, same
/// structured outcome.
#[test]
fn seeded_fault_outcomes_replay() {
    let classify = |seed: u64| -> (bool, usize, usize, bool) {
        let plan = FaultPlan::from_seed(seed, 3);
        let cfg = cfg_with_fault(3, plan);
        let outcome = World::run(cfg, Arc::new(NullMonitor), |ctx| {
            let win = ctx.win_allocate(64);
            ctx.win_lock_all(win);
            let buf = ctx.alloc(8);
            ctx.put(&buf, 0, 8, RankId((ctx.rank().0 + 1) % 3), 0, win);
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        (
            outcome.is_clean(),
            outcome.aborts.len(),
            outcome.panics.len(),
            outcome.deadlock.is_some(),
        )
    };
    for seed in [1u64, 7, 13, 42] {
        assert_eq!(classify(seed), classify(seed), "seed {seed} must replay");
    }
}

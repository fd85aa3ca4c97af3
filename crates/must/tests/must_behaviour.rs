//! End-to-end tests: simulated programs under the MUST-RMA-like detector,
//! reproducing its Table 2 verdicts (hits, misses, and the stack-array
//! blind spot).

use rma_must::{Completeness, MustCfg, MustRma, OnRace};
use rma_sim::{FaultKind, FaultPlan, Monitor, RankId, World, WorldCfg};
use std::sync::Arc;
use std::time::Duration;

fn run_with_must(
    nranks: u32,
    f: impl Fn(&mut rma_sim::RankCtx) + Sync,
) -> (bool, Arc<MustRma>) {
    let must = Arc::new(MustRma::for_world(nranks, OnRace::Abort));
    let out = World::run(WorldCfg::with_ranks(nranks), must.clone(), |ctx| f(ctx));
    (out.raced() || !must.races().is_empty(), must)
}

/// ll_get_load_outwindow_origin_race (Table 2, row 1): MUST detects it
/// when the buffer is on the heap.
#[test]
fn get_then_load_heap_detected() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8); // heap
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.get(&buf, 0, 8, RankId(1), 0, win);
            let _ = ctx.load_u64(&buf, 0); // races with the async get
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(raced);
}

/// ll_get_load_inwindow_origin_race (Table 2, row 3): a stack buffer —
/// MUST misses the race (the TSan blind spot).
#[test]
fn get_then_load_stack_missed() {
    let (raced, must) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc_stack(8); // stack array!
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.get(&buf, 0, 8, RankId(1), 0, win);
            let _ = ctx.load_u64(&buf, 0);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(!raced, "MUST must miss stack-array races");
    assert!(must.stack_skips() > 0);
}

/// ll_load_get_inwindow_origin_safe (Table 2, row 4): MUST correctly
/// accepts the ordered Load-then-Get (no false positive).
#[test]
fn load_then_get_safe() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let _ = ctx.load_u64(&buf, 0);
            ctx.get(&buf, 0, 8, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(!raced);
}

/// ll_get_get_inwindow_origin_safe (Table 2, row 2): two gets reading the
/// same remote location — safe everywhere (read/read at target; disjoint
/// local buffers).
#[test]
fn get_get_same_source_safe() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let b1 = ctx.alloc(8);
        let b2 = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.get(&b1, 0, 8, RankId(1), 0, win);
            ctx.get(&b2, 0, 8, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(!raced);
}

/// Two puts from different origins to the same target bytes: race.
#[test]
fn concurrent_puts_race() {
    let (raced, _) = run_with_must(3, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() != RankId(2) {
            ctx.put(&buf, 0, 8, RankId(2), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(raced);
}

/// Epoch + barrier separation orders the two puts: no race.
#[test]
fn epoch_boundary_orders_accesses() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        for _ in 0..3 {
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                ctx.put(&buf, 0, 8, RankId(1), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        }
    });
    assert!(!raced);
}

/// flush_all orders the issuing rank's own operations: put; flush; put to
/// the same place is safe.
#[test]
fn flush_orders_own_operations() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 8, RankId(1), 0, win);
            ctx.win_flush_all(win);
            ctx.put(&buf, 0, 8, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(!raced);
}

/// Unlike RMA-Analyzer, MUST sees even "alias-filtered" accesses — no
/// false negative from the filter (over-instrumentation has a silver
/// lining).
#[test]
fn untracked_accesses_still_checked() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let wb = ctx.win_buf(win);
            ctx.get(&wb, 0, 8, RankId(1), 8, win);
            ctx.store_u64_untracked(&wb, 0, 1); // filtered for RMA-Analyzer
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(raced, "MUST instruments everything, filter or not");
}

/// The clock-shipping overhead metric grows linearly with rank count.
#[test]
fn clock_words_scale_with_ranks() {
    let words = |nranks: u32| {
        let must = Arc::new(MustRma::for_world(nranks, OnRace::Collect));
        let out = World::run(WorldCfg::with_ranks(nranks), must.clone(), |ctx| {
            let win = ctx.win_allocate(u64::from(ctx.nranks()) * 8);
            let buf = ctx.alloc(8);
            ctx.win_lock_all(win);
            let me = ctx.rank().0;
            let peer = RankId((me + 1) % ctx.nranks());
            ctx.put(&buf, 0, 8, peer, u64::from(me) * 8, win);
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert!(out.is_clean());
        must.clock_words_sent()
    };
    // One put per rank; each ships a 2P-word clock: total = 2 P^2.
    assert_eq!(words(2), 2 * 2 * 2);
    assert_eq!(words(8), 2 * 8 * 8);
    assert_eq!(words(16), 2 * 16 * 16);
}

/// Store at target vs concurrent remote put: detected (heap window).
#[test]
fn target_store_vs_put_detected() {
    let (raced, _) = run_with_must(2, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let _ = ctx.recv(Some(RankId(1)), 9);
            ctx.put(&buf, 0, 8, RankId(1), 0, win);
        } else {
            let wb = ctx.win_buf(win);
            ctx.store_u64(&wb, 0, 5);
            ctx.send(RankId(0), 9, vec![]);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(raced);
}

/// Message tag rank 1 sends once its epoch is closed.
const EPOCH_CLOSED: u32 = 7;

/// A dead analysis worker must not hang the epoch close: the bounded
/// quiescence wait detects the death within one poll and converts it
/// into a structured world abort (a recorded rank panic), never an
/// infinite Condvar wait. `max_respawns: 0` disables the supervisor's
/// recovery so the death stays fatal (the pre-supervision behaviour).
#[test]
fn dead_worker_aborts_unlock_all_instead_of_hanging() {
    let started = std::time::Instant::now();
    let cfg = MustCfg {
        on_race: OnRace::Abort,
        max_respawns: 0,
        quiescence_deadline: Duration::from_secs(5),
    };
    let must = Arc::new(MustRma::with_cfg(2, cfg));
    let sab = must.clone();
    let out = World::run(WorldCfg::with_ranks(2), must.clone(), move |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            // Kill the worker, then ship an operation it will never
            // analyze; the unlock_all quiescence must notice, not wait.
            // Rank 1's message says its own epoch is already closed, so
            // rank 0's is the only quiescence that meets the doomed put.
            sab.sabotage_worker_for_tests();
            ctx.recv(Some(RankId(1)), EPOCH_CLOSED);
            ctx.put(&buf, 0, 8, RankId(1), 0, win);
            ctx.win_unlock_all(win);
        } else {
            ctx.win_unlock_all(win);
            ctx.send(RankId(0), EPOCH_CLOSED, vec![]);
        }
    });
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "quiescence wait must be bounded (took {:?})",
        started.elapsed()
    );
    assert!(!out.is_clean());
    assert_eq!(out.panics.len(), 1, "outcome: {out:?}");
    assert!(
        out.panics[0].1.contains("MUST analysis worker died"),
        "panic: {}",
        out.panics[0].1
    );
    assert!(must.worker_failed());
    assert_eq!(must.respawns(), 0, "budget 0 must never respawn");
    // Best-effort reads still work after the failure (and don't hang) —
    // and the result is now explicitly marked partial, not silently
    // truncated.
    let (_races, completeness) = must.races_checked();
    assert!(
        matches!(completeness, Completeness::Partial { .. }),
        "a dead worker's verdict must be marked partial: {completeness:?}"
    );
}

/// Within the respawn budget a dead worker is *recovered*: the
/// checkpoint restores, the journal re-delivers, and the run reaches the
/// same verdict a fault-free run would — here, the Table 2 row-1 race is
/// still detected even though the worker was killed mid-epoch with the
/// racing operations in flight.
#[test]
fn killed_worker_recovers_and_keeps_verdict() {
    let cfg = MustCfg {
        on_race: OnRace::Collect,
        max_respawns: 3,
        quiescence_deadline: Duration::from_secs(5),
    };
    let must = Arc::new(MustRma::with_cfg(2, cfg));
    let sab = must.clone();
    let out = World::run(WorldCfg::with_ranks(2), must.clone(), move |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.get(&buf, 0, 8, RankId(1), 0, win);
            let _ = ctx.load_u64(&buf, 0); // races with the async get
            // Kill the worker with the racing pair potentially still
            // queued; the supervisor must restore + replay it.
            sab.sabotage_worker_for_tests();
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.is_clean(), "recovery must not abort the world: {out:?}");
    let (races, completeness) = must.races_checked();
    assert_eq!(completeness, Completeness::Complete);
    assert!(!races.is_empty(), "the race must survive recovery");
    assert!(must.respawns() >= 1, "the kill must have forced a respawn");
    assert!(!must.worker_failed());
}

/// A worker killed *after* it drained still counts as dead at the next
/// quiescence: it is joined and respawned there, so no epoch boundary
/// closes on a dead worker. The drain before the kill makes the order
/// deterministic — the worker has analysed everything shipped, so the
/// wait itself would report `Drained`.
#[test]
fn worker_killed_after_draining_is_respawned_at_quiescence() {
    let cfg = MustCfg {
        on_race: OnRace::Collect,
        max_respawns: 3,
        quiescence_deadline: Duration::from_secs(5),
    };
    let must = Arc::new(MustRma::with_cfg(2, cfg));
    let m = must.clone();
    let out = World::run(WorldCfg::with_ranks(2), must.clone(), move |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.get(&buf, 0, 8, RankId(1), 0, win);
            let _ = ctx.load_u64(&buf, 0); // races with the async get
            assert_eq!(m.completeness(), Completeness::Complete);
            m.sabotage_worker_for_tests();
            let (races, completeness) = m.races_checked();
            assert_eq!(completeness, Completeness::Complete);
            assert!(!races.is_empty(), "the race must survive recovery");
            assert_eq!(m.respawns(), 1, "the drained-then-killed worker must be respawned");
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.is_clean(), "{out:?}");
    assert_eq!(must.respawns(), 1);
    assert!(!must.worker_failed());
}

/// Recovery reaches verdict equivalence on the *negative* side too: an
/// ordered program stays race-free across a worker kill (restore+replay
/// must not manufacture races — e.g. by re-processing a shipped
/// operation against a shadow that already holds its record).
#[test]
fn killed_worker_recovery_produces_no_false_positives() {
    let cfg = MustCfg {
        on_race: OnRace::Collect,
        max_respawns: 3,
        quiescence_deadline: Duration::from_secs(5),
    };
    let must = Arc::new(MustRma::with_cfg(2, cfg));
    let sab = must.clone();
    let out = World::run(WorldCfg::with_ranks(2), must.clone(), move |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        for round in 0..3 {
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                let _ = ctx.load_u64(&buf, 0);
                ctx.put(&buf, 0, 8, RankId(1), 0, win);
                if round == 1 {
                    sab.sabotage_worker_for_tests();
                }
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        }
    });
    assert!(out.is_clean(), "outcome: {out:?}");
    let (races, completeness) = must.races_checked();
    assert_eq!(completeness, Completeness::Complete);
    assert!(races.is_empty(), "recovery invented races: {races:?}");
    assert!(must.respawns() >= 1);
}

/// The journal drains at epoch-boundary checkpoints: after a fully
/// quiescent barrier the supervisor holds no replayable suffix, and
/// mid-epoch it holds records for everything shipped since.
#[test]
fn journal_prunes_at_epoch_checkpoints() {
    let must = Arc::new(MustRma::for_world(2, OnRace::Collect));
    let probe = must.clone();
    let out = World::run(WorldCfg::with_ranks(2), must.clone(), move |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(8);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 8, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
        if ctx.rank() == RankId(0) {
            assert_eq!(probe.journal_len(), 0, "post-barrier checkpoint must prune the journal");
        }
        ctx.barrier();
    });
    assert!(out.is_clean(), "outcome: {out:?}");
}

/// Killing the worker with no respawn budget right after two operations
/// shipped aborts the run, and the journal keeps both unacknowledged
/// operations: two shadow accesses each.
///
/// A single-rank world with self-targeted operations keeps the scenario
/// deterministic: the ships, the kill and the (never-reached) epoch
/// boundary that would prune the journal are all ordered by the one
/// rank's program order.
#[test]
fn aborted_run_journal_retains_unacknowledged_operations() {
    let probe = Arc::new(MustRma::with_cfg(
        1,
        MustCfg {
            on_race: OnRace::Collect,
            max_respawns: 0,
            quiescence_deadline: Duration::from_secs(5),
        },
    ));
    // Event 6 lands after both one-sided operations shipped (events 4
    // and 5) and before the unlock that would checkpoint-prune them.
    let cfg = WorldCfg {
        fault: Some(FaultPlan { rank: 0, at_event: 6, kind: FaultKind::KillWorker { times: 1 } }),
        watchdog_ms: 10_000,
        ..WorldCfg::with_ranks(1)
    };
    let out = World::run(cfg, probe.clone() as Arc<dyn Monitor>, |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        ctx.get(&buf, 0, 8, RankId(0), 0, win);
        ctx.put(&buf, 8, 8, RankId(0), 16, win);
        ctx.win_unlock_all(win);
    });
    assert!(!out.is_clean(), "budget-0 kill must abort the run");
    assert_eq!(probe.journal_len(), 4, "two unacknowledged operations, two accesses each");
}

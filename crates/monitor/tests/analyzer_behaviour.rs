//! End-to-end tests: simulated MPI-RMA programs under the RMA-Analyzer
//! monitor, reproducing the paper's running examples.

use rma_monitor::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer, BATCH_LEN};
use rma_sim::{RankId, World, WorldCfg};
use std::sync::Arc;

fn analyzer(algorithm: Algorithm) -> Arc<RmaAnalyzer> {
    Arc::new(RmaAnalyzer::new(AnalyzerCfg::with_algorithm(algorithm)))
}

fn delivered_by(delivery: Delivery) -> Arc<RmaAnalyzer> {
    Arc::new(RmaAnalyzer::new(AnalyzerCfg { delivery, ..AnalyzerCfg::default() }))
}

/// Code 1 (Figure 8a): `temp = buf[4]; Put(buf[2..12]); buf[7] = 1234`.
/// The legacy tool misses the race (false negative); the contribution
/// catches it.
fn run_code1(algorithm: Algorithm) -> (bool, usize) {
    let mon = analyzer(algorithm);
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(32);
        let buf = ctx.alloc_stack(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let _temp = ctx.load(&buf, 4);
            ctx.put(&buf, 2, 10, RankId(1), 0, win);
            ctx.store(&buf, 7, 0xD2);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    (out.raced(), mon.races().len())
}

#[test]
fn code1_legacy_false_negative() {
    let (raced, n) = run_code1(Algorithm::Legacy);
    assert!(!raced, "legacy tool must miss the Code 1 race");
    assert_eq!(n, 0);
}

#[test]
fn code1_contribution_detects() {
    let (raced, n) = run_code1(Algorithm::FragMerge);
    assert!(raced, "contribution must catch the Code 1 race");
    assert_eq!(n, 1);
}

/// The safe `Load; MPI_Get` order (ll_load_get_inwindow_origin_safe):
/// flagged by the legacy matrix (false positive), accepted by the fix.
fn run_load_then_get(algorithm: Algorithm) -> bool {
    let mon = analyzer(algorithm);
    let out = World::run(WorldCfg::with_ranks(2), mon, |ctx| {
        let win = ctx.win_allocate(32);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let wb = ctx.win_buf(win);
            let _v = ctx.load_u64(&wb, 0); // local read, in own window
            ctx.get(&wb, 0, 8, RankId(1), 8, win); // then get INTO the same place
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    out.raced()
}

#[test]
fn load_then_get_legacy_false_positive() {
    assert!(run_load_then_get(Algorithm::Legacy));
}

#[test]
fn load_then_get_contribution_safe() {
    assert!(!run_load_then_get(Algorithm::FragMerge));
}

/// Figure 9: a duplicated put races at the target; the report carries the
/// two source lines.
#[test]
fn fig9_duplicated_put() {
    let mon = analyzer(Algorithm::FragMerge);
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.raced());
    let report = &mon.races()[0];
    assert_eq!(report.existing.kind, rma_sim::AccessKind::RmaWrite);
    assert_eq!(report.new.kind, rma_sim::AccessKind::RmaWrite);
    let msg = report.to_string();
    assert!(msg.contains("RMA_WRITE"), "{msg}");
    assert!(msg.contains("analyzer_behaviour.rs"), "{msg}");
    // Two different source lines (the two put statements).
    assert_ne!(report.existing.loc.line, report.new.loc.line);
}

/// Code 2 (Figure 8b): 1,000 gets of adjacent bytes in a loop. Node
/// counts: legacy keeps one node per access; merging collapses them.
#[test]
fn code2_node_counts() {
    let run = |algorithm: Algorithm| -> usize {
        let mon = analyzer(algorithm);
        let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
            let win = ctx.win_allocate(2048);
            let buf = ctx.alloc(1024);
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                for i in 0..1000u64 {
                    ctx.get(&buf, i, 1, RankId(1), i, win);
                }
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert!(out.is_clean(), "{:?}", out.aborts);
        mon.total_peak_nodes()
    };
    let legacy = run(Algorithm::Legacy);
    let merged = run(Algorithm::FragMerge);
    // Legacy: 1000 origin-side RMA_Writes + 1000 target-side RMA_Reads.
    assert_eq!(legacy, 2000);
    // Contribution: the gets merge into one node per side.
    assert_eq!(merged, 2, "merging must collapse the loop accesses");
}

/// Messages delivery (receiver threads) detects the same races as Direct.
#[test]
fn messages_delivery_equivalent() {
    for (algorithm, want) in [(Algorithm::FragMerge, true), (Algorithm::Legacy, true)] {
        let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
            algorithm,
            delivery: Delivery::Messages,
            ..AnalyzerCfg::default()
        }));
        let out = World::run(WorldCfg::with_ranks(3), mon.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(16);
            ctx.win_lock_all(win);
            // Two origins put to the same target range: race at target.
            if ctx.rank() != RankId(2) {
                ctx.put(&buf, 0, 16, RankId(2), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert_eq!(out.raced() || !mon.races().is_empty(), want, "{algorithm:?}");
    }
}

/// One `Messages` epoch of 200 puts to one target crosses the batch
/// threshold three times; the put conflicting with put 3 travels in the
/// third full batch. Every notification lands exactly once (Collect:
/// both halves of every put recorded, one race) and the race is caught
/// under either reaction.
#[test]
fn messages_epoch_past_the_batch_threshold() {
    const PUTS: u64 = 200;
    const CONFLICTING: u64 = 2 * BATCH_LEN as u64 + 5;
    assert!(PUTS > 3 * BATCH_LEN as u64, "the threshold must be crossed");
    for on_race in [OnRace::Collect, OnRace::Abort] {
        let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
            on_race,
            delivery: Delivery::Messages,
            ..AnalyzerCfg::default()
        }));
        let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
            let win = ctx.win_allocate(8 * PUTS);
            let buf = ctx.alloc(8);
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                for i in 0..PUTS {
                    // Disjoint targets, except that the put numbered
                    // CONFLICTING rewrites put 3's bytes.
                    let at = if i == CONFLICTING { 3 } else { i };
                    ctx.put(&buf, 0, 8, RankId(1), 8 * at, win);
                }
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        let races = mon.races();
        assert_eq!(races.len(), 1, "{on_race:?}: {races:?}");
        match on_race {
            OnRace::Collect => {
                assert!(out.is_clean(), "{:?}", out.aborts);
                assert_eq!(mon.total_recorded(), 2 * PUTS as usize);
            }
            OnRace::Abort => assert!(out.raced(), "the race must abort the world"),
        }
    }
}

/// Collect mode: races recorded, world keeps running.
#[test]
fn collect_mode_does_not_abort() {
    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        ..AnalyzerCfg::default()
    }));
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
        7u32
    });
    assert!(out.is_clean());
    assert_eq!(out.results, vec![Some(7), Some(7)]);
    assert_eq!(mon.races().len(), 1);
}

/// Epochs clear the stores: the same (safe) accesses in two successive
/// epochs never race across the epoch boundary.
#[test]
fn epochs_isolate_accesses() {
    let mon = analyzer(Algorithm::FragMerge);
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        for _ in 0..5 {
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                // A put per epoch to the same target range: racy inside
                // one epoch, safe across epochs.
                ctx.put(&buf, 0, 16, RankId(1), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        }
    });
    assert!(out.is_clean(), "{:?}", out.aborts);
    assert!(mon.races().is_empty());
    let stats = mon.window_stats();
    // Rank 1's store saw 5 epochs end (5 unlock_alls).
    assert_eq!(stats[0][1].epochs, 5);
}

/// A store by the target into a window range being put by an origin: race
/// at target side, both orders (issuer differs, no exemption).
#[test]
fn target_store_vs_remote_put_races() {
    let mon = analyzer(Algorithm::FragMerge);
    let out = World::run(WorldCfg::with_ranks(2), mon, |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            // Ensure the target's store lands first for determinism.
            let _ = ctx.recv(Some(RankId(1)), 1);
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
        } else {
            let wb = ctx.win_buf(win);
            ctx.store_u64(&wb, 0, 42);
            ctx.send(RankId(0), 1, vec![]);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.raced());
}

/// The alias filter: untracked local accesses are invisible to the
/// analyzer (no race reported even though the addresses overlap).
#[test]
fn untracked_accesses_are_filtered() {
    let mon = analyzer(Algorithm::FragMerge);
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(64);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            let wb = ctx.win_buf(win);
            ctx.get(&wb, 0, 8, RankId(1), 0, win);
            // This store truly races with the get, but the "alias
            // analysis" filtered it out: the analyzer cannot see it.
            ctx.store_u64_untracked(&wb, 0, 1);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(!out.raced());
    assert!(mon.races().is_empty());
}

/// flush_all on every rank + barrier clears the stores (Section 6): the
/// same conflicting pair split across the sync point is safe. Under
/// `Messages` the first put is still buffered at the barrier: unless the
/// barrier flushes it, the drain cannot complete and the second put
/// races with it.
#[test]
fn flush_all_plus_barrier_synchronizes() {
    for delivery in [Delivery::Direct, Delivery::Messages] {
        let mon = delivered_by(delivery);
        let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(16);
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                ctx.put(&buf, 0, 16, RankId(1), 0, win);
            }
            ctx.win_flush_all(win);
            ctx.barrier();
            if ctx.rank() == RankId(0) {
                // Same range again: safe, the flush+barrier ordered them.
                ctx.put(&buf, 0, 16, RankId(1), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert!(out.is_clean(), "{delivery:?}: {:?}", out.aborts);
        assert!(mon.races().is_empty(), "{delivery:?}");
    }
}

/// The fence twin of [`flush_all_plus_barrier_synchronizes`]: a fence
/// orders the same pair, so the fence must flush the buffered put
/// before its drain.
#[test]
fn fence_synchronizes() {
    for delivery in [Delivery::Direct, Delivery::Messages] {
        let mon = delivered_by(delivery);
        let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(16);
            ctx.win_fence(win);
            if ctx.rank() == RankId(0) {
                ctx.put(&buf, 0, 16, RankId(1), 0, win);
            }
            ctx.win_fence(win);
            if ctx.rank() == RankId(0) {
                ctx.put(&buf, 0, 16, RankId(1), 0, win);
            }
            ctx.win_fence(win);
        });
        assert!(out.is_clean(), "{delivery:?}: {:?}", out.aborts);
        assert!(mon.races().is_empty(), "{delivery:?}");
    }
}

/// flush_all WITHOUT the barrier does not synchronize: the second put
/// still races.
#[test]
fn flush_all_alone_does_not_synchronize() {
    let mon = analyzer(Algorithm::FragMerge);
    let out = World::run(WorldCfg::with_ranks(2), mon, |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
            ctx.win_flush_all(win);
            ctx.put(&buf, 0, 16, RankId(1), 0, win);
        } else {
            ctx.win_flush_all(win);
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.raced(), "flush_all alone must not clear the stores");
}

/// Stats plumbing: recorded counts and peaks are visible per window.
#[test]
fn stats_accounting() {
    let mon = analyzer(Algorithm::Legacy);
    let out = World::run(WorldCfg::with_ranks(2), mon.clone(), |ctx| {
        let win = ctx.win_allocate(64);
        let buf = ctx.alloc(16);
        ctx.win_lock_all(win);
        if ctx.rank() == RankId(0) {
            for i in 0..4 {
                ctx.put(&buf, 0, 4, RankId(1), i * 8, win);
            }
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    });
    assert!(out.is_clean());
    // 4 origin-side + 4 target-side records.
    assert_eq!(mon.total_recorded(), 8);
    assert_eq!(mon.total_peak_nodes(), 8);
    assert_eq!(mon.total_epoch_end_nodes(), 8);
}

//! Differential testing across detector configurations on randomly
//! generated (seeded) MPI-RMA programs: the Direct and Messages delivery
//! modes of the analyzer must agree with each other, and the analyzer's
//! end-to-end verdicts must match a sequential replay of the same access
//! stream through the core store.

use mpi_rma_race::prelude::*;
use std::sync::Arc;

/// A small deterministic program generator: `nops` operations chosen by
/// a splitmix-style hash of (seed, i), executed SPMD on 3 ranks.
#[derive(Clone, Copy)]
struct ProgramSpec {
    seed: u64,
    nops: u32,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Runs the generated program; every op is executed by a single rank
/// decided by the hash, keeping the trace deterministic.
fn run_program(spec: ProgramSpec, ctx: &mut RankCtx<'_>) {
    let win = ctx.win_allocate(256);
    let buf = ctx.alloc(64);
    ctx.win_lock_all(win);
    for i in 0..spec.nops {
        let h = mix(spec.seed ^ u64::from(i));
        let actor = (h % 3) as u32;
        if ctx.rank().0 != actor {
            continue;
        }
        let target = RankId(((h >> 8) % 3) as u32);
        let off = (h >> 16) % 24 * 8;
        let boff = (h >> 32) % 7 * 8;
        match (h >> 40) % 4 {
            0 => ctx.put(&buf, boff, 8, target, off, win),
            1 => ctx.get(&buf, boff, 8, target, off, win),
            2 => {
                let wb = ctx.win_buf(win);
                let _ = ctx.load_u64(&wb, off % 248);
            }
            _ => {
                let _ = ctx.load_u64(&buf, boff);
            }
        }
    }
    ctx.win_unlock_all(win);
    ctx.barrier();
}

fn verdict(spec: ProgramSpec, delivery: Delivery) -> bool {
    let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        delivery,
        ..AnalyzerCfg::default()
    }));
    let out: RunOutcome<()> = World::run(WorldCfg::with_ranks(3), analyzer.clone(), |ctx| {
        run_program(spec, ctx)
    });
    assert!(out.is_clean(), "seed {}: {:?}", spec.seed, out.panics);
    !analyzer.races().is_empty()
}

/// Direct insertion and the message/receiver-thread protocol agree on
/// every seed.
#[test]
fn delivery_modes_agree() {
    for seed in 0..40u64 {
        let spec = ProgramSpec { seed, nops: 30 };
        let direct = verdict(spec, Delivery::Direct);
        let messages = verdict(spec, Delivery::Messages);
        assert_eq!(direct, messages, "seed {seed}");
    }
}

/// Verdicts are stable across repeated runs of the same seed (thread
/// scheduling must not flip them).
#[test]
fn verdicts_stable_across_runs() {
    for seed in [3u64, 17, 23] {
        let spec = ProgramSpec { seed, nops: 40 };
        let first = verdict(spec, Delivery::Direct);
        for _ in 0..4 {
            assert_eq!(verdict(spec, Delivery::Direct), first, "seed {seed}");
        }
    }
}

/// Legacy never reports fewer races than... no — legacy's matrix is
/// order-insensitive (superset of conflicts) but its path-bound check
/// loses some. What must hold: on these 2-op-free streams every race the
/// contribution reports, the full-history ablation reports too.
#[test]
fn contribution_races_confirmed_by_full_history() {
    for seed in 0..25u64 {
        let spec = ProgramSpec { seed, nops: 30 };
        let ours = verdict_algo(spec, Algorithm::FragMerge);
        let full = verdict_algo(spec, Algorithm::FullHistory);
        if ours {
            assert!(full, "seed {seed}: contribution-only race");
        }
    }
}

/// The stride-extension prototype agrees with the full-history detector
/// on these streams (both are absorption-free).
#[test]
fn stride_extension_matches_full_history() {
    for seed in 0..25u64 {
        let spec = ProgramSpec { seed, nops: 30 };
        assert_eq!(
            verdict_algo(spec, Algorithm::StrideExtension),
            verdict_algo(spec, Algorithm::FullHistory),
            "seed {seed}"
        );
    }
}

fn verdict_algo(spec: ProgramSpec, algorithm: Algorithm) -> bool {
    let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        algorithm,
        on_race: OnRace::Collect,
        ..AnalyzerCfg::default()
    }));
    let out: RunOutcome<()> = World::run(WorldCfg::with_ranks(3), analyzer.clone(), |ctx| {
        run_program(spec, ctx)
    });
    assert!(out.is_clean());
    !analyzer.races().is_empty()
}

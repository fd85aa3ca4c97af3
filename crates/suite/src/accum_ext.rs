//! Extension suite: two-operation combinations involving
//! `MPI_Accumulate`, exercising the Section 2.1 atomicity property that
//! the paper's validation suite does not cover.
//!
//! Ground truth: an accumulate behaves like a write for conflict
//! purposes *except* against another accumulate (element-wise atomic);
//! the same-process local-then-RMA ordering exemption applies to it like
//! to any one-sided operation.

use crate::case::{SUITE_RANKS, ORIGIN1, ORIGIN2, TARGET};
use crate::run::Tool;
use rma_monitor::{Algorithm, AnalyzerCfg, OnRace, RmaAnalyzer};
use rma_must::MustRma;
use rma_sim::{AccumOp, Monitor, RankCtx, RankId, World, WorldCfg};
use std::sync::Arc;

/// The second operation paired with ORIGIN1's accumulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccumPartner {
    /// Another accumulate by ORIGIN2 to the same target bytes.
    AccumByOrigin2,
    /// A second accumulate by ORIGIN1 itself.
    AccumByOrigin1,
    /// An `MPI_Put` by ORIGIN2 to the same target bytes.
    PutByOrigin2,
    /// An `MPI_Get` by ORIGIN2 reading the same target bytes.
    GetByOrigin2,
    /// A load by the TARGET of its own window bytes.
    LoadByTarget,
    /// A store by the TARGET into its own window bytes.
    StoreByTarget,
    /// ORIGIN1 stores into its accumulate's origin buffer afterwards —
    /// the async operation may still be reading it (completion property).
    StoreOriginBufAfter,
    /// ORIGIN1 stores into the origin buffer *before* issuing (ordered,
    /// safe).
    StoreOriginBufBefore,
}

impl AccumPartner {
    /// All partners.
    pub const ALL: [AccumPartner; 8] = [
        AccumPartner::AccumByOrigin2,
        AccumPartner::AccumByOrigin1,
        AccumPartner::PutByOrigin2,
        AccumPartner::GetByOrigin2,
        AccumPartner::LoadByTarget,
        AccumPartner::StoreByTarget,
        AccumPartner::StoreOriginBufAfter,
        AccumPartner::StoreOriginBufBefore,
    ];

    /// Case name.
    pub fn name(self) -> &'static str {
        match self {
            AccumPartner::AccumByOrigin2 => "lo2_accum_accum_inwindow_target_safe",
            AccumPartner::AccumByOrigin1 => "ll_accum_accum_inwindow_target_safe",
            AccumPartner::PutByOrigin2 => "lo2_accum_put_inwindow_target_race",
            AccumPartner::GetByOrigin2 => "lo2_accum_get_inwindow_target_race",
            AccumPartner::LoadByTarget => "lt_accum_load_inwindow_target_race",
            AccumPartner::StoreByTarget => "lt_accum_store_inwindow_target_race",
            AccumPartner::StoreOriginBufAfter => "ll_accum_store_outwindow_origin_race",
            AccumPartner::StoreOriginBufBefore => "ll_store_accum_outwindow_origin_safe",
        }
    }

    /// Ground-truth verdict.
    pub fn races(self) -> bool {
        self.name().ends_with("_race")
    }

    fn body(self, ctx: &mut RankCtx<'_>) {
        let win = ctx.win_allocate(64);
        let src = ctx.alloc(8);
        let scratch = ctx.alloc(8);
        ctx.win_lock_all(win);
        match self {
            AccumPartner::StoreOriginBufBefore => {
                if ctx.rank() == ORIGIN1 {
                    ctx.store_u64(&src, 0, 3);
                    ctx.accumulate(&src, 0, 8, TARGET, 0, win, AccumOp::Sum);
                }
            }
            AccumPartner::StoreOriginBufAfter => {
                if ctx.rank() == ORIGIN1 {
                    ctx.accumulate(&src, 0, 8, TARGET, 0, win, AccumOp::Sum);
                    ctx.store_u64(&src, 0, 3);
                }
            }
            _ => {
                if ctx.rank() == ORIGIN1 {
                    ctx.accumulate(&src, 0, 8, TARGET, 0, win, AccumOp::Sum);
                }
                match self {
                    AccumPartner::AccumByOrigin2 if ctx.rank() == ORIGIN2 => {
                        ctx.accumulate(&scratch, 0, 8, TARGET, 0, win, AccumOp::Sum);
                    }
                    AccumPartner::AccumByOrigin1 if ctx.rank() == ORIGIN1 => {
                        ctx.accumulate(&scratch, 0, 8, TARGET, 0, win, AccumOp::Sum);
                    }
                    AccumPartner::PutByOrigin2 if ctx.rank() == ORIGIN2 => {
                        ctx.put(&scratch, 0, 8, TARGET, 0, win);
                    }
                    AccumPartner::GetByOrigin2 if ctx.rank() == ORIGIN2 => {
                        ctx.get(&scratch, 0, 8, TARGET, 0, win);
                    }
                    AccumPartner::LoadByTarget if ctx.rank() == TARGET => {
                        let wb = ctx.win_buf(win);
                        let _ = ctx.load_u64(&wb, 0);
                    }
                    AccumPartner::StoreByTarget if ctx.rank() == TARGET => {
                        let wb = ctx.win_buf(win);
                        ctx.store_u64(&wb, 0, 5);
                    }
                    _ => {}
                }
            }
        }
        ctx.win_unlock_all(win);
        ctx.barrier();
    }
}

/// Looks an extension case up by its [`AccumPartner::name`] — the
/// accumulate-suite analogue of [`crate::find_case`].
pub fn find_accum_case(name: &str) -> Option<AccumPartner> {
    AccumPartner::ALL.into_iter().find(|p| p.name() == name)
}

/// Runs an extension case's SPMD body under an arbitrary monitor (for
/// trace recording or teeing), mirroring
/// [`crate::run::run_case_with_monitor`]. Returns the world outcome so
/// callers can check cleanliness themselves.
pub fn run_accum_case_with_monitor(
    partner: AccumPartner,
    monitor: Arc<dyn Monitor>,
) -> rma_sim::RunOutcome<()> {
    World::run(WorldCfg::with_ranks(SUITE_RANKS), monitor, move |ctx| partner.body(ctx))
}

/// Runs an extension case under one tool; `true` when a race was
/// reported.
pub fn run_accum_case(partner: AccumPartner, tool: Tool) -> bool {
    let cfg = WorldCfg::with_ranks(SUITE_RANKS);
    match tool {
        Tool::Legacy | Tool::Contribution => {
            let algorithm =
                if tool == Tool::Legacy { Algorithm::Legacy } else { Algorithm::FragMerge };
            let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
                algorithm,
                on_race: OnRace::Collect,
                ..AnalyzerCfg::default()
            }));
            let out =
                World::run(cfg, mon.clone() as Arc<dyn Monitor>, |ctx| partner.body(ctx));
            assert!(out.is_clean(), "{}: {:?}", partner.name(), out.panics);
            !mon.races().is_empty()
        }
        Tool::MustRma => {
            let mon = Arc::new(MustRma::for_world(SUITE_RANKS, rma_must::OnRace::Collect));
            let out =
                World::run(cfg, mon.clone() as Arc<dyn Monitor>, |ctx| partner.body(ctx));
            assert!(out.is_clean(), "{}: {:?}", partner.name(), out.panics);
            !mon.races().is_empty()
        }
    }
}

// Silence an unused-import warning when compiled without tests.
const _: RankId = ORIGIN1;

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth sanity: accumulate/accumulate pairs are the only
    /// RMA/RMA combinations here that are safe.
    #[test]
    fn ground_truth_shape() {
        let racy: Vec<_> =
            AccumPartner::ALL.iter().filter(|p| p.races()).map(|p| p.name()).collect();
        assert_eq!(racy.len(), 5);
        assert!(!AccumPartner::AccumByOrigin2.races());
        assert!(!AccumPartner::AccumByOrigin1.races());
        assert!(!AccumPartner::StoreOriginBufBefore.races());
    }

    /// Every tool classifies every extension case correctly — except the
    /// two documented tool quirks: the legacy matrix flags the ordered
    /// load-then-accumulate (its usual order-insensitivity FP), and
    /// MUST misses nothing here because every buffer involved is heap or
    /// a heap window.
    #[test]
    fn extension_verdicts() {
        for partner in AccumPartner::ALL {
            let truth = partner.races();
            assert_eq!(
                run_accum_case(partner, Tool::Contribution),
                truth,
                "contribution on {}",
                partner.name()
            );
            assert_eq!(
                run_accum_case(partner, Tool::MustRma),
                truth,
                "must on {}",
                partner.name()
            );
            let legacy = run_accum_case(partner, Tool::Legacy);
            if partner == AccumPartner::StoreOriginBufBefore {
                assert!(legacy, "legacy order-insensitivity FP expected");
            } else {
                assert_eq!(legacy, truth, "legacy on {}", partner.name());
            }
        }
    }
}

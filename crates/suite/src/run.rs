//! Executes a generated case under one of the three detectors and
//! reports whether a race was flagged.

use crate::case::{Action, CaseSpec, Op, Role, Site, Variant, ORIGIN1, SUITE_RANKS, TARGET};
use rma_monitor::{Algorithm, AnalyzerCfg, OnRace, RmaAnalyzer};
use rma_must::MustRma;
use rma_sim::{Buf, Monitor, RankCtx, WinId, World, WorldCfg};
use std::sync::Arc;

/// The detectors compared in the paper's Tables 2 and 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tool {
    /// Legacy RMA-Analyzer.
    Legacy,
    /// MUST-RMA-like baseline.
    MustRma,
    /// The paper's contribution.
    Contribution,
}

impl Tool {
    /// Paper column headers.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Legacy => "RMA-Analyzer",
            Tool::MustRma => "MUST-RMA",
            Tool::Contribution => "Our Contribution",
        }
    }

    /// All three, in paper column order.
    pub const ALL: [Tool; 3] = [Tool::Legacy, Tool::MustRma, Tool::Contribution];
}

/// Per-rank buffers of a case program.
struct Buffers {
    win: WinId,
    outbuf: Buf,
    scratch: [Buf; 2],
}

fn site_offset(spec: &CaseSpec, second: bool) -> u64 {
    if second && spec.variant == Variant::Disjoint {
        32
    } else {
        0
    }
}

/// Executes `action` if it belongs to this rank. `idx` is 0 for the
/// first, 1 for the second action (used to pick non-overlapping neutral
/// regions).
fn exec_action(ctx: &mut RankCtx<'_>, bufs: &Buffers, spec: &CaseSpec, idx: usize) {
    let action: Action = if idx == 0 { spec.first } else { spec.second };
    if action.actor != ctx.rank() {
        return;
    }
    let off = site_offset(spec, idx == 1);
    let site_buf = match spec.site {
        Site::OriginInWin | Site::TargetWin => ctx.win_buf(bufs.win),
        Site::OriginOutWin => bufs.outbuf,
    };
    match (action.op, action.role) {
        (Op::Load, _) => {
            let _ = ctx.load_u64(&site_buf, off);
        }
        (Op::Store, _) => {
            ctx.store_u64(&site_buf, off, 0xC0FFEE + idx as u64);
        }
        (op, Role::OriginBuf) => {
            // The site is the origin buffer; the target region is a
            // neutral slot in the *other* rank's window.
            let target = if action.actor == ORIGIN1 { TARGET } else { ORIGIN1 };
            let target_off = 48 + 8 * idx as u64;
            match op {
                Op::Put => ctx.put(&site_buf, off, 8, target, target_off, bufs.win),
                Op::Get => ctx.get(&site_buf, off, 8, target, target_off, bufs.win),
                _ => unreachable!("local ops have no origin-buffer role"),
            }
        }
        (op, Role::Target) => {
            // The site is the target region (possibly the issuer's own
            // window); the origin buffer is a private scratch.
            let scratch = bufs.scratch[idx];
            let target = spec.site.owner();
            match op {
                Op::Put => ctx.put(&scratch, 0, 8, target, off, bufs.win),
                Op::Get => ctx.get(&scratch, 0, 8, target, off, bufs.win),
                _ => unreachable!(),
            }
        }
    }
}

/// The SPMD body shared by every case.
fn case_body(ctx: &mut RankCtx<'_>, spec: &CaseSpec) {
    // Windows over stack arrays, out-of-window buffers on the heap —
    // matching the paper's C codes (see module docs of `case`).
    let win = ctx.win_allocate_on_stack(64);
    let outbuf = ctx.alloc(64);
    let scratch = [ctx.alloc(8), ctx.alloc(8)];
    let bufs = Buffers { win, outbuf, scratch };

    ctx.win_lock_all(win);
    exec_action(ctx, &bufs, spec, 0);
    if spec.variant == Variant::Epochs {
        ctx.win_unlock_all(win);
        ctx.barrier();
        ctx.win_lock_all(win);
    }
    exec_action(ctx, &bufs, spec, 1);
    ctx.win_unlock_all(win);
    ctx.barrier();
}

/// Runs one case's SPMD body under an arbitrary monitor (for recording,
/// teeing, or driving detectors not covered by [`Tool`]). Returns the
/// world outcome so callers can check cleanliness themselves.
pub fn run_case_with_monitor(
    spec: &CaseSpec,
    monitor: Arc<dyn Monitor>,
) -> rma_sim::RunOutcome<()> {
    run_case_with_cfg(spec, monitor, WorldCfg::with_ranks(SUITE_RANKS))
}

/// Like [`run_case_with_monitor`] but with an explicit [`WorldCfg`] —
/// the entry point for chaos sweeps that attach a fault plan or tune the
/// watchdog. `cfg.nranks` must be [`SUITE_RANKS`]; it is forced to make
/// misconfigured sweeps impossible.
pub fn run_case_with_cfg(
    spec: &CaseSpec,
    monitor: Arc<dyn Monitor>,
    cfg: WorldCfg,
) -> rma_sim::RunOutcome<()> {
    let cfg = WorldCfg { nranks: SUITE_RANKS, ..cfg };
    World::run(cfg, monitor, |ctx| case_body(ctx, spec))
}

/// Runs one case under one tool; `true` when the tool reported a race.
pub fn run_case(spec: &CaseSpec, tool: Tool) -> bool {
    let cfg = WorldCfg::with_ranks(SUITE_RANKS);
    match tool {
        Tool::Legacy | Tool::Contribution => {
            let algorithm = if tool == Tool::Legacy {
                Algorithm::Legacy
            } else {
                Algorithm::FragMerge
            };
            let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
                algorithm,
                on_race: OnRace::Collect,
                ..AnalyzerCfg::default()
            }));
            let out = World::run(cfg, mon.clone() as Arc<dyn Monitor>, |ctx| {
                case_body(ctx, spec)
            });
            assert!(out.is_clean(), "{}: {:?} {:?}", spec.name(), out.aborts, out.panics);
            !mon.races().is_empty()
        }
        Tool::MustRma => {
            let mon = Arc::new(MustRma::for_world(SUITE_RANKS, rma_must::OnRace::Collect));
            let out = World::run(cfg, mon.clone() as Arc<dyn Monitor>, |ctx| {
                case_body(ctx, spec)
            });
            assert!(out.is_clean(), "{}: {:?} {:?}", spec.name(), out.aborts, out.panics);
            !mon.races().is_empty()
        }
    }
}

/// Confusion-matrix counts (the paper's Table 3 rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Safe codes flagged.
    pub false_positives: usize,
    /// Racy codes missed.
    pub false_negatives: usize,
    /// Racy codes flagged.
    pub true_positives: usize,
    /// Safe codes accepted.
    pub true_negatives: usize,
}

impl Confusion {
    /// Total codes evaluated.
    pub fn total(&self) -> usize {
        self.false_positives + self.false_negatives + self.true_positives + self.true_negatives
    }
}

/// Evaluates a tool over a set of cases.
pub fn evaluate(cases: &[CaseSpec], tool: Tool) -> Confusion {
    let mut c = Confusion::default();
    for spec in cases {
        let flagged = run_case(spec, tool);
        match (spec.races(), flagged) {
            (true, true) => c.true_positives += 1,
            (true, false) => c.false_negatives += 1,
            (false, true) => c.false_positives += 1,
            (false, false) => c.true_negatives += 1,
        }
    }
    c
}

/// The names of the misclassified codes — for diagnostics and for
/// EXPERIMENTS.md.
pub fn misclassified(cases: &[CaseSpec], tool: Tool) -> Vec<(String, bool)> {
    cases
        .iter()
        .filter_map(|spec| {
            let flagged = run_case(spec, tool);
            (flagged != spec.races()).then(|| (spec.name(), spec.races()))
        })
        .collect()
}

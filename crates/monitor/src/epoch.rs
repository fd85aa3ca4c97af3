//! The epoch protocol (the paper's §5.1 store per (rank, window) and
//! its §6 flush+barrier rule), defined once: which accesses reach which
//! store, and when a store is cleared. The live `RmaAnalyzer` and
//! offline replay (`rma_trace::StoreTarget`) both drive an
//! [`EpochState`], one method per rule (DESIGN.md §3.6 lists them
//! together). A race never cuts a rule short:
//! the racing access is reported and every other record is still made.
//!
//! A caller's [`SlotCell`] decides how a slot is reached: replay owns
//! its slots (no lock, no atomic), the live analyzer locks each slot.

use rma_core::{AccessStore, MemAccess, RaceReport, StoreStats};
use rma_sim::{RankId, RmaEvent, WinId};
use rma_substrate::sync::Mutex;
use std::cell::RefCell;

/// The outcome of recording one access into one store.
pub type Verdict = Result<(), Box<RaceReport>>;

/// One rank's store on one window, with the rank's epoch marks there.
pub struct Slot {
    store: Box<dyn AccessStore + Send>,
    /// Inside a `lock_all` or fence epoch.
    open: bool,
    /// `flush_all` called with no one-sided operation issued since.
    flushed: bool,
}

impl Slot {
    /// The store, for the live receiver (a target half recorded under the
    /// slot lock that also guards its redelivery watermark) and recovery.
    pub(crate) fn store(&mut self) -> &mut (dyn AccessStore + Send) {
        &mut *self.store
    }
}

/// How the rules reach a [`Slot`].
pub trait SlotCell {
    /// Wraps a fresh slot.
    fn wrap(slot: Slot) -> Self;
    /// Runs `f` with exclusive access to the slot.
    fn with<R>(&self, f: impl FnOnce(&mut Slot) -> R) -> R;
}

/// Single-threaded replay: a borrow flag, no lock and no atomic.
impl SlotCell for RefCell<Slot> {
    fn wrap(slot: Slot) -> Self {
        RefCell::new(slot)
    }

    fn with<R>(&self, f: impl FnOnce(&mut Slot) -> R) -> R {
        f(&mut self.borrow_mut())
    }
}

/// The live analyzer: one lock per (window, rank).
impl SlotCell for Mutex<Slot> {
    fn wrap(slot: Slot) -> Self {
        Mutex::new(slot)
    }

    fn with<R>(&self, f: impl FnOnce(&mut Slot) -> R) -> R {
        f(&mut self.lock())
    }
}

/// The origin half and the target half of a one-sided operation, both
/// issued by the origin.
pub fn rma_halves(ev: &RmaEvent) -> [MemAccess; 2] {
    [
        MemAccess::new(ev.origin_interval, ev.origin_kind(), ev.origin, ev.loc),
        MemAccess::new(ev.target_interval, ev.target_kind(), ev.origin, ev.loc),
    ]
}

/// Every (window, rank) slot of a run, and the rules over them (see the
/// module docs).
pub struct EpochState<C = RefCell<Slot>> {
    nranks: u32,
    /// `wins[w][r]`: rank `r`'s slot on window `w`.
    wins: Vec<Box<[C]>>,
}

impl<C: SlotCell> EpochState<C> {
    /// No windows yet, over `nranks` ranks.
    pub fn new(nranks: u32) -> Self {
        EpochState { nranks, wins: Vec::new() }
    }

    /// The rank count.
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Allocates windows up to `win`, one store per rank from `store`.
    pub fn ensure_window(
        &mut self,
        win: WinId,
        mut store: impl FnMut() -> Box<dyn AccessStore + Send>,
    ) {
        while self.wins.len() <= win.index() {
            let slots = (0..self.nranks)
                .map(|_| C::wrap(Slot { store: store(), open: false, flushed: false }))
                .collect();
            self.wins.push(slots);
        }
    }

    /// `rank`'s slot on `win`.
    pub(crate) fn slot(&self, win: WinId, rank: RankId) -> &C {
        &self.wins[win.index()][rank.index()]
    }

    /// `rank`'s slots on every window, in window order.
    pub(crate) fn slots_of(&self, rank: RankId) -> impl Iterator<Item = &C> {
        self.wins.iter().map(move |w| &w[rank.index()])
    }

    /// `MPI_Win_lock_all`, or a fence arrival: opens `rank`'s epoch on
    /// `win`.
    pub fn open(&self, win: WinId, rank: RankId) {
        self.slot(win, rank).with(|s| s.open = true);
    }

    /// A local access of `rank`: recorded in every window where its
    /// epoch is open (outside an epoch no remote access can overlap it).
    /// `on` sees each window recorded and its verdict.
    pub fn local(&self, rank: RankId, acc: MemAccess, mut on: impl FnMut(WinId, Verdict)) {
        for (w, slots) in self.wins.iter().enumerate() {
            if let Some(verdict) = slots[rank.index()].with(|s| s.open.then(|| s.store.record(acc)))
            {
                on(WinId(w as u32), verdict);
            }
        }
    }

    /// The origin half of an RMA `origin` issued on `win`: it cancels
    /// the origin's pending `flush_all` and lands in the origin's store.
    pub fn rma_origin(&self, win: WinId, origin: RankId, acc: MemAccess) -> Verdict {
        self.slot(win, origin).with(|s| {
            s.flushed = false;
            s.store.record(acc)
        })
    }

    /// The target half of an RMA on `win`: it lands in the target's store.
    pub fn rma_target(&self, win: WinId, target: RankId, acc: MemAccess) -> Verdict {
        self.slot(win, target).with(|s| s.store.record(acc))
    }

    /// `MPI_Win_flush_all`: marks `rank` flushed on `win`.
    pub fn flush_all(&self, win: WinId, rank: RankId) {
        self.slot(win, rank).with(|s| s.flushed = true);
    }

    /// `MPI_Win_unlock_all`, once every notification towards `rank` has
    /// landed: the epoch's accesses are complete, so `rank`'s store is
    /// cleared and its epoch closed.
    pub fn unlock_all(&self, win: WinId, rank: RankId) {
        self.slot(win, rank).with(|s| {
            s.store.clear();
            s.open = false;
        });
    }

    /// Fence release: everything before the fence happens-before
    /// everything after it, so every store of `win` is cleared, once
    /// `drained(win)` says every notification towards it has landed (a
    /// window that did not drain keeps its stores: possible false
    /// positives, never a lost race). The flushed marks survive.
    pub fn fence_release(&self, win: WinId, drained: impl FnOnce(WinId) -> bool) {
        if drained(win) {
            for slot in self.wins[win.index()].iter() {
                slot.with(|s| s.store.clear());
            }
        }
    }

    /// Barrier release, the Section 6 rule: `flush_all` on every rank and
    /// a barrier synchronize a window. Each window where every rank is
    /// flushed is cleared and its marks reset, once `drained(win)` says
    /// every notification towards it has landed.
    pub fn barrier_release(&self, mut drained: impl FnMut(WinId) -> bool) {
        for (w, slots) in self.wins.iter().enumerate() {
            if slots.iter().all(|slot| slot.with(|s| s.flushed)) && drained(WinId(w as u32)) {
                for slot in slots.iter() {
                    slot.with(|s| {
                        s.store.clear();
                        s.flushed = false;
                    });
                }
            }
        }
    }

    /// Per-window, per-rank store statistics.
    pub fn window_stats(&self) -> Vec<Vec<StoreStats>> {
        self.wins
            .iter()
            .map(|slots| slots.iter().map(|slot| slot.with(|s| s.store.stats())).collect())
            .collect()
    }
}

//! Injectable monotonic clock — the time analogue of the [`crate::fs`]
//! fault shim.
//!
//! Deadline logic is only as trustworthy as the clocks it was tested
//! against, and wall-clock tests are the classic source of flaky,
//! timing-dependent CI. This module puts the small "what time is it /
//! sleep until" surface the serving layer needs behind a [`Clock`]
//! handle with two modes:
//!
//! * [`Clock::real`] — milliseconds since handle creation, backed by
//!   [`std::time::Instant`]; waits park on a condvar with a timeout.
//! * [`Clock::manual`] — a virtual millisecond counter that only moves
//!   when a test calls [`Clock::advance`]; waits park on the same
//!   condvar and wake exactly when virtual time reaches the deadline.
//!
//! The same deadline code runs unmodified against either mode — tests
//! drive `advance` to hit timeout edges deterministically, production
//! uses the real mode. Clones share state (like [`crate::fs::Fs`]), so
//! a service and its monitor thread can hold the same virtual time.
//!
//! Cancellation is cooperative: [`Clock::wait_until`] re-checks a
//! caller-supplied predicate on every wake, and [`Clock::kick`] wakes
//! all waiters so a shutdown flag flipped elsewhere gets observed.
//!
//! A test that advances a manual clock can also wait for its effect
//! instead of sleeping: [`Clock::wait_parked`] returns once a given
//! number of waiters have re-parked having seen the current time, i.e.
//! once every deadline check the advance triggered has run.

use crate::sync::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum Mode {
    /// Milliseconds since `epoch`, i.e. since the handle was created.
    Real { epoch: Instant },
    /// Virtual milliseconds, stored in `ClockInner::now_ms` and moved
    /// only by `advance`.
    Manual,
}

struct ClockInner {
    mode: Mode,
    /// Virtual time and its waiters; doubles as the condvar's mutex in
    /// real mode, where its values are unused.
    state: Mutex<Tick>,
    cv: Condvar,
    /// Signalled whenever a manual-mode waiter parks
    /// ([`Clock::wait_parked`]).
    parked_cv: Condvar,
}

struct Tick {
    /// Virtual now (manual mode).
    now_ms: u64,
    /// Manual-mode waiters parked since time last moved, i.e. having
    /// seen the current `now_ms`.
    parked: usize,
    /// Bumped by every `advance`, which resets `parked`: a waiter that
    /// parked in an older generation is no longer counted.
    generation: u64,
}

impl ClockInner {
    fn new(mode: Mode, start_ms: u64) -> Arc<ClockInner> {
        Arc::new(ClockInner {
            mode,
            state: Mutex::new(Tick { now_ms: start_ms, parked: 0, generation: 0 }),
            cv: Condvar::new(),
            parked_cv: Condvar::new(),
        })
    }
}

/// Shared clock handle. Clones observe the same time; see the module
/// docs for the real/manual split.
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.mode {
            Mode::Real { .. } => write!(f, "Clock::real(now={}ms)", self.now_ms()),
            Mode::Manual => write!(f, "Clock::manual(now={}ms)", self.now_ms()),
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

impl Clock {
    /// Wall clock: milliseconds since this call.
    pub fn real() -> Clock {
        Clock { inner: ClockInner::new(Mode::Real { epoch: Instant::now() }, 0) }
    }

    /// Virtual clock starting at `start_ms`; time moves only via
    /// [`Clock::advance`].
    pub fn manual(start_ms: u64) -> Clock {
        Clock { inner: ClockInner::new(Mode::Manual, start_ms) }
    }

    /// Is this the test-driven manual mode?
    pub fn is_manual(&self) -> bool {
        matches!(self.inner.mode, Mode::Manual)
    }

    /// Current time in milliseconds (since creation, or since
    /// `start_ms` for manual clocks).
    pub fn now_ms(&self) -> u64 {
        match self.inner.mode {
            Mode::Real { epoch } => epoch.elapsed().as_millis() as u64,
            Mode::Manual => self.inner.state.lock().now_ms,
        }
    }

    /// Moves a manual clock forward by `ms` and wakes every waiter so
    /// deadline checks re-run against the new time.
    ///
    /// # Panics
    ///
    /// Panics on a real clock — test code driving time through a handle
    /// that production created real is a bug worth failing loudly on.
    pub fn advance(&self, ms: u64) {
        match self.inner.mode {
            Mode::Real { .. } => panic!("Clock::advance on a real clock"),
            Mode::Manual => {
                let mut tick = self.inner.state.lock();
                tick.now_ms += ms;
                tick.parked = 0;
                tick.generation += 1;
                drop(tick);
                self.inner.cv.notify_all();
            }
        }
    }

    /// Wakes every [`Clock::wait_until`] waiter without moving time, so
    /// they re-evaluate their cancellation predicate. Call after
    /// flipping a shutdown flag.
    pub fn kick(&self) {
        // Lock-then-notify so a waiter between its predicate check and
        // its park cannot miss the wakeup.
        drop(self.inner.state.lock());
        self.inner.cv.notify_all();
    }

    /// Blocks until at least `n` [`Clock::wait_until`] waiters are
    /// parked having seen the current time (none has been counted since
    /// the last [`Clock::advance`]), or `timeout` of wall time passes.
    /// Returns whether the waiters parked. After an `advance`, this is
    /// how a test knows the deadline checks it triggered have all run —
    /// without sleeping.
    ///
    /// # Panics
    ///
    /// Panics on a real clock, like [`Clock::advance`].
    pub fn wait_parked(&self, n: usize, timeout: Duration) -> bool {
        assert!(self.is_manual(), "Clock::wait_parked on a real clock");
        let deadline = Instant::now() + timeout;
        let mut tick = self.inner.state.lock();
        while tick.parked < n {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.inner.parked_cv.wait_for(&mut tick, deadline - now);
        }
        true
    }

    /// Parks until `now_ms() >= deadline_ms` or `cancelled()` turns
    /// true. Returns `true` when the deadline was reached, `false` when
    /// cancelled first (deadline-and-cancelled ties report the
    /// deadline).
    ///
    /// Cancellation is re-checked on every wake; whoever flips the flag
    /// must [`Clock::kick`] (or [`Clock::advance`]) afterwards, or the
    /// waiter sleeps through it until the deadline.
    pub fn wait_until(&self, deadline_ms: u64, cancelled: &dyn Fn() -> bool) -> bool {
        let mut guard = self.inner.state.lock();
        loop {
            let now = match self.inner.mode {
                Mode::Real { epoch } => epoch.elapsed().as_millis() as u64,
                Mode::Manual => guard.now_ms,
            };
            if now >= deadline_ms {
                return true;
            }
            if cancelled() {
                return false;
            }
            match self.inner.mode {
                Mode::Real { .. } => {
                    let remaining = Duration::from_millis(deadline_ms - now);
                    let _ = self.inner.cv.wait_for(&mut guard, remaining);
                }
                Mode::Manual => {
                    let generation = guard.generation;
                    guard.parked += 1;
                    self.inner.parked_cv.notify_all();
                    self.inner.cv.wait(&mut guard);
                    if guard.generation == generation {
                        guard.parked -= 1;
                    }
                }
            }
        }
    }

    /// Convenience: [`Clock::wait_until`] `ms` from now.
    pub fn sleep_ms(&self, ms: u64, cancelled: &dyn Fn() -> bool) -> bool {
        self.wait_until(self.now_ms().saturating_add(ms), cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    #[test]
    fn manual_time_only_moves_on_advance() {
        let c = Clock::manual(100);
        assert_eq!(c.now_ms(), 100);
        thread::sleep(Duration::from_millis(5));
        assert_eq!(c.now_ms(), 100, "manual time ignores wall time");
        c.advance(50);
        assert_eq!(c.now_ms(), 150);
        assert!(c.is_manual());
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::manual(0);
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now_ms(), 7);
    }

    #[test]
    fn wait_until_past_deadline_returns_immediately() {
        let c = Clock::manual(10);
        assert!(c.wait_until(10, &|| false));
        assert!(c.wait_until(3, &|| false));
    }

    #[test]
    fn advance_releases_waiter_at_deadline() {
        let c = Clock::manual(0);
        let w = c.clone();
        let h = thread::spawn(move || w.wait_until(100, &|| false));
        c.advance(40);
        assert!(!h.is_finished() || c.now_ms() >= 100);
        c.advance(60);
        assert!(h.join().unwrap(), "deadline reached");
    }

    #[test]
    fn kick_delivers_cancellation() {
        let c = Clock::manual(0);
        let stop = Arc::new(AtomicBool::new(false));
        let (w, s) = (c.clone(), Arc::clone(&stop));
        let h = thread::spawn(move || w.wait_until(1_000, &|| s.load(Ordering::SeqCst)));
        // Give the waiter a moment to park, then cancel.
        thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::SeqCst);
        c.kick();
        assert!(!h.join().unwrap(), "cancelled before the deadline");
    }

    #[test]
    fn wait_parked_sees_waiters_re_park_after_each_advance() {
        let c = Clock::manual(0);
        let w = c.clone();
        let h = thread::spawn(move || w.wait_until(100, &|| false));
        assert!(c.wait_parked(1, Duration::from_secs(10)), "the waiter parks at 0");
        c.advance(40);
        assert!(c.wait_parked(1, Duration::from_secs(10)), "and re-parks having seen 40");
        c.kick();
        assert!(c.wait_parked(1, Duration::from_secs(10)), "a kick leaves it counted once");
        assert!(!c.wait_parked(2, Duration::from_millis(20)), "one waiter is never two");
        c.advance(60);
        assert!(h.join().unwrap(), "deadline reached");
        assert!(!c.wait_parked(1, Duration::from_millis(20)), "nobody parked at 100");
    }

    #[test]
    #[should_panic(expected = "Clock::wait_parked on a real clock")]
    fn wait_parked_on_real_clock_panics() {
        Clock::real().wait_parked(0, Duration::ZERO);
    }

    #[test]
    fn deadline_wins_over_simultaneous_cancel() {
        let c = Clock::manual(5);
        assert!(c.wait_until(5, &|| true), "deadline-and-cancelled ties report the deadline");
    }

    #[test]
    fn real_clock_sleeps_and_reports_deadline() {
        let c = Clock::real();
        let before = c.now_ms();
        assert!(c.sleep_ms(15, &|| false));
        assert!(c.now_ms() >= before + 15);
    }

    #[test]
    #[should_panic(expected = "Clock::advance on a real clock")]
    fn advance_on_real_clock_panics() {
        Clock::real().advance(1);
    }
}

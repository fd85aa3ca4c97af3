//! MPMC channels with disconnect semantics — the subset of
//! `crossbeam::channel` this workspace used, plus clonable receivers.
//!
//! Two constructors share the same `Sender`/`Receiver` types:
//!
//! * [`unbounded`] — `send` never blocks;
//! * [`bounded`] — the queue holds at most `cap` messages and `send`
//!   *blocks* while it is full. The block is the credit mechanism: a
//!   producer that outruns its consumer parks until a slot (credit)
//!   frees, so queue memory can never exceed `cap × message size`.
//!   [`Sender::try_send`] and [`Sender::send_timeout`] offer
//!   non-blocking / deadline-bounded admission, [`Sender::send_with`]
//!   runs a hook before it parks on a full queue, and the channel counts
//!   how often producers had to wait ([`Sender::blocked_sends`]) and
//!   the deepest the queue ever got ([`Sender::peak_len`]) for
//!   backpressure telemetry.
//!
//! Senders and receivers are both clonable. When the last `Sender` is
//! dropped the channel *disconnects*: blocked and future `recv` calls
//! return [`RecvError`] once the queue drains. When the last `Receiver`
//! is dropped, `send` returns the value back inside [`SendError`] (and
//! any sender parked on a full bounded queue wakes with the same error
//! rather than sleeping forever).
//! Sender/receiver accounting lives *inside* the queue mutex, so wakeups
//! cannot be lost between a count check and a condvar park.
//!
//! # Wake rule
//!
//! A condvar notify enters the kernel whether or not anyone waits, so
//! the channel notifies only a thread its own state shows is parked.
//! Every condvar wait is bracketed by a count under the channel mutex:
//! `recv_parked` for receivers on an empty queue, `send_parked` for
//! senders on a full one ([`Sender::parked`] reads both). A push, a
//! pop's credit and a disconnecting drop read the matching count in the
//! same critical section that changed the queue or the handle count,
//! and notify only when it is nonzero. [`Receiver::wake_all`] stays
//! unconditional.
//!
//! No wakeup is lost. A waiter increments its count and parks without
//! releasing the mutex in between, and the notifier changes the queue
//! and reads the count without releasing it either. One of the two
//! critical sections comes first: if the waiter's, the notifier sees
//! the count and notifies (after its unlock, which is as good as before:
//! the waiter is already in the condvar's wait set); if the notifier's,
//! the waiter sees the changed queue or handle count and never parks.
//! A notified waiter stays counted until it re-takes the mutex, so a
//! count can only over-report, costing at most a wasted notify.

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Error returned by [`Sender::send`] when every receiver is gone;
/// carries the unsent value back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Like crossbeam: `Debug` without requiring `T: Debug`, so `.expect()`
// works for any payload type.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the queue is empty and
/// every sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue momentarily empty; senders still connected.
    Empty,
    /// Queue empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_cancel`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvCancelError {
    /// The cancel predicate turned true while the queue was empty.
    Cancelled,
    /// Queue empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Sender::try_send`]; carries the unsent value.
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// Bounded queue momentarily full; receivers still connected.
    Full(T),
    /// Every receiver has been dropped.
    Disconnected(T),
}

impl<T> std::fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrySendError::Full(_) => "TrySendError::Full(..)",
            TrySendError::Disconnected(_) => "TrySendError::Disconnected(..)",
        })
    }
}

/// Error returned by [`Sender::send_timeout`]; carries the unsent value.
#[derive(PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The queue stayed full for the whole timeout.
    Timeout(T),
    /// Every receiver has been dropped.
    Disconnected(T),
}

impl<T> std::fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SendTimeoutError::Timeout(_) => "SendTimeoutError::Timeout(..)",
            SendTimeoutError::Disconnected(_) => "SendTimeoutError::Disconnected(..)",
        })
    }
}

struct State<T> {
    q: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// `Some(cap)` for a bounded channel; `None` never blocks a send.
    cap: Option<usize>,
    /// Send calls that found the queue full and had to wait (or bail).
    blocked_sends: u64,
    /// Deepest the queue ever got.
    peak_len: usize,
    /// Receivers waiting on `cv` right now.
    recv_parked: usize,
    /// Senders waiting on `cv_send` right now.
    send_parked: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    /// Parked receivers (queue empty).
    cv: Condvar,
    /// Parked senders (bounded queue full). Separate from `cv` so a
    /// freed slot never wakes a receiver and vice versa.
    cv_send: Condvar,
}

impl<T> Chan<T> {
    fn with_cap(cap: Option<usize>) -> Arc<Self> {
        Arc::new(Chan {
            state: Mutex::new(State {
                q: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
                blocked_sends: 0,
                peak_len: 0,
                recv_parked: 0,
                send_parked: 0,
            }),
            cv: Condvar::new(),
            cv_send: Condvar::new(),
        })
    }

    /// Parks a receiver on `cv` (for at most `timeout`), counted in
    /// `recv_parked` for exactly the span of the wait.
    fn park_recv(&self, st: &mut MutexGuard<'_, State<T>>, timeout: Option<Duration>) {
        st.recv_parked += 1;
        match timeout {
            Some(t) => {
                self.cv.wait_for(st, t);
            }
            None => self.cv.wait(st),
        }
        st.recv_parked -= 1;
    }

    /// Parks a sender on `cv_send` (for at most `timeout`), counted in
    /// `send_parked` for exactly the span of the wait.
    fn park_send(&self, st: &mut MutexGuard<'_, State<T>>, timeout: Option<Duration>) {
        st.send_parked += 1;
        match timeout {
            Some(t) => {
                self.cv_send.wait_for(st, t);
            }
            None => self.cv_send.wait(st),
        }
        st.send_parked -= 1;
    }

    /// Pushes `value` onto a queue with room and wakes one receiver if
    /// one is parked.
    fn deliver(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
        st.push(value);
        let wake = st.recv_parked > 0;
        drop(st);
        if wake {
            self.cv.notify_one();
        }
    }
}

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Chan::with_cap(None);
    (Sender { chan: chan.clone() }, Receiver { chan })
}

/// Creates a bounded MPMC channel holding at most `cap` messages
/// (`cap` is clamped to at least 1). `send` blocks while the queue is
/// full — backpressure by construction.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Chan::with_cap(Some(cap.max(1)));
    (Sender { chan: chan.clone() }, Receiver { chan })
}

/// The sending half; clonable.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> State<T> {
    fn full(&self) -> bool {
        matches!(self.cap, Some(cap) if self.q.len() >= cap)
    }

    fn push(&mut self, value: T) {
        self.q.push_back(value);
        self.peak_len = self.peak_len.max(self.q.len());
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking one receiver if one is parked. On a bounded
    /// channel, blocks while the queue is full. Fails (returning the
    /// value) when every receiver has been dropped — including while
    /// parked on a full queue.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_with(value, || {})
    }

    /// Like [`send`](Self::send), but a send that finds a bounded queue
    /// full first calls `before_park` (once, outside the channel lock)
    /// and only then parks — the hook a producer uses to summon a
    /// consumer on demand. The send counts once in
    /// [`blocked_sends`](Self::blocked_sends), as with `send`.
    pub fn send_with(&self, value: T, before_park: impl FnOnce()) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock();
        if st.full() && st.receivers > 0 {
            st.blocked_sends += 1;
            drop(st);
            before_park();
            st = self.chan.state.lock();
        }
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if !st.full() {
                break;
            }
            self.chan.park_send(&mut st, None);
        }
        self.chan.deliver(st, value);
        Ok(())
    }

    /// Non-blocking send: fails immediately with [`TrySendError::Full`]
    /// instead of parking when a bounded queue is full.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.chan.state.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.full() {
            st.blocked_sends += 1;
            return Err(TrySendError::Full(value));
        }
        self.chan.deliver(st, value);
        Ok(())
    }

    /// Like [`send`](Self::send) but gives up after `timeout` — the
    /// admission-control variant: a wedged consumer turns into a
    /// structured [`SendTimeoutError::Timeout`] instead of a hang.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.chan.state.lock();
        if st.receivers == 0 {
            return Err(SendTimeoutError::Disconnected(value));
        }
        if st.full() {
            st.blocked_sends += 1;
            while st.full() {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(SendTimeoutError::Timeout(value));
                }
                self.chan.park_send(&mut st, Some(deadline - now));
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
            }
        }
        self.chan.deliver(st, value);
        Ok(())
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.state.lock().q.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound this channel was created with (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.chan.state.lock().cap
    }

    /// Send calls (any flavour) that found the queue full.
    pub fn blocked_sends(&self) -> u64 {
        self.chan.state.lock().blocked_sends
    }

    /// Deepest the queue ever got. On a bounded channel this never
    /// exceeds the capacity — the invariant backpressure tests assert.
    pub fn peak_len(&self) -> usize {
        self.chan.state.lock().peak_len
    }

    /// `(receivers, senders)` parked on this channel right now, read
    /// under the channel lock — what a test waits on instead of a sleep.
    pub fn parked(&self) -> (usize, usize) {
        let st = self.chan.state.lock();
        (st.recv_parked, st.send_parked)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        let wake = st.senders == 0 && st.recv_parked > 0;
        drop(st);
        if wake {
            // Parked receivers must re-check and observe the disconnect.
            self.chan.cv.notify_all();
        }
    }
}

/// The receiving half; clonable (each message is delivered to exactly
/// one receiver).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Wakes one sender after a pop freed a slot, if the pop saw one
    /// parked (only a full bounded queue parks senders).
    fn credit(&self, wake: bool) {
        if wake {
            self.chan.cv_send.notify_one();
        }
    }

    /// Dequeues the next message, blocking while the channel is empty
    /// and at least one sender is alive.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.q.pop_front() {
                let wake = st.send_parked > 0;
                drop(st);
                self.credit(wake);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.chan.park_recv(&mut st, None);
        }
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.q.pop_front() {
                let wake = st.send_parked > 0;
                drop(st);
                self.credit(wake);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TryRecvError::Empty);
            }
            self.chan.park_recv(&mut st, Some(deadline - now));
        }
    }

    /// Blocking dequeue with cancellation — the condvar replacement for
    /// a `recv_timeout` polling loop. Parks on the channel's condvar
    /// while the queue is empty, re-checking `cancelled` under the
    /// channel lock on every wake (a two-generation wait: the predicate
    /// is sampled once before parking and once after every wake, so a
    /// cancel that lands between the check and the park is never lost —
    /// provided the canceller trips its flag *before* calling
    /// [`wake_all`](Self::wake_all), whose lock acquisition serializes
    /// it with the check). Queued messages drain before cancellation is
    /// reported; an idle receiver wakes only for data, disconnect or
    /// cancel — never on a timer.
    pub fn recv_cancel(&self, cancelled: &dyn Fn() -> bool) -> Result<T, RecvCancelError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.q.pop_front() {
                let wake = st.send_parked > 0;
                drop(st);
                self.credit(wake);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvCancelError::Disconnected);
            }
            if cancelled() {
                return Err(RecvCancelError::Cancelled);
            }
            self.chan.park_recv(&mut st, None);
        }
    }

    /// Wakes every thread parked on this channel — receivers and
    /// senders — without delivering anything, forcing each to re-check
    /// its predicate. The cancellation kick for
    /// [`recv_cancel`](Self::recv_cancel): trip the cancel flag first,
    /// then call this. Taking the channel lock before notifying is what
    /// makes the handoff race-free (see `recv_cancel`).
    pub fn wake_all(&self) {
        let st = self.chan.state.lock();
        drop(st);
        self.chan.cv.notify_all();
        self.chan.cv_send.notify_all();
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock();
        if let Some(v) = st.q.pop_front() {
            let wake = st.send_parked > 0;
            drop(st);
            self.credit(wake);
            return Ok(v);
        }
        if st.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.state.lock().q.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound this channel was created with (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.chan.state.lock().cap
    }

    /// Send calls (any flavour) that found the queue full.
    pub fn blocked_sends(&self) -> u64 {
        self.chan.state.lock().blocked_sends
    }

    /// Deepest the queue ever got (never exceeds a bounded capacity).
    pub fn peak_len(&self) -> usize {
        self.chan.state.lock().peak_len
    }

    /// `(receivers, senders)` parked on this channel right now, read
    /// under the channel lock.
    pub fn parked(&self) -> (usize, usize) {
        let st = self.chan.state.lock();
        (st.recv_parked, st.send_parked)
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver { chan: self.chan.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock();
        st.receivers -= 1;
        let wake = st.receivers == 0 && st.send_parked > 0;
        drop(st);
        if wake {
            // Senders parked on a full bounded queue must re-check and
            // observe the disconnect instead of sleeping forever.
            self.chan.cv_send.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    /// Yields until `cond` holds; a generous deadline turns a lost
    /// wakeup into a failure instead of a hang.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let patience = std::time::Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(std::time::Instant::now() < patience, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_fails_after_last_sender_drops() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1), "queued messages drain first");
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_last_receiver_drops() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(41u8), Err(SendError(41)));
    }

    #[test]
    fn recv_timeout_reports_empty() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(TryRecvError::Empty)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(TryRecvError::Disconnected)
        );
    }

    #[test]
    fn bounded_try_send_reports_full_and_counts_blocks() {
        let (tx, rx) = bounded::<u8>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(tx.blocked_sends(), 1);
        assert_eq!(tx.peak_len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(tx.capacity(), Some(2));
    }

    #[test]
    fn bounded_send_blocks_until_slot_frees_and_never_overfills() {
        let (tx, rx) = bounded::<u32>(2);
        let feeder = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            tx.blocked_sends()
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            // A slow consumer: the producer must park regularly.
            std::thread::sleep(Duration::from_micros(50));
            got.push(rx.recv().unwrap());
        }
        let blocked = feeder.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "FIFO preserved");
        assert!(blocked > 0, "a slow consumer must have parked the producer");
        assert!(rx.peak_len() <= 2, "queue never exceeds its bound");
    }

    #[test]
    fn bounded_send_timeout_times_out_then_succeeds() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        assert!(matches!(
            tx.send_timeout(2, Duration::from_millis(5)),
            Err(SendTimeoutError::Timeout(2))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.send_timeout(2, Duration::from_millis(5)).unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_cancel_drains_then_reports_cancel_or_disconnect() {
        let (tx, rx) = bounded::<u8>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let cancelled = || true;
        // Queued data drains first even with the cancel flag already up.
        assert_eq!(rx.recv_cancel(&cancelled), Ok(1));
        assert_eq!(rx.recv_cancel(&cancelled), Ok(2));
        assert_eq!(rx.recv_cancel(&cancelled), Err(RecvCancelError::Cancelled));
        drop(tx);
        assert_eq!(rx.recv_cancel(&|| false), Err(RecvCancelError::Disconnected));
    }

    #[test]
    fn recv_cancel_parks_until_woken() {
        let (tx, rx) = bounded::<u8>(1);
        let flag = Arc::new(AtomicBool::new(false));
        let waker_rx = rx.clone();
        let waiter_flag = flag.clone();
        let waiter = std::thread::spawn(move || {
            rx.recv_cancel(&|| waiter_flag.load(Ordering::SeqCst))
        });
        until("the receiver parks", || waker_rx.parked() == (1, 0));
        assert!(!waiter.is_finished(), "an idle receiver must stay parked");
        flag.store(true, Ordering::SeqCst);
        waker_rx.wake_all();
        assert_eq!(waiter.join().unwrap(), Err(RecvCancelError::Cancelled));
        drop(tx);
    }

    #[test]
    fn send_with_calls_its_hook_once_before_parking_and_counts_once() {
        let (tx, rx) = bounded::<u8>(1);
        let calls = AtomicU32::new(0);
        tx.send_with(1, || panic!("a queue with room never parks")).unwrap();
        assert_eq!(tx.blocked_sends(), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send_with(2, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // The hook runs outside the lock: the consumer it
                    // summons can pop right here.
                    assert_eq!(rx.recv(), Ok(1));
                })
                .unwrap()
            });
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(tx.blocked_sends(), 1, "one full send, one count");
        assert_eq!(rx.recv(), Ok(2));
        drop(rx);
        assert_eq!(tx.send_with(3, || panic!("no receiver to summon")), Err(SendError(3)));
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let parked = std::thread::spawn(move || tx.send(2));
        until("the sender parks", || rx.parked() == (0, 1));
        drop(rx); // must wake the parked sender with a disconnect
        assert_eq!(parked.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn timed_out_waits_leave_no_parked_count() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(2)), Err(TryRecvError::Empty));
        assert_eq!(rx.parked(), (0, 0));
        tx.send(1).unwrap();
        assert!(matches!(
            tx.send_timeout(2, Duration::from_millis(2)),
            Err(SendTimeoutError::Timeout(2))
        ));
        assert_eq!(tx.parked(), (0, 0));
        assert_eq!(tx.blocked_sends(), 1);
    }

    #[test]
    fn woken_waits_leave_no_parked_count() {
        let (tx, rx) = bounded::<u8>(1);
        std::thread::scope(|s| {
            // `recv` and `recv_timeout`, woken by a send.
            let r = s.spawn(|| rx.recv());
            until("recv parks", || rx.parked() == (1, 0));
            tx.send(1).unwrap();
            assert_eq!(r.join().unwrap(), Ok(1));
            let r = s.spawn(|| rx.recv_timeout(Duration::from_secs(60)));
            until("recv_timeout parks", || rx.parked() == (1, 0));
            tx.send(2).unwrap();
            assert_eq!(r.join().unwrap(), Ok(2));
            assert_eq!(rx.parked(), (0, 0));

            // `send_with` and `send_timeout`, woken by a pop.
            tx.send(3).unwrap();
            let w = s.spawn(|| tx.send_with(4, || {}));
            until("send_with parks", || tx.parked() == (0, 1));
            assert_eq!(rx.recv(), Ok(3));
            w.join().unwrap().unwrap();
            let w = s.spawn(|| tx.send_timeout(5, Duration::from_secs(60)));
            until("send_timeout parks", || tx.parked() == (0, 1));
            assert_eq!(rx.recv(), Ok(4));
            w.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(5));
        });
        assert_eq!(tx.parked(), (0, 0));
    }

    #[test]
    fn spurious_and_cancelling_wakes_leave_no_parked_count() {
        let (tx, rx) = bounded::<u8>(1);
        let flag = AtomicBool::new(false);
        let checks = AtomicU32::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                rx.recv_cancel(&|| {
                    checks.fetch_add(1, Ordering::SeqCst);
                    flag.load(Ordering::SeqCst)
                })
            });
            until("recv_cancel parks", || rx.parked() == (1, 0));
            // A bare wake: the receiver re-checks its predicate and re-parks.
            rx.wake_all();
            until("recv_cancel re-parks", || {
                checks.load(Ordering::SeqCst) >= 2 && rx.parked() == (1, 0)
            });
            assert!(!waiter.is_finished());
            flag.store(true, Ordering::SeqCst);
            rx.wake_all();
            assert_eq!(waiter.join().unwrap(), Err(RecvCancelError::Cancelled));
            assert_eq!(rx.parked(), (0, 0));

            // A spurious wake of a parked sender, then the real credit.
            tx.send(1).unwrap();
            let w = s.spawn(|| tx.send(2));
            until("the sender parks", || tx.parked() == (0, 1));
            rx.wake_all();
            assert_eq!(rx.recv(), Ok(1));
            w.join().unwrap().unwrap();
        });
        assert_eq!(tx.parked(), (0, 0));
        assert_eq!(rx.recv(), Ok(2));
    }
}

//! Edge cases of the `recv_cancel` / `wake_all` cancellation protocol —
//! the handoff the serving layer's deadline monitor and teardown paths
//! lean on. The contract under test:
//!
//! * queued messages always drain before cancellation is reported;
//! * disconnect outranks cancel when both hold on an empty queue;
//! * `wake_all` never delivers or consumes anything — it only forces
//!   parked threads (receivers *and* senders) to re-check their
//!   predicates, so a wake without a tripped flag is a spurious wake
//!   that re-parks;
//! * a cancel tripped *before* `wake_all` is never lost, even if the
//!   receiver parked before the flag flipped.
//!
//! No test sleeps: each waits, yielding, until the channel's own
//! `parked()` count (and, for a re-park, the predicate's call count)
//! shows the threads where the test needs them.

use rma_substrate::channel::{bounded, unbounded, RecvCancelError, TryRecvError};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Yields until `cond` holds; a generous deadline turns a lost wakeup
/// into a failure instead of a hang.
fn until(what: &str, cond: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < patience, "{what}");
        std::thread::yield_now();
    }
}

/// A never-tripped cancel predicate that counts its calls: `recv_cancel`
/// calls it once before every park, so the count tells a re-park from
/// the first one.
fn counted(calls: &AtomicU32) -> bool {
    calls.fetch_add(1, Ordering::SeqCst);
    false
}

/// Cancel tripped while the receiver is parked and *no send ever
/// happens*: the receiver wakes with `Cancelled`, and a message sent
/// after the cancellation stays queued for the next consumer instead of
/// being lost.
#[test]
fn cancel_before_any_send_releases_the_parked_receiver() {
    let (tx, rx) = bounded::<u8>(4);
    let flag = Arc::new(AtomicBool::new(false));
    let waker = rx.clone();
    let waiter_flag = flag.clone();
    let waiter =
        std::thread::spawn(move || rx.recv_cancel(&|| waiter_flag.load(Ordering::SeqCst)));
    until("the receiver parks", || waker.parked() == (1, 0));
    assert!(!waiter.is_finished(), "nothing to receive and no cancel: must stay parked");

    // Trip-then-wake, the documented order.
    flag.store(true, Ordering::SeqCst);
    waker.wake_all();
    assert_eq!(waiter.join().unwrap(), Err(RecvCancelError::Cancelled));

    // A send after the cancellation is not swallowed by it.
    tx.send(7).unwrap();
    assert_eq!(waker.try_recv(), Ok(7));
}

/// A queued message beats an already-tripped cancel flag: data drains
/// first, and only the *empty* queue reports `Cancelled`.
#[test]
fn queued_message_wins_over_cancel() {
    let (tx, rx) = bounded::<u8>(4);
    tx.send(1).unwrap();
    let always = || true;
    assert_eq!(rx.recv_cancel(&always), Ok(1), "drain before cancel");
    assert_eq!(rx.recv_cancel(&always), Err(RecvCancelError::Cancelled));
    // The cancel consumed nothing: the channel still works.
    tx.send(2).unwrap();
    assert_eq!(rx.recv_cancel(&|| false), Ok(2));
}

/// When the queue is empty and both conditions hold — every sender gone
/// *and* the cancel flag up — disconnect wins. Teardown code relies on
/// this: a dropped producer is a permanent end-of-stream, a cancel is
/// transient policy.
#[test]
fn disconnect_outranks_cancel_on_an_empty_queue() {
    let (tx, rx) = unbounded::<u8>();
    tx.send(9).unwrap();
    drop(tx);
    let always = || true;
    assert_eq!(rx.recv_cancel(&always), Ok(9), "drain before either verdict");
    assert_eq!(rx.recv_cancel(&always), Err(RecvCancelError::Disconnected));
}

/// A receiver parked in `recv_cancel` with a *false* predicate is woken
/// by the last sender dropping — the disconnect notification reaches
/// cancellable receives too, no `wake_all` needed.
#[test]
fn sender_drop_wakes_a_parked_cancellable_receiver() {
    let (tx, rx) = bounded::<u8>(1);
    let waiter = std::thread::spawn(move || rx.recv_cancel(&|| false));
    until("the receiver parks", || tx.parked() == (1, 0));
    assert!(!waiter.is_finished(), "no data, no cancel, sender alive: parked");
    drop(tx);
    assert_eq!(waiter.join().unwrap(), Err(RecvCancelError::Disconnected));
}

/// `wake_all` on an empty queue with no flag tripped is a spurious
/// wake: the receiver re-checks its predicate, finds nothing, and parks
/// again — it neither fabricates a message nor a cancellation.
#[test]
fn wake_all_without_a_tripped_flag_is_spurious() {
    let (tx, rx) = bounded::<u8>(4);
    let calls = Arc::new(AtomicU32::new(0));
    let waker = rx.clone();
    let waiter_calls = calls.clone();
    let waiter = std::thread::spawn(move || rx.recv_cancel(&|| counted(&waiter_calls)));
    until("the receiver parks", || waker.parked() == (1, 0));

    // Kick with nothing to report: the waiter must re-park, not return.
    waker.wake_all();
    until("the receiver re-parks", || {
        calls.load(Ordering::SeqCst) >= 2 && waker.parked() == (1, 0)
    });
    assert!(!waiter.is_finished(), "a bare wake_all must not end the receive");

    // Real data still gets through after the spurious wake.
    tx.send(5).unwrap();
    assert_eq!(waiter.join().unwrap(), Ok(5));
}

/// `wake_all` on a channel nobody is parked on is a harmless no-op —
/// it consumes nothing and leaves queued data intact.
#[test]
fn wake_all_with_no_parked_threads_is_a_no_op() {
    let (tx, rx) = bounded::<u8>(2);
    tx.send(1).unwrap();
    rx.wake_all();
    rx.wake_all();
    assert_eq!(rx.len(), 1, "wake_all must not consume");
    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
}

/// `wake_all` reaches parked *senders* too: a producer parked on a full
/// bounded queue re-checks, finds the queue still full, and re-parks —
/// then completes normally once a slot actually frees.
#[test]
fn wake_all_spuriously_wakes_a_parked_sender_which_reparks() {
    let (tx, rx) = bounded::<u8>(1);
    tx.send(1).unwrap();
    let parked = std::thread::spawn(move || tx.send(2));
    until("the sender parks", || rx.parked() == (0, 1));
    assert!(!parked.is_finished(), "queue full: the sender is parked");

    // A send has no predicate to count, so a re-park looks the same as
    // a wake not yet taken; a sender that wrongly went on would overfill
    // the queue, which `peak_len` shows.
    rx.wake_all();
    until("the sender is parked after the wake", || rx.parked() == (0, 1));
    assert!(!parked.is_finished(), "still full after the wake: must re-park");

    assert_eq!(rx.recv(), Ok(1));
    parked.join().unwrap().unwrap();
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.peak_len(), 1, "the woken sender never overfilled the queue");
}

/// One `wake_all` reaches every parked receiver, and each applies its
/// *own* predicate: the receiver whose flag tripped returns `Cancelled`,
/// its sibling re-parks and later drains normally.
#[test]
fn wake_all_fans_out_but_each_receiver_checks_its_own_flag() {
    let (tx, rx) = bounded::<u8>(4);
    let rx2 = rx.clone();
    let waker = rx.clone();
    let flag_a = Arc::new(AtomicBool::new(false));
    let a_flag = flag_a.clone();
    let b_calls = Arc::new(AtomicU32::new(0));
    let b_counter = b_calls.clone();
    let a = std::thread::spawn(move || rx.recv_cancel(&|| a_flag.load(Ordering::SeqCst)));
    let b = std::thread::spawn(move || rx2.recv_cancel(&|| counted(&b_counter)));
    until("both receivers park", || waker.parked() == (2, 0));

    flag_a.store(true, Ordering::SeqCst);
    waker.wake_all();
    assert_eq!(a.join().unwrap(), Err(RecvCancelError::Cancelled));
    until("the sibling re-parks", || {
        b_calls.load(Ordering::SeqCst) >= 2 && waker.parked() == (1, 0)
    });
    assert!(!b.is_finished(), "untripped sibling re-parks on the shared wake");

    tx.send(3).unwrap();
    assert_eq!(b.join().unwrap(), Ok(3));
}

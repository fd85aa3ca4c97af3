//! The channel's wake rule under load: a push, a pop's credit and a
//! disconnecting drop notify only when the channel counts a parked
//! thread, and no wakeup may be lost for it. A lost wakeup here shows
//! as a thread parked forever, so every wait in these tests either
//! ends in a delivery or is bounded by a deadline that fails the test.
//!
//! Each test mixes the blocking flavours (`recv`, `recv_timeout`,
//! `recv_cancel`; `send`, `send_with`, `send_timeout`), since each parks
//! through its own call site.

use rma_substrate::channel::{
    bounded, unbounded, Receiver, RecvError, SendError, Sender, TryRecvError,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Long enough that a timed wait never expires in a passing run.
const FOREVER: Duration = Duration::from_secs(120);

/// Yields until `cond` holds; a generous deadline turns a lost wakeup
/// into a failure instead of a hang.
fn until(what: &str, cond: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < patience, "{what}");
        std::thread::yield_now();
    }
}

/// Sends `v` through the `flavour`-th blocking send.
fn send_by(tx: &Sender<u64>, flavour: usize, v: u64) -> Result<(), u64> {
    match flavour % 3 {
        0 => tx.send(v).map_err(|SendError(v)| v),
        1 => tx.send_with(v, || {}).map_err(|SendError(v)| v),
        _ => tx.send_timeout(v, FOREVER).map_err(|_| v),
    }
}

/// Receives through the `flavour`-th blocking receive; `None` on
/// disconnect.
fn recv_by(rx: &Receiver<u64>, flavour: usize) -> Option<u64> {
    match flavour % 3 {
        0 => rx.recv().ok(),
        1 => match rx.recv_timeout(FOREVER) {
            Ok(v) => Some(v),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => panic!("recv_timeout expired: a lost wakeup"),
        },
        _ => rx.recv_cancel(&|| false).ok(),
    }
}

/// Four producers and four consumers through a queue of one: nearly
/// every send parks on a full queue and nearly every receive on an
/// empty one, so each message needs a credit and a delivery wake.
#[test]
fn bounded_one_mpmc_delivers_everything_exactly_once() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 25_000;
    let (tx, rx) = bounded::<u64>(1);
    let mut got: Vec<u64> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    send_by(&tx, p as usize, p * PER_PRODUCER + i).expect("receivers alive");
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(v) = recv_by(&rx, c) {
                        mine.push(v);
                    }
                    mine
                })
            })
            .collect();
        // The producers' clones drop as they finish, disconnecting the
        // channel once they all have.
        drop(tx);
        let got = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        assert_eq!(rx.parked(), (0, 0), "every wait ended uncounted");
        assert!(rx.peak_len() <= 1, "the queue never exceeded its bound");
        got
    });
    got.sort_unstable();
    assert_eq!(got, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
}

/// One thread serves another over two unbounded channels, one message
/// at a time: every receive finds its queue empty and parks, so each
/// round trip rests on two delivery wakes.
#[test]
fn unbounded_ping_pong_never_stalls() {
    const ROUNDS: u64 = 100_000;
    let (ping_tx, ping_rx) = unbounded::<u64>();
    let (pong_tx, pong_rx) = unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        let mut n = 0;
        while let Some(v) = recv_by(&ping_rx, n) {
            pong_tx.send(v + 1).expect("the pinger waits for every reply");
            n += 1;
        }
        n
    });
    for i in 0..ROUNDS {
        ping_tx.send(2 * i).unwrap();
        assert_eq!(recv_by(&pong_rx, i as usize), Some(2 * i + 1));
    }
    drop(ping_tx);
    assert_eq!(echo.join().unwrap(), ROUNDS as usize);
    assert_eq!(pong_rx.recv(), Err(RecvError), "the echo thread hung up");
    assert_eq!(pong_rx.parked(), (0, 0));
}

/// The last sender drops while four receivers are parked on the empty
/// queue: its one disconnect notify must reach all four.
#[test]
fn last_sender_drop_wakes_every_parked_receiver() {
    let (tx, rx) = bounded::<u64>(2);
    let receivers: Vec<_> = (0..4)
        .map(|f| {
            let rx = rx.clone();
            std::thread::spawn(move || recv_by(&rx, f))
        })
        .collect();
    until("four receivers park", || rx.parked() == (4, 0));
    drop(tx);
    for r in receivers {
        assert_eq!(r.join().unwrap(), None, "woken by the disconnect");
    }
    assert_eq!(rx.parked(), (0, 0));
}

/// The last receiver drops while four senders are parked on the full
/// queue: its one disconnect notify must reach all four, each getting
/// its value back.
#[test]
fn last_receiver_drop_wakes_every_parked_sender() {
    let (tx, rx) = bounded::<u64>(1);
    tx.send(0).unwrap();
    let senders: Vec<_> = (1..=4)
        .map(|v| {
            let tx = tx.clone();
            std::thread::spawn(move || send_by(&tx, v as usize, v))
        })
        .collect();
    until("four senders park", || tx.parked() == (0, 4));
    drop(rx);
    let mut returned: HashSet<u64> = HashSet::new();
    for s in senders {
        returned.insert(s.join().unwrap().expect_err("woken by the disconnect"));
    }
    assert_eq!(returned, (1..=4).collect());
    assert_eq!(tx.parked(), (0, 0));
}

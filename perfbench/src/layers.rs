//! The traced run: per-layer numbers from timing the benchmark's own
//! calls into each layer's public functions.
//!
//! Phase A composes the layers single-threaded, in the order a service
//! worker runs them — `StreamDecoder::feed`/`finish` in 4 KiB chunks,
//! `replay_trace` over a `StoreTarget` whose stores come from the
//! Service's own constructor wrapped in a timing decorator,
//! `verdict_line` — alternating with the same composition untimed, so
//! the cost of the timing itself is measured. Phase B times the client
//! side of `Service` calls; phase C compares spool-daemon batches with
//! Service-only batches over the same streams.

use crate::inputs::{served_store_cfg, Reference, Stream};
use crate::serve::{
    daemon_round, percentile, service_batch, service_round, shuffled, Planner, Served,
};
use crate::{Opts, Report, CHUNK, PER_LAYER};
use rma_core::{AccessStore, MemAccess, RaceReport, RankId, StoreStats};
use rma_monitor::Algorithm;
use rma_substrate::rng::SmallRng;
use rma_trace::{
    replay_trace, verdict_line, ReplayOutcome, ReplayTarget, StoreTarget, StreamDecoder, TraceEvent,
};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest undecoded tail a v2 stream may leave in the decoder between
/// feeds: one chunk plus a partial record. A tail growing with the
/// stream means the v1 whole-file fallback ran.
const MAX_BUFFERED: usize = 2 * CHUNK;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Time and calls summed over every store a [`TimedStore`] factory
/// built. Relaxed counters: statistics only, read after the replay.
#[derive(Default)]
struct StoreClock {
    record_ns: AtomicU64,
    records: AtomicU64,
    clear_ns: AtomicU64,
    build_ns: AtomicU64,
    builds: AtomicU64,
}

impl StoreClock {
    fn get(c: &AtomicU64) -> u64 {
        c.load(Relaxed)
    }

    /// Everything spent inside the store engine.
    fn total_ns(&self) -> u64 {
        Self::get(&self.record_ns) + Self::get(&self.clear_ns) + Self::get(&self.build_ns)
    }
}

/// An `AccessStore` decorator timing `record` and `clear`; dropping the
/// wrapped store counts as clear time (it is the store's teardown).
struct TimedStore {
    inner: Option<Box<dyn AccessStore + Send>>,
    clock: Arc<StoreClock>,
}

impl TimedStore {
    fn store(&self) -> &(dyn AccessStore + Send) {
        self.inner.as_deref().expect("store present until drop")
    }

    fn store_mut(&mut self) -> &mut (dyn AccessStore + Send) {
        self.inner.as_deref_mut().expect("store present until drop")
    }
}

impl AccessStore for TimedStore {
    fn record(&mut self, acc: MemAccess) -> Result<(), Box<RaceReport>> {
        let t = Instant::now();
        let result = self.store_mut().record(acc);
        self.clock.record_ns.fetch_add(ns(t.elapsed()), Relaxed);
        self.clock.records.fetch_add(1, Relaxed);
        result
    }

    fn len(&self) -> usize {
        self.store().len()
    }

    fn stats(&self) -> StoreStats {
        self.store().stats()
    }

    fn clear(&mut self) {
        let t = Instant::now();
        self.store_mut().clear();
        self.clock.clear_ns.fetch_add(ns(t.elapsed()), Relaxed);
    }

    fn snapshot(&self) -> Vec<MemAccess> {
        self.store().snapshot()
    }
}

impl Drop for TimedStore {
    fn drop(&mut self) {
        let t = Instant::now();
        drop(self.inner.take());
        self.clock.clear_ns.fetch_add(ns(t.elapsed()), Relaxed);
    }
}

/// A store factory that times `build` and wraps each store it makes.
fn timed_factory(
    clock: &Arc<StoreClock>,
    build: impl Fn() -> Box<dyn AccessStore + Send>,
) -> impl FnMut() -> Box<dyn AccessStore + Send> {
    let clock = clock.clone();
    move || {
        let t = Instant::now();
        let inner = build();
        clock.build_ns.fetch_add(ns(t.elapsed()), Relaxed);
        clock.builds.fetch_add(1, Relaxed);
        Box::new(TimedStore {
            inner: Some(inner),
            clock: clock.clone(),
        })
    }
}

/// A `ReplayTarget` decorator counting the scheduler's collective
/// releases (the rendezvous that end epochs).
struct CountReleases<'a> {
    inner: Box<dyn ReplayTarget + 'a>,
    releases: Rc<Cell<u64>>,
}

impl ReplayTarget for CountReleases<'_> {
    fn start(&mut self, nranks: u32) {
        self.inner.start(nranks);
    }

    fn event(&mut self, rank: RankId, ev: &TraceEvent) {
        self.inner.event(rank, ev);
    }

    fn arrive(&mut self, rank: RankId, ev: &TraceEvent) {
        self.inner.arrive(rank, ev);
    }

    fn release(&mut self, ev: &TraceEvent) {
        self.releases.set(self.releases.get() + 1);
        self.inner.release(ev);
    }

    fn rank_finish(&mut self, rank: RankId) {
        self.inner.rank_finish(rank);
    }

    fn finish(self: Box<Self>, events: usize, complete: bool) -> ReplayOutcome {
        self.inner.finish(events, complete)
    }
}

/// Phase A accumulators.
#[derive(Default)]
struct Composed {
    /// Timed passes over the stream set, and their streams and events.
    passes: u64,
    streams: u64,
    events: u64,
    /// Wall time of the timed composition, and the time inside each
    /// layer's calls.
    wall: Duration,
    decode: Duration,
    replay: Duration,
    verdict: Duration,
    peak_buffered: usize,
    releases: u64,
    stats: StoreStats,
    store: Arc<StoreClock>,
    tree: Arc<StoreClock>,
    /// Untimed passes and their wall time.
    plain_passes: u64,
    plain_wall: Duration,
    attempted: u64,
    failed: u64,
}

impl Composed {
    /// Counts one checked verdict; `ok` carries checks beyond the
    /// verdict itself.
    fn check(&mut self, s: &Stream, verdict: &str, out: &ReplayOutcome, ok: bool) {
        self.attempted += 1;
        let want: &Reference = &s.reference;
        if !ok || !out.complete || verdict != want.verdict || out.events != want.events {
            eprintln!(
                "perfbench: {}: composed verdict `{verdict}`, want `{}`",
                s.name, want.verdict
            );
            self.failed += 1;
        }
    }

    /// Decode → replay → verdict with no timing inside.
    fn plain(&mut self, s: &Stream) {
        let rcfg = served_store_cfg();
        let t0 = Instant::now();
        let mut dec = StreamDecoder::new();
        for piece in s.bytes.chunks(CHUNK) {
            if dec.feed(piece).is_err() {
                break;
            }
        }
        let Ok(end) = dec.finish() else {
            self.attempted += 1;
            self.failed += 1;
            return;
        };
        let out = replay_trace(
            &end.trace,
            Box::new(StoreTarget::new(move || rcfg.build_store(None))),
        );
        let verdict = verdict_line(&out.races);
        self.plain_wall += t0.elapsed();
        self.check(s, &verdict, &out, true);
    }

    /// The same composition with every layer call timed, then the tree
    /// engine over the same decoded trace as the reference.
    fn traced(&mut self, s: &Stream) {
        let rcfg = served_store_cfg();
        let releases = Rc::new(Cell::new(0));
        let t0 = Instant::now();
        let mut dec = StreamDecoder::new();
        let mut decode = Duration::ZERO;
        let mut bounded = true;
        for piece in s.bytes.chunks(CHUNK) {
            let t = Instant::now();
            let fed = dec.feed(piece);
            decode += t.elapsed();
            if fed.is_err() {
                break;
            }
            if !dec.is_complete() {
                self.peak_buffered = self.peak_buffered.max(dec.buffered_bytes());
                bounded &= dec.buffered_bytes() <= MAX_BUFFERED;
            }
        }
        let t = Instant::now();
        let end = dec.finish();
        decode += t.elapsed();
        let Ok(end) = end else {
            self.attempted += 1;
            self.failed += 1;
            return;
        };
        let t = Instant::now();
        let target = StoreTarget::new(timed_factory(&self.store, move || rcfg.build_store(None)));
        let out = replay_trace(
            &end.trace,
            Box::new(CountReleases {
                inner: Box::new(target),
                releases: releases.clone(),
            }),
        );
        let replay = t.elapsed();
        let t = Instant::now();
        let verdict = verdict_line(&out.races);
        let verdict_time = t.elapsed();
        self.wall += t0.elapsed();

        self.decode += decode;
        self.replay += replay;
        self.verdict += verdict_time;
        self.streams += 1;
        self.events += out.events as u64;
        self.releases += releases.get();
        self.stats.absorb(&out.stats);
        if !bounded {
            eprintln!(
                "perfbench: {}: decoder buffered more than {MAX_BUFFERED} bytes",
                s.name
            );
        }
        self.check(s, &verdict, &out, bounded);

        let tree = replay_trace(
            &end.trace,
            Box::new(StoreTarget::new(timed_factory(&self.tree, || {
                Algorithm::FragMerge.new_store()
            }))),
        );
        self.check(s, &verdict_line(&tree.races), &tree, true);
    }
}

/// Runs phases A, B and C within the budget (each at least once) and
/// reports the per-layer metrics.
pub(crate) fn run(opts: &Opts, streams: &[Stream], scratch: &Path) -> Result<Report, String> {
    let n = streams.len();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let start = Instant::now();
    let until = |share: f64| start + opts.budget.mul_f64(share);

    let mut a = Composed::default();
    while a.passes == 0 || Instant::now() < until(0.4) {
        let order = shuffled(n, &mut rng);
        for &i in &order {
            a.plain(&streams[i]);
        }
        a.plain_passes += 1;
        for &i in &order {
            a.traced(&streams[i]);
        }
        a.passes += 1;
    }

    let mut planner = Planner::new(opts.workload, n, opts.seed);
    let mut svc = Served::default();
    while svc.rounds == 0 || Instant::now() < until(0.7) {
        service_round(streams, &planner.round(), &mut svc);
    }

    let mut daemon = Served::default();
    let mut batch = Served::default();
    while daemon.rounds == 0 || Instant::now() < until(1.0) {
        let order = shuffled(n, &mut rng);
        daemon_round(streams, &order, &scratch.join("spool"), &mut daemon)?;
        service_batch(streams, &order, &mut batch);
    }

    let passes = a.passes as f64;
    let events = a.events as f64;
    let clock = |c: &AtomicU64| StoreClock::get(c) as f64;
    let store_ns = a.store.total_ns() as f64;
    let replay_self_ns = ns(a.replay) as f64 - store_ns;
    let records = clock(&a.store.records);
    let layers_ns = ns(a.decode + a.replay + a.verdict) as f64;
    let svc_passes = svc.attempted as f64 / n as f64;
    let mean_latency_us =
        svc.latencies_ms.iter().sum::<f64>() * 1e3 / svc.latencies_ms.len() as f64;
    let mut latencies = svc.latencies_ms.clone();
    latencies.sort_by(f64::total_cmp);
    let per_round = |s: &Served| s.wall.as_secs_f64() * 1e3 / s.rounds as f64;
    let values = [
        ns(a.decode) as f64 / events,
        a.decode.as_secs_f64() * 1e3 / passes,
        a.peak_buffered as f64,
        replay_self_ns / events,
        replay_self_ns / 1e6 / passes,
        a.releases as f64 / passes,
        clock(&a.store.record_ns) / records,
        clock(&a.store.record_ns) / 1e6 / passes,
        clock(&a.store.clear_ns) / 1e6 / passes,
        clock(&a.store.build_ns) / 1e3 / clock(&a.store.builds),
        records / passes,
        a.stats.peak_len as f64,
        a.stats.cum_epoch_end_len as f64 / passes,
        a.stats.fragments as f64 / passes,
        a.stats.merges as f64 / passes,
        a.stats.fast_hits as f64 / a.stats.recorded as f64,
        clock(&a.tree.record_ns) / clock(&a.tree.records),
        a.verdict.as_secs_f64() * 1e6 / a.streams as f64,
        svc.submit.as_secs_f64() * 1e6 / svc.attempted as f64,
        svc.finish.as_secs_f64() * 1e3 / svc_passes,
        percentile(&latencies, 99.0),
        mean_latency_us - layers_ns / 1e3 / a.streams as f64,
        svc.feed.as_secs_f64() * 1e3 / svc_passes,
        svc.blocked_sends as f64 / svc_passes,
        svc.queue_peak as f64,
        svc.refused as f64 / svc_passes,
        (per_round(&daemon) - per_round(&batch)) / n as f64,
        daemon.fs_ops as f64 / (daemon.rounds as f64 * n as f64),
        daemon.publish_failures as f64,
        (a.wall.as_secs_f64() / passes) / (a.plain_wall.as_secs_f64() / a.plain_passes as f64),
        layers_ns / ns(a.wall) as f64,
    ];
    eprintln!(
        "perfbench: {} traced: {} composed pass(es) + {} untimed, {} service round(s) \
         (latency p99 over {} sample(s)), {} daemon/service batch pair(s)",
        opts.workload.name(),
        a.passes,
        a.plain_passes,
        svc.rounds,
        latencies.len(),
        daemon.rounds
    );
    let attempted = a.attempted + svc.attempted + daemon.attempted + batch.attempted;
    let failed = a.failed + svc.failed + daemon.failed + batch.failed;
    Ok(Report::new(attempted, failed, &PER_LAYER, &values))
}

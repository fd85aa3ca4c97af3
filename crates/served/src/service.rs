//! The serving core: admission, per-tenant fair scheduling, supervised
//! per-stream workers, drain/shutdown.
//!
//! One [`Service`] owns a pool of worker threads. [`Service::submit`]
//! admits a stream (tenant + name) and hands back a [`StreamHandle`];
//! the client feeds byte chunks through the handle's *bounded* channel
//! (blocking when the worker falls behind — that block is the credit
//! mechanism) and calls [`StreamHandle::finish`] to close the stream
//! and collect its [`StreamReport`]. Workers pull streams round-robin
//! across tenants, decode incrementally with
//! [`rma_trace::StreamDecoder`], journal every consumed chunk until the
//! verdict is out, and replay the decoded trace through the configured
//! detector. A worker death (deterministic chaos via
//! [`rma_sim::FaultKind::KillWorker`]) is absorbed by redelivering the
//! journal to a fresh attempt, bounded by [`ServeCfg::max_respawns`];
//! past the budget the stream fail-stops with [`Tier::Lost`].

use crate::stats::{ServedStats, TenantStats};
use rma_core::MemGauge;
use rma_monitor::AnalyzerCfg;
use rma_must::Completeness;
use rma_sim::FaultKind;
use rma_substrate::channel::{bounded, Receiver, RecvCancelError, Sender};
use rma_substrate::clock::Clock;
use rma_substrate::sync::{Condvar, Mutex};
use rma_trace::{
    replay_trace, verdict_line, Detector, MustTarget, StoreTarget, StreamDecoder, StreamEnd,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Verdict tier of a served stream — the True-Positives-Theorem-style
/// classification the telemetry counts verdicts by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Complete stream, no races: exact for this execution.
    Clean,
    /// Complete stream, races found: exact for this execution.
    Racy,
    /// Verdict covers only the salvaged epoch-aligned prefix of a
    /// truncated or partially corrupt stream — needs review.
    Truncated,
    /// The stream's worker died beyond the respawn budget; no verdict.
    Lost,
    /// The bytes never decoded to a trace; no verdict.
    Malformed,
    /// The stream made no progress within [`ServeCfg::stream_deadline`]
    /// and was evicted to reclaim its slot; no verdict.
    Timeout,
    /// The stream's worker died [`ServeCfg::quarantine_after`] times
    /// (across respawns or daemon restarts): the bytes are treated as
    /// poison, parked in `spool/quarantine/` for offline replay, and
    /// never fed to a worker again.
    Quarantined,
}

impl Tier {
    /// All tiers, telemetry order.
    pub const ALL: [Tier; 7] = [
        Tier::Clean,
        Tier::Racy,
        Tier::Truncated,
        Tier::Lost,
        Tier::Malformed,
        Tier::Timeout,
        Tier::Quarantined,
    ];

    /// Canonical telemetry key.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Clean => "clean",
            Tier::Racy => "racy",
            Tier::Truncated => "truncated",
            Tier::Lost => "lost",
            Tier::Malformed => "malformed",
            Tier::Timeout => "timeout",
            Tier::Quarantined => "quarantined",
        }
    }

    /// Position of this tier in a `[u64; 7]` tier-count array
    /// ([`Tier::ALL`] order), e.g. [`crate::TenantStats::tiers`].
    pub fn idx(self) -> usize {
        match self {
            Tier::Clean => 0,
            Tier::Racy => 1,
            Tier::Truncated => 2,
            Tier::Lost => 3,
            Tier::Malformed => 4,
            Tier::Timeout => 5,
            Tier::Quarantined => 6,
        }
    }
}

/// Deterministic fault injection for the service, reusing the
/// simulator's fault vocabulary. Only [`FaultKind::KillWorker`] is
/// meaningful here — the service's failure domain is the analysis
/// worker — and it kills the worker processing each of the victim
/// tenant's streams once the stream has decoded `at_event` events,
/// `times` times per stream. Other kinds are accepted and ignored.
#[derive(Clone, Debug)]
pub struct ChaosCfg {
    /// What to inject ([`FaultKind::KillWorker`] honoured).
    pub kind: FaultKind,
    /// The tenant whose streams are victimized.
    pub tenant: String,
    /// Decoded-event threshold that triggers the kill. A threshold past
    /// the end of the stream fires right before analysis instead, so
    /// every configured kill lands somewhere deterministic.
    pub at_event: u64,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeCfg {
    /// Detector every stream is replayed through.
    pub detector: Detector,
    /// Store knobs (`node_budget`) for the per-stream detector stores,
    /// via [`AnalyzerCfg::build_store`].
    /// `algorithm` is overridden by `detector`; `delivery`/`batch_size`
    /// are live-capture knobs with no effect on offline replay.
    pub analyzer: AnalyzerCfg,
    /// Worker threads in the shared pool (min 1).
    pub workers: usize,
    /// Per-stream chunk-queue bound — the backpressure credit count.
    pub queue_bound: usize,
    /// Streams admitted concurrently before `submit` reports busy.
    pub max_live_streams: usize,
    /// Worker deaths absorbed per stream (journal redelivery) before
    /// the stream fail-stops as [`Tier::Lost`].
    pub max_respawns: u32,
    /// Progress watchdog window for [`Service::drain`] and
    /// [`StreamHandle::finish`]: no pool progress for this long means
    /// wedged, reported structurally instead of hanging.
    pub watchdog_ms: u64,
    /// Artificial per-chunk processing delay — a test/bench knob to
    /// make a slow consumer reproducible. Slept in small slices so
    /// shutdown is never delayed by it.
    pub ingest_delay: Option<Duration>,
    /// Deterministic fault injection.
    pub chaos: Option<ChaosCfg>,
    /// The clock deadlines and delays are measured on. Defaults to the
    /// wall clock; tests inject [`Clock::manual`] and drive time with
    /// [`Clock::advance`] so timeout edges are deterministic.
    pub clock: Clock,
    /// Per-stream zero-progress deadline in clock milliseconds: a live
    /// stream that consumes no chunk for this long is evicted with
    /// [`Tier::Timeout`], reclaiming its admission slot instead of
    /// wedging it. `None` (the default) disables eviction.
    pub stream_deadline: Option<u64>,
    /// Worker deaths (across respawns — and, through the daemon's WAL,
    /// across restarts) after which a stream is declared poison and
    /// parked with [`Tier::Quarantined`]. `0` (the default) disables
    /// quarantine. Set this ≤ [`ServeCfg::max_respawns`] for quarantine
    /// to win over [`Tier::Lost`] on the live path.
    pub quarantine_after: u32,
    /// Streams one tenant may hold in flight before `submit` sheds
    /// with [`ServeError::Quota`]. `0` (the default) means unlimited.
    pub max_streams_per_tenant: usize,
    /// Service-wide detector-store node budget. When the summed live
    /// footprint crosses it, new analyses are admitted with a tightened
    /// `node_budget` and the heaviest live stores retroactively
    /// coalesce ([`rma_core::gauge`]) — FP-only brownout: affected
    /// verdicts flag `degraded` and count as `brownout`. `None` (the
    /// default) disables the accountant.
    pub memory_budget: Option<usize>,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            detector: Detector::FragMerge,
            analyzer: AnalyzerCfg::default(),
            workers: 2,
            queue_bound: 64,
            max_live_streams: 1024,
            max_respawns: 3,
            watchdog_ms: 5_000,
            ingest_delay: None,
            chaos: None,
            clock: Clock::real(),
            stream_deadline: None,
            quarantine_after: 0,
            max_streams_per_tenant: 0,
            memory_budget: None,
        }
    }
}

/// Per-stream verdict, the unit the service exists to produce.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Tenant the stream belonged to.
    pub tenant: String,
    /// Stream name (unique per tenant by client convention).
    pub stream: String,
    /// Verdict tier.
    pub tier: Tier,
    /// Canonical verdict line (`verdict: clean` / `verdict: N race(s)
    /// {..}`), byte-comparable with direct `rma-trace replay` output;
    /// a structured description for [`Tier::Lost`]/[`Tier::Malformed`].
    pub verdict: String,
    /// Races found.
    pub races: usize,
    /// Events analyzed (0 when no analysis ran).
    pub events: usize,
    /// Closed epochs every rank retains in the analyzed trace.
    pub epochs_kept: usize,
    /// Whether the verdict covers everything the client shipped.
    pub completeness: Completeness,
    /// Worker deaths this stream absorbed (or suffered, for
    /// [`Tier::Lost`]).
    pub respawns: u32,
    /// The detector store coalesced under its node budget: the verdict
    /// may contain false positives, never false negatives.
    pub degraded: bool,
    /// The coalescing was forced by service-wide memory pressure
    /// ([`ServeCfg::memory_budget`]) rather than this stream's own
    /// budget. Implies `degraded`; same FP-only contract.
    pub brownout: bool,
}

/// Why the service refused or abandoned an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// Admission refused: the service is shutting down or its stream
    /// queue was torn down under the producer.
    Rejected,
    /// Admission refused: `max_live_streams` already in flight.
    Busy,
    /// Admission shed: the tenant already holds
    /// [`ServeCfg::max_streams_per_tenant`] streams in flight. Retry
    /// after one of them drains.
    Quota,
    /// The pool made no progress for a whole watchdog window.
    Wedged,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeError::Rejected => "stream rejected (service shutting down)",
            ServeError::Busy => "service busy (live-stream cap reached)",
            ServeError::Quota => "tenant quota reached (per-tenant live-stream cap)",
            ServeError::Wedged => "pool wedged (no progress within the watchdog window)",
        })
    }
}

impl std::error::Error for ServeError {}

/// Outcome of [`Service::drain`].
#[derive(Clone, Debug)]
pub enum DrainOutcome {
    /// Every submitted stream has reported.
    Drained {
        /// Streams reported over the service's lifetime.
        streams: u64,
    },
    /// The watchdog fired: these streams were still pending with zero
    /// pool progress for the whole window.
    Wedged {
        /// `(tenant, stream)` pairs still in flight.
        pending: Vec<(String, String)>,
    },
}

/// One admitted stream: its queue, journal and verdict slot.
struct Job {
    tenant: String,
    name: String,
    /// Taken by the worker that first picks the job up; torn down (to
    /// wake parked producers) on shutdown.
    rx: Mutex<Option<Receiver<Vec<u8>>>>,
    /// A second receiver clone kept solely so teardown can wake a
    /// worker parked in a cancellable receive on this stream's queue.
    /// Dropped (after the wake) so the sender-side disconnect
    /// accounting still sees every receiver go away.
    wake: Mutex<Option<Receiver<Vec<u8>>>>,
    /// Events decoded so far — live progress for durability watermarks.
    decoded: AtomicU64,
    /// Epoch boundaries decoded so far ([`StreamDecoder::epoch_marks`])
    /// — the monotone signal durability checkpoints key on.
    epochs: AtomicU64,
    /// Every consumed chunk, retained until the verdict is out — the
    /// redelivery source for crash recovery.
    journal: Mutex<Vec<u8>>,
    /// Chaos kills this stream has yet to suffer.
    kills_left: Mutex<u32>,
    /// Decoded-event threshold for the next kill.
    kill_at: u64,
    /// Clock time ([`ServeCfg::clock`]) of admission or of the last
    /// consumed chunk — what the deadline monitor measures staleness
    /// against.
    last_progress_ms: AtomicU64,
    /// Set (once) by the deadline monitor; workers treat it as a
    /// per-stream cancellation and the stream reports [`Tier::Timeout`].
    timed_out: AtomicBool,
    /// The verdict, once produced.
    done: Mutex<Option<StreamReport>>,
}

impl Job {
    /// Stores the decoder's live progress where the producer side can
    /// read it ([`StreamHandle::progress`]) and stamps the deadline
    /// clock.
    fn publish_progress(&self, dec: &StreamDecoder, clock: &Clock) {
        self.decoded.store(dec.decoded_events() as u64, Ordering::SeqCst);
        self.epochs.store(dec.epoch_marks() as u64, Ordering::SeqCst);
        self.last_progress_ms.store(clock.now_ms(), Ordering::SeqCst);
    }

    /// Consumes one chaos kill if this point qualifies.
    fn take_kill(&self, decoded: u64) -> bool {
        if decoded < self.kill_at {
            return false;
        }
        let mut left = self.kills_left.lock();
        if *left == 0 {
            return false;
        }
        *left -= 1;
        true
    }
}

/// Scheduler state: per-tenant FIFO queues plus a rotation cursor.
struct Sched {
    queues: BTreeMap<String, VecDeque<Arc<Job>>>,
    /// Last tenant served; the next pick starts strictly after it.
    cursor: String,
    /// Submitted streams without a verdict yet.
    live: Vec<Arc<Job>>,
    accepting: bool,
    shutdown: bool,
}

impl Sched {
    /// Round-robin pick: first non-empty tenant queue strictly after
    /// the cursor, wrapping; pops the tenant's oldest stream.
    fn take_next(&mut self) -> Option<Arc<Job>> {
        let pick = self
            .queues
            .range::<String, _>((
                std::ops::Bound::Excluded(self.cursor.clone()),
                std::ops::Bound::Unbounded,
            ))
            .chain(self.queues.range::<String, _>((
                std::ops::Bound::Unbounded,
                std::ops::Bound::Included(self.cursor.clone()),
            )))
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| t.clone())?;
        let job = self.queues.get_mut(&pick).and_then(VecDeque::pop_front);
        self.cursor = pick;
        job
    }
}

struct StatsAcc {
    tenants: BTreeMap<String, TenantStats>,
    started: Instant,
}

struct Inner {
    cfg: ServeCfg,
    /// `cfg.analyzer` with `algorithm` forced to the detector's.
    rcfg: AnalyzerCfg,
    /// The memory-pressure accountant, when
    /// [`ServeCfg::memory_budget`] is set.
    gauge: Option<MemGauge>,
    sched: Mutex<Sched>,
    /// Workers park here waiting for jobs.
    job_cv: Condvar,
    stats: Mutex<StatsAcc>,
    /// Monotone pool-progress counter (chunks consumed, verdicts
    /// produced) — what the watchdogs watch.
    progress: AtomicU64,
    /// Streams submitted minus streams reported.
    active: AtomicU64,
    /// Events analyzed across all reported streams (counted once per
    /// stream at verdict time, so redelivery does not double-count).
    events_total: AtomicU64,
    shutting_down: AtomicBool,
    /// Watchdog parking lot: [`Service::drain`] and
    /// [`StreamHandle::finish`] park here instead of polling; every
    /// progress bump notifies while someone waits.
    tick: (Mutex<()>, Condvar),
    tick_waiters: AtomicU64,
}

impl Inner {
    /// Counts one unit of pool progress and wakes parked watchdogs.
    fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::SeqCst);
        if self.tick_waiters.load(Ordering::SeqCst) > 0 {
            // Lock-then-notify so a watchdog between its progress check
            // and its park cannot miss the tick.
            drop(self.tick.0.lock());
            self.tick.1.notify_all();
        }
    }
}

/// The running service. Dropping it shuts the pool down (without a
/// drain); prefer [`Service::shutdown`] for the structured path.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// Client handle for one admitted stream.
pub struct StreamHandle {
    inner: Arc<Inner>,
    job: Arc<Job>,
    tx: Sender<Vec<u8>>,
}

impl Service {
    /// Spawns the worker pool (plus the deadline monitor when
    /// [`ServeCfg::stream_deadline`] is set).
    pub fn new(cfg: ServeCfg) -> Service {
        let rcfg = resolve_rcfg(&cfg);
        let gauge = cfg.memory_budget.map(MemGauge::new);
        let inner = Arc::new(Inner {
            rcfg,
            gauge,
            sched: Mutex::new(Sched {
                queues: BTreeMap::new(),
                cursor: String::new(),
                live: Vec::new(),
                accepting: true,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            stats: Mutex::new(StatsAcc { tenants: BTreeMap::new(), started: Instant::now() }),
            progress: AtomicU64::new(0),
            active: AtomicU64::new(0),
            events_total: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            tick: (Mutex::new(()), Condvar::new()),
            tick_waiters: AtomicU64::new(0),
            cfg,
        });
        let mut workers: Vec<JoinHandle<()>> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        if inner.cfg.stream_deadline.is_some() {
            let inner = inner.clone();
            workers.push(std::thread::spawn(move || deadline_loop(&inner)));
        }
        Service { inner, workers }
    }

    /// Admits a stream for `tenant`. The returned handle's queue holds
    /// at most [`ServeCfg::queue_bound`] chunks — feeding past that
    /// blocks until the worker catches up.
    pub fn submit(&self, tenant: &str, stream: &str) -> Result<StreamHandle, ServeError> {
        let (tx, rx) = bounded(self.inner.cfg.queue_bound);
        let (kills, kill_at) = match &self.inner.cfg.chaos {
            Some(ChaosCfg { kind: FaultKind::KillWorker { times }, tenant: t, at_event })
                if t == tenant =>
            {
                (*times, *at_event)
            }
            _ => (0, u64::MAX),
        };
        let job = Arc::new(Job {
            tenant: tenant.to_string(),
            name: stream.to_string(),
            wake: Mutex::new(Some(rx.clone())),
            rx: Mutex::new(Some(rx)),
            decoded: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
            kills_left: Mutex::new(kills),
            kill_at,
            last_progress_ms: AtomicU64::new(self.inner.cfg.clock.now_ms()),
            timed_out: AtomicBool::new(false),
            done: Mutex::new(None),
        });
        {
            let mut sched = self.inner.sched.lock();
            if !sched.accepting {
                return Err(ServeError::Rejected);
            }
            if sched.live.len() >= self.inner.cfg.max_live_streams {
                return Err(ServeError::Busy);
            }
            let quota = self.inner.cfg.max_streams_per_tenant;
            if quota > 0 && sched.live.iter().filter(|j| j.tenant == tenant).count() >= quota {
                return Err(ServeError::Quota);
            }
            sched.queues.entry(tenant.to_string()).or_default().push_back(job.clone());
            sched.live.push(job.clone());
            let live_now = sched.live.iter().filter(|j| j.tenant == tenant).count();
            drop(sched);
            let mut acc = self.inner.stats.lock();
            let t = acc.tenants.entry(tenant.to_string()).or_default();
            t.peak_live = t.peak_live.max(live_now);
        }
        self.inner.active.fetch_add(1, Ordering::SeqCst);
        self.inner.job_cv.notify_one();
        Ok(StreamHandle { inner: self.inner.clone(), job, tx })
    }

    /// Streams `tenant` currently holds in flight — what the quota
    /// compares against. Lets an admission front-end (the daemon's
    /// claim loop) shed deterministically before claiming bytes.
    pub fn tenant_live(&self, tenant: &str) -> usize {
        self.inner.sched.lock().live.iter().filter(|j| j.tenant == tenant).count()
    }

    /// Records a quota load-shed for `tenant` in the telemetry (the
    /// admission front-end calls this when it refuses work on the
    /// service's behalf, or after [`ServeError::Quota`]).
    pub fn note_shed(&self, tenant: &str) {
        self.inner.stats.lock().tenants.entry(tenant.to_string()).or_default().shed += 1;
    }

    /// Memory-pressure snapshot `(live nodes, peak nodes, brownouts)`,
    /// all zero when [`ServeCfg::memory_budget`] is unset.
    pub fn pressure(&self) -> (usize, usize, u64) {
        match &self.inner.gauge {
            Some(g) => (g.live_nodes(), g.peak_nodes(), g.brownouts()),
            None => (0, 0, 0),
        }
    }

    /// A snapshot of the aggregate telemetry.
    pub fn stats(&self) -> ServedStats {
        let acc = self.inner.stats.lock();
        ServedStats::snapshot(
            &self.inner.cfg,
            &acc.tenants,
            acc.started.elapsed(),
            self.inner.events_total.load(Ordering::SeqCst),
        )
    }

    /// Waits for every submitted stream to report, under the progress
    /// watchdog: a pool that makes *zero* progress (no chunk consumed,
    /// no verdict produced) for a whole [`ServeCfg::watchdog_ms`]
    /// window is reported as [`DrainOutcome::Wedged`] with the stuck
    /// streams — never a hang.
    pub fn drain(&self) -> DrainOutcome {
        let watchdog = Duration::from_millis(self.inner.cfg.watchdog_ms.max(1));
        let mut last = self.inner.progress.load(Ordering::SeqCst);
        let mut stalled_since = Instant::now();
        self.inner.tick_waiters.fetch_add(1, Ordering::SeqCst);
        let outcome = loop {
            if self.inner.active.load(Ordering::SeqCst) == 0 {
                let streams =
                    self.inner.stats.lock().tenants.values().map(|t| t.streams).sum::<u64>();
                break DrainOutcome::Drained { streams };
            }
            // Park on the tick condvar instead of polling: every
            // progress bump notifies while we are registered. The
            // progress re-check happens under the tick lock, so a bump
            // between the check and the park still wakes us.
            let mut tick = self.inner.tick.0.lock();
            let p = self.inner.progress.load(Ordering::SeqCst);
            if p != last {
                last = p;
                stalled_since = Instant::now();
                continue;
            }
            let stalled = stalled_since.elapsed();
            if stalled >= watchdog {
                drop(tick);
                let sched = self.inner.sched.lock();
                let pending = sched
                    .live
                    .iter()
                    .map(|j| (j.tenant.clone(), j.name.clone()))
                    .collect();
                break DrainOutcome::Wedged { pending };
            }
            self.inner.tick.1.wait_for(&mut tick, watchdog - stalled);
        };
        self.inner.tick_waiters.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Structured shutdown: drain (watchdog-bounded) → stop admitting →
    /// tear down stream queues (waking parked producers with
    /// [`ServeError::Rejected`]) → join the pool → final stats.
    pub fn shutdown(mut self) -> (ServedStats, DrainOutcome) {
        {
            self.inner.sched.lock().accepting = false;
        }
        let outcome = self.drain();
        let stats = self.stats();
        self.teardown();
        (stats, outcome)
    }

    fn teardown(&mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        {
            let mut sched = self.inner.sched.lock();
            sched.accepting = false;
            sched.shutdown = true;
            // Wake any worker parked in a cancellable receive on a
            // stream queue (it re-checks the shutdown flag and aborts),
            // then drop every queued/live stream's receivers so
            // producers parked on full queues wake with a disconnect
            // instead of sleeping forever.
            for job in sched.live.drain(..) {
                if let Some(wake) = job.wake.lock().take() {
                    wake.wake_all();
                }
                job.rx.lock().take();
            }
            sched.queues.clear();
        }
        self.inner.job_cv.notify_all();
        // Wake clock sleepers (ingest delays, the deadline monitor) and
        // parked watchdogs so everyone observes the shutdown flag.
        self.inner.cfg.clock.kick();
        if self.inner.tick_waiters.load(Ordering::SeqCst) > 0 {
            drop(self.inner.tick.0.lock());
            self.inner.tick.1.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl StreamHandle {
    /// Feeds the next chunk of trace bytes, blocking while the stream's
    /// bounded queue is full (backpressure). Fails once the service is
    /// tearing down.
    pub fn feed(&self, chunk: impl Into<Vec<u8>>) -> Result<(), ServeError> {
        self.tx.send(chunk.into()).map_err(|_| ServeError::Rejected)
    }

    /// Chunks the producer had to wait (or would have waited) to
    /// enqueue — the blocked-producer accounting backpressure tests
    /// assert on.
    pub fn blocked_sends(&self) -> u64 {
        self.tx.blocked_sends()
    }

    /// Deepest this stream's queue ever got (never exceeds the bound).
    pub fn queue_peak(&self) -> usize {
        self.tx.peak_len()
    }

    /// Live `(events decoded, epoch boundaries decoded)` for this
    /// stream — the worker publishes after every chunk it decodes. The
    /// values lag the bytes the producer has *queued* (only consumed
    /// chunks count) and are monotone; the daemon keys its durability
    /// epoch checkpoints on the second component.
    pub fn progress(&self) -> (u64, u64) {
        (self.job.decoded.load(Ordering::SeqCst), self.job.epochs.load(Ordering::SeqCst))
    }

    /// Closes the stream (end of input) and waits for its verdict,
    /// under the same progress watchdog as [`Service::drain`].
    pub fn finish(self) -> Result<StreamReport, ServeError> {
        drop(self.tx); // disconnect = end-of-stream marker
        let watchdog = Duration::from_millis(self.inner.cfg.watchdog_ms.max(1));
        let mut last = self.inner.progress.load(Ordering::SeqCst);
        let mut stalled_since = Instant::now();
        self.inner.tick_waiters.fetch_add(1, Ordering::SeqCst);
        let outcome = loop {
            if let Some(report) = self.job.done.lock().clone() {
                break Ok(report);
            }
            // Same condvar-park discipline as [`Service::drain`]: the
            // verdict is published before the progress bump, so a tick
            // wake always re-checks `done` first.
            let mut tick = self.inner.tick.0.lock();
            let p = self.inner.progress.load(Ordering::SeqCst);
            if p != last {
                last = p;
                stalled_since = Instant::now();
                continue;
            }
            let stalled = stalled_since.elapsed();
            if stalled >= watchdog {
                break Err(ServeError::Wedged);
            }
            self.inner.tick.1.wait_for(&mut tick, watchdog - stalled);
        };
        self.inner.tick_waiters.fetch_sub(1, Ordering::SeqCst);
        outcome
    }
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// How one decode-and-analyze attempt over a stream ended.
enum Attempt {
    /// Verdict produced (respawn count filled in by the supervisor).
    Done(Box<StreamReport>),
    /// Chaos killed the worker mid-stream; the journal holds everything
    /// consumed so far.
    Killed,
    /// Service shutdown interrupted the attempt; no verdict.
    Aborted,
    /// The deadline monitor evicted the stream mid-attempt.
    TimedOut,
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut sched = inner.sched.lock();
            loop {
                if sched.shutdown {
                    return;
                }
                if let Some(job) = sched.take_next() {
                    break job;
                }
                inner.job_cv.wait(&mut sched);
            }
        };
        supervise(inner, &job);
    }
}

/// Runs attempts over `job` until a verdict or the respawn budget is
/// spent — the per-stream supervisor.
fn supervise(inner: &Arc<Inner>, job: &Arc<Job>) {
    let Some(rx) = job.rx.lock().take() else {
        return; // torn down by shutdown before pickup
    };
    let mut deaths = 0u32;
    loop {
        match run_attempt(inner, job, &rx) {
            Attempt::Done(mut report) => {
                report.respawns = deaths;
                fold_queue_accounting(inner, job, &rx);
                finalize(inner, job, *report);
                return;
            }
            Attempt::Killed => {
                deaths += 1;
                inner.bump_progress();
                let quarantine = inner.cfg.quarantine_after;
                if quarantine > 0 && deaths >= quarantine {
                    // Poison: park the stream instead of burning more
                    // respawns on it (now, or after a daemon restart).
                    // Drain the queue so its producer is never left
                    // parked.
                    let _ = drain_to_eof(inner, &rx, job);
                    let report = quarantined_report(&job.tenant, &job.name, deaths);
                    fold_queue_accounting(inner, job, &rx);
                    finalize(inner, job, report);
                    return;
                }
                if deaths > inner.cfg.max_respawns {
                    // Budget spent: fail-stop this stream only. Drain
                    // the queue so its producer is never left parked.
                    let shipped = drain_to_eof(inner, &rx, job);
                    let report = lost_report(job, shipped, deaths);
                    fold_queue_accounting(inner, job, &rx);
                    finalize(inner, job, report);
                    return;
                }
                // else: next attempt redelivers the journal.
            }
            Attempt::TimedOut => {
                let report = timeout_report(inner, job, deaths);
                fold_queue_accounting(inner, job, &rx);
                finalize(inner, job, report);
                return;
            }
            Attempt::Aborted => return,
        }
    }
}

/// Consumes and discards the rest of a stream (used after giving up on
/// it), returning the total journaled byte count as an event-free
/// estimate of what was shipped.
fn drain_to_eof(inner: &Inner, rx: &Receiver<Vec<u8>>, job: &Job) -> u64 {
    let cancelled = || inner.shutting_down.load(Ordering::SeqCst);
    while let Ok(chunk) = rx.recv_cancel(&cancelled) {
        job.journal.lock().extend_from_slice(&chunk);
        inner.bump_progress();
    }
    job.journal.lock().len() as u64
}

/// One full decode-and-analyze pass: journal redelivery, live ingest to
/// end-of-stream, then detector replay.
fn run_attempt(inner: &Inner, job: &Arc<Job>, rx: &Receiver<Vec<u8>>) -> Attempt {
    let mut dec = StreamDecoder::new();
    let mut wire_error = None;

    // Redelivery: feed everything a previous (killed) attempt already
    // consumed. At-least-once delivery; the fresh decoder gives the
    // replay an exactly-once analysis effect.
    let journal = job.journal.lock().clone();
    for piece in journal.chunks(4096) {
        if let Err(e) = dec.feed(piece) {
            wire_error = Some(e);
            break;
        }
        job.publish_progress(&dec, &inner.cfg.clock);
        if job.take_kill(dec.decoded_events() as u64) {
            return Attempt::Killed;
        }
    }

    // Live ingest. Workers park on the stream's condvar while the
    // queue is idle; teardown (and the deadline monitor) wakes them
    // through the job's second receiver clone and the cancel predicate
    // ends the attempt.
    let cancelled = || {
        inner.shutting_down.load(Ordering::SeqCst) || job.timed_out.load(Ordering::SeqCst)
    };
    let cancel_kind = |job: &Job| {
        if !inner.shutting_down.load(Ordering::SeqCst) && job.timed_out.load(Ordering::SeqCst) {
            Attempt::TimedOut
        } else {
            Attempt::Aborted
        }
    };
    loop {
        match rx.recv_cancel(&cancelled) {
            Ok(chunk) => {
                job.journal.lock().extend_from_slice(&chunk);
                inner.bump_progress();
                if wire_error.is_none() {
                    if let Err(e) = dec.feed(&chunk) {
                        wire_error = Some(e);
                    }
                }
                job.publish_progress(&dec, &inner.cfg.clock);
                if job.take_kill(dec.decoded_events() as u64) {
                    return Attempt::Killed;
                }
                if let Some(delay) = inner.cfg.ingest_delay {
                    if !sliced_sleep(inner, job, delay) {
                        return cancel_kind(job);
                    }
                }
            }
            Err(RecvCancelError::Disconnected) => break,
            Err(RecvCancelError::Cancelled) => return cancel_kind(job),
        }
    }

    // End of stream: classify, then analyze.
    if let Some(e) = wire_error {
        return Attempt::Done(Box::new(malformed_report(&job.tenant, &job.name, &format!("{e}"))));
    }
    let end = match dec.finish() {
        Ok(end) => end,
        Err(e) => {
            return Attempt::Done(Box::new(malformed_report(&job.tenant, &job.name, &format!("{e}"))))
        }
    };
    // A chaos threshold past the end of the stream fires here, right
    // before analysis, so every configured kill lands deterministically.
    if job.take_kill(u64::MAX) {
        return Attempt::Killed;
    }
    Attempt::Done(Box::new(report_for_end(
        inner.cfg.detector,
        &inner.rcfg,
        inner.gauge.as_ref(),
        &job.tenant,
        &job.name,
        end,
    )))
}

/// The deadline monitor: evicts streams that made zero progress within
/// [`ServeCfg::stream_deadline`], on [`ServeCfg::clock`]. Queued
/// streams (never picked up — the wedged-slot case) are finalized here
/// directly; in-worker streams are flagged and woken, and their worker
/// reports the eviction. A manual clock makes the whole path
/// deterministic: eviction happens exactly when a test `advance`s past
/// the deadline.
fn deadline_loop(inner: &Arc<Inner>) {
    let deadline = inner.cfg.stream_deadline.unwrap_or(u64::MAX).max(1);
    let clock = &inner.cfg.clock;
    let cancelled = || inner.shutting_down.load(Ordering::SeqCst);
    loop {
        if cancelled() {
            return;
        }
        let now = clock.now_ms();
        let mut next: Option<u64> = None;
        let mut evict: Vec<Arc<Job>> = Vec::new();
        {
            let mut sched = inner.sched.lock();
            for job in &sched.live {
                if job.done.lock().is_some() {
                    continue;
                }
                let due = job.last_progress_ms.load(Ordering::SeqCst).saturating_add(deadline);
                if now >= due {
                    // First flagger owns the eviction.
                    if !job.timed_out.swap(true, Ordering::SeqCst) {
                        evict.push(job.clone());
                    }
                } else {
                    next = Some(next.map_or(due, |n| n.min(due)));
                }
            }
            // Unqueue evicted streams under the same lock so no worker
            // picks one up after the flag.
            for job in &evict {
                if let Some(q) = sched.queues.get_mut(&job.tenant) {
                    q.retain(|j| !Arc::ptr_eq(j, job));
                }
            }
        }
        for job in evict {
            match job.rx.lock().take() {
                // Never picked up by a worker: evict right here. Both
                // receiver clones drop, so a producer parked on the
                // full queue wakes with a disconnect.
                Some(rx) => {
                    if let Some(wake) = job.wake.lock().take() {
                        wake.wake_all();
                    }
                    fold_queue_accounting(inner, &job, &rx);
                    finalize(inner, &job, timeout_report(inner, &job, 0));
                }
                // In a worker: wake its parked receive; the cancel
                // predicate sees `timed_out` and the attempt reports
                // [`Attempt::TimedOut`].
                None => {
                    if let Some(wake) = job.wake.lock().as_ref() {
                        wake.wake_all();
                    }
                }
            }
        }
        let target = next.unwrap_or_else(|| clock.now_ms().saturating_add(deadline));
        clock.wait_until(target, &cancelled);
    }
}

/// `cfg.analyzer` with `algorithm` forced to the detector's — the
/// store configuration every stream is actually replayed under.
pub fn resolve_rcfg(cfg: &ServeCfg) -> AnalyzerCfg {
    let mut rcfg = cfg.analyzer;
    if let Some(algo) = cfg.detector.algorithm() {
        rcfg.algorithm = algo;
    }
    rcfg
}

/// Replays a fully-decoded stream through the detector and classifies
/// the verdict. Shared by the live worker path and the daemon's
/// startup recovery so a recovered verdict is byte-identical to the
/// uninterrupted one (`respawns` is 0 here; the supervisor overwrites
/// it on the live path).
///
/// With a `gauge`, stores are metered: admission under pressure
/// tightens the node budget to the gauge's fair-share cap, and live
/// growth past the cap retro-coalesces (FP-only; see
/// [`rma_core::gauge`]). The MUST detector keeps no interval store and
/// ignores the gauge.
pub(crate) fn report_for_end(
    detector: Detector,
    rcfg: &AnalyzerCfg,
    gauge: Option<&MemGauge>,
    tenant: &str,
    stream: &str,
    end: StreamEnd,
) -> StreamReport {
    let mut rcfg = *rcfg;
    if let Some(cap) = gauge.and_then(MemGauge::brownout_cap) {
        // Brownout admission: streams analyzed while the service is
        // over budget start under the fair-share cap.
        rcfg.node_budget = Some(rcfg.node_budget.map_or(cap, |b| b.min(cap)));
    }
    let outcome = match (detector, gauge) {
        (Detector::Must, _) => replay_trace(&end.trace, Box::new(MustTarget::new())),
        (_, Some(gauge)) => {
            let gauge = gauge.clone();
            replay_trace(
                &end.trace,
                Box::new(StoreTarget::new(move || rcfg.build_store_metered(&gauge))),
            )
        }
        (_, None) => {
            replay_trace(&end.trace, Box::new(StoreTarget::new(move || rcfg.build_store(None))))
        }
    };
    let (tier, completeness) = if end.complete {
        (
            if outcome.races.is_empty() { Tier::Clean } else { Tier::Racy },
            Completeness::Complete,
        )
    } else {
        (
            Tier::Truncated,
            Completeness::Partial {
                processed: (end.decoded_events - end.dropped_events) as u64,
                target: end.decoded_events as u64,
            },
        )
    };
    StreamReport {
        tenant: tenant.to_string(),
        stream: stream.to_string(),
        tier,
        verdict: verdict_line(&outcome.races),
        races: outcome.races.len(),
        events: outcome.events,
        epochs_kept: end.epochs_kept,
        completeness,
        respawns: 0, // supervisor fills in
        degraded: outcome.stats.coalesced > 0,
        brownout: outcome.stats.brownouts > 0,
    }
}

/// Decodes raw stream bytes offline and produces the report the live
/// path would have produced for them — the recovery-side analysis.
/// The chunking is immaterial (the decoder is incremental); 4 KiB
/// matches the live redelivery path. A configured memory budget gets a
/// fresh per-stream gauge, matching the one-stream-at-a-time pressure
/// of the serial daemon so recovered verdicts stay byte-identical.
pub(crate) fn analyze_bytes(cfg: &ServeCfg, tenant: &str, stream: &str, bytes: &[u8]) -> StreamReport {
    let rcfg = resolve_rcfg(cfg);
    let gauge = cfg.memory_budget.map(MemGauge::new);
    let mut dec = StreamDecoder::new();
    for piece in bytes.chunks(4096) {
        if let Err(e) = dec.feed(piece) {
            return malformed_report(tenant, stream, &format!("{e}"));
        }
    }
    match dec.finish() {
        Ok(end) => report_for_end(cfg.detector, &rcfg, gauge.as_ref(), tenant, stream, end),
        Err(e) => malformed_report(tenant, stream, &format!("{e}")),
    }
}

/// Parks for `total` on the service clock; `false` means the attempt
/// was cancelled (shutdown, or this stream's deadline eviction) —
/// [`Clock::kick`] / the eviction wake delivers the flag.
fn sliced_sleep(inner: &Inner, job: &Job, total: Duration) -> bool {
    let cancelled = || {
        inner.shutting_down.load(Ordering::SeqCst) || job.timed_out.load(Ordering::SeqCst)
    };
    let ms = (total.as_millis() as u64).max(u64::from(!total.is_zero()));
    inner.cfg.clock.sleep_ms(ms, &cancelled)
}

pub(crate) fn malformed_report(tenant: &str, stream: &str, why: &str) -> StreamReport {
    StreamReport {
        tenant: tenant.to_string(),
        stream: stream.to_string(),
        tier: Tier::Malformed,
        verdict: format!("verdict: malformed ({why})"),
        races: 0,
        events: 0,
        epochs_kept: 0,
        completeness: Completeness::Partial { processed: 0, target: 0 },
        respawns: 0,
        degraded: false,
        brownout: false,
    }
}

fn lost_report(job: &Job, shipped_bytes: u64, deaths: u32) -> StreamReport {
    StreamReport {
        tenant: job.tenant.clone(),
        stream: job.name.clone(),
        tier: Tier::Lost,
        verdict: format!("verdict: detector lost (worker died {deaths} times, budget spent)"),
        races: 0,
        events: 0,
        epochs_kept: 0,
        completeness: Completeness::Partial { processed: 0, target: shipped_bytes },
        respawns: deaths,
        degraded: false,
        brownout: false,
    }
}

/// The [`Tier::Quarantined`] verdict. Deliberately a function of
/// `(tenant, stream, deaths)` alone so the daemon's recovery can
/// reconstruct the byte-identical verdict from the WAL `Quarantined`
/// record without touching the poison bytes.
pub(crate) fn quarantined_report(tenant: &str, stream: &str, deaths: u32) -> StreamReport {
    StreamReport {
        tenant: tenant.to_string(),
        stream: stream.to_string(),
        tier: Tier::Quarantined,
        verdict: format!(
            "verdict: quarantined (worker died {deaths} times; bytes parked for offline replay)"
        ),
        races: 0,
        events: 0,
        epochs_kept: 0,
        completeness: Completeness::Partial { processed: 0, target: 0 },
        respawns: deaths,
        degraded: false,
        brownout: false,
    }
}

fn timeout_report(inner: &Inner, job: &Job, deaths: u32) -> StreamReport {
    let deadline = inner.cfg.stream_deadline.unwrap_or(0);
    StreamReport {
        tenant: job.tenant.clone(),
        stream: job.name.clone(),
        tier: Tier::Timeout,
        verdict: format!("verdict: timeout (no progress within {deadline}ms, slot reclaimed)"),
        races: 0,
        events: 0,
        epochs_kept: 0,
        completeness: Completeness::Partial {
            processed: 0,
            target: job.decoded.load(Ordering::SeqCst),
        },
        respawns: deaths,
        degraded: false,
        brownout: false,
    }
}

/// Publishes the verdict and folds it into the telemetry.
fn finalize(inner: &Inner, job: &Arc<Job>, report: StreamReport) {
    {
        let mut acc = inner.stats.lock();
        let t = acc.tenants.entry(job.tenant.clone()).or_default();
        t.streams += 1;
        t.events += report.events as u64;
        t.races += report.races as u64;
        t.respawns += u64::from(report.respawns);
        t.epochs += report.epochs_kept as u64;
        t.tiers[report.tier.idx()] += 1;
        if report.degraded {
            t.degraded_stores += 1;
        }
        if report.brownout {
            t.brownout += 1;
        }
    }
    inner.events_total.fetch_add(report.events as u64, Ordering::SeqCst);
    // Free the admission slot BEFORE publishing the verdict: a client
    // that has seen `finish` return must be able to submit again.
    {
        let mut sched = inner.sched.lock();
        sched.live.retain(|j| !Arc::ptr_eq(j, job));
    }
    {
        let mut done = job.done.lock();
        *done = Some(report);
    }
    inner.active.fetch_sub(1, Ordering::SeqCst);
    // The bump's tick wake is what tells a parked `finish` the verdict
    // above is out.
    inner.bump_progress();
}

/// Folds a finished stream's queue accounting into its tenant's stats.
/// Called by the worker while it still owns the receiver.
fn fold_queue_accounting(inner: &Inner, job: &Job, rx: &Receiver<Vec<u8>>) {
    let mut acc = inner.stats.lock();
    let t = acc.tenants.entry(job.tenant.clone()).or_default();
    t.peak_queue_depth = t.peak_queue_depth.max(rx.peak_len());
    t.blocked_sends += rx.blocked_sends();
}

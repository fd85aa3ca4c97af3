//! The serving core: admission, per-tenant fair scheduling, supervised
//! per-stream workers, drain/shutdown.
//!
//! One [`Service`] owns a pool of worker threads. [`Service::submit`]
//! admits a stream (tenant + name) and hands back a [`StreamHandle`];
//! the client feeds byte chunks through the handle's *bounded* channel
//! (blocking when the worker falls behind — that block is the credit
//! mechanism) and calls [`StreamHandle::finish`] to close the stream
//! and collect its [`StreamReport`]. Workers pull streams round-robin
//! across tenants; a finishing client whose stream no worker has
//! claimed yet analyzes it on its own thread, in the same slot and pick
//! order a worker would have used. Workers are woken on demand, never
//! by admission: by a client that cannot go on alone (its queue is
//! full, its claim was refused, it abandoned its handle), by
//! [`Service::drain`], and by a worker that leaves streams queued with
//! a slot free.
//!
//! A stream takes two cores: the feeding thread decodes each chunk with
//! the handle's [`rma_trace::StreamDecoder`] and enqueues it with the
//! events it completed, and the consumer (worker or finishing client)
//! journals every chunk until the verdict is out and pushes the events
//! into an incremental [`rma_trace::Replayer`], so the detector runs as
//! the bytes arrive. A stream that does not decode whole (truncated,
//! corrupt, format v1) is re-decoded from its journal at end-of-stream
//! and replayed from its [`rma_trace::StreamEnd`] instead. A worker
//! death (deterministic chaos via
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
    replay_trace, verdict_line, Detector, MustTarget, ReplayOutcome, ReplayTarget, Replayer,
    StoreTarget, StreamDecoder, StreamEnd, TraceError, TraceEvent,
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
    /// `algorithm` is overridden by `detector`; `delivery` is a
    /// live-capture knob with no effect on offline replay.
    pub analyzer: AnalyzerCfg,
    /// Streams analyzed at once, by pool threads or by the finishing
    /// client (min 1). The pool has this many threads; they park until
    /// a stream needs one (a producer's queue fills, a finishing
    /// client's claim is refused, a handle is dropped unfinished, or
    /// [`Service::drain`] finds streams queued).
    pub workers: usize,
    /// Per-stream chunk-queue bound — the backpressure credit count. A
    /// credit is one fed chunk together with the events the feeding
    /// thread decoded from it: decode runs on the caller of
    /// [`StreamHandle::feed`], ahead of the queue.
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

/// One fed chunk and what the feeding thread's decoder made of it —
/// the unit of a stream's queue.
struct Fed {
    /// The raw bytes, journaled by the consumer.
    chunk: Vec<u8>,
    /// The events the chunk completed, in wire order.
    events: Vec<TraceEvent>,
    /// The decoder's events decoded and epoch marks after this chunk —
    /// the progress the consumer publishes when it takes the chunk.
    decoded: u64,
    epochs: u64,
    /// The header's rank count, once the header has parsed.
    nranks: Option<u32>,
    /// `Some(epochs kept)` once every rank's stream ran to `Finish`.
    complete: Option<usize>,
}

impl Fed {
    /// `chunk`, after `dec` has decoded it.
    fn new(chunk: Vec<u8>, dec: &mut StreamDecoder) -> Fed {
        Fed {
            chunk,
            events: dec.take_events(),
            decoded: dec.decoded_events() as u64,
            epochs: dec.epoch_marks() as u64,
            nranks: dec.header().map(|h| h.nranks),
            complete: dec.is_complete().then(|| dec.epochs_kept()),
        }
    }
}

/// One admitted stream: its queue, journal and verdict slot.
struct Job {
    tenant: String,
    name: String,
    /// Taken by the worker that first picks the job up; torn down (to
    /// wake parked producers) on shutdown.
    rx: Mutex<Option<Receiver<Fed>>>,
    /// A second receiver clone kept solely so teardown can wake a
    /// worker parked in a cancellable receive on this stream's queue.
    /// Dropped (after the wake) so the sender-side disconnect
    /// accounting still sees every receiver go away.
    wake: Mutex<Option<Receiver<Fed>>>,
    /// Events decoded so far — live progress for durability watermarks.
    decoded: AtomicU64,
    /// Epoch boundaries decoded so far ([`StreamDecoder::epoch_marks`])
    /// — the monotone signal durability checkpoints key on.
    epochs: AtomicU64,
    /// Every consumed chunk, moved in as received and retained until
    /// the verdict is out — the redelivery source for crash recovery.
    journal: Mutex<Vec<Vec<u8>>>,
    /// Chaos kills this stream has yet to suffer.
    kills_left: Mutex<u32>,
    /// Decoded-event threshold for the next kill.
    kill_at: u64,
    /// Clock time ([`ServeCfg::clock`]) of admission, of the last chunk
    /// the client enqueued, or of the last chunk consumed, whichever is
    /// latest — what the deadline monitor measures staleness against.
    /// An accepted chunk counts as progress: a queued stream has no
    /// consumer until its client needs one.
    last_progress_ms: AtomicU64,
    /// Set (once) by the deadline monitor; workers treat it as a
    /// per-stream cancellation and the stream reports [`Tier::Timeout`].
    timed_out: AtomicBool,
    /// The verdict, once produced.
    done: Mutex<Option<StreamReport>>,
}

impl Job {
    /// A freshly admitted stream reading `rx`, to be killed `kills`
    /// times once `kill_at` events have decoded.
    fn new(
        tenant: &str,
        name: &str,
        rx: Receiver<Fed>,
        kills: u32,
        kill_at: u64,
        now_ms: u64,
    ) -> Job {
        Job {
            tenant: tenant.to_string(),
            name: name.to_string(),
            wake: Mutex::new(Some(rx.clone())),
            rx: Mutex::new(Some(rx)),
            decoded: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
            kills_left: Mutex::new(kills),
            kill_at,
            last_progress_ms: AtomicU64::new(now_ms),
            timed_out: AtomicBool::new(false),
            done: Mutex::new(None),
        }
    }

    /// Stamps the deadline clock and stores the decoder's progress at
    /// the chunk just consumed where the producer side can read it
    /// ([`StreamHandle::progress`]). Stamp first: a reader that sees
    /// the new counts sees the stamp.
    fn publish_progress(&self, decoded: u64, epochs: u64, clock: &Clock) {
        self.stamp(clock);
        self.decoded.store(decoded, Ordering::SeqCst);
        self.epochs.store(epochs, Ordering::SeqCst);
    }

    /// Stamps the deadline clock. `fetch_max`, because the producer
    /// (enqueue) and the consumer both stamp, and a stale stamp landing
    /// late must not move the deadline back.
    fn stamp(&self, clock: &Clock) {
        self.last_progress_ms.fetch_max(clock.now_ms(), Ordering::SeqCst);
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

/// Scheduler state: per-tenant FIFO queues, a rotation cursor, and the
/// analysis slots in use.
struct Sched {
    queues: BTreeMap<String, VecDeque<Arc<Job>>>,
    /// Last tenant served; the next pick starts strictly after it.
    cursor: String,
    /// Streams claimed (by a pool worker or a finishing client) whose
    /// `supervise` has not returned. Never exceeds [`ServeCfg::workers`].
    running: usize,
    /// Submitted streams without a verdict yet.
    live: Vec<Arc<Job>>,
    accepting: bool,
    shutdown: bool,
}

impl Sched {
    fn new() -> Sched {
        Sched {
            queues: BTreeMap::new(),
            cursor: String::new(),
            running: 0,
            live: Vec::new(),
            accepting: true,
            shutdown: false,
        }
    }

    /// The tenant round-robin serves next: the first non-empty queue
    /// strictly after `cursor`, wrapping.
    fn next_tenant<'q>(
        queues: &'q BTreeMap<String, VecDeque<Arc<Job>>>,
        cursor: &String,
    ) -> Option<&'q String> {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        queues
            .range::<String, _>((Excluded(cursor), Unbounded))
            .chain(queues.range::<String, _>((Unbounded, Included(cursor))))
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| t)
    }

    /// Claims the round-robin pick: pops the next tenant's oldest
    /// stream and takes a slot, if fewer than `workers` are in use.
    fn take_next(&mut self, workers: usize) -> Option<Arc<Job>> {
        if self.running >= workers {
            return None;
        }
        let Sched { queues, cursor, .. } = self;
        // `clone_from` reuses the cursor's buffer: no allocation per pick.
        cursor.clone_from(Self::next_tenant(queues, cursor)?);
        let job = queues.get_mut(cursor.as_str()).and_then(VecDeque::pop_front)?;
        self.running += 1;
        Some(job)
    }

    /// A finishing client's claim on its own stream: granted only when
    /// the stream is still queued, a slot is free, and round-robin would
    /// pick it next (its tenant is next and it is that tenant's front).
    /// A granted claim is exactly the [`Sched::take_next`] a worker
    /// would have made.
    fn claim(&mut self, job: &Arc<Job>, workers: usize) -> bool {
        let next = Self::next_tenant(&self.queues, &self.cursor).filter(|t| **t == job.tenant);
        let front = next.and_then(|t| self.queues[t].front());
        front.is_some_and(|j| Arc::ptr_eq(j, job)) && self.take_next(workers).is_some()
    }

    /// Returns a slot taken by [`Sched::take_next`]; `true` when streams
    /// are still queued.
    fn release(&mut self) -> bool {
        self.running -= 1;
        self.queues.values().any(|q| !q.is_empty())
    }

    /// A stream is queued and a slot is free: waking a parked worker
    /// now gets a stream analyzed.
    fn wants_worker(&self, workers: usize) -> bool {
        self.running < workers && self.queues.values().any(|q| !q.is_empty())
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
    /// Workers park here waiting for jobs. Notified only on demand
    /// (DESIGN.md §13.2): never by `submit`.
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
    /// `None` once [`StreamHandle::finish`] has closed the stream.
    tx: Option<Sender<Fed>>,
    /// Decodes each chunk on the feeding thread.
    dec: Mutex<StreamDecoder>,
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
            sched: Mutex::new(Sched::new()),
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
    /// blocks until the worker catches up. Admission wakes no worker:
    /// the stream waits queued until its client finishes it (and
    /// usually analyzes it itself) or needs a worker.
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
        let now = self.inner.cfg.clock.now_ms();
        let job = Arc::new(Job::new(tenant, stream, rx, kills, kill_at, now));
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
            entry_mut(&mut sched.queues, tenant).push_back(job.clone());
            sched.live.push(job.clone());
            let live_now = sched.live.iter().filter(|j| j.tenant == tenant).count();
            drop(sched);
            let mut acc = self.inner.stats.lock();
            let t = entry_mut(&mut acc.tenants, tenant);
            t.peak_live = t.peak_live.max(live_now);
        }
        self.inner.active.fetch_add(1, Ordering::SeqCst);
        Ok(StreamHandle {
            inner: self.inner.clone(),
            job,
            tx: Some(tx),
            dec: Mutex::new(StreamDecoder::new()),
        })
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
        entry_mut(&mut self.inner.stats.lock().tenants, tenant).shed += 1;
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
    ///
    /// Streams still queued get the pool woken for them: their clients
    /// may be feeding slowly, and only a worker's progress keeps the
    /// watchdog from calling that a wedge.
    pub fn drain(&self) -> DrainOutcome {
        if self.inner.sched.lock().wants_worker(self.inner.cfg.workers.max(1)) {
            self.inner.job_cv.notify_all();
        }
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
    /// The open stream's sender; only [`StreamHandle::finish`] and the
    /// drop take it.
    fn tx(&self) -> &Sender<Fed> {
        self.tx.as_ref().expect("the stream is open until finish")
    }

    /// Feeds the next chunk of trace bytes, blocking while the stream's
    /// bounded queue is full (backpressure). A full queue that no worker
    /// has claimed yet wakes one before the producer parks: that is
    /// what summons a worker for a stream larger than its queue. An
    /// enqueued chunk counts as progress for
    /// [`ServeCfg::stream_deadline`]. Fails once the service is tearing
    /// down.
    ///
    /// The chunk is decoded here, on the caller's thread, before it is
    /// queued: decode cost lands on the caller, while the consumer
    /// replays the events of earlier chunks. Bytes that do not decode
    /// are not an error here; they surface as [`Tier::Malformed`] (or
    /// [`Tier::Truncated`]) in the report of [`StreamHandle::finish`].
    pub fn feed(&self, chunk: impl Into<Vec<u8>>) -> Result<(), ServeError> {
        let chunk = chunk.into();
        let fed = {
            let mut dec = self.dec.lock();
            // A decode error is final inside the decoder; the consumer
            // re-decodes the journal at end-of-stream to report it.
            let _ = dec.feed(&chunk);
            Fed::new(chunk, &mut dec)
        };
        self.tx().send_with(fed, || {
            // `rx` is taken by whoever supervises the stream (or by its
            // eviction); while it is here, no worker will pop this queue.
            if self.job.rx.lock().is_some() {
                self.inner.job_cv.notify_one();
            }
        })
        .map_err(|_| ServeError::Rejected)?;
        self.job.stamp(&self.inner.cfg.clock);
        Ok(())
    }

    /// Chunks the producer had to wait (or would have waited) to
    /// enqueue — the blocked-producer accounting backpressure tests
    /// assert on.
    pub fn blocked_sends(&self) -> u64 {
        self.tx().blocked_sends()
    }

    /// Deepest this stream's queue ever got (never exceeds the bound).
    pub fn queue_peak(&self) -> usize {
        self.tx().peak_len()
    }

    /// Live `(events decoded, epoch boundaries decoded)` for this
    /// stream — the worker publishes, after every chunk it consumes,
    /// the counts the feeding thread's decoder had after that chunk. The
    /// values lag the bytes the producer has *queued* (only consumed
    /// chunks count) and are monotone; the daemon keys its durability
    /// epoch checkpoints on the second component. Nothing consumes a
    /// stream before it is claimed, so this stays `(0, 0)` until the
    /// queue fills or [`StreamHandle::finish`] is called.
    pub fn progress(&self) -> (u64, u64) {
        (self.job.decoded.load(Ordering::SeqCst), self.job.epochs.load(Ordering::SeqCst))
    }

    /// Closes the stream (end of input) and waits for its verdict,
    /// under the same progress watchdog as [`Service::drain`].
    ///
    /// If no worker has claimed the stream yet, and a slot is free, and
    /// round-robin would pick it next, the caller analyzes it on its own
    /// thread instead of waiting for a worker to wake. That run is the
    /// caller's own work and runs without the watchdog; kills,
    /// redelivery, quarantine and deadline eviction behave as on a
    /// worker.
    ///
    /// A refused claim with a slot free wakes one worker: the stream
    /// round-robin serves first needs one.
    pub fn finish(mut self) -> Result<StreamReport, ServeError> {
        drop(self.tx.take()); // disconnect = end-of-stream marker
        let workers = self.inner.cfg.workers.max(1);
        let (claimed, summon) = {
            let mut sched = self.inner.sched.lock();
            let claimed = sched.claim(&self.job, workers);
            (claimed, !claimed && sched.wants_worker(workers))
        };
        if summon {
            self.inner.job_cv.notify_one();
        }
        if claimed {
            supervise(&self.inner, &self.job);
            if self.inner.sched.lock().release() {
                // A worker may be parked on the slot just returned.
                self.inner.job_cv.notify_one();
            }
        }
        let watchdog = Duration::from_millis(self.inner.cfg.watchdog_ms.max(1));
        let mut last = self.inner.progress.load(Ordering::SeqCst);
        let mut stalled_since = Instant::now();
        self.inner.tick_waiters.fetch_add(1, Ordering::SeqCst);
        let outcome = loop {
            // Moved out, not cloned: `finalize` unlisted the job from
            // `live` before setting `done`, so nothing else reads it.
            if let Some(report) = self.job.done.lock().take() {
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

impl Drop for StreamHandle {
    /// A handle dropped without [`StreamHandle::finish`] leaves its
    /// stream to the pool: the sender's drop closes it, and one worker
    /// is woken while a stream is queued and a slot is free.
    fn drop(&mut self) {
        if self.tx.take().is_some()
            && self.inner.sched.lock().wants_worker(self.inner.cfg.workers.max(1))
        {
            self.inner.job_cv.notify_one();
        }
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
    let workers = inner.cfg.workers.max(1);
    let mut sched = inner.sched.lock();
    loop {
        if sched.shutdown {
            return;
        }
        match sched.take_next(workers) {
            Some(job) => {
                // Chain wake: streams still queued with a slot free get
                // the next worker, so N queued streams still find up to
                // `workers` consumers.
                let more = sched.wants_worker(workers);
                drop(sched);
                if more {
                    inner.job_cv.notify_one();
                }
                supervise(inner, &job);
                sched = inner.sched.lock();
                sched.release();
            }
            None => inner.job_cv.wait(&mut sched),
        }
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
                finalize(inner, job, &rx, *report);
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
                    finalize(inner, job, &rx, report);
                    return;
                }
                if deaths > inner.cfg.max_respawns {
                    // Budget spent: fail-stop this stream only. Drain
                    // the queue so its producer is never left parked.
                    let shipped = drain_to_eof(inner, &rx, job);
                    let report = lost_report(job, shipped, deaths);
                    finalize(inner, job, &rx, report);
                    return;
                }
                // else: next attempt redelivers the journal.
            }
            Attempt::TimedOut => {
                let report = timeout_report(inner, job, deaths);
                finalize(inner, job, &rx, report);
                return;
            }
            Attempt::Aborted => return,
        }
    }
}

/// Consumes and discards the rest of a stream (used after giving up on
/// it), returning the total journaled byte count as an event-free
/// estimate of what was shipped.
fn drain_to_eof(inner: &Inner, rx: &Receiver<Fed>, job: &Job) -> u64 {
    let cancelled = || inner.shutting_down.load(Ordering::SeqCst);
    while let Ok(fed) = rx.recv_cancel(&cancelled) {
        job.journal.lock().push(fed.chunk);
        inner.bump_progress();
    }
    job.journal.lock().iter().map(|c| c.len() as u64).sum()
}

/// The stream's analysis as its events arrive: the replayer, built
/// once the header's rank count is known, and whether every rank's
/// stream ran to `Finish` (with the epochs it kept).
struct Live {
    replayer: Option<Replayer<'static>>,
    complete: Option<usize>,
}

impl Live {
    /// Replays `events`, decoded from a stream of `nranks` ranks.
    fn push(&mut self, inner: &Inner, nranks: Option<u32>, events: Vec<TraceEvent>) {
        if self.replayer.is_none() {
            let Some(nranks) = nranks else { return };
            let target = replay_target(inner.cfg.detector, &inner.rcfg, inner.gauge.as_ref());
            self.replayer = Some(Replayer::new(nranks, target));
        }
        if let Some(rep) = &mut self.replayer {
            rep.push(events);
        }
    }
}

/// One full decode-and-analyze pass: journal redelivery, live ingest to
/// end-of-stream, then the verdict.
fn run_attempt(inner: &Inner, job: &Arc<Job>, rx: &Receiver<Fed>) -> Attempt {
    let mut live = Live { replayer: None, complete: None };

    // Redelivery: re-decode everything a previous (killed) attempt
    // already consumed, chunk by chunk as it was received, into a fresh
    // replayer. At-least-once delivery; the fresh replayer gives an
    // exactly-once analysis effect. Only this stream's worker touches
    // the journal, so holding its lock across the feeds contends with
    // no one.
    {
        let mut dec = StreamDecoder::new();
        for piece in job.journal.lock().iter() {
            if dec.feed(piece).is_err() {
                break;
            }
            let decoded = dec.decoded_events() as u64;
            job.publish_progress(decoded, dec.epoch_marks() as u64, &inner.cfg.clock);
            if job.take_kill(decoded) {
                return Attempt::Killed;
            }
            live.push(inner, dec.header().map(|h| h.nranks), dec.take_events());
            live.complete = dec.is_complete().then(|| dec.epochs_kept());
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
            Ok(Fed { chunk, events, decoded, epochs, nranks, complete }) => {
                // Journaled before any kill, cancel or return check, so
                // no consumed chunk is ever lost to redelivery.
                job.journal.lock().push(chunk);
                inner.bump_progress();
                job.publish_progress(decoded, epochs, &inner.cfg.clock);
                if job.take_kill(decoded) {
                    return Attempt::Killed;
                }
                live.push(inner, nranks, events);
                live.complete = complete;
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

    // End of stream. A stream that decoded whole has been replayed as
    // it arrived. Any other is classified from its journal, once its
    // live replayer (and any metered store) has been dropped.
    if let (Some(epochs_kept), Some(replayer)) = (live.complete, live.replayer) {
        // A chaos threshold past the end of the stream fires here, right
        // before the verdict, so every configured kill lands
        // deterministically.
        if job.take_kill(u64::MAX) {
            return Attempt::Killed;
        }
        let outcome = replayer.finish();
        return Attempt::Done(Box::new(stream_report(
            &job.tenant,
            &job.name,
            outcome,
            epochs_kept,
            None,
        )));
    }
    let end = match decode_all(job.journal.lock().iter().map(Vec::as_slice)) {
        Ok(end) => end,
        Err(e) => {
            return Attempt::Done(Box::new(malformed_report(&job.tenant, &job.name, &format!("{e}"))))
        }
    };
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
                // `finalize` unlists a job under this lock before it
                // sets `done`, so a listed job never has a verdict.
                debug_assert!(job.done.lock().is_none(), "a listed job has no verdict");
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
                    finalize(inner, &job, &rx, timeout_report(inner, &job, 0));
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

/// The detector a stream is replayed into. With a `gauge`, stores are
/// metered: a stream whose first store is built while the service is
/// over budget has its node budget tightened to the gauge's fair-share
/// cap (read once, at that first store), and live growth past the cap
/// retro-coalesces (FP-only; see [`rma_core::gauge`]). The MUST
/// detector keeps no interval store and ignores the gauge.
fn replay_target(
    detector: Detector,
    rcfg: &AnalyzerCfg,
    gauge: Option<&MemGauge>,
) -> Box<dyn ReplayTarget + 'static> {
    let rcfg = *rcfg;
    match (detector, gauge) {
        (Detector::Must, _) => Box::new(MustTarget::new()),
        (_, Some(gauge)) => {
            let gauge = gauge.clone();
            let mut admitted: Option<AnalyzerCfg> = None;
            Box::new(StoreTarget::new(move || {
                let rcfg = *admitted.get_or_insert_with(|| {
                    let mut rcfg = rcfg;
                    if let Some(cap) = gauge.brownout_cap() {
                        // Brownout admission: a stream analyzed while
                        // the service is over budget starts under the
                        // fair-share cap.
                        rcfg.node_budget = Some(rcfg.node_budget.map_or(cap, |b| b.min(cap)));
                    }
                    rcfg
                });
                rcfg.build_store_metered(&gauge)
            }))
        }
        (_, None) => Box::new(StoreTarget::new(move || rcfg.build_store(None))),
    }
}

/// The report for a replayed stream: complete unless `partial` says how
/// much of what was decoded the replay covered.
fn stream_report(
    tenant: &str,
    stream: &str,
    outcome: ReplayOutcome,
    epochs_kept: usize,
    partial: Option<Completeness>,
) -> StreamReport {
    let tier = match (&partial, outcome.races.is_empty()) {
        (Some(_), _) => Tier::Truncated,
        (None, true) => Tier::Clean,
        (None, false) => Tier::Racy,
    };
    StreamReport {
        tenant: tenant.to_string(),
        stream: stream.to_string(),
        tier,
        verdict: verdict_line(&outcome.races),
        races: outcome.races.len(),
        events: outcome.events,
        epochs_kept,
        completeness: partial.unwrap_or(Completeness::Complete),
        respawns: 0, // supervisor fills in
        degraded: outcome.stats.coalesced > 0,
        brownout: outcome.stats.brownouts > 0,
    }
}

/// Replays a fully-decoded stream through the detector and classifies
/// the verdict. Shared by the worker path for streams that did not
/// decode whole and by the daemon's startup recovery, so a recovered
/// verdict is byte-identical to the uninterrupted one (`respawns` is 0
/// here; the supervisor overwrites it on the live path).
pub(crate) fn report_for_end(
    detector: Detector,
    rcfg: &AnalyzerCfg,
    gauge: Option<&MemGauge>,
    tenant: &str,
    stream: &str,
    end: StreamEnd,
) -> StreamReport {
    let outcome = replay_trace(&end.trace, replay_target(detector, rcfg, gauge));
    let partial = (!end.complete).then(|| Completeness::Partial {
        processed: (end.decoded_events - end.dropped_events) as u64,
        target: end.decoded_events as u64,
    });
    stream_report(tenant, stream, outcome, end.epochs_kept, partial)
}

/// Decodes raw stream bytes offline and produces the report the live
/// path would have produced for them — the recovery-side analysis.
/// The chunking is immaterial (the decoder is incremental); 4 KiB
/// matches the daemon's live feed chunk. A configured memory budget
/// gets a fresh per-stream gauge, matching the one-stream-at-a-time
/// pressure of the serial daemon so recovered verdicts stay
/// byte-identical.
pub(crate) fn analyze_bytes(cfg: &ServeCfg, tenant: &str, stream: &str, bytes: &[u8]) -> StreamReport {
    let rcfg = resolve_rcfg(cfg);
    let gauge = cfg.memory_budget.map(MemGauge::new);
    match decode_all(bytes.chunks(4096)) {
        Ok(end) => report_for_end(cfg.detector, &rcfg, gauge.as_ref(), tenant, stream, end),
        Err(e) => malformed_report(tenant, stream, &format!("{e}")),
    }
}

/// Decodes a stream's chunks, in order, to its `StreamEnd`, or to the
/// error that makes it malformed: a header that can never parse (the
/// first `feed` error) or no header at all.
fn decode_all<'c>(chunks: impl IntoIterator<Item = &'c [u8]>) -> Result<StreamEnd, TraceError> {
    let mut dec = StreamDecoder::new();
    for piece in chunks {
        dec.feed(piece)?;
    }
    dec.finish()
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

/// Publishes the verdict and folds it, with the queue accounting of
/// `rx` (the stream's receiver, still owned by the caller), into the
/// telemetry.
fn finalize(inner: &Inner, job: &Arc<Job>, rx: &Receiver<Fed>, report: StreamReport) {
    {
        let mut acc = inner.stats.lock();
        let t = entry_mut(&mut acc.tenants, &job.tenant);
        t.peak_queue_depth = t.peak_queue_depth.max(rx.peak_len());
        t.blocked_sends += rx.blocked_sends();
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

/// `map[key]`, inserted as the default on first use. Unlike
/// `entry(key.to_string())`, it allocates the owned key only when the
/// entry is new.
fn entry_mut<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: &str, name: &str) -> Arc<Job> {
        let (_tx, rx) = bounded(1);
        Arc::new(Job::new(tenant, name, rx, 0, u64::MAX, 0))
    }

    fn queued(jobs: &[&Arc<Job>]) -> Sched {
        let mut sched = Sched::new();
        for job in jobs {
            sched.queues.entry(job.tenant.clone()).or_default().push_back(Arc::clone(job));
        }
        sched
    }

    #[test]
    fn claim_refuses_a_stream_already_claimed() {
        let a = job("a", "s0");
        let mut sched = queued(&[&a]);
        assert!(Arc::ptr_eq(&sched.take_next(2).unwrap(), &a));
        assert!(!sched.claim(&a, 2));
        assert_eq!(sched.running, 1);
    }

    #[test]
    fn claim_refuses_when_every_slot_is_in_use() {
        let a = job("a", "s0");
        let mut sched = queued(&[&a]);
        sched.running = 2;
        assert!(!sched.claim(&a, 2));
        assert_eq!(sched.queues["a"].len(), 1, "the stream stays queued");
        assert_eq!(sched.running, 2);
    }

    #[test]
    fn claim_refuses_out_of_round_robin_turn() {
        let (a, b) = (job("a", "s0"), job("b", "s0"));
        let mut sched = queued(&[&a, &b]);
        // The cursor starts before "a", so "a" is next, not "b".
        assert!(!sched.claim(&b, 2));
        assert_eq!(sched.running, 0);
        assert!(Arc::ptr_eq(&sched.take_next(2).unwrap(), &a));
        assert!(sched.claim(&b, 2), "after serving a, it is b's turn");
    }

    #[test]
    fn claim_refuses_a_stream_behind_its_tenants_front() {
        let (first, second) = (job("a", "s0"), job("a", "s1"));
        let mut sched = queued(&[&first, &second]);
        assert!(!sched.claim(&second, 2));
        assert_eq!(sched.queues["a"].len(), 2);
        assert_eq!(sched.running, 0);
    }

    #[test]
    fn claim_pops_advances_the_cursor_and_takes_a_slot() {
        let (a, b) = (job("a", "s0"), job("b", "s0"));
        let mut sched = queued(&[&a, &b]);
        assert!(sched.claim(&a, 1));
        assert!(sched.queues["a"].is_empty());
        assert_eq!(sched.cursor, "a");
        assert_eq!(sched.running, 1);
        assert!(sched.take_next(1).is_none(), "the one slot is the client's");
        assert!(sched.release(), "b is still queued");
        assert!(Arc::ptr_eq(&sched.take_next(1).unwrap(), &b));
        assert!(!sched.release());
    }
}

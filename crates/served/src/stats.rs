//! Aggregate telemetry, in two renderings with different contracts:
//!
//! * [`ServedStats::to_json`] — a single-line JSON object of *counts
//!   only* (streams, events, races, respawns, degraded stores, verdict
//!   tiers, per-tenant breakdown in sorted order). Deterministic for a
//!   deterministic workload: no timestamps, durations, rates or queue
//!   occupancy — the same discipline as `rma-chaos --json`, and what
//!   lets ci.sh diff two identical service runs byte-for-byte.
//! * [`ServedStats::render`] — human output, which *does* include the
//!   wall-clock-derived numbers (events/sec, peak queue depth,
//!   blocked-producer counts) that vary run to run.
//!
//! Both the writer and the readers go through `rma_substrate::json`:
//! [`check_stats_json`] parses a document and requires exactly the key
//! paths and value kinds of [`ServedStats::to_json`]'s own output for a
//! zero-valued sample, and [`render_stats_json`] reads its values from
//! the parsed document.

use crate::recovery::RecoveryStats;
use crate::service::{ServeCfg, Tier};
use rma_substrate::json::{self, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-tenant accumulated counters.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Streams reported.
    pub streams: u64,
    /// Events analyzed (counted once per stream, at verdict time).
    pub events: u64,
    /// Races found.
    pub races: u64,
    /// Worker deaths absorbed or suffered.
    pub respawns: u64,
    /// Streams whose detector store coalesced under its node budget.
    pub degraded_stores: u64,
    /// Streams whose store was browned out by service-wide memory
    /// pressure (a subset of `degraded_stores`).
    pub brownout: u64,
    /// Admissions shed by the per-tenant quota (the stream never ran;
    /// not counted in `streams`).
    pub shed: u64,
    /// Closed epochs retained, summed over streams.
    pub epochs: u64,
    /// Verdicts by tier, [`Tier::ALL`] order.
    pub tiers: [u64; 7],
    /// Most streams this tenant ever held in flight at once — what the
    /// per-tenant quota caps (scheduling-dependent — human rendering
    /// only).
    pub peak_live: usize,
    /// Deepest any of this tenant's stream queues ever got
    /// (scheduling-dependent — human rendering only).
    pub peak_queue_depth: usize,
    /// Producer sends that found a queue full (scheduling-dependent —
    /// human rendering only).
    pub blocked_sends: u64,
}

/// A telemetry snapshot.
#[derive(Clone, Debug, Default)]
pub struct ServedStats {
    /// Detector name.
    pub detector: &'static str,
    /// Worker pool size.
    pub workers: usize,
    /// Per-stream queue bound (the credit count).
    pub queue_bound: usize,
    /// Per-tenant live-stream quota (0 = unlimited) — config echo.
    pub tenant_quota: usize,
    /// Service-wide store node budget (0 = unlimited) — config echo.
    pub memory_budget: usize,
    /// Per-stream zero-progress deadline in ms (0 = off) — config echo.
    pub stream_deadline: u64,
    /// Worker-death quarantine threshold (0 = off) — config echo.
    pub quarantine_after: u32,
    /// Per-tenant counters, keyed by tenant (sorted).
    pub tenants: BTreeMap<String, TenantStats>,
    /// Service uptime at snapshot (human rendering only).
    pub wall: Duration,
    /// Events analyzed over the service lifetime.
    pub events_total: u64,
    /// Startup-recovery counters (all zero for a run that inherited a
    /// clean spool); the daemon fills this in after [`ServedStats`] is
    /// snapshotted from the service, which never touches the disk.
    pub recovery: RecoveryStats,
}

impl ServedStats {
    pub(crate) fn snapshot(
        cfg: &ServeCfg,
        tenants: &BTreeMap<String, TenantStats>,
        wall: Duration,
        events_total: u64,
    ) -> ServedStats {
        ServedStats {
            detector: cfg.detector.name(),
            workers: cfg.workers.max(1),
            queue_bound: cfg.queue_bound,
            tenant_quota: cfg.max_streams_per_tenant,
            memory_budget: cfg.memory_budget.unwrap_or(0),
            stream_deadline: cfg.stream_deadline.unwrap_or(0),
            quarantine_after: cfg.quarantine_after,
            tenants: tenants.clone(),
            wall,
            events_total,
            recovery: RecoveryStats::default(),
        }
    }

    fn totals(&self) -> TenantStats {
        let mut out = TenantStats::default();
        for t in self.tenants.values() {
            out.streams += t.streams;
            out.events += t.events;
            out.races += t.races;
            out.respawns += t.respawns;
            out.degraded_stores += t.degraded_stores;
            out.brownout += t.brownout;
            out.shed += t.shed;
            out.epochs += t.epochs;
            for (a, b) in out.tiers.iter_mut().zip(t.tiers) {
                *a += b;
            }
            out.peak_live = out.peak_live.max(t.peak_live);
            out.peak_queue_depth = out.peak_queue_depth.max(t.peak_queue_depth);
            out.blocked_sends += t.blocked_sends;
        }
        out
    }

    /// The deterministic one-line JSON artifact (see module docs).
    pub fn to_json(&self) -> String {
        self.to_value().to_line()
    }

    fn to_value(&self) -> Value {
        // The counters the service totals and each tenant share.
        fn counters(t: &TenantStats) -> [(&'static str, Value); 7] {
            [
                ("streams", t.streams.into()),
                ("events", t.events.into()),
                ("races", t.races.into()),
                ("respawns", t.respawns.into()),
                ("degraded_stores", t.degraded_stores.into()),
                ("brownout", t.brownout.into()),
                ("shed", t.shed.into()),
            ]
        }
        fn tiers(tiers: &[u64; 7]) -> Value {
            json::obj(Tier::ALL.map(|t| (t.name(), tiers[t.idx()].into())))
        }
        let tenants = self.tenants.iter().map(|(name, t)| {
            let mut fields = vec![("tenant", name.as_str().into())];
            fields.extend(counters(t));
            fields.extend([("epochs", t.epochs.into()), ("tiers", tiers(&t.tiers))]);
            json::obj(fields)
        });
        let tot = self.totals();
        let mut fields = vec![
            ("service", "rma-served".into()),
            ("detector", self.detector.into()),
            ("workers", self.workers.into()),
            ("queue_bound", self.queue_bound.into()),
            ("tenant_quota", self.tenant_quota.into()),
            ("memory_budget", self.memory_budget.into()),
            ("stream_deadline", self.stream_deadline.into()),
            ("quarantine_after", self.quarantine_after.into()),
        ];
        fields.extend(counters(&tot));
        fields.extend([
            ("tiers", tiers(&tot.tiers)),
            ("recovery", self.recovery.to_value()),
            ("tenants", Value::Arr(tenants.collect())),
        ]);
        json::obj(fields)
    }

    /// Human-readable summary, including the run-to-run-variable
    /// numbers the JSON deliberately leaves out.
    pub fn render(&self) -> String {
        let tot = self.totals();
        let secs = self.wall.as_secs_f64();
        let rate = if secs > 0.0 { self.events_total as f64 / secs } else { 0.0 };
        let mut out = format!(
            "rma-served: {} stream(s), {} event(s), {} race(s) | detector={} workers={} \
             queue_bound={}\n\
             throughput: {rate:.0} events/sec over {secs:.2}s | peak queue depth {} | \
             blocked sends {} | respawns {} | degraded stores {}\n",
            tot.streams,
            tot.events,
            tot.races,
            self.detector,
            self.workers,
            self.queue_bound,
            tot.peak_queue_depth,
            tot.blocked_sends,
            tot.respawns,
            tot.degraded_stores,
        );
        out.push_str(&overload_line(&self.to_value()));
        out.push('\n');
        out.push_str("tiers:");
        for t in Tier::ALL {
            out.push_str(&format!(" {}={}", t.name(), tot.tiers[t.idx()]));
        }
        out.push('\n');
        for (name, t) in &self.tenants {
            let quota = if self.tenant_quota > 0 {
                format!(" quota_peak={}/{}", t.peak_live, self.tenant_quota)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "tenant {name}: streams={} events={} races={} respawns={} degraded={} \
                 brownout={} shed={} quarantined={} timeout={}{quota}\n",
                t.streams,
                t.events,
                t.races,
                t.respawns,
                t.degraded_stores,
                t.brownout,
                t.shed,
                t.tiers[Tier::Quarantined.idx()],
                t.tiers[Tier::Timeout.idx()],
            ));
        }
        out
    }
}

/// The first key path naming a wall-clock or scheduling-dependent
/// quantity, with the fragment that marks it. Values (tenant names)
/// are not looked at.
fn banned_key(doc: &Value) -> Option<(String, &'static str)> {
    let banned = ["timestamp", "duration", "_ms", "per_sec", "depth", "blocked"];
    doc.key_paths()
        .into_iter()
        .find_map(|path| banned.iter().find(|b| path.contains(*b)).map(|b| (path, *b)))
}

/// Validates a stats JSON line and returns the parsed document. The
/// schema is exactly the key paths and value kinds
/// [`ServedStats::to_json`] writes for a zero-valued sample with one
/// tenant, on one line, with no [`banned_key`].
pub fn check_stats_json(json: &str) -> Result<Value, String> {
    if json.trim().lines().count() != 1 {
        return Err("stats JSON must be a single line".into());
    }
    let sample = ServedStats {
        tenants: BTreeMap::from([(String::new(), TenantStats::default())]),
        ..Default::default()
    };
    let doc = json::parse_as(json, &sample.to_json())?;
    if let Some((path, banned)) = banned_key(&doc) {
        return Err(format!(
            "stats JSON must stay deterministic: key {path:?} contains {banned:?}"
        ));
    }
    Ok(doc)
}

/// The `overload:` line both human renderings share, read from a stats
/// document: the overload tallies, then each limit that is set.
fn overload_line(doc: &Value) -> String {
    let num = |v: &Value| v.as_u64().unwrap_or(0);
    let mut out = format!(
        "overload: shed {} | brownouts {} | quarantined {} | timeouts {}",
        num(&doc["shed"]),
        num(&doc["brownout"]),
        num(&doc["tiers"]["quarantined"]),
        num(&doc["tiers"]["timeout"]),
    );
    for (key, label, unit) in [
        ("tenant_quota", "tenant quota", ""),
        ("memory_budget", "memory budget", " nodes"),
        ("stream_deadline", "stream deadline", "ms"),
        ("quarantine_after", "quarantine after", " deaths"),
    ] {
        let limit = num(&doc[key]);
        if limit > 0 {
            out.push_str(&format!(" | {label} {limit}{unit}"));
        }
    }
    out
}

/// Human digest of a published `stats.json` body — the
/// `rma-served stats --human` view. Reads the schema-checked document,
/// focusing on the overload story: shed/brownout/quarantine tallies
/// overall and per tenant, with each tenant's quota pressure when a
/// quota is set.
pub fn render_stats_json(json: &str) -> Result<String, String> {
    let doc = check_stats_json(json)?;
    let num = |v: &Value| v.as_u64().unwrap_or(0);
    let quota = num(&doc["tenant_quota"]);
    let mut out = format!(
        "rma-served: {} stream(s), {} event(s), {} race(s) | detector={}\n{}\n",
        num(&doc["streams"]),
        num(&doc["events"]),
        num(&doc["races"]),
        doc["detector"].as_str().unwrap_or_default(),
        overload_line(&doc),
    );
    for t in doc["tenants"].as_array().unwrap_or_default() {
        out.push_str(&format!(
            "tenant {}: streams={} races={} degraded={} brownout={} shed={} \
             quarantined={} timeout={}",
            t["tenant"].as_str().unwrap_or_default(),
            num(&t["streams"]),
            num(&t["races"]),
            num(&t["degraded_stores"]),
            num(&t["brownout"]),
            num(&t["shed"]),
            num(&t["tiers"]["quarantined"]),
            num(&t["tiers"]["timeout"]),
        ));
        if quota > 0 {
            out.push_str(&format!(" quota={quota}"));
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServedStats {
        let mut tenants = BTreeMap::new();
        tenants.insert(
            "acme".to_string(),
            TenantStats {
                streams: 2,
                events: 100,
                races: 1,
                tiers: [1, 1, 0, 0, 0, 0, 0],
                ..Default::default()
            },
        );
        ServedStats {
            detector: "fragmerge",
            workers: 2,
            queue_bound: 64,
            tenant_quota: 0,
            memory_budget: 0,
            stream_deadline: 0,
            quarantine_after: 0,
            tenants,
            wall: Duration::from_millis(1234),
            events_total: 100,
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn json_is_single_line_and_validates() {
        let s = sample();
        let json = s.to_json();
        assert_eq!(json.lines().count(), 1);
        check_stats_json(&json).unwrap();
    }

    #[test]
    fn json_is_wall_clock_free() {
        // Same counters, wildly different wall time: identical JSON.
        let a = sample();
        let mut b = sample();
        b.wall = Duration::from_secs(9999);
        assert_eq!(a.to_json(), b.to_json());
        // But the human rendering does reflect it.
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn check_rejects_missing_fields() {
        let json = sample().to_json();
        let broken = json.replace("\"races\":1", "\"racez\":1");
        assert!(check_stats_json(&broken).is_err());
        let broken = json.replace("\"racy\":", "\"spicy\":");
        assert!(check_stats_json(&broken).is_err());
        assert!(check_stats_json("not json").is_err());
    }

    #[test]
    fn recovery_counters_are_in_the_json_and_checked() {
        let mut s = sample();
        s.recovery.recovered = 2;
        s.recovery.republished = 1;
        let json = s.to_json();
        assert!(json.contains("\"recovery\":{\"recovered\":2,\"republished\":1,"));
        check_stats_json(&json).unwrap();
        let broken = json.replace("\"tmp_swept\":", "\"tmp_cleared\":");
        assert!(check_stats_json(&broken).is_err(), "missing recovery counter must fail");
    }

    #[test]
    fn overload_counters_are_in_the_json_and_checked() {
        let mut s = sample();
        s.tenant_quota = 2;
        s.memory_budget = 512;
        s.stream_deadline = 250;
        s.quarantine_after = 3;
        let t = s.tenants.get_mut("acme").unwrap();
        t.shed = 4;
        t.brownout = 1;
        t.tiers[Tier::Timeout.idx()] = 2;
        t.tiers[Tier::Quarantined.idx()] = 1;
        let json = s.to_json();
        check_stats_json(&json).unwrap();
        assert!(json.contains("\"tenant_quota\":2"));
        assert!(json.contains("\"memory_budget\":512"));
        assert!(json.contains("\"shed\":4"));
        assert!(json.contains("\"brownout\":1"));
        assert!(json.contains("\"timeout\":2"));
        assert!(json.contains("\"quarantined\":1"));
        // Dropping a new tier key must fail the schema check.
        let broken = json.replace("\"quarantined\":", "\"parked\":");
        assert!(check_stats_json(&broken).is_err());
        // Human rendering shows the overload tallies and quota usage.
        let human = s.render();
        assert!(human.contains("overload: shed 4 | brownouts 1 | quarantined 1 | timeouts 2"));
        assert!(human.contains("quota_peak="));
    }

    /// Byte-exact `stats.json`: two tenants in sorted order (one whose
    /// name needs escaping) and nonzero recovery counters.
    #[test]
    fn golden_stats_json() {
        let mut s = sample();
        s.tenant_quota = 1;
        s.memory_budget = 2;
        s.stream_deadline = 250;
        s.quarantine_after = 3;
        s.tenants.insert(
            "we\"ird\\\u{1}".to_string(),
            TenantStats {
                streams: 3,
                events: 7,
                races: 2,
                respawns: 1,
                degraded_stores: 2,
                brownout: 1,
                shed: 4,
                epochs: 5,
                tiers: [0, 1, 0, 0, 0, 1, 1],
                peak_live: 9,
                peak_queue_depth: 9,
                blocked_sends: 9,
            },
        );
        s.recovery = RecoveryStats {
            recovered: 1,
            republished: 2,
            wal_records: 3,
            torn_wals: 4,
            stale_wals: 5,
            orphan_work: 6,
            tmp_swept: 7,
            publish_failures: 8,
            quarantined: 9,
        };
        assert_eq!(
            s.to_json(),
            concat!(
                r#"{"service":"rma-served","detector":"fragmerge","workers":2,"queue_bound":64,"#,
                r#""tenant_quota":1,"memory_budget":2,"stream_deadline":250,"quarantine_after":3,"#,
                r#""streams":5,"events":107,"races":3,"respawns":1,"degraded_stores":2,"#,
                r#""brownout":1,"shed":4,"tiers":{"clean":1,"racy":2,"truncated":0,"lost":0,"#,
                r#""malformed":0,"timeout":1,"quarantined":1},"recovery":{"recovered":1,"#,
                r#""republished":2,"wal_records":3,"torn_wals":4,"stale_wals":5,"orphan_work":6,"#,
                r#""tmp_swept":7,"publish_failures":8,"quarantined":9},"tenants":["#,
                r#"{"tenant":"acme","streams":2,"events":100,"races":1,"respawns":0,"#,
                r#""degraded_stores":0,"brownout":0,"shed":0,"epochs":0,"tiers":{"clean":1,"#,
                r#""racy":1,"truncated":0,"lost":0,"malformed":0,"timeout":0,"quarantined":0}},"#,
                r#"{"tenant":"we\"ird\\\u0001","streams":3,"events":7,"races":2,"respawns":1,"#,
                r#""degraded_stores":2,"brownout":1,"shed":4,"epochs":5,"tiers":{"clean":0,"#,
                r#""racy":1,"truncated":0,"lost":0,"malformed":0,"timeout":1,"quarantined":1}}]}"#,
            )
        );
    }

    #[test]
    fn tenant_names_are_escaped() {
        let mut s = sample();
        let t = s.tenants.remove("acme").unwrap();
        s.tenants.insert("we\"ird\\name".to_string(), t);
        let json = s.to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
        check_stats_json(&json).unwrap();
    }

    #[test]
    fn banned_fragments_apply_to_keys_not_tenant_names() {
        let mut s = sample();
        for name in ["blocked", "run_ms"] {
            s.tenants.insert(name.to_string(), TenantStats::default());
        }
        let json = s.to_json();
        check_stats_json(&json).unwrap();
        assert!(render_stats_json(&json).unwrap().contains("tenant run_ms: streams=0"));
        let doc = json::parse(r#"{"tenant":"blocked","tiers":{"run_ms":0}}"#).unwrap();
        assert_eq!(banned_key(&doc), Some(("tiers.run_ms".to_string(), "_ms")));
    }

    #[test]
    fn human_rendering_unescapes_tenant_names() {
        let mut s = sample();
        let t = s.tenants.remove("acme").unwrap();
        s.tenants.insert("we\"ird".to_string(), t);
        let human = render_stats_json(&s.to_json()).unwrap();
        assert!(human.contains("tenant we\"ird: streams=2 races=1 degraded=0"), "{human}");
    }
}

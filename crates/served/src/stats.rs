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
//! [`check_stats_json`] validates the JSON against its schema with the
//! same hand-rolled targeted scans the bench harness uses — this
//! workspace has no JSON parser, and does not need one to keep a
//! machine-readable artifact honest.

use crate::recovery::RecoveryStats;
use crate::service::{ServeCfg, Tier};
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
#[derive(Clone, Debug)]
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
        fn tiers_json(tiers: &[u64; 7]) -> String {
            let fields: Vec<String> = Tier::ALL
                .iter()
                .map(|t| format!("\"{}\":{}", t.name(), tiers[t.idx()]))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        let tot = self.totals();
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"tenant\":\"{}\",\"streams\":{},\"events\":{},\"races\":{},\
                     \"respawns\":{},\"degraded_stores\":{},\"brownout\":{},\"shed\":{},\
                     \"epochs\":{},\"tiers\":{}}}",
                    json_escape(name),
                    t.streams,
                    t.events,
                    t.races,
                    t.respawns,
                    t.degraded_stores,
                    t.brownout,
                    t.shed,
                    t.epochs,
                    tiers_json(&t.tiers),
                )
            })
            .collect();
        format!(
            "{{\"service\":\"rma-served\",\"detector\":\"{}\",\
             \"workers\":{},\"queue_bound\":{},\"tenant_quota\":{},\
             \"memory_budget\":{},\"stream_deadline\":{},\"quarantine_after\":{},\
             \"streams\":{},\"events\":{},\"races\":{},\"respawns\":{},\
             \"degraded_stores\":{},\"brownout\":{},\"shed\":{},\
             \"tiers\":{},\"recovery\":{},\"tenants\":[{}]}}",
            self.detector,
            self.workers,
            self.queue_bound,
            self.tenant_quota,
            self.memory_budget,
            self.stream_deadline,
            self.quarantine_after,
            tot.streams,
            tot.events,
            tot.races,
            tot.respawns,
            tot.degraded_stores,
            tot.brownout,
            tot.shed,
            tiers_json(&tot.tiers),
            self.recovery.to_json(),
            tenants.join(","),
        )
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
        out.push_str(&format!(
            "overload: shed {} | brownouts {} | quarantined {} | timeouts {}",
            tot.shed,
            tot.brownout,
            tot.tiers[Tier::Quarantined.idx()],
            tot.tiers[Tier::Timeout.idx()],
        ));
        if self.tenant_quota > 0 {
            out.push_str(&format!(" | tenant quota {}", self.tenant_quota));
        }
        if self.memory_budget > 0 {
            out.push_str(&format!(" | memory budget {} nodes", self.memory_budget));
        }
        if self.stream_deadline > 0 {
            out.push_str(&format!(" | stream deadline {}ms", self.stream_deadline));
        }
        if self.quarantine_after > 0 {
            out.push_str(&format!(" | quarantine after {} deaths", self.quarantine_after));
        }
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

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Validates a stats JSON line against its schema: every required
/// top-level key present, every tier key present under `"tiers"`, and
/// every counter a bare unsigned integer. Schema-checks without a JSON
/// parser, like the bench harness's report checker.
pub fn check_stats_json(json: &str) -> Result<(), String> {
    let line = json.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err("stats JSON must be a single object".into());
    }
    if line.lines().count() != 1 {
        return Err("stats JSON must be a single line".into());
    }
    for key in ["service", "detector"] {
        if !line.contains(&format!("\"{key}\":\"")) {
            return Err(format!("missing string field {key:?}"));
        }
    }
    for key in [
        "workers",
        "queue_bound",
        "tenant_quota",
        "memory_budget",
        "stream_deadline",
        "quarantine_after",
        "streams",
        "events",
        "races",
        "respawns",
        "degraded_stores",
        "brownout",
        "shed",
    ] {
        let tag = format!("\"{key}\":");
        let Some(at) = line.find(&tag) else {
            return Err(format!("missing numeric field {key:?}"));
        };
        let digits: String = line[at + tag.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if digits.is_empty() {
            return Err(format!("field {key:?} is not an unsigned integer"));
        }
    }
    let Some(tiers_at) = line.find("\"tiers\":{") else {
        return Err("missing tiers object".into());
    };
    let tiers_end = line[tiers_at..]
        .find('}')
        .map(|i| tiers_at + i)
        .ok_or("unterminated tiers object")?;
    let tiers = &line[tiers_at..=tiers_end];
    for t in Tier::ALL {
        if !tiers.contains(&format!("\"{}\":", t.name())) {
            return Err(format!("missing tier {:?}", t.name()));
        }
    }
    let Some(rec_at) = line.find("\"recovery\":{") else {
        return Err("missing recovery object".into());
    };
    let rec_end =
        line[rec_at..].find('}').map(|i| rec_at + i).ok_or("unterminated recovery object")?;
    let recovery = &line[rec_at..=rec_end];
    for key in RecoveryStats::KEYS {
        if !recovery.contains(&format!("\"{key}\":")) {
            return Err(format!("missing recovery counter {key:?}"));
        }
    }
    if !line.contains("\"tenants\":[") {
        return Err("missing tenants array".into());
    }
    for banned in ["timestamp", "duration", "_ms", "per_sec", "depth", "blocked"] {
        if line.contains(banned) {
            return Err(format!(
                "stats JSON must stay deterministic: found banned fragment {banned:?}"
            ));
        }
    }
    Ok(())
}

/// Human digest of a published `stats.json` body — the
/// `rma-served stats --human` view. Scans the exact format
/// [`ServedStats::to_json`] emits (schema-checked first), focusing on
/// the overload story: shed/brownout/quarantine tallies overall and per
/// tenant, with each tenant's quota pressure when a quota is set.
pub fn render_stats_json(json: &str) -> Result<String, String> {
    check_stats_json(json)?;
    fn num(scope: &str, key: &str) -> u64 {
        let tag = format!("\"{key}\":");
        scope
            .find(&tag)
            .map(|at| {
                scope[at + tag.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }
    fn word(scope: &str, key: &str) -> String {
        let tag = format!("\"{key}\":\"");
        scope
            .find(&tag)
            .map(|at| scope[at + tag.len()..].chars().take_while(|c| *c != '"').collect())
            .unwrap_or_default()
    }
    let line = json.trim();
    // Totals come before the "tenants" array, so first-occurrence
    // scans over this prefix read the service-wide counters.
    let head = &line[..line.find("\"tenants\":[").unwrap_or(line.len())];
    let quota = num(head, "tenant_quota");
    let mut out = format!(
        "rma-served: {} stream(s), {} event(s), {} race(s) | detector={}\n",
        num(head, "streams"),
        num(head, "events"),
        num(head, "races"),
        word(head, "detector"),
    );
    out.push_str(&format!(
        "overload: shed {} | brownouts {} | quarantined {} | timeouts {}",
        num(head, "shed"),
        num(head, "brownout"),
        num(head, "quarantined"),
        num(head, "timeout"),
    ));
    if quota > 0 {
        out.push_str(&format!(" | tenant quota {quota}"));
    }
    let budget = num(head, "memory_budget");
    if budget > 0 {
        out.push_str(&format!(" | memory budget {budget} nodes"));
    }
    let deadline = num(head, "stream_deadline");
    if deadline > 0 {
        out.push_str(&format!(" | stream deadline {deadline}ms"));
    }
    let after = num(head, "quarantine_after");
    if after > 0 {
        out.push_str(&format!(" | quarantine after {after} deaths"));
    }
    out.push('\n');
    for chunk in line.split("{\"tenant\":\"").skip(1) {
        let name: String = chunk.chars().take_while(|c| *c != '"').collect();
        let scope = &chunk[..chunk.find('}').map(|i| i + 1).unwrap_or(chunk.len())];
        // `scope` runs through the tenant's nested tiers object (its
        // first `}`), so tier names resolve per tenant here.
        out.push_str(&format!(
            "tenant {name}: streams={} races={} degraded={} brownout={} shed={} \
             quarantined={} timeout={}",
            num(scope, "streams"),
            num(scope, "races"),
            num(scope, "degraded_stores"),
            num(scope, "brownout"),
            num(scope, "shed"),
            num(scope, "quarantined"),
            num(scope, "timeout"),
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

    #[test]
    fn tenant_names_are_escaped() {
        let mut s = sample();
        let t = s.tenants.remove("acme").unwrap();
        s.tenants.insert("we\"ird\\name".to_string(), t);
        let json = s.to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
        check_stats_json(&json).unwrap();
    }
}

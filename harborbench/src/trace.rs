//! In-memory spans recorded by the benchmark's own code, written out as
//! JSON (`rede_common::json`) when a traced run ends.
//!
//! Span names: `request` (id = segment × 1,000,000 + arrival index;
//! scheduled arrival → done page, shed or error), its children
//! `gate.open_cursor` and one `gate.fetch` per call that delivered a page
//! (empty polls are counted on the request instead of getting a span
//! each), and `txn.commit` (id = segment × 1,000,000 + commit index). A
//! request's self time — its length minus its children's — is harness
//! time.

use rede_common::{Json, MetricsSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::string(self.name)),
            ("id", Json::Number(self.id as f64)),
            ("start_us", Json::Number(self.start_us)),
            ("end_us", Json::Number(self.end_us)),
        ];
        fields.extend(self.attrs.iter().map(|(k, v)| (*k, Json::Number(*v))));
        Json::object(fields)
    }
}

/// Span clock: microseconds since the traced run began.
pub struct Tracer {
    epoch: Instant,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch }
    }

    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn span(
        &self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> Span {
        Span {
            name,
            id,
            start_us: self.at_us(start),
            end_us: self.at_us(end),
            attrs,
        }
    }
}

/// Every counter of a snapshot, by name.
pub fn counters_json(s: &MetricsSnapshot) -> Json {
    let pairs: [(&'static str, u64); 35] = [
        ("local_point_reads", s.local_point_reads),
        ("remote_point_reads", s.remote_point_reads),
        ("scanned_records", s.scanned_records),
        ("index_lookups", s.index_lookups),
        ("index_entries_read", s.index_entries_read),
        ("record_writes", s.record_writes),
        ("tasks_spawned", s.tasks_spawned),
        ("queue_hops", s.queue_hops),
        ("broadcasts", s.broadcasts),
        ("records_emitted", s.records_emitted),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("retries", s.retries),
        ("rerouted_reads", s.rerouted_reads),
        ("faults_injected", s.faults_injected),
        ("deadline_aborts", s.deadline_aborts),
        ("batched_reads", s.batched_reads),
        ("batches_issued", s.batches_issued),
        ("remote_rtts", s.remote_rtts),
        ("fabric_completions", s.fabric_completions),
        ("window_stalls", s.window_stalls),
        ("inflight_peak", s.inflight_peak),
        ("page_faults", s.page_faults),
        ("page_evictions", s.page_evictions),
        ("pinned_peak", s.pinned_peak),
        ("wal_appends", s.wal_appends),
        ("wal_bytes", s.wal_bytes),
        ("snapshots_active", s.snapshots_active),
        ("catchup_builds", s.catchup_builds),
        ("sessions_active", s.sessions_active),
        ("cursors_active", s.cursors_active),
        ("cursor_stalls", s.cursor_stalls),
        ("shed_commands", s.shed_commands),
        ("point_reads", s.point_reads()),
        ("record_accesses", s.record_accesses()),
    ];
    Json::object(pairs.map(|(k, v)| (k, Json::Number(v as f64))))
}

/// The trace document: run identity (with the counter snapshots at the
/// window edges), a summary, and every span.
pub fn document(
    header: Vec<(&'static str, Json)>,
    summary: BTreeMap<String, f64>,
    spans: &[Span],
) -> Json {
    let mut fields = header;
    fields.push((
        "summary",
        Json::Object(
            summary
                .into_iter()
                .map(|(k, v)| (k, Json::Number(v)))
                .collect(),
        ),
    ));
    fields.push((
        "spans",
        Json::Array(spans.iter().map(Span::to_json).collect()),
    ));
    Json::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_serialize_with_their_attributes_and_parse_back() {
        let epoch = Instant::now();
        let tracer = Tracer::new(epoch);
        let span = tracer.span(
            "gate.fetch",
            3,
            epoch + Duration::from_micros(10),
            epoch + Duration::from_micros(25),
            vec![("rows", 7.0)],
        );
        assert_eq!(span.us(), 15.0);
        let doc = document(
            vec![
                ("workload", Json::string("lake_io")),
                ("counters", counters_json(&MetricsSnapshot::default())),
            ],
            BTreeMap::new(),
            &[span],
        );
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(
            back.path("spans").unwrap().at(0).unwrap().get("rows"),
            Some(&Json::Number(7.0))
        );
        assert_eq!(
            back.path("counters.point_reads").and_then(Json::as_f64),
            Some(0.0)
        );
    }
}

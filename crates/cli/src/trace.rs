//! Typed walk tracing: run one query and render each protocol step with a
//! human-readable description of the bucket it touched.
//!
//! Every trace runs the walk with the observability layer's
//! [`SpanRecorder`] attached and diffs the accumulated [`PhaseSpans`]
//! after each step, so each event carries the exact phase and byte deltas
//! the metrics pipeline would attribute to it — the human timeline and
//! the `--json` document are two renderings of the same observed walk.

use bda_core::{
    Channel, ChannelModel, Key, Phase, PhaseSpans, ProtocolMachine, RetryPolicy, SpanRecorder,
    System, Ticks, Walk, WalkStep,
};

/// One protocol step in machine-readable form.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Absolute time (bytes) at which the step finished.
    pub t: Ticks,
    /// `"read"` or `"doze"`.
    pub kind: &'static str,
    /// Bucket index on the cycle, for reads.
    pub bucket: Option<usize>,
    /// Phase the observability layer attributed the step to.
    pub phase: Phase,
    /// Access bytes the step paid (includes boundary waits and doze air).
    pub access: u64,
    /// Tuning bytes the step paid (0 while dozing).
    pub tuning: u64,
    /// Boundary-wait bytes folded into `access`, for reads.
    pub wait: Ticks,
    /// Whether the read arrived corrupted.
    pub corrupt: bool,
    /// Whether the corruption came from a scheduled carrier outage.
    pub outage: bool,
    /// Human description of the bucket payload, for reads.
    pub detail: String,
}

/// One rendered trace plus the query outcome.
pub struct Trace {
    /// Rendered timeline lines.
    pub lines: Vec<String>,
    /// Machine-readable events, one per protocol step.
    pub events: Vec<TraceEvent>,
    /// Per-phase span totals for the whole walk (telescopes to the
    /// outcome's access and tuning time exactly).
    pub spans: PhaseSpans,
    /// The query outcome.
    pub outcome: bda_core::AccessOutcome,
}

/// The phase whose step count grew between two span snapshots, with its
/// byte deltas. Each walk step records exactly one span, so the diff is
/// unambiguous.
fn span_delta(before: &PhaseSpans, after: &PhaseSpans) -> (Phase, u64, u64) {
    for phase in Phase::ALL {
        let (b, a) = (before.get(phase), after.get(phase));
        if a.count > b.count {
            return (phase, a.access - b.access, a.tuning - b.tuning);
        }
    }
    unreachable!("every walk step records exactly one phase span");
}

/// Drive `machine` against `channel`, describing every bucket read with
/// `describe`. Burst loss and scheduled outages are rendered with their
/// cause (`×CORRUPT` vs `×OUTAGE`).
pub fn trace_walk_channel<P, M: ProtocolMachine<P>>(
    channel: &Channel<P>,
    machine: M,
    tune_in: Ticks,
    faults: ChannelModel,
    policy: RetryPolicy,
    describe: impl Fn(&P) -> String,
) -> Trace {
    let mut walk = Walk::with_channel_recorder(
        channel,
        machine,
        tune_in,
        faults,
        policy,
        SpanRecorder::new(),
    );
    let mut lines = vec![format!("t={tune_in:<12} TUNE-IN")];
    let mut events = Vec::new();
    let mut snapshot = walk.recorder().spans;
    let outcome = loop {
        let step = walk.step();
        let spans_now = walk.recorder().spans;
        match step {
            WalkStep::Read {
                bucket,
                from,
                until,
            } => {
                let (phase, access, tuning) = span_delta(&snapshot, &spans_now);
                let wait = until - from - Ticks::from(channel.bucket(bucket).size);
                let wait_note = if wait > 0 {
                    format!(" (+{wait}B boundary wait)")
                } else {
                    String::new()
                };
                let start = until - Ticks::from(channel.bucket(bucket).size);
                let corrupt = faults.corrupted(start);
                let outage = faults.in_outage(start);
                let detail = describe(&channel.bucket(bucket).payload);
                lines.push(format!(
                    "t={until:<12} READ  #{bucket:<6} {detail}{wait_note}{}  [{}]",
                    if outage {
                        " ×OUTAGE"
                    } else if corrupt {
                        " ×CORRUPT"
                    } else {
                        ""
                    },
                    phase.name(),
                ));
                events.push(TraceEvent {
                    t: until,
                    kind: "read",
                    bucket: Some(bucket),
                    phase,
                    access,
                    tuning,
                    wait,
                    corrupt,
                    outage,
                    detail,
                });
            }
            WalkStep::Doze { until } => {
                let (phase, access, tuning) = span_delta(&snapshot, &spans_now);
                lines.push(format!("t={until:<12} WAKE  (dozed {access}B of air)"));
                events.push(TraceEvent {
                    t: until,
                    kind: "doze",
                    bucket: None,
                    phase,
                    access,
                    tuning,
                    wait: 0,
                    corrupt: false,
                    outage: false,
                    detail: String::new(),
                });
            }
            WalkStep::Done(out) => break out,
        }
        snapshot = spans_now;
    };
    let spans = walk.recorder().spans;
    lines.push(format!(
        "t={:<12} DONE  {} — access {}B, tuning {}B, {} probes{}{}",
        tune_in + outcome.access,
        if outcome.found {
            "FOUND"
        } else if outcome.abandoned {
            "ABANDONED (client gave up)"
        } else {
            "NOT FOUND"
        },
        outcome.access,
        outcome.tuning,
        outcome.probes,
        if outcome.false_drops > 0 {
            format!(", {} false drops", outcome.false_drops)
        } else {
            String::new()
        },
        if outcome.retries > 0 {
            format!(", {} corrupted reads", outcome.retries)
        } else {
            String::new()
        },
    ));
    Trace {
        lines,
        events,
        spans,
        outcome,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Trace {
    /// Render the trace as a single `bda-trace/v1` JSON document: one
    /// event object per protocol step (phase-attributed byte deltas,
    /// bucket ids, corruption flags), the outcome, and the per-phase span
    /// totals. The events' access/tuning deltas telescope to the
    /// outcome's access/tuning time exactly.
    pub fn to_json(&self, scheme: &str, key: Key, tune_in: Ticks) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"bda-trace/v1\",\n");
        let _ = writeln!(out, "  \"scheme\": \"{}\",", json_escape(scheme));
        let _ = writeln!(out, "  \"key\": {},", key.0);
        let _ = writeln!(out, "  \"tune_in\": {tune_in},");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"type\": \"{}\", \"t\": {}, \"bucket\": {}, \"phase\": \"{}\", \
                 \"access\": {}, \"tuning\": {}, \"wait\": {}, \"corrupt\": {}, \
                 \"outage\": {}, \"detail\": \"{}\"}}",
                e.kind,
                e.t,
                e.bucket.map_or("null".into(), |b| b.to_string()),
                e.phase.name(),
                e.access,
                e.tuning,
                e.wait,
                e.corrupt,
                e.outage,
                json_escape(&e.detail),
            );
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"phases\": {\n");
        for (i, (phase, t)) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    \"{}\": {{\"access\": {}, \"tuning\": {}, \"count\": {}}}",
                phase.name(),
                t.access,
                t.tuning,
                t.count
            );
            out.push_str(if i + 1 < bda_core::Phase::COUNT {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  },\n");
        let o = &self.outcome;
        let _ = writeln!(
            out,
            "  \"outcome\": {{\"found\": {}, \"access\": {}, \"tuning\": {}, \
             \"probes\": {}, \"false_drops\": {}, \"retries\": {}, \"abandoned\": {}, \
             \"aborted\": {}, \"stale_restarts\": {}, \"version_skews\": {}}}",
            o.found,
            o.access,
            o.tuning,
            o.probes,
            o.false_drops,
            o.retries,
            o.abandoned,
            o.aborted,
            o.stale_restarts,
            o.version_skews,
        );
        out.push_str("}\n");
        out
    }
}

/// Trace a key query on any typed system, with per-payload description,
/// over a full [`ChannelModel`] (i.i.d. or burst loss, plus outages).
pub fn trace_query_channel<S: System>(
    sys: &S,
    key: Key,
    tune_in: Ticks,
    faults: ChannelModel,
    policy: RetryPolicy,
    describe: impl Fn(&S::Payload) -> String,
) -> Trace {
    trace_walk_channel(
        sys.channel(),
        sys.query(key),
        tune_in,
        faults,
        policy,
        describe,
    )
}

/// Compact per-scheme payload descriptions.
pub mod describe {
    use bda_btree::BTreePayload;
    use bda_core::FlatPayload;
    use bda_hash::HashPayload;
    use bda_signature::SigPayload;

    /// Flat-broadcast bucket.
    pub fn flat(p: &FlatPayload) -> String {
        format!("data  key={} rec#{}", p.key, p.record_index)
    }

    /// B+-tree bucket (index or data).
    pub fn btree(p: &BTreePayload) -> String {
        match p {
            BTreePayload::Index(ib) => format!(
                "index L{} n{} [{}..{}] {} entries{}{}",
                ib.level,
                ib.node,
                ib.min_key,
                ib.max_key,
                ib.entries.len(),
                if ib.control.is_empty() {
                    String::new()
                } else {
                    format!(", {} control", ib.control.len())
                },
                if ib.segment_start { ", SEG-START" } else { "" },
            ),
            BTreePayload::Data(db) => format!("data  key={} rec#{}", db.key, db.record_index),
        }
    }

    /// Hashing bucket.
    pub fn hash(p: &HashPayload) -> String {
        let body = match &p.entry {
            Some(e) => format!("key={} h={}", e.key, e.hash),
            None => "EMPTY".to_string(),
        };
        match p.shift_buckets {
            Some(s) => format!("slot  #{} shift+{s} {body}", p.phys),
            None => format!("ovfl  #{} {body}", p.phys),
        }
    }

    /// Hybrid tree+signature bucket.
    pub fn hybrid(p: &bda_hybrid::HybridPayload) -> String {
        use bda_hybrid::HybridPayload as H;
        match p {
            H::Index { node, .. } => btree(&bda_btree::BTreePayload::Index(node.clone())),
            H::Sig {
                sig, record_index, ..
            } => {
                format!("sig   rec#{record_index} weight={}", sig.weight())
            }
            H::Data {
                key, record_index, ..
            } => {
                format!("data  key={key} rec#{record_index}")
            }
        }
    }

    /// Signature-scheme bucket.
    pub fn sig(p: &SigPayload) -> String {
        match p {
            SigPayload::RecordSig { sig, record_index } => {
                format!("sig   rec#{record_index} weight={}", sig.weight())
            }
            SigPayload::GroupSig { sig, group_len, .. } => {
                format!("gsig  frame of {group_len} weight={}", sig.weight())
            }
            SigPayload::Data {
                key, record_index, ..
            } => {
                format!("data  key={key} rec#{record_index}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Dataset, DynSystem, ErrorModel, FlatScheme, Params, Record, Scheme};

    #[test]
    fn trace_lines_cover_the_walk() {
        let ds = Dataset::new((0..8).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let t = trace_query_channel(
            &sys,
            bda_core::Key(6),
            100,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            describe::flat,
        );
        assert!(t.outcome.found);
        assert!(t.lines.first().unwrap().contains("TUNE-IN"));
        assert!(t.lines.last().unwrap().contains("FOUND"));
        // One READ line per probe, plus tune-in and done.
        assert_eq!(t.lines.len(), t.outcome.probes as usize + 2);
        // Trace agrees with the plain probe.
        assert_eq!(t.outcome, sys.probe(bda_core::Key(6), 100));
    }

    #[test]
    fn events_account_every_tick_and_render_as_json() {
        let ds = Dataset::new((0..64).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = bda_btree::DistributedScheme::new()
            .build(&ds, &Params::paper())
            .unwrap();
        let t = trace_query_channel(
            &sys,
            bda_core::Key(40),
            1_000,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            describe::btree,
        );
        assert!(t.outcome.found);
        // One event per protocol step; the byte deltas telescope exactly.
        assert_eq!(
            t.events.iter().filter(|e| e.kind == "read").count(),
            t.outcome.probes as usize
        );
        let access: u64 = t.events.iter().map(|e| e.access).sum();
        let tuning: u64 = t.events.iter().map(|e| e.tuning).sum();
        assert_eq!(access, t.outcome.access);
        assert_eq!(tuning, t.outcome.tuning);
        assert_eq!(t.spans.total_access(), t.outcome.access);
        assert_eq!(t.spans.total_tuning(), t.outcome.tuning);
        // An indexed walk shows the full phase vocabulary in play.
        assert!(t.events.iter().any(|e| e.phase == Phase::InitialProbe));
        assert!(t.events.iter().any(|e| e.phase == Phase::IndexTraversal));
        assert!(t.events.iter().any(|e| e.phase == Phase::DataRead));
        assert!(t
            .events
            .iter()
            .any(|e| e.kind == "doze" && e.phase == Phase::Doze));
        // Dozing costs air time but no tuning.
        assert!(t
            .events
            .iter()
            .filter(|e| e.kind == "doze")
            .all(|e| e.tuning == 0));
        // JSON rendering carries the schema marker, every event, and the
        // phase table.
        let json = t.to_json("distributed", bda_core::Key(40), 1_000);
        assert!(json.contains("\"schema\": \"bda-trace/v1\""));
        assert!(json.contains("\"scheme\": \"distributed\""));
        assert_eq!(
            json.matches("{\"type\": ").count(),
            t.events.len(),
            "one JSON object per event"
        );
        assert!(json.contains("\"initial_probe\""));
        assert!(json.contains("\"found\": true"));
    }

    #[test]
    fn corrupt_reads_are_flagged_in_events() {
        let ds = Dataset::new((0..8).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let t = trace_query_channel(
            &sys,
            bda_core::Key(6),
            0,
            ChannelModel::iid(ErrorModel::new(0.5, 7)),
            RetryPolicy::UNBOUNDED,
            describe::flat,
        );
        assert!(t.outcome.found);
        assert_eq!(
            t.events.iter().filter(|e| e.corrupt).count(),
            t.outcome.retries as usize,
            "corrupt flags tie to the outcome's retry count"
        );
        assert_eq!(
            t.events.iter().filter(|e| e.phase == Phase::Retry).count(),
            t.outcome.retries as usize,
            "corrupt reads are attributed to the retry phase"
        );
    }

    #[test]
    fn burst_and_outage_traces_flag_their_cause() {
        use bda_core::{BurstModel, OutageSchedule};
        let ds = Dataset::new((0..8).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        // An i.i.d. channel traces exactly the direct walker's outcome.
        let iid = ChannelModel::iid(ErrorModel::new(0.5, 7));
        let policy = RetryPolicy::UNBOUNDED;
        let chan = trace_query_channel(&sys, bda_core::Key(6), 0, iid, policy, describe::flat);
        assert_eq!(
            chan.outcome,
            sys.probe_with_channel(bda_core::Key(6), 0, iid, policy)
        );
        // An outage-only channel marks dead reads ×OUTAGE, not ×CORRUPT.
        let faults = ChannelModel::burst(BurstModel::new(0.3, 0.3, 0.0, 1.0, 5))
            .with_outages(OutageSchedule::new(400, 120, 9));
        let t = trace_query_channel(
            &sys,
            bda_core::Key(6),
            0,
            faults,
            RetryPolicy::UNBOUNDED,
            describe::flat,
        );
        assert!(t.outcome.found);
        assert_eq!(
            t.events.iter().filter(|e| e.corrupt).count(),
            t.outcome.retries as usize,
            "outage and burst corruption both tie to the retry count"
        );
        for e in t.events.iter().filter(|e| e.outage) {
            assert!(e.corrupt, "an outage read is always corrupt");
        }
        let json = t.to_json("flat", bda_core::Key(6), 0);
        assert!(json.contains("\"outage\": "));
    }

    #[test]
    fn abandoned_traces_say_so() {
        let ds = Dataset::new((0..8).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let t = trace_query_channel(
            &sys,
            bda_core::Key(6),
            0,
            ChannelModel::iid(ErrorModel::new(1.0, 1)),
            RetryPolicy::bounded(1),
            describe::flat,
        );
        assert!(t.outcome.abandoned);
        assert!(!t.outcome.aborted);
        assert!(t.lines.last().unwrap().contains("ABANDONED"));
    }
}

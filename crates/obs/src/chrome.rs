//! Chrome Trace Event JSON export — the format Perfetto and
//! `chrome://tracing` load natively.
//!
//! We emit the *JSON Object Format* (`{"traceEvents": [...]}`) with:
//!
//! * `"B"`/`"E"` duration events for spans (arrival→exit per rank, host
//!   spans per thread),
//! * `"s"`/`"f"` flow events for message send→deliver arrows,
//! * `"M"` metadata events naming processes (lanes' group) and threads
//!   (one lane per rank / host thread).
//!
//! Timestamps are microseconds (`ts`), kept as `f64` so sub-microsecond
//! simulator times survive. [`validate_trace`] re-parses an emitted trace
//! and checks the structural invariants the property tests (and CI) rely
//! on: matched B/E pairs per lane and monotone non-negative timestamps.
//!
//! Serialization is hand-written against the vendored serde [`Content`]
//! model: the trace format needs field omission (`ts` absent on metadata
//! events) and a renamed `traceEvents` key, neither of which the offline
//! derive supports.

use std::collections::HashMap;
use std::fmt::Write as _;

use serde::{Content, Deserialize, Error, Serialize};

/// One Trace Event (a single element of `traceEvents`).
///
/// `None` fields are omitted from the JSON, keeping the output close to
/// what the format documents for each phase type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceEvent {
    /// Event name (span label, flow name, or metadata kind).
    pub(crate) name: String,
    /// Phase: `B`, `E`, `s`, `f`, `M`, …
    pub(crate) ph: String,
    /// Timestamp in microseconds. Metadata events omit it.
    pub(crate) ts: Option<f64>,
    /// Process ID (lane group).
    pub(crate) pid: u64,
    /// Thread ID (lane).
    pub(crate) tid: u64,
    /// Category list (comma-separated), e.g. `"collective"` / `"msg"`.
    pub(crate) cat: Option<String>,
    /// Flow-event binding ID (`s`/`f` pairs share one).
    pub(crate) id: Option<u64>,
    /// Flow binding point; `"e"` attaches the arrow to the enclosing slice.
    pub(crate) bp: Option<String>,
    /// Free-form arguments shown in the Perfetto detail pane.
    pub(crate) args: Option<Vec<(String, Content)>>,
}

impl TraceEvent {
    fn new(name: &str, ph: &str, pid: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            ph: ph.to_string(),
            ts: None,
            pid,
            tid,
            cat: None,
            id: None,
            bp: None,
            args: None,
        }
    }
}

impl Serialize for TraceEvent {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = vec![
            ("name".into(), Content::Str(self.name.clone())),
            ("ph".into(), Content::Str(self.ph.clone())),
        ];
        if let Some(ts) = self.ts {
            map.push(("ts".into(), Content::F64(ts)));
        }
        map.push(("pid".into(), Content::U64(self.pid)));
        map.push(("tid".into(), Content::U64(self.tid)));
        if let Some(cat) = &self.cat {
            map.push(("cat".into(), Content::Str(cat.clone())));
        }
        if let Some(id) = self.id {
            map.push(("id".into(), Content::U64(id)));
        }
        if let Some(bp) = &self.bp {
            map.push(("bp".into(), Content::Str(bp.clone())));
        }
        if let Some(args) = &self.args {
            map.push(("args".into(), Content::Map(args.clone())));
        }
        Content::Map(map)
    }
}

fn opt_field<T: Deserialize>(
    map: &[(String, Content)],
    name: &str,
) -> Result<Option<T>, Error> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, Content::Null)) | None => Ok(None),
        Some((_, v)) => T::from_content(v).map(Some),
    }
}

impl Deserialize for TraceEvent {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let map = c
            .as_map()
            .ok_or_else(|| Error::custom("trace event must be a JSON object"))?;
        Ok(TraceEvent {
            name: serde::field(map, "name")?,
            ph: serde::field(map, "ph")?,
            ts: opt_field(map, "ts")?,
            pid: opt_field(map, "pid")?.unwrap_or(0),
            tid: opt_field(map, "tid")?.unwrap_or(0),
            cat: opt_field(map, "cat")?,
            id: opt_field(map, "id")?,
            bp: opt_field(map, "bp")?,
            args: match map.iter().find(|(k, _)| k == "args") {
                Some((_, Content::Map(m))) => Some(m.clone()),
                Some((_, Content::Null)) | None => None,
                Some((_, other)) => Some(vec![("value".to_string(), other.clone())]),
            },
        })
    }
}

/// Builder for a Trace Event JSON document.
#[derive(Debug, Default, Clone)]
pub struct ChromeTrace {
    /// The events, in emission order (viewers sort by `ts` themselves).
    pub(crate) events: Vec<TraceEvent>,
    /// Top-level free-form metadata (e.g. `d_hat`, `pattern`), rendered as
    /// an `"otherData"` object when non-empty.
    pub(crate) metadata: Vec<(String, Content)>,
}

impl Serialize for ChromeTrace {
    fn to_content(&self) -> Content {
        let mut map: Vec<(String, Content)> = vec![(
            "traceEvents".into(),
            Content::Seq(self.events.iter().map(|e| e.to_content()).collect()),
        )];
        if !self.metadata.is_empty() {
            map.push(("otherData".into(), Content::Map(self.metadata.clone())));
        }
        Content::Map(map)
    }
}

impl Deserialize for ChromeTrace {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let map = c
            .as_map()
            .ok_or_else(|| Error::custom("trace must be a JSON object"))?;
        let events = match map.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, v)) => Vec::<TraceEvent>::from_content(v)?,
            None => Vec::new(),
        };
        let metadata = match map.iter().find(|(k, _)| k == "otherData") {
            Some((_, Content::Map(m))) => m.clone(),
            _ => Vec::new(),
        };
        Ok(ChromeTrace { events, metadata })
    }
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Attach a top-level metadata value (shown in the trace's
    /// `otherData`), replacing any previous value for `key`.
    pub fn set_metadata(&mut self, key: &str, value: Content) {
        self.metadata.retain(|(k, _)| k != key);
        self.metadata.push((key.to_string(), value));
    }

    /// Read back a metadata value by key.
    pub fn metadata_value(&self, key: &str) -> Option<&Content> {
        self.metadata.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Name the process (lane group) `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut ev = TraceEvent::new("process_name", "M", pid, 0);
        ev.args = Some(vec![("name".to_string(), Content::Str(name.to_string()))]);
        self.events.push(ev);
    }

    /// Name the thread (lane) `tid` within process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut ev = TraceEvent::new("thread_name", "M", pid, tid);
        ev.args = Some(vec![("name".to_string(), Content::Str(name.to_string()))]);
        self.events.push(ev);
    }

    /// Begin a duration slice on lane (`pid`, `tid`) at `ts_us`.
    pub(crate) fn begin(&mut self, pid: u64, tid: u64, name: &str, cat: &str, ts_us: f64) {
        let mut ev = TraceEvent::new(name, "B", pid, tid);
        ev.ts = Some(ts_us);
        ev.cat = Some(cat.to_string());
        self.events.push(ev);
    }

    /// Begin a duration slice with detail-pane `args`.
    pub fn begin_with_args(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        ts_us: f64,
        args: Vec<(String, Content)>,
    ) {
        let mut ev = TraceEvent::new(name, "B", pid, tid);
        ev.ts = Some(ts_us);
        ev.cat = Some(cat.to_string());
        ev.args = Some(args);
        self.events.push(ev);
    }

    /// End the innermost open slice on lane (`pid`, `tid`) at `ts_us`.
    pub fn end(&mut self, pid: u64, tid: u64, ts_us: f64) {
        let mut ev = TraceEvent::new("", "E", pid, tid);
        ev.ts = Some(ts_us);
        self.events.push(ev);
    }

    /// Start a flow arrow `id` (e.g. a message send) from lane (`pid`,
    /// `tid`) at `ts_us`. Bind with [`ChromeTrace::flow_end`].
    pub fn flow_start(&mut self, pid: u64, tid: u64, name: &str, id: u64, ts_us: f64) {
        let mut ev = TraceEvent::new(name, "s", pid, tid);
        ev.ts = Some(ts_us);
        ev.cat = Some("msg".to_string());
        ev.id = Some(id);
        self.events.push(ev);
    }

    /// Terminate flow arrow `id` on lane (`pid`, `tid`) at `ts_us`,
    /// binding to the enclosing slice (`bp: "e"`).
    pub fn flow_end(&mut self, pid: u64, tid: u64, name: &str, id: u64, ts_us: f64) {
        let mut ev = TraceEvent::new(name, "f", pid, tid);
        ev.ts = Some(ts_us);
        ev.cat = Some("msg".to_string());
        ev.id = Some(id);
        ev.bp = Some("e".to_string());
        self.events.push(ev);
    }

    /// Convert drained host spans into duration slices, one lane per
    /// recording thread, under process `pid`.
    ///
    /// Spans within one thread are properly nested (RAII guards follow
    /// stack discipline), so B/E events are interleaved via an end-time
    /// stack to keep each lane's emission order timestamp-monotone.
    pub(crate) fn push_spans(&mut self, pid: u64, spans: &[crate::trace::SpanRecord]) {
        let mut by_thread: std::collections::BTreeMap<u64, Vec<&crate::trace::SpanRecord>> =
            std::collections::BTreeMap::new();
        for s in spans {
            by_thread.entry(s.thread).or_default().push(s);
        }
        for (tid, mut list) in by_thread {
            // Outer spans first: by start ascending, then end descending.
            list.sort_by(|a, b| {
                a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns))
            });
            let mut open_ends: Vec<u64> = Vec::new();
            for s in list {
                while open_ends.last().is_some_and(|&e| e <= s.start_ns) {
                    let e = open_ends.pop().expect("checked non-empty");
                    self.end(pid, tid, e as f64 / 1_000.0);
                }
                self.begin(pid, tid, s.name, s.cat, s.start_ns as f64 / 1_000.0);
                open_ends.push(s.end_ns);
            }
            while let Some(e) = open_ends.pop() {
                self.end(pid, tid, e as f64 / 1_000.0);
            }
        }
    }

    /// Serialize to pretty JSON.
    ///
    /// # Panics
    /// Never panics: the structure serializes through the vendored serde
    /// data model, which has no fallible paths for these shapes.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Write the trace to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

/// Build a host-span trace (one process, one lane per thread) from drained
/// spans — the shape `--metrics` runs export.
pub fn from_spans(spans: &[crate::trace::SpanRecord]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.process_name(0, "host");
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in &threads {
        trace.thread_name(0, *t, &format!("thread {t}"));
    }
    trace.push_spans(0, spans);
    trace
}

/// Structural summary returned by [`validate_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub(crate) events: usize,
    /// Completed B/E slice pairs.
    pub slices: usize,
    /// Flow `s`/`f` pairs sharing an ID.
    pub flows: usize,
    /// Distinct (pid, tid) lanes carrying at least one slice.
    pub lanes: usize,
}

/// Parse `json` as Trace Event JSON and check structural invariants:
///
/// * well-formed object format with a `traceEvents` array;
/// * every `B` has a matching later `E` on the same (pid, tid) lane and
///   vice versa (properly nested);
/// * timestamps are finite, non-negative and monotonically non-decreasing
///   per lane;
/// * every flow ID occurs as both `s` and `f`.
///
/// Returns lane/slice/flow counts on success, a description of the first
/// violation on failure.
pub fn validate_trace(json: &str) -> Result<TraceStats, String> {
    let trace: ChromeTrace =
        serde_json::from_str(json).map_err(|e| format!("not valid Trace Event JSON: {e}"))?;

    let mut stats = TraceStats { events: trace.events.len(), ..TraceStats::default() };
    // Per-lane open-slice stack depth and last timestamp.
    let mut open: HashMap<(u64, u64), usize> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut lanes_with_slices: HashMap<(u64, u64), ()> = HashMap::new();
    let mut flow_starts: HashMap<u64, usize> = HashMap::new();
    let mut flow_ends: HashMap<u64, usize> = HashMap::new();

    for (i, ev) in trace.events.iter().enumerate() {
        let lane = (ev.pid, ev.tid);
        if ev.ph != "M" {
            let ts = ev
                .ts
                .ok_or_else(|| format!("event #{i} ({}) has no timestamp", ev.ph))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(format!("event #{i} has invalid timestamp {ts}"));
            }
            if let Some(&prev) = last_ts.get(&lane) {
                if ts < prev {
                    return Err(format!(
                        "lane (pid {}, tid {}) timestamps not monotone: {prev} then {ts} at event #{i}",
                        ev.pid, ev.tid
                    ));
                }
            }
            last_ts.insert(lane, ts);
        }
        match ev.ph.as_str() {
            "B" => {
                *open.entry(lane).or_insert(0) += 1;
                lanes_with_slices.insert(lane, ());
            }
            "E" => {
                let depth = open.entry(lane).or_insert(0);
                if *depth == 0 {
                    return Err(format!(
                        "lane (pid {}, tid {}) has 'E' without matching 'B' at event #{i}",
                        ev.pid, ev.tid
                    ));
                }
                *depth -= 1;
                stats.slices += 1;
            }
            "s" => {
                let id = ev.id.ok_or_else(|| format!("flow start #{i} has no id"))?;
                *flow_starts.entry(id).or_insert(0) += 1;
            }
            "f" => {
                let id = ev.id.ok_or_else(|| format!("flow end #{i} has no id"))?;
                *flow_ends.entry(id).or_insert(0) += 1;
            }
            "M" => {}
            other => return Err(format!("event #{i} has unsupported phase '{other}'")),
        }
    }

    for (lane, depth) in &open {
        if *depth != 0 {
            return Err(format!(
                "lane (pid {}, tid {}) ends with {depth} unclosed 'B' event(s)",
                lane.0, lane.1
            ));
        }
    }
    for (id, n) in &flow_starts {
        let ends = flow_ends.get(id).copied().unwrap_or(0);
        if ends != *n {
            return Err(format!("flow id {id} has {n} start(s) but {ends} end(s)"));
        }
        stats.flows += n;
    }
    for id in flow_ends.keys() {
        if !flow_starts.contains_key(id) {
            return Err(format!("flow id {id} has an end but no start"));
        }
    }
    stats.lanes = lanes_with_slices.len();
    Ok(stats)
}

/// Render a one-line human summary of [`TraceStats`].
pub fn describe(stats: &TraceStats) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{} events, {} slices across {} lanes, {} flow arrows",
        stats.events, stats.slices, stats.lanes, stats.flows
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(1, "sim");
        t.thread_name(1, 0, "rank 0");
        t.thread_name(1, 1, "rank 1");
        t.begin(1, 0, "reduce", "collective", 10.0);
        t.flow_start(1, 0, "msg", 7, 12.0);
        t.end(1, 0, 20.0);
        t.begin(1, 1, "reduce", "collective", 11.0);
        t.flow_end(1, 1, "msg", 7, 15.0);
        t.end(1, 1, 25.0);
        t.set_metadata("d_hat", Content::F64(1.5e-5));
        t
    }

    #[test]
    fn round_trip_validates() {
        let json = sample().to_json_string();
        let stats = validate_trace(&json).expect("sample trace must validate");
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.lanes, 2);
        assert_eq!(stats.flows, 1);
        assert!(describe(&stats).contains("2 slices"));
    }

    /// 32 000 events validate in well under 5 s, even unoptimized. A JSON
    /// string parser that rescans the rest of the input for every character
    /// made this quadratic (minutes for a trace this size).
    #[test]
    fn large_trace_validates_in_linear_time() {
        let mut t = ChromeTrace::new();
        for i in 0..16_000u64 {
            let (tid, ts) = (i % 8, i as f64);
            t.begin(1, tid, "pool.task", "host", ts);
            t.end(1, tid, ts + 0.5);
        }
        let (json, start) = (t.to_json_string(), std::time::Instant::now());
        let stats = validate_trace(&json).expect("large trace must validate");
        let took = start.elapsed();
        assert_eq!((stats.events, stats.slices, stats.lanes), (32_000, 16_000, 8));
        assert!(took < std::time::Duration::from_secs(5), "validate_trace took {took:?}");
    }

    #[test]
    fn metadata_round_trips() {
        let json = sample().to_json_string();
        let back: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metadata_value("d_hat"), Some(&Content::F64(1.5e-5)));
        assert_eq!(back.events, sample().events);
    }

    #[test]
    fn none_fields_are_omitted_from_json() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "p");
        t.begin(0, 0, "x", "c", 1.0);
        t.end(0, 0, 2.0);
        let json = t.to_json_string();
        // Metadata events carry no ts; slices carry no id/bp/args.
        assert!(!json.contains("\"id\""), "{json}");
        assert!(!json.contains("\"bp\""), "{json}");
        assert!(!json.contains("null"), "{json}");
    }

    #[test]
    fn unbalanced_end_is_rejected() {
        let mut t = ChromeTrace::new();
        t.end(0, 0, 5.0);
        let err = validate_trace(&t.to_json_string()).unwrap_err();
        assert!(err.contains("without matching 'B'"), "{err}");
    }

    #[test]
    fn unclosed_begin_is_rejected() {
        let mut t = ChromeTrace::new();
        t.begin(0, 0, "x", "c", 1.0);
        let err = validate_trace(&t.to_json_string()).unwrap_err();
        assert!(err.contains("unclosed 'B'"), "{err}");
    }

    #[test]
    fn non_monotone_lane_is_rejected() {
        let mut t = ChromeTrace::new();
        t.begin(0, 0, "x", "c", 10.0);
        t.end(0, 0, 5.0);
        let err = validate_trace(&t.to_json_string()).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn dangling_flow_is_rejected() {
        let mut t = ChromeTrace::new();
        t.begin(0, 0, "x", "c", 1.0);
        t.flow_start(0, 0, "msg", 3, 2.0);
        t.end(0, 0, 4.0);
        let err = validate_trace(&t.to_json_string()).unwrap_err();
        assert!(err.contains("flow id 3"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_trace("not json").is_err());
        assert_eq!(validate_trace("{}").unwrap().events, 0);
    }

    #[test]
    fn nested_spans_on_one_thread_stay_monotone() {
        let spans = vec![
            crate::trace::SpanRecord {
                cat: "sim",
                name: "outer",
                start_ns: 1_000,
                end_ns: 9_000,
                thread: 0,
            },
            crate::trace::SpanRecord {
                cat: "sim",
                name: "inner",
                start_ns: 2_000,
                end_ns: 3_000,
                thread: 0,
            },
            crate::trace::SpanRecord {
                cat: "sim",
                name: "later",
                start_ns: 4_000,
                end_ns: 5_000,
                thread: 0,
            },
        ];
        let trace = from_spans(&spans);
        let stats = validate_trace(&trace.to_json_string()).unwrap();
        assert_eq!(stats.slices, 3);
        assert_eq!(stats.lanes, 1);
    }

    #[test]
    fn host_spans_export() {
        let spans = vec![
            crate::trace::SpanRecord {
                cat: "sim",
                name: "run",
                start_ns: 1_000,
                end_ns: 4_000,
                thread: 0,
            },
            crate::trace::SpanRecord {
                cat: "pool",
                name: "task",
                start_ns: 2_000,
                end_ns: 3_000,
                thread: 1,
            },
        ];
        let trace = from_spans(&spans);
        let stats = validate_trace(&trace.to_json_string()).unwrap();
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.lanes, 2);
    }
}

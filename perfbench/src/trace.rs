//! Spans recorded by the benchmark around its calls into each layer, and
//! their export through the `pap-obs` Chrome exporter.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pap_obs::SpanRecord;

/// Category of every span the benchmark itself opens (the library's own
/// spans keep theirs: `sim`, `bench`, `pool`).
pub const CAT: &str = "perfbench";

/// Run `f` inside a span named `name` (a no-op gate when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = pap_obs::span(CAT, name);
    f()
}

/// A `'static` span name built at run time. Span names must be `'static`
/// (recording never allocates); the benchmark builds a bounded set of them
/// (a few per engine job), so leaking them is deliberate.
pub fn name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Captures every span recorded while it is active, from every thread.
pub struct Capture {
    sink: Arc<Mutex<Vec<SpanRecord>>>,
}

impl Capture {
    /// Enable span recording and stream the per-thread rings into memory
    /// (the library pumps them between sweep cells, so long runs never
    /// overflow a ring).
    pub fn start() -> Capture {
        let sink: Arc<Mutex<Vec<SpanRecord>>> = Arc::default();
        let writer = Arc::clone(&sink);
        pap_obs::set_span_stream(Some(Box::new(move |spans: &[SpanRecord]| {
            writer
                .lock()
                .expect("span sink poisoned")
                .extend_from_slice(spans);
        })));
        pap_obs::drain_spans();
        pap_obs::trace::dropped_spans();
        pap_obs::set_enabled(true);
        Capture { sink }
    }

    /// Stop recording and return every span, ordered by start time, plus
    /// the number lost to ring overflow.
    pub fn finish(self) -> (Vec<SpanRecord>, u64) {
        pap_obs::set_enabled(false);
        pap_obs::pump_spans();
        pap_obs::set_span_stream(None);
        let mut spans = std::mem::take(&mut *self.sink.lock().expect("span sink poisoned"));
        spans.extend(pap_obs::drain_spans());
        spans.sort_by_key(|s| (s.start_ns, s.thread));
        (spans, pap_obs::trace::dropped_spans())
    }
}

/// Durations in milliseconds of the benchmark's own spans, by name, in
/// recording order.
pub fn durations_ms(spans: &[SpanRecord]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.cat == CAT) {
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    out
}

/// Durations in milliseconds of the library's own spans with this
/// category and name that started within `[from_ns, to_ns]`.
pub fn library_durations_ms(
    spans: &[SpanRecord],
    cat: &str,
    name: &str,
    from_ns: u64,
    to_ns: u64,
) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.cat == cat && s.name == name && (from_ns..=to_ns).contains(&s.start_ns))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Spans of each (category, name) kept in the exported trace.
/// `validate_trace` is quadratic in the trace size (4 000 events take
/// about 0.8 s to validate, 32 000 about 56 s on the reference host), so
/// the file holds a sample of every layer: the first spans of each name.
/// Any subset of properly nested spans is still properly nested.
pub const EXPORT_PER_NAME: usize = 40;

/// Export a sample of the spans (see [`EXPORT_PER_NAME`]) as Chrome Trace
/// Event JSON, check it with the exporter's own validator, and return the
/// JSON with its slice count.
pub fn export(spans: &[SpanRecord]) -> Result<(String, usize), String> {
    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let sample: Vec<SpanRecord> = spans
        .iter()
        .filter(|s| {
            let n = seen.entry((s.cat, s.name)).or_default();
            *n += 1;
            *n <= EXPORT_PER_NAME
        })
        .copied()
        .collect();
    let json = pap_obs::chrome::from_spans(&sample).to_json_string();
    let stats = pap_obs::validate_trace(&json)?;
    Ok((json, stats.slices))
}

//! Span export in Chrome Trace Event Format.
//!
//! The renderer is a pure function of the span records, so output is
//! byte-deterministic for a fixed input — which is what lets the golden
//! tests pin it.

use crate::json::Value;
use crate::span::{AttrValue, Span};

/// Renders spans in Chrome Trace Event Format — load the result in
/// <https://ui.perfetto.dev> (or `chrome://tracing`) for a flamegraph.
///
/// Every span becomes one complete (`"ph":"X"`) event with microsecond
/// `ts`/`dur`, `pid` fixed at 1 and `tid` set to the telemetry thread id;
/// the span/parent ids ride along in `args` so the job → stage → shard
/// hierarchy survives even across threads.
pub fn trace_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("span_id", Value::from(span.id.0)),
                ("parent_id", Value::from(span.parent.0)),
            ];
            args.extend(span.attrs.iter().map(|&(key, value)| {
                let value = match value {
                    AttrValue::U64(n) => Value::from(n),
                    AttrValue::Str(s) => Value::from(s),
                };
                (key, value)
            }));
            Value::object([
                ("name", Value::from(span.name)),
                ("ph", Value::from("X")),
                ("ts", Value::from(span.start_micros)),
                ("dur", Value::from(span.duration_micros)),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(span.thread)),
                ("args", Value::object(args)),
            ])
        })
        .collect();
    Value::object([("traceEvents", Value::Array(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn span(id: u64, parent: u64, name: &'static str) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            thread: 1,
            start_micros: 10 * id,
            duration_micros: 5,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn sanitizes_quotes_and_controls() {
        let mut s = span(1, 0, "job");
        s.attrs.push(("tenant", AttrValue::Str("a\"b\\c\nd")));
        let json = trace_json(&[s]);
        assert!(json.contains(r#""tenant":"a\"b\\c\nd""#));
        let parsed = crate::json::parse(&json).unwrap();
        let event = &parsed.get("traceEvents").unwrap().as_array().unwrap()[0];
        let tenant = event.get("args").and_then(|a| a.get("tenant"));
        assert_eq!(tenant.and_then(Value::as_str), Some("a\"b\\c\nd"));
    }

    #[test]
    fn trace_json_shapes_events() {
        let json = trace_json(&[span(1, 0, "job"), span(2, 1, "compile")]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"span_id\":2,\"parent_id\":1"));
    }
}

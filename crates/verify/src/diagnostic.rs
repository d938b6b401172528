//! The diagnostic model: severities, op-index spans, findings and reports.
//!
//! Every rule reports its findings as [`Diagnostic`]s collected into a
//! [`VerifyReport`]. Diagnostics render as single-level JSON objects through
//! the workspace codec ([`telemetry::json`]), so findings can travel over the
//! existing job-server endpoints unchanged.

use telemetry::json::Value;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing is wrong, the rule is reporting context
    /// (e.g. "equivalence spot check skipped: register too large").
    Info,
    /// Suspicious but not provably illegal; the artifact may still run.
    Warning,
    /// The artifact violates a hard invariant and must not run.
    Error,
}

impl Severity {
    /// Lower-case name used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A half-open `[start, end)` range of operation indices a finding points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Index of the first operation covered.
    pub start: usize,
    /// One past the last operation covered.
    pub end: usize,
}

impl Span {
    /// Span covering the single operation at `index`.
    pub fn op(index: usize) -> Span {
        Span {
            start: index,
            end: index + 1,
        }
    }

    /// Span covering `[start, end)`.
    pub fn range(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

/// One finding produced by a verification rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    severity: Severity,
    rule: &'static str,
    span: Option<Span>,
    message: String,
    /// Telemetry span id of the job the finding was produced under (see the
    /// `telemetry` crate); lets a server metrics consumer correlate a
    /// `verify_errors` count back to the exact traced request.
    trace_span: Option<u64>,
}

impl Diagnostic {
    /// A new finding with the given severity.
    pub fn new(severity: Severity, rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity,
            rule,
            span: None,
            message: message.into(),
            trace_span: None,
        }
    }

    /// An [`Severity::Error`]-level finding.
    pub fn error(rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Error, rule, message)
    }

    /// A [`Severity::Warning`]-level finding.
    pub fn warning(rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Warning, rule, message)
    }

    /// An [`Severity::Info`]-level finding.
    pub fn info(rule: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Info, rule, message)
    }

    /// Attaches an op-index span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches a single-operation span.
    pub fn at_op(self, index: usize) -> Diagnostic {
        self.with_span(Span::op(index))
    }

    /// Attaches the telemetry span id of the job this finding belongs to,
    /// correlating it to a traced request (id 0 — "no span" — is treated as
    /// absent and not rendered).
    pub fn with_trace_span(mut self, span_id: u64) -> Diagnostic {
        self.trace_span = (span_id != 0).then_some(span_id);
        self
    }

    /// The finding's severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The id of the rule that produced the finding (e.g. `"route/coupling"`).
    pub fn rule(&self) -> &'static str {
        self.rule
    }

    /// The op-index span, if the finding points at specific operations.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The correlated telemetry span id, when one was attached.
    pub fn trace_span(&self) -> Option<u64> {
        self.trace_span
    }

    /// The finding as a JSON object: `severity`, `rule`, then `start`/`end`
    /// when the finding has a span, `trace_span` when one is attached, and
    /// `message`.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("severity", Value::from(self.severity.as_str())),
            ("rule", Value::from(self.rule)),
        ];
        if let Some(span) = self.span {
            fields.push(("start", Value::from(span.start)));
            fields.push(("end", Value::from(span.end)));
        }
        if let Some(trace_span) = self.trace_span {
            fields.push(("trace_span", Value::from(trace_span)));
        }
        fields.push(("message", Value::from(self.message.as_str())));
        Value::object(fields)
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(span) = self.span {
            if span.end == span.start + 1 {
                write!(f, " op {}", span.start)?;
            } else {
                write!(f, " ops {}..{}", span.start, span.end)?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// The findings of one verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty report.
    pub fn new() -> VerifyReport {
        VerifyReport::default()
    }

    /// Wraps a list of findings.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> VerifyReport {
        VerifyReport { diagnostics }
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in the order the rules produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the report, yielding its findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Number of findings with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// Number of [`Severity::Error`] findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of [`Severity::Warning`] findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// True when the report contains at least one error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when the report contains no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The report as a JSON array of [`Diagnostic::to_json`] objects.
    pub fn to_json(&self) -> Value {
        Value::Array(self.diagnostics.iter().map(Diagnostic::to_json).collect())
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn json_omits_missing_span() {
        let d = Diagnostic::error("rule/x", "broken");
        assert_eq!(
            d.to_json().to_string(),
            r#"{"severity":"error","rule":"rule/x","message":"broken"}"#
        );
    }

    #[test]
    fn json_includes_span_fields() {
        let d = Diagnostic::warning("rule/y", "odd").at_op(7);
        assert_eq!(
            d.to_json().to_string(),
            r#"{"severity":"warning","rule":"rule/y","start":7,"end":8,"message":"odd"}"#
        );
    }

    #[test]
    fn json_carries_trace_span_only_when_attached() {
        let d = Diagnostic::error("rule/x", "broken").with_trace_span(42);
        assert_eq!(d.trace_span(), Some(42));
        assert_eq!(
            d.to_json().to_string(),
            r#"{"severity":"error","rule":"rule/x","trace_span":42,"message":"broken"}"#
        );
        // Id 0 means "no span" and renders nothing.
        let none = Diagnostic::error("rule/x", "broken").with_trace_span(0);
        assert_eq!(none.trace_span(), None);
        assert!(none.to_json().get("trace_span").is_none());
    }

    #[test]
    fn json_replaces_unrepresentable_characters() {
        // Quotes, backslashes and control characters become RFC 8259 escapes.
        let d = Diagnostic::info("rule/z", "a \"quoted\\\" message\n");
        assert_eq!(
            d.to_json().to_string(),
            r#"{"severity":"info","rule":"rule/z","message":"a \"quoted\\\" message\n"}"#
        );
        let parsed = telemetry::json::parse(&d.to_json().to_string()).unwrap();
        assert_eq!(
            parsed.get("message").and_then(Value::as_str),
            Some(d.message())
        );
    }

    #[test]
    fn report_counts_and_json_array() {
        let mut r = VerifyReport::new();
        r.push(Diagnostic::error("a", "one"));
        r.push(Diagnostic::warning("b", "two").at_op(0));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        let json = r.to_json().to_string();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("severity").count(), 2);
    }

    #[test]
    fn display_mentions_span() {
        let d = Diagnostic::error("r", "bad").at_op(3);
        assert_eq!(format!("{d}"), "error[r] op 3: bad");
    }
}

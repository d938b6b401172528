//! Wire format for compile/simulate requests and responses.
//!
//! Requests describe *workloads* (tenant, instruction set, generator, size,
//! seed), not serialized circuits: both ends of the wire own the same
//! deterministic generators ([`apps::workloads`]), so a handful of scalars
//! reproduces any circuit bit-for-bit — the same trick the paper's sweep
//! binaries use to name their workloads.
//!
//! A message is one JSON object whose values are strings or unsigned
//! integers, read and written with the workspace codec
//! ([`telemetry::json`]), so any RFC 8259 client can talk to the server.

use sim::FusionPolicy;
use telemetry::json::{self, Value};

/// Canonical wire spelling of a fusion policy.
pub(crate) fn fusion_as_str(policy: FusionPolicy) -> &'static str {
    match policy {
        FusionPolicy::Off => "off",
        FusionPolicy::Safe => "safe",
        FusionPolicy::Aggressive => "aggressive",
    }
}

fn fusion_from_str(text: &str) -> Result<FusionPolicy, WireError> {
    match text {
        "off" => Ok(FusionPolicy::Off),
        "safe" => Ok(FusionPolicy::Safe),
        "aggressive" => Ok(FusionPolicy::Aggressive),
        other => Err(WireError::new(format!(
            "unknown fusion {other:?} (expected \"off\", \"safe\" or \"aggressive\")"
        ))),
    }
}

/// What a job should do after compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOp {
    /// Compile only; report circuit and cache statistics.
    Compile,
    /// Compile, then sample the compiled circuit under the device's
    /// calibrated noise.
    Simulate {
        /// Number of measurement shots.
        shots: usize,
    },
}

/// Which deterministic workload generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Quantum-volume model circuit ([`apps::workloads::qv_circuit`]).
    Qv,
    /// Hardware-style QAOA instance ([`apps::workloads::qaoa_circuit`]).
    Qaoa,
}

impl WorkloadKind {
    fn as_str(&self) -> &'static str {
        match self {
            WorkloadKind::Qv => "qv",
            WorkloadKind::Qaoa => "qaoa",
        }
    }
}

/// One compile-or-simulate request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Tenant namespace; each tenant gets its own decomposition cache.
    pub tenant: String,
    /// Table II instruction-set name (e.g. `"G3"`, case-insensitive).
    pub set: String,
    /// Workload generator.
    pub workload: WorkloadKind,
    /// Number of logical qubits.
    pub qubits: usize,
    /// Seed of the workload generator.
    pub seed: u64,
    /// Compile only, or compile then simulate.
    pub op: JobOp,
    /// Gate-fusion policy for the simulation engine. `None` uses the server's
    /// configured engine unchanged; `Some` selects the engine variant running
    /// that policy (`"off"`, `"safe"` or `"aggressive"` on the wire).
    pub fusion: Option<FusionPolicy>,
}

impl JobRequest {
    /// Encodes the request as a compact JSON object.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("tenant", Value::from(self.tenant.as_str())),
            ("set", Value::from(self.set.as_str())),
            ("workload", Value::from(self.workload.as_str())),
            ("qubits", Value::from(self.qubits)),
            ("seed", Value::from(self.seed)),
        ];
        match self.op {
            JobOp::Compile => fields.push(("op", Value::from("compile"))),
            JobOp::Simulate { shots } => {
                fields.push(("op", Value::from("simulate")));
                fields.push(("shots", Value::from(shots)));
            }
        }
        if let Some(policy) = self.fusion {
            fields.push(("fusion", Value::from(fusion_as_str(policy))));
        }
        Value::object(fields).to_string()
    }

    /// Parses a request: any JSON object with the fields
    /// [`JobRequest::encode`] writes, in any order and spacing. Unknown
    /// fields are ignored, but every value must be a string or an unsigned
    /// integer.
    pub fn parse(text: &str) -> Result<JobRequest, WireError> {
        if !text.trim_start().starts_with('{') {
            return Err(WireError::new("expected '{': a request is one JSON object"));
        }
        let fields = json::parse(text).map_err(|e| WireError::new(e.to_string()))?;
        if let Value::Object(members) = &fields {
            let flat = |v: &Value| v.as_str().is_some() || v.as_u64().is_some();
            if let Some((key, _)) = members.iter().find(|(_, v)| !flat(v)) {
                return Err(WireError::new(format!(
                    "field `{key}`: values must be strings or unsigned integers"
                )));
            }
        }
        let tenant = require_str(&fields, "tenant")?.to_string();
        if tenant.is_empty() {
            return Err(WireError::new("field `tenant` must be non-empty"));
        }
        let set = require_str(&fields, "set")?.to_string();
        let workload = match require_str(&fields, "workload")? {
            "qv" => WorkloadKind::Qv,
            "qaoa" => WorkloadKind::Qaoa,
            other => {
                return Err(WireError::new(format!(
                    "unknown workload {other:?} (expected \"qv\" or \"qaoa\")"
                )))
            }
        };
        let qubits = require_num(&fields, "qubits")? as usize;
        let seed = require_num(&fields, "seed")?;
        let op = match require_str(&fields, "op")? {
            "compile" => JobOp::Compile,
            "simulate" => JobOp::Simulate {
                shots: require_num(&fields, "shots")? as usize,
            },
            other => {
                return Err(WireError::new(format!(
                    "unknown op {other:?} (expected \"compile\" or \"simulate\")"
                )))
            }
        };
        let fusion = match fields.get("fusion") {
            None => None,
            Some(_) => Some(fusion_from_str(require_str(&fields, "fusion")?)?),
        };
        Ok(JobRequest {
            tenant,
            set,
            workload,
            qubits,
            seed,
            op,
            fusion,
        })
    }
}

/// Simulation half of a [`JobResponse`], present for `op = simulate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSummary {
    /// Shots executed.
    pub shots: usize,
    /// Wall-clock of the sampling phase, microseconds.
    pub simulate_micros: u64,
    /// Number of distinct measured outcomes (a cheap sanity statistic that
    /// does not bloat the wire with a full histogram).
    pub distinct_outcomes: usize,
    /// Fusion policy the engine actually ran (the request's choice, or the
    /// server engine's default when the request left it unset).
    pub fusion: FusionPolicy,
}

/// What a completed job reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResponse {
    /// Echo of the request's tenant.
    pub tenant: String,
    /// Echo of the request's instruction set (canonical Table II casing).
    pub set: String,
    /// Two-qubit hardware gates in the compiled circuit.
    pub two_qubit_gates: usize,
    /// Routing SWAPs inserted before decomposition.
    pub swap_count: usize,
    /// Decomposition-cache hits during this compile.
    pub cache_hits: usize,
    /// Decomposition-cache misses during this compile.
    pub cache_misses: usize,
    /// Wall-clock of the compile phase, microseconds.
    pub compile_micros: u64,
    /// Present when the job also simulated.
    pub sim: Option<SimSummary>,
}

impl JobResponse {
    /// Encodes the response as a compact JSON object.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("tenant", Value::from(self.tenant.as_str())),
            ("set", Value::from(self.set.as_str())),
            ("two_qubit_gates", Value::from(self.two_qubit_gates)),
            ("swap_count", Value::from(self.swap_count)),
            ("cache_hits", Value::from(self.cache_hits)),
            ("cache_misses", Value::from(self.cache_misses)),
            ("compile_micros", Value::from(self.compile_micros)),
        ];
        if let Some(sim) = &self.sim {
            fields.push(("shots", Value::from(sim.shots)));
            fields.push(("simulate_micros", Value::from(sim.simulate_micros)));
            fields.push(("distinct_outcomes", Value::from(sim.distinct_outcomes)));
            fields.push(("fusion", Value::from(fusion_as_str(sim.fusion))));
        }
        Value::object(fields).to_string()
    }
}

/// A malformed wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    reason: String,
}

impl WireError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        WireError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message: {}", self.reason)
    }
}

impl std::error::Error for WireError {}

fn require<'a>(fields: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    fields
        .get(key)
        .ok_or_else(|| WireError::new(format!("missing field `{key}`")))
}

fn require_str<'a>(fields: &'a Value, key: &str) -> Result<&'a str, WireError> {
    require(fields, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be a string")))
}

fn require_num(fields: &Value, key: &str) -> Result<u64, WireError> {
    require(fields, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be an unsigned integer")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> JobRequest {
        JobRequest {
            tenant: "team-a".into(),
            set: "G3".into(),
            workload: WorkloadKind::Qaoa,
            qubits: 3,
            seed: 42,
            op: JobOp::Simulate { shots: 256 },
            fusion: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        let req = sample();
        assert_eq!(JobRequest::parse(&req.encode()).unwrap(), req);

        let compile_only = JobRequest {
            op: JobOp::Compile,
            ..sample()
        };
        assert_eq!(
            JobRequest::parse(&compile_only.encode()).unwrap(),
            compile_only
        );
    }

    #[test]
    fn fusion_field_round_trips_and_defaults_to_unset() {
        for policy in [
            FusionPolicy::Off,
            FusionPolicy::Safe,
            FusionPolicy::Aggressive,
        ] {
            let req = JobRequest {
                fusion: Some(policy),
                ..sample()
            };
            let text = req.encode();
            assert!(text.contains(&format!("\"fusion\":\"{}\"", fusion_as_str(policy))));
            assert_eq!(JobRequest::parse(&text).unwrap(), req);
        }
        // Absent on the wire means "server's engine decides".
        let req = sample();
        assert!(!req.encode().contains("fusion"));
        assert_eq!(JobRequest::parse(&req.encode()).unwrap().fusion, None);
        // Unknown spellings are rejected with the reason.
        let text = r#"{"tenant":"t","set":"G3","workload":"qv","qubits":3,"seed":1,
                       "op":"compile","fusion":"turbo"}"#;
        let err = JobRequest::parse(text).unwrap_err();
        assert!(err.to_string().contains("unknown fusion"));
    }

    #[test]
    fn parser_accepts_whitespace_and_any_field_order() {
        let text = r#" { "op" : "compile" , "seed": 7, "qubits": 4,
                         "workload": "qv", "set": "S3", "tenant": "t" } "#;
        let req = JobRequest::parse(text).unwrap();
        assert_eq!(req.set, "S3");
        assert_eq!(req.op, JobOp::Compile);
        assert_eq!(req.qubits, 4);
    }

    #[test]
    fn malformed_requests_are_rejected_with_the_reason() {
        let cases = [
            ("{}", "missing field `tenant`"),
            (r#"{"tenant":"t"}"#, "missing field `set`"),
            (r#"{"tenant":""}"#, "non-empty"),
            (r#"{"tenant":3}"#, "must be a string"),
            (r#"{"tenant":"t","tenant":"u"}"#, "duplicate"),
            (r#"{"tenant":"t" "set":"G3"}"#, "expected ',' or '}'"),
            (r#"{"tenant":"t"} trailing"#, "trailing"),
            ("{\"tenant\":\"t\nx\"}", "control character"),
            (r#"{"tenant":"t","qubits":03}"#, "leading zero"),
            (r#"{"tenant":"t","qubits":-1}"#, "unsigned integers"),
            (r#"{"tenant":"t","seed":[1]}"#, "unsigned integers"),
            (r#"{"tenant":"t\ud800"}"#, "lone surrogate"),
            ("not json", "expected '{'"),
        ];
        for (text, needle) in cases {
            let err = JobRequest::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: {err} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn escapes_in_strings_decode() {
        let text = r#"{"tenant":"a\u0062\"\\","set":"G\u0033","workload":"qv","qubits":3,
                       "seed":1,"op":"compile"}"#;
        let req = JobRequest::parse(text).unwrap();
        assert_eq!((req.tenant.as_str(), req.set.as_str()), ("ab\"\\", "G3"));
    }

    /// Every character a string encoder must get right: quotes, backslashes,
    /// all kinds of C0 control, U+2028, multi-byte and non-BMP characters.
    const ALPHABET: &[char] = &[
        '"', '\\', '/', '\u{0}', '\u{8}', '\t', '\n', '\u{c}', '\r', '\u{1b}', '\u{1f}', '\u{7f}',
        '\u{2028}', 'é', '😀', '𝄞', 'a', ' ', '{', ':', ',',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn hostile_strings_round_trip_through_the_codec_and_the_wire(
            picks in proptest::collection::vec(0..ALPHABET.len(), 1..32),
            split in 1usize..32,
            seed in 0u64..u64::MAX,
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            let tenant: String = text.chars().take(split).collect();
            let value = Value::object([(tenant.as_str(), Value::from(text.as_str()))]);
            prop_assert_eq!(json::parse(&value.to_string()).unwrap(), value.clone());
            prop_assert_eq!(json::parse(&format!("{value:#}")).unwrap(), value);

            let req = JobRequest { tenant, set: text, seed, ..sample() };
            let wire = req.encode();
            prop_assert!(!wire.chars().any(|c| c < ' '));
            prop_assert_eq!(JobRequest::parse(&wire).unwrap(), req);
        }
    }

    #[test]
    fn simulate_requires_shots() {
        let text =
            r#"{"tenant":"t","set":"G3","workload":"qv","qubits":3,"seed":1,"op":"simulate"}"#;
        let err = JobRequest::parse(text).unwrap_err();
        assert!(err.to_string().contains("shots"));
    }

    #[test]
    fn responses_encode_flat_json() {
        let resp = JobResponse {
            tenant: "t".into(),
            set: "G3".into(),
            two_qubit_gates: 12,
            swap_count: 2,
            cache_hits: 10,
            cache_misses: 2,
            compile_micros: 1500,
            sim: Some(SimSummary {
                shots: 256,
                simulate_micros: 900,
                distinct_outcomes: 8,
                fusion: FusionPolicy::Aggressive,
            }),
        };
        let text = resp.encode();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"two_qubit_gates\":12"));
        assert!(text.contains("\"shots\":256"));
        assert!(text.contains("\"fusion\":\"aggressive\""));
        // Compile-only responses omit the simulation fields entirely.
        let compile_only = JobResponse { sim: None, ..resp };
        assert!(!compile_only.encode().contains("shots"));
    }
}

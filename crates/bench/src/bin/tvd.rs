//! Statistical fusion-equivalence harness: `Aggressive` fusion rewrites the
//! channel stream (conjugation past unitaries, composition, tensor
//! embedding), so its RNG consumption differs from `Safe` and counts are
//! compared statistically instead of bit-exactly. The harness runs the same
//! seed-pinned noisy layered workload under both policies, measures the
//! empirical total-variation distance between the two count histograms, and
//! checks it against the analytic two-sample concentration bound from
//! [`verify::tvd_bound`] (the `fusion/tvd-bound` rule, per-qubit marginals
//! plus the full distribution when samples allow).
//!
//! ```text
//! cargo run --release -p bench --bin tvd -- --smoke   # CI: 4 qubits, 800 shots
//! cargo run --release -p bench --bin tvd              # 6 qubits, 4000 shots
//! ```
//!
//! A JSON report is printed to stdout; the process exits nonzero when the
//! statistical verifier reports an error-level finding (observed TVD above
//! the bound — the distributions are identical by construction, so that
//! would mean the aggressive lowering changed the sampled distribution).

use bench::{all_depolarizing_noise, trace_sink_from_args, write_trace_or_exit};
use circuit::{Circuit, Operation};
use qmath::RngSeed;
use sim::{ExecutionEngine, FusionPolicy, SimJob};
use telemetry::json::Value;
use verify::{two_sample_tvd, Artifact, Diagnostic, DistributionArtifact, Severity, Verifier};

/// The same layered shape as the statevector benches: rotation layers
/// interleaved with CNOT chains, so `Aggressive` has channels to carry and
/// compose while `Safe` leaves every entangler's channel pinned in place.
fn layered_circuit(n: usize, rounds: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for r in 0..rounds {
        for q in 0..n {
            c.push(Operation::rx(q, 0.1 + (q + r) as f64 * 0.07));
        }
        for q in 1..n {
            c.push(Operation::cnot(q - 1, q));
        }
        for q in 0..n {
            c.push(Operation::rz(q, 0.3 + (q * (r + 1)) as f64 * 0.05));
        }
    }
    c.measure_all();
    c
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // --trace <path>: record simulate/shard spans of both policy runs.
    let trace = trace_sink_from_args();
    let (num_qubits, rounds, shots) = if smoke { (4, 2, 800) } else { (6, 3, 4000) };

    // Noise on every gate: `Safe` cannot fuse across any channel while
    // `Aggressive` composes and tensor-embeds them, merging RNG draws — so
    // the two policies genuinely consume different random streams and the
    // comparison exercises the statistical (not bit-exact) pathway.
    let noise = all_depolarizing_noise(num_qubits, 0.999, 0.95);
    let job = SimJob::noisy(
        layered_circuit(num_qubits, rounds),
        noise,
        shots,
        RngSeed(29),
    );
    let run = |policy: FusionPolicy| {
        let mut builder = ExecutionEngine::builder().fusion(policy);
        if let Some(trace) = &trace {
            builder = builder.telemetry(std::sync::Arc::clone(trace.collector()));
        }
        builder
            .build()
            .expect("default engine knobs are a valid config")
            .run_job(&job)
    };
    let safe = run(FusionPolicy::Safe);
    let aggressive = run(FusionPolicy::Aggressive);

    let counts_a: Vec<(usize, usize)> = safe.counts.iter().collect();
    let counts_b: Vec<(usize, usize)> = aggressive.counts.iter().collect();
    let tvd = two_sample_tvd(&counts_a, &counts_b);
    let artifact = DistributionArtifact {
        num_qubits,
        label_a: "safe-fusion sample",
        label_b: "aggressive-fusion sample",
        counts_a: &counts_a,
        counts_b: &counts_b,
    };
    let report = Verifier::statistical().run(&Artifact::Distributions(&artifact));
    let errors = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();

    let diagnostics = report.diagnostics().iter().map(Diagnostic::to_json);
    let summary = Value::object([
        ("mode", Value::from(if smoke { "smoke" } else { "full" })),
        ("num_qubits", Value::from(num_qubits)),
        ("shots_per_policy", Value::from(shots)),
        ("fused_ops_safe", Value::from(safe.report.fused_ops)),
        (
            "fused_ops_aggressive",
            Value::from(aggressive.report.fused_ops),
        ),
        // Six decimals: sampling noise swamps the digits beyond.
        ("observed_tvd", Value::from((tvd * 1e6).round() / 1e6)),
        ("error_findings", Value::from(errors)),
        ("diagnostics", Value::Array(diagnostics.collect())),
    ]);
    println!("{summary:#}");

    write_trace_or_exit(&trace);
    if report.has_errors() {
        eprintln!("tvd: observed distance exceeded the analytic bound");
        std::process::exit(1);
    }
}

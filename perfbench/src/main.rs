//! The repository benchmark: one command that runs a workload of the NuOp
//! compile, simulate and serve paths, checks its outputs, and prints every
//! metric by name with its unit and direction.
//!
//! ```text
//! bash perfbench/run.sh --workload isa-cold|serve-warm \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `run.sh` builds this package and the trace checker, then runs this
//! binary. `--seconds` defaults to [`DEFAULT_SECONDS`] and `--seed` to
//! [`DEFAULT_SEED`]; [`HELD_OUT_SEED`] is reserved for
//! confirming a claimed gain on inputs it was not tuned on. With `--trace 0`
//! the run reports the end-to-end metrics with tracing off. With `--trace 1`
//! it alternates untraced and traced steps, reports the per-layer metrics,
//! writes the traced spans to `perfbench/out/trace-<workload>.json` and
//! checks that file with the repository's `xtask check-trace`.
//!
//! Every layer is measured from outside: the benchmark times calls into the
//! crates' public functions and reads their public reports and counters. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check exits 1.

mod host;
mod isa_cold;
mod serve_warm;
mod stats;
mod window;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use stats::{Metrics, SpanTally};
use window::{Outcome, RunConfig, Window};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured window when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 52.0;
/// Seed kept out of tuning, for checking later claims (never the default).
pub const HELD_OUT_SEED: u64 = 20_210_614;

const WORKLOADS: [&str; 2] = ["isa-cold", "serve-warm"];

/// End-to-end metrics, printed by every untraced run: name, unit, direction.
const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("twoq_per_circuit", "gates", "lower"),
    ("est_fidelity", "1", "higher"),
    ("ok_frac", "1", "higher"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reads 0 there.
const PER_LAYER: [(&str, &str, &str); 31] = [
    ("compiler.region-select.busy_ms", "ms", "lower"),
    ("compiler.initial-map.busy_ms", "ms", "lower"),
    ("compiler.swap-route.busy_ms", "ms", "lower"),
    ("compiler.nuop-decompose.busy_ms", "ms", "lower"),
    ("compiler.swaps", "count", "lower"),
    ("core.cache.misses", "count", "lower"),
    ("core.cache.hits", "count", "higher"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("core.cache.contended_locks", "count", "lower"),
    ("core.cache.inflight_waits", "count", "lower"),
    ("core.decompose.ms_per_miss", "ms", "lower"),
    ("core.twoq_out_per_in", "ratio", "lower"),
    ("sim.precompile.busy_ms", "ms", "lower"),
    ("sim.simulate.busy_ms", "ms", "lower"),
    ("sim.shards", "count", "higher"),
    ("sim.shots_per_s", "1/s", "higher"),
    ("server.queue_wait.p50_ms", "ms", "lower"),
    ("server.queue_wait.p90_ms", "ms", "lower"),
    ("server.compile.p50_ms", "ms", "lower"),
    ("server.simulate.p50_ms", "ms", "lower"),
    ("server.queue_steals", "count", "higher"),
    ("server.wire.parse_us", "us", "lower"),
    ("server.metrics_json_us", "us", "lower"),
    ("server.op_p99_ms", "ms", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.failed", "count", "lower"),
    ("server.panicked", "count", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("telemetry.overhead_frac", "ratio", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let ref_before = host::ref_loop_ms();
    let mut outcome = match workload.as_str() {
        "isa-cold" => isa_cold::run(&config),
        _ => serve_warm::run(&config),
    };
    let ref_after = host::ref_loop_ms();
    println!(
        "host: {} ref_loop_ms before {ref_before:.3} after {ref_after:.3}",
        host::record()
    );

    if config.trace {
        outcome
            .metrics
            .push("host.ref_loop_ms", 0.5 * (ref_before + ref_after));
        let written = outcome.trace.take().map_or(Ok(()), |trace| {
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(trace_path(&workload), trace))
                .map_err(|e| format!("cannot write the trace: {e}"))
        });
        if let Err(message) = written.and_then(|()| check_trace(&workload)) {
            eprintln!("perfbench: {message}");
            outcome.correct = false;
        }
    }
    let catalogue: &[(&str, &str, &str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let json = render(&outcome, catalogue);
    println!("{json}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value.clone());
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => config.seed = number()?,
            "--seconds" => match number()? {
                0 => return Err("--seconds must be positive".to_string()),
                s => config.seconds = s as f64,
            },
            "--trace" => match value.as_str() {
                "0" => config.trace = false,
                "1" => config.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, config))
}

/// Prints each metric of `catalogue` with unit and direction (0 for a layer
/// the workload does not exercise) and returns the result line.
fn render(outcome: &Outcome, catalogue: &[(&str, &str, &str)]) -> String {
    for (name, _) in &outcome.metrics.0 {
        assert!(
            catalogue.iter().any(|&(known, _, _)| known == *name),
            "metric {name} is not in the catalogue"
        );
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit, better) in catalogue {
        let value = outcome
            .metrics
            .0
            .iter()
            .find(|(metric, _)| *metric == name)
            .map_or(0.0, |&(_, value)| value);
        println!("metric {name:<34} {value:>14.6} {unit:<6} ({better} is better)");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values print 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// `1 − failed ÷ attempted`.
pub fn ok_frac(attempted: usize, failed: usize) -> f64 {
    1.0 - failed as f64 / attempted.max(1) as f64
}

/// Spans per traced op (counted by the benchmark's own `op_span` around
/// each op) and the throughput share tracing costs.
pub fn push_telemetry_metrics(
    metrics: &mut Metrics,
    tally: &SpanTally,
    window: &Window,
    op_span: &str,
) {
    let traced_ops = tally.count(op_span).max(1) as f64;
    metrics.push("telemetry.spans", tally.total() as f64 / traced_ops);
    metrics.push("telemetry.overhead_frac", window.overhead_frac());
}

/// Where traced runs write their span file.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace-{workload}.json"))
}

/// Runs the repository's `xtask check-trace` (built beside this binary from
/// the same source) on the trace this run wrote.
fn check_trace(workload: &str) -> Result<(), String> {
    let path = trace_path(workload);
    let xtask = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("xtask");
    let output = Command::new(&xtask)
        .arg("check-trace")
        .arg(&path)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", xtask.display()))?;
    if output.status.success() {
        println!("{}", String::from_utf8_lossy(&output.stderr).trim());
        Ok(())
    } else {
        Err(format!(
            "trace check failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}

//! `isa-cold`: the paper's instruction-set sweep (Figs. 7/9). Each unit of
//! work builds a fresh [`Compiler`] for one Table II set and NuOp-compiles a
//! seeded group of the four applications at 3–4 qubits on Aspen-8, so nearly
//! all time is cold decomposition. QFT and QAOA repeat unitaries within a
//! circuit and QV does not, so a cold unit still mixes cache hits and misses.

use std::time::Instant;

use apps::workloads::{fermi_hubbard_circuit, qaoa_circuit, qft_echo_circuit, qv_circuit};
use circuit::Circuit;
use compiler::{CompiledCircuit, Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::{Complex, RngSeed};
use sim::PrecompiledCircuit;
use telemetry::Span;

use crate::stats::{mean, Metrics, SpanTally};
use crate::window::{run_steps, timed_setup, Outcome, RunConfig};

/// Child of the run seed the set-up warm-up draws from; unit `u` draws from
/// child `u`.
const WARM_UP_STREAM: u64 = 1 << 40;

/// Units in one pass over the suite; the first pass always completes, and
/// the deterministic metrics are taken over it.
const UNITS: usize = 64;

/// Allowed state infidelity of a compiled circuit, as a multiple of
/// `k · Σ εᵢ` for its `k` decomposed ops with reported infidelities `εᵢ`:
/// coherent errors add in amplitude, so by Cauchy–Schwarz the state misses
/// by at most about `(Σ √εᵢ)² ≤ k · Σ εᵢ`. The factor 2 covers one input
/// state faring worse than the average the fidelity measures; across five
/// seeds the largest ratio seen was 0.9. [`OVERLAP_FLOOR`] covers rounding
/// and the optimizer's tolerance on exact decompositions.
const OVERLAP_SLACK: f64 = 2.0;
const OVERLAP_FLOOR: f64 = 1e-3;

/// One cold compile job: a set and the circuits compiled with a fresh
/// compiler for it.
struct Unit {
    set: InstructionSet,
    circuits: Vec<Circuit>,
}

struct Suite {
    device: DeviceModel,
    units: Vec<Unit>,
}

fn sets() -> [InstructionSet; 4] {
    [
        InstructionSet::s(3),
        InstructionSet::g(3),
        InstructionSet::r(2),
        InstructionSet::full_xy(),
    ]
}

fn setup(seed: u64) -> Suite {
    let device = DeviceModel::aspen8(RngSeed(1));
    let sets = sets();
    let units = (0..UNITS)
        .map(|u| {
            let seed = RngSeed(seed).child(u as u64);
            let width = 3 + (u / sets.len()) % 2;
            Unit {
                set: sets[u % sets.len()].clone(),
                circuits: vec![
                    qv_circuit(width, seed.child(0)),
                    qaoa_circuit(width, seed.child(1)),
                    fermi_hubbard_circuit(width, seed.child(2)),
                    qft_echo_circuit(width, seed.child(3)).0,
                ],
            }
        })
        .collect();
    // One throwaway compile per set: set-up time is then dominated by steady
    // decomposition work rather than by allocation, and the process's
    // first-touch costs are paid before timing. Every measured unit still
    // builds a fresh compiler with an empty cache.
    let (warm_up, _) = qft_echo_circuit(2, RngSeed(seed).child(WARM_UP_STREAM));
    for set in &sets {
        Compiler::for_device(device.clone())
            .instruction_set(set.clone())
            .options(CompilerOptions::sweep())
            .build()
            .and_then(|compiler| compiler.compile(&warm_up))
            .expect("a two-qubit QFT echo compiles on every set");
    }
    Suite { device, units }
}

/// Deterministic results of the first pass, kept for the output checks.
struct Compiled {
    unit: usize,
    circuit: usize,
    compiled: CompiledCircuit,
}

#[derive(Default)]
struct CacheTotals {
    hits: usize,
    misses: usize,
    evictions: usize,
    contended_locks: usize,
    inflight_waits: usize,
}

pub fn run(config: &RunConfig) -> Outcome {
    let (setup_s, suite) = timed_setup(|| setup(config.seed));
    let mut tally = SpanTally::new();
    let collector = tally.collector.clone();

    let mut compiled_first: Vec<Compiled> = Vec::new();
    let mut first_pass_cache = CacheTotals::default();
    let mut traced_misses = 0;
    let mut contention = CacheTotals::default();
    let mut attempted = 0;
    let mut failed = 0;
    let mut next_unit = 0;

    // A step compiles one unit per (set, width), so every step does the same
    // mix of work.
    let units_per_step = 2 * sets().len();
    let window = run_steps(config, &mut tally, UNITS / units_per_step, |traced| {
        let mut latencies_ms = Vec::new();
        for _ in 0..units_per_step {
            let index = next_unit % UNITS;
            let unit = &suite.units[index];
            next_unit += 1;
            let first_pass = next_unit <= UNITS;
            let mut builder = Compiler::for_device(suite.device.clone())
                .instruction_set(unit.set.clone())
                .options(CompilerOptions::sweep());
            if traced {
                builder = builder.telemetry(collector.clone());
            }
            let compiler = builder.build().expect("Table II sets build a compiler");
            for (c, circuit) in unit.circuits.iter().enumerate() {
                attempted += 1;
                let job = Span::enter(Some(&collector), "job");
                let call = Span::enter_child(Some(&collector), "compile_with_report", job.id());
                let started = Instant::now();
                let result = if traced {
                    compiler.compile_with_report_in_span(circuit, call.id())
                } else {
                    compiler.compile_with_report(circuit)
                };
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                drop(call);
                drop(job);
                match result {
                    Ok((compiled, _report)) => {
                        if first_pass {
                            compiled_first.push(Compiled {
                                unit: index,
                                circuit: c,
                                compiled,
                            });
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            let cache = compiler.cache();
            if first_pass {
                first_pass_cache.hits += cache.hits();
                first_pass_cache.misses += cache.misses();
            }
            if traced {
                traced_misses += cache.misses();
            }
            contention.evictions += cache.evictions();
            contention.contended_locks += cache.contended_locks();
            contention.inflight_waits += cache.inflight_waits();
        }
        latencies_ms
    });

    failed += check_outputs(&suite, &compiled_first);

    let mut metrics = Metrics::default();
    let first_pass_circuits = compiled_first.len().max(1) as f64;
    if config.trace {
        let traced_ops = tally.count("job").max(1) as f64;
        for (name, span) in [
            ("compiler.region-select.busy_ms", "region-select"),
            ("compiler.initial-map.busy_ms", "initial-map"),
            ("compiler.swap-route.busy_ms", "swap-route"),
            ("compiler.nuop-decompose.busy_ms", "nuop-decompose"),
        ] {
            metrics.push(name, tally.busy_ms(span) / traced_ops);
        }
        let swaps: usize = compiled_first.iter().map(|c| c.compiled.swap_count).sum();
        metrics.push("compiler.swaps", swaps as f64);
        push_cache_metrics(&mut metrics, &first_pass_cache, &contention);
        metrics.push(
            "core.decompose.ms_per_miss",
            tally.busy_ms("nuop-decompose") / traced_misses.max(1) as f64,
        );
        let (twoq_in, twoq_out) = compiled_first.iter().fold((0, 0), |(i, o), c| {
            (
                i + c.compiled.pass_stats.input_two_qubit_gates,
                o + c.compiled.pass_stats.output_two_qubit_gates,
            )
        });
        metrics.push(
            "core.twoq_out_per_in",
            twoq_out as f64 / twoq_in.max(1) as f64,
        );
        crate::push_telemetry_metrics(&mut metrics, &tally, &window, "job");
    } else {
        metrics.push("setup_s", setup_s);
        metrics.push("peak_rss_mb", crate::host::peak_rss_mb());
        metrics.push("ops_per_s", window.ops_per_s());
        metrics.push("op_p50_ms", window.op_p50_ms());
        metrics.push("op_p90_ms", window.op_p90_ms());
        let twoq: usize = compiled_first
            .iter()
            .map(|c| c.compiled.two_qubit_gate_count())
            .sum();
        metrics.push("twoq_per_circuit", twoq as f64 / first_pass_circuits);
        let fidelities: Vec<f64> = compiled_first
            .iter()
            .map(|c| c.compiled.pass_stats.estimated_circuit_fidelity)
            .collect();
        metrics.push("est_fidelity", mean(&fidelities));
        metrics.push("ok_frac", crate::ok_frac(attempted, failed));
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        trace: config.trace.then(|| tally.trace_json()),
    }
}

fn push_cache_metrics(metrics: &mut Metrics, first_pass: &CacheTotals, contention: &CacheTotals) {
    let lookups = (first_pass.hits + first_pass.misses).max(1) as f64;
    metrics.push("core.cache.misses", first_pass.misses as f64);
    metrics.push("core.cache.hits", first_pass.hits as f64);
    metrics.push("core.cache.hit_ratio", first_pass.hits as f64 / lookups);
    metrics.push("core.cache.evictions", contention.evictions as f64);
    metrics.push(
        "core.cache.contended_locks",
        contention.contended_locks as f64,
    );
    metrics.push(
        "core.cache.inflight_waits",
        contention.inflight_waits as f64,
    );
}

/// Checks every first-pass artifact against references the compiler does
/// not produce: the structural verifier, and the logical circuit's ideal
/// output state from the statevector simulator. On a calibrated device NuOp
/// trades decomposition accuracy for fewer noisy gates, so the compiled
/// state (mapped back through the final layout) is held to the infidelity
/// the compiler reports for its decompositions, not to zero. Returns the
/// number of circuits that failed.
fn check_outputs(suite: &Suite, first_pass: &[Compiled]) -> usize {
    let mut failures = 0;
    for entry in first_pass {
        let unit = &suite.units[entry.unit];
        let logical = &unit.circuits[entry.circuit];
        let errors = entry.compiled.verify(&unit.set).error_count();
        let infidelity = 1.0 - logical_overlap(logical, &entry.compiled);
        let stats = &entry.compiled.pass_stats;
        let ops = stats.input_two_qubit_gates as f64;
        let claimed = ops * (1.0 - stats.mean_decomposition_fidelity);
        let allowed = OVERLAP_SLACK * ops * claimed + OVERLAP_FLOOR;
        if errors > 0 || infidelity > allowed {
            eprintln!(
                "isa-cold: unit {} circuit {} on {}: {errors} verify errors, \
                 state infidelity {infidelity:.4} above the {allowed:.4} allowed",
                entry.unit,
                entry.circuit,
                unit.set.name()
            );
            failures += 1;
        }
    }
    failures
}

/// `|⟨ψ_logical|ψ_compiled⟩|²` of the two circuits' ideal output states,
/// with compiled basis states relabelled through the final layout.
fn logical_overlap(logical: &Circuit, compiled: &CompiledCircuit) -> f64 {
    let state = |circuit: &Circuit| {
        PrecompiledCircuit::ideal(circuit)
            .run_trajectory(&mut RngSeed(0).rng())
            .amplitudes()
            .to_vec()
    };
    let expected = state(logical);
    let overlap = state(&compiled.circuit).into_iter().enumerate().fold(
        Complex::ZERO,
        |acc, (physical, amplitude)| {
            acc + expected[compiled.logical_outcome(physical)].conj() * amplitude
        },
    );
    overlap.norm_sqr()
}

//! `serve-warm`: a warm [`JobServer`] with two workers, driven closed-loop
//! by this thread with a fixed number of wire-format requests in flight
//! (callers block on `JobTicket::wait`, so the loop is closed). Two tenants
//! use two sets over 3-qubit QV and QAOA, half compile-only and half
//! compile + 64-shot simulate. One request in [`FRESH_EVERY`] carries a seed
//! no request used before, so cache misses and inserts run beside the warm
//! reads, and `metrics_json` is scraped every [`BATCH`] requests, as a
//! monitor would. Each request is small, so the queue, wire codec, metrics
//! path, non-NuOp passes, cache lookups and shot-parallel small jobs
//! dominate.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::Circuit;
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use qmath::RngSeed;
use server::{JobOp, JobRequest, JobResponse, JobServer, WorkloadKind};
use telemetry::Span;

use crate::stats::{mean, quantile, Metrics, SpanTally};
use crate::window::{run_steps, timed_setup, Outcome, RunConfig};

const WORKERS: usize = 2;
/// Room for the whole warm-up at once.
const QUEUE_CAPACITY: usize = 256;
const IN_FLIGHT: usize = 4;
const QUBITS: usize = 3;
const SHOTS: usize = 64;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const SETS: [&str; 2] = ["S3", "G3"];
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Qv, WorkloadKind::Qaoa];
/// Workload seeds `1..=POOL_SEEDS` per (set, workload) form the warm pool.
/// The pool is fixed, like a service's steady working set; the run seed
/// draws the traffic over it and the first-seen seeds.
const POOL_SEEDS: u64 = 4;
/// Pre-encoded requests, cycled.
const STREAM: usize = 4096;
/// Requests per step; each step ends drained and with one metrics scrape.
const BATCH: usize = 256;
/// One request in this many uses a first-seen seed (a cold compile).
const FRESH_EVERY: usize = 2048;
/// Fresh seeds are drawn at or above this, clear of every pool seed.
const FRESH_SEED_BASE: u64 = 1 << 40;
/// The traffic draws from this child of the run seed; fresh seed `k` from
/// child `k`.
const TRAFFIC_STREAM: u64 = 1 << 40;

/// A (set, workload, seed) triple: what a compile result depends on.
type Key = (usize, usize, u64);

/// What a standalone compile of a key produced.
struct Reference {
    two_qubit_gates: usize,
    swap_count: usize,
    estimated_fidelity: f64,
    input_two_qubit_gates: usize,
    output_two_qubit_gates: usize,
}

fn device() -> DeviceModel {
    DeviceModel::aspen8(RngSeed(1))
}

fn circuit(workload: usize, seed: u64) -> Circuit {
    match WORKLOADS[workload] {
        WorkloadKind::Qv => qv_circuit(QUBITS, RngSeed(seed)),
        WorkloadKind::Qaoa => qaoa_circuit(QUBITS, RngSeed(seed)),
    }
}

fn request(tenant: usize, key: Key, op: JobOp) -> JobRequest {
    JobRequest {
        tenant: TENANTS[tenant].to_string(),
        set: SETS[key.0].to_string(),
        workload: WORKLOADS[key.1],
        qubits: QUBITS,
        seed: key.2,
        op,
        fusion: None,
    }
}

fn pool_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for set in 0..SETS.len() {
        for workload in 0..WORKLOADS.len() {
            for seed in 1..=POOL_SEEDS {
                keys.push((set, workload, seed));
            }
        }
    }
    keys
}

/// One request of the stream, with its wire text.
struct Planned {
    tenant: usize,
    key: Key,
    simulate: bool,
    text: String,
}

/// The seeded request stream, before fresh-seed substitution.
fn stream(run_seed: u64, keys: &[Key]) -> Vec<Planned> {
    let mut state = RngSeed(run_seed).child(TRAFFIC_STREAM).0;
    let mut next = || {
        // SplitMix64: cheap, seeded, and independent of the code under test.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..STREAM)
        .map(|_| {
            let r = next();
            let tenant = (r % TENANTS.len() as u64) as usize;
            let key = keys[((r >> 8) % keys.len() as u64) as usize];
            let simulate = (r >> 32) & 1 == 1;
            let op = if simulate {
                JobOp::Simulate { shots: SHOTS }
            } else {
                JobOp::Compile
            };
            Planned {
                tenant,
                key,
                simulate,
                text: request(tenant, key, op).encode(),
            }
        })
        .collect()
}

/// Builds the server and warms every tenant's cache with one compile of
/// each pool key; returns the server and the warm-up responses.
fn start_server(tally: &SpanTally, keys: &[Key]) -> (JobServer, Vec<(Key, JobResponse)>) {
    let server = JobServer::builder(device())
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .options(CompilerOptions::sweep())
        .telemetry(tally.collector.clone())
        .build()
        .expect("the serve-warm configuration is valid");
    let tickets: Vec<(Key, server::JobTicket)> = (0..TENANTS.len())
        .flat_map(|tenant| keys.iter().map(move |&key| (tenant, key)))
        .map(|(tenant, key)| {
            let text = request(tenant, key, JobOp::Compile).encode();
            let ticket = server
                .submit_wire(&text)
                .expect("the warm-up fits the queue");
            (key, ticket)
        })
        .collect();
    let responses = tickets
        .into_iter()
        .map(|(key, ticket)| (key, ticket.wait().expect("warm-up requests compile")))
        .collect();
    (server, responses)
}

/// Standalone compiles, one fresh compiler per set: the reference every
/// served response must match.
fn references(keys: &[Key]) -> BTreeMap<Key, Reference> {
    let compilers: Vec<Compiler> = SETS
        .iter()
        .map(|set| {
            Compiler::for_device(device())
                .instruction_set_named(*set)
                .options(CompilerOptions::sweep())
                .build()
                .expect("Table II set names resolve")
        })
        .collect();
    keys.iter()
        .map(|&key| {
            let compiled = compilers[key.0]
                .compile(&circuit(key.1, key.2))
                .expect("reference circuits compile");
            let stats = &compiled.pass_stats;
            let reference = Reference {
                two_qubit_gates: compiled.two_qubit_gate_count(),
                swap_count: compiled.swap_count,
                estimated_fidelity: stats.estimated_circuit_fidelity,
                input_two_qubit_gates: stats.input_two_qubit_gates,
                output_two_qubit_gates: stats.output_two_qubit_gates,
            };
            (key, reference)
        })
        .collect()
}

/// What the output check needs from one served request. Identical outcomes
/// are counted rather than stored one by one, so memory stays flat however
/// many requests a run serves.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Served {
    key: Key,
    simulate: bool,
    result: Result<(usize, usize, Option<usize>), String>,
}

fn served(key: Key, simulate: bool, result: Result<JobResponse, server::ServerError>) -> Served {
    Served {
        key,
        simulate,
        result: result
            .map(|r| (r.two_qubit_gates, r.swap_count, r.sim.map(|s| s.shots)))
            .map_err(|e| e.to_string()),
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut tally = SpanTally::new();
    let keys = pool_keys();
    let requests = stream(config.seed, &keys);
    let (setup_s, (server, warm_responses)) = timed_setup(|| start_server(&tally, &keys));
    let collector = tally.collector.clone();
    let steals_before = server.metrics().queue_steals;

    let mut outputs: BTreeMap<Served, usize> = BTreeMap::new();
    let mut scrape_us: Vec<f64> = Vec::new();
    let mut traced_misses = 0;
    let mut fresh_keys: Vec<Key> = Vec::new();
    let mut sent = 0usize;
    let mut simulated_untraced = 0usize;

    let window = run_steps(config, &mut tally, 1, |traced| {
        let mut latencies_ms = Vec::with_capacity(BATCH);
        let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
        let mut submitted = 0;
        while submitted < BATCH || !in_flight.is_empty() {
            while submitted < BATCH && in_flight.len() < IN_FLIGHT {
                let planned = &requests[sent % STREAM];
                let (mut key, mut simulate) = (planned.key, planned.simulate);
                let fresh;
                let text = if (sent + 1).is_multiple_of(FRESH_EVERY) {
                    let fresh_seed = RngSeed(config.seed).child(fresh_keys.len() as u64).0;
                    key = (key.0, key.1, FRESH_SEED_BASE | (fresh_seed >> 24));
                    simulate = false;
                    fresh_keys.push(key);
                    fresh = request(planned.tenant, key, JobOp::Compile).encode();
                    &fresh
                } else {
                    &planned.text
                };
                let span = Span::enter(Some(&collector), "request");
                let call = Span::enter_child(Some(&collector), "submit_wire", span.id());
                let started = Instant::now();
                let ticket = server.submit_wire(text);
                drop(call);
                sent += 1;
                submitted += 1;
                match ticket {
                    Ok(ticket) => in_flight.push_back((key, simulate, started, span, ticket)),
                    Err(e) => *outputs.entry(served(key, simulate, Err(e))).or_default() += 1,
                }
            }
            if let Some((key, simulate, started, span, ticket)) = in_flight.pop_front() {
                let call = Span::enter_child(Some(&collector), "wait", span.id());
                let result = ticket.wait();
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                drop(call);
                drop(span);
                if traced {
                    if let Ok(response) = &result {
                        traced_misses += response.cache_misses;
                    }
                } else {
                    simulated_untraced += usize::from(simulate);
                }
                *outputs.entry(served(key, simulate, result)).or_default() += 1;
            }
        }
        let span = Span::enter(Some(&collector), "metrics_json");
        let started = Instant::now();
        std::hint::black_box(server.metrics_json());
        scrape_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(span);
        latencies_ms
    });
    let snapshot = server.metrics();
    server.shutdown();

    let mut all_keys = keys.clone();
    all_keys.extend(&fresh_keys);
    let reference = references(&all_keys);
    let warm_twoq: Vec<f64> = warm_responses
        .iter()
        .map(|(_, response)| response.two_qubit_gates as f64)
        .collect();
    let attempted = warm_responses.len() + sent;
    for (key, response) in warm_responses {
        *outputs.entry(served(key, false, Ok(response))).or_default() += 1;
    }
    let failed = check_outputs(&reference, &outputs);

    let mut metrics = Metrics::default();
    let pool: Vec<&Reference> = keys.iter().map(|k| &reference[k]).collect();
    if config.trace {
        let traced_requests = tally.count("request").max(1) as f64;
        for (name, span) in [
            ("compiler.region-select.busy_ms", "region-select"),
            ("compiler.initial-map.busy_ms", "initial-map"),
            ("compiler.swap-route.busy_ms", "swap-route"),
            ("compiler.nuop-decompose.busy_ms", "nuop-decompose"),
        ] {
            metrics.push(name, tally.busy_ms(span) / traced_requests);
        }
        let swaps: usize = pool.iter().map(|r| r.swap_count).sum();
        metrics.push("compiler.swaps", swaps as f64);
        let (hits, misses, evictions) = snapshot.tenants.iter().fold((0, 0, 0), |acc, t| {
            (acc.0 + t.hits, acc.1 + t.misses, acc.2 + t.evictions)
        });
        metrics.push("core.cache.misses", misses as f64);
        metrics.push("core.cache.hits", hits as f64);
        metrics.push(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        metrics.push("core.cache.evictions", evictions as f64);
        for (name, gauge) in [
            (
                "core.cache.contended_locks",
                "compiler.cache_contended_locks",
            ),
            ("core.cache.inflight_waits", "compiler.cache_inflight_waits"),
        ] {
            metrics.push(name, collector.gauge(gauge).get() as f64);
        }
        metrics.push(
            "core.decompose.ms_per_miss",
            tally.busy_ms("nuop-decompose") / traced_misses.max(1) as f64,
        );
        let twoq_in: usize = pool.iter().map(|r| r.input_two_qubit_gates).sum();
        let twoq_out: usize = pool.iter().map(|r| r.output_two_qubit_gates).sum();
        metrics.push(
            "core.twoq_out_per_in",
            twoq_out as f64 / twoq_in.max(1) as f64,
        );
        let simulations = tally.count("simulate").max(1) as f64;
        metrics.push(
            "sim.precompile.busy_ms",
            tally.busy_ms("precompile") / simulations,
        );
        metrics.push(
            "sim.simulate.busy_ms",
            tally.busy_ms("simulate") / simulations,
        );
        metrics.push("sim.shards", tally.count("shard") as f64 / simulations);
        metrics.push(
            "sim.shots_per_s",
            window.ops_per_s() * (simulated_untraced * SHOTS) as f64
                / window.latencies_ms.len().max(1) as f64,
        );
        for (name, span, q) in [
            ("server.queue_wait.p50_ms", "queue_wait", 0.5),
            ("server.queue_wait.p90_ms", "queue_wait", 0.9),
            ("server.compile.p50_ms", "compile", 0.5),
            ("server.simulate.p50_ms", "simulate", 0.5),
        ] {
            metrics.push(name, quantile(&mut tally.durations_ms(span), q));
        }
        metrics.push(
            "server.queue_steals",
            (snapshot.queue_steals - steals_before) as f64,
        );
        metrics.push("server.wire.parse_us", parse_us(&requests));
        metrics.push("server.metrics_json_us", mean(&scrape_us));
        metrics.push(
            "server.op_p99_ms",
            quantile(&mut window.latencies_ms.clone(), 0.99),
        );
        metrics.push("server.rejected", snapshot.rejected as f64);
        metrics.push("server.failed", snapshot.failed as f64);
        metrics.push("server.panicked", snapshot.panicked as f64);
        crate::push_telemetry_metrics(&mut metrics, &tally, &window, "request");
    } else {
        metrics.push("setup_s", setup_s);
        metrics.push("peak_rss_mb", crate::host::peak_rss_mb());
        metrics.push("ops_per_s", window.ops_per_s());
        metrics.push("op_p50_ms", window.op_p50_ms());
        metrics.push("op_p90_ms", window.op_p90_ms());
        metrics.push("twoq_per_circuit", mean(&warm_twoq));
        let fidelities: Vec<f64> = pool.iter().map(|r| r.estimated_fidelity).collect();
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

/// Counts served requests that failed or disagree with the standalone
/// compile of their key.
fn check_outputs(reference: &BTreeMap<Key, Reference>, outputs: &BTreeMap<Served, usize>) -> usize {
    let mut failures = 0;
    for (output, &count) in outputs {
        let expected = &reference[&output.key];
        let problem = match &output.result {
            Err(e) => Some(e.clone()),
            &Ok((twoq, swaps, shots)) => {
                let want_shots = output.simulate.then_some(SHOTS);
                (twoq != expected.two_qubit_gates
                    || swaps != expected.swap_count
                    || shots != want_shots)
                    .then(|| {
                        format!(
                            "got {twoq} 2q / {swaps} swaps / {shots:?} shots, want {} / {} / {want_shots:?}",
                            expected.two_qubit_gates, expected.swap_count
                        )
                    })
            }
        };
        if let Some(problem) = problem {
            eprintln!(
                "serve-warm: {count} requests for {:?}: {problem}",
                output.key
            );
            failures += count;
        }
    }
    failures
}

/// Mean microseconds per `JobRequest::parse` over the run's request texts,
/// the median of several passes.
fn parse_us(requests: &[Planned]) -> f64 {
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for planned in requests {
                std::hint::black_box(JobRequest::parse(&planned.text).expect("the stream parses"));
            }
            started.elapsed().as_secs_f64() * 1e6 / requests.len() as f64
        })
        .collect();
    crate::stats::median(&mut passes)
}

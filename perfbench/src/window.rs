//! The timed window every workload shares: repeated set-up, the measured
//! loop split into steps of equal work, and what a run hands back to `main`.

use std::time::{Duration, Instant};

use crate::stats::{median, quantile, Metrics, SpanTally};

/// What the command line asked for.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: Metrics,
    /// Chrome Trace Event JSON of the traced spans (traced runs only).
    pub trace: Option<String>,
}

/// Set-up runs at least this many times; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
/// Cheap set-ups repeat until they have taken this long in total, so their
/// median rests on enough samples to be steady.
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(3);
const SETUP_MAX_REPEATS: usize = 200;

/// Runs `setup` repeatedly and returns the median wall time in seconds with
/// the last instance built (earlier ones are dropped first, so peak memory
/// holds one instance).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (started.elapsed() < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPEATS)
    {
        drop(built.take());
        let started = Instant::now();
        built = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    let built = built.expect("set-up runs at least once");
    (crate::stats::median(&mut times), built)
}

/// Throughput and latency of one step.
struct StepStats {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// What the measured window saw: per-step statistics of the untraced
/// (`[0]`) and traced (`[1]`) steps, and, in traced runs, every untraced op
/// latency (untraced runs keep none, so their memory does not grow with
/// throughput).
#[derive(Default)]
pub struct Window {
    steps: [Vec<StepStats>; 2],
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Median over untraced steps of `f`. Steps do equal work, so the median
    /// sets aside steps that a burst of load from outside the process slowed.
    fn untraced_median(&self, f: impl Fn(&StepStats) -> f64) -> f64 {
        median(&mut self.steps[0].iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> f64 {
        self.untraced_median(|s| s.ops_per_s)
    }

    pub fn op_p50_ms(&self) -> f64 {
        self.untraced_median(|s| s.p50_ms)
    }

    pub fn op_p90_ms(&self) -> f64 {
        self.untraced_median(|s| s.p90_ms)
    }

    /// `1 − traced ÷ untraced` median ops per second: the share of
    /// throughput tracing costs.
    pub fn overhead_frac(&self) -> f64 {
        let traced = median(
            &mut self.steps[1]
                .iter()
                .map(|s| s.ops_per_s)
                .collect::<Vec<_>>(),
        );
        1.0 - traced / self.ops_per_s().max(f64::MIN_POSITIVE)
    }
}

/// Calls `step(traced)` until `config.seconds` have passed and at least
/// `min_steps` steps ran; `step` returns the latency in ms of each op it
/// completed. A traced run alternates untraced and traced steps, so host
/// drift and the input mix fall on both sides of the tracing-overhead ratio
/// alike; the tally's collector records during traced steps only and is
/// drained after each.
pub fn run_steps(
    config: &RunConfig,
    tally: &mut SpanTally,
    min_steps: usize,
    mut step: impl FnMut(bool) -> Vec<f64>,
) -> Window {
    let window = Duration::from_secs_f64(config.seconds);
    let mut seen = Window::default();
    let started = Instant::now();
    let mut steps = 0;
    while started.elapsed() < window || steps < min_steps {
        let traced = config.trace && steps % 2 == 1;
        tally.collector.set_enabled(traced);
        let step_started = Instant::now();
        let mut latencies = step(traced);
        let secs = step_started.elapsed().as_secs_f64();
        tally.collector.set_enabled(false);
        tally.drain();
        seen.steps[usize::from(traced)].push(StepStats {
            ops_per_s: latencies.len() as f64 / secs.max(f64::MIN_POSITIVE),
            p50_ms: quantile(&mut latencies, 0.5),
            p90_ms: quantile(&mut latencies, 0.9),
        });
        if config.trace && !traced {
            seen.latencies_ms.extend(latencies);
        }
        steps += 1;
    }
    seen
}

//! Multistart driver.
//!
//! Gate-decomposition objectives are non-convex: the BFGS landscape has local
//! minima whose quality depends on the random initialization of the template's
//! single-qubit angles. NuOp therefore restarts the optimizer from several
//! random points and keeps the best outcome — exactly what this module
//! provides.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bfgs::{minimize_bfgs_with_grad, BfgsOptions, OptimResult};

/// Options controlling the multistart driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultistartOptions {
    /// Number of random restarts (the first start always uses the caller's `x0`).
    pub restarts: usize,
    /// Half-width of the uniform window around `x0` from which restart points
    /// are drawn.
    pub spread: f64,
    /// Stop early as soon as a restart reaches a value below this threshold.
    pub target_value: Option<f64>,
    /// BFGS options used for every restart.
    pub bfgs: BfgsOptions,
}

impl Default for MultistartOptions {
    fn default() -> Self {
        MultistartOptions {
            restarts: 4,
            spread: std::f64::consts::PI,
            target_value: None,
            bfgs: BfgsOptions::default(),
        }
    }
}

/// Runs BFGS with the caller-supplied gradient from `x0` and from
/// `restarts - 1` random perturbations of it, returning the best result found
/// (with evaluations summed over every restart).
///
/// ```
/// use optim::{multistart_minimize_with_grad, MultistartOptions};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// // A multi-modal objective where the global minimum is at x = 0.
/// let f = |x: &[f64]| 1.0 - (x[0].cos()).powi(2) + 0.05 * x[0].abs();
/// let grad = |x: &[f64], g: &mut [f64]| {
///     g[0] = (2.0 * x[0]).sin() + 0.05 * x[0].signum();
///     f(x)
/// };
/// let r = multistart_minimize_with_grad(&f, &grad, &[2.0], &MultistartOptions::default(), &mut rng);
/// assert!(r.value < 0.2);
/// ```
pub fn multistart_minimize_with_grad<F, G, R>(
    f: &F,
    grad: &G,
    x0: &[f64],
    opts: &MultistartOptions,
    rng: &mut R,
) -> OptimResult
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64], &mut [f64]) -> f64 + ?Sized,
    R: Rng + ?Sized,
{
    assert!(opts.restarts >= 1, "multistart needs at least one start");
    let mut best: Option<OptimResult> = None;
    let mut total_evals = 0usize;
    for attempt in 0..opts.restarts {
        let start: Vec<f64> = if attempt == 0 {
            x0.to_vec()
        } else {
            x0.iter()
                .map(|&v| v + rng.gen_range(-opts.spread..opts.spread))
                .collect()
        };
        let mut result = minimize_bfgs_with_grad(f, grad, &start, &opts.bfgs);
        total_evals += result.evaluations;
        result.evaluations = total_evals;
        let better = best.as_ref().is_none_or(|b| result.value < b.value);
        if better {
            best = Some(result);
        }
        if let (Some(target), Some(b)) = (opts.target_value, best.as_ref()) {
            if b.value <= target {
                break;
            }
        }
    }
    best.expect("at least one restart ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerical_gradient;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Multistart BFGS steered by the central-difference gradient oracle.
    fn multistart_numeric(
        f: &dyn Fn(&[f64]) -> f64,
        x0: &[f64],
        opts: &MultistartOptions,
        rng: &mut ChaCha8Rng,
    ) -> OptimResult {
        let grad = |x: &[f64], g: &mut [f64]| {
            g.copy_from_slice(&numerical_gradient(f, x, 1e-6));
            f(x)
        };
        multistart_minimize_with_grad(f, &grad, x0, opts, rng)
    }

    #[test]
    fn finds_global_minimum_of_multimodal_function() {
        // f has local minima at multiples of pi, global at x=0 due to the |x| term.
        let f = |x: &[f64]| (1.0 - x[0].cos()) + 0.3 * x[0].abs() + x[1] * x[1];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let opts = MultistartOptions {
            restarts: 8,
            spread: 6.0,
            ..MultistartOptions::default()
        };
        let r = multistart_numeric(&f, &[5.0, 1.0], &opts, &mut rng);
        assert!(r.value < 1e-4, "value = {}", r.value);
        assert!(r.x[0].abs() < 1e-2);
    }

    #[test]
    fn gradient_variant_matches_numerical_multistart() {
        let f = |x: &[f64]| (1.0 - x[0].cos()) + 0.3 * x[0].abs() + x[1] * x[1];
        let g = |x: &[f64], g: &mut [f64]| {
            g[0] = x[0].sin() + 0.3 * x[0].signum();
            g[1] = 2.0 * x[1];
            f(x)
        };
        let opts = MultistartOptions {
            restarts: 8,
            spread: 6.0,
            ..MultistartOptions::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = multistart_minimize_with_grad(&f, &g, &[5.0, 1.0], &opts, &mut rng);
        assert!(r.value < 1e-4, "value = {}", r.value);
        assert!(r.x[0].abs() < 1e-2);
        // Same seed, same restart points: the numerical oracle lands in the
        // same basin.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let numeric = multistart_numeric(&f, &[5.0, 1.0], &opts, &mut rng);
        assert!((numeric.x[0] - r.x[0]).abs() < 1e-2);
    }

    #[test]
    fn early_stop_on_target() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let opts = MultistartOptions {
            restarts: 50,
            target_value: Some(1e-6),
            ..MultistartOptions::default()
        };
        let r = multistart_numeric(&sphere, &[1.0, 1.0], &opts, &mut rng);
        assert!(r.value <= 1e-6);
    }

    #[test]
    fn single_restart_equals_plain_bfgs() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let opts = MultistartOptions {
            restarts: 1,
            ..MultistartOptions::default()
        };
        let multi = multistart_numeric(&sphere, &[2.0, -3.0], &opts, &mut rng);
        let grad = |x: &[f64], g: &mut [f64]| {
            g.copy_from_slice(&numerical_gradient(&sphere, x, 1e-6));
            sphere(x)
        };
        let plain = minimize_bfgs_with_grad(&sphere, &grad, &[2.0, -3.0], &opts.bfgs);
        assert!((multi.value - plain.value).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_restarts_panics() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let opts = MultistartOptions {
            restarts: 0,
            ..MultistartOptions::default()
        };
        let _ = multistart_numeric(&sphere, &[1.0], &opts, &mut rng);
    }
}

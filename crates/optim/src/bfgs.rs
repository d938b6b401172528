//! BFGS quasi-Newton minimization with a strong-Wolfe line search.
//!
//! This is the workhorse behind NuOp template optimization. The implementation
//! follows Nocedal & Wright, *Numerical Optimization*, Algorithms 6.1 (BFGS)
//! and 3.5/3.6 (line search satisfying the strong Wolfe conditions).

use serde::{Deserialize, Serialize};

use crate::{dot, norm};

/// Options controlling a BFGS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BfgsOptions {
    /// Maximum number of quasi-Newton iterations.
    pub max_iters: usize,
    /// Convergence threshold on the gradient infinity norm.
    pub grad_tol: f64,
    /// Convergence threshold on the decrease of the objective between iterations.
    pub f_tol: f64,
    /// Finite-difference step for the numerical gradient.
    pub fd_step: f64,
    /// Armijo (sufficient decrease) constant `c1` of the Wolfe conditions.
    pub c1: f64,
    /// Curvature constant `c2` of the Wolfe conditions.
    pub c2: f64,
    /// Maximum number of function evaluations inside one line search.
    pub max_line_search_steps: usize,
}

impl Default for BfgsOptions {
    fn default() -> Self {
        BfgsOptions {
            max_iters: 200,
            grad_tol: 1e-8,
            f_tol: 1e-12,
            fd_step: 1e-6,
            c1: 1e-4,
            c2: 0.9,
            max_line_search_steps: 30,
        }
    }
}

impl BfgsOptions {
    /// A cheaper option set used when the caller only needs a coarse optimum
    /// (e.g. NuOp's approximate decomposition mode).
    pub fn fast() -> Self {
        BfgsOptions {
            max_iters: 80,
            grad_tol: 1e-6,
            ..BfgsOptions::default()
        }
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimResult {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective evaluations (including gradient probes).
    pub evaluations: usize,
    /// Whether a convergence criterion (gradient or f-decrease) was met.
    pub converged: bool,
    /// Final gradient norm.
    pub gradient_norm: f64,
}

/// Minimizes `f` starting from `x0` using BFGS with the caller-supplied
/// analytic gradient `grad`.
///
/// The gradient must match `f` to central-difference accuracy (see
/// [`crate::numerical_gradient`]); each gradient call is counted as a single
/// evaluation in [`OptimResult::evaluations`].
/// The strong-Wolfe line search still probes the objective directly, so only
/// `f` is evaluated along the search direction.
///
/// ```
/// use optim::{minimize_bfgs_with_grad, BfgsOptions};
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let grad = |x: &[f64]| x.iter().map(|v| 2.0 * v).collect::<Vec<_>>();
/// let r = minimize_bfgs_with_grad(&sphere, &grad, &[1.0, -2.0, 3.0], &BfgsOptions::default());
/// assert!(r.value < 1e-12);
/// assert!(r.converged);
/// ```
pub fn minimize_bfgs_with_grad<F, G>(
    f: &F,
    grad_fn: &G,
    x0: &[f64],
    opts: &BfgsOptions,
) -> OptimResult
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64]) -> Vec<f64> + ?Sized,
{
    let n = x0.len();
    assert!(n > 0, "cannot optimize a zero-dimensional problem");
    let mut evaluations = 0usize;
    let eval = |x: &[f64], evaluations: &mut usize| {
        *evaluations += 1;
        f(x)
    };
    let gradient = |x: &[f64], evaluations: &mut usize| {
        *evaluations += 1;
        grad_fn(x)
    };

    let mut x = x0.to_vec();
    let mut fx = eval(&x, &mut evaluations);
    let mut grad = gradient(&x, &mut evaluations);

    // Inverse Hessian approximation, initialized to the identity.
    let mut h_inv = identity(n);

    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        let gnorm = norm(&grad);
        if gnorm < opts.grad_tol {
            converged = true;
            break;
        }

        // Search direction p = -H_inv * grad.
        let mut p = mat_vec(&h_inv, &grad);
        for v in &mut p {
            *v = -*v;
        }
        // Safeguard: if the direction is not a descent direction (numerical
        // breakdown), restart from steepest descent.
        if dot(&p, &grad) >= 0.0 {
            h_inv = identity(n);
            p = grad.iter().map(|g| -g).collect();
        }

        // Strong-Wolfe line search for step length alpha.
        let (alpha, f_new, ls_evals) = wolfe_line_search(f, &x, fx, &grad, &p, opts);
        evaluations += ls_evals;
        if alpha == 0.0 {
            // Line search failed to make progress; treat as converged to avoid
            // spinning.
            break;
        }

        let x_new: Vec<f64> = x
            .iter()
            .zip(p.iter())
            .map(|(xi, pi)| xi + alpha * pi)
            .collect();
        let grad_new = gradient(&x_new, &mut evaluations);

        // BFGS update of the inverse Hessian.
        let s: Vec<f64> = x_new.iter().zip(x.iter()).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = grad_new
            .iter()
            .zip(grad.iter())
            .map(|(a, b)| a - b)
            .collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 {
            let rho = 1.0 / sy;
            h_inv = bfgs_update(&h_inv, &s, &y, rho);
        }

        let f_decrease = fx - f_new;
        x = x_new;
        fx = f_new;
        grad = grad_new;

        if f_decrease.abs() < opts.f_tol && f_decrease >= 0.0 {
            converged = true;
            break;
        }
    }

    OptimResult {
        gradient_norm: norm(&grad),
        x,
        value: fx,
        iterations,
        evaluations,
        converged,
    }
}

fn identity(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect()
}

fn mat_vec(m: &[Vec<f64>], v: &[f64]) -> Vec<f64> {
    m.iter().map(|row| dot(row, v)).collect()
}

/// BFGS inverse-Hessian update:
/// `H' = (I - rho s y^T) H (I - rho y s^T) + rho s s^T`.
fn bfgs_update(h: &[Vec<f64>], s: &[f64], y: &[f64], rho: f64) -> Vec<Vec<f64>> {
    let n = s.len();
    // A = I - rho * s y^T
    let mut a = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            a[i][j] = if i == j { 1.0 } else { 0.0 } - rho * s[i] * y[j];
        }
    }
    // H' = A H A^T + rho s s^T
    let mut ah = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i][k] * h[k][j];
            }
            ah[i][j] = acc;
        }
    }
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += ah[i][k] * a[j][k];
            }
            out[i][j] = acc + rho * s[i] * s[j];
        }
    }
    out
}

/// The one-dimensional restriction `phi(alpha) = f(x + alpha p)` with a single
/// reusable probe buffer: line-search evaluations write `x + alpha p` in place
/// instead of collecting a fresh `Vec` per objective call, so the search is
/// allocation-free after construction. Together with the stack-allocated
/// `SmallMat` objectives of gate decomposition, this keeps the whole BFGS
/// inner loop off the heap.
struct LineEval<'a, F: ?Sized> {
    f: &'a F,
    x: &'a [f64],
    p: &'a [f64],
    probe: Vec<f64>,
    fd_step: f64,
}

impl<F> LineEval<'_, F>
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    fn probe_at(&mut self, alpha: f64) -> f64 {
        for ((slot, xi), pi) in self.probe.iter_mut().zip(self.x).zip(self.p) {
            *slot = xi + alpha * pi;
        }
        (self.f)(&self.probe)
    }

    fn phi(&mut self, alpha: f64, evals: &mut usize) -> f64 {
        *evals += 1;
        self.probe_at(alpha)
    }

    /// Directional derivative by central difference along `p`.
    fn dphi(&mut self, alpha: f64, evals: &mut usize) -> f64 {
        let h = self.fd_step;
        *evals += 2;
        (self.probe_at(alpha + h) - self.probe_at(alpha - h)) / (2.0 * h)
    }
}

/// A bracketing + zoom line search enforcing the strong Wolfe conditions.
/// Returns `(alpha, f(x + alpha p), evaluations)`; `alpha == 0` signals failure.
fn wolfe_line_search<F>(
    f: &F,
    x: &[f64],
    fx: f64,
    grad: &[f64],
    p: &[f64],
    opts: &BfgsOptions,
) -> (f64, f64, usize)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    let mut evals = 0usize;
    let phi0 = fx;
    let dphi0 = dot(grad, p);
    if dphi0 >= 0.0 {
        return (0.0, fx, evals);
    }
    let mut line = LineEval {
        f,
        x,
        p,
        probe: vec![0.0; x.len()],
        fd_step: opts.fd_step,
    };

    let mut alpha_prev = 0.0;
    let mut phi_prev = phi0;
    let mut alpha = 1.0;
    let alpha_max = 10.0;

    for i in 0..opts.max_line_search_steps {
        let phi_alpha = line.phi(alpha, &mut evals);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || (i > 0 && phi_alpha >= phi_prev) {
            let (a, fa) = zoom(
                &mut line, phi0, dphi0, alpha_prev, phi_prev, alpha, opts, &mut evals,
            );
            return (a, fa, evals);
        }
        let dphi_alpha = line.dphi(alpha, &mut evals);
        if dphi_alpha.abs() <= -opts.c2 * dphi0 {
            return (alpha, phi_alpha, evals);
        }
        if dphi_alpha >= 0.0 {
            let (a, fa) = zoom(
                &mut line, phi0, dphi0, alpha, phi_alpha, alpha_prev, opts, &mut evals,
            );
            return (a, fa, evals);
        }
        alpha_prev = alpha;
        phi_prev = phi_alpha;
        alpha = (alpha * 2.0).min(alpha_max);
    }
    // Fall back to a simple backtracking result.
    let phi_alpha = line.phi(alpha, &mut evals);
    if phi_alpha < phi0 {
        (alpha, phi_alpha, evals)
    } else {
        (0.0, phi0, evals)
    }
}

/// The `zoom` procedure of Nocedal & Wright Algorithm 3.6, expressed on the
/// one-dimensional restriction `phi(alpha) = f(x + alpha p)`.
#[allow(clippy::too_many_arguments)]
fn zoom<F>(
    line: &mut LineEval<'_, F>,
    phi0: f64,
    dphi0: f64,
    mut alpha_lo: f64,
    mut phi_lo: f64,
    mut alpha_hi: f64,
    opts: &BfgsOptions,
    evals: &mut usize,
) -> (f64, f64)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    let mut best = (alpha_lo, phi_lo);
    for _ in 0..opts.max_line_search_steps {
        // Bisection is robust for the smooth objectives we optimize.
        let alpha = 0.5 * (alpha_lo + alpha_hi);
        if (alpha_hi - alpha_lo).abs() < 1e-14 {
            break;
        }
        let phi_alpha = line.phi(alpha, evals);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || phi_alpha >= phi_lo {
            alpha_hi = alpha;
        } else {
            if phi_alpha < best.1 {
                best = (alpha, phi_alpha);
            }
            let dphi_alpha = line.dphi(alpha, evals);
            if dphi_alpha.abs() <= -opts.c2 * dphi0 {
                return (alpha, phi_alpha);
            }
            if dphi_alpha * (alpha_hi - alpha_lo) >= 0.0 {
                alpha_hi = alpha_lo;
            }
            alpha_lo = alpha;
            phi_lo = phi_alpha;
        }
    }
    if best.1 < phi0 {
        best
    } else {
        (0.0, phi0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerical_gradient;

    /// BFGS steered by the central-difference gradient oracle.
    fn minimize_numeric(f: &dyn Fn(&[f64]) -> f64, x0: &[f64], opts: &BfgsOptions) -> OptimResult {
        let grad = |x: &[f64]| numerical_gradient(f, x, opts.fd_step);
        minimize_bfgs_with_grad(f, &grad, x0, opts)
    }

    #[test]
    fn minimizes_sphere() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = minimize_numeric(&sphere, &[3.0, -4.0], &BfgsOptions::default());
        assert!(r.value < 1e-10, "value = {}", r.value);
        assert!(r.converged);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = minimize_numeric(&rosen, &[-1.2, 1.0], &BfgsOptions::default());
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-2);
        assert!((r.x[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn minimizes_trig_objective() {
        // Shaped like a decomposition-fidelity landscape.
        let f = |x: &[f64]| 1.0 - (x[0].cos() * x[1].sin()).powi(2);
        let r = minimize_numeric(&f, &[0.3, 1.0], &BfgsOptions::default());
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn already_at_minimum_converges_immediately() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = minimize_numeric(&sphere, &[0.0, 0.0, 0.0], &BfgsOptions::default());
        assert!(r.converged);
        assert!(r.iterations <= 2);
        assert!(r.value < 1e-15);
    }

    #[test]
    fn fast_options_still_work() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = minimize_numeric(&sphere, &[1.0, 1.0], &BfgsOptions::fast());
        assert!(r.value < 1e-8);
    }

    #[test]
    fn high_dimensional_quadratic() {
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * (v - 1.0) * (v - 1.0))
                .sum::<f64>()
        };
        let x0 = vec![0.0; 12];
        let r = minimize_numeric(&f, &x0, &BfgsOptions::default());
        assert!(r.value < 1e-8, "value = {}", r.value);
        for v in &r.x {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dimensional_panics() {
        let f = |_: &[f64]| 0.0;
        let _ = minimize_numeric(&f, &[], &BfgsOptions::default());
    }

    #[test]
    fn analytic_gradient_matches_numerical_path() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let rosen_grad = |x: &[f64]| {
            vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ]
        };
        let numeric = minimize_numeric(&rosen, &[-1.2, 1.0], &BfgsOptions::default());
        let analytic =
            minimize_bfgs_with_grad(&rosen, &rosen_grad, &[-1.2, 1.0], &BfgsOptions::default());
        assert!(analytic.value < 1e-6, "value = {}", analytic.value);
        assert!((analytic.x[0] - 1.0).abs() < 1e-2);
        assert!((analytic.x[1] - 1.0).abs() < 1e-2);
        // Both gradients steer BFGS into the same basin.
        assert!(numeric.value < 1e-6, "value = {}", numeric.value);
        assert!((analytic.x[0] - numeric.x[0]).abs() < 1e-2);
        assert!((analytic.x[1] - numeric.x[1]).abs() < 1e-2);
    }

    #[test]
    fn analytic_gradient_evaluation_accounting() {
        let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let grad = |x: &[f64]| x.iter().map(|v| 2.0 * v).collect::<Vec<_>>();
        let r = minimize_bfgs_with_grad(&sphere, &grad, &[2.0, -1.0], &BfgsOptions::default());
        assert!(r.converged);
        assert!(r.value < 1e-12);
    }
}

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
    /// Number of accepted quasi-Newton steps.
    pub iterations: usize,
    /// Number of callback invocations: one per call of the objective and one
    /// per call of the gradient callback (which also returns the value).
    pub evaluations: usize,
    /// Whether a convergence criterion (gradient or f-decrease) was met.
    pub converged: bool,
    /// Final gradient norm.
    pub gradient_norm: f64,
}

/// Minimizes `f` starting from `x0` using BFGS with the caller-supplied
/// analytic gradient `grad_fn`.
///
/// `grad_fn(x, g)` writes `∇f(x)` into `g` and returns `f(x)`; the gradient
/// must match `f` to central-difference accuracy (see
/// [`crate::numerical_gradient`]). One gradient call at `x0` supplies the
/// starting value and gradient. The strong-Wolfe line search probes `f` for
/// the sufficient-decrease test and takes the directional derivative
/// `∇f(x + αp)·p` from `grad_fn`; the gradient at the accepted step is handed
/// back to the BFGS update rather than recomputed, so a step that the line
/// search accepts at once costs one `f` call and one gradient call. The
/// inverse-Hessian update is a symmetric rank-2 correction applied in place,
/// `O(n²)` per iteration with no allocation after setup.
///
/// ```
/// use optim::{minimize_bfgs_with_grad, BfgsOptions};
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let grad = |x: &[f64], g: &mut [f64]| {
///     for (gi, xi) in g.iter_mut().zip(x) {
///         *gi = 2.0 * xi;
///     }
///     sphere(x)
/// };
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
    G: Fn(&[f64], &mut [f64]) -> f64 + ?Sized,
{
    let n = x0.len();
    assert!(n > 0, "cannot optimize a zero-dimensional problem");

    let mut x = x0.to_vec();
    let mut grad = vec![0.0; n];
    let mut fx = grad_fn(&x, &mut grad);
    let mut evaluations = 1usize;

    // Inverse Hessian approximation (row-major n×n), initialized to the
    // identity, and the per-iteration vectors, all allocated once per run.
    let mut h_inv = vec![0.0; n * n];
    set_identity(&mut h_inv, n);
    let mut p = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut grad_new = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut hy = vec![0.0; n];

    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..opts.max_iters {
        if norm(&grad) < opts.grad_tol {
            converged = true;
            break;
        }

        // Search direction p = -H_inv * grad.
        for (pi, row) in p.iter_mut().zip(h_inv.chunks_exact(n)) {
            *pi = -dot(row, &grad);
        }
        // Safeguard: if the direction is not a descent direction (numerical
        // breakdown), restart from steepest descent.
        if dot(&p, &grad) >= 0.0 {
            set_identity(&mut h_inv, n);
            for (pi, gi) in p.iter_mut().zip(&grad) {
                *pi = -gi;
            }
        }

        // Strong-Wolfe line search for step length alpha. Its last gradient
        // probe lands in `grad_new`.
        let mut line = Line {
            f,
            grad_fn,
            x: &x,
            p: &p,
            probe: &mut x_new,
            grad: &mut grad_new,
            grad_alpha: None,
            evaluations: 0,
        };
        let (alpha, f_new) = wolfe_line_search(&mut line, fx, dot(&grad, &p), opts);
        let grad_ready = line.grad_alpha == Some(alpha);
        evaluations += line.evaluations;
        if alpha == 0.0 {
            // Line search failed to make progress; treat as converged to avoid
            // spinning.
            break;
        }
        iterations += 1;

        for ((xn, xi), pi) in x_new.iter_mut().zip(&x).zip(&p) {
            *xn = xi + alpha * pi;
        }
        if !grad_ready {
            grad_fn(&x_new, &mut grad_new);
            evaluations += 1;
        }

        // BFGS update of the inverse Hessian.
        for i in 0..n {
            s[i] = x_new[i] - x[i];
            y[i] = grad_new[i] - grad[i];
        }
        let sy = dot(&s, &y);
        if sy > 1e-12 {
            bfgs_update(&mut h_inv, &s, &y, 1.0 / sy, &mut hy);
        }

        let f_decrease = fx - f_new;
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut grad, &mut grad_new);
        fx = f_new;

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

/// Overwrites the row-major `n×n` matrix `m` with the identity.
fn set_identity(m: &mut [f64], n: usize) {
    m.fill(0.0);
    for i in 0..n {
        m[i * n + i] = 1.0;
    }
}

/// BFGS inverse-Hessian update, in place on the symmetric row-major `h`:
///
/// ```text
/// H' = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
///    = H - rho (s v^T + v s^T) + (rho^2 y^T v + rho) s s^T,   v = H y
/// ```
///
/// The rank-2 form costs `O(n²)` against the product form's `O(n³)`. Only the
/// upper triangle is computed and mirrored, so `H'` is exactly symmetric.
/// `hy` is scratch space for `v`.
fn bfgs_update(h: &mut [f64], s: &[f64], y: &[f64], rho: f64, hy: &mut [f64]) {
    let n = s.len();
    for (vi, row) in hy.iter_mut().zip(h.chunks_exact(n)) {
        *vi = dot(row, y);
    }
    let v: &[f64] = hy;
    let ss_coef = rho * rho * dot(y, v) + rho;
    for i in 0..n {
        for j in i..n {
            let updated =
                h[i * n + j] - rho * (s[i] * v[j] + v[i] * s[j]) + ss_coef * (s[i] * s[j]);
            h[i * n + j] = updated;
            h[j * n + i] = updated;
        }
    }
}

/// The one-dimensional restriction `phi(alpha) = f(x + alpha p)` of one line
/// search. Probes write `x + alpha p` into a reused buffer; `phi'(alpha)` is
/// `∇f(x + alpha p)·p` from the analytic gradient, whose last value stays in
/// `grad` (tagged with its step in `grad_alpha`) so the caller can take it
/// for the accepted step.
struct Line<'a, F: ?Sized, G: ?Sized> {
    f: &'a F,
    grad_fn: &'a G,
    x: &'a [f64],
    p: &'a [f64],
    probe: &'a mut [f64],
    grad: &'a mut [f64],
    grad_alpha: Option<f64>,
    evaluations: usize,
}

impl<F, G> Line<'_, F, G>
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64], &mut [f64]) -> f64 + ?Sized,
{
    fn move_probe(&mut self, alpha: f64) {
        for ((slot, xi), pi) in self.probe.iter_mut().zip(self.x).zip(self.p) {
            *slot = xi + alpha * pi;
        }
    }

    fn phi(&mut self, alpha: f64) -> f64 {
        self.move_probe(alpha);
        self.evaluations += 1;
        (self.f)(self.probe)
    }

    fn dphi(&mut self, alpha: f64) -> f64 {
        self.move_probe(alpha);
        self.evaluations += 1;
        (self.grad_fn)(self.probe, self.grad);
        self.grad_alpha = Some(alpha);
        dot(self.grad, self.p)
    }
}

/// A bracketing + zoom line search enforcing the strong Wolfe conditions,
/// given `phi(0) = fx` and `phi'(0) = dphi0`. Returns
/// `(alpha, f(x + alpha p))`; `alpha == 0` signals failure.
fn wolfe_line_search<F, G>(
    line: &mut Line<'_, F, G>,
    fx: f64,
    dphi0: f64,
    opts: &BfgsOptions,
) -> (f64, f64)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64], &mut [f64]) -> f64 + ?Sized,
{
    let phi0 = fx;
    if dphi0 >= 0.0 {
        return (0.0, fx);
    }

    let mut alpha_prev = 0.0;
    let mut phi_prev = phi0;
    let mut alpha = 1.0;
    let alpha_max = 10.0;

    for i in 0..opts.max_line_search_steps {
        let phi_alpha = line.phi(alpha);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || (i > 0 && phi_alpha >= phi_prev) {
            return zoom(line, phi0, dphi0, alpha_prev, phi_prev, alpha, opts);
        }
        let dphi_alpha = line.dphi(alpha);
        if dphi_alpha.abs() <= -opts.c2 * dphi0 {
            return (alpha, phi_alpha);
        }
        if dphi_alpha >= 0.0 {
            return zoom(line, phi0, dphi0, alpha, phi_alpha, alpha_prev, opts);
        }
        alpha_prev = alpha;
        phi_prev = phi_alpha;
        alpha = (alpha * 2.0).min(alpha_max);
    }
    // Fall back to a simple backtracking result.
    let phi_alpha = line.phi(alpha);
    if phi_alpha < phi0 {
        (alpha, phi_alpha)
    } else {
        (0.0, phi0)
    }
}

/// The `zoom` procedure of Nocedal & Wright Algorithm 3.6, expressed on the
/// one-dimensional restriction `phi(alpha) = f(x + alpha p)`.
fn zoom<F, G>(
    line: &mut Line<'_, F, G>,
    phi0: f64,
    dphi0: f64,
    mut alpha_lo: f64,
    mut phi_lo: f64,
    mut alpha_hi: f64,
    opts: &BfgsOptions,
) -> (f64, f64)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64], &mut [f64]) -> f64 + ?Sized,
{
    let mut best = (alpha_lo, phi_lo);
    for _ in 0..opts.max_line_search_steps {
        // Bisection is robust for the smooth objectives we optimize.
        let alpha = 0.5 * (alpha_lo + alpha_hi);
        if (alpha_hi - alpha_lo).abs() < 1e-14 {
            break;
        }
        let phi_alpha = line.phi(alpha);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || phi_alpha >= phi_lo {
            alpha_hi = alpha;
        } else {
            if phi_alpha < best.1 {
                best = (alpha, phi_alpha);
            }
            let dphi_alpha = line.dphi(alpha);
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    /// BFGS steered by the central-difference gradient oracle.
    fn minimize_numeric(f: &dyn Fn(&[f64]) -> f64, x0: &[f64], opts: &BfgsOptions) -> OptimResult {
        let grad = |x: &[f64], g: &mut [f64]| {
            g.copy_from_slice(&numerical_gradient(f, x, 1e-6));
            f(x)
        };
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
        let rosen_grad = |x: &[f64], g: &mut [f64]| {
            g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            g[1] = 200.0 * (x[1] - x[0] * x[0]);
            rosen(x)
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
        let calls = Cell::new(0usize);
        let counted_sphere = |x: &[f64]| {
            calls.set(calls.get() + 1);
            sphere(x)
        };
        let grad = |x: &[f64], g: &mut [f64]| {
            calls.set(calls.get() + 1);
            for (gi, xi) in g.iter_mut().zip(x) {
                *gi = 2.0 * xi;
            }
            sphere(x)
        };
        let r = minimize_bfgs_with_grad(
            &counted_sphere,
            &grad,
            &[2.0, -1.0],
            &BfgsOptions::default(),
        );
        assert!(r.converged);
        assert!(r.value < 1e-12);
        // Every objective and every gradient call is one evaluation.
        assert_eq!(r.evaluations, calls.get());
    }

    /// Row-major `n×n` product `a·b`.
    fn mat_mul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    out[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        out
    }

    /// The textbook product form `(I - rho s y^T) H (I - rho y s^T) + rho s s^T`.
    fn product_form_update(h: &[f64], s: &[f64], y: &[f64], rho: f64) -> Vec<f64> {
        let n = s.len();
        let mut a = vec![0.0; n * n];
        let mut a_t = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let delta = if i == j { 1.0 } else { 0.0 };
                a[i * n + j] = delta - rho * s[i] * y[j];
                a_t[i * n + j] = delta - rho * y[i] * s[j];
            }
        }
        let mut out = mat_mul(&mat_mul(&a, h, n), &a_t, n);
        for i in 0..n {
            for j in 0..n {
                out[i * n + j] += rho * s[i] * s[j];
            }
        }
        out
    }

    /// A seeded random SPD matrix `M Mᵀ + I` and a curvature pair `(s, y)`
    /// with `y = B s` for another random SPD `B`, so `sᵀy > 0`.
    fn random_update_inputs(n: usize, rng: &mut ChaCha8Rng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let spd = |rng: &mut ChaCha8Rng| {
            let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    out[i * n + j] = (0..n).map(|k| m[i * n + k] * m[j * n + k]).sum::<f64>();
                }
                out[i * n + i] += 1.0;
            }
            out
        };
        let h = spd(rng);
        let b = spd(rng);
        let s: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = b.chunks_exact(n).map(|row| dot(row, &s)).collect();
        (h, s, y)
    }

    #[test]
    fn rank_two_update_matches_the_product_form() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for n in [6, 24, 42] {
            for _ in 0..4 {
                let (mut h, s, y) = random_update_inputs(n, &mut rng);
                let rho = 1.0 / dot(&s, &y);
                let expected = product_form_update(&h, &s, &y, rho);
                bfgs_update(&mut h, &s, &y, rho, &mut vec![0.0; n]);
                let diff = h
                    .iter()
                    .zip(&expected)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let rel = diff / norm(&expected);
                assert!(rel < 1e-12, "n = {n}: relative error {rel:e}");
            }
        }
    }

    #[test]
    fn rank_two_update_is_exactly_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for n in [6, 24, 42] {
            let (mut h, s, y) = random_update_inputs(n, &mut rng);
            // Several chained updates from a symmetric start.
            let mut hy = vec![0.0; n];
            for k in 0..5 {
                let sk: Vec<f64> = s.iter().map(|v| v * (k as f64 + 1.0)).collect();
                let yk: Vec<f64> = y
                    .iter()
                    .zip(&s)
                    .map(|(a, b)| a + 0.1 * k as f64 * b)
                    .collect();
                bfgs_update(&mut h, &sk, &yk, 1.0 / dot(&sk, &yk), &mut hy);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(h[i * n + j].to_bits(), h[j * n + i].to_bits(), "n = {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn accepted_steps_reuse_the_line_search_gradient() {
        // A strictly convex quadratic with curvatures in [0.5, 1.5]: the unit
        // step from the identity Hessian already satisfies both Wolfe
        // conditions, and BFGS steps keep doing so, so each iteration makes
        // exactly one gradient call (the curvature probe at alpha = 1) and
        // hands it to the update.
        let curv = [0.5, 0.8, 1.0, 1.2, 1.5, 0.9];
        let f = |x: &[f64]| 0.5 * x.iter().zip(&curv).map(|(v, a)| a * v * v).sum::<f64>();
        let grad_calls = Cell::new(0usize);
        let grad = |x: &[f64], g: &mut [f64]| {
            grad_calls.set(grad_calls.get() + 1);
            for ((gi, xi), a) in g.iter_mut().zip(x).zip(&curv) {
                *gi = a * xi;
            }
            f(x)
        };
        let x0 = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0];
        let r = minimize_bfgs_with_grad(&f, &grad, &x0, &BfgsOptions::default());
        assert!(r.converged);
        assert!(r.value < 1e-12, "value = {}", r.value);
        assert!(r.iterations > 1);
        assert_eq!(grad_calls.get(), 1 + r.iterations);
    }
}

//! Exact, approximate and continuous-family decomposition of two-qubit
//! unitaries (paper §V.A–B).

use circuit::{Circuit, Operation, QubitId};
use gates::fsim::ContinuousFamily;
use gates::GateType;
use optim::{multistart_minimize_with_grad, BfgsOptions, MultistartOptions};
use qmath::{hilbert_schmidt_fidelity, Mat4, RngSeed};
use serde::{Deserialize, Serialize};

use crate::template::Template;

/// Configuration for a NuOp decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecomposeConfig {
    /// Decomposition-fidelity threshold for the *exact* mode: the smallest
    /// layer count whose optimized `F_d` exceeds this value is selected.
    /// The paper uses 99.999%.
    pub fidelity_threshold: f64,
    /// Maximum number of two-qubit layers to try (the paper caps at 10; 3 is
    /// sufficient for any SU(4) with most gate types, SWAP-like targets may
    /// need more).
    pub max_layers: usize,
    /// Number of random restarts per layer count.
    pub restarts: usize,
    /// Single-qubit gate fidelity folded into the hardware-fidelity estimate
    /// `F_h` of the approximate mode. `1.0` ignores single-qubit errors, which
    /// matches the paper's model (1Q errors are an order of magnitude smaller).
    pub one_qubit_fidelity: f64,
    /// Options of the underlying BFGS optimizer.
    pub bfgs: BfgsOptions,
    /// Seed for the (deterministic) restart randomization.
    pub seed: u64,
}

impl Default for DecomposeConfig {
    fn default() -> Self {
        DecomposeConfig {
            fidelity_threshold: 0.99999,
            max_layers: 6,
            restarts: 4,
            one_qubit_fidelity: 1.0,
            bfgs: BfgsOptions::default(),
            seed: 0x6E75_4F70, // "nuOp"
        }
    }
}

impl DecomposeConfig {
    /// A cheaper configuration for large parameter sweeps (Fig. 8 heatmaps):
    /// fewer restarts and a faster optimizer, still reliably reaching
    /// `F_d > 0.9999` for expressible targets.
    pub fn sweep() -> Self {
        DecomposeConfig {
            fidelity_threshold: 0.9999,
            max_layers: 6,
            restarts: 2,
            bfgs: BfgsOptions::fast(),
            ..DecomposeConfig::default()
        }
    }
}

/// The result of decomposing one two-qubit target unitary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// The template that was optimized.
    pub template: Template,
    /// Optimal parameter vector for the template.
    pub params: Vec<f64>,
    /// Number of two-qubit hardware gates used.
    pub layers: usize,
    /// Decomposition fidelity `F_d` (Eq. 1) achieved.
    pub decomposition_fidelity: f64,
    /// Hardware fidelity `F_h` assumed for this decomposition (1.0 when the
    /// caller did not supply hardware error rates).
    pub hardware_fidelity: f64,
    /// Overall fidelity `F_u = F_d · F_h` (Eq. 2).
    pub overall_fidelity: f64,
    /// Label of the hardware gate type (or continuous family) targeted.
    pub gate_label: String,
}

impl Decomposition {
    /// The 4×4 unitary realized by the optimized template.
    pub fn realized_unitary(&self) -> Mat4 {
        self.template.unitary(&self.params)
    }

    /// Number of two-qubit hardware gates in the decomposition.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.layers
    }

    /// Expands the decomposition into circuit operations acting on `(q0, q1)`.
    ///
    /// The emitted sequence alternates pairs of `U3` rotations with the
    /// hardware two-qubit gate, exactly as in paper Fig. 4.
    pub fn to_operations(&self, q0: QubitId, q1: QubitId) -> Vec<Operation> {
        let mut ops = Vec::with_capacity(3 * (self.layers + 1));
        let push_1q_layer = |ops: &mut Vec<Operation>, k: usize| {
            let p = self.template.single_qubit_layer_params(&self.params, k);
            ops.push(Operation::u3(q0, p[0], p[1], p[2]));
            ops.push(Operation::u3(q1, p[3], p[4], p[5]));
        };
        push_1q_layer(&mut ops, 0);
        for layer in 0..self.layers {
            let gate_matrix = self.template.layer_gate_unitary(&self.params, layer);
            ops.push(Operation::unitary2q(
                self.gate_label.clone(),
                gate_matrix,
                q0,
                q1,
            ));
            push_1q_layer(&mut ops, layer + 1);
        }
        ops
    }

    /// Builds a circuit over `num_qubits` qubits containing the decomposition
    /// applied to `(q0, q1)`.
    pub fn to_circuit(&self, num_qubits: usize, q0: QubitId, q1: QubitId) -> Circuit {
        let mut c = Circuit::new(num_qubits);
        for op in self.to_operations(q0, q1) {
            c.push(op);
        }
        c
    }
}

/// Optimizes a template against a target and returns `(params, F_d)`.
fn optimize_template(
    template: &Template,
    target: &Mat4,
    config: &DecomposeConfig,
    stream: u64,
) -> (Vec<f64>, f64) {
    // The objective is allocation-free: `Template::unitary` builds the 4×4
    // on the stack and the fidelity reduces it to a scalar in place. BFGS is
    // steered by the analytic gradient of crate::gradient (one prefix/suffix
    // sweep), which writes into the optimizer's own buffer; the line search
    // takes its directional derivatives from the same gradient, so the
    // objective is only probed for the sufficient-decrease test.
    let objective =
        |params: &[f64]| 1.0 - hilbert_schmidt_fidelity(&template.unitary(params), target);
    let gradient_fn = |params: &[f64], grad: &mut [f64]| {
        crate::gradient::hs_objective_gradient(template, target, params, grad)
    };
    let n = template.parameter_count();
    // Start from all-zero angles (identity 1Q layers); restarts perturb this.
    let x0 = vec![0.0; n];
    let opts = MultistartOptions {
        restarts: config.restarts,
        spread: std::f64::consts::PI,
        target_value: Some(1.0 - config.fidelity_threshold),
        bfgs: config.bfgs.clone(),
    };
    let mut rng = RngSeed(config.seed).child(stream).rng();
    let result = multistart_minimize_with_grad(&objective, &gradient_fn, &x0, &opts, &mut rng);
    let fidelity = 1.0 - result.value;
    (result.x, fidelity)
}

/// Exact decomposition into a fixed hardware gate type (paper §V.A).
///
/// Templates of 0, 1, 2, … layers are optimized in turn; the first to reach
/// `config.fidelity_threshold` is returned. If no layer count up to
/// `config.max_layers` reaches the threshold, the best attempt found is
/// returned (its `decomposition_fidelity` tells the caller how close it got).
pub fn decompose_fixed(target: &Mat4, gate: &GateType, config: &DecomposeConfig) -> Decomposition {
    let attempt = |layers: usize| {
        let template = Template::fixed(*gate.unitary(), layers);
        let (params, fd) = optimize_template(&template, target, config, layers as u64);
        Decomposition {
            template,
            params,
            layers,
            decomposition_fidelity: fd,
            hardware_fidelity: 1.0,
            overall_fidelity: fd,
            gate_label: gate.name().to_string(),
        }
    };
    // The zero-layer template always exists, so `best` is never empty.
    let mut best = attempt(0);
    for layers in 1..=config.max_layers {
        if best.decomposition_fidelity >= config.fidelity_threshold {
            break;
        }
        let candidate = attempt(layers);
        if candidate.decomposition_fidelity > best.decomposition_fidelity {
            best = candidate;
        }
    }
    best
}

/// Approximate, hardware-aware decomposition (paper §V.B, Eq. 2).
///
/// `two_qubit_fidelity` is the calibrated hardware fidelity of the target gate
/// type on the qubit pair being compiled. The returned decomposition maximizes
/// `F_u = F_d(i) · F_h(i)` over layer counts `i`, where
/// `F_h(i) = two_qubit_fidelity^i · one_qubit_fidelity^(2(i+1))`.
pub fn decompose_approx(
    target: &Mat4,
    gate: &GateType,
    two_qubit_fidelity: f64,
    config: &DecomposeConfig,
) -> Decomposition {
    assert!(
        (0.0..=1.0).contains(&two_qubit_fidelity),
        "hardware fidelity must lie in [0, 1]"
    );
    let hw = |layers: usize| -> f64 {
        two_qubit_fidelity.powi(layers as i32)
            * config.one_qubit_fidelity.powi(2 * (layers as i32 + 1))
    };
    let attempt = |layers: usize, f_h: f64| {
        let template = Template::fixed(*gate.unitary(), layers);
        let (params, fd) = optimize_template(&template, target, config, 100 + layers as u64);
        Decomposition {
            template,
            params,
            layers,
            decomposition_fidelity: fd,
            hardware_fidelity: f_h,
            overall_fidelity: fd * f_h,
            gate_label: gate.name().to_string(),
        }
    };
    // The zero-layer template always exists, so `best` is never empty.
    let mut best = attempt(0, hw(0));
    for layers in 1..=config.max_layers {
        let f_h = hw(layers);
        // Adding layers can only lower F_h; once even a perfect F_d cannot beat
        // the best F_u found so far, stop.
        if f_h <= best.overall_fidelity {
            break;
        }
        let candidate = attempt(layers, f_h);
        if candidate.overall_fidelity > best.overall_fidelity {
            best = candidate;
        }
    }
    best
}

/// Decomposition targeting a *continuous* gate family (FullXY / FullfSim): the
/// per-layer family angles are optimization variables alongside the
/// single-qubit angles (paper §V.A, last paragraph).
pub fn decompose_continuous(
    target: &Mat4,
    family: ContinuousFamily,
    config: &DecomposeConfig,
) -> Decomposition {
    let attempt = |layers: usize| {
        let template = Template::family(family, layers);
        let (params, fd) = optimize_template(&template, target, config, 200 + layers as u64);
        Decomposition {
            template,
            params,
            layers,
            decomposition_fidelity: fd,
            hardware_fidelity: 1.0,
            overall_fidelity: fd,
            gate_label: family.name().to_string(),
        }
    };
    // The zero-layer template always exists, so `best` is never empty.
    let mut best = attempt(0);
    for layers in 1..=config.max_layers {
        if best.decomposition_fidelity >= config.fidelity_threshold {
            break;
        }
        let candidate = attempt(layers);
        if candidate.decomposition_fidelity > best.decomposition_fidelity {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates::standard;
    use qmath::{haar_random_su4, RngSeed};

    fn quick_config() -> DecomposeConfig {
        DecomposeConfig {
            restarts: 3,
            max_layers: 4,
            ..DecomposeConfig::default()
        }
    }

    #[test]
    fn identity_needs_zero_layers() {
        let d = decompose_fixed(&Mat4::identity(), &GateType::cz(), &quick_config());
        assert_eq!(d.layers, 0);
        assert!(d.decomposition_fidelity > 0.99999);
    }

    #[test]
    fn cz_target_with_cz_gate_needs_one_layer() {
        let d = decompose_fixed(&standard::cz(), &GateType::cz(), &quick_config());
        assert!(d.layers <= 1);
        assert!(d.decomposition_fidelity > 0.99999);
    }

    #[test]
    fn cnot_with_cz_needs_one_layer() {
        let d = decompose_fixed(&standard::cnot(), &GateType::cz(), &quick_config());
        assert_eq!(d.layers, 1);
        assert!(d.decomposition_fidelity > 0.99999);
        // Verify the emitted operations reproduce CNOT up to global phase.
        let circ = d.to_circuit(2, 0, 1);
        assert!(circ
            .unitary()
            .approx_eq_up_to_phase(&standard::cnot(), 1e-3));
    }

    #[test]
    fn qaoa_zz_with_cz_needs_two_layers() {
        // Fig. 2d: the ZZ interaction requires 2 CZ applications.
        let target = standard::zz_interaction(0.0303);
        let d = decompose_fixed(&target, &GateType::cz(), &quick_config());
        assert_eq!(d.layers, 2);
        assert!(d.decomposition_fidelity > 0.9999);
    }

    #[test]
    fn random_su4_with_cz_needs_three_layers() {
        // Fig. 2c: a generic SU(4) (QV unitary) needs 3 CZ gates.
        let mut rng = RngSeed(21).rng();
        let target = haar_random_su4(&mut rng);
        let d = decompose_fixed(&target, &GateType::cz(), &quick_config());
        assert_eq!(d.layers, 3, "fd = {}", d.decomposition_fidelity);
        assert!(d.decomposition_fidelity > 0.9999);
        // Realized unitary matches the target up to phase.
        assert!(qmath::hilbert_schmidt_fidelity(&d.realized_unitary(), &target) > 0.9999);
    }

    #[test]
    fn swap_with_cz_needs_three_layers() {
        let d = decompose_fixed(&standard::swap(), &GateType::cz(), &quick_config());
        assert_eq!(d.layers, 3);
        assert!(d.decomposition_fidelity > 0.9999);
    }

    #[test]
    fn approx_mode_trades_accuracy_for_gate_count() {
        // With a very noisy hardware gate (90% fidelity), the approximate mode
        // should never use more gates than the exact mode, and usually fewer
        // for a generic SU(4) target.
        let mut rng = RngSeed(33).rng();
        let target = haar_random_su4(&mut rng);
        let exact = decompose_fixed(&target, &GateType::cz(), &quick_config());
        let approx = decompose_approx(&target, &GateType::cz(), 0.90, &quick_config());
        assert!(approx.layers <= exact.layers);
        assert!(
            approx.overall_fidelity
                >= exact.decomposition_fidelity * 0.9f64.powi(exact.layers as i32) - 1e-9
        );
        assert!(approx.hardware_fidelity <= 1.0);
    }

    #[test]
    fn approx_mode_with_perfect_hardware_matches_exact() {
        let target = standard::cnot();
        let approx = decompose_approx(&target, &GateType::cz(), 1.0, &quick_config());
        assert_eq!(approx.layers, 1);
        assert!(approx.decomposition_fidelity > 0.99999);
        assert!((approx.overall_fidelity - approx.decomposition_fidelity).abs() < 1e-12);
    }

    #[test]
    fn continuous_fsim_reaches_generic_su4_in_two_layers() {
        // Paper Fig. 8 caption: with the full continuous fSim family, QV
        // unitaries need ~2 gates.
        let mut rng = RngSeed(55).rng();
        let target = haar_random_su4(&mut rng);
        let cfg = DecomposeConfig {
            restarts: 4,
            max_layers: 3,
            ..DecomposeConfig::default()
        };
        let d = decompose_continuous(&target, ContinuousFamily::FullFsim, &cfg);
        assert!(d.layers <= 3);
        assert!(
            d.decomposition_fidelity > 0.999,
            "fd = {}",
            d.decomposition_fidelity
        );
    }

    #[test]
    fn to_operations_structure() {
        let d = decompose_fixed(&standard::cnot(), &GateType::cz(), &quick_config());
        let ops = d.to_operations(2, 3);
        // 2 U3s per 1Q layer, (layers+1) 1Q layers, plus `layers` 2Q gates.
        assert_eq!(ops.len(), 2 * (d.layers + 1) + d.layers);
        let two_q = ops.iter().filter(|o| o.is_two_qubit_unitary()).count();
        assert_eq!(two_q, d.layers);
        for op in &ops {
            for &q in op.qubits() {
                assert!(q == 2 || q == 3);
            }
        }
    }

    #[test]
    fn sweep_config_is_cheaper_but_valid() {
        let cfg = DecomposeConfig::sweep();
        assert!(cfg.restarts < DecomposeConfig::default().restarts);
        let d = decompose_fixed(&standard::cnot(), &GateType::cz(), &cfg);
        assert_eq!(d.layers, 1);
    }

    #[test]
    fn non_two_qubit_targets_are_rejected_at_the_conversion_boundary() {
        // The 4×4 shape is now enforced by the type system: a wrong-sized
        // CMatrix fails to convert instead of panicking inside the optimizer.
        let err = Mat4::try_from(&qmath::CMatrix::identity(2)).unwrap_err();
        assert_eq!(err.expected, 4);
    }
}

//! Pins NuOp decomposition outcomes on seeded Haar targets.
//!
//! Twelve Haar-random SU(4) targets are decomposed under
//! [`DecomposeConfig::sweep`] in seven ways: approximate (F_h = 0.99) and
//! exact for CZ, SYC and √iSWAP, and continuous for FullXY. Every case must
//! reproduce its recorded layer count exactly and its decomposition fidelity
//! to 1e-6, so an optimizer change that alters what the pass produces (rather
//! than how fast it gets there) fails here.

use gates::fsim::ContinuousFamily;
use gates::GateType;
use nuop_core::{
    decompose_approx, decompose_continuous, decompose_fixed, DecomposeConfig, Decomposition,
};
use qmath::{haar_random_su4, Mat4, RngSeed};

const HARDWARE_FIDELITY: f64 = 0.99;
const FIDELITY_TOLERANCE: f64 = 1e-6;

/// Recorded `(layers, decomposition_fidelity)` per mode, one entry per target
/// in draw order from `RngSeed(2024)`.
const PINNED: [(&str, [(usize, f64); 12]); 7] = [
    (
        "approx/CZ",
        [
            (2, 0.999548958731),
            (2, 0.999219694514),
            (3, 1.000000000000),
            (2, 0.990656687807),
            (3, 0.999999999999),
            (3, 0.999999999999),
            (2, 0.993122265572),
            (2, 0.999744313444),
            (2, 0.999630945265),
            (3, 1.000000000000),
            (2, 0.999974806121),
            (3, 0.999999999999),
        ],
    ),
    (
        "approx/SYC",
        [
            (2, 0.999210715312),
            (2, 0.994271358135),
            (3, 0.999999999999),
            (2, 0.990656687807),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (2, 0.999744313444),
            (2, 0.999630945265),
            (3, 0.999999999999),
            (2, 0.999974806117),
            (3, 0.999999999999),
        ],
    ),
    (
        "approx/sqrt_iSWAP",
        [
            (2, 0.999999999999),
            (1, 0.995277137135),
            (2, 0.999402703528),
            (2, 0.999999999998),
            (2, 0.998412892084),
            (2, 0.999999999999),
            (2, 0.999999999998),
            (3, 1.000000000000),
            (2, 0.999999999999),
            (2, 0.997988660159),
            (2, 0.999999930558),
            (2, 0.991424531826),
        ],
    ),
    (
        "fixed/CZ",
        [
            (3, 0.999999999999),
            (3, 0.999999999999),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 0.999999999999),
            (3, 0.999999999999),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 0.999999999997),
            (3, 1.000000000000),
            (2, 0.999974806121),
            (3, 0.999999999999),
        ],
    ),
    (
        "fixed/SYC",
        [
            (3, 1.000000000000),
            (3, 0.999999999999),
            (3, 0.999999999999),
            (3, 0.999999999995),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 1.000000000000),
            (3, 0.999999999999),
            (3, 0.999999999999),
            (2, 0.999974806121),
            (3, 0.999999999999),
        ],
    ),
    (
        "fixed/sqrt_iSWAP",
        [
            (2, 0.999999999999),
            (2, 0.999999999998),
            (3, 1.000000000000),
            (2, 0.999999999998),
            (3, 0.999999999999),
            (2, 0.999999999999),
            (3, 0.999999999999),
            (3, 1.000000000000),
            (2, 0.999999999999),
            (2, 1.000000000000),
            (2, 0.999999930558),
            (3, 0.999999999999),
        ],
    ),
    (
        "continuous/FullXY",
        [
            (2, 0.999999999999),
            (2, 1.000000000000),
            (2, 0.999910948632),
            (2, 0.999999999999),
            (2, 0.999999999999),
            (2, 0.999999999999),
            (2, 0.999999999999),
            (2, 0.999999999999),
            (2, 1.000000000000),
            (2, 1.000000000000),
            (2, 1.000000000000),
            (3, 0.999999999999),
        ],
    ),
];

fn decompose(mode: &str, target: &Mat4, config: &DecomposeConfig) -> Decomposition {
    let gate = |name: &str| match name {
        "CZ" => GateType::cz(),
        "SYC" => GateType::syc(),
        "sqrt_iSWAP" => GateType::sqrt_iswap(),
        other => panic!("no gate {other}"),
    };
    match mode.split_once('/') {
        Some(("approx", g)) => decompose_approx(target, &gate(g), HARDWARE_FIDELITY, config),
        Some(("fixed", g)) => decompose_fixed(target, &gate(g), config),
        Some(("continuous", "FullXY")) => {
            decompose_continuous(target, ContinuousFamily::FullXy, config)
        }
        _ => panic!("unknown mode {mode}"),
    }
}

#[test]
fn seeded_haar_decompositions_match_their_recorded_outcomes() {
    let config = DecomposeConfig::sweep();
    let mut rng = RngSeed(2024).rng();
    let targets: Vec<Mat4> = (0..12).map(|_| haar_random_su4(&mut rng)).collect();
    let mut mismatches = Vec::new();
    for (mode, expected) in PINNED {
        for (i, (target, &(layers, fd))) in targets.iter().zip(expected.iter()).enumerate() {
            let d = decompose(mode, target, &config);
            if d.layers != layers || (d.decomposition_fidelity - fd).abs() > FIDELITY_TOLERANCE {
                mismatches.push(format!(
                    "{mode} target {i}: got {} layers, F_d {:.12}; pinned {layers}, {fd:.12}",
                    d.layers, d.decomposition_fidelity
                ));
            }
        }
    }
    assert_eq!(PINNED.len() * targets.len(), 84);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

//! Golden-file tests for the JSON diagnostic rendering.
//!
//! The rendered bytes are part of the server's metrics/report surface, so any
//! drift must be a conscious decision. Regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p verify --test golden_json
//! ```

use circuit::{Circuit, Operation};
use device::DeviceModel;
use qmath::RngSeed;
use verify::{Artifact, Diagnostic, Span, Stage, StageSnapshot, Verifier, VerifyReport};

fn check_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, format!("{rendered}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered,
        expected.trim_end(),
        "rendered JSON drifted from {}; rerun with BLESS=1 if intentional",
        path.display()
    );
}

#[test]
fn handcrafted_report_matches_golden() {
    let mut report = VerifyReport::new();
    report.push(
        Diagnostic::error("route/coupling", "op 2 (CZ) acts on uncoupled pair (0, 2)").at_op(2),
    );
    report.push(Diagnostic::warning(
        "fusion/equivalence",
        "spot check skipped: register wider than the probe limit",
    ));
    report.push(
        Diagnostic::info("isa/gate-set", "stream uses 3 distinct labels")
            .with_span(Span::range(0, 4)),
    );
    check_golden("handcrafted.json", &report.to_json().to_string());
}

#[test]
fn coupling_violation_diagnostic_matches_golden() {
    // A real rule run, so the golden also locks the message wording that
    // reaches the server metrics surface.
    let device = DeviceModel::sycamore(RngSeed(1));
    let region = vec![0, 1, 2];
    let subdevice = device.subdevice(&region);
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::cz(0, 2));
    let layout = [0, 1, 2];
    let snapshot = StageSnapshot {
        stage: Stage::SwapRoute,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &layout,
        final_layout: &layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    };
    let report = Verifier::structural().run(&Artifact::Stage(&snapshot));
    check_golden("coupling_violation.json", &report.to_json().to_string());
}

#[test]
fn escaping_is_stable_against_the_golden() {
    let report = {
        let mut r = VerifyReport::new();
        r.push(Diagnostic::error(
            "kernel/unitarity",
            "matrix entry \"(0,0)\" drifted by 2.5e-1\nnorm |U U^dag - I| = 0.25",
        ));
        r
    };
    check_golden("escaping.json", &report.to_json().to_string());
}

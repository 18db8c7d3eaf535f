//! Byte-identity of `sa run` outputs across refactors.
//!
//! Each committed sweep spec below is re-run in-process and rendered the
//! way `sa run` renders it (instant tasks, aggregate rows, then
//! `render_json` + `render_markdown`), and the bytes must equal the
//! `EXPERIMENTS.json` / `EXPERIMENTS.md` kept under
//! `tests/golden/sweep/<spec>/`. Together the specs cover all four sweep
//! algorithm families, fault plans, the three scenario kinds and both step
//! engines. A deliberate output change regenerates a golden pair with
//! `sa run examples/specs/<spec>.json --out tests/golden/sweep/<spec>`.

use sa_bench::sweep::{
    aggregate_rows, render_json, render_markdown, run_instant_tasks, run_unit, CheckpointPolicy,
    SweepSpec, UnitOutcome,
};
use std::path::Path;

const SPECS: &[&str] = &[
    "smoke",
    "smoke-binary",
    "e1",
    "e2",
    "e3",
    "scenarios/baselines",
    "scenarios/protocols",
    "scenarios/recovery-smoke",
];

/// Renders `spec` to its `(EXPERIMENTS.json, EXPERIMENTS.md)` bytes.
fn render(spec: &SweepSpec) -> (String, String) {
    let completed: Vec<_> = spec
        .execution_units()
        .into_iter()
        .map(|unit| match run_unit(&unit, &CheckpointPolicy::default()) {
            Ok(UnitOutcome::Complete(result)) => (unit, result),
            other => panic!("unit {} did not complete: {other:?}", unit.id()),
        })
        .collect();
    let (mut rows, artifacts) = run_instant_tasks(spec);
    rows.extend(aggregate_rows(&completed));
    (
        render_json(spec, &rows, &completed).render_pretty(),
        render_markdown(spec, &rows, &artifacts, &completed),
    )
}

#[test]
fn committed_sweep_specs_render_their_golden_bytes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in SPECS {
        let text = std::fs::read_to_string(root.join(format!("examples/specs/{name}.json")))
            .expect("committed spec readable");
        let spec = SweepSpec::parse(&text).expect("committed spec parses");
        let (json, markdown) = render(&spec);
        let golden = root.join("tests/golden/sweep").join(name);
        for (file, bytes) in [("EXPERIMENTS.json", json), ("EXPERIMENTS.md", markdown)] {
            let expected = std::fs::read_to_string(golden.join(file)).expect("golden readable");
            assert!(
                bytes == expected,
                "{name}/{file} differs from tests/golden/sweep/{name}/{file}"
            );
        }
    }
}

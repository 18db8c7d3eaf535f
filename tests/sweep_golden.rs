//! Byte-identity of `sa run` outputs across refactors.
//!
//! Each committed sweep spec below is re-run in-process and rendered the
//! way `sa run` renders it (instant tasks, aggregate rows, then
//! `render_json` + `render_markdown`), and the bytes must equal the
//! `EXPERIMENTS.json` / `EXPERIMENTS.md` kept under
//! `tests/golden/sweep/<spec>/`. Together the specs cover all four sweep
//! algorithm families, fault plans, the three scenario kinds, both step
//! engines and every instant task kind; the `claims/` specs are the paper's
//! Theorems 1.3, 1.4 and 3.1 and Corollary 1.2. A deliberate output change
//! regenerates a golden pair by copying `EXPERIMENTS.json` and
//! `EXPERIMENTS.md` from `sa run examples/specs/<spec>.json --out <dir>`.

use sa_bench::sweep::{
    aggregate_rows, render_json, render_markdown, run_instant_tasks, run_unit, CheckpointPolicy,
    SweepSpec, UnitOutcome,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const SPECS: &[&str] = &[
    "smoke",
    "smoke-binary",
    "e1",
    "e2",
    "e3",
    "scenarios/baselines",
    "scenarios/protocols",
    "scenarios/recovery-smoke",
    "claims/thm-3.1-restart",
    "claims/thm-1.3-le",
    "claims/thm-1.4-mis",
    "claims/cor-1.2-synchronizer",
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

/// Asserts that `examples/specs/<name>.json` renders its golden bytes.
fn check_golden(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
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

#[test]
fn committed_sweep_specs_render_their_golden_bytes() {
    // The specs are independent; two render at a time.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(name) = SPECS.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check_golden(name);
                }
            });
        }
    });
}

//! `sa check` on the instant task kinds: the committed claims specs
//! validate, and malformed `restart-exit` / `static` tasks are rejected
//! with the offending field named. `sa run` exits nonzero when an instant
//! task's row counts failures, and `sa verify` when an instance exceeds
//! its spec's state budget.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SA: &str = env!("CARGO_BIN_EXE_sa");

fn sa_check(path: &Path) -> Output {
    Command::new(SA)
        .arg("check")
        .arg(path)
        .output()
        .expect("run sa check")
}

#[test]
fn committed_claims_specs_validate() {
    let claims = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/claims");
    let out = sa_check(&claims);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches(": spec \"").count(), 4, "{stdout}");
}

#[test]
fn malformed_instant_tasks_are_invalid() {
    let dir: PathBuf = std::env::temp_dir().join(format!("sa-check-test-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            "unknown-field",
            r#"{"id": "R", "kind": "restart-exit",
                "topologies": [{"kind": "path", "n": 3}], "seed": 1}"#,
            "unknown field \"seed\" in restart-exit task",
        ),
        (
            "unknown-algorithm",
            r#"{"id": "S", "kind": "static", "algorithms": ["le"],
                "topologies": [{"kind": "path", "n": 3}]}"#,
            "unknown static algorithm \"le\"",
        ),
        (
            "empty-topologies",
            r#"{"id": "S", "kind": "static", "algorithms": ["algmis"], "topologies": []}"#,
            "topologies must be non-empty",
        ),
    ];
    for (name, task, expected) in cases {
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, format!(r#"{{"name": "{name}", "tasks": [{task}]}}"#)).unwrap();
        let out = sa_check(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: sa check accepted it");
        assert!(stderr.contains("INVALID"), "{name}: {stderr}");
        assert!(stderr.contains(expected), "{name}: {stderr}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// An instant task has rows but no units, so its failures must reach the
/// exit code through the report rows: one round is too short for AlgMIS to
/// stabilize on `grid-4x4`, and a long enough horizon exits cleanly.
#[test]
fn sa_run_exits_nonzero_when_an_instant_task_row_fails() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sa-run-exit-test-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    for (max_rounds, clean) in [(1, false), (400, true)] {
        let name = format!("static-{max_rounds}");
        let spec = dir.join(format!("{name}.json"));
        fs::write(
            &spec,
            format!(
                r#"{{"name": "{name}", "tasks": [{{"id": "S", "kind": "static",
                    "algorithms": ["algmis"], "topologies": [{{"kind": "grid", "rows": 4, "cols": 4}}],
                    "seeds": 2, "max_rounds": {max_rounds}}}]}}"#
            ),
        )
        .unwrap();
        let out = Command::new(SA)
            .arg("run")
            .arg(&spec)
            .arg("--out")
            .arg(dir.join(&name))
            .output()
            .expect("run sa run");
        let report = fs::read_to_string(dir.join(&name).join("EXPERIMENTS.json")).unwrap();
        assert_eq!(
            out.status.success(),
            clean,
            "max_rounds {max_rounds}: {report}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(report.contains("\"failures\": 0"), clean, "{report}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// A verify task's `max_states` is the budget `sa verify` holds the
/// instance to: AlgAU's full space on `path-2` has 18² = 324
/// configurations, so a budget of 10 refuses it before exploring and the
/// run exits nonzero.
#[test]
fn sa_verify_exits_nonzero_over_the_spec_state_budget() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sa-verify-budget-test-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("budget.json");
    fs::write(
        &spec,
        r#"{"name": "budget", "tasks": [{"id": "V", "kind": "verify",
            "algorithms": ["algau"], "topologies": [{"kind": "path", "n": 2}],
            "max_states": 10}]}"#,
    )
    .unwrap();
    let out = Command::new(SA)
        .arg("verify")
        .arg(&spec)
        .arg("--out")
        .arg(dir.join("out"))
        .output()
        .expect("run sa verify");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the budget guard let it run: {stderr}"
    );
    assert!(stderr.contains("exceeds the state budget"), "{stderr}");
    fs::remove_dir_all(&dir).ok();
}

//! End-to-end coverage of `sa verify` (exhaustive model checking).
//!
//! Pins the headline certificates — AlgAU and min-plus-one certified
//! closed + convergent on the committed tiny instances — plus the two
//! deliberate negatives: the reset-attempt strawman's fair-cycle live-lock
//! (replayed step by step through [`Execution`] to confirm the trace
//! demonstrates a real violation) and the LE composite's closure violation
//! over the *observational* legitimacy oracle (the documented caveat, see
//! `docs/verify.md`). Everything here must be deterministic across runs,
//! and every committed verify spec must render exactly the bytes kept
//! under `tests/golden/verify/`.

use sa_bench::sweep::SweepSpec;
use sa_bench::verify::{
    render_verify_json, render_verify_markdown, trace_json, trace_transcript, verify_units,
};
use sa_model::algorithm::LegitimacyOracle;
use sa_model::explore::{explore, ExploreConfig, ExploreReport, Seeds, ViolationKind};
use sa_model::{Execution, Graph, StateSpace};
use std::collections::BTreeMap;
use std::path::Path;
use unison_core::baseline::{reset_attempt_legitimate, ResetAttempt, ResetTurn};
use unison_core::{AlgAu, GoodGraphOracle};

fn verify_spec(text: &str) -> SweepSpec {
    SweepSpec::parse(text).expect("spec parses")
}

fn run_units(spec: &SweepSpec) -> Vec<sa_bench::verify::VerifyUnitReport> {
    verify_units(spec)
        .iter()
        .map(|u| u.run(&mut |_| {}).expect("unit runs"))
        .collect()
}

#[test]
fn algau_tiny_instances_certify() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["algau"],
             "topologies": [{"kind": "path", "n": 2}, {"kind": "cycle", "n": 3}]},
            {"id": "V2", "kind": "verify", "algorithms": ["algau"],
             "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
             "space": "reachable", "fault_radius": 1}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 3);
    for report in &reports {
        assert!(report.certified(), "{} must certify", report.unit_id);
        assert!(report.stats.deterministic);
    }
    // Exact sizes anchor determinism and catch transition-relation drift.
    assert_eq!(reports[0].stats.states, 324); // |Q|^2 = 18^2, path-2 at D=1
    assert_eq!(reports[1].stats.states, 5832); // 18^3, cycle-3 at D=1
    assert_eq!(reports[2].stats.states, 16096); // torus-3x3, benign + radius-1
    assert_eq!(reports[2].space, "reachable-r1");
}

#[test]
fn min_plus_one_certifies_under_min_quotient() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["min-plus-one"],
             "topologies": [{"kind": "path", "n": 3}]}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 1);
    assert!(reports[0].certified());
    // The register is unbounded; the min-subtraction quotient keeps the
    // explored palette finite (clocks 0..=2D+2 plus transient overshoot).
    assert_eq!(reports[0].stats.states, 131);
    assert_eq!(reports[0].stats.palette, 8);
}

/// The reset-attempt strawman live-locks on a 5-cycle at period 3; the
/// fair-cycle trace must replay through the real executor: every step's
/// configuration matches, the cycle closes, every cycle configuration is
/// illegitimate, and every node has a fairness witness inside the cycle.
#[test]
fn broken_reset_attempt_yields_replayable_counterexample() {
    let alg = ResetAttempt::new(3);
    let graph = Graph::cycle(5);
    let report = explore(
        &alg,
        &graph,
        Seeds::Full(&alg.states()),
        &|g, cfg: &[ResetTurn]| reset_attempt_legitimate(&alg, g, cfg),
        None,
        &ExploreConfig::default(),
        &mut |_| {},
    )
    .expect("explore");
    assert!(report.closure.is_certified());
    let trace = report.convergence.trace().expect("convergence violated");
    assert_eq!(trace.kind, ViolationKind::FairCycle);
    let cycle_start = trace.cycle_start.expect("fair cycle has an entry");

    // Replay: the trace's activation sequence drives the executor to the
    // exact same configurations (ResetAttempt is deterministic, so the
    // execution seed is irrelevant).
    let start = report.decode(&trace.start);
    let mut exec = Execution::new(&alg, &graph, start, 7);
    let mut configs = Vec::with_capacity(trace.steps.len());
    for step in &trace.steps {
        exec.step(&step.activation);
        assert_eq!(
            exec.configuration(),
            report.decode(&step.config).as_slice(),
            "trace step must reproduce in the executor"
        );
        configs.push(exec.configuration().to_vec());
    }
    // The cycle closes on its entry configuration...
    let entry = if cycle_start == 0 {
        report.decode(&trace.start)
    } else {
        configs[cycle_start - 1].clone()
    };
    assert_eq!(configs.last().unwrap(), &entry, "cycle must close");
    // ...every configuration inside it avoids the legitimate set...
    for config in &configs[cycle_start..] {
        assert!(!reset_attempt_legitimate(&alg, &graph, config));
    }
    // ...and the schedule is fair: every node has a witness in the cycle.
    let mut witnessed: Vec<bool> = vec![false; 5];
    for w in &trace.fairness {
        assert!(w.step >= cycle_start, "witness must lie inside the cycle");
        witnessed[w.node] = true;
    }
    assert!(witnessed.iter().all(|&b| b), "all nodes witnessed");
}

/// Every configuration of `n` nodes over `palette`, node 0 most
/// significant.
fn product<S: Clone>(palette: &[S], n: usize) -> Vec<Vec<S>> {
    let mut configs = vec![vec![]];
    for _ in 0..n {
        configs = configs
            .into_iter()
            .flat_map(|c| {
                palette.iter().map(move |s| {
                    let mut c = c.clone();
                    c.push(s.clone());
                    c
                })
            })
            .collect();
    }
    configs
}

/// Explores the full space over `alg`'s states twice: ranked
/// (`Seeds::Full`) and hashed (the same configurations as `Seeds::Listed`).
fn ranked_and_hashed<A: StateSpace>(
    alg: &A,
    graph: &Graph,
    oracle: &dyn Fn(&Graph, &[A::State]) -> bool,
) -> [ExploreReport<A::State>; 2] {
    let palette = alg.states();
    let mut listed = product(&palette, graph.node_count()).into_iter();
    [Seeds::Full(&palette), Seeds::Listed(&mut listed)].map(|seeds| {
        explore(
            alg,
            graph,
            seeds,
            oracle,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore")
    })
}

/// The ranked store gives the hashed store's report on real algorithms:
/// stats, palette, both verdicts and the traces, including the
/// reset-attempt live-lock's fair cycle.
#[test]
fn ranked_and_hashed_full_spaces_agree() {
    let au = AlgAu::new(1);
    let oracle = GoodGraphOracle::new(au);
    let [ranked, hashed] =
        ranked_and_hashed(&au, &Graph::cycle(3), &|g, c| oracle.is_legitimate(g, c));
    assert_eq!(ranked.stats.states, 5832);
    assert!(ranked.certified());
    assert_eq!(ranked, hashed);

    let reset = ResetAttempt::new(3);
    let [ranked, hashed] = ranked_and_hashed(&reset, &Graph::cycle(5), &|g, c| {
        reset_attempt_legitimate(&reset, g, c)
    });
    let trace = ranked.convergence.trace().expect("the live-lock");
    assert_eq!(trace.kind, ViolationKind::FairCycle);
    assert_eq!(ranked, hashed);
}

/// The committed broken spec reports the same violation through the full
/// spec → unit → report pipeline.
#[test]
fn broken_spec_reports_fair_cycle() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/verify-broken.json"
    ))
    .expect("committed spec readable");
    let reports = run_units(&verify_spec(&text));
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.unit_id, "V1-reset-attempt-p3-cycle-5-full");
    assert!(report.closure_certified);
    assert!(!report.convergence_certified);
    let trace = report.convergence_trace.as_ref().expect("trace present");
    assert_eq!(trace.kind, ViolationKind::FairCycle);
    assert_eq!(trace.fairness.len(), 5, "one witness per node");
}

/// The LE composite's *observational* oracle is not closed: a planted
/// leader claim can look legitimate while the epoch state is inconsistent,
/// and the protocol (correctly) restarts out of it. Convergence still
/// certifies. This is the documented oracle caveat, pinned here so it
/// cannot silently change.
#[test]
fn le_observational_oracle_closure_caveat() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["le"],
             "topologies": [{"kind": "complete", "n": 2}],
             "space": "reachable", "fault_radius": 1}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert!(!report.stats.deterministic, "LE tosses coins");
    assert!(
        !report.closure_certified,
        "observational oracle is not closed"
    );
    assert!(report.convergence_certified, "every state reaches L");
    let trace = report.closure_trace.as_ref().expect("closure trace");
    assert_eq!(trace.kind, ViolationKind::Closure);
    assert_eq!(trace.steps.len(), 1, "closure counterexamples are one step");
}

/// Renders a spec's reports to the files `sa verify` writes, as
/// `(path relative to the output directory, bytes)` pairs.
fn render_outputs(spec: &SweepSpec) -> BTreeMap<String, String> {
    let reports = run_units(spec);
    let mut files = BTreeMap::new();
    let mut json = render_verify_json(&spec.name, &reports).render_pretty();
    json.push('\n');
    files.insert("VERIFY.json".to_string(), json);
    files.insert(
        "VERIFY.md".to_string(),
        render_verify_markdown(&spec.name, &reports),
    );
    for report in &reports {
        for (property, trace) in report.traces() {
            let stem = format!("traces/{}.{property}", report.unit_id);
            let mut doc = trace_json(report, property, trace).render_pretty();
            doc.push('\n');
            files.insert(format!("{stem}.json"), doc);
            files.insert(
                format!("{stem}.txt"),
                trace_transcript(report, property, trace),
            );
        }
    }
    files
}

/// Every committed verify spec renders byte-for-byte the `VERIFY.json`,
/// `VERIFY.md` and trace files under `tests/golden/verify/<spec>/`. The
/// golden files pin the verdicts and counts, the palette discovery order,
/// the configuration ids quoted in trace notes, and every activation set of
/// every counterexample, so any drift in the explorer shows up here. A
/// deliberate output change regenerates them with
/// `sa verify examples/specs/<spec>.json --out tests/golden/verify/<spec>`.
#[test]
fn verify_results_deterministic_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in [
        "verify-algau",
        "verify-algau-cycle4",
        "verify-broken",
        "verify-composites",
        "verify-min-plus-one",
    ] {
        let text = std::fs::read_to_string(root.join(format!("examples/specs/{name}.json")))
            .expect("committed spec readable");
        let rendered = render_outputs(&verify_spec(&text));
        let golden_dir = root.join("tests/golden/verify").join(name);
        let mut golden = BTreeMap::new();
        for sub in ["", "traces"] {
            let Ok(entries) = std::fs::read_dir(golden_dir.join(sub)) else {
                continue;
            };
            for entry in entries {
                let path = entry.expect("golden entry").path();
                if path.is_file() {
                    let rel = path.strip_prefix(&golden_dir).expect("under golden dir");
                    let bytes = std::fs::read_to_string(&path).expect("golden file readable");
                    golden.insert(rel.to_string_lossy().into_owned(), bytes);
                }
            }
        }
        assert_eq!(
            rendered.keys().collect::<Vec<_>>(),
            golden.keys().collect::<Vec<_>>(),
            "{name}: rendered file set differs from the golden set"
        );
        for (file, bytes) in &rendered {
            assert!(
                *bytes == golden[file],
                "{name}/{file} differs from tests/golden/verify/{name}/{file}"
            );
        }
    }
}

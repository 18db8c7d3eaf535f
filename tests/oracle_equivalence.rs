//! Incremental ≡ full-scan legitimacy oracle equivalence.
//!
//! The incremental legitimacy layer (`sa_model::oracle::LegitimacyTracker`)
//! replaces the per-round full configuration scan with O(changed·deg) bitset
//! maintenance fed from the executor's dirty frontier. Its contract is that
//! the *verdicts are bit-identical* to the full scan — stabilization rounds,
//! violation lists, final configurations, everything. These tests pin that
//! contract in-process by wrapping the decomposing oracles/checkers in
//! wrappers that hide the decomposition (inheriting the default
//! `as_local() = None` / `snapshot_as_local() = None`), forcing the legacy
//! full-scan path, and comparing runs across all six scheduler families,
//! dense and sparse graphs, both step engines and fault injection.
//!
//! Also covered here: the sweep runner's phase machine, whose verdicts
//! come from incremental trackers, against a full-scan
//! `measure_stabilization` reference; its verification windows under
//! faults that break legitimacy *mid-window* (kill/resume must reseed the
//! tracker's bad-set and still finish bit-identical); the
//! violation-recording cap; and the per-node decompositions of the
//! biological composite predicates.

use stone_age_unison::model::checker::{
    measure_stabilization, measure_static_stabilization, violations_capped, MAX_RECORDED_VIOLATIONS,
};
use stone_age_unison::model::executor::StabilizationOutcome;
use stone_age_unison::model::prelude::*;
use stone_age_unison::model::EngineKind;
use stone_age_unison::unison::baseline::min_plus_one::min_plus_one_legitimate;
use stone_age_unison::unison::baseline::{MinPlusOne, MinPlusOneChecker, MinPlusOneOracle};
use stone_age_unison::unison::{AlgAu, AuChecker, GoodGraphOracle};

mod common;

/// Hides an oracle's per-node decomposition: delegates `is_legitimate` and
/// inherits the default `as_local() = None`, so every round check runs the
/// full scan. Running the same seeded execution against the wrapped and the
/// unwrapped oracle compares the two code paths end to end.
struct FullScanOracle<O>(O);

impl<A: Algorithm, O: LegitimacyOracle<A>> LegitimacyOracle<A> for FullScanOracle<O> {
    fn is_legitimate(&self, graph: &Graph, config: &[A::State]) -> bool {
        self.0.is_legitimate(graph, config)
    }
}

/// Hides a checker's snapshot decomposition (`snapshot_as_local() = None`),
/// forcing the per-round full snapshot scan during verification windows.
struct FullScanChecker<C>(C);

impl<A: Algorithm, C: TaskChecker<A>> TaskChecker<A> for FullScanChecker<C> {
    fn check_snapshot(&self, graph: &Graph, config: &[A::State]) -> Vec<String> {
        self.0.check_snapshot(graph, config)
    }
    fn check_window(&self, graph: &Graph, output_changes: &[u64], rounds: u64) -> Vec<String> {
        self.0.check_window(graph, output_changes, rounds)
    }
    fn task_name(&self) -> &'static str {
        self.0.task_name()
    }
}

/// Builds a fresh boxed scheduler per run (paired runs need twin instances).
type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// The six built-in scheduler families (same roster as `engine_equivalence`).
fn scheduler_factories(n: usize) -> Vec<(&'static str, SchedulerFactory)> {
    vec![
        ("synchronous", Box::new(|| Box::new(SynchronousScheduler))),
        (
            "uniform-random",
            Box::new(|| Box::new(UniformRandomScheduler::new(0.5))),
        ),
        ("central", Box::new(|| Box::new(CentralScheduler))),
        (
            "round-robin",
            Box::new(|| Box::<RoundRobinScheduler>::default()),
        ),
        (
            "adversarial-laggard",
            Box::new(move || Box::new(AdversarialLaggardScheduler::starving(n - 1, 4))),
        ),
        (
            "scripted",
            Box::new(move || {
                Box::new(ScriptedScheduler::new(vec![
                    (0..n).rev().collect(),
                    vec![n / 2, 0, n / 2],
                    vec![n - 1, 0],
                    (0..n).collect(),
                ]))
            }),
        ),
    ]
}

/// `run_until_legitimate` with AlgAU's `GoodGraphOracle` (incremental) agrees
/// with the hidden-decomposition wrapper (full scan) on outcome and final
/// configuration — across all six schedulers, a dense and a sparse graph,
/// and both step engines.
#[test]
fn algau_round_checks_match_full_scan() {
    let graphs = [("dense", Graph::complete(8)), ("sparse", Graph::cycle(12))];
    for (glabel, graph) in &graphs {
        let n = graph.node_count();
        let alg = AlgAu::new(graph.diameter());
        let palette = alg.states();
        let oracle = GoodGraphOracle::new(alg);
        assert!(
            oracle.as_local().is_some(),
            "GoodGraphOracle must advertise its decomposition"
        );
        let full = FullScanOracle(GoodGraphOracle::new(alg));
        for (slabel, factory) in scheduler_factories(n) {
            for engine in [EngineKind::Serial, EngineKind::Sharded { threads: 2 }] {
                for seed in 0..2u64 {
                    let context = format!("{glabel}/{slabel}/{engine:?}/seed {seed}");
                    let mut inc = ExecutionBuilder::new(&alg, graph)
                        .seed(seed)
                        .engine(engine)
                        .random_initial(&palette);
                    let mut scan = ExecutionBuilder::new(&alg, graph)
                        .seed(seed)
                        .engine(engine)
                        .random_initial(&palette);
                    let mut sched_a = factory();
                    let mut sched_b = factory();
                    let a = inc.run_until_legitimate(&mut *sched_a, &oracle, 3000);
                    let b = scan.run_until_legitimate(&mut *sched_b, &full, 3000);
                    assert_eq!(a, b, "[{context}] outcomes diverged");
                    assert_eq!(
                        inc.configuration(),
                        scan.configuration(),
                        "[{context}] final configurations diverged"
                    );
                }
            }
        }
        // Sanity: the comparison is not vacuous — the synchronous run stabilizes.
        let mut exec = ExecutionBuilder::new(&alg, graph)
            .seed(0)
            .random_initial(&palette);
        let outcome = exec.run_until_legitimate(&mut SynchronousScheduler, &oracle, 3000);
        assert!(
            matches!(outcome, StabilizationOutcome::Stabilized { .. }),
            "[{glabel}] synchronous run must stabilize, got {outcome:?}"
        );
    }
}

/// The named `MinPlusOneOracle` (incremental) agrees with both the wrapped
/// oracle and the plain `min_plus_one_legitimate` function (whose closure
/// blanket impl naturally has no decomposition) — three paths, one verdict.
#[test]
fn min_plus_one_round_checks_match_full_scan_and_closure() {
    let graph = Graph::grid(4, 4);
    let n = graph.node_count();
    let alg = MinPlusOne::new();
    let palette = [0u64, 1, 5, 17, 100, 1000];
    let oracle = MinPlusOneOracle;
    let full = FullScanOracle(MinPlusOneOracle);
    for (slabel, factory) in scheduler_factories(n) {
        for seed in 0..2u64 {
            let run = |which: usize| {
                let mut exec = ExecutionBuilder::new(&alg, &graph)
                    .seed(seed)
                    .random_initial(&palette);
                let mut sched = factory();
                let outcome = match which {
                    0 => exec.run_until_legitimate(&mut *sched, &oracle, 2000),
                    1 => exec.run_until_legitimate(&mut *sched, &full, 2000),
                    _ => exec.run_until_legitimate(&mut *sched, &min_plus_one_legitimate, 2000),
                };
                (outcome, exec.configuration().to_vec())
            };
            let incremental = run(0);
            assert_eq!(incremental, run(1), "[{slabel}/seed {seed}] vs wrapper");
            assert_eq!(incremental, run(2), "[{slabel}/seed {seed}] vs closure");
        }
    }
}

/// `measure_stabilization` — stabilization phase plus verification window —
/// produces the identical `StabilizationReport` through the incremental and
/// the full-scan paths, for both AlgAU and the min-plus-one baseline.
#[test]
fn stabilization_reports_match_full_scan() {
    // AlgAU: decomposing oracle + decomposing snapshot checker.
    let graph = Graph::cycle(10);
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    for seed in 0..3u64 {
        let mut inc = ExecutionBuilder::new(&alg, &graph)
            .seed(seed)
            .random_initial(&palette);
        let mut scan = ExecutionBuilder::new(&alg, &graph)
            .seed(seed)
            .random_initial(&palette);
        let mut sched_a = UniformRandomScheduler::new(0.5);
        let mut sched_b = UniformRandomScheduler::new(0.5);
        let a = measure_stabilization(
            &mut inc,
            &mut sched_a,
            &GoodGraphOracle::new(alg),
            &AuChecker::new(alg),
            4000,
            20,
        );
        let b = measure_stabilization(
            &mut scan,
            &mut sched_b,
            &FullScanOracle(GoodGraphOracle::new(alg)),
            &FullScanChecker(AuChecker::new(alg)),
            4000,
            20,
        );
        assert_eq!(a, b, "AlgAU seed {seed}: reports diverged");
        assert!(a.is_clean(), "AlgAU seed {seed}: {a:?}");
    }
    // Min-plus-one: same comparison on the baseline's checker.
    let alg = MinPlusOne::new();
    for seed in 0..3u64 {
        let run = |wrapped: bool| {
            let mut exec = ExecutionBuilder::new(&alg, &graph)
                .seed(seed)
                .random_initial(&[0u64, 3, 55, 900]);
            let mut sched = RoundRobinScheduler::default();
            if wrapped {
                measure_stabilization(
                    &mut exec,
                    &mut sched,
                    &FullScanOracle(MinPlusOneOracle),
                    &FullScanChecker(MinPlusOneChecker::default()),
                    1000,
                    25,
                )
            } else {
                measure_stabilization(
                    &mut exec,
                    &mut sched,
                    &MinPlusOneOracle,
                    &MinPlusOneChecker::default(),
                    1000,
                    25,
                )
            }
        };
        let a = run(false);
        assert_eq!(a, run(true), "min-plus-one seed {seed}: reports diverged");
        assert!(a.is_clean(), "min-plus-one seed {seed}: {a:?}");
    }
}

/// `measure_static_stabilization` (output-stability measurement) produces the
/// identical report whether the snapshot checks run incrementally or as
/// per-round full scans.
#[test]
fn static_stabilization_reports_match_full_scan() {
    let graph = Graph::grid(3, 4);
    let alg = MinPlusOne::new();
    for seed in 0..3u64 {
        let run = |wrapped: bool| {
            let mut exec = ExecutionBuilder::new(&alg, &graph)
                .seed(seed)
                .random_initial(&[900u64, 3, 55, 0, 12, 700]);
            let mut sched = UniformRandomScheduler::new(0.4);
            if wrapped {
                measure_static_stabilization(
                    &mut exec,
                    &mut sched,
                    &FullScanChecker(MinPlusOneChecker::default()),
                    200,
                    10,
                )
            } else {
                measure_static_stabilization(
                    &mut exec,
                    &mut sched,
                    &MinPlusOneChecker::default(),
                    200,
                    10,
                )
            }
        };
        let a = run(false);
        assert_eq!(a, run(true), "seed {seed}: static reports diverged");
        // Min-plus-one clocks advance forever, so *output stability* never
        // holds — the point here is that the per-round safety snapshots and
        // the final-round violation list agree between the two paths. The
        // safety predicate itself is satisfied by the end of the horizon.
        assert_eq!(a.horizon_rounds, 200, "seed {seed}: {a:?}");
        assert!(a.final_violations.is_empty(), "seed {seed}: {a:?}");
    }
}

/// The verification window records at most [`MAX_RECORDED_VIOLATIONS`]
/// messages plus one suppression marker, no matter how noisy the run: an
/// always-true oracle drops straight into a window where an always-violating
/// checker fires twice per round for 100 rounds.
#[test]
fn verification_window_caps_recorded_violations() {
    struct AlwaysViolating;
    impl TaskChecker<MinPlusOne> for AlwaysViolating {
        fn check_snapshot(&self, _graph: &Graph, _config: &[u64]) -> Vec<String> {
            vec![
                "first complaint".to_string(),
                "second complaint".to_string(),
            ]
        }
    }
    let graph = Graph::cycle(6);
    let alg = MinPlusOne::new();
    let mut exec = Execution::new(&alg, &graph, vec![0; 6], 1);
    let mut sched = SynchronousScheduler;
    let always_true = |_: &Graph, _: &[u64]| true;
    let report = measure_stabilization(
        &mut exec,
        &mut sched,
        &always_true,
        &AlwaysViolating,
        10,
        100,
    );
    assert_eq!(
        report.violations.len(),
        MAX_RECORDED_VIOLATIONS + 1,
        "cap must hold: {} violations recorded",
        report.violations.len()
    );
    assert!(
        report.violations.last().unwrap().contains("suppressed"),
        "the final entry must be the suppression marker: {:?}",
        report.violations.last()
    );
    assert!(violations_capped(&report.violations));
    assert_eq!(
        report.verification_rounds, 100,
        "the window still runs to length"
    );
}

/// The tissue (MIS) composite predicate decomposes: at *every* reachable and
/// fault-corrupted configuration, `tissue_pattern_legitimate` agrees with the
/// conjunction of `tissue_node_ok` over all nodes, and the uniform fast path
/// agrees on uniform configurations. This is the equivalence the sweep's
/// incremental tissue oracle relies on.
#[test]
fn tissue_decomposition_matches_global_predicate() {
    use stone_age_unison::bio::{tissue_node_ok, tissue_pattern_legitimate, tissue_uniform_ok};
    use stone_age_unison::synchronizer::async_mis;

    let graph = Graph::grid(3, 4);
    let n = graph.node_count();
    let alg = async_mis(graph.diameter());
    // Representative corrupted states (the palette the sweep and the bio
    // recovery harness use).
    let palette = alg.corrupted_states();
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(9)
        .initial(vec![alg.fresh_state(); n]);
    let mut sched = UniformRandomScheduler::new(0.5);
    // Stabilize fault-free first so the equality is checked on a legitimate
    // configuration too (not just vacuously on broken ones).
    let outcome = exec.run_until_legitimate(&mut sched, &tissue_pattern_legitimate, 20_000);
    assert!(
        matches!(outcome, StabilizationOutcome::Stabilized { .. }),
        "tissue must stabilize fault-free: {outcome:?}"
    );
    let check = |graph: &Graph, config: &[_], when: &str| {
        let global = tissue_pattern_legitimate(graph, config);
        let local = (0..config.len()).all(|v| tissue_node_ok(graph, config, v));
        assert_eq!(global, local, "decomposition diverged {when}");
        global
    };
    assert!(check(&graph, exec.configuration(), "at stabilization"));
    // Keep stepping under periodic corruption; the equality must hold at
    // every intermediate configuration.
    let mut injector = FaultInjector::new(
        FaultPlan::Periodic {
            period: 4,
            count: 2,
        },
        palette.clone(),
        3,
    );
    let mut saw_broken = false;
    for step in 0..600 {
        let out = exec.step_with(&mut sched);
        if out.round_completed {
            injector.on_round(&mut exec);
        }
        let legit = check(&graph, exec.configuration(), &format!("at step {step}"));
        saw_broken |= !legit;
    }
    assert!(
        saw_broken,
        "faults must have broken the pattern at least once"
    );
    // Uniform fast path: exact agreement on every palette state.
    for (i, state) in palette.iter().enumerate() {
        let uniform: Vec<_> = vec![*state; n];
        assert_eq!(
            tissue_uniform_ok(&graph, state),
            tissue_pattern_legitimate(&graph, &uniform),
            "uniform verdict diverged for palette state {i}"
        );
    }
}

/// The colony (LE) composite predicate decomposes as a *weighted* predicate:
/// legitimate ⟺ every node ok (no mid-reset cells) ∧ Σ leader weights = 1 —
/// at every reachable and corrupted configuration.
#[test]
fn colony_decomposition_matches_global_predicate() {
    use stone_age_unison::bio::{colony_leader_legitimate, colony_leader_weight, colony_node_ok};
    use stone_age_unison::synchronizer::async_le;

    let graph = Graph::complete(6);
    let n = graph.node_count();
    let alg = async_le(graph.diameter());
    let palette = alg.corrupted_states();
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(5)
        .initial(vec![alg.fresh_state(); n]);
    let mut sched = UniformRandomScheduler::new(0.5);
    let outcome = exec.run_until_legitimate(&mut sched, &colony_leader_legitimate, 100_000);
    assert!(
        matches!(outcome, StabilizationOutcome::Stabilized { .. }),
        "colony must elect a leader fault-free: {outcome:?}"
    );
    let check = |config: &[_], when: &str| {
        let global = colony_leader_legitimate(&graph, config);
        let nodes_ok = (0..config.len()).all(|v| colony_node_ok(config, v));
        let weight: i64 = (0..config.len())
            .map(|v| colony_leader_weight(config, v))
            .sum();
        assert_eq!(
            global,
            nodes_ok && weight == 1,
            "weighted decomposition diverged {when} (nodes_ok={nodes_ok}, weight={weight})"
        );
        global
    };
    assert!(check(exec.configuration(), "at stabilization"));
    let mut injector = FaultInjector::new(
        FaultPlan::Periodic {
            period: 4,
            count: 2,
        },
        palette.clone(),
        7,
    );
    let mut saw_broken = false;
    for step in 0..600 {
        let out = exec.step_with(&mut sched);
        if out.round_completed {
            injector.on_round(&mut exec);
        }
        saw_broken |= !check(exec.configuration(), &format!("at step {step}"));
    }
    assert!(
        saw_broken,
        "faults must have unseated the leader at least once"
    );
}

/// Sweep-level windows under mid-window faults: a unit whose periodic faults
/// keep striking *inside* the verification window records violations, and a
/// kill/resume cycle through JSON checkpoints — which forces the incremental
/// tracker to reseed its bad-set from the restored configuration — finishes
/// bit-identical to the uninterrupted run. Covers all four algorithm axes
/// and both engines.
#[test]
fn sweep_windows_with_midwindow_faults_survive_kill_resume() {
    use sa_bench::sweep::{CheckpointPolicy, SweepSpec, UnitOutcome, UnitResult};
    use stone_age_unison::model::json::JsonValue;

    let spec = SweepSpec::parse(
        r#"{
          "name": "oracle-window",
          "tasks": [{
            "id": "OW",
            "kind": "stabilization",
            "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
            "algorithms": ["algau", "min-plus-one", "le", "mis"],
            "schedulers": ["round-robin"],
            "engines": ["serial", {"kind": "sharded", "threads": 2}],
            "fault": {"kind": "periodic", "period": 6, "count": 2},
            "seeds": 1,
            "max_rounds": 4000,
            "verify_rounds": 24
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 8);
    let mut any_violations = false;
    for unit in &units {
        let reference: UnitResult =
            match sa_bench::sweep::run_unit(unit, &CheckpointPolicy::default()).expect("unit runs")
            {
                UnitOutcome::Complete(r) => r,
                UnitOutcome::Interrupted(_) => unreachable!(),
            };
        any_violations |= !reference.violations.is_empty();
        let mut checkpoint: Option<JsonValue> = None;
        let mut kills = 0usize;
        let resumed = loop {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(13),
                cancel: None,
            };
            match sa_bench::sweep::run_unit(unit, &policy).expect("unit runs") {
                UnitOutcome::Complete(r) => break r,
                UnitOutcome::Interrupted(doc) => {
                    kills += 1;
                    assert!(kills < 100_000, "unit {} never finished", unit.id());
                    checkpoint =
                        Some(JsonValue::parse(&doc.render_pretty()).expect("checkpoint parses"));
                }
            }
        };
        assert!(
            kills > 0,
            "unit {} finished before the first kill",
            unit.id()
        );
        assert_eq!(
            resumed,
            reference,
            "unit {} diverged after mid-window kill/resume",
            unit.id()
        );
    }
    assert!(
        any_violations,
        "the periodic faults must break legitimacy inside at least one verification window"
    );
}

/// Sweep-level violation capping: continuous noise over a long verification
/// window overflows the recording cap deterministically — the capped vector
/// (64 messages + 1 suppression marker) survives kill/resume byte-for-byte.
#[test]
fn sweep_window_violation_cap_is_deterministic_across_resume() {
    use sa_bench::sweep::{CheckpointPolicy, SweepSpec, UnitOutcome, UnitResult};
    use stone_age_unison::model::json::JsonValue;

    let spec = SweepSpec::parse(
        r#"{
          "name": "oracle-cap",
          "tasks": [{
            "id": "OC",
            "kind": "stabilization",
            "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
            "algorithms": ["min-plus-one"],
            "schedulers": ["round-robin"],
            "engines": ["serial"],
            "fault": {"kind": "continuous", "per_node_rate": 0.08},
            "seeds": 1,
            "max_rounds": 4000,
            "verify_rounds": 400
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 1);
    let reference: UnitResult = match sa_bench::sweep::run_unit(
        &units[0],
        &CheckpointPolicy::default(),
    )
    .expect("unit runs")
    {
        UnitOutcome::Complete(r) => r,
        UnitOutcome::Interrupted(_) => unreachable!(),
    };
    assert!(
        reference.stabilization_rounds.is_some(),
        "the baseline must stabilize between faults: {reference:?}"
    );
    assert_eq!(
        reference.violations.len(),
        MAX_RECORDED_VIOLATIONS + 1,
        "continuous noise over a 400-round window must overflow the cap: {} recorded",
        reference.violations.len()
    );
    assert!(reference.violations.last().unwrap().contains("suppressed"));
    let mut checkpoint: Option<JsonValue> = None;
    let mut kills = 0usize;
    let resumed = loop {
        let policy = CheckpointPolicy {
            every_steps: 0,
            sink: None,
            resume_from: checkpoint.as_ref(),
            interrupt_after_steps: Some(17),
            cancel: None,
        };
        match sa_bench::sweep::run_unit(&units[0], &policy).expect("unit runs") {
            UnitOutcome::Complete(r) => break r,
            UnitOutcome::Interrupted(doc) => {
                kills += 1;
                assert!(kills < 100_000, "unit never finished");
                checkpoint =
                    Some(JsonValue::parse(&doc.render_pretty()).expect("checkpoint parses"));
            }
        }
    };
    assert!(kills > 0, "the unit must have been killed at least once");
    assert_eq!(
        resumed, reference,
        "capped violations diverged after resume"
    );
}

/// The sweep's phase machine measures exactly what `measure_stabilization`
/// does: an AlgAU unit run through `sweep::run_unit` reports the same
/// stabilization rounds and steps, violations and verification window as
/// the reference on the same seeded start and scheduler. The reference runs
/// the full-scan oracle and checker, so the sweep's incremental verdicts
/// are checked against a scan of every round.
#[test]
fn trial_runner_matches_measure_stabilization() {
    use sa_bench::sweep::{run_unit, CheckpointPolicy, SweepSpec, UnitOutcome};

    let spec = SweepSpec::parse(
        r#"{
          "name": "phase-machine-reference",
          "tasks": [{
            "id": "PM",
            "kind": "stabilization",
            "topologies": [{"kind": "cycle", "n": 6}],
            "schedulers": [{"kind": "uniform-random", "p": 0.5}, "central"],
            "seeds": 3,
            "max_rounds": 100000
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 6, "2 schedulers × seeds 0–2");
    let graph = Graph::cycle(6);
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();
    for unit in &units {
        let result = match run_unit(unit, &CheckpointPolicy::default()).expect("unit runs") {
            UnitOutcome::Complete(result) => result,
            UnitOutcome::Interrupted(_) => unreachable!("no interrupt policy"),
        };
        let mut exec = ExecutionBuilder::new(&alg, &graph)
            .seed(unit.seed)
            .random_initial(&palette);
        let mut sched = unit.scheduler.build();
        let reference = measure_stabilization(
            &mut exec,
            &mut &mut *sched,
            &FullScanOracle(GoodGraphOracle::new(alg)),
            &FullScanChecker(AuChecker::new(alg)),
            100_000,
            4 * d as u64 + 8,
        );
        assert_eq!(
            (
                result.stabilization_rounds,
                result.stabilization_steps,
                &result.violations,
                result.verification_rounds
            ),
            (
                reference.stabilization_rounds,
                reference.stabilization_steps,
                &reference.violations,
                reference.verification_rounds
            ),
            "unit {}",
            unit.id()
        );
        assert!(reference.is_clean(), "unit {}: {reference:?}", unit.id());
    }
}

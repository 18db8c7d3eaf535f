//! Traced mirror of `sa run` on the `scale` spec.
//!
//! `sweep::run_unit` builds the graph, initializes, steps, checks and
//! checkpoints inside one call, so spans around it would see a single
//! layer. This mirror calls the same public functions on the same inputs,
//! in the order `run_unit` and the job scheduler call them, with a span
//! around each: `Topology::build`, `ExecutionBuilder`, `Execution::step_with`,
//! the `LegitimacyTracker` updates and round checks, `Execution::snapshot`
//! plus `binary::encode`, `jobs::write_atomic[_bytes]`, `aggregate_rows`
//! and `render_json` plus `render_markdown`. Its `EXPERIMENTS.json` must
//! equal the one `sa run` writes (outside the timings block); `run.py`
//! checks that.
//!
//! Only what the `scale` spec uses is mirrored: min-plus-one, random
//! initial configurations, no faults and no recovery phase.

use crate::trace::{write, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sa_bench::sweep::{
    aggregate_rows, default_round_budget, default_verify_window, render_json, render_markdown,
    run_instant_tasks, AlgorithmSpec, InitSpec, SweepSpec, SweepUnit, UnitResult,
};
use sa_model::checker::{push_violation, violations_capped, TaskChecker};
use sa_model::executor::ExecutionBuilder;
use sa_model::fault::FaultPlan;
use sa_model::json::JsonValue;
use sa_model::metrics::StepTimings;
use sa_model::oracle::LegitimacyTracker;
use sa_model::snapshot::u64_to_json;
use std::path::Path;
use unison_core::baseline::{MinPlusOne, MinPlusOneChecker, MinPlusOneOracle};

/// Checkpoint cadence of the workload (`sa run --checkpoint-every`).
const CHECKPOINT_EVERY: u64 = 16;

pub fn run(spec_path: &Path, out_dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let (_, spec) = tracer.span("spec.parse", "", || SweepSpec::parse(&text));
    let spec = spec?;
    let state_dir = out_dir.join("state");
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;

    let mut completed = Vec::new();
    for unit in spec.execution_units() {
        let result = run_unit(&unit, &state_dir, tracer)?;
        completed.push((unit, result));
    }

    let (_, rows) = tracer.span("report.aggregate", "", || {
        let (mut rows, artifacts) = run_instant_tasks(&spec);
        rows.extend(aggregate_rows(&completed));
        (rows, artifacts)
    });
    let (rows, artifacts) = rows;
    let (_, (json, markdown)) = tracer.span("report.render", "", || {
        (
            render_json(&spec, &rows, &completed).render_pretty(),
            render_markdown(&spec, &rows, &artifacts, &completed),
        )
    });
    write(
        tracer,
        "",
        &out_dir.join("EXPERIMENTS.json"),
        json.as_bytes(),
    )?;
    write(
        tracer,
        "",
        &out_dir.join("EXPERIMENTS.md"),
        markdown.as_bytes(),
    )
}

/// The sweep's random initial configuration (`sweep::random_configuration`,
/// which is private): every node draws uniformly from `palette`.
fn random_configuration(palette: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| palette[rng.gen_range(0..palette.len())])
        .collect()
}

fn run_unit(unit: &SweepUnit, state_dir: &Path, tracer: &mut Tracer) -> Result<UnitResult, String> {
    let id = unit.id();
    if unit.algorithm != AlgorithmSpec::MinPlusOne
        || unit.init != InitSpec::Random
        || unit.fault != FaultPlan::None
        || unit.recovery.is_some()
    {
        return Err(format!(
            "{id}: the scale mirror covers min-plus-one stabilization only"
        ));
    }
    let (_, graph) = tracer.span("graph.build", &id, || unit.topology.build(unit.graph_seed));
    let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
    let max_rounds = unit.max_rounds.unwrap_or_else(|| default_round_budget(d));
    let verify_rounds = unit
        .verify_rounds
        .unwrap_or_else(|| default_verify_window(d));

    // `MinPlusOneUnit::new(d)`: every in-range clock plus two outliers.
    let alg = MinPlusOne::new();
    let checker = MinPlusOneChecker::default().with_diameter_bound(d as u64);
    let mut palette: Vec<u64> = (0..=2 * d as u64 + 2).collect();
    palette.push(10 * (d as u64 + 1));
    palette.push(100 * (d as u64 + 1));

    let mut sched = unit.scheduler.build();
    let (_, mut exec) = tracer.span("exec.init", &id, || {
        ExecutionBuilder::new(&alg, &graph)
            .seed(unit.seed)
            .engine(unit.engine.kind)
            .initial(random_configuration(
                &palette,
                graph.node_count(),
                unit.seed,
            ))
    });
    let mut oracle_tracker = LegitimacyTracker::new(&graph);
    let mut snapshot_tracker = LegitimacyTracker::new(&graph);

    let mut verifying = false;
    let mut stab_rounds = None;
    let mut stab_steps = None;
    let mut violations: Vec<String> = Vec::new();
    let mut verify_start_round = 0;
    let mut verification_rounds = 0;
    let mut timings = StepTimings::default();

    let (idx, legitimate_at_start) = tracer.span("oracle", &id, || {
        oracle_tracker.is_legitimate(&MinPlusOneOracle, &graph, exec.configuration())
    });
    tracer.count(idx, "checks", 1.0);
    if legitimate_at_start {
        stab_rounds = Some(0);
        stab_steps = Some(0);
        verifying = true;
        exec.take_output_change_counts();
    }

    let ckpt_path = state_dir.join(format!("{id}.ckpt.bin"));
    loop {
        if !verifying && exec.rounds() >= max_rounds {
            break;
        }
        if verifying && exec.rounds() >= verify_start_round + verify_rounds {
            let changes = exec.output_change_counts().to_vec();
            verification_rounds = exec.rounds() - verify_start_round;
            let (_, window) = tracer.span("oracle", &id, || {
                checker.check_window(&graph, &changes, verification_rounds)
            });
            for v in window {
                push_violation(&mut violations, v);
            }
            break;
        }

        let activations = exec.dirty_count();
        let (idx, outcome) = tracer.span("exec.step", &id, || exec.step_with(&mut *sched));
        timings.step_ns += tracer.duration_ns(idx);
        tracer.count(idx, "activations", activations as f64);
        tracer.count(idx, "changed", outcome.changed_count as f64);

        let (idx, checked) = tracer.span("oracle", &id, || {
            let tracker = if verifying {
                &mut snapshot_tracker
            } else {
                &mut oracle_tracker
            };
            let local: &dyn sa_model::oracle::LocalPredicate<u64> = if verifying {
                &checker
            } else {
                &MinPlusOneOracle
            };
            tracker.note_step(
                local,
                &graph,
                exec.configuration(),
                exec.last_changed(),
                exec.last_step_uniform(),
            );
            if !outcome.round_completed {
                return false;
            }
            if !verifying {
                if oracle_tracker.is_legitimate(&MinPlusOneOracle, &graph, exec.configuration()) {
                    stab_rounds = Some(exec.rounds());
                    stab_steps = Some(exec.time());
                    verifying = true;
                    exec.take_output_change_counts();
                    verify_start_round = exec.rounds();
                    snapshot_tracker.reseed();
                }
            } else if !snapshot_tracker.is_legitimate(&checker, &graph, exec.configuration())
                && !violations_capped(&violations)
            {
                for v in checker.check_snapshot(&graph, exec.configuration()) {
                    push_violation(&mut violations, format!("round {}: {v}", exec.rounds()));
                }
            }
            true
        });
        timings.oracle_ns += tracer.duration_ns(idx);
        if checked {
            tracer.count(idx, "checks", 1.0);
            timings.oracle_rounds += 1;
        }

        if exec.time().is_multiple_of(CHECKPOINT_EVERY) {
            let (idx, bytes) = tracer.span("ckpt.encode", &id, || {
                let doc = JsonValue::object([
                    (
                        "execution".to_string(),
                        exec.snapshot().to_json(|s| u64_to_json(*s)),
                    ),
                    ("phase".to_string(), u64_to_json(u64::from(verifying))),
                    (
                        "stab_rounds".to_string(),
                        stab_rounds.map_or(JsonValue::Null, u64_to_json),
                    ),
                    (
                        "stab_steps".to_string(),
                        stab_steps.map_or(JsonValue::Null, u64_to_json),
                    ),
                    (
                        "violations".to_string(),
                        JsonValue::Array(
                            violations.iter().cloned().map(JsonValue::String).collect(),
                        ),
                    ),
                    (
                        "verify_start_round".to_string(),
                        u64_to_json(verify_start_round),
                    ),
                    (
                        "verification_rounds".to_string(),
                        u64_to_json(verification_rounds),
                    ),
                    ("bursts_injected".to_string(), u64_to_json(0)),
                    ("burst_start_round".to_string(), u64_to_json(0)),
                    ("recovery_rounds".to_string(), JsonValue::Array(Vec::new())),
                    ("unrecovered".to_string(), u64_to_json(0)),
                    (
                        "scheduler_position".to_string(),
                        u64_to_json(sched.checkpoint_position()),
                    ),
                    ("injector".to_string(), JsonValue::Null),
                ]);
                sa_model::binary::encode(&doc)
            });
            tracer.count(idx, "bytes", bytes.len() as f64);
            write(tracer, &id, &ckpt_path, &bytes)?;
        }
    }

    let result = UnitResult {
        stabilization_rounds: stab_rounds,
        stabilization_steps: stab_steps,
        violations,
        verification_rounds,
        faults_injected: 0,
        total_steps: exec.time(),
        recovery_rounds: Vec::new(),
        unrecovered: 0,
        timings,
    };
    let done = result.to_json().render_pretty();
    write(
        tracer,
        &id,
        &state_dir.join(format!("{id}.done.json")),
        done.as_bytes(),
    )?;
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(result)
}

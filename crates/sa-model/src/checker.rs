//! Task checkers and stabilization reports.
//!
//! A checker validates that an execution, *after* it claims to have stabilized,
//! actually satisfies the requirements of the distributed task it was run for:
//! output-configuration membership, safety conditions on the output vector and —
//! for dynamic tasks such as asynchronous unison — liveness conditions measured over
//! a verification window.

use crate::algorithm::Algorithm;
use crate::executor::Execution;
use crate::graph::Graph;

/// A checker for a distributed task `T`.
///
/// `check_snapshot` validates a single output configuration (safety); tasks with
/// liveness requirements additionally implement `check_window` which is evaluated over
/// a post-stabilization verification window.
pub trait TaskChecker<A: Algorithm> {
    /// Validates the output configuration at a single point in time. Returns a list
    /// of violation descriptions (empty = valid).
    fn check_snapshot(&self, graph: &Graph, config: &[A::State]) -> Vec<String>;

    /// Validates behaviour over a window: `output_changes[v]` is the number of times
    /// node `v` changed its output value during the window and `rounds` is the number
    /// of rounds the window spanned. The default implementation accepts anything
    /// (static tasks).
    fn check_window(&self, _graph: &Graph, _output_changes: &[u64], _rounds: u64) -> Vec<String> {
        Vec::new()
    }

    /// Human-readable task name.
    fn task_name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// The per-node decomposition of the *snapshot* check, when it has one:
    /// `check_snapshot(g, c).is_empty() ⟺ ∀v. node_ok(v) ∧ weight clause`
    /// (see [`crate::oracle::LocalPredicate`]). Verification windows then
    /// track safety incrementally and only materialize violation messages on
    /// rounds the tracker already knows are bad — O(changed·deg) per step on
    /// clean windows instead of a full O(n·deg) scan per round. Checkers
    /// whose snapshot check does not decompose keep the default `None`.
    fn snapshot_as_local(&self) -> Option<&dyn crate::oracle::LocalPredicate<A::State>> {
        None
    }
}

/// Cap on the violation messages a measurement accumulates. Windows on
/// million-node graphs can produce O(n) violations *per round*; everything
/// past the cap is replaced by a single deterministic suppression marker so
/// a long broken window cannot balloon memory (and, once capped, bad rounds
/// stop materializing messages at all). The cap is part of the persisted
/// results' format: it must stay deterministic across engines, schedulers
/// and checkpoint/resume.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// Appends `message` to `violations` subject to [`MAX_RECORDED_VIOLATIONS`]:
/// the `MAX+1`-th push records the suppression marker instead, and further
/// pushes are dropped. Deterministic: the resulting vector is a pure
/// function of the message sequence.
pub fn push_violation(violations: &mut Vec<String>, message: String) {
    use std::cmp::Ordering;
    match violations.len().cmp(&MAX_RECORDED_VIOLATIONS) {
        Ordering::Less => violations.push(message),
        Ordering::Equal => violations.push(format!(
            "further violations suppressed after the first {MAX_RECORDED_VIOLATIONS}"
        )),
        Ordering::Greater => {}
    }
}

/// Whether `violations` already carries the suppression marker — callers
/// skip materializing further violation messages entirely once it does.
pub fn violations_capped(violations: &[String]) -> bool {
    violations.len() > MAX_RECORDED_VIOLATIONS
}

/// The result of measuring a stabilization run plus a post-stabilization verification
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizationReport {
    /// Rounds until the legitimacy predicate first held (`None` if the budget ran
    /// out).
    pub stabilization_rounds: Option<u64>,
    /// Steps until the legitimacy predicate first held (`None` if the budget ran out).
    pub stabilization_steps: Option<u64>,
    /// Violations observed during the verification window (empty for a clean run).
    pub violations: Vec<String>,
    /// Rounds spent in the verification window.
    pub verification_rounds: u64,
}

impl StabilizationReport {
    /// Whether the run stabilized and passed verification.
    pub fn is_clean(&self) -> bool {
        self.stabilization_rounds.is_some() && self.violations.is_empty()
    }
}

/// Runs `exec` under `scheduler` until `oracle` reports legitimacy (with a budget of
/// `max_rounds`), then runs `verify_rounds` additional rounds checking the task's
/// safety at every round boundary and its liveness over the whole window.
pub fn measure_stabilization<A, S, O, C>(
    exec: &mut Execution<'_, A>,
    scheduler: &mut S,
    oracle: &O,
    checker: &C,
    max_rounds: u64,
    verify_rounds: u64,
) -> StabilizationReport
where
    A: Algorithm,
    S: crate::scheduler::Scheduler,
    O: crate::algorithm::LegitimacyOracle<A>,
    C: TaskChecker<A>,
{
    let outcome = exec.run_until_legitimate(scheduler, oracle, max_rounds);
    let (stab_rounds, stab_steps) = match outcome {
        crate::executor::StabilizationOutcome::Stabilized { rounds, steps } => {
            (Some(rounds), Some(steps))
        }
        crate::executor::StabilizationOutcome::Exhausted { .. } => (None, None),
    };

    let mut violations = Vec::new();
    let mut verification_rounds = 0;
    if stab_rounds.is_some() {
        // reset the output-change counters so the window only counts fresh changes
        exec.take_output_change_counts();
        let start_round = exec.rounds();
        // Incremental safety tracking for the window: the tracker absorbs
        // each step's changed-node list and the (usually clean) per-round
        // check is O(1); the full check_snapshot scan only runs to
        // materialize messages on rounds the tracker says are bad. Falls
        // back to a scan every round for non-decomposing checkers — same
        // verdicts, same messages.
        let local = checker.snapshot_as_local();
        let mut tracker = local
            .as_ref()
            .map(|_| crate::oracle::LegitimacyTracker::new(exec.graph()));
        while exec.rounds() < start_round + verify_rounds {
            let step = exec.step_with(scheduler);
            if let (Some(local), Some(tracker)) = (local.as_ref(), tracker.as_mut()) {
                tracker.note_step(
                    *local,
                    exec.graph(),
                    exec.configuration(),
                    exec.last_changed(),
                    exec.last_step_uniform(),
                );
            }
            if step.round_completed {
                let round_clean = match (local.as_ref(), tracker.as_mut()) {
                    (Some(local), Some(tracker)) => {
                        tracker.is_legitimate(*local, exec.graph(), exec.configuration())
                    }
                    _ => false, // fallback: always materialize (the scan decides)
                };
                if !round_clean && !violations_capped(&violations) {
                    let graph = exec.graph();
                    let snapshot_violations = checker.check_snapshot(graph, exec.configuration());
                    for v in snapshot_violations {
                        push_violation(&mut violations, format!("round {}: {v}", exec.rounds()));
                    }
                }
            }
        }
        verification_rounds = exec.rounds() - start_round;
        let changes = exec.output_change_counts().to_vec();
        for v in checker.check_window(exec.graph(), &changes, verification_rounds) {
            push_violation(&mut violations, v);
        }
    }

    StabilizationReport {
        stabilization_rounds: stab_rounds,
        stabilization_steps: stab_steps,
        violations,
        verification_rounds,
    }
}

/// The result of measuring a *static* task (LE, MIS, …) by output stability.
///
/// Static tasks require the output vector to become correct and then never change.
/// Because the moment after which no further change will occur cannot be decided
/// online, the measurement runs for a fixed horizon and reports the first round after
/// the *last* observed problem (an incorrect/undefined output vector, a checker
/// violation, or an output change). The caller chooses a horizon and a clean-tail
/// margin large enough to make a late regression implausible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticStabilizationReport {
    /// First round from which the output vector was correct and unchanged until the
    /// end of the horizon, or `None` if the tail was shorter than the required margin.
    pub stabilization_round: Option<u64>,
    /// Number of clean rounds observed at the end of the horizon.
    pub clean_tail_rounds: u64,
    /// Total rounds executed.
    pub horizon_rounds: u64,
    /// The violations observed in the final round (useful when the run failed).
    pub final_violations: Vec<String>,
}

/// Measures the stabilization round of a static task by output stability.
///
/// Runs `horizon_rounds` rounds under `scheduler`. At every round boundary the
/// configuration is checked with `checker::check_snapshot` and the output vector is
/// compared with the previous round's. The stabilization round is the first round of
/// the final streak of clean-and-unchanged rounds, provided that streak is at least
/// `min_clean_tail` rounds long.
pub fn measure_static_stabilization<A, S, C>(
    exec: &mut Execution<'_, A>,
    scheduler: &mut S,
    checker: &C,
    horizon_rounds: u64,
    min_clean_tail: u64,
) -> StaticStabilizationReport
where
    A: Algorithm,
    S: crate::scheduler::Scheduler,
    C: TaskChecker<A>,
{
    let mut last_bad_round: Option<u64> = Some(exec.rounds()); // treat the start as dirty
    let mut prev_output = exec.output_vector();
    let mut final_violations = Vec::new();
    let start_round = exec.rounds();
    let end_round = start_round + horizon_rounds;
    // Incremental safety tracking, as in `measure_stabilization`: per-round
    // cleanliness comes from the tracker when the checker decomposes, and
    // the full scan only runs where messages are actually needed.
    let local = checker.snapshot_as_local();
    let mut tracker = local
        .as_ref()
        .map(|_| crate::oracle::LegitimacyTracker::new(exec.graph()));
    // check the initial configuration too
    {
        let clean = match (local.as_ref(), tracker.as_mut()) {
            (Some(local), Some(tracker)) => {
                tracker.is_legitimate(*local, exec.graph(), exec.configuration())
            }
            _ => checker
                .check_snapshot(exec.graph(), exec.configuration())
                .is_empty(),
        };
        if clean && prev_output.is_some() {
            last_bad_round = None;
        }
    }
    // The output vector is only recomputed on rounds where some node's
    // output actually changed (the per-node counters already know): on a
    // stabilized run the per-round cost is O(1) instead of an O(n)
    // projection + comparison.
    let mut seen_output_changes = exec.counters().total_output_changes();
    while exec.rounds() < end_round {
        let step = exec.step_with(scheduler);
        if let (Some(local), Some(tracker)) = (local.as_ref(), tracker.as_mut()) {
            tracker.note_step(
                *local,
                exec.graph(),
                exec.configuration(),
                exec.last_changed(),
                exec.last_step_uniform(),
            );
        }
        if !step.round_completed {
            continue;
        }
        let round = exec.rounds();
        let clean = match (local.as_ref(), tracker.as_mut()) {
            (Some(local), Some(tracker)) => {
                tracker.is_legitimate(*local, exec.graph(), exec.configuration())
            }
            _ => checker
                .check_snapshot(exec.graph(), exec.configuration())
                .is_empty(),
        };
        let total_output_changes = exec.counters().total_output_changes();
        let (changed, undefined) = if total_output_changes == seen_output_changes {
            // No output changed in any step since the last boundary, so the
            // projected vector is bit-identical to the previous one.
            (false, prev_output.is_none())
        } else {
            seen_output_changes = total_output_changes;
            let output = exec.output_vector();
            let changed = output != prev_output;
            let undefined = output.is_none();
            prev_output = output;
            (changed, undefined)
        };
        if !clean || changed || undefined {
            last_bad_round = Some(round);
        }
        if round == end_round {
            final_violations = if clean {
                Vec::new()
            } else {
                checker.check_snapshot(exec.graph(), exec.configuration())
            };
        }
    }
    let clean_tail = match last_bad_round {
        None => horizon_rounds,
        Some(bad) => end_round.saturating_sub(bad),
    };
    let stabilization_round = if clean_tail >= min_clean_tail {
        Some(match last_bad_round {
            None => 0,
            Some(bad) => bad.saturating_sub(start_round),
        })
    } else {
        None
    };
    StaticStabilizationReport {
        stabilization_round,
        clean_tail_rounds: clean_tail,
        horizon_rounds,
        final_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::scheduler::SynchronousScheduler;
    use crate::signal::Signal;
    use rand::RngCore;

    /// Toy "consensus on max" algorithm over states 0..=3.
    struct MaxSpread;
    impl Algorithm for MaxSpread {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
            sig.max_by_key(|x| *x).unwrap_or(*s).max(*s)
        }
    }

    /// Checker: all outputs equal.
    struct AgreementChecker;
    impl TaskChecker<MaxSpread> for AgreementChecker {
        fn check_snapshot(&self, _graph: &Graph, config: &[u8]) -> Vec<String> {
            if config.windows(2).all(|w| w[0] == w[1]) {
                Vec::new()
            } else {
                vec!["nodes disagree".to_string()]
            }
        }
        fn check_window(&self, _g: &Graph, changes: &[u64], _rounds: u64) -> Vec<String> {
            if changes.iter().any(|&c| c > 0) {
                vec!["output changed after stabilization".to_string()]
            } else {
                Vec::new()
            }
        }
        fn task_name(&self) -> &'static str {
            "agreement"
        }
    }

    #[test]
    fn clean_stabilization_report() {
        let g = Graph::path(5);
        let alg = MaxSpread;
        let mut exec = Execution::new(&alg, &g, vec![0, 0, 3, 0, 0], 1);
        let mut sched = SynchronousScheduler;
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s == 3);
        let report =
            measure_stabilization(&mut exec, &mut sched, &oracle, &AgreementChecker, 50, 10);
        assert!(report.is_clean());
        assert_eq!(report.stabilization_rounds, Some(2));
        assert_eq!(report.verification_rounds, 10);
    }

    #[test]
    fn exhausted_budget_is_reported() {
        let g = Graph::path(3);
        let alg = MaxSpread;
        let mut exec = Execution::new(&alg, &g, vec![0, 0, 0], 1);
        let mut sched = SynchronousScheduler;
        // never legitimate: waiting for a value that does not exist
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s == 9);
        let report = measure_stabilization(&mut exec, &mut sched, &oracle, &AgreementChecker, 5, 5);
        assert!(!report.is_clean());
        assert_eq!(report.stabilization_rounds, None);
        assert_eq!(report.verification_rounds, 0);
    }

    #[test]
    fn violations_in_window_are_caught() {
        // Use a deliberately wrong oracle that accepts a non-converged configuration;
        // the checker should then flag disagreement during the window.
        let g = Graph::path(4);
        let alg = MaxSpread;
        let mut exec = Execution::new(&alg, &g, vec![0, 0, 0, 2], 1);
        let mut sched = SynchronousScheduler;
        let oracle = |_: &Graph, _cfg: &[u8]| true; // bogus: immediately "legitimate"
        let report = measure_stabilization(&mut exec, &mut sched, &oracle, &AgreementChecker, 5, 4);
        assert!(!report.violations.is_empty());
        assert!(!report.is_clean());
    }

    #[test]
    fn default_window_check_accepts_anything() {
        struct Loose;
        impl TaskChecker<MaxSpread> for Loose {
            fn check_snapshot(&self, _: &Graph, _: &[u8]) -> Vec<String> {
                Vec::new()
            }
        }
        let checker = Loose;
        assert!(checker.check_window(&Graph::path(2), &[5, 5], 3).is_empty());
        assert!(checker.task_name().contains("Loose"));
    }
}

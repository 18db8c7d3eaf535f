//! # bio-networks — fault-tolerant biological network scenarios
//!
//! The paper's title application: cellular populations that must maintain a global
//! behaviour — a single decision maker, a spaced pattern of differentiated cells, a
//! coherent advancing pulse — while individual cells are anonymous, bounded-memory,
//! asynchronously activated and exposed to transient environmental faults. Those are
//! exactly the assumptions of the stone age model, and the self-stabilizing
//! algorithms of this workspace are the mechanisms.
//!
//! The crate provides:
//!
//! * [`scenario`] — topology builders for the three canonical scenarios:
//!   quorum-sensing colonies (leader election on damaged cliques), epithelial tissue
//!   sheets (MIS via lateral inhibition on grids/tori), and segmented pulse fields
//!   (asynchronous unison on clustered graphs);
//! * [`recovery`] — fault-injection measurement: burst-recovery time and availability
//!   under continuous noise;
//! * ready-made bindings ([`pulse_unison_recovery`], [`tissue_mis_availability`],
//!   [`colony_leader_recovery`]) that connect the scenarios to the concrete
//!   algorithms, used by the examples and by experiment E10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;
pub mod scenario;

pub use recovery::{
    measure_availability, run_burst_recovery_trials, AvailabilityReport, RecoveryStats,
};
pub use scenario::{ColonyScenario, Harshness, PulseScenario, TissueScenario};

use sa_model::algorithm::StateSpace;
use sa_model::graph::Graph;
use sa_model::scheduler::UniformRandomScheduler;
use sa_protocols::mis::{Decision, MisState};
use sa_protocols::restart::RestartState;
use sa_synchronizer::{async_le, async_mis, SyncState};
use unison_core::{AlgAu, GoodGraphOracle, Predicates, Turn};

/// Runs AlgAU as the pulse coordinator of a [`PulseScenario`] and measures recovery
/// from `trials` fault bursts, each scrambling a [`Harshness`]-dependent fraction of
/// the cells.
///
/// Returns the recovery statistics (rounds are asynchronous rounds under a uniformly
/// random activation schedule).
pub fn pulse_unison_recovery(
    scenario: &PulseScenario,
    harshness: Harshness,
    trials: usize,
    seed: u64,
) -> RecoveryStats {
    let graph = scenario.build();
    let alg = AlgAu::new(scenario.diameter_bound());
    let palette = alg.states();
    let start = vec![Turn::Able(1); graph.node_count()];
    let burst = ((graph.node_count() as f64) * harshness.burst_fraction()).ceil() as usize;
    let mut scheduler = UniformRandomScheduler::new(0.5);
    run_burst_recovery_trials(
        &alg,
        &graph,
        start,
        &mut scheduler,
        &GoodGraphOracle::new(alg),
        &palette,
        burst.max(1),
        trials,
        200_000,
        seed,
    )
}

/// Legitimacy of the tissue pattern: every cell decided, the differentiated (`IN`)
/// cells independent, every other cell next to a differentiated one, and no cell in
/// the middle of a reset.
///
/// Exposed for the sweep runner's `mis` algorithm axis and `tissue` scenario
/// units (`sa_bench::sweep`), which combine it with AU-clock goodness.
pub fn tissue_pattern_legitimate(
    graph: &Graph,
    config: &[SyncState<RestartState<MisState>>],
) -> bool {
    let mut in_set = vec![false; config.len()];
    for (v, s) in config.iter().enumerate() {
        match &s.current {
            RestartState::Restart(_) => return false,
            RestartState::Host(h) => match h.decision {
                Decision::Undecided => return false,
                Decision::In => in_set[v] = true,
                Decision::Out => {}
            },
        }
    }
    sa_protocols::mis::MisChecker::check_membership(graph, &in_set).is_empty()
}

/// Per-node decomposition of [`tissue_pattern_legitimate`]: node `v` is ok iff
/// it is a decided host and its decision is locally consistent — `In` cells
/// have no `In` neighbor (independence), `Out` cells have one (maximality).
///
/// `tissue_pattern_legitimate(g, c) ⟺ ∀v. tissue_node_ok(g, c, v)`: any
/// mid-reset or undecided cell fails its own check, and once every cell is a
/// decided host the conjunction is exactly
/// [`sa_protocols::mis::MisChecker::check_membership`] (independence is
/// symmetric per edge, maximality is per non-`In` node). This is what lets the
/// sweep's tissue units use the incremental legitimacy tracker.
pub fn tissue_node_ok(
    graph: &Graph,
    config: &[SyncState<RestartState<MisState>>],
    v: usize,
) -> bool {
    let decision_of = |u: usize| match &config[u].current {
        RestartState::Restart(_) => None,
        RestartState::Host(h) => Some(h.decision),
    };
    match decision_of(v) {
        None | Some(Decision::Undecided) => false,
        Some(Decision::In) => graph
            .neighbors(v)
            .iter()
            .all(|&u| decision_of(u) != Some(Decision::In)),
        Some(Decision::Out) => graph
            .neighbors(v)
            .iter()
            .any(|&u| decision_of(u) == Some(Decision::In)),
    }
}

/// [`tissue_node_ok`] on a uniform configuration (every cell in `state`):
/// exact verdict for the tracker's uniform fast path. Undecided or mid-reset
/// is never legitimate; all-`In` is legitimate only on edge-free graphs
/// (independence); all-`Out` never is (maximality needs an `In` neighbor).
pub fn tissue_uniform_ok(graph: &Graph, state: &SyncState<RestartState<MisState>>) -> bool {
    match &state.current {
        RestartState::Restart(_) => false,
        RestartState::Host(h) => match h.decision {
            Decision::Undecided | Decision::Out => false,
            Decision::In => graph.edge_count() == 0,
        },
    }
}

/// Runs the asynchronous MIS algorithm as the lateral-inhibition mechanism of a
/// [`TissueScenario`] under continuous environmental noise, and reports the fraction
/// of time the tissue exhibits a correct spacing pattern.
pub fn tissue_mis_availability(
    scenario: &TissueScenario,
    harshness: Harshness,
    rounds: u64,
    seed: u64,
) -> AvailabilityReport {
    let graph = scenario.build();
    let alg = async_mis(scenario.diameter_bound());
    let start = vec![alg.fresh_state(); graph.node_count()];
    let palette = alg.corrupted_states();
    let mut scheduler = UniformRandomScheduler::new(0.5);
    measure_availability(
        &alg,
        &graph,
        start,
        &mut scheduler,
        &tissue_pattern_legitimate,
        &palette,
        harshness.per_node_rate(),
        rounds,
        seed,
    )
}

/// Legitimacy of the colony: exactly one leader and no cell mid-reset.
///
/// Exposed for the sweep runner's `le` algorithm axis and `colony` scenario
/// units (`sa_bench::sweep`), which combine it with AU-clock goodness.
pub fn colony_leader_legitimate(
    _graph: &Graph,
    config: &[SyncState<RestartState<sa_protocols::le::LeState>>],
) -> bool {
    let mut leaders = 0;
    for s in config {
        match &s.current {
            RestartState::Restart(_) => return false,
            RestartState::Host(h) => {
                if h.leader {
                    leaders += 1;
                }
            }
        }
    }
    leaders == 1
}

/// Per-node decomposition of [`colony_leader_legitimate`] for the incremental
/// tracker, as a *weighted* predicate: node `v` is ok iff it is not mid-reset,
/// and its weight is its leader bit ([`colony_leader_weight`]). The colony is
/// legitimate iff every node is ok **and** the weight sum equals 1 — exactly
/// "no resets and one leader".
pub fn colony_node_ok(
    config: &[SyncState<RestartState<sa_protocols::le::LeState>>],
    v: usize,
) -> bool {
    !matches!(&config[v].current, RestartState::Restart(_))
}

/// The leader bit of node `v` as an aggregate weight (1 for a host claiming
/// leadership, 0 otherwise — including mid-reset cells, which have no claim).
/// Depends only on `config[v]`, as the tracker's delta updates require.
pub fn colony_leader_weight(
    config: &[SyncState<RestartState<sa_protocols::le::LeState>>],
    v: usize,
) -> i64 {
    match &config[v].current {
        RestartState::Restart(_) => 0,
        RestartState::Host(h) => i64::from(h.leader),
    }
}

/// Runs the asynchronous LE algorithm as the quorum-sensing decision mechanism of a
/// [`ColonyScenario`] and measures recovery from `trials` fault bursts.
pub fn colony_leader_recovery(
    scenario: &ColonyScenario,
    harshness: Harshness,
    trials: usize,
    seed: u64,
) -> RecoveryStats {
    let graph = scenario.build(seed);
    let alg = async_le(scenario.diameter_bound());
    let start = vec![alg.fresh_state(); graph.node_count()];
    let palette = alg.corrupted_states();
    let burst = ((graph.node_count() as f64) * harshness.burst_fraction()).ceil() as usize;
    let mut scheduler = UniformRandomScheduler::new(0.5);
    run_burst_recovery_trials(
        &alg,
        &graph,
        start,
        &mut scheduler,
        &colony_leader_legitimate,
        &palette,
        burst.max(1),
        trials,
        400_000,
        seed,
    )
}

/// A coherence score for a pulse field: `1 − (max neighbor clock discrepancy) / k`.
/// A perfectly coherent field scores 1; a field with the largest possible neighbor
/// discrepancy scores 0. Exposed for the pulse example's reporting.
pub fn pulse_coherence(algorithm: &AlgAu, graph: &Graph, config: &[Turn]) -> f64 {
    let p = Predicates::new(algorithm, graph);
    let max_disc = p.max_discrepancy(config) as f64;
    1.0 - max_disc / algorithm.k() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_recovery_succeeds() {
        let scenario = PulseScenario::new(4, 3);
        let stats = pulse_unison_recovery(&scenario, Harshness::Moderate, 3, 42);
        assert!(stats.fully_recovered(), "{stats:?}");
        assert_eq!(stats.recovery_rounds.len(), 3);
    }

    #[test]
    fn tissue_availability_is_reasonable_under_mild_noise() {
        let scenario = TissueScenario::sheet(3, 3);
        let report = tissue_mis_availability(&scenario, Harshness::Mild, 1500, 7);
        // the tissue spends the bulk of its time with a correct pattern
        assert!(report.availability > 0.3, "{report:?}");
    }

    #[test]
    fn colony_recovers_a_single_leader_after_bursts() {
        let scenario = ColonyScenario::new(8);
        let stats = colony_leader_recovery(&scenario, Harshness::Moderate, 2, 11);
        assert!(stats.fully_recovered(), "{stats:?}");
    }

    #[test]
    fn coherence_is_one_on_synchronized_fields_and_lower_on_split_ones() {
        let graph = Graph::cycle(4);
        let alg = AlgAu::new(graph.diameter());
        let synced = vec![Turn::Able(3); 4];
        assert_eq!(pulse_coherence(&alg, &graph, &synced), 1.0);
        let split = vec![Turn::Able(3), Turn::Able(3), Turn::Able(-3), Turn::Able(-3)];
        assert!(pulse_coherence(&alg, &graph, &split) < 1.0);
    }
}

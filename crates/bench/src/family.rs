//! The algorithm-family table: everything the sweep runner, its
//! checkpoints and `sa verify` know about one algorithm family, defined in
//! one place.
//!
//! | entry | family | label |
//! |---|---|---|
//! | [`AuFamily`] | AlgAU (Theorem 1.1) | `algau` |
//! | [`MinPlusOneFamily`] | the unbounded-register `min + 1` baseline (§5) | `min-plus-one` |
//! | [`LeFamily`] | AlgLE through the synchronizer (Theorem 1.3, Corollary 1.2) | `le` |
//! | [`MisFamily`] | AlgMIS through the synchronizer (Theorem 1.4, Corollary 1.2) | `mis` |
//! | [`ResetAttemptFamily`] | the Appendix A reset strawman (verify only) | `reset-attempt-p<P>` |
//!
//! [`Family`] holds the facts both consumers read: the algorithm instance,
//! the benign start, the legitimacy predicate and the verify space (its
//! palette, an optional symmetry quotient, and whether the full product
//! space is admissible). [`SweepFamily`] adds what a sweep unit needs to
//! run and checkpoint: the random start, the fault palette, the per-node
//! decompositions of legitimacy and of the task checker's snapshot check,
//! the task checker and the snapshot codec. LE and MIS share one generic
//! entry, [`Composite`], parameterized by the host task's predicate.
//!
//! [`with_family!`](crate::family::with_family) maps an [`AlgorithmSpec`]
//! to its entry: `sweep::run_unit` and `verify::VerifyUnit::run` both
//! dispatch through it once per unit and run one monomorphized copy of
//! their generic code per family, so the per-step loop calls the entry
//! without a trait object. A new algorithm is one entry here and one
//! label.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sa_model::algorithm::{Algorithm, LegitimacyOracle, StateSpace};
use sa_model::checker::TaskChecker;
use sa_model::explore::NormalizeFn;
use sa_model::graph::Graph;
use sa_model::json::JsonValue;
use sa_model::oracle::LocalPredicate;
use sa_model::signal::StateIndex;
use sa_model::snapshot::{u64_from_json, u64_to_json, ExecutionSnapshot};
use sa_protocols::le::LeState;
use sa_protocols::mis::MisState;
use sa_protocols::restart::RestartState;
use sa_protocols::{AlgLe, AlgMis, LeChecker, MisChecker};
use sa_synchronizer::{async_le, async_mis, SyncState, Synchronized, SynchronizedChecker};
use std::sync::Arc;
use unison_core::baseline::min_plus_one::min_plus_one_legitimate;
use unison_core::baseline::{
    reset_attempt_legitimate, MinPlusOne, MinPlusOneChecker, MinPlusOneOracle, ResetAttempt,
    ResetTurn,
};
use unison_core::{AlgAu, AuChecker, GoodGraphOracle, Predicates, Turn};

/// A sweepable algorithm family: the sweep's `algorithm` axis, and every
/// verify label except the reset strawman's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// The paper's asynchronous-unison algorithm AlgAU (Theorem 1.1).
    AlgAu,
    /// The unbounded-register `min + 1` unison baseline (experiment E9).
    MinPlusOne,
    /// Asynchronous leader election: AlgLE through the synchronizer
    /// (Theorem 1.3 + Corollary 1.2).
    AsyncLe,
    /// Asynchronous MIS: AlgMIS through the synchronizer (Theorem 1.4 +
    /// Corollary 1.2).
    AsyncMis,
}

impl AlgorithmSpec {
    const ALL: [AlgorithmSpec; 4] = [
        AlgorithmSpec::AlgAu,
        AlgorithmSpec::MinPlusOne,
        AlgorithmSpec::AsyncLe,
        AlgorithmSpec::AsyncMis,
    ];

    /// A stable label used in unit ids and report rows.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::AlgAu => "algau",
            AlgorithmSpec::MinPlusOne => "min-plus-one",
            AlgorithmSpec::AsyncLe => "le",
            AlgorithmSpec::AsyncMis => "mis",
        }
    }

    /// The family with this label, if any.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.label() == label)
    }
}

/// Evaluates `$body` with `$family` bound to a reference to the table
/// entry of the sweepable family `$spec` at diameter bound `$d`. `$body` is
/// compiled once per family, so it may call generic code over
/// [`SweepFamily`] without a trait object.
macro_rules! with_family {
    ($spec:expr, $d:expr, |$family:ident| $body:expr) => {
        match $spec {
            $crate::family::AlgorithmSpec::AlgAu => {
                let $family = &$crate::family::AuFamily::new($d);
                $body
            }
            $crate::family::AlgorithmSpec::MinPlusOne => {
                let $family = &$crate::family::MinPlusOneFamily::new($d);
                $body
            }
            $crate::family::AlgorithmSpec::AsyncLe => {
                let $family = &$crate::family::LeFamily::new($d);
                $body
            }
            $crate::family::AlgorithmSpec::AsyncMis => {
                let $family = &$crate::family::MisFamily::new($d);
                $body
            }
        }
    };
}
pub(crate) use with_family;

/// A family's state type.
pub type State<F> = <<F as Family>::A as Algorithm>::State;

/// The facts of one algorithm family that both the sweep and `sa verify`
/// read.
pub trait Family {
    /// The concrete algorithm type.
    type A: Algorithm;

    /// The algorithm instance.
    fn algorithm(&self) -> &Self::A;

    /// The benign designated start state. Benign sweep units and scenario
    /// units start with every node in it; verify's reachable space corrupts
    /// that configuration.
    fn benign(&self) -> State<Self>;

    /// The legitimacy predicate: a sweep unit has stabilized (or recovered)
    /// when it holds at a round boundary, and `sa verify` certifies its
    /// closure and convergence.
    fn is_legitimate(&self, graph: &Graph, config: &[State<Self>]) -> bool;

    /// The per-node palette of `sa verify`: the full space is its `n`-fold
    /// product, and the reachable space corrupts nodes with its states.
    fn verify_palette(&self) -> &[State<Self>];

    /// A symmetry `sa verify` quotients configurations by before interning
    /// (see [`sa_model::explore::explore`]); `None` keeps them as they are.
    fn normalizer(&self) -> Option<NormalizeFn<'_, State<Self>>> {
        None
    }

    /// Whether the product over [`Family::verify_palette`] is the family's
    /// whole configuration space, so that `"space": "full"` is admissible.
    fn full_space(&self) -> bool {
        true
    }
}

/// The further facts a sweep unit needs to run and checkpoint a family.
pub trait SweepFamily: Family {
    /// The task checker of the verification window.
    type Checker: TaskChecker<Self::A>;

    /// The adversary's arbitrary start, a pure function of `seed`.
    fn random_start(&self, n: usize, seed: u64) -> Vec<State<Self>>;

    /// The palette transient faults and recovery bursts draw corrupted
    /// states from.
    fn fault_palette(&self) -> &[State<Self>];

    /// [`Family::is_legitimate`] decomposed into per-node conjuncts for the
    /// incremental `LegitimacyTracker`. Must agree with it on every
    /// configuration (pinned by `tests/oracle_equivalence.rs`).
    fn local_oracle(&self) -> &dyn LocalPredicate<State<Self>>;

    /// Emptiness of the checker's snapshot check, decomposed likewise.
    fn local_snapshot(&self) -> &dyn LocalPredicate<State<Self>>;

    /// The task checker.
    fn checker(&self) -> &Self::Checker;

    /// Serializes an execution snapshot (`None` if a state cannot be
    /// encoded, e.g. it left the palette the codec indexes into).
    fn encode_snapshot(&self, snap: &ExecutionSnapshot<State<Self>>) -> Option<JsonValue>;

    /// Deserializes a snapshot produced by
    /// [`SweepFamily::encode_snapshot`].
    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<State<Self>>>;
}

/// Draws every node's state uniformly from `candidates` with the same seed
/// derivation as
/// [`ExecutionBuilder::random_initial`](sa_model::executor::ExecutionBuilder::random_initial).
fn random_configuration<S: Clone>(candidates: &[S], n: usize, seed: u64) -> Vec<S> {
    assert!(!candidates.is_empty(), "need at least one candidate state");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| candidates[rng.gen_range(0..candidates.len())].clone())
        .collect()
}

// ---------------------------------------------------------------------------
// AlgAU
// ---------------------------------------------------------------------------

/// AlgAU: legitimate when the graph is good; faults and verify range over
/// the whole turn set.
pub struct AuFamily {
    alg: AlgAu,
    palette: Vec<Turn>,
    oracle: GoodGraphOracle,
    checker: AuChecker,
}

impl AuFamily {
    /// The entry for diameter bound `diameter_bound`.
    pub fn new(diameter_bound: usize) -> Self {
        let alg = AlgAu::new(diameter_bound);
        AuFamily {
            alg,
            palette: alg.states(),
            oracle: GoodGraphOracle::new(alg),
            // The bound stands in for the exact diameter in the liveness
            // window (sound: it only weakens the requirement), so
            // million-node units pay no all-pairs BFS per window.
            checker: AuChecker::new(alg).with_diameter_bound(diameter_bound as u64),
        }
    }
}

impl Family for AuFamily {
    type A = AlgAu;

    fn algorithm(&self) -> &AlgAu {
        &self.alg
    }

    fn benign(&self) -> Turn {
        Turn::Able(1)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[Turn]) -> bool {
        self.oracle.is_legitimate(graph, config)
    }

    fn verify_palette(&self) -> &[Turn] {
        &self.palette
    }
}

impl SweepFamily for AuFamily {
    type Checker = AuChecker;

    fn random_start(&self, n: usize, seed: u64) -> Vec<Turn> {
        random_configuration(&self.palette, n, seed)
    }

    fn fault_palette(&self) -> &[Turn] {
        &self.palette
    }

    fn local_oracle(&self) -> &dyn LocalPredicate<Turn> {
        &self.oracle
    }

    fn local_snapshot(&self) -> &dyn LocalPredicate<Turn> {
        &self.checker
    }

    fn checker(&self) -> &AuChecker {
        &self.checker
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<Turn>) -> Option<JsonValue> {
        snap.to_json_indexed(&self.palette)
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<Turn>> {
        ExecutionSnapshot::from_json_indexed(value, &self.palette)
    }
}

// ---------------------------------------------------------------------------
// min + 1
// ---------------------------------------------------------------------------

/// The `min + 1` baseline: legitimate when neighboring clocks differ by at
/// most one.
pub struct MinPlusOneFamily {
    checker: MinPlusOneChecker,
    /// Every in-range clock `0..=2D+2`, then two far-out outliers (the
    /// register is unbounded, so faults may land anywhere).
    palette: Vec<u64>,
    /// The in-range prefix of `palette`.
    in_range: usize,
}

impl MinPlusOneFamily {
    /// The entry for diameter bound `diameter_bound`.
    pub fn new(diameter_bound: usize) -> Self {
        let d = diameter_bound as u64;
        let mut palette: Vec<u64> = (0..=2 * d + 2).collect();
        let in_range = palette.len();
        palette.push(10 * (d + 1));
        palette.push(100 * (d + 1));
        MinPlusOneFamily {
            checker: MinPlusOneChecker::default().with_diameter_bound(d),
            palette,
            in_range,
        }
    }
}

/// Subtracts the global minimum from every register: the transition
/// relation is shift-equivariant and legitimacy shift-invariant, so the
/// quotient is sound (argued in `docs/verify.md`).
#[allow(clippy::ptr_arg)] // the signature `NormalizeFn` fixes
fn subtract_min(config: &mut Vec<u64>) {
    let min = *config.iter().min().expect("non-empty configuration");
    for v in config.iter_mut() {
        *v -= min;
    }
}

impl Family for MinPlusOneFamily {
    type A = MinPlusOne;

    fn algorithm(&self) -> &MinPlusOne {
        &MinPlusOne
    }

    fn benign(&self) -> u64 {
        0
    }

    fn is_legitimate(&self, graph: &Graph, config: &[u64]) -> bool {
        min_plus_one_legitimate(graph, config)
    }

    /// The in-range clocks `0..=2D+2` only: the outliers serve the sweep's
    /// fault draws, and the explored space stays finite from these seeds.
    /// A `"full"` certificate therefore covers only configurations whose
    /// spread after the min quotient is at most `2D+2` (and what they
    /// reach); `[0, 100, 100]` on `path-3`, say, is never explored.
    fn verify_palette(&self) -> &[u64] {
        &self.palette[..self.in_range]
    }

    fn normalizer(&self) -> Option<NormalizeFn<'_, u64>> {
        Some(&subtract_min)
    }
}

impl SweepFamily for MinPlusOneFamily {
    type Checker = MinPlusOneChecker;

    fn random_start(&self, n: usize, seed: u64) -> Vec<u64> {
        random_configuration(&self.palette, n, seed)
    }

    fn fault_palette(&self) -> &[u64] {
        &self.palette
    }

    fn local_oracle(&self) -> &dyn LocalPredicate<u64> {
        &MinPlusOneOracle
    }

    fn local_snapshot(&self) -> &dyn LocalPredicate<u64> {
        &self.checker
    }

    fn checker(&self) -> &MinPlusOneChecker {
        &self.checker
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<u64>) -> Option<JsonValue> {
        Some(snap.to_json(|s| u64_to_json(*s)))
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<u64>> {
        ExecutionSnapshot::from_json(value, u64_from_json)
    }
}

// ---------------------------------------------------------------------------
// Synchronized composites (LE, MIS)
// ---------------------------------------------------------------------------

/// The host task's half of a synchronized composite's legitimacy, over the
/// composite states: the global predicate, and (as the [`LocalPredicate`]
/// supertrait) its per-node decomposition, which is also the decomposition
/// of the task checker's snapshot check.
pub trait CompositeTask<S>: LocalPredicate<SyncState<S>> {
    /// The task predicate on the projected states.
    fn is_legitimate(&self, graph: &Graph, config: &[SyncState<S>]) -> bool;
}

/// The colony task of LE: exactly one leader and no cell mid-reset, as a
/// *weighted* predicate (every node ok, leader bits summing to 1).
pub struct Colony;

impl LocalPredicate<SyncState<RestartState<LeState>>> for Colony {
    fn node_ok(
        &self,
        _graph: &Graph,
        config: &[SyncState<RestartState<LeState>>],
        v: usize,
    ) -> bool {
        bio_networks::colony_node_ok(config, v)
    }

    fn node_weight(&self, config: &[SyncState<RestartState<LeState>>], v: usize) -> i64 {
        bio_networks::colony_leader_weight(config, v)
    }

    fn weighted(&self) -> bool {
        true
    }

    fn weight_target(&self) -> i64 {
        1
    }

    fn uniform_ok(&self, _graph: &Graph, state: &SyncState<RestartState<LeState>>) -> Option<bool> {
        Some(!matches!(&state.current, RestartState::Restart(_)))
    }
}

impl CompositeTask<RestartState<LeState>> for Colony {
    fn is_legitimate(&self, graph: &Graph, config: &[SyncState<RestartState<LeState>>]) -> bool {
        bio_networks::colony_leader_legitimate(graph, config)
    }
}

/// The tissue task of MIS: every cell a decided host whose decision is
/// locally consistent.
pub struct Tissue;

impl LocalPredicate<SyncState<RestartState<MisState>>> for Tissue {
    fn node_ok(
        &self,
        graph: &Graph,
        config: &[SyncState<RestartState<MisState>>],
        v: usize,
    ) -> bool {
        bio_networks::tissue_node_ok(graph, config, v)
    }

    fn uniform_ok(&self, graph: &Graph, state: &SyncState<RestartState<MisState>>) -> Option<bool> {
        Some(bio_networks::tissue_uniform_ok(graph, state))
    }
}

impl CompositeTask<RestartState<MisState>> for Tissue {
    fn is_legitimate(&self, graph: &Graph, config: &[SyncState<RestartState<MisState>>]) -> bool {
        bio_networks::tissue_pattern_legitimate(graph, config)
    }
}

/// AU goodness of the clock coordinate conjoined with a task predicate:
/// the per-node decomposition of [`Composite`]'s legitimacy.
struct Clocked<T> {
    unison: AlgAu,
    task: T,
}

impl<S, T: LocalPredicate<SyncState<S>>> LocalPredicate<SyncState<S>> for Clocked<T> {
    fn node_ok(&self, graph: &Graph, config: &[SyncState<S>], v: usize) -> bool {
        Predicates::new(&self.unison, graph).node_good_by(|u| config[u].turn, v)
            && self.task.node_ok(graph, config, v)
    }

    fn node_weight(&self, config: &[SyncState<S>], v: usize) -> i64 {
        self.task.node_weight(config, v)
    }

    fn weighted(&self) -> bool {
        self.task.weighted()
    }

    fn weight_target(&self) -> i64 {
        self.task.weight_target()
    }

    fn uniform_ok(&self, graph: &Graph, state: &SyncState<S>) -> Option<bool> {
        let level = state.turn.level();
        Some(
            state.turn.is_able()
                && self.unison.levels().adjacent(level, level)
                && self.task.uniform_ok(graph, state)?,
        )
    }
}

/// A synchronous host algorithm lifted through the synchronizer, with its
/// task `T` and task checker `C`.
pub struct Composite<H: Algorithm, C, T> {
    alg: Synchronized<H>,
    benign: SyncState<H::State>,
    /// The inner palette `inner().states()`, which is sorted, as the index
    /// the synchronizer built for its factored path (shared, not copied):
    /// random starts draw from it and checkpoints number states by it.
    inner_palette: Arc<StateIndex<H::State>>,
    turns: Vec<Turn>,
    corrupted: Vec<SyncState<H::State>>,
    checker: C,
    oracle: Clocked<T>,
}

/// The LE entry.
pub type LeFamily = Composite<AlgLe, SynchronizedChecker<LeChecker>, Colony>;

/// The MIS entry.
pub type MisFamily = Composite<AlgMis, SynchronizedChecker<MisChecker>, Tissue>;

impl<H: Algorithm + StateSpace, C, T> Composite<H, C, T> {
    fn build(
        alg: Synchronized<H>,
        benign: SyncState<H::State>,
        corrupted: Vec<SyncState<H::State>>,
        checker: C,
        task: T,
    ) -> Self {
        let inner_palette = alg
            .inner_index()
            .expect("composite hosts enumerate their states")
            .clone();
        // Checkpoint numbers and random starts are positions in
        // `inner().states()` order; the index's order must be that one.
        debug_assert!(inner_palette.states() == alg.inner().states());
        Composite {
            inner_palette,
            turns: alg.unison().states(),
            oracle: Clocked {
                unison: *alg.unison(),
                task,
            },
            alg,
            benign,
            corrupted,
            checker,
        }
    }

    /// Encodes a composite state as `{c, p, t}` palette indices (the full
    /// product `|Q|²·|T|` is far too large to index directly, but each of
    /// its three coordinates is small).
    fn encode_state(&self, state: &SyncState<H::State>) -> Option<JsonValue> {
        let pos = |s: &H::State| self.inner_palette.position(s);
        let turn = self.turns.iter().position(|t| t == &state.turn)?;
        Some(JsonValue::object([
            (
                "c".to_string(),
                JsonValue::Number(pos(&state.current)? as f64),
            ),
            (
                "p".to_string(),
                JsonValue::Number(pos(&state.previous)? as f64),
            ),
            ("t".to_string(), JsonValue::Number(turn as f64)),
        ]))
    }

    /// Decodes a state encoded by [`Composite::encode_state`].
    fn decode_state(&self, value: &JsonValue) -> Option<SyncState<H::State>> {
        let inner = |key: &str| {
            let states = self.inner_palette.states();
            states.get(value.get(key)?.as_usize()?).cloned()
        };
        Some(SyncState {
            current: inner("c")?,
            previous: inner("p")?,
            turn: *self.turns.get(value.get("t")?.as_usize()?)?,
        })
    }
}

impl LeFamily {
    /// The entry for diameter bound `diameter_bound`.
    pub fn new(diameter_bound: usize) -> Self {
        let alg = async_le(diameter_bound);
        let (benign, corrupted, checker) =
            (alg.fresh_state(), alg.corrupted_states(), alg.checker());
        Composite::build(alg, benign, corrupted, checker, Colony)
    }
}

impl MisFamily {
    /// The entry for diameter bound `diameter_bound`.
    pub fn new(diameter_bound: usize) -> Self {
        let alg = async_mis(diameter_bound);
        let (benign, corrupted, checker) =
            (alg.fresh_state(), alg.corrupted_states(), alg.checker());
        Composite::build(alg, benign, corrupted, checker, Tissue)
    }
}

impl<H, C, T> Family for Composite<H, C, T>
where
    H: Algorithm + StateSpace,
    T: CompositeTask<H::State>,
{
    type A = Synchronized<H>;

    fn algorithm(&self) -> &Synchronized<H> {
        &self.alg
    }

    fn benign(&self) -> SyncState<H::State> {
        self.benign.clone()
    }

    /// The AU coordinate must be good (the synchronizer's closure argument
    /// needs a stabilized clock before the simulated rounds are
    /// trustworthy), and the projected task state must be legitimate.
    ///
    /// The predicate is *observational*: an adversarial start can
    /// transiently satisfy it while the simulated epoch state is still
    /// inconsistent, in which case the verification window reports the
    /// subsequent restart as a violation. For LE this set is not closed
    /// (`sa verify examples/specs/verify-composites.json`); the closed
    /// predicate of Theorem 1.3 belongs in this entry.
    fn is_legitimate(&self, graph: &Graph, config: &[SyncState<H::State>]) -> bool {
        let turns: Vec<Turn> = config.iter().map(|s| s.turn).collect();
        Predicates::new(self.alg.unison(), graph).graph_good(&turns)
            && self.oracle.task.is_legitimate(graph, config)
    }

    /// The representative corrupted states: the full composite product is
    /// far too large to enumerate.
    fn verify_palette(&self) -> &[SyncState<H::State>] {
        &self.corrupted
    }

    /// A product over the corrupted states is neither the full space nor
    /// meaningful, so only the reachable space is explored.
    fn full_space(&self) -> bool {
        false
    }
}

impl<H, C, T> SweepFamily for Composite<H, C, T>
where
    H: Algorithm + StateSpace,
    C: TaskChecker<Synchronized<H>>,
    T: CompositeTask<H::State>,
{
    type Checker = C;

    fn random_start(&self, n: usize, seed: u64) -> Vec<SyncState<H::State>> {
        sa_synchronizer::random_composite_configuration(
            self.inner_palette.states(),
            self.alg.unison(),
            n,
            seed ^ 0x9e37_79b9_7f4a_7c15,
        )
    }

    fn fault_palette(&self) -> &[SyncState<H::State>] {
        &self.corrupted
    }

    fn local_oracle(&self) -> &dyn LocalPredicate<SyncState<H::State>> {
        &self.oracle
    }

    fn local_snapshot(&self) -> &dyn LocalPredicate<SyncState<H::State>> {
        &self.oracle.task
    }

    fn checker(&self) -> &C {
        &self.checker
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<SyncState<H::State>>) -> Option<JsonValue> {
        snap.try_to_json(|s| self.encode_state(s))
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<SyncState<H::State>>> {
        ExecutionSnapshot::from_json(value, |v| self.decode_state(v))
    }
}

// ---------------------------------------------------------------------------
// The reset strawman
// ---------------------------------------------------------------------------

/// The paper's Appendix A strawman: unison with an explicit reset wave,
/// which live-locks on cycles. It is part of `sa verify`'s vocabulary so
/// the counterexample machinery has a committed demonstration; it has no
/// task checker, so it is not sweepable.
pub struct ResetAttemptFamily {
    alg: ResetAttempt,
    palette: Vec<ResetTurn>,
}

impl ResetAttemptFamily {
    /// The entry for clock period `period`.
    pub fn new(period: u32) -> Self {
        let alg = ResetAttempt::new(period);
        ResetAttemptFamily {
            palette: alg.states(),
            alg,
        }
    }
}

impl Family for ResetAttemptFamily {
    type A = ResetAttempt;

    fn algorithm(&self) -> &ResetAttempt {
        &self.alg
    }

    fn benign(&self) -> ResetTurn {
        ResetTurn::Turn(0)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[ResetTurn]) -> bool {
        reset_attempt_legitimate(&self.alg, graph, config)
    }

    fn verify_palette(&self) -> &[ResetTurn] {
        &self.palette
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::executor::ExecutionBuilder;
    use sa_model::scheduler::UniformRandomScheduler;

    #[test]
    fn random_configuration_matches_execution_builder_random_initial() {
        // `random_configuration` deliberately duplicates the builder's seed
        // derivation so AlgAU unit trajectories predating the algorithm
        // axis are preserved; this pins the two implementations together.
        let alg = AlgAu::new(2);
        let palette = alg.states();
        let g = Graph::cycle(9);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let via_builder = ExecutionBuilder::new(&alg, &g)
                .seed(seed)
                .random_initial(&palette);
            let via_helper = random_configuration(&palette, g.node_count(), seed);
            assert_eq!(via_builder.configuration(), &via_helper[..], "seed {seed}");
        }
    }

    /// Every sweep entry's per-node oracle agrees with its global predicate
    /// at every configuration of a run from a random start, legitimate ones
    /// included.
    #[test]
    fn local_oracles_match_the_global_predicates() {
        fn check<F: SweepFamily>(family: &F) {
            let graph = Graph::cycle(6);
            let local = family.local_oracle();
            let mut exec = ExecutionBuilder::new(family.algorithm(), &graph)
                .seed(5)
                .initial(family.random_start(graph.node_count(), 5));
            let mut legitimate_steps = 0;
            for _ in 0..20_000 {
                let config = exec.configuration();
                let weight: i64 = graph.nodes().map(|v| local.node_weight(config, v)).sum();
                let local_verdict = graph.nodes().all(|v| local.node_ok(&graph, config, v))
                    && (!local.weighted() || weight == local.weight_target());
                let legitimate = family.is_legitimate(&graph, config);
                assert_eq!(legitimate, local_verdict);
                legitimate_steps += usize::from(legitimate);
                if legitimate_steps == 50 {
                    return;
                }
                exec.step_with(&mut UniformRandomScheduler::new(0.5));
            }
            panic!("no legitimate configuration reached");
        }
        for spec in AlgorithmSpec::ALL {
            with_family!(spec, 3, |family| check(family));
        }
    }
}

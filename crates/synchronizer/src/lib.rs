//! # sa-synchronizer — from synchronous to asynchronous self-stabilization
//!
//! This crate implements Section 4 of Emek & Keren (PODC 2021): a self-stabilizing
//! synchronizer for the stone age model, establishing Corollary 1.2. Given a
//! *synchronous* self-stabilizing algorithm `Π = ⟨Q, Q_O, ω, δ⟩` (state space `g(D)`,
//! stabilization time `f(n, D)`), the transformer produces an *asynchronous*
//! self-stabilizing algorithm `Π*` with state space `O(D · g(D)²)` and stabilization
//! time `f(n, D) + O(D³)`.
//!
//! The construction composes `Π` with the asynchronous unison algorithm
//! [`AlgAu`]: the `Π*` state of a node is a triple
//! `(q, q′, ν) ∈ Q × Q × T` holding the node's current simulated `Π`-state, its
//! previous simulated `Π`-state and its AlgAU turn. AlgAU runs on the third
//! coordinate; every time its clock advances (a type AA transition `ν → ν′`), one
//! simulated synchronous step of `Π` is executed using the *simulated signal*: state
//! `r ∈ Q` is simulated-sensed iff some neighbor exposes a `Π*`-state of the form
//! `(r, ·, ν)` (a neighbor still in the same simulated round) or `(·, r, ν′)` (a
//! neighbor that has already advanced past it).
//!
//! The headline applications are the **asynchronous** self-stabilizing LE and MIS
//! algorithms obtained by transforming AlgLE and AlgMIS ([`async_le`], [`async_mis`]).
//!
//! ## Execution
//!
//! Each coordinate of a `Π*` state is thin — `|T| = 12D + 6` turns, and the
//! inner space `Q` of AlgLE or AlgMIS has a few thousand states — but the
//! product `|Q|²·|T|` is millions of states already at `D = 1`, far past
//! any dense index. So [`Synchronized`] offers the executor a *factored*
//! transition ([`Algorithm::compile_factored`]) instead: each node's
//! `(q, q′, ν)` is three palette indices, an activation runs AlgAU's
//! compiled turn masks on the turn indices of its closed neighbourhood,
//! and only a clock advance gathers the simulated signal — as the sorted
//! positions of the sensed inner states — for the inner algorithm's own
//! compiled transition (module Restart's, for AlgLE and AlgMIS). Every
//! state, output and coin equals [`Synchronized::transition`], the closure
//! path, which stays as the reference the lockstep tests run against and
//! as the path of `sa verify`'s explorer.
//!
//! ## Example
//!
//! ```
//! use sa_model::prelude::*;
//! use sa_model::checker::measure_static_stabilization;
//! use sa_synchronizer::async_mis;
//!
//! let graph = Graph::cycle(6);
//! let alg = async_mis(graph.diameter());
//! let mut exec = ExecutionBuilder::new(&alg, &graph)
//!     .seed(3)
//!     .uniform(alg.fresh_state());
//! let mut sched = UniformRandomScheduler::new(0.7);
//! let checker = alg.checker();
//! let report = measure_static_stabilization(&mut exec, &mut sched, &checker, 4000, 100);
//! assert!(report.stabilization_round.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::RngCore;
use sa_model::algorithm::{
    Algorithm, Coords, FactoredOutcome, FactoredTransition, MaskedOutcome, MaskedTransition,
    StateSpace,
};
use sa_model::checker::TaskChecker;
use sa_model::graph::{Graph, NodeId};
use sa_model::signal::{mask_ops, Signal, StateIndex, WordPool};
use sa_protocols::le::LeChecker;
use sa_protocols::mis::MisChecker;
use sa_protocols::{alg_le, alg_mis, AlgLe, AlgMis};
use std::sync::Arc;
use unison_core::algau::TransitionKind;
use unison_core::{AlgAu, Turn};

/// A `Π*` state: the current simulated `Π`-state, the previous simulated `Π`-state
/// and the AlgAU turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyncState<S> {
    /// The node's current simulated `Π`-state (`q`).
    pub current: S,
    /// The node's previous simulated `Π`-state (`q′`).
    pub previous: S,
    /// The node's AlgAU turn (`ν`).
    pub turn: Turn,
}

/// The synchronizer transform `Π ↦ Π*` applied to an inner algorithm.
#[derive(Clone)]
pub struct Synchronized<A: Algorithm> {
    inner: A,
    unison: AlgAu,
    /// The inner state space `Q`, sorted, when `Π` enumerates it
    /// ([`Algorithm::dense_state_space`]): the palette of the factored
    /// path's `q` and `q′` coordinates, built once and shared by every
    /// execution and evaluation lane.
    inner_index: Option<Arc<StateIndex<A::State>>>,
}

impl<A: Algorithm + std::fmt::Debug> std::fmt::Debug for Synchronized<A> {
    /// The inner index is derived from `inner`, and thousands of states
    /// long: it is left out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synchronized")
            .field("inner", &self.inner)
            .field("unison", &self.unison)
            .finish_non_exhaustive()
    }
}

impl<A: Algorithm> Synchronized<A> {
    /// Wraps `inner` (a synchronous self-stabilizing algorithm for `D`-bounded
    /// diameter graphs) with the AlgAU-based synchronizer for the same bound.
    pub fn new(inner: A, diameter_bound: usize) -> Self {
        let inner_index = inner
            .dense_state_space()
            .map(|states| Arc::new(StateIndex::new(states)));
        Synchronized {
            inner,
            unison: AlgAu::new(diameter_bound),
            inner_index,
        }
    }

    /// The wrapped synchronous algorithm `Π`.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The sorted inner state space `Q` the factored path indexes the
    /// simulated states by, `None` when `Π` does not enumerate it.
    pub fn inner_index(&self) -> Option<&Arc<StateIndex<A::State>>> {
        self.inner_index.as_ref()
    }

    /// The AlgAU instance driving the simulated rounds.
    pub fn unison(&self) -> &AlgAu {
        &self.unison
    }

    /// A composite state with both simulated `Π`-coordinates set to `inner_state` and
    /// the AU clock at level 1. Useful as a benign starting configuration; the
    /// self-stabilization guarantee of course covers arbitrary configurations.
    pub fn lift(&self, inner_state: A::State) -> SyncState<A::State> {
        SyncState {
            current: inner_state.clone(),
            previous: inner_state,
            turn: Turn::Able(1),
        }
    }

    /// The AU clock value of a composite state (`None` while the node is in a faulty
    /// turn).
    pub fn clock_of(&self, state: &SyncState<A::State>) -> Option<u32> {
        match state.turn {
            Turn::Able(l) => Some(self.unison.clock_of_level(l)),
            Turn::Faulty(_) => None,
        }
    }
}

impl<A: Algorithm + StateSpace> Synchronized<A> {
    /// The size of the composite state space `|Q|² · |T|` (the `O(D · g(D)²)` bound of
    /// Corollary 1.2), computed without materializing it.
    pub fn state_space_size(&self) -> usize {
        let q = self.inner.state_count();
        q * q * self.unison.state_count()
    }
}

impl<A: Algorithm> Algorithm for Synchronized<A> {
    type State = SyncState<A::State>;
    type Output = A::Output;

    fn output(&self, state: &Self::State) -> Option<A::Output> {
        if state.turn.is_able() {
            self.inner.output(&state.current)
        } else {
            None
        }
    }

    fn transition(
        &self,
        state: &Self::State,
        signal: &Signal<Self::State>,
        rng: &mut dyn RngCore,
    ) -> Self::State {
        // Run AlgAU on the turn coordinate.
        let turn_signal: Signal<Turn> = signal.map(|s| s.turn);
        let kind = self.unison.transition_kind(&state.turn, &turn_signal);
        let next_turn = self.unison.next_turn(&state.turn, &turn_signal);

        if kind != TransitionKind::AbleAble {
            // The AU clock did not advance: the simulated Π-state is untouched.
            return SyncState {
                current: state.current.clone(),
                previous: state.previous.clone(),
                turn: next_turn,
            };
        }

        // The clock advances ν → ν′: execute one simulated synchronous step of Π.
        let current_turn = state.turn;
        let advanced_turn = next_turn;
        let simulated_signal: Signal<A::State> = signal.filter_map(|u| {
            if u.turn == current_turn {
                Some(u.current.clone())
            } else if u.turn == advanced_turn {
                Some(u.previous.clone())
            } else {
                None
            }
        });
        let next_inner = self
            .inner
            .transition(&state.current, &simulated_signal, rng);
        SyncState {
            current: next_inner,
            previous: state.current.clone(),
            turn: advanced_turn,
        }
    }

    fn transition_is_deterministic(&self) -> bool {
        // The unison coordinate (AlgAU) is deterministic; the composite is a
        // pure function of (state, signal) whenever the inner algorithm is.
        self.inner.transition_is_deterministic()
    }

    fn compile_factored(&self) -> Option<Box<dyn FactoredTransition<Self::State> + '_>> {
        SyncFactored::build(self)
            .map(|f| Box::new(f) as Box<dyn FactoredTransition<Self::State> + '_>)
    }

    fn name(&self) -> &'static str {
        "synchronized"
    }
}

/// The factored transition of a [`Synchronized`] composite: each node's
/// `(q, q′, ν)` as three palette indices — `q` and `q′` into the sorted
/// inner space, `ν` into AlgAU's sorted turns.
///
/// An activation ORs the turn coordinates of its closed neighbourhood into
/// a turn mask and runs AlgAU's own compiled masks on it (the
/// [`AlgAu::turn_rule`] table). Only on a clock advance `ν → ν′` does it
/// gather the simulated signal: the `q` of each neighbour at `ν` and the
/// `q′` of each neighbour at `ν′`, as sorted positions in the inner space
/// (at most `deg + 1` of them, against thousands of inner states). The
/// inner algorithm then runs on that list — through its own masks when it
/// compiles them (module Restart does), else through
/// [`Algorithm::transition`] on a listed signal — with the node's coin
/// stream, so every state, output and coin matches
/// [`Synchronized::transition`].
struct SyncFactored<'a, A: Algorithm> {
    inner: &'a A,
    inner_index: Arc<StateIndex<A::State>>,
    inner_masks: Option<Box<dyn MaskedTransition<A::State> + 'a>>,
    turn_index: Arc<StateIndex<Turn>>,
    turn_masks: Box<dyn MaskedTransition<Turn> + 'a>,
    /// Per turn coordinate: the coordinate of its AA successor, `u32::MAX`
    /// for faulty turns. A turn rule landing there is a clock advance.
    advance: Vec<u32>,
}

impl<'a, A: Algorithm> SyncFactored<'a, A> {
    /// Compiles the composite, or `None` when `Π` does not enumerate its
    /// space.
    fn build(sync: &'a Synchronized<A>) -> Option<Self> {
        let inner_index = sync.inner_index.clone()?;
        let turn_index = Arc::new(StateIndex::new(StateSpace::states(&sync.unison)));
        let advance = turn_index
            .states()
            .iter()
            .map(|&turn| {
                sync.unison
                    .turn_rule(turn)
                    .aa_next
                    .and_then(|next| turn_index.position(&next))
                    .map_or(u32::MAX, |i| i as u32)
            })
            .collect();
        Some(SyncFactored {
            inner: &sync.inner,
            inner_masks: sync.inner.compile_masked(&inner_index),
            turn_masks: sync.unison.compile_masked(&turn_index)?,
            inner_index,
            turn_index,
            advance,
        })
    }

    /// One simulated synchronous step of `Π` from inner state `current` on
    /// the simulated signal `sim` (sorted inner positions), as an inner
    /// index position (or the escaped state).
    fn inner_step(
        &self,
        current: u32,
        sim: Vec<u64>,
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<A::State> {
        if let Some(masks) = &self.inner_masks {
            let words = self.inner_index.words();
            let outcome = masks.next_index_listed(current, &sim, words, scratch, rng);
            scratch.give(sim);
            return outcome;
        }
        let signal = Signal::listed(self.inner_index.clone(), sim);
        let next = self
            .inner
            .transition(self.inner_index.state(current as usize), &signal, rng);
        scratch.give(signal.into_positions().expect("the signal is listed"));
        match self.inner_index.position(&next) {
            Some(i) => MaskedOutcome::Indexed(i as u32),
            None => MaskedOutcome::Escaped(next),
        }
    }
}

impl<A: Algorithm> FactoredTransition<SyncState<A::State>> for SyncFactored<'_, A> {
    fn coords(&self, state: &SyncState<A::State>) -> Option<Coords> {
        Some([
            self.inner_index.position(&state.current)? as u32,
            self.inner_index.position(&state.previous)? as u32,
            self.turn_index.position(&state.turn)? as u32,
        ])
    }

    fn state(&self, [current, previous, turn]: Coords) -> SyncState<A::State> {
        SyncState {
            current: self.inner_index.state(current as usize).clone(),
            previous: self.inner_index.state(previous as usize).clone(),
            turn: *self.turn_index.state(turn as usize),
        }
    }

    fn next_coords(
        &self,
        graph: &Graph,
        v: NodeId,
        coords: &[Coords],
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> FactoredOutcome<SyncState<A::State>> {
        let [current, previous, turn] = coords[v];
        let neighborhood =
            || std::iter::once(&coords[v]).chain(graph.neighbors(v).iter().map(|&u| &coords[u]));

        // Run AlgAU on the turn coordinate.
        let mut turns = scratch.take(self.turn_index.words());
        for &[_, _, t] in neighborhood() {
            mask_ops::set(&mut turns, t as usize);
        }
        let next_turn = match self.turn_masks.next_index(turn, &turns, scratch, rng) {
            MaskedOutcome::Indexed(t) => t,
            MaskedOutcome::Escaped(_) => unreachable!("AlgAU never leaves its turns"),
        };
        scratch.give(turns);
        if next_turn != self.advance[turn as usize] {
            // The AU clock did not advance: the simulated Π-state is untouched.
            return FactoredOutcome::Coords([current, previous, next_turn]);
        }

        // The clock advances ν → ν′: execute one simulated synchronous step
        // of Π on the states sensed at ν (current) and at ν′ (previous).
        let mut sim = scratch.take(0);
        for &[c, p, t] in neighborhood() {
            if t == turn {
                sim.push(c.into());
            } else if t == next_turn {
                sim.push(p.into());
            }
        }
        sim.sort_unstable();
        sim.dedup();
        match self.inner_step(current, sim, scratch, rng) {
            MaskedOutcome::Indexed(next) => FactoredOutcome::Coords([next, current, next_turn]),
            MaskedOutcome::Escaped(next) => FactoredOutcome::Escaped(SyncState {
                current: next,
                previous: self.inner_index.state(current as usize).clone(),
                turn: *self.turn_index.state(next_turn as usize),
            }),
        }
    }
}

/// Adapts a checker for the inner (synchronous) algorithm to the composite algorithm
/// by projecting each composite state to its *current* simulated `Π`-state.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynchronizedChecker<C> {
    inner: C,
}

impl<C> SynchronizedChecker<C> {
    /// Wraps an inner checker.
    pub fn new(inner: C) -> Self {
        SynchronizedChecker { inner }
    }
}

impl<A, C> TaskChecker<Synchronized<A>> for SynchronizedChecker<C>
where
    A: Algorithm,
    C: TaskChecker<A>,
{
    fn check_snapshot(&self, graph: &Graph, config: &[SyncState<A::State>]) -> Vec<String> {
        let projected: Vec<A::State> = config.iter().map(|s| s.current.clone()).collect();
        self.inner.check_snapshot(graph, &projected)
    }

    fn check_window(&self, graph: &Graph, output_changes: &[u64], rounds: u64) -> Vec<String> {
        self.inner.check_window(graph, output_changes, rounds)
    }

    fn task_name(&self) -> &'static str {
        "synchronized-task"
    }
}

/// The asynchronous self-stabilizing MIS algorithm of Theorem 1.4 + Corollary 1.2:
/// AlgMIS lifted through the synchronizer.
pub type AsyncMis = Synchronized<AlgMis>;

/// The asynchronous self-stabilizing LE algorithm of Theorem 1.3 + Corollary 1.2:
/// AlgLE lifted through the synchronizer.
pub type AsyncLe = Synchronized<AlgLe>;

/// Builds the asynchronous MIS algorithm for diameter bound `D`.
pub fn async_mis(diameter_bound: usize) -> AsyncMis {
    Synchronized::new(alg_mis(diameter_bound.max(1)), diameter_bound.max(1))
}

/// Builds the asynchronous LE algorithm for diameter bound `D`.
pub fn async_le(diameter_bound: usize) -> AsyncLe {
    Synchronized::new(alg_le(diameter_bound.max(1)), diameter_bound.max(1))
}

impl AsyncMis {
    /// The canonical benign starting state (fresh MIS host, AU clock at level 1).
    pub fn fresh_state(&self) -> SyncState<<AlgMis as Algorithm>::State> {
        use sa_protocols::restart::RestartableAlgorithm;
        self.lift(sa_protocols::restart::RestartState::Host(
            self.inner().host().initial_state(),
        ))
    }

    /// The checker for the asynchronous MIS task.
    pub fn checker(&self) -> SynchronizedChecker<MisChecker> {
        SynchronizedChecker::new(MisChecker)
    }

    /// Representative corrupted states: every AU turn × every MIS decision
    /// (an `In` host carries detection id 1). Fault injection and
    /// exhaustive exploration draw from this set, because the full
    /// composite product `|Q|²·|T|` is far too large to sample.
    pub fn corrupted_states(&self) -> Vec<SyncState<<AlgMis as Algorithm>::State>> {
        use sa_protocols::mis::Decision;
        use sa_protocols::restart::{RestartState, RestartableAlgorithm};
        let mut states = Vec::new();
        for turn in self.unison().states() {
            for decision in [Decision::Undecided, Decision::In, Decision::Out] {
                let mut host = self.inner().host().initial_state();
                host.decision = decision;
                host.detect_id = u8::from(decision == Decision::In);
                states.push(SyncState {
                    current: RestartState::Host(host),
                    previous: RestartState::Host(host),
                    turn,
                });
            }
        }
        states
    }
}

impl AsyncLe {
    /// The canonical benign starting state (fresh LE host, AU clock at level 1).
    pub fn fresh_state(&self) -> SyncState<<AlgLe as Algorithm>::State> {
        use sa_protocols::restart::RestartableAlgorithm;
        self.lift(sa_protocols::restart::RestartState::Host(
            self.inner().host().initial_state(),
        ))
    }

    /// The checker for the asynchronous LE task.
    pub fn checker(&self) -> SynchronizedChecker<LeChecker> {
        SynchronizedChecker::new(LeChecker)
    }

    /// Representative corrupted states: every AU turn × either leader
    /// claim, with the host in its verification stage. Fault injection and
    /// exhaustive exploration draw from this set, because the full
    /// composite product `|Q|²·|T|` is far too large to sample.
    pub fn corrupted_states(&self) -> Vec<SyncState<<AlgLe as Algorithm>::State>> {
        use sa_protocols::restart::{RestartState, RestartableAlgorithm};
        let mut states = Vec::new();
        for turn in self.unison().states() {
            for leader in [false, true] {
                let mut host = self.inner().host().initial_state();
                host.leader = leader;
                host.stage = sa_protocols::le::Stage::Verification;
                states.push(SyncState {
                    current: RestartState::Host(host),
                    previous: RestartState::Host(host),
                    turn,
                });
            }
        }
        states
    }
}

/// Draws a random composite configuration: every node gets an independently random
/// inner current/previous pair from `inner_palette` and a random AlgAU turn. This is
/// the adversary's "arbitrary initial configuration" for `Π*` experiments.
///
/// # Panics
///
/// Panics if `inner_palette` is empty.
pub fn random_composite_configuration<S: Clone>(
    inner_palette: &[S],
    unison: &AlgAu,
    node_count: usize,
    seed: u64,
) -> Vec<SyncState<S>> {
    use rand::Rng;
    use rand::SeedableRng;
    assert!(!inner_palette.is_empty(), "inner palette must not be empty");
    let turns = sa_model::algorithm::StateSpace::states(unison);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..node_count)
        .map(|_| SyncState {
            current: inner_palette[rng.gen_range(0..inner_palette.len())].clone(),
            previous: inner_palette[rng.gen_range(0..inner_palette.len())].clone(),
            turn: turns[rng.gen_range(0..turns.len())],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::checker::measure_static_stabilization;
    use sa_model::executor::{Execution, ExecutionBuilder};
    use sa_model::graph::Graph;
    use sa_model::scheduler::{
        AdversarialLaggardScheduler, CentralScheduler, SynchronousScheduler, UniformRandomScheduler,
    };
    use unison_core::Predicates;

    /// A trivial synchronous inner algorithm: a round counter modulo `m`. Every
    /// simulated synchronous round increments it, so it doubles as a probe of the
    /// simulated-round structure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RoundCounter {
        m: u8,
    }
    impl Algorithm for RoundCounter {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, s: &u8, signal: &Signal<u8>, _rng: &mut dyn RngCore) -> u8 {
            // adopt the maximum sensed value, then advance — a synchronous
            // self-stabilizing "agree on the round number" toy
            let max = signal.max_by_key(|x| *x).unwrap_or(*s).max(*s);
            (max + 1) % self.m
        }
        fn name(&self) -> &'static str {
            "round-counter"
        }
    }
    impl StateSpace for RoundCounter {
        fn states(&self) -> Vec<u8> {
            (0..self.m).collect()
        }
    }

    #[test]
    fn state_space_size_is_q_squared_times_turns() {
        let sync = Synchronized::new(RoundCounter { m: 5 }, 2);
        let k = 3 * 2 + 2;
        assert_eq!(sync.state_space_size(), 5 * 5 * (4 * k - 2));
    }

    #[test]
    fn output_requires_an_able_turn() {
        let sync = Synchronized::new(RoundCounter { m: 5 }, 1);
        let able = SyncState {
            current: 3u8,
            previous: 2,
            turn: Turn::Able(1),
        };
        let faulty = SyncState {
            current: 3u8,
            previous: 2,
            turn: Turn::Faulty(2),
        };
        assert_eq!(sync.output(&able), Some(3));
        assert_eq!(sync.output(&faulty), None);
    }

    #[test]
    fn clock_advance_triggers_exactly_one_simulated_step() {
        let sync = Synchronized::new(RoundCounter { m: 10 }, 1);
        let mut rng = rand::thread_rng();
        // lone node: AA applies every activation, so the counter increments each time
        let s0 = sync.lift(0u8);
        let sig = Signal::from_states(vec![s0]);
        let s1 = sync.transition(&s0, &sig, &mut rng);
        assert_eq!(s1.current, 1);
        assert_eq!(s1.previous, 0);
        assert_eq!(s1.turn, Turn::Able(2));
    }

    #[test]
    fn blocked_clock_freezes_the_simulation() {
        let sync = Synchronized::new(RoundCounter { m: 10 }, 1);
        let mut rng = rand::thread_rng();
        // a neighbor one clock value behind blocks the AA transition
        let me = SyncState {
            current: 4u8,
            previous: 3,
            turn: Turn::Able(3),
        };
        let behind = SyncState {
            current: 3u8,
            previous: 2,
            turn: Turn::Able(2),
        };
        let sig = Signal::from_states(vec![me, behind]);
        let next = sync.transition(&me, &sig, &mut rng);
        assert_eq!(next.current, 4, "simulated state must not advance");
        assert_eq!(next.turn, Turn::Able(3));
    }

    #[test]
    fn simulated_signal_mixes_current_and_previous() {
        let sync = Synchronized::new(RoundCounter { m: 100 }, 1);
        let mut rng = rand::thread_rng();
        // me at clock ν with value 5; one neighbor still at ν with value 7 (use its
        // current), one neighbor already advanced to ν′ with previous value 9 (use its
        // previous). The round counter adopts the max = 9 and increments to 10.
        let me = SyncState {
            current: 5u8,
            previous: 4,
            turn: Turn::Able(3),
        };
        let same_round = SyncState {
            current: 7u8,
            previous: 6,
            turn: Turn::Able(3),
        };
        let ahead = SyncState {
            current: 12u8,
            previous: 9,
            turn: Turn::Able(4),
        };
        let sig = Signal::from_states(vec![me, same_round, ahead]);
        let next = sync.transition(&me, &sig, &mut rng);
        assert_eq!(next.current, 10);
        assert_eq!(next.previous, 5);
        assert_eq!(next.turn, Turn::Able(4));
    }

    #[test]
    fn unison_coordinate_satisfies_au_safety_after_stabilization() {
        // Run the composite under an asynchronous scheduler and check that, after the
        // AU coordinate stabilizes, neighboring clock values always remain adjacent.
        let graph = Graph::cycle(6);
        let d = graph.diameter();
        let sync = Synchronized::new(RoundCounter { m: 7 }, d);
        let init =
            random_composite_configuration(&(0..7u8).collect::<Vec<_>>(), sync.unison(), 6, 5);
        let mut exec = Execution::new(&sync, &graph, init, 5);
        let mut sched = UniformRandomScheduler::new(0.6);
        let unison = *sync.unison();
        let oracle = move |g: &Graph, cfg: &[SyncState<u8>]| {
            let turns: Vec<Turn> = cfg.iter().map(|s| s.turn).collect();
            Predicates::new(&unison, g).graph_good(&turns)
        };
        let outcome = exec.run_until_legitimate(&mut sched, &oracle, 50_000);
        assert!(outcome.is_stabilized());
        // verify AU safety over a window
        let safety = unison_core::CyclicSafety::new(sync.unison().clock_size());
        for _ in 0..200 {
            exec.step_with(&mut sched);
            for &(u, v) in graph.edges() {
                let (a, b) = (exec.state(u), exec.state(v));
                if let (Some(ca), Some(cb)) = (sync.clock_of(a), sync.clock_of(b)) {
                    assert!(
                        safety.safe(ca, cb),
                        "clocks {ca} and {cb} on edge ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn async_mis_stabilizes_under_asynchronous_schedulers() {
        let graph = Graph::cycle(6);
        let alg = async_mis(graph.diameter());
        let checker = alg.checker();
        for seed in 0..3u64 {
            let mut exec = ExecutionBuilder::new(&alg, &graph)
                .seed(seed)
                .uniform(alg.fresh_state());
            let mut sched = UniformRandomScheduler::new(0.7);
            let report = measure_static_stabilization(&mut exec, &mut sched, &checker, 6000, 200);
            assert!(
                report.stabilization_round.is_some(),
                "seed {seed}: {report:?}"
            );
        }
    }

    #[test]
    fn async_mis_recovers_from_corrupted_unison_coordinate() {
        // Corrupt the AU turns (but keep the inner states benign): the synchronizer
        // must still converge.
        let graph = Graph::star(6);
        let alg = async_mis(graph.diameter());
        let checker = alg.checker();
        let fresh = alg.fresh_state();
        let inner_palette = vec![fresh.current];
        let init =
            random_composite_configuration(&inner_palette, alg.unison(), graph.node_count(), 11);
        let mut exec = Execution::new(&alg, &graph, init, 11);
        let mut sched = CentralScheduler;
        let report = measure_static_stabilization(&mut exec, &mut sched, &checker, 9000, 200);
        assert!(report.stabilization_round.is_some(), "{report:?}");
    }

    #[test]
    fn async_le_elects_one_leader_under_adversarial_scheduler() {
        let graph = Graph::complete(5);
        let alg = async_le(graph.diameter());
        let checker = alg.checker();
        let mut exec = ExecutionBuilder::new(&alg, &graph)
            .seed(2)
            .uniform(alg.fresh_state());
        let mut sched = AdversarialLaggardScheduler::starving(0, 4);
        let report = measure_static_stabilization(&mut exec, &mut sched, &checker, 8000, 200);
        assert!(report.stabilization_round.is_some(), "{report:?}");
    }

    #[test]
    fn synchronous_schedule_reduces_to_the_inner_algorithm_pace() {
        // Under the synchronous scheduler with a benign start, every activation
        // advances the clock, so after r rounds the counter has advanced r times.
        let graph = Graph::complete(4);
        let sync = Synchronized::new(RoundCounter { m: 251 }, 1);
        let mut exec = ExecutionBuilder::new(&sync, &graph)
            .seed(0)
            .uniform(sync.lift(0u8));
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 20);
        for s in exec.configuration() {
            assert_eq!(s.current, 20);
        }
    }

    /// A randomized inner algorithm with an enumerable space and no masks of
    /// its own, so the composite runs the factored path with the inner
    /// closure on the simulated bits. The coin consumption makes any
    /// RNG-stream divergence between the factored and closure paths loud.
    #[derive(Debug, Clone, Copy)]
    struct NoisyInner;
    impl Algorithm for NoisyInner {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, s: &u8, signal: &Signal<u8>, rng: &mut dyn RngCore) -> u8 {
            use rand::Rng;
            if rng.gen_bool(0.5) {
                signal.max_state().copied().unwrap_or(*s)
            } else {
                rng.gen_range(0..4u8)
            }
        }
        fn dense_state_space(&self) -> Option<Vec<u8>> {
            Some((0..4).collect())
        }
    }

    /// The composite's factored path (turn masks on the turn coordinates +
    /// inner transition on the gathered simulated bits) must replay the
    /// closure path bit for bit — configurations, coins, counters — from
    /// adversarial starts, including through AlgAU detours.
    #[test]
    fn masked_composite_matches_closure_path() {
        let graph = Graph::grid(3, 3);
        for seed in 0..3u64 {
            let sync = Synchronized::new(NoisyInner, 1);
            let init = random_composite_configuration(
                &(0..4u8).collect::<Vec<_>>(),
                sync.unison(),
                graph.node_count(),
                seed,
            );
            let mut masked = ExecutionBuilder::new(&sync, &graph)
                .seed(seed)
                .masked_transitions(true)
                .initial(init.clone());
            let mut closure = ExecutionBuilder::new(&sync, &graph)
                .seed(seed)
                .masked_transitions(false)
                .initial(init);
            assert!(!masked.uses_dense_signals(), "the product is not indexed");
            assert!(masked.uses_factored_transitions());
            assert!(!closure.uses_factored_transitions());
            let mut sched_a = UniformRandomScheduler::new(0.6);
            let mut sched_b = UniformRandomScheduler::new(0.6);
            for step in 0..400 {
                let a = masked.step_with(&mut sched_a);
                let b = closure.step_with(&mut sched_b);
                assert_eq!(a, b, "seed {seed} step {step}: outcome diverged");
                assert_eq!(
                    masked.configuration(),
                    closure.configuration(),
                    "seed {seed} step {step}: configuration diverged"
                );
            }
            assert_eq!(masked.counters(), closure.counters());
            assert!(masked.validate_incremental_sensing());
        }
    }

    /// The deterministic composite (RoundCounter inner) also compiles; the
    /// synchronous lockstep reduction must hold on the factored path, with
    /// the active set on.
    #[test]
    fn masked_composite_keeps_the_lockstep_reduction() {
        #[derive(Debug, Clone, Copy)]
        struct DenseCounter {
            m: u8,
        }
        impl Algorithm for DenseCounter {
            type State = u8;
            type Output = u8;
            fn output(&self, s: &u8) -> Option<u8> {
                Some(*s)
            }
            fn transition(&self, s: &u8, signal: &Signal<u8>, _rng: &mut dyn RngCore) -> u8 {
                let max = signal.max_by_key(|x| *x).unwrap_or(*s).max(*s);
                (max + 1) % self.m
            }
            fn dense_state_space(&self) -> Option<Vec<u8>> {
                Some((0..self.m).collect())
            }
            fn transition_is_deterministic(&self) -> bool {
                true
            }
        }
        let graph = Graph::complete(4);
        let sync = Synchronized::new(DenseCounter { m: 7 }, 1);
        let mut exec = ExecutionBuilder::new(&sync, &graph)
            .seed(0)
            .masked_transitions(true)
            .uniform(sync.lift(0u8));
        assert!(exec.uses_factored_transitions());
        assert!(exec.uses_active_set());
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 20);
        for s in exec.configuration() {
            assert_eq!(s.current, 20 % 7);
        }
        assert!(exec.uses_factored_transitions());
        assert!(exec.validate_incremental_sensing());
    }

    #[test]
    fn random_composite_configuration_is_deterministic_per_seed() {
        let unison = AlgAu::new(1);
        let a = random_composite_configuration(&[1u8, 2, 3], &unison, 5, 9);
        let b = random_composite_configuration(&[1u8, 2, 3], &unison, 5, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}

//! Module `Restart` (Section 3.3, Theorem 3.1).
//!
//! `Restart` is the synchronous reset primitive shared by AlgMIS and AlgLE. It
//! consists of the `2D + 1` states `σ(0), …, σ(2D)`, where `σ(0)` is the entry state
//! and `σ(2D)` the exit state. Its guarantee (Theorem 3.1): if some node is in a
//! Restart state at time `t₀`, then there is a time `t ≤ t₀ + O(D)` at which **all**
//! nodes exit Restart **concurrently**, each moving to the host algorithm's initial
//! state `q₀*` — giving the host a coordinated fresh start.
//!
//! The three rules, for a node `v` with sensed state set `S_t(v)`:
//!
//! 1. if `S_t(v)` contains a Restart state but also a non-Restart state, then
//!    `v → σ(0)`;
//! 2. if `S_t(v)` consists of Restart states only and `S_t(v) ≠ {σ(2D)}`, then
//!    `v → σ(i_min + 1)` where `i_min` is the smallest sensed index;
//! 3. if `S_t(v) = {σ(2D)}`, then `v → q₀*`.
//!
//! This module implements Restart as a *generic wrapper* [`WithRestart`] around any
//! [`RestartableAlgorithm`] host: the composite state is either a Restart state or a
//! host state, and the host can request a restart from its own transition (this is
//! how the detection modules of AlgMIS / AlgLE "invoke Restart").

use rand::RngCore;
use sa_model::algorithm::{Algorithm, MaskedOutcome, MaskedTransition, StateSpace};
use sa_model::signal::{Signal, StateIndex, WordPool};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// The outcome of one host step: continue with a new host state, or invoke `Restart`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOutcome<S> {
    /// Continue the host algorithm in the given state.
    Continue(S),
    /// A fault was detected: enter `Restart` at `σ(0)`.
    Restart,
}

/// A synchronous algorithm that can be wrapped by module `Restart`.
///
/// The host only ever sees host states: while any node of the neighborhood is inside
/// Restart, the wrapper handles the transition and the host's `step` is not called.
pub trait RestartableAlgorithm: Sync {
    /// Host state set (bounds mirror [`Algorithm::State`], including the
    /// thread-safety the sharded step engine requires).
    type State: Clone + Eq + Ord + Hash + Debug + Send + Sync;
    /// Output values of the task the host solves.
    type Output: Clone + Eq + Debug;

    /// The designated initial state `q₀*` that every node adopts when Restart exits.
    fn initial_state(&self) -> Self::State;

    /// The output map of the host.
    fn output(&self, state: &Self::State) -> Option<Self::Output>;

    /// One synchronous step of the host. Returning [`HostOutcome::Restart`] sends the
    /// node to `σ(0)` (detection of an illegal configuration).
    fn step(
        &self,
        state: &Self::State,
        signal: &Signal<Self::State>,
        rng: &mut dyn RngCore,
    ) -> HostOutcome<Self::State>;

    /// Host states to enumerate for state-space accounting (used by experiments; hosts
    /// with a large product state space may enumerate lazily or return a
    /// representative subset — see each host's documentation).
    fn states(&self) -> Vec<Self::State>;

    /// Whether [`RestartableAlgorithm::step`] is a pure function of
    /// `(state, signal)` that never reads the RNG (see
    /// [`Algorithm::transition_is_deterministic`]). Hosts that toss coins —
    /// like the AlgLE / AlgMIS hosts — keep the default `false`.
    fn step_is_deterministic(&self) -> bool {
        false
    }

    /// Host algorithm name.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// A composite state: inside module Restart, or running the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestartState<S> {
    /// Inside Restart, at `σ(index)`.
    Restart(u32),
    /// Running the host algorithm.
    Host(S),
}

impl<S> RestartState<S> {
    /// Whether the node is currently inside module Restart.
    pub fn is_restarting(&self) -> bool {
        matches!(self, RestartState::Restart(_))
    }

    /// The host state, if the node is running the host.
    pub fn host(&self) -> Option<&S> {
        match self {
            RestartState::Host(s) => Some(s),
            RestartState::Restart(_) => None,
        }
    }
}

/// The Restart wrapper: module Restart composed with a host algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WithRestart<H> {
    host: H,
    diameter_bound: usize,
}

impl<H: RestartableAlgorithm> WithRestart<H> {
    /// Wraps `host` with a Restart module sized for diameter bound `D` (states
    /// `σ(0) … σ(2D)`).
    pub fn new(host: H, diameter_bound: usize) -> Self {
        WithRestart {
            host,
            diameter_bound,
        }
    }

    /// The wrapped host.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// The diameter bound `D`.
    pub fn diameter_bound(&self) -> usize {
        self.diameter_bound
    }

    /// The exit index `2D`.
    pub fn exit_index(&self) -> u32 {
        2 * self.diameter_bound as u32
    }

    /// The number of Restart states, `2D + 1`.
    pub fn restart_state_count(&self) -> usize {
        2 * self.diameter_bound + 1
    }
}

impl<H: RestartableAlgorithm> Algorithm for WithRestart<H> {
    type State = RestartState<H::State>;
    type Output = H::Output;

    fn output(&self, state: &Self::State) -> Option<H::Output> {
        match state {
            RestartState::Restart(_) => None,
            RestartState::Host(s) => self.host.output(s),
        }
    }

    fn transition(
        &self,
        state: &Self::State,
        signal: &Signal<Self::State>,
        rng: &mut dyn RngCore,
    ) -> Self::State {
        let exit = self.exit_index();
        let senses_restart = signal.senses_any(|s| s.is_restarting());
        let senses_host = signal.senses_any(|s| !s.is_restarting());

        if senses_restart {
            if senses_host {
                // Rule 1: mixed neighborhood -> (re)enter at σ(0).
                return RestartState::Restart(0);
            }
            // Only Restart states are sensed.
            let min_index = signal
                .min_by_key(|s| match s {
                    RestartState::Restart(i) => *i,
                    RestartState::Host(_) => u32::MAX,
                })
                .expect("signal contains at least the node's own state");
            if min_index == exit {
                // Rule 3: everyone is at σ(2D) -> exit concurrently to q₀*.
                return RestartState::Host(self.host.initial_state());
            }
            // Rule 2: advance to σ(i_min + 1).
            return RestartState::Restart((min_index + 1).min(exit));
        }

        // No Restart state anywhere in the neighborhood: run the host.
        let own = match state {
            RestartState::Host(s) => s,
            RestartState::Restart(_) => unreachable!("own state is in the signal"),
        };
        let host_signal: Signal<H::State> = signal.filter_map(|s| s.host().cloned());
        match self.host.step(own, &host_signal, rng) {
            HostOutcome::Continue(next) => RestartState::Host(next),
            HostOutcome::Restart => RestartState::Restart(0),
        }
    }

    fn dense_state_space(&self) -> Option<Vec<Self::State>> {
        // Restart adds 2D + 1 states to the host's enumeration; both are O(D),
        // so the composite stays comfortably dense-indexable.
        Some(self.states())
    }

    fn compile_masked<'s>(
        &'s self,
        index: &Arc<StateIndex<Self::State>>,
    ) -> Option<Box<dyn MaskedTransition<Self::State> + 's>> {
        RestartMasks::build(self, index)
            .map(|masks| Box::new(masks) as Box<dyn MaskedTransition<Self::State> + 's>)
    }

    fn transition_is_deterministic(&self) -> bool {
        // The Restart rules themselves are deterministic; the composite is
        // deterministic exactly when the host's step is.
        self.host.step_is_deterministic()
    }

    fn name(&self) -> &'static str {
        self.host.name()
    }
}

/// Module Restart's rules on an indexed signal, with the host running on
/// a listed host signal in place of the closure path's `filter_map` into a
/// `BTreeSet`.
///
/// `Restart(_)` orders before `Host(_)`, so an index over
/// [`WithRestart::states`] holds `σ(0), …, σ(2D)` at positions `0..=2D` and
/// the host states, in order, after them. On the sorted positions of the
/// sensed states, rules 1–3 read the first and the last position, and the
/// host signal is the positions shifted down by `2D + 1` into a pooled
/// buffer — a few entries, however large the host's space. The host step
/// itself runs unchanged on the same sensed set, so it draws the same
/// coins.
struct RestartMasks<'a, H: RestartableAlgorithm> {
    host: &'a H,
    /// `2D + 1`: the number of Restart states, and the host states' offset.
    restarts: u64,
    /// The host states, positioned `2D + 1` below their composite index.
    host_index: Arc<StateIndex<H::State>>,
    /// Index position of the exit target `Host(q₀*)`.
    initial: u32,
}

impl<'a, H: RestartableAlgorithm> RestartMasks<'a, H> {
    /// Compiles against `index`, or `None` if the index is not laid out as
    /// described above (defensive — never guess).
    fn build(
        alg: &'a WithRestart<H>,
        index: &Arc<StateIndex<RestartState<H::State>>>,
    ) -> Option<Self> {
        let restarts = alg.restart_state_count();
        let states = index.states();
        if states.len() < restarts
            || (0..restarts).any(|i| states[i] != RestartState::Restart(i as u32))
        {
            return None;
        }
        let host_states: Vec<H::State> = states[restarts..]
            .iter()
            .map(|s| s.host().cloned())
            .collect::<Option<_>>()?;
        Some(RestartMasks {
            host: &alg.host,
            restarts: restarts as u64,
            host_index: Arc::new(StateIndex::new(host_states)),
            initial: index.position(&RestartState::Host(alg.host.initial_state()))? as u32,
        })
    }
}

impl<H: RestartableAlgorithm> MaskedTransition<RestartState<H::State>> for RestartMasks<'_, H> {
    fn next_index(
        &self,
        state_idx: u32,
        signal_words: &[u64],
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<RestartState<H::State>> {
        // A neighbourhood senses a handful of states: list their positions
        // once instead of scanning the words for every rule and host query.
        let mut positions = scratch.take(0);
        for (w, &word) in signal_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                positions.push((w * 64) as u64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        let outcome =
            self.next_index_listed(state_idx, &positions, signal_words.len(), scratch, rng);
        scratch.give(positions);
        outcome
    }

    fn next_index_listed(
        &self,
        state_idx: u32,
        positions: &[u64],
        _words: usize,
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<RestartState<H::State>> {
        let restarts = self.restarts;
        let (&min, &max) = positions
            .first()
            .zip(positions.last())
            .expect("a signal senses at least the node's own state");
        if min < restarts {
            if max >= restarts {
                // Rule 1: mixed neighborhood -> (re)enter at σ(0).
                return MaskedOutcome::Indexed(0);
            }
            return MaskedOutcome::Indexed(if min + 1 == restarts {
                // Rule 3: everyone is at σ(2D) -> exit concurrently to q₀*.
                self.initial
            } else {
                // Rule 2: advance to σ(i_min + 1).
                min as u32 + 1
            });
        }
        // No Restart state anywhere in the neighborhood: run the host.
        let mut host_positions = scratch.take(0);
        host_positions.extend(positions.iter().map(|&i| i - restarts));
        let signal = Signal::listed(self.host_index.clone(), host_positions);
        let own = self
            .host_index
            .state((u64::from(state_idx) - restarts) as usize);
        let outcome = self.host.step(own, &signal, rng);
        scratch.give(signal.into_positions().expect("the signal is listed"));
        match outcome {
            HostOutcome::Continue(next) => match self.host_index.position(&next) {
                Some(i) => MaskedOutcome::Indexed((restarts + i as u64) as u32),
                None => MaskedOutcome::Escaped(RestartState::Host(next)),
            },
            HostOutcome::Restart => MaskedOutcome::Indexed(0),
        }
    }
}

impl<H: RestartableAlgorithm> StateSpace for WithRestart<H> {
    fn states(&self) -> Vec<Self::State> {
        let mut states: Vec<Self::State> =
            (0..=self.exit_index()).map(RestartState::Restart).collect();
        states.extend(self.host.states().into_iter().map(RestartState::Host));
        states
    }
}

/// A trivial host used to exercise module Restart in isolation (experiment E4 and the
/// Theorem 3.1 tests): a clock modulo `period` that advances in lockstep and never
/// detects faults on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrivialHost {
    period: u32,
}

impl TrivialHost {
    /// Creates the trivial host with the given clock period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        TrivialHost { period }
    }
}

impl RestartableAlgorithm for TrivialHost {
    type State = u32;
    type Output = u32;

    fn initial_state(&self) -> u32 {
        0
    }

    fn output(&self, state: &u32) -> Option<u32> {
        Some(*state)
    }

    fn step(&self, state: &u32, _signal: &Signal<u32>, _rng: &mut dyn RngCore) -> HostOutcome<u32> {
        HostOutcome::Continue((state + 1) % self.period)
    }

    fn states(&self) -> Vec<u32> {
        (0..self.period).collect()
    }

    fn step_is_deterministic(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "trivial-host"
    }
}

/// Runs a synchronous execution from an arbitrary configuration and returns the round
/// at which all nodes exited Restart concurrently (i.e. the first round at which no
/// node is in a Restart state while some node was in one before), or `None` if that
/// never happens within `max_rounds`. Also verifies the exit was *concurrent*: on the
/// exit step, every node that was in Restart leaves it, and every node ends up in the
/// host initial state.
///
/// This is the measurement harness for Theorem 3.1 (experiment E4).
pub fn measure_restart_exit<H: RestartableAlgorithm + Clone>(
    wrapper: &WithRestart<H>,
    graph: &sa_model::graph::Graph,
    initial: Vec<RestartState<H::State>>,
    seed: u64,
    max_rounds: u64,
) -> Option<RestartExitReport> {
    use sa_model::executor::Execution;
    use sa_model::scheduler::SynchronousScheduler;

    let mut exec = Execution::new(wrapper, graph, initial, seed);
    let mut sched = SynchronousScheduler;
    let initially_restarting = exec.configuration().iter().any(RestartState::is_restarting);
    if !initially_restarting {
        return Some(RestartExitReport {
            exit_round: 0,
            concurrent: true,
            uniform_exit: true,
        });
    }
    for round in 1..=max_rounds {
        let before: Vec<bool> = exec
            .configuration()
            .iter()
            .map(RestartState::is_restarting)
            .collect();
        exec.step_with(&mut sched);
        let after: Vec<bool> = exec
            .configuration()
            .iter()
            .map(RestartState::is_restarting)
            .collect();
        if after.iter().all(|r| !r) {
            // everyone is out; check the exit was concurrent and uniform
            let concurrent = before.iter().all(|r| *r);
            let uniform_exit = exec
                .configuration()
                .iter()
                .all(|s| s.host() == Some(&wrapper.host().initial_state()));
            return Some(RestartExitReport {
                exit_round: round,
                concurrent,
                uniform_exit,
            });
        }
    }
    None
}

/// Result of [`measure_restart_exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartExitReport {
    /// The synchronous round at which the last Restart state disappeared.
    pub exit_round: u64,
    /// Whether every node was still inside Restart on the round before the exit
    /// (i.e. the exit was concurrent, as Theorem 3.1 promises).
    pub concurrent: bool,
    /// Whether every node ended in the host's initial state `q₀*`.
    pub uniform_exit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use sa_model::executor::Execution;
    use sa_model::graph::Graph;
    use sa_model::scheduler::SynchronousScheduler;

    type TState = RestartState<u32>;

    fn wrapper(d: usize) -> WithRestart<TrivialHost> {
        WithRestart::new(TrivialHost::new(7), d)
    }

    #[test]
    fn state_space_is_host_plus_2d_plus_1() {
        let w = wrapper(3);
        assert_eq!(w.restart_state_count(), 7);
        assert_eq!(w.state_count(), 7 + 7);
        assert_eq!(w.exit_index(), 6);
    }

    #[test]
    fn rule1_mixed_neighborhood_enters_at_zero() {
        let w = wrapper(2);
        let mut rng = rand::thread_rng();
        // a host node sensing a restart neighbor
        let sig = Signal::from_states(vec![TState::Host(3), TState::Restart(2)]);
        assert_eq!(
            w.transition(&TState::Host(3), &sig, &mut rng),
            TState::Restart(0)
        );
        // a restart node sensing a host neighbor also goes back to σ(0)
        assert_eq!(
            w.transition(&TState::Restart(2), &sig, &mut rng),
            TState::Restart(0)
        );
    }

    #[test]
    fn rule2_advances_to_min_plus_one() {
        let w = wrapper(2); // exit index 4
        let mut rng = rand::thread_rng();
        let sig = Signal::from_states(vec![TState::Restart(3), TState::Restart(1)]);
        assert_eq!(
            w.transition(&TState::Restart(3), &sig, &mut rng),
            TState::Restart(2)
        );
        let sig = Signal::from_states(vec![TState::Restart(4), TState::Restart(2)]);
        assert_eq!(
            w.transition(&TState::Restart(4), &sig, &mut rng),
            TState::Restart(3)
        );
    }

    #[test]
    fn rule3_exits_to_host_initial_state() {
        let w = wrapper(2);
        let mut rng = rand::thread_rng();
        let sig = Signal::from_states(vec![TState::Restart(4)]);
        assert_eq!(
            w.transition(&TState::Restart(4), &sig, &mut rng),
            TState::Host(0)
        );
    }

    #[test]
    fn host_runs_when_no_restart_sensed() {
        let w = wrapper(2);
        let mut rng = rand::thread_rng();
        let sig = Signal::from_states(vec![TState::Host(3), TState::Host(5)]);
        assert_eq!(
            w.transition(&TState::Host(3), &sig, &mut rng),
            TState::Host(4)
        );
    }

    /// Module Restart's masks — on mask words and on listed positions —
    /// return the closure transition's next state and leave the coin stream
    /// where the closure leaves it, over random neighbourhoods of AlgLE and
    /// AlgMIS states: Restart states only, host states only, and mixed.
    #[test]
    fn masked_restart_matches_the_closure_transition() {
        use rand::rngs::CounterRng;
        use rand::RngCore;
        fn check<H: RestartableAlgorithm>(alg: &WithRestart<H>, seed: u64) {
            let index = Arc::new(StateIndex::new(alg.states()));
            let masks = alg
                .compile_masked(&index)
                .expect("Restart compiles its masks");
            let states = index.states();
            let restarts = alg.restart_state_count();
            let mut pick = rand::rngs::StdRng::seed_from_u64(seed);
            let mut pool = WordPool::default();
            for case in 0..3000u64 {
                let range = match case % 3 {
                    0 => 0..restarts,
                    1 => restarts..states.len(),
                    _ => 0..states.len(),
                };
                let own = pick.gen_range(range.clone());
                let mut sensed = vec![own];
                for _ in 0..pick.gen_range(0..5) {
                    sensed.push(pick.gen_range(range.clone()));
                }
                sensed.sort_unstable();
                sensed.dedup();
                let signal = Signal::from_states(sensed.iter().map(|&i| states[i].clone()));
                let mut words = vec![0u64; index.words()];
                for &i in &sensed {
                    words[i / 64] |= 1 << (i % 64);
                }
                let positions: Vec<u64> = sensed.iter().map(|&i| i as u64).collect();
                let mut closure_rng = CounterRng::keyed(seed, case, 0);
                let expected = alg.transition(&states[own], &signal, &mut closure_rng);
                let next_coin = closure_rng.next_u64();
                for listed in [false, true] {
                    let mut rng = CounterRng::keyed(seed, case, 0);
                    let outcome = if listed {
                        masks.next_index_listed(
                            own as u32,
                            &positions,
                            words.len(),
                            &mut pool,
                            &mut rng,
                        )
                    } else {
                        masks.next_index(own as u32, &words, &mut pool, &mut rng)
                    };
                    let next = match outcome {
                        MaskedOutcome::Indexed(i) => states[i as usize].clone(),
                        MaskedOutcome::Escaped(state) => state,
                    };
                    assert_eq!(next, expected, "case {case} (listed: {listed})");
                    assert_eq!(
                        rng.next_u64(),
                        next_coin,
                        "case {case}: coin stream drifted"
                    );
                }
            }
        }
        check(&crate::alg_le(3), 1);
        check(&crate::alg_mis(3), 2);
        check(&wrapper(2), 3);
    }

    #[test]
    fn output_is_none_inside_restart() {
        let w = wrapper(1);
        assert_eq!(w.output(&TState::Restart(1)), None);
        assert_eq!(w.output(&TState::Host(5)), Some(5));
    }

    #[test]
    fn theorem_3_1_exit_is_concurrent_and_within_3d() {
        // From many arbitrary initial configurations containing at least one Restart
        // state, all nodes exit concurrently within 3D + 1 synchronous rounds.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for d in 1..=5usize {
            let w = wrapper(d);
            let exit = w.exit_index();
            for (gi, graph) in [
                Graph::complete(4),
                Graph::path(d + 1),
                Graph::cycle((2 * d).max(3)),
                Graph::star(6),
            ]
            .iter()
            .enumerate()
            {
                // skip graphs whose diameter exceeds the bound
                if graph.diameter() > d {
                    continue;
                }
                for trial in 0..10u64 {
                    let init: Vec<TState> = (0..graph.node_count())
                        .map(|_| {
                            if rng.gen_bool(0.6) {
                                TState::Restart(rng.gen_range(0..=exit))
                            } else {
                                TState::Host(rng.gen_range(0..7))
                            }
                        })
                        .collect();
                    // ensure at least one Restart state is present
                    let mut init = init;
                    init[0] = TState::Restart(rng.gen_range(0..=exit));
                    let report = measure_restart_exit(&w, graph, init, trial, 100)
                        .expect("restart must terminate");
                    assert!(report.concurrent, "d={d} graph {gi} trial {trial}");
                    assert!(report.uniform_exit, "d={d} graph {gi} trial {trial}");
                    assert!(
                        report.exit_round <= (3 * d + 1) as u64 + 1,
                        "d={d} graph {gi} trial {trial}: exit took {} rounds",
                        report.exit_round
                    );
                }
            }
        }
    }

    #[test]
    fn restart_free_execution_advances_host_in_lockstep() {
        let w = wrapper(2);
        let g = Graph::complete(3);
        let init = vec![TState::Host(0); 3];
        let mut exec = Execution::new(&w, &g, init, 1);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 5);
        assert!(exec.configuration().iter().all(|s| *s == TState::Host(5)));
    }

    #[test]
    fn single_restart_node_drags_in_the_whole_graph() {
        let w = wrapper(2);
        let g = Graph::path(4);
        let mut init = vec![TState::Host(2); 4];
        init[0] = TState::Restart(0);
        let report = measure_restart_exit(&w, &g, init, 0, 100).expect("terminates");
        assert!(report.concurrent);
        assert!(report.uniform_exit);
    }

    #[test]
    fn no_restart_in_initial_configuration_reports_round_zero() {
        let w = wrapper(1);
        let g = Graph::path(3);
        let init = vec![TState::Host(1); 3];
        let report = measure_restart_exit(&w, &g, init, 0, 10).expect("trivially done");
        assert_eq!(report.exit_round, 0);
    }
}

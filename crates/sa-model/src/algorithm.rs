//! The algorithm abstraction: randomized finite state machines driven by signals.
//!
//! A distributed task `T` over output values `O` is solved by an algorithm
//! `Π = ⟨Q, Q_O, ω, δ⟩` where `Q` is the state set, `Q_O ⊆ Q` the output states,
//! `ω : Q_O → O` the output map and `δ : Q × {0,1}^Q → 2^Q` the (randomized) state
//! transition function. The next state of an activated node is drawn uniformly from
//! `δ(q, S_v)`; deterministic algorithms simply return singletons.
//!
//! In this crate the transition function is expressed as a method that receives the
//! current state, the node's [`Signal`] and a random number generator, and returns
//! the next state. The RNG stands in for the uniform choice from `δ(q, S_v)`; a
//! deterministic algorithm ignores it.

use crate::graph::{Graph, NodeId};
use crate::signal::{mask_ops, Signal, StateIndex, WordPool};
use rand::RngCore;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// The result of a mask-compiled transition (see [`MaskedTransition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskedOutcome<S> {
    /// The next state, as its position in the [`StateIndex`] the transition
    /// was compiled against.
    Indexed(u32),
    /// The transition left the indexed state space; the executor falls back
    /// to the sparse signal representation, exactly as on the closure path.
    Escaped(S),
}

/// A transition function compiled to word-level mask operations against a
/// [`StateIndex`] — the engine-facing product of
/// [`Algorithm::compile_masked`].
///
/// The contract is **bit-for-bit equivalence with the closure path**: for
/// every `(state, signal, rng)` the outcome must equal what
/// [`Algorithm::transition`] would return on a [`Signal`] sensing exactly the
/// states whose bits are set in `signal_words`, consuming the RNG stream
/// identically (deterministic algorithms consume nothing on either path).
/// The equivalence property tests in `tests/engine_equivalence.rs` pin
/// this.
///
/// Implementations are shared immutably by every evaluation lane of the
/// sharded engine, hence the `Sync` bound.
pub trait MaskedTransition<S>: Sync {
    /// Computes the transition of a node whose state has index `state_idx`
    /// and whose signal is the dense bitmask `signal_words` (over the
    /// compiled index). `scratch` is the evaluation lane's buffer pool, for
    /// transitions that build a derived signal (module Restart's host
    /// signal); `rng` is the node's private counter-based coin stream for
    /// this step.
    fn next_index(
        &self,
        state_idx: u32,
        signal_words: &[u64],
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<S>;

    /// [`MaskedTransition::next_index`] on a signal given as the sorted,
    /// deduplicated positions of its sensed states in the compiled index
    /// (`words` mask words wide) — for callers that gather a few states
    /// out of a large index, where scanning mask words would dominate.
    /// The default sets the bits and defers to `next_index`.
    fn next_index_listed(
        &self,
        state_idx: u32,
        positions: &[u64],
        words: usize,
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<S> {
        let mut mask = scratch.take(words);
        for &i in positions {
            mask_ops::set(&mut mask, i as usize);
        }
        let outcome = self.next_index(state_idx, &mask, scratch, rng);
        scratch.give(mask);
        outcome
    }
}

/// A state's coordinates in a factored state space: up to three small
/// palette indices (see [`FactoredTransition`]).
pub type Coords = [u32; 3];

/// The result of a factored transition (see [`FactoredTransition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactoredOutcome<S> {
    /// The next state, by its coordinates.
    Coords(Coords),
    /// The next state lies outside the palettes; the executor falls back
    /// to the closure path, as the dense path degrades to sparse.
    Escaped(S),
}

/// A transition compiled over a *factored* state space — the engine-facing
/// product of [`Algorithm::compile_factored`].
///
/// Some state spaces are a product of a few small palettes whose product
/// is far too large to index: the synchronizer's `(q, q′, ν)` triples have
/// at most a few thousand values per coordinate and millions of triples.
/// The executor keeps every node's coordinates beside the configuration
/// and hands this transition the whole coordinate table, so an activation
/// reads its closed neighbourhood's coordinates directly instead of
/// rebuilding a signal of composite states.
///
/// The contract is the one of [`MaskedTransition`]: bit-for-bit
/// equivalence with [`Algorithm::transition`] on the signal the closed
/// neighbourhood senses, consuming the RNG stream identically. `coords` and
/// `state` must be inverse bijections between the states inside the
/// palettes and their coordinates, so equal coordinates mean equal states.
pub trait FactoredTransition<S>: Sync {
    /// The coordinates of `state`, or `None` if it lies outside the
    /// palettes.
    fn coords(&self, state: &S) -> Option<Coords>;

    /// The state with coordinates `coords`.
    fn state(&self, coords: Coords) -> S;

    /// Computes the transition of node `v`, whose closed neighbourhood in
    /// `graph` has the coordinates `coords[v]` and `coords[u]` for every
    /// neighbour `u`. `scratch` and `rng` are as for
    /// [`MaskedTransition::next_index`].
    fn next_coords(
        &self,
        graph: &Graph,
        v: NodeId,
        coords: &[Coords],
        scratch: &mut WordPool,
        rng: &mut dyn RngCore,
    ) -> FactoredOutcome<S>;
}

/// A stone-age algorithm: an anonymous randomized finite state machine.
///
/// Implementations must be **anonymous and size-uniform**: the transition may depend
/// only on the node's own state and its signal, never on node identity, the number of
/// nodes or neighbor multiplicities (the [`Signal`] type makes the latter impossible
/// to observe).
///
/// Algorithms must be [`Sync`] and their states [`Send`] + [`Sync`]: the
/// sharded step engine evaluates the transitions of one step concurrently on
/// a worker pool, reading the algorithm and the step's start configuration
/// from several threads. In practice every SA algorithm is an immutable
/// transition table plus a few parameters, so these bounds cost nothing.
pub trait Algorithm: Sync {
    /// The state set `Q`. States are compared, hashed and ordered so that signals and
    /// configuration snapshots can be built efficiently, and shareable across the
    /// sharded engine's workers.
    type State: Clone + Eq + Ord + Hash + Debug + Send + Sync;

    /// The output value set `O` of the task the algorithm solves.
    type Output: Clone + Eq + Debug;

    /// The output map `ω`: returns `Some(o)` when the state is an output state and
    /// `None` otherwise.
    fn output(&self, state: &Self::State) -> Option<Self::Output>;

    /// The transition function `δ` applied at an activation.
    ///
    /// `signal` always contains the node's own state (the neighborhood is inclusive).
    /// Deterministic algorithms ignore `rng`.
    ///
    /// The executor hands each activation a **counter-based random stream
    /// keyed by `(execution seed, node, step)`**
    /// ([`rand::rngs::CounterRng`]): the coins a node tosses at step `t`
    /// depend only on that triple, never on how many coins other nodes
    /// tossed before it. Seeded trajectories are therefore independent of
    /// the order in which an activation set is evaluated — scripted
    /// schedules may list nodes in any order, and the serial and sharded
    /// engines produce bit-for-bit identical executions.
    fn transition(
        &self,
        state: &Self::State,
        signal: &Signal<Self::State>,
        rng: &mut dyn RngCore,
    ) -> Self::State;

    /// Enumerates the state space `Q` for dense-signal indexing, or `None` when
    /// the space is unbounded (or too large to be worth enumerating).
    ///
    /// The SA model assumes *bounded-memory* nodes, so every algorithm of the
    /// paper has a finite `Q`; returning it here lets the executor precompute a
    /// [`StateIndex`] and run the step loop on dense
    /// bitmask signals with incrementally maintained neighborhood masks —
    /// allocation-free and `O(changed · deg)` per step instead of rebuilding
    /// every activated node's signal from scratch. Algorithms that also
    /// implement [`StateSpace`] typically forward this to
    /// [`StateSpace::states`].
    ///
    /// The default (`None`) keeps the sparse `BTreeSet` signal path, which is
    /// always correct. The executor falls back to sparse automatically if a
    /// state outside the returned enumeration ever appears (e.g. through fault
    /// injection with an exotic palette), so this hint can never change
    /// observable behaviour — only performance.
    fn dense_state_space(&self) -> Option<Vec<Self::State>> {
        None
    }

    /// Compiles this algorithm's sensing predicates into word-level masks
    /// against `index`, or `None` to keep the closure path (the default).
    ///
    /// When an algorithm's transition function only asks *set predicates* of
    /// its signal — subset tests ("are all sensed states adjacent to
    /// mine?"), intersection tests ("do I sense a faulty turn?"),
    /// minima/maxima — those predicates can be pre-compiled into
    /// [`SignalMask`](crate::signal::SignalMask)s over the execution's
    /// [`StateIndex`] and evaluated as whole-word AND/OR/popcount loops on
    /// the incrementally maintained neighborhood bitmasks, with no scratch
    /// signal copy and no per-state branching. The evaluate stage dispatches
    /// to the returned [`MaskedTransition`] whenever the dense signal path
    /// is live, falling back to [`Algorithm::transition`] otherwise; the two
    /// paths must agree bit for bit (see [`MaskedTransition`]).
    ///
    /// `index` is always the index built from
    /// [`Algorithm::dense_state_space`], sorted and deduplicated.
    /// Implementations should return `None` if the index does not look like
    /// their own state space (defensive — never guess).
    ///
    /// [`ExecutionBuilder::masked_transitions(false)`](crate::executor::ExecutionBuilder::masked_transitions)
    /// disables the mask path per execution, which the differential tests
    /// use to keep the closure fallback tested.
    fn compile_masked<'s>(
        &'s self,
        _index: &Arc<StateIndex<Self::State>>,
    ) -> Option<Box<dyn MaskedTransition<Self::State> + 's>> {
        None
    }

    /// Compiles this algorithm's transition over a factored state space
    /// (see [`FactoredTransition`]), or `None` to keep the closure path
    /// (the default).
    ///
    /// The executor asks for it only when
    /// [`Algorithm::dense_state_space`] is `None`: a space small enough to
    /// index densely runs on the dense tiers instead. While every node's
    /// state has coordinates, the evaluate stage dispatches to the
    /// returned transition; a state outside the palettes drops the
    /// execution back to the closure path for the rest of the run (or
    /// until a snapshot restore). Disabled per execution, like the masks,
    /// by
    /// [`ExecutionBuilder::masked_transitions(false)`](crate::executor::ExecutionBuilder::masked_transitions).
    fn compile_factored(&self) -> Option<Box<dyn FactoredTransition<Self::State> + '_>> {
        None
    }

    /// Whether [`Algorithm::transition`] is a pure function of `(state, signal)`
    /// that never reads the RNG.
    ///
    /// Deterministic algorithms (`|δ(q, S)| = 1` everywhere, like AlgAU) may
    /// return `true`; the executor then memoizes transitions per
    /// `(state, signal)` pair on the dense-signal path, which collapses the
    /// per-step work of synchronized regions (where many nodes share the same
    /// state and signal) to a single transition evaluation. Returning `true`
    /// for an algorithm that *does* consult the RNG changes its behaviour —
    /// the default is therefore `false`.
    fn transition_is_deterministic(&self) -> bool {
        false
    }

    /// Human-readable algorithm name, used in traces and experiment reports.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// Algorithms with an enumerable state space.
///
/// The paper's headline claim about AlgAU is that `|Q| = O(D)`; implementing this
/// trait lets the experiment harness *count* states (experiment E2) and lets tests
/// exhaustively check transition tables (experiment E1).
pub trait StateSpace: Algorithm {
    /// Enumerates every state in `Q`, without duplicates.
    fn states(&self) -> Vec<Self::State>;

    /// The size of the state space `|Q|`.
    fn state_count(&self) -> usize {
        self.states().len()
    }

    /// Enumerates the output states `Q_O`.
    fn output_states(&self) -> Vec<Self::State> {
        self.states()
            .into_iter()
            .filter(|s| self.output(s).is_some())
            .collect()
    }
}

/// A white-box predicate identifying *legitimate* configurations.
///
/// Self-stabilization proofs argue that (1) from any configuration the system reaches
/// a legitimate configuration (convergence) and (2) legitimate configurations are
/// preserved and satisfy the task (closure). Implementations expose the legitimacy
/// predicate used in the paper's analysis — e.g. "the graph is *good*" for AlgAU
/// (Lemma 2.10/2.18) — so the executor can *measure* stabilization time instead of
/// guessing it from outputs.
pub trait LegitimacyOracle<A: Algorithm> {
    /// Returns `true` if the configuration is legitimate on `graph`.
    fn is_legitimate(&self, graph: &crate::graph::Graph, config: &[A::State]) -> bool;

    /// The per-node decomposition of this predicate, when it has one (see
    /// [`crate::oracle::LocalPredicate`]). Oracles that return `Some` get
    /// incrementally tracked round checks in
    /// [`run_until_legitimate`](crate::executor::Execution::run_until_legitimate)
    /// — O(changed·deg) per step instead of O(n·deg) per round. The
    /// decomposition must be *exactly* equivalent to [`is_legitimate`]:
    /// `is_legitimate(g, c) ⟺ ∀v. node_ok(v) ∧ weight clause` (pinned by
    /// `tests/oracle_equivalence.rs`).
    /// Closure oracles and other non-decomposing predicates keep the
    /// default `None` and run the full scan every round.
    ///
    /// [`is_legitimate`]: LegitimacyOracle::is_legitimate
    fn as_local(&self) -> Option<&dyn crate::oracle::LocalPredicate<A::State>> {
        None
    }
}

impl<A: Algorithm, F> LegitimacyOracle<A> for F
where
    F: Fn(&crate::graph::Graph, &[A::State]) -> bool,
{
    fn is_legitimate(&self, graph: &crate::graph::Graph, config: &[A::State]) -> bool {
        self(graph, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// A deterministic 3-state cyclic counter that advances when it senses its own
    /// successor is absent. Used only to exercise the trait plumbing.
    struct Mod3;
    impl Algorithm for Mod3 {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            (*s < 3).then_some(*s)
        }
        fn transition(&self, s: &u8, signal: &Signal<u8>, _rng: &mut dyn RngCore) -> u8 {
            let next = (s + 1) % 3;
            if signal.senses(&next) {
                *s
            } else {
                next
            }
        }
        fn name(&self) -> &'static str {
            "mod3"
        }
    }
    impl StateSpace for Mod3 {
        fn states(&self) -> Vec<u8> {
            vec![0, 1, 2, 3]
        }
    }

    #[test]
    fn output_states_filtering() {
        let alg = Mod3;
        assert_eq!(alg.state_count(), 4);
        assert_eq!(alg.output_states(), vec![0, 1, 2]);
        assert_eq!(alg.output(&3), None);
        assert_eq!(alg.output(&1), Some(1));
    }

    #[test]
    fn transition_uses_signal() {
        let alg = Mod3;
        let mut rng = rand::thread_rng();
        let sig = Signal::from_states(vec![0u8, 1]);
        // successor of 0 is 1, which is sensed -> stay
        assert_eq!(alg.transition(&0, &sig, &mut rng), 0);
        // successor of 1 is 2, not sensed -> advance
        assert_eq!(alg.transition(&1, &sig, &mut rng), 2);
    }

    #[test]
    fn closure_oracle_from_fn() {
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s < 3);
        let g = Graph::complete(3);
        assert!(LegitimacyOracle::<Mod3>::is_legitimate(
            &oracle,
            &g,
            &[0, 1, 2]
        ));
        assert!(!LegitimacyOracle::<Mod3>::is_legitimate(
            &oracle,
            &g,
            &[0, 3, 2]
        ));
    }

    #[test]
    fn default_name_is_type_name() {
        struct Anon;
        impl Algorithm for Anon {
            type State = u8;
            type Output = u8;
            fn output(&self, s: &u8) -> Option<u8> {
                Some(*s)
            }
            fn transition(&self, s: &u8, _: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
                *s
            }
        }
        assert!(Algorithm::name(&Anon).contains("Anon"));
        assert_eq!(Algorithm::name(&Mod3), "mod3");
    }
}

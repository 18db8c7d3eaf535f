//! The execution driver: steps, rounds (the ϱ operator) and stabilization runs.
//!
//! An execution starts from an (adversarially chosen) initial configuration
//! `C_0 : V → Q`. At step `t` the scheduler activates a set `A_t`; every activated
//! node observes its signal under `C_t` and moves to the state returned by the
//! transition function, **simultaneously** — non-activated nodes keep their state:
//! `C_{t+1}(v) = C_t(v)` for `v ∉ A_t`.
//!
//! Time is measured in *rounds* via the ϱ operator of §1.1 of the paper: given a time
//! `t`, `ϱ(t)` is the earliest time such that every node is activated at least once in
//! `[t, ϱ(t))`. The executor tracks `R(i) = ϱ^i(0)` exactly: [`Execution::rounds`]
//! returns the largest `i` with `R(i) ≤ now`.
//!
//! # The staged step pipeline
//!
//! [`Execution::step`] drives the four-stage pipeline of the [`engine`]
//! module — **sense** (incremental neighborhood signal snapshots),
//! **evaluate** (transition computation on a pluggable [`StepEngine`]),
//! **apply** (simultaneous commit) and **account** (metrics, rounds, trace).
//! The evaluate stage runs either serially or sharded across a worker pool
//! ([`EngineKind`]); both produce bit-for-bit identical executions because
//! transitions read only the step's start snapshot and draw their coins from
//! counter-based streams keyed by `(seed, node, time)`.
//!
//! On top of the pipeline the executor layers the performance machinery
//! introduced earlier: dense bitmask signals over a precomputed
//! [`StateIndex`] with transparent sparse
//! fallback, per-lane transition memoization for deterministic algorithms, a
//! uniform-configuration bulk fast path, per-node palette coordinates for
//! factored state spaces ([`Algorithm::compile_factored`]), and buffer reuse
//! throughout — the warm step loop performs **zero heap allocations**
//! (tracing off), on both engines.

use crate::algorithm::{Algorithm, Coords, FactoredTransition, LegitimacyOracle, MaskedTransition};
use crate::engine::evaluate::NO_COORDS;
use crate::engine::frontier::DirtyFrontier;
use crate::engine::sense::{DenseSensing, UNINDEXED};
use crate::engine::{
    self, account, apply, ApplyCtx, EngineKind, EvalCtx, PendingUpdate, StepEngine,
};
use crate::graph::{Graph, NodeId};
use crate::metrics::NodeCounters;
use crate::scheduler::ActivationSet;
use crate::signal::{Signal, StateIndex};
use crate::snapshot::ExecutionSnapshot;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

pub use crate::engine::MAX_DENSE_STATES;

/// How the executor represents signals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SignalMode {
    /// Use the dense bitmask engine whenever the algorithm enumerates a usable
    /// state space, sparse otherwise (the default).
    #[default]
    Auto,
    /// Always rebuild sparse `BTreeSet` signals from scratch. Mainly useful as
    /// a baseline for benchmarks and for differential testing of the dense
    /// engine.
    Sparse,
}

/// Result of a single execution step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The step index that was just executed (the configuration is now `C_{time+1}`).
    pub time: u64,
    /// Whether this step completed an asynchronous round (`ϱ` fired).
    pub round_completed: bool,
    /// Number of nodes whose state actually changed in this step. The nodes
    /// themselves are available from [`Execution::last_changed`] until the
    /// next step executes.
    pub changed_count: usize,
}

/// Outcome of [`Execution::run_until_legitimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilizationOutcome {
    /// The legitimacy predicate first held at the given round / step.
    Stabilized {
        /// Round count `i` such that the configuration at `R(i)` was legitimate.
        rounds: u64,
        /// Step count at which legitimacy was first observed.
        steps: u64,
    },
    /// The round budget was exhausted before the predicate held.
    Exhausted {
        /// The round budget that was exhausted.
        rounds: u64,
    },
}

impl StabilizationOutcome {
    /// Rounds to stabilization, or `None` if the run did not stabilize.
    pub fn rounds(&self) -> Option<u64> {
        match self {
            StabilizationOutcome::Stabilized { rounds, .. } => Some(*rounds),
            StabilizationOutcome::Exhausted { .. } => None,
        }
    }

    /// Whether the run stabilized within its budget.
    pub fn is_stabilized(&self) -> bool {
        matches!(self, StabilizationOutcome::Stabilized { .. })
    }
}

/// A running (or finished) execution of an algorithm on a graph.
pub struct Execution<'a, A: Algorithm> {
    algorithm: &'a A,
    graph: &'a Graph,
    config: Vec<A::State>,
    time: u64,
    rounds: u64,
    /// `pending[v]` is true while node `v` has not yet been activated in the current
    /// round.
    pending: Vec<bool>,
    pending_count: usize,
    /// Per-node activity counters, settled by the account stage.
    counters: NodeCounters,
    /// Base key of the per-`(node, time)` transition coin streams.
    seed: u64,
    /// Sequential stream driving schedulers through [`Execution::step_with`].
    sched_rng: StdRng,
    trace: Option<Trace<A::State>>,
    /// Deduplication bitmap for the activation set; all-false between steps.
    scratch_active: Vec<bool>,
    /// Reused buffer holding the deduplicated activation set when the
    /// scheduler hands one with duplicates / out-of-order entries.
    dedup_buf: Vec<NodeId>,
    /// `Some` while the dense sense stage is live, `None` on the sparse fallback.
    sensing: Option<DenseSensing<A::State>>,
    /// The enumerated state index, kept even when `sensing` is off (sparse
    /// mode, or after a degrade): the evaluate stage still uses it for
    /// word-level scratch signals and mask-compiled transitions on nodes
    /// whose neighborhoods stay inside the enumerated space.
    index: Option<Arc<StateIndex<A::State>>>,
    /// The algorithm's mask-compiled transition (see
    /// [`Algorithm::compile_masked`]), `None` on the closure path.
    masked: Option<Box<dyn MaskedTransition<A::State> + 'a>>,
    /// The algorithm's factored transition (see
    /// [`Algorithm::compile_factored`]), `None` on the closure path.
    factored: Option<Box<dyn FactoredTransition<A::State> + 'a>>,
    /// Every node's coordinates under `factored`: `Some` while every state
    /// lies inside its palettes, `None` on the closure fallback.
    coords: Option<Vec<Coords>>,
    /// The active-set dirty frontier (see [`crate::engine::frontier`]):
    /// `Some` for deterministic algorithms unless the builder disabled it.
    /// Skipping is observationally invisible — the trajectory, counters and
    /// traces are bit-for-bit those of a full scan.
    dirty: Option<DirtyFrontier>,
    /// Minimum changed-node count for the partial-batch apply detection to
    /// be worth its `O(n)` bulk pass: `n² / (2|E| + n)` (i.e. the changed
    /// set's expected `O(changed · deg)` serial commit work exceeds `O(n)`).
    batch_min_changed: usize,
    /// Whether transitions may be memoized (algorithm declared deterministic).
    deterministic: bool,
    /// The evaluate-stage engine (serial or sharded).
    engine: Box<dyn StepEngine<A> + 'a>,
    /// The identity permutation `0..n`, so uniform steps can report "all nodes
    /// changed" without rewriting a buffer.
    identity: Vec<NodeId>,
    /// Whether the most recent step changed every node (see
    /// [`Execution::last_changed`]).
    all_changed: bool,
    /// Reused buffer for scheduler activations (see [`Execution::step_with`]).
    scratch_acts: ActivationSet,
    /// Reused buffer of updates computed from `C_t`.
    scratch_updates: Vec<PendingUpdate<A::State>>,
    /// Nodes changed by the most recent step.
    last_changed: Vec<NodeId>,
}

impl<'a, A: Algorithm> Execution<'a, A> {
    /// Creates an execution from an explicit initial configuration with the
    /// [`ExecutionBuilder`] defaults.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the number of nodes, or if the graph is
    /// empty.
    pub fn new(algorithm: &'a A, graph: &'a Graph, initial: Vec<A::State>, seed: u64) -> Self {
        ExecutionBuilder::new(algorithm, graph)
            .seed(seed)
            .initial(initial)
    }

    /// The constructor behind [`ExecutionBuilder::initial`].
    fn build(options: ExecutionBuilder<'a, A>, initial: Vec<A::State>) -> Self {
        let ExecutionBuilder {
            algorithm,
            graph,
            seed,
            trace,
            mode,
            engine,
            masked,
            active_set,
            streaming_counters,
        } = options;
        assert!(graph.node_count() > 0, "cannot execute on an empty graph");
        assert_eq!(
            initial.len(),
            graph.node_count(),
            "initial configuration size must match the node count"
        );
        let n = graph.node_count();
        // The index survives independently of the sensing state: sparse-mode
        // executions (and post-degrade ones) still use it for word-level
        // scratch rebuilds and mask-compiled transitions.
        let index = algorithm
            .dense_state_space()
            .map(|states| Arc::new(StateIndex::new(states)))
            .filter(|index| !index.is_empty() && index.len() <= MAX_DENSE_STATES);
        let sensing = match (&index, mode) {
            (_, SignalMode::Sparse) | (None, _) => None,
            (Some(index), SignalMode::Auto) => DenseSensing::build(index.clone(), graph, &initial),
        };
        // Compiled transitions: masks over the dense index, or the factored
        // path for a space too large to index.
        let (masked, factored) = match (masked, &index) {
            (false, _) => (None, None),
            (true, Some(ix)) => (algorithm.compile_masked(ix), None),
            (true, None) => (None, algorithm.compile_factored()),
        };
        let coords = factored.as_deref().and_then(|f| factor(f, &initial));
        let deterministic = algorithm.transition_is_deterministic();
        // Randomized transitions can never be skipped (a fresh coin stream
        // may change the state even on an unchanged signal), so the frontier
        // exists only for deterministic algorithms.
        let dirty = (deterministic && active_set).then(|| DirtyFrontier::all_dirty(n));
        let mut exec = Execution {
            algorithm,
            graph,
            config: initial,
            time: 0,
            rounds: 0,
            pending: vec![true; n],
            pending_count: n,
            counters: if streaming_counters {
                NodeCounters::streaming(n)
            } else {
                NodeCounters::new(n)
            },
            seed,
            sched_rng: StdRng::seed_from_u64(seed),
            trace: None,
            scratch_active: vec![false; n],
            dedup_buf: Vec::new(),
            sensing,
            index,
            masked,
            factored,
            coords,
            dirty,
            batch_min_changed: (n * n / (2 * graph.edge_count() + n)).max(2),
            deterministic,
            engine: engine::build(engine),
            identity: (0..n).collect(),
            all_changed: false,
            scratch_acts: ActivationSet::new(),
            scratch_updates: Vec::new(),
            last_changed: Vec::new(),
        };
        if trace {
            exec.enable_trace();
        }
        exec
    }

    /// Enables trace recording (see [`Trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new(self.config.clone()));
        }
    }

    /// Returns the recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace<A::State>> {
        self.trace.as_ref()
    }

    /// The graph the execution runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        self.algorithm
    }

    /// The current configuration `C_t` (indexed by node id).
    pub fn configuration(&self) -> &[A::State] {
        &self.config
    }

    /// The state of a single node.
    pub fn state(&self, v: NodeId) -> &A::State {
        &self.config[v]
    }

    /// The current step counter `t`.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The number of completed asynchronous rounds (largest `i` with `R(i) ≤ t`).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether the dense bitmask sensing engine is currently live.
    pub fn uses_dense_signals(&self) -> bool {
        self.sensing.is_some()
    }

    /// Whether transitions evaluate through the algorithm's mask-compiled
    /// path (word-level predicates) rather than the closure path.
    pub fn uses_masked_transitions(&self) -> bool {
        self.masked.is_some()
    }

    /// Whether transitions evaluate through the algorithm's factored path
    /// (per-node palette coordinates, see
    /// [`Algorithm::compile_factored`]) rather than the closure path.
    pub fn uses_factored_transitions(&self) -> bool {
        self.coords.is_some()
    }

    /// Whether active-set (dirty-frontier) execution is live: clean
    /// activated nodes of a deterministic algorithm skip their transition
    /// evaluation. Off for randomized algorithms, or via
    /// [`ExecutionBuilder::active_set`]`(false)`.
    pub fn uses_active_set(&self) -> bool {
        self.dirty.is_some()
    }

    /// Number of currently dirty nodes (`n` when active-set execution is
    /// off — every node is then implicitly a candidate for change). Exposed
    /// for tests and benchmarks of the post-stabilization frontier.
    pub fn dirty_count(&self) -> usize {
        match &self.dirty {
            Some(dirty) => dirty.count(),
            None => self.config.len(),
        }
    }

    /// The step engine executing the evaluate stage.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// The nodes whose state changed in the most recent step (empty before the
    /// first step).
    pub fn last_changed(&self) -> &[NodeId] {
        if self.all_changed {
            &self.identity
        } else {
            &self.last_changed
        }
    }

    /// Whether the last executed step committed through the uniform bulk
    /// fast path — every node moved to the *same* state, so the current
    /// configuration is uniform. Incremental legitimacy trackers use this
    /// to answer round checks from a single state instead of sweeping the
    /// full changed list (see [`crate::oracle::LegitimacyTracker`]).
    pub fn last_step_uniform(&self) -> bool {
        self.all_changed
    }

    /// Per-node activation counts since the start of the execution.
    pub fn activation_counts(&self) -> &[u64] {
        self.counters.activations()
    }

    /// Per-node counts of steps in which the node's state changed.
    pub fn state_change_counts(&self) -> &[u64] {
        self.counters.state_changes()
    }

    /// Per-node counts of steps in which the node's *output value* changed
    /// (transitions between output and non-output states count as changes).
    pub fn output_change_counts(&self) -> &[u64] {
        self.counters.output_changes()
    }

    /// All per-node counters at once (used by engine-equivalence tests).
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Resets the per-node output-change counters (used by liveness checkers that
    /// count clock increments over a window) and returns the previous values.
    pub fn take_output_change_counts(&mut self) -> Vec<u64> {
        self.counters.take_output_changes()
    }

    /// The output vector `ω ∘ C_t`, or `None` if some node is in a non-output state.
    pub fn output_vector(&self) -> Option<Vec<A::Output>> {
        self.config
            .iter()
            .map(|s| self.algorithm.output(s))
            .collect()
    }

    /// The signal of node `v` under the current configuration, as a fresh
    /// standalone value (allocates; the step loop itself uses the engines'
    /// reused scratch signals instead).
    pub fn signal(&self, v: NodeId) -> Signal<A::State> {
        match &self.sensing {
            Some(sensing) => {
                let mut sig = Signal::dense(sensing.index().clone());
                sig.copy_dense_words(sensing.mask_of(v));
                sig
            }
            None => {
                let mut sig = Signal::empty();
                sig.insert(self.config[v].clone());
                for &u in self.graph.neighbors(v) {
                    sig.insert(self.config[u].clone());
                }
                sig
            }
        }
    }

    /// Recomputes the dense sense stage's counts, masks and state indices
    /// — and, on the factored path, the nodes' coordinates — from scratch
    /// and checks them against the incrementally maintained ones. Returns
    /// `true` when they agree (or when the sparse fallback is active, which
    /// maintains no incremental state). Exposed for property tests and
    /// debugging.
    pub fn validate_incremental_sensing(&self) -> bool {
        if let (Some(factored), Some(coords)) = (self.factored.as_deref(), &self.coords) {
            if factor(factored, &self.config).as_ref() != Some(coords) {
                return false;
            }
        }
        match &self.sensing {
            None => true,
            Some(sensing) => {
                match DenseSensing::build(sensing.index().clone(), self.graph, &self.config) {
                    Some(fresh) => {
                        sensing.counts_equivalent(&fresh)
                            && fresh.masks == sensing.masks
                            && fresh.state_idx == sensing.state_idx
                            && fresh.state_counts == sensing.state_counts
                            && fresh.uniform_state == sensing.uniform_state
                    }
                    None => false,
                }
            }
        }
    }

    /// Captures the execution's complete mutable state at the current step
    /// boundary (see [`crate::snapshot`]).
    ///
    /// The snapshot plus the construction inputs (algorithm, graph, signal
    /// mode, engine kind) fully determine the rest of the run: transition
    /// coins are pure functions of `(seed, node, step)`, and the scheduler
    /// RNG stream position is captured exactly — so a restored execution is
    /// bit-identical to one that was never interrupted. Any recorded trace is
    /// *not* captured.
    pub fn snapshot(&self) -> ExecutionSnapshot<A::State> {
        ExecutionSnapshot {
            config: self.config.clone(),
            time: self.time,
            rounds: self.rounds,
            pending: self.pending.clone(),
            counters: self.counters.clone(),
            seed: self.seed,
            sched_rng: self.sched_rng.state(),
            dense: self.sensing.is_some(),
        }
    }

    /// Restores the mutable state captured by [`Execution::snapshot`],
    /// repositioning this execution at the snapshot's step boundary.
    ///
    /// The sense stage is rebuilt from the restored configuration (dense iff
    /// the snapshot was dense and the algorithm still enumerates a usable
    /// state space) and all per-lane engine caches are flushed. If tracing is
    /// enabled, the trace restarts at the restored configuration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs from this execution's.
    pub fn restore(&mut self, snapshot: &ExecutionSnapshot<A::State>) {
        let n = self.config.len();
        assert_eq!(
            snapshot.config.len(),
            n,
            "snapshot node count must match the execution"
        );
        assert_eq!(
            snapshot.pending.len(),
            n,
            "snapshot pending flags must match the node count"
        );
        self.config = snapshot.config.clone();
        self.time = snapshot.time;
        self.rounds = snapshot.rounds;
        self.pending = snapshot.pending.clone();
        self.pending_count = snapshot.pending.iter().filter(|p| **p).count();
        self.counters = snapshot.counters.clone();
        self.seed = snapshot.seed;
        self.sched_rng = StdRng::from_state(snapshot.sched_rng);
        self.all_changed = false;
        self.last_changed.clear();
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.mark_all();
        }
        if self.trace.is_some() {
            self.trace = Some(Trace::new(self.config.clone()));
        }
        self.sensing = if snapshot.dense {
            self.index
                .as_ref()
                .and_then(|ix| DenseSensing::build(ix.clone(), self.graph, &self.config))
        } else {
            None
        };
        self.coords = self
            .factored
            .as_deref()
            .and_then(|f| factor(f, &self.config));
        // The dense index the per-lane memo/scratch caches referred to is
        // gone; flush them regardless of the restored representation.
        self.engine.on_degrade();
    }

    /// Drops the dense sense stage and continues on the sparse fallback.
    ///
    /// The state index and the mask-compiled transition are kept: nodes
    /// whose neighborhoods stay inside the enumerated space still evaluate
    /// through word-level scratch signals; only lanes that actually meet the
    /// exotic states fall back to `BTreeSet` scratches.
    fn degrade_to_sparse(&mut self) {
        self.sensing = None;
        self.engine.on_degrade();
    }

    /// Overwrites the state of node `v` — a *transient fault* (or an adversarial
    /// re-initialization). Resets nothing else; the round bookkeeping is unaffected.
    pub fn corrupt(&mut self, v: NodeId, state: A::State) {
        account::record_fault(self.trace.as_mut(), self.time, v, &state);
        if state == self.config[v] {
            return;
        }
        let graph = self.graph;
        let new_idx = match &self.sensing {
            Some(sensing) => sensing.index().position(&state).map(|i| i as u32),
            None => None,
        };
        let left_palettes = match (self.factored.as_deref(), self.coords.as_mut()) {
            (Some(factored), Some(coords)) => match factored.coords(&state) {
                Some(c) => {
                    coords[v] = c;
                    false
                }
                None => true,
            },
            _ => false,
        };
        if left_palettes {
            self.coords = None;
        }
        self.config[v] = state;
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.mark_closed_neighborhood(graph, v);
        }
        match (&mut self.sensing, new_idx) {
            (Some(sensing), Some(idx)) => sensing.apply_change(graph, v, idx),
            (Some(_), None) => self.degrade_to_sparse(),
            (None, _) => {}
        }
    }

    /// Executes one step with the activation set chosen by `scheduler`.
    ///
    /// The activation set is collected through
    /// [`Scheduler::activations_into`](crate::scheduler::Scheduler::activations_into)
    /// into a buffer owned by the execution, so schedulers that support the
    /// buffered API contribute no per-step allocations. Scheduler randomness
    /// draws from a sequential stream seeded by the execution seed —
    /// independent of the transition coin streams, so schedulers remain
    /// oblivious to the algorithm's coins.
    pub fn step_with<S: crate::scheduler::Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
    ) -> StepOutcome {
        let mut acts = std::mem::take(&mut self.scratch_acts);
        scheduler.activations_into(self.graph, self.time, &mut self.sched_rng, &mut acts);
        let outcome = self.step(acts.as_slice());
        self.scratch_acts = acts;
        outcome
    }

    /// Executes one step with an explicit activation set (duplicates are
    /// ignored).
    ///
    /// Per-step semantics follow the model exactly: all transitions read
    /// `C_t` and apply simultaneously. Because every activation draws its
    /// coins from a stream keyed by `(seed, node, time)`, the *order* in
    /// which the activation set lists the nodes is irrelevant even for
    /// randomized algorithms — a scripted step `[3, 1]` produces the same
    /// `C_{t+1}` as `[1, 3]` — and the serial and sharded engines agree bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if `active` is empty or contains an out-of-range node.
    pub fn step(&mut self, active: &[NodeId]) -> StepOutcome {
        assert!(!active.is_empty(), "activation set must be non-empty");
        let n = self.config.len();
        for &v in active {
            assert!(v < n, "activated node {v} out of range");
        }

        // A strictly increasing activation slice (what the synchronous and
        // round-robin schedulers produce) cannot contain duplicates, so the
        // dedupe bitmap can be skipped entirely.
        let sorted_unique = active.windows(2).all(|w| w[0] < w[1]);

        // Fastest path: the configuration is known-uniform, every node is
        // activated (a strictly increasing slice of length n is exactly 0..n)
        // and the algorithm is deterministic — then every node sees the same
        // (state, signal) and the transition is evaluated once.
        if sorted_unique && active.len() == n && self.deterministic && self.trace.is_none() {
            if let Some(si) = self.sensing.as_ref().and_then(|e| e.uniform_state) {
                if let Some(outcome) = self.step_uniform_fast(si) {
                    return outcome;
                }
            }
        }

        // Deduplicate out-of-order activation sets into a reused buffer.
        let mut dedup = std::mem::take(&mut self.dedup_buf);
        let act: &[NodeId] = if sorted_unique {
            active
        } else {
            dedup.clear();
            for &v in active {
                if !self.scratch_active[v] {
                    self.scratch_active[v] = true;
                    dedup.push(v);
                }
            }
            for &v in &dedup {
                self.scratch_active[v] = false;
            }
            &dedup
        };

        // SENSE + EVALUATE: compute the new states of all activated nodes
        // from the *current* configuration C_t (the per-node signals must not
        // observe any of this step's updates) on the configured engine.
        let mut updates = std::mem::take(&mut self.scratch_updates);
        self.engine.evaluate_into(
            &EvalCtx {
                alg: self.algorithm,
                graph: self.graph,
                config: &self.config,
                sensing: self.sensing.as_ref(),
                index: self.index.as_ref(),
                masked: self.masked.as_deref(),
                factored: self.factored.as_deref().zip(self.coords.as_deref()),
                dirty: self.dirty.as_ref(),
                deterministic: self.deterministic,
                seed: self.seed,
                time: self.time,
            },
            act,
            &mut updates,
        );
        self.dedup_buf = dedup;

        // One scan classifies the step for the bulk-apply fast paths: do all
        // changed updates share a single `(old, new)` prototype, and how
        // many are there? Two fast paths hang off the answer:
        //
        // * the **uniform** step — every node activated and changed alike —
        //   commits with two cell writes per node and skips the account
        //   stage's per-update loop entirely;
        // * the **partial batch** — every node in state `old` moved to
        //   `new`, the rest held still (detected against the state
        //   histogram) — commits with `O(n)` bulk word writes instead of
        //   `O(changed · deg)` neighbor updates.
        let dense = self.sensing.is_some();
        let mut batch: Option<(u32, u32)> = None;
        if dense && updates.len() >= self.batch_min_changed {
            let mut changed = 0usize;
            let mut proto: Option<(u32, u32, bool)> = None;
            let mut same_pair = true;
            for update in &updates {
                if !update.changed {
                    continue;
                }
                changed += 1;
                if update.new_idx == UNINDEXED {
                    same_pair = false;
                    break;
                }
                let key = (update.old_idx, update.new_idx, update.output_changed);
                match proto {
                    None => proto = Some(key),
                    Some(p) if p == key => {}
                    Some(_) => {
                        same_pair = false;
                        break;
                    }
                }
            }
            if let (true, Some((old_idx, new_idx, output_changed))) = (same_pair, proto) {
                if changed == n && self.trace.is_none() {
                    // updates.len() ≥ changed = n and one update per node,
                    // so every node was activated and changed uniformly.
                    let next = updates[0].next.clone();
                    updates.clear();
                    self.scratch_updates = updates;
                    return self.apply_uniform_step(old_idx, new_idx, output_changed, next);
                }
                let sensing = self.sensing.as_ref().expect("dense sensing is live");
                if changed >= self.batch_min_changed
                    && sensing.state_counts[old_idx as usize] as usize == changed
                {
                    batch = Some((old_idx, new_idx));
                }
            }
        }

        // A transition out of the enumerated state space forces the sparse
        // fallback before any sensing update is applied. (A detected batch
        // has already verified every changed update stays indexed.)
        if dense && batch.is_none() && updates.iter().any(|u| u.changed && u.new_idx == UNINDEXED) {
            self.degrade_to_sparse();
        }
        // Likewise, a transition out of the factored palettes drops the
        // coordinates: the closure path takes over.
        if self.coords.is_some() && updates.iter().any(|u| u.changed && u.coords == NO_COORDS) {
            self.coords = None;
        }

        // APPLY: commit simultaneously (and update the incremental sensing
        // state for nodes that actually changed) — in bulk for a detected
        // partial batch, through the engine (serial, or sharded by node
        // range for large changed sets) otherwise.
        match batch {
            Some((old_idx, new_idx)) => apply::commit_batch(
                &mut updates,
                &mut self.config,
                self.sensing.as_mut().expect("batch implies dense sensing"),
                &mut self.last_changed,
                old_idx,
                new_idx,
            ),
            None => self.engine.apply_into(
                ApplyCtx {
                    graph: self.graph,
                    config: &mut self.config,
                    sensing: self.sensing.as_mut(),
                    coords: self.coords.as_deref_mut(),
                    last_changed: &mut self.last_changed,
                },
                &mut updates,
            ),
        }
        self.all_changed = false;

        // FRONTIER: activated nodes whose evaluation (or skip) produced no
        // change are now proven stable at C_{t+1} *unless* a node in their
        // closed neighborhood changed this step — so clear first, then
        // re-dirty every changed node's closed neighborhood.
        if let Some(dirty) = self.dirty.as_mut() {
            for update in updates.iter() {
                if !update.changed {
                    dirty.clear(update.v);
                }
            }
            for &v in self.last_changed.iter() {
                dirty.mark_closed_neighborhood(self.graph, v);
            }
        }

        // ACCOUNT: counters, rounds, trace.
        let outcome = account::settle(
            &updates,
            &self.config,
            &mut self.counters,
            &mut self.pending,
            &mut self.pending_count,
            &mut self.time,
            &mut self.rounds,
            self.trace.as_mut(),
            self.last_changed.len(),
        );
        updates.clear();
        self.scratch_updates = updates;
        outcome
    }

    /// Full-activation step on a known-uniform configuration of a
    /// deterministic algorithm: evaluates the transition once and applies it
    /// to every node in bulk. Returns `None` (deferring to the general path)
    /// if the transition leaves the enumerated state space — safe to retry
    /// there because a deterministic transition consumes no randomness.
    fn step_uniform_fast(&mut self, si: u32) -> Option<StepOutcome> {
        let update = self.engine.evaluate_one(
            &EvalCtx {
                alg: self.algorithm,
                graph: self.graph,
                config: &self.config,
                sensing: self.sensing.as_ref(),
                index: self.index.as_ref(),
                masked: self.masked.as_deref(),
                factored: self.factored.as_deref().zip(self.coords.as_deref()),
                dirty: self.dirty.as_ref(),
                deterministic: self.deterministic,
                seed: self.seed,
                time: self.time,
            },
            0,
        );
        if update.changed && update.new_idx == UNINDEXED {
            return None;
        }
        if !update.changed {
            // Every node stays put; the full activation still completes the
            // round. All nodes share the evaluated node's state and signal,
            // so the whole configuration is proven stable at once.
            if let Some(dirty) = self.dirty.as_mut() {
                dirty.clear_all();
            }
            self.counters.record_uniform_noop();
            self.last_changed.clear();
            self.all_changed = false;
            if self.pending_count != self.config.len() {
                self.pending.iter_mut().for_each(|p| *p = true);
                self.pending_count = self.config.len();
            }
            let executed_time = self.time;
            self.time += 1;
            self.rounds += 1;
            return Some(StepOutcome {
                time: executed_time,
                round_completed: true,
                changed_count: 0,
            });
        }
        debug_assert_eq!(update.old_idx, si);
        Some(self.apply_uniform_step(si, update.new_idx, update.output_changed, update.next))
    }

    /// Applies the uniform step "every node moves `old_idx → new_idx`" in bulk
    /// (see `DenseSensing::apply_uniform_change`). A full activation always
    /// completes the round.
    fn apply_uniform_step(
        &mut self,
        old_idx: u32,
        new_idx: u32,
        output_changed: bool,
        next: A::State,
    ) -> StepOutcome {
        let n = self.config.len();
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.mark_all();
        }
        self.counters.record_uniform_change(output_changed);
        for state in self.config.iter_mut() {
            *state = next.clone();
        }
        self.all_changed = true;
        if let Some(sensing) = &mut self.sensing {
            sensing.apply_uniform_change(old_idx, new_idx);
        }
        // Every node was activated, so every pending node fired: the round
        // completes and the pending flags reset to all-true (skipping the
        // write when they already are).
        if self.pending_count != n {
            self.pending.iter_mut().for_each(|p| *p = true);
            self.pending_count = n;
        }
        let executed_time = self.time;
        self.time += 1;
        self.rounds += 1;
        StepOutcome {
            time: executed_time,
            round_completed: true,
            changed_count: n,
        }
    }

    /// Runs complete rounds under `scheduler` until `count` additional rounds have
    /// elapsed, and returns the number of steps that took.
    pub fn run_rounds<S: crate::scheduler::Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        count: u64,
    ) -> u64 {
        let target = self.rounds + count;
        let start_steps = self.time;
        while self.rounds < target {
            self.step_with(scheduler);
        }
        self.time - start_steps
    }

    /// Runs until the legitimacy predicate holds (checked at every round boundary and
    /// at time 0), or until `max_rounds` rounds have elapsed.
    ///
    /// Returns the number of rounds after which the predicate first held. Note that
    /// per the paper's definition the stabilization time is the smallest `i` such that
    /// the execution has stabilized by `R(i)`; checking at round boundaries matches
    /// that definition.
    pub fn run_until_legitimate<S, O>(
        &mut self,
        scheduler: &mut S,
        oracle: &O,
        max_rounds: u64,
    ) -> StabilizationOutcome
    where
        S: crate::scheduler::Scheduler + ?Sized,
        O: LegitimacyOracle<A>,
    {
        if let Some(local) = oracle.as_local() {
            return self.run_until_legitimate_local(scheduler, local, max_rounds);
        }
        if oracle.is_legitimate(self.graph, &self.config) {
            return StabilizationOutcome::Stabilized {
                rounds: self.rounds,
                steps: self.time,
            };
        }
        let budget_end = self.rounds + max_rounds;
        while self.rounds < budget_end {
            let outcome = self.step_with(scheduler);
            if outcome.round_completed && oracle.is_legitimate(self.graph, &self.config) {
                return StabilizationOutcome::Stabilized {
                    rounds: self.rounds,
                    steps: self.time,
                };
            }
        }
        StabilizationOutcome::Exhausted { rounds: max_rounds }
    }

    /// [`run_until_legitimate`](Execution::run_until_legitimate) for oracles
    /// with a per-node decomposition: a [`crate::oracle::LegitimacyTracker`]
    /// absorbs each step's changed-node list, so round-boundary checks cost
    /// O(changed·deg) instead of a full O(n·deg) scan (O(1) once quiescent
    /// or advancing uniformly). Verdicts are bit-identical to the full-scan
    /// path (pinned by the `oracle_equivalence` tests).
    fn run_until_legitimate_local<S>(
        &mut self,
        scheduler: &mut S,
        local: &dyn crate::oracle::LocalPredicate<A::State>,
        max_rounds: u64,
    ) -> StabilizationOutcome
    where
        S: crate::scheduler::Scheduler + ?Sized,
    {
        let mut tracker = crate::oracle::LegitimacyTracker::new(self.graph);
        if tracker.is_legitimate(local, self.graph, &self.config) {
            return StabilizationOutcome::Stabilized {
                rounds: self.rounds,
                steps: self.time,
            };
        }
        let budget_end = self.rounds + max_rounds;
        while self.rounds < budget_end {
            let outcome = self.step_with(scheduler);
            tracker.note_step(
                local,
                self.graph,
                &self.config,
                if self.all_changed {
                    &self.identity
                } else {
                    &self.last_changed
                },
                self.all_changed,
            );
            if outcome.round_completed && tracker.is_legitimate(local, self.graph, &self.config) {
                return StabilizationOutcome::Stabilized {
                    rounds: self.rounds,
                    steps: self.time,
                };
            }
        }
        StabilizationOutcome::Exhausted { rounds: max_rounds }
    }
}

/// Every node's coordinates under `factored`, or `None` if some state lies
/// outside its palettes.
fn factor<S>(factored: &dyn FactoredTransition<S>, config: &[S]) -> Option<Vec<Coords>> {
    config.iter().map(|s| factored.coords(s)).collect()
}

/// Builder for [`Execution`] supporting random initial configurations, tracing,
/// signal-engine and step-engine selection.
pub struct ExecutionBuilder<'a, A: Algorithm> {
    algorithm: &'a A,
    graph: &'a Graph,
    seed: u64,
    trace: bool,
    mode: SignalMode,
    engine: EngineKind,
    masked: bool,
    active_set: bool,
    streaming_counters: bool,
}

impl<'a, A: Algorithm> ExecutionBuilder<'a, A> {
    /// Starts building an execution of `algorithm` on `graph`.
    pub fn new(algorithm: &'a A, graph: &'a Graph) -> Self {
        ExecutionBuilder {
            algorithm,
            graph,
            seed: 0,
            trace: false,
            mode: SignalMode::Auto,
            engine: EngineKind::Serial,
            masked: true,
            active_set: true,
            streaming_counters: false,
        }
    }

    /// Sets the RNG seed (keying the per-node transition coin streams and
    /// seeding the scheduler stream of [`Execution::step_with`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables trace recording.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Selects the signal engine (default [`SignalMode::Auto`]).
    pub fn signal_mode(mut self, mode: SignalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the step engine (default [`EngineKind::Serial`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Enables or disables the algorithm's compiled transition paths, the
    /// mask-compiled one (see [`Algorithm::compile_masked`]) and the
    /// factored one (see [`Algorithm::compile_factored`]). The default is
    /// enabled; disabling forces the closure path, which benchmarks and the
    /// differential tests use as the baseline. Both settings produce
    /// bit-identical executions.
    pub fn masked_transitions(mut self, enabled: bool) -> Self {
        self.masked = enabled;
        self
    }

    /// Enables or disables active-set (dirty-frontier) execution. The
    /// default is enabled; disabling forces every activated node through a
    /// full transition evaluation, which the differential tests use as the
    /// baseline. Both settings produce bit-identical executions; randomized
    /// algorithms run full-scan regardless.
    pub fn active_set(mut self, enabled: bool) -> Self {
        self.active_set = enabled;
        self
    }

    /// Keeps only running counter totals instead of the three per-node
    /// `u64` vectors (see [`NodeCounters::streaming`]) — the million-node
    /// choice when no checkpoint and no liveness verification window is
    /// needed. Per-node counter accessors and snapshot serialization are
    /// unavailable (they panic / return `None`) on such an execution.
    pub fn streaming_counters(mut self, enabled: bool) -> Self {
        self.streaming_counters = enabled;
        self
    }

    /// Finishes the builder with an explicit initial configuration.
    pub fn initial(self, initial: Vec<A::State>) -> Execution<'a, A> {
        Execution::build(self, initial)
    }

    /// Finishes the builder positioned at a checkpoint snapshot: the
    /// execution starts at the snapshot's configuration, step/round counters,
    /// metrics and scheduler-RNG position instead of at time 0. The builder's
    /// `seed` is superseded by the snapshot's, and the signal representation
    /// is dictated by the snapshot (dense iff it was dense at capture), not
    /// by [`ExecutionBuilder::signal_mode`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs from the graph's.
    pub fn resume(mut self, snapshot: &ExecutionSnapshot<A::State>) -> Execution<'a, A> {
        // Skip the dense sense-stage construction for the initial
        // configuration — [`Execution::restore`] immediately rebuilds the
        // representation the snapshot dictates, so building it here would be
        // pure wasted `O(n · |Q|)` startup work on the resume path.
        self.mode = SignalMode::Sparse;
        let mut exec = self.initial(snapshot.config.clone());
        exec.restore(snapshot);
        exec
    }

    /// Finishes the builder with the same initial state at every node.
    pub fn uniform(self, state: A::State) -> Execution<'a, A> {
        let n = self.graph.node_count();
        self.initial(vec![state; n])
    }

    /// Finishes the builder drawing every node's initial state uniformly at random
    /// from `candidates` (the adversary's "arbitrary initial configuration").
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn random_initial(self, candidates: &[A::State]) -> Execution<'a, A> {
        assert!(!candidates.is_empty(), "need at least one candidate state");
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let init: Vec<A::State> = (0..self.graph.node_count())
            .map(|_| candidates[rng.gen_range(0..candidates.len())].clone())
            .collect();
        self.initial(init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{
        CentralScheduler, RoundRobinScheduler, ScriptedScheduler, SynchronousScheduler,
        UniformRandomScheduler,
    };
    use rand::RngCore;

    /// "Infection" toy algorithm: become 1 if any neighbor is 1.
    struct Spread;
    impl Algorithm for Spread {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, s: &u8, sig: &Signal<u8>, _rng: &mut dyn RngCore) -> u8 {
            if *s == 1 || sig.senses(&1) {
                1
            } else {
                0
            }
        }
        fn dense_state_space(&self) -> Option<Vec<u8>> {
            Some(vec![0, 1])
        }
        fn transition_is_deterministic(&self) -> bool {
            true
        }
    }

    #[test]
    fn synchronous_round_equals_step() {
        let g = Graph::path(4);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0, 0], 1);
        let mut sched = SynchronousScheduler;
        let out = exec.step_with(&mut sched);
        assert!(out.round_completed);
        assert_eq!(exec.rounds(), 1);
        assert_eq!(exec.time(), 1);
    }

    #[test]
    fn spread_reaches_everyone_in_diameter_rounds() {
        let g = Graph::path(6);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0, 0, 0, 0], 1);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 5);
        assert!(exec.configuration().iter().all(|s| *s == 1));
    }

    #[test]
    fn round_robin_round_takes_n_steps() {
        let g = Graph::complete(5);
        let mut exec = Execution::new(&Spread, &g, vec![0; 5], 3);
        let mut sched = RoundRobinScheduler::default();
        let steps = exec.run_rounds(&mut sched, 2);
        assert_eq!(steps, 10);
        assert_eq!(exec.rounds(), 2);
    }

    #[test]
    fn central_scheduler_rounds_are_fair() {
        let g = Graph::path(4);
        let mut exec = Execution::new(&Spread, &g, vec![0; 4], 5);
        let mut sched = CentralScheduler;
        exec.run_rounds(&mut sched, 3);
        // every node activated at least 3 times over 3 rounds
        assert!(exec.activation_counts().iter().all(|&c| c >= 3));
    }

    #[test]
    fn non_activated_nodes_keep_their_state() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0], 0);
        exec.step(&[2]); // node 2 has no neighbor in state 1 yet
        assert_eq!(exec.configuration(), &[1, 0, 0]);
        exec.step(&[1]); // node 1 senses node 0
        assert_eq!(exec.configuration(), &[1, 1, 0]);
    }

    #[test]
    fn updates_are_simultaneous_within_a_step() {
        // Both endpoints of an edge read C_t before either update is applied.
        struct Swap;
        impl Algorithm for Swap {
            type State = u8;
            type Output = u8;
            fn output(&self, s: &u8) -> Option<u8> {
                Some(*s)
            }
            fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
                // adopt the other value if it is sensed
                let other = 1 - *s;
                if sig.senses(&other) {
                    other
                } else {
                    *s
                }
            }
            fn dense_state_space(&self) -> Option<Vec<u8>> {
                Some(vec![0, 1])
            }
            fn transition_is_deterministic(&self) -> bool {
                true
            }
        }
        let g = Graph::path(2);
        let mut exec = Execution::new(&Swap, &g, vec![0, 1], 0);
        exec.step(&[0, 1]);
        // both read the old configuration, so they swap (not converge)
        assert_eq!(exec.configuration(), &[1, 0]);
    }

    #[test]
    fn output_change_counts_track_changes() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0], 0);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 3);
        assert_eq!(exec.output_change_counts(), &[0, 1, 1]);
        let taken = exec.take_output_change_counts();
        assert_eq!(taken, vec![0, 1, 1]);
        assert_eq!(exec.output_change_counts(), &[0, 0, 0]);
    }

    #[test]
    fn corrupt_overrides_state() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![0, 0, 0], 0);
        exec.corrupt(1, 1);
        assert_eq!(exec.state(1), &1);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 2);
        assert!(exec.configuration().iter().all(|s| *s == 1));
    }

    #[test]
    fn run_until_legitimate_measures_rounds() {
        let g = Graph::path(5);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0, 0, 0], 0);
        let mut sched = SynchronousScheduler;
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s == 1);
        let outcome = exec.run_until_legitimate(&mut sched, &oracle, 100);
        assert_eq!(outcome.rounds(), Some(4));
        assert!(outcome.is_stabilized());
    }

    #[test]
    fn run_until_legitimate_exhausts_budget() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![0, 0, 0], 0);
        let mut sched = SynchronousScheduler;
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s == 1);
        let outcome = exec.run_until_legitimate(&mut sched, &oracle, 10);
        assert!(!outcome.is_stabilized());
        assert_eq!(outcome.rounds(), None);
    }

    #[test]
    fn run_until_legitimate_detects_initial_legitimacy() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![1, 1, 1], 0);
        let mut sched = SynchronousScheduler;
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s == 1);
        let outcome = exec.run_until_legitimate(&mut sched, &oracle, 10);
        assert_eq!(outcome.rounds(), Some(0));
    }

    #[test]
    fn builder_uniform_and_random() {
        let g = Graph::complete(4);
        let exec = ExecutionBuilder::new(&Spread, &g).seed(9).uniform(0);
        assert_eq!(exec.configuration(), &[0, 0, 0, 0]);
        let exec2 = ExecutionBuilder::new(&Spread, &g)
            .seed(9)
            .random_initial(&[0, 1]);
        assert_eq!(exec2.configuration().len(), 4);
        // deterministic given the seed
        let exec3 = ExecutionBuilder::new(&Spread, &g)
            .seed(9)
            .random_initial(&[0, 1]);
        assert_eq!(exec2.configuration(), exec3.configuration());
    }

    #[test]
    fn scripted_scheduler_replays_in_execution() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0], 0);
        let mut sched = ScriptedScheduler::one_at_a_time(vec![1, 2, 0]);
        exec.step_with(&mut sched);
        assert_eq!(exec.configuration(), &[1, 1, 0]);
        exec.step_with(&mut sched);
        assert_eq!(exec.configuration(), &[1, 1, 1]);
        assert_eq!(exec.rounds(), 0);
        exec.step_with(&mut sched);
        assert_eq!(exec.rounds(), 1);
    }

    #[test]
    fn trace_records_transitions_and_rounds() {
        let g = Graph::path(3);
        let mut exec = ExecutionBuilder::new(&Spread, &g)
            .trace(true)
            .initial(vec![1, 0, 0]);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 2);
        let trace = exec.trace().expect("tracing enabled");
        assert!(trace.transition_count() >= 2);
        assert_eq!(trace.round_boundaries().len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_activation_set_panics() {
        let g = Graph::path(2);
        let mut exec = Execution::new(&Spread, &g, vec![0, 0], 0);
        exec.step(&[]);
    }

    #[test]
    #[should_panic(expected = "size must match")]
    fn mismatched_initial_configuration_panics() {
        let g = Graph::path(3);
        let _ = Execution::new(&Spread, &g, vec![0, 0], 0);
    }

    // ---- dense engine ---------------------------------------------------------

    #[test]
    fn dense_engine_activates_for_enumerable_spaces() {
        let g = Graph::path(4);
        let exec = Execution::new(&Spread, &g, vec![0; 4], 0);
        assert!(exec.uses_dense_signals());
        let sparse = ExecutionBuilder::new(&Spread, &g)
            .signal_mode(SignalMode::Sparse)
            .uniform(0);
        assert!(!sparse.uses_dense_signals());
    }

    #[test]
    fn dense_and_sparse_executions_agree() {
        let g = Graph::grid(3, 3);
        let init = vec![0, 1, 0, 0, 1, 0, 0, 0, 1];
        let mut dense = ExecutionBuilder::new(&Spread, &g)
            .seed(5)
            .initial(init.clone());
        let mut sparse = ExecutionBuilder::new(&Spread, &g)
            .seed(5)
            .signal_mode(SignalMode::Sparse)
            .initial(init);
        let mut sched_a = RoundRobinScheduler::default();
        let mut sched_b = RoundRobinScheduler::default();
        for _ in 0..40 {
            let a = dense.step_with(&mut sched_a);
            let b = sparse.step_with(&mut sched_b);
            assert_eq!(a, b);
            assert_eq!(dense.configuration(), sparse.configuration());
            assert_eq!(dense.signal(4), sparse.signal(4));
        }
        assert!(dense.validate_incremental_sensing());
    }

    /// A randomized algorithm: flip to a uniformly random state each step.
    struct Coin;
    impl Algorithm for Coin {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, _: &u8, _: &Signal<u8>, rng: &mut dyn RngCore) -> u8 {
            use rand::Rng;
            rng.gen_range(0..4u8)
        }
        fn dense_state_space(&self) -> Option<Vec<u8>> {
            Some(vec![0, 1, 2, 3])
        }
    }

    #[test]
    fn randomized_algorithms_keep_rng_parity_across_engines() {
        let g = Graph::cycle(5);
        let mut dense = ExecutionBuilder::new(&Coin, &g).seed(3).uniform(0);
        let mut sparse = ExecutionBuilder::new(&Coin, &g)
            .seed(3)
            .signal_mode(SignalMode::Sparse)
            .uniform(0);
        assert!(dense.uses_dense_signals());
        let mut sched_a = UniformRandomScheduler::new(0.6);
        let mut sched_b = UniformRandomScheduler::new(0.6);
        for _ in 0..60 {
            dense.step_with(&mut sched_a);
            sparse.step_with(&mut sched_b);
            assert_eq!(dense.configuration(), sparse.configuration());
        }
        assert!(dense.validate_incremental_sensing());
    }

    #[test]
    fn seeded_trajectories_are_activation_order_invariant() {
        // The per-(node, time) coin streams make scripted out-of-order steps
        // equivalent to ascending-id steps — the PR 1 order-dependence
        // regression, fixed.
        let g = Graph::cycle(6);
        let mut forward = ExecutionBuilder::new(&Coin, &g).seed(11).uniform(0);
        let mut backward = ExecutionBuilder::new(&Coin, &g).seed(11).uniform(0);
        for t in 0..30 {
            let asc: Vec<NodeId> = (0..6).filter(|v| (t + v) % 3 != 0).collect();
            let mut desc = asc.clone();
            desc.reverse();
            forward.step(&asc);
            backward.step(&desc);
            assert_eq!(forward.configuration(), backward.configuration());
        }
    }

    #[test]
    fn sharded_engine_matches_serial_smoke() {
        let g = Graph::grid(4, 4);
        let init: Vec<u8> = (0..16).map(|v| (v % 4) as u8).collect();
        let mut serial = ExecutionBuilder::new(&Coin, &g)
            .seed(7)
            .engine(EngineKind::Serial)
            .initial(init.clone());
        let mut sharded = ExecutionBuilder::new(&Coin, &g)
            .seed(7)
            .engine(EngineKind::Sharded { threads: 3 })
            .initial(init);
        assert_eq!(serial.engine_kind(), EngineKind::Serial);
        assert_eq!(sharded.engine_kind(), EngineKind::Sharded { threads: 3 });
        let mut sched_a = UniformRandomScheduler::new(0.7);
        let mut sched_b = UniformRandomScheduler::new(0.7);
        for _ in 0..50 {
            let a = serial.step_with(&mut sched_a);
            let b = sharded.step_with(&mut sched_b);
            assert_eq!(a, b);
            assert_eq!(serial.configuration(), sharded.configuration());
        }
        assert_eq!(serial.counters(), sharded.counters());
        assert!(sharded.validate_incremental_sensing());
    }

    #[test]
    fn incremental_counts_survive_faults() {
        let g = Graph::grid(3, 3);
        let mut exec = Execution::new(&Spread, &g, vec![0; 9], 2);
        let mut sched = SynchronousScheduler;
        exec.corrupt(4, 1);
        assert!(exec.validate_incremental_sensing());
        exec.run_rounds(&mut sched, 1);
        exec.corrupt(0, 0);
        exec.corrupt(8, 1);
        assert!(exec.validate_incremental_sensing());
        exec.run_rounds(&mut sched, 2);
        assert!(exec.validate_incremental_sensing());
    }

    #[test]
    fn corrupting_with_an_unindexed_state_degrades_to_sparse() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![0, 0, 0], 0);
        assert!(exec.uses_dense_signals());
        exec.corrupt(1, 77); // 77 is outside Spread's declared state space
        assert!(!exec.uses_dense_signals());
        // execution continues correctly on the sparse fallback
        let sig = exec.signal(0);
        assert!(sig.senses(&77));
        let mut sched = SynchronousScheduler;
        exec.step_with(&mut sched);
        assert!(exec.validate_incremental_sensing());
    }

    #[test]
    fn transition_out_of_the_index_degrades_to_sparse() {
        /// Declares {0, 1} but escapes to 9 once a 1 is sensed.
        struct Escape;
        impl Algorithm for Escape {
            type State = u8;
            type Output = u8;
            fn output(&self, s: &u8) -> Option<u8> {
                Some(*s)
            }
            fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
                if sig.senses(&1) {
                    9
                } else {
                    *s
                }
            }
            fn dense_state_space(&self) -> Option<Vec<u8>> {
                Some(vec![0, 1])
            }
        }
        let g = Graph::path(2);
        let mut exec = Execution::new(&Escape, &g, vec![0, 1], 0);
        assert!(exec.uses_dense_signals());
        let mut sched = SynchronousScheduler;
        exec.step_with(&mut sched);
        assert!(!exec.uses_dense_signals());
        assert_eq!(exec.configuration(), &[9, 9]);
        exec.step_with(&mut sched);
        assert_eq!(exec.configuration(), &[9, 9]);
    }

    #[test]
    fn last_changed_and_changed_count_agree() {
        let g = Graph::path(4);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0, 0], 0);
        let out = exec.step(&[1, 3]);
        assert_eq!(out.changed_count, 1);
        assert_eq!(exec.last_changed(), &[1]);
        let out = exec.step(&[3]);
        assert_eq!(out.changed_count, 0);
        assert!(exec.last_changed().is_empty());
    }

    #[test]
    fn duplicate_activations_are_processed_once() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0], 0);
        exec.step(&[1, 1, 1]);
        assert_eq!(exec.activation_counts()[1], 1);
        assert_eq!(exec.configuration(), &[1, 1, 0]);
    }

    // ---- snapshot / restore ---------------------------------------------------

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let g = Graph::grid(3, 3);
        let init: Vec<u8> = (0..9).map(|v| (v % 4) as u8).collect();
        let mut reference = ExecutionBuilder::new(&Coin, &g)
            .seed(5)
            .initial(init.clone());
        let mut interrupted = ExecutionBuilder::new(&Coin, &g).seed(5).initial(init);
        let mut sched_a = UniformRandomScheduler::new(0.6);
        let mut sched_b = UniformRandomScheduler::new(0.6);
        for _ in 0..13 {
            reference.step_with(&mut sched_a);
            interrupted.step_with(&mut sched_b);
        }
        let snap = interrupted.snapshot();
        drop(interrupted);
        // A fresh execution resumed from the snapshot continues identically.
        let mut resumed = ExecutionBuilder::new(&Coin, &g).seed(999).resume(&snap);
        assert_eq!(resumed.time(), reference.time());
        assert_eq!(resumed.rounds(), reference.rounds());
        for step in 0..30 {
            let a = reference.step_with(&mut sched_a);
            let b = resumed.step_with(&mut sched_b);
            assert_eq!(a, b, "step {step} diverged after resume");
            assert_eq!(reference.configuration(), resumed.configuration());
        }
        assert_eq!(reference.counters(), resumed.counters());
        assert!(resumed.validate_incremental_sensing());
    }

    #[test]
    fn restore_repositions_a_live_execution() {
        let g = Graph::path(5);
        let mut exec = Execution::new(&Spread, &g, vec![1, 0, 0, 0, 0], 2);
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 2);
        let snap = exec.snapshot();
        let cfg_at_snap = exec.configuration().to_vec();
        exec.run_rounds(&mut sched, 3); // wander off
        exec.restore(&snap);
        assert_eq!(exec.configuration(), &cfg_at_snap[..]);
        assert_eq!(exec.time(), snap.time);
        assert_eq!(exec.rounds(), snap.rounds);
        assert_eq!(exec.counters(), &snap.counters);
        assert!(exec.last_changed().is_empty());
        assert!(exec.validate_incremental_sensing());
    }

    #[test]
    fn snapshot_preserves_the_sparse_degrade() {
        let g = Graph::path(3);
        let mut exec = Execution::new(&Spread, &g, vec![0, 0, 0], 0);
        exec.corrupt(1, 77); // degrade to sparse
        assert!(!exec.uses_dense_signals());
        let snap = exec.snapshot();
        assert!(!snap.dense);
        let resumed = ExecutionBuilder::new(&Spread, &g).resume(&snap);
        assert!(!resumed.uses_dense_signals());
        assert_eq!(resumed.configuration(), &[0, 77, 0]);
    }

    #[test]
    #[should_panic(expected = "node count must match")]
    fn restore_rejects_mismatched_snapshots() {
        let g3 = Graph::path(3);
        let g4 = Graph::path(4);
        let donor = Execution::new(&Spread, &g4, vec![0; 4], 0);
        let snap = donor.snapshot();
        let mut exec = Execution::new(&Spread, &g3, vec![0; 3], 0);
        exec.restore(&snap);
    }

    // ---- partial-batch apply ---------------------------------------------------

    /// Moves state 0 to state 1 and holds everything else: exactly the
    /// nodes in state 0 change, which is the partial-batch shape ("every
    /// node in `old` moves to `new`, nobody else changes").
    struct Promote;
    impl Algorithm for Promote {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            Some(*s)
        }
        fn transition(&self, s: &u8, _: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
            if *s == 0 {
                1
            } else {
                *s
            }
        }
        fn dense_state_space(&self) -> Option<Vec<u8>> {
            Some(vec![0, 1, 2])
        }
        fn transition_is_deterministic(&self) -> bool {
            true
        }
    }

    /// White-box check that the partial-batch commit actually runs and
    /// leaves the sensing state (counts, masks, histogram, uniform flag)
    /// exactly as a from-scratch rebuild would.
    #[test]
    fn partial_batch_step_keeps_sensing_consistent() {
        let g = Graph::grid(16, 16);
        let n = g.node_count();
        // Half zeros (the movers), a sprinkle of twos (held still): a
        // two-pair step would *not* batch, so keep the twos out of state 0.
        let init: Vec<u8> = (0..n).map(|v| if v % 2 == 0 { 0 } else { 2 }).collect();
        let mut exec = Execution::new(&Promote, &g, init, 0);
        let movers = (0..n).filter(|v| v % 2 == 0).count();
        assert!(
            movers >= exec.batch_min_changed,
            "test must be sized to trigger the batch path"
        );
        let all: Vec<NodeId> = (0..n).collect();
        let out = exec.step(&all);
        assert_eq!(out.changed_count, movers);
        {
            let sensing = exec.sensing.as_ref().expect("dense");
            assert_eq!(sensing.state_counts[0], 0);
            assert_eq!(sensing.state_counts[1] as usize, movers);
            assert_eq!(sensing.uniform_state, None);
        }
        assert!(exec.validate_incremental_sensing());
        // No movers left: nothing changes.
        let out = exec.step(&all);
        assert_eq!(out.changed_count, 0);
        // Demote the twos and batch again; afterwards the whole
        // configuration is 1 and the histogram must regain the uniform flag
        // so the bulk fast path can take over.
        let twos: Vec<NodeId> = (0..n).filter(|&v| *exec.state(v) == 2).collect();
        assert_eq!(twos.len(), n - movers);
        for &v in &twos {
            exec.corrupt(v, 0);
        }
        let out = exec.step(&all);
        assert_eq!(out.changed_count, n - movers);
        assert_eq!(exec.sensing.as_ref().unwrap().uniform_state, Some(1));
        assert!(exec.validate_incremental_sensing());
        assert!(exec.configuration().iter().all(|s| *s == 1));
    }

    /// The batched trajectory must equal the sparse-mode trajectory (which
    /// has no sensing state and therefore no batch path).
    #[test]
    fn partial_batch_matches_sparse_trajectory() {
        let g = Graph::grid(16, 16);
        let n = g.node_count();
        let init: Vec<u8> = (0..n).map(|v| ((v * 7) % 3 != 0) as u8 * 2).collect();
        let mut dense = Execution::new(&Promote, &g, init.clone(), 3);
        let mut sparse = ExecutionBuilder::new(&Promote, &g)
            .seed(3)
            .signal_mode(SignalMode::Sparse)
            .initial(init);
        let mut sched_a = SynchronousScheduler;
        let mut sched_b = SynchronousScheduler;
        for step in 0..4 {
            let a = dense.step_with(&mut sched_a);
            let b = sparse.step_with(&mut sched_b);
            assert_eq!(a, b, "step {step}");
            assert_eq!(dense.configuration(), sparse.configuration());
        }
        assert_eq!(dense.counters(), sparse.counters());
        assert!(dense.validate_incremental_sensing());
    }

    #[test]
    fn unbounded_algorithms_fall_back_to_sparse() {
        /// A counter with an unbounded state space (no dense hint).
        struct Count;
        impl Algorithm for Count {
            type State = u64;
            type Output = u64;
            fn output(&self, s: &u64) -> Option<u64> {
                Some(*s)
            }
            fn transition(&self, s: &u64, _: &Signal<u64>, _: &mut dyn RngCore) -> u64 {
                s + 1
            }
        }
        let g = Graph::path(2);
        let mut exec = Execution::new(&Count, &g, vec![0, 10], 0);
        assert!(!exec.uses_dense_signals());
        let mut sched = SynchronousScheduler;
        exec.run_rounds(&mut sched, 3);
        assert_eq!(exec.configuration(), &[3, 13]);
    }
}

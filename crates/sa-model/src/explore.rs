//! Exhaustive exploration of the global configuration space.
//!
//! Random sweeping samples trajectories; this module *enumerates* them. For a
//! finite algorithm on a tiny graph it builds the full transition system of
//! global configurations under the distributed (any-subset) daemon and
//! certifies the two properties that define self-stabilization:
//!
//! - **closure** — every successor of a legitimate configuration is
//!   legitimate, and
//! - **convergence** — every explored configuration reaches the legitimate
//!   set under every *fair* schedule (each node activated infinitely often).
//!
//! On violation it reconstructs a minimal counterexample trace — a start
//! configuration plus an activation-set sequence — that the caller can render
//! and replay through [`Execution`](crate::executor::Execution).
//!
//! # State encoding
//!
//! Local states are interned into a dynamically grown *palette* (a
//! `state → u16` index, the same palette-index idea the binary checkpoint
//! codec uses); a global configuration is `n` palette indices. Configuration
//! `id` occupies `n` consecutive `u16`s of one flat arena, and the visited set
//! is an open-addressed table of `u32` ids over that arena, so each
//! configuration is stored exactly once.
//!
//! # The successor graph
//!
//! The breadth-first search is the only pass that evaluates transitions. For
//! every configuration it records the mask of enabled nodes and the successor
//! ids, in enumeration order, as a compressed sparse row (one `u32` per
//! edge). The convergence check and the trace reconstruction read these
//! arrays instead of re-evaluating anything. An edge's activation set is not
//! stored: in a deterministic relation edge `j` of a configuration is
//! odometer combination `j + 1` over its enabled nodes (see below), so its
//! activation is the bits of `j + 1` deposited into the enabled mask. The
//! passes that need activations (fair-cycle search and trace reconstruction)
//! only run on deterministic relations; randomized ones need only the ids.
//!
//! Budgeting is therefore simple: the search holds `2n + 37` to `2n + 45`
//! bytes per configuration (arena `2n`, id table 8–16, legitimacy flag 1,
//! parent id and activation 12, edge offset 8, enabled mask 8) plus 4 bytes
//! per edge. The fair-schedule pass adds 13 to 33 bytes per configuration
//! while it runs (Tarjan's arrays and depth-first stack, then the
//! per-component cover).
//!
//! # Activation reduction
//!
//! Under the distributed daemon a step may activate *any* non-empty node
//! subset, so naively each configuration has `2^n - 1` successors. Two facts
//! cut this down without losing any reachable configuration or any
//! scheduler freedom (the soundness argument is spelled out in
//! `docs/verify.md`):
//!
//! 1. **Targets are per-node functions of the configuration.** A node's next
//!    state depends only on its own state and its signal — never on which
//!    other nodes are activated in the same step (simultaneous commit). So
//!    one transition evaluation per node per configuration yields every
//!    successor: the step under activation set `A` is "replace `C[v]` by
//!    `target(v)` for `v ∈ A`".
//! 2. **Activating a disabled node is a no-op.** If `target(v) = C[v]` the
//!    step reaches the same configuration whether or not `v ∈ A`. The
//!    successor *set* is therefore `{ C[A ← targets] : ∅ ≠ A ⊆ enabled(C) }`
//!    — `2^k - 1` configurations for `k = |enabled(C)|`, plus an implicit
//!    self-loop (activating only disabled nodes) at every configuration.
//!
//! Successors are enumerated by an odometer with one digit per enabled node
//! (ascending): digit `0` leaves the node out, digit `d` activates it with
//! its `d`-th target. The digits count up from the all-zero combination
//! (the implicit no-op, skipped), so in a deterministic relation, where
//! every digit is binary, combination `c` activates exactly the enabled
//! nodes selected by the bits of `c`.
//!
//! Randomized algorithms get one target *set* per node, sampled from a fixed
//! number of seeded coin tapes ([`ExploreConfig::coin_tapes`]); the explored
//! relation is then an under-approximation and the report is downgraded
//! accordingly (see [`ConvergenceMode`]).
//!
//! # Fair-schedule convergence
//!
//! Because of the implicit self-loops, "some infinite execution avoids the
//! legitimate set L" is not enough for a violation — the execution must be
//! *fair*. A fair execution that avoids `L` forever eventually stays inside
//! one strongly connected component `K` of the real-edge transition graph
//! restricted to the illegitimate states, and every node must either change
//! state on some intra-`K` edge it is activated in, or be *disabled*
//! somewhere in `K` (a no-op activation satisfies fairness for it). So `K`
//! supports a fair trap iff
//!
//! ```text
//! cover(K) = ⋃ {A : intra-K edge with activation A} ∪ {v : v disabled at some s ∈ K}
//! ```
//!
//! equals the full node set. Singleton components have no real self-loops
//! (an activated enabled node always changes the configuration), so their
//! cover is full exactly when the configuration is *silent* (no node
//! enabled) — a deadlock. Terminal components of the illegitimate subgraph
//! always have full cover (every enabled node contributes its singleton
//! activation edge), so this check subsumes backward reachability from `L`.
//! The check runs Tarjan's algorithm, iteratively, over the stored successor
//! graph.

use crate::algorithm::Algorithm;
use crate::graph::{Graph, NodeId};
use crate::signal::Signal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;

/// Default configuration budget when neither the spec nor
/// `SA_VERIFY_MAX_STATES` says otherwise.
pub const DEFAULT_MAX_STATES: usize = 2_000_000;

/// Default number of seeded coin tapes used to sample the targets of a
/// randomized transition.
pub const DEFAULT_COIN_TAPES: u32 = 4;

/// Hard cap on the node count: activation sets are `u64` bitmasks.
pub const MAX_NODES: usize = 64;

/// Per-configuration successor cap (`Π (|targets_v| + 1) - 1` over enabled
/// nodes). Exceeding it aborts the run rather than silently truncating.
const MAX_BRANCH: u64 = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

/// A configuration-normalization hook: quotients the explored space by a
/// transition-equivariant, oracle-invariant symmetry (see [`explore`]).
pub type NormalizeFn<'a, S> = &'a dyn Fn(&mut Vec<S>);

/// Knobs for an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Abort with [`ExploreError::BudgetExceeded`] when the visited set
    /// would grow past this many configurations.
    pub max_states: usize,
    /// Coin tapes per (configuration, node) for randomized transitions;
    /// ignored for deterministic algorithms.
    pub coin_tapes: u32,
    /// Invoke the progress callback every this many expanded
    /// configurations; `0` disables progress reporting.
    pub progress_stride: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: DEFAULT_MAX_STATES,
            coin_tapes: DEFAULT_COIN_TAPES,
            progress_stride: 0,
        }
    }
}

/// Progress snapshot handed to the callback during exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreProgress {
    /// Configurations interned so far.
    pub states: usize,
    /// Configurations fully expanded so far.
    pub expanded: usize,
    /// Transition edges generated so far.
    pub edges: u64,
}

/// Why an exploration aborted without a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The graph has more than [`MAX_NODES`] nodes.
    TooManyNodes {
        /// Node count of the offending graph.
        nodes: usize,
    },
    /// More than `u16::MAX` distinct local states appeared.
    PaletteOverflow,
    /// The visited set outgrew [`ExploreConfig::max_states`].
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// One configuration had more successors than the internal branch cap.
    BranchingOverflow {
        /// The successor count that tripped the cap.
        successors: u64,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyNodes { nodes } => write!(
                f,
                "graph has {nodes} nodes; exhaustive verification supports at most {MAX_NODES}"
            ),
            ExploreError::PaletteOverflow => {
                write!(f, "more than 65535 distinct local states appeared")
            }
            ExploreError::BudgetExceeded { budget } => write!(
                f,
                "configuration budget exceeded: more than {budget} reachable configurations \
                 (raise the spec's max_states or SA_VERIFY_MAX_STATES, or shrink the instance)"
            ),
            ExploreError::BranchingOverflow { successors } => write!(
                f,
                "a single configuration has {successors} successors, over the {MAX_BRANCH} cap"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// How the convergence verdict was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceMode {
    /// Deterministic transition relation: full fair-schedule analysis
    /// (trap-SCC search). `Certified` means *every* fair schedule converges.
    FairSchedule,
    /// Randomized transition relation sampled from coin tapes: only
    /// *possible convergence* is checked (every explored configuration has
    /// some path to the legitimate set). A scheduler cannot force coin
    /// outcomes, so fair-cycle analysis would over-report violations; see
    /// `docs/verify.md` for what this mode does and does not certify.
    ReachabilityOnly,
}

/// Aggregate counts of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct configurations visited.
    pub states: usize,
    /// Seed configurations (after normalization / deduplication).
    pub seeds: usize,
    /// Transition edges generated (with multiplicity per source).
    pub edges: u64,
    /// Configurations satisfying the legitimacy oracle.
    pub legitimate: usize,
    /// Distinct local states interned into the palette.
    pub palette: usize,
    /// Whether the transition relation was exact (deterministic algorithm).
    pub deterministic: bool,
}

/// One step of a counterexample trace: the activation set and the
/// configuration it leads to (as palette indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Activated nodes, ascending.
    pub activation: Vec<NodeId>,
    /// The configuration after the step, as palette indices.
    pub config: Vec<u16>,
}

/// What a counterexample trace demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A legitimate configuration with an illegitimate successor.
    Closure,
    /// A fair cycle through illegitimate configurations.
    FairCycle,
    /// A silent illegitimate configuration (no node enabled).
    Deadlock,
    /// A configuration with no path to the legitimate set
    /// (reachability-only mode).
    LegitimacyUnreachable,
}

impl ViolationKind {
    /// Stable lowercase label used in JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Closure => "closure",
            ViolationKind::FairCycle => "fair-cycle",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LegitimacyUnreachable => "legitimacy-unreachable",
        }
    }
}

/// How a node's fairness obligation is discharged inside the cycle of a
/// [`ViolationKind::FairCycle`] trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessKind {
    /// The node is activated (and changes state) at the witnessing step.
    StateChange,
    /// The node is disabled at the witnessing step's source configuration,
    /// so its activation there is a configuration no-op.
    NoOp,
}

/// Per-node fairness certificate entry for a fair-cycle trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessWitness {
    /// The node whose fairness obligation this discharges.
    pub node: NodeId,
    /// Index into [`Trace::steps`] of the witnessing step.
    pub step: usize,
    /// How the obligation is discharged.
    pub kind: WitnessKind,
}

/// A minimal counterexample: a start configuration plus an activation-set
/// sequence. Configurations are palette indices into
/// [`ExploreReport::palette`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// What the trace demonstrates.
    pub kind: ViolationKind,
    /// The start configuration, as palette indices.
    pub start: Vec<u16>,
    /// The steps, in order.
    pub steps: Vec<TraceStep>,
    /// For [`ViolationKind::FairCycle`]: index into `steps` where the cycle
    /// begins. `steps[cycle_start..]` leads from the cycle entry
    /// configuration back to itself; repeating it forever is a fair
    /// schedule that never reaches the legitimate set.
    pub cycle_start: Option<usize>,
    /// For [`ViolationKind::FairCycle`]: one witness per node proving the
    /// cycle is fair.
    pub fairness: Vec<FairnessWitness>,
    /// Human-oriented one-line description.
    pub note: String,
}

/// Verdict for one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyResult {
    /// The property holds over the explored relation.
    Certified,
    /// The property fails; the trace demonstrates it.
    Violated(Box<Trace>),
}

impl PropertyResult {
    /// `true` when the property holds.
    pub fn is_certified(&self) -> bool {
        matches!(self, PropertyResult::Certified)
    }

    /// The counterexample trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            PropertyResult::Certified => None,
            PropertyResult::Violated(t) => Some(t),
        }
    }
}

/// The full result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport<S> {
    /// Aggregate counts.
    pub stats: ExploreStats,
    /// The interned local-state palette, in discovery order. Trace
    /// configurations index into this.
    pub palette: Vec<S>,
    /// Closure verdict.
    pub closure: PropertyResult,
    /// Convergence verdict.
    pub convergence: PropertyResult,
    /// How the convergence verdict was computed.
    pub convergence_mode: ConvergenceMode,
}

impl<S: Clone> ExploreReport<S> {
    /// Decodes a palette-index configuration back to states.
    pub fn decode(&self, config: &[u16]) -> Vec<S> {
        config
            .iter()
            .map(|&i| self.palette[i as usize].clone())
            .collect()
    }

    /// `true` when both properties are certified.
    pub fn certified(&self) -> bool {
        self.closure.is_certified() && self.convergence.is_certified()
    }
}

/// Explores the configuration space reachable from `seeds` and certifies
/// closure and convergence with respect to `oracle`.
///
/// `normalize` quotients the space by a transition-equivariant,
/// oracle-invariant symmetry (e.g. min-plus-one's global clock shift); every
/// interned configuration is normalized first. Pass `None` for algorithms
/// with finite state palettes.
///
/// The `progress` callback fires every [`ExploreConfig::progress_stride`]
/// expanded configurations (never, when the stride is `0`).
pub fn explore<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    seeds: &mut dyn Iterator<Item = Vec<A::State>>,
    oracle: &dyn Fn(&Graph, &[A::State]) -> bool,
    normalize: Option<NormalizeFn<'_, A::State>>,
    config: &ExploreConfig,
    progress: &mut dyn FnMut(ExploreProgress),
) -> Result<ExploreReport<A::State>, ExploreError> {
    let mut space = Space::new(alg, graph, oracle, normalize, config)?;
    let (seed_count, closure_violation) = space.build(seeds, config, progress)?;

    let legitimate = space.legit.iter().filter(|&&l| l).count();
    let closure = match closure_violation {
        None => PropertyResult::Certified,
        Some((src, act, succ)) => {
            PropertyResult::Violated(Box::new(space.closure_trace(src, act, succ)))
        }
    };
    let (convergence, convergence_mode) = if space.deterministic {
        (space.fair_convergence(), ConvergenceMode::FairSchedule)
    } else {
        (
            space.reachability_convergence(),
            ConvergenceMode::ReachabilityOnly,
        )
    };

    Ok(ExploreReport {
        stats: ExploreStats {
            states: space.store.len,
            seeds: seed_count,
            edges: space.succ_ids.len() as u64,
            legitimate,
            palette: space.palette.len(),
            deterministic: space.deterministic,
        },
        palette: space.palette,
        closure,
        convergence,
        convergence_mode,
    })
}

fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn mask_nodes(mask: u64) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut bits = mask;
    while bits != 0 {
        out.push(bits.trailing_zeros() as NodeId);
        bits &= bits - 1;
    }
    out
}

/// Scatters the low bits of `bits` onto the set bits of `mask`, lowest
/// first (the software form of the x86 `pdep` instruction).
fn deposit(mut bits: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    while bits != 0 && mask != 0 {
        let lowest = mask & mask.wrapping_neg();
        if bits & 1 != 0 {
            out |= lowest;
        }
        bits >>= 1;
        mask &= mask - 1;
    }
    out
}

const EMPTY_SLOT: u32 = u32::MAX;

/// The visited set. Configuration `id`'s palette indices are
/// `keys[id * n..(id + 1) * n]`; `slots` is a linear-probing table of ids
/// over that arena, kept at most half full.
struct ConfigStore {
    n: usize,
    len: usize,
    keys: Vec<u16>,
    slots: Vec<u32>,
}

impl ConfigStore {
    fn new(n: usize) -> Self {
        ConfigStore {
            n,
            len: 0,
            keys: Vec::new(),
            slots: vec![EMPTY_SLOT; 16],
        }
    }

    fn key(&self, id: u32) -> &[u16] {
        let at = id as usize * self.n;
        &self.keys[at..at + self.n]
    }

    /// Home slot of `key`: a multiply-rotate hash, read from its high bits.
    /// The keys are palette indices the explorer generates itself, so no
    /// collision-resistant hasher is needed.
    fn home(&self, key: &[u16]) -> usize {
        let mut h = 0u64;
        for &k in key {
            h = (h.rotate_left(5) ^ u64::from(k)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id of `key`, or the free slot where it belongs.
    fn find(&self, key: &[u16]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                EMPTY_SLOT => return Err(slot),
                id if self.key(id) == key => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends `key` under the next id at `slot`, a free slot returned by
    /// [`find`](Self::find) for the same key.
    fn insert(&mut self, slot: usize, key: &[u16]) -> u32 {
        let id = self.len as u32;
        self.keys.extend_from_slice(key);
        self.slots[slot] = id;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.slots = vec![EMPTY_SLOT; self.slots.len() * 2];
            for id in 0..self.len as u32 {
                let slot = self.find(self.key(id)).expect_err("ids have distinct keys");
                self.slots[slot] = id;
            }
        }
        id
    }
}

/// Buffers reused from one expansion to the next.
struct Scratch<S> {
    hood: Vec<NodeId>,
    /// The configuration being expanded.
    cfg: Vec<S>,
    /// Enabled nodes, ascending.
    nodes: Vec<NodeId>,
    /// `nodes[j]`'s distinct non-identity targets are
    /// `targets[bounds[j]..bounds[j + 1]]`.
    bounds: Vec<usize>,
    targets: Vec<S>,
    /// `targets` as palette indices (only without a normalizer).
    target_ids: Vec<u16>,
    /// Odometer digit per enabled node.
    digits: Vec<usize>,
    /// The successor being built, as palette indices and (with a
    /// normalizer) as states.
    key: Vec<u16>,
    succ: Vec<S>,
}

impl<S> Scratch<S> {
    fn new() -> Self {
        Scratch {
            hood: Vec::new(),
            cfg: Vec::new(),
            nodes: Vec::new(),
            bounds: Vec::new(),
            targets: Vec::new(),
            target_ids: Vec::new(),
            digits: Vec::new(),
            key: Vec::new(),
            succ: Vec::new(),
        }
    }
}

/// A closure violation found by the search: `(legitimate source,
/// activation, illegitimate successor)`.
type ClosureViolation = (u32, u64, u32);

struct Space<'a, A: Algorithm> {
    alg: &'a A,
    graph: &'a Graph,
    oracle: &'a dyn Fn(&Graph, &[A::State]) -> bool,
    normalize: Option<NormalizeFn<'a, A::State>>,
    deterministic: bool,
    coin_tapes: u32,
    max_states: usize,
    n: usize,
    full_mask: u64,
    palette: Vec<A::State>,
    palette_index: HashMap<A::State, u16>,
    store: ConfigStore,
    legit: Vec<bool>,
    parent: Vec<u32>,
    parent_act: Vec<u64>,
    /// Enabled-node mask per expanded configuration.
    enabled: Vec<u64>,
    /// The successor graph: configuration `id`'s successor ids are
    /// `succ_ids[succ_offsets[id]..succ_offsets[id + 1]]`, in enumeration
    /// order.
    succ_offsets: Vec<usize>,
    succ_ids: Vec<u32>,
}

impl<'a, A: Algorithm> Space<'a, A> {
    fn new(
        alg: &'a A,
        graph: &'a Graph,
        oracle: &'a dyn Fn(&Graph, &[A::State]) -> bool,
        normalize: Option<NormalizeFn<'a, A::State>>,
        config: &ExploreConfig,
    ) -> Result<Self, ExploreError> {
        let n = graph.node_count();
        if n > MAX_NODES {
            return Err(ExploreError::TooManyNodes { nodes: n });
        }
        Ok(Space {
            alg,
            graph,
            oracle,
            normalize,
            deterministic: alg.transition_is_deterministic(),
            coin_tapes: config.coin_tapes.max(1),
            max_states: config.max_states,
            n,
            full_mask: full_mask(n),
            palette: Vec::new(),
            palette_index: HashMap::new(),
            store: ConfigStore::new(n),
            legit: Vec::new(),
            parent: Vec::new(),
            parent_act: Vec::new(),
            enabled: Vec::new(),
            succ_offsets: vec![0],
            succ_ids: Vec::new(),
        })
    }

    /// Interns the seeds, then expands every configuration breadth-first,
    /// recording the successor graph. Returns the number of distinct seeds
    /// and the first closure violation met.
    fn build(
        &mut self,
        seeds: &mut dyn Iterator<Item = Vec<A::State>>,
        config: &ExploreConfig,
        progress: &mut dyn FnMut(ExploreProgress),
    ) -> Result<(usize, Option<ClosureViolation>), ExploreError> {
        let mut scratch = Scratch::new();
        let mut seed_count = 0usize;
        for mut seed in seeds {
            debug_assert_eq!(seed.len(), self.n, "seed configuration has wrong length");
            let (_, fresh) = self.intern_states(&mut seed, &mut scratch.key)?;
            if fresh {
                seed_count += 1;
            }
        }

        // Processing ids in discovery order *is* the FIFO order, so parent
        // chains are shortest-path (in steps) from some seed.
        let mut closure_violation = None;
        let mut id = 0u32;
        while (id as usize) < self.store.len {
            self.expand(id, &mut scratch, &mut closure_violation)?;
            id += 1;
            let expanded = id as usize;
            if config.progress_stride != 0 && expanded.is_multiple_of(config.progress_stride) {
                progress(ExploreProgress {
                    states: self.store.len,
                    expanded,
                    edges: self.succ_ids.len() as u64,
                });
            }
        }
        Ok((seed_count, closure_violation))
    }

    fn intern_state(&mut self, s: &A::State) -> Result<u16, ExploreError> {
        if let Some(&i) = self.palette_index.get(s) {
            return Ok(i);
        }
        if self.palette.len() > u16::MAX as usize {
            return Err(ExploreError::PaletteOverflow);
        }
        let i = self.palette.len() as u16;
        self.palette.push(s.clone());
        self.palette_index.insert(s.clone(), i);
        Ok(i)
    }

    /// Normalizes `cfg`, interns its states into `key` and interns the
    /// configuration; returns `(id, freshly_interned)`.
    fn intern_states(
        &mut self,
        cfg: &mut Vec<A::State>,
        key: &mut Vec<u16>,
    ) -> Result<(u32, bool), ExploreError> {
        if let Some(norm) = self.normalize {
            norm(cfg);
        }
        key.clear();
        for s in cfg.iter() {
            key.push(self.intern_state(s)?);
        }
        self.intern_key(key, Some(cfg))
    }

    /// Interns the configuration `key` and, when it is fresh, classifies it
    /// (`cfg` is its decoded form, if the caller has it); returns
    /// `(id, freshly_interned)`.
    fn intern_key(
        &mut self,
        key: &[u16],
        cfg: Option<&[A::State]>,
    ) -> Result<(u32, bool), ExploreError> {
        let slot = match self.store.find(key) {
            Ok(id) => return Ok((id, false)),
            Err(slot) => slot,
        };
        // Ids are `u32`s below the `EMPTY_SLOT`/`NO_PARENT` sentinel,
        // whatever budget the spec asks for.
        if self.store.len >= self.max_states.min(EMPTY_SLOT as usize) {
            return Err(ExploreError::BudgetExceeded {
                budget: self.max_states,
            });
        }
        let id = self.store.insert(slot, key);
        let legit = match cfg {
            Some(cfg) => (self.oracle)(self.graph, cfg),
            None => (self.oracle)(self.graph, &self.decode(id)),
        };
        self.legit.push(legit);
        self.parent.push(NO_PARENT);
        self.parent_act.push(0);
        Ok((id, true))
    }

    fn decode(&self, id: u32) -> Vec<A::State> {
        self.store
            .key(id)
            .iter()
            .map(|&i| self.palette[i as usize].clone())
            .collect()
    }

    fn config(&self, id: u32) -> Vec<u16> {
        self.store.key(id).to_vec()
    }

    /// The successor ids of configuration `id`.
    fn succs(&self, id: u32) -> &[u32] {
        &self.succ_ids[self.succ_offsets[id as usize]..self.succ_offsets[id as usize + 1]]
    }

    /// The activation set of edge `j` of configuration `id`, decoded from
    /// the edge ordinal (deterministic relations only).
    fn activation(&self, id: u32, j: usize) -> u64 {
        debug_assert!(
            self.deterministic,
            "edge activations need a deterministic relation"
        );
        deposit(j as u64 + 1, self.enabled[id as usize])
    }

    /// Evaluates every node's transition at `x.cfg`: fills `x.nodes`,
    /// `x.bounds` and `x.targets` with the enabled nodes and their distinct
    /// non-identity targets.
    fn evaluate(&self, x: &mut Scratch<A::State>) {
        x.nodes.clear();
        x.bounds.clear();
        x.bounds.push(0);
        x.targets.clear();
        let tapes = if self.deterministic {
            1
        } else {
            self.coin_tapes
        };
        for v in 0..self.n {
            self.graph.closed_neighborhood_into(v, &mut x.hood);
            let signal = Signal::from_states(x.hood.iter().map(|&u| x.cfg[u].clone()));
            let start = x.targets.len();
            for tape in 0..tapes {
                // A fresh seeded PRNG per (node, tape): the compat rand
                // rejection-samples ranges, so tapes must be real streams.
                let mut rng = StdRng::seed_from_u64(0x5EED_0000_0000_0000u64 ^ u64::from(tape));
                let t = self.alg.transition(&x.cfg[v], &signal, &mut rng);
                if t != x.cfg[v] && !x.targets[start..].contains(&t) {
                    x.targets.push(t);
                }
            }
            if x.targets.len() > start {
                x.nodes.push(v);
                x.bounds.push(x.targets.len());
            }
        }
    }

    /// Expands configuration `id`: evaluates its transitions once, then
    /// interns every successor under the activation reduction, one per
    /// non-empty `(activation ⊆ enabled, target choice)` combination in
    /// odometer order (nodes ascending, inactive digit first), and records
    /// the edges.
    fn expand(
        &mut self,
        id: u32,
        x: &mut Scratch<A::State>,
        closure_violation: &mut Option<ClosureViolation>,
    ) -> Result<(), ExploreError> {
        x.cfg.clear();
        x.cfg.extend(
            self.store
                .key(id)
                .iter()
                .map(|&i| self.palette[i as usize].clone()),
        );
        self.evaluate(x);
        let k = x.nodes.len();
        let mut total = 1u64;
        for w in x.bounds.windows(2) {
            total = total.saturating_mul((w[1] - w[0]) as u64 + 1);
            if total > MAX_BRANCH {
                return Err(ExploreError::BranchingOverflow { successors: total });
            }
        }
        // Without a normalizer the targets are interned up front (in the
        // order the successors would first show them), and successors are
        // built in index space.
        x.target_ids.clear();
        if self.normalize.is_none() {
            for t in &x.targets {
                x.target_ids.push(self.intern_state(t)?);
            }
        }
        self.enabled
            .push(x.nodes.iter().fold(0u64, |mask, &v| mask | (1u64 << v)));

        let src_legit = self.legit[id as usize];
        x.digits.clear();
        x.digits.resize(k, 0);
        'combinations: loop {
            let mut pos = 0;
            loop {
                if pos == k {
                    break 'combinations;
                }
                x.digits[pos] += 1;
                if x.digits[pos] <= x.bounds[pos + 1] - x.bounds[pos] {
                    break;
                }
                x.digits[pos] = 0;
                pos += 1;
            }
            let mut act = 0u64;
            let (sid, fresh) = if self.normalize.is_none() {
                x.key.clear();
                x.key.extend_from_slice(self.store.key(id));
                for (j, &d) in x.digits.iter().enumerate() {
                    if d != 0 {
                        let v = x.nodes[j];
                        act |= 1u64 << v;
                        x.key[v] = x.target_ids[x.bounds[j] + d - 1];
                    }
                }
                self.intern_key(&x.key, None)?
            } else {
                x.succ.clone_from(&x.cfg);
                for (j, &d) in x.digits.iter().enumerate() {
                    if d != 0 {
                        let v = x.nodes[j];
                        act |= 1u64 << v;
                        x.succ[v] = x.targets[x.bounds[j] + d - 1].clone();
                    }
                }
                self.intern_states(&mut x.succ, &mut x.key)?
            };
            self.succ_ids.push(sid);
            if fresh {
                self.parent[sid as usize] = id;
                self.parent_act[sid as usize] = act;
            }
            if src_legit && !self.legit[sid as usize] && closure_violation.is_none() {
                *closure_violation = Some((id, act, sid));
            }
        }
        self.succ_offsets.push(self.succ_ids.len());
        Ok(())
    }

    /// The parent-pointer chain from a seed to `id`, as trace steps.
    /// Returns `(start configuration, steps ending at id)`.
    fn seed_path(&self, id: u32) -> (Vec<u16>, Vec<TraceStep>) {
        let mut chain = Vec::new();
        let mut cur = id;
        while self.parent[cur as usize] != NO_PARENT {
            chain.push(cur);
            cur = self.parent[cur as usize];
        }
        chain.reverse();
        let start = self.config(cur);
        let steps = chain
            .into_iter()
            .map(|c| TraceStep {
                activation: mask_nodes(self.parent_act[c as usize]),
                config: self.config(c),
            })
            .collect();
        (start, steps)
    }

    fn closure_trace(&self, src: u32, act: u64, succ: u32) -> Trace {
        // The minimal closure counterexample is the single violating step:
        // `src` is itself legitimate, so no lead-in is needed.
        Trace {
            kind: ViolationKind::Closure,
            start: self.config(src),
            steps: vec![TraceStep {
                activation: mask_nodes(act),
                config: self.config(succ),
            }],
            cycle_start: None,
            fairness: Vec::new(),
            note: format!(
                "legitimate configuration #{src} steps to illegitimate configuration #{succ} \
                 under activation {:?}",
                mask_nodes(act)
            ),
        }
    }

    /// Fair-schedule convergence: find a trap SCC of the illegitimate
    /// subgraph (cover = all nodes) or certify there is none.
    fn fair_convergence(&self) -> PropertyResult {
        let (comp, comp_count) = self.tarjan_illegitimate();
        if comp_count == 0 {
            return PropertyResult::Certified;
        }
        // Cover sweep: per component, the union of intra-component
        // activation masks and of disabled-node masks.
        let mut cover = vec![0u64; comp_count];
        let mut size = vec![0u32; comp_count];
        let mut min_state = vec![u32::MAX; comp_count];
        for id in 0..self.store.len as u32 {
            let c = comp[id as usize];
            if c == u32::MAX {
                continue;
            }
            let cidx = c as usize;
            size[cidx] += 1;
            if min_state[cidx] == u32::MAX {
                min_state[cidx] = id;
            }
            cover[cidx] |= !self.enabled[id as usize] & self.full_mask;
            for (j, &sid) in self.succs(id).iter().enumerate() {
                if comp[sid as usize] == c {
                    cover[cidx] |= self.activation(id, j);
                }
            }
        }
        // Deterministic choice: the trap whose entry configuration has the
        // smallest id.
        let trap = (0..comp_count)
            .filter(|&c| cover[c] == self.full_mask)
            .min_by_key(|&c| min_state[c]);
        let Some(trap) = trap else {
            return PropertyResult::Certified;
        };
        let entry = min_state[trap];
        if size[trap] == 1 {
            // Singleton with full cover = silent illegitimate configuration.
            let (start, steps) = self.seed_path(entry);
            return PropertyResult::Violated(Box::new(Trace {
                kind: ViolationKind::Deadlock,
                start,
                steps,
                cycle_start: None,
                fairness: Vec::new(),
                note: format!(
                    "silent illegitimate configuration #{entry}: no node is enabled, \
                     so no schedule can make further progress"
                ),
            }));
        }
        self.fair_cycle_trace(&comp, trap as u32, entry)
    }

    /// Tarjan's SCC algorithm (iterative) over the illegitimate subgraph.
    /// Returns the component id per configuration (`u32::MAX` for
    /// legitimate ones) and the component count.
    fn tarjan_illegitimate(&self) -> (Vec<u32>, usize) {
        const UNVISITED: u32 = u32::MAX;
        let states = self.store.len;
        let mut index = vec![UNVISITED; states];
        let mut low = vec![0u32; states];
        let mut comp = vec![u32::MAX; states];
        let mut on_stack = vec![false; states];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;
        // Frame: (node, position of its next edge in `succ_ids`).
        let mut frames: Vec<(u32, usize)> = Vec::new();

        for root in 0..states as u32 {
            if self.legit[root as usize] || index[root as usize] != UNVISITED {
                continue;
            }
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            frames.push((root, self.succ_offsets[root as usize]));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                let end = self.succ_offsets[v as usize + 1];
                let mut next_child = None;
                while frame.1 < end {
                    let w = self.succ_ids[frame.1];
                    frame.1 += 1;
                    if !self.legit[w as usize] {
                        next_child = Some(w);
                        break;
                    }
                }
                match next_child {
                    Some(w) => {
                        if index[w as usize] == UNVISITED {
                            index[w as usize] = next_index;
                            low[w as usize] = next_index;
                            next_index += 1;
                            stack.push(w);
                            on_stack[w as usize] = true;
                            frames.push((w, self.succ_offsets[w as usize]));
                        } else if on_stack[w as usize] {
                            low[v as usize] = low[v as usize].min(index[w as usize]);
                        }
                    }
                    None => {
                        frames.pop();
                        if low[v as usize] == index[v as usize] {
                            loop {
                                let w = stack.pop().expect("tarjan stack underflow");
                                on_stack[w as usize] = false;
                                comp[w as usize] = comp_count;
                                if w == v {
                                    break;
                                }
                            }
                            comp_count += 1;
                        }
                        if let Some(frame) = frames.last() {
                            let p = frame.0;
                            low[p as usize] = low[p as usize].min(low[v as usize]);
                        }
                    }
                }
            }
        }
        (comp, comp_count as usize)
    }

    /// Builds the fair-cycle counterexample for trap component `trap`,
    /// entered at configuration `entry`: seed path, then a closed walk
    /// inside the component that discharges every node's fairness
    /// obligation (by a state-changing activation or by a no-op activation
    /// at a configuration where the node is disabled).
    fn fair_cycle_trace(&self, comp: &[u32], trap: u32, entry: u32) -> PropertyResult {
        let (start, mut steps) = self.seed_path(entry);
        let cycle_start = steps.len();
        let mut fairness: Vec<FairnessWitness> = Vec::new();
        let mut remaining = self.full_mask;
        let mut cur = entry;

        while remaining != 0 {
            let noop = !self.enabled[cur as usize] & self.full_mask & remaining;
            if noop != 0 {
                for v in mask_nodes(noop) {
                    fairness.push(FairnessWitness {
                        node: v,
                        step: steps.len(),
                        kind: WitnessKind::NoOp,
                    });
                    steps.push(TraceStep {
                        activation: vec![v],
                        config: self.config(cur),
                    });
                }
                remaining &= !noop;
                continue;
            }
            // Walk (inside the component) to the nearest configuration that
            // discharges some remaining node — by being disabled there, or
            // by an intra-component edge activating it.
            let (path, witness_edge) = self.bfs_to_witness(comp, trap, cur, remaining);
            for (act, sid) in path.into_iter().chain(witness_edge) {
                for v in mask_nodes(act & remaining) {
                    fairness.push(FairnessWitness {
                        node: v,
                        step: steps.len(),
                        kind: WitnessKind::StateChange,
                    });
                }
                remaining &= !act;
                steps.push(TraceStep {
                    activation: mask_nodes(act),
                    config: self.config(sid),
                });
                cur = sid;
            }
        }
        if cur != entry {
            for (act, sid) in self.bfs_path(comp, trap, cur, entry) {
                steps.push(TraceStep {
                    activation: mask_nodes(act),
                    config: self.config(sid),
                });
            }
        }
        let cycle_len = steps.len() - cycle_start;
        PropertyResult::Violated(Box::new(Trace {
            kind: ViolationKind::FairCycle,
            start,
            steps,
            cycle_start: Some(cycle_start),
            fairness,
            note: format!(
                "fair cycle of {cycle_len} steps through illegitimate configurations: \
                 repeating it activates every node infinitely often yet never reaches \
                 the legitimate set"
            ),
        }))
    }

    /// BFS inside component `trap` from `cur` to the nearest configuration
    /// with a witness for some node in `remaining`. Returns the edge path
    /// to that configuration plus, when the witness is an edge, the edge
    /// itself.
    #[allow(clippy::type_complexity)]
    fn bfs_to_witness(
        &self,
        comp: &[u32],
        trap: u32,
        cur: u32,
        remaining: u64,
    ) -> (Vec<(u64, u32)>, Option<(u64, u32)>) {
        let mut prev: HashMap<u32, (u32, u64)> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        prev.insert(cur, (cur, 0));
        queue.push_back(cur);
        while let Some(s) = queue.pop_front() {
            if s != cur && (!self.enabled[s as usize] & self.full_mask & remaining) != 0 {
                return (self.unwind(&prev, cur, s), None);
            }
            let mut witness: Option<(u64, u32)> = None;
            for (j, &sid) in self.succs(s).iter().enumerate() {
                if comp[sid as usize] != trap {
                    continue;
                }
                let act = self.activation(s, j);
                if act & remaining != 0 && witness.is_none() {
                    witness = Some((act, sid));
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(sid) {
                    e.insert((s, act));
                    queue.push_back(sid);
                }
            }
            if let Some(w) = witness {
                return (self.unwind(&prev, cur, s), Some(w));
            }
        }
        unreachable!("trap component cover guarantees a witness for every node")
    }

    /// BFS inside component `trap` from `cur` to `dest`; returns the edge
    /// path. Strong connectivity of the component guarantees one exists.
    fn bfs_path(&self, comp: &[u32], trap: u32, cur: u32, dest: u32) -> Vec<(u64, u32)> {
        let mut prev: HashMap<u32, (u32, u64)> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        prev.insert(cur, (cur, 0));
        queue.push_back(cur);
        while let Some(s) = queue.pop_front() {
            if s == dest {
                return self.unwind(&prev, cur, dest);
            }
            for (j, &sid) in self.succs(s).iter().enumerate() {
                if comp[sid as usize] == trap {
                    if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(sid) {
                        e.insert((s, self.activation(s, j)));
                        queue.push_back(sid);
                    }
                }
            }
        }
        unreachable!("trap component is strongly connected")
    }

    fn unwind(&self, prev: &HashMap<u32, (u32, u64)>, from: u32, to: u32) -> Vec<(u64, u32)> {
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, act) = prev[&cur];
            path.push((act, cur));
            cur = p;
        }
        path.reverse();
        path
    }

    /// Reachability-only convergence (randomized relations): every explored
    /// configuration must have some path to the legitimate set.
    fn reachability_convergence(&self) -> PropertyResult {
        let states = self.store.len;
        let mut reach = self.legit.clone();
        loop {
            let mut changed = false;
            for id in (0..states as u32).rev() {
                if reach[id as usize] {
                    continue;
                }
                if self.succs(id).iter().any(|&sid| reach[sid as usize]) {
                    reach[id as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stuck = (0..states as u32).find(|&id| !reach[id as usize]);
        let Some(stuck) = stuck else {
            return PropertyResult::Certified;
        };
        let (start, steps) = self.seed_path(stuck);
        PropertyResult::Violated(Box::new(Trace {
            kind: ViolationKind::LegitimacyUnreachable,
            start,
            steps,
            cycle_start: None,
            fairness: Vec::new(),
            note: format!(
                "configuration #{stuck} has no path to the legitimate set under the \
                 sampled transition relation"
            ),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::StateSpace;

    /// Deterministic toy: each node copies the minimum sensed state; the
    /// legitimate set is "all states equal".
    struct MinConsensus {
        values: u8,
    }

    impl Algorithm for MinConsensus {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, _state: &u8, signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            *signal.min_state().expect("non-empty signal")
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "min-consensus"
        }
    }

    impl StateSpace for MinConsensus {
        fn states(&self) -> Vec<u8> {
            (0..self.values).collect()
        }
    }

    fn all_configs(values: u8, n: usize) -> Vec<Vec<u8>> {
        let mut out = vec![vec![]];
        for _ in 0..n {
            out = out
                .into_iter()
                .flat_map(|c| {
                    (0..values).map(move |v| {
                        let mut c = c.clone();
                        c.push(v);
                        c
                    })
                })
                .collect();
        }
        out
    }

    fn uniform(_: &Graph, cfg: &[u8]) -> bool {
        cfg.windows(2).all(|w| w[0] == w[1])
    }

    #[test]
    fn min_consensus_certifies_on_a_path() {
        let alg = MinConsensus { values: 3 };
        let graph = Graph::path(3);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(3, 3).into_iter(),
            &uniform,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert_eq!(report.stats.states, 27);
        assert_eq!(report.stats.seeds, 27);
        assert_eq!(report.stats.legitimate, 3);
        assert!(report.closure.is_certified());
        assert!(report.convergence.is_certified());
        assert_eq!(report.convergence_mode, ConvergenceMode::FairSchedule);
    }

    /// Deterministic toy: each node copies the maximum sensed state.
    struct MaxConsensus;

    impl Algorithm for MaxConsensus {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, _state: &u8, signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            *signal.iter().max().expect("non-empty signal")
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "max-consensus"
        }
    }

    #[test]
    fn silent_illegitimate_state_yields_deadlock() {
        // Oracle: "no node holds 2". Max-consensus closes over the 2-free
        // sub-space, but [2, 2] is silent and illegitimate — a deadlock
        // trap the convergence check must find.
        let alg = MaxConsensus;
        let graph = Graph::path(2);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(3, 2).into_iter(),
            &|_, cfg: &[u8]| cfg.iter().all(|&v| v != 2),
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert!(report.closure.is_certified());
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::Deadlock);
        // The deadlock is the all-2 configuration.
        let cfg = report.decode(
            trace
                .steps
                .last()
                .map(|s| &s.config)
                .unwrap_or(&trace.start),
        );
        assert_eq!(cfg, vec![2, 2]);
    }

    /// A two-state toggle: every node always flips. Illegitimate states
    /// support a fair cycle (flip everything back and forth), so with the
    /// oracle "all equal" convergence must fail with a FairCycle trace.
    struct Toggle;

    impl Algorithm for Toggle {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, state: &u8, _signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            1 - *state
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "toggle"
        }
    }

    #[test]
    fn toggle_yields_fair_cycle_counterexample() {
        // Oracle: nothing is legitimate — every configuration toggles
        // forever, so the whole space is one trap SCC.
        let alg = Toggle;
        let graph = Graph::path(2);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(2, 2).into_iter(),
            &|_, _: &[u8]| false,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert_eq!(report.stats.legitimate, 0);
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::FairCycle);
        let cycle_start = trace.cycle_start.expect("cycle start");
        // The cycle is closed: the configuration after the last step equals
        // the configuration at the cycle entry.
        let entry = if cycle_start == 0 {
            trace.start.clone()
        } else {
            trace.steps[cycle_start - 1].config.clone()
        };
        assert_eq!(trace.steps.last().expect("steps").config, entry);
        // Every node has a fairness witness inside the cycle.
        for v in 0..2 {
            assert!(
                trace
                    .fairness
                    .iter()
                    .any(|w| w.node == v && w.step >= cycle_start),
                "node {v} has no fairness witness"
            );
        }
    }

    #[test]
    fn budget_guard_aborts() {
        let alg = MinConsensus { values: 3 };
        let graph = Graph::path(3);
        let config = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let err = explore(
            &alg,
            &graph,
            &mut all_configs(3, 3).into_iter(),
            &uniform,
            None,
            &config,
            &mut |_| {},
        )
        .expect_err("budget must trip");
        assert_eq!(err, ExploreError::BudgetExceeded { budget: 10 });
    }

    /// Builds the successor graph of every configuration over `values`
    /// local states and checks each stored edge: the activation decoded from
    /// the edge ordinal, applied to the source through
    /// [`Algorithm::transition`], must give the stored successor.
    fn assert_edges_replay<A: Algorithm<State = u8>>(alg: &A, graph: &Graph, values: u8) {
        let config = ExploreConfig::default();
        let mut space = Space::new(alg, graph, &uniform, None, &config).expect("space");
        space
            .build(
                &mut all_configs(values, graph.node_count()).into_iter(),
                &config,
                &mut |_| {},
            )
            .expect("build");
        assert!(space.deterministic);
        let mut rng = StdRng::seed_from_u64(0);
        let mut hood = Vec::new();
        let mut edges = 0;
        for id in 0..space.store.len as u32 {
            let cfg = space.decode(id);
            let enabled = space.enabled[id as usize];
            let succs = space.succs(id);
            assert_eq!(succs.len() as u64, (1u64 << enabled.count_ones()) - 1);
            for (j, &sid) in succs.iter().enumerate() {
                let act = space.activation(id, j);
                assert!(act != 0 && act & !enabled == 0, "edge {j} of #{id}");
                let mut next = cfg.clone();
                for v in mask_nodes(act) {
                    graph.closed_neighborhood_into(v, &mut hood);
                    let signal = Signal::from_states(hood.iter().map(|&u| cfg[u]));
                    next[v] = alg.transition(&cfg[v], &signal, &mut rng);
                    assert_ne!(next[v], cfg[v], "activated node {v} of #{id} is enabled");
                }
                assert_eq!(space.decode(sid), next, "edge {j} of configuration #{id}");
                edges += 1;
            }
        }
        assert!(edges > 0);
        assert_eq!(edges, space.succ_ids.len());
    }

    #[test]
    fn stored_edges_replay_through_the_transition_function() {
        assert_edges_replay(&MinConsensus { values: 3 }, &Graph::path(3), 3);
        assert_edges_replay(&MaxConsensus, &Graph::cycle(4), 3);
        assert_edges_replay(&Toggle, &Graph::path(3), 2);
    }

    /// Randomized toy: a node that senses disagreement redraws its bit from
    /// a coin; a node that senses agreement keeps it.
    struct CoinConsensus;

    impl Algorithm for CoinConsensus {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, state: &u8, signal: &Signal<u8>, rng: &mut dyn rand::RngCore) -> u8 {
            if signal.len() > 1 {
                (rng.next_u32() & 1) as u8
            } else {
                *state
            }
        }

        fn name(&self) -> &'static str {
            "coin-consensus"
        }
    }

    #[test]
    fn coin_consensus_certifies_possible_convergence() {
        let report = explore(
            &CoinConsensus,
            &Graph::path(3),
            &mut all_configs(2, 3).into_iter(),
            &uniform,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert!(!report.stats.deterministic);
        assert_eq!(report.convergence_mode, ConvergenceMode::ReachabilityOnly);
        assert_eq!(report.stats.states, 8);
        assert_eq!(report.stats.legitimate, 2);
        assert!(report.closure.is_certified());
        assert!(report.convergence.is_certified());
    }

    #[test]
    fn coin_consensus_on_the_wrong_value_is_unreachable() {
        // Oracle: "every node holds 1". From [0, 1] the coins can also
        // settle on [0, 0], which is silent, so the legitimate set is out of
        // reach from there.
        let report = explore(
            &CoinConsensus,
            &Graph::path(2),
            &mut std::iter::once(vec![0, 1]),
            &|_, cfg: &[u8]| cfg.iter().all(|&v| v == 1),
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert_eq!(report.convergence_mode, ConvergenceMode::ReachabilityOnly);
        assert_eq!(report.stats.states, 4);
        assert!(report.closure.is_certified());
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::LegitimacyUnreachable);
        assert_eq!(report.decode(&trace.start), vec![0, 1]);
        assert_eq!(trace.steps.len(), 1, "one step from the seed");
        assert_eq!(trace.steps[0].activation, vec![1]);
        assert_eq!(report.decode(&trace.steps[0].config), vec![0, 0]);
    }
}

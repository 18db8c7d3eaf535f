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
//! Local states are interned into a *palette* (a `state → u16` index, the
//! same palette-index idea the binary checkpoint codec uses); a global
//! configuration is `n` palette indices. The visited set holds each
//! configuration exactly once under a dense `u32` id, in one of two stores,
//! chosen from the seeds:
//!
//! - **Ranked** — a full space without a normalizer ([`Seeds::Full`]). The
//!   palette is the full space's, and configuration `id` is its mixed-radix
//!   rank over it, node 0 most significant: exactly the id lexicographic
//!   seeding would assign. Nothing is stored per configuration, seeding is
//!   an odometer that classifies every configuration, and a successor's id
//!   is `id + Σ (t_v − C[v]) · |Q|^(n−1−v)` over the activated nodes. A
//!   target outside the palette is an error
//!   ([`ExploreError::OutsidePalette`]), never a wrong id.
//! - **Hashed** — listed seeds ([`Seeds::Listed`]) and normalized full
//!   spaces. The palette grows as states appear, configuration `id`
//!   occupies `n` consecutive `u16`s of one flat arena, and an
//!   open-addressed table of ids over that arena finds it again.
//!
//! # The transition memo
//!
//! A node's targets depend only on its *local view*: its own palette index
//! and the set of palette indices in its closed neighbourhood (a [`Signal`]
//! is a set, and each coin tape is seeded by its tape index alone). The
//! search looks every view up in a per-exploration memo, a fixed-width
//! open-addressed table like the hashed store's, and evaluates the
//! transition only on a miss, so a lookup neither allocates nor hashes a
//! state. A miss interns its targets in (node, tape) order, the order a
//! memo-free search would first meet them, so the palette order does not
//! depend on the memo. A randomized miss runs tape 0 first, and skips the
//! other tapes when it drew no coin: they would return the same target.
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
//! Budgeting is therefore simple. The ranked store holds 17 bytes per
//! configuration (legitimacy flag 1, edge offset 8, enabled mask 8); the
//! hashed store `2n + 37` to `2n + 45` (arena `2n` and id table 8–16 on
//! top, and parent id and activation 12 for seed paths, which a ranked
//! space, all seeds, does not need). Both add 4 bytes per edge. The memo
//! has at most one entry per configuration and node, and in practice far
//! fewer (13,080 views for AlgAU's 810,000 configurations on a 4-cycle);
//! an entry costs its `2(Δ + 2)`-byte key, 8–16 bytes of table, an 8-byte
//! bound and 2 bytes per target (a normalized space keeps the target
//! states instead). The fair-schedule pass adds 13 to 33 bytes per
//! configuration while it runs (Tarjan's arrays and depth-first stack, then
//! the per-component cover).
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
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Default configuration budget when the spec gives no `max_states`.
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
    /// A transition of a [`Seeds::Full`] space led to a local state outside
    /// its palette, so the space is not closed and has no rank for the
    /// successor.
    OutsidePalette {
        /// The offending target state, as `{:?}`.
        state: String,
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
                 (raise the spec's max_states, or shrink the instance)"
            ),
            ExploreError::BranchingOverflow { successors } => write!(
                f,
                "a single configuration has {successors} successors, over the {MAX_BRANCH} cap"
            ),
            ExploreError::OutsidePalette { state } => write!(
                f,
                "a transition leads to state {state}, outside the full space's palette \
                 (the palette must be closed under transitions)"
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
#[derive(Debug, Clone, PartialEq)]
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

/// Where an exploration starts.
pub enum Seeds<'a, S> {
    /// The full product space: every configuration whose local states all
    /// come from the palette, seeded in lexicographic order over it (node 0
    /// most significant). Without a normalizer, configuration ids are these
    /// mixed-radix ranks and the palette must be closed under transitions
    /// ([`ExploreError::OutsidePalette`] otherwise).
    Full(&'a [S]),
    /// These configurations, in order (repeats are ignored).
    Listed(&'a mut dyn Iterator<Item = Vec<S>>),
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
    seeds: Seeds<'_, A::State>,
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
            states: space.store.len(),
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

/// An interning table of fixed-width `u16` keys: key `id` is
/// `keys[id * n..(id + 1) * n]`, and `slots` is a linear-probing table of
/// ids over that arena, kept at most half full. It holds the configurations
/// of a hashed space and the local views of the transition memo.
struct KeyStore {
    n: usize,
    len: usize,
    keys: Vec<u16>,
    slots: Vec<u32>,
}

impl KeyStore {
    fn new(n: usize) -> Self {
        KeyStore {
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

/// A full product space without a normalizer: configuration `id` is its
/// mixed-radix rank over the `q`-state palette, node 0 most significant, so
/// nothing is stored per configuration and a successor's id is arithmetic.
struct Ranked {
    q: u32,
    len: usize,
    /// `place[v] = q^(n - 1 - v)`, the weight of node `v`'s digit.
    place: Vec<u32>,
}

/// The visited set: ranked for a full space without a normalizer, hashed
/// for everything else.
enum Store {
    Ranked(Ranked),
    Hashed(KeyStore),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Ranked(ranked) => ranked.len,
            Store::Hashed(hashed) => hashed.len,
        }
    }

    /// Writes configuration `id`'s palette indices into `out`.
    fn key_into(&self, id: u32, out: &mut Vec<u16>) {
        out.clear();
        match self {
            Store::Ranked(ranked) => {
                out.resize(ranked.place.len(), 0);
                let mut rest = id;
                for digit in out.iter_mut().rev() {
                    *digit = (rest % ranked.q) as u16;
                    rest /= ranked.q;
                }
            }
            Store::Hashed(hashed) => out.extend_from_slice(hashed.key(id)),
        }
    }
}

/// Calls `f` on every configuration of `n` nodes over `palette`, in
/// lexicographic order with node 0 most significant.
fn for_each_product<S: Clone, E>(
    palette: &[S],
    n: usize,
    mut f: impl FnMut(&[S]) -> Result<(), E>,
) -> Result<(), E> {
    if palette.is_empty() && n > 0 {
        return Ok(());
    }
    let mut digits = vec![0usize; n];
    let mut cfg: Vec<S> = (0..n).map(|_| palette[0].clone()).collect();
    loop {
        f(&cfg)?;
        let mut v = n;
        loop {
            if v == 0 {
                return Ok(());
            }
            v -= 1;
            digits[v] += 1;
            if digits[v] < palette.len() {
                cfg[v] = palette[digits[v]].clone();
                break;
            }
            digits[v] = 0;
            cfg[v] = palette[0].clone();
        }
    }
}

/// Coin tape `tape` of a randomized transition: a fresh PRNG seeded by the
/// tape index alone (the compat rand rejection-samples ranges, so tapes
/// must be real streams). It notes whether the transition drew from it.
struct CoinTape {
    rng: StdRng,
    drawn: bool,
}

impl CoinTape {
    fn new(tape: u32) -> Self {
        CoinTape {
            rng: StdRng::seed_from_u64(0x5EED_0000_0000_0000u64 ^ u64::from(tape)),
            drawn: false,
        }
    }
}

impl RngCore for CoinTape {
    fn next_u32(&mut self) -> u32 {
        self.drawn = true;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.drawn = true;
        self.rng.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.drawn = true;
        self.rng.fill_bytes(dest)
    }
}

/// The transition memo. A node's targets depend only on its *local view*:
/// its own palette index and the set of palette indices in its closed
/// neighbourhood, because a [`Signal`] is a set and each coin tape is
/// seeded by its tape index alone. A view is a key of fixed width
/// `max_degree + 2`: the own index, then the sorted distinct neighbourhood
/// indices, padded by repeating the largest.
struct ViewMemo<S> {
    views: KeyStore,
    /// View `i`'s distinct non-identity targets, in tape order, are
    /// `target_ids` (without a normalizer) or `targets` (with one) over
    /// `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    target_ids: Vec<u16>,
    targets: Vec<S>,
    /// Node `v`'s closed neighbourhood is `hoods[hood_at[v]..hood_at[v + 1]]`.
    hood_at: Vec<usize>,
    hoods: Vec<NodeId>,
}

impl<S> ViewMemo<S> {
    fn new(graph: &Graph) -> Self {
        let mut hood_at = vec![0];
        let mut hoods = Vec::new();
        let mut hood = Vec::new();
        for v in 0..graph.node_count() {
            graph.closed_neighborhood_into(v, &mut hood);
            hoods.extend_from_slice(&hood);
            hood_at.push(hoods.len());
        }
        ViewMemo {
            views: KeyStore::new(graph.max_degree() + 2),
            bounds: vec![0],
            target_ids: Vec::new(),
            targets: Vec::new(),
            hood_at,
            hoods,
        }
    }

    fn hood(&self, v: NodeId) -> &[NodeId] {
        &self.hoods[self.hood_at[v]..self.hood_at[v + 1]]
    }

    /// Writes node `v`'s view of configuration `cfg` into `view`.
    fn view_into(&self, v: NodeId, cfg: &[u16], view: &mut Vec<u16>) {
        view.clear();
        view.push(cfg[v]);
        view.extend(self.hood(v).iter().map(|&u| cfg[u]));
        let set = &mut view[1..];
        set.sort_unstable();
        let mut distinct = 1;
        for i in 1..set.len() {
            if set[i] != set[distinct - 1] {
                set[distinct] = set[i];
                distinct += 1;
            }
        }
        let largest = set[distinct - 1];
        set[distinct..].fill(largest);
        view.resize(self.views.n, largest);
    }
}

/// Buffers reused from one expansion to the next.
struct Scratch<S> {
    /// The configuration being expanded, as palette indices and (with a
    /// normalizer) as states.
    src: Vec<u16>,
    cfg: Vec<S>,
    /// A node's view, and the targets of a memo miss.
    view: Vec<u16>,
    fresh: Vec<S>,
    /// Enabled nodes, ascending; `nodes[j]`'s targets are the memo's over
    /// `first[j]..first[j] + count[j]`.
    nodes: Vec<NodeId>,
    first: Vec<usize>,
    count: Vec<usize>,
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
            src: Vec::new(),
            cfg: Vec::new(),
            view: Vec::new(),
            fresh: Vec::new(),
            nodes: Vec::new(),
            first: Vec::new(),
            count: Vec::new(),
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
    /// Coin tapes per evaluation: 1 for a deterministic relation.
    tapes: u32,
    max_states: usize,
    n: usize,
    full_mask: u64,
    palette: Vec<A::State>,
    palette_index: HashMap<A::State, u16>,
    store: Store,
    memo: ViewMemo<A::State>,
    legit: Vec<bool>,
    /// Parent id and activation of each configuration a step discovered
    /// (`NO_PARENT` for seeds; empty for a ranked store, which is all
    /// seeds).
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
        let deterministic = alg.transition_is_deterministic();
        Ok(Space {
            alg,
            graph,
            oracle,
            normalize,
            deterministic,
            tapes: if deterministic {
                1
            } else {
                config.coin_tapes.max(1)
            },
            max_states: config.max_states,
            n,
            full_mask: full_mask(n),
            palette: Vec::new(),
            palette_index: HashMap::new(),
            store: Store::Hashed(KeyStore::new(n)),
            memo: ViewMemo::new(graph),
            legit: Vec::new(),
            parent: Vec::new(),
            parent_act: Vec::new(),
            enabled: Vec::new(),
            succ_offsets: vec![0],
            succ_ids: Vec::new(),
        })
    }

    /// Seeds the space, then expands every configuration breadth-first,
    /// recording the successor graph. Returns the number of distinct seeds
    /// and the first closure violation met.
    fn build(
        &mut self,
        seeds: Seeds<'_, A::State>,
        config: &ExploreConfig,
        progress: &mut dyn FnMut(ExploreProgress),
    ) -> Result<(usize, Option<ClosureViolation>), ExploreError> {
        let mut scratch = Scratch::new();
        let seed_count = match seeds {
            Seeds::Full(palette) if self.normalize.is_none() => self.seed_ranked(palette)?,
            Seeds::Full(palette) => {
                let mut count = 0;
                for_each_product(palette, self.n, |cfg| {
                    scratch.succ.clear();
                    scratch.succ.extend_from_slice(cfg);
                    if self.intern_states(&mut scratch.succ, &mut scratch.key)?.1 {
                        count += 1;
                    }
                    Ok(())
                })?;
                count
            }
            Seeds::Listed(seeds) => {
                let mut count = 0;
                for mut seed in seeds {
                    debug_assert_eq!(seed.len(), self.n, "seed configuration has wrong length");
                    if self.intern_states(&mut seed, &mut scratch.key)?.1 {
                        count += 1;
                    }
                }
                count
            }
        };

        // Processing ids in discovery order *is* the FIFO order, so parent
        // chains are shortest-path (in steps) from some seed.
        let mut closure_violation = None;
        let mut id = 0u32;
        while (id as usize) < self.store.len() {
            self.expand(id, &mut scratch, &mut closure_violation)?;
            id += 1;
            let expanded = id as usize;
            if config.progress_stride != 0 && expanded.is_multiple_of(config.progress_stride) {
                progress(ExploreProgress {
                    states: self.store.len(),
                    expanded,
                    edges: self.succ_ids.len() as u64,
                });
            }
        }
        Ok((seed_count, closure_violation))
    }

    /// Makes the store the ranked full space over `palette` and classifies
    /// every configuration, in rank order; returns the configuration count.
    /// Lexicographic seeding would intern the palette in its own order and
    /// give every configuration its rank as id, so the ids, the palette and
    /// the report are the hashed store's.
    fn seed_ranked(&mut self, palette: &[A::State]) -> Result<usize, ExploreError> {
        for s in palette {
            self.intern_state(s)?;
        }
        let states = self.palette.clone();
        let q = states.len();
        let len = (0..self.n)
            .try_fold(1usize, |len, _| len.checked_mul(q))
            .filter(|&len| len <= self.max_states.min(EMPTY_SLOT as usize))
            .ok_or(ExploreError::BudgetExceeded {
                budget: self.max_states,
            })?;
        let mut place = vec![1u32; self.n];
        for v in (1..self.n).rev() {
            place[v - 1] = place[v] * q as u32;
        }
        self.store = Store::Ranked(Ranked {
            q: q as u32,
            len,
            place,
        });
        self.legit.reserve_exact(len);
        self.enabled.reserve_exact(len);
        self.succ_offsets.reserve_exact(len);
        let (oracle, graph, legit) = (self.oracle, self.graph, &mut self.legit);
        for_each_product(&states, self.n, |cfg| {
            legit.push(oracle(graph, cfg));
            Ok::<(), ExploreError>(())
        })?;
        Ok(len)
    }

    /// The palette index of `s`, interning it if new. A ranked store's
    /// palette is closed: a new state there is an error.
    fn intern_state(&mut self, s: &A::State) -> Result<u16, ExploreError> {
        if let Some(&i) = self.palette_index.get(s) {
            return Ok(i);
        }
        if matches!(self.store, Store::Ranked(_)) {
            return Err(ExploreError::OutsidePalette {
                state: format!("{s:?}"),
            });
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

    /// Interns the configuration `key` into the hashed store and, when it is
    /// fresh, classifies it (`cfg` is its decoded form, if the caller has
    /// it); returns `(id, freshly_interned)`.
    fn intern_key(
        &mut self,
        key: &[u16],
        cfg: Option<&[A::State]>,
    ) -> Result<(u32, bool), ExploreError> {
        let Store::Hashed(store) = &mut self.store else {
            unreachable!("a ranked store holds every configuration from the start")
        };
        let slot = match store.find(key) {
            Ok(id) => return Ok((id, false)),
            Err(slot) => slot,
        };
        // Ids are `u32`s below the `EMPTY_SLOT`/`NO_PARENT` sentinel,
        // whatever budget the spec asks for.
        if store.len >= self.max_states.min(EMPTY_SLOT as usize) {
            return Err(ExploreError::BudgetExceeded {
                budget: self.max_states,
            });
        }
        let id = store.insert(slot, key);
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
        self.config(id)
            .iter()
            .map(|&i| self.palette[i as usize].clone())
            .collect()
    }

    fn config(&self, id: u32) -> Vec<u16> {
        let mut key = Vec::with_capacity(self.n);
        self.store.key_into(id, &mut key);
        key
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

    /// The memo entry of node `v`'s view of configuration `src`. A miss
    /// evaluates the transition on every coin tape, skipping the tapes after
    /// the first when it drew no coin (they would return the same target),
    /// and interns the distinct non-identity targets in tape order.
    fn view_entry(
        &mut self,
        v: NodeId,
        src: &[u16],
        view: &mut Vec<u16>,
        fresh: &mut Vec<A::State>,
    ) -> Result<u32, ExploreError> {
        self.memo.view_into(v, src, view);
        let slot = match self.memo.views.find(view) {
            Ok(entry) => return Ok(entry),
            Err(slot) => slot,
        };
        let own = &self.palette[src[v] as usize];
        let signal = Signal::from_states(
            self.memo
                .hood(v)
                .iter()
                .map(|&u| self.palette[src[u] as usize].clone()),
        );
        fresh.clear();
        for tape in 0..self.tapes {
            let mut coins = CoinTape::new(tape);
            let t = self.alg.transition(own, &signal, &mut coins);
            if t != *own && !fresh.contains(&t) {
                fresh.push(t);
            }
            if !coins.drawn {
                break;
            }
        }
        if self.normalize.is_none() {
            for t in fresh.iter() {
                let i = self.intern_state(t)?;
                self.memo.target_ids.push(i);
            }
        } else {
            self.memo.targets.append(fresh);
        }
        let end = self.memo.target_ids.len() + self.memo.targets.len();
        self.memo.bounds.push(end);
        Ok(self.memo.views.insert(slot, view))
    }

    /// Expands configuration `id`: looks up every node's targets once, then
    /// records every successor under the activation reduction, one per
    /// non-empty `(activation ⊆ enabled, target choice)` combination in
    /// odometer order (nodes ascending, inactive digit first).
    fn expand(
        &mut self,
        id: u32,
        x: &mut Scratch<A::State>,
        closure_violation: &mut Option<ClosureViolation>,
    ) -> Result<(), ExploreError> {
        self.store.key_into(id, &mut x.src);
        x.nodes.clear();
        x.first.clear();
        x.count.clear();
        let mut total = 1u64;
        for v in 0..self.n {
            let entry = self.view_entry(v, &x.src, &mut x.view, &mut x.fresh)? as usize;
            let (first, end) = (self.memo.bounds[entry], self.memo.bounds[entry + 1]);
            if end > first {
                total = total.saturating_mul((end - first) as u64 + 1);
                if total > MAX_BRANCH {
                    return Err(ExploreError::BranchingOverflow { successors: total });
                }
                x.nodes.push(v);
                x.first.push(first);
                x.count.push(end - first);
            }
        }
        self.enabled
            .push(x.nodes.iter().fold(0u64, |mask, &v| mask | (1u64 << v)));
        if self.normalize.is_some() {
            x.cfg.clear();
            x.cfg
                .extend(x.src.iter().map(|&i| self.palette[i as usize].clone()));
        }

        let src_legit = self.legit[id as usize];
        let k = x.nodes.len();
        x.digits.clear();
        x.digits.resize(k, 0);
        'combinations: loop {
            let mut pos = 0;
            loop {
                if pos == k {
                    break 'combinations;
                }
                x.digits[pos] += 1;
                if x.digits[pos] <= x.count[pos] {
                    break;
                }
                x.digits[pos] = 0;
                pos += 1;
            }
            let mut act = 0u64;
            let (sid, fresh) = match (&self.store, self.normalize) {
                (Store::Ranked(ranked), _) => {
                    // Ids are ranks: replacing digit `src[v]` by `t` moves
                    // the id by `(t - src[v]) * place[v]`. The sum lands in
                    // `0..len`, so wrapping `u32` arithmetic is exact.
                    let mut sid = id;
                    for (j, &d) in x.digits.iter().enumerate() {
                        if d != 0 {
                            let v = x.nodes[j];
                            act |= 1u64 << v;
                            let t = self.memo.target_ids[x.first[j] + d - 1];
                            let delta = u32::from(t).wrapping_sub(u32::from(x.src[v]));
                            sid = sid.wrapping_add(delta.wrapping_mul(ranked.place[v]));
                        }
                    }
                    (sid, false)
                }
                (Store::Hashed(_), None) => {
                    x.key.clone_from(&x.src);
                    for (j, &d) in x.digits.iter().enumerate() {
                        if d != 0 {
                            let v = x.nodes[j];
                            act |= 1u64 << v;
                            x.key[v] = self.memo.target_ids[x.first[j] + d - 1];
                        }
                    }
                    self.intern_key(&x.key, None)?
                }
                (Store::Hashed(_), Some(_)) => {
                    x.succ.clone_from(&x.cfg);
                    for (j, &d) in x.digits.iter().enumerate() {
                        if d != 0 {
                            let v = x.nodes[j];
                            act |= 1u64 << v;
                            x.succ[v] = self.memo.targets[x.first[j] + d - 1].clone();
                        }
                    }
                    self.intern_states(&mut x.succ, &mut x.key)?
                }
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
        let parent_of = |id: u32| {
            self.parent
                .get(id as usize)
                .copied()
                .filter(|&p| p != NO_PARENT)
        };
        let mut chain = Vec::new();
        let mut cur = id;
        while let Some(parent) = parent_of(cur) {
            chain.push(cur);
            cur = parent;
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
        for id in 0..self.store.len() as u32 {
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
        let states = self.store.len();
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
        let states = self.store.len();
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
    use std::collections::BTreeMap;

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
            Seeds::Listed(&mut all_configs(3, 3).into_iter()),
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
            Seeds::Listed(&mut all_configs(3, 2).into_iter()),
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
            Seeds::Listed(&mut all_configs(2, 2).into_iter()),
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
        // A listed space trips while interning; a full one (27
        // configurations) before seeding.
        let mut listed = all_configs(3, 3).into_iter();
        for seeds in [Seeds::Listed(&mut listed), Seeds::Full(&[0, 1, 2])] {
            let err = explore(&alg, &graph, seeds, &uniform, None, &config, &mut |_| {})
                .expect_err("budget must trip");
            assert_eq!(err, ExploreError::BudgetExceeded { budget: 10 });
        }
    }

    /// Explores the full space over `0..values` twice: ranked
    /// (`Seeds::Full`) and hashed (`Seeds::Listed` in lexicographic order).
    fn ranked_and_hashed<A: Algorithm<State = u8>>(
        alg: &A,
        graph: &Graph,
        values: u8,
        oracle: &dyn Fn(&Graph, &[u8]) -> bool,
    ) -> [ExploreReport<u8>; 2] {
        let palette: Vec<u8> = (0..values).collect();
        let mut listed = all_configs(values, graph.node_count()).into_iter();
        [Seeds::Full(&palette), Seeds::Listed(&mut listed)].map(|seeds| {
            explore(
                alg,
                graph,
                seeds,
                oracle,
                None,
                &ExploreConfig::default(),
                &mut |_| {},
            )
            .expect("explore")
        })
    }

    #[test]
    fn ranked_and_hashed_stores_give_equal_reports() {
        let no_two = |_: &Graph, cfg: &[u8]| cfg.iter().all(|&v| v != 2);
        let nothing = |_: &Graph, _: &[u8]| false;
        let reports = [
            ranked_and_hashed(&MinConsensus { values: 3 }, &Graph::path(3), 3, &uniform),
            ranked_and_hashed(&MaxConsensus, &Graph::path(2), 3, &no_two),
            ranked_and_hashed(&Toggle, &Graph::path(2), 2, &nothing),
            ranked_and_hashed(&CoinConsensus, &Graph::path(3), 2, &uniform),
            ranked_and_hashed(&CoinDrift, &Graph::cycle(4), 4, &uniform),
        ];
        for [ranked, hashed] in &reports {
            assert_eq!(ranked, hashed);
        }
        let kinds: Vec<_> = reports
            .iter()
            .map(|[r, _]| r.convergence.trace().map(|t| t.kind))
            .collect();
        assert_eq!(
            kinds[..3],
            [
                None,
                Some(ViolationKind::Deadlock),
                Some(ViolationKind::FairCycle)
            ]
        );
    }

    /// Deterministic toy that counts up, so it leaves any finite palette.
    struct CountUp;

    impl Algorithm for CountUp {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, state: &u8, _signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            state.saturating_add(1)
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "count-up"
        }
    }

    #[test]
    fn full_space_rejects_a_target_outside_its_palette() {
        let err = explore(
            &CountUp,
            &Graph::path(2),
            Seeds::Full(&[0, 1]),
            &uniform,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect_err("2 is outside the palette");
        assert_eq!(
            err,
            ExploreError::OutsidePalette {
                state: "2".to_string()
            }
        );
    }

    /// Node `v`'s distinct non-identity targets at `cfg`, evaluated directly
    /// on each of `tapes` coin tapes, in tape order.
    fn direct_targets<A: Algorithm<State = u8>>(
        alg: &A,
        graph: &Graph,
        cfg: &[u8],
        v: NodeId,
        tapes: u32,
    ) -> Vec<u8> {
        let hood = graph.inclusive_neighbors(v);
        let signal = Signal::from_states(hood.iter().map(|&u| cfg[u]));
        let mut targets = Vec::new();
        for tape in 0..tapes {
            let mut rng = StdRng::seed_from_u64(0x5EED_0000_0000_0000u64 ^ u64::from(tape));
            let t = alg.transition(&cfg[v], &signal, &mut rng);
            if t != cfg[v] && !targets.contains(&t) {
                targets.push(t);
            }
        }
        targets
    }

    /// Builds the successor graph of every configuration over `values`
    /// local states in each store the explorer has: ranked (`Seeds::Full`),
    /// hashed (`Seeds::Listed` in lexicographic order) and hashed under a
    /// normalizer (`Seeds::Full`, each configuration replaced by its mirror
    /// image when that is smaller: the reflection `v ↦ n − 1 − v` is an
    /// automorphism of paths and cycles). Each is checked against direct
    /// evaluation on all coin tapes by [`replay_edges`].
    /// Lexicographic listing gives every configuration its rank as id, so
    /// the ranked and the hashed successor graphs must also be equal.
    fn assert_edges_replay<A: Algorithm<State = u8>>(alg: &A, graph: &Graph, values: u8) {
        let config = ExploreConfig::default();
        let palette: Vec<u8> = (0..values).collect();
        let reflect: NormalizeFn<'_, u8> = &|cfg| {
            if cfg.iter().rev().lt(cfg.iter()) {
                cfg.reverse();
            }
        };
        let mut graphs = Vec::new();
        for (normalize, listed) in [(None, false), (None, true), (Some(reflect), false)] {
            let mut space = Space::new(alg, graph, &uniform, normalize, &config).expect("space");
            let mut configs = all_configs(values, graph.node_count()).into_iter();
            let seeds = if listed {
                Seeds::Listed(&mut configs)
            } else {
                Seeds::Full(&palette)
            };
            space.build(seeds, &config, &mut |_| {}).expect("build");
            let ranked = matches!(space.store, Store::Ranked(_));
            assert_eq!(ranked, normalize.is_none() && !listed, "store choice");
            replay_edges(alg, graph, &space, config.coin_tapes);
            if normalize.is_none() {
                graphs.push((
                    space.palette,
                    space.legit,
                    space.enabled,
                    space.succ_offsets,
                    space.succ_ids,
                ));
            }
        }
        assert!(graphs[0] == graphs[1], "ranked and hashed successor graphs");
    }

    /// Checks a built space against direct evaluation on `coin_tapes` tapes
    /// (one for a deterministic relation): the memo's target set of every
    /// (configuration, node) view, the enabled mask, and every stored edge,
    /// normalized if the space has a normalizer, in odometer order (in a
    /// deterministic relation also the activation decoded from the edge
    /// ordinal).
    fn replay_edges<A: Algorithm<State = u8>>(
        alg: &A,
        graph: &Graph,
        space: &Space<'_, A>,
        coin_tapes: u32,
    ) {
        let n = graph.node_count();
        let tapes = if space.deterministic { 1 } else { coin_tapes };
        let mut view = Vec::new();
        let mut edges = 0;
        for id in 0..space.store.len() as u32 {
            let cfg = space.decode(id);
            let src = space.config(id);
            let targets: Vec<Vec<u8>> = (0..n)
                .map(|v| direct_targets(alg, graph, &cfg, v, tapes))
                .collect();
            for (v, direct) in targets.iter().enumerate() {
                space.memo.view_into(v, &src, &mut view);
                let entry = space.memo.views.find(&view).expect("view memoized") as usize;
                let span = space.memo.bounds[entry]..space.memo.bounds[entry + 1];
                let stored: Vec<u8> = match space.normalize {
                    None => space.memo.target_ids[span]
                        .iter()
                        .map(|&i| space.palette[i as usize])
                        .collect(),
                    Some(_) => space.memo.targets[span].to_vec(),
                };
                assert_eq!(&stored, direct, "node {v} of configuration #{id}");
            }
            let enabled: Vec<NodeId> = (0..n).filter(|&v| !targets[v].is_empty()).collect();
            assert_eq!(mask_nodes(space.enabled[id as usize]), enabled);
            // Combination `c` is a mixed-radix number over the enabled
            // nodes, the lowest one least significant.
            let radix: Vec<usize> = enabled.iter().map(|&v| targets[v].len() + 1).collect();
            let combinations: usize = radix.iter().product();
            let succs = space.succs(id);
            assert_eq!(succs.len(), combinations - 1, "configuration #{id}");
            for (j, &sid) in succs.iter().enumerate() {
                let mut rest = j + 1;
                let mut next = cfg.clone();
                let mut act = 0u64;
                for (&v, &r) in enabled.iter().zip(&radix) {
                    if rest % r != 0 {
                        next[v] = targets[v][rest % r - 1];
                        act |= 1 << v;
                    }
                    rest /= r;
                }
                if let Some(norm) = space.normalize {
                    norm(&mut next);
                }
                assert_eq!(space.decode(sid), next, "edge {j} of configuration #{id}");
                if space.deterministic {
                    assert_eq!(space.activation(id, j), act, "edge {j} of #{id}");
                }
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
        // Randomized relations, through the memo and the tape skip.
        assert_edges_replay(&CoinConsensus, &Graph::cycle(3), 2);
        assert_edges_replay(&CoinDrift, &Graph::path(3), 4);
        assert_edges_replay(&CoinDrift, &Graph::cycle(4), 4);
        // CoinDrift exercises both branches of the tape skip.
        let (mut drew, mut skipped) = (false, false);
        for cfg in all_configs(4, 3) {
            for v in 0..3 {
                let hood = Graph::path(3).inclusive_neighbors(v);
                let signal = Signal::from_states(hood.iter().map(|&u| cfg[u]));
                let mut coins = CoinTape::new(0);
                CoinDrift.transition(&cfg[v], &signal, &mut coins);
                drew |= coins.drawn;
                skipped |= !coins.drawn;
            }
        }
        assert!(drew && skipped);
    }

    /// Randomized toy over `0..4` that draws a coin in some views only. A
    /// node alone in its state, or holding the largest sensed state, acts
    /// without a coin (it keeps its state, or drops to the smallest sensed
    /// one). Any other node draws among stepping up, jumping to the largest
    /// sensed state and staying.
    struct CoinDrift;

    impl Algorithm for CoinDrift {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, state: &u8, signal: &Signal<u8>, rng: &mut dyn rand::RngCore) -> u8 {
            let (min, max) = (*signal.min_state().unwrap(), *signal.max_state().unwrap());
            if min == max {
                *state
            } else if *state == max {
                min
            } else {
                match rng.next_u32() % 3 {
                    0 => (*state + 1).min(3),
                    1 => max,
                    _ => *state,
                }
            }
        }

        fn name(&self) -> &'static str {
            "coin-drift"
        }
    }

    /// Coin tapes are seeded by tape index alone, so the sampled relation
    /// commutes with graph automorphisms: on a cycle, the successors of a
    /// rotated configuration are the rotated successors.
    #[test]
    fn sampled_relations_commute_with_rotations() {
        let graph = Graph::cycle(4);
        let configs = all_configs(4, 4);
        let report_space = |seeds: Seeds<'_, u8>| {
            let config = ExploreConfig::default();
            let mut space = Space::new(&CoinDrift, &graph, &uniform, None, &config).unwrap();
            space.build(seeds, &config, &mut |_| {}).unwrap();
            (0..space.store.len() as u32)
                .map(|id| {
                    let mut succs: Vec<Vec<u8>> =
                        space.succs(id).iter().map(|&s| space.decode(s)).collect();
                    succs.sort();
                    (space.decode(id), succs)
                })
                .collect::<BTreeMap<_, _>>()
        };
        let successors = report_space(Seeds::Listed(&mut configs.clone().into_iter()));
        let rotate = |c: &[u8]| -> Vec<u8> { (0..4).map(|v| c[(v + 3) % 4]).collect() };
        for cfg in &configs {
            let mut rotated: Vec<Vec<u8>> = successors[cfg].iter().map(|s| rotate(s)).collect();
            rotated.sort();
            assert_eq!(successors[&rotate(cfg)], rotated, "configuration {cfg:?}");
        }
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
            Seeds::Listed(&mut all_configs(2, 3).into_iter()),
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
            Seeds::Listed(&mut std::iter::once(vec![0, 1])),
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

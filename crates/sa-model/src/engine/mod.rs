//! The staged step pipeline and its pluggable execution engines.
//!
//! A step of the SA model decomposes into four stages, mirroring the
//! two-phase (sense/act) structure of the paper's synchronous step:
//!
//! 1. **sense** ([`sense`]) — the per-node neighborhood signals, maintained
//!    incrementally as bitmask snapshots; *read-only* during a step,
//! 2. **evaluate** ([`evaluate`]) — every activated node's transition is
//!    computed from the step's start configuration and its private
//!    counter-based coin stream; a pure map with no shared mutable state,
//! 3. **apply** ([`apply`]) — the computed updates are committed to the
//!    configuration and the sensing state, *simultaneously* with respect to
//!    the signals the step observed,
//! 4. **account** ([`account`]) — metrics counters, round (ϱ-operator)
//!    bookkeeping and trace/fault event records.
//!
//! Two stages do per-node work worth parallelizing: **evaluate** (a pure
//! map over the activation set) and **apply** (`O(changed · deg)` presence
//! count updates). A [`StepEngine`] encapsulates how both run:
//!
//! * [`SerialEngine`] runs everything on the calling thread;
//! * [`ShardedEngine`] partitions the activation set into contiguous shards
//!   evaluated on a persistent [`sa_runtime::pool::WorkerPool`], and — for
//!   large changed sets — also shards the apply stage's count/mask updates
//!   by *node range* (each lane owns a disjoint `&mut` slice of the
//!   node-major count table, so the commit needs no locks and no `unsafe`).
//!
//! Because transitions read only the step snapshot and draw coins from
//! streams keyed by `(seed, node, time)`, the shard count and evaluation
//! order are **observationally irrelevant**: serial and sharded executions
//! agree bit for bit — configurations, metrics, traces and coin outcomes.
//! The equivalence property tests in `tests/engine_equivalence.rs` pin this.
//!
//! The engine is selected per execution via
//! [`ExecutionBuilder::engine`](crate::executor::ExecutionBuilder::engine)
//! (default: serial); a sweep spec names it per unit in its `engines` axis.

pub mod account;
pub mod apply;
pub mod evaluate;
pub mod frontier;
pub mod sense;
pub mod serial;
pub mod sharded;

pub use apply::SHARDED_APPLY_MIN_CHANGED;
pub use evaluate::PendingUpdate;
pub use sense::MAX_DENSE_STATES;
pub use serial::SerialEngine;
pub use sharded::ShardedEngine;

use crate::algorithm::{Algorithm, Coords, FactoredTransition, MaskedTransition};
use crate::graph::{Graph, NodeId};
use crate::signal::StateIndex;
use frontier::DirtyFrontier;
use sense::DenseSensing;
use std::sync::Arc;

/// Which engine executes the evaluate stage of each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Evaluate the activation set on the calling thread.
    Serial,
    /// Partition the activation set across a persistent worker pool.
    Sharded {
        /// Lanes of parallelism (the calling thread participates).
        threads: usize,
    },
}

impl EngineKind {
    /// A short display label (`"serial"` / `"sharded"`).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Serial => "serial",
            EngineKind::Sharded { .. } => "sharded",
        }
    }
}

/// The read-only snapshot of one step handed to the evaluate stage.
///
/// Everything in here is shared (immutably) by every evaluation lane, which
/// is what makes the sharded engine's concurrent reads safe.
pub struct EvalCtx<'e, A: Algorithm> {
    pub(crate) alg: &'e A,
    pub(crate) graph: &'e Graph,
    pub(crate) config: &'e [A::State],
    pub(crate) sensing: Option<&'e DenseSensing<A::State>>,
    /// The execution's state index, available even when `sensing` is off
    /// (sparse mode with an enumerable algorithm): lanes then rebuild their
    /// scratch signal as a dense bitmask instead of a `BTreeSet`.
    pub(crate) index: Option<&'e Arc<StateIndex<A::State>>>,
    /// The algorithm's mask-compiled transition, if any (and not disabled
    /// through the builder).
    pub(crate) masked: Option<&'e (dyn MaskedTransition<A::State> + 'e)>,
    /// The algorithm's factored transition and every node's coordinates,
    /// while every state lies inside the palettes (and the builder did not
    /// disable compiled transitions).
    pub(crate) factored: Option<(&'e (dyn FactoredTransition<A::State> + 'e), &'e [Coords])>,
    /// The active-set dirty frontier, `None` when active-set execution is
    /// off (randomized algorithm, or the builder disabled it). When present, the evaluate stage skips clean activated
    /// nodes — their deterministic transition is provably the identity — and
    /// emits stub no-change updates instead.
    pub(crate) dirty: Option<&'e DirtyFrontier>,
    pub(crate) deterministic: bool,
    pub(crate) seed: u64,
    pub(crate) time: u64,
}

/// The mutable execution state handed to the apply stage.
///
/// Bundled so [`StepEngine::apply_into`] can stay object-safe while the
/// sensing type remains crate-private.
pub struct ApplyCtx<'e, A: Algorithm> {
    pub(crate) graph: &'e Graph,
    pub(crate) config: &'e mut [A::State],
    pub(crate) sensing: Option<&'e mut DenseSensing<A::State>>,
    /// The nodes' factored coordinates, while the factored path is live.
    pub(crate) coords: Option<&'e mut [Coords]>,
    pub(crate) last_changed: &'e mut Vec<NodeId>,
}

/// A pluggable evaluate-stage executor.
///
/// Implementations must be *observationally equivalent*: given the same
/// [`EvalCtx`] and activation slice they must produce the same updates in
/// the same order. They may differ in internal caching (each lane keeps its
/// own transition memo) and in how they spread the work across threads.
pub trait StepEngine<A: Algorithm> {
    /// The engine's kind (with its effective lane count).
    fn kind(&self) -> EngineKind;

    /// Evaluates the transitions of `active` (already deduplicated, every id
    /// in range) against the snapshot in `ctx`, writing one update per
    /// activation into `out` (cleared first) in activation order.
    fn evaluate_into(
        &mut self,
        ctx: &EvalCtx<'_, A>,
        active: &[NodeId],
        out: &mut Vec<PendingUpdate<A::State>>,
    );

    /// Evaluates a single node (the executor's uniform-configuration fast
    /// path, where one transition stands for all nodes).
    fn evaluate_one(&mut self, ctx: &EvalCtx<'_, A>, v: NodeId) -> PendingUpdate<A::State>;

    /// Commits `updates` to the configuration and the sensing state (the
    /// **apply** stage). The serial engine commits on the calling thread;
    /// the sharded engine additionally fans large changed sets out across
    /// its worker pool by node range (see `apply::commit_sharded`). Both
    /// must produce identical post-states — the commit is a commutative sum
    /// per count cell, with each cell owned by exactly one lane.
    fn apply_into(&mut self, ctx: ApplyCtx<'_, A>, updates: &mut [PendingUpdate<A::State>]);

    /// Invalidates per-lane caches when the execution degrades to the sparse
    /// signal fallback (the dense index the memos refer to is gone).
    fn on_degrade(&mut self);
}

/// Builds the engine for `kind`.
pub(crate) fn build<'e, A>(kind: EngineKind) -> Box<dyn StepEngine<A> + 'e>
where
    A: Algorithm + 'e,
{
    match kind {
        EngineKind::Serial => Box::new(SerialEngine::new()),
        EngineKind::Sharded { threads } => Box::new(ShardedEngine::new(threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_engine_kinds() {
        assert_eq!(EngineKind::Serial.label(), "serial");
        assert_eq!(EngineKind::Sharded { threads: 4 }.label(), "sharded");
        assert_ne!(EngineKind::Serial, EngineKind::Sharded { threads: 1 });
    }
}

//! The **apply** stage: committing a step's updates simultaneously.
//!
//! All transitions of a step were evaluated against the start configuration
//! `C_t`; this stage writes them back in one pass — the model's simultaneous
//! update `C_{t+1}` — and propagates each change into the incremental
//! sensing state. Three commit strategies, all bit-for-bit equivalent:
//!
//! * `commit` — the serial baseline: one `apply_change` per changed node
//!   (and, on the factored path, one coordinate write).
//! * `commit_sharded` — for large changed sets: the cheap serial prefix
//!   (config swaps, `state_idx`, histogram, changed list) runs on the
//!   calling thread, then the `O(changed · deg)` presence-count/mask updates
//!   fan out across the worker pool **by node range**. The node-major count
//!   layout makes each lane's range a contiguous `&mut` sub-slice (disjoint
//!   by construction — no locks held during the work, no `unsafe`); every
//!   lane scans the full update list and commits only the neighbors that
//!   fall in its range. Scanning is a compare per neighbor while the skipped
//!   work is a pair of scattered read-modify-writes, so the filter costs a
//!   small fraction of what it saves. Per count cell the updates arrive in
//!   the same (update-list) order as the serial commit, so the final counts,
//!   masks and mask-flip decisions are identical.
//! * `commit_batch` — the partial-batch fast path: when every node in one
//!   state `old` moves to one state `new` (and nothing else changes — the
//!   near-uniform step the executor detects from the state histogram), the
//!   count table permutes locally and the commit collapses to `O(n)` bulk
//!   word writes, independent of degree (see
//!   `DenseSensing::apply_batch_change`).

use super::evaluate::PendingUpdate;
use super::sense::DenseSensing;
use super::ApplyCtx;
use crate::algorithm::{Algorithm, Coords};
use crate::graph::{Graph, NodeId};
use sa_runtime::pool::WorkerPool;
use std::sync::Mutex;

/// Minimum changed-node count before the sharded engine fans the apply
/// stage out across its pool: below this the per-step broadcast overhead
/// outweighs the parallel count updates. Public so the differential tests
/// can size their topologies to exercise the sharded path.
pub const SHARDED_APPLY_MIN_CHANGED: usize = 1024;

/// Upper bound on apply lanes, so the per-call shard slots fit on the stack
/// (the warm step loop must stay allocation-free).
const MAX_APPLY_LANES: usize = 32;

/// Commits `updates` to `config`, the sensing state, the factored
/// coordinates and the changed list.
///
/// For every changed update, `update.next` and the node's configuration
/// entry are *swapped*, so afterwards `update.next` holds the node's
/// previous state — the account stage reads it for trace records.
/// `last_changed` receives the changed nodes in update (= activation) order.
pub(crate) fn commit<S: Ord>(
    updates: &mut [PendingUpdate<S>],
    graph: &Graph,
    config: &mut [S],
    mut sensing: Option<&mut DenseSensing<S>>,
    mut coords: Option<&mut [Coords]>,
    last_changed: &mut Vec<NodeId>,
) {
    last_changed.clear();
    for update in updates.iter_mut() {
        if !update.changed {
            continue;
        }
        std::mem::swap(&mut config[update.v], &mut update.next);
        if let Some(sensing) = sensing.as_deref_mut() {
            sensing.apply_change(graph, update.v, update.new_idx);
        }
        if let Some(coords) = coords.as_deref_mut() {
            coords[update.v] = update.coords;
        }
        last_changed.push(update.v);
    }
}

/// One lane's slice of the apply work: a contiguous node range plus the
/// `counts`/`masks` sub-slices backing exactly that range.
struct ApplyShard<'t> {
    lo: usize,
    hi: usize,
    counts: &'t mut [u16],
    masks: &'t mut [u64],
}

impl ApplyShard<'_> {
    /// Applies the `old → new` contribution of one changed node to target
    /// `w`, if `w` falls in this lane's range. Mirrors
    /// `DenseSensing::{decrement, increment}` on range-local slices.
    #[inline]
    fn touch(&mut self, w: NodeId, q: usize, words: usize, old: usize, new: usize) {
        if w < self.lo || w >= self.hi {
            return;
        }
        let row = (w - self.lo) * q;
        let base = (w - self.lo) * words;
        let old_cell = &mut self.counts[row + old];
        debug_assert!(*old_cell > 0, "presence count underflow");
        *old_cell -= 1;
        if *old_cell == 0 {
            self.masks[base + old / 64] &= !(1u64 << (old % 64));
        }
        let new_cell = &mut self.counts[row + new];
        if *new_cell == 0 {
            self.masks[base + new / 64] |= 1u64 << (new % 64);
        }
        *new_cell += 1;
    }
}

/// The sharded commit (see the [module docs](self)). `lanes` is capped at
/// [`MAX_APPLY_LANES`] and at the node count; the caller has already decided
/// sharding is worthwhile.
pub(crate) fn commit_sharded<S: Ord + Sync + Send>(
    updates: &mut [PendingUpdate<S>],
    graph: &Graph,
    config: &mut [S],
    sensing: &mut DenseSensing<S>,
    last_changed: &mut Vec<NodeId>,
    pool: &WorkerPool,
) {
    // Serial prefix: everything that is O(changed) — config swaps, the
    // changed list, per-node state indices and the histogram/uniform flag —
    // in exactly the order the serial commit would produce. A count table
    // deferred by uniform lockstep steps is materialized first, since the
    // parallel phase mutates it incrementally.
    sensing.materialize_counts();
    last_changed.clear();
    for update in updates.iter_mut() {
        if !update.changed {
            continue;
        }
        std::mem::swap(&mut config[update.v], &mut update.next);
        sensing.state_idx[update.v] = update.new_idx;
        sensing.account_change(update.old_idx, update.new_idx);
        last_changed.push(update.v);
    }

    // Parallel phase: the O(changed · deg) count/mask updates, sharded by
    // node range. Split the node-major tables into one disjoint contiguous
    // chunk per lane; the slots live on the stack so the warm loop stays
    // allocation-free.
    let n = sensing.n;
    let q = sensing.q;
    let words = sensing.words;
    let lanes = pool.threads().min(MAX_APPLY_LANES).min(n).max(1);
    let per = n.div_ceil(lanes);
    let slots: [Mutex<Option<ApplyShard<'_>>>; MAX_APPLY_LANES] =
        std::array::from_fn(|_| Mutex::new(None));
    {
        let mut counts_rest: &mut [u16] = &mut sensing.counts;
        let mut masks_rest: &mut [u64] = &mut sensing.masks;
        let mut lo = 0usize;
        for slot in slots.iter().take(lanes) {
            let hi = ((lo + per).min(n)).max(lo);
            let (counts, rest_c) = counts_rest.split_at_mut((hi - lo) * q);
            let (masks, rest_m) = masks_rest.split_at_mut((hi - lo) * words);
            counts_rest = rest_c;
            masks_rest = rest_m;
            *slot.lock().expect("apply shard slot poisoned") = Some(ApplyShard {
                lo,
                hi,
                counts,
                masks,
            });
            lo = hi;
        }
    }
    let updates_ref: &[PendingUpdate<S>] = updates;
    pool.broadcast(lanes, &|i| {
        let mut guard = slots[i].lock().expect("apply shard slot poisoned");
        let shard = guard.as_mut().expect("apply shard slot unfilled");
        if shard.lo == shard.hi {
            return;
        }
        for update in updates_ref.iter().filter(|u| u.changed) {
            let old = update.old_idx as usize;
            let new = update.new_idx as usize;
            shard.touch(update.v, q, words, old, new);
            for &w in graph.neighbors(update.v) {
                shard.touch(w, q, words, old, new);
            }
        }
    });
}

/// The partial-batch commit: all changed updates move `old_idx → new_idx`
/// and cover *every* node currently in `old_idx` (verified by the caller
/// against the state histogram). Swaps the configuration entries exactly
/// like [`commit`], then updates the sensing state with `O(n)` bulk word
/// writes instead of per-neighbor count updates.
pub(crate) fn commit_batch<S: Ord>(
    updates: &mut [PendingUpdate<S>],
    config: &mut [S],
    sensing: &mut DenseSensing<S>,
    last_changed: &mut Vec<NodeId>,
    old_idx: u32,
    new_idx: u32,
) {
    last_changed.clear();
    for update in updates.iter_mut() {
        if !update.changed {
            continue;
        }
        debug_assert_eq!(update.old_idx, old_idx);
        debug_assert_eq!(update.new_idx, new_idx);
        std::mem::swap(&mut config[update.v], &mut update.next);
        last_changed.push(update.v);
    }
    sensing.apply_batch_change(old_idx, new_idx, last_changed);
}

/// Shared fallback used by both engines' `StepEngine::apply_into`
/// implementations when sharding does not apply.
pub(crate) fn commit_ctx<A: Algorithm>(
    ctx: ApplyCtx<'_, A>,
    updates: &mut [PendingUpdate<A::State>],
) {
    commit(
        updates,
        ctx.graph,
        ctx.config,
        ctx.sensing,
        ctx.coords,
        ctx.last_changed,
    );
}

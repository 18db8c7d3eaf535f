//! The sharded step engine: the evaluate stage on a persistent worker pool.
//!
//! The activation set is split into contiguous shards, one per lane; each
//! lane evaluates its shard into a reusable per-shard buffer with its own
//! `Evaluator` (scratch signal + transition memo), and the buffers are
//! drained back in shard order — so the updates come out in exactly the
//! activation order the serial engine would produce. Combined with the
//! counter-based per-node coin streams, this makes the shard count
//! observationally irrelevant: only wall-clock time changes.
//!
//! The pool ([`sa_runtime::pool::WorkerPool`]) keeps its workers parked
//! between steps; a step costs one broadcast, not thread spawns. Shard slots
//! are wrapped in uncontended [`Mutex`]es (each lane locks only its own slot)
//! purely so the crate stays free of `unsafe` — the per-step cost is a few
//! uncontended lock acquisitions.

use super::apply::{self, SHARDED_APPLY_MIN_CHANGED};
use super::evaluate::{Evaluator, PendingUpdate};
use super::{ApplyCtx, EngineKind, EvalCtx, StepEngine};
use crate::algorithm::Algorithm;
use crate::graph::NodeId;
use sa_runtime::pool::WorkerPool;
use std::sync::Mutex;

/// One lane's private state: its evaluator plus its reusable output buffer.
struct Shard<S: Clone + Ord> {
    lane: Evaluator<S>,
    buf: Vec<PendingUpdate<S>>,
}

/// Partitions each step's activation set across a persistent worker pool.
pub struct ShardedEngine<S: Clone + Ord> {
    pool: WorkerPool,
    shards: Vec<Mutex<Shard<S>>>,
}

impl<S: Clone + Ord> ShardedEngine<S> {
    /// Creates an engine with `threads` lanes of parallelism (min 1; the
    /// calling thread participates, so `threads − 1` workers are spawned).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ShardedEngine {
            pool: WorkerPool::new(threads),
            shards: (0..threads)
                .map(|_| {
                    Mutex::new(Shard {
                        lane: Evaluator::new(),
                        buf: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// The engine's lane count.
    pub fn threads(&self) -> usize {
        self.shards.len()
    }
}

impl<A: Algorithm> StepEngine<A> for ShardedEngine<A::State> {
    fn kind(&self) -> EngineKind {
        EngineKind::Sharded {
            threads: self.shards.len(),
        }
    }

    fn evaluate_into(
        &mut self,
        ctx: &EvalCtx<'_, A>,
        active: &[NodeId],
        out: &mut Vec<PendingUpdate<A::State>>,
    ) {
        out.clear();
        let lanes = self.shards.len().min(active.len());
        if lanes <= 1 {
            // One activation (or one lane): skip the broadcast entirely.
            let mut shard = self.shards[0].lock().expect("shard lane poisoned");
            let shard = &mut *shard;
            shard.lane.prepare(ctx);
            for &v in active {
                out.push(shard.lane.evaluate(ctx, v));
            }
            return;
        }
        let chunk = active.len().div_ceil(lanes);
        let shards = &self.shards;
        self.pool.broadcast(lanes, &|i| {
            let mut shard = shards[i].lock().expect("shard lane poisoned");
            let shard = &mut *shard;
            shard.buf.clear();
            shard.lane.prepare(ctx);
            let lo = (i * chunk).min(active.len());
            let hi = ((i + 1) * chunk).min(active.len());
            for &v in &active[lo..hi] {
                shard.buf.push(shard.lane.evaluate(ctx, v));
            }
        });
        // Drain in shard order = activation order (serial-identical output).
        for slot in &self.shards[..lanes] {
            out.append(&mut slot.lock().expect("shard lane poisoned").buf);
        }
    }

    fn evaluate_one(&mut self, ctx: &EvalCtx<'_, A>, v: NodeId) -> PendingUpdate<A::State> {
        let mut shard = self.shards[0].lock().expect("shard lane poisoned");
        let shard = &mut *shard;
        shard.lane.prepare(ctx);
        shard.lane.evaluate(ctx, v)
    }

    fn apply_into(&mut self, ctx: ApplyCtx<'_, A>, updates: &mut [PendingUpdate<A::State>]) {
        // Shard the apply stage only when the changed set is large enough to
        // amortize a pool broadcast, and only on the dense path (the sparse
        // fallback maintains no count table to fan out).
        let ApplyCtx {
            graph,
            config,
            sensing,
            coords,
            last_changed,
        } = ctx;
        match sensing {
            Some(sensing)
                if self.shards.len() > 1
                    && updates.iter().filter(|u| u.changed).count()
                        >= SHARDED_APPLY_MIN_CHANGED =>
            {
                // The factored path only runs without a dense index.
                debug_assert!(coords.is_none());
                apply::commit_sharded(updates, graph, config, sensing, last_changed, &self.pool);
            }
            sensing => apply::commit(updates, graph, config, sensing, coords, last_changed),
        }
    }

    fn on_degrade(&mut self) {
        for slot in &self.shards {
            slot.lock().expect("shard lane poisoned").lane.reset();
        }
    }
}

//! The dirty-frontier bitset driving **active-set execution**.
//!
//! In the paper's model a converged region is naturally quiescent: a
//! deterministic transition of a node whose state *and* signal have not
//! changed since it was last evaluated as stable is guaranteed to be the
//! identity. The executor exploits that with one bit per node — `dirty[v]`
//! means "v's transition might produce a change". The evaluate stage skips
//! clean activated nodes of deterministic algorithms (emitting a stub
//! no-change update so the account stage is bit-for-bit identical to a full
//! evaluation), turning post-stabilization rounds from `O(n)` transition
//! evaluations into `O(frontier)`.
//!
//! Maintenance is conservative and engine-agnostic:
//!
//! * everything starts dirty;
//! * an activated node whose evaluation produced no change is cleared;
//! * every changed node re-dirties its **closed neighborhood** (its own bit
//!   and every neighbor's — their signals observe it);
//! * faults ([`Execution::corrupt`](crate::executor::Execution::corrupt)),
//!   snapshot restores and uniform bulk changes re-dirty conservatively.
//!
//! [`ExecutionBuilder::active_set(false)`](crate::executor::ExecutionBuilder::active_set)
//! disables the skip, which the differential tests use to pin active-set ≡
//! full-scan equality.

use crate::graph::{Graph, NodeId};

/// One bit of evaluation-staleness per node (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct DirtyFrontier {
    words: Vec<u64>,
    n: usize,
}

impl DirtyFrontier {
    /// A frontier with every node dirty (the only sound starting point: the
    /// initial configuration is adversarial).
    pub(crate) fn all_dirty(n: usize) -> Self {
        let mut f = DirtyFrontier {
            words: vec![0; n.div_ceil(64)],
            n,
        };
        f.mark_all();
        f
    }

    /// Whether `v`'s transition might produce a change.
    #[inline]
    pub(crate) fn is_dirty(&self, v: NodeId) -> bool {
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Marks `v` dirty.
    #[inline]
    pub(crate) fn mark(&mut self, v: NodeId) {
        self.words[v / 64] |= 1u64 << (v % 64);
    }

    /// Clears `v` (its evaluation just proved it stable).
    #[inline]
    pub(crate) fn clear(&mut self, v: NodeId) {
        self.words[v / 64] &= !(1u64 << (v % 64));
    }

    /// Marks the closed neighborhood `N⁺(v)` dirty — the invalidation a
    /// changed node `v` propagates (every neighbor's signal observes it).
    #[inline]
    pub(crate) fn mark_closed_neighborhood(&mut self, graph: &Graph, v: NodeId) {
        self.mark(v);
        for &u in graph.neighbors(v) {
            self.mark(u);
        }
    }

    /// Marks every node dirty (restore, uniform bulk change).
    pub(crate) fn mark_all(&mut self) {
        for w in &mut self.words {
            *w = !0;
        }
        let tail = self.n % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Clears every node (a uniform full-activation no-op step proved the
    /// whole configuration stable).
    pub(crate) fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of dirty nodes (diagnostics / tests).
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_dirty_and_clears_exactly() {
        let mut f = DirtyFrontier::all_dirty(70);
        assert_eq!(f.count(), 70);
        assert!(f.is_dirty(0) && f.is_dirty(69));
        f.clear(69);
        assert!(!f.is_dirty(69));
        assert_eq!(f.count(), 69);
        f.mark(69);
        assert!(f.is_dirty(69));
        f.clear_all();
        assert_eq!(f.count(), 0);
        f.mark_all();
        assert_eq!(f.count(), 70);
    }

    #[test]
    fn closed_neighborhood_marking_covers_self_and_neighbors() {
        let g = Graph::path(5);
        let mut f = DirtyFrontier::all_dirty(5);
        f.clear_all();
        f.mark_closed_neighborhood(&g, 2);
        assert!(!f.is_dirty(0));
        assert!(f.is_dirty(1) && f.is_dirty(2) && f.is_dirty(3));
        assert!(!f.is_dirty(4));
    }
}

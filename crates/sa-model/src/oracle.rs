//! Incremental legitimacy oracles: O(frontier) round-boundary checks.
//!
//! [`Execution::run_until_legitimate`](crate::executor::Execution::run_until_legitimate)
//! evaluates the legitimacy predicate at **every round boundary** (the
//! paper's stabilization-time definition forces that cadence). A full-scan
//! oracle pays O(n·deg) per round, which dominates wall-clock on
//! million-node runs now that the step pipeline itself is O(frontier).
//!
//! Every oracle in this workspace is (or decomposes into) a conjunction of
//! *local* per-node predicates over closed neighborhoods, optionally plus a
//! global aggregate over per-node weights (e.g. "exactly one leader").
//! [`LocalPredicate`] exposes that decomposition and [`LegitimacyTracker`]
//! maintains it incrementally: a `seed` pass builds a per-node "locally bad"
//! bitset plus a bad-count (and the weight sum) once, and each step's
//! changed-node list — exactly what the executor already collects for the
//! dirty frontier — re-evaluates only the changed nodes' closed
//! neighborhoods. The per-round check becomes `bad_count == 0`:
//! O(changed·deg) per step, O(1) at a quiescent round boundary.
//!
//! Two additional modes keep the tracker from ever losing to the plain scan:
//!
//! * **Stale** — when a step changes a large fraction of the nodes (the
//!   churning pre-stabilization regime), maintaining the bitset would cost
//!   as much as a scan *without* its early exit. The tracker drops to a
//!   stale mode whose round check is the classic early-exiting full scan,
//!   and opportunistically re-seeds from any scan that runs to completion
//!   (or as soon as the frontier shrinks).
//! * **Uniform** — unison-style algorithms keep *every* node changing
//!   forever after stabilization, but those steps commit through the
//!   executor's uniform bulk path, so the configuration is uniform. A
//!   uniform configuration's legitimacy is usually decidable in O(1) from
//!   one state and the edge count ([`LocalPredicate::uniform_ok`]), which
//!   is what makes the post-stabilization round check O(1) on the
//!   million-node `scale` runs.
//!
//! Oracles that do not decompose simply keep the default [`as_local`] of
//! `None` and run the full scan unconditionally; wrapping a decomposing
//! oracle in one that hides its decomposition is how
//! `tests/oracle_equivalence.rs` pins incremental ≡ full-scan verdicts.
//!
//! [`as_local`]: crate::algorithm::LegitimacyOracle::as_local

use crate::graph::{Graph, NodeId};

/// A legitimacy (or safety) predicate decomposed into per-node conjuncts.
///
/// The global predicate is
/// `∀v. node_ok(v)  ∧  (Σ_v node_weight(v) == weight_target())`,
/// where the weight clause only participates for [`weighted`] predicates.
/// Implementations must satisfy two locality contracts, which are what make
/// incremental maintenance sound:
///
/// * `node_ok(v)` may read only states in the closed neighborhood `N⁺(v)`
///   (so a change at `u` can only flip verdicts inside `N⁺(u)`);
/// * `node_weight(v)` may read only `config[v]` (so a change at `u` moves
///   only `u`'s own weight).
///
/// [`weighted`]: LocalPredicate::weighted
pub trait LocalPredicate<S> {
    /// The per-node conjunct, over the closed neighborhood of `v`.
    fn node_ok(&self, graph: &Graph, config: &[S], v: NodeId) -> bool;

    /// The per-node contribution to the aggregate clause. Must depend only
    /// on `config[v]`.
    fn node_weight(&self, _config: &[S], _v: NodeId) -> i64 {
        0
    }

    /// Whether the aggregate clause participates at all. Weight bookkeeping
    /// (an extra `i64` per node) is skipped entirely when `false`.
    fn weighted(&self) -> bool {
        false
    }

    /// The required value of `Σ_v node_weight(v)` (e.g. `1` for "exactly
    /// one leader"). Only consulted for [`weighted`](Self::weighted)
    /// predicates.
    fn weight_target(&self) -> i64 {
        0
    }

    /// The verdict on a *uniform* configuration (`config[v] == state` for
    /// every `v`), when it is decidable without a scan — typically from the
    /// state itself plus `graph.edge_count()`/`node_count()`. Return `None`
    /// (the default) to fall back to the per-node scan. This is the fast
    /// path for unison-style algorithms whose post-stabilization steps are
    /// uniform bulk commits.
    fn uniform_ok(&self, _graph: &Graph, _state: &S) -> Option<bool> {
        None
    }
}

/// How much of the tracker's knowledge is currently valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing incremental is known; round checks run the early-exiting
    /// full scan (and opportunistically seed).
    Stale,
    /// The configuration is uniform (the last step was a uniform bulk
    /// commit); round checks use [`LocalPredicate::uniform_ok`].
    Uniform,
    /// The bad bitset / bad-count / weight sum are exact for the current
    /// configuration; round checks are O(1).
    Live,
}

/// Incrementally maintained legitimacy verdict for one execution.
///
/// Feed it every step's changed-node list via [`note_step`] and query the
/// verdict at round boundaries via [`is_legitimate`]; both are exactly
/// equivalent to running the full predicate from scratch (pinned by the
/// `oracle_equivalence` differential tests). State injected *outside* the
/// step pipeline (fault corruption, snapshot restore) must be reported via
/// [`note_step`] with the victims as the changed list, or by [`reseed`] —
/// the sweep runner does the former for fault bursts and the latter on
/// checkpoint resume.
///
/// [`note_step`]: LegitimacyTracker::note_step
/// [`is_legitimate`]: LegitimacyTracker::is_legitimate
/// [`reseed`]: LegitimacyTracker::reseed
pub struct LegitimacyTracker {
    mode: Mode,
    /// Bit `v` set ⇔ `node_ok(v)` was false at the last (re)evaluation.
    /// Valid only in [`Mode::Live`].
    bad_words: Vec<u64>,
    /// Number of set bits in `bad_words`.
    bad_count: usize,
    /// Per-node weights (empty unless the predicate is weighted).
    weights: Vec<i64>,
    /// Sum of `weights`.
    weight_sum: i64,
    /// Re-evaluation dedup stamps for [`note_step`]'s closed-neighborhood
    /// sweep (a node shared by several changed neighborhoods is re-evaluated
    /// once per step, not once per change).
    ///
    /// [`note_step`]: LegitimacyTracker::note_step
    stamps: Vec<u32>,
    stamp: u32,
    /// Changed-count at or above which a live tracker drops to stale: the
    /// incremental sweep would touch ~n nodes, i.e. cost a full scan without
    /// the early exit.
    go_stale_at: usize,
    /// Changed-count at or below which a stale tracker pays the O(n·deg)
    /// seed to go live (hysteresis: a quarter of `go_stale_at`, so a
    /// frontier hovering at the boundary cannot thrash seed/drop cycles).
    go_live_at: usize,
    n: usize,
}

impl LegitimacyTracker {
    /// Creates a tracker for executions on `graph`. Starts stale: the first
    /// [`is_legitimate`](LegitimacyTracker::is_legitimate) call runs (and,
    /// if it completes, seeds from) a full scan.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        // Average closed-neighborhood size; the cost ratio between an
        // incremental sweep over `changed` nodes and a full scan.
        let avg_closed = (2 * graph.edge_count() + n) / n.max(1) + 1;
        let go_stale_at = (n / avg_closed).max(1);
        LegitimacyTracker {
            mode: Mode::Stale,
            bad_words: vec![0; n.div_ceil(64)],
            bad_count: 0,
            weights: Vec::new(),
            weight_sum: 0,
            stamps: vec![0; n],
            stamp: 0,
            go_stale_at,
            go_live_at: (go_stale_at / 4).max(1),
            n,
        }
    }

    /// Discards all incremental knowledge; the next check re-scans. Call
    /// after bulk state replacement the changed list does not describe
    /// (snapshot restore, checkpoint resume).
    pub fn reseed(&mut self) {
        self.mode = Mode::Stale;
    }

    /// Records one executed step: `changed` is the list of nodes whose state
    /// changed ([`Execution::last_changed`]) and `uniform` whether the step
    /// was a uniform bulk commit ([`Execution::last_step_uniform`] — the
    /// configuration is then uniform, which supersedes any bitset).
    ///
    /// [`Execution::last_changed`]: crate::executor::Execution::last_changed
    /// [`Execution::last_step_uniform`]: crate::executor::Execution::last_step_uniform
    pub fn note_step<S>(
        &mut self,
        pred: &dyn LocalPredicate<S>,
        graph: &Graph,
        config: &[S],
        changed: &[NodeId],
        uniform: bool,
    ) {
        if uniform {
            self.mode = Mode::Uniform;
            return;
        }
        match self.mode {
            Mode::Live => {
                if changed.len() >= self.go_stale_at {
                    self.mode = Mode::Stale;
                } else {
                    self.apply_changes(pred, graph, config, changed);
                }
            }
            Mode::Stale | Mode::Uniform => {
                if changed.len() <= self.go_live_at {
                    self.seed(pred, graph, config);
                } else {
                    self.mode = Mode::Stale;
                }
            }
        }
    }

    /// The legitimacy verdict for the current configuration. O(1) when
    /// live, O(deg) to O(1) on uniform configurations, and an early-exiting
    /// full scan (which opportunistically seeds the tracker) when stale.
    pub fn is_legitimate<S>(
        &mut self,
        pred: &dyn LocalPredicate<S>,
        graph: &Graph,
        config: &[S],
    ) -> bool {
        match self.mode {
            Mode::Live => {
                self.bad_count == 0 && (!pred.weighted() || self.weight_sum == pred.weight_target())
            }
            Mode::Uniform => {
                if self.n == 0 {
                    return true;
                }
                match pred.uniform_ok(graph, &config[0]) {
                    Some(ok) => {
                        ok && (!pred.weighted()
                            || self.n as i64 * pred.node_weight(config, 0) == pred.weight_target())
                    }
                    None => self.scan_and_seed(pred, graph, config),
                }
            }
            Mode::Stale => self.scan_and_seed(pred, graph, config),
        }
    }

    /// Full per-node pass. For unweighted predicates it exits early on the
    /// first bad node (staying stale); a completed pass seeds the bitset —
    /// the scan already did the work — and flips the tracker live.
    fn scan_and_seed<S>(
        &mut self,
        pred: &dyn LocalPredicate<S>,
        graph: &Graph,
        config: &[S],
    ) -> bool {
        if !pred.weighted() {
            // Early exit: a bad node settles the verdict without paying for
            // the rest of the scan (the dominant case while churning).
            for v in 0..self.n {
                if !pred.node_ok(graph, config, v) {
                    self.mode = Mode::Stale;
                    return false;
                }
            }
            self.bad_words.iter_mut().for_each(|w| *w = 0);
            self.bad_count = 0;
            self.mode = Mode::Live;
            return true;
        }
        // Weighted predicates need the full sum anyway, so the pass always
        // completes: record everything and go live.
        self.bad_words.iter_mut().for_each(|w| *w = 0);
        self.bad_count = 0;
        self.weights.resize(self.n, 0);
        self.weight_sum = 0;
        for v in 0..self.n {
            if !pred.node_ok(graph, config, v) {
                self.bad_words[v / 64] |= 1 << (v % 64);
                self.bad_count += 1;
            }
            let w = pred.node_weight(config, v);
            self.weights[v] = w;
            self.weight_sum += w;
        }
        self.mode = Mode::Live;
        self.bad_count == 0 && self.weight_sum == pred.weight_target()
    }

    /// Unconditional full (re)build of the bitset and weights.
    fn seed<S>(&mut self, pred: &dyn LocalPredicate<S>, graph: &Graph, config: &[S]) {
        self.bad_words.iter_mut().for_each(|w| *w = 0);
        self.bad_count = 0;
        if pred.weighted() {
            self.weights.resize(self.n, 0);
            self.weight_sum = 0;
        }
        for v in 0..self.n {
            if !pred.node_ok(graph, config, v) {
                self.bad_words[v / 64] |= 1 << (v % 64);
                self.bad_count += 1;
            }
            if pred.weighted() {
                let w = pred.node_weight(config, v);
                self.weights[v] = w;
                self.weight_sum += w;
            }
        }
        self.mode = Mode::Live;
    }

    /// Re-evaluates the closed neighborhoods of the changed nodes, each
    /// affected node once (stamp-deduplicated).
    fn apply_changes<S>(
        &mut self,
        pred: &dyn LocalPredicate<S>,
        graph: &Graph,
        config: &[S],
        changed: &[NodeId],
    ) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                self.stamps.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        for &v in changed {
            if pred.weighted() {
                let w = pred.node_weight(config, v);
                self.weight_sum += w - self.weights[v];
                self.weights[v] = w;
            }
            self.reevaluate(pred, graph, config, v);
            for &u in graph.neighbors(v) {
                self.reevaluate(pred, graph, config, u);
            }
        }
    }

    /// Re-evaluates `node_ok(v)` once per step and folds the verdict into
    /// the bitset and bad-count.
    fn reevaluate<S>(
        &mut self,
        pred: &dyn LocalPredicate<S>,
        graph: &Graph,
        config: &[S],
        v: NodeId,
    ) {
        if self.stamps[v] == self.stamp {
            return;
        }
        self.stamps[v] = self.stamp;
        let bad = !pred.node_ok(graph, config, v);
        let word = &mut self.bad_words[v / 64];
        let bit = 1u64 << (v % 64);
        let was_bad = *word & bit != 0;
        if bad && !was_bad {
            *word |= bit;
            self.bad_count += 1;
        } else if !bad && was_bad {
            *word &= !bit;
            self.bad_count -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All states equal across each edge (a toy "agreement" predicate).
    struct EdgeAgree;
    impl LocalPredicate<u8> for EdgeAgree {
        fn node_ok(&self, graph: &Graph, config: &[u8], v: NodeId) -> bool {
            graph.neighbors(v).iter().all(|&u| config[u] == config[v])
        }
        fn uniform_ok(&self, _graph: &Graph, _state: &u8) -> Option<bool> {
            Some(true)
        }
    }

    /// Weighted: every state < 2, and exactly one node holds state 1.
    struct OneLeader;
    impl LocalPredicate<u8> for OneLeader {
        fn node_ok(&self, _graph: &Graph, config: &[u8], v: NodeId) -> bool {
            config[v] < 2
        }
        fn node_weight(&self, config: &[u8], v: NodeId) -> i64 {
            (config[v] == 1) as i64
        }
        fn weighted(&self) -> bool {
            true
        }
        fn weight_target(&self) -> i64 {
            1
        }
    }

    fn full<P: LocalPredicate<u8>>(pred: &P, graph: &Graph, config: &[u8]) -> bool {
        graph.nodes().all(|v| pred.node_ok(graph, config, v))
            && (!pred.weighted()
                || graph
                    .nodes()
                    .map(|v| pred.node_weight(config, v))
                    .sum::<i64>()
                    == pred.weight_target())
    }

    /// Random single-node mutations: the tracker verdict matches the full
    /// predicate after every change, across seed/apply/drop transitions.
    #[test]
    fn tracker_matches_full_scan_under_point_mutations() {
        let graph = Graph::grid(4, 4);
        let mut config = vec![0u8; 16];
        let pred = EdgeAgree;
        let mut tracker = LegitimacyTracker::new(&graph);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        let mut x = 9u64;
        for _ in 0..200 {
            // xorshift; deterministic node/value pick
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 16) as usize;
            let s = ((x >> 8) % 3) as u8;
            config[v] = s;
            tracker.note_step(&pred, &graph, &config, &[v], false);
            assert_eq!(
                tracker.is_legitimate(&pred, &graph, &config),
                full(&pred, &graph, &config),
            );
        }
    }

    /// Large change sets drop the tracker to stale; the stale scan still
    /// answers correctly and re-seeds once the frontier shrinks.
    #[test]
    fn stale_drop_and_reseed_stay_exact() {
        let graph = Graph::cycle(64);
        let pred = EdgeAgree;
        let mut tracker = LegitimacyTracker::new(&graph);
        let mut config = vec![0u8; 64];
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        // Change every node (≥ go_stale_at): verdict must track the scan.
        let all: Vec<NodeId> = (0..64).collect();
        for round in 0..4u8 {
            for (v, state) in config.iter_mut().enumerate() {
                *state = if v % 2 == 0 { round } else { round + 1 };
            }
            tracker.note_step(&pred, &graph, &config, &all, false);
            assert!(!tracker.is_legitimate(&pred, &graph, &config));
        }
        for s in config.iter_mut() {
            *s = 7;
        }
        tracker.note_step(&pred, &graph, &config, &all, false);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        // Small follow-up change: incremental path again.
        config[5] = 1;
        tracker.note_step(&pred, &graph, &config, &[5], false);
        assert!(!tracker.is_legitimate(&pred, &graph, &config));
        config[5] = 7;
        tracker.note_step(&pred, &graph, &config, &[5], false);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
    }

    /// Uniform bulk steps answer through `uniform_ok` without a scan, and a
    /// later point mutation recovers exactness.
    #[test]
    fn uniform_mode_is_exact() {
        let graph = Graph::grid(3, 3);
        let pred = EdgeAgree;
        let mut tracker = LegitimacyTracker::new(&graph);
        let mut config = vec![4u8; 9];
        tracker.note_step(&pred, &graph, &config, &[], true);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        config[3] = 0;
        tracker.note_step(&pred, &graph, &config, &[3], false);
        assert!(!tracker.is_legitimate(&pred, &graph, &config));
    }

    /// The weighted aggregate (exactly one leader) is maintained across
    /// point changes, including weight moves between nodes.
    #[test]
    fn weighted_aggregate_tracks_leader_count() {
        let graph = Graph::path(6);
        let pred = OneLeader;
        let mut tracker = LegitimacyTracker::new(&graph);
        let mut config = vec![0u8; 6];
        assert!(!tracker.is_legitimate(&pred, &graph, &config)); // zero leaders
        config[2] = 1;
        tracker.note_step(&pred, &graph, &config, &[2], false);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        config[4] = 1;
        tracker.note_step(&pred, &graph, &config, &[4], false);
        assert!(!tracker.is_legitimate(&pred, &graph, &config)); // two leaders
        config[2] = 0;
        tracker.note_step(&pred, &graph, &config, &[2], false);
        assert!(tracker.is_legitimate(&pred, &graph, &config));
        config[4] = 3; // locally bad *and* drops the leader
        tracker.note_step(&pred, &graph, &config, &[4], false);
        assert!(!tracker.is_legitimate(&pred, &graph, &config));
        let snapshot_like = config.clone();
        // reseed() forgets everything but the next check recovers.
        tracker.reseed();
        assert!(!tracker.is_legitimate(&pred, &graph, &snapshot_like));
    }
}

//! Finite, connected, undirected graphs.
//!
//! The stone age model is defined over a finite connected undirected graph
//! `G = (V, E)`. This module provides a compressed sparse row (CSR)
//! representation together with the graph-theoretic helpers the algorithms and
//! the analysis need: neighborhoods, BFS distances, diameter, connectivity
//! checks and shortest paths.
//!
//! # Storage layout
//!
//! Adjacency is stored as two flat arrays — `offsets` (one `u32` per node,
//! plus a sentinel) and `targets` (the concatenated neighbor lists) — so node
//! `v`'s neighborhood is the contiguous slice
//! `targets[offsets[v]..offsets[v + 1]]`. Compared to the historical
//! `Vec<Vec<NodeId>>` this removes one pointer indirection and two-thirds of
//! the per-node allocator overhead, which is what makes million-node graphs
//! (and the cache behavior of the sense/apply stages, which stream
//! neighborhoods) practical. Neighbor lists keep **edge-insertion order**, so
//! trajectories, BFS tie-breaks and shortest paths are identical to the
//! nested-`Vec` representation's.
//!
//! Bulk construction goes through [`Graph::from_edges`] (a two-pass
//! degree-count + cursor-fill build, `O(n + E)`); [`Graph::add_edge`] remains
//! for incremental test construction but pays an `O(E)` splice per call.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node in a [`Graph`].
///
/// Node identifiers exist only at the *simulator* level (to index configurations and
/// to drive schedules); the algorithms themselves never observe them — the SA model is
/// anonymous.
pub type NodeId = usize;

/// A finite undirected graph stored in compressed sparse row (CSR) form.
///
/// Self-loops and parallel edges are rejected. Most constructors in
/// [`topology`](crate::topology) guarantee connectivity; [`Graph::is_connected`]
/// checks it explicitly.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets: node `v`'s neighbors occupy
    /// `targets[offsets[v] as usize..offsets[v + 1] as usize]`. Length
    /// `n + 1`; `u32` keeps the table at 4 bytes per node (the directed
    /// endpoint count `2·E` must fit in `u32`, checked at construction).
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, in edge-insertion order per node. Stored
    /// as `NodeId` so [`Graph::neighbors`] can hand out a borrowed
    /// `&[NodeId]` slice directly (a `u32` target array would halve the
    /// memory again but force a copy or a cast at every call site).
    targets: Vec<NodeId>,
    /// The undirected edge list (normalized `u < v`, insertion order).
    edges: Vec<(NodeId, NodeId)>,
    /// Cached maximum degree (the sense stage sizes its count cells by it,
    /// and recomputing it is an `O(n)` scan the hot paths should not pay).
    max_degree: usize,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    ///
    /// Note that a graph with more than one node and no edges is not connected; add
    /// edges with [`Graph::add_edge`] before running an execution on it.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            edges: Vec::new(),
            max_degree: 0,
        }
    }

    /// Creates a graph from an explicit edge list over nodes `0..n` with a
    /// two-pass CSR build: one pass counts degrees (filling `offsets` by
    /// prefix sum), one pass writes each edge's two endpoints through
    /// per-node cursors. `O(n + E)`, no per-node allocations — this is the
    /// constructor every [`Topology`](crate::topology::Topology) builder
    /// uses.
    ///
    /// Per-node neighbor order equals the order the edges appear in `edges`,
    /// exactly as if each had been pushed through [`Graph::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    /// Duplicate edges are rejected in debug builds only (an `O(E log E)`
    /// scan release builds skip; all in-tree generators are duplicate-free
    /// by construction).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(
            edges.len() * 2 <= u32::MAX as usize,
            "edge count {} overflows the u32 CSR offset table",
            edges.len()
        );
        let mut degrees = vec![0u32; n];
        for &(u, v) in edges {
            assert!(u != v, "self-loops are not allowed ({u})");
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for {n} nodes");
            degrees[u] += 1;
            degrees[v] += 1;
        }
        #[cfg(debug_assertions)]
        {
            let mut normalized: Vec<(NodeId, NodeId)> = edges
                .iter()
                .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
                .collect();
            normalized.sort_unstable();
            for w in normalized.windows(2) {
                assert!(w[0] != w[1], "duplicate edge ({}, {})", w[0].0, w[0].1);
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &d in &degrees {
            total += d;
            offsets.push(total);
        }
        // Cursor-fill pass: `cursor[v]` walks v's segment front to back, so
        // per-node neighbor order is edge-list order.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; total as usize];
        let mut edge_list = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            targets[cursor[u] as usize] = v;
            cursor[u] += 1;
            targets[cursor[v] as usize] = u;
            cursor[v] += 1;
            edge_list.push(if u < v { (u, v) } else { (v, u) });
        }
        let max_degree = degrees.iter().copied().max().unwrap_or(0) as usize;
        Graph {
            offsets,
            targets,
            edges: edge_list,
            max_degree,
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// This splices the endpoint into both CSR segments — `O(E)` per call —
    /// so it is meant for incremental test construction; bulk construction
    /// should collect an edge list and call [`Graph::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or if either endpoint is out of range. The
    /// duplicate-edge check (an `O(deg)` scan) runs in debug builds only.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u != v, "self-loops are not allowed ({u})");
        assert!(
            u < self.node_count() && v < self.node_count(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.node_count()
        );
        debug_assert!(!self.neighbors(u).contains(&v), "duplicate edge ({u}, {v})");
        assert!(
            self.targets.len() + 2 <= u32::MAX as usize,
            "edge count overflows the u32 CSR offset table"
        );
        // Append v at the end of u's segment, then u at the end of v's.
        // Each insert shifts only the segments of higher-numbered nodes;
        // bumping the offsets after each insert keeps the invariant.
        let pos_u = self.offsets[u + 1] as usize;
        self.targets.insert(pos_u, v);
        for off in &mut self.offsets[u + 1..] {
            *off += 1;
        }
        let pos_v = self.offsets[v + 1] as usize;
        self.targets.insert(pos_v, u);
        for off in &mut self.offsets[v + 1..] {
            *off += 1;
        }
        self.max_degree = self.max_degree.max(self.degree(u)).max(self.degree(v));
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.push(e);
    }

    /// Returns `true` if the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.node_count() && self.neighbors(u).contains(&v)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// The undirected edge list (each edge appears once, with `u < v`).
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The (exclusive) neighborhood `N(v)` — a borrowed slice into the CSR
    /// target array.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The inclusive neighborhood `N⁺(v) = N(v) ∪ {v}`.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should reuse a buffer via
    /// [`Graph::closed_neighborhood_into`] instead.
    pub fn inclusive_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree(v) + 1);
        self.closed_neighborhood_into(v, &mut out);
        out
    }

    /// Writes the inclusive neighborhood `N⁺(v) = {v} ∪ N(v)` into `out`
    /// (cleared first), reusing its capacity — the allocation-free form of
    /// [`Graph::inclusive_neighbors`] for per-step loops.
    #[inline]
    pub fn closed_neighborhood_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(v);
        out.extend_from_slice(self.neighbors(v));
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Maximum degree over all nodes (0 for the empty graph). Cached at
    /// construction; `O(1)`.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// BFS distances from `source` to every node; unreachable nodes get `usize::MAX`.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &w in self.neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Graph distance `dist_G(u, v)`, or `None` if `v` is unreachable from `u`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let d = self.bfs_distances(u)[v];
        (d != usize::MAX).then_some(d)
    }

    /// A shortest path from `u` to `v` (inclusive of both endpoints), or `None` if
    /// unreachable.
    pub fn shortest_path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        let mut prev = vec![usize::MAX; self.node_count()];
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = VecDeque::new();
        dist[u] = 0;
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            if x == v {
                break;
            }
            for &w in self.neighbors(x) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[x] + 1;
                    prev[w] = x;
                    queue.push_back(w);
                }
            }
        }
        if dist[v] == usize::MAX {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != u {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Whether the graph is connected (the single-node graph is connected; the empty
    /// graph is not).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return false;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// The diameter of the graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not connected (the diameter would be infinite).
    pub fn diameter(&self) -> usize {
        assert!(self.is_connected(), "diameter of a disconnected graph");
        let mut diam = 0;
        for v in self.nodes() {
            let ecc = self
                .bfs_distances(v)
                .into_iter()
                .max()
                .expect("non-empty graph");
            diam = diam.max(ecc);
        }
        diam
    }

    /// The eccentricity of `v` (largest distance to any node).
    ///
    /// # Panics
    ///
    /// Panics if the graph is not connected.
    pub fn eccentricity(&self, v: NodeId) -> usize {
        let d = self.bfs_distances(v);
        assert!(
            d.iter().all(|&x| x != usize::MAX),
            "eccentricity in a disconnected graph"
        );
        d.into_iter().max().unwrap_or(0)
    }

    /// Nodes within distance `radius` of `v` (the ball `B(v, radius)`), including `v`.
    pub fn ball(&self, v: NodeId, radius: usize) -> Vec<NodeId> {
        self.bfs_distances(v)
            .into_iter()
            .enumerate()
            .filter(|&(_, d)| d <= radius)
            .map(|(u, _)| u)
            .collect()
    }

    // ---- Convenience constructors (thin wrappers around `topology`) -----------

    /// Path graph `P_n` (diameter `n − 1`).
    pub fn path(n: usize) -> Self {
        crate::topology::Topology::Path { n }.build_deterministic()
    }

    /// Cycle graph `C_n` (diameter `⌊n/2⌋`).
    pub fn cycle(n: usize) -> Self {
        crate::topology::Topology::Cycle { n }.build_deterministic()
    }

    /// Complete graph `K_n` (diameter 1).
    pub fn complete(n: usize) -> Self {
        crate::topology::Topology::Complete { n }.build_deterministic()
    }

    /// Star graph with one hub and `n − 1` leaves (diameter 2).
    pub fn star(n: usize) -> Self {
        crate::topology::Topology::Star { n }.build_deterministic()
    }

    /// `rows × cols` grid (diameter `rows + cols − 2`).
    pub fn grid(rows: usize, cols: usize) -> Self {
        crate::topology::Topology::Grid { rows, cols }.build_deterministic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn single_node_is_connected_with_diameter_zero() {
        let g = Graph::empty(1);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 0);
    }

    #[test]
    fn add_edge_is_symmetric() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(1, 1);
    }

    // The duplicate-edge checks are debug assertions; release test builds
    // skip them, so these two tests exist only with debug assertions on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn from_edges_rejects_duplicates_in_debug() {
        let _ = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn path_distances_and_diameter() {
        let g = Graph::path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.distance(0, 4), Some(4));
        assert_eq!(g.distance(2, 2), Some(0));
        assert_eq!(g.diameter(), 4);
        assert_eq!(g.eccentricity(2), 2);
    }

    #[test]
    fn cycle_diameter_is_half() {
        assert_eq!(Graph::cycle(8).diameter(), 4);
        assert_eq!(Graph::cycle(7).diameter(), 3);
        assert_eq!(Graph::cycle(3).diameter(), 1);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = Graph::complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.diameter(), 1);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn star_diameter_two() {
        let g = Graph::star(10);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn grid_diameter() {
        let g = Graph::grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = Graph::grid(3, 3);
        let p = g.shortest_path(0, 8).expect("connected");
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), g.distance(0, 8).unwrap() + 1);
        // consecutive nodes on the path are adjacent
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let g = Graph::empty(3);
        assert!(g.shortest_path(0, 2).is_none());
        assert_eq!(g.distance(0, 2), None);
    }

    #[test]
    fn inclusive_neighborhood_contains_self() {
        let g = Graph::path(4);
        let n1 = g.inclusive_neighbors(1);
        assert!(n1.contains(&1));
        assert!(n1.contains(&0));
        assert!(n1.contains(&2));
        assert_eq!(n1.len(), 3);
    }

    #[test]
    fn closed_neighborhood_into_reuses_the_buffer() {
        let g = Graph::path(4);
        let mut buf = Vec::new();
        g.closed_neighborhood_into(1, &mut buf);
        assert_eq!(buf, g.inclusive_neighbors(1));
        // the buffer is cleared (not appended to) on reuse
        g.closed_neighborhood_into(3, &mut buf);
        assert_eq!(buf, vec![3, 2]);
    }

    #[test]
    fn ball_grows_with_radius() {
        let g = Graph::path(7);
        assert_eq!(g.ball(3, 0), vec![3]);
        assert_eq!(g.ball(3, 1).len(), 3);
        assert_eq!(g.ball(3, 3).len(), 7);
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.edge_count(), 4);
    }

    /// The CSR bulk build and the incremental `add_edge` path must agree on
    /// everything observable: neighbor order (insertion order), edge list,
    /// degrees and the cached maximum degree.
    #[test]
    fn from_edges_matches_incremental_construction() {
        let edges = [(2, 0), (0, 1), (3, 1), (1, 2), (4, 3), (0, 4)];
        let bulk = Graph::from_edges(5, &edges);
        let mut inc = Graph::empty(5);
        for &(u, v) in &edges {
            inc.add_edge(u, v);
        }
        assert_eq!(bulk, inc);
        for v in 0..5 {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "node {v}");
        }
        assert_eq!(bulk.edges(), inc.edges());
        assert_eq!(bulk.max_degree(), inc.max_degree());
        // insertion order, not sorted order
        assert_eq!(bulk.neighbors(0), &[2, 1, 4]);
        assert_eq!(bulk.neighbors(1), &[0, 3, 2]);
    }

    #[test]
    fn max_degree_is_maintained_incrementally() {
        let mut g = Graph::empty(4);
        assert_eq!(g.max_degree(), 0);
        g.add_edge(0, 1);
        assert_eq!(g.max_degree(), 1);
        g.add_edge(0, 2);
        assert_eq!(g.max_degree(), 2);
        g.add_edge(0, 3);
        assert_eq!(g.max_degree(), 3);
        g.add_edge(1, 2);
        assert_eq!(g.max_degree(), 3);
    }
}

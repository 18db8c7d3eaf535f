//! Criterion micro-benchmarks: raw simulator and algorithm throughput.
//!
//! These complement the experiment specs run by `sa run` (which measure *rounds*, the
//! unit of the paper's claims) with wall-clock numbers: how fast the simulator executes AlgAU
//! transitions, full synchronous rounds, and end-to-end stabilization runs.
//!
//! The `composite-step` group times warm AlgLE / AlgMIS steps through the
//! synchronizer on the factored path against the closure path.
//!
//! The `synchronous-round` group runs every topology under **both** signal
//! engines — `dense` (the incremental bitmask engine, the default) and
//! `sparse` (the from-scratch `BTreeSet` baseline) — so the dense engine's
//! speedup is measured directly; the run ends with a printed dense-vs-sparse
//! summary, and the full results land in `BENCH_micro.json` (see the
//! `criterion` stand-in crate).

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use sa_model::algorithm::{Algorithm, StateSpace};
use sa_model::engine::EngineKind;
use sa_model::executor::{ExecutionBuilder, SignalMode};
use sa_model::graph::Graph;
use sa_model::scheduler::{SynchronousScheduler, UniformRandomScheduler};
use sa_model::signal::Signal;
use sa_model::topology::Topology;
use sa_synchronizer::{async_le, async_mis, random_composite_configuration, Synchronized};
use unison_core::{AlgAu, GoodGraphOracle, Turn};

/// State of the [`MinPlusOne`] scale-benchmark algorithm: a pinned source or
/// a capped distance estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Level {
    /// Distance 0, never transitions.
    Source,
    /// Current capped distance estimate (1..=cap).
    At(u8),
}

/// Deterministic capped-BFS relaxation: every non-source node moves to one
/// plus the smallest level it senses. Its fixpoint (capped BFS distances
/// from the sources) is **non-uniform**, which is exactly what the scale
/// benchmark needs: the uniform-configuration fast path cannot trigger, so
/// post-stabilization rounds measure the evaluate stage itself — full-scan
/// vs active-set. No mask compilation on purpose: the closure path is the
/// honest "what the engine would do without frontier skipping" baseline.
struct MinPlusOne {
    cap: u8,
}

impl Algorithm for MinPlusOne {
    type State = Level;
    type Output = u8;

    fn output(&self, state: &Level) -> Option<u8> {
        Some(match state {
            Level::Source => 0,
            Level::At(k) => *k,
        })
    }

    fn transition(
        &self,
        state: &Level,
        signal: &Signal<Level>,
        _rng: &mut dyn rand::RngCore,
    ) -> Level {
        match state {
            Level::Source => Level::Source,
            Level::At(_) => {
                let mut next = self.cap;
                if signal.senses(&Level::Source) {
                    next = 1;
                } else {
                    for k in 1..self.cap {
                        if signal.senses(&Level::At(k)) {
                            next = k + 1;
                            break;
                        }
                    }
                }
                Level::At(next)
            }
        }
    }

    fn transition_is_deterministic(&self) -> bool {
        true
    }

    fn dense_state_space(&self) -> Option<Vec<Level>> {
        Some(
            std::iter::once(Level::Source)
                .chain((1..=self.cap).map(Level::At))
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "min-plus-one"
    }
}

fn bench_transition(c: &mut Criterion) {
    let mut group = c.benchmark_group("algau-transition");
    for d in [2usize, 8, 32] {
        let alg = AlgAu::new(d);
        let signal = Signal::from_states(vec![Turn::Able(3), Turn::Able(4), Turn::Faulty(5)]);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut rng = rand::thread_rng();
            b.iter(|| {
                black_box(alg.transition(black_box(&Turn::Able(4)), black_box(&signal), &mut rng))
            })
        });
    }
    group.finish();
}

/// The topologies the round benchmark sweeps: a mid-size cycle and the
/// 1024-node torus the acceptance target is measured on.
fn round_benchmark_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle-256", Graph::cycle(256)),
        (
            "torus-32x32",
            Topology::Torus { rows: 32, cols: 32 }.build_deterministic(),
        ),
    ]
}

fn bench_synchronous_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("synchronous-round");
    group.sample_size(10);
    for (label, graph) in round_benchmark_graphs() {
        let d = graph.diameter();
        let alg = AlgAu::new(d);
        for (mode_label, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            group.bench_with_input(BenchmarkId::new(label, mode_label), &graph, |b, graph| {
                b.iter_batched(
                    || {
                        ExecutionBuilder::new(&alg, graph)
                            .seed(1)
                            .signal_mode(mode)
                            .uniform(Turn::Able(1))
                    },
                    |mut exec| {
                        let mut sched = SynchronousScheduler;
                        exec.run_rounds(&mut sched, 10);
                        black_box(exec.rounds())
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// Labels of the serial-vs-sharded scaling topologies (shared with the
/// summary printer, which needs only the names — constructing the ≥ 4096-node
/// graphs a second time just for labels would double the setup cost).
const SCALING_LABELS: [&str; 3] = ["torus-64x64", "hypercube-12", "regular4-4096"];

/// The large topologies the serial-vs-sharded scaling benchmark sweeps —
/// ≥ 4096 nodes each, per the intra-execution parallelism acceptance target:
/// the 64×64 torus, the dimension-12 hypercube and a random 4-regular
/// expander.
fn scaling_benchmark_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            SCALING_LABELS[0],
            Topology::Torus { rows: 64, cols: 64 }.build_deterministic(),
        ),
        (
            SCALING_LABELS[1],
            Topology::Hypercube { dim: 12 }.build_deterministic(),
        ),
        (
            SCALING_LABELS[2],
            Topology::RandomRegular { n: 4096, deg: 4 }.build(7),
        ),
    ]
}

/// The engine configurations the scaling benchmark compares.
fn scaling_engines() -> [(&'static str, EngineKind); 4] {
    [
        ("serial", EngineKind::Serial),
        ("sharded-2", EngineKind::Sharded { threads: 2 }),
        ("sharded-4", EngineKind::Sharded { threads: 4 }),
        ("sharded-8", EngineKind::Sharded { threads: 8 }),
    ]
}

/// Serial vs sharded step engines on large topologies: AlgAU from an
/// adversarial random configuration (heterogeneous signals keep the evaluate
/// stage busy — the synchronized-lockstep fast path would bypass the engines
/// entirely), three synchronous rounds per iteration.
fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-scaling");
    group.sample_size(10);
    for (label, graph) in scaling_benchmark_graphs() {
        let d = graph.diameter();
        let alg = AlgAu::new(d);
        let palette = alg.states();
        for (engine_label, kind) in scaling_engines() {
            group.bench_with_input(BenchmarkId::new(label, engine_label), &graph, |b, graph| {
                b.iter_batched(
                    || {
                        ExecutionBuilder::new(&alg, graph)
                            .seed(11)
                            .engine(kind)
                            .random_initial(&palette)
                    },
                    |mut exec| {
                        let mut sched = SynchronousScheduler;
                        exec.run_rounds(&mut sched, 3);
                        black_box(exec.rounds());
                        // Return the execution so its teardown (for the
                        // sharded engine: worker-pool shutdown + joins)
                        // happens after the timer stops.
                        exec
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Labels of the mask-predicate topologies (shared with the summary
/// printer).
const MASK_LABELS: [&str; 2] = ["torus-32x32", "regular4-1024"];

/// The mask-predicate benchmark graphs, each paired with a *churning* AlgAU
/// instance: the level bound is deliberately smaller than the graph
/// diameter, so the field never synchronizes and every synchronous round
/// keeps evaluating heterogeneous `(state, signal)` pairs — the memo ring
/// thrashes and the closure path pays the full per-sensed-state iteration,
/// which is exactly the workload the word-level masks replace.
fn mask_benchmark_graphs() -> Vec<(&'static str, Graph, AlgAu)> {
    vec![
        (
            MASK_LABELS[0],
            Topology::Torus { rows: 32, cols: 32 }.build_deterministic(),
            AlgAu::new(4),
        ),
        (
            MASK_LABELS[1],
            Topology::RandomRegular { n: 1024, deg: 4 }.build(9),
            AlgAu::new(3),
        ),
    ]
}

/// Word-level mask predicates vs the closure path on synchronous-round
/// workloads: identical executions (pinned by `tests/engine_equivalence.rs`),
/// only the transition evaluation strategy differs. The acceptance target is
/// a ≥ 2x median speedup for the masked path.
fn bench_mask_predicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("mask-predicates");
    group.sample_size(10);
    for (label, graph, alg) in mask_benchmark_graphs() {
        let palette = alg.states();
        for (path_label, masked) in [("masked", true), ("closure", false)] {
            group.bench_with_input(BenchmarkId::new(label, path_label), &graph, |b, graph| {
                b.iter_batched(
                    || {
                        ExecutionBuilder::new(&alg, graph)
                            .seed(21)
                            .masked_transitions(masked)
                            .random_initial(&palette)
                    },
                    |mut exec| {
                        let mut sched = SynchronousScheduler;
                        exec.run_rounds(&mut sched, 5);
                        black_box(exec.rounds())
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Labels of the composite-step topologies (shared with the summary
/// printer), with their side lengths.
const COMPOSITE_TORI: [(&str, usize); 2] = [("torus-4x4", 4), ("torus-16x16", 16)];

/// Warm AlgLE and AlgMIS steps through the synchronizer under
/// `uniform-random` p=0.5, on the factored path (per-node palette
/// coordinates) and on the closure path (sparse composite signals) —
/// identical executions, pinned by `tests/engine_equivalence.rs`. Each
/// execution starts from a random composite configuration and takes 200
/// steps before timing starts; one iteration is one step.
fn bench_composite_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("composite-step");
    group.sample_size(10);
    for (label, side) in COMPOSITE_TORI {
        let graph = Topology::Torus {
            rows: side,
            cols: side,
        }
        .build_deterministic();
        let d = graph.diameter();
        composite_legs(&mut group, &format!("le-{label}"), &async_le(d), &graph);
        composite_legs(&mut group, &format!("mis-{label}"), &async_mis(d), &graph);
    }
    group.finish();
}

/// The factored and closure legs of one composite on one graph.
fn composite_legs<A: Algorithm + StateSpace>(
    group: &mut BenchmarkGroup<'_>,
    label: &str,
    alg: &Synchronized<A>,
    graph: &Graph,
) {
    let n = graph.node_count();
    let init = random_composite_configuration(&alg.inner().states(), alg.unison(), n, 3);
    for (leg, factored) in [("factored", true), ("closure", false)] {
        group.bench_with_input(BenchmarkId::new(label, leg), graph, |b, graph| {
            let mut exec = ExecutionBuilder::new(alg, graph)
                .seed(3)
                .masked_transitions(factored)
                .initial(init.clone());
            let mut sched = UniformRandomScheduler::new(0.5);
            for _ in 0..200 {
                exec.step_with(&mut sched);
            }
            b.iter(|| exec.step_with(&mut sched))
        });
    }
}

/// Labels of the apply-scaling topologies (shared with the summary printer).
const APPLY_LABELS: [&str; 2] = ["torus-64x64", "hypercube-12"];

/// Serial vs sharded apply on ≥ 4096-node topologies. A churning AlgAU
/// keeps every synchronous changed set far above
/// `SHARDED_APPLY_MIN_CHANGED`, so the sharded engines commit the apply
/// stage across the pool (the evaluate stage is already mask-compiled and
/// cheap — the degree-12 hypercube makes the `O(changed · deg)` count
/// updates the dominant cost). Single-core hosts record the honest ≤ 1x
/// coordination overhead; re-record on a multi-core host for the real
/// scaling (see ROADMAP).
fn bench_apply_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply-scaling");
    group.sample_size(10);
    let graphs = vec![
        (
            APPLY_LABELS[0],
            Topology::Torus { rows: 64, cols: 64 }.build_deterministic(),
            AlgAu::new(4),
        ),
        (
            APPLY_LABELS[1],
            Topology::Hypercube { dim: 12 }.build_deterministic(),
            AlgAu::new(3),
        ),
    ];
    for (label, graph, alg) in graphs {
        let palette = alg.states();
        for (engine_label, kind) in [
            ("serial", EngineKind::Serial),
            ("sharded-2", EngineKind::Sharded { threads: 2 }),
            ("sharded-4", EngineKind::Sharded { threads: 4 }),
        ] {
            group.bench_with_input(BenchmarkId::new(label, engine_label), &graph, |b, graph| {
                b.iter_batched(
                    || {
                        ExecutionBuilder::new(&alg, graph)
                            .seed(31)
                            .engine(kind)
                            .random_initial(&palette)
                    },
                    |mut exec| {
                        let mut sched = SynchronousScheduler;
                        exec.run_rounds(&mut sched, 2);
                        black_box(exec.rounds());
                        exec
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Labels of the million-node scale topologies (shared with the summary
/// printer and the rounds/sec recorder).
const SCALE_LABELS: [&str; 2] = ["torus-1024x1024", "regular4-1e6"];

/// Distance cap of the scale benchmark's [`MinPlusOne`] instance. The cap
/// sizes the palette (`cap + 1` states), and at 81 states × 10⁶ nodes the
/// per-node count table would exceed the dense engine's
/// `MAX_DENSE_COUNT_CELLS` budget, so sensing falls back to the sparse
/// path: every full-scan evaluation rebuilds each activated node's signal
/// from the configuration, with no memo tier to absorb the stabilized
/// interior. That is the honest million-node regime for non-tiny palettes —
/// and exactly the work the dirty frontier exists to skip. (A small cap
/// stays in dense mode, where the memo ring already collapses the uniform
/// interior and the two legs mostly measure shared bookkeeping.)
const SCALE_CAP: u8 = 80;

/// Rounds needed to reach the fixpoint from the all-`At(cap)` start: `cap`
/// rounds for the gradient to form ring by ring, plus slack.
const SCALE_CONVERGE_ROUNDS: u64 = SCALE_CAP as u64 + 3;

/// Per-leg warmup rounds on the pre-converged configuration: the first
/// drains the initially all-dirty frontier (no node changes on a fixpoint),
/// the second is already steady state.
const SCALE_WARMUP_ROUNDS: u64 = 2;

/// The million-node topologies of the scale benchmark.
fn scale_benchmark_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            SCALE_LABELS[0],
            Topology::Torus {
                rows: 1024,
                cols: 1024,
            }
            .build_deterministic(),
        ),
        (
            SCALE_LABELS[1],
            Topology::RandomRegular {
                n: 1_000_000,
                deg: 4,
            }
            .build(13),
        ),
    ]
}

/// Post-stabilization synchronous rounds on 10⁶-node graphs: active-set
/// (dirty-frontier) execution vs the forced full scan, on the same converged
/// non-uniform [`MinPlusOne`] fixpoint. Streaming counters keep the metrics
/// memory `O(1)`. The acceptance target is a ≥ 5x speedup for the
/// active-set leg; derived rounds/sec figures and a peak-RSS proxy are
/// recorded alongside the timings.
fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    let alg = MinPlusOne { cap: SCALE_CAP };
    for (label, graph) in scale_benchmark_graphs() {
        let n = graph.node_count();
        let mut initial = vec![Level::At(SCALE_CAP); n];
        initial[0] = Level::Source;
        // Converge once (cheap under active-set execution) and hand the
        // fixpoint to both legs as their initial configuration — the
        // full-scan leg then pays its per-round cost only inside the
        // measurement, not for the `cap`-round stabilization phase.
        let converged_config = {
            let mut exec = ExecutionBuilder::new(&alg, &graph)
                .seed(41)
                .active_set(true)
                .streaming_counters(true)
                .initial(initial);
            let mut sched = SynchronousScheduler;
            exec.run_rounds(&mut sched, SCALE_CONVERGE_ROUNDS);
            exec.configuration().to_vec()
        };
        for (leg_label, active_set) in [("active-set", true), ("full-eval", false)] {
            group.bench_with_input(BenchmarkId::new(label, leg_label), &graph, |b, graph| {
                let mut exec = ExecutionBuilder::new(&alg, graph)
                    .seed(41)
                    .active_set(active_set)
                    .streaming_counters(true)
                    .initial(converged_config.clone());
                let mut sched = SynchronousScheduler;
                exec.run_rounds(&mut sched, SCALE_WARMUP_ROUNDS);
                assert_eq!(
                    exec.counters().total_state_changes(),
                    0,
                    "scale benchmark must start from a converged configuration"
                );
                // Steady state: each iteration is one post-stabilization
                // synchronous round on the (stable) fixpoint.
                b.iter(|| {
                    exec.run_rounds(&mut sched, 1);
                    black_box(exec.rounds())
                });
                assert_eq!(
                    exec.counters().total_state_changes(),
                    0,
                    "scale benchmark must measure a converged execution"
                );
                assert_eq!(exec.uses_active_set(), active_set);
            });
        }
    }
    group.finish();
    // Derived rounds/sec per leg. Informational only: throughput moves *up*
    // on an improvement, so bench-diff excludes `rounds-per-sec` keys from
    // its increase-only gate — the timing records above are the gated keys.
    for label in SCALE_LABELS {
        for leg in ["active-set", "full-eval"] {
            let median = c
                .records()
                .iter()
                .find(|r| r.group == "scale" && r.bench == format!("{label}/{leg}"))
                .map(|r| r.median_ns);
            if let Some(median_ns) = median {
                c.record_measurement(
                    "scale",
                    format!("{label}/{leg}/rounds-per-sec"),
                    1e9 / median_ns,
                );
            }
        }
    }
    if let Some(kb) = peak_rss_kb() {
        // Proxy, not a precise footprint: the kernel's peak-RSS high-water
        // mark for the whole bench process, dominated by the million-node
        // structures of this group. Gated by bench-diff like any timing, so
        // a memory blow-up in the scale path fails CI.
        c.record_measurement("scale", "peak-rss-kb", kb);
    }
}

/// The process peak-RSS high-water mark in kB (`VmHWM` from
/// `/proc/self/status`), `None` off Linux.
fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-node legitimacy of the capped-BFS gradient: every incident edge's
/// output difference is at most one. True (and non-uniform) at the
/// [`MinPlusOne`] fixpoint, so the oracle benchmark checks it every round
/// without the uniform-configuration fast path short-circuiting the
/// comparison.
struct GradientOracle;

impl GradientOracle {
    fn out(level: &Level) -> u8 {
        match level {
            Level::Source => 0,
            Level::At(k) => *k,
        }
    }
}

impl sa_model::algorithm::LegitimacyOracle<MinPlusOne> for GradientOracle {
    fn is_legitimate(&self, graph: &Graph, config: &[Level]) -> bool {
        graph
            .edges()
            .iter()
            .all(|&(u, v)| Self::out(&config[u]).abs_diff(Self::out(&config[v])) <= 1)
    }

    fn as_local(&self) -> Option<&dyn sa_model::oracle::LocalPredicate<Level>> {
        Some(self)
    }
}

impl sa_model::oracle::LocalPredicate<Level> for GradientOracle {
    fn node_ok(&self, graph: &Graph, config: &[Level], v: usize) -> bool {
        graph
            .neighbors(v)
            .iter()
            .all(|&u| Self::out(&config[u]).abs_diff(Self::out(&config[v])) <= 1)
    }

    fn uniform_ok(&self, _graph: &Graph, _state: &Level) -> Option<bool> {
        Some(true)
    }
}

/// Post-stabilization round **checks** on 10⁶-node graphs: one synchronous
/// round on the converged non-uniform [`MinPlusOne`] fixpoint with (a) no
/// legitimacy check at all, (b) the incremental [`LegitimacyTracker`] fed
/// from the dirty frontier, (c) the full `O(n·deg)` scan every round. The
/// acceptance target is the incremental leg landing within 2x of check-free
/// (the tracker's quiescent check is O(1); the full scan pays the whole
/// graph each round).
fn bench_oracle(c: &mut Criterion) {
    use sa_model::algorithm::LegitimacyOracle;
    use sa_model::oracle::LegitimacyTracker;

    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    let alg = MinPlusOne { cap: SCALE_CAP };
    for (label, graph) in scale_benchmark_graphs() {
        let n = graph.node_count();
        let mut initial = vec![Level::At(SCALE_CAP); n];
        initial[0] = Level::Source;
        let converged_config = {
            let mut exec = ExecutionBuilder::new(&alg, &graph)
                .seed(41)
                .active_set(true)
                .streaming_counters(true)
                .initial(initial);
            let mut sched = SynchronousScheduler;
            exec.run_rounds(&mut sched, SCALE_CONVERGE_ROUNDS);
            exec.configuration().to_vec()
        };
        let oracle = GradientOracle;
        assert!(
            oracle.is_legitimate(&graph, &converged_config),
            "the fixpoint must satisfy the gradient predicate"
        );
        for leg in ["check-free", "incremental", "full-scan"] {
            group.bench_with_input(BenchmarkId::new(label, leg), &graph, |b, graph| {
                let mut exec = ExecutionBuilder::new(&alg, graph)
                    .seed(41)
                    .active_set(true)
                    .streaming_counters(true)
                    .initial(converged_config.clone());
                let mut sched = SynchronousScheduler;
                exec.run_rounds(&mut sched, SCALE_WARMUP_ROUNDS);
                let local = oracle.as_local().expect("GradientOracle decomposes");
                let mut tracker = LegitimacyTracker::new(graph);
                if leg == "incremental" {
                    // Seed the bad-set outside the measurement — the one-off
                    // full pass is the price of entry, the steady state is
                    // what the round check costs from then on.
                    assert!(tracker.is_legitimate(local, graph, exec.configuration()));
                }
                b.iter(|| match leg {
                    "check-free" => {
                        exec.run_rounds(&mut sched, 1);
                        black_box(exec.rounds())
                    }
                    "incremental" => {
                        exec.step_with(&mut sched);
                        tracker.note_step(
                            local,
                            graph,
                            exec.configuration(),
                            exec.last_changed(),
                            exec.last_step_uniform(),
                        );
                        assert!(tracker.is_legitimate(local, graph, exec.configuration()));
                        black_box(exec.rounds())
                    }
                    _ => {
                        exec.run_rounds(&mut sched, 1);
                        assert!(oracle.is_legitimate(graph, exec.configuration()));
                        black_box(exec.rounds())
                    }
                });
            });
        }
    }
    group.finish();
}

fn bench_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("algau-stabilization");
    group.sample_size(10);
    for d in [2usize, 4] {
        let graph = Graph::cycle(2 * d);
        let alg = AlgAu::new(d);
        let palette = alg.states();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter_batched(
                || {
                    ExecutionBuilder::new(&alg, &graph)
                        .seed(7)
                        .random_initial(&palette)
                },
                |mut exec| {
                    let mut sched = UniformRandomScheduler::new(0.5);
                    let outcome = exec.run_until_legitimate(
                        &mut sched,
                        &GoodGraphOracle::new(alg),
                        1_000_000,
                    );
                    black_box(outcome.rounds())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Prints the dense-vs-sparse speedup per topology from the recorded
/// `synchronous-round` results (the acceptance target is ≥ 5x on the
/// 1024-node torus), then the serial-vs-sharded engine scaling from the
/// `engine-scaling` results (target: sharded-4 beating serial on a
/// ≥ 4096-node topology — requires ≥ 4 hardware cores; single-core hosts
/// report the honest ≤ 1x).
fn speedup_summary(c: &mut Criterion) {
    println!("\n==== dense vs sparse synchronous-round speedup ====");
    for (label, _) in round_benchmark_graphs() {
        let time_of = |mode: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "synchronous-round" && r.bench == format!("{label}/{mode}"))
                .map(|r| r.median_ns)
        };
        if let (Some(dense), Some(sparse)) = (time_of("dense"), time_of("sparse")) {
            println!(
                "{label:<14} dense {dense:>14.0} ns/iter   sparse {sparse:>14.0} ns/iter   speedup {:.2}x",
                sparse / dense
            );
        }
    }
    println!("\n==== masked vs closure transition path (synchronous rounds) ====");
    for label in MASK_LABELS {
        let time_of = |path: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "mask-predicates" && r.bench == format!("{label}/{path}"))
                .map(|r| r.median_ns)
        };
        if let (Some(masked), Some(closure)) = (time_of("masked"), time_of("closure")) {
            println!(
                "{label:<14} masked {masked:>13.0} ns/iter   closure {closure:>13.0} ns/iter   speedup {:.2}x",
                closure / masked
            );
        }
    }
    println!("\n==== factored vs closure composite steps (uniform-random 0.5) ====");
    for (label, _) in COMPOSITE_TORI {
        for alg in ["le", "mis"] {
            let bench = format!("{alg}-{label}");
            let time_of = |leg: &str| {
                c.records()
                    .iter()
                    .find(|r| r.group == "composite-step" && r.bench == format!("{bench}/{leg}"))
                    .map(|r| r.median_ns)
            };
            if let (Some(factored), Some(closure)) = (time_of("factored"), time_of("closure")) {
                println!(
                    "{bench:<16} factored {factored:>11.0} ns/step   closure {closure:>11.0} ns/step   speedup {:.2}x",
                    closure / factored
                );
            }
        }
    }
    println!(
        "\n==== serial vs sharded apply ({} hardware threads) ====",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for label in APPLY_LABELS {
        let time_of = |engine: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "apply-scaling" && r.bench == format!("{label}/{engine}"))
                .map(|r| r.median_ns)
        };
        let Some(serial) = time_of("serial") else {
            continue;
        };
        let mut line = format!("{label:<14} serial {serial:>13.0} ns/iter");
        for engine_label in ["sharded-2", "sharded-4"] {
            if let Some(t) = time_of(engine_label) {
                line.push_str(&format!("   {engine_label} {:.2}x", serial / t));
            }
        }
        println!("{line}");
    }
    println!("\n==== active-set vs full-eval post-stabilization rounds (scale) ====");
    for label in SCALE_LABELS {
        let time_of = |leg: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "scale" && r.bench == format!("{label}/{leg}"))
                .map(|r| r.median_ns)
        };
        if let (Some(active), Some(full)) = (time_of("active-set"), time_of("full-eval")) {
            println!(
                "{label:<16} active-set {active:>13.0} ns/round   full-eval {full:>13.0} ns/round   speedup {:.2}x",
                full / active
            );
        }
    }
    println!("\n==== post-stabilization round checks (oracle) ====");
    for label in SCALE_LABELS {
        let time_of = |leg: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "oracle" && r.bench == format!("{label}/{leg}"))
                .map(|r| r.median_ns)
        };
        if let (Some(free), Some(inc), Some(full)) = (
            time_of("check-free"),
            time_of("incremental"),
            time_of("full-scan"),
        ) {
            println!(
                "{label:<16} check-free {free:>12.0} ns/round   incremental {inc:>12.0} ns/round ({:.2}x of check-free)   full-scan {full:>12.0} ns/round ({:.2}x of incremental)",
                inc / free,
                full / inc
            );
        }
    }
    println!(
        "\n==== serial vs sharded engine scaling ({} hardware threads) ====",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for label in SCALING_LABELS {
        let time_of = |engine: &str| {
            c.records()
                .iter()
                .find(|r| r.group == "engine-scaling" && r.bench == format!("{label}/{engine}"))
                .map(|r| r.median_ns)
        };
        let Some(serial) = time_of("serial") else {
            continue;
        };
        let mut line = format!("{label:<14} serial {serial:>13.0} ns/iter");
        for (engine_label, _) in scaling_engines().iter().skip(1) {
            if let Some(t) = time_of(engine_label) {
                line.push_str(&format!("   {engine_label} {:.2}x", serial / t));
            }
        }
        println!("{line}");
    }
}

criterion_group!(
    benches,
    bench_transition,
    bench_synchronous_round,
    bench_mask_predicates,
    bench_composite_step,
    bench_apply_scaling,
    bench_engine_scaling,
    bench_stabilization,
    bench_scale,
    bench_oracle,
    speedup_summary
);
criterion_main!(benches);

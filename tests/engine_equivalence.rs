//! Serial ≡ sharded engine equivalence, and activation-order invariance.
//!
//! The sharded step engine partitions each step's activation set across a
//! worker pool; because transitions read only the step's start snapshot and
//! draw coins from counter-based streams keyed by `(seed, node, time)`, the
//! shard count must be **observationally irrelevant**. These tests pin that
//! guarantee by running serial and sharded executions in lockstep — across
//! all six schedulers, both signal modes, under periodic fault injection,
//! for a deterministic (AlgAU) and a randomized algorithm, the synchronized
//! MIS and LE composites, and min-plus-one (no state index at all) — and
//! comparing step outcomes, configurations, changed-node lists, per-node
//! metrics and round accounting at every step. Identical configurations of the
//! *randomized* algorithm are simultaneously a check that the per-node RNG
//! streams agree draw for draw.
//!
//! The file also carries the regression test for the PR 1 order-dependence:
//! scripted out-of-order schedules now replay identically to ascending-id
//! schedules.

use rand::RngCore;

mod common;
use common::Cycler;
use stone_age_unison::model::algorithm::{Algorithm, StateSpace};
use stone_age_unison::model::prelude::*;
use stone_age_unison::model::EngineKind;
use stone_age_unison::synchronizer::{async_le, async_mis, random_composite_configuration};
use stone_age_unison::unison::baseline::MinPlusOne;
use stone_age_unison::unison::AlgAu;

/// Worker counts the sharded engine is exercised at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A randomized toy: adopt a uniformly random sensed state, or flip to a
/// fresh coin value — consumes a *variable* number of RNG draws per
/// activation, which makes stream divergence loud.
struct NoisyAdopt;

impl Algorithm for NoisyAdopt {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, rng: &mut dyn RngCore) -> u8 {
        use rand::Rng;
        if rng.gen_bool(0.5) {
            let k = rng.gen_range(0..sig.len().max(1));
            sig.iter().nth(k).copied().unwrap_or(*s)
        } else {
            rng.gen_range(0..6u8)
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some((0..6).collect())
    }
}

/// Builds a fresh boxed scheduler per run (each execution of a lockstep pair
/// needs its own instance).
type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// The six built-in scheduler families, freshly built per run. The scripted
/// entry deliberately lists nodes out of order and with duplicates.
fn scheduler_factories(n: usize) -> Vec<(&'static str, SchedulerFactory)> {
    vec![
        ("synchronous", Box::new(|| Box::new(SynchronousScheduler))),
        (
            "uniform-random",
            Box::new(|| Box::new(UniformRandomScheduler::new(0.5))),
        ),
        ("central", Box::new(|| Box::new(CentralScheduler))),
        (
            "round-robin",
            Box::new(|| Box::<RoundRobinScheduler>::default()),
        ),
        (
            "adversarial-laggard",
            Box::new(move || Box::new(AdversarialLaggardScheduler::starving(n - 1, 4))),
        ),
        (
            "scripted",
            Box::new(move || {
                Box::new(ScriptedScheduler::new(vec![
                    (0..n).rev().collect(),
                    vec![n / 2, 0, n / 2],
                    vec![n - 1, 0],
                    (0..n).collect(),
                ]))
            }),
        ),
    ]
}

/// Steps a serial and a sharded execution of the same algorithm in lockstep
/// (with periodic fault injection when a palette is given) and asserts they
/// stay bit-for-bit identical in every observable.
#[allow(clippy::too_many_arguments)]
fn assert_lockstep_equivalence<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    workers: usize,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    fault_palette: Option<&[A::State]>,
    steps: usize,
    context: &str,
) {
    let mut serial = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .engine(EngineKind::Serial)
        .initial(init.clone());
    let mut sharded = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .engine(EngineKind::Sharded { threads: workers })
        .initial(init);
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    let mut injector_a = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    let mut injector_b = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    for step in 0..steps {
        let a = serial.step_with(&mut *sched_a);
        let b = sharded.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            serial.configuration(),
            sharded.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            serial.last_changed(),
            sharded.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
        if a.round_completed {
            if let (Some(ia), Some(ib)) = (injector_a.as_mut(), injector_b.as_mut()) {
                let va = ia.on_round(&mut serial);
                let vb = ib.on_round(&mut sharded);
                assert_eq!(va, vb, "[{context}] step {step}: fault victims diverged");
            }
        }
    }
    assert_eq!(serial.time(), sharded.time(), "[{context}] time diverged");
    assert_eq!(
        serial.rounds(),
        sharded.rounds(),
        "[{context}] rounds diverged"
    );
    assert_eq!(
        serial.counters(),
        sharded.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(
        sharded.validate_incremental_sensing(),
        "[{context}] sharded sensing state inconsistent"
    );
}

/// The full matrix for the paper's deterministic unison algorithm: six
/// schedulers × dense/sparse × 1/2/4/8 workers, with fault injection.
#[test]
fn algau_sharded_matches_serial_across_schedulers_modes_workers_and_faults() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();
    let init: Vec<_> = (0..n).map(|v| palette[v * 7 % palette.len()]).collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            for workers in WORKER_COUNTS {
                let context = format!("algau/{sched_name}/{mode_name}/workers={workers}");
                assert_lockstep_equivalence(
                    &alg,
                    &graph,
                    init.clone(),
                    0xa1_900 + workers as u64,
                    mode,
                    workers,
                    factory.as_ref(),
                    Some(&palette),
                    40,
                    &context,
                );
            }
        }
    }
}

/// The same matrix for a randomized algorithm: identical trajectories here
/// additionally prove the per-node coin streams agree draw for draw
/// (transition coins are the only nondeterminism in the step).
#[test]
fn randomized_sharded_matches_serial_across_schedulers_modes_workers_and_faults() {
    let graph = Topology::Cycle { n: 11 }.build_deterministic();
    let n = graph.node_count();
    let init: Vec<u8> = (0..n as u8).map(|v| v % 6).collect();
    let palette: Vec<u8> = (0..6).collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            for workers in WORKER_COUNTS {
                let context = format!("noisy/{sched_name}/{mode_name}/workers={workers}");
                assert_lockstep_equivalence(
                    &NoisyAdopt,
                    &graph,
                    init.clone(),
                    0x5eed + workers as u64,
                    mode,
                    workers,
                    factory.as_ref(),
                    Some(&palette),
                    40,
                    &context,
                );
            }
        }
    }
}

/// The synchronizer composites of Corollary 1.2 (AlgMIS and AlgLE lifted
/// through the synchronizer): randomized hosts whose composite state space
/// is far beyond the dense engine's limit, so both engines run the sparse
/// path. Each starts from a fully random composite configuration, under
/// faults drawn from the composite's representative corrupted states.
#[test]
fn synchronized_composites_sharded_match_serial() {
    let graph = Graph::grid(3, 3);
    let n = graph.node_count();
    let d = graph.diameter();
    let mis = async_mis(d);
    let le = async_le(d);
    let mis_init = random_composite_configuration(&mis.inner().states(), mis.unison(), n, 7);
    let le_init = random_composite_configuration(&le.inner().states(), le.unison(), n, 8);
    let mis_faults = mis.corrupted_states();
    let le_faults = le.corrupted_states();
    for (sched_name, factory) in scheduler_factories(n) {
        for workers in WORKER_COUNTS {
            let context = format!("{sched_name}/workers={workers}");
            assert_lockstep_equivalence(
                &mis,
                &graph,
                mis_init.clone(),
                0x315 + workers as u64,
                SignalMode::Auto,
                workers,
                factory.as_ref(),
                Some(&mis_faults),
                60,
                &format!("async-mis/{context}"),
            );
            assert_lockstep_equivalence(
                &le,
                &graph,
                le_init.clone(),
                0x1e + workers as u64,
                SignalMode::Auto,
                workers,
                factory.as_ref(),
                Some(&le_faults),
                60,
                &format!("async-le/{context}"),
            );
        }
    }
}

/// Steps a factored-path and a closure-path execution of a synchronized
/// composite in lockstep on `kind`, under faults from the composite's
/// corrupted states, and three quarters of the way through corrupts node 0
/// on both with `exotic` (a state outside the palettes), which drops the
/// factored execution to the closure path. Outcomes, configurations,
/// changed lists and counters must agree at every step.
#[allow(clippy::too_many_arguments)]
fn assert_factored_matches_closure<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    kind: EngineKind,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    faults: &[A::State],
    exotic: A::State,
    steps: usize,
    context: &str,
) {
    let build = |factored: bool| {
        ExecutionBuilder::new(alg, graph)
            .seed(seed)
            .engine(kind)
            .masked_transitions(factored)
            .initial(init.clone())
    };
    let mut factored = build(true);
    let mut closure = build(false);
    assert!(
        factored.uses_factored_transitions(),
        "[{context}] composite must run factored"
    );
    assert!(!closure.uses_factored_transitions());
    let plan = FaultPlan::Periodic {
        period: 2,
        count: 2,
    };
    let mut injector_a = FaultInjector::new(plan.clone(), faults.to_vec(), seed);
    let mut injector_b = FaultInjector::new(plan, faults.to_vec(), seed);
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    for step in 0..steps {
        if step == 3 * steps / 4 {
            assert!(
                factored.uses_factored_transitions(),
                "[{context}] fell back early"
            );
            factored.corrupt(0, exotic.clone());
            closure.corrupt(0, exotic.clone());
            assert!(!factored.uses_factored_transitions());
        }
        let a = factored.step_with(&mut *sched_a);
        let b = closure.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            factored.configuration(),
            closure.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            factored.last_changed(),
            closure.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
        assert_eq!(
            factored.counters(),
            closure.counters(),
            "[{context}] step {step}: counters diverged"
        );
        if a.round_completed {
            let va = injector_a.on_round(&mut factored);
            let vb = injector_b.on_round(&mut closure);
            assert_eq!(va, vb, "[{context}] step {step}: fault victims diverged");
        }
        assert!(
            factored.validate_incremental_sensing(),
            "[{context}] step {step}: coordinates out of step with the configuration"
        );
    }
}

/// The synchronizer composites' factored path (per-node palette
/// coordinates, AlgAU's turn masks, module Restart's masks on the simulated
/// bits) replays the closure path bit for bit: AlgMIS and AlgLE, serial
/// and sharded engines, every scheduler, from a fully random composite
/// start under faults — and through the fallback a state outside the
/// palettes forces.
#[test]
fn synchronized_composites_factored_match_closure() {
    use stone_age_unison::protocols::restart::RestartState;
    let graph = Graph::grid(3, 3);
    let n = graph.node_count();
    let d = graph.diameter();
    let mis = async_mis(d);
    let le = async_le(d);
    let mis_init = random_composite_configuration(&mis.inner().states(), mis.unison(), n, 17);
    let le_init = random_composite_configuration(&le.inner().states(), le.unison(), n, 18);
    // Host counters past their ranges: states no palette holds.
    let mut mis_exotic = mis.fresh_state();
    if let RestartState::Host(host) = &mut mis_exotic.current {
        host.step = 200;
    }
    let mut le_exotic = le.fresh_state();
    if let RestartState::Host(host) = &mut le_exotic.current {
        host.round_in_epoch = 200;
    }
    for (sched_name, factory) in scheduler_factories(n) {
        for kind in [EngineKind::Serial, EngineKind::Sharded { threads: 2 }] {
            let context = format!("{sched_name}/{}", kind.label());
            assert_factored_matches_closure(
                &mis,
                &graph,
                mis_init.clone(),
                0xfac7,
                kind,
                factory.as_ref(),
                &mis.corrupted_states(),
                mis_exotic,
                400,
                &format!("async-mis/{context}"),
            );
            assert_factored_matches_closure(
                &le,
                &graph,
                le_init.clone(),
                0xfac8,
                kind,
                factory.as_ref(),
                &le.corrupted_states(),
                le_exotic,
                400,
                &format!("async-le/{context}"),
            );
        }
    }
}

/// Min-plus-one's registers are unbounded, so it has no state index: both
/// engines sense and evaluate on the sparse `BTreeSet` signal path, with no
/// masks and no bitmask scratch rebuild, and a deterministic transition
/// keeps the active set on.
#[test]
fn min_plus_one_sharded_matches_serial_without_a_state_index() {
    let graph = Graph::grid(3, 4);
    let n = graph.node_count();
    let alg = MinPlusOne::new();
    let palette = [0u64, 1, 5, 17, 100, 1000];
    let init: Vec<u64> = (0..n)
        .map(|v| palette[(v * 5 + 3) % palette.len()])
        .collect();
    let probe = ExecutionBuilder::new(&alg, &graph).initial(init.clone());
    assert!(!probe.uses_dense_signals() && !probe.uses_masked_transitions());
    for (sched_name, factory) in scheduler_factories(n) {
        for workers in WORKER_COUNTS {
            assert_lockstep_equivalence(
                &alg,
                &graph,
                init.clone(),
                0x3110 + workers as u64,
                SignalMode::Auto,
                workers,
                factory.as_ref(),
                Some(&palette),
                40,
                &format!("min-plus-one/{sched_name}/workers={workers}"),
            );
        }
    }
}

/// A corruption outside the enumerated state space degrades the dense sense
/// stage mid-run; the sharded engine must follow the serial engine through
/// the degrade and onward on the sparse fallback.
#[test]
fn sharded_follows_serial_through_mid_run_degrade_to_sparse() {
    let graph = Graph::grid(3, 3);
    let init = vec![0u8; 9];
    for workers in WORKER_COUNTS {
        let mut serial = ExecutionBuilder::new(&NoisyAdopt, &graph)
            .seed(3)
            .engine(EngineKind::Serial)
            .initial(init.clone());
        let mut sharded = ExecutionBuilder::new(&NoisyAdopt, &graph)
            .seed(3)
            .engine(EngineKind::Sharded { threads: workers })
            .initial(init.clone());
        let mut sched_a = SynchronousScheduler;
        let mut sched_b = SynchronousScheduler;
        for step in 0..30 {
            if step == 9 {
                serial.corrupt(4, 77); // outside NoisyAdopt's {0..6} space
                sharded.corrupt(4, 77);
                assert!(!serial.uses_dense_signals());
                assert!(!sharded.uses_dense_signals());
            }
            serial.step_with(&mut sched_a);
            sharded.step_with(&mut sched_b);
            assert_eq!(
                serial.configuration(),
                sharded.configuration(),
                "workers={workers} step {step}"
            );
        }
        assert_eq!(serial.counters(), sharded.counters());
    }
}

/// Large-activation-set equivalence: a 256-node expander under the
/// synchronous scheduler gives every worker a real multi-node chunk.
#[test]
fn sharded_matches_serial_on_a_large_expander() {
    let graph = Topology::RandomRegular { n: 256, deg: 4 }.build(13);
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();
    let init: Vec<_> = (0..graph.node_count())
        .map(|v| palette[(v * 31 + 5) % palette.len()])
        .collect();
    for workers in [4usize, 8] {
        assert_lockstep_equivalence(
            &alg,
            &graph,
            init.clone(),
            99,
            SignalMode::Auto,
            workers,
            &|| Box::new(SynchronousScheduler),
            None,
            25,
            &format!("expander/workers={workers}"),
        );
    }
}

// ---- mask-compiled vs closure transition path ------------------------------

/// Steps a mask-compiled and a closure-path execution of the same algorithm
/// in lockstep and asserts bit-for-bit identity in every observable.
#[allow(clippy::too_many_arguments)]
fn assert_masked_matches_closure<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    steps: usize,
    context: &str,
) {
    let mut masked = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .masked_transitions(true)
        .initial(init.clone());
    let mut closure = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .masked_transitions(false)
        .initial(init);
    assert!(
        masked.uses_masked_transitions(),
        "[{context}] algorithm must compile masks"
    );
    assert!(!closure.uses_masked_transitions());
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    for step in 0..steps {
        let a = masked.step_with(&mut *sched_a);
        let b = closure.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            masked.configuration(),
            closure.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            masked.last_changed(),
            closure.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
    }
    assert_eq!(
        masked.counters(),
        closure.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(masked.validate_incremental_sensing());
}

/// AlgAU's mask-compiled transition replays the closure path exactly: all
/// six schedulers, dense *and* sparse signal modes (the sparse mode
/// exercises the word-level scratch rebuild in `evaluate_sparse`), from an
/// adversarial initial configuration.
#[test]
fn algau_masked_path_matches_closure_path() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    let init: Vec<_> = (0..n)
        .map(|v| palette[(v * 5 + 1) % palette.len()])
        .collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            assert_masked_matches_closure(
                &alg,
                &graph,
                init.clone(),
                0x3a5c,
                mode,
                factory.as_ref(),
                40,
                &format!("algau-mask/{sched_name}/{mode_name}"),
            );
        }
    }
}

/// Module Restart's mask-compiled transition (rules on the first and last
/// sensed position, the host on a listed host signal) replays the closure
/// path for bare AlgLE and AlgMIS — coins included — under every
/// scheduler, in both signal modes, from random starts over their palettes.
#[test]
fn restart_masked_path_matches_closure_path() {
    use stone_age_unison::protocols::{alg_le, alg_mis};
    let graph = Graph::grid(3, 3);
    let n = graph.node_count();
    let d = graph.diameter();
    let le = alg_le(d);
    let mis = alg_mis(d);
    let le_palette = le.states();
    let mis_palette = mis.states();
    let le_init: Vec<_> = (0..n)
        .map(|v| le_palette[(v * 37 + 2) % le_palette.len()])
        .collect();
    let mis_init: Vec<_> = (0..n)
        .map(|v| mis_palette[(v * 41 + 1) % mis_palette.len()])
        .collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            let context = format!("{sched_name}/{mode_name}");
            assert_masked_matches_closure(
                &le,
                &graph,
                le_init.clone(),
                0x1e5,
                mode,
                factory.as_ref(),
                60,
                &format!("alg-le/{context}"),
            );
            assert_masked_matches_closure(
                &mis,
                &graph,
                mis_init.clone(),
                0x315,
                mode,
                factory.as_ref(),
                60,
                &format!("alg-mis/{context}"),
            );
        }
    }
}

/// A toy with a hand-written mask compilation, used to drive the masked
/// path through a mid-run degrade: advance modulo 6 iff state 1 is sensed.
struct SensesOne;

impl Algorithm for SensesOne {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
        if sig.senses(&1) {
            (s + 1) % 6
        } else {
            *s
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some((0..6).collect())
    }
    fn transition_is_deterministic(&self) -> bool {
        true
    }
    fn compile_masked<'s>(
        &'s self,
        index: &std::sync::Arc<StateIndex<u8>>,
    ) -> Option<Box<dyn MaskedTransition<u8> + 's>> {
        struct Masks {
            one: SignalMask<u8>,
            next: Vec<u32>,
        }
        impl MaskedTransition<u8> for Masks {
            fn next_index(
                &self,
                state_idx: u32,
                signal_words: &[u64],
                _scratch: &mut WordPool,
                _rng: &mut dyn RngCore,
            ) -> MaskedOutcome<u8> {
                if self.one.intersects_words(signal_words) {
                    MaskedOutcome::Indexed(self.next[state_idx as usize])
                } else {
                    MaskedOutcome::Indexed(state_idx)
                }
            }
        }
        let next = (0..index.len())
            .map(|i| index.position(&((index.state(i) + 1) % 6)).unwrap() as u32)
            .collect();
        Some(Box::new(Masks {
            one: SignalMask::from_states(index, [&1u8]),
            next,
        }))
    }
}

/// A mid-run corruption with a state outside the enumerated space degrades
/// the dense sensing; the mask-compiled path must follow the closure path
/// through the degrade and keep matching on the sparse fallback, where
/// lanes that meet the exotic state fall back per node.
#[test]
fn masked_path_follows_closure_through_degrade() {
    let graph = Graph::grid(3, 3);
    let init: Vec<u8> = (0..9u8).map(|v| v % 6).collect();
    for workers in [1usize, 4] {
        let mut masked = ExecutionBuilder::new(&SensesOne, &graph)
            .seed(5)
            .engine(EngineKind::Sharded { threads: workers })
            .masked_transitions(true)
            .initial(init.clone());
        let mut closure = ExecutionBuilder::new(&SensesOne, &graph)
            .seed(5)
            .engine(EngineKind::Serial)
            .masked_transitions(false)
            .initial(init.clone());
        assert!(masked.uses_masked_transitions());
        let mut sched_a = SynchronousScheduler;
        let mut sched_b = SynchronousScheduler;
        for step in 0..30 {
            if step == 7 {
                masked.corrupt(4, 77); // outside {0..6}
                closure.corrupt(4, 77);
                assert!(!masked.uses_dense_signals());
            }
            masked.step_with(&mut sched_a);
            closure.step_with(&mut sched_b);
            assert_eq!(
                masked.configuration(),
                closure.configuration(),
                "workers={workers} step {step}"
            );
        }
        assert_eq!(masked.counters(), closure.counters());
    }
}

// ---- sharded apply stage ---------------------------------------------------

/// Sharded-apply ≡ serial-apply: on a graph whose synchronous changed sets
/// exceed `SHARDED_APPLY_MIN_CHANGED`, the sharded engine commits the apply
/// stage across its pool by node range; configurations, sensing state and
/// metrics must stay bit-identical to the fully serial engine.
#[test]
fn sharded_apply_matches_serial_on_large_changed_sets() {
    use stone_age_unison::model::engine::SHARDED_APPLY_MIN_CHANGED;
    let graph = Topology::RandomRegular { n: 2048, deg: 5 }.build(17);
    let n = graph.node_count();
    assert!(
        n >= SHARDED_APPLY_MIN_CHANGED * 2,
        "must exceed the threshold"
    );
    let init: Vec<u8> = (0..n).map(|v| ((v * 13 + 4) % 6) as u8).collect();
    for workers in [2usize, 4, 8] {
        assert_lockstep_equivalence(
            &Cycler,
            &graph,
            init.clone(),
            0xbead + workers as u64,
            SignalMode::Auto,
            workers,
            &|| Box::new(SynchronousScheduler),
            None,
            6,
            &format!("sharded-apply/workers={workers}"),
        );
    }
    // A randomized algorithm over the same graph: partial change sets above
    // and below the threshold, plus fault injection.
    let init: Vec<u8> = (0..n).map(|v| (v % 6) as u8).collect();
    let palette: Vec<u8> = (0..6).collect();
    assert_lockstep_equivalence(
        &NoisyAdopt,
        &graph,
        init,
        0xfeed,
        SignalMode::Auto,
        4,
        &|| Box::new(UniformRandomScheduler::new(0.9)),
        Some(&palette),
        6,
        "sharded-apply/noisy",
    );
}

// ---- active-set (dirty-frontier) execution ---------------------------------

/// Steps an active-set and a full-scan execution of the same deterministic
/// algorithm in lockstep (with periodic fault injection when a palette is
/// given) and asserts they stay bit-for-bit identical in every observable.
/// Halfway through, both executions take a snapshot and restore it, which
/// exercises the frontier's conservative re-marking on restore.
#[allow(clippy::too_many_arguments)]
fn assert_active_set_matches_full_scan<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    kind: EngineKind,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    fault_palette: Option<&[A::State]>,
    steps: usize,
    context: &str,
) {
    let mut fast = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .engine(kind)
        .active_set(true)
        .initial(init.clone());
    let mut full = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .engine(kind)
        .active_set(false)
        .initial(init);
    assert!(
        fast.uses_active_set(),
        "[{context}] deterministic algorithm must get a frontier"
    );
    assert!(!full.uses_active_set());
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    let mut injector_a = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    let mut injector_b = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    for step in 0..steps {
        if step == steps / 2 {
            let snap_a = fast.snapshot();
            let snap_b = full.snapshot();
            fast.restore(&snap_a);
            full.restore(&snap_b);
        }
        let a = fast.step_with(&mut *sched_a);
        let b = full.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            fast.configuration(),
            full.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            fast.last_changed(),
            full.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
        if a.round_completed {
            if let (Some(ia), Some(ib)) = (injector_a.as_mut(), injector_b.as_mut()) {
                let va = ia.on_round(&mut fast);
                let vb = ib.on_round(&mut full);
                assert_eq!(va, vb, "[{context}] step {step}: fault victims diverged");
            }
        }
    }
    assert_eq!(fast.time(), full.time(), "[{context}] time diverged");
    assert_eq!(fast.rounds(), full.rounds(), "[{context}] rounds diverged");
    assert_eq!(
        fast.counters(),
        full.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(
        fast.validate_incremental_sensing(),
        "[{context}] active-set sensing state inconsistent"
    );
}

/// The full differential matrix for the paper's deterministic unison
/// algorithm: active-set ≡ full-scan across six schedulers × dense/sparse ×
/// serial/sharded, under periodic fault injection and a mid-run
/// snapshot/restore.
#[test]
fn active_set_matches_full_scan_across_schedulers_modes_and_engines() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    let init: Vec<_> = (0..n)
        .map(|v| palette[(v * 7 + 2) % palette.len()])
        .collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            for (engine_name, kind) in [
                ("serial", EngineKind::Serial),
                ("sharded-4", EngineKind::Sharded { threads: 4 }),
            ] {
                let context = format!("active-set/{sched_name}/{mode_name}/{engine_name}");
                assert_active_set_matches_full_scan(
                    &alg,
                    &graph,
                    init.clone(),
                    0xd1_47_00,
                    mode,
                    kind,
                    factory.as_ref(),
                    Some(&palette),
                    40,
                    &context,
                );
            }
        }
    }
}

/// A deterministic spread toy whose synchronous trajectory reaches a
/// *uniform* fixpoint — the frontier must drain to empty through the
/// uniform-noop fast path, and a corruption must re-open exactly one
/// closed neighborhood.
struct Spread;

impl Algorithm for Spread {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
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

/// On a fixpoint the frontier drains to empty, stays empty across further
/// rounds, and a targeted corruption re-dirties only the victim's closed
/// neighborhood; the trajectory keeps matching the full scan throughout.
#[test]
fn frontier_drains_on_fixpoint_and_reopens_on_corruption() {
    let graph = Graph::grid(4, 4);
    let n = graph.node_count();
    let mut init = vec![0u8; n];
    init[5] = 1;
    let mut fast = ExecutionBuilder::new(&Spread, &graph)
        .seed(9)
        .active_set(true)
        .initial(init.clone());
    let mut full = ExecutionBuilder::new(&Spread, &graph)
        .seed(9)
        .active_set(false)
        .initial(init);
    let mut sched_a = SynchronousScheduler;
    let mut sched_b = SynchronousScheduler;
    // 4×4 grid: diameter 6, so 10 rounds reach the all-ones fixpoint.
    for _ in 0..10 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
    }
    assert!(fast.configuration().iter().all(|s| *s == 1));
    assert_eq!(fast.dirty_count(), 0, "frontier must drain on a fixpoint");
    assert_eq!(full.dirty_count(), n, "full-scan reports all nodes");
    for _ in 0..3 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
        assert_eq!(fast.dirty_count(), 0, "a stable round must not re-dirty");
    }
    // Corrupt one node back to 0: exactly its closed neighborhood re-opens.
    fast.corrupt(5, 0);
    full.corrupt(5, 0);
    assert_eq!(
        fast.dirty_count(),
        graph.inclusive_neighbors(5).len(),
        "corruption must re-open the victim's closed neighborhood"
    );
    for step in 0..6 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
        assert_eq!(
            fast.configuration(),
            full.configuration(),
            "step {step} after corruption diverged"
        );
    }
    assert_eq!(fast.configuration(), full.configuration());
    assert_eq!(fast.counters(), full.counters());
    assert_eq!(fast.dirty_count(), 0, "healed fixpoint must drain again");
}

/// Randomized algorithms never get a frontier — their transitions draw
/// coins, so a clean node's re-evaluation is *not* the identity. Even an
/// explicit opt-in must be refused.
#[test]
fn randomized_algorithms_never_use_the_active_set() {
    let graph = Graph::cycle(8);
    let exec = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(4)
        .active_set(true)
        .initial(vec![0u8; 8]);
    assert!(!exec.uses_active_set());
    assert_eq!(exec.dirty_count(), 8, "no frontier: reports every node");
}

/// Regression (PR 1): seeded trajectories of randomized algorithms are
/// independent of the order in which a scripted schedule lists its
/// activation sets — an out-of-order replay equals the ascending-id replay.
#[test]
fn scripted_out_of_order_schedule_replays_like_ascending_order() {
    let graph = Graph::cycle(7);
    let init: Vec<u8> = vec![0; 7];
    let shuffled = ScriptedScheduler::new(vec![
        vec![5, 1, 3],
        vec![6, 0],
        vec![2, 4, 2, 0],
        vec![6, 5, 4, 3, 2, 1, 0],
    ]);
    let ascending = ScriptedScheduler::new(vec![
        vec![1, 3, 5],
        vec![0, 6],
        vec![0, 2, 4],
        vec![0, 1, 2, 3, 4, 5, 6],
    ]);
    let mut a = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(21)
        .initial(init.clone());
    let mut b = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(21)
        .initial(init);
    let mut sched_a = shuffled;
    let mut sched_b = ascending;
    for step in 0..40 {
        let oa = a.step_with(&mut sched_a);
        let ob = b.step_with(&mut sched_b);
        assert_eq!(oa, ob, "step {step}: outcome diverged");
        assert_eq!(
            a.configuration(),
            b.configuration(),
            "step {step}: an out-of-order schedule changed the trajectory"
        );
    }
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.rounds(), b.rounds());
}

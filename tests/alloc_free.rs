//! Asserts the headline property of the dense execution engine: once warm,
//! the synchronous (and round-robin) step loop performs **zero heap
//! allocations** — signals are bitmask copies, activation sets and update
//! buffers are reused, and the transition memo rewrites its slots in place.
//! The property holds on **both step engines**: the sharded engine's only
//! allocations are its one-time pool spawn and the shard buffers' growth to
//! steady-state capacity, all during construction/warm-up. It holds for the
//! synchronizer composites (AlgLE, AlgMIS) too, on their factored path:
//! coordinates in place of composite signals, pooled scratch buffers for
//! the turn mask, the simulated signal and the host signal.
//!
//! Measured with a counting global allocator. This file deliberately contains
//! a single `#[test]`: the counter is process-global, so concurrent tests in
//! the same binary would pollute it. (The sharded engine's *parked* workers
//! perform no allocation between broadcasts, so they do not pollute the
//! serial sections either.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stone_age_unison::model::algorithm::{Algorithm, StateSpace};
use stone_age_unison::model::prelude::*;
use stone_age_unison::model::EngineKind;
use stone_age_unison::synchronizer::{
    async_le, async_mis, random_composite_configuration, Synchronized,
};
use stone_age_unison::unison::{AlgAu, Turn};

mod common;
use common::{Cycler, Promote};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_step_loop_allocates_nothing() {
    let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();

    // --- synchronous scheduler, adversarial (non-uniform) start -------------
    // A random initial configuration keeps the general dense path busy (the
    // uniform-configuration fast path only takes over once the field
    // synchronizes).
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(42)
        .random_initial(&palette);
    assert!(
        exec.uses_dense_signals(),
        "AlgAU must run on the dense engine"
    );
    let mut sched = SynchronousScheduler;
    // Warm up: buffers grow to steady-state capacity, the memo ring fills.
    for _ in 0..50 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "synchronous steps must not allocate once warm"
    );

    // --- synchronous scheduler, synchronized (uniform) start ----------------
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(7)
        .uniform(Turn::Able(1));
    let mut sched = SynchronousScheduler;
    for _ in 0..10 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "uniform lockstep steps must not allocate"
    );

    // --- round-robin scheduler ----------------------------------------------
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(3)
        .random_initial(&palette);
    let mut sched = RoundRobinScheduler::default();
    for _ in 0..(2 * graph.node_count()) {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..(4 * graph.node_count()) {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "round-robin steps must not allocate once warm"
    );

    // --- sharded engine, adversarial start ----------------------------------
    // Pool threads, shard buffers and per-lane scratch signals/memos are all
    // allocated during construction and the warm-up steps; the warm broadcast
    // loop itself (condvar wakeups + epoch bumps + buffer reuse) must be
    // allocation-free, like the serial engine's.
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(42)
        .engine(EngineKind::Sharded { threads: 4 })
        .random_initial(&palette);
    assert!(exec.uses_dense_signals());
    assert_eq!(exec.engine_kind(), EngineKind::Sharded { threads: 4 });
    let mut sched = SynchronousScheduler;
    for _ in 0..50 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "sharded synchronous steps must not allocate once warm"
    );

    // --- sharded engine, synchronized (uniform) start -----------------------
    let mut exec = ExecutionBuilder::new(&alg, &graph)
        .seed(7)
        .engine(EngineKind::Sharded { threads: 4 })
        .uniform(Turn::Able(1));
    let mut sched = SynchronousScheduler;
    for _ in 0..10 {
        exec.step_with(&mut sched);
    }
    let before = allocations();
    for _ in 0..200 {
        exec.step_with(&mut sched);
    }
    assert_eq!(
        allocations() - before,
        0,
        "sharded uniform lockstep steps must not allocate"
    );

    // --- sharded apply stage (changed sets above the sharding threshold) ----
    // Every Cycler step changes all 2048 nodes, so the sharded engine fans
    // the apply stage's count updates across the pool; the per-step shard
    // slots are stack-allocated, so the warm loop must stay at zero.
    {
        use stone_age_unison::model::engine::SHARDED_APPLY_MIN_CHANGED;
        let graph = Topology::RandomRegular { n: 2048, deg: 5 }.build(23);
        assert!(graph.node_count() >= 2 * SHARDED_APPLY_MIN_CHANGED);
        let init: Vec<u8> = (0..graph.node_count())
            .map(|v| ((v * 13 + 4) % 6) as u8)
            .collect();
        let mut exec = ExecutionBuilder::new(&Cycler, &graph)
            .seed(1)
            .engine(EngineKind::Sharded { threads: 4 })
            .initial(init);
        assert!(exec.uses_dense_signals());
        let mut sched = SynchronousScheduler;
        for _ in 0..5 {
            exec.step_with(&mut sched);
        }
        let before = allocations();
        for _ in 0..60 {
            exec.step_with(&mut sched);
        }
        assert_eq!(
            allocations() - before,
            0,
            "sharded-apply steps must not allocate once warm"
        );
    }

    // --- partial-batch apply -------------------------------------------------
    // Re-seeding zeros through `corrupt` makes every step a near-uniform
    // batch (all zeros move to one, the ones hold): the bulk word-write
    // commit must be allocation-free too.
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let n = graph.node_count();
        let init: Vec<u8> = (0..n).map(|v| (v % 2 == 0) as u8).collect();
        let mut exec = ExecutionBuilder::new(&Promote, &graph)
            .seed(2)
            .initial(init);
        let all: Vec<usize> = (0..n).collect();
        let movers: Vec<usize> = (0..n).step_by(2).collect();
        let batch_round = |exec: &mut Execution<'_, Promote>| {
            for &v in &movers {
                exec.corrupt(v, 0);
            }
            exec.step(&all);
        };
        for _ in 0..3 {
            batch_round(&mut exec);
        }
        let before = allocations();
        for _ in 0..50 {
            batch_round(&mut exec);
        }
        assert_eq!(
            allocations() - before,
            0,
            "partial-batch steps must not allocate once warm"
        );
        assert!(exec.validate_incremental_sensing());
    }

    // --- closed-neighborhood buffer reuse ------------------------------------
    // `closed_neighborhood_into` clears and refills a caller-owned buffer;
    // after one warming call per distinct degree, a scan over every node must
    // not allocate (the CSR adjacency itself is two flat arrays).
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let mut buf = Vec::new();
        graph.closed_neighborhood_into(0, &mut buf);
        let before = allocations();
        for v in 0..graph.node_count() {
            graph.closed_neighborhood_into(v, &mut buf);
            assert_eq!(buf.len(), graph.degree(v) + 1);
        }
        assert_eq!(
            allocations() - before,
            0,
            "closed-neighborhood scans must reuse the buffer"
        );
    }

    // --- active-set (dirty-frontier) execution -------------------------------
    // The frontier is a preallocated bitset; its per-step maintenance (clear
    // unchanged, re-mark changed closed neighborhoods) walks CSR slices, so
    // the warm active-set loop must stay allocation-free like the full scan.
    {
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let d = graph.diameter();
        let alg = AlgAu::new(d);
        let palette = alg.states();
        let mut exec = ExecutionBuilder::new(&alg, &graph)
            .seed(42)
            .active_set(true)
            .random_initial(&palette);
        assert!(exec.uses_active_set());
        let mut sched = SynchronousScheduler;
        for _ in 0..50 {
            exec.step_with(&mut sched);
        }
        let before = allocations();
        for _ in 0..200 {
            exec.step_with(&mut sched);
        }
        assert_eq!(
            allocations() - before,
            0,
            "active-set steps must not allocate once warm"
        );
    }

    // --- synchronizer composites (factored path) -----------------------------
    // From a random composite start the run goes through restarts, clock
    // advances and host steps; once the pooled buffers have grown to their
    // largest use, LE and MIS steps allocate nothing, under a partial
    // (uniform-random) and a full (synchronous) activation schedule.
    {
        fn warm_composite_steps_allocate_nothing<A: Algorithm + StateSpace>(
            name: &str,
            alg: &Synchronized<A>,
        ) {
            let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
            let init = random_composite_configuration(&alg.inner().states(), alg.unison(), 256, 11);
            let schedulers: [(&str, Box<dyn Scheduler>); 2] = [
                ("uniform-random", Box::new(UniformRandomScheduler::new(0.5))),
                ("synchronous", Box::new(SynchronousScheduler)),
            ];
            for (sched_name, mut sched) in schedulers {
                let mut exec = ExecutionBuilder::new(alg, &graph)
                    .seed(4)
                    .initial(init.clone());
                assert!(exec.uses_factored_transitions(), "{name} runs factored");
                for _ in 0..200 {
                    exec.step_with(&mut *sched);
                }
                let before = allocations();
                for _ in 0..200 {
                    exec.step_with(&mut *sched);
                }
                assert_eq!(
                    allocations() - before,
                    0,
                    "{name} steps under {sched_name} must not allocate once warm"
                );
                assert!(exec.uses_factored_transitions());
            }
        }
        let graph = Topology::Torus { rows: 16, cols: 16 }.build_deterministic();
        let d = graph.diameter();
        warm_composite_steps_allocate_nothing("AlgLE", &async_le(d));
        warm_composite_steps_allocate_nothing("AlgMIS", &async_mis(d));
    }

    // Sanity: the counter actually counts.
    let before = allocations();
    let v: Vec<u64> = Vec::with_capacity(256);
    drop(v);
    assert!(allocations() > before, "allocator instrumentation is live");
}

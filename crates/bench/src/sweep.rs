//! Declarative experiment sweeps: spec parsing, unit expansion and the
//! checkpointable unit runner.
//!
//! A *sweep spec* is a JSON document (parsed with [`sa_model::json`], no
//! external dependencies) describing a grid of experiment configurations:
//! **algorithms** × topologies × schedulers × engines × fault plans × seeds,
//! plus the *instant* tasks that run while the report renders (see below).
//! The spec expands into independent [`SweepUnit`]s; each
//! execution unit runs through [`run_unit`], which supports
//! **checkpoint/resume**: the in-flight execution state (configuration,
//! counters, scheduler position, RNG streams — see [`sa_model::snapshot`])
//! serializes to a JSON checkpoint at step boundaries, and a unit resumed
//! from its checkpoint is **bit-identical** to one that was never
//! interrupted (pinned by `tests/checkpoint_roundtrip.rs` and the CI
//! `sweep-smoke` / `scenario-smoke` jobs).
//!
//! # The `algorithm` axis
//!
//! A `stabilization` task may name the algorithms it sweeps
//! ([`AlgorithmSpec`]): the paper's asynchronous-unison algorithm AlgAU
//! (`"algau"`, the default), the unbounded-register `"min-plus-one"`
//! baseline of experiment E9, and the asynchronous leader-election and MIS
//! algorithms obtained from AlgLE/AlgMIS through the synchronizer of
//! Corollary 1.2 (`"le"`, `"mis"` — the asynchronous side of experiment
//! E7). Each family's starts, fault palette, legitimacy predicate, task
//! checker and checkpoint codec come from its entry in the family table
//! (`family.rs`); the phase machine ([`run_unit`]) is shared, so
//! checkpoint/resume bit-identity holds uniformly across the axis.
//!
//! # Fault-recovery scenarios
//!
//! A `scenario` task lifts the biological fault-recovery scenarios of
//! `bio-networks` (experiment E10) into the sweep vocabulary: a
//! [`ScenarioSpec`] (quorum-sensing `colony` → asynchronous LE on a damaged
//! clique, epithelial `tissue` → asynchronous MIS on a grid/torus,
//! segmented `pulse` field → AlgAU on a caveman graph) plus a
//! [`Harshness`] level expand into units that start from the benign
//! configuration, stabilize, pass a verification window and then recover
//! from a series of fault bursts — each burst scrambling a
//! harshness-dependent fraction of the cells, each recovery measured in
//! rounds and checkpointable mid-burst like any other unit.
//!
//! # Instant tasks
//!
//! Four task kinds expand into no units; [`run_instant_tasks`] computes
//! their rows (and artifacts) when the report renders:
//!
//! * `transition-table` (E1) — AlgAU's Table 1 and Figure 1 at one bound;
//! * `state-space` (E2) — state counts per diameter bound, optionally of
//!   the derived algorithms too;
//! * `restart-exit` (E4, Theorem 3.1) — module Restart around a trivial
//!   host, from random configurations with at least one node restarting,
//!   under the synchronous scheduler
//!   ([`measure_restart_exit`]);
//! * `static` (E5/E6, Theorems 1.3 and 1.4) — the synchronous AlgLE /
//!   AlgMIS from random configurations under the synchronous scheduler,
//!   measured by output stability
//!   ([`measure_static_stabilization`]).
//!
//! The two measuring kinds are parsed strictly (an unknown field is an
//! error), and each of their rows counts in `failures` every trial that
//! did not exit concurrently into the host's initial state, or that had
//! no clean tail at the end of its horizon.
//!
//! Unit dispatch lives one layer up, in [`crate::jobs`]: a job scheduler
//! with a priority queue, a worker budget and pluggable result sinks that
//! persists checkpoints and unit results under an output directory and
//! renders the aggregate to `EXPERIMENTS.json` + `EXPERIMENTS.md`
//! ([`render_json`] / [`render_markdown`]). Both the batch `sa` CLI
//! (`crates/sa-cli`) and the `sa serve` daemon are thin clients of that
//! core, and every experiment of the paper is a committed spec they run
//! (see the crate docs).

use crate::family::{with_family, State, SweepFamily};
use bio_networks::Harshness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sa_model::algorithm::StateSpace;
use sa_model::checker::{
    measure_static_stabilization, push_violation, violations_capped, TaskChecker,
};
use sa_model::engine::EngineKind;
use sa_model::executor::{Execution, ExecutionBuilder};
use sa_model::fault::{FaultInjector, FaultInjectorSnapshot, FaultPlan};
use sa_model::graph::Graph;
use sa_model::json::JsonValue;
use sa_model::metrics::{ExperimentRow, StepTimings, Summary};
use sa_model::oracle::LegitimacyTracker;
use sa_model::scheduler::{
    AdversarialLaggardScheduler, CentralScheduler, RoundRobinScheduler, Scheduler,
    SynchronousScheduler, UniformRandomScheduler,
};
use sa_model::snapshot::{u64_from_json, u64_to_json};
use sa_model::topology::Topology;
use sa_protocols::restart::{measure_restart_exit, RestartState, TrivialHost, WithRestart};
use sa_protocols::{alg_le, alg_mis, LeChecker, MisChecker};
use sa_runtime::parallel::CancelToken;
use unison_core::AlgAu;

/// Errors from spec parsing and unit execution, as human-readable strings
/// (the CLI prints them verbatim).
pub type SpecError = String;

pub(crate) fn field<'v>(
    value: &'v JsonValue,
    key: &str,
    ctx: &str,
) -> Result<&'v JsonValue, SpecError> {
    value
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing field \"{key}\""))
}

pub(crate) fn usize_field(value: &JsonValue, key: &str, ctx: &str) -> Result<usize, SpecError> {
    field(value, key, ctx)?
        .as_usize()
        .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a non-negative integer"))
}

pub(crate) fn f64_field(value: &JsonValue, key: &str, ctx: &str) -> Result<f64, SpecError> {
    field(value, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a number"))
}

pub(crate) fn u64_opt(value: &JsonValue, key: &str, ctx: &str) -> Result<Option<u64>, SpecError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => u64_from_json(v)
            .map(Some)
            .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a non-negative integer")),
    }
}

/// An optional boolean field, defaulting to `false` — but a present
/// non-boolean value is an error, not a silent `false`.
pub(crate) fn bool_opt(value: &JsonValue, key: &str, ctx: &str) -> Result<bool, SpecError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{ctx}: field \"{key}\" must be a boolean")),
    }
}

/// An optional positive integer field; a present `0` is an error.
fn positive_opt(value: &JsonValue, key: &str, ctx: &str) -> Result<Option<u64>, SpecError> {
    match u64_opt(value, key, ctx)? {
        Some(0) => Err(format!("{ctx}: field \"{key}\" must be positive")),
        other => Ok(other),
    }
}

/// A required array field, parsed item by item.
pub(crate) fn list_field<T>(
    value: &JsonValue,
    key: &str,
    ctx: &str,
    item: impl Fn(&JsonValue, &str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    field(value, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be an array"))?
        .iter()
        .map(|v| item(v, ctx))
        .collect()
}

/// Rejects every field of a task outside `allowed`. The strictly parsed
/// kinds (`verify`, `restart-exit`, `static`) call this first: a typo
/// such as `"max_round"` would otherwise fall back to a default silently.
pub(crate) fn reject_unknown_fields(
    task: &JsonValue,
    allowed: &[&str],
    kind: &str,
    ctx: &str,
) -> Result<(), SpecError> {
    if let JsonValue::Object(map) = task {
        if let Some(key) = map.keys().find(|k| !allowed.contains(&k.as_str())) {
            return Err(format!(
                "{ctx}: unknown field \"{key}\" in {kind} task (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// A parsed sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used in report headers and default output paths).
    pub name: String,
    /// Seed used to build randomized topologies (fixed across trial seeds so
    /// every seed of a cell runs on the same graph).
    pub graph_seed: u64,
    /// On-disk encoding of in-flight unit checkpoints (spec field
    /// `checkpoint_format`, default [`CheckpointFormat::Json`]). Both
    /// formats serialize the identical checkpoint document, so a resumed
    /// run is bit-for-bit the same either way; `binary` is the
    /// million-node choice (palette-index state arrays as varints instead
    /// of decimal text).
    pub checkpoint_format: CheckpointFormat,
    /// Whether EXPERIMENTS output includes per-unit wall-clock timings
    /// (spec field `timings`, default `false`). Off by default because
    /// timings are nondeterministic: the kill/resume byte-diff CI legs
    /// compare rendered documents byte-for-byte.
    pub timings: bool,
    /// The tasks of the sweep, in spec order.
    pub tasks: Vec<SweepTask>,
}

/// The on-disk encoding of in-flight unit checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointFormat {
    /// Pretty-printed JSON text (`state/<unit>.ckpt.json`) — the
    /// human-inspectable default.
    #[default]
    Json,
    /// The compact tagged little-endian codec of [`sa_model::binary`]
    /// (`state/<unit>.ckpt.bin`) — roughly an order of magnitude smaller
    /// on state-array-dominated checkpoints.
    Binary,
}

impl CheckpointFormat {
    /// A short display label (`"json"` / `"binary"`), matching the spec
    /// field's accepted values.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointFormat::Json => "json",
            CheckpointFormat::Binary => "binary",
        }
    }
}

/// One task of a sweep spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepTask {
    /// E1-style artifact: AlgAU's transition table and state diagram at a
    /// fixed diameter bound. Instant (no execution).
    TransitionTable {
        /// Task identifier (e.g. `"E1"`).
        id: String,
        /// Diameter bound `D`.
        diameter_bound: usize,
    },
    /// E2-style artifact: state-space sizes as a function of the diameter
    /// bound. Instant (no execution).
    StateSpace {
        /// Task identifier (e.g. `"E2"`).
        id: String,
        /// The diameter bounds to count states at.
        diameter_bounds: Vec<usize>,
        /// Also count the derived algorithms (LE/MIS and their synchronized
        /// versions) at each bound.
        include_derived: bool,
    },
    /// E3/E7/E9-style measurement: stabilization rounds over an algorithm
    /// × topology × scheduler × engine × seed grid, with optional fault
    /// injection. Expands into checkpointable [`SweepUnit`]s.
    Stabilization(StabilizationTask),
    /// E10-style measurement: a biological fault-recovery scenario — benign
    /// start, stabilization, verification, then a series of fault bursts
    /// with the recovery rounds of each burst measured. Expands into
    /// checkpointable [`SweepUnit`]s.
    Scenario(ScenarioTask),
    /// Exhaustive model checking: enumerate the full (or fault-reachable)
    /// global configuration space of tiny algorithm × topology instances
    /// and certify closure + convergence, emitting counterexample traces
    /// on violation (the `sa verify` subcommand; see [`crate::verify`]).
    Verify(crate::verify::VerifyTask),
    /// E4: module Restart's concurrent exit (Theorem 3.1). Instant.
    RestartExit(RestartExitTask),
    /// E5/E6: synchronous AlgLE/AlgMIS stabilization (Theorems 1.3 and
    /// 1.4). Instant.
    Static(StaticTask),
}

impl SweepTask {
    /// The task identifier.
    pub fn id(&self) -> &str {
        match self {
            SweepTask::TransitionTable { id, .. } => id,
            SweepTask::StateSpace { id, .. } => id,
            SweepTask::Stabilization(t) => &t.id,
            SweepTask::Scenario(t) => &t.id,
            SweepTask::Verify(t) => &t.id,
            SweepTask::RestartExit(t) => &t.id,
            SweepTask::Static(t) => &t.id,
        }
    }
}

/// The grid of a stabilization task.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizationTask {
    /// Task identifier (e.g. `"E3"`).
    pub id: String,
    /// Algorithms to sweep (the `algorithm` axis; defaults to `[AlgAu]`).
    pub algorithms: Vec<AlgorithmSpec>,
    /// Topologies to sweep (randomized families build with the spec's
    /// `graph_seed`).
    pub topologies: Vec<Topology>,
    /// Diameter bound handed to the algorithm; `None` uses the built graph's
    /// exact diameter.
    pub diameter_bound: Option<usize>,
    /// Scheduler families to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Step engines to sweep.
    pub engines: Vec<EngineSpec>,
    /// Fault plan applied at every completed round.
    pub fault: FaultPlan,
    /// How the initial configuration is drawn (adversarial random by
    /// default).
    pub init: InitSpec,
    /// Number of independent seeds per cell.
    pub seeds: u64,
    /// Round budget; `None` uses the paper's `200·D³ + 2000`.
    pub max_rounds: Option<u64>,
    /// Post-stabilization verification window; `None` uses `4·D + 8`.
    pub verify_rounds: Option<u64>,
}

/// The grid of a fault-recovery scenario task.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTask {
    /// Task identifier (e.g. `"E10"`).
    pub id: String,
    /// The scenario family (fixes the algorithm, the topology and the benign
    /// start).
    pub scenario: ScenarioSpec,
    /// Environmental harshness (fixes the burst size).
    pub harshness: Harshness,
    /// Number of fault bursts to recover from per unit.
    pub bursts: u64,
    /// Scheduler families to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Step engines to sweep.
    pub engines: Vec<EngineSpec>,
    /// Number of independent seeds per cell.
    pub seeds: u64,
    /// Per-phase round budget; `None` uses the paper's `200·D³ + 2000`.
    pub max_rounds: Option<u64>,
    /// Post-stabilization verification window; `None` uses `4·D + 8`.
    pub verify_rounds: Option<u64>,
}

/// The grid of a `restart-exit` task: every topology × seed is one trial
/// of module Restart around a trivial host.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartExitTask {
    /// Task identifier (e.g. `"E4"`).
    pub id: String,
    /// Topologies to measure on (randomized families build with the spec's
    /// `graph_seed`).
    pub topologies: Vec<Topology>,
    /// Diameter bound of the Restart module; `None` uses each built graph's
    /// exact diameter.
    pub diameter_bound: Option<usize>,
    /// Number of independent trials per topology.
    pub seeds: u64,
}

/// The fields a `restart-exit` task may carry.
const RESTART_EXIT_TASK_KEYS: &[&str] = &["id", "kind", "topologies", "diameter_bound", "seeds"];

/// The clock period of the trivial host that module Restart wraps in a
/// `restart-exit` trial.
const RESTART_HOST_PERIOD: u32 = 5;

impl RestartExitTask {
    fn from_json(task: &JsonValue, id: String, ctx: &str) -> Result<Self, SpecError> {
        reject_unknown_fields(task, RESTART_EXIT_TASK_KEYS, "restart-exit", ctx)?;
        let topologies = list_field(task, "topologies", ctx, topology_from_json)?;
        if topologies.is_empty() {
            return Err(format!("{ctx}: topologies must be non-empty"));
        }
        Ok(RestartExitTask {
            id,
            topologies,
            diameter_bound: positive_opt(task, "diameter_bound", ctx)?.map(|d| d as usize),
            seeds: positive_opt(task, "seeds", ctx)?.unwrap_or(1),
        })
    }
}

/// The synchronous algorithms a `static` task measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticAlgorithm {
    /// AlgLE, leader election (Theorem 1.3; spec label `"algle"`).
    AlgLe,
    /// AlgMIS, maximal independent set (Theorem 1.4; spec label
    /// `"algmis"`).
    AlgMis,
}

impl StaticAlgorithm {
    /// The spec label, also the metric prefix of the task's rows.
    fn label(&self) -> &'static str {
        match self {
            StaticAlgorithm::AlgLe => "algle",
            StaticAlgorithm::AlgMis => "algmis",
        }
    }

    /// The default horizon on an `n`-node graph of diameter `d` (see
    /// [`StaticTask::max_rounds`]).
    fn default_horizon(&self, n: usize, d: usize) -> u64 {
        let log_n = (n as f64).log2().ceil() as usize;
        match self {
            StaticAlgorithm::AlgLe => (80 * d * (log_n + 4) + 800) as u64,
            StaticAlgorithm::AlgMis => (60 * (d + 8) * (log_n + 2) + 600) as u64,
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        match value.as_str() {
            Some("algle") => Ok(StaticAlgorithm::AlgLe),
            Some("algmis") => Ok(StaticAlgorithm::AlgMis),
            Some(other) => Err(format!(
                "{ctx}: unknown static algorithm \"{other}\" (expected \"algle\" or \"algmis\")"
            )),
            None => Err(format!("{ctx}: algorithm must be a string")),
        }
    }
}

/// The grid of a `static` task: algorithm × topology × seed trials of the
/// synchronous AlgLE/AlgMIS from random configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticTask {
    /// Task identifier (e.g. `"E5"`).
    pub id: String,
    /// Algorithms to measure.
    pub algorithms: Vec<StaticAlgorithm>,
    /// Topologies to measure on (randomized families build with the spec's
    /// `graph_seed`); each algorithm runs with its graph's exact diameter.
    pub topologies: Vec<Topology>,
    /// Number of independent trials per cell.
    pub seeds: u64,
    /// Horizon in rounds; `None` uses a constant multiple of the theorem's
    /// bound on the graph's `n` and diameter `D`: `80·D·(⌈log n⌉+4) + 800`
    /// for AlgLE, `60·(D+8)·(⌈log n⌉+2) + 600` for AlgMIS. The last eighth
    /// of the horizon (at least one round) must be clean and unchanged.
    pub max_rounds: Option<u64>,
}

/// The fields a `static` task may carry.
const STATIC_TASK_KEYS: &[&str] = &[
    "id",
    "kind",
    "algorithms",
    "topologies",
    "seeds",
    "max_rounds",
];

impl StaticTask {
    fn from_json(task: &JsonValue, id: String, ctx: &str) -> Result<Self, SpecError> {
        reject_unknown_fields(task, STATIC_TASK_KEYS, "static", ctx)?;
        let algorithms = list_field(task, "algorithms", ctx, StaticAlgorithm::from_json)?;
        let topologies = list_field(task, "topologies", ctx, topology_from_json)?;
        if algorithms.is_empty() || topologies.is_empty() {
            return Err(format!(
                "{ctx}: algorithms and topologies must be non-empty"
            ));
        }
        Ok(StaticTask {
            id,
            algorithms,
            topologies,
            seeds: positive_opt(task, "seeds", ctx)?.unwrap_or(1),
            max_rounds: positive_opt(task, "max_rounds", ctx)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The algorithm axis
// ---------------------------------------------------------------------------

pub use crate::family::AlgorithmSpec;

fn algorithm_from_json(value: &JsonValue, ctx: &str) -> Result<AlgorithmSpec, SpecError> {
    let label = value
        .as_str()
        .ok_or_else(|| format!("{ctx}: algorithm must be a string"))?;
    AlgorithmSpec::from_label(label).ok_or_else(|| {
        format!(
            "{ctx}: unknown algorithm \"{label}\" (expected \"algau\", \
             \"min-plus-one\", \"le\" or \"mis\")"
        )
    })
}

/// How a unit's initial configuration is drawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InitSpec {
    /// The adversary's arbitrary configuration: every node's state drawn
    /// uniformly from the algorithm's palette (the default for
    /// stabilization tasks).
    #[default]
    Random,
    /// The algorithm's benign designated start state at every node (the
    /// default for scenario tasks, whose measurement is recovery, not
    /// worst-case convergence).
    Benign,
}

impl InitSpec {
    fn from_json(value: Option<&JsonValue>, ctx: &str) -> Result<Self, SpecError> {
        match value {
            None | Some(JsonValue::Null) => Ok(InitSpec::Random),
            Some(v) => match v.as_str() {
                Some("random") => Ok(InitSpec::Random),
                Some("benign") => Ok(InitSpec::Benign),
                _ => Err(format!("{ctx}: \"init\" must be \"random\" or \"benign\"")),
            },
        }
    }
}

/// A biological fault-recovery scenario family (see `bio-networks`): each
/// variant fixes a topology, an algorithm and a benign start configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// A quorum-sensing bacterial colony (damaged clique, asynchronous LE):
    /// the colony must keep exactly one decision-maker cell.
    Colony {
        /// Number of cells in the colony.
        cells: usize,
    },
    /// An epithelial tissue sheet (grid or torus, asynchronous MIS): the
    /// tissue must keep a well-spaced pattern of differentiated cells.
    Tissue {
        /// Number of cell rows.
        rows: usize,
        /// Number of cell columns.
        cols: usize,
        /// Whether the sheet wraps into a torus.
        wrap: bool,
    },
    /// A segmented pulse field (caveman graph, AlgAU): every cell keeps a
    /// phase within one tick of its neighbors.
    Pulse {
        /// Number of segments (cell clusters).
        segments: usize,
        /// Number of cells per segment.
        cells_per_segment: usize,
    },
}

impl ScenarioSpec {
    /// A stable, filesystem-safe label used in unit ids and report rows.
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Colony { cells } => format!("colony-{cells}"),
            ScenarioSpec::Tissue { rows, cols, wrap } => {
                format!("tissue-{rows}x{cols}{}", if *wrap { "-torus" } else { "" })
            }
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => format!("pulse-{segments}x{cells_per_segment}"),
        }
    }

    /// The algorithm the scenario runs.
    pub fn algorithm(&self) -> AlgorithmSpec {
        match self {
            ScenarioSpec::Colony { .. } => AlgorithmSpec::AsyncLe,
            ScenarioSpec::Tissue { .. } => AlgorithmSpec::AsyncMis,
            ScenarioSpec::Pulse { .. } => AlgorithmSpec::AlgAu,
        }
    }

    /// The scenario's communication topology (mirrors the builders in
    /// `bio_networks::scenario`).
    pub fn topology(&self) -> Topology {
        match self {
            // ColonyScenario::new(cells): 30% severed links, diameter ≤ 2.
            ScenarioSpec::Colony { cells } => Topology::DamagedClique {
                n: *cells,
                drop: 0.3,
                max_diameter: 2,
            },
            ScenarioSpec::Tissue { rows, cols, wrap } => {
                if *wrap {
                    Topology::Torus {
                        rows: *rows,
                        cols: *cols,
                    }
                } else {
                    Topology::Grid {
                        rows: *rows,
                        cols: *cols,
                    }
                }
            }
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => Topology::Caveman {
                clusters: *segments,
                clique: *cells_per_segment,
            },
        }
    }

    /// The diameter bound handed to the algorithm (`None`: use the built
    /// graph's exact diameter).
    pub fn diameter_bound(&self) -> Option<usize> {
        match self {
            ScenarioSpec::Colony { .. } => Some(2),
            ScenarioSpec::Tissue { .. } | ScenarioSpec::Pulse { .. } => None,
        }
    }

    /// Number of cells in the scenario.
    pub fn cells(&self) -> usize {
        match self {
            ScenarioSpec::Colony { cells } => *cells,
            ScenarioSpec::Tissue { rows, cols, .. } => rows * cols,
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => segments * cells_per_segment,
        }
    }

    /// The number of cells a single fault burst scrambles at the given
    /// harshness (mirrors `bio_networks`: `⌈cells · burst_fraction⌉`, at
    /// least 1).
    pub fn burst_size(&self, harshness: Harshness) -> usize {
        (((self.cells() as f64) * harshness.burst_fraction()).ceil() as usize).max(1)
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        match field(value, "kind", ctx)?.as_str() {
            Some("colony") => Ok(ScenarioSpec::Colony {
                cells: usize_field(value, "cells", ctx)?,
            }),
            Some("tissue") => Ok(ScenarioSpec::Tissue {
                rows: usize_field(value, "rows", ctx)?,
                cols: usize_field(value, "cols", ctx)?,
                wrap: bool_opt(value, "wrap", ctx)?,
            }),
            Some("pulse") => Ok(ScenarioSpec::Pulse {
                segments: usize_field(value, "segments", ctx)?,
                cells_per_segment: usize_field(value, "cells_per_segment", ctx)?,
            }),
            Some(other) => Err(format!("{ctx}: unknown scenario kind \"{other}\"")),
            None => Err(format!("{ctx}: scenario \"kind\" must be a string")),
        }
    }
}

fn harshness_from_json(value: Option<&JsonValue>, ctx: &str) -> Result<Harshness, SpecError> {
    match value {
        None | Some(JsonValue::Null) => Ok(Harshness::Moderate),
        Some(v) => match v.as_str() {
            Some("mild") => Ok(Harshness::Mild),
            Some("moderate") => Ok(Harshness::Moderate),
            Some("severe") => Ok(Harshness::Severe),
            _ => Err(format!(
                "{ctx}: \"harshness\" must be \"mild\", \"moderate\" or \"severe\""
            )),
        },
    }
}

/// A stable, filesystem-safe harshness label.
fn harshness_label(h: Harshness) -> &'static str {
    match h {
        Harshness::Mild => "mild",
        Harshness::Moderate => "moderate",
        Harshness::Severe => "severe",
    }
}

/// A declarative scheduler selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// Every node every step.
    Synchronous,
    /// Each node independently with probability `p`.
    UniformRandom {
        /// Per-node activation probability.
        p: f64,
    },
    /// One uniformly random node per step.
    Central,
    /// One node per step in cyclic id order.
    RoundRobin,
    /// Starve `node` within fairness windows of `window` steps.
    Laggard {
        /// The starved node.
        node: usize,
        /// Fairness window length.
        window: u64,
    },
}

impl SchedulerSpec {
    /// Builds a fresh scheduler instance.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Synchronous => Box::new(SynchronousScheduler),
            SchedulerSpec::UniformRandom { p } => Box::new(UniformRandomScheduler::new(*p)),
            SchedulerSpec::Central => Box::new(CentralScheduler),
            SchedulerSpec::RoundRobin => Box::<RoundRobinScheduler>::default(),
            SchedulerSpec::Laggard { node, window } => {
                Box::new(AdversarialLaggardScheduler::starving(*node, *window))
            }
        }
    }

    /// A stable label used in unit ids and report rows.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Synchronous => "synchronous".to_string(),
            SchedulerSpec::UniformRandom { p } => format!("uniform-random-{p}"),
            SchedulerSpec::Central => "central".to_string(),
            SchedulerSpec::RoundRobin => "round-robin".to_string(),
            SchedulerSpec::Laggard { node, window } => format!("laggard-n{node}-w{window}"),
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        if let Some(name) = value.as_str() {
            return match name {
                "synchronous" => Ok(SchedulerSpec::Synchronous),
                "uniform-random" => Ok(SchedulerSpec::UniformRandom { p: 0.5 }),
                "central" => Ok(SchedulerSpec::Central),
                "round-robin" => Ok(SchedulerSpec::RoundRobin),
                other => Err(format!("{ctx}: unknown scheduler \"{other}\"")),
            };
        }
        match field(value, "kind", ctx)?.as_str() {
            Some("uniform-random") => Ok(SchedulerSpec::UniformRandom {
                p: f64_field(value, "p", ctx)?,
            }),
            Some("laggard") => Ok(SchedulerSpec::Laggard {
                node: usize_field(value, "node", ctx)?,
                window: usize_field(value, "window", ctx)? as u64,
            }),
            Some(other) => Err(format!("{ctx}: unknown scheduler kind \"{other}\"")),
            None => Err(format!("{ctx}: scheduler must be a string or an object")),
        }
    }
}

/// A declarative engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpec {
    /// The engine kind (with an explicit lane count for sharded, so unit
    /// labels stay stable across machines).
    pub kind: EngineKind,
}

impl EngineSpec {
    /// A stable label: `serial` or `sharded-<threads>`.
    pub fn label(&self) -> String {
        match self.kind {
            EngineKind::Serial => "serial".to_string(),
            EngineKind::Sharded { threads } => format!("sharded-{threads}"),
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        if let Some(name) = value.as_str() {
            return match name {
                "serial" => Ok(EngineSpec {
                    kind: EngineKind::Serial,
                }),
                "sharded" => Ok(EngineSpec {
                    kind: EngineKind::Sharded { threads: 2 },
                }),
                other => Err(format!("{ctx}: unknown engine \"{other}\"")),
            };
        }
        match field(value, "kind", ctx)?.as_str() {
            Some("serial") => Ok(EngineSpec {
                kind: EngineKind::Serial,
            }),
            Some("sharded") => Ok(EngineSpec {
                kind: EngineKind::Sharded {
                    threads: usize_field(value, "threads", ctx)?.max(1),
                },
            }),
            Some(other) => Err(format!("{ctx}: unknown engine kind \"{other}\"")),
            None => Err(format!("{ctx}: engine must be a string or an object")),
        }
    }
}

pub(crate) fn topology_from_json(value: &JsonValue, ctx: &str) -> Result<Topology, SpecError> {
    let kind = field(value, "kind", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: topology \"kind\" must be a string"))?;
    match kind {
        "path" => Ok(Topology::Path {
            n: usize_field(value, "n", ctx)?,
        }),
        "cycle" => Ok(Topology::Cycle {
            n: usize_field(value, "n", ctx)?,
        }),
        "complete" => Ok(Topology::Complete {
            n: usize_field(value, "n", ctx)?,
        }),
        "star" => Ok(Topology::Star {
            n: usize_field(value, "n", ctx)?,
        }),
        "grid" => Ok(Topology::Grid {
            rows: usize_field(value, "rows", ctx)?,
            cols: usize_field(value, "cols", ctx)?,
        }),
        "torus" => Ok(Topology::Torus {
            rows: usize_field(value, "rows", ctx)?,
            cols: usize_field(value, "cols", ctx)?,
        }),
        "hypercube" => Ok(Topology::Hypercube {
            dim: usize_field(value, "dim", ctx)?,
        }),
        "balanced-tree" => Ok(Topology::BalancedTree {
            arity: usize_field(value, "arity", ctx)?,
            depth: usize_field(value, "depth", ctx)?,
        }),
        "erdos-renyi" => Ok(Topology::ErdosRenyi {
            n: usize_field(value, "n", ctx)?,
            p: f64_field(value, "p", ctx)?,
        }),
        "damaged-clique" => Ok(Topology::DamagedClique {
            n: usize_field(value, "n", ctx)?,
            drop: f64_field(value, "drop", ctx)?,
            max_diameter: usize_field(value, "max_diameter", ctx)?,
        }),
        "caveman" => Ok(Topology::Caveman {
            clusters: usize_field(value, "clusters", ctx)?,
            clique: usize_field(value, "clique", ctx)?,
        }),
        "random-regular" => Ok(Topology::RandomRegular {
            n: usize_field(value, "n", ctx)?,
            deg: usize_field(value, "deg", ctx)?,
        }),
        other => Err(format!("{ctx}: unknown topology kind \"{other}\"")),
    }
}

fn fault_from_json(value: Option<&JsonValue>, ctx: &str) -> Result<FaultPlan, SpecError> {
    let value = match value {
        None | Some(JsonValue::Null) => return Ok(FaultPlan::None),
        Some(v) => v,
    };
    if value.as_str() == Some("none") {
        return Ok(FaultPlan::None);
    }
    match field(value, "kind", ctx)?.as_str() {
        Some("none") => Ok(FaultPlan::None),
        Some("burst") => Ok(FaultPlan::Burst {
            at_round: usize_field(value, "at_round", ctx)? as u64,
            count: usize_field(value, "count", ctx)?,
        }),
        Some("continuous") => Ok(FaultPlan::Continuous {
            per_node_rate: f64_field(value, "per_node_rate", ctx)?,
        }),
        Some("periodic") => Ok(FaultPlan::Periodic {
            period: usize_field(value, "period", ctx)? as u64,
            count: usize_field(value, "count", ctx)?,
        }),
        Some(other) => Err(format!("{ctx}: unknown fault kind \"{other}\"")),
        None => Err(format!("{ctx}: fault must be \"none\" or an object")),
    }
}

/// Parses a task's `"engines"` array (default: `[serial]`).
fn engines_from_json(task: &JsonValue, ctx: &str) -> Result<Vec<EngineSpec>, SpecError> {
    match task.get("engines") {
        None => Ok(vec![EngineSpec {
            kind: EngineKind::Serial,
        }]),
        Some(v) => v
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"engines\" must be an array"))?
            .iter()
            .map(|e| EngineSpec::from_json(e, ctx))
            .collect(),
    }
}

impl SweepSpec {
    /// Parses a spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let value = JsonValue::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        Self::from_json(&value)
    }

    /// Parses a spec from a JSON document.
    pub fn from_json(value: &JsonValue) -> Result<Self, SpecError> {
        let name = field(value, "name", "spec")?
            .as_str()
            .ok_or("spec: \"name\" must be a string")?
            .to_string();
        let graph_seed = u64_opt(value, "graph_seed", "spec")?.unwrap_or(17);
        let checkpoint_format = match value.get("checkpoint_format") {
            None => CheckpointFormat::Json,
            Some(v) => match v.as_str() {
                Some("json") => CheckpointFormat::Json,
                Some("binary") => CheckpointFormat::Binary,
                _ => {
                    return Err(
                        "spec: \"checkpoint_format\" must be \"json\" or \"binary\"".to_string()
                    )
                }
            },
        };
        let tasks_json = field(value, "tasks", "spec")?
            .as_array()
            .ok_or("spec: \"tasks\" must be an array")?;
        if tasks_json.is_empty() {
            return Err("spec: \"tasks\" must not be empty".to_string());
        }
        let mut tasks = Vec::new();
        for (i, task) in tasks_json.iter().enumerate() {
            let id = field(task, "id", &format!("task #{i}"))?
                .as_str()
                .ok_or_else(|| format!("task #{i}: \"id\" must be a string"))?
                .to_string();
            let ctx = format!("task \"{id}\"");
            match field(task, "kind", &ctx)?.as_str() {
                Some("transition-table") => tasks.push(SweepTask::TransitionTable {
                    id,
                    diameter_bound: usize_field(task, "diameter_bound", &ctx)?,
                }),
                Some("state-space") => {
                    let bounds = field(task, "diameter_bounds", &ctx)?
                        .as_array()
                        .ok_or_else(|| format!("{ctx}: \"diameter_bounds\" must be an array"))?
                        .iter()
                        .map(|v| {
                            v.as_usize().ok_or_else(|| {
                                format!("{ctx}: \"diameter_bounds\" entries must be integers")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    tasks.push(SweepTask::StateSpace {
                        id,
                        diameter_bounds: bounds,
                        include_derived: bool_opt(task, "include_derived", &ctx)?,
                    });
                }
                Some("stabilization") => {
                    let algorithms = match task.get("algorithms") {
                        None => vec![AlgorithmSpec::AlgAu],
                        Some(_) => list_field(task, "algorithms", &ctx, algorithm_from_json)?,
                    };
                    let topologies = list_field(task, "topologies", &ctx, topology_from_json)?;
                    let schedulers =
                        list_field(task, "schedulers", &ctx, SchedulerSpec::from_json)?;
                    let engines = engines_from_json(task, &ctx)?;
                    if algorithms.is_empty()
                        || topologies.is_empty()
                        || schedulers.is_empty()
                        || engines.is_empty()
                    {
                        return Err(format!(
                            "{ctx}: algorithms, topologies, schedulers and engines \
                             must be non-empty"
                        ));
                    }
                    let seeds = u64_opt(task, "seeds", &ctx)?.unwrap_or(1).max(1);
                    tasks.push(SweepTask::Stabilization(StabilizationTask {
                        id,
                        algorithms,
                        topologies,
                        diameter_bound: u64_opt(task, "diameter_bound", &ctx)?.map(|d| d as usize),
                        schedulers,
                        engines,
                        fault: fault_from_json(task.get("fault"), &ctx)?,
                        init: InitSpec::from_json(task.get("init"), &ctx)?,
                        seeds,
                        max_rounds: u64_opt(task, "max_rounds", &ctx)?,
                        verify_rounds: u64_opt(task, "verify_rounds", &ctx)?,
                    }));
                }
                Some("scenario") => {
                    let scenario = ScenarioSpec::from_json(field(task, "scenario", &ctx)?, &ctx)?;
                    let schedulers =
                        list_field(task, "schedulers", &ctx, SchedulerSpec::from_json)?;
                    let engines = engines_from_json(task, &ctx)?;
                    if schedulers.is_empty() || engines.is_empty() {
                        return Err(format!("{ctx}: schedulers and engines must be non-empty"));
                    }
                    tasks.push(SweepTask::Scenario(ScenarioTask {
                        id,
                        scenario,
                        harshness: harshness_from_json(task.get("harshness"), &ctx)?,
                        bursts: u64_opt(task, "bursts", &ctx)?.unwrap_or(1).max(1),
                        schedulers,
                        engines,
                        seeds: u64_opt(task, "seeds", &ctx)?.unwrap_or(1).max(1),
                        max_rounds: u64_opt(task, "max_rounds", &ctx)?,
                        verify_rounds: u64_opt(task, "verify_rounds", &ctx)?,
                    }));
                }
                Some("verify") => {
                    tasks.push(SweepTask::Verify(crate::verify::VerifyTask::from_json(
                        task, id, &ctx,
                    )?));
                }
                Some("restart-exit") => tasks.push(SweepTask::RestartExit(
                    RestartExitTask::from_json(task, id, &ctx)?,
                )),
                Some("static") => {
                    tasks.push(SweepTask::Static(StaticTask::from_json(task, id, &ctx)?))
                }
                Some(other) => return Err(format!("{ctx}: unknown task kind \"{other}\"")),
                None => return Err(format!("{ctx}: \"kind\" must be a string")),
            }
        }
        Ok(SweepSpec {
            name,
            graph_seed,
            checkpoint_format,
            timings: bool_opt(value, "timings", "spec")?,
            tasks,
        })
    }

    /// Expands the spec's stabilization and scenario tasks into their
    /// execution units, in a stable deterministic order (task → algorithm →
    /// topology → scheduler → engine → seed).
    pub fn execution_units(&self) -> Vec<SweepUnit> {
        let mut units = Vec::new();
        for task in &self.tasks {
            match task {
                SweepTask::Stabilization(task) => {
                    for algorithm in &task.algorithms {
                        for topology in &task.topologies {
                            for scheduler in &task.schedulers {
                                for engine in &task.engines {
                                    for seed in 0..task.seeds {
                                        units.push(SweepUnit {
                                            task_id: task.id.clone(),
                                            algorithm: *algorithm,
                                            topology: topology.clone(),
                                            scheduler: scheduler.clone(),
                                            engine: *engine,
                                            fault: task.fault.clone(),
                                            init: task.init,
                                            recovery: None,
                                            scenario: None,
                                            seed,
                                            graph_seed: self.graph_seed,
                                            diameter_bound: task.diameter_bound,
                                            max_rounds: task.max_rounds,
                                            verify_rounds: task.verify_rounds,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                SweepTask::Scenario(task) => {
                    for scheduler in &task.schedulers {
                        for engine in &task.engines {
                            for seed in 0..task.seeds {
                                units.push(SweepUnit {
                                    task_id: task.id.clone(),
                                    algorithm: task.scenario.algorithm(),
                                    topology: task.scenario.topology(),
                                    scheduler: scheduler.clone(),
                                    engine: *engine,
                                    fault: FaultPlan::None,
                                    init: InitSpec::Benign,
                                    recovery: Some(RecoveryPlan {
                                        bursts: task.bursts,
                                        burst_size: task.scenario.burst_size(task.harshness),
                                    }),
                                    scenario: Some(format!(
                                        "{}-{}",
                                        task.scenario.label(),
                                        harshness_label(task.harshness)
                                    )),
                                    seed,
                                    graph_seed: self.graph_seed,
                                    diameter_bound: task.scenario.diameter_bound(),
                                    max_rounds: task.max_rounds,
                                    verify_rounds: task.verify_rounds,
                                });
                            }
                        }
                    }
                }
                SweepTask::TransitionTable { .. }
                | SweepTask::StateSpace { .. }
                | SweepTask::Verify(_)
                | SweepTask::RestartExit(_)
                | SweepTask::Static(_) => {}
            }
        }
        units
    }
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

/// The recovery phase of a scenario unit: how many fault bursts to recover
/// from and how many nodes each burst scrambles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Number of bursts injected after the verification window.
    pub bursts: u64,
    /// Number of distinct nodes scrambled per burst.
    pub burst_size: usize,
}

/// One independently runnable cell of a sweep (a stabilization measurement,
/// optionally followed by a fault-burst recovery phase).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// The owning task's id.
    pub task_id: String,
    /// Algorithm of this unit (the `algorithm` axis).
    pub algorithm: AlgorithmSpec,
    /// Topology of this unit.
    pub topology: Topology,
    /// Scheduler of this unit.
    pub scheduler: SchedulerSpec,
    /// Step engine of this unit.
    pub engine: EngineSpec,
    /// Fault plan of this unit.
    pub fault: FaultPlan,
    /// How the initial configuration is drawn.
    pub init: InitSpec,
    /// The recovery phase, for scenario units (`None`: plain stabilization).
    pub recovery: Option<RecoveryPlan>,
    /// Scenario label for reporting (`None` for plain stabilization units).
    pub scenario: Option<String>,
    /// Trial seed (keys the initial configuration, the transition coin
    /// streams, the scheduler stream, the fault injector stream and the
    /// recovery-burst draws).
    pub seed: u64,
    /// Seed for randomized topology construction.
    pub graph_seed: u64,
    /// Explicit diameter bound, or `None` for the graph's exact diameter.
    pub diameter_bound: Option<usize>,
    /// Round budget override (also the per-burst recovery budget).
    pub max_rounds: Option<u64>,
    /// Verification window override.
    pub verify_rounds: Option<u64>,
}

impl SweepUnit {
    /// A stable, filesystem-safe unit identifier.
    pub fn id(&self) -> String {
        format!(
            "{}--{}--{}--{}--{}--s{}",
            self.task_id,
            self.algorithm.label(),
            self.topology_label(),
            self.scheduler.label(),
            self.engine.label(),
            self.seed
        )
    }

    /// The label reports use in the topology column (the scenario label for
    /// scenario units).
    pub fn topology_label(&self) -> String {
        self.scenario
            .clone()
            .unwrap_or_else(|| self.topology.label())
    }
}

/// The measured outcome of one completed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitResult {
    /// Rounds until legitimacy first held (`None`: budget exhausted).
    pub stabilization_rounds: Option<u64>,
    /// Steps until legitimacy first held.
    pub stabilization_steps: Option<u64>,
    /// Safety/liveness violations observed in the verification window.
    pub violations: Vec<String>,
    /// Rounds spent in the verification window.
    pub verification_rounds: u64,
    /// Total transient faults injected over the run.
    pub faults_injected: u64,
    /// Total steps executed.
    pub total_steps: u64,
    /// Rounds needed to recover from each recovered fault burst (scenario
    /// units; empty for plain stabilization units).
    pub recovery_rounds: Vec<u64>,
    /// Number of bursts the unit failed to recover from within the budget.
    pub unrecovered: u64,
    /// Wall-clock observability (step vs. oracle time, boundary-check
    /// count). Excluded from equality and from [`UnitResult::to_json`]:
    /// timings are nondeterministic and results must stay byte-stable
    /// across kill/resume. Rendered only when the spec opts in
    /// (`"timings": true`), and zero for units restored from a previous
    /// invocation's result files.
    pub timings: StepTimings,
}

impl UnitResult {
    /// Whether the unit stabilized, passed verification and recovered from
    /// every fault burst.
    pub fn is_clean(&self) -> bool {
        self.stabilization_rounds.is_some() && self.violations.is_empty() && self.unrecovered == 0
    }

    /// Serializes the result as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "stabilization_rounds".to_string(),
                self.stabilization_rounds
                    .map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "stabilization_steps".to_string(),
                self.stabilization_steps
                    .map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "violations".to_string(),
                JsonValue::Array(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::String(v.clone()))
                        .collect(),
                ),
            ),
            (
                "verification_rounds".to_string(),
                u64_to_json(self.verification_rounds),
            ),
            (
                "faults_injected".to_string(),
                u64_to_json(self.faults_injected),
            ),
            ("total_steps".to_string(), u64_to_json(self.total_steps)),
            (
                "recovery_rounds".to_string(),
                JsonValue::Array(
                    self.recovery_rounds
                        .iter()
                        .copied()
                        .map(u64_to_json)
                        .collect(),
                ),
            ),
            ("unrecovered".to_string(), u64_to_json(self.unrecovered)),
        ])
    }

    /// Deserializes a result produced by [`UnitResult::to_json`].
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        let opt = |key: &str| -> Option<Option<u64>> {
            match value.get(key)? {
                JsonValue::Null => Some(None),
                v => u64_from_json(v).map(Some),
            }
        };
        Some(UnitResult {
            stabilization_rounds: opt("stabilization_rounds")?,
            stabilization_steps: opt("stabilization_steps")?,
            violations: value
                .get("violations")?
                .as_array()?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            verification_rounds: u64_from_json(value.get("verification_rounds")?)?,
            faults_injected: u64_from_json(value.get("faults_injected")?)?,
            total_steps: u64_from_json(value.get("total_steps")?)?,
            // The recovery fields default when absent, so completed-unit
            // records written before the recovery phase existed still parse.
            recovery_rounds: match value.get("recovery_rounds") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()?
                    .iter()
                    .map(u64_from_json)
                    .collect::<Option<_>>()?,
            },
            unrecovered: match value.get("unrecovered") {
                None => 0,
                Some(v) => u64_from_json(v)?,
            },
            timings: StepTimings::default(),
        })
    }
}

/// Outcome of [`run_unit`]: either the unit finished, or it was interrupted
/// and left a resumable checkpoint document.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitOutcome {
    /// The unit ran to completion.
    Complete(UnitResult),
    /// The unit hit the invocation's step allowance; the carried JSON
    /// checkpoint resumes it exactly where it stopped.
    Interrupted(JsonValue),
}

/// Checkpoint behaviour of [`run_unit`].
#[derive(Default)]
pub struct CheckpointPolicy<'a> {
    /// Emit a checkpoint to `sink` every this many steps (`0`: never).
    pub every_steps: u64,
    /// Receives each emitted checkpoint document (e.g. writes it to disk).
    pub sink: Option<&'a (dyn Fn(&JsonValue) + Sync)>,
    /// Resume from this checkpoint document instead of starting fresh.
    pub resume_from: Option<&'a JsonValue>,
    /// Stop after this many steps *in this invocation*, returning
    /// [`UnitOutcome::Interrupted`] with a checkpoint (simulates a kill; used
    /// by the CI smoke job and the round-trip tests).
    pub interrupt_after_steps: Option<u64>,
    /// Cooperative cancellation: once the token fires, the unit stops at the
    /// next step boundary exactly like `interrupt_after_steps` — the
    /// checkpoint document goes to `sink` and the call returns
    /// [`UnitOutcome::Interrupted`]. This is how the job scheduler
    /// ([`crate::jobs`]) drains in-flight units on `shutdown`/`cancel`
    /// without losing work: the persisted checkpoint resumes bit-identically.
    pub cancel: Option<&'a CancelToken>,
}

/// Internal: the measurement phases of a sweep unit.
const PHASE_STABILIZING: u64 = 0;
const PHASE_VERIFYING: u64 = 1;
const PHASE_RECOVERING: u64 = 2;
/// Terminal sentinel (never checkpointed — the unit completes immediately).
const PHASE_DONE: u64 = 3;

/// The paper's default round budget for a diameter bound `D`.
pub fn default_round_budget(d: usize) -> u64 {
    (200 * d.pow(3) + 2000) as u64
}

/// The default post-stabilization verification window for a bound `D`.
pub fn default_verify_window(d: usize) -> u64 {
    4 * d as u64 + 8
}

/// The resolved per-unit execution knobs handed to the generic runner.
struct UnitParams<'a> {
    scheduler: &'a SchedulerSpec,
    engine: EngineKind,
    fault: &'a FaultPlan,
    init: InitSpec,
    recovery: Option<RecoveryPlan>,
    seed: u64,
    max_rounds: u64,
    verify_rounds: u64,
}

/// Runs one sweep unit (building its graph first and dispatching on the
/// unit's [`AlgorithmSpec`]) through the shared phase machine, with
/// checkpoint/resume support.
///
/// Semantics match [`measure_stabilization`](sa_model::checker::measure_stabilization)
/// (pinned by `tests/oracle_equivalence.rs`): legitimacy is checked at time
/// 0 and at every round boundary; once it holds, a verification window of
/// `verify_rounds` rounds checks the task's safety at every boundary and
/// its liveness over the window. Per-round fault injection runs after the
/// boundary's checks, so a fault surfaces in the *next* round's check.
///
/// Every source of randomness is either keyed by `(seed, node, step)`
/// (transition coins) or captured exactly in the checkpoint (scheduler
/// stream, fault injector stream), so a resumed run is bit-identical to an
/// uninterrupted one.
pub fn run_unit(unit: &SweepUnit, policy: &CheckpointPolicy<'_>) -> Result<UnitOutcome, SpecError> {
    let graph = unit.topology.build(unit.graph_seed);
    let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
    let params = UnitParams {
        scheduler: &unit.scheduler,
        engine: unit.engine.kind,
        fault: &unit.fault,
        init: unit.init,
        recovery: unit.recovery,
        seed: unit.seed,
        max_rounds: unit.max_rounds.unwrap_or_else(|| default_round_budget(d)),
        verify_rounds: unit
            .verify_rounds
            .unwrap_or_else(|| default_verify_window(d)),
    };
    with_family!(unit.algorithm, d, |family| {
        run_unit_generic(family, &graph, &params, policy)
    })
}

// ---------------------------------------------------------------------------
// The shared phase machine
// ---------------------------------------------------------------------------

/// Runs one unit of any algorithm family through the shared phase machine —
/// **stabilize** (round budget `max_rounds`), **verify** (window of
/// `verify_rounds` rounds with safety checks at every boundary and a
/// liveness check over the window) and, for scenario units, **recover**: a
/// series of fault bursts, each scrambling `burst_size` nodes with states
/// drawn from the family's fault palette, each recovery measured in rounds
/// against a fresh `max_rounds` budget.
///
/// Checkpoint/resume covers every phase: burst draws are pure functions of
/// `(seed, burst index)`, the burst bookkeeping is part of the checkpoint
/// document and bursts fire atomically with the phase transition, so a
/// resumed unit replays the exact run of an uninterrupted one.
fn run_unit_generic<F: SweepFamily>(
    family: &F,
    graph: &Graph,
    params: &UnitParams<'_>,
    policy: &CheckpointPolicy<'_>,
) -> Result<UnitOutcome, SpecError> {
    let alg = family.algorithm();
    let seed = params.seed;
    let recovery = params.recovery.unwrap_or(RecoveryPlan {
        bursts: 0,
        burst_size: 0,
    });
    let mut sched = params.scheduler.build();
    let mut injector = match params.fault {
        FaultPlan::None => None,
        plan => Some(FaultInjector::new(
            plan.clone(),
            family.fault_palette().to_vec(),
            seed ^ 0xFA01_7BAD_5EED_0001,
        )),
    };

    // Incremental legitimacy tracking: one tracker for the oracle (active in
    // the stabilizing/recovering phases) and one for the snapshot safety
    // check (active in the verification window). Each tracker is fed the
    // changed-node lists only while its phase is active and reseeded at
    // phase transitions, so its knowledge is always exact when queried.
    let mut oracle = LegitimacyTracker::new(graph);
    let mut snapshot = LegitimacyTracker::new(graph);
    let legitimate = |oracle: &mut LegitimacyTracker, config: &[State<F>]| {
        oracle.is_legitimate(family.local_oracle(), graph, config)
    };
    let mut timings = StepTimings::default();

    let (mut exec, mut p) = match policy.resume_from {
        Some(doc) => {
            let snap = field(doc, "execution", "checkpoint").and_then(|v| {
                family
                    .decode_snapshot(v)
                    .ok_or_else(|| "checkpoint: malformed execution snapshot".to_string())
            })?;
            let progress = Progress::from_json(doc)?;
            sched.restore_position(
                u64_from_json(field(doc, "scheduler_position", "checkpoint")?)
                    .ok_or("checkpoint: malformed scheduler_position")?,
            );
            if let Some(injector) = injector.as_mut() {
                let snap_json = field(doc, "injector", "checkpoint")?;
                let snap = FaultInjectorSnapshot::from_json(snap_json)
                    .ok_or("checkpoint: malformed injector snapshot")?;
                injector.restore(&snap);
            }
            let exec = ExecutionBuilder::new(alg, graph)
                .engine(params.engine)
                .resume(&snap);
            (exec, progress)
        }
        None => {
            let mut exec = ExecutionBuilder::new(alg, graph)
                .seed(seed)
                .engine(params.engine)
                .initial(match params.init {
                    InitSpec::Random => family.random_start(graph.node_count(), seed),
                    InitSpec::Benign => vec![family.benign(); graph.node_count()],
                });
            let mut p = Progress::default();
            // Legitimacy is checked at time 0 (an adversarial configuration
            // may already be good; a benign one usually is).
            if legitimate(&mut oracle, exec.configuration()) {
                p.stab_rounds = Some(0);
                p.stab_steps = Some(0);
                p.phase = PHASE_VERIFYING;
                exec.take_output_change_counts();
            }
            (exec, p)
        }
    };

    // Starts the next recovery burst, if one remains: scramble `burst_size`
    // distinct nodes with palette states. The draw is a pure function of
    // `(seed, burst index)`, so no extra RNG stream needs checkpointing — a
    // resumed unit that already counted the burst as injected never
    // re-draws it. The burst corrupts states outside the step pipeline, so
    // the oracle tracker restarts from a scan.
    let next_burst = |exec: &mut Execution<'_, F::A>,
                      p: &mut Progress,
                      oracle: &mut LegitimacyTracker| {
        if p.bursts_injected >= recovery.bursts {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0xB125_7B12_57B1_257B ^ p.bursts_injected.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let palette = family.fault_palette();
        let n = graph.node_count();
        let count = recovery.burst_size.min(n);
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = rng.gen_range(i..n);
            nodes.swap(i, j);
        }
        for &v in &nodes[..count] {
            let s = palette[rng.gen_range(0..palette.len())].clone();
            exec.corrupt(v, s);
        }
        p.bursts_injected += 1;
        p.burst_start_round = exec.rounds();
        oracle.reseed();
        true
    };

    let checkpoint = |exec: &Execution<'_, F::A>,
                      sched: &dyn Scheduler,
                      injector: &Option<FaultInjector<State<F>>>,
                      p: &Progress|
     -> Result<JsonValue, SpecError> {
        let snap = family
            .encode_snapshot(&exec.snapshot())
            .ok_or("checkpoint: a state left the algorithm's palette")?;
        let mut fields = p.to_json();
        fields.push(("execution".to_string(), snap));
        fields.push((
            "scheduler_position".to_string(),
            u64_to_json(sched.checkpoint_position()),
        ));
        fields.push((
            "injector".to_string(),
            injector
                .as_ref()
                .map_or(JsonValue::Null, |i| i.snapshot().to_json()),
        ));
        Ok(JsonValue::object(fields))
    };

    let mut steps_this_invocation: u64 = 0;
    loop {
        // Phase exit and transition conditions are evaluated at step
        // boundaries only.
        if p.phase == PHASE_STABILIZING
            && p.stab_rounds.is_none()
            && exec.rounds() >= params.max_rounds
        {
            break; // budget exhausted
        }
        if p.phase == PHASE_VERIFYING
            && exec.rounds() >= p.verify_start_round + params.verify_rounds
        {
            let changes = exec.output_change_counts().to_vec();
            p.verification_rounds = exec.rounds() - p.verify_start_round;
            for v in family
                .checker()
                .check_window(graph, &changes, p.verification_rounds)
            {
                push_violation(&mut p.violations, v);
            }
            if !next_burst(&mut exec, &mut p, &mut oracle) {
                break;
            }
            p.phase = PHASE_RECOVERING;
        }
        if p.phase == PHASE_RECOVERING && exec.rounds() >= p.burst_start_round + params.max_rounds {
            // This burst's recovery budget is exhausted; move on (the next
            // burst starts from wherever the failed recovery left the
            // system — faults compose in a real environment).
            p.unrecovered += 1;
            if !next_burst(&mut exec, &mut p, &mut oracle) {
                break;
            }
        }
        // Simulated kill (step allowance) or cooperative cancellation: stop
        // between steps with a resumable checkpoint.
        let interrupted_by_allowance = policy
            .interrupt_after_steps
            .is_some_and(|allowance| steps_this_invocation >= allowance);
        let interrupted_by_cancel = policy.cancel.is_some_and(CancelToken::is_cancelled);
        if interrupted_by_allowance || interrupted_by_cancel {
            let doc = checkpoint(&exec, sched.as_ref(), &injector, &p)?;
            if let Some(sink) = policy.sink {
                sink(&doc);
            }
            return Ok(UnitOutcome::Interrupted(doc));
        }

        let step_start = std::time::Instant::now();
        let outcome = exec.step_with(&mut *sched);
        timings.step_ns += step_start.elapsed().as_nanos() as u64;
        steps_this_invocation += 1;
        // Feed the phase-active tracker this step's changed-node list (the
        // executor's dirty frontier) so its badness bitset stays exact.
        let oracle_start = std::time::Instant::now();
        let (tracker, local) = if p.phase == PHASE_VERIFYING {
            (&mut snapshot, family.local_snapshot())
        } else {
            (&mut oracle, family.local_oracle())
        };
        tracker.note_step(
            local,
            graph,
            exec.configuration(),
            exec.last_changed(),
            exec.last_step_uniform(),
        );
        if outcome.round_completed {
            timings.oracle_rounds += 1;
            match p.phase {
                PHASE_STABILIZING if legitimate(&mut oracle, exec.configuration()) => {
                    p.stab_rounds = Some(exec.rounds());
                    p.stab_steps = Some(exec.time());
                    p.phase = PHASE_VERIFYING;
                    exec.take_output_change_counts();
                    p.verify_start_round = exec.rounds();
                    // The snapshot tracker saw none of the stabilizing
                    // steps; start it from a scan.
                    snapshot.reseed();
                }
                PHASE_VERIFYING => {
                    // A clean round is decided incrementally; the O(n)
                    // violation enumeration runs only on rounds that
                    // actually violate safety (and only until the
                    // recorded-violation cap).
                    let clean = snapshot.is_legitimate(
                        family.local_snapshot(),
                        graph,
                        exec.configuration(),
                    );
                    if !clean && !violations_capped(&p.violations) {
                        for v in family.checker().check_snapshot(graph, exec.configuration()) {
                            let v = format!("round {}: {v}", exec.rounds());
                            push_violation(&mut p.violations, v);
                        }
                    }
                }
                PHASE_RECOVERING if legitimate(&mut oracle, exec.configuration()) => {
                    p.recovery_rounds.push(exec.rounds() - p.burst_start_round);
                    if !next_burst(&mut exec, &mut p, &mut oracle) {
                        p.phase = PHASE_DONE;
                    }
                }
                _ => {}
            }
            if let Some(injector) = injector.as_mut() {
                // Fault victims mutate state outside the step pipeline, so
                // they are reported to the phase-active tracker explicitly.
                let victims = injector.on_round(&mut exec);
                if !victims.is_empty() {
                    let (tracker, local) = if p.phase == PHASE_VERIFYING {
                        (&mut snapshot, family.local_snapshot())
                    } else {
                        (&mut oracle, family.local_oracle())
                    };
                    tracker.note_step(local, graph, exec.configuration(), &victims, false);
                }
            }
        }
        timings.oracle_ns += oracle_start.elapsed().as_nanos() as u64;
        if p.phase == PHASE_DONE {
            break;
        }
        if policy.every_steps > 0 && exec.time().is_multiple_of(policy.every_steps) {
            if let Some(sink) = policy.sink {
                sink(&checkpoint(&exec, sched.as_ref(), &injector, &p)?);
            }
        }
    }

    let burst_faults = p.bursts_injected * recovery.burst_size.min(graph.node_count()) as u64;
    Ok(UnitOutcome::Complete(UnitResult {
        stabilization_rounds: p.stab_rounds,
        stabilization_steps: p.stab_steps,
        verification_rounds: p.verification_rounds,
        violations: p.violations,
        faults_injected: injector.as_ref().map_or(0, FaultInjector::faults_injected) + burst_faults,
        total_steps: exec.time(),
        recovery_rounds: p.recovery_rounds,
        unrecovered: p.unrecovered,
        timings,
    }))
}

/// A unit's measurement state beyond its execution, scheduler and fault
/// injector; a checkpoint carries it field by field.
#[derive(Default)]
struct Progress {
    phase: u64,
    stab_rounds: Option<u64>,
    stab_steps: Option<u64>,
    violations: Vec<String>,
    verify_start_round: u64,
    verification_rounds: u64,
    bursts_injected: u64,
    burst_start_round: u64,
    recovery_rounds: Vec<u64>,
    unrecovered: u64,
}

impl Progress {
    fn to_json(&self) -> Vec<(String, JsonValue)> {
        let opt = |x: Option<u64>| x.map_or(JsonValue::Null, u64_to_json);
        let violations = self.violations.iter().cloned().map(JsonValue::String);
        let recovery_rounds = self.recovery_rounds.iter().copied().map(u64_to_json);
        [
            ("phase", u64_to_json(self.phase)),
            ("stab_rounds", opt(self.stab_rounds)),
            ("stab_steps", opt(self.stab_steps)),
            ("violations", JsonValue::Array(violations.collect())),
            ("verify_start_round", u64_to_json(self.verify_start_round)),
            ("verification_rounds", u64_to_json(self.verification_rounds)),
            ("bursts_injected", u64_to_json(self.bursts_injected)),
            ("burst_start_round", u64_to_json(self.burst_start_round)),
            (
                "recovery_rounds",
                JsonValue::Array(recovery_rounds.collect()),
            ),
            ("unrecovered", u64_to_json(self.unrecovered)),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
    }

    fn from_json(doc: &JsonValue) -> Result<Self, SpecError> {
        let malformed = |key: &str| format!("checkpoint: malformed {key}");
        let req = |key: &str| -> Result<u64, SpecError> {
            u64_from_json(field(doc, key, "checkpoint")?).ok_or_else(|| malformed(key))
        };
        let opt = |key: &str| -> Result<Option<u64>, SpecError> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => u64_from_json(v).map(Some).ok_or_else(|| malformed(key)),
            }
        };
        let list = |key: &str| -> Result<&[JsonValue], SpecError> {
            field(doc, key, "checkpoint")?
                .as_array()
                .ok_or_else(|| malformed(key))
        };
        Ok(Progress {
            phase: req("phase")?,
            stab_rounds: opt("stab_rounds")?,
            stab_steps: opt("stab_steps")?,
            violations: list("violations")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| malformed("violations"))?,
            verify_start_round: req("verify_start_round")?,
            verification_rounds: req("verification_rounds")?,
            bursts_injected: req("bursts_injected")?,
            burst_start_round: req("burst_start_round")?,
            recovery_rounds: list("recovery_rounds")?
                .iter()
                .map(u64_from_json)
                .collect::<Option<_>>()
                .ok_or_else(|| malformed("recovery_rounds"))?,
            unrecovered: req("unrecovered")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Instant tasks
// ---------------------------------------------------------------------------

/// The E1 artifacts at a diameter bound: the rendered transition table, the
/// Graphviz DOT state diagram and the per-kind rule counts `(AA, AF, FA)`.
fn transition_table_artifacts(diameter_bound: usize) -> (String, String, (usize, usize, usize)) {
    let alg = AlgAu::new(diameter_bound);
    let rows = alg.transition_table();
    let mut table = format!("{:<14} {:<6} {:<14} condition\n", "from", "type", "to");
    for row in &rows {
        table.push_str(&format!(
            "{:<14} {:<6} {:<14} {}\n",
            row.from.to_string(),
            format!("{:?}", row.kind),
            row.to.to_string(),
            row.condition
        ));
    }
    let count = |kind| rows.iter().filter(|r| r.kind == kind).count();
    (
        table,
        alg.state_diagram_dot(),
        (
            count(unison_core::TransitionKind::AbleAble),
            count(unison_core::TransitionKind::AbleFaulty),
            count(unison_core::TransitionKind::FaultyAble),
        ),
    )
}

/// E1 as rows: one row per rule kind, so the counts land in reports.
fn transition_table_rows(id: &str, diameter_bound: usize) -> Vec<ExperimentRow> {
    let (_, _, (aa, af, fa)) = transition_table_artifacts(diameter_bound);
    let alg = AlgAu::new(diameter_bound);
    [
        ("algau-states", alg.state_count()),
        ("aa-rules", aa),
        ("af-rules", af),
        ("fa-rules", fa),
    ]
    .into_iter()
    .map(|(metric, count)| ExperimentRow {
        experiment: id.to_string(),
        topology: "-".into(),
        n: 0,
        diameter_bound,
        scheduler: "-".into(),
        metric: metric.into(),
        summary: Summary::of(&[count as f64]),
        failures: 0,
    })
    .collect()
}

/// E2 as rows: AlgAU's state count at every bound, plus (optionally) the
/// derived algorithms' counts.
fn state_space_rows(
    id: &str,
    diameter_bounds: &[usize],
    include_derived: bool,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &d in diameter_bounds {
        let alg = AlgAu::new(d);
        rows.push(ExperimentRow {
            experiment: id.to_string(),
            topology: "-".into(),
            n: 0,
            diameter_bound: d,
            scheduler: "-".into(),
            metric: "algau-states".into(),
            summary: Summary::of(&[alg.state_count() as f64]),
            failures: 0,
        });
        if include_derived {
            rows.extend(derived_state_space_rows(id, &[d]));
        }
    }
    rows
}

/// The state-space counts of the algorithms *derived* from AlgAU (LE, MIS
/// and their synchronized asynchronous versions), one row per metric per
/// bound.
fn derived_state_space_rows(id: &str, diameter_bounds: &[usize]) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &d in diameter_bounds {
        let le = sa_protocols::alg_le(d);
        let mis = sa_protocols::alg_mis(d);
        let async_le = sa_synchronizer::async_le(d);
        let async_mis = sa_synchronizer::async_mis(d);
        for (metric, count) in [
            ("algle-states", le.state_count()),
            ("algmis-states", mis.state_count()),
            ("async-le-states", async_le.state_space_size()),
            ("async-mis-states", async_mis.state_space_size()),
        ] {
            rows.push(ExperimentRow {
                experiment: id.to_string(),
                topology: "-".into(),
                n: 0,
                diameter_bound: d,
                scheduler: "-".into(),
                metric: metric.into(),
                summary: Summary::of(&[count as f64]),
                failures: 0,
            });
        }
    }
    rows
}

/// One row of a measuring instant task: the per-trial rounds of one cell,
/// with every `None` trial counted in `failures`.
fn trial_row(
    id: &str,
    topology: &Topology,
    graph: &Graph,
    diameter_bound: usize,
    metric: String,
    outcomes: &[Option<u64>],
) -> ExperimentRow {
    let rounds: Vec<u64> = outcomes.iter().flatten().copied().collect();
    ExperimentRow {
        experiment: id.to_string(),
        topology: topology.label(),
        n: graph.node_count(),
        diameter_bound,
        scheduler: SchedulerSpec::Synchronous.label(),
        metric,
        summary: Summary::of_u64(if rounds.is_empty() { &[0] } else { &rounds }),
        failures: outcomes.len() - rounds.len(),
    }
}

/// E4 as rows: per topology, the synchronous round at which module
/// Restart (around a trivial host) was left by every node. A trial starts
/// from a configuration drawn from `seed` alone, with node 0 and about half
/// of the others in uniformly random Restart states and the rest in random
/// host states; it fails unless every node exits in the same round, into
/// the host's initial state, within `4·D + 10` rounds.
fn restart_exit_rows(task: &RestartExitTask, graph_seed: u64) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for topology in &task.topologies {
        let graph = topology.build(graph_seed);
        let d = task.diameter_bound.unwrap_or_else(|| graph.diameter());
        let wrapper = WithRestart::new(TrivialHost::new(RESTART_HOST_PERIOD), d);
        let outcomes: Vec<Option<u64>> = (0..task.seeds)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let start = (0..graph.node_count())
                    .map(|v| {
                        if v == 0 || rng.gen_bool(0.5) {
                            RestartState::Restart(rng.gen_range(0..=wrapper.exit_index()))
                        } else {
                            RestartState::Host(rng.gen_range(0..RESTART_HOST_PERIOD))
                        }
                    })
                    .collect();
                measure_restart_exit(&wrapper, &graph, start, seed, 4 * d as u64 + 10)
                    .filter(|exit| exit.concurrent && exit.uniform_exit)
                    .map(|exit| exit.exit_round)
            })
            .collect();
        rows.push(trial_row(
            &task.id,
            topology,
            &graph,
            d,
            "restart:rounds-to-exit".to_string(),
            &outcomes,
        ));
    }
    rows
}

/// E5/E6 as rows: per algorithm × topology, the stabilization round of the
/// synchronous algorithm from uniformly random configurations, measured by
/// output stability over the horizon.
fn static_rows(task: &StaticTask, graph_seed: u64) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for algorithm in &task.algorithms {
        for topology in &task.topologies {
            let graph = topology.build(graph_seed);
            let d = graph.diameter();
            let horizon = task
                .max_rounds
                .unwrap_or_else(|| algorithm.default_horizon(graph.node_count(), d));
            let outcomes = match algorithm {
                StaticAlgorithm::AlgLe => {
                    static_trials(&alg_le(d), &LeChecker, &graph, task.seeds, horizon)
                }
                StaticAlgorithm::AlgMis => {
                    static_trials(&alg_mis(d), &MisChecker, &graph, task.seeds, horizon)
                }
            };
            let metric = format!("{}:rounds-to-stable", algorithm.label());
            rows.push(trial_row(&task.id, topology, &graph, d, metric, &outcomes));
        }
    }
    rows
}

/// Seeds `0..seeds` of one static cell; `None` marks a trial whose clean,
/// unchanged tail was shorter than an eighth of the horizon (at least one
/// round).
fn static_trials<A, C>(
    algorithm: &A,
    checker: &C,
    graph: &Graph,
    seeds: u64,
    horizon: u64,
) -> Vec<Option<u64>>
where
    A: StateSpace,
    C: TaskChecker<A>,
{
    let palette = algorithm.states();
    let tail = (horizon / 8).max(1);
    (0..seeds)
        .map(|seed| {
            let mut exec = ExecutionBuilder::new(algorithm, graph)
                .seed(seed)
                .random_initial(&palette);
            measure_static_stabilization(
                &mut exec,
                &mut SynchronousScheduler,
                checker,
                horizon,
                tail,
            )
            .stabilization_round
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation and rendering
// ---------------------------------------------------------------------------

/// Aggregates completed units into [`ExperimentRow`]s per sweep cell (task ×
/// algorithm × topology/scenario × scheduler × engine): one
/// `<alg>:rounds-to-good@<engine>` row per cell summarizing stabilization
/// rounds over seeds, plus — for cells with a recovery phase — one
/// `<alg>:recovery-rounds@<engine>` row summarizing per-burst recovery
/// rounds over bursts and seeds. Units must be in expansion order
/// (seed-major within a cell, as [`SweepSpec::execution_units`] produces
/// them).
pub fn aggregate_rows(units: &[(SweepUnit, UnitResult)]) -> Vec<ExperimentRow> {
    type CellKey = (String, String, String, String, String);
    let mut rows: Vec<ExperimentRow> = Vec::new();
    let mut cell_of_row: Vec<CellKey> = Vec::new();
    let mut samples: Vec<Vec<u64>> = Vec::new();
    let mut failures: Vec<usize> = Vec::new();
    let mut recovery_samples: Vec<Vec<u64>> = Vec::new();
    let mut recovery_failures: Vec<usize> = Vec::new();
    let mut has_recovery: Vec<bool> = Vec::new();
    for (unit, result) in units {
        let key = (
            unit.task_id.clone(),
            unit.algorithm.label().to_string(),
            unit.topology_label(),
            unit.scheduler.label(),
            unit.engine.label(),
        );
        let idx = match cell_of_row.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                // Build the graph once per cell for its size and (when the
                // spec leaves the bound implicit) its exact diameter.
                let graph = unit.topology.build(unit.graph_seed);
                let graph_n = graph.node_count();
                let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
                cell_of_row.push(key);
                samples.push(Vec::new());
                failures.push(0);
                recovery_samples.push(Vec::new());
                recovery_failures.push(0);
                has_recovery.push(false);
                rows.push(ExperimentRow {
                    experiment: unit.task_id.clone(),
                    topology: unit.topology_label(),
                    n: graph_n,
                    diameter_bound: d,
                    scheduler: unit.scheduler.label(),
                    metric: format!(
                        "{}:rounds-to-good@{}",
                        unit.algorithm.label(),
                        unit.engine.label()
                    ),
                    summary: Summary::of(&[0.0]), // replaced below
                    failures: 0,
                });
                rows.len() - 1
            }
        };
        match result.stabilization_rounds {
            Some(r) => samples[idx].push(r),
            None => failures[idx] += 1,
        }
        if !result.violations.is_empty() {
            failures[idx] += 1;
        }
        if unit.recovery.is_some() {
            has_recovery[idx] = true;
            recovery_samples[idx].extend(&result.recovery_rounds);
            recovery_failures[idx] += result.unrecovered as usize;
        }
    }
    for (idx, row) in rows.iter_mut().enumerate() {
        let cell_samples = if samples[idx].is_empty() {
            vec![0]
        } else {
            samples[idx].clone()
        };
        row.summary = Summary::of_u64(&cell_samples);
        row.failures = failures[idx];
    }
    // Recovery rows come after the stabilization rows, in cell order, so the
    // document stays deterministic.
    for idx in 0..cell_of_row.len() {
        if !has_recovery[idx] {
            continue;
        }
        let cell_samples = if recovery_samples[idx].is_empty() {
            vec![0]
        } else {
            recovery_samples[idx].clone()
        };
        let template = rows[idx].clone();
        let (_, algorithm, _, _, engine) = &cell_of_row[idx];
        rows.push(ExperimentRow {
            metric: format!("{algorithm}:recovery-rounds@{engine}"),
            summary: Summary::of_u64(&cell_samples),
            failures: recovery_failures[idx],
            ..template
        });
    }
    rows
}

/// Renders the machine-readable `EXPERIMENTS.json` document: spec echo,
/// aggregate rows and per-unit results. Fully deterministic (no timestamps,
/// no environment echo) so an interrupted-and-resumed sweep produces a
/// byte-identical document.
pub fn render_json(
    spec: &SweepSpec,
    rows: &[ExperimentRow],
    units: &[(SweepUnit, UnitResult)],
) -> JsonValue {
    JsonValue::object([
        ("name".to_string(), JsonValue::String(spec.name.clone())),
        ("graph_seed".to_string(), u64_to_json(spec.graph_seed)),
        ("rows".to_string(), sa_model::metrics::rows_to_json(rows)),
        (
            "units".to_string(),
            JsonValue::Array(
                units
                    .iter()
                    .map(|(unit, result)| {
                        let mut fields = vec![
                            ("id".to_string(), JsonValue::String(unit.id())),
                            ("result".to_string(), result.to_json()),
                        ];
                        // Wall-clock timings are opt-in: they are
                        // nondeterministic, and the kill/resume CI legs
                        // byte-diff this document.
                        if spec.timings {
                            fields.push(("timings".to_string(), result.timings.to_json()));
                        }
                        JsonValue::object(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders the human-readable `EXPERIMENTS.md` document.
pub fn render_markdown(
    spec: &SweepSpec,
    rows: &[ExperimentRow],
    artifacts: &[(String, String)],
    units: &[(SweepUnit, UnitResult)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Experiments — {}\n\n", spec.name));
    let clean = units.iter().filter(|(_, r)| r.is_clean()).count();
    if !units.is_empty() {
        out.push_str(&format!(
            "{} sweep units ({} clean, {} failed or violated).\n\n",
            units.len(),
            clean,
            units.len() - clean
        ));
    }
    if !rows.is_empty() {
        out.push_str("```text\n");
        out.push_str(&sa_model::metrics::render_table(rows));
        out.push_str("```\n");
    }
    for (name, body) in artifacts {
        out.push_str(&format!("\n## {name}\n\n```text\n{body}\n```\n"));
    }
    if spec.timings && !units.is_empty() {
        out.push_str("\n## Per-unit timings\n\n");
        out.push_str(
            "Wall-clock split between the step pipeline and legitimacy/safety \
             checking (opt-in via `\"timings\": true`; nondeterministic, zero \
             for units restored from a previous invocation).\n\n```text\n",
        );
        out.push_str(&format!(
            "{:<60} {:>12} {:>12} {:>14}\n",
            "unit", "step-ms", "oracle-ms", "oracle-rounds"
        ));
        for (unit, result) in units {
            out.push_str(&format!(
                "{:<60} {:>12.1} {:>12.1} {:>14}\n",
                unit.id(),
                result.timings.step_ns as f64 / 1e6,
                result.timings.oracle_ns as f64 / 1e6,
                result.timings.oracle_rounds
            ));
        }
        out.push_str("```\n");
    }
    out
}

/// Runs a spec's instant (artifact) tasks, returning report rows and named
/// artifacts.
pub fn run_instant_tasks(spec: &SweepSpec) -> (Vec<ExperimentRow>, Vec<(String, String)>) {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for task in &spec.tasks {
        match task {
            SweepTask::TransitionTable { id, diameter_bound } => {
                rows.extend(transition_table_rows(id, *diameter_bound));
                let (table, dot, _) = transition_table_artifacts(*diameter_bound);
                artifacts.push((format!("{id}: Table 1 (D = {diameter_bound})"), table));
                artifacts.push((format!("{id}: Figure 1 DOT (D = {diameter_bound})"), dot));
            }
            SweepTask::StateSpace {
                id,
                diameter_bounds,
                include_derived,
            } => {
                rows.extend(state_space_rows(id, diameter_bounds, *include_derived));
            }
            SweepTask::RestartExit(task) => rows.extend(restart_exit_rows(task, spec.graph_seed)),
            SweepTask::Static(task) => rows.extend(static_rows(task, spec.graph_seed)),
            SweepTask::Stabilization(_) | SweepTask::Scenario(_) | SweepTask::Verify(_) => {}
        }
    }
    (rows, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"{
      "name": "test-sweep",
      "graph_seed": 17,
      "tasks": [
        {"id": "T1", "kind": "transition-table", "diameter_bound": 2},
        {"id": "S1", "kind": "state-space", "diameter_bounds": [1, 2, 3]},
        {
          "id": "R1",
          "kind": "stabilization",
          "topologies": [{"kind": "cycle", "n": 6}, {"kind": "hypercube", "dim": 2}],
          "schedulers": ["synchronous", "round-robin"],
          "engines": ["serial", {"kind": "sharded", "threads": 2}],
          "fault": {"kind": "burst", "at_round": 2, "count": 1},
          "seeds": 2,
          "max_rounds": 5000
        }
      ]
    }"#;

    #[test]
    fn spec_parses_and_expands_deterministically() {
        let spec = SweepSpec::parse(SMOKE).expect("spec parses");
        assert_eq!(spec.name, "test-sweep");
        assert_eq!(spec.tasks.len(), 3);
        let units = spec.execution_units();
        // 1 algorithm × 2 topologies × 2 schedulers × 2 engines × 2 seeds
        assert_eq!(units.len(), 16);
        let ids: Vec<String> = units.iter().map(SweepUnit::id).collect();
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "unit ids must be unique");
        assert!(ids[0].starts_with("R1--algau--cycle-6--synchronous--serial--s0"));
    }

    #[test]
    fn algorithm_axis_parses_and_expands() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "axis",
              "tasks": [{
                "id": "A1",
                "kind": "stabilization",
                "algorithms": ["algau", "min-plus-one", "le", "mis"],
                "topologies": [{"kind": "cycle", "n": 5}],
                "schedulers": ["synchronous"],
                "init": "benign",
                "seeds": 2
              }]
            }"#,
        )
        .expect("spec parses");
        let units = spec.execution_units();
        assert_eq!(units.len(), 8, "4 algorithms × 2 seeds");
        let labels: Vec<&str> = units.iter().map(|u| u.algorithm.label()).collect();
        assert_eq!(
            labels,
            [
                "algau",
                "algau",
                "min-plus-one",
                "min-plus-one",
                "le",
                "le",
                "mis",
                "mis"
            ]
        );
        assert!(units.iter().all(|u| u.init == InitSpec::Benign));
        assert!(units[2].id().starts_with("A1--min-plus-one--cycle-5"));
        let err = SweepSpec::parse(
            r#"{"name": "x", "tasks": [{"id": "a", "kind": "stabilization",
               "algorithms": ["warp"], "topologies": [{"kind": "path", "n": 2}],
               "schedulers": ["synchronous"]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn scenario_task_parses_and_expands() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "scenarios",
              "tasks": [
                {"id": "B1", "kind": "scenario",
                 "scenario": {"kind": "colony", "cells": 8},
                 "harshness": "severe", "bursts": 2,
                 "schedulers": [{"kind": "uniform-random", "p": 0.5}],
                 "engines": ["serial"], "seeds": 2},
                {"id": "B2", "kind": "scenario",
                 "scenario": {"kind": "tissue", "rows": 3, "cols": 3},
                 "schedulers": ["synchronous"]},
                {"id": "B3", "kind": "scenario",
                 "scenario": {"kind": "pulse", "segments": 3, "cells_per_segment": 3},
                 "harshness": "mild",
                 "schedulers": ["round-robin"]}
              ]
            }"#,
        )
        .expect("spec parses");
        let units = spec.execution_units();
        assert_eq!(units.len(), 4);
        let colony = &units[0];
        assert_eq!(colony.algorithm, AlgorithmSpec::AsyncLe);
        assert_eq!(
            colony.recovery,
            Some(RecoveryPlan {
                bursts: 2,
                // severe: ⌈8 · 0.6⌉ = 5
                burst_size: 5,
            })
        );
        assert_eq!(colony.init, InitSpec::Benign);
        assert_eq!(colony.diameter_bound, Some(2));
        assert!(colony
            .id()
            .starts_with("B1--le--colony-8-severe--uniform-random-0.5"));
        let tissue = &units[2];
        assert_eq!(tissue.algorithm, AlgorithmSpec::AsyncMis);
        assert_eq!(tissue.topology, Topology::Grid { rows: 3, cols: 3 });
        assert_eq!(tissue.scenario.as_deref(), Some("tissue-3x3-moderate"));
        let pulse = &units[3];
        assert_eq!(pulse.algorithm, AlgorithmSpec::AlgAu);
        assert_eq!(
            pulse.topology,
            Topology::Caveman {
                clusters: 3,
                clique: 3
            }
        );
        // mild: ⌈9 · 0.1⌉ = 1
        assert_eq!(pulse.recovery.unwrap().burst_size, 1);
        let err = SweepSpec::parse(
            r#"{"name": "x", "tasks": [{"id": "a", "kind": "scenario",
               "scenario": {"kind": "warp"}, "schedulers": ["synchronous"]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown scenario kind"), "{err}");
    }

    #[test]
    fn spec_errors_name_the_offending_field() {
        let err = SweepSpec::parse("{\"name\": \"x\", \"tasks\": []}").unwrap_err();
        assert!(err.contains("tasks"), "{err}");
        let err =
            SweepSpec::parse("{\"name\": \"x\", \"tasks\": [{\"id\": \"a\", \"kind\": \"nope\"}]}")
                .unwrap_err();
        assert!(err.contains("unknown task kind"), "{err}");
        let err = SweepSpec::parse(
            "{\"name\": \"x\", \"tasks\": [{\"id\": \"a\", \"kind\": \"stabilization\", \
             \"topologies\": [{\"kind\": \"warp\"}], \"schedulers\": [\"synchronous\"]}]}",
        )
        .unwrap_err();
        assert!(err.contains("unknown topology kind"), "{err}");
    }

    #[test]
    fn units_run_clean_and_aggregate() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let units = spec.execution_units();
        let mut done = Vec::new();
        for unit in units {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    assert!(result.faults_injected > 0, "burst plan must fire");
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        let rows = aggregate_rows(&done);
        assert_eq!(rows.len(), 8, "one row per cell");
        assert!(rows.iter().all(|r| r.failures == 0));
        assert!(rows
            .iter()
            .any(|r| r.metric == "algau:rounds-to-good@serial"));
        assert!(rows
            .iter()
            .any(|r| r.metric == "algau:rounds-to-good@sharded-2"));
    }

    #[test]
    fn min_plus_one_units_run_clean() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "baseline",
              "tasks": [{
                "id": "E9",
                "kind": "stabilization",
                "algorithms": ["min-plus-one"],
                "topologies": [{"kind": "cycle", "n": 6}],
                "schedulers": ["synchronous", {"kind": "uniform-random", "p": 0.5}],
                "engines": ["serial", {"kind": "sharded", "threads": 2}],
                "seeds": 2,
                "max_rounds": 2000
              }]
            }"#,
        )
        .unwrap();
        let mut done = Vec::new();
        for unit in spec.execution_units() {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        // serial ≡ sharded for the baseline too (engine pairs share seeds)
        let rows = aggregate_rows(&done);
        let serial: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "min-plus-one:rounds-to-good@serial")
            .collect();
        let sharded: Vec<_> = rows
            .iter()
            .filter(|r| r.metric == "min-plus-one:rounds-to-good@sharded-2")
            .collect();
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&sharded) {
            assert_eq!(a.summary, b.summary, "engines disagree");
        }
    }

    #[test]
    fn scenario_units_recover_and_aggregate() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "bio",
              "tasks": [{
                "id": "B1", "kind": "scenario",
                "scenario": {"kind": "pulse", "segments": 3, "cells_per_segment": 3},
                "harshness": "moderate", "bursts": 2,
                "schedulers": [{"kind": "uniform-random", "p": 0.5}],
                "engines": ["serial", {"kind": "sharded", "threads": 2}],
                "seeds": 2,
                "max_rounds": 50000
              }]
            }"#,
        )
        .unwrap();
        let mut done = Vec::new();
        for unit in spec.execution_units() {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    assert_eq!(result.recovery_rounds.len(), 2, "both bursts recovered");
                    assert!(result.faults_injected > 0, "bursts count as faults");
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        // engine invariance extends to the recovery phase
        assert_eq!(done[0].1, done[2].1, "serial ≡ sharded (seed 0)");
        assert_eq!(done[1].1, done[3].1, "serial ≡ sharded (seed 1)");
        let rows = aggregate_rows(&done);
        assert_eq!(rows.len(), 4, "a rounds row and a recovery row per cell");
        let recovery: Vec<_> = rows
            .iter()
            .filter(|r| r.metric.contains("recovery-rounds"))
            .collect();
        assert_eq!(recovery.len(), 2);
        assert!(recovery
            .iter()
            .all(|r| r.topology == "pulse-3x3-moderate" && r.failures == 0));
    }

    #[test]
    fn serial_and_sharded_units_measure_identical_rounds() {
        // serial ≡ sharded bit-for-bit means the measured stabilization
        // rounds of paired units must agree exactly.
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let units = spec.execution_units();
        let run = |unit: &SweepUnit| match run_unit(unit, &CheckpointPolicy::default()).unwrap() {
            UnitOutcome::Complete(r) => r,
            _ => unreachable!(),
        };
        for pair in units.chunks(4) {
            // expansion order is engine-major then seed: [serial s0, serial
            // s1, sharded s0, sharded s1]
            assert_eq!(
                run(&pair[0]),
                run(&pair[2]),
                "engine changed the measurement"
            );
            assert_eq!(run(&pair[1]), run(&pair[3]));
        }
    }

    #[test]
    fn interrupt_and_resume_is_bit_identical() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let unit = &spec.execution_units()[5];
        let reference = match run_unit(unit, &CheckpointPolicy::default()).unwrap() {
            UnitOutcome::Complete(r) => r,
            _ => unreachable!(),
        };
        // Interrupt after 7 steps, then resume from the checkpoint; repeat
        // the kill several times to cross phase boundaries.
        let mut checkpoint: Option<JsonValue> = None;
        let mut resumed = None;
        for _ in 0..200 {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(7),
                cancel: None,
            };
            match run_unit(unit, &policy).unwrap() {
                UnitOutcome::Complete(r) => {
                    resumed = Some(r);
                    break;
                }
                UnitOutcome::Interrupted(doc) => {
                    // serialize → parse to prove the on-disk form works
                    let text = doc.render_pretty();
                    checkpoint = Some(JsonValue::parse(&text).unwrap());
                }
            }
        }
        let resumed = resumed.expect("unit finished within the kill budget");
        assert_eq!(resumed, reference, "resumed unit diverged");
    }

    #[test]
    fn render_json_is_deterministic() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let unit = spec.execution_units().remove(0);
        let result = match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
            UnitOutcome::Complete(r) => r,
            _ => unreachable!(),
        };
        let done = vec![(unit, result)];
        let rows = aggregate_rows(&done);
        let a = render_json(&spec, &rows, &done).render_pretty();
        let b = render_json(&spec, &rows, &done).render_pretty();
        assert_eq!(a, b);
        let md = render_markdown(&spec, &rows, &[], &done);
        assert!(md.contains("# Experiments — test-sweep"));
        assert!(md.contains("algau:rounds-to-good@serial"));
    }

    #[test]
    fn instant_tasks_produce_rows_and_artifacts() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let (rows, artifacts) = run_instant_tasks(&spec);
        assert!(rows.iter().any(|r| r.metric == "algau-states"));
        assert!(rows.iter().any(|r| r.metric == "aa-rules"));
        assert_eq!(artifacts.len(), 2);
        assert!(artifacts[1].1.contains("digraph"));
    }

    /// A spec whose only task is `task` (a JSON object literal).
    fn one_task(task: &str) -> Result<SweepSpec, SpecError> {
        SweepSpec::parse(&format!(r#"{{"name": "t", "tasks": [{task}]}}"#))
    }

    #[test]
    fn measuring_instant_tasks_parse_strictly() {
        let spec = one_task(
            r#"{"id": "R", "kind": "restart-exit", "topologies": [{"kind": "path", "n": 3}],
                "diameter_bound": 4, "seeds": 2}"#,
        )
        .unwrap();
        assert_eq!(
            spec.tasks[0],
            SweepTask::RestartExit(RestartExitTask {
                id: "R".into(),
                topologies: vec![Topology::Path { n: 3 }],
                diameter_bound: Some(4),
                seeds: 2,
            })
        );
        let spec = one_task(
            r#"{"id": "S", "kind": "static", "algorithms": ["algle", "algmis"],
                "topologies": [{"kind": "star", "n": 5}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.tasks[0],
            SweepTask::Static(StaticTask {
                id: "S".into(),
                algorithms: vec![StaticAlgorithm::AlgLe, StaticAlgorithm::AlgMis],
                topologies: vec![Topology::Star { n: 5 }],
                seeds: 1,
                max_rounds: None,
            })
        );
        assert!(
            spec.execution_units().is_empty(),
            "instant tasks run no units"
        );

        for (task, expected) in [
            (
                r#"{"id": "R", "kind": "restart-exit", "topologies": [{"kind": "path", "n": 3}],
                    "seed": 2}"#,
                "unknown field \"seed\" in restart-exit task (allowed:",
            ),
            (
                r#"{"id": "S", "kind": "static", "algorithms": ["algmis"],
                    "topologies": [{"kind": "path", "n": 3}], "max_round": 9}"#,
                "unknown field \"max_round\" in static task (allowed:",
            ),
            (
                r#"{"id": "S", "kind": "static", "algorithms": ["mis"],
                    "topologies": [{"kind": "path", "n": 3}]}"#,
                "unknown static algorithm \"mis\"",
            ),
            (
                r#"{"id": "R", "kind": "restart-exit", "topologies": []}"#,
                "topologies must be non-empty",
            ),
            (
                r#"{"id": "S", "kind": "static", "algorithms": ["algle"], "topologies": []}"#,
                "topologies must be non-empty",
            ),
            (
                r#"{"id": "S", "kind": "static", "algorithms": ["algle"],
                    "topologies": [{"kind": "path", "n": 3}], "max_rounds": 0}"#,
                "\"max_rounds\" must be positive",
            ),
        ] {
            let err = one_task(task).unwrap_err();
            assert!(err.contains(expected), "{err}");
        }
    }

    /// Theorem 3.1 at small scale: every trial exits concurrently into the
    /// host's start state, within the `4·D + 10` horizon, with the bound
    /// either implicit (the exact diameter) or explicit and loose.
    #[test]
    fn restart_exit_rows_exit_concurrently() {
        let spec = one_task(
            r#"{"id": "E4", "kind": "restart-exit",
                "topologies": [{"kind": "complete", "n": 4}, {"kind": "path", "n": 5},
                               {"kind": "cycle", "n": 8}],
                "seeds": 5}"#,
        )
        .unwrap();
        let (rows, artifacts) = run_instant_tasks(&spec);
        assert!(artifacts.is_empty());
        let bounds: Vec<usize> = rows.iter().map(|r| r.diameter_bound).collect();
        assert_eq!(bounds, [1, 4, 4]);
        for row in &rows {
            assert_eq!(row.metric, "restart:rounds-to-exit");
            assert_eq!(row.scheduler, "synchronous");
            assert_eq!((row.summary.count, row.failures), (5, 0), "{row:?}");
            assert!(row.summary.max <= (4 * row.diameter_bound + 10) as f64);
        }
        let loose = one_task(
            r#"{"id": "E4", "kind": "restart-exit", "diameter_bound": 6,
                "topologies": [{"kind": "path", "n": 3}], "seeds": 5}"#,
        )
        .unwrap();
        let (rows, _) = run_instant_tasks(&loose);
        assert_eq!((rows[0].diameter_bound, rows[0].failures), (6, 0));
    }

    #[test]
    fn static_task_solves_mis_on_a_small_graph() {
        let spec = one_task(
            r#"{"id": "E5", "kind": "static", "algorithms": ["algmis"],
                "topologies": [{"kind": "complete", "n": 6}], "seeds": 3, "max_rounds": 3000}"#,
        )
        .unwrap();
        let (rows, _) = run_instant_tasks(&spec);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.metric, "algmis:rounds-to-stable");
        assert_eq!((row.n, row.diameter_bound), (6, 1));
        assert_eq!((row.summary.count, row.failures), (3, 0), "{row:?}");
        assert!(row.summary.max < 3000.0 - 3000.0 / 8.0);
    }

    /// A horizon too short for a clean tail fails every trial rather than
    /// reporting a stabilization round.
    #[test]
    fn static_task_counts_too_short_horizons_as_failures() {
        let spec = one_task(
            r#"{"id": "E6", "kind": "static", "algorithms": ["algle", "algmis"],
                "topologies": [{"kind": "grid", "rows": 4, "cols": 4}], "seeds": 3,
                "max_rounds": 1}"#,
        )
        .unwrap();
        let (rows, _) = run_instant_tasks(&spec);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.failures, 3, "{row:?}");
        }
    }

    #[test]
    fn measuring_instant_task_rows_are_reproducible() {
        let spec = SweepSpec::parse(
            r#"{"name": "claims", "graph_seed": 3, "tasks": [
                {"id": "E4", "kind": "restart-exit",
                 "topologies": [{"kind": "random-regular", "n": 12, "deg": 3}], "seeds": 4},
                {"id": "E56", "kind": "static", "algorithms": ["algle", "algmis"],
                 "topologies": [{"kind": "erdos-renyi", "n": 12, "p": 0.4}], "seeds": 3}
            ]}"#,
        )
        .unwrap();
        let first = run_instant_tasks(&spec);
        assert_eq!(first.0.len(), 3);
        assert!(first.0.iter().all(|r| r.failures == 0), "{:?}", first.0);
        assert_eq!(run_instant_tasks(&spec), first);
        let render = |rows: &[ExperimentRow]| render_json(&spec, rows, &[]).render_pretty();
        assert_eq!(render(&run_instant_tasks(&spec).0), render(&first.0));
    }

    #[test]
    fn unit_result_json_roundtrips() {
        let result = UnitResult {
            stabilization_rounds: Some(12),
            stabilization_steps: Some(40),
            violations: vec!["round 3: bad".into()],
            verification_rounds: 16,
            faults_injected: 4,
            total_steps: 96,
            recovery_rounds: vec![3, 9],
            unrecovered: 0,
            timings: StepTimings::default(),
        };
        let text = result.to_json().render();
        let back = UnitResult::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        let failed = UnitResult {
            stabilization_rounds: None,
            stabilization_steps: None,
            violations: vec![],
            verification_rounds: 0,
            faults_injected: 0,
            total_steps: 10,
            recovery_rounds: vec![],
            unrecovered: 2,
            timings: StepTimings::default(),
        };
        let text = failed.to_json().render();
        assert_eq!(
            UnitResult::from_json(&JsonValue::parse(&text).unwrap()).unwrap(),
            failed
        );
    }
}

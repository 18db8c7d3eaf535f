//! A persistent job queue and worker scheduler for sweep specs — the core of
//! both batch `sa run` and the `sa serve` daemon.
//!
//! The sweep layer ([`crate::sweep`]) turns a spec into independent,
//! checkpointable [`SweepUnit`]s; this module turns *many specs* into a
//! long-lived workload. A [`JobScheduler`] owns a fixed budget of worker
//! threads and a priority queue of units drawn from every submitted job:
//!
//! * **[`JobScheduler::submit`]** registers a [`JobConfig`] (a parsed spec
//!   plus an output directory, a client label and a priority), expands it
//!   into units and queues them. Units are dispatched highest-priority
//!   first; within a priority, clients take turns round-robin (one unit per
//!   turn, turn order = first-submission order) so no client can starve
//!   another at equal priority; within a client, submission order then unit
//!   order — the same deterministic total order as before when every job
//!   comes from one client.
//! * **[`SchedulerLimits`]** bound the service: a queue-depth cap that sheds
//!   load with a structured `overloaded` error, per-client outstanding-unit
//!   quotas and running-unit caps, and a wall-clock watchdog that cancels
//!   stuck units at their next checkpoint boundary and marks the job
//!   [`JobState::Failed`] instead of hanging. Rejections are
//!   [`SchedError`]s with stable machine-readable codes.
//! * **Workers** run each unit through [`run_unit`] with the standard
//!   checkpoint discipline: in-flight state is persisted atomically to
//!   `<out>/state/<unit>.ckpt.{json,bin}` every `checkpoint_every` steps,
//!   completed results to `<unit>.done.json`, and the aggregate
//!   `EXPERIMENTS.json`/`.md` render when the job's last unit finishes —
//!   byte-for-byte the same documents an uninterrupted batch run writes.
//! * **Crash recovery is a re-submit.** A job submitted with
//!   [`JobConfig::resume`] rescans its state directory, loads completed
//!   unit results and in-flight checkpoints (sniffing either encoding), and
//!   continues bit-identically — the property the CI `sweep-smoke` and
//!   `serve-smoke` jobs pin end to end, SIGKILL included.
//! * **[`JobScheduler::cancel`]**, **[`JobScheduler::drain`]** and
//!   **[`JobScheduler::shutdown`]** stop work at checkpoint boundaries via
//!   [`CancelToken`]s ([`CheckpointPolicy::cancel`]): a cancelled job and a
//!   shut-down scheduler both leave every in-flight unit as a resumable
//!   checkpoint on disk, never as lost work.
//! * **[`JobEvent`]s** stream the whole lifecycle (`job-accepted`,
//!   `unit-started`, `unit-checkpointed`, `unit-finished`, `job-finished`)
//!   to pluggable [`ResultSink`]s and per-job [`JobScheduler::watch`]
//!   channels — the file layer above is the batch sink, the `sa serve`
//!   socket layer is a streaming sink (see `docs/serve-protocol.md`).
//! * **A terminal job keeps only its [`JobStatus`].** Once its
//!   `job-finished` is out, the job's spec, units, results and watch
//!   channels are dropped, so a long-lived scheduler's memory does not grow
//!   with every job it has run; status queries and late watchers read the
//!   kept status.
//!
//! # Example
//!
//! Run a tiny sweep through the scheduler and read back its report:
//!
//! ```
//! use sa_bench::jobs::{JobConfig, JobScheduler, JobState};
//! use sa_bench::sweep::SweepSpec;
//!
//! let spec = SweepSpec::parse(
//!     r#"{
//!         "name": "jobs-doc",
//!         "graph_seed": 7,
//!         "tasks": [{
//!             "id": "T", "kind": "stabilization",
//!             "topologies": [{"kind": "cycle", "n": 4}],
//!             "schedulers": ["synchronous"],
//!             "seeds": 1, "max_rounds": 500
//!         }]
//!     }"#,
//! )
//! .unwrap();
//!
//! let out = std::env::temp_dir().join(format!("sa-jobs-doc-{}", std::process::id()));
//! let scheduler = JobScheduler::new(2);
//! let receipt = scheduler.submit(JobConfig::new(spec, out.clone())).unwrap();
//! assert_eq!(receipt.units, 1);
//!
//! let status = scheduler.wait(&receipt.id).expect("job exists");
//! assert_eq!(status.state, JobState::Finished);
//! assert!(status.clean());
//! assert!(out.join("EXPERIMENTS.json").exists());
//! # std::fs::remove_dir_all(&out).ok();
//! ```

use crate::sweep::{
    aggregate_rows, render_json, render_markdown, run_instant_tasks, run_unit, CheckpointFormat,
    CheckpointPolicy, SweepSpec, SweepUnit, UnitOutcome, UnitResult,
};
use sa_model::json::JsonValue;
use sa_model::snapshot::{u64_from_json, u64_to_json};
use sa_runtime::faultfs;
use sa_runtime::parallel::CancelToken;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a submitted job (daemon-assigned ids look like `j1`, `j2`,
/// …; [`JobConfig::id`] lets a caller pin one, e.g. across daemon restarts).
pub type JobId = String;

// ---------------------------------------------------------------------------
// Configuration and status
// ---------------------------------------------------------------------------

/// Everything a job needs: the spec, where its artifacts go, and how it
/// competes for workers.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Pin the job id instead of taking the next `j<n>` (the daemon does
    /// this so ids stay stable across restarts). Must be non-empty and
    /// filesystem-safe (ASCII alphanumerics, `-`, `_`).
    pub id: Option<JobId>,
    /// The parsed sweep spec.
    pub spec: SweepSpec,
    /// Output directory: `state/` checkpoints plus the final
    /// `EXPERIMENTS.json`/`.md` land here.
    pub out_dir: PathBuf,
    /// Higher-priority jobs' units dispatch first (default `0`).
    pub priority: i64,
    /// Who submitted the job (reported in status; default `"local"`).
    pub client: String,
    /// Persist an in-flight checkpoint every this many steps (default
    /// `1000`; `0` disables periodic checkpoints — cancellation still
    /// writes one).
    pub checkpoint_every: u64,
    /// Rescan the state directory and continue from completed-unit results
    /// and in-flight checkpoints instead of starting fresh (a fresh submit
    /// clears `state/`).
    pub resume: bool,
    /// Simulated kill: affected units stop after this many steps in this
    /// scheduler's lifetime, leaving the job [`JobState::Interrupted`]
    /// (exposed as `sa run --interrupt-after-steps`; see
    /// [`CheckpointPolicy::interrupt_after_steps`]).
    pub interrupt_after_steps: Option<u64>,
    /// At most this many units receive the `interrupt_after_steps`
    /// allowance, in unit order (default: all).
    pub interrupt_units: usize,
}

impl JobConfig {
    /// A default-configured job: priority 0, client `"local"`, checkpoint
    /// every 1000 steps, fresh start.
    pub fn new(spec: SweepSpec, out_dir: PathBuf) -> Self {
        JobConfig {
            id: None,
            spec,
            out_dir,
            priority: 0,
            client: "local".to_string(),
            checkpoint_every: 1000,
            resume: false,
            interrupt_after_steps: None,
            interrupt_units: usize::MAX,
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no unit has started yet.
    Queued,
    /// At least one unit has started.
    Running,
    /// Every unit completed and the reports are on disk.
    Finished,
    /// Stopped early (scheduler shutdown or a step allowance); every
    /// started-but-unfinished unit left a resumable checkpoint. Re-submit
    /// with [`JobConfig::resume`] to continue.
    Interrupted,
    /// Cancelled by request; like [`JobState::Interrupted`], resumable.
    Cancelled,
    /// A unit failed (the error is in [`JobStatus::error`]); remaining
    /// units were abandoned at checkpoint boundaries.
    Failed,
}

impl JobState {
    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The wire label (`"queued"`, `"running"`, `"finished"`,
    /// `"interrupted"`, `"cancelled"`, `"failed"`).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Interrupted => "interrupted",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses a label produced by [`JobState::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "finished" => JobState::Finished,
            "interrupted" => JobState::Interrupted,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

/// A point-in-time snapshot of one job's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// The spec's `name` field.
    pub spec_name: String,
    /// Submitting client label.
    pub client: String,
    /// Dispatch priority.
    pub priority: i64,
    /// Lifecycle state.
    pub state: JobState,
    /// Total execution units.
    pub units_total: usize,
    /// Units with a completed result (including results restored from a
    /// previous run's `.done.json` files).
    pub units_done: usize,
    /// Completed units whose result is clean (stabilized, no violations,
    /// fully recovered).
    pub units_clean: usize,
    /// Units stopped at a checkpoint boundary this run.
    pub units_interrupted: usize,
    /// Units that never started (still queued at shutdown/cancel).
    pub units_not_started: usize,
    /// Rows of the rendered report whose `failures` count is positive (0
    /// until the reports render). Instant tasks (`static`, `restart-exit`)
    /// have rows but no units, so only this count carries their failures.
    pub failing_rows: usize,
    /// The first unit error, if any.
    pub error: Option<String>,
}

impl JobStatus {
    /// Whether the job finished with every unit clean and no report row
    /// counting failures.
    pub fn clean(&self) -> bool {
        self.state == JobState::Finished
            && self.units_clean == self.units_total
            && self.failing_rows == 0
            && self.error.is_none()
    }

    /// Serializes the status (the wire shape of `status` responses and the
    /// daemon's `result.json` archive).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("job".to_string(), JsonValue::String(self.id.clone())),
            (
                "spec_name".to_string(),
                JsonValue::String(self.spec_name.clone()),
            ),
            ("client".to_string(), JsonValue::String(self.client.clone())),
            (
                "priority".to_string(),
                JsonValue::Number(self.priority as f64),
            ),
            (
                "state".to_string(),
                JsonValue::String(self.state.label().to_string()),
            ),
            (
                "units_total".to_string(),
                u64_to_json(self.units_total as u64),
            ),
            (
                "units_done".to_string(),
                u64_to_json(self.units_done as u64),
            ),
            (
                "units_clean".to_string(),
                u64_to_json(self.units_clean as u64),
            ),
            (
                "units_interrupted".to_string(),
                u64_to_json(self.units_interrupted as u64),
            ),
            (
                "units_not_started".to_string(),
                u64_to_json(self.units_not_started as u64),
            ),
            (
                "failing_rows".to_string(),
                u64_to_json(self.failing_rows as u64),
            ),
            ("clean".to_string(), JsonValue::Bool(self.clean())),
            (
                "error".to_string(),
                self.error
                    .clone()
                    .map_or(JsonValue::Null, JsonValue::String),
            ),
        ])
    }

    /// Deserializes a status produced by [`JobStatus::to_json`]; a status
    /// without `failing_rows` (archived before the field existed) reads 0.
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        let count = |key: &str| value.get(key).and_then(u64_from_json).map(|v| v as usize);
        Some(JobStatus {
            id: value.get("job")?.as_str()?.to_string(),
            spec_name: value.get("spec_name")?.as_str()?.to_string(),
            client: value.get("client")?.as_str()?.to_string(),
            priority: value.get("priority")?.as_f64()? as i64,
            state: JobState::from_label(value.get("state")?.as_str()?)?,
            units_total: count("units_total")?,
            units_done: count("units_done")?,
            units_clean: count("units_clean")?,
            units_interrupted: count("units_interrupted")?,
            units_not_started: count("units_not_started")?,
            failing_rows: count("failing_rows").unwrap_or(0),
            error: match value.get("error") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_str()?.to_string()),
            },
        })
    }
}

/// Receipt of a successful [`JobScheduler::submit`].
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// The assigned (or pinned) job id.
    pub id: JobId,
    /// Total execution units in the job.
    pub units: usize,
    /// Units whose completed result was restored from a previous run
    /// (resume submits only).
    pub resumed_done: usize,
}

/// A structured scheduler rejection: a stable machine-readable `code` (the
/// daemon forwards it verbatim on the wire — see `docs/serve-protocol.md`),
/// a human-readable message, and an optional retry hint for load shedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedError {
    /// Stable machine-readable code: `bad-request`, `conflict`, `draining`,
    /// `io`, `overloaded`, `quota-exceeded`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded`: how long a well-behaved client should back off
    /// before retrying.
    pub retry_after_ms: Option<u64>,
}

impl SchedError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        SchedError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SchedError {}

impl From<SchedError> for String {
    fn from(e: SchedError) -> String {
        e.message
    }
}

/// Service limits for a [`JobScheduler`]. The default is fully permissive
/// (the batch `sa run` path); the daemon installs real bounds. `0` / `None`
/// always means "unlimited". Admission limits apply to fresh submissions
/// only — resume submissions (crash recovery of already-acknowledged jobs)
/// are never shed.
#[derive(Debug, Clone, Default)]
pub struct SchedulerLimits {
    /// Queue-depth bound: a fresh submission whose units would push the
    /// queued-unit count past this is rejected `overloaded` (with a
    /// `retry_after_ms` hint) instead of growing the queue without bound.
    pub max_queued_units: usize,
    /// Per-client outstanding-unit quota: a fresh submission is rejected
    /// `quota-exceeded` while the client already has at least this many
    /// units queued or running.
    pub client_quota: usize,
    /// Per-client running-unit cap: at most this many of one client's units
    /// occupy workers at once, whatever the queue holds (fair-share
    /// dispatch skips the capped client's turn; the scheduler stays
    /// work-conserving by serving other clients or lower priorities).
    pub client_workers: usize,
    /// Wall-clock watchdog: a unit running longer than this is cancelled at
    /// its next checkpoint boundary and the job marked
    /// [`JobState::Failed`] with an explanatory error — stuck work becomes
    /// a structured failure, never a hung queue.
    pub unit_timeout: Option<Duration>,
}

// ---------------------------------------------------------------------------
// Events and sinks
// ---------------------------------------------------------------------------

/// A lifecycle event, streamed to [`ResultSink`]s and
/// [`JobScheduler::watch`] subscribers. The wire encoding
/// ([`JobEvent::to_json`]) is documented field by field in
/// `docs/serve-protocol.md`.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job was accepted and its units queued.
    JobAccepted {
        /// Job id.
        job: JobId,
        /// The spec's name.
        spec_name: String,
        /// Total execution units.
        units: usize,
        /// Completed results restored from a previous run.
        resumed_done: usize,
    },
    /// A worker picked the unit up.
    UnitStarted {
        /// Job id.
        job: JobId,
        /// Unit id (see [`SweepUnit::id`]).
        unit: String,
    },
    /// The unit persisted an in-flight checkpoint.
    UnitCheckpointed {
        /// Job id.
        job: JobId,
        /// Unit id.
        unit: String,
        /// The unit's total executed steps at the checkpoint.
        steps: u64,
    },
    /// The unit completed and its result is on disk.
    UnitFinished {
        /// Job id.
        job: JobId,
        /// Unit id.
        unit: String,
        /// Whether the result is clean ([`UnitResult::is_clean`]).
        clean: bool,
    },
    /// The job reached a terminal state (for [`JobState::Finished`], the
    /// reports are already on disk when this fires).
    JobFinished {
        /// Job id.
        job: JobId,
        /// The final status.
        status: JobStatus,
    },
}

impl JobEvent {
    /// The wire name of the event (`"job-accepted"`, `"unit-started"`,
    /// `"unit-checkpointed"`, `"unit-finished"`, `"job-finished"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobEvent::JobAccepted { .. } => "job-accepted",
            JobEvent::UnitStarted { .. } => "unit-started",
            JobEvent::UnitCheckpointed { .. } => "unit-checkpointed",
            JobEvent::UnitFinished { .. } => "unit-finished",
            JobEvent::JobFinished { .. } => "job-finished",
        }
    }

    /// The id of the job the event belongs to.
    pub fn job(&self) -> &str {
        match self {
            JobEvent::JobAccepted { job, .. }
            | JobEvent::UnitStarted { job, .. }
            | JobEvent::UnitCheckpointed { job, .. }
            | JobEvent::UnitFinished { job, .. }
            | JobEvent::JobFinished { job, .. } => job,
        }
    }

    /// Serializes the event to its NDJSON wire object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "event".to_string(),
                JsonValue::String(self.kind().to_string()),
            ),
            ("job".to_string(), JsonValue::String(self.job().to_string())),
        ];
        match self {
            JobEvent::JobAccepted {
                spec_name,
                units,
                resumed_done,
                ..
            } => {
                fields.push((
                    "spec_name".to_string(),
                    JsonValue::String(spec_name.clone()),
                ));
                fields.push(("units".to_string(), u64_to_json(*units as u64)));
                fields.push((
                    "resumed_done".to_string(),
                    u64_to_json(*resumed_done as u64),
                ));
            }
            JobEvent::UnitStarted { unit, .. } => {
                fields.push(("unit".to_string(), JsonValue::String(unit.clone())));
            }
            JobEvent::UnitCheckpointed { unit, steps, .. } => {
                fields.push(("unit".to_string(), JsonValue::String(unit.clone())));
                fields.push(("steps".to_string(), u64_to_json(*steps)));
            }
            JobEvent::UnitFinished { unit, clean, .. } => {
                fields.push(("unit".to_string(), JsonValue::String(unit.clone())));
                fields.push(("clean".to_string(), JsonValue::Bool(*clean)));
            }
            JobEvent::JobFinished { status, .. } => {
                fields.push(("status".to_string(), status.to_json()));
            }
        }
        JsonValue::object(fields)
    }
}

/// A pluggable consumer of [`JobEvent`]s, shared by every job the scheduler
/// runs (per-job streams go through [`JobScheduler::watch`] instead).
///
/// Handlers are invoked while the scheduler holds its internal lock so that
/// event order is total: keep them quick, never block on I/O you don't
/// control, and never call back into the scheduler.
pub trait ResultSink: Send + Sync {
    /// Called for every event, in a single total order.
    fn event(&self, event: &JobEvent);
}

// ---------------------------------------------------------------------------
// File persistence (shared by batch runs and the daemon)
// ---------------------------------------------------------------------------

/// Atomic, durable write: temp file in the same directory, fsync, rename,
/// directory fsync — a kill mid-write can never leave a truncated file
/// behind, and a completed write survives a power cut. All I/O goes through
/// [`sa_runtime::faultfs`], the deterministic fault-injection seam.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// Atomic durable write of raw bytes (the binary checkpoint path). See
/// [`write_atomic`].
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    faultfs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    faultfs::sync_file(&tmp).map_err(|e| format!("cannot fsync {}: {e}", tmp.display()))?;
    faultfs::rename(&tmp, path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))?;
    if let Some(dir) = path.parent() {
        faultfs::sync_dir(dir).map_err(|e| format!("cannot fsync {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Moves a torn/corrupt file aside as `<name>.quarantined` (falling back to
/// deletion) and logs the reason — recovery never panics on bad bytes and
/// never re-reads them as good data. The quarantined copy is kept for
/// post-mortems.
pub fn quarantine_file(path: &Path, reason: &str) {
    eprintln!("sa: warning: quarantining {}: {reason}", path.display());
    let mut target = path.as_os_str().to_owned();
    target.push(".quarantined");
    if fs::rename(path, PathBuf::from(target)).is_err() {
        fs::remove_file(path).ok();
    }
}

/// The in-flight checkpoint path for `unit_id` under `format`.
fn ckpt_path_for(state_dir: &Path, unit_id: &str, format: CheckpointFormat) -> PathBuf {
    let ext = match format {
        CheckpointFormat::Json => "ckpt.json",
        CheckpointFormat::Binary => "ckpt.bin",
    };
    state_dir.join(format!("{unit_id}.{ext}"))
}

/// The other checkpoint encoding (resume fallback probing).
fn other_format(format: CheckpointFormat) -> CheckpointFormat {
    match format {
        CheckpointFormat::Json => CheckpointFormat::Binary,
        CheckpointFormat::Binary => CheckpointFormat::Json,
    }
}

/// Reads an in-flight checkpoint, sniffing the encoding from the leading
/// bytes (`Ok(None)` if the file does not exist).
fn read_checkpoint(path: &Path) -> Result<Option<JsonValue>, String> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(_) => return Ok(None),
    };
    let doc = if sa_model::binary::is_binary(&bytes) {
        sa_model::binary::decode(&bytes)
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|_| format!("corrupt checkpoint {}: not UTF-8", path.display()))?;
        JsonValue::parse(&text)
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?
    };
    Ok(Some(doc))
}

// ---------------------------------------------------------------------------
// Scheduler internals
// ---------------------------------------------------------------------------

/// What a unit carries into the queue from a resume scan.
struct UnitInput {
    done: Option<UnitResult>,
    checkpoint: Option<JsonValue>,
    interrupt_after_steps: Option<u64>,
}

/// A job that is not yet terminal ([`JobState::Queued`] or
/// [`JobState::Running`]); [`Inner::settle`] retires it.
struct Job {
    config: JobConfig,
    units: Vec<SweepUnit>,
    inputs: Vec<UnitInput>,
    completed: Vec<Option<UnitResult>>,
    /// Units not yet accounted for (queued or running).
    remaining: usize,
    running: usize,
    interrupted: usize,
    not_started: usize,
    /// Report rows counting failures, set when the reports render.
    failing_rows: usize,
    error: Option<String>,
    cancel: Arc<CancelToken>,
    cancel_requested: bool,
    state: JobState,
    subscribers: Vec<Subscriber>,
}

impl Job {
    fn status(&self, id: &str) -> JobStatus {
        let done: Vec<&UnitResult> = self.completed.iter().flatten().collect();
        JobStatus {
            id: id.to_string(),
            spec_name: self.config.spec.name.clone(),
            client: self.config.client.clone(),
            priority: self.config.priority,
            state: self.state,
            units_total: self.units.len(),
            units_done: done.len(),
            units_clean: done.iter().filter(|r| r.is_clean()).count(),
            units_interrupted: self.interrupted,
            units_not_started: self.not_started,
            failing_rows: self.failing_rows,
            error: self.error.clone(),
        }
    }
}

/// A queued unit, waiting in its client's per-priority FIFO.
struct QueueEntry {
    unit_idx: usize,
    job: JobId,
}

/// One priority level of the fair queue: each client holds a FIFO of its
/// queued units (submission order, then unit order — by construction, since
/// submissions enqueue sequentially), and `rotation` fixes whose turn it is
/// (clients in first-submission order, rotating one unit per turn).
#[derive(Default)]
struct Lane {
    rotation: VecDeque<String>,
    queues: BTreeMap<String, VecDeque<QueueEntry>>,
}

/// The deficit-round-robin dispatch queue: strict priority across lanes,
/// round-robin across clients inside a lane (every unit costs one quantum,
/// so the deficit degenerates to taking turns), FIFO within a client. A
/// client at its running-unit cap keeps its place in the rotation but is
/// skipped, so the queue stays work-conserving.
#[derive(Default)]
struct FairQueue {
    lanes: BTreeMap<i64, Lane>,
    len: usize,
}

impl FairQueue {
    fn push(&mut self, priority: i64, client: &str, entry: QueueEntry) {
        let lane = self.lanes.entry(priority).or_default();
        if !lane.queues.contains_key(client) {
            lane.rotation.push_back(client.to_string());
        }
        lane.queues
            .entry(client.to_string())
            .or_default()
            .push_back(entry);
        self.len += 1;
    }

    /// Pops the next dispatchable unit: highest-priority lane first; within
    /// a lane, the first client in rotation order for which `eligible`
    /// holds. The served client rotates to the back; skipped (capped)
    /// clients keep their turn.
    fn pop(&mut self, mut eligible: impl FnMut(&str) -> bool) -> Option<QueueEntry> {
        let mut popped = None;
        let mut drained_lane = None;
        for (&priority, lane) in self.lanes.iter_mut().rev() {
            let turn = (0..lane.rotation.len()).find(|&i| eligible(&lane.rotation[i]));
            let Some(turn) = turn else { continue };
            let client = lane.rotation.remove(turn).expect("turn index in range");
            let queue = lane
                .queues
                .get_mut(&client)
                .expect("rotating client has a queue");
            let entry = queue.pop_front().expect("queued client has units");
            if queue.is_empty() {
                lane.queues.remove(&client);
            } else {
                lane.rotation.push_back(client);
            }
            self.len -= 1;
            if lane.queues.is_empty() {
                drained_lane = Some(priority);
            }
            popped = Some(entry);
            break;
        }
        if let Some(priority) = drained_lane {
            self.lanes.remove(&priority);
        }
        popped
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Bookkeeping for a unit currently occupying a worker, so job-level cancel
/// and the wall-clock watchdog can reach its [`CancelToken`].
struct RunningUnit {
    started: Instant,
    cancel: Arc<CancelToken>,
    timed_out: Arc<AtomicBool>,
}

struct State {
    /// Live jobs only.
    jobs: BTreeMap<JobId, Job>,
    /// Terminal jobs, kept as their final status (boxed: a B-tree node
    /// then holds 11 pointers, not 11 statuses, most of them spare).
    finished: BTreeMap<JobId, Box<JobStatus>>,
    queue: FairQueue,
    /// Units currently on a worker, keyed by (job, unit index).
    running_units: BTreeMap<(JobId, usize), RunningUnit>,
    /// Running-unit count per client (the fair-share cap gauge).
    running_by_client: BTreeMap<String, usize>,
    /// Firehose subscribers ([`JobScheduler::watch_all`]): every event of
    /// every job, in the one total order.
    firehose: Vec<Subscriber>,
    next_job: u64,
    accepting: bool,
    started: bool,
}

/// Subscriber queue bound ([`JobScheduler::watch`] /
/// [`JobScheduler::watch_all`]). A consumer that falls this many events
/// behind is shed (its channel dropped) rather than buffering unboundedly.
const EVENT_BUFFER: usize = 1024;

/// The sending half of a watch subscription: an unbounded channel that
/// holds only the events actually queued (a bounded `sync_channel` would
/// allocate all [`EVENT_BUFFER`] slots up front, ~188 KB per watcher),
/// with the bound kept by counting what the receiver has not taken yet.
struct Subscriber {
    tx: mpsc::Sender<JobEvent>,
    queued: Arc<AtomicUsize>,
}

impl Subscriber {
    /// A subscription and its receiving end.
    fn new() -> (Self, EventStream) {
        let (tx, rx) = mpsc::channel();
        let queued = Arc::new(AtomicUsize::new(0));
        let stream = EventStream {
            rx,
            queued: queued.clone(),
        };
        (Subscriber { tx, queued }, stream)
    }

    /// Queues `event`; `false` when the subscriber must be dropped — it is
    /// [`EVENT_BUFFER`] events behind, or its receiver is gone. Called
    /// under the state lock, so one event is offered at a time.
    fn offer(&self, event: &JobEvent) -> bool {
        if self.queued.load(AtomicOrdering::Acquire) >= EVENT_BUFFER {
            return false;
        }
        // Count before sending: the receiver decrements only after it has
        // taken the event, so the count never underflows.
        self.queued.fetch_add(1, AtomicOrdering::AcqRel);
        self.tx.send(event.clone()).is_ok()
    }
}

/// A [`JobScheduler::watch`] subscription: the job's events in order; the
/// stream ends after `job-finished`, or once the watcher fell 1,024 events
/// behind and was shed.
pub struct EventStream {
    rx: mpsc::Receiver<JobEvent>,
    queued: Arc<AtomicUsize>,
}

impl EventStream {
    /// Blocks for the next event; `Err` once the stream has ended.
    pub fn recv(&self) -> Result<JobEvent, mpsc::RecvError> {
        let event = self.rx.recv()?;
        self.queued.fetch_sub(1, AtomicOrdering::AcqRel);
        Ok(event)
    }
}

impl Iterator for EventStream {
    type Item = JobEvent;

    fn next(&mut self) -> Option<JobEvent> {
        self.recv().ok()
    }
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers (new units, start, a freed per-client cap, shutdown).
    work: Condvar,
    /// Wakes waiters (job reached a terminal state).
    done: Condvar,
    /// Global stop: workers exit instead of popping further units.
    shutdown: CancelToken,
    sinks: Mutex<Vec<Arc<dyn ResultSink>>>,
    limits: SchedulerLimits,
}

impl Inner {
    /// Fans an event out to sinks, the firehose, and the job's subscribers.
    /// Must be called with the state lock held (it is passed in) so event
    /// order is total. Subscriber sends never block: a full channel means a
    /// slow consumer, which is dropped.
    fn fan_out(&self, state: &mut State, event: JobEvent) {
        for sink in self.sinks.lock().unwrap().iter() {
            sink.event(&event);
        }
        state.firehose.retain(|sub| sub.offer(&event));
        if let Some(job) = state.jobs.get_mut(event.job()) {
            job.subscribers.retain(|sub| sub.offer(&event));
        }
    }

    /// Fans an event out, taking the state lock itself.
    fn emit(&self, event: JobEvent) {
        let mut state = self.state.lock().unwrap();
        self.fan_out(&mut state, event);
    }

    /// Moves a live job into `terminal`: fans out its `job-finished`, then
    /// keeps only the final status. Dropping the job drops its subscribers'
    /// senders, so every `watch` stream ends right after its `job-finished`.
    fn settle(&self, state: &mut State, id: &str, terminal: JobState) {
        let Some(job) = state.jobs.get_mut(id) else {
            return;
        };
        job.state = terminal;
        let status = job.status(id);
        self.fan_out(
            state,
            JobEvent::JobFinished {
                job: id.to_string(),
                status: status.clone(),
            },
        );
        state.jobs.remove(id);
        state.finished.insert(id.to_string(), Box::new(status));
        self.done.notify_all();
    }
}

/// Cancels the in-flight units of `job` (each runs under its own token so
/// the watchdog can target one unit; job-level stop must reach them all).
fn cancel_running_units(state: &State, job: &str) {
    for ((id, _), unit) in state.running_units.iter() {
        if id == job {
            unit.cancel.cancel();
        }
    }
}

/// What a worker needs to run one unit without holding the lock.
struct Dispatch {
    job: JobId,
    client: String,
    unit: SweepUnit,
    unit_idx: usize,
    checkpoint: Option<JsonValue>,
    interrupt_after_steps: Option<u64>,
    every_steps: u64,
    format: CheckpointFormat,
    state_dir: PathBuf,
    /// This unit's own token (job cancel and the watchdog both cancel it).
    cancel: Arc<CancelToken>,
    /// Set by the watchdog before cancelling: the interruption is a
    /// wall-clock overrun, not a user cancel.
    timed_out: Arc<AtomicBool>,
}

/// A [`JobScheduler::watch_all`] subscription: iterates the catch-up
/// `job-finished` events, then blocks on the live stream until it closes.
pub struct Firehose {
    catch_up: std::vec::IntoIter<JobEvent>,
    live: EventStream,
}

impl Iterator for Firehose {
    type Item = JobEvent;

    fn next(&mut self) -> Option<JobEvent> {
        self.catch_up.next().or_else(|| self.live.recv().ok())
    }
}

/// The persistent job queue + worker scheduler. See the module docs.
pub struct JobScheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shut_down: AtomicBool,
}

impl JobScheduler {
    /// A scheduler with `workers` worker threads, dispatching immediately.
    pub fn new(workers: usize) -> Self {
        Self::build(workers, true, SchedulerLimits::default())
    }

    /// Like [`JobScheduler::new`], but workers stay parked until
    /// [`JobScheduler::start`] — submit a batch first for deterministic
    /// priority ordering (used by tests and by the daemon, which rescans
    /// its state directory before opening the socket).
    pub fn new_paused(workers: usize) -> Self {
        Self::build(workers, false, SchedulerLimits::default())
    }

    /// A scheduler with explicit [`SchedulerLimits`] (the hardened daemon
    /// path). `started` as in [`JobScheduler::new`] vs
    /// [`JobScheduler::new_paused`].
    pub fn with_limits(workers: usize, started: bool, limits: SchedulerLimits) -> Self {
        Self::build(workers, started, limits)
    }

    fn build(workers: usize, started: bool, limits: SchedulerLimits) -> Self {
        let unit_timeout = limits.unit_timeout;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                finished: BTreeMap::new(),
                queue: FairQueue::default(),
                running_units: BTreeMap::new(),
                running_by_client: BTreeMap::new(),
                firehose: Vec::new(),
                next_job: 1,
                accepting: true,
                started,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            shutdown: CancelToken::new(),
            sinks: Mutex::new(Vec::new()),
            limits,
        });
        let mut handles: Vec<JoinHandle<()>> = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sa-job-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn job worker")
            })
            .collect();
        if let Some(timeout) = unit_timeout {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name("sa-job-watchdog".to_string())
                    .spawn(move || watchdog_loop(&inner, timeout))
                    .expect("spawn job watchdog"),
            );
        }
        JobScheduler {
            inner,
            workers: Mutex::new(handles),
            shut_down: AtomicBool::new(false),
        }
    }

    /// Releases workers parked by [`JobScheduler::new_paused`].
    pub fn start(&self) {
        self.inner.state.lock().unwrap().started = true;
        self.inner.work.notify_all();
    }

    /// Registers a global event sink (attach before submitting for a
    /// complete stream).
    pub fn add_sink(&self, sink: Arc<dyn ResultSink>) {
        self.inner.sinks.lock().unwrap().push(sink);
    }

    /// Submits a job: expands the spec into units, performs the resume scan
    /// if requested, queues everything and emits `job-accepted`.
    ///
    /// Fails with a structured [`SchedError`] if the scheduler is draining
    /// or shut down, the pinned id is taken or malformed, the state
    /// directory cannot be prepared, or (fresh submissions only) an
    /// admission limit is hit. The resume scan never fails on bad bytes: a
    /// torn or corrupt `.done.json`/checkpoint is quarantined with a logged
    /// reason and its unit recomputed from the previous checkpoint or from
    /// scratch — bit-identically, per the counter-based RNG discipline.
    pub fn submit(&self, config: JobConfig) -> Result<SubmitReceipt, SchedError> {
        if let Some(id) = &config.id {
            let ok = !id.is_empty()
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
            if !ok {
                return Err(SchedError::new(
                    "bad-request",
                    format!("invalid job id \"{id}\" (ASCII alphanumerics, '-', '_' only)"),
                ));
            }
        }

        // Filesystem preparation happens before the job becomes visible.
        let state_dir = config.out_dir.join("state");
        if !config.resume && state_dir.exists() {
            fs::remove_dir_all(&state_dir).map_err(|e| {
                SchedError::new("io", format!("cannot clear {}: {e}", state_dir.display()))
            })?;
        }
        fs::create_dir_all(&state_dir).map_err(|e| {
            SchedError::new("io", format!("cannot create {}: {e}", state_dir.display()))
        })?;

        let units = config.spec.execution_units();
        let mut inputs = Vec::with_capacity(units.len());
        let mut interruptible_left = config.interrupt_units;
        let mut resumed_done = 0usize;
        for unit in &units {
            let mut done = None;
            let mut checkpoint = None;
            if config.resume {
                let done_path = state_dir.join(format!("{}.done.json", unit.id()));
                if let Ok(bytes) = fs::read(&done_path) {
                    done = String::from_utf8(bytes)
                        .ok()
                        .and_then(|text| JsonValue::parse(&text).ok())
                        .as_ref()
                        .and_then(UnitResult::from_json);
                    if done.is_some() {
                        resumed_done += 1;
                    } else {
                        quarantine_file(&done_path, "corrupt unit result");
                    }
                }
                if done.is_none() {
                    // Prefer the spec's format, but accept a leftover
                    // checkpoint in the other encoding (format edited
                    // between kill and resume). A corrupt checkpoint is
                    // quarantined and the next candidate (or a fresh start)
                    // used instead.
                    for format in [
                        config.spec.checkpoint_format,
                        other_format(config.spec.checkpoint_format),
                    ] {
                        let path = ckpt_path_for(&state_dir, &unit.id(), format);
                        match read_checkpoint(&path) {
                            Ok(Some(doc)) => {
                                checkpoint = Some(doc);
                                break;
                            }
                            Ok(None) => {}
                            Err(reason) => quarantine_file(&path, &reason),
                        }
                    }
                }
            }
            let interrupt_after_steps = if done.is_none() && interruptible_left > 0 {
                config.interrupt_after_steps
            } else {
                None
            };
            if done.is_none() && interrupt_after_steps.is_some() {
                interruptible_left -= 1;
            }
            inputs.push(UnitInput {
                done,
                checkpoint,
                interrupt_after_steps,
            });
        }

        let units_total = units.len();
        let id;
        let all_done;
        {
            let mut state = self.inner.state.lock().unwrap();
            if !state.accepting {
                return Err(SchedError::new(
                    "draining",
                    "scheduler is draining; not accepting new jobs",
                ));
            }
            let queued_now = inputs.iter().filter(|i| i.done.is_none()).count();
            let limits = &self.inner.limits;
            // Admission control guards fresh work only: resume submissions
            // are crash recovery of jobs a client already holds an ack for,
            // and an acked job is never shed.
            if !config.resume {
                if limits.max_queued_units > 0
                    && state.queue.len() + queued_now > limits.max_queued_units
                {
                    let mut err = SchedError::new(
                        "overloaded",
                        format!(
                            "queue is full ({} queued + {queued_now} requested > {} cap); \
                             retry later",
                            state.queue.len(),
                            limits.max_queued_units
                        ),
                    );
                    err.retry_after_ms = Some(1000);
                    return Err(err);
                }
                if limits.client_quota > 0 {
                    let outstanding: usize = state
                        .jobs
                        .values()
                        .filter(|j| j.config.client == config.client)
                        .map(|j| j.remaining)
                        .sum();
                    if outstanding + queued_now > limits.client_quota {
                        return Err(SchedError::new(
                            "quota-exceeded",
                            format!(
                                "client \"{}\" has {outstanding} outstanding unit(s); \
                                 +{queued_now} exceeds the per-client quota of {}",
                                config.client, limits.client_quota
                            ),
                        ));
                    }
                }
            }
            let taken = |state: &State, id: &str| {
                state.jobs.contains_key(id) || state.finished.contains_key(id)
            };
            id = match &config.id {
                Some(pinned) => {
                    if taken(&state, pinned) {
                        return Err(SchedError::new(
                            "conflict",
                            format!("job id \"{pinned}\" already exists"),
                        ));
                    }
                    pinned.clone()
                }
                None => loop {
                    let candidate = format!("j{}", state.next_job);
                    state.next_job += 1;
                    if !taken(&state, &candidate) {
                        break candidate;
                    }
                },
            };

            let completed: Vec<Option<UnitResult>> =
                inputs.iter().map(|i| i.done.clone()).collect();
            let remaining = completed.iter().filter(|c| c.is_none()).count();
            all_done = remaining == 0;
            let priority = config.priority;
            let client = config.client.clone();
            let spec_name = config.spec.name.clone();
            let job = Job {
                config,
                units,
                inputs,
                completed,
                remaining,
                running: 0,
                interrupted: 0,
                not_started: 0,
                failing_rows: 0,
                error: None,
                cancel: Arc::new(CancelToken::new()),
                cancel_requested: false,
                state: JobState::Queued,
                subscribers: Vec::new(),
            };
            for (idx, input) in job.inputs.iter().enumerate() {
                if input.done.is_none() {
                    state.queue.push(
                        priority,
                        &client,
                        QueueEntry {
                            unit_idx: idx,
                            job: id.clone(),
                        },
                    );
                }
            }
            state.jobs.insert(id.clone(), job);
            self.inner.fan_out(
                &mut state,
                JobEvent::JobAccepted {
                    job: id.clone(),
                    spec_name,
                    units: units_total,
                    resumed_done,
                },
            );
            self.inner.work.notify_all();
        }
        if all_done {
            // A resume of an already-complete run: nothing to queue, but the
            // reports must (re-)render so the job still finishes cleanly.
            finalize_job(&self.inner, &id);
        }
        Ok(SubmitReceipt {
            id,
            units: units_total,
            resumed_done,
        })
    }

    /// The status of one job (`None`: unknown id).
    pub fn status(&self, job: &str) -> Option<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        match state.jobs.get(job) {
            Some(live) => Some(live.status(job)),
            None => state.finished.get(job).map(|status| (**status).clone()),
        }
    }

    /// The status of every job this scheduler has seen, in id order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        let mut all: Vec<JobStatus> = state.finished.values().map(|s| (**s).clone()).collect();
        all.extend(state.jobs.iter().map(|(id, j)| j.status(id)));
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    /// Subscribes to a job's event stream. Events from subscription time on
    /// are delivered in order, and the channel closes after `job-finished`;
    /// if the job is already terminal, the channel carries just a synthetic
    /// `job-finished` so a late watcher never hangs. The channel buffers a
    /// bounded number of events; a consumer that falls further behind is
    /// dropped (slow-watcher shedding). `None`: unknown id.
    pub fn watch(&self, job: &str) -> Option<EventStream> {
        let mut state = self.inner.state.lock().unwrap();
        let (sub, stream) = Subscriber::new();
        if let Some(entry) = state.jobs.get_mut(job) {
            entry.subscribers.push(sub);
            return Some(stream);
        }
        let status = (**state.finished.get(job)?).clone();
        sub.offer(&JobEvent::JobFinished {
            job: job.to_string(),
            status,
        });
        Some(stream)
    }

    /// Subscribes to the firehose: every event of every job, in the one
    /// total order the sinks see. Jobs already terminal at subscription
    /// time are represented by a synthetic `job-finished` each (id order),
    /// so a late subscriber still learns every outcome. That catch-up is a
    /// snapshot taken under the lock that installs the subscriber, so it is
    /// complete however many jobs have finished, and no live event falls
    /// between it and the stream. Live events use the same bounded-channel
    /// shedding as [`JobScheduler::watch`]. The stream ends when the
    /// scheduler shuts down, right after the final `job-finished` events
    /// (after the catch-up for a subscription made after that).
    pub fn watch_all(&self) -> Firehose {
        let mut state = self.inner.state.lock().unwrap();
        let catch_up: Vec<JobEvent> = state
            .finished
            .iter()
            .map(|(id, status)| JobEvent::JobFinished {
                job: id.clone(),
                status: (**status).clone(),
            })
            .collect();
        let (sub, live) = Subscriber::new();
        if !self.inner.shutdown.is_cancelled() {
            state.firehose.push(sub);
        }
        Firehose {
            catch_up: catch_up.into_iter(),
            live,
        }
    }

    /// Cancels a job: queued units are dropped, in-flight units stop at
    /// their next step boundary with a persisted checkpoint. Returns `false`
    /// for unknown ids; cancelling a terminal job is a no-op returning
    /// `true`.
    pub fn cancel(&self, job: &str) -> bool {
        let mut state = self.inner.state.lock().unwrap();
        let Some(entry) = state.jobs.get_mut(job) else {
            return state.finished.contains_key(job);
        };
        entry.cancel_requested = true;
        entry.cancel.cancel();
        cancel_running_units(&state, job);
        self.inner.work.notify_all();
        true
    }

    /// Blocks until the job reaches a terminal state and returns its final
    /// status (`None`: unknown id).
    pub fn wait(&self, job: &str) -> Option<JobStatus> {
        let mut state = self.inner.state.lock().unwrap();
        while state.jobs.contains_key(job) {
            state = self.inner.done.wait(state).unwrap();
        }
        state.finished.get(job).map(|status| (**status).clone())
    }

    /// Stops accepting new jobs and blocks until every accepted job is
    /// terminal. The scheduler keeps serving status queries afterwards.
    pub fn drain(&self) {
        let mut state = self.inner.state.lock().unwrap();
        state.accepting = false;
        while !state.jobs.is_empty() {
            state = self.inner.done.wait(state).unwrap();
        }
    }

    /// Stops the scheduler: no new units start, every in-flight unit is
    /// interrupted at its next step boundary (checkpoint persisted), worker
    /// threads are joined, every non-terminal job is marked
    /// [`JobState::Interrupted`] (or `Cancelled`/`Failed` as appropriate),
    /// and every watch and firehose channel closes after its final event.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shut_down.swap(true, AtomicOrdering::SeqCst) {
            return;
        }
        {
            let mut state = self.inner.state.lock().unwrap();
            state.accepting = false;
            for job in state.jobs.values() {
                job.cancel.cancel();
            }
            for unit in state.running_units.values() {
                unit.cancel.cancel();
            }
            self.inner.shutdown.cancel();
            self.inner.work.notify_all();
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Workers are gone; anything still queued never starts. Settle the
        // books so waiters see a terminal state.
        let mut state = self.inner.state.lock().unwrap();
        let ids: Vec<JobId> = state.jobs.keys().cloned().collect();
        for id in ids {
            let job = state.jobs.get_mut(&id).unwrap();
            job.not_started += job.remaining - job.running;
            job.remaining = job.running;
            let terminal = terminal_state(job);
            self.inner.settle(&mut state, &id, terminal);
        }
        // No event follows: end every firehose stream.
        state.firehose.clear();
        self.inner.done.notify_all();
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The terminal state a job settles into once no unit is queued or running.
fn terminal_state(job: &Job) -> JobState {
    if job.error.is_some() {
        JobState::Failed
    } else if job.cancel_requested {
        JobState::Cancelled
    } else if job.interrupted > 0 || job.not_started > 0 {
        JobState::Interrupted
    } else {
        JobState::Finished
    }
}

/// Settles a job whose last unit just finished (or that resumed with every
/// unit already done): renders and persists the reports for finished jobs,
/// then emits `job-finished`.
fn finalize_job(inner: &Arc<Inner>, id: &str) {
    // Decide the terminal state and snapshot what report rendering needs.
    let report_inputs = {
        let mut state = inner.state.lock().unwrap();
        let Some(job) = state.jobs.get_mut(id) else {
            return;
        };
        if job.remaining > 0 || job.running > 0 {
            return;
        }
        let terminal = terminal_state(job);
        if terminal != JobState::Finished {
            inner.settle(&mut state, id, terminal);
            return;
        }
        // Keep the job non-terminal while the reports render so concurrent
        // watchers cannot observe `finished` before the files exist.
        let spec = job.config.spec.clone();
        let out_dir = job.config.out_dir.clone();
        let completed: Vec<(SweepUnit, UnitResult)> = job
            .units
            .iter()
            .cloned()
            .zip(job.completed.iter().cloned())
            .filter_map(|(u, r)| r.map(|r| (u, r)))
            .collect();
        (spec, out_dir, completed)
    };
    let (spec, out_dir, completed) = report_inputs;
    let written = write_reports(&spec, &out_dir, &completed);

    let mut state = inner.state.lock().unwrap();
    let Some(job) = state.jobs.get_mut(id) else {
        return;
    };
    let terminal = match written {
        Ok(failing_rows) => {
            job.failing_rows = failing_rows;
            JobState::Finished
        }
        Err(e) => {
            job.error = Some(e);
            JobState::Failed
        }
    };
    inner.settle(&mut state, id, terminal);
}

/// Renders and atomically persists `EXPERIMENTS.json` + `EXPERIMENTS.md` —
/// the same bytes for the same spec and results no matter which scheduler
/// (or how many interruptions) produced them. Returns the number of rows
/// whose `failures` count is positive.
fn write_reports(
    spec: &SweepSpec,
    out_dir: &Path,
    completed: &[(SweepUnit, UnitResult)],
) -> Result<usize, String> {
    let (mut rows, artifacts) = run_instant_tasks(spec);
    rows.extend(aggregate_rows(completed));
    let json = render_json(spec, &rows, completed).render_pretty();
    let markdown = render_markdown(spec, &rows, &artifacts, completed);
    write_atomic(&out_dir.join("EXPERIMENTS.json"), &json)?;
    write_atomic(&out_dir.join("EXPERIMENTS.md"), &markdown)?;
    Ok(rows.iter().filter(|row| row.failures > 0).count())
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let dispatch = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.is_cancelled() {
                    return;
                }
                if state.started {
                    let cap = inner.limits.client_workers;
                    let entry = {
                        let State {
                            queue,
                            running_by_client,
                            ..
                        } = &mut *state;
                        queue.pop(|client| {
                            cap == 0 || running_by_client.get(client).copied().unwrap_or(0) < cap
                        })
                    };
                    if let Some(entry) = entry {
                        match prepare_dispatch(inner, &mut state, entry) {
                            Some(dispatch) => break dispatch,
                            None => continue, // unit skipped (job cancelled)
                        }
                    }
                }
                state = inner.work.wait(state).unwrap();
            }
        };
        run_dispatch(inner, dispatch);
    }
}

/// The wall-clock watchdog ([`SchedulerLimits::unit_timeout`]): polls the
/// running-unit table and cancels any unit past its budget, flagging it
/// `timed_out` so settlement turns the interruption into a job failure.
fn watchdog_loop(inner: &Arc<Inner>, timeout: Duration) {
    let poll = (timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
    loop {
        if inner.shutdown.is_cancelled() {
            return;
        }
        {
            let state = inner.state.lock().unwrap();
            for unit in state.running_units.values() {
                if !unit.timed_out.load(AtomicOrdering::Acquire) && unit.started.elapsed() > timeout
                {
                    unit.timed_out.store(true, AtomicOrdering::Release);
                    unit.cancel.cancel();
                }
            }
        }
        std::thread::sleep(poll);
    }
}

/// Turns a popped queue entry into a runnable dispatch, or drops it (and
/// settles the job if that was its last unit) when the job is cancelled.
fn prepare_dispatch(inner: &Arc<Inner>, state: &mut State, entry: QueueEntry) -> Option<Dispatch> {
    let job = state.jobs.get_mut(&entry.job)?;
    if job.cancel.is_cancelled() {
        job.remaining -= 1;
        job.not_started += 1;
        if job.remaining == 0 && job.running == 0 {
            let terminal = terminal_state(job);
            inner.settle(state, &entry.job, terminal);
        }
        return None;
    }
    job.running += 1;
    if job.state == JobState::Queued {
        job.state = JobState::Running;
    }
    let cancel = Arc::new(CancelToken::new());
    let timed_out = Arc::new(AtomicBool::new(false));
    let dispatch = Dispatch {
        job: entry.job.clone(),
        client: job.config.client.clone(),
        unit: job.units[entry.unit_idx].clone(),
        unit_idx: entry.unit_idx,
        checkpoint: job.inputs[entry.unit_idx].checkpoint.take(),
        interrupt_after_steps: job.inputs[entry.unit_idx].interrupt_after_steps,
        every_steps: job.config.checkpoint_every,
        format: job.config.spec.checkpoint_format,
        state_dir: job.config.out_dir.join("state"),
        cancel: Arc::clone(&cancel),
        timed_out: Arc::clone(&timed_out),
    };
    state.running_units.insert(
        (entry.job.clone(), entry.unit_idx),
        RunningUnit {
            started: Instant::now(),
            cancel,
            timed_out,
        },
    );
    *state
        .running_by_client
        .entry(dispatch.client.clone())
        .or_insert(0) += 1;
    let event = JobEvent::UnitStarted {
        job: entry.job.clone(),
        unit: dispatch.unit.id(),
    };
    inner.fan_out(state, event);
    Some(dispatch)
}

/// Runs one unit end to end (checkpointing included) and settles its
/// outcome into the job.
fn run_dispatch(inner: &Arc<Inner>, dispatch: Dispatch) {
    let unit_id = dispatch.unit.id();
    let ckpt_path = ckpt_path_for(&dispatch.state_dir, &unit_id, dispatch.format);
    let sink_inner = Arc::clone(inner);
    let sink_job = dispatch.job.clone();
    let sink_unit = unit_id.clone();
    let format = dispatch.format;
    let sink = move |doc: &JsonValue| {
        let written = match format {
            CheckpointFormat::Json => write_atomic(&ckpt_path, &doc.render_pretty()),
            CheckpointFormat::Binary => {
                write_atomic_bytes(&ckpt_path, &sa_model::binary::encode(doc))
            }
        };
        if let Err(e) = written {
            eprintln!("warning: {e}");
        }
        let steps = doc
            .get("execution")
            .and_then(|e| e.get("time"))
            .and_then(u64_from_json)
            .unwrap_or(0);
        sink_inner.emit(JobEvent::UnitCheckpointed {
            job: sink_job.clone(),
            unit: sink_unit.clone(),
            steps,
        });
    };
    let policy = CheckpointPolicy {
        every_steps: dispatch.every_steps,
        sink: Some(&sink),
        resume_from: dispatch.checkpoint.as_ref(),
        interrupt_after_steps: dispatch.interrupt_after_steps,
        cancel: Some(&dispatch.cancel),
    };
    let outcome = run_unit(&dispatch.unit, &policy);

    // Persist a completed result before the job sees it, so a kill after
    // this point resumes past the unit.
    let mut persisted_error = None;
    if let Ok(UnitOutcome::Complete(result)) = &outcome {
        let done_path = dispatch.state_dir.join(format!("{unit_id}.done.json"));
        if let Err(e) = write_atomic(&done_path, &result.to_json().render_pretty()) {
            persisted_error = Some(e);
        } else {
            for format in [CheckpointFormat::Json, CheckpointFormat::Binary] {
                let _ = fs::remove_file(ckpt_path_for(&dispatch.state_dir, &unit_id, format));
            }
        }
    }

    let finalize = {
        let mut state = inner.state.lock().unwrap();
        state
            .running_units
            .remove(&(dispatch.job.clone(), dispatch.unit_idx));
        if let Some(count) = state.running_by_client.get_mut(&dispatch.client) {
            *count -= 1;
            if *count == 0 {
                state.running_by_client.remove(&dispatch.client);
            }
        }
        // A freed worker slot or per-client cap slot may unblock a pop.
        inner.work.notify_all();
        let Some(job) = state.jobs.get_mut(&dispatch.job) else {
            return;
        };
        job.running -= 1;
        job.remaining -= 1;
        let timed_out = dispatch.timed_out.load(AtomicOrdering::Acquire);
        let mut finished_event = None;
        let mut abandon = false;
        match (outcome, persisted_error) {
            (Ok(UnitOutcome::Complete(result)), None) => {
                let clean = result.is_clean();
                job.completed[dispatch.unit_idx] = Some(result);
                finished_event = Some(JobEvent::UnitFinished {
                    job: dispatch.job.clone(),
                    unit: unit_id.clone(),
                    clean,
                });
            }
            (Ok(UnitOutcome::Complete(_)), Some(e)) | (Err(e), _) => {
                if job.error.is_none() {
                    job.error = Some(format!("unit {unit_id}: {e}"));
                }
                abandon = true;
            }
            (Ok(UnitOutcome::Interrupted(_)), _) if timed_out => {
                // The watchdog stopped the unit: the checkpoint is on disk
                // (resumable), but the job reports Failed, not hung.
                if job.error.is_none() {
                    let budget = inner
                        .limits
                        .unit_timeout
                        .map(|t| format!("{:.1}s", t.as_secs_f64()))
                        .unwrap_or_else(|| "?".to_string());
                    job.error = Some(format!(
                        "unit {unit_id}: exceeded the {budget} wall-clock budget and was \
                         cancelled by the watchdog (checkpoint persisted)"
                    ));
                }
                job.interrupted += 1;
                abandon = true;
            }
            (Ok(UnitOutcome::Interrupted(_)), _) => {
                // The checkpoint already went through the sink.
                job.interrupted += 1;
            }
        }
        if abandon {
            // Abandon the rest of the job at checkpoint boundaries.
            job.cancel.cancel();
        }
        let finalize = job.remaining == 0 && job.running == 0;
        if abandon {
            cancel_running_units(&state, &dispatch.job);
            inner.work.notify_all();
        }
        if let Some(event) = finished_event {
            inner.fan_out(&mut state, event);
        }
        finalize
    };
    if finalize {
        finalize_job(inner, &dispatch.job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn spec(name: &str, seeds: u64) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{
                "name": "{name}",
                "graph_seed": 5,
                "tasks": [{{
                    "id": "T", "kind": "stabilization",
                    "topologies": [{{"kind": "cycle", "n": 5}}],
                    "schedulers": ["synchronous"],
                    "seeds": {seeds}, "max_rounds": 2000
                }}]
            }}"#
        ))
        .expect("test spec parses")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sa-jobs-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Records every event in arrival order.
    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<JobEvent>>,
    }

    impl ResultSink for Recorder {
        fn event(&self, event: &JobEvent) {
            self.events.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn single_job_runs_to_finished_and_writes_reports() {
        let out = temp_dir("single");
        let scheduler = JobScheduler::new(2);
        let receipt = scheduler
            .submit(JobConfig::new(spec("single", 3), out.clone()))
            .unwrap();
        assert_eq!(receipt.units, 3);
        assert_eq!(receipt.resumed_done, 0);
        let status = scheduler.wait(&receipt.id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert_eq!(status.units_done, 3);
        assert!(status.clean(), "AlgAU on a 5-cycle stabilizes: {status:?}");
        assert!(out.join("EXPERIMENTS.json").exists());
        assert!(out.join("EXPERIMENTS.md").exists());
        fs::remove_dir_all(&out).ok();
    }

    /// A job whose only task is instant has report rows but no units, so
    /// its failures live in the rows: one round is too short for AlgMIS to
    /// stabilize on `grid-4x4`, and the job must not read clean.
    #[test]
    fn failing_report_rows_make_a_finished_job_unclean() {
        let out = temp_dir("failing-rows");
        let recorder = Arc::new(Recorder::default());
        let scheduler = JobScheduler::new(1);
        scheduler.add_sink(recorder.clone() as Arc<dyn ResultSink>);
        let spec = SweepSpec::parse(
            r#"{"name": "failing-rows", "tasks": [{"id": "S", "kind": "static",
                "algorithms": ["algmis"], "topologies": [{"kind": "grid", "rows": 4, "cols": 4}],
                "seeds": 2, "max_rounds": 1}]}"#,
        )
        .expect("test spec parses");
        let id = scheduler
            .submit(JobConfig::new(spec, out.clone()))
            .unwrap()
            .id;
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert_eq!((status.units_total, status.units_clean), (0, 0));
        assert!(status.failing_rows > 0, "{status:?}");
        assert!(!status.clean(), "{status:?}");
        let events = recorder.events.lock().unwrap();
        let finished: Vec<&JobStatus> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::JobFinished { status, .. } => Some(status),
                _ => None,
            })
            .collect();
        assert_eq!(finished, [&status]);
        let wire = status.to_json();
        assert_eq!(wire.get("clean"), Some(&JsonValue::Bool(false)));
        assert_eq!(JobStatus::from_json(&wire).as_ref(), Some(&status));
        // A `result.json` archived before the field existed reads 0.
        let archived = JsonValue::parse(
            r#"{"job": "j1", "spec_name": "s", "client": "c", "priority": 0,
                "state": "finished", "units_total": 1, "units_done": 1,
                "units_clean": 1, "units_interrupted": 0, "units_not_started": 0,
                "clean": true, "error": null}"#,
        )
        .unwrap();
        let archived = JobStatus::from_json(&archived).expect("old status parses");
        assert_eq!(archived.failing_rows, 0);
        assert!(archived.clean());
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn higher_priority_client_preempts_queued_units() {
        let out_a = temp_dir("prio-a");
        let out_b = temp_dir("prio-b");
        let recorder = Arc::new(Recorder::default());
        let scheduler = JobScheduler::new_paused(1);
        scheduler.add_sink(recorder.clone() as Arc<dyn ResultSink>);
        let mut low = JobConfig::new(spec("low", 3), out_a.clone());
        low.client = "background".to_string();
        low.priority = 0;
        let mut high = JobConfig::new(spec("high", 2), out_b.clone());
        high.client = "interactive".to_string();
        high.priority = 10;
        let low_id = scheduler.submit(low).unwrap().id;
        let high_id = scheduler.submit(high).unwrap().id;
        scheduler.start();
        scheduler.wait(&low_id).unwrap();
        scheduler.wait(&high_id).unwrap();

        let events = recorder.events.lock().unwrap();
        let started: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::UnitStarted { job, .. } => Some(job.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 5);
        assert_eq!(
            started[..2],
            [high_id.as_str(), high_id.as_str()],
            "every high-priority unit dispatches before any low-priority one: {started:?}"
        );
        fs::remove_dir_all(&out_a).ok();
        fs::remove_dir_all(&out_b).ok();
    }

    #[test]
    fn worker_budget_bounds_concurrent_units() {
        /// Tracks the concurrent-unit gauge through the (totally ordered)
        /// event stream.
        #[derive(Default)]
        struct Gauge {
            current: AtomicUsize,
            max: AtomicUsize,
        }
        impl ResultSink for Gauge {
            fn event(&self, event: &JobEvent) {
                match event {
                    JobEvent::UnitStarted { .. } => {
                        let now = self.current.fetch_add(1, AtomicOrdering::SeqCst) + 1;
                        self.max.fetch_max(now, AtomicOrdering::SeqCst);
                    }
                    JobEvent::UnitFinished { .. } => {
                        self.current.fetch_sub(1, AtomicOrdering::SeqCst);
                    }
                    _ => {}
                }
            }
        }
        let out = temp_dir("budget");
        let gauge = Arc::new(Gauge::default());
        let scheduler = JobScheduler::new(2);
        scheduler.add_sink(gauge.clone() as Arc<dyn ResultSink>);
        let id = scheduler
            .submit(JobConfig::new(spec("budget", 6), out.clone()))
            .unwrap()
            .id;
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert!(
            gauge.max.load(AtomicOrdering::SeqCst) <= 2,
            "worker budget of 2 exceeded: {}",
            gauge.max.load(AtomicOrdering::SeqCst)
        );
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn cancel_leaves_a_resumable_job() {
        let out = temp_dir("cancel");
        let scheduler = JobScheduler::new_paused(1);
        let id = scheduler
            .submit(JobConfig::new(spec("cancel", 4), out.clone()))
            .unwrap()
            .id;
        assert!(scheduler.cancel(&id));
        scheduler.start();
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.units_done, 0);
        assert_eq!(status.units_not_started, 4);

        // A resume-submit of the same output directory finishes the job.
        drop(scheduler);
        let scheduler = JobScheduler::new(1);
        let mut config = JobConfig::new(spec("cancel", 4), out.clone());
        config.resume = true;
        let id = scheduler.submit(config).unwrap().id;
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert_eq!(status.units_done, 4);
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn watch_on_a_terminal_job_yields_job_finished_immediately() {
        let out = temp_dir("watch");
        let scheduler = JobScheduler::new(1);
        let id = scheduler
            .submit(JobConfig::new(spec("watch", 1), out.clone()))
            .unwrap()
            .id;
        scheduler.wait(&id).unwrap();
        let rx = scheduler.watch(&id).unwrap();
        match rx.recv().expect("synthetic event") {
            JobEvent::JobFinished { status, .. } => {
                assert_eq!(status.state, JobState::Finished)
            }
            other => panic!("expected job-finished, got {other:?}"),
        }
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn a_finished_job_keeps_only_its_status() {
        let out = temp_dir("retire");
        let scheduler = JobScheduler::new_paused(1);
        let id = scheduler
            .submit(JobConfig::new(spec("retire", 2), out.clone()))
            .unwrap()
            .id;
        let rx = scheduler.watch(&id).unwrap();
        scheduler.start();
        let carried = loop {
            if let JobEvent::JobFinished { status, .. } = rx.recv().expect("stream open") {
                break status;
            }
        };
        // The subscriber's sender went with the job: the stream is closed.
        assert!(rx.recv().is_err(), "watch channel open after job-finished");
        {
            let state = scheduler.inner.state.lock().unwrap();
            assert!(!state.jobs.contains_key(&id), "finished job still live");
            assert_eq!(state.finished.get(&id).map(|s| &**s), Some(&carried));
        }
        assert_eq!(scheduler.status(&id), Some(carried.clone()));
        assert_eq!(scheduler.wait(&id), Some(carried));
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn shutdown_closes_the_firehose() {
        let out = temp_dir("firehose-close");
        let scheduler = JobScheduler::new(1);
        let id = scheduler
            .submit(JobConfig::new(spec("firehose-close", 1), out.clone()))
            .unwrap()
            .id;
        scheduler.wait(&id).unwrap();
        let early = scheduler.watch_all();
        scheduler.shutdown();
        let catch_up = |rx: Firehose| {
            let events: Vec<JobEvent> = rx.collect();
            assert_eq!(events.len(), 1, "{events:?}");
            assert_eq!(events[0].job(), id);
        };
        // Each stream ends after its catch-up: one open before shutdown,
        // and one opened after it.
        catch_up(early);
        catch_up(scheduler.watch_all());
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn drain_rejects_new_submissions() {
        let out = temp_dir("drain");
        let scheduler = JobScheduler::new(1);
        let id = scheduler
            .submit(JobConfig::new(spec("drain", 1), out.clone()))
            .unwrap()
            .id;
        scheduler.drain();
        assert!(scheduler.status(&id).unwrap().state.is_terminal());
        let err = scheduler
            .submit(JobConfig::new(spec("drain2", 1), out.clone()))
            .unwrap_err();
        assert_eq!(err.code, "draining");
        assert!(err.message.contains("draining"), "{err}");
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn shutdown_interrupts_in_flight_units_with_checkpoints() {
        let out = temp_dir("shutdown");
        // A workload big enough to still be mid-flight when shutdown hits:
        // adversarial min-plus-one on a larger torus.
        let spec = SweepSpec::parse(
            r#"{
                "name": "shutdown",
                "graph_seed": 5,
                "tasks": [{
                    "id": "T", "kind": "stabilization",
                    "algorithms": ["min-plus-one"],
                    "topologies": [{"kind": "torus", "rows": 24, "cols": 24}],
                    "schedulers": ["synchronous"],
                    "seeds": 2, "max_rounds": 20000
                }]
            }"#,
        )
        .unwrap();
        let scheduler = JobScheduler::new(1);
        let mut config = JobConfig::new(spec.clone(), out.clone());
        config.checkpoint_every = 3;
        let id = scheduler.submit(config).unwrap().id;
        // Wait until the first checkpoint proves a unit is mid-flight.
        let state_dir = out.join("state");
        for _ in 0..4000 {
            let has_ckpt = fs::read_dir(&state_dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .any(|e| e.file_name().to_string_lossy().contains(".ckpt."))
                })
                .unwrap_or(false);
            if has_ckpt {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        scheduler.shutdown();
        let status = scheduler.status(&id).unwrap();
        assert!(
            matches!(status.state, JobState::Interrupted | JobState::Finished),
            "{status:?}"
        );
        if status.state == JobState::Interrupted {
            // Resume completes bit-identically (the checkpoint machinery is
            // pinned in depth by tests/checkpoint_roundtrip.rs; here we only
            // assert the scheduler glues it together).
            let scheduler = JobScheduler::new(1);
            let mut config = JobConfig::new(spec, out.clone());
            config.resume = true;
            let id = scheduler.submit(config).unwrap().id;
            let status = scheduler.wait(&id).unwrap();
            assert_eq!(status.state, JobState::Finished, "{status:?}");
        }
        fs::remove_dir_all(&out).ok();
    }

    /// A unit that runs for a long time: round-robin activation on a big
    /// torus means ~n steps per round, so the unit cannot finish before a
    /// sub-second watchdog or cancel fires.
    fn slow_spec(name: &str) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{
                "name": "{name}",
                "graph_seed": 5,
                "tasks": [{{
                    "id": "T", "kind": "stabilization",
                    "algorithms": ["min-plus-one"],
                    "topologies": [{{"kind": "torus", "rows": 32, "cols": 32}}],
                    "schedulers": ["round-robin"],
                    "seeds": 1, "max_rounds": 20000
                }}]
            }}"#
        ))
        .expect("slow spec parses")
    }

    /// The two-client starvation regression: with one worker and equal
    /// priority, a client that floods six units cannot delay the other
    /// client's units beyond the fair-share bound — clients alternate, one
    /// unit per turn, in first-submission order.
    #[test]
    fn fair_share_prevents_single_client_starvation() {
        let out_a = temp_dir("fair-a");
        let out_b = temp_dir("fair-b");
        let recorder = Arc::new(Recorder::default());
        let scheduler = JobScheduler::new_paused(1);
        scheduler.add_sink(recorder.clone() as Arc<dyn ResultSink>);
        let mut flood = JobConfig::new(spec("flood", 6), out_a.clone());
        flood.client = "flooder".to_string();
        let mut modest = JobConfig::new(spec("modest", 2), out_b.clone());
        modest.client = "modest".to_string();
        let flood_id = scheduler.submit(flood).unwrap().id;
        let modest_id = scheduler.submit(modest).unwrap().id;
        scheduler.start();
        scheduler.wait(&flood_id).unwrap();
        scheduler.wait(&modest_id).unwrap();

        let events = recorder.events.lock().unwrap();
        let started: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::UnitStarted { job, .. } => Some(job.as_str()),
                _ => None,
            })
            .collect();
        // Turn order: flooder, modest, flooder, modest, then the flooder's
        // backlog. Despite submitting first and 3× as much, the flooder
        // cannot push the modest client's second unit past dispatch slot 4.
        let expected = vec![
            flood_id.as_str(),
            modest_id.as_str(),
            flood_id.as_str(),
            modest_id.as_str(),
            flood_id.as_str(),
            flood_id.as_str(),
            flood_id.as_str(),
            flood_id.as_str(),
        ];
        assert_eq!(started, expected, "fair-share round-robin order");
        fs::remove_dir_all(&out_a).ok();
        fs::remove_dir_all(&out_b).ok();
    }

    #[test]
    fn client_running_cap_bounds_one_clients_workers() {
        /// Gauge of concurrently running units (total order via the sink).
        #[derive(Default)]
        struct Gauge {
            current: AtomicUsize,
            max: AtomicUsize,
        }
        impl ResultSink for Gauge {
            fn event(&self, event: &JobEvent) {
                match event {
                    JobEvent::UnitStarted { .. } => {
                        let now = self.current.fetch_add(1, AtomicOrdering::SeqCst) + 1;
                        self.max.fetch_max(now, AtomicOrdering::SeqCst);
                    }
                    JobEvent::UnitFinished { .. } => {
                        self.current.fetch_sub(1, AtomicOrdering::SeqCst);
                    }
                    _ => {}
                }
            }
        }
        let out = temp_dir("client-cap");
        let gauge = Arc::new(Gauge::default());
        let limits = SchedulerLimits {
            client_workers: 1,
            ..SchedulerLimits::default()
        };
        // Two workers available, but one client may only occupy one.
        let scheduler = JobScheduler::with_limits(2, true, limits);
        scheduler.add_sink(gauge.clone() as Arc<dyn ResultSink>);
        let id = scheduler
            .submit(JobConfig::new(spec("client-cap", 4), out.clone()))
            .unwrap()
            .id;
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        assert!(
            gauge.max.load(AtomicOrdering::SeqCst) <= 1,
            "per-client cap of 1 exceeded: {}",
            gauge.max.load(AtomicOrdering::SeqCst)
        );
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn queue_bound_sheds_load_with_structured_overloaded() {
        let out = temp_dir("overload");
        let limits = SchedulerLimits {
            max_queued_units: 2,
            ..SchedulerLimits::default()
        };
        let scheduler = JobScheduler::with_limits(1, false, limits);
        let first = scheduler
            .submit(JobConfig::new(spec("fits", 2), out.join("a")))
            .unwrap();
        let err = scheduler
            .submit(JobConfig::new(spec("shed", 1), out.join("b")))
            .unwrap_err();
        assert_eq!(err.code, "overloaded");
        assert!(err.retry_after_ms.is_some(), "{err:?}");
        scheduler.start();
        scheduler.wait(&first.id).unwrap();
        // The queue drained; the same submission is admitted now.
        scheduler
            .submit(JobConfig::new(spec("shed", 1), out.join("b")))
            .expect("admitted after drain");
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn client_quota_rejects_only_the_noisy_client() {
        let out = temp_dir("quota");
        let limits = SchedulerLimits {
            client_quota: 3,
            ..SchedulerLimits::default()
        };
        let scheduler = JobScheduler::with_limits(1, false, limits);
        let mut first = JobConfig::new(spec("quota-a", 2), out.join("a"));
        first.client = "tenant".to_string();
        scheduler.submit(first).unwrap();
        let mut second = JobConfig::new(spec("quota-b", 2), out.join("b"));
        second.client = "tenant".to_string();
        let err = scheduler.submit(second).unwrap_err();
        assert_eq!(err.code, "quota-exceeded");
        let mut other = JobConfig::new(spec("quota-c", 2), out.join("c"));
        other.client = "other".to_string();
        scheduler
            .submit(other)
            .expect("an unrelated client is not throttled");
        scheduler.start();
        scheduler.drain();
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn watchdog_fails_stuck_units_with_a_checkpoint() {
        let out = temp_dir("watchdog");
        let limits = SchedulerLimits {
            unit_timeout: Some(Duration::from_millis(250)),
            ..SchedulerLimits::default()
        };
        let scheduler = JobScheduler::with_limits(1, true, limits);
        let mut config = JobConfig::new(slow_spec("stuck"), out.clone());
        config.checkpoint_every = 500;
        let id = scheduler.submit(config).unwrap().id;
        let status = scheduler.wait(&id).unwrap();
        assert_eq!(status.state, JobState::Failed, "{status:?}");
        let error = status.error.expect("watchdog error recorded");
        assert!(error.contains("wall-clock"), "{error}");
        // The unit stopped at a checkpoint boundary: resumable, not lost.
        let has_ckpt = fs::read_dir(out.join("state"))
            .map(|entries| {
                entries
                    .flatten()
                    .any(|e| e.file_name().to_string_lossy().contains(".ckpt."))
            })
            .unwrap_or(false);
        assert!(has_ckpt, "timed-out unit left a checkpoint");
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn corrupt_done_file_is_quarantined_and_recomputed_identically() {
        let out = temp_dir("quarantine");
        let scheduler = JobScheduler::new(1);
        let id = scheduler
            .submit(JobConfig::new(spec("quarantine", 2), out.clone()))
            .unwrap()
            .id;
        scheduler.wait(&id).unwrap();
        drop(scheduler);
        let baseline = fs::read(out.join("EXPERIMENTS.json")).unwrap();

        // Corrupt one completed-unit result (torn write) and resume.
        let done_path = fs::read_dir(out.join("state"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().ends_with(".done.json"))
            .expect("a done file exists");
        fs::write(&done_path, &b"{\"truncated\": tr"[..]).unwrap();

        let scheduler = JobScheduler::new(1);
        let mut config = JobConfig::new(spec("quarantine", 2), out.clone());
        config.resume = true;
        let receipt = scheduler.submit(config).unwrap();
        assert_eq!(receipt.resumed_done, 1, "only the intact result restores");
        let status = scheduler.wait(&receipt.id).unwrap();
        assert_eq!(status.state, JobState::Finished);
        drop(scheduler);

        let mut quarantined = done_path.as_os_str().to_owned();
        quarantined.push(".quarantined");
        assert!(
            PathBuf::from(quarantined).exists(),
            "corrupt file kept for post-mortem"
        );
        assert_eq!(
            fs::read(out.join("EXPERIMENTS.json")).unwrap(),
            baseline,
            "recomputed report is byte-identical"
        );
        fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn watch_all_streams_the_firehose_with_terminal_catch_up() {
        let out = temp_dir("firehose");
        let scheduler = JobScheduler::new(1);
        let first = scheduler
            .submit(JobConfig::new(spec("fh-one", 1), out.join("one")))
            .unwrap()
            .id;
        scheduler.wait(&first).unwrap();
        // Subscribe after the first job finished, before the second starts:
        // the stream opens with a synthetic catch-up for the archived job.
        let rx = scheduler.watch_all();
        let second = scheduler
            .submit(JobConfig::new(spec("fh-two", 1), out.join("two")))
            .unwrap()
            .id;
        scheduler.wait(&second).unwrap();
        // Shutdown ends the stream after the final events.
        scheduler.shutdown();

        let mut finished = Vec::new();
        let mut saw_unit_started = false;
        for event in rx {
            match event {
                JobEvent::JobFinished { job, .. } => finished.push(job.clone()),
                JobEvent::UnitStarted { .. } => saw_unit_started = true,
                _ => {}
            }
        }
        assert_eq!(finished, vec![first, second]);
        assert!(saw_unit_started, "live events stream after catch-up");
        fs::remove_dir_all(&out).ok();
    }

    /// The catch-up is not cut at the live channel's buffer size, and the
    /// first live event after a long catch-up does not shed the subscriber.
    /// Jobs with no execution unit finish inside `submit`, so a thousand of
    /// them take moments.
    #[test]
    fn watch_all_catch_up_is_complete_beyond_the_event_buffer() {
        let out = temp_dir("firehose-catch-up");
        let instant = SweepSpec::parse(
            r#"{"name": "instant", "tasks": [
                {"id": "S", "kind": "state-space", "diameter_bounds": [1]}
            ]}"#,
        )
        .unwrap();
        let scheduler = JobScheduler::new(1);
        let archived = EVENT_BUFFER + 10;
        for _ in 0..archived {
            scheduler
                .submit(JobConfig::new(instant.clone(), out.clone()))
                .unwrap();
        }
        let rx = scheduler.watch_all();
        let live = scheduler
            .submit(JobConfig::new(instant, out.clone()))
            .unwrap()
            .id;
        scheduler.shutdown();

        let mut finished = Vec::new();
        let mut saw_live_accepted = false;
        for event in rx {
            match event {
                JobEvent::JobFinished { job, .. } => finished.push(job),
                JobEvent::JobAccepted { job, .. } => saw_live_accepted |= job == live,
                _ => {}
            }
        }
        assert_eq!(finished.len(), archived + 1, "one job-finished per job");
        assert_eq!(finished.last(), Some(&live), "the live job finishes last");
        let unique: std::collections::BTreeSet<_> = finished.iter().collect();
        assert_eq!(unique.len(), finished.len(), "no job reported twice");
        assert!(saw_live_accepted, "live events follow the catch-up");
        fs::remove_dir_all(&out).ok();
    }

    /// A watcher that never reads is sent exactly the first
    /// `EVENT_BUFFER` events of its job and is then shed, so its stream
    /// ends after them instead of buffering without bound. The events are
    /// synthetic, emitted while the paused scheduler keeps the job live.
    #[test]
    fn a_watcher_that_never_reads_gets_the_first_buffer_of_events_then_is_shed() {
        let out = temp_dir("watch-shed");
        let scheduler = JobScheduler::new_paused(1);
        let id = scheduler
            .submit(JobConfig::new(spec("watch-shed", 1), out.clone()))
            .unwrap()
            .id;
        let stream = scheduler.watch(&id).unwrap();
        for steps in 0..(EVENT_BUFFER + 10) as u64 {
            scheduler.inner.emit(JobEvent::UnitCheckpointed {
                job: id.clone(),
                unit: "u".to_string(),
                steps,
            });
        }
        {
            let state = scheduler.inner.state.lock().unwrap();
            assert!(state.jobs[&id].subscribers.is_empty(), "watcher not shed");
        }
        let received: Vec<u64> = stream
            .map(|event| match event {
                JobEvent::UnitCheckpointed { steps, .. } => steps,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(received, (0..EVENT_BUFFER as u64).collect::<Vec<_>>());
        scheduler.start();
        scheduler.wait(&id).unwrap();
        fs::remove_dir_all(&out).ok();
    }

    /// The same bound on the firehose, through the public API: instant jobs
    /// emit two events each, and a subscriber that reads none of them keeps
    /// exactly the first `EVENT_BUFFER`, in order.
    #[test]
    fn a_firehose_that_never_reads_gets_the_first_buffer_of_events_then_is_shed() {
        let out = temp_dir("firehose-shed");
        let instant = SweepSpec::parse(
            r#"{"name": "instant", "tasks": [
                {"id": "S", "kind": "state-space", "diameter_bounds": [1]}
            ]}"#,
        )
        .unwrap();
        let scheduler = JobScheduler::new(1);
        let slow = scheduler.watch_all();
        let ids: Vec<JobId> = (0..EVENT_BUFFER)
            .map(|_| {
                scheduler
                    .submit(JobConfig::new(instant.clone(), out.clone()))
                    .unwrap()
                    .id
            })
            .collect();
        assert!(
            scheduler.inner.state.lock().unwrap().firehose.is_empty(),
            "slow firehose not shed"
        );
        let events: Vec<JobEvent> = slow.collect();
        assert_eq!(events.len(), EVENT_BUFFER);
        let expected: Vec<(&str, &str)> = ids[..EVENT_BUFFER / 2]
            .iter()
            .flat_map(|id| [("job-accepted", id.as_str()), ("job-finished", id.as_str())])
            .collect();
        let got: Vec<(&str, &str)> = events.iter().map(|e| (e.kind(), e.job())).collect();
        assert_eq!(got, expected);
        scheduler.shutdown();
        fs::remove_dir_all(&out).ok();
    }
}

//! `sa serve` — the simulation-as-a-service daemon.
//!
//! A long-lived process wrapping one [`JobScheduler`] behind a Unix domain
//! socket. Clients speak newline-delimited JSON (one request object per
//! line, one response object per line; `watch` switches the connection to
//! an NDJSON event stream). The full wire protocol — every request,
//! response and event with field-by-field schemas — is documented in
//! `docs/serve-protocol.md`; `protocol_version` is 1.
//!
//! State layout under `--state-dir` (default `serve-state/`):
//!
//! ```text
//! jobs/<id>/job.json     # submitted config (inline spec) — written first
//! jobs/<id>/out/         # the job's output directory (state/ + reports)
//! jobs/<id>/result.json  # final status, written only on terminal states
//!                        # that must NOT resume (finished/failed/cancelled)
//! quarantine/<id>/       # job dirs whose records arrived torn (see below)
//! ```
//!
//! Crash recovery is a restart-time rescan: every `job.json` without a
//! `result.json` is resubmitted with its original id and priority and
//! `resume = true`, so in-flight units continue from their checkpoints and
//! a SIGKILLed-and-restarted daemon produces byte-identical
//! `EXPERIMENTS.json`/`.md` (pinned by `tests/serve.rs`, the fault-matrix
//! sweep in `tests/robustness.rs`, and the CI `serve-smoke` /
//! `robustness-smoke` jobs).
//!
//! # The fault-tolerance contract
//!
//! The daemon holds itself to the paper's standard — recover from arbitrary
//! transient faults instead of trusting them not to happen:
//!
//! * **Durable acks.** Every daemon-owned file is written temp-file +
//!   fsync + atomic-rename + dir-fsync (see [`write_atomic`]); `job.json`
//!   reaches disk *before* the submit ack, so an acknowledged job is never
//!   silently lost, and a crash before the ack loses only the
//!   un-acknowledged submit.
//! * **Tolerant recovery.** The rescan never refuses to start over bad
//!   bytes: a torn `job.json` quarantines the job directory (logged, kept
//!   for post-mortems), a torn `result.json` or checkpoint quarantines just
//!   that file and recomputes — deterministically byte-identical, per the
//!   counter-based RNG discipline.
//! * **Bounded intake.** Request lines are capped (`--max-frame-bytes`,
//!   structured `too-large` error), the queue is capped (`overloaded` +
//!   `retry_after_ms`), per-client quotas and fair-share dispatch keep one
//!   client from starving the rest, and slow clients are disconnected by
//!   read/write deadlines rather than pinning handler threads.
//! * **No stuck units.** `--unit-timeout-secs` arms a watchdog that cancels
//!   a runaway unit at its next checkpoint boundary and fails the job with
//!   an explanatory error.

use sa_bench::jobs::{
    quarantine_file, write_atomic, JobConfig, JobEvent, JobId, JobScheduler, JobState, JobStatus,
    ResultSink, SchedError, SchedulerLimits,
};
use sa_model::json::JsonValue;
use sa_runtime::parallel::{thread_count, CancelToken};
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// The protocol generation this daemon speaks (sent in the `hello` line;
/// see `docs/serve-protocol.md` for the compatibility rules).
pub const PROTOCOL_VERSION: u64 = 1;

struct ServeOptions {
    socket: PathBuf,
    state_dir: PathBuf,
    workers: usize,
    checkpoint_every: u64,
    /// Archive retention: keep at most this many terminal job dirs
    /// (0 = unlimited).
    keep: usize,
    /// Archive retention: prune terminal job dirs older than this
    /// (0 = no age limit).
    keep_age_secs: u64,
    /// Request-line length cap; longer frames get a `too-large` error.
    max_frame_bytes: usize,
    /// Disconnect a connection idle (or mid-line) this long (0 = never).
    idle_timeout_secs: u64,
    /// Disconnect a connection that blocks writes this long (0 = never).
    write_timeout_secs: u64,
    /// Wall-clock budget per unit; the watchdog fails runaways (0 = off).
    unit_timeout_secs: u64,
    /// Queue-depth bound for admission control (0 = unlimited).
    max_queued_units: usize,
    /// Per-client outstanding-unit quota (0 = unlimited).
    client_quota: usize,
    /// Per-client running-unit cap (0 = unlimited).
    client_workers: usize,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        socket: PathBuf::new(),
        state_dir: PathBuf::from("serve-state"),
        workers: thread_count(),
        checkpoint_every: 1000,
        keep: 0,
        keep_age_secs: 0,
        max_frame_bytes: 1 << 20,
        idle_timeout_secs: 300,
        write_timeout_secs: 30,
        unit_timeout_secs: 0,
        max_queued_units: 10_000,
        client_quota: 0,
        client_workers: 0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let mut numeric = |name: &str| -> Result<u64, String> {
            flag_value(name)?
                .parse()
                .map_err(|_| format!("{name} must be an integer"))
        };
        match arg.as_str() {
            "--socket" => options.socket = PathBuf::from(flag_value("--socket")?),
            "--state-dir" => options.state_dir = PathBuf::from(flag_value("--state-dir")?),
            "--workers" => options.workers = numeric("--workers")? as usize,
            "--checkpoint-every" => options.checkpoint_every = numeric("--checkpoint-every")?,
            "--keep" => options.keep = numeric("--keep")? as usize,
            "--keep-age-secs" => options.keep_age_secs = numeric("--keep-age-secs")?,
            "--max-frame-bytes" => options.max_frame_bytes = numeric("--max-frame-bytes")? as usize,
            "--idle-timeout-secs" => options.idle_timeout_secs = numeric("--idle-timeout-secs")?,
            "--write-timeout-secs" => options.write_timeout_secs = numeric("--write-timeout-secs")?,
            "--unit-timeout-secs" => options.unit_timeout_secs = numeric("--unit-timeout-secs")?,
            "--max-queued-units" => {
                options.max_queued_units = numeric("--max-queued-units")? as usize
            }
            "--client-quota" => options.client_quota = numeric("--client-quota")? as usize,
            "--client-workers" => options.client_workers = numeric("--client-workers")? as usize,
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    if options.socket.as_os_str().is_empty() {
        return Err("sa serve needs --socket <path>".to_string());
    }
    Ok(options)
}

/// Everything the connection handlers share.
struct Daemon {
    scheduler: JobScheduler,
    state_dir: PathBuf,
    checkpoint_every: u64,
    keep: usize,
    keep_age_secs: u64,
    /// Terminal statuses of jobs from previous daemon lives (restored from
    /// `result.json`); `status`/`watch` fall back to these.
    archive: Mutex<BTreeMap<JobId, JobStatus>>,
    /// The daemon's own id counter (ids must stay unique across restarts,
    /// which the scheduler alone cannot know about).
    next_id: Mutex<u64>,
    /// Fires on the `shutdown` op; the accept loop exits.
    stop: CancelToken,
    /// The listening socket's path: the `shutdown` op connects to it to
    /// wake the blocked `accept`.
    socket: PathBuf,
}

/// Archives terminal statuses to `jobs/<id>/result.json` — except
/// interrupted ones, which must stay resumable on the next daemon start.
struct ArchiveSink {
    jobs_dir: PathBuf,
}

impl ResultSink for ArchiveSink {
    fn event(&self, event: &JobEvent) {
        let JobEvent::JobFinished { job, status } = event else {
            return;
        };
        if status.state == JobState::Interrupted {
            return;
        }
        let path = self.jobs_dir.join(job).join("result.json");
        if let Err(e) = write_atomic(&path, &status.to_json().render_pretty()) {
            eprintln!("sa serve: warning: {e}");
        }
    }
}

fn jobs_dir(state_dir: &Path) -> PathBuf {
    state_dir.join("jobs")
}

/// Serializes a job's submission so a restarted daemon can resubmit it.
fn job_json(id: &str, spec_text: &JsonValue, priority: i64, client: &str) -> JsonValue {
    JsonValue::object([
        ("job".to_string(), JsonValue::String(id.to_string())),
        ("spec".to_string(), spec_text.clone()),
        ("priority".to_string(), JsonValue::Number(priority as f64)),
        ("client".to_string(), JsonValue::String(client.to_string())),
    ])
}

/// Moves a job directory whose records are unusable into
/// `<state-dir>/quarantine/` (kept for post-mortems), logging the reason.
/// Recovery never panics and never refuses to start over one bad job.
fn quarantine_dir(state_dir: &Path, dir: &Path, reason: &str) {
    eprintln!(
        "sa serve: warning: quarantining {}: {reason}",
        dir.display()
    );
    let root = state_dir.join("quarantine");
    if fs::create_dir_all(&root).is_err() {
        return;
    }
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "job".to_string());
    let mut target = root.join(&name);
    let mut suffix = 1;
    while target.exists() {
        target = root.join(format!("{name}-{suffix}"));
        suffix += 1;
    }
    if let Err(e) = fs::rename(dir, &target) {
        eprintln!(
            "sa serve: warning: cannot quarantine {}: {e}",
            dir.display()
        );
    }
}

/// Restart-time rescan: archive finished jobs, resubmit unfinished ones
/// (resume mode, original id/priority/client). Torn or missing records
/// quarantine the affected file or directory and the scan continues — a
/// corrupt job never takes the daemon down with it. Returns the next fresh
/// id counter value.
fn recover_jobs(
    scheduler: &JobScheduler,
    state_dir: &Path,
    archive: &Mutex<BTreeMap<JobId, JobStatus>>,
    checkpoint_every: u64,
) -> u64 {
    let jobs_root = jobs_dir(state_dir);
    let mut next_id = 1u64;
    let mut entries: Vec<PathBuf> = match fs::read_dir(&jobs_root) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => return next_id,
    };
    entries.sort();
    for dir in entries {
        let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
            // Quarantined ids count too: never reuse an id a client saw.
            next_id = next_id.max(n + 1);
        }
        if !dir.is_dir() {
            continue;
        }
        let job_path = dir.join("job.json");
        let Ok(text) = fs::read_to_string(&job_path) else {
            quarantine_dir(state_dir, &dir, "missing or unreadable job.json");
            continue;
        };
        let doc = match JsonValue::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                quarantine_dir(state_dir, &dir, &format!("corrupt job.json: {e}"));
                continue;
            }
        };
        let result_path = dir.join("result.json");
        if result_path.exists() {
            let status = fs::read_to_string(&result_path)
                .ok()
                .and_then(|t| JsonValue::parse(&t).ok())
                .as_ref()
                .and_then(JobStatus::from_json);
            match status {
                Some(status) => {
                    archive.lock().unwrap().insert(id, status);
                    continue;
                }
                None => {
                    // The job itself is fine; only the terminal record is
                    // torn. Quarantine it and recompute via resume below.
                    quarantine_file(&result_path, "corrupt result record");
                }
            }
        }
        let Some(spec_doc) = doc.get("spec") else {
            quarantine_dir(state_dir, &dir, "job.json has no \"spec\"");
            continue;
        };
        let spec = match sa_bench::sweep::SweepSpec::from_json(spec_doc) {
            Ok(spec) => spec,
            Err(e) => {
                quarantine_dir(state_dir, &dir, &format!("unusable spec: {e}"));
                continue;
            }
        };
        let mut config = JobConfig::new(spec, dir.join("out"));
        config.id = Some(id.clone());
        config.priority = doc.get("priority").and_then(|p| p.as_f64()).unwrap_or(0.0) as i64;
        config.client = doc
            .get("client")
            .and_then(|c| c.as_str())
            .unwrap_or("recovered")
            .to_string();
        config.checkpoint_every = checkpoint_every;
        config.resume = true;
        match scheduler.submit(config) {
            Ok(receipt) => eprintln!(
                "sa serve: recovered job {} ({} unit(s), {} already complete)",
                receipt.id, receipt.units, receipt.resumed_done
            ),
            Err(e) => quarantine_dir(state_dir, &dir, &format!("cannot resubmit: {e}")),
        }
    }
    next_id
}

/// Prunes archived (terminal, non-resumable) job directories: keeps the
/// newest `keep` by id (0 = no count bound) and drops any whose
/// `result.json` is older than `max_age_secs` (0 = no age bound). Jobs
/// without a `result.json` — queued, running, interrupted — are never
/// touched. Returns the removed ids and the count of terminal directories
/// retained.
fn prune_archive(daemon: &Daemon, keep: usize, max_age_secs: u64) -> (Vec<JobId>, usize) {
    let jobs_root = jobs_dir(&daemon.state_dir);
    let mut candidates: Vec<(u64, JobId, PathBuf, SystemTime)> = Vec::new();
    if let Ok(entries) = fs::read_dir(&jobs_root) {
        for entry in entries.flatten() {
            let dir = entry.path();
            let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            let Ok(meta) = fs::metadata(dir.join("result.json")) else {
                continue; // not terminal: never pruned
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            let num = id
                .strip_prefix('j')
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX);
            candidates.push((num, id, dir, mtime));
        }
    }
    candidates.sort();
    let total = candidates.len();
    let excess = if keep > 0 {
        total.saturating_sub(keep)
    } else {
        0
    };
    let cutoff = (max_age_secs > 0).then(|| SystemTime::now() - Duration::from_secs(max_age_secs));
    let mut removed = Vec::new();
    for (index, (_, id, dir, mtime)) in candidates.into_iter().enumerate() {
        let too_many = index < excess;
        let too_old = cutoff.is_some_and(|cut| mtime < cut);
        if !(too_many || too_old) {
            continue;
        }
        match fs::remove_dir_all(&dir) {
            Ok(()) => {
                daemon.archive.lock().unwrap().remove(&id);
                removed.push(id);
            }
            Err(e) => eprintln!("sa serve: warning: cannot prune {}: {e}", dir.display()),
        }
    }
    let kept = total - removed.len();
    (removed, kept)
}

fn ok_response(extra: Vec<(String, JsonValue)>) -> JsonValue {
    let mut fields = vec![("ok".to_string(), JsonValue::Bool(true))];
    fields.extend(extra);
    JsonValue::object(fields)
}

/// An error response with a stable machine-readable `code` (see
/// `docs/serve-protocol.md` for the registry) and a human-readable message.
fn err_response(code: &str, message: &str) -> JsonValue {
    JsonValue::object([
        ("ok".to_string(), JsonValue::Bool(false)),
        ("code".to_string(), JsonValue::String(code.to_string())),
        ("error".to_string(), JsonValue::String(message.to_string())),
    ])
}

/// Maps a scheduler rejection onto the wire, carrying `retry_after_ms` when
/// the scheduler suggests a backoff (load shedding).
fn sched_err_response(e: &SchedError) -> JsonValue {
    let mut fields = vec![
        ("ok".to_string(), JsonValue::Bool(false)),
        ("code".to_string(), JsonValue::String(e.code.to_string())),
        ("error".to_string(), JsonValue::String(e.message.clone())),
    ];
    if let Some(ms) = e.retry_after_ms {
        fields.push(("retry_after_ms".to_string(), JsonValue::Number(ms as f64)));
    }
    JsonValue::object(fields)
}

fn send_line(stream: &mut UnixStream, value: &JsonValue) -> std::io::Result<()> {
    stream.write_all(value.render().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// One framed request line, read with a hard length bound.
enum Frame {
    Line(String),
    /// The line exceeded the bound; the remainder was discarded up to the
    /// next newline so the connection stays usable.
    TooLarge,
    Eof,
}

/// Reads one newline-terminated frame without ever buffering more than
/// `max` bytes of it — the bounded replacement for `read_line`, which would
/// happily buffer an arbitrarily long line.
fn read_frame(reader: &mut impl BufRead, max: usize) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(if buf.len() > max {
                Frame::TooLarge
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        buf.extend_from_slice(available);
        let n = available.len();
        reader.consume(n);
        if buf.len() > max {
            discard_line(reader)?;
            return Ok(Frame::TooLarge);
        }
    }
}

/// Consumes input up to and including the next newline (or EOF) without
/// retaining it.
fn discard_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return Ok(());
        }
        let n = available.len();
        reader.consume(n);
    }
}

/// Handles the `submit` op: resolve the spec (inline or by path), persist
/// the job record durably, then hand the job to the scheduler. A scheduler
/// rejection removes the just-written record — a restart must never
/// resurrect a job whose submit the client saw fail.
fn handle_submit(daemon: &Arc<Daemon>, request: &JsonValue) -> JsonValue {
    let spec_doc = match (request.get("spec"), request.get("spec_path")) {
        (Some(doc), _) => doc.clone(),
        (None, Some(path)) => {
            // The document (not the path) goes into the job record, so the
            // job survives the file being edited or deleted later.
            let Some(path) = path.as_str() else {
                return err_response("bad-request", "\"spec_path\" must be a string");
            };
            let text = match fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    return err_response("bad-request", &format!("cannot read spec {path}: {e}"))
                }
            };
            match JsonValue::parse(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    return err_response(
                        "bad-request",
                        &format!("spec {path} is not valid JSON: {e}"),
                    )
                }
            }
        }
        (None, None) => {
            return err_response(
                "bad-request",
                "submit needs \"spec\" (inline) or \"spec_path\"",
            )
        }
    };
    let spec = match sa_bench::sweep::SweepSpec::from_json(&spec_doc) {
        Ok(spec) => spec,
        Err(e) => return err_response("bad-request", &e),
    };
    let priority = request
        .get("priority")
        .and_then(|p| p.as_f64())
        .unwrap_or(0.0) as i64;
    let client = request
        .get("client")
        .and_then(|c| c.as_str())
        .unwrap_or("anonymous")
        .to_string();

    let id = {
        let mut next = daemon.next_id.lock().unwrap();
        let id = format!("j{}", *next);
        *next += 1;
        id
    };
    let job_dir = jobs_dir(&daemon.state_dir).join(&id);
    if let Err(e) = fs::create_dir_all(&job_dir) {
        return err_response("io", &format!("cannot create {}: {e}", job_dir.display()));
    }
    // The record goes to disk (durably) before the scheduler sees the job:
    // a crash after this point recovers the job, a crash before it loses
    // only the un-acknowledged submit.
    if let Err(e) = write_atomic(
        &job_dir.join("job.json"),
        &job_json(&id, &spec_doc, priority, &client).render_pretty(),
    ) {
        let _ = fs::remove_dir_all(&job_dir);
        return err_response("io", &e);
    }

    let mut config = JobConfig::new(spec, job_dir.join("out"));
    config.id = Some(id);
    config.priority = priority;
    config.client = client;
    config.checkpoint_every = daemon.checkpoint_every;
    match daemon.scheduler.submit(config) {
        Ok(receipt) => {
            if daemon.keep > 0 || daemon.keep_age_secs > 0 {
                prune_archive(daemon, daemon.keep, daemon.keep_age_secs);
            }
            ok_response(vec![
                ("job".to_string(), JsonValue::String(receipt.id)),
                ("units".to_string(), JsonValue::Number(receipt.units as f64)),
                (
                    "resumed_done".to_string(),
                    JsonValue::Number(receipt.resumed_done as f64),
                ),
            ])
        }
        Err(e) => {
            let _ = fs::remove_dir_all(&job_dir);
            sched_err_response(&e)
        }
    }
}

/// Handles `watch`: acknowledge, then stream the job's events as NDJSON
/// until `job-finished`, after which the connection returns to request
/// mode.
fn handle_watch(daemon: &Arc<Daemon>, stream: &mut UnixStream, job: &str) -> std::io::Result<bool> {
    let Some(rx) = daemon.scheduler.watch(job) else {
        // Jobs archived by a previous daemon life still answer a watch with
        // their (terminal) outcome.
        let archived = daemon.archive.lock().unwrap().get(job).cloned();
        return match archived {
            Some(status) => {
                send_line(stream, &ok_response(vec![]))?;
                let event = JobEvent::JobFinished {
                    job: job.to_string(),
                    status,
                };
                send_line(stream, &event.to_json())?;
                Ok(true)
            }
            None => {
                send_line(
                    stream,
                    &err_response("unknown-job", &format!("unknown job \"{job}\"")),
                )?;
                Ok(true)
            }
        };
    };
    send_line(stream, &ok_response(vec![]))?;
    while let Ok(event) = rx.recv() {
        let last = matches!(event, JobEvent::JobFinished { .. });
        send_line(stream, &event.to_json())?;
        if last {
            break;
        }
    }
    Ok(true)
}

/// Handles `watch` with `"all": true` — the firehose: archived jobs replay
/// as synthetic `job-finished` catch-up lines (id order), then every event
/// of every live job streams in the scheduler's total order. The stream
/// runs until the client disconnects or the daemon shuts down (the
/// scheduler's shutdown closes the channel); the connection never returns
/// to request mode.
fn handle_watch_all(daemon: &Arc<Daemon>, stream: &mut UnixStream) -> std::io::Result<bool> {
    send_line(stream, &ok_response(vec![]))?;
    // Subscribe before the archived catch-up so nothing falls in a gap;
    // live terminal jobs get their own synthetic catch-up from watch_all.
    let firehose = daemon.scheduler.watch_all();
    let archived: Vec<JobEvent> = daemon
        .archive
        .lock()
        .unwrap()
        .iter()
        .map(|(id, status)| JobEvent::JobFinished {
            job: id.clone(),
            status: status.clone(),
        })
        .collect();
    for event in archived.into_iter().chain(firehose) {
        send_line(stream, &event.to_json())?;
    }
    Ok(false)
}

/// Dispatches one request line; returns `false` when the connection should
/// close (daemon shutting down).
fn handle_request(
    daemon: &Arc<Daemon>,
    stream: &mut UnixStream,
    line: &str,
) -> std::io::Result<bool> {
    let request = match JsonValue::parse(line) {
        Ok(request) => request,
        Err(e) => {
            send_line(
                stream,
                &err_response("bad-request", &format!("bad request: {e}")),
            )?;
            return Ok(true);
        }
    };
    let op = request.get("op").and_then(|o| o.as_str()).unwrap_or("");
    let job_field = || -> Result<&str, String> {
        request
            .get("job")
            .and_then(|j| j.as_str())
            .ok_or_else(|| format!("{op} needs a \"job\" field"))
    };
    match op {
        "ping" => send_line(
            stream,
            &ok_response(vec![(
                "protocol_version".to_string(),
                JsonValue::Number(PROTOCOL_VERSION as f64),
            )]),
        )?,
        "submit" => {
            let response = handle_submit(daemon, &request);
            send_line(stream, &response)?;
        }
        "status" => {
            let response = match request.get("job").and_then(|j| j.as_str()) {
                Some(job) => {
                    let status = daemon
                        .scheduler
                        .status(job)
                        .or_else(|| daemon.archive.lock().unwrap().get(job).cloned());
                    match status {
                        Some(status) => ok_response(vec![("status".to_string(), status.to_json())]),
                        None => err_response("unknown-job", &format!("unknown job \"{job}\"")),
                    }
                }
                None => {
                    let mut all: BTreeMap<JobId, JobStatus> =
                        daemon.archive.lock().unwrap().clone();
                    for status in daemon.scheduler.statuses() {
                        all.insert(status.id.clone(), status);
                    }
                    ok_response(vec![(
                        "jobs".to_string(),
                        JsonValue::Array(all.values().map(JobStatus::to_json).collect()),
                    )])
                }
            };
            send_line(stream, &response)?;
        }
        "cancel" => {
            let response = match job_field() {
                Ok(job) => {
                    if daemon.scheduler.cancel(job)
                        || daemon.archive.lock().unwrap().contains_key(job)
                    {
                        ok_response(vec![])
                    } else {
                        err_response("unknown-job", &format!("unknown job \"{job}\""))
                    }
                }
                Err(e) => err_response("bad-request", &e),
            };
            send_line(stream, &response)?;
        }
        "watch" => {
            if matches!(request.get("all"), Some(JsonValue::Bool(true))) {
                return handle_watch_all(daemon, stream);
            }
            let response = match job_field() {
                Ok(job) => return handle_watch(daemon, stream, job),
                Err(e) => err_response("bad-request", &e),
            };
            send_line(stream, &response)?;
        }
        "gc" => {
            let keep = request
                .get("keep")
                .and_then(|k| k.as_f64())
                .map(|k| k as usize)
                .unwrap_or(daemon.keep);
            let max_age = request
                .get("max_age_secs")
                .and_then(|k| k.as_f64())
                .map(|k| k as u64)
                .unwrap_or(daemon.keep_age_secs);
            let (removed, kept) = prune_archive(daemon, keep, max_age);
            send_line(
                stream,
                &ok_response(vec![
                    (
                        "removed".to_string(),
                        JsonValue::Array(removed.into_iter().map(JsonValue::String).collect()),
                    ),
                    ("kept".to_string(), JsonValue::Number(kept as f64)),
                ]),
            )?;
        }
        "drain" => {
            // Blocks this connection until every accepted job is terminal;
            // other connections keep being served meanwhile.
            daemon.scheduler.drain();
            send_line(stream, &ok_response(vec![]))?;
        }
        "shutdown" => {
            send_line(stream, &ok_response(vec![]))?;
            daemon.stop.cancel();
            // Wake the accept loop, which drops this connection once it
            // sees `stop`.
            let _ = UnixStream::connect(&daemon.socket);
            return Ok(false);
        }
        other => send_line(
            stream,
            &err_response("unknown-op", &format!("unknown op \"{other}\"")),
        )?,
    }
    Ok(true)
}

/// Serves one connection until it ends, then shuts the socket down both
/// ways: the accept loop holds a clone of the stream until it reaps this
/// handler, and the client must see EOF now, not then.
fn handle_connection(daemon: Arc<Daemon>, stream: UnixStream, options: &ConnectionOptions) {
    serve_connection(daemon, &stream, options);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(daemon: Arc<Daemon>, stream: &UnixStream, options: &ConnectionOptions) {
    // Deadlines: a client idle (or trickling a line) past the read timeout,
    // or blocking our writes past the write timeout, is disconnected — slow
    // clients must not pin handler threads or buffers.
    if options.idle_timeout_secs > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(options.idle_timeout_secs)));
    }
    if options.write_timeout_secs > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(options.write_timeout_secs)));
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let hello = JsonValue::object([
        ("event".to_string(), JsonValue::String("hello".to_string())),
        (
            "protocol_version".to_string(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
    ]);
    if send_line(&mut writer, &hello).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, options.max_frame_bytes) {
            Ok(Frame::Eof) => break,
            Ok(Frame::TooLarge) => {
                let response = err_response(
                    "too-large",
                    &format!(
                        "request line exceeds the {}-byte frame limit",
                        options.max_frame_bytes
                    ),
                );
                if send_line(&mut writer, &response).is_err() {
                    break;
                }
            }
            Ok(Frame::Line(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match handle_request(&daemon, &mut writer, line) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => break,
                }
            }
            // Read timeout (slow client) or a broken socket: disconnect.
            Err(_) => break,
        }
    }
}

/// A connection's handler thread and a clone of its stream, kept so that
/// shutdown can end a read blocked on an idle client.
type Connection = (JoinHandle<()>, UnixStream);

/// Joins the handlers that have returned; the live ones stay.
fn reap(connections: &mut Vec<Connection>) {
    let (done, live) = std::mem::take(connections)
        .into_iter()
        .partition(|(handler, _)| handler.is_finished());
    *connections = live;
    for (handler, _) in done {
        join_handler(handler);
    }
}

fn join_handler(handler: JoinHandle<()>) {
    if handler.join().is_err() {
        eprintln!("sa serve: warning: a connection handler panicked");
    }
}

/// Per-connection knobs, copied out of [`ServeOptions`] for the handler
/// threads.
#[derive(Clone, Copy)]
struct ConnectionOptions {
    max_frame_bytes: usize,
    idle_timeout_secs: u64,
    write_timeout_secs: u64,
}

/// `sa serve`: bind the socket, recover persisted jobs, serve requests
/// until a `shutdown` op (in-flight units checkpoint and the jobs stay
/// resumable by the next daemon start).
pub fn serve(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_serve_options(args)?;
    let jobs_root = jobs_dir(&options.state_dir);
    fs::create_dir_all(&jobs_root)
        .map_err(|e| format!("cannot create {}: {e}", jobs_root.display()))?;

    // Paused start: recovery resubmits every unfinished job before any unit
    // dispatches, so recovered work keeps its original priority order.
    let limits = SchedulerLimits {
        max_queued_units: options.max_queued_units,
        client_quota: options.client_quota,
        client_workers: options.client_workers,
        unit_timeout: (options.unit_timeout_secs > 0)
            .then(|| Duration::from_secs(options.unit_timeout_secs)),
    };
    let scheduler = JobScheduler::with_limits(options.workers.max(1), false, limits);
    scheduler.add_sink(Arc::new(ArchiveSink {
        jobs_dir: jobs_root.clone(),
    }));
    let archive = Mutex::new(BTreeMap::new());
    let next_id = recover_jobs(
        &scheduler,
        &options.state_dir,
        &archive,
        options.checkpoint_every,
    );
    scheduler.start();

    let daemon = Arc::new(Daemon {
        scheduler,
        state_dir: options.state_dir.clone(),
        checkpoint_every: options.checkpoint_every,
        keep: options.keep,
        keep_age_secs: options.keep_age_secs,
        archive,
        next_id: Mutex::new(next_id),
        stop: CancelToken::new(),
        socket: options.socket.clone(),
    });
    if daemon.keep > 0 || daemon.keep_age_secs > 0 {
        prune_archive(&daemon, daemon.keep, daemon.keep_age_secs);
    }

    // A previous daemon's socket file would make bind fail; a stale one
    // (crash) is safe to replace because connects to it already error.
    if options.socket.exists() {
        fs::remove_file(&options.socket).map_err(|e| {
            format!(
                "cannot remove stale socket {}: {e}",
                options.socket.display()
            )
        })?;
    }
    let listener = UnixListener::bind(&options.socket)
        .map_err(|e| format!("cannot bind {}: {e}", options.socket.display()))?;

    println!(
        "sa serve: listening on {} (state: {}, protocol v{PROTOCOL_VERSION})",
        options.socket.display(),
        options.state_dir.display()
    );

    let connection_options = ConnectionOptions {
        max_frame_bytes: options.max_frame_bytes.max(64),
        idle_timeout_secs: options.idle_timeout_secs,
        write_timeout_secs: options.write_timeout_secs,
    };
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        // The `shutdown` op wakes this blocking accept by connecting; that
        // connection (and any that races it) is dropped.
        if daemon.stop.is_cancelled() {
            break;
        }
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        reap(&mut connections);
        let Ok(registered) = stream.try_clone() else {
            continue; // out of descriptors: drop this client
        };
        let daemon = Arc::clone(&daemon);
        let handler = std::thread::spawn(move || {
            handle_connection(daemon, stream, &connection_options);
        });
        connections.push((handler, registered));
    }
    drop(listener);

    // Shutdown: checkpoint in-flight units and join the workers; the final
    // `job-finished` events close every watch and firehose channel. Then
    // end every connection's reads, so a handler blocked on an idle client
    // returns now rather than at its idle timeout, and join the handlers.
    daemon.scheduler.shutdown();
    for (_, stream) in &connections {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (handler, _) in connections {
        join_handler(handler);
    }
    let _ = fs::remove_file(&options.socket);
    println!("sa serve: shut down (jobs remain resumable on restart)");
    Ok(ExitCode::SUCCESS)
}

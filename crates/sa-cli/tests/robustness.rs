//! Fault-tolerance tests for the hardened `sa serve` daemon.
//!
//! The centerpiece is the disk-fault matrix: for each fault kind that kills
//! the process (`kill`, `torn`), sweep the fault index through *every*
//! I/O operation the daemon performs for a job (`SA_IO_FAULTS={i}={kind}`),
//! and prove the crash-recovery contract at each point — a restarted daemon
//! recovers every acknowledged job to `EXPERIMENTS.json`/`.md` bytes
//! identical to an uninterrupted batch run, and never panics or wedges on
//! whatever the crash left behind. The sweep terminates when an index runs
//! past the last I/O operation (the daemon survives untouched).
//!
//! Around it: graceful `ENOSPC` degradation, oversized/malformed frames,
//! overload shedding + clean drain, idle-timeout disconnects, the unit
//! watchdog end to end, quarantine of corrupt state at restart, `gc`
//! retention, per-client quotas on the wire, and the `watch --all`
//! firehose.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SA: &str = env!("CARGO_BIN_EXE_sa");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sa-robust-test-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic spec (two units) — the fault-matrix workload.
fn quick_spec(name: &str) -> String {
    format!(
        r#"{{
            "name": "{name}",
            "graph_seed": 7,
            "tasks": [{{
                "id": "T", "kind": "stabilization",
                "topologies": [{{"kind": "cycle", "n": 6}}],
                "schedulers": ["synchronous"],
                "seeds": 2, "max_rounds": 2000
            }}]
        }}"#
    )
}

/// A spec slow enough that its units are still queued/running while the
/// test pokes at the daemon.
fn slow_spec(name: &str) -> String {
    format!(
        r#"{{
            "name": "{name}",
            "graph_seed": 5,
            "tasks": [{{
                "id": "T", "kind": "stabilization",
                "algorithms": ["min-plus-one"],
                "topologies": [{{"kind": "torus", "rows": 32, "cols": 32}}],
                "schedulers": ["round-robin"],
                "seeds": 2, "max_rounds": 20000
            }}]
        }}"#
    )
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let socket = dir.join("sa.sock");
        let mut command = Command::new(SA);
        command
            .args(["serve", "--socket"])
            .arg(&socket)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (key, value) in envs {
            command.env(key, value);
        }
        let child = command.spawn().expect("spawn daemon");
        let daemon = Daemon { child, socket };
        let status = Command::new(SA)
            .args(["ping", "--socket"])
            .arg(&daemon.socket)
            .args(["--wait", "30"])
            .stdout(Stdio::null())
            .status()
            .expect("run sa ping");
        assert!(status.success(), "daemon did not come up");
        daemon
    }

    /// Raw protocol connection; `None` if the daemon is gone.
    fn connect(&self) -> Option<(BufReader<UnixStream>, UnixStream)> {
        let stream = UnixStream::connect(&self.socket).ok()?;
        let writer = stream.try_clone().ok()?;
        let mut reader = BufReader::new(stream);
        let mut hello = String::new();
        if reader.read_line(&mut hello).ok()? == 0 {
            return None;
        }
        Some((reader, writer))
    }

    /// One request/response round trip; `None` if the daemon died mid-way.
    fn request(&self, body: &str) -> Option<String> {
        let (mut reader, mut writer) = self.connect()?;
        writeln!(writer, "{body}").ok()?;
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        Some(line)
    }

    /// Streams a job's events until `job-finished`; `None` if the daemon
    /// died (or the job is unknown) before the terminal event.
    fn watch(&self, job: &str) -> Option<Vec<String>> {
        let (reader, mut writer) = self.connect()?;
        writeln!(writer, r#"{{"op": "watch", "job": "{job}"}}"#).ok()?;
        let mut lines = Vec::new();
        for line in reader.lines() {
            let line = line.ok()?;
            let done = line.contains("\"event\": \"job-finished\"");
            let error = line.contains("\"ok\": false");
            lines.push(line);
            if done {
                return Some(lines);
            }
            if error {
                return None;
            }
        }
        None
    }

    /// Graceful shutdown; true only if the op succeeded and the process
    /// exited cleanly.
    fn try_shutdown(&mut self) -> bool {
        let Some(response) = self.request(r#"{"op": "shutdown"}"#) else {
            return false;
        };
        if !response.contains("\"ok\": true") {
            return false;
        }
        self.child.wait().map(|s| s.success()).unwrap_or(false)
    }

    fn shutdown(&mut self) {
        assert!(self.try_shutdown(), "daemon did not shut down cleanly");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write_spec(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, body).unwrap();
    path
}

fn extract_job(response: &str) -> String {
    let marker = "\"job\": \"";
    let start = response.find(marker).expect("job id in response") + marker.len();
    let end = start + response[start..].find('"').unwrap();
    response[start..end].to_string()
}

/// Uninterrupted batch reference run for a spec.
fn batch_baseline(dir: &Path, spec_path: &Path) -> (Vec<u8>, Vec<u8>) {
    let out = dir.join("baseline");
    let status = Command::new(SA)
        .arg("run")
        .arg(spec_path)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .expect("run batch baseline");
    assert!(status.success(), "baseline run failed");
    (
        fs::read(out.join("EXPERIMENTS.json")).unwrap(),
        fs::read(out.join("EXPERIMENTS.md")).unwrap(),
    )
}

fn assert_byte_identical(out_dir: &Path, baseline: &(Vec<u8>, Vec<u8>), context: &str) {
    assert_eq!(
        fs::read(out_dir.join("EXPERIMENTS.json")).unwrap(),
        baseline.0,
        "EXPERIMENTS.json differs from the uninterrupted baseline ({context})"
    );
    assert_eq!(
        fs::read(out_dir.join("EXPERIMENTS.md")).unwrap(),
        baseline.1,
        "EXPERIMENTS.md differs from the uninterrupted baseline ({context})"
    );
}

/// The fault matrix: inject `kind` at I/O operation `index` for every index
/// until one runs past the daemon's last I/O op for the workload. At every
/// point: if the submit was acknowledged, the restarted daemon must recover
/// the job to byte-identical reports; if not, the restarted daemon must
/// still come up healthy (resurrecting the un-acked job is allowed — then
/// it too must finish identically).
fn fault_point_sweep(kind: &str) {
    let base = temp_dir(&format!("fault-{kind}"));
    let spec_path = write_spec(&base, "spec.json", &quick_spec("fault-matrix"));
    let baseline = batch_baseline(&base, &spec_path);
    let serve_args = ["--workers", "1", "--checkpoint-every", "2"];

    const CAP: usize = 250;
    let mut survived = None;
    for index in 0..CAP {
        let dir = base.join(format!("i{index}"));
        fs::create_dir_all(&dir).unwrap();
        let plan = format!("{index}={kind}");
        let context = format!("{kind} at op {index}");
        let mut daemon = Daemon::start(&dir, &serve_args, &[("SA_IO_FAULTS", &plan)]);

        let ack = daemon
            .request(&format!(
                r#"{{"op": "submit", "spec_path": "{}"}}"#,
                spec_path.display()
            ))
            .filter(|r| r.contains("\"ok\": true"));
        let job = ack.as_deref().map(extract_job);
        let finished = job
            .as_deref()
            .and_then(|job| daemon.watch(job))
            .is_some_and(|lines| lines.last().unwrap().contains("\"state\": \"finished\""));
        if finished && daemon.try_shutdown() {
            // The whole lifecycle ran without the injected fault firing:
            // `index` is past the daemon's last I/O op, the sweep is done.
            let out = dir
                .join("state/jobs")
                .join(job.as_deref().unwrap())
                .join("out");
            assert_byte_identical(&out, &baseline, &context);
            survived = Some(index);
            break;
        }
        drop(daemon); // SIGKILL whatever half-dead state remains

        // Restart with no fault plan: recovery must never panic or wedge.
        let mut daemon = Daemon::start(&dir, &serve_args, &[]);
        let statuses = daemon
            .request(r#"{"op": "status"}"#)
            .unwrap_or_else(|| panic!("recovered daemon must answer status ({context})"));
        assert!(statuses.contains("\"ok\": true"), "{context}: {statuses}");

        // An acked job must be recovered; an un-acked one may be
        // resurrected (its record hit disk before the crash) or absent.
        let recoverable = match &job {
            Some(job) => Some(job.clone()),
            None if statuses.contains("\"id\": \"j1\"") => Some("j1".to_string()),
            None => None,
        };
        if let Some(job) = recoverable {
            let lines = daemon
                .watch(&job)
                .unwrap_or_else(|| panic!("{context}: acked job {job} lost after restart"));
            let last = lines.last().unwrap();
            assert!(
                last.contains("\"state\": \"finished\""),
                "{context}: {last}"
            );
            let out = dir.join("state/jobs").join(&job).join("out");
            assert_byte_identical(&out, &baseline, &context);
        }
        assert!(
            daemon.try_shutdown(),
            "recovered daemon did not shut down cleanly ({context})"
        );
        fs::remove_dir_all(&dir).ok();
    }
    assert!(
        survived.is_some(),
        "fault sweep did not run past the last I/O op within {CAP} points"
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn fault_matrix_kill_at_every_io_point() {
    fault_point_sweep("kill");
}

#[test]
fn fault_matrix_torn_write_at_every_io_point() {
    fault_point_sweep("torn");
}

/// ENOSPC on the very first I/O op (the job record) degrades gracefully: a
/// structured `io` error, no ghost job on disk, and the next submit works.
#[test]
fn enospc_is_reported_and_leaves_no_ghost_job() {
    let dir = temp_dir("enospc");
    let spec_path = write_spec(&dir, "spec.json", &quick_spec("enospc"));
    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[("SA_IO_FAULTS", "0=enospc")]);
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let rejected = daemon.request(&submit).unwrap();
    assert!(rejected.contains("\"ok\": false"), "{rejected}");
    assert!(rejected.contains("\"code\": \"io\""), "{rejected}");
    assert!(
        !dir.join("state/jobs/j1").exists(),
        "rejected submit left a job dir that a restart would resurrect"
    );
    // The daemon is still healthy; the next submit (ops 1..) succeeds.
    let accepted = daemon.request(&submit).unwrap();
    assert!(accepted.contains("\"ok\": true"), "{accepted}");
    let job = extract_job(&accepted);
    let lines = daemon.watch(&job).unwrap();
    assert!(
        lines.last().unwrap().contains("\"state\": \"finished\""),
        "{lines:?}"
    );
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// Oversized frames get a structured `too-large` error and the connection
/// stays usable; malformed JSON gets `bad-request`.
#[test]
fn oversized_and_malformed_frames_are_rejected_structurally() {
    let dir = temp_dir("frames");
    let mut daemon = Daemon::start(&dir, &["--max-frame-bytes", "1024"], &[]);
    let (mut reader, mut writer) = daemon.connect().unwrap();

    // An oversized line — far past the frame bound.
    let huge = format!(r#"{{"op": "submit", "spec": "{}"}}"#, "x".repeat(64 * 1024));
    writeln!(writer, "{huge}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\": \"too-large\""), "{line}");

    // Same connection, next frame: still served.
    writeln!(writer, r#"{{"op": "ping"}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\": true"), "{line}");

    // Malformed JSON inside the bound.
    writeln!(writer, "this is not json").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\": \"bad-request\""), "{line}");

    // Nesting far past the parser's depth cap, inside the frame bound: a
    // structured refusal, not a stack overflow.
    writeln!(writer, "{}", "[".repeat(1000)).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"code\": \"bad-request\""), "{line}");
    assert!(line.contains("nesting deeper than"), "{line}");

    writeln!(writer, r#"{{"op": "ping"}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\": true"), "{line}");

    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// Admission control: with a bounded queue, a flood past the bound is shed
/// with `overloaded` + `retry_after_ms`; once the hog is cancelled the
/// queue admits again, and the daemon still drains cleanly afterwards.
#[test]
fn overload_is_shed_with_retry_after_and_recovers_on_drain() {
    let dir = temp_dir("overload");
    let spec_path = write_spec(&dir, "slow.json", &slow_spec("overload"));
    let mut daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--max-queued-units",
            "2",
            "--checkpoint-every",
            "100000",
        ],
        &[],
    );
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let first = daemon.request(&submit).unwrap();
    assert!(first.contains("\"ok\": true"), "{first}");
    let job = extract_job(&first);

    let shed = daemon.request(&submit).unwrap();
    assert!(shed.contains("\"ok\": false"), "{shed}");
    assert!(shed.contains("\"code\": \"overloaded\""), "{shed}");
    assert!(shed.contains("\"retry_after_ms\""), "{shed}");

    // Cancel the hog and wait for it to settle: the queue frees up and the
    // daemon admits work again.
    let cancelled = daemon.request(&format!(r#"{{"op": "cancel", "job": "{job}"}}"#));
    assert!(cancelled.unwrap().contains("\"ok\": true"));
    let lines = daemon.watch(&job).unwrap();
    assert!(
        lines.last().unwrap().contains("\"state\": \"cancelled\""),
        "{lines:?}"
    );
    let again = daemon.request(&submit).unwrap();
    assert!(again.contains("\"ok\": true"), "{again}");
    let job = extract_job(&again);
    let cancelled = daemon.request(&format!(r#"{{"op": "cancel", "job": "{job}"}}"#));
    assert!(cancelled.unwrap().contains("\"ok\": true"));
    // Clean drain after the shedding episode: every accepted job reaches a
    // terminal state and the daemon shuts down without wedging.
    assert!(daemon
        .request(r#"{"op": "drain"}"#)
        .unwrap()
        .contains("\"ok\": true"));
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// Per-client quotas on the wire: the noisy client is rejected with
/// `quota-exceeded`, the other client is still admitted.
#[test]
fn client_quota_rejects_only_the_noisy_client() {
    let dir = temp_dir("quota");
    let spec_path = write_spec(&dir, "slow.json", &slow_spec("quota"));
    let mut daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "1",
            "--client-quota",
            "3",
            "--checkpoint-every",
            "100000",
        ],
        &[],
    );
    let submit_as = |client: &str| {
        format!(
            r#"{{"op": "submit", "spec_path": "{}", "client": "{client}"}}"#,
            spec_path.display()
        )
    };
    // Two 2-unit jobs put the noisy client at 4 outstanding units > 3.
    let a = daemon.request(&submit_as("noisy")).unwrap();
    assert!(a.contains("\"ok\": true"), "{a}");
    let b = daemon.request(&submit_as("noisy")).unwrap();
    assert!(b.contains("\"code\": \"quota-exceeded\""), "{b}");
    let c = daemon.request(&submit_as("polite")).unwrap();
    assert!(c.contains("\"ok\": true"), "{c}");
    for job in [extract_job(&a), extract_job(&c)] {
        let response = daemon.request(&format!(r#"{{"op": "cancel", "job": "{job}"}}"#));
        assert!(response.unwrap().contains("\"ok\": true"));
    }
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// A connection that goes silent is disconnected by the idle deadline
/// instead of pinning a handler thread forever.
#[test]
fn idle_connections_are_disconnected() {
    let dir = temp_dir("idle");
    let mut daemon = Daemon::start(&dir, &["--idle-timeout-secs", "1"], &[]);
    let (mut reader, _writer) = daemon.connect().unwrap();
    let started = Instant::now();
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF from the idle disconnect, got: {line}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "idle disconnect took too long"
    );
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// `shutdown` does not wait for idle clients: with a request-mode client
/// connected and silent (default 300 s idle timeout), the daemon exits 0
/// within a second and the client reads EOF.
#[test]
fn shutdown_with_an_idle_client_is_prompt() {
    let dir = temp_dir("idle-shutdown");
    let mut daemon = Daemon::start(&dir, &[], &[]);
    let (mut idle, _idle_writer) = daemon.connect().unwrap();
    let started = Instant::now();
    let response = daemon.request(r#"{"op": "shutdown"}"#).unwrap();
    assert!(response.contains("\"ok\": true"), "{response}");
    let status = loop {
        if let Some(status) = daemon.child.try_wait().unwrap() {
            break status;
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown is waiting on the idle client"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(status.success(), "daemon exited {status}");
    let mut line = String::new();
    let n = idle.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF on the idle connection, got: {line}");
    fs::remove_dir_all(&dir).ok();
}

/// The unit watchdog end to end: a stuck unit is cancelled at its next
/// checkpoint boundary and the job fails with an explanatory error instead
/// of hanging.
#[test]
fn unit_watchdog_fails_stuck_jobs() {
    let dir = temp_dir("watchdog");
    let spec_path = write_spec(&dir, "slow.json", &slow_spec("watchdog"));
    let mut daemon = Daemon::start(
        &dir,
        &[
            "--workers",
            "2",
            "--unit-timeout-secs",
            "1",
            "--checkpoint-every",
            "500",
        ],
        &[],
    );
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let job = extract_job(&daemon.request(&submit).unwrap());
    let lines = daemon.watch(&job).unwrap();
    let last = lines.last().unwrap();
    assert!(last.contains("\"state\": \"failed\""), "{last}");
    assert!(last.contains("wall-clock"), "{last}");
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// Corrupt state at restart is quarantined — never a panic, never a refusal
/// to start: a torn `job.json` quarantines that job's directory; a torn
/// `result.json` quarantines just the record and recomputes the job to an
/// identical result.
#[test]
fn corrupt_state_is_quarantined_at_restart() {
    let dir = temp_dir("quarantine");
    let spec_path = write_spec(&dir, "spec.json", &quick_spec("quarantine"));
    let baseline = batch_baseline(&dir, &spec_path);
    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let job_a = extract_job(&daemon.request(&submit).unwrap());
    let job_b = extract_job(&daemon.request(&submit).unwrap());
    daemon.watch(&job_a).unwrap();
    daemon.watch(&job_b).unwrap();
    daemon.shutdown();

    // Tear job A's manifest and job B's terminal record; drop in an alien
    // directory with no manifest at all.
    let jobs = dir.join("state/jobs");
    fs::write(jobs.join(&job_a).join("job.json"), "{\"torn").unwrap();
    fs::write(jobs.join(&job_b).join("result.json"), "").unwrap();
    fs::create_dir_all(jobs.join("debris")).unwrap();

    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    // Job A (torn manifest) is quarantined wholesale.
    let status_a = daemon
        .request(&format!(r#"{{"op": "status", "job": "{job_a}"}}"#))
        .unwrap();
    assert!(status_a.contains("\"code\": \"unknown-job\""), "{status_a}");
    assert!(dir.join("state/quarantine").join(&job_a).exists());
    assert!(dir.join("state/quarantine").join("debris").exists());
    // Job B (torn terminal record) is recomputed to an identical result.
    let lines = daemon.watch(&job_b).unwrap();
    assert!(
        lines.last().unwrap().contains("\"state\": \"finished\""),
        "{lines:?}"
    );
    assert_byte_identical(&jobs.join(&job_b).join("out"), &baseline, "recomputed job");
    assert!(
        jobs.join(&job_b).join("result.json.quarantined").exists(),
        "torn result record should be kept for post-mortems"
    );
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// `gc` retention: terminal job directories are pruned to the newest N;
/// after a restart the pruned jobs are gone while the kept one survives.
#[test]
fn gc_prunes_terminal_job_directories() {
    let dir = temp_dir("gc");
    let spec_path = write_spec(&dir, "spec.json", &quick_spec("gc"));
    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let mut jobs = Vec::new();
    for _ in 0..3 {
        let job = extract_job(&daemon.request(&submit).unwrap());
        daemon.watch(&job).unwrap();
        jobs.push(job);
    }
    // Prune via the CLI client (covers `sa gc` end to end).
    let output = Command::new(SA)
        .args(["gc", "--socket"])
        .arg(&daemon.socket)
        .args(["--keep", "1"])
        .output()
        .expect("run sa gc");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&jobs[0]) && stdout.contains(&jobs[1]),
        "{stdout}"
    );

    let jobs_root = dir.join("state/jobs");
    assert!(!jobs_root.join(&jobs[0]).exists());
    assert!(!jobs_root.join(&jobs[1]).exists());
    assert!(jobs_root.join(&jobs[2]).exists());
    daemon.shutdown();

    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let pruned = daemon
        .request(&format!(r#"{{"op": "status", "job": "{}"}}"#, jobs[0]))
        .unwrap();
    assert!(pruned.contains("\"code\": \"unknown-job\""), "{pruned}");
    let kept = daemon
        .request(&format!(r#"{{"op": "status", "job": "{}"}}"#, jobs[2]))
        .unwrap();
    assert!(kept.contains("\"state\": \"finished\""), "{kept}");
    // Ids never regress onto pruned ones.
    let next = extract_job(&daemon.request(&submit).unwrap());
    assert_eq!(next, "j4", "id counter must not reuse pruned ids");
    daemon.watch(&next).unwrap();
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// The `watch --all` firehose: archived jobs replay as catch-up
/// `job-finished` lines, then live events stream as they happen.
#[test]
fn watch_all_streams_catch_up_then_live_events() {
    let dir = temp_dir("firehose");
    let spec_path = write_spec(&dir, "spec.json", &quick_spec("firehose"));
    let submit = format!(
        r#"{{"op": "submit", "spec_path": "{}"}}"#,
        spec_path.display()
    );
    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let archived = extract_job(&daemon.request(&submit).unwrap());
    daemon.watch(&archived).unwrap();
    daemon.shutdown();

    let mut daemon = Daemon::start(&dir, &["--workers", "1"], &[]);
    let (mut reader, mut writer) = daemon.connect().unwrap();
    writeln!(writer, r#"{{"op": "watch", "all": true}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\": true"), "{line}");
    // Catch-up: the archived job's terminal status replays first.
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"event\": \"job-finished\""), "{line}");
    assert!(line.contains(&format!("\"{archived}\"")), "{line}");

    // A live submit streams its full event sequence on the same connection.
    let live = extract_job(&daemon.request(&submit).unwrap());
    let mut saw_unit_event = false;
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "stream ended early"
        );
        if line.contains("\"event\": \"unit-started\"") {
            saw_unit_event = true;
        }
        if line.contains("\"event\": \"job-finished\"") && line.contains(&format!("\"{live}\"")) {
            break;
        }
    }
    assert!(saw_unit_event, "firehose carried no unit-level events");
    daemon.shutdown();
    // Daemon shutdown ends the stream with EOF, not a hang.
    line.clear();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        line.clear();
    }
    fs::remove_dir_all(&dir).ok();
}

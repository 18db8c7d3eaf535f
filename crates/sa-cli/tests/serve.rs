//! End-to-end tests for the `sa serve` daemon: protocol smoke over the Unix
//! socket, two concurrent clients, and the crash-recovery guarantee — a
//! daemon SIGKILLed mid-sweep and restarted must produce
//! `EXPERIMENTS.json`/`.md` byte-identical to an uninterrupted batch run,
//! on both step engines and both checkpoint formats.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SA: &str = env!("CARGO_BIN_EXE_sa");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sa-serve-test-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spec slow enough (adversarial min-plus-one on a torus) that a kill
/// lands mid-sweep, with a configurable step engine (a spec `engines` entry)
/// and checkpoint encoding.
fn slow_spec(engine: &str, format: &str) -> String {
    format!(
        r#"{{
            "name": "serve-kill",
            "graph_seed": 5,
            "checkpoint_format": "{format}",
            "tasks": [{{
                "id": "T", "kind": "stabilization",
                "algorithms": ["min-plus-one"],
                "topologies": [{{"kind": "torus", "rows": 32, "cols": 32}}],
                "schedulers": ["synchronous"],
                "engines": [{engine}],
                "seeds": 2, "max_rounds": 20000
            }}]
        }}"#
    )
}

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

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let socket = dir.join("sa.sock");
        let child = Command::new(SA)
            .args(["serve", "--socket"])
            .arg(&socket)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .args(["--workers", "2", "--checkpoint-every", "3"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let daemon = Daemon { child, socket };
        daemon.await_up();
        daemon
    }

    fn await_up(&self) {
        let status = Command::new(SA)
            .args(["ping", "--socket"])
            .arg(&self.socket)
            .args(["--wait", "30"])
            .stdout(Stdio::null())
            .status()
            .expect("run sa ping");
        assert!(status.success(), "daemon did not come up");
    }

    /// Raw protocol connection (consumes the hello line).
    fn connect(&self) -> (BufReader<UnixStream>, UnixStream) {
        let stream = UnixStream::connect(&self.socket).expect("connect");
        let writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        assert!(
            hello.contains("\"protocol_version\": 1"),
            "bad hello: {hello}"
        );
        (reader, writer)
    }

    fn request(&self, body: &str) -> String {
        let (mut reader, mut writer) = self.connect();
        writeln!(writer, "{body}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }

    fn shutdown(&mut self) {
        let response = self.request(r#"{"op": "shutdown"}"#);
        assert!(response.contains("\"ok\": true"), "{response}");
        self.child.wait().expect("daemon exits after shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn submit(daemon: &Daemon, spec_path: &Path, extra: &str) -> String {
    let response = daemon.request(&format!(
        r#"{{"op": "submit", "spec_path": "{}"{extra}}}"#,
        spec_path.display()
    ));
    assert!(
        response.contains("\"ok\": true"),
        "submit failed: {response}"
    );
    let marker = "\"job\": \"";
    let start = response.find(marker).expect("job id in response") + marker.len();
    let end = start + response[start..].find('"').unwrap();
    response[start..end].to_string()
}

/// Blocks until the job is terminal; returns the streamed event lines.
fn watch(daemon: &Daemon, job: &str) -> Vec<String> {
    let (reader, mut writer) = daemon.connect();
    writeln!(writer, r#"{{"op": "watch", "job": "{job}"}}"#).unwrap();
    let mut lines = Vec::new();
    for line in reader.lines() {
        let line = line.unwrap();
        let done = line.contains("\"event\": \"job-finished\"");
        lines.push(line);
        if done {
            return lines;
        }
    }
    panic!("stream ended without job-finished: {lines:?}");
}

/// Runs the batch baseline for `spec_path` and returns the report bytes.
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

/// The crash-recovery guarantee, end to end: SIGKILL the daemon once a unit
/// has checkpointed, restart it on the same state directory, and byte-diff
/// the recovered reports against an uninterrupted batch run. `engine` is
/// the spec's `engines` entry and `label` its unit-id label.
fn kill_restart_byte_diff(tag: &str, engine: &str, label: &str, format: &str) {
    let dir = temp_dir(tag);
    let spec_path = dir.join("spec.json");
    fs::write(&spec_path, slow_spec(engine, format)).unwrap();

    let mut daemon = Daemon::start(&dir);
    let job = submit(&daemon, &spec_path, "");
    let out_dir = dir.join("state").join("jobs").join(&job).join("out");

    // Wait for proof of mid-flight work (an in-flight checkpoint), then
    // SIGKILL — no graceful anything.
    let state_dir = out_dir.join("state");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
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
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.sigkill();
    assert!(
        !out_dir.join("EXPERIMENTS.json").exists(),
        "the kill landed after the job finished; spec is too small for this test"
    );

    // Restart on the same state dir: the daemon rescans, resumes the job
    // under its original id, and finishes it.
    let mut daemon = Daemon::start(&dir);
    let lines = watch(&daemon, &job);
    let last = lines.last().unwrap();
    assert!(last.contains("\"state\": \"finished\""), "{last}");
    assert!(last.contains("\"clean\": true"), "{last}");
    daemon.shutdown();

    let (baseline_json, baseline_md) = batch_baseline(&dir, &spec_path);
    let daemon_json = fs::read(out_dir.join("EXPERIMENTS.json")).unwrap();
    let daemon_md = fs::read(out_dir.join("EXPERIMENTS.md")).unwrap();
    let report = String::from_utf8_lossy(&daemon_json);
    for seed in 0..2 {
        let id = format!("--synchronous--{label}--s{seed}\"");
        assert!(report.contains(&id), "no unit id ending {id}: {report}");
    }
    assert_eq!(
        baseline_json, daemon_json,
        "EXPERIMENTS.json differs from an uninterrupted run"
    );
    assert_eq!(
        baseline_md, daemon_md,
        "EXPERIMENTS.md differs from an uninterrupted run"
    );
    fs::remove_dir_all(&dir).ok();
}

const SERIAL: &str = r#""serial""#;
const SHARDED: &str = r#"{"kind": "sharded", "threads": 2}"#;

#[test]
fn sigkill_recovery_serial_engine_json_checkpoints() {
    kill_restart_byte_diff("serial-json", SERIAL, "serial", "json");
}

#[test]
fn sigkill_recovery_serial_engine_binary_checkpoints() {
    kill_restart_byte_diff("serial-bin", SERIAL, "serial", "binary");
}

#[test]
fn sigkill_recovery_sharded_engine_json_checkpoints() {
    kill_restart_byte_diff("sharded-json", SHARDED, "sharded-2", "json");
}

#[test]
fn sigkill_recovery_sharded_engine_binary_checkpoints() {
    kill_restart_byte_diff("sharded-bin", SHARDED, "sharded-2", "binary");
}

/// Protocol smoke: handshake, ping, bad requests, submit by inline spec,
/// status, watch, cancel semantics, archived results across restart.
#[test]
fn protocol_smoke() {
    let dir = temp_dir("protocol");
    let mut daemon = Daemon::start(&dir);

    let pong = daemon.request(r#"{"op": "ping", "ignored_field": 42}"#);
    assert!(pong.contains("\"ok\": true"), "{pong}");
    assert!(pong.contains("\"protocol_version\": 1"), "{pong}");

    let bad = daemon.request("this is not json");
    assert!(bad.contains("\"ok\": false"), "{bad}");
    let unknown = daemon.request(r#"{"op": "frobnicate"}"#);
    assert!(unknown.contains("unknown op"), "{unknown}");
    let missing = daemon.request(r#"{"op": "cancel"}"#);
    assert!(missing.contains("cancel needs a"), "{missing}");
    let unknown_job = daemon.request(r#"{"op": "status", "job": "j999"}"#);
    assert!(unknown_job.contains("unknown job"), "{unknown_job}");

    // Inline-spec submit + watch to completion.
    let response = daemon.request(&format!(
        r#"{{"op": "submit", "spec": {}, "client": "smoke", "priority": 3}}"#,
        quick_spec("inline").replace('\n', " ")
    ));
    assert!(response.contains("\"ok\": true"), "{response}");
    assert!(response.contains("\"units\": 2"), "{response}");
    let job = submit(
        &daemon,
        &write_spec(&dir, "quick.json", &quick_spec("filed")),
        "",
    );
    let lines = watch(&daemon, &job);
    assert!(
        lines.last().unwrap().contains("\"state\": \"finished\""),
        "{lines:?}"
    );

    // Statuses survive a clean restart via the result archive.
    daemon.shutdown();
    let mut daemon = Daemon::start(&dir);
    let status = daemon.request(&format!(r#"{{"op": "status", "job": "{job}"}}"#));
    assert!(status.contains("\"state\": \"finished\""), "{status}");
    // Watching an archived job yields a synthetic job-finished immediately.
    let lines = watch(&daemon, &job);
    assert_eq!(lines.len(), 2, "{lines:?}"); // ok + job-finished
                                             // Fresh ids keep counting upward instead of clashing with archived ones.
    let next = submit(
        &daemon,
        &write_spec(&dir, "next.json", &quick_spec("next")),
        "",
    );
    assert_ne!(next, job);
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// A `watch` sent after its job finished (a quick job can finish between
/// the submit ack and the client's `watch`) still gets `ok` plus the job's
/// `job-finished`, carrying the status that `status` reports.
#[test]
fn watch_after_the_job_finished_replays_its_outcome() {
    let dir = temp_dir("late-watch");
    let mut daemon = Daemon::start(&dir);
    let job = submit(
        &daemon,
        &write_spec(&dir, "quick.json", &quick_spec("late")),
        "",
    );
    let live = watch(&daemon, &job);
    // The late watch: exactly `ok` plus the job's `job-finished`.
    let (reader, mut writer) = daemon.connect();
    writeln!(writer, r#"{{"op": "watch", "job": "{job}"}}"#).unwrap();
    let late: Vec<String> = reader.lines().take(2).map(Result::unwrap).collect();
    assert!(late[0].contains("\"ok\": true"), "{late:?}");
    assert_eq!(&late[1], live.last().unwrap(), "late watch differs");
    let status_of = |line: &str| {
        line[line.find("\"status\": ").unwrap()..]
            .trim()
            .to_string()
    };
    let reported = daemon.request(&format!(r#"{{"op": "status", "job": "{job}"}}"#));
    assert_eq!(status_of(&reported), status_of(&late[1]));
    assert!(late[1].contains("\"state\": \"finished\""), "{late:?}");
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

fn write_spec(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, body).unwrap();
    path
}

/// Two clients over the socket: both jobs run to completion and report
/// their own client labels and priorities.
#[test]
fn two_clients_share_the_daemon() {
    let dir = temp_dir("two-clients");
    let mut daemon = Daemon::start(&dir);
    let spec_a = write_spec(&dir, "a.json", &quick_spec("client-a"));
    let spec_b = write_spec(&dir, "b.json", &quick_spec("client-b"));
    let job_a = submit(&daemon, &spec_a, r#", "client": "alice", "priority": 1"#);
    let job_b = submit(&daemon, &spec_b, r#", "client": "bob", "priority": 9"#);
    assert_ne!(job_a, job_b);
    watch(&daemon, &job_a);
    watch(&daemon, &job_b);
    let statuses = daemon.request(r#"{"op": "status"}"#);
    for needle in [
        "\"client\": \"alice\"",
        "\"client\": \"bob\"",
        "\"priority\": 9",
    ] {
        assert!(statuses.contains(needle), "{statuses}");
    }
    daemon.shutdown();
    fs::remove_dir_all(&dir).ok();
}

//! The `serve` workload's client side.
//!
//! [`load`] is a closed loop: each client opens a fresh connection per job
//! (as `sa submit --watch` does), submits the job's spec inline, watches it
//! to `job-finished`, and only then starts its next job. Every step is
//! timestamped on one clock. With a firehose subscriber (`watch` with
//! `all: true`, gap-free) the daemon's own events are timestamped too, which
//! splits each job into queue, run and finish phases even when its units
//! start before the client's `watch` arrives.
//!
//! [`replay`] re-runs each finished job's report and archive step (the part
//! of the daemon that runs between a job's last `unit-finished` and its
//! `job-finished`) on the same inputs, read back from the state directory,
//! with a span around each layer call.

use crate::trace::{vm_hwm_bytes, write, Tracer};
use sa_bench::sweep::{
    aggregate_rows, render_json, render_markdown, run_instant_tasks, SweepSpec, UnitResult,
};
use sa_model::json::JsonValue;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A daemon that answers nothing for this long counts as a failed job.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// What `run.py` asks the load generator to do.
pub struct Plan {
    pub socket: PathBuf,
    /// Job specs; `sequence` indexes into them.
    pub specs: Vec<JsonValue>,
    /// The order in which jobs draw specs (shared by all clients).
    pub sequence: Vec<usize>,
    pub clients: usize,
    /// Clients start no new job after this long...
    pub seconds: f64,
    /// ...once at least this many jobs have finished.
    pub min_jobs: usize,
    pub firehose: bool,
    /// The daemon's peak resident set is read when this many jobs have
    /// finished, so it reflects a fixed amount of work.
    pub rss_after_jobs: usize,
    pub daemon_pid: u32,
}

impl Plan {
    pub fn from_json(doc: &JsonValue) -> Result<Plan, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("plan: missing number \"{key}\""))
        };
        let specs = doc
            .get("specs")
            .and_then(JsonValue::as_array)
            .ok_or("plan: missing \"specs\"")?
            .to_vec();
        let sequence = doc
            .get("sequence")
            .and_then(JsonValue::as_array)
            .ok_or("plan: missing \"sequence\"")?
            .iter()
            .map(|v| v.as_usize().filter(|&i| i < specs.len()))
            .collect::<Option<Vec<_>>>()
            .ok_or("plan: \"sequence\" must index \"specs\"")?;
        if sequence.is_empty() {
            return Err("plan: empty \"sequence\"".to_string());
        }
        Ok(Plan {
            socket: PathBuf::from(
                doc.get("socket")
                    .and_then(JsonValue::as_str)
                    .ok_or("plan: missing \"socket\"")?,
            ),
            specs,
            sequence,
            clients: num("clients")? as usize,
            seconds: num("seconds")?,
            min_jobs: num("min_jobs")? as usize,
            firehose: matches!(doc.get("firehose"), Some(JsonValue::Bool(true))),
            rss_after_jobs: num("rss_after_jobs")? as usize,
            daemon_pid: num("daemon_pid")? as u32,
        })
    }
}

/// One newline-delimited JSON connection to the daemon.
struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    fn open(socket: &Path) -> Result<Connection, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, request: &JsonValue) -> Result<(), String> {
        let mut line = request.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next line, or `None` at end of stream.
    fn recv(&mut self) -> Result<Option<JsonValue>, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Ok(None);
        }
        JsonValue::parse(line.trim_end())
            .map(Some)
            .map_err(|e| format!("daemon sent bad JSON: {e}"))
    }

    fn expect(&mut self) -> Result<JsonValue, String> {
        self.recv()?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }
}

fn str_field<'v>(value: &'v JsonValue, key: &str) -> Option<&'v str> {
    value.get(key).and_then(JsonValue::as_str)
}

fn op(name: &str, fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::object(
        std::iter::once(("op".to_string(), JsonValue::String(name.to_string())))
            .chain(fields.into_iter().map(|(k, v)| (k.to_string(), v))),
    )
}

/// One job as its client saw it. Times are nanoseconds since the load
/// started; a missing time means the job never got that far.
#[derive(Default)]
struct JobRecord {
    client: usize,
    spec: usize,
    job: Option<String>,
    connect: u64,
    hello: Option<u64>,
    submit: Option<u64>,
    ack: Option<u64>,
    finished: Option<u64>,
    status: Option<JsonValue>,
    error: Option<String>,
}

impl JobRecord {
    fn to_json(&self) -> JsonValue {
        let time = |t: Option<u64>| t.map_or(JsonValue::Null, |t| JsonValue::Number(t as f64));
        JsonValue::object([
            ("client".to_string(), JsonValue::Number(self.client as f64)),
            ("spec".to_string(), JsonValue::Number(self.spec as f64)),
            (
                "job".to_string(),
                self.job.clone().map_or(JsonValue::Null, JsonValue::String),
            ),
            ("connect".to_string(), time(Some(self.connect))),
            ("hello".to_string(), time(self.hello)),
            ("submit".to_string(), time(self.submit)),
            ("ack".to_string(), time(self.ack)),
            ("finished".to_string(), time(self.finished)),
            (
                "status".to_string(),
                self.status.clone().unwrap_or(JsonValue::Null),
            ),
            (
                "error".to_string(),
                self.error
                    .clone()
                    .map_or(JsonValue::Null, JsonValue::String),
            ),
        ])
    }
}

/// Runs one job: connect, `hello`, `submit`, ack, `watch`, events until the
/// job's `job-finished`.
fn run_job(plan: &Plan, client: usize, spec: usize, origin: Instant) -> JobRecord {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut record = JobRecord {
        client,
        spec,
        connect: now(),
        ..JobRecord::default()
    };
    let mut steps = || -> Result<(), String> {
        let mut conn = Connection::open(&plan.socket)?;
        conn.expect()?;
        record.hello = Some(now());
        record.submit = Some(now());
        conn.send(&op(
            "submit",
            vec![
                ("spec", plan.specs[spec].clone()),
                ("client", JsonValue::String(format!("c{client}"))),
            ],
        ))?;
        let ack = conn.expect()?;
        record.ack = Some(now());
        let job = str_field(&ack, "job")
            .filter(|_| matches!(ack.get("ok"), Some(JsonValue::Bool(true))))
            .ok_or_else(|| format!("submit refused: {}", ack.render()))?
            .to_string();
        record.job = Some(job.clone());
        conn.send(&op("watch", vec![("job", JsonValue::String(job.clone()))]))?;
        conn.expect()?;
        loop {
            let event = conn.expect()?;
            if str_field(&event, "event") == Some("job-finished")
                && str_field(&event, "job") == Some(job.as_str())
            {
                record.finished = Some(now());
                record.status = event.get("status").cloned();
                return Ok(());
            }
        }
    };
    if let Err(e) = steps() {
        record.error = Some(e);
    }
    record
}

/// Firehose subscriber: timestamps every event of every job until the
/// connection is shut down from outside.
fn firehose(
    conn: &mut Connection,
    origin: Instant,
    finished: &Mutex<HashSet<String>>,
) -> Vec<JsonValue> {
    let mut events = Vec::new();
    while let Ok(Some(event)) = conn.recv() {
        let t = origin.elapsed().as_nanos() as u64;
        let kind = str_field(&event, "event").unwrap_or("").to_string();
        let job = str_field(&event, "job").unwrap_or("").to_string();
        if kind == "job-finished" {
            finished
                .lock()
                .expect("firehose bookkeeping lock poisoned")
                .insert(job.clone());
        }
        events.push(JsonValue::object([
            ("t".to_string(), JsonValue::Number(t as f64)),
            ("event".to_string(), JsonValue::String(kind)),
            ("job".to_string(), JsonValue::String(job)),
            (
                "unit".to_string(),
                str_field(&event, "unit")
                    .map_or(JsonValue::Null, |u| JsonValue::String(u.to_string())),
            ),
        ]));
    }
    events
}

/// Runs the closed loop and returns `{window_ns, daemon_hwm_bytes, jobs,
/// events}` (`daemon_hwm_bytes` is 0 if fewer than `rss_after_jobs` jobs
/// finished).
pub fn load(plan: &Plan) -> Result<JsonValue, String> {
    let origin = Instant::now();
    let finished = Mutex::new(HashSet::new());
    let mut hose = if plan.firehose {
        let mut conn = Connection::open(&plan.socket)?;
        conn.expect()?;
        conn.send(&op("watch", vec![("all", JsonValue::Bool(true))]))?;
        conn.expect()?;
        Some(conn)
    } else {
        None
    };
    let hose_stream = match &hose {
        Some(conn) => Some(
            conn.writer
                .try_clone()
                .map_err(|e| format!("socket: {e}"))?,
        ),
        None => None,
    };

    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let daemon_hwm = AtomicU64::new(0);
    let deadline = Duration::from_secs_f64(plan.seconds);
    let (records, window_ns, events) = std::thread::scope(|scope| {
        let hose_thread = hose
            .as_mut()
            .map(|conn| scope.spawn(|| firehose(conn, origin, &finished)));
        let clients: Vec<_> = (0..plan.clients)
            .map(|client| {
                let (cursor, done, daemon_hwm) = (&cursor, &done, &daemon_hwm);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while origin.elapsed() < deadline || done.load(Ordering::SeqCst) < plan.min_jobs
                    {
                        let k = cursor.fetch_add(1, Ordering::SeqCst);
                        let spec = plan.sequence[k % plan.sequence.len()];
                        let record = run_job(plan, client, spec, origin);
                        let failed = record.error.is_some();
                        records.push(record);
                        if done.fetch_add(1, Ordering::SeqCst) + 1 == plan.rss_after_jobs {
                            let hwm = vm_hwm_bytes(&plan.daemon_pid.to_string());
                            daemon_hwm.store(hwm, Ordering::Relaxed);
                        }
                        if failed {
                            break;
                        }
                    }
                    records
                })
            })
            .collect();
        let records: Vec<JobRecord> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("load client panicked"))
            .collect();
        let window_ns = origin.elapsed().as_nanos() as u64;
        let events = hose_thread.map(|thread| {
            // Let the firehose catch up with every job the clients saw end.
            let wanted: Vec<&str> = records.iter().filter_map(|r| r.job.as_deref()).collect();
            let give_up = Instant::now() + Duration::from_secs(10);
            while Instant::now() < give_up {
                let seen = finished.lock().expect("firehose bookkeeping lock poisoned");
                if wanted.iter().all(|job| seen.contains(*job)) {
                    break;
                }
                drop(seen);
                std::thread::sleep(Duration::from_millis(1));
            }
            if let Some(stream) = &hose_stream {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            thread.join().expect("firehose thread panicked")
        });
        (records, window_ns, events)
    });
    Ok(JsonValue::object([
        ("window_ns".to_string(), JsonValue::Number(window_ns as f64)),
        (
            "daemon_hwm_bytes".to_string(),
            JsonValue::Number(daemon_hwm.into_inner() as f64),
        ),
        (
            "jobs".to_string(),
            JsonValue::Array(records.iter().map(JobRecord::to_json).collect()),
        ),
        (
            "events".to_string(),
            JsonValue::Array(events.unwrap_or_default()),
        ),
    ]))
}

/// Re-runs the report and archive step of every finished job under
/// `state_dir` into `out_dir`. Returns the ids of jobs whose re-rendered
/// `EXPERIMENTS.json` differs from the daemon's.
pub fn replay(
    state_dir: &Path,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<String>, String> {
    let jobs_dir = state_dir.join("jobs");
    let mut jobs: Vec<(u64, String)> = std::fs::read_dir(&jobs_dir)
        .map_err(|e| format!("cannot read {}: {e}", jobs_dir.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            let num = name.strip_prefix('j')?.parse().ok()?;
            Some((num, name))
        })
        .collect();
    jobs.sort();
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let mut mismatched = Vec::new();
    for (_, job) in jobs {
        let src = jobs_dir.join(&job);
        if !src.join("result.json").exists() {
            continue;
        }
        let dst = out_dir.join(&job);
        let dst_state = dst.join("out").join("state");
        std::fs::create_dir_all(&dst_state)
            .map_err(|e| format!("cannot create {}: {e}", dst_state.display()))?;

        let job_text = read(&src.join("job.json"))?;
        write(tracer, &job, &dst.join("job.json"), job_text.as_bytes())?;
        let job_doc = JsonValue::parse(&job_text).map_err(|e| format!("{job}: job.json: {e}"))?;
        let spec = SweepSpec::from_json(job_doc.get("spec").ok_or("job.json has no spec")?)?;
        let mut completed = Vec::new();
        for unit in spec.execution_units() {
            let name = format!("{}.done.json", unit.id());
            let text = read(&src.join("out").join("state").join(&name))?;
            let result = JsonValue::parse(&text)
                .ok()
                .as_ref()
                .and_then(UnitResult::from_json)
                .ok_or(format!("{job}: unreadable {name}"))?;
            write(tracer, &job, &dst_state.join(&name), text.as_bytes())?;
            completed.push((unit, result));
        }
        let (_, (rows, artifacts)) = tracer.span("report.aggregate", &job, || {
            let (mut rows, artifacts) = run_instant_tasks(&spec);
            rows.extend(aggregate_rows(&completed));
            (rows, artifacts)
        });
        let (_, (json, markdown)) = tracer.span("report.render", &job, || {
            (
                render_json(&spec, &rows, &completed).render_pretty(),
                render_markdown(&spec, &rows, &artifacts, &completed),
            )
        });
        write(
            tracer,
            &job,
            &dst.join("out").join("EXPERIMENTS.json"),
            json.as_bytes(),
        )?;
        write(
            tracer,
            &job,
            &dst.join("out").join("EXPERIMENTS.md"),
            markdown.as_bytes(),
        )?;
        let result_text = read(&src.join("result.json"))?;
        write(
            tracer,
            &job,
            &dst.join("result.json"),
            result_text.as_bytes(),
        )?;
        if read(&src.join("out").join("EXPERIMENTS.json"))? != json {
            mismatched.push(job);
        }
    }
    Ok(mismatched)
}

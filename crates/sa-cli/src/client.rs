//! Client subcommands for a running `sa serve` daemon: `submit`, `status`,
//! `watch`, `cancel`, `gc`, `drain`, `shutdown`, `ping`.
//!
//! Each command opens one connection to the daemon's Unix socket, consumes
//! the `hello` handshake line (refusing daemons with a newer
//! `protocol_version` than this binary speaks), sends one request line and
//! prints the response. `watch` — and `submit --watch` — then echo the
//! NDJSON event stream to stdout until `job-finished`, so a shell script
//! can block on a job with `sa watch <job> --socket <path>`. The wire
//! format is specified in `docs/serve-protocol.md`.

use crate::serve::PROTOCOL_VERSION;
use sa_model::json::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Connection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Connection {
    /// Connects and consumes the `hello` handshake line.
    fn open(socket: &PathBuf) -> Result<Self, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        let mut connection = Connection {
            reader: BufReader::new(stream),
            writer,
        };
        let hello = connection.read_line()?;
        let version = hello
            .get("protocol_version")
            .and_then(|v| v.as_f64())
            .map(|v| v as u64);
        match version {
            Some(version) if version <= PROTOCOL_VERSION => Ok(connection),
            Some(version) => Err(format!(
                "daemon speaks protocol v{version}, this client only v{PROTOCOL_VERSION} and older"
            )),
            None => Err("daemon did not send a protocol handshake".to_string()),
        }
    }

    fn send(&mut self, request: &JsonValue) -> Result<(), String> {
        self.writer
            .write_all(request.render().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))
    }

    fn read_line(&mut self) -> Result<JsonValue, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        JsonValue::parse(line.trim()).map_err(|e| format!("bad response line: {e}"))
    }

    /// Sends a request and reads its (single-line) response, failing on
    /// `"ok": false`.
    fn round_trip(&mut self, request: &JsonValue) -> Result<JsonValue, String> {
        self.send(request)?;
        let response = self.read_line()?;
        match response.get("ok") {
            Some(JsonValue::Bool(true)) => Ok(response),
            _ => Err(response
                .get("error")
                .and_then(|e| e.as_str())
                .unwrap_or("daemon reported an error")
                .to_string()),
        }
    }

    /// Echoes NDJSON events to stdout until `job-finished`; returns its
    /// final status, if the stream carried one.
    fn stream_events(&mut self) -> Result<Option<JsonValue>, String> {
        loop {
            let event = self.read_line()?;
            println!("{}", event.render());
            if event.get("event").and_then(|e| e.as_str()) == Some("job-finished") {
                return Ok(event.get("status").cloned());
            }
        }
    }
}

/// Parsed common client arguments: `--socket` plus positionals and the
/// flags a specific subcommand cares about.
struct ClientArgs {
    socket: PathBuf,
    positional: Vec<String>,
    priority: i64,
    client: String,
    watch: bool,
    all: bool,
    wait: Option<Duration>,
    keep: Option<u64>,
    max_age_secs: Option<u64>,
}

fn parse_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let mut parsed = ClientArgs {
        socket: PathBuf::new(),
        positional: Vec::new(),
        priority: 0,
        client: whoami(),
        watch: false,
        all: false,
        wait: None,
        keep: None,
        max_age_secs: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--socket" => parsed.socket = PathBuf::from(flag_value("--socket")?),
            "--priority" => {
                parsed.priority = flag_value("--priority")?
                    .parse()
                    .map_err(|_| "--priority must be an integer".to_string())?;
            }
            "--client" => parsed.client = flag_value("--client")?,
            "--watch" => parsed.watch = true,
            "--all" => parsed.all = true,
            "--keep" => {
                parsed.keep = Some(
                    flag_value("--keep")?
                        .parse()
                        .map_err(|_| "--keep must be an integer".to_string())?,
                );
            }
            "--max-age-secs" => {
                parsed.max_age_secs = Some(
                    flag_value("--max-age-secs")?
                        .parse()
                        .map_err(|_| "--max-age-secs must be an integer (seconds)".to_string())?,
                );
            }
            "--wait" => {
                let secs: u64 = flag_value("--wait")?
                    .parse()
                    .map_err(|_| "--wait must be an integer (seconds)".to_string())?;
                parsed.wait = Some(Duration::from_secs(secs));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag \"{other}\"")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    if parsed.socket.as_os_str().is_empty() {
        return Err("missing --socket <path>".to_string());
    }
    Ok(parsed)
}

fn whoami() -> String {
    std::env::var("USER").unwrap_or_else(|_| "anonymous".to_string())
}

/// `sa submit <spec.json> --socket S [--priority N] [--client NAME] [--watch]`.
pub fn submit(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    let [spec_path] = parsed.positional.as_slice() else {
        return Err("sa submit needs exactly one spec file".to_string());
    };
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read spec {spec_path}: {e}"))?;
    let spec_doc =
        JsonValue::parse(&text).map_err(|e| format!("spec {spec_path} is not valid JSON: {e}"))?;
    let mut connection = Connection::open(&parsed.socket)?;
    let response = connection.round_trip(&JsonValue::object([
        ("op".to_string(), JsonValue::String("submit".to_string())),
        ("spec".to_string(), spec_doc),
        (
            "priority".to_string(),
            JsonValue::Number(parsed.priority as f64),
        ),
        ("client".to_string(), JsonValue::String(parsed.client)),
    ]))?;
    println!("{}", response.render());
    if !parsed.watch {
        return Ok(ExitCode::SUCCESS);
    }
    let job = response
        .get("job")
        .and_then(|j| j.as_str())
        .ok_or("daemon response carried no job id")?
        .to_string();
    watch_job(&mut connection, &job)
}

fn watch_job(connection: &mut Connection, job: &str) -> Result<ExitCode, String> {
    connection.round_trip(&JsonValue::object([
        ("op".to_string(), JsonValue::String("watch".to_string())),
        ("job".to_string(), JsonValue::String(job.to_string())),
    ]))?;
    let status = connection.stream_events()?;
    let clean = status
        .as_ref()
        .and_then(|s| s.get("clean"))
        .is_some_and(|c| matches!(c, JsonValue::Bool(true)));
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `sa status [job] --socket S`.
pub fn status(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    let mut connection = Connection::open(&parsed.socket)?;
    let mut fields = vec![("op".to_string(), JsonValue::String("status".to_string()))];
    match parsed.positional.as_slice() {
        [] => {}
        [job] => fields.push(("job".to_string(), JsonValue::String(job.clone()))),
        _ => return Err("sa status takes at most one job id".to_string()),
    }
    let response = connection.round_trip(&JsonValue::object(fields))?;
    println!("{}", response.render_pretty());
    Ok(ExitCode::SUCCESS)
}

/// `sa watch <job> --socket S` — blocks until the job is terminal; exit
/// code reflects a clean finish. `sa watch --all --socket S` streams the
/// firehose instead: archived jobs replay as `job-finished` catch-up lines,
/// then every event of every job, until the daemon shuts down (Ctrl-C to
/// stop earlier).
pub fn watch(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    if parsed.all {
        if !parsed.positional.is_empty() {
            return Err("sa watch --all takes no job id".to_string());
        }
        let mut connection = Connection::open(&parsed.socket)?;
        connection.round_trip(&JsonValue::object([
            ("op".to_string(), JsonValue::String("watch".to_string())),
            ("all".to_string(), JsonValue::Bool(true)),
        ]))?;
        loop {
            match connection.read_line() {
                Ok(event) => println!("{}", event.render()),
                // The stream ends only when the daemon goes away.
                Err(_) => return Ok(ExitCode::SUCCESS),
            }
        }
    }
    let [job] = parsed.positional.as_slice() else {
        return Err("sa watch needs exactly one job id (or --all)".to_string());
    };
    let mut connection = Connection::open(&parsed.socket)?;
    watch_job(&mut connection, job)
}

/// `sa cancel <job> --socket S`.
pub fn cancel(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    let [job] = parsed.positional.as_slice() else {
        return Err("sa cancel needs exactly one job id".to_string());
    };
    let mut connection = Connection::open(&parsed.socket)?;
    connection.round_trip(&JsonValue::object([
        ("op".to_string(), JsonValue::String("cancel".to_string())),
        ("job".to_string(), JsonValue::String(job.clone())),
    ]))?;
    println!("cancelled {job}");
    Ok(ExitCode::SUCCESS)
}

/// `sa gc --socket S [--keep N] [--max-age-secs SECS]` — prunes archived
/// (terminal) job directories on the daemon; with no flags, the daemon's
/// own `--keep`/`--keep-age-secs` retention settings apply.
pub fn gc(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    if !parsed.positional.is_empty() {
        return Err("sa gc takes no positional arguments".to_string());
    }
    let mut fields = vec![("op".to_string(), JsonValue::String("gc".to_string()))];
    if let Some(keep) = parsed.keep {
        fields.push(("keep".to_string(), JsonValue::Number(keep as f64)));
    }
    if let Some(age) = parsed.max_age_secs {
        fields.push(("max_age_secs".to_string(), JsonValue::Number(age as f64)));
    }
    let mut connection = Connection::open(&parsed.socket)?;
    let response = connection.round_trip(&JsonValue::object(fields))?;
    println!("{}", response.render());
    Ok(ExitCode::SUCCESS)
}

/// A bare op with no arguments (`drain` / `shutdown`).
fn simple_op(args: &[String], op: &str) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    if !parsed.positional.is_empty() {
        return Err(format!("sa {op} takes no positional arguments"));
    }
    let mut connection = Connection::open(&parsed.socket)?;
    connection.round_trip(&JsonValue::object([(
        "op".to_string(),
        JsonValue::String(op.to_string()),
    )]))?;
    println!("{op}: ok");
    Ok(ExitCode::SUCCESS)
}

/// `sa drain --socket S` — blocks until every accepted job is terminal.
pub fn drain(args: &[String]) -> Result<ExitCode, String> {
    simple_op(args, "drain")
}

/// `sa shutdown --socket S` — stops the daemon; in-flight units checkpoint
/// and resume on the next `sa serve`.
pub fn shutdown(args: &[String]) -> Result<ExitCode, String> {
    simple_op(args, "shutdown")
}

/// `sa ping --socket S [--wait SECS]` — handshake check; `--wait` retries
/// until the daemon is up (CI uses this to await daemon start), first after
/// 1 ms, then doubling the pause up to 50 ms.
pub fn ping(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_client_args(args)?;
    if !parsed.positional.is_empty() {
        return Err("sa ping takes no positional arguments".to_string());
    }
    let deadline = parsed.wait.map(|wait| Instant::now() + wait);
    let mut pause = Duration::from_millis(1);
    loop {
        let attempt = Connection::open(&parsed.socket).and_then(|mut connection| {
            connection.round_trip(&JsonValue::object([(
                "op".to_string(),
                JsonValue::String("ping".to_string()),
            )]))
        });
        match attempt {
            Ok(response) => {
                println!("{}", response.render());
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => match deadline {
                Some(deadline) if Instant::now() < deadline => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(50));
                }
                _ => return Err(e),
            },
        }
    }
}

//! Set-up probes: spawn a command again and again and time each spawn to
//! the command's first readiness signal.
//!
//! The probes run in this compiled process rather than in `run.py`, so the
//! interpreter's own fork and pipe wake-up stay out of `setup_s`; the
//! operating system's spawn of the program stays in, as its users pay it.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one probe may wait for readiness.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// The readiness signal a probe waits for.
pub enum Ready {
    /// A line on standard output containing the text.
    Stdout(String),
    /// A line on standard error containing the text.
    Stderr(String),
    /// A `hello` greeting read from a Unix socket at this path.
    Socket(String),
}

impl Ready {
    /// Parses `stdout:TEXT`, `stderr:TEXT` or `socket:PATH`.
    pub fn parse(arg: &str) -> Result<Ready, String> {
        match arg.split_once(':') {
            Some(("stdout", text)) => Ok(Ready::Stdout(text.to_string())),
            Some(("stderr", text)) => Ok(Ready::Stderr(text.to_string())),
            Some(("socket", path)) => Ok(Ready::Socket(path.to_string())),
            _ => Err(format!("bad readiness signal {arg:?}")),
        }
    }
}

/// Spawns `cmd` `count` times, one after the other, with every `{k}` in its
/// arguments replaced by the probe's index; returns each probe's seconds
/// from spawn to readiness. Each child is killed and reaped once ready.
pub fn probe(count: usize, ready: &Ready, cmd: &[String]) -> Result<Vec<f64>, String> {
    let (program, args) = cmd.split_first().ok_or("setup: no command")?;
    let mut samples = Vec::with_capacity(count);
    for k in 0..count {
        let mut command = Command::new(program);
        command
            .args(args.iter().map(|a| a.replace("{k}", &k.to_string())))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match ready {
            Ready::Stdout(_) => command.stdout(Stdio::piped()),
            Ready::Stderr(_) => command.stderr(Stdio::piped()),
            Ready::Socket(_) => &mut command,
        };
        let start = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {program}: {e}"))?;
        let waited = wait_ready(&mut child, ready, k, start);
        let _ = child.kill();
        child
            .wait()
            .map_err(|e| format!("cannot reap {program}: {e}"))?;
        samples.push(waited.map_err(|e| format!("{program}: {e}"))?);
    }
    Ok(samples)
}

fn wait_ready(child: &mut Child, ready: &Ready, k: usize, start: Instant) -> Result<f64, String> {
    let (stream, marker): (Box<dyn Read>, &str) = match ready {
        Ready::Stdout(marker) => (Box::new(child.stdout.take().expect("piped")), marker),
        Ready::Stderr(marker) => (Box::new(child.stderr.take().expect("piped")), marker),
        Ready::Socket(path) => {
            let path = path.replace("{k}", &k.to_string());
            let stream = loop {
                match UnixStream::connect(&path) {
                    Ok(stream) => break stream,
                    Err(e) if start.elapsed() > READY_TIMEOUT => {
                        return Err(format!("never accepted on {path}: {e}"))
                    }
                    Err(_) => std::thread::sleep(Duration::from_micros(200)),
                }
            };
            stream
                .set_read_timeout(Some(READY_TIMEOUT))
                .map_err(|e| format!("socket: {e}"))?;
            (Box::new(stream), "hello")
        }
    };
    let mut lines = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = lines
            .read_line(&mut line)
            .map_err(|e| format!("reading for readiness: {e}"))?;
        if n == 0 {
            return Err(format!("ended before printing {marker:?}"));
        }
        if line.contains(marker) {
            return Ok(start.elapsed().as_secs_f64());
        }
    }
}

//! `sa-benchmark` — the compiled half of `benchmark/run.py`.
//!
//! ```text
//! sa-benchmark load <plan.json> <records.json>
//! sa-benchmark trace-scale <spec.json> <out-dir> <spans.json>
//! sa-benchmark trace-verify <spec.json> <out-dir> <spans.json>
//! sa-benchmark trace-serve <state-dir> <out-dir> <spans.json>
//! sa-benchmark setup <samples.json> <count> stdout:TEXT|stderr:TEXT|socket:PATH <cmd>...
//! ```
//!
//! `setup` times spawns of a command to its readiness signal (see
//! [`setup::probe`]). `load` drives a running `sa serve` daemon (see
//! [`serve::load`]). The
//! `trace-*` commands repeat a workload's layer calls through the
//! repository's public API with a span around each, and write the spans
//! with the traced wall time when they finish.

mod scale;
mod serve;
mod setup;
mod trace;
mod verify;

use sa_model::json::JsonValue;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

fn write_json(path: &str, doc: &JsonValue) -> Result<(), String> {
    std::fs::write(path, doc.render()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn traced(
    spans_path: &str,
    body: impl FnOnce(&mut Tracer) -> Result<Vec<String>, String>,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mismatched = body(&mut tracer)?;
    let wall_ns = tracer.now_ns();
    write_json(
        spans_path,
        &JsonValue::object([
            ("wall_ns".to_string(), JsonValue::Number(wall_ns as f64)),
            ("spans".to_string(), tracer.to_json()),
            (
                "mismatched".to_string(),
                JsonValue::Array(mismatched.into_iter().map(JsonValue::String).collect()),
            ),
        ]),
    )
}

fn run(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("{}: missing argument {i}", args[0]))
    };
    match args.first().map(String::as_str) {
        Some("load") => {
            let text =
                std::fs::read_to_string(arg(1)?).map_err(|e| format!("cannot read plan: {e}"))?;
            let plan = serve::Plan::from_json(
                &JsonValue::parse(&text).map_err(|e| format!("bad plan: {e}"))?,
            )?;
            write_json(arg(2)?, &serve::load(&plan)?)
        }
        Some("trace-scale") => traced(arg(3)?, |tracer| {
            scale::run(Path::new(arg(1)?), Path::new(arg(2)?), tracer).map(|()| Vec::new())
        }),
        Some("trace-verify") => traced(arg(3)?, |tracer| {
            verify::run(Path::new(arg(1)?), Path::new(arg(2)?), tracer).map(|()| Vec::new())
        }),
        Some("trace-serve") => traced(arg(3)?, |tracer| {
            serve::replay(Path::new(arg(1)?), Path::new(arg(2)?), tracer)
        }),
        Some("setup") => {
            let count = arg(2)?
                .parse()
                .map_err(|e| format!("setup: bad count: {e}"))?;
            let ready = setup::Ready::parse(arg(3)?)?;
            let samples = setup::probe(count, &ready, &args[4..])?;
            write_json(
                arg(1)?,
                &JsonValue::Array(samples.into_iter().map(JsonValue::Number).collect()),
            )
        }
        _ => Err(
            "usage: sa-benchmark load|trace-scale|trace-verify|trace-serve|setup ...".to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sa-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

//! `sa verify <spec.json> [--out DIR]` — exhaustive model checking.
//!
//! Expands the spec's `verify` tasks into units ([`sa_bench::verify`]),
//! explores each instance's configuration space, and writes:
//!
//! ```text
//! VERIFY.json               # machine-readable results (byte-deterministic)
//! VERIFY.md                 # human-readable table
//! traces/<unit>.<prop>.json # counterexample traces (violated units only)
//! traces/<unit>.<prop>.txt  # ...human-readable transcript
//! ```
//!
//! under the output directory (default `verify/<spec-name>/`). The exit
//! code reflects the verdict: success only when every unit certifies both
//! closure and convergence. Progress, and each unit's elapsed time and
//! explored states per second, go to stderr; the state budget is
//! the spec's `max_states`, else the built-in default (see
//! `docs/verify.md`).

use crate::runner::load_spec;
use sa_bench::jobs::write_atomic;
use sa_bench::verify::{
    mode_label, render_verify_json, render_verify_markdown, trace_json, trace_transcript,
    verify_units,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub fn verify(args: &[String]) -> Result<ExitCode, String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = Some(PathBuf::from(
                    it.next().ok_or("--out needs a value")?.clone(),
                ));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag \"{other}\"")),
            _ if spec_path.is_none() => spec_path = Some(PathBuf::from(arg)),
            other => return Err(format!("unexpected argument \"{other}\"")),
        }
    }
    let spec_path = spec_path.ok_or("usage: sa verify <spec.json> [--out DIR]")?;
    let spec = load_spec(&spec_path)?;
    let units = verify_units(&spec);
    if units.is_empty() {
        return Err(format!(
            "spec \"{}\" has no verify tasks (add a task with \"kind\": \"verify\")",
            spec.name
        ));
    }
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("verify").join(&spec.name));

    let mut reports = Vec::with_capacity(units.len());
    for unit in &units {
        let unit_id = unit.id();
        eprintln!(
            "sa verify: {unit_id}: exploring (budget {} states)",
            unit.effective_max_states()
        );
        let started = Instant::now();
        let report = unit.run(&mut |p| {
            eprintln!(
                "sa verify: {unit_id}: {} states, {} expanded, {} edges",
                p.states, p.expanded, p.edges
            );
        })?;
        // Timing goes to stderr only: VERIFY.json stays byte-deterministic.
        let secs = started.elapsed().as_secs_f64();
        eprintln!(
            "sa verify: {unit_id}: {} states, {} edges, {} legitimate — closure {}, \
             convergence {} ({}) in {secs:.3} s, {:.0} states/s",
            report.stats.states,
            report.stats.edges,
            report.stats.legitimate,
            if report.closure_certified {
                "certified"
            } else {
                "VIOLATED"
            },
            if report.convergence_certified {
                "certified"
            } else {
                "VIOLATED"
            },
            mode_label(report.convergence_mode),
            report.stats.states as f64 / secs.max(1e-9),
        );
        reports.push(report);
    }

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut json = render_verify_json(&spec.name, &reports).render_pretty();
    json.push('\n');
    write_atomic(&out_dir.join("VERIFY.json"), &json)?;
    write_atomic(
        &out_dir.join("VERIFY.md"),
        &render_verify_markdown(&spec.name, &reports),
    )?;
    let traces_dir = out_dir.join("traces");
    for report in &reports {
        for (property, trace) in report.traces() {
            std::fs::create_dir_all(&traces_dir)
                .map_err(|e| format!("cannot create {}: {e}", traces_dir.display()))?;
            let stem = format!("{}.{property}", report.unit_id);
            let mut doc = trace_json(report, property, trace).render_pretty();
            doc.push('\n');
            write_atomic(&traces_dir.join(format!("{stem}.json")), &doc)?;
            write_atomic(
                &traces_dir.join(format!("{stem}.txt")),
                &trace_transcript(report, property, trace),
            )?;
        }
    }

    let violated = reports.iter().filter(|r| !r.certified()).count();
    if violated == 0 {
        println!(
            "sa verify: {} unit(s) certified — report in {}",
            reports.len(),
            out_dir.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "sa verify: {violated} of {} unit(s) VIOLATED — counterexample traces in {}",
            reports.len(),
            traces_dir.display()
        );
        Ok(ExitCode::FAILURE)
    }
}

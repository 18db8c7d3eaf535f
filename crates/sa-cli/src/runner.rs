//! Batch sweep commands (`sa run` / `sa resume` / `sa check`) as thin
//! clients of the shared job-scheduler core ([`sa_bench::jobs`]).
//!
//! Directory layout under the output directory (default
//! `experiments/<spec-name>/`):
//!
//! ```text
//! EXPERIMENTS.json          # machine-readable results (byte-deterministic)
//! EXPERIMENTS.md            # human-readable table + artifacts
//! state/<unit>.done.json    # completed unit results (resume skips these)
//! state/<unit>.ckpt.json    # in-flight checkpoints (resume restores these)
//! state/<unit>.ckpt.bin     # ...binary form (spec checkpoint_format: "binary")
//! ```
//!
//! All persistence (atomic writes, checkpoint-format sniffing on resume,
//! the final report render) lives in the scheduler core; `sa serve` runs
//! the same core long-lived behind a socket. A batch run is exactly one
//! submitted job on a scheduler sized to [`thread_count`], waited to a
//! terminal state.

use sa_bench::jobs::{JobConfig, JobScheduler, JobState};
use sa_bench::sweep::SweepSpec;
use sa_runtime::parallel::thread_count;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints to stdout ignoring EPIPE (so `sa ... | head` exits quietly).
fn print_out(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

pub(crate) struct Options {
    pub(crate) spec_path: PathBuf,
    pub(crate) out_dir: Option<PathBuf>,
    pub(crate) checkpoint_every: u64,
    pub(crate) interrupt_after_steps: Option<u64>,
    pub(crate) interrupt_units: usize,
}

pub(crate) fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        spec_path: PathBuf::new(),
        out_dir: None,
        checkpoint_every: 1000,
        interrupt_after_steps: None,
        interrupt_units: usize::MAX,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => options.out_dir = Some(PathBuf::from(flag_value("--out")?)),
            "--checkpoint-every" => {
                options.checkpoint_every = flag_value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "--checkpoint-every must be an integer".to_string())?;
            }
            "--interrupt-after-steps" => {
                options.interrupt_after_steps = Some(
                    flag_value("--interrupt-after-steps")?
                        .parse()
                        .map_err(|_| "--interrupt-after-steps must be an integer".to_string())?,
                );
            }
            "--interrupt-units" => {
                options.interrupt_units = flag_value("--interrupt-units")?
                    .parse()
                    .map_err(|_| "--interrupt-units must be an integer".to_string())?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag \"{other}\"")),
            _ => positional.push(arg.clone()),
        }
    }
    match positional.as_slice() {
        [spec] => options.spec_path = PathBuf::from(spec),
        [] => return Err("missing spec file".to_string()),
        _ => return Err("expected exactly one spec file".to_string()),
    }
    Ok(options)
}

pub(crate) fn load_spec(path: &Path) -> Result<SweepSpec, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read spec {}: {e}", path.display()))?;
    SweepSpec::parse(&text)
}

/// Collects every `.json` spec under `dir`, recursively, in sorted order
/// (deterministic across platforms).
fn collect_specs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_specs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// `sa check`: validate a spec (or, given a directory, every `.json` spec
/// under it, recursively — CI runs `sa check examples/specs` so a broken
/// committed spec fails fast) and print its unit expansion.
pub fn check(args: &[String]) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let specs = if options.spec_path.is_dir() {
        let mut specs = Vec::new();
        collect_specs(&options.spec_path, &mut specs)?;
        if specs.is_empty() {
            return Err(format!(
                "no .json specs under {}",
                options.spec_path.display()
            ));
        }
        specs
    } else {
        vec![options.spec_path.clone()]
    };
    let mut failures = 0usize;
    for path in &specs {
        match load_spec(path) {
            Ok(spec) => {
                let units = spec.execution_units();
                let vunits = sa_bench::verify::verify_units(&spec);
                let mut out = format!(
                    "{}: spec \"{}\": {} task(s), {} execution unit(s), {} verify unit(s)\n",
                    path.display(),
                    spec.name,
                    spec.tasks.len(),
                    units.len(),
                    vunits.len()
                );
                for unit in &units {
                    out.push_str(&format!("  {}\n", unit.id()));
                }
                for unit in &vunits {
                    out.push_str(&format!("  {} (verify)\n", unit.id()));
                }
                print_out(&out);
            }
            Err(e) => {
                eprintln!("{}: INVALID: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("sa check: {failures} invalid spec(s)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `sa run` / `sa resume`: submit the spec as one job on a scheduler sized
/// to the thread budget, wait for a terminal state, and report.
pub fn run(args: &[String], resume: bool) -> Result<ExitCode, String> {
    let options = parse_options(args)?;
    let spec = load_spec(&options.spec_path)?;
    let spec_name = spec.name.clone();
    let out_dir = options
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("experiments").join(&spec_name));

    // Paused start: the submission (including the resume scan) completes and
    // prints before any unit dispatches.
    let scheduler = JobScheduler::new_paused(thread_count());
    let mut config = JobConfig::new(spec, out_dir.clone());
    config.checkpoint_every = options.checkpoint_every;
    config.resume = resume;
    config.interrupt_after_steps = options.interrupt_after_steps;
    config.interrupt_units = options.interrupt_units;
    let receipt = scheduler.submit(config)?;
    println!(
        "{} \"{}\": {} unit(s), {} already complete",
        if resume { "resuming" } else { "running" },
        spec_name,
        receipt.units,
        receipt.resumed_done
    );
    scheduler.start();
    let status = scheduler.wait(&receipt.id).expect("submitted job exists");

    match status.state {
        JobState::Failed => Err(status
            .error
            .unwrap_or_else(|| "job failed with no recorded error".to_string())),
        JobState::Interrupted | JobState::Cancelled => {
            println!(
                "interrupted: {} unit(s) checkpointed, {} not started ({} complete); \
                 run `sa resume {} --out {}` to continue",
                status.units_interrupted,
                status.units_not_started,
                status.units_done,
                options.spec_path.display(),
                out_dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        JobState::Finished => {
            let md_path = out_dir.join("EXPERIMENTS.md");
            let markdown = fs::read_to_string(&md_path)
                .map_err(|e| format!("cannot read {}: {e}", md_path.display()))?;
            println!(
                "complete: {}/{} unit(s) clean; wrote {}/EXPERIMENTS.{{json,md}}",
                status.units_clean,
                status.units_done,
                out_dir.display()
            );
            print_out(&markdown);
            if status.failing_rows > 0 {
                eprintln!("{} report row(s) count failures", status.failing_rows);
            }
            Ok(if status.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        JobState::Queued | JobState::Running => unreachable!("wait() returns terminal states"),
    }
}

//! Traced mirror of `sa verify`: the CLI's own sequence of public calls
//! (`verify_units`, `VerifyUnit::run` per instance, the renderers and
//! `write_atomic_bytes`), with a span around each.

use crate::trace::{vm_hwm_bytes, write, Tracer};
use sa_bench::sweep::SweepSpec;
use sa_bench::verify::{
    render_verify_json, render_verify_markdown, trace_json, trace_transcript, verify_units,
};
use std::path::Path;

pub fn run(spec_path: &Path, out_dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let (_, parsed) = tracer.span("spec.parse", "", || {
        SweepSpec::parse(&text).map(|spec| {
            let units = verify_units(&spec);
            (spec, units)
        })
    });
    let (spec, units) = parsed?;

    let mut reports = Vec::with_capacity(units.len());
    for unit in &units {
        let id = unit.id();
        let hwm_before = vm_hwm_bytes("self");
        let (idx, report) = tracer.span("explore", &id, || unit.run(&mut |_| {}));
        let report = report?;
        // Peak-RSS growth is attributable only while the process is at a
        // new high; smaller instances after a larger one read 0.
        let growth = vm_hwm_bytes("self").saturating_sub(hwm_before);
        tracer.count(idx, "states", report.stats.states as f64);
        tracer.count(idx, "edges", report.stats.edges as f64);
        tracer.count(idx, "hwm_growth_bytes", growth as f64);
        reports.push(report);
    }

    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let (_, (json, markdown)) = tracer.span("verify.render", "", || {
        let mut json = render_verify_json(&spec.name, &reports).render_pretty();
        json.push('\n');
        (json, render_verify_markdown(&spec.name, &reports))
    });
    write(tracer, "", &out_dir.join("VERIFY.json"), json.as_bytes())?;
    write(tracer, "", &out_dir.join("VERIFY.md"), markdown.as_bytes())?;
    let traces_dir = out_dir.join("traces");
    for report in &reports {
        for (property, trace) in report.traces() {
            std::fs::create_dir_all(&traces_dir)
                .map_err(|e| format!("cannot create {}: {e}", traces_dir.display()))?;
            let stem = format!("{}.{property}", report.unit_id);
            let (_, (doc, transcript)) = tracer.span("verify.render", &report.unit_id, || {
                let mut doc = trace_json(report, property, trace).render_pretty();
                doc.push('\n');
                (doc, trace_transcript(report, property, trace))
            });
            write(
                tracer,
                &report.unit_id,
                &traces_dir.join(format!("{stem}.json")),
                doc.as_bytes(),
            )?;
            write(
                tracer,
                &report.unit_id,
                &traces_dir.join(format!("{stem}.txt")),
                transcript.as_bytes(),
            )?;
        }
    }
    Ok(())
}

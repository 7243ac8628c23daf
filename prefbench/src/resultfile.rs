//! `prefbench_<workload>.json`: the runs of one workload in one result
//! set, with the host facts a reader needs to judge them.

use crate::json::Json;
use crate::metrics::Report;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Path of a workload's result file inside a result-set directory.
pub fn path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("prefbench_{workload}.json"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(
                std::env::var("PREFBENCH_COMMIT")
                    .unwrap_or_else(|_| command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
        ),
    ])
}

/// Add `report` to the workload's file in `dir`: an untraced run is
/// appended to `runs`, a traced run replaces `layers`.
pub fn append(dir: &Path, report: &Report) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let file = path(dir, &report.workload);
    let mut doc = match std::fs::read_to_string(&file) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?,
        Err(_) => Json::obj([
            ("workload", Json::str(&report.workload)),
            ("scale", Json::str(report.scale.pick("full", "quick"))),
            ("host", host_facts()),
            (
                "facts",
                Json::Obj(
                    report
                        .facts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("runs", Json::Arr(Vec::new())),
            ("layers", Json::Null),
        ]),
    };
    let Json::Obj(members) = &mut doc else {
        return Err(format!("{}: not an object", file.display()));
    };
    for (key, value) in members.iter_mut() {
        match (key.as_str(), &mut *value) {
            ("runs", Json::Arr(runs)) if !report.traced => runs.push(report.to_json()),
            ("layers", slot) if report.traced => *slot = report.to_json(),
            _ => {}
        }
    }
    std::fs::write(&file, doc.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(file)
}

/// The values of metric `name` over the untraced runs of a result file.
pub fn metric_values(doc: &Json, name: &str) -> Vec<f64> {
    doc.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

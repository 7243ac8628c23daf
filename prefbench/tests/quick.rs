//! Every workload at `--quick` scale, through the real command line.
//! Quick numbers are never used for claims; these tests pin the shape:
//! every declared metric is reported with its unit, nothing fails, exact
//! counters repeat, and the native path agrees with the rewrite oracle.

use prefbench::json::Json;
use prefbench::metrics::{END_TO_END, PER_LAYER};
use prefbench::workload::{self, Conn, Scale};
use prefsql::ExecutionMode;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "jobsearch_rewrite",
    "skyline_native",
    "wire_short",
    "view_dml_mix",
];

/// A scratch directory under cargo's target dir; the binary keeps its
/// temp files under its working directory, so nothing lands elsewhere.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run the binary in `cwd`; returns (exit ok, stdout).
fn prefbench(cwd: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prefbench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn prefbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// One quick run; returns the parsed result line.
fn quick_run(cwd: &Path, workload: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--quick",
    ];
    args.extend_from_slice(extra);
    let (ok, stdout) = prefbench(cwd, &args);
    assert!(ok, "{workload} trace={trace} exited non-zero:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn assert_result_shape(result: &Json, declared: &[(&str, &str)], what: &str) {
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{what}"
    );
    let metrics = result.get("metrics").expect("metrics").members();
    let reported: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(reported, declared, "{what}: metric names and units");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing"))
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_nothing_fails() {
    let dir = scratch("end_to_end");
    for workload in WORKLOADS {
        let result = quick_run(&dir, workload, "0", &["--out", "results"]);
        assert_result_shape(&result, &END_TO_END, workload);
        for (name, _) in END_TO_END {
            assert!(
                value(&result, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        let file = dir
            .join("results")
            .join(format!("prefbench_{workload}.json"));
        let doc = Json::parse(&std::fs::read_to_string(&file).expect("result file")).expect("JSON");
        assert_eq!(
            doc.get("runs").map(|r| r.items().len()),
            Some(1),
            "{workload}"
        );
        assert!(
            doc.get("host").and_then(|h| h.get("nproc")).is_some(),
            "{workload}"
        );
    }
    assert!(
        !dir.join(".prefbench_tmp").exists(),
        "runs must clean up their temp directory"
    );
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_exact_counters_repeat() {
    let dir = scratch("per_layer");
    for workload in WORKLOADS {
        let first = quick_run(&dir, workload, "1", &["--out", "results"]);
        assert_result_shape(&first, &PER_LAYER, workload);
        assert!(
            dir.join("results")
                .join(format!("trace_{workload}.json"))
                .exists(),
            "{workload}: span file"
        );
        assert_eq!(value(&first, "bench.staged_mismatches"), 0.0, "{workload}");
        assert!(
            value(&first, "bench.span_sum_error_max") < 0.02,
            "{workload}"
        );
        assert!(value(&first, "parser.sql_bytes") > 0.0, "{workload}");
        // Counters that must repeat exactly from run to run.
        let second = quick_run(&dir, workload, "1", &[]);
        let mut exact = vec![
            "parser.sql_bytes",
            "rewrite.sql_bytes_out",
            "server.bytes_out",
        ];
        if workload != "wire_short" {
            // One client: nothing interleaves, so work counts repeat too.
            exact.extend([
                "engine.rows_scanned",
                "engine.subquery_evals",
                "pref.dominance_tests",
            ]);
        }
        for counter in exact {
            assert_eq!(
                value(&first, counter),
                value(&second, counter),
                "{workload}: {counter} must repeat exactly"
            );
        }
    }
}

#[test]
fn layers_show_up_where_the_workload_exercises_them() {
    let dir = scratch("layers");
    let jobs = quick_run(&dir, "jobsearch_rewrite", "1", &[]);
    assert_eq!(value(&jobs, "rewrite.rewritten_share"), 1.0);
    assert!(value(&jobs, "engine.subquery_evals") > 0.0);
    assert_eq!(value(&jobs, "pref.dominance_tests"), 0.0);
    assert!(value(&jobs, "share.engine") > 0.5);

    let sky = quick_run(&dir, "skyline_native", "1", &[]);
    assert_eq!(value(&sky, "rewrite.process_us_p50"), 0.0);
    assert!(value(&sky, "pref.dominance_tests") > 0.0);
    assert!(value(&sky, "pref.maximal_ms_p50") > 0.0);
    assert!(value(&sky, "core.native_ms_p50") > 0.0);

    let wire = quick_run(&dir, "wire_short", "1", &[]);
    assert!(value(&wire, "server.roundtrip_ms_p50") > 0.0);
    assert!(value(&wire, "server.connect_ms_p50") > 0.0);
    assert!(value(&wire, "server.bytes_out") > 0.0);
    assert_eq!(value(&wire, "storage.pool_misses"), 0.0);

    let view = quick_run(&dir, "view_dml_mix", "1", &[]);
    assert!(value(&view, "engine.views_maintained") > 0.0);
    assert!(value(&view, "engine.view_hits") > 0.0);
    assert!(value(&view, "storage.pool_evictions") > 0.0);
    assert!(value(&view, "write_p50_ms") > 0.0);
    assert_eq!(value(&view, "storage.spill_bytes"), 0.0);
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let declared = |section: &str| -> Vec<(String, String)> {
        spec.get(section)
            .expect(section)
            .items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(names, workload::all().map(|w| w.name()));
    for m in spec.get("end_to_end").expect("end_to_end").items() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    assert!(declared("end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn compare_reports_ok_regressed_and_unresolved() {
    let dir = scratch("compare");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let benchmark = root.join("BENCHMARK.json");
    // Five runs per side; `slow` scales every latency by `factor`.
    let write_set = |name: &str, factor: f64, wobble: f64| {
        let set = dir.join(name);
        std::fs::create_dir_all(&set).expect("set dir");
        for workload in WORKLOADS {
            let runs: Vec<Json> = (0..5)
                .map(|i| {
                    let jitter = 1.0 + wobble * (f64::from(i) - 2.0);
                    Json::obj([(
                        "metrics",
                        Json::Obj(
                            END_TO_END
                                .iter()
                                .map(|(metric, unit)| {
                                    let slower = if *metric == "stmts_per_s" {
                                        1.0 / factor
                                    } else {
                                        factor
                                    };
                                    (
                                        metric.to_string(),
                                        Json::obj([
                                            ("value", Json::Num(10.0 * slower * jitter)),
                                            ("unit", Json::str(*unit)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    )])
                })
                .collect();
            let doc = Json::obj([("workload", Json::str(workload)), ("runs", Json::Arr(runs))]);
            std::fs::write(set.join(format!("prefbench_{workload}.json")), doc.pretty())
                .expect("write");
        }
    };
    write_set("base", 1.0, 0.005);
    write_set("same", 1.01, 0.005);
    write_set("slow", 1.5, 0.005);
    write_set("noisy", 1.0, 0.2);
    let bench = benchmark.to_str().expect("utf-8 path");
    let (ok, out) = prefbench(&dir, &["compare", "base", "same", "--benchmark", bench]);
    assert!(
        ok && !out.contains("regressed\n") && out.contains("24 ok, 0 regressed"),
        "{out}"
    );
    let (ok, out) = prefbench(&dir, &["compare", "base", "slow", "--benchmark", bench]);
    assert!(!ok && out.contains("0 ok, 24 regressed"), "{out}");
    let (ok, out) = prefbench(&dir, &["compare", "base", "noisy", "--benchmark", bench]);
    assert!(ok && out.contains("24 unresolved"), "{out}");
}

#[test]
fn reduced_scale_skyline_native_agrees_with_the_rewrite_oracle() {
    let skyline = workload::by_name("skyline_native").expect("workload exists");
    let mut env = skyline.setup(9, Scale::Quick).expect("set-up");
    let mut sources = skyline.sources(9, Scale::Quick, &env).expect("statements");
    let statements: Vec<_> = (0..sources[0].golden_len())
        .map(|_| sources[0].next_stmt())
        .collect();
    let Some(Conn::InProc(session)) = env.conns.first_mut() else {
        panic!("skyline_native runs in-process");
    };
    assert!(!statements.is_empty());
    for stmt in statements {
        session.set_mode(ExecutionMode::native());
        let native = workload::digest_rows(&session.query(&stmt.sql).expect("native"), false);
        session.set_mode(ExecutionMode::Rewrite);
        let oracle = workload::digest_rows(&session.query(&stmt.sql).expect("rewrite"), false);
        assert_eq!(
            (native.rows, native.checksum),
            (oracle.rows, oracle.checksum),
            "native and rewrite disagree on: {}",
            stmt.sql
        );
        assert!(native.rows > 0, "{}", stmt.sql);
    }
}

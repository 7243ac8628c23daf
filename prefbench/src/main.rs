//! `prefbench` command line.
//!
//! ```text
//! prefbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--repeat <k>] [--quick] [--bless]
//! prefbench compare <dirA> <dirB> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! One workload per process, so `peak_rss_mb` is the workload's own;
//! `--workload all` re-executes this binary once per workload and run.
//! The last line of standard output is the result object the driver
//! reads; everything before it is for people.

use prefbench::compare::{self, Verdict};
use prefbench::golden::{Expectations, GOLDEN_SEED};
use prefbench::metrics::Report;
use prefbench::run::{self, RunArgs};
use prefbench::workload::{self, Scale, Workload};
use prefbench::{resultfile, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: prefbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
[--out <dir>] [--repeat <k>] [--quick] [--bless]\n       prefbench compare <dirA> <dirB> [--benchmark <file>]";

struct Cli {
    workload: String,
    trace: bool,
    repeat: usize,
    bless: bool,
    run: RunArgs,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        trace: false,
        repeat: 1,
        bless: false,
        run: RunArgs {
            seed: 1,
            seconds: 10.0,
            scale: Scale::Full,
            out: None,
            golden_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("golden"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.run.seed = number(value()?)? as u64,
            "--seconds" => cli.run.seconds = number(value()?)?,
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--repeat" => cli.repeat = (number(value()?)? as usize).max(1),
            "--out" => cli.run.out = Some(PathBuf::from(value()?)),
            "--quick" => cli.run.scale = Scale::Quick,
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(cli.run.seconds > 0.0 && cli.run.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

/// The paged backend and the spill manager write under the system temp
/// directory; point it inside the working directory so a run touches
/// nothing outside its checkout.
fn private_tmp() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".prefbench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", &dir);
    // Session defaults must come from the code, not from the caller's shell.
    for knob in [
        "PREFSQL_BACKEND",
        "PREFSQL_POOL",
        "PREFSQL_THREADS",
        "PREFSQL_WINDOW",
    ] {
        std::env::remove_var(knob);
    }
    Ok(dir)
}

fn run_one(workload: &dyn Workload, cli: &Cli) -> Result<Report, String> {
    if cli.bless {
        return bless(workload, &cli.run);
    }
    let report = if cli.trace {
        trace::run_traced(workload, &cli.run)?
    } else {
        run::run_untraced(workload, &cli.run)?
    };
    if let Some(dir) = &cli.run.out {
        let file = resultfile::append(dir, &report)?;
        eprintln!("wrote {}", file.display());
    }
    Ok(report)
}

/// Record the replies of the blessed configuration (seed 1, full scale)
/// as the workload's golden file.
fn bless(workload: &dyn Workload, args: &RunArgs) -> Result<Report, String> {
    if args.seed != GOLDEN_SEED || args.scale != Scale::Full {
        return Err(format!(
            "--bless records seed {GOLDEN_SEED} at full scale only"
        ));
    }
    let mut p = run::prepare(workload, args, 1)?;
    p.expected = Expectations::empty(p.sources.len());
    let phase = run::drive(
        &mut p.env.conns,
        &mut p.sources,
        &mut p.expected,
        None,
        |_, source| run::Stop::Count(source.golden_len()),
    );
    let file = p.expected.bless(&args.golden_dir, workload.name())?;
    eprintln!(
        "blessed {} statements into {}",
        phase.count(),
        file.display()
    );
    workload::Env::shutdown(p.env)?;
    let mut report = run::run_untraced(workload, args)?;
    report
        .notes
        .push(format!("golden file rewritten: {}", file.display()));
    Ok(report)
}

/// `--workload all`: one child process per workload and run.
fn run_all(cli: &Cli, raw_args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Everything but the workload, trace and repeat selection passes through.
    let mut passthrough = Vec::new();
    let mut it = raw_args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "--trace" | "--repeat" => {
                it.next();
            }
            _ => passthrough.push(a.clone()),
        }
    }
    let mut all_ok = true;
    for w in workload::all() {
        let mut plan: Vec<&str> = vec!["0"; cli.repeat];
        if !cli.bless {
            plan.push("1");
        }
        for trace in plan {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(&passthrough)
                .status()
                .map_err(|e| format!("re-exec: {e}"))?;
            all_ok &= status.success();
        }
    }
    Ok(all_ok)
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => {
                benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a value")?)
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(USAGE.into());
    };
    let rows = compare::compare(&benchmark, a, b)?;
    print!("{}", compare::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.judged.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..]);
    }
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cli.workload == "all" {
        return run_all(&cli, &args);
    }
    let workload = workload::by_name(&cli.workload).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name()).collect();
        format!(
            "unknown workload '{}'; one of: all, {}",
            cli.workload,
            names.join(", ")
        )
    })?;
    let tmp = private_tmp()?;
    let outcome = run_one(workload, &cli);
    let _ = std::fs::remove_dir_all(&tmp);
    // The shared parent goes too, unless another run still uses it.
    let _ = tmp.parent().map(std::fs::remove_dir);
    let report = outcome?;
    print!("{}", report.render_text());
    println!("{}", report.result_line());
    // A run that completed exits 0 even when a statement failed: the
    // result line carries `correct` and `failed` for the caller to judge.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("prefbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! The closed-loop driver and the untraced run that produces the
//! end-to-end metrics.
//!
//! Shape of a run: calibration spin → set-up (timed, three times) → one
//! untimed warm-up pass → the measured phase (each client sends its next
//! statement only after the previous reply; runs for `--seconds`) →
//! end-state invariants → three more timed set-ups (`setup_s` is the
//! median of all six) → calibration spin.

use crate::golden::Expectations;
use crate::metrics::{Metric, Report};
use crate::trace::ClientProbe;
use crate::util::{calib_ms, median, ms, peak_rss_mb, quantile, sorted};
use crate::workload::{Conn, Env, Expect, Kind, Scale, Source, Stmt, Workload, WriteTally};
use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups timed before the measured phase (the last one is measured on)
/// and again after it. The host's speed drifts on a scale of ten seconds,
/// so samples taken 20 s apart steady the median.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 3;

/// Everything `main` parsed that a run needs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--seed`
    pub seed: u64,
    /// `--seconds`: length of the measured phase.
    pub seconds: f64,
    /// Full or quick scale.
    pub scale: Scale,
    /// `--out`: where result and trace files go (none = print only).
    pub out: Option<std::path::PathBuf>,
    /// Directory of the golden files.
    pub golden_dir: std::path::PathBuf,
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many statements.
    Count(usize),
    /// At the first reply past this instant.
    Deadline(Instant),
}

/// A timed phase is cut into this many equal time slices; a latency
/// percentile is taken per slice and the slices are averaged. The host
/// this runs on switches between two speeds a quarter apart every ten to
/// twenty seconds: a percentile over the whole phase flips between the
/// two values from run to run, the mean over slices moves in proportion
/// to the time spent in each — half the run-to-run spread.
pub const SLICES: usize = 5;

/// The reply latencies of one statement class. Nine bytes a statement:
/// the benchmark's own bookkeeping is part of `peak_rss_mb`, and must not
/// grow it noticeably when a faster engine gets through more statements.
#[derive(Debug, Clone)]
pub struct ClassSamples {
    /// Every statement of a class is of one kind.
    pub kind: Kind,
    /// Reply latencies in ms, in the order measured.
    pub latencies_ms: Vec<f64>,
    /// The time slice each reply arrived in (always 0 in a phase that
    /// stops at a statement count).
    pub slices: Vec<u8>,
}

/// What one phase (warm-up or measured) did, over all clients.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency samples per statement class.
    pub by_class: BTreeMap<&'static str, ClassSamples>,
    /// Wall time from the common start to the last client's last reply.
    pub wall_s: f64,
    /// Errors + refusals + wrong results.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub problems: Vec<String>,
    /// Rows inserted and deleted.
    pub writes: WriteTally,
}

impl Phase {
    fn record(&mut self, stmt: &Stmt, latency_ms: f64, slice: usize) {
        let class = self
            .by_class
            .entry(stmt.class)
            .or_insert_with(|| ClassSamples {
                kind: stmt.kind,
                latencies_ms: Vec::new(),
                slices: Vec::new(),
            });
        class.latencies_ms.push(latency_ms);
        class.slices.push(slice as u8);
    }

    /// Statements sent.
    pub fn count(&self) -> usize {
        self.by_class.values().map(|c| c.latencies_ms.len()).sum()
    }

    /// The `p`-quantile of the latencies whose kind `keep` accepts, taken
    /// per time slice and averaged over the slices that saw any (see
    /// [`SLICES`]); 0 when there is no such statement.
    pub fn percentile(&self, p: f64, keep: impl Fn(Kind) -> bool) -> f64 {
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for class in self.by_class.values().filter(|c| keep(c.kind)) {
            for (latency, slice) in class.latencies_ms.iter().zip(&class.slices) {
                per_slice[usize::from(*slice)].push(*latency);
            }
        }
        let quantiles: Vec<f64> = per_slice
            .into_iter()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(&sorted(v), p))
            .collect();
        if quantiles.is_empty() {
            0.0
        } else {
            quantiles.iter().sum::<f64>() / quantiles.len() as f64
        }
    }

    /// Whether any statement of a kind `keep` accepts was sent.
    pub fn any(&self, keep: impl Fn(Kind) -> bool) -> bool {
        self.by_class.values().any(|c| keep(c.kind))
    }

    fn absorb(&mut self, other: Phase) {
        for (class, samples) in other.by_class {
            match self.by_class.get_mut(class) {
                Some(mine) => {
                    mine.latencies_ms.extend(samples.latencies_ms);
                    mine.slices.extend(samples.slices);
                }
                None => {
                    self.by_class.insert(class, samples);
                }
            }
        }
        self.wall_s = self.wall_s.max(other.wall_s);
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
        self.writes.add(other.writes);
    }
}

/// Hold a reply against what is expected of it. A statement seen for the
/// first time (no golden entry, not yet executed) records its reply as
/// the expectation for every later execution and must be non-empty.
pub fn check(
    stmt: &Stmt,
    outcome: &crate::workload::Outcome,
    expected: &mut HashMap<u32, (u64, u64)>,
) -> Result<(), String> {
    if !outcome.ok {
        return Err(format!(
            "{}: {}",
            outcome.error.as_deref().unwrap_or("failed"),
            stmt.sql
        ));
    }
    match stmt.expect {
        Expect::Affected(n) if outcome.rows == n => Ok(()),
        Expect::Affected(n) => Err(format!(
            "affected {} rows, expected {n}: {}",
            outcome.rows, stmt.sql
        )),
        Expect::Recorded => match expected.get(&stmt.key) {
            Some(&want) if want == (outcome.rows, outcome.checksum) => Ok(()),
            Some(&(rows, sum)) => Err(format!(
                "got {} rows (checksum {:016x}), expected {rows} ({sum:016x}): {}",
                outcome.rows, outcome.checksum, stmt.sql
            )),
            None => {
                expected.insert(stmt.key, (outcome.rows, outcome.checksum));
                if outcome.rows > 0 {
                    Ok(())
                } else {
                    Err(format!("empty result: {}", stmt.sql))
                }
            }
        },
    }
}

/// One client's closed loop.
fn drive_one(
    client: usize,
    conn: &mut Conn,
    source: &mut dyn Source,
    expected: &mut HashMap<u32, (u64, u64)>,
    stop: Stop,
    start: Instant,
    mut probe: Option<&mut ClientProbe>,
) -> Phase {
    let mut phase = Phase::default();
    let mut last_reply = start;
    let mut sent_so_far = 0;
    loop {
        match stop {
            Stop::Count(n) if sent_so_far >= n => break,
            Stop::Deadline(at) if last_reply >= at => break,
            _ => {}
        }
        let stmt = source.next_stmt();
        let sent = Instant::now();
        let raw = conn.call(&stmt.sql);
        last_reply = Instant::now();
        // Everything below is the client's own bookkeeping, outside the
        // statement's latency.
        if let Some(probe) = probe.as_deref_mut() {
            probe.record(
                client,
                &stmt,
                matches!(conn, Conn::Wire(_)),
                sent,
                last_reply,
            );
        }
        let outcome = raw.digest(stmt.want_ids);
        if let Err(problem) = check(&stmt, &outcome, expected) {
            phase.failed += 1;
            if phase.problems.len() < 8 {
                phase.problems.push(problem);
            }
        } else {
            phase.writes.note(&stmt, &outcome);
        }
        source.observe(&stmt, &outcome);
        let slice = match stop {
            Stop::Count(_) => 0,
            Stop::Deadline(at) => {
                let done = last_reply.duration_since(start).as_secs_f64()
                    / at.duration_since(start).as_secs_f64();
                ((done * SLICES as f64) as usize).min(SLICES - 1)
            }
        };
        phase.record(&stmt, ms(sent, last_reply), slice);
        sent_so_far += 1;
    }
    phase.wall_s = last_reply.duration_since(start).as_secs_f64();
    phase
}

/// Run one phase on every client at once (one thread per connection,
/// released together), closed loop.
pub fn drive(
    conns: &mut [Conn],
    sources: &mut [Box<dyn Source>],
    expected: &mut Expectations,
    probes: Option<&mut [ClientProbe]>,
    stop: impl Fn(Instant, &dyn Source) -> Stop + Sync,
) -> Phase {
    let barrier = Barrier::new(conns.len());
    let mut total = Phase::default();
    let mut probes = probes.map(|p| p.iter_mut());
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(sources.iter_mut())
            .zip(expected.per_client.iter_mut())
            .enumerate()
            .map(|(client, ((conn, source), expected))| {
                let (barrier, stop) = (&barrier, &stop);
                let probe = probes.as_mut().and_then(Iterator::next);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let stop = stop(start, source.as_ref());
                    drive_one(client, conn, source.as_mut(), expected, stop, start, probe)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(phase) => total.absorb(phase),
                Err(_) => {
                    total.failed += 1;
                    total.problems.push("a client thread panicked".into());
                }
            }
        }
    });
    total
}

/// Set-up plus statement sources plus expectations: a run's state.
pub struct Prepared {
    /// What set-up built.
    pub env: Env,
    /// One source per client.
    pub sources: Vec<Box<dyn Source>>,
    /// Recorded replies per client.
    pub expected: Expectations,
    /// Wall time of each set-up made, in seconds.
    pub setup_s: Vec<f64>,
}

/// One timed set-up: what it built and how long it took, in seconds.
fn timed_setup(workload: &dyn Workload, args: &RunArgs) -> Result<(Env, f64), String> {
    let started = Instant::now();
    let env = workload.setup(args.seed, args.scale)?;
    Ok((env, started.elapsed().as_secs_f64()))
}

/// Run set-up `repeats` times (keeping the last), then generate the
/// statements and load the golden expectations.
pub fn prepare(
    workload: &dyn Workload,
    args: &RunArgs,
    repeats: usize,
) -> Result<Prepared, String> {
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = env.take() {
            Env::shutdown(previous)?;
        }
        let (built, took) = timed_setup(workload, args)?;
        env = Some(built);
        setup_s.push(took);
    }
    let env = env.expect("at least one set-up ran");
    let sources = workload.sources(args.seed, args.scale, &env)?;
    if sources.len() != env.conns.len() {
        return Err("one statement source per connection".into());
    }
    let expected = Expectations::load(&args.golden_dir, workload.name(), args, sources.len())?;
    Ok(Prepared {
        env,
        sources,
        expected,
        setup_s,
    })
}

/// The untimed warm-up pass: lazy set-up finishes and caches fill before
/// anything is timed. Its failures count like any other.
pub fn warm_up(p: &mut Prepared) -> Phase {
    drive(
        &mut p.env.conns,
        &mut p.sources,
        &mut p.expected,
        None,
        |_, source| Stop::Count(source.warmup_len()),
    )
}

/// Per-class sample counts and medians over `phases`, for the report.
pub fn class_table(phases: &[&Phase]) -> Vec<(String, usize, f64)> {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for phase in phases {
        for (class, samples) in &phase.by_class {
            by_class
                .entry(class)
                .or_default()
                .extend(&samples.latencies_ms);
        }
    }
    by_class
        .into_iter()
        .map(|(class, v)| (class.to_string(), v.len(), median(&v)))
        .collect()
}

/// The untraced run: every end-to-end metric of `BENCHMARK.json`.
pub fn run_untraced(workload: &dyn Workload, args: &RunArgs) -> Result<Report, String> {
    let calib_before = calib_ms();
    let mut p = prepare(workload, args, SETUPS_BEFORE)?;
    let warm = warm_up(&mut p);
    let seconds = args.seconds;
    let mut measured = drive(
        &mut p.env.conns,
        &mut p.sources,
        &mut p.expected,
        None,
        |start, _| Stop::Deadline(start + Duration::from_secs_f64(seconds)),
    );
    let mut writes = measured.writes;
    writes.add(warm.writes);
    let broken = workload.final_check(&mut p.env, &writes);
    let facts = p.env.facts.clone();
    let notes = vec![if p.expected.from_golden {
        "replies checked against the golden file".to_string()
    } else {
        "replies checked against each statement's first execution".to_string()
    }];
    Env::shutdown(p.env)?;
    for _ in 0..SETUPS_AFTER {
        let (env, took) = timed_setup(workload, args)?;
        p.setup_s.push(took);
        Env::shutdown(env)?;
    }
    let calib_after = calib_ms();

    let samples = measured.count();
    let is_read = |kind| kind == Kind::Read;
    let is_write = |kind| kind == Kind::Write;
    let attempted = (warm.count() + samples) as u64;
    let failed = warm.failed + measured.failed + broken.len() as u64;
    let mut problems = warm.problems;
    problems.append(&mut measured.problems);
    problems.extend(broken);

    let metrics = vec![
        Metric::new("setup_s", median(&p.setup_s), "s"),
        Metric::new("stmt_p50_ms", measured.percentile(0.50, |_| true), "ms"),
        Metric::new("stmt_p95_ms", measured.percentile(0.95, |_| true), "ms"),
        Metric::new("read_p50_ms", measured.percentile(0.50, is_read), "ms"),
        Metric::new(
            "stmts_per_s",
            samples as f64 / measured.wall_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    // Reported next to the contract's metrics, never as 0: only
    // workloads that write have a write latency.
    let mut extra = Vec::new();
    if measured.any(is_write) {
        extra.push(Metric::new(
            "write_p50_ms",
            measured.percentile(0.50, is_write),
            "ms",
        ));
    }
    extra.push(Metric::new(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    extra.push(Metric::new(
        "bench.calib_ms",
        (calib_before + calib_after) / 2.0,
        "ms",
    ));
    Ok(Report {
        workload: workload.name().to_string(),
        seed: args.seed,
        scale: args.scale,
        traced: false,
        attempted,
        failed,
        samples: samples as u64,
        metrics,
        extra,
        classes: class_table(&[&measured]),
        facts: facts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        calib_ms: (calib_before, calib_after),
        problems,
        notes,
    })
}

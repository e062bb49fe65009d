//! End-to-end benchmark of the AutoLock attack service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sat_attack|muxlink_cold|muxlink_warm|evolve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's batch from `--seed` and submits it as
//! a closed batch to `JobEngine::run` with one worker per core. With
//! `--trace 0` it repeats the batch for `--seconds` seconds, every pass on
//! empty rows/checkpoint directories, and reports the end-to-end metrics.
//! With `--trace 1` it alternates engine passes with a traced replay of the
//! same specs through the functions the engine composes, checks the replay's
//! rows are byte-identical to the engine's, verifies the outputs, and
//! reports per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Work directories live under `.e2ebench_work/` and are removed at the end;
//! traced runs leave their spans and tables in `.e2ebench_out/`.

mod engine_run;
mod layers;
mod replay;
mod spans;
mod workloads;

use engine_run::{
    engine_pass, fill_registry, setup, Prepared, SETUP_MAX_REPEATS, SETUP_MIN_REPEATS,
    SETUP_MIN_SECONDS,
};
use layers::{median, per_layer, TracedRun};
use replay::{verify, Replay, Replayed};
use spans::{Recorder, SpanRecord};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// A run's verdict and metrics, printed as the final JSON line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("--fill-registry") {
        fill_child(&argv)
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match result {
        Ok(Some(outcome)) => println!("{}", to_json(&outcome)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

fn flag<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name} <value>"))
}

fn number(argv: &[String], name: &str) -> Result<u64, String> {
    flag(argv, name)?
        .parse()
        .map_err(|e| format!("{name}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let name = flag(argv, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match flag(argv, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number(argv, "--seed")?,
        seconds: number(argv, "--seconds")?,
        trace,
    })
}

fn fill_child(argv: &[String]) -> Result<Option<Outcome>, String> {
    let registry = PathBuf::from(flag(argv, "--fill-registry")?);
    fill_registry(&registry, number(argv, "--seed")?, threads()).map_err(|e| e.to_string())?;
    Ok(None)
}

/// Engine workers: one per core.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<Option<Outcome>, String> {
    let work = PathBuf::from(".e2ebench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = if args.trace {
        traced(args, &work)
    } else {
        untraced(args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".e2ebench_work");
    result.map(Some)
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// The end-to-end run: set up several times, then run engine passes for
/// about `--seconds` seconds (at least two, so rows can be compared across
/// passes).
fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = threads();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < SETUP_MIN_REPEATS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_REPEATS)
    {
        let (p, s) =
            setup(args.workload, args.seed, threads, &work.join("setup")).map_err(io_err)?;
        setup_s.push(s);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");

    let mut checks = RowChecks::new(&prepared);
    let mut rates = Vec::new();
    let mut budget = Budget::new(args.seconds, 2);
    while budget.another() {
        let pass = engine_pass(&prepared, threads, &work.join("pass"), false).map_err(io_err)?;
        eprintln!(
            "e2ebench: engine pass {} took {:.3} s",
            rates.len() + 1,
            pass.wall_s
        );
        budget.done();
        rates.push(prepared.jobs.len() as f64 / pass.wall_s);
        checks.engine_rows(&pass.rows);
    }
    let rows = checks.first.clone().unwrap_or_default();
    let attack: Vec<f64> = rows
        .iter()
        .filter_map(|r| match r.attack.as_str() {
            "sat" => Some(if r.success { 1.0 } else { 0.0 }),
            "evolve" => None,
            _ => r.key_accuracy,
        })
        .collect();
    let evolved: Vec<f64> = rows
        .iter()
        .filter(|r| r.attack == "evolve")
        .filter_map(|r| r.key_accuracy)
        .collect();
    let ok_rate = 1.0 - checks.failed as f64 / checks.attempted as f64;
    Ok(Outcome {
        correct: checks.report(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            ("jobs_per_s", "jobs/s", median(&rates)),
            ("ok_rate", "fraction", ok_rate),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
            ("setup_s", "s", median(&setup_s)),
            ("attack_key_accuracy", "fraction", mean(&attack)),
            // Workloads that evolve nothing report the no-defence value 1.
            (
                "evolved_key_accuracy",
                "fraction",
                if evolved.is_empty() {
                    1.0
                } else {
                    mean(&evolved)
                },
            ),
        ],
    })
}

/// Decides whether another round of passes fits in `--seconds`: always
/// while fewer than `min_rounds` are done, then only if a round as long as
/// the median one so far still ends within the budget.
struct Budget {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    rounds: Vec<f64>,
    round_start: Instant,
}

impl Budget {
    fn new(seconds: u64, min_rounds: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds: seconds as f64,
            min_rounds,
            rounds: Vec::new(),
            round_start: Instant::now(),
        }
    }

    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go =
            self.rounds.len() < self.min_rounds || elapsed + median(&self.rounds) <= self.seconds;
        self.round_start = Instant::now();
        go
    }

    fn done(&mut self) {
        self.rounds.push(self.round_start.elapsed().as_secs_f64());
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Output checks shared by both modes: every row `ok`, one row per job in
/// batch order, and every pass (engine or replay) byte-identical to the
/// first engine pass.
struct RowChecks {
    ids: Vec<String>,
    first: Option<Vec<autolock_service::JobRow>>,
    first_text: Vec<String>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl RowChecks {
    fn new(prepared: &Prepared) -> Self {
        RowChecks {
            ids: prepared.jobs.iter().map(|j| j.id.clone()).collect(),
            first: None,
            first_text: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn engine_rows(&mut self, rows: &[autolock_service::JobRow]) {
        self.attempted += rows.len();
        for row in rows {
            if row.status != autolock_service::JobStatus::Ok || row.error.is_some() {
                self.failed += 1;
                self.problems
                    .push(format!("{}: {:?} {:?}", row.job_id, row.status, row.error));
            }
            if let Some(acc) = row.key_accuracy {
                if !(0.0..=1.0).contains(&acc) {
                    self.problems
                        .push(format!("{}: key accuracy {acc} out of range", row.job_id));
                }
            }
        }
        let ids: Vec<&str> = rows.iter().map(|r| r.job_id.as_str()).collect();
        if ids != self.ids.iter().map(String::as_str).collect::<Vec<_>>() {
            self.problems
                .push("rows do not match the batch's jobs".into());
        }
        let text = row_text(rows);
        match &self.first {
            None => {
                self.first = Some(rows.to_vec());
                self.first_text = text;
            }
            Some(_) => self.compare("engine pass", &text),
        }
    }

    /// Replay rows count as attempted jobs too and must equal the first
    /// engine pass's rows byte for byte.
    fn replay_rows(&mut self, rows: &[autolock_service::JobRow]) {
        self.attempted += rows.len();
        self.failed += rows
            .iter()
            .filter(|r| r.status != autolock_service::JobStatus::Ok)
            .count();
        self.compare("replay", &row_text(rows));
    }

    fn compare(&mut self, what: &str, text: &[String]) {
        if text.len() != self.first_text.len() {
            self.problems.push(format!(
                "{what}: {} rows, expected {}",
                text.len(),
                self.first_text.len()
            ));
            return;
        }
        for (got, want) in text.iter().zip(&self.first_text) {
            if got != want {
                self.problems
                    .push(format!("{what}: row differs\n  got  {got}\n  want {want}"));
            }
        }
    }

    /// Prints every problem to standard error; `true` when there is none.
    fn report(&self) -> bool {
        for p in &self.problems {
            eprintln!("e2ebench: CHECK FAILED: {p}");
        }
        self.problems.is_empty()
    }
}

fn row_text(rows: &[autolock_service::JobRow]) -> Vec<String> {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("JobRow serializes to JSON"))
        .collect()
}

/// The traced run: alternate an engine pass with a traced replay pass for
/// `--seconds` seconds (at least one pair), then verify and report.
fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = threads();
    let (prepared, _) =
        setup(args.workload, args.seed, threads, &work.join("setup")).map_err(io_err)?;
    let rec = Recorder::new();
    let mut checks = RowChecks::new(&prepared);
    let counters = replay::Counters::default();
    let (mut engine_rates, mut replay_rates) = (Vec::new(), Vec::new());
    let mut replay_wall_s = 0.0;
    let mut first_replay: Option<Vec<Replayed>> = None;
    let mut budget = Budget::new(args.seconds, 1);
    while budget.another() {
        let pass = engine_pass(&prepared, threads, &work.join("pass"), true).map_err(io_err)?;
        engine_rates.push(prepared.jobs.len() as f64 / pass.wall_s);
        checks.engine_rows(&pass.rows);

        let (replayed, wall_s, state) =
            replay_pass(&rec, &counters, &prepared, threads, &work.join("replay"))?;
        if pass.state.as_ref() != Some(&state) {
            checks.problems.push(
                "replay persisted different checkpoints or registry entries than the engine".into(),
            );
        }
        eprintln!(
            "e2ebench: engine pass {:.3} s, replay pass {wall_s:.3} s",
            pass.wall_s
        );
        replay_wall_s += wall_s;
        replay_rates.push(prepared.jobs.len() as f64 / wall_s);
        let rows: Vec<_> = replayed.iter().map(|r| r.row.clone()).collect();
        checks.replay_rows(&rows);
        first_replay.get_or_insert(replayed);
        budget.done();
    }
    let replayed = first_replay.expect("one replay pass");
    checks.problems.extend(verify(&replayed, args.seed));

    let spans = rec.take();
    let passes = replay_rates.len();
    let run = TracedRun {
        spans: &spans,
        counters: &counters,
        sat_dips: replayed.iter().map(|r| r.facts.sat_dips).sum(),
        sat_conflicts: replayed.iter().map(|r| r.facts.sat_conflicts).sum(),
        passes,
        threads,
        replay_wall_s,
        engine_jobs_per_s: median(&engine_rates),
        replay_jobs_per_s: median(&replay_rates),
    };
    let metrics = per_layer(&run);
    let report = tables(args, &metrics, &replayed, &spans, &prepared);
    print!("{report}");
    write_trace(args, &spans, &prepared, &report).map_err(io_err)?;
    Ok(Outcome {
        correct: checks.report(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

/// One replay pass over fresh directories, chunked and fanned out like the
/// engine (`pooled_map` over `EngineConfig::chunk` jobs at a time); returns
/// the replayed jobs, the pass's wall time and the digest of what it
/// persisted.
fn replay_pass(
    rec: &Recorder,
    counters: &replay::Counters,
    prepared: &Prepared,
    threads: usize,
    dir: &Path,
) -> Result<(Vec<Replayed>, f64, engine_run::StateDigest), String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = engine_run::engine_config(dir, threads, prepared.registry.as_deref());
    let replay = Replay::new(rec, counters, &config).map_err(io_err)?;
    let indexed: Vec<(u32, &autolock_service::JobSpec)> = prepared
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (i as u32, j))
        .collect();
    let start = Instant::now();
    let mut out = Vec::with_capacity(indexed.len());
    for chunk in indexed.chunks(config.chunk.max(1)) {
        out.extend(autolock_mlcore::parallel::pooled_map(
            threads,
            chunk,
            |(i, spec)| replay.job(*i, spec),
        ));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let state = engine_run::digest_state(dir).map_err(io_err)?;
    std::fs::remove_dir_all(dir).map_err(io_err)?;
    let replayed = out
        .into_iter()
        .zip(&prepared.jobs)
        .map(|(r, spec)| r.map_err(|e| format!("replay of {} failed: {e}", spec.id)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((replayed, wall_s, state))
}

/// The per-layer table and the per-job table (time, DIPs, conflicts).
fn tables(
    args: &Args,
    metrics: &[(&str, &str, f64)],
    replayed: &[Replayed],
    spans: &[SpanRecord],
    prepared: &Prepared,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed {} — per-layer (per replay pass)",
        args.workload.name(),
        args.seed
    );
    let _ = writeln!(out, "| metric | value | unit |\n|---|---|---|");
    for (name, unit, value) in metrics {
        let _ = writeln!(out, "| {name} | {value:.6} | {unit} |");
    }
    let mut job_s = vec![Vec::new(); prepared.jobs.len()];
    for s in spans.iter().filter(|s| s.name == "job") {
        if let Some(j) = s.job {
            job_s[j as usize].push(s.seconds());
        }
    }
    let _ = writeln!(
        out,
        "\n| job | median s | sat.dips | sat.conflicts |\n|---|---|---|---|"
    );
    for ((spec, r), times) in prepared.jobs.iter().zip(replayed).zip(&job_s) {
        let _ = writeln!(
            out,
            "| {} | {:.4} | {} | {} |",
            spec.id,
            median(times),
            r.facts.sat_dips,
            r.facts.sat_conflicts
        );
    }
    out
}

/// Writes the spans (one JSON object per line) and the tables to
/// `.e2ebench_out/`.
fn write_trace(
    args: &Args,
    spans: &[SpanRecord],
    prepared: &Prepared,
    report: &str,
) -> std::io::Result<()> {
    let dir = Path::new(".e2ebench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let mut text = String::new();
    for s in spans {
        let job = s.job.map_or("null".to_string(), |j| {
            format!("{:?}", prepared.jobs[j as usize].id)
        });
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"job":{}}}"#,
            s.id, s.name, s.start_ns, s.end_ns, parent, job
        );
    }
    std::fs::write(dir.join(format!("{stem}.spans.jsonl")), text)?;
    std::fs::write(dir.join(format!("{stem}.tables.md")), report)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(io_err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn to_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.correct && o.metrics.iter().all(|m| m.2.is_finite()),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

//! Set-up and untraced measurement through the service front door,
//! `JobEngine::run`.

use crate::workloads::Workload;
use autolock_service::{EngineConfig, JobEngine, JobRow, JobSpec};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Set-up repetitions: `setup_s` is the median of at least
/// `SETUP_MIN_REPEATS` set-ups, repeated while they have taken less than
/// `SETUP_MIN_SECONDS` in all (at most `SETUP_MAX_REPEATS`). Cheap set-ups
/// (a few milliseconds) are thus timed many times over; warm MuxLink, whose
/// set-up trains every model, runs twice.
pub const SETUP_MIN_REPEATS: usize = 2;
pub const SETUP_MAX_REPEATS: usize = 25;
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// A workload ready to run: its batch and, for warm MuxLink, the filled
/// model registry every pass reads from.
pub struct Prepared {
    pub jobs: Vec<JobSpec>,
    pub registry: Option<PathBuf>,
}

/// One closed batch through a fresh engine.
pub struct Pass {
    pub rows: Vec<JobRow>,
    pub wall_s: f64,
    /// Digest of the persisted state the pass left behind, when asked for.
    pub state: Option<StateDigest>,
}

/// Content hash of every file a pass persisted (checkpoints, registry
/// entries), keyed by path relative to the pass directory. The row stream
/// is left out: rows are compared on their own.
pub type StateDigest = BTreeMap<String, u64>;

/// Hashes every file under `dir` except the top-level row stream.
pub fn digest_state(dir: &Path) -> io::Result<StateDigest> {
    let mut digest = StateDigest::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                pending.push(path);
                continue;
            }
            let name = path
                .strip_prefix(dir)
                .expect("walk stays under dir")
                .to_string_lossy()
                .into_owned();
            if name != "rows.jsonl" {
                let mut h = DefaultHasher::new();
                std::fs::read(&path)?.hash(&mut h);
                digest.insert(name, h.finish());
            }
        }
    }
    Ok(digest)
}

/// Engine configuration for a pass rooted at `dir`: the service defaults
/// (`EngineConfig::rooted`) with, for warm MuxLink, the shared registry.
pub fn engine_config(dir: &Path, threads: usize, registry: Option<&Path>) -> EngineConfig {
    let mut config = EngineConfig::rooted(dir, threads);
    if let Some(registry) = registry {
        config.registry_dir = Some(registry.to_path_buf());
    }
    config
}

/// Generates the batch, creates the engine directories and, for warm
/// MuxLink, fills a registry by running the batch once in a child process
/// (so training never shows in this process's peak RSS). Returns the
/// prepared workload and the set-up seconds.
pub fn setup(
    workload: Workload,
    seed: u64,
    threads: usize,
    dir: &Path,
) -> io::Result<(Prepared, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let jobs = workload.jobs(seed);
    JobEngine::new(engine_config(&dir.join("engine"), threads, None))?;
    let registry = if workload == Workload::MuxlinkWarm {
        let registry = dir.join("registry");
        let status = Command::new(std::env::current_exe()?)
            .args(["--fill-registry", path_str(&registry)?])
            .args(["--seed", &seed.to_string()])
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!("registry fill failed: {status}")));
        }
        Some(registry)
    } else {
        None
    };
    let seconds = start.elapsed().as_secs_f64();
    Ok((Prepared { jobs, registry }, seconds))
}

fn path_str(path: &Path) -> io::Result<&str> {
    path.to_str()
        .ok_or_else(|| io::Error::other(format!("non-UTF-8 path {}", path.display())))
}

/// The child side of the warm set-up: trains and stores every model of the
/// MuxLink batch into `registry`.
pub fn fill_registry(registry: &Path, seed: u64, threads: usize) -> io::Result<()> {
    let fill_dir = registry.with_extension("fill");
    let _ = std::fs::remove_dir_all(&fill_dir);
    let engine = JobEngine::new(engine_config(&fill_dir, threads, Some(registry)))?;
    let rows = engine.run(&Workload::MuxlinkWarm.jobs(seed))?;
    std::fs::remove_dir_all(&fill_dir)?;
    if let Some(bad) = rows.iter().find(|r| r.error.is_some()) {
        return Err(io::Error::other(format!(
            "fill job {} failed: {:?}",
            bad.job_id, bad.error
        )));
    }
    Ok(())
}

/// Runs the batch once through a fresh engine rooted at `dir` (rows and
/// checkpoints start empty, so nothing is skipped or resumed) and removes
/// the directory afterwards, digesting what it persisted first when `digest`
/// is set. Only `JobEngine::run` is timed.
pub fn engine_pass(
    prepared: &Prepared,
    threads: usize,
    dir: &Path,
    digest: bool,
) -> io::Result<Pass> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = JobEngine::new(engine_config(dir, threads, prepared.registry.as_deref()))?;
    let start = Instant::now();
    let rows = engine.run(&prepared.jobs)?;
    let wall_s = start.elapsed().as_secs_f64();
    drop(engine);
    let state = if digest {
        Some(digest_state(dir)?)
    } else {
        None
    };
    std::fs::remove_dir_all(dir)?;
    Ok(Pass {
        rows,
        wall_s,
        state,
    })
}

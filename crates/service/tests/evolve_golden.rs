//! Golden evolve rows: the exact `rows.jsonl` bytes the engine writes for
//! every evolve job shape — a classic GA job, island jobs with and without
//! surrogate screening, a one-island job, and each invalid-spec error row.
//!
//! The fixture pins the row contract (values *and* `error` texts), so any
//! change to how an evolve job is assembled — seeding, operators, fitness,
//! GA settings, validation order — shows up as a byte diff. A second
//! fixture pins every final `.ga.json`/`.iga.json` checkpoint by FNV-1a
//! hash, so the persisted GA state (population, scores, RNG position) is
//! held to the same contract as the rows. The batch runs
//! at several engine thread counts; like the island-model determinism
//! suite, it folds `AUTOLOCK_THREADS` into the compared set so the CI
//! thread-matrix legs re-prove the rows on genuinely parallel pools.

use autolock_circuits::synth_circuit;
use autolock_netlist::write_bench;
use autolock_service::{EngineConfig, JobEngine, JobKind, JobSpec};
use std::fs;
use std::path::Path;

const ROWS_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/evolve-golden.rows.jsonl"
);
const CHECKPOINTS_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/evolve-golden.checkpoints.txt"
);

/// Extra engine thread count folded into the compared set, from the CI
/// thread-matrix leg's `AUTOLOCK_THREADS`.
fn env_threads() -> Option<usize> {
    std::env::var("AUTOLOCK_THREADS").ok()?.parse().ok()
}

fn spec(id: &str, seed: u64, kind: JobKind) -> JobSpec {
    JobSpec {
        id: id.into(),
        circuit: "golden-evo".into(),
        source: write_bench(&synth_circuit("golden-evo", 6, 2, 40, 5)),
        seed,
        sequential: Default::default(),
        kind,
    }
}

fn islands(
    key_len: usize,
    population_size: usize,
    generations: usize,
    islands: usize,
    surrogate: bool,
) -> JobKind {
    JobKind::EvolveIslands {
        key_len,
        population_size,
        generations,
        islands,
        migration_interval: 1,
        migrants: 1,
        surrogate,
    }
}

fn evolve(key_len: usize, population_size: usize) -> JobKind {
    JobKind::Evolve {
        key_len,
        population_size,
        generations: 2,
    }
}

fn golden_jobs() -> Vec<JobSpec> {
    vec![
        spec("evolve", 31, evolve(3, 3)),
        spec("islands", 32, islands(3, 4, 2, 2, false)),
        spec("islands-surrogate", 33, islands(3, 4, 1, 2, true)),
        spec("one-island", 34, islands(3, 3, 2, 1, false)),
        spec("bad-evolve-population", 35, evolve(3, 1)),
        spec("bad-evolve-key", 36, evolve(0, 3)),
        spec("bad-evolve-long-key", 37, evolve(10_000, 3)),
        spec("bad-islands-population", 38, islands(3, 1, 2, 2, false)),
        spec("bad-islands-key", 39, islands(0, 4, 2, 2, false)),
        spec("bad-islands-members", 40, islands(3, 3, 2, 2, false)),
        spec("bad-islands-long-key", 41, islands(10_000, 4, 2, 2, true)),
    ]
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `name hash` line per checkpoint in `dir`, sorted by name.
fn checkpoint_digest(dir: &Path) -> String {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            format!(
                "{name} {:016x}\n",
                fnv1a(&fs::read(dir.join(name)).unwrap())
            )
        })
        .collect()
}

/// Runs the golden batch on a fresh engine with `threads` workers and
/// compares its row stream and final checkpoints against the fixtures.
fn assert_golden(threads: usize) {
    let expected = fs::read(ROWS_FIXTURE).expect("golden rows fixture present");
    let expected_checkpoints =
        fs::read_to_string(CHECKPOINTS_FIXTURE).expect("golden checkpoints fixture present");
    let dir = std::env::temp_dir().join(format!(
        "autolock_svc_golden_{threads}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let engine = JobEngine::new(EngineConfig::rooted(&dir, threads)).unwrap();
    engine.run(&golden_jobs()).unwrap();
    let actual = fs::read(dir.join("rows.jsonl")).unwrap();
    assert!(
        actual == expected,
        "rows at {threads} engine threads differ from the golden fixture:\n{}",
        String::from_utf8_lossy(&actual)
    );
    assert_eq!(
        checkpoint_digest(&dir.join("checkpoints")),
        expected_checkpoints,
        "checkpoints at {threads} engine threads differ from the golden fixture"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn golden_evolve_rows_serial() {
    assert_golden(1);
}

#[test]
fn golden_evolve_rows_two_threads() {
    assert_golden(2);
}

#[test]
fn golden_evolve_rows_four_threads() {
    assert_golden(4);
}

#[test]
fn golden_evolve_rows_env_threads() {
    match env_threads() {
        Some(threads) if ![1, 2, 4].contains(&threads) => assert_golden(threads),
        _ => {}
    }
}

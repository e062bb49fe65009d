//! Evolve jobs as AutoLock runs.
//!
//! Every evolve job kind is an [`AutoLockConfig`]: the spec's key length,
//! population, generation budget and seed on top of the paper's defaults,
//! with a serial MLP-backend MuxLink attack as fitness.
//! [`AutoLock::prepare`] assembles the problem — seeded population, fitness,
//! operators, GA — and the job kind picks the [`Resumable`] view the engine
//! drives through its generic load/step/persist loop:
//!
//! * [`JobKind::Evolve`] — the single-population GA, elitism
//!   `min(2, population − 1)`, checkpointed under `{id}.ga.json`;
//! * [`JobKind::EvolveIslands`] — the island model (even with one island),
//!   elitism 1 per island so two-member islands keep breeding, and with
//!   `surrogate` the DGCNN-backend attack as real fitness screened by the
//!   MLP one; checkpointed under `{id}.iga.json`.
//!
//! Islands run serially inside a job: the engine's worker pool is the
//! parallelism level, and results are thread-count invariant either way.
//!
//! [`Resumable`]: autolock_evo::Resumable

use crate::job::{JobKind, JobSpec};
use autolock::{AutoLock, AutoLockConfig, AutoLockError, Evolution, LockingGenotype};
use autolock_attacks::MuxLinkConfig;
use autolock_evo::{GaResult, IslandConfig};
use autolock_netlist::ingest::{self, IngestOptions};
use autolock_netlist::Netlist;

/// The AutoLock configuration an evolve job runs under; `None` for the
/// non-evolve kinds.
fn evolve_config(spec: &JobSpec) -> Option<AutoLockConfig> {
    let fast = MuxLinkConfig::fast().with_threads(1);
    let config = match spec.kind {
        JobKind::Evolve {
            key_len,
            population_size,
            generations,
        } => AutoLockConfig {
            key_len,
            population_size,
            generations,
            elitism: 2.min(population_size.saturating_sub(1)),
            attack: fast,
            ..AutoLockConfig::default()
        },
        JobKind::EvolveIslands {
            key_len,
            population_size,
            generations,
            islands,
            migration_interval,
            migrants,
            surrogate,
        } => AutoLockConfig {
            key_len,
            population_size,
            generations,
            elitism: 1,
            // With screening on, the expensive DGCNN-backend attack is the
            // real fitness and the cheap MLP-backend attack ranks each
            // generation.
            attack: if surrogate {
                MuxLinkConfig::gnn_fast().with_threads(1)
            } else {
                fast.clone()
            },
            surrogate: surrogate.then_some(fast),
            islands: IslandConfig {
                islands: islands.max(1),
                migration_interval,
                migrants,
                threads: 1,
            },
            ..AutoLockConfig::default()
        },
        JobKind::SatAttack { .. } | JobKind::MuxLinkAttack { .. } => return None,
    };
    Some(AutoLockConfig {
        parallel: false,
        seed: spec.seed,
        ..config
    })
}

/// Assembles an evolve job on its already-parsed circuit.
///
/// # Errors
///
/// Returns the row's error text when the spec is not an evolve job, its
/// parameters are invalid, or the circuit cannot host the key. These are
/// deterministic failures — callers should not retry.
pub fn prepare_evolution(spec: &JobSpec, netlist: &Netlist) -> Result<Evolution, String> {
    let config =
        evolve_config(spec).ok_or_else(|| format!("job {} is not an evolve job", spec.id))?;
    AutoLock::new(config).prepare(netlist).map_err(|e| match e {
        AutoLockError::InvalidConfig { reason } => reason,
        AutoLockError::Lock(e) => format!("lock: {e}"),
    })
}

/// Like [`prepare_evolution`], but ingests the spec's source first through
/// the format-detecting front door (honoring its sequential mode) — for
/// drivers outside the engine, such as the E14 experiment, that pre-step
/// and checkpoint a job exactly as the engine would.
///
/// # Errors
///
/// The errors of [`prepare_evolution`], plus `parse: …` when the source
/// does not parse.
pub fn prepare_evolution_from_source(spec: &JobSpec) -> Result<Evolution, String> {
    let opts = IngestOptions {
        sequential: spec.sequential,
        ..IngestOptions::default()
    };
    let netlist = ingest::parse_auto(&spec.circuit, &spec.source, &opts)
        .map_err(|e| format!("parse: {e}"))?
        .netlist;
    prepare_evolution(spec, &netlist)
}

/// The result type evolve jobs produce.
pub type EvolveResult = GaResult<LockingGenotype>;

//! The traced replay: the same job specs, driven through the public
//! functions `JobEngine` composes, with a span around each call.
//!
//! Every job kind follows the engine's protocol step for step — the same
//! RNG draws, checkpoint names and writes, registry lookups and row fields —
//! so the rows must come out byte-identical to the engine's; the caller
//! checks that. Outputs are verified afterwards, outside the timed region
//! (see [`verify`]).

use crate::spans::{Recorder, Span};
use autolock::operators::{CrossoverKind, LocusCrossover, LocusMutation, MutationKind};
use autolock::{LockingGenotype, MuxLinkFitness};
use autolock_attacks::{
    netlist_fingerprint, KeyGuess, MuxLinkAttack, MuxLinkBackend, MuxLinkConfig,
    ResumableSatAttack, SatAttack, SatAttackConfig,
};
use autolock_evo::{
    CrossoverOperator, FitnessFunction, GaConfig, GeneticAlgorithm, Genotype, IslandConfig,
    IslandGa, MutationOperator, Resumable, ResumableGa, ResumableIslandGa, SelectionMethod,
};
use autolock_locking::{DMuxLocking, Key, LockedNetlist};
use autolock_netlist::ingest::{self, CircuitFormat, IngestOptions};
use autolock_netlist::Netlist;
use autolock_service::{
    CheckpointStore, EngineConfig, JobKind, JobRow, JobSpec, JobStatus, ModelRegistry,
    RegistryLookup, StoreRead,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Plain counters the replay accumulates next to its spans.
#[derive(Default)]
pub struct Counters {
    pub parse_bytes: AtomicU64,
    pub store_write_bytes: AtomicU64,
    pub registry_hits: AtomicU64,
    pub registry_misses: AtomicU64,
    pub registry_bytes: AtomicU64,
    pub muxlink_candidates: AtomicU64,
    pub subgraph_hits: AtomicU64,
    pub subgraph_lookups: AtomicU64,
    pub fitness_cache_hits: AtomicU64,
    pub fitness_cache_lookups: AtomicU64,
    pub evo_generations: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Per-job difficulty, reported so seed-to-seed variation is visible.
#[derive(Debug, Clone, Default)]
pub struct JobFacts {
    pub sat_dips: u64,
    pub sat_conflicts: u64,
}

/// What [`verify`] re-checks once the timed replay is over. One short-lived
/// value per job, so the variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
enum Check {
    /// The SAT-recovered key must unlock the design.
    SatKey {
        original: Netlist,
        locked: LockedNetlist,
        key: Key,
        success: bool,
    },
    /// The reported MuxLink accuracy must match the guesses against the
    /// designer's key.
    Accuracy {
        truth: Key,
        guesses: Vec<KeyGuess>,
        reported: f64,
    },
}

/// One replayed job.
pub struct Replayed {
    pub row: JobRow,
    pub facts: JobFacts,
    check: Option<Check>,
}

/// Drives job specs through the engine's building blocks against its own
/// checkpoint store and model registry.
pub struct Replay<'a> {
    rec: &'a Recorder,
    store: CheckpointStore,
    registry: ModelRegistry,
    sat_step_conflicts: Option<u64>,
    counters: &'a Counters,
}

impl<'a> Replay<'a> {
    /// Opens the store and registry exactly where an engine with `config`
    /// keeps them; spans go to `rec` and counts accumulate in `counters`.
    pub fn new(
        rec: &'a Recorder,
        counters: &'a Counters,
        config: &EngineConfig,
    ) -> std::io::Result<Self> {
        let store = CheckpointStore::open(
            &config.checkpoint_dir,
            &config.quarantine_dir,
            config.faults.clone(),
        )?;
        let registry_dir = config
            .registry_dir
            .as_ref()
            .expect("the benchmark's engines always keep a registry");
        Ok(Replay {
            rec,
            store,
            registry: ModelRegistry::open_with_faults(registry_dir, config.faults.clone())?,
            sat_step_conflicts: config.sat_step_conflicts,
            counters,
        })
    }

    fn span(&self, name: &'static str) -> Span<'a> {
        self.rec.span(name)
    }

    /// Replays one job. Errors name the step that failed; the benchmark
    /// chooses batches on which no job fails, so any error is a finding.
    pub fn job(&self, index: u32, spec: &JobSpec) -> Result<Replayed, String> {
        let _job = self.rec.job_span("job", index);
        let opts = IngestOptions {
            sequential: spec.sequential,
            ..IngestOptions::default()
        };
        let netlist = {
            let _s = self.span("netlist.parse");
            ingest::parse_auto(&spec.circuit, &spec.source, &opts)
        }
        .map_err(|e| format!("parse: {e}"))?
        .netlist;
        add(&self.counters.parse_bytes, spec.source.len() as u64);
        match &spec.kind {
            JobKind::SatAttack {
                lock,
                timeout_ms,
                max_propagations_per_solve,
                max_iterations,
            } => {
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
                let locked = {
                    let _s = self.span("locking.lock");
                    lock.apply(&netlist, &mut rng)
                }
                .map_err(|e| format!("lock: {e}"))?;
                let attack = SatAttack::new(SatAttackConfig {
                    max_iterations: *max_iterations,
                    timeout_ms: u128::from(*timeout_ms),
                    max_propagations_per_solve: *max_propagations_per_solve,
                    checkpoint_conflicts: self.sat_step_conflicts,
                });
                let outcome = self.run_resumable(
                    &ResumableSatAttack::new(&attack, &locked, &netlist),
                    &format!("{}.sat.json", spec.id),
                    ["sat.encode", "sat.solve", "sat.finish"],
                )?;
                let row = JobRow {
                    status: if outcome.gave_up {
                        JobStatus::Timeout
                    } else {
                        JobStatus::Ok
                    },
                    key_len: outcome.key_len,
                    success: outcome.success,
                    iterations: outcome.iterations as u64,
                    ..base_row(spec, "sat")
                };
                Ok(Replayed {
                    row,
                    facts: JobFacts {
                        sat_dips: outcome.iterations as u64,
                        sat_conflicts: outcome.solver_conflicts,
                    },
                    check: Some(Check::SatKey {
                        original: netlist,
                        locked,
                        key: outcome.recovered_key,
                        success: outcome.success,
                    }),
                })
            }
            JobKind::MuxLinkAttack { lock, attack } => {
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
                let locked = {
                    let _s = self.span("locking.lock");
                    lock.apply(&netlist, &mut rng)
                }
                .map_err(|e| format!("lock: {e}"))?;
                let attack = MuxLinkAttack::new(attack.clone().with_threads(1));
                let key = ModelRegistry::model_key(
                    netlist_fingerprint(locked.netlist()),
                    attack.config(),
                    spec.seed,
                );
                let lookup = {
                    let _s = self.span("registry.load");
                    self.registry.load_checked(&key)
                };
                let model = match lookup {
                    RegistryLookup::Hit(model) => {
                        add(&self.counters.registry_hits, 1);
                        let _ = rng.next_u64();
                        *model
                    }
                    RegistryLookup::Miss | RegistryLookup::Corrupt => {
                        add(&self.counters.registry_misses, 1);
                        let model = {
                            let _s = self.span(match attack.config().backend {
                                MuxLinkBackend::Mlp => "mlcore.train",
                                MuxLinkBackend::Gnn => "gnn.train",
                            });
                            attack.train_model(&locked, &mut rng)
                        };
                        let _s = self.span("registry.store");
                        self.registry
                            .store(&key, &model)
                            .map_err(|e| format!("registry store: {e}"))?;
                        model
                    }
                };
                let stored = std::fs::metadata(self.registry.path_for(&key))
                    .map_err(|e| format!("registry entry: {e}"))?;
                add(&self.counters.registry_bytes, stored.len());
                let (outcome, scores) = {
                    let _s = self.span("muxlink.score");
                    attack.attack_with_model(&locked, &model, &mut rng)
                };
                add(&self.counters.muxlink_candidates, scores.len() as u64);
                let cache = attack.cache_stats();
                add(&self.counters.subgraph_hits, cache.hits);
                add(&self.counters.subgraph_lookups, cache.hits + cache.misses);
                let row = JobRow {
                    attack: outcome.attack.clone(),
                    key_len: outcome.key_len,
                    key_accuracy: Some(outcome.key_accuracy),
                    ..base_row(spec, "")
                };
                Ok(Replayed {
                    row,
                    facts: JobFacts::default(),
                    check: Some(Check::Accuracy {
                        truth: locked.key().clone(),
                        guesses: outcome.guesses,
                        reported: outcome.key_accuracy,
                    }),
                })
            }
            JobKind::Evolve {
                key_len,
                population_size,
                generations,
            } => self.evolve(spec, netlist, *key_len, *population_size, *generations),
            JobKind::EvolveIslands { .. } => self.evolve_islands(spec, netlist),
        }
    }

    /// The engine's resumable protocol: look for a checkpoint (a fresh
    /// directory has none), initialize, persist, then step and persist after
    /// every step that leaves work, and finish.
    fn run_resumable<R: Resumable>(
        &self,
        job: &R,
        name: &str,
        [init, step, finish]: [&'static str; 3],
    ) -> Result<R::Output, String> {
        let found = {
            let _s = self.span("store.read");
            self.store.read(name)
        }
        .map_err(|e| format!("store read: {e}"))?;
        if !matches!(found, StoreRead::Absent) {
            return Err(format!("checkpoint {name} exists in a fresh store"));
        }
        let mut state = {
            let _s = self.span(init);
            job.init_state()
        };
        self.write_checkpoint(job, &state, name)?;
        loop {
            let more = {
                let _s = self.span(step);
                job.step(&mut state)
            };
            if !more {
                break;
            }
            self.write_checkpoint(job, &state, name)?;
        }
        let _s = self.span(finish);
        Ok(job.finish(state))
    }

    fn write_checkpoint<R: Resumable>(
        &self,
        job: &R,
        state: &R::State,
        name: &str,
    ) -> Result<(), String> {
        let payload = {
            let _s = self.span("store.serialize");
            serde_json::to_string(&job.checkpoint(state)).expect("checkpoint serializes to JSON")
        };
        {
            let _s = self.span("store.write");
            self.store.write(name, payload.as_bytes())
        }
        .map_err(|e| format!("store write: {e}"))?;
        add(&self.counters.store_write_bytes, payload.len() as u64);
        Ok(())
    }

    /// `JobKind::Evolve`, assembled like the service's `EvolveJob` but with
    /// timed fitness and operators.
    fn evolve(
        &self,
        spec: &JobSpec,
        netlist: Netlist,
        key_len: usize,
        population_size: usize,
        generations: usize,
    ) -> Result<Replayed, String> {
        if population_size < 2 || key_len == 0 {
            return Err("invalid evolve parameters".into());
        }
        let original = Arc::new(netlist);
        let ga = GeneticAlgorithm::new(ga_config(generations, 2.min(population_size - 1)));
        let fitness = MuxLinkFitness::new(
            original.clone(),
            MuxLinkConfig::fast().with_threads(1),
            spec.seed,
            1,
        );
        let crossover = LocusCrossover::new(original.clone(), key_len, CrossoverKind::OnePoint);
        let mutation = LocusMutation::new(original.clone(), key_len, MutationKind::Composite);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let initial = self.seed_population(&original, key_len, population_size, &mut rng)?;
        let timed = Timed::new(self.rec, &fitness);
        let (x, m) = (
            Timed::new(self.rec, &crossover),
            Timed::new(self.rec, &mutation),
        );
        let job = ResumableGa::new(&ga, initial, &timed, &x, &m, rng);
        let result = self.run_resumable(
            &job,
            &format!("{}.ga.json", spec.id),
            ["evo.init", "evo.step", "evo.finish"],
        )?;
        self.count_fitness_cache(&fitness);
        Ok(self.evolve_replayed(spec, key_len, &result))
    }

    /// `JobKind::EvolveIslands` without surrogate screening (the only form
    /// the workloads submit), assembled like the service's `IslandEvolveJob`
    /// (islands run serially inside the job, as in the engine) with timed
    /// fitness and operators.
    fn evolve_islands(&self, spec: &JobSpec, netlist: Netlist) -> Result<Replayed, String> {
        let JobKind::EvolveIslands {
            key_len,
            population_size,
            generations,
            islands,
            migration_interval,
            migrants,
            surrogate: false,
        } = spec.kind
        else {
            return Err("surrogate-screened island jobs are not replayed".into());
        };
        let k = islands.max(1);
        if population_size < 2 || key_len == 0 || population_size < 2 * k {
            return Err("invalid island-evolve parameters".into());
        }
        let original = Arc::new(netlist);
        let island_ga = IslandGa::new(
            GeneticAlgorithm::new(ga_config(generations, 1)),
            IslandConfig {
                islands: k,
                migration_interval,
                migrants,
                threads: 1,
            },
        );
        let fitness = MuxLinkFitness::new(
            original.clone(),
            MuxLinkConfig::fast().with_threads(1),
            spec.seed,
            1,
        );
        let crossover = LocusCrossover::new(original.clone(), key_len, CrossoverKind::OnePoint);
        let mutation = LocusMutation::new(original.clone(), key_len, MutationKind::Composite);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let initial = self.seed_population(&original, key_len, population_size, &mut rng)?;
        let timed = Timed::new(self.rec, &fitness);
        let (x, m) = (
            Timed::new(self.rec, &crossover),
            Timed::new(self.rec, &mutation),
        );
        let job = ResumableIslandGa::new(&island_ga, initial, &timed, &x, &m, None, rng);
        let result = self.run_resumable(
            &job,
            &format!("{}.iga.json", spec.id),
            ["evo.init", "evo.step", "evo.finish"],
        )?;
        self.count_fitness_cache(&fitness);
        Ok(self.evolve_replayed(spec, key_len, &result))
    }

    /// The initial D-MUX population, drawn locus selection after locus
    /// selection from the job RNG (the service's seeding protocol).
    fn seed_population(
        &self,
        original: &Arc<Netlist>,
        key_len: usize,
        population_size: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<LockingGenotype>, String> {
        let _s = self.span("locking.lock");
        let locking = DMuxLocking::default();
        (0..population_size)
            .map(|_| {
                locking
                    .select_loci(original, key_len, rng)
                    .map_err(|e| format!("lock: {e}"))
            })
            .collect()
    }

    fn count_fitness_cache(&self, fitness: &MuxLinkFitness) {
        let cache = fitness.cache();
        add(&self.counters.fitness_cache_hits, cache.hits());
        add(
            &self.counters.fitness_cache_lookups,
            cache.hits() + cache.misses(),
        );
    }

    fn evolve_replayed(
        &self,
        spec: &JobSpec,
        key_len: usize,
        result: &autolock_service::EvolveResult,
    ) -> Replayed {
        let generations = result.history.len().saturating_sub(1) as u64;
        add(&self.counters.evo_generations, generations);
        Replayed {
            row: JobRow {
                key_len,
                key_accuracy: Some(1.0 - result.best_fitness),
                iterations: generations,
                ..base_row(spec, "evolve")
            },
            facts: JobFacts::default(),
            check: None,
        }
    }
}

/// The GA settings the service uses for every evolve job.
fn ga_config(generations: usize, elitism: usize) -> GaConfig {
    GaConfig {
        generations,
        crossover_rate: 0.9,
        mutation_rate: 0.4,
        elitism,
        selection: SelectionMethod::Tournament { size: 3 },
        parallel: false,
        target_fitness: None,
        stagnation_limit: None,
    }
}

/// An `ok` row for `spec` with every kind-specific field at its default.
fn base_row(spec: &JobSpec, attack: &str) -> JobRow {
    JobRow {
        job_id: spec.id.clone(),
        circuit: spec.circuit.clone(),
        format: CircuitFormat::sniff(&spec.source).label().to_string(),
        attack: attack.to_string(),
        status: JobStatus::Ok,
        key_len: spec.kind.key_len(),
        success: true,
        key_accuracy: None,
        iterations: 0,
        attempts: None,
        error: None,
    }
}

/// Wraps a fitness function or variation operator in spans
/// (`fitness.eval`, `evo.operator`).
struct Timed<'a, T> {
    rec: &'a Recorder,
    inner: &'a T,
}

impl<'a, T> Timed<'a, T> {
    fn new(rec: &'a Recorder, inner: &'a T) -> Self {
        Timed { rec, inner }
    }
}

impl<G: Genotype, F: FitnessFunction<G>> FitnessFunction<G> for Timed<'_, F> {
    fn evaluate(&self, genotype: &G) -> f64 {
        let _s = self.rec.span("fitness.eval");
        self.inner.evaluate(genotype)
    }

    fn target(&self) -> Option<f64> {
        self.inner.target()
    }
}

impl<G: Genotype, C: CrossoverOperator<G>> CrossoverOperator<G> for Timed<'_, C> {
    fn crossover(&self, a: &G, b: &G, rng: &mut dyn RngCore) -> (G, G) {
        let _s = self.rec.span("evo.operator");
        self.inner.crossover(a, b, rng)
    }
}

impl<G: Genotype, M: MutationOperator<G>> MutationOperator<G> for Timed<'_, M> {
    fn mutate(&self, genotype: &mut G, rng: &mut dyn RngCore) {
        let _s = self.rec.span("evo.operator");
        self.inner.mutate(genotype, rng)
    }
}

/// Random-pattern rounds (64 patterns each) for the SAT key check.
const KEY_CHECK_ROUNDS: usize = 32;

/// Re-checks replayed outputs with code other than the attack under test:
/// every SAT-recovered key must show zero output corruption against the
/// original design under random simulation, and every MuxLink accuracy must
/// equal the share of guesses matching the designer's key. Returns one
/// message per failed check.
pub fn verify(replayed: &[Replayed], seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, r) in replayed.iter().enumerate() {
        let failure = match &r.check {
            Some(Check::SatKey {
                original,
                locked,
                key,
                success,
            }) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ i as u64);
                match locked.corruption_under_key(original, key, KEY_CHECK_ROUNDS, &mut rng) {
                    _ if !success => Some("SAT attack reported no key".to_string()),
                    Ok(0.0) => None,
                    Ok(c) => Some(format!("recovered key corrupts {c} of output bits")),
                    Err(e) => Some(format!("key check: {e}")),
                }
            }
            Some(Check::Accuracy {
                truth,
                guesses,
                reported,
            }) => {
                let bits: BTreeSet<usize> = guesses.iter().map(|g| g.bit).collect();
                let right = guesses
                    .iter()
                    .filter(|g| truth.get(g.bit) == Some(g.value))
                    .count();
                if guesses.len() != truth.len() || bits.len() != truth.len() {
                    Some(format!(
                        "{} guesses for {} key bits",
                        guesses.len(),
                        truth.len()
                    ))
                } else if (right as f64 / truth.len() as f64 - reported).abs() > 1e-12 {
                    Some(format!(
                        "reported accuracy {reported}, guesses give {right}/{}",
                        truth.len()
                    ))
                } else {
                    None
                }
            }
            None => None,
        };
        if let Some(msg) = failure {
            failures.push(format!("{}: {msg}", r.row.job_id));
        }
    }
    failures
}

//! The end-to-end AutoLock pipeline.

use crate::config::AutoLockConfig;
use crate::fitness::MuxLinkFitness;
use crate::genotype::LockingGenotype;
use crate::operators::{LocusCrossover, LocusMutation};
use crate::report::{AutoLockError, AutoLockResult, GenerationRecord};
use crate::Result;
use autolock_evo::{
    GaConfig, GenerationStats, GeneticAlgorithm, IslandGa, Resumable, ResumableGa,
    ResumableIslandGa, SurrogateScreen,
};
use autolock_locking::{apply_loci, LockedNetlist};
use autolock_netlist::Netlist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// The AutoLock engine: wires the genotype, the evolutionary operators, the
/// MuxLink fitness oracle and the GA together (Fig. 1 of the paper).
#[derive(Debug, Clone)]
pub struct AutoLock {
    config: AutoLockConfig,
}

/// The assembled evolve problem of one AutoLock run (steps 1–3 of Fig. 1):
/// the seeded initial population, the MuxLink fitness (plus the surrogate
/// that shares its cache, when configured), the locus operators, the GA
/// engines and the RNG positioned right after seeding.
///
/// It lends the run out as the two [`Resumable`] views — the classic
/// single-population GA ([`Evolution::single`]) and the island model
/// ([`Evolution::islands`]) — so [`AutoLock::run`], the job service and
/// any other driver step exactly the same problem.
pub struct Evolution {
    original: Arc<Netlist>,
    island_ga: IslandGa,
    fitness: MuxLinkFitness,
    surrogate: Option<MuxLinkFitness>,
    survivor_fraction: f64,
    crossover: LocusCrossover,
    mutation: LocusMutation,
    initial: Vec<LockingGenotype>,
    rng: ChaCha8Rng,
}

impl Evolution {
    /// The single-population GA view. Surrogate screening is an island-model
    /// feature, so this view never consults the surrogate.
    pub fn single(
        &self,
    ) -> ResumableGa<'_, LockingGenotype, MuxLinkFitness, LocusCrossover, LocusMutation> {
        ResumableGa::new(
            self.island_ga.ga(),
            self.initial.clone(),
            &self.fitness,
            &self.crossover,
            &self.mutation,
            self.rng.clone(),
        )
    }

    /// The island-model view (also valid with a single island), screened by
    /// the surrogate when one is configured.
    pub fn islands(
        &self,
    ) -> ResumableIslandGa<'_, LockingGenotype, MuxLinkFitness, LocusCrossover, LocusMutation> {
        let screen = self.surrogate.as_ref().map(|s| SurrogateScreen {
            surrogate: s,
            survivor_fraction: self.survivor_fraction,
        });
        ResumableIslandGa::new(
            &self.island_ga,
            self.initial.clone(),
            &self.fitness,
            &self.crossover,
            &self.mutation,
            screen,
            self.rng.clone(),
        )
    }

    /// The real fitness: its evaluation count and its [`crate::FitnessCache`]
    /// (shared with the surrogate) accumulate over every view's run.
    pub fn fitness(&self) -> &MuxLinkFitness {
        &self.fitness
    }
}

impl AutoLock {
    /// Creates an engine with the given configuration.
    pub fn new(config: AutoLockConfig) -> Self {
        AutoLock { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoLockConfig {
        &self.config
    }

    /// Validates the configuration and assembles the evolve problem on
    /// `original`: the population is seeded with `config.locking` from
    /// `ChaCha8Rng::seed_from_u64(config.seed)`, and the GA stream starts
    /// where seeding left the RNG.
    ///
    /// # Errors
    ///
    /// * [`AutoLockError::InvalidConfig`] for inconsistent configurations,
    ///   including island runs whose islands are too small to breed,
    /// * [`AutoLockError::Lock`] if the netlist cannot host the requested key
    ///   length.
    pub fn prepare(&self, original: &Netlist) -> Result<Evolution> {
        let cfg = &self.config;
        let invalid = |reason: String| Err(AutoLockError::InvalidConfig { reason });
        if cfg.population_size < 2 {
            return invalid("population size must be at least 2".into());
        }
        if cfg.key_len == 0 {
            return invalid("key length must be at least 1".into());
        }
        if cfg.elitism >= cfg.population_size {
            return invalid("elitism must be smaller than the population size".into());
        }
        let islands = cfg.islands.islands.max(1);
        if cfg.population_size < islands * 2 {
            return invalid(format!(
                "population size {} cannot fill {islands} islands with 2 members each",
                cfg.population_size
            ));
        }
        // The smallest island keeps `elitism` members unchanged; it must
        // still have room for offspring or it silently stops evolving.
        let smallest_island = cfg.population_size / islands;
        if cfg.elitism >= smallest_island {
            return invalid(format!(
                "elitism {} leaves no offspring in islands of {smallest_island} members",
                cfg.elitism
            ));
        }
        let use_islands = islands > 1;

        let original = Arc::new(original.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Step 1 (Fig. 1): lock the original netlist N times with random keys
        // to obtain the initial population of encodings. `cfg.locking`
        // selects the insertion policy — uniformly random pairs (the
        // paper's setup) or locality-aware pairs for structured circuits.
        let initial = (0..cfg.population_size)
            .map(|_| cfg.locking.select_loci(&original, cfg.key_len, &mut rng))
            .collect::<std::result::Result<Vec<_>, _>>()?;

        // Step 2: fitness = 1 - MuxLink accuracy. When the GA itself fans
        // fitness evaluations across all cores, each in-loop attack must run
        // serially — the thread-knob precedence rule documented on
        // `MuxLinkConfig::threads` — or every worker would nest its own
        // all-core pools. Thread count never changes attack outcomes, so
        // this only affects wall clock.
        let attack_config = if cfg.parallel || use_islands {
            cfg.attack.clone().with_threads(1)
        } else {
            cfg.attack.clone()
        };
        let mut fitness = MuxLinkFitness::new(
            original.clone(),
            attack_config,
            cfg.seed,
            cfg.attack_repeats,
        );
        if let Some(t) = cfg.target_fitness {
            fitness = fitness.with_target(t);
        }
        // Surrogate screening: the cheap attack shares the real fitness's
        // cache, so a genotype the surrogate already scored is still
        // re-scored by the real fitness on its first survival — different
        // context keys keep the values apart.
        let surrogate = cfg.surrogate.as_ref().map(|sc| {
            MuxLinkFitness::new(
                original.clone(),
                sc.clone().with_threads(1),
                cfg.seed,
                cfg.attack_repeats,
            )
            .with_cache(fitness.cache().clone())
        });

        // Step 3: evolutionary operators over the locus-list genotype.
        let crossover = LocusCrossover::new(original.clone(), cfg.key_len, cfg.crossover_kind);
        let mutation = LocusMutation::new(original.clone(), cfg.key_len, cfg.mutation_kind);

        let ga = GeneticAlgorithm::new(GaConfig {
            generations: cfg.generations,
            crossover_rate: cfg.crossover_rate,
            mutation_rate: cfg.mutation_rate,
            elitism: cfg.elitism,
            selection: cfg.selection,
            // Under islands, the island fan-out is the parallelism level.
            parallel: cfg.parallel && !use_islands,
            target_fitness: cfg.target_fitness,
            stagnation_limit: cfg.stagnation_limit,
        });
        Ok(Evolution {
            original,
            island_ga: IslandGa::new(ga, cfg.islands),
            fitness,
            surrogate,
            survivor_fraction: cfg.surrogate_survivor_fraction,
            crossover,
            mutation,
            initial,
            rng,
        })
    }

    /// Runs the full pipeline on `original` and returns the evolved locked
    /// netlist together with the convergence record. Island runs
    /// (`config.islands.islands > 1`) evolve through [`Evolution::islands`],
    /// all others through the single-population GA.
    ///
    /// # Errors
    ///
    /// The errors of [`AutoLock::prepare`].
    pub fn run(&self, original: &Netlist) -> Result<AutoLockResult> {
        let start = Instant::now();
        // Top-level pipeline span; the GA's per-generation spans and the
        // in-loop attacks' stage spans nest under it in the trace.
        let _span = autolock_obs::span!("autolock.run");
        autolock_obs::counter("autolock.runs").incr();
        let evolution = self.prepare(original)?;
        let mut migrations = 0;
        let ga_result = if self.config.islands.islands > 1 {
            let job = evolution.islands();
            let mut state = job.init_state();
            while job.step(&mut state) {}
            migrations = state.migrations;
            job.finish(state)
        } else {
            evolution.island_ga.ga().run(
                evolution.initial.clone(),
                &evolution.fitness,
                &evolution.crossover,
                &evolution.mutation,
                &mut evolution.rng.clone(),
            )
        };

        // Step 4: decode the fittest genotype back into a locked netlist.
        let original = &evolution.original;
        let decoded = apply_loci(original, &ga_result.best)?;
        let locked = LockedNetlist::new(
            decoded.netlist().clone(),
            decoded.key().clone(),
            decoded.provenance().to_vec(),
            "autolock",
            original.name(),
        )?;

        let history = generation_records(&ga_result.history);
        let baseline_attack_accuracy = history
            .first()
            .map(|h| h.mean_attack_accuracy)
            .unwrap_or(1.0);

        let fitness = evolution.fitness();
        Ok(AutoLockResult {
            locked,
            best_genotype: ga_result.best,
            baseline_attack_accuracy,
            final_attack_accuracy: 1.0 - ga_result.best_fitness,
            history,
            fitness_evaluations: fitness.evaluations(),
            best_generation: ga_result.best_generation,
            runtime_ms: start.elapsed().as_millis(),
            migrations,
            fitness_cache_hits: fitness.cache().hits(),
            fitness_cache_misses: fitness.cache().misses(),
        })
    }
}

/// The GA's per-generation fitness statistics in the paper's terms (attack
/// accuracy = 1 − fitness).
fn generation_records(history: &[GenerationStats]) -> Vec<GenerationRecord> {
    history
        .iter()
        .map(|s| GenerationRecord {
            generation: s.generation,
            best_attack_accuracy: 1.0 - s.best,
            mean_attack_accuracy: 1.0 - s.mean,
            worst_attack_accuracy: 1.0 - s.worst,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::synth_circuit;
    use rand::SeedableRng;

    fn small_circuit() -> Netlist {
        synth_circuit("engine", 10, 4, 120, 55)
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.population_size = 1;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.key_len = 0;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.elitism = cfg.population_size;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        let mut cfg = AutoLockConfig::tiny();
        cfg.key_len = 10_000;
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::Lock(_))
        ));
    }

    #[test]
    fn run_produces_functional_locked_netlist_and_history() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 3;
        cfg.population_size = 5;
        cfg.key_len = 6;
        cfg.parallel = false;
        let result = AutoLock::new(cfg).run(&nl).unwrap();

        assert_eq!(result.locked.key_len(), 6);
        assert_eq!(result.locked.scheme(), "autolock");
        assert_eq!(result.best_genotype.len(), 6);
        assert!(!result.history.is_empty());
        assert!(result.fitness_evaluations > 0);
        // Correct key must preserve functionality.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert!(result.locked.verify_functional(&nl, 8, &mut rng).unwrap());
        // The evolved locking is never worse than the baseline (elitism).
        assert!(result.final_attack_accuracy <= result.baseline_attack_accuracy + 1e-9);
        assert!(result.accuracy_drop_pp() >= -1e-9);
    }

    #[test]
    fn island_run_migrates_and_is_thread_count_invariant() {
        use autolock_evo::IslandConfig;
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 2;
        cfg.population_size = 6;
        cfg.key_len = 4;
        cfg.parallel = false;
        cfg.islands = IslandConfig {
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            threads: 1,
        };
        // Surrogate == real attack here: exact mode, so screening must not
        // change anything while still exercising the shared-cache path.
        cfg.surrogate = Some(cfg.attack.clone());
        let a = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        cfg.islands.threads = 4;
        let b = AutoLock::new(cfg).run(&nl).unwrap();
        assert_eq!(a.best_genotype, b.best_genotype);
        assert_eq!(
            a.final_attack_accuracy.to_bits(),
            b.final_attack_accuracy.to_bits()
        );
        assert_eq!(a.migrations, 2, "interval 1 over 2 generations");
        assert!(
            a.fitness_cache_hits > 0,
            "surrogate pass must share the cache"
        );
        assert!(a.fitness_cache_misses > 0);
        assert!((0.0..=1.0).contains(&a.final_attack_accuracy));
    }

    #[test]
    fn island_run_rejects_undersized_populations() {
        use autolock_evo::IslandConfig;
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.population_size = 5;
        cfg.islands = IslandConfig {
            islands: 3,
            ..IslandConfig::default()
        };
        assert!(matches!(
            AutoLock::new(cfg).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        // Two 2-member islands under the default elitism of 2 would keep
        // both members as elites and never breed an offspring.
        let mut cfg = AutoLockConfig::tiny();
        cfg.population_size = 4;
        cfg.islands = IslandConfig {
            islands: 2,
            ..IslandConfig::default()
        };
        assert_eq!(cfg.elitism, 2);
        assert!(matches!(
            AutoLock::new(cfg.clone()).run(&nl),
            Err(AutoLockError::InvalidConfig { .. })
        ));
        cfg.elitism = 1;
        assert!(AutoLock::new(cfg).prepare(&nl).is_ok());
    }

    /// Drives a [`Resumable`] view to its final state with a serde
    /// round-trip of its checkpoint after the first generation, as a killed
    /// and restarted service job would.
    fn resume_round_trip<R: Resumable>(job: &R) -> R::State {
        let mut state = job.init_state();
        assert!(job.step(&mut state), "the run has more than one generation");
        let json = serde_json::to_string(&job.checkpoint(&state)).unwrap();
        drop(state);
        let mut state = job.restore(serde_json::from_str(&json).unwrap()).unwrap();
        while job.step(&mut state) {}
        state
    }

    fn assert_same_run(
        resumed: &autolock_evo::GaResult<LockingGenotype>,
        evaluations: usize,
        expected: &AutoLockResult,
    ) {
        assert_eq!(resumed.best, expected.best_genotype);
        assert_eq!(
            (1.0 - resumed.best_fitness).to_bits(),
            expected.final_attack_accuracy.to_bits()
        );
        assert_eq!(generation_records(&resumed.history), expected.history);
        assert_eq!(evaluations, expected.fitness_evaluations);
    }

    #[test]
    fn prepared_views_resume_to_the_same_result_as_run() {
        use autolock_evo::IslandConfig;
        let nl = synth_circuit("engine-resume", 8, 3, 60, 55);
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 2;
        cfg.population_size = 4;
        cfg.key_len = 3;
        cfg.parallel = false;

        let expected = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        let evolution = AutoLock::new(cfg.clone()).prepare(&nl).unwrap();
        let job = evolution.single();
        let resumed = job.finish(resume_round_trip(&job));
        assert_same_run(&resumed, evolution.fitness().evaluations(), &expected);
        assert_eq!(expected.migrations, 0);

        cfg.elitism = 1;
        cfg.islands = IslandConfig {
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            threads: 1,
        };
        let expected = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        let evolution = AutoLock::new(cfg).prepare(&nl).unwrap();
        let job = evolution.islands();
        let state = resume_round_trip(&job);
        assert_eq!(state.migrations, expected.migrations);
        assert_eq!(expected.migrations, 2, "interval 1 over 2 generations");
        let resumed = job.finish(state);
        assert_same_run(&resumed, evolution.fitness().evaluations(), &expected);
    }

    #[test]
    fn runs_are_reproducible() {
        let nl = small_circuit();
        let mut cfg = AutoLockConfig::tiny();
        cfg.generations = 2;
        cfg.population_size = 4;
        cfg.key_len = 4;
        cfg.parallel = false;
        let a = AutoLock::new(cfg.clone()).run(&nl).unwrap();
        let b = AutoLock::new(cfg).run(&nl).unwrap();
        assert_eq!(a.best_genotype, b.best_genotype);
        assert_eq!(a.final_attack_accuracy, b.final_attack_accuracy);
    }
}

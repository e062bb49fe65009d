//! The benchmark's workloads: closed batches of [`JobSpec`]s generated from
//! the `--seed` argument. The same seed always yields the same batch.

use autolock_attacks::MuxLinkConfig;
use autolock_circuits::{suite_circuit, synth_circuit};
use autolock_netlist::ingest::SequentialHandling;
use autolock_netlist::write_bench;
use autolock_service::{JobKind, JobSpec, LockSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SatAttack,
    MuxlinkCold,
    MuxlinkWarm,
    Evolve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SatAttack,
        Workload::MuxlinkCold,
        Workload::MuxlinkWarm,
        Workload::Evolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SatAttack => "sat_attack",
            Workload::MuxlinkCold => "muxlink_cold",
            Workload::MuxlinkWarm => "muxlink_warm",
            Workload::Evolve => "evolve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's batch. Warm MuxLink runs the cold job list against a
    /// registry that already holds every model.
    pub fn jobs(self, seed: u64) -> Vec<JobSpec> {
        match self {
            Workload::SatAttack => sat_jobs(seed),
            Workload::MuxlinkCold | Workload::MuxlinkWarm => muxlink_jobs(seed),
            Workload::Evolve => evolve_jobs(seed),
        }
    }
}

/// SAT jobs per batch.
const SAT_JOBS: usize = 192;
/// Key bits of every SAT job's lock.
const SAT_KEY_BITS: usize = 24;
/// The structured tier the MuxLink workloads attack.
const STRUCTURED: [&str; 6] = ["st1355", "st2670", "st3540", "st5315", "st6288", "st7552"];
/// Jobs per structured circuit and MuxLink backend: two, so a batch
/// averages enough lock placements to be steady from seed to seed.
const MUXLINK_REPEATS: usize = 2;
/// Synthetic circuit sizes of the evolve workload, one job pair each.
const EVOLVE_GATES: [usize; 8] = [120, 140, 160, 180, 200, 220, 240, 260];
/// Seed of the evolve workload's circuits.
const EVOLVE_CIRCUITS: u64 = 0xE7_0C1C;
/// MuxLink baseline jobs per evolve circuit: two, so the baseline accuracy
/// averages enough key bits to be steady from seed to seed.
const BASELINES_PER_CIRCUIT: usize = 2;
/// Key bits of the evolve workload's lockings.
const EVOLVE_KEY_BITS: usize = 16;

/// SplitMix64: derives independent per-job seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(id: String, circuit: String, source: String, seed: u64, kind: JobKind) -> JobSpec {
    JobSpec {
        id,
        circuit,
        source,
        seed,
        sequential: SequentialHandling::Reject,
        kind,
    }
}

/// Synthetic netlists spread evenly over 300–600 gates, alternately XOR- and
/// D-MUX-locked; the seed picks each circuit's structure and the lock
/// placement. No instance is filtered out, however slow.
fn sat_jobs(seed: u64) -> Vec<JobSpec> {
    (0..SAT_JOBS)
        .map(|i| {
            let gates = 300 + 300 * i / (SAT_JOBS - 1);
            let name = format!("sat{i:02}_g{gates}");
            let netlist = synth_circuit(
                &name,
                gates / 10,
                gates / 20,
                gates,
                mix(seed, 2 * i as u64),
            );
            let lock = if i % 2 == 0 {
                LockSpec::Xor {
                    key_len: SAT_KEY_BITS,
                }
            } else {
                LockSpec::DMux {
                    key_len: SAT_KEY_BITS,
                }
            };
            spec(
                name.clone(),
                name,
                write_bench(&netlist),
                mix(seed, 2 * i as u64 + 1),
                JobKind::SatAttack {
                    lock,
                    timeout_ms: 600_000,
                    max_propagations_per_solve: None,
                    max_iterations: 100_000,
                },
            )
        })
        .collect()
}

/// Every structured-tier circuit, D-MUX-locked at about 1% key density,
/// attacked with the service's MLP configuration and with the fast DGCNN
/// configuration, each [`MUXLINK_REPEATS`] times under its own job seed.
fn muxlink_jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for name in STRUCTURED {
        let netlist = suite_circuit(name).expect("structured-tier member");
        let key_len = (netlist.num_logic_gates() + 50) / 100;
        let source = write_bench(&netlist);
        for (tag, attack) in [
            ("mlp", MuxLinkConfig::fast()),
            ("gnn", MuxLinkConfig::gnn_fast()),
        ] {
            for k in 1..=MUXLINK_REPEATS {
                jobs.push(spec(
                    format!("{name}.{tag}{k}"),
                    name.to_string(),
                    source.clone(),
                    mix(seed, jobs.len() as u64),
                    JobKind::MuxLinkAttack {
                        lock: LockSpec::DMux { key_len },
                        attack: attack.clone(),
                    },
                ));
            }
        }
    }
    jobs
}

/// AutoLock GA jobs on a fixed set of synthetic circuits, alternating the
/// classic GA and the island-model GA, each with MuxLink baseline jobs
/// attacking random D-MUX lockings of the same circuit and key length. As
/// on the structured tier, the circuits do not depend on the run seed: GA
/// time varies far more with the circuit than with the GA's own draws, and
/// a batch this small would otherwise measure which circuits a seed drew.
/// The seed drives every job's locking, GA and attack randomness.
fn evolve_jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, &gates) in EVOLVE_GATES.iter().enumerate() {
        let name = format!("evo{i}_g{gates}");
        let netlist = synth_circuit(
            &name,
            gates / 10,
            gates / 20,
            gates,
            mix(EVOLVE_CIRCUITS, i as u64),
        );
        let source = write_bench(&netlist);
        let kind = if i % 2 == 0 {
            JobKind::Evolve {
                key_len: EVOLVE_KEY_BITS,
                population_size: 4,
                generations: 2,
            }
        } else {
            JobKind::EvolveIslands {
                key_len: EVOLVE_KEY_BITS,
                population_size: 4,
                generations: 2,
                islands: 2,
                migration_interval: 1,
                migrants: 1,
                surrogate: false,
            }
        };
        jobs.push(spec(
            format!("{name}.evolve"),
            name.clone(),
            source.clone(),
            mix(seed, 3 * i as u64),
            kind,
        ));
        for b in 1..=BASELINES_PER_CIRCUIT {
            jobs.push(spec(
                format!("{name}.baseline{b}"),
                name.clone(),
                source.clone(),
                mix(seed, 3 * i as u64 + b as u64),
                JobKind::MuxLinkAttack {
                    lock: LockSpec::DMux {
                        key_len: EVOLVE_KEY_BITS,
                    },
                    attack: MuxLinkConfig::fast(),
                },
            ));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.jobs(5), w.jobs(5), "{}", w.name());
            assert_ne!(w.jobs(5), w.jobs(6), "{}", w.name());
            let jobs = w.jobs(5);
            let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), jobs.len(), "unique ids in {}", w.name());
        }
    }
}

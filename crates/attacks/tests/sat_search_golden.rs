//! Golden SAT-attack search paths: for 24 seeded synthetic circuits (XOR
//! and D-MUX, 24-bit keys), the exact miter and key-solver work counters,
//! the DIP count and the recovered key, driven step by step under the
//! service engine's default 20k-conflict checkpoint granule.
//!
//! The fixture pins the CDCL search itself: a solver change that alters a
//! single decision, propagation order or restart shows up as a diff here,
//! so speedups that claim to keep the search path must pass it unchanged.

use autolock_attacks::{SatAttack, SatAttackConfig};
use autolock_circuits::synth_circuit;
use autolock_locking::{DMuxLocking, LockingScheme, XorLocking};
use autolock_satsolver::SolverStats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/sat-search-golden.txt"
);

const JOBS: u64 = 24;
const KEY_BITS: usize = 24;

fn stats_line(stats: SolverStats) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        stats.decisions, stats.propagations, stats.conflicts, stats.learned_clauses, stats.restarts
    )
}

/// One fixture line per attack:
/// `name dips=D miter=dec/prop/confl/learnt/restarts key=... recovered=bits`.
fn golden_line(i: u64) -> String {
    let gates = 120 + 10 * i as usize;
    let name = format!("golden{i:02}_g{gates}");
    let original = synth_circuit(&name, gates / 10, gates / 20, gates, 1000 + i);
    let mut rng = ChaCha8Rng::seed_from_u64(2000 + i);
    let locked = if i % 2 == 1 {
        DMuxLocking::default().lock(&original, KEY_BITS, &mut rng)
    } else {
        XorLocking::default().lock(&original, KEY_BITS, &mut rng)
    }
    .unwrap();
    let attack = SatAttack::new(SatAttackConfig {
        checkpoint_conflicts: Some(20_000),
        ..SatAttackConfig::default()
    });
    let mut state = attack.init_state(&locked, &original);
    while attack.step(&mut state, &locked, &original) {}
    let (miter, key) = state.solver_stats();
    let outcome = attack.finish(state, &locked);
    assert!(outcome.success, "{name}: {outcome:?}");
    let recovered: String = outcome
        .recovered_key
        .bits()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    format!(
        "{name} dips={} miter={} key={} recovered={recovered}",
        outcome.iterations,
        stats_line(miter),
        stats_line(key)
    )
}

#[test]
fn sat_attack_search_paths_match_the_golden_fixture() {
    let actual: String = (0..JOBS).map(|i| golden_line(i) + "\n").collect();
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert!(
        actual == expected,
        "SAT attack search path changed; actual:\n{actual}"
    );
}

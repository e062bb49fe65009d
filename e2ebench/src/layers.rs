//! Per-layer metrics derived from the traced replay's spans and counters.

use crate::replay::Counters;
use crate::spans::{totals_by_name, SpanRecord};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Everything the traced run measured, over `passes` replay passes.
pub struct TracedRun<'a> {
    pub spans: &'a [SpanRecord],
    pub counters: &'a Counters,
    /// Per replay pass (every pass replays the same jobs).
    pub sat_dips: u64,
    pub sat_conflicts: u64,
    pub passes: usize,
    pub threads: usize,
    pub replay_wall_s: f64,
    pub engine_jobs_per_s: f64,
    pub replay_jobs_per_s: f64,
}

/// The per-layer metrics in reporting order: `(name, unit, value)`.
/// Amounts are per replay pass; rates and shares are over all passes.
pub fn per_layer(run: &TracedRun) -> Vec<(&'static str, &'static str, f64)> {
    let p = run.passes.max(1) as f64;
    let totals: HashMap<&str, (u64, f64, f64)> = totals_by_name(run.spans)
        .into_iter()
        .map(|(name, n, total, own)| (name, (n, total, own)))
        .collect();
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64);
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.2);
    let c = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let k = run.counters;

    let mut job_s: Vec<f64> = run
        .spans
        .iter()
        .filter(|s| s.name == "job")
        .map(SpanRecord::seconds)
        .collect();
    job_s.sort_by(f64::total_cmp);
    let sat_conflicts = run.sat_conflicts as f64;

    vec![
        ("engine.job_s.p50", "s", median_sorted(&job_s)),
        (
            "engine.job_s.max",
            "s",
            job_s.last().copied().unwrap_or(0.0),
        ),
        ("engine.job_s.count", "count", job_s.len() as f64 / p),
        (
            "engine.busy_fraction",
            "fraction",
            ratio(job_s.iter().sum(), run.threads as f64 * run.replay_wall_s),
        ),
        ("store.writes", "count", count("store.write") / p),
        ("store.write_bytes", "bytes", c(&k.store_write_bytes) / p),
        ("store.serialize_s", "s", total_s("store.serialize") / p),
        ("store.write_s", "s", total_s("store.write") / p),
        ("registry.hits", "count", c(&k.registry_hits) / p),
        ("registry.misses", "count", c(&k.registry_misses) / p),
        (
            "registry.hit_rate",
            "fraction",
            ratio(
                c(&k.registry_hits),
                c(&k.registry_hits) + c(&k.registry_misses),
            ),
        ),
        ("registry.bytes", "bytes", c(&k.registry_bytes) / p),
        ("registry.store_s", "s", total_s("registry.store") / p),
        ("registry.load_s", "s", total_s("registry.load") / p),
        ("netlist.parse_s", "s", total_s("netlist.parse") / p),
        (
            "netlist.parse_mb_per_s",
            "MB/s",
            ratio(c(&k.parse_bytes) / 1e6, total_s("netlist.parse")),
        ),
        ("locking.lock_s", "s", total_s("locking.lock") / p),
        ("sat.encode_s", "s", total_s("sat.encode") / p),
        ("sat.solve_s", "s", total_s("sat.solve") / p),
        ("sat.steps", "count", count("sat.solve") / p),
        ("sat.dips", "count", run.sat_dips as f64),
        ("sat.conflicts", "count", sat_conflicts),
        (
            "sat.conflicts_per_s",
            "1/s",
            ratio(sat_conflicts * p, total_s("sat.solve")),
        ),
        ("muxlink.candidates", "count", c(&k.muxlink_candidates) / p),
        ("muxlink.score_s", "s", total_s("muxlink.score") / p),
        (
            "muxlink.subgraph_hit_rate",
            "fraction",
            ratio(c(&k.subgraph_hits), c(&k.subgraph_lookups)),
        ),
        ("mlcore.train_s", "s", total_s("mlcore.train") / p),
        ("gnn.train_s", "s", total_s("gnn.train") / p),
        ("fitness.evals", "count", count("fitness.eval") / p),
        ("fitness.eval_s", "s", total_s("fitness.eval") / p),
        (
            "fitness.cache_hit_rate",
            "fraction",
            ratio(c(&k.fitness_cache_hits), c(&k.fitness_cache_lookups)),
        ),
        ("evo.generations", "count", c(&k.evo_generations) / p),
        ("evo.step_s", "s", total_s("evo.step") / p),
        ("evo.operator_s", "s", total_s("evo.operator") / p),
        ("evo.self_s", "s", self_s("evo.step") / p),
        (
            "trace_overhead",
            "fraction",
            1.0 - ratio(run.replay_jobs_per_s, run.engine_jobs_per_s),
        ),
    ]
}

/// Median of an ascending slice (0 when empty).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of any slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

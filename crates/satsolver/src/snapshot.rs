//! Packed binary snapshots of a [`Solver`]'s complete search state.
//!
//! A [`SolverSnapshot`] captures everything a CDCL search needs to continue
//! bit-identically after a process kill: the clause database (original and
//! learnt clauses), the watch lists *in their current order* (watcher order
//! determines propagation order, which determines the rest of the search),
//! the trail with its decision levels and reasons, VSIDS activities, phase
//! saving, work counters, and the per-call pause/restart/budget bookkeeping.
//!
//! What a snapshot deliberately does **not** carry is the runtime
//! configuration that a resuming process re-arms itself: the
//! [`SolveBudget`](crate::SolveBudget) (its wall-clock deadline is an
//! `Instant`, meaningless in another process) and the pause granule. Callers
//! restore those with [`Solver::set_budget`] and
//! [`Solver::set_pause_granule`] after [`Solver::from_snapshot`]. The
//! deterministic budget baselines (`base_conflicts`/`base_propagations`)
//! *are* carried, so a propagation-capped call that was paused keeps
//! counting against the same per-call baseline after resuming.
//!
//! Nor does it carry derived state. The VSIDS decision heap is a function
//! of the activities (ordered by activity, then index), so
//! [`Solver::from_snapshot`] rebuilds it; the conflict-analysis `seen`
//! marks are all false between conflicts and are recreated empty. Neither
//! changes the format or its version.
//!
//! # Format
//!
//! [`Solver::snapshot`] encodes the live solver in one pass into a packed
//! byte string, version 1. Integers are unsigned LEB128 varints; every
//! array carries its own length prefix. A *delta* is the zigzag varint of
//! the wrapping difference from the previous value of the same stream
//! (starting at 0), which keeps the clause indices and literal codes of the
//! SAT attack's many circuit copies at one or two bytes each.
//!
//! | part | encoding |
//! |---|---|
//! | header | magic `ALSS`, version byte `1`, flags byte (bit 0 `ok`, bit 1 `paused`), variable count |
//! | clauses | count, then per clause `len << 1 \| learnt` and `len` literal codes as deltas (one stream over all clauses) |
//! | watches | count (2 per variable), then per literal code a count and the watching clause indices in watch order, as deltas (one stream over all lists) |
//! | assigns | count, one byte per variable (`0x00` unassigned, `0x01` true, `0xFF` false) |
//! | level | count, one varint per variable |
//! | reason | count, per variable `clause index + 1` (`0` = decision or unassigned) |
//! | activity | count, then the number of non-zero entries and, per entry, the gap since the previous one and the 8-byte little-endian `f64::to_bits` (most variables are never bumped) |
//! | var_inc | 8-byte little-endian `f64::to_bits` |
//! | polarity, model | count, one byte per variable (`0`/`1`; model like assigns) |
//! | trail | count, literal codes as deltas; then `trail_lim` (count, varints) and `qhead` |
//! | counters | decisions, propagations, conflicts, learned clauses, restarts, the two per-call budget baselines, conflicts since restart, restart limit, pause mark |
//!
//! The codec is exact: activities travel as raw IEEE-754 bit patterns, so a
//! restored solver makes the same VSIDS decisions as the original, and
//! decoding accepts exactly one encoding per state (canonical varints, no
//! stray flag bits, no explicitly stored zero activity), so a decoded
//! snapshot re-encodes to the identical bytes.
//! Through serde a snapshot is a single base64 string, which is how it
//! appears inside JSON checkpoints. A payload of another version — or the
//! field-by-field JSON object of earlier releases — fails to deserialize;
//! callers treat that like any other corrupt checkpoint.
//!
//! [`Solver::from_snapshot`] decodes straight into the solver's fields and
//! checks every cross-index (clause and watch indices, literal codes, trail
//! limits, `qhead`) and every activity for finiteness; a length prefix is
//! checked against the bytes that remain before anything is allocated for
//! it, so a corrupt or hostile payload yields an `Err`, never a panic or a
//! runaway allocation.

use crate::codec::{self, put_delta, put_f64, put_uvar, Reader};
use crate::order::VarOrder;
use crate::solver::{Clause, Solver};
use crate::{Lit, SolveBudget, SolverStats};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Leading bytes of every packed snapshot.
const MAGIC: &[u8; 4] = b"ALSS";
/// Format version written by [`Solver::snapshot`]; the only one accepted.
const VERSION: u8 = 1;
const FLAG_OK: u8 = 1;
const FLAG_PAUSED: u8 = 2;
/// Literal codes are `u32`, so at most 2^31 variables are representable.
const MAX_VARS: usize = 1 << 31;

/// The complete search state of a [`Solver`], packed.
///
/// Produced by [`Solver::snapshot`], consumed by [`Solver::from_snapshot`].
/// Serializes as one base64 string of the packed bytes (see the
/// [module docs](self) for the layout); the round trip is exact.
#[derive(Clone, PartialEq, Eq)]
pub struct SolverSnapshot {
    bytes: Vec<u8>,
    num_vars: usize,
    paused: bool,
}

impl SolverSnapshot {
    /// Number of variables in the snapshotted solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// `true` when the snapshot was taken mid-search (the solver was
    /// paused); resuming it continues the suspended solve.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Wraps packed bytes after checking the header; the body is checked by
    /// [`Solver::from_snapshot`].
    fn from_bytes(bytes: Vec<u8>) -> Result<Self, String> {
        let (flags, num_vars) = read_header(&mut Reader::new(&bytes))?;
        Ok(SolverSnapshot {
            bytes,
            num_vars,
            paused: flags & FLAG_PAUSED != 0,
        })
    }
}

impl fmt::Debug for SolverSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverSnapshot")
            .field("num_vars", &self.num_vars)
            .field("paused", &self.paused)
            .field("packed_bytes", &self.bytes.len())
            .finish()
    }
}

impl Serialize for SolverSnapshot {
    fn to_value(&self) -> Value {
        Value::Str(codec::base64_encode(&self.bytes))
    }
}

impl Deserialize for SolverSnapshot {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let text = v
            .as_str()
            .ok_or_else(|| DeError::custom("solver snapshot: expected a base64 string"))?;
        codec::base64_decode(text)
            .and_then(SolverSnapshot::from_bytes)
            .map_err(|e| DeError::custom(format!("solver snapshot: {e}")))
    }
}

fn read_header(r: &mut Reader<'_>) -> Result<(u8, usize), String> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err("not a packed solver snapshot (bad magic)".to_string());
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        ));
    }
    let flags = r.u8()?;
    if flags & !(FLAG_OK | FLAG_PAUSED) != 0 {
        return Err(format!("unknown snapshot flags {flags:#04x}"));
    }
    let num_vars = r.usize()?;
    if num_vars > MAX_VARS {
        return Err(format!(
            "{num_vars} variables exceed the literal code range"
        ));
    }
    Ok((flags, num_vars))
}

#[inline]
fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_uvar(out, v as u64);
}

/// `assigns`/`model` cell encoding: `-1` travels as `0xFF`.
fn decode_lbool(what: &str, raw: &[u8]) -> Result<Vec<i8>, String> {
    raw.iter()
        .map(|&b| match b {
            0x00 => Ok(0),
            0x01 => Ok(1),
            0xFF => Ok(-1),
            _ => Err(format!(
                "{what} byte {b:#04x} is not false, unassigned or true"
            )),
        })
        .collect()
}

/// Reads a per-variable array's length prefix, which must equal `nvars`,
/// and checks that `nvars` items of `min_item_bytes` fit in the input.
fn per_var_len(
    r: &mut Reader<'_>,
    name: &str,
    nvars: usize,
    min_item_bytes: usize,
) -> Result<(), String> {
    let len = r.usize()?;
    if len != nvars {
        return Err(format!(
            "snapshot field {name} has {len} entries for {nvars} variables"
        ));
    }
    r.check_fits(name, len, min_item_bytes)
}

/// A delta-coded literal, checked against the variable count.
fn read_lit(r: &mut Reader<'_>, prev: &mut u64, nvars: usize, what: &str) -> Result<Lit, String> {
    let code = r.delta_usize(prev)?;
    if code / 2 >= nvars {
        return Err(format!(
            "{what} literal code {code} exceeds {nvars} variables"
        ));
    }
    Ok(Lit::from_code(code))
}

/// Decodes and validates a packed snapshot body into a solver.
fn decode(bytes: &[u8]) -> Result<Solver, String> {
    let mut r = Reader::new(bytes);
    let (flags, nvars) = read_header(&mut r)?;

    let nclauses = r.count("clauses", 1)?;
    let mut clauses = Vec::with_capacity(nclauses);
    let mut prev_lit = 0;
    for _ in 0..nclauses {
        let head = r.usize()?;
        let len = head >> 1;
        if len < 2 {
            return Err(format!(
                "clause with {len} literals (attached clauses have at least 2)"
            ));
        }
        r.check_fits("clause", len, 1)?;
        let lits = (0..len)
            .map(|_| read_lit(&mut r, &mut prev_lit, nvars, "clause"))
            .collect::<Result<Vec<_>, _>>()?;
        clauses.push(Clause {
            lits,
            learnt: head & 1 == 1,
        });
    }

    let nwatches = r.count("watches", 1)?;
    if nvars.checked_mul(2) != Some(nwatches) {
        return Err(format!(
            "snapshot has {nwatches} watch lists for {nvars} variables"
        ));
    }
    let mut watches = Vec::with_capacity(nwatches);
    let mut prev_watch = 0;
    for _ in 0..nwatches {
        let n = r.count("watch list", 1)?;
        let ws = (0..n)
            .map(|_| match r.delta_usize(&mut prev_watch)? {
                ci if ci < nclauses => Ok(ci),
                ci => Err(format!("watch refers to clause {ci} of {nclauses}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        watches.push(ws);
    }

    per_var_len(&mut r, "assigns", nvars, 1)?;
    let assigns = decode_lbool("assigns", r.take(nvars)?)?;
    per_var_len(&mut r, "level", nvars, 1)?;
    let level = (0..nvars)
        .map(|_| {
            let l = r.uvar()?;
            u32::try_from(l).map_err(|_| format!("decision level {l} exceeds u32"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    per_var_len(&mut r, "reason", nvars, 1)?;
    let reason = (0..nvars)
        .map(|_| match r.usize()? {
            0 => Ok(None),
            k if k - 1 < nclauses => Ok(Some(k - 1)),
            k => Err(format!("reason refers to clause {} of {nclauses}", k - 1)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    // `assigns` consumed one byte per variable, so this allocation is
    // bounded by the input size.
    per_var_len(&mut r, "activity", nvars, 0)?;
    let mut activity = vec![0.0; nvars];
    let mut next = 0usize;
    for _ in 0..r.count("non-zero activities", 9)? {
        let v = next
            .checked_add(r.usize()?)
            .filter(|&v| v < nvars)
            .ok_or_else(|| format!("activity entry beyond {nvars} variables"))?;
        let a = r.f64()?;
        if a.to_bits() == 0 {
            return Err("explicitly stored zero activity".to_string());
        }
        activity[v] = a;
        next = v + 1;
    }
    let var_inc = r.f64()?;
    if !activity.iter().all(|a| a.is_finite()) || !var_inc.is_finite() {
        return Err("non-finite VSIDS activity".to_string());
    }
    per_var_len(&mut r, "polarity", nvars, 1)?;
    let polarity = r
        .take(nvars)?
        .iter()
        .map(|&b| match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(format!("polarity byte {b:#04x} is not 0 or 1")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    per_var_len(&mut r, "model", nvars, 1)?;
    let model = decode_lbool("model", r.take(nvars)?)?;

    let ntrail = r.count("trail", 1)?;
    let mut prev_lit = 0;
    let trail = (0..ntrail)
        .map(|_| read_lit(&mut r, &mut prev_lit, nvars, "trail"))
        .collect::<Result<Vec<_>, _>>()?;
    let nlim = r.count("trail_lim", 1)?;
    let trail_lim = (0..nlim)
        .map(|_| match r.usize()? {
            lim if lim <= ntrail => Ok(lim),
            lim => Err(format!(
                "decision-level limit {lim} beyond trail length {ntrail}"
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let qhead = r.usize()?;
    if qhead > ntrail {
        return Err(format!("qhead {qhead} beyond trail length {ntrail}"));
    }

    let stats = SolverStats {
        decisions: r.uvar()?,
        propagations: r.uvar()?,
        conflicts: r.uvar()?,
        learned_clauses: r.uvar()?,
        restarts: r.uvar()?,
    };
    let base_conflicts = r.uvar()?;
    let base_propagations = r.uvar()?;
    let conflicts_since_restart = r.uvar()?;
    let restart_limit = r.uvar()?;
    let pause_mark = r.uvar()?;
    r.finish()?;

    let order = VarOrder::with_all(&activity);
    Ok(Solver {
        clauses,
        watches,
        assigns,
        level,
        reason,
        trail,
        trail_lim,
        qhead,
        activity,
        var_inc,
        polarity,
        model,
        ok: flags & FLAG_OK != 0,
        stats,
        budget: SolveBudget::default(),
        paused: flags & FLAG_PAUSED != 0,
        base_conflicts,
        base_propagations,
        conflicts_since_restart,
        restart_limit,
        pause_mark,
        pause_granule: None,
        order,
        seen: vec![false; nvars],
    })
}

impl Solver {
    /// Captures the solver's complete search state. Valid at any point the
    /// caller holds the solver — between solve calls or while a solve is
    /// suspended via [`Solver::set_pause_granule`]. Encodes in one pass
    /// straight from the live fields; nothing is cloned.
    pub fn snapshot(&self) -> SolverSnapshot {
        let nvars = self.assigns.len();
        // Typical packed cost: ~6 bytes per variable, ~7 per clause
        // (literals plus its two watch entries).
        let mut out = Vec::with_capacity(64 + 8 * nvars + 8 * self.clauses.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        let mut flags = 0;
        if self.ok {
            flags |= FLAG_OK;
        }
        if self.paused {
            flags |= FLAG_PAUSED;
        }
        out.push(flags);
        put_usize(&mut out, nvars);

        put_usize(&mut out, self.clauses.len());
        let mut prev = 0;
        for c in &self.clauses {
            put_usize(&mut out, c.lits.len() << 1 | usize::from(c.learnt));
            for l in &c.lits {
                put_delta(&mut out, &mut prev, l.code() as u64);
            }
        }
        put_usize(&mut out, self.watches.len());
        let mut prev = 0;
        for ws in &self.watches {
            put_usize(&mut out, ws.len());
            for &ci in ws {
                put_delta(&mut out, &mut prev, ci as u64);
            }
        }

        put_usize(&mut out, self.assigns.len());
        out.extend(self.assigns.iter().map(|&a| a as u8));
        put_usize(&mut out, self.level.len());
        for &l in &self.level {
            put_uvar(&mut out, u64::from(l));
        }
        put_usize(&mut out, self.reason.len());
        for r in &self.reason {
            put_usize(&mut out, r.map_or(0, |ci| ci + 1));
        }
        put_usize(&mut out, self.activity.len());
        let bumped = || {
            self.activity
                .iter()
                .enumerate()
                .filter(|(_, a)| a.to_bits() != 0)
        };
        put_usize(&mut out, bumped().count());
        let mut next = 0;
        for (v, &a) in bumped() {
            put_usize(&mut out, v - next);
            put_f64(&mut out, a);
            next = v + 1;
        }
        put_f64(&mut out, self.var_inc);
        put_usize(&mut out, self.polarity.len());
        out.extend(self.polarity.iter().map(|&p| u8::from(p)));
        put_usize(&mut out, self.model.len());
        out.extend(self.model.iter().map(|&m| m as u8));

        put_usize(&mut out, self.trail.len());
        let mut prev = 0;
        for l in &self.trail {
            put_delta(&mut out, &mut prev, l.code() as u64);
        }
        put_usize(&mut out, self.trail_lim.len());
        for &lim in &self.trail_lim {
            put_usize(&mut out, lim);
        }
        put_usize(&mut out, self.qhead);

        for counter in [
            self.stats.decisions,
            self.stats.propagations,
            self.stats.conflicts,
            self.stats.learned_clauses,
            self.stats.restarts,
            self.base_conflicts,
            self.base_propagations,
            self.conflicts_since_restart,
            self.restart_limit,
            self.pause_mark,
        ] {
            put_uvar(&mut out, counter);
        }

        SolverSnapshot {
            bytes: out,
            num_vars: nvars,
            paused: self.paused,
        }
    }

    /// Rebuilds a solver from a snapshot. The budget and pause granule are
    /// reset to their defaults (unbounded, no pausing) — re-arm them with
    /// [`Solver::set_budget`] / [`Solver::set_pause_granule`] before the
    /// next solve call; the per-call baselines carried by the snapshot keep
    /// deterministic (conflict/propagation) budgets consistent across the
    /// kill.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency found —
    /// a snapshot deserialized from a torn or corrupt checkpoint fails here
    /// instead of panicking deep inside the search.
    pub fn from_snapshot(snapshot: SolverSnapshot) -> Result<Solver, String> {
        decode(&snapshot.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Var};

    /// The unsatisfiable pigeonhole instance used across the solver tests:
    /// hard enough to produce conflicts, restarts and learnt clauses.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&lits);
        }
        for i in 0..pigeons {
            for k in (i + 1)..pigeons {
                for (&a, &b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
    }

    /// Pigeonhole 7×6 suspended at its first 25-conflict pause: learnt
    /// clauses, a multi-level trail and bumped activities, all mid-search.
    fn paused_pigeonhole() -> Solver {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        s.set_pause_granule(Some(25));
        assert_eq!(s.solve(), SolveResult::Paused);
        s
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a hashes of the packed snapshot of pigeonhole 9×8, paused every
    /// 50 conflicts, at fixed conflict counts and after its final verdict.
    /// `var_inc` passes 1e100 after about 4.5k conflicts, so the last two
    /// follow an activity rescale.
    const PIGEONHOLE_SNAPSHOT_GOLDEN: [(u64, u64); 5] = [
        (50, 0x1737_7b1a_8d1d_3525),
        (500, 0x889f_1cd9_c26a_dbcf),
        (2_000, 0xf7da_ae0e_b9ba_7acc),
        (6_000, 0x3678_e63b_506f_5c81),
        (17_521, 0xf1d7_aa47_cba7_2a44),
    ];

    #[test]
    fn pigeonhole_snapshot_bytes_match_the_golden_hashes() {
        const AT: [u64; 4] = [50, 500, 2_000, 6_000];
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        s.set_pause_granule(Some(50));
        let mut hashes = Vec::new();
        let verdict = loop {
            match s.solve() {
                SolveResult::Paused => {
                    if AT.contains(&s.stats().conflicts) {
                        hashes.push((s.stats().conflicts, fnv1a(&s.snapshot().bytes)));
                    }
                }
                verdict => break verdict,
            }
        };
        assert_eq!(verdict, SolveResult::Unsat);
        hashes.push((s.stats().conflicts, fnv1a(&s.snapshot().bytes)));
        assert_eq!(hashes, PIGEONHOLE_SNAPSHOT_GOLDEN, "{hashes:#x?}");
    }

    #[test]
    fn paused_solve_resumes_to_identical_result_and_stats() {
        let mut plain = Solver::new();
        pigeonhole(&mut plain, 7, 6);
        let reference = plain.solve();
        assert_eq!(reference, SolveResult::Unsat);

        let mut paced = Solver::new();
        pigeonhole(&mut paced, 7, 6);
        paced.set_pause_granule(Some(10));
        let mut pauses = 0;
        let result = loop {
            match paced.solve() {
                SolveResult::Paused => pauses += 1,
                verdict => break verdict,
            }
        };
        assert!(pauses > 0, "granule of 10 must pause a pigeonhole search");
        assert_eq!(result, reference);
        assert_eq!(paced.stats(), plain.stats(), "identical search path");
    }

    #[test]
    fn snapshot_roundtrip_mid_solve_is_bit_identical() {
        let mut plain = Solver::new();
        pigeonhole(&mut plain, 7, 6);
        assert_eq!(plain.solve(), SolveResult::Unsat);

        // Same instance, paused every 25 conflicts; at every pause the
        // solver is torn down and rebuilt from a JSON-serialized snapshot.
        let mut live = Solver::new();
        pigeonhole(&mut live, 7, 6);
        live.set_pause_granule(Some(25));
        let mut roundtrips = 0;
        let result = loop {
            match live.solve() {
                SolveResult::Paused => {
                    let json = serde_json::to_string(&live.snapshot()).unwrap();
                    let back: SolverSnapshot = serde_json::from_str(&json).unwrap();
                    assert!(back.is_paused());
                    live = Solver::from_snapshot(back).unwrap();
                    live.set_pause_granule(Some(25));
                    roundtrips += 1;
                }
                verdict => break verdict,
            }
        };
        assert!(roundtrips > 0);
        assert_eq!(result, SolveResult::Unsat);
        assert_eq!(live.stats(), plain.stats(), "identical search path");
    }

    #[test]
    fn snapshot_preserves_sat_models_and_idle_state() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
        s.add_clause(&[Lit::neg(vars[0]), Lit::pos(vars[2])]);
        s.add_clause(&[Lit::neg(vars[2]), Lit::neg(vars[3])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<_> = vars.iter().map(|&v| s.value(v)).collect();

        let restored = Solver::from_snapshot(s.snapshot()).unwrap();
        assert_eq!(restored.num_vars(), s.num_vars());
        assert_eq!(restored.num_clauses(), s.num_clauses());
        let restored_model: Vec<_> = vars.iter().map(|&v| restored.value(v)).collect();
        assert_eq!(restored_model, model);

        // An idle restored solver stays incremental: add a clause, re-solve.
        let mut restored = restored;
        assert!(restored.add_clause(&[Lit::neg(vars[1])]));
        assert_eq!(restored.solve(), SolveResult::Sat);
    }

    #[test]
    fn pause_interacts_correctly_with_deterministic_budgets() {
        // A propagation-capped call that pauses must cut off at the same
        // search point as the uncapped-pause reference, because the per-call
        // baselines survive the pauses.
        let run = |granule: Option<u64>| {
            let mut s = Solver::new();
            pigeonhole(&mut s, 10, 9);
            s.set_budget(crate::SolveBudget::unbounded().with_max_propagations(20_000));
            s.set_pause_granule(granule);
            let verdict = loop {
                match s.solve() {
                    SolveResult::Paused => continue,
                    verdict => break verdict,
                }
            };
            (verdict, s.stats())
        };
        let (plain_verdict, plain_stats) = run(None);
        let (paced_verdict, paced_stats) = run(Some(7));
        assert_eq!(plain_verdict, SolveResult::Unknown);
        assert_eq!(paced_verdict, SolveResult::Unknown);
        assert_eq!(plain_stats, paced_stats);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked_on() {
        // Each inconsistency is planted in a live solver, so the packed
        // encoder writes it faithfully and the decoder must catch it.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        s.set_pause_granule(Some(1));
        assert_eq!(s.solve(), SolveResult::Paused);

        let mut bad = s.clone();
        bad.watches[0].push(usize::MAX);
        assert!(Solver::from_snapshot(bad.snapshot()).is_err());

        let mut bad = s.clone();
        bad.assigns.pop();
        assert!(Solver::from_snapshot(bad.snapshot()).is_err());

        let mut bad = s.clone();
        bad.qhead = usize::MAX;
        assert!(Solver::from_snapshot(bad.snapshot()).is_err());

        let mut bad = s.clone();
        bad.activity[0] = f64::NAN;
        assert!(Solver::from_snapshot(bad.snapshot()).is_err());

        assert!(Solver::from_snapshot(s.snapshot()).is_ok());
    }

    #[test]
    fn decoded_snapshot_reencodes_to_identical_bytes() {
        let live = paused_pigeonhole();
        let snap = live.snapshot();
        assert_eq!(snap.num_vars(), 42);
        assert!(snap.is_paused());
        assert_eq!(
            Solver::from_snapshot(snap.clone()).unwrap().snapshot(),
            snap
        );

        // Through serde the snapshot is one base64 string.
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.starts_with('"') && json.ends_with('"'));
        assert_eq!(serde_json::from_str::<SolverSnapshot>(&json).unwrap(), snap);
    }

    #[test]
    fn truncated_and_flipped_snapshots_error_or_validate_never_panic() {
        let good = paused_pigeonhole().snapshot().bytes;
        // Every field is mandatory, so every strict prefix is an error.
        for cut in 0..good.len() {
            let decoded =
                SolverSnapshot::from_bytes(good[..cut].to_vec()).and_then(Solver::from_snapshot);
            assert!(decoded.is_err(), "prefix of {cut} bytes decoded");
        }
        // A flip either breaks a check or yields another valid state, which
        // then re-encodes to exactly the flipped bytes.
        let mut accepted = 0;
        for at in 0..good.len() {
            for mask in [0x01, 0x40, 0x80, 0xFF] {
                let mut bytes = good.clone();
                bytes[at] ^= mask;
                let decoded =
                    SolverSnapshot::from_bytes(bytes.clone()).and_then(Solver::from_snapshot);
                if let Ok(solver) = decoded {
                    assert_eq!(solver.snapshot().bytes, bytes, "flip {mask:#04x} at {at}");
                    accepted += 1;
                }
            }
        }
        assert!(accepted > 0, "some flips (e.g. in activities) stay valid");
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocating() {
        // A one-variable header followed by a clause count of 2^60, then a
        // valid clause count with a first clause claiming 2^59 literals.
        let header = || {
            let mut bytes = MAGIC.to_vec();
            bytes.extend([VERSION, FLAG_OK]);
            put_usize(&mut bytes, 1);
            bytes
        };
        let mut huge_count = header();
        put_uvar(&mut huge_count, 1 << 60);
        let mut huge_clause = header();
        put_usize(&mut huge_clause, 1);
        put_uvar(&mut huge_clause, 1 << 60);
        for mut bytes in [huge_count, huge_clause] {
            bytes.extend([0; 64]);
            let err = SolverSnapshot::from_bytes(bytes)
                .and_then(Solver::from_snapshot)
                .unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
    }

    /// Length of the field-by-field serde JSON the snapshot serialized to
    /// before the packed codec, measured on [`paused_pigeonhole`].
    const FIELD_BY_FIELD_JSON_LEN: usize = 6334;

    #[test]
    fn packed_json_is_at_most_half_the_field_by_field_json() {
        let json = serde_json::to_string(&paused_pigeonhole().snapshot()).unwrap();
        assert!(
            2 * json.len() <= FIELD_BY_FIELD_JSON_LEN,
            "packed snapshot JSON is {} bytes, field-by-field was {FIELD_BY_FIELD_JSON_LEN}",
            json.len()
        );
    }

    #[test]
    fn other_versions_and_json_era_snapshots_fail_to_deserialize() {
        let mut bytes = paused_pigeonhole().snapshot().bytes;
        bytes[MAGIC.len()] = VERSION + 1;
        let json = format!("\"{}\"", codec::base64_encode(&bytes));
        let err = serde_json::from_str::<SolverSnapshot>(&json).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // What the field-by-field derive wrote for a fresh solver.
        let json_era = r#"{"clauses":[],"watches":[],"assigns":[],"level":[],"reason":[],"trail":[],"trail_lim":[],"qhead":0,"activity":[],"var_inc":1.0,"polarity":[],"model":[],"ok":true,"stats":{"decisions":0,"propagations":0,"conflicts":0,"learned_clauses":0,"restarts":0},"paused":false,"base_conflicts":0,"base_propagations":0,"conflicts_since_restart":0,"restart_limit":100,"pause_mark":0}"#;
        assert!(serde_json::from_str::<SolverSnapshot>(json_era).is_err());
    }
}

//! Fault-tolerant attack execution: the resumable DIP state machine.
//!
//! [`attack::unlock`](crate::attack::unlock) assumes an oracle that never
//! fails, a SAT call that always terminates, and a process that never
//! dies. This module drops all three assumptions. The DIP loop becomes an
//! explicit [`AttackState`] machine driven one [`step`](AttackState::step)
//! at a time against a [`FallibleScanAccess`] oracle, with:
//!
//! * **retry + exponential backoff + jitter** on transient oracle faults
//!   ([`RetryPolicy`]);
//! * **majority-vote replication** to repair bit-flip noise
//!   ([`RobustConfig::replication`]);
//! * **budgeted solving** — each SAT call runs under a
//!   [`Budget`], and `Unknown` answers leave the machine resumable;
//! * **checkpoint / resume** — [`AttackState::checkpoint`] serializes the
//!   run (DIP set, learnt clauses, recovery rows) into a hand-rolled,
//!   dependency-free text format keyed by an instance hash, and
//!   [`AttackState::resume`] rebuilds the machine from bytes, re-validating
//!   every recorded DIP against the live oracle first;
//! * **graceful degradation** — when a budget runs dry or the oracle
//!   becomes unrepairable, [`AttackState::run`] returns a
//!   [`PartialReport`] (recovered rank, nullity, per-seed-bit confidence)
//!   instead of an error.
//!
//! The legacy `unlock` entry point is now a thin wrapper over this
//! machine with a strict no-fault configuration, so both paths exercise
//! the same loop. See DESIGN.md §8 for the fault model, the checkpoint
//! grammar, and the degradation contract.

use std::fmt;
use std::time::{Duration, Instant};

use cnf::Encoder;
use gf2::{BitVec, LinSolver, Rng64, SplitMix64};
use lfsr::recover::SeedRecovery;
use netlist::Circuit;
use satsolver::{Budget, Lit, SolveResult, SolverStats};
use scanlock::{LockSpec, LockedScanChip};
use sim::{FallibleScanAccess, ScanAccess, ScanChain, ScanResponse};

use crate::attack::{locked_cone, seed_copy, AttackConfig, AttackError, SeedCopy, Unlock};
use crate::model::{session_masks, SessionMasks};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How transient oracle faults are retried: exponential backoff with
/// jitter, bounded per logical query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per logical query before the attack degrades
    /// (`0` = fail on the first fault).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff * 2^(k-1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound on a single backoff interval (pre-jitter).
    pub max_backoff: Duration,
    /// Jitter: a deterministic pseudo-random fraction of the backoff, up
    /// to this many parts-per-million of it, is added on top (decorrelates
    /// concurrent attackers hammering one bench).
    pub jitter_ppm: u32,
    /// Whether to actually sleep the backoff. Off by default: the wait is
    /// accounted in [`FaultStats::backoff`] so tests and benches stay
    /// fast; a live bench harness turns it on.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(1),
            jitter_ppm: 500_000, // up to +50%
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: the first fault degrades the attack. The policy
    /// used by the strict (legacy) entry point.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_ppm: 0,
            sleep: false,
        }
    }

    /// The backoff before retry `attempt` (1-based), jittered by `rng`.
    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let base = self.base_backoff.as_nanos();
        let scaled = base.saturating_mul(1u128 << attempt.saturating_sub(1).min(63));
        let capped = scaled.min(self.max_backoff.as_nanos());
        let jitter = if self.jitter_ppm == 0 {
            0
        } else {
            capped * u128::from(rng.gen_range(u64::from(self.jitter_ppm) + 1)) / 1_000_000
        };
        let total = (capped + jitter).min(u128::from(u64::MAX));
        #[allow(clippy::cast_possible_truncation)] // bounded by u64::MAX above
        Duration::from_nanos(total as u64)
    }
}

/// Tuning for a fault-tolerant attack run.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The underlying attack knobs (captures, DIP limit, verification,
    /// xor lowering, certification).
    pub base: AttackConfig,
    /// Times each logical oracle query is repeated for a per-bit majority
    /// vote. `1` disables voting; use an odd factor so votes cannot tie
    /// (ties resolve to `false`).
    pub replication: usize,
    /// Retry/backoff policy for transient faults.
    pub retry: RetryPolicy,
    /// Per-SAT-call work budget. Unlimited by default; when limited, a
    /// tripped call returns to the caller as [`Step::OutOfBudget`] with
    /// the solver warm.
    pub solve_budget: Budget,
    /// How many budget-exhausted SAT calls to tolerate across the run
    /// before degrading with [`DegradeReason::BudgetExhausted`]. Ignored
    /// while `solve_budget` is unlimited.
    pub max_budget_exhaustions: u32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            base: AttackConfig::default(),
            replication: 1,
            retry: RetryPolicy::default(),
            solve_budget: Budget::new(),
            max_budget_exhaustions: 0,
        }
    }
}

impl RobustConfig {
    /// The no-fault-tolerance configuration the legacy
    /// [`unlock`](crate::attack::unlock) wrapper runs under: single
    /// queries, no retries, unlimited solving. Against a reliable oracle
    /// this reproduces the original attack exactly (same query count,
    /// same probes, same result).
    pub fn strict(base: AttackConfig) -> RobustConfig {
        RobustConfig {
            base,
            replication: 1,
            retry: RetryPolicy::none(),
            solve_budget: Budget::new(),
            max_budget_exhaustions: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// Fault-handling counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Oracle queries retried after a transient fault.
    pub retries: u64,
    /// Response bits repaired by majority vote (positions where at least
    /// one replica disagreed with the elected value).
    pub repaired_bits: u64,
    /// Total backoff accounted (and slept, when
    /// [`RetryPolicy::sleep`] is on).
    pub backoff: Duration,
}

/// Why an attack degraded to a [`PartialReport`] instead of finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeReason {
    /// The DIP loop hit [`AttackConfig::max_dips`] before converging.
    DipLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// Too many SAT calls ran out of budget
    /// ([`RobustConfig::max_budget_exhaustions`]).
    BudgetExhausted {
        /// Budget-exhausted calls when the run gave up.
        exhaustions: u32,
    },
    /// A logical oracle query kept faulting after every allowed retry.
    OracleUnavailable {
        /// The retry allowance that was exhausted.
        retries: u32,
    },
    /// Oracle responses contradicted the model — either the spec/chain
    /// don't describe the chip, or bit-flip noise slipped past the
    /// configured replication factor.
    Inconsistent,
    /// The converged seed failed a verification probe.
    VerificationFailed {
        /// Probes checked before the mismatch.
        probes_passed: usize,
    },
    /// Certification was requested and failed (solver soundness bug).
    Certification {
        /// Why the certificate could not be produced or checked.
        reason: String,
    },
}

impl DegradeReason {
    /// Maps degradation back onto the legacy error surface (used by the
    /// strict `unlock` wrapper, where fault-specific reasons cannot
    /// occur).
    pub(crate) fn into_attack_error(self) -> AttackError {
        match self {
            DegradeReason::DipLimit { limit } => AttackError::DipLimit { limit },
            DegradeReason::VerificationFailed { probes_passed } => {
                AttackError::VerificationFailed { probes_passed }
            }
            DegradeReason::Certification { reason } => AttackError::Certification { reason },
            // BudgetExhausted / OracleUnavailable cannot occur under
            // RobustConfig::strict; fold the remainder into the model
            // inconsistency bucket.
            _ => AttackError::Inconsistent,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::DipLimit { limit } => {
                write!(f, "DIP loop did not converge within {limit} iterations")
            }
            DegradeReason::BudgetExhausted { exhaustions } => {
                write!(f, "solve budget exhausted {exhaustions} times")
            }
            DegradeReason::OracleUnavailable { retries } => {
                write!(f, "oracle still faulting after {retries} retries")
            }
            DegradeReason::Inconsistent => {
                write!(f, "oracle responses contradict the lock model")
            }
            DegradeReason::VerificationFailed { probes_passed } => {
                write!(f, "seed failed verification after {probes_passed} probes")
            }
            DegradeReason::Certification { reason } => {
                write!(f, "certification failed: {reason}")
            }
        }
    }
}

impl std::error::Error for DegradeReason {}

/// What a degraded run still knows — the graceful-degradation contract.
///
/// Every field is honest about partial knowledge: `rank`/`nullity`
/// describe the mask row space (a property of the lock, valid even
/// mid-loop), `bit_confidence` grades each seed bit, and
/// `candidate_seed` — when present — is consistent with every oracle
/// response observed so far, but not verified.
#[derive(Debug, Clone)]
pub struct PartialReport {
    /// Why the run degraded.
    pub reason: DegradeReason,
    /// DIP iterations completed before degradation.
    pub dip_iterations: usize,
    /// Oracle query attempts consumed (including retries and replicas).
    pub oracle_queries: usize,
    /// Rank of the session-mask linear system over the seed bits: how
    /// many seed dimensions convergence *would* determine.
    pub rank: usize,
    /// `width - rank`: log2 of the functionally equivalent seed class.
    pub nullity: usize,
    /// Per-seed-bit confidence in `candidate_seed`: `1.0` — pinned by the
    /// completed linear phase; `0.75` — determined by the mask row space
    /// and consistent with every DIP so far, but the loop had not
    /// converged; `0.5` — outside the row space (a pure guess).
    pub bit_confidence: Vec<f64>,
    /// The current best seed hypothesis, when the solver state still
    /// admitted one within budget.
    pub candidate_seed: Option<BitVec>,
    /// Fault-handling counters.
    pub faults: FaultStats,
    /// SAT solver work counters.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the run up to degradation.
    pub total_time: Duration,
}

/// Result of [`AttackState::run`]: full success or a partial report —
/// never a bare error.
#[derive(Debug, Clone)]
pub enum RobustOutcome {
    /// The attack converged and verified.
    Unlocked {
        /// The recovered-seed result (same shape as the strict path).
        unlock: Unlock,
        /// Fault-handling counters for the run.
        faults: FaultStats,
    },
    /// The attack degraded; here is everything it still knows.
    Partial(PartialReport),
}

impl RobustOutcome {
    /// The fault counters, whichever way the run ended.
    pub fn faults(&self) -> &FaultStats {
        match self {
            RobustOutcome::Unlocked { faults, .. } => faults,
            RobustOutcome::Partial(report) => &report.faults,
        }
    }
}

/// What one [`AttackState::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Found a distinguishing input, queried the oracle, constrained both
    /// hypotheses. The loop is still open.
    Dip,
    /// No distinguishing input remains (and the linear phase ran): call
    /// [`AttackState::finish`] to verify and collect the result.
    Converged,
    /// The SAT call ran out of [`RobustConfig::solve_budget`]. The solver
    /// is warm: step again to keep searching, or stop here and take the
    /// [`AttackState::report`].
    OutOfBudget,
    /// The run degraded; further steps are no-ops. Take the
    /// [`AttackState::report`].
    Degraded(DegradeReason),
}

// ---------------------------------------------------------------------
// The state machine
// ---------------------------------------------------------------------

/// One DIP round the oracle answered: the stimulus and the (vote-repaired)
/// response both hypotheses were constrained to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DipRecord {
    pattern: Vec<bool>,
    pis: Vec<bool>,
    response: ScanResponse,
}

/// State the machine carries once the miter has gone UNSAT.
#[derive(Debug, Clone)]
struct Converged {
    seed: BitVec,
    rank: usize,
    /// The recovery-matrix observations (mask row, observed value) the
    /// linear phase consumed — serialized into checkpoints and
    /// cross-checked on resume.
    rows: Vec<(BitVec, bool)>,
}

#[derive(Debug)]
enum Phase {
    Running,
    Converged(Converged),
    Degraded(DegradeReason),
}

/// The resumable DynUnlock attack.
///
/// Drive it with [`step`](AttackState::step) (checkpointing between steps
/// as desired) or let [`run`](AttackState::run) loop to an outcome. The
/// oracle is passed per call, not owned, so a checkpointed process can
/// die, restart, reconnect to the bench, and
/// [`resume`](AttackState::resume).
#[derive(Debug)]
pub struct AttackState<'a> {
    circuit: &'a Circuit,
    chain: &'a ScanChain,
    spec: &'a LockSpec,
    cfg: RobustConfig,
    masks: SessionMasks,
    enc: Encoder,
    copies: [SeedCopy; 2],
    x: Vec<Lit>,
    p: Vec<Lit>,
    act: Lit,
    dips: Vec<DipRecord>,
    phase: Phase,
    faults: FaultStats,
    jitter_rng: SplitMix64,
    start: Instant,
    solve_time: Duration,
    certify_time: Duration,
    oracle_queries: usize,
    exhaustions: u32,
    certificate: Option<proofcheck::Certificate>,
}

impl<'a> AttackState<'a> {
    /// Builds the miter and a fresh machine in the running phase.
    ///
    /// Construction is deterministic: the same `(circuit, chain, spec,
    /// captures, xor_mode)` always produces the same encoder variable
    /// numbering, which is what makes checkpointed learnt clauses
    /// replayable.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree (chain vs. circuit flops,
    /// `captures == 0`).
    pub fn new(
        circuit: &'a Circuit,
        chain: &'a ScanChain,
        spec: &'a LockSpec,
        cfg: RobustConfig,
    ) -> AttackState<'a> {
        let n = chain.len();
        assert_eq!(n, circuit.num_dffs(), "chain must cover all flops");
        assert!(cfg.base.captures > 0, "at least one capture cycle");
        let masks = session_masks(spec, n, cfg.base.captures);

        let mut enc = Encoder::with_mode(cfg.base.xor_mode);
        if cfg.base.certify {
            // Record every constraint verbatim from the start, so the
            // certificate re-derives convergence from the true inputs
            // rather than from this solver's own derived facts.
            enc.solver_mut().enable_input_mirror();
        }
        let copies = [
            seed_copy(&mut enc, spec.width(), &masks),
            seed_copy(&mut enc, spec.width(), &masks),
        ];

        // The miter: a shared symbolic stimulus, both hypotheses'
        // responses, and an activation literal demanding at least one
        // differing bit.
        let x = enc.fresh_many(n);
        let p = enc.fresh_many(circuit.inputs().len());
        let captures = cfg.base.captures;
        let (so1, po1) = locked_cone(&mut enc, circuit, chain, &copies[0], &x, &p, captures);
        let (so2, po2) = locked_cone(&mut enc, circuit, chain, &copies[1], &x, &p, captures);
        let act = enc.fresh();
        let mut miter = vec![!act];
        for (&a, &b) in so1.iter().zip(&so2).chain(po1.iter().zip(&po2)) {
            miter.push(enc.xor2(a, b));
        }
        enc.assert_clause(&miter);

        let jitter_rng = SplitMix64::new(cfg.base.rng_seed ^ 0x9E37_79B9_7F4A_7C15);
        AttackState {
            circuit,
            chain,
            spec,
            cfg,
            masks,
            enc,
            copies,
            x,
            p,
            act,
            dips: Vec::new(),
            phase: Phase::Running,
            faults: FaultStats::default(),
            jitter_rng,
            start: Instant::now(),
            solve_time: Duration::ZERO,
            certify_time: Duration::ZERO,
            oracle_queries: 0,
            exhaustions: 0,
            certificate: None,
        }
    }

    /// DIP rounds completed so far.
    pub fn dip_count(&self) -> usize {
        self.dips.len()
    }

    /// Oracle query attempts consumed so far (retries and replicas
    /// included).
    pub fn oracle_queries(&self) -> usize {
        self.oracle_queries
    }

    /// Fault-handling counters so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    /// SAT solver work counters so far.
    pub fn solver_stats(&self) -> SolverStats {
        *self.enc.solver().stats()
    }

    /// Whether the machine has left the running phase (converged or
    /// degraded).
    pub fn is_terminal(&self) -> bool {
        !matches!(self.phase, Phase::Running)
    }

    fn degrade(&mut self, reason: DegradeReason) -> Step {
        self.phase = Phase::Degraded(reason.clone());
        Step::Degraded(reason)
    }

    // -----------------------------------------------------------------
    // Fault-tolerant querying
    // -----------------------------------------------------------------

    /// One logical query with retry + backoff: attempts until the oracle
    /// answers or the retry allowance runs out.
    fn query_retry<O: FallibleScanAccess>(
        &mut self,
        oracle: &mut O,
        pattern: &[bool],
        pis: &[bool],
    ) -> Result<ScanResponse, DegradeReason> {
        let captures = self.cfg.base.captures;
        let mut attempt = 0u32;
        loop {
            self.oracle_queries += 1;
            match oracle.try_query_captures(pattern, pis, captures) {
                Ok(resp) => return Ok(resp),
                Err(_) if attempt < self.cfg.retry.max_retries => {
                    attempt += 1;
                    self.faults.retries += 1;
                    let wait = self.cfg.retry.backoff(attempt, &mut self.jitter_rng);
                    self.faults.backoff += wait;
                    if self.cfg.retry.sleep {
                        std::thread::sleep(wait);
                    }
                }
                Err(_) => {
                    return Err(DegradeReason::OracleUnavailable {
                        retries: self.cfg.retry.max_retries,
                    })
                }
            }
        }
    }

    /// One logical query with replication: `replication` retried sessions,
    /// then a per-bit majority vote. Bits where any replica dissented from
    /// the elected value count as repaired.
    fn query_voted<O: FallibleScanAccess>(
        &mut self,
        oracle: &mut O,
        pattern: &[bool],
        pis: &[bool],
    ) -> Result<ScanResponse, DegradeReason> {
        let r = self.cfg.replication.max(1);
        if r == 1 {
            return self.query_retry(oracle, pattern, pis);
        }
        let votes: Vec<ScanResponse> = (0..r)
            .map(|_| self.query_retry(oracle, pattern, pis))
            .collect::<Result<_, _>>()?;
        let elect = |read: &dyn Fn(&ScanResponse) -> &Vec<bool>, repaired: &mut u64| {
            let len = read(&votes[0]).len();
            (0..len)
                .map(|i| {
                    let ones = votes.iter().filter(|v| read(v)[i]).count();
                    let win = 2 * ones > r;
                    let dissent = if win { r - ones } else { ones };
                    *repaired += dissent as u64;
                    win
                })
                .collect::<Vec<bool>>()
        };
        let mut repaired = 0u64;
        let scan_out = elect(&|v: &ScanResponse| &v.scan_out, &mut repaired);
        let po = elect(&|v: &ScanResponse| &v.po, &mut repaired);
        self.faults.repaired_bits += repaired;
        Ok(ScanResponse { scan_out, po })
    }

    // -----------------------------------------------------------------
    // The loop
    // -----------------------------------------------------------------

    /// Asserts one recorded DIP response onto both hypotheses. `false`
    /// means the solver found the response inconsistent with the model.
    fn constrain(&mut self, record: &DipRecord) -> bool {
        let x_const: Vec<Lit> = record
            .pattern
            .iter()
            .map(|&v| self.enc.constant(v))
            .collect();
        let p_const: Vec<Lit> = record.pis.iter().map(|&v| self.enc.constant(v)).collect();
        for copy in &self.copies {
            let (so, po) = locked_cone(
                &mut self.enc,
                self.circuit,
                self.chain,
                copy,
                &x_const,
                &p_const,
                self.cfg.base.captures,
            );
            let resp = &record.response;
            for (&lit, &val) in so.iter().zip(&resp.scan_out).chain(po.iter().zip(&resp.po)) {
                if !self.enc.assert_lit(if val { lit } else { !lit }) {
                    return false;
                }
            }
        }
        true
    }

    /// Advances the machine by one decision: one SAT call plus, when a
    /// distinguishing input exists, one (voted, retried) oracle round.
    pub fn step<O: FallibleScanAccess>(&mut self, oracle: &mut O) -> Step {
        match &self.phase {
            Phase::Converged(_) => return Step::Converged,
            Phase::Degraded(reason) => return Step::Degraded(reason.clone()),
            Phase::Running => {}
        }

        let act = self.act;
        let t0 = Instant::now();
        let res = self
            .enc
            .solver_mut()
            .solve_limited(&[act], &self.cfg.solve_budget);
        self.solve_time += t0.elapsed();
        match res {
            SolveResult::Unknown => {
                self.exhaustions += 1;
                if self.exhaustions > self.cfg.max_budget_exhaustions {
                    self.degrade(DegradeReason::BudgetExhausted {
                        exhaustions: self.exhaustions,
                    })
                } else {
                    Step::OutOfBudget
                }
            }
            SolveResult::Unsat => match self.converge() {
                Ok(()) => Step::Converged,
                Err(reason) => self.degrade(reason),
            },
            SolveResult::Sat => {
                if self.dips.len() == self.cfg.base.max_dips {
                    return self.degrade(DegradeReason::DipLimit {
                        limit: self.cfg.base.max_dips,
                    });
                }
                // Extract the distinguishing stimulus and ask the chip.
                let read =
                    |enc: &Encoder, lit: Lit| enc.solver().lit_model_value(lit).unwrap_or(false);
                let dip_x: Vec<bool> = self.x.iter().map(|&l| read(&self.enc, l)).collect();
                let dip_p: Vec<bool> = self.p.iter().map(|&l| read(&self.enc, l)).collect();
                let response = match self.query_voted(oracle, &dip_x, &dip_p) {
                    Ok(resp) => resp,
                    Err(reason) => return self.degrade(reason),
                };
                let record = DipRecord {
                    pattern: dip_x,
                    pis: dip_p,
                    response,
                };
                if !self.constrain(&record) {
                    return self.degrade(DegradeReason::Inconsistent);
                }
                self.dips.push(record);
                Step::Dip
            }
        }
    }

    /// Transition out of the DIP loop: certify (optionally), materialize
    /// a model seed, and run the linear phase.
    fn converge(&mut self) -> Result<(), DegradeReason> {
        // Certification: the convergence claim is exactly "the miter
        // under the activation literal is UNSAT". Take the verbatim input
        // mirror, pin the activation unit, and make a fresh proof-logging
        // solver re-derive and *prove* that answer; the independent
        // checker then verifies the certificate. A failure here is a
        // solver soundness bug, not an attack failure.
        if self.cfg.base.certify {
            let t0 = Instant::now();
            let mut closed = self
                .enc
                .solver()
                .input_mirror()
                .expect("mirror enabled at attack start")
                .clone();
            closed.add_clause(vec![self.act]);
            match proofcheck::certify_unsat(&closed) {
                Ok(cert) => self.certificate = Some(cert),
                Err(e) => {
                    return Err(DegradeReason::Certification {
                        reason: e.to_string(),
                    })
                }
            }
            self.certify_time = t0.elapsed();
        }

        // No distinguishing input remains: every seed consistent with the
        // observations is functionally equivalent. Materialize one.
        let t0 = Instant::now();
        let res = self
            .enc
            .solver_mut()
            .solve_limited(&[], &self.cfg.solve_budget);
        self.solve_time += t0.elapsed();
        match res {
            SolveResult::Sat => {}
            SolveResult::Unsat => return Err(DegradeReason::Inconsistent),
            SolveResult::Unknown => {
                self.exhaustions += 1;
                return Err(DegradeReason::BudgetExhausted {
                    exhaustions: self.exhaustions,
                });
            }
        }
        let model_seed = BitVec::from_bools(
            self.copies[0]
                .vars
                .iter()
                .map(|&l| self.enc.solver().lit_model_value(l).unwrap_or(false)),
        );

        // Linear phase: the model fixes every mask bit, and each mask bit
        // is a known linear form of the seed — Gaussian elimination does
        // the rest.
        let mut rec = SeedRecovery::new(self.spec.taps().clone());
        let mut rows: Vec<(BitVec, bool)> = Vec::new();
        let mask_lits = self.copies[0].alpha.iter().chain(&self.copies[0].beta);
        let mask_rows = self.masks.alpha.iter().chain(&self.masks.beta);
        for (&lit, row) in mask_lits.zip(mask_rows) {
            let value = self.enc.solver().lit_model_value(lit).unwrap_or(false);
            rows.push((row.clone(), value));
            if rec.observe_form(row.clone(), value).is_err() {
                return Err(DegradeReason::Inconsistent);
            }
        }
        let rank = rec.rank();
        let seed = rec.unique_seed().unwrap_or(model_seed);
        self.phase = Phase::Converged(Converged { seed, rank, rows });
        Ok(())
    }

    /// Verifies the converged seed against the oracle with random probe
    /// sessions and assembles the final result.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not converged (drive it with
    /// [`step`](AttackState::step) or use [`run`](AttackState::run)).
    pub fn finish<O: FallibleScanAccess>(mut self, oracle: &mut O) -> RobustOutcome {
        let Phase::Converged(conv) = &self.phase else {
            panic!("finish() requires a converged state");
        };
        let conv = conv.clone();
        let n = self.chain.len();
        let num_pis = self.circuit.inputs().len();
        let captures = self.cfg.base.captures;

        // Verification: the recovered seed must reproduce the oracle.
        let mut relocked = LockedScanChip::new(
            self.circuit,
            self.chain.clone(),
            self.spec.clone(),
            conv.seed.clone(),
        );
        let mut rng = SplitMix64::new(self.cfg.base.rng_seed);
        for probe in 0..self.cfg.base.verify_queries {
            let pat: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
            let pis: Vec<bool> = (0..num_pis).map(|_| rng.gen_bool()).collect();
            let expect = match self.query_voted(oracle, &pat, &pis) {
                Ok(resp) => resp,
                Err(reason) => {
                    self.phase = Phase::Degraded(reason);
                    return RobustOutcome::Partial(self.report());
                }
            };
            if relocked.query_captures(&pat, &pis, captures) != expect {
                self.phase = Phase::Degraded(DegradeReason::VerificationFailed {
                    probes_passed: probe,
                });
                return RobustOutcome::Partial(self.report());
            }
        }

        let unlock = Unlock {
            seed: conv.seed,
            dip_iterations: self.dips.len(),
            oracle_queries: self.oracle_queries,
            solve_time: self.solve_time,
            total_time: self.start.elapsed(),
            rank: conv.rank,
            nullity: self.spec.width() - conv.rank,
            verified: self.cfg.base.verify_queries > 0,
            certificate: self.certificate,
            certify_time: self.certify_time,
            solver_stats: *self.enc.solver().stats(),
        };
        RobustOutcome::Unlocked {
            unlock,
            faults: self.faults,
        }
    }

    /// Drives the machine to an outcome: steps until convergence or
    /// degradation, then verifies or reports. Budget-exhausted steps keep
    /// going until [`RobustConfig::max_budget_exhaustions`] trips.
    pub fn run<O: FallibleScanAccess>(mut self, oracle: &mut O) -> RobustOutcome {
        loop {
            match self.step(oracle) {
                Step::Dip | Step::OutOfBudget => {}
                Step::Converged => return self.finish(oracle),
                Step::Degraded(_) => return RobustOutcome::Partial(self.report()),
            }
        }
    }

    /// The graceful-degradation report for the machine's current state:
    /// what has been established, what is still guessed, and why the run
    /// stopped. Meaningful in any phase (in the running phase the reason
    /// is reported as budget exhaustion so far).
    pub fn report(&mut self) -> PartialReport {
        let width = self.spec.width();
        let reason = match &self.phase {
            Phase::Degraded(r) => r.clone(),
            _ => DegradeReason::BudgetExhausted {
                exhaustions: self.exhaustions,
            },
        };

        // Rank/nullity of the mask row space: a property of the lock,
        // valid whether or not the loop converged (the values fed here
        // are placeholders — only the row space matters).
        let mut rowspace = LinSolver::new(width);
        for row in self.masks.alpha.iter().chain(&self.masks.beta) {
            let _ = rowspace.add_equation(row.clone(), false);
        }
        let rank = rowspace.rank();

        let (candidate, converged_pin): (Option<BitVec>, Option<SeedRecovery>) = match &self.phase {
            Phase::Converged(conv) => {
                let mut rec = SeedRecovery::new(self.spec.taps().clone());
                for (row, value) in &conv.rows {
                    let _ = rec.observe_form(row.clone(), *value);
                }
                (Some(conv.seed.clone()), Some(rec))
            }
            _ => {
                // Best current hypothesis: any seed consistent with every
                // response so far, if one is reachable within budget.
                let t0 = Instant::now();
                let res = self
                    .enc
                    .solver_mut()
                    .solve_limited(&[], &self.cfg.solve_budget);
                self.solve_time += t0.elapsed();
                let seed = (res == SolveResult::Sat).then(|| {
                    BitVec::from_bools(
                        self.copies[0]
                            .vars
                            .iter()
                            .map(|&l| self.enc.solver().lit_model_value(l).unwrap_or(false)),
                    )
                });
                (seed, None)
            }
        };

        let bit_confidence: Vec<f64> = (0..width)
            .map(|b| match &converged_pin {
                Some(rec) if rec.pinned_bit(b).is_some() => 1.0,
                _ if rowspace.pinned_value(b).is_some() => 0.75,
                _ => 0.5,
            })
            .collect();

        PartialReport {
            reason,
            dip_iterations: self.dips.len(),
            oracle_queries: self.oracle_queries,
            rank,
            nullity: width - rank,
            bit_confidence,
            candidate_seed: candidate,
            faults: self.faults,
            solver_stats: *self.enc.solver().stats(),
            total_time: self.start.elapsed(),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// FNV-1a over the canonical instance description: circuit structure,
/// chain order, lock spec, capture count. Keys every checkpoint so a
/// resume against a different instance is rejected before any oracle
/// traffic.
fn instance_hash(circuit: &Circuit, chain: &ScanChain, spec: &LockSpec, captures: usize) -> u64 {
    let chain_order: Vec<usize> = (0..chain.len()).map(|pos| chain.dff_at(pos)).collect();
    let desc = format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{chain_order:?}|{spec:?}|{captures}",
        circuit.name(),
        circuit.inputs(),
        circuit.outputs(),
        circuit.gates(),
        circuit.num_dffs(),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in desc.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a checkpoint could not be parsed or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The bytes are not a well-formed `duckpt` document.
    Malformed {
        /// 1-based line where parsing failed.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The checkpoint was taken for a different instance (circuit, chain,
    /// spec, or captures differ).
    InstanceMismatch {
        /// Hash recorded in the checkpoint.
        expected: u64,
        /// Hash of the instance resume was called with.
        got: u64,
    },
    /// The live oracle answered a recorded DIP differently — the bench is
    /// not the chip this checkpoint came from (or noise exceeded the
    /// replication factor).
    OracleMismatch {
        /// Index of the first diverging DIP.
        dip: usize,
    },
    /// The oracle kept faulting while re-validating the checkpoint.
    OracleUnavailable,
    /// A recorded DIP or learnt clause contradicted the rebuilt model —
    /// the checkpoint is corrupt or was tampered with.
    Inconsistent,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line, msg } => {
                write!(f, "malformed checkpoint at line {line}: {msg}")
            }
            CheckpointError::InstanceMismatch { expected, got } => {
                write!(
                    f,
                    "checkpoint is for instance {expected:016x}, not {got:016x}"
                )
            }
            CheckpointError::OracleMismatch { dip } => {
                write!(f, "live oracle contradicts recorded DIP {dip}")
            }
            CheckpointError::OracleUnavailable => {
                write!(f, "oracle kept faulting during checkpoint re-validation")
            }
            CheckpointError::Inconsistent => {
                write!(f, "checkpoint contradicts the rebuilt model")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Phase recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CkptPhase {
    Running,
    Converged {
        seed: BitVec,
        rank: usize,
        rows: Vec<(BitVec, bool)>,
    },
}

/// A serialized attack snapshot: everything needed to rebuild an
/// [`AttackState`] except the instance itself (circuit, chain, spec) and
/// the oracle, which the resuming process supplies.
///
/// The byte format is a hand-rolled line-oriented text document (grammar
/// in DESIGN.md §8) — no serialization dependency, diffable, and stable
/// across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    instance: u64,
    width: usize,
    cells: usize,
    captures: usize,
    oracle_queries: usize,
    retries: u64,
    repaired_bits: u64,
    exhaustions: u32,
    num_vars: usize,
    dips: Vec<DipRecord>,
    learnts: Vec<Vec<Lit>>,
    phase: CkptPhase,
}

fn bits_to_str(bits: impl Iterator<Item = bool>) -> String {
    let s: String = bits.map(|b| if b { '1' } else { '0' }).collect();
    if s.is_empty() {
        "-".to_string()
    } else {
        s
    }
}

fn str_to_bits(s: &str) -> Option<Vec<bool>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

impl Checkpoint {
    /// The instance hash this checkpoint is keyed by.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// DIP rounds recorded.
    pub fn dip_count(&self) -> usize {
        self.dips.len()
    }

    /// Learnt clauses exported from the warm solver.
    pub fn learnt_count(&self) -> usize {
        self.learnts.len()
    }

    /// Serializes to the `duckpt 1` text format.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "duckpt 1");
        let _ = writeln!(out, "instance {:016x}", self.instance);
        let _ = writeln!(
            out,
            "shape width {} cells {} captures {}",
            self.width, self.cells, self.captures
        );
        let _ = writeln!(
            out,
            "counters queries {} retries {} repaired {} exhaustions {}",
            self.oracle_queries, self.retries, self.repaired_bits, self.exhaustions
        );
        for d in &self.dips {
            let _ = writeln!(
                out,
                "dip {} {} {} {}",
                bits_to_str(d.pattern.iter().copied()),
                bits_to_str(d.pis.iter().copied()),
                bits_to_str(d.response.scan_out.iter().copied()),
                bits_to_str(d.response.po.iter().copied()),
            );
        }
        let _ = writeln!(out, "vars {}", self.num_vars);
        for clause in &self.learnts {
            let _ = write!(out, "learnt");
            for l in clause {
                let _ = write!(out, " {}", l.to_dimacs());
            }
            let _ = writeln!(out);
        }
        match &self.phase {
            CkptPhase::Running => {
                let _ = writeln!(out, "phase running");
            }
            CkptPhase::Converged { seed, rank, rows } => {
                let _ = writeln!(out, "phase converged");
                for (row, value) in rows {
                    let _ = writeln!(
                        out,
                        "row {} {}",
                        bits_to_str(row.iter_bits()),
                        u8::from(*value)
                    );
                }
                let _ = writeln!(out, "seed {}", bits_to_str(seed.iter_bits()));
                let _ = writeln!(out, "rank {rank}");
            }
        }
        let _ = writeln!(out, "end duckpt");
        out.into_bytes()
    }

    /// Parses a `duckpt 1` document.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] with the offending line on any
    /// structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|_| CheckpointError::Malformed {
            line: 1,
            msg: "not utf-8".into(),
        })?;
        let err = |line: usize, msg: &str| CheckpointError::Malformed {
            line,
            msg: msg.to_string(),
        };
        let mut instance = None;
        let mut shape: Option<(usize, usize, usize)> = None;
        let mut counters: Option<(usize, u64, u64, u32)> = None;
        let mut num_vars: Option<usize> = None;
        let mut dips = Vec::new();
        let mut learnts = Vec::new();
        let mut phase: Option<CkptPhase> = None;
        let mut rows: Vec<(BitVec, bool)> = Vec::new();
        let mut seed: Option<BitVec> = None;
        let mut rank: Option<usize> = None;
        let mut ended = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(err(lineno, "content after end marker"));
            }
            let mut fields = line.split_whitespace();
            let tag = fields.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = fields.collect();
            match tag {
                "duckpt" => {
                    if lineno != 1 || rest != ["1"] {
                        return Err(err(lineno, "expected header `duckpt 1`"));
                    }
                }
                "instance" => {
                    let [h] = rest[..] else {
                        return Err(err(lineno, "instance wants one hash"));
                    };
                    instance = Some(
                        u64::from_str_radix(h, 16).map_err(|_| err(lineno, "bad instance hash"))?,
                    );
                }
                "shape" => {
                    let ["width", w, "cells", n, "captures", c] = rest[..] else {
                        return Err(err(lineno, "bad shape line"));
                    };
                    let parse = |s: &str| {
                        s.parse::<usize>()
                            .map_err(|_| err(lineno, "bad shape number"))
                    };
                    shape = Some((parse(w)?, parse(n)?, parse(c)?));
                }
                "counters" => {
                    let ["queries", q, "retries", r, "repaired", b, "exhaustions", e] = rest[..]
                    else {
                        return Err(err(lineno, "bad counters line"));
                    };
                    counters = Some((
                        q.parse().map_err(|_| err(lineno, "bad queries"))?,
                        r.parse().map_err(|_| err(lineno, "bad retries"))?,
                        b.parse().map_err(|_| err(lineno, "bad repaired"))?,
                        e.parse().map_err(|_| err(lineno, "bad exhaustions"))?,
                    ));
                }
                "dip" => {
                    let [pat, pis, so, po] = rest[..] else {
                        return Err(err(lineno, "dip wants four bit strings"));
                    };
                    let parse = |s: &str| str_to_bits(s).ok_or_else(|| err(lineno, "bad bits"));
                    dips.push(DipRecord {
                        pattern: parse(pat)?,
                        pis: parse(pis)?,
                        response: ScanResponse {
                            scan_out: parse(so)?,
                            po: parse(po)?,
                        },
                    });
                }
                "vars" => {
                    let [v] = rest[..] else {
                        return Err(err(lineno, "vars wants one count"));
                    };
                    num_vars = Some(v.parse().map_err(|_| err(lineno, "bad var count"))?);
                }
                "learnt" => {
                    let clause: Result<Vec<Lit>, _> = rest
                        .iter()
                        .map(|s| {
                            s.parse::<i64>()
                                .ok()
                                .filter(|&c| c != 0)
                                .map(Lit::from_dimacs)
                                .ok_or_else(|| err(lineno, "bad literal"))
                        })
                        .collect();
                    learnts.push(clause?);
                }
                "phase" => match rest[..] {
                    ["running"] => phase = Some(CkptPhase::Running),
                    ["converged"] => {
                        phase = Some(CkptPhase::Converged {
                            seed: BitVec::zeros(0),
                            rank: 0,
                            rows: Vec::new(),
                        });
                    }
                    _ => return Err(err(lineno, "phase must be running or converged")),
                },
                "row" => {
                    let [bits, value] = rest[..] else {
                        return Err(err(lineno, "row wants bits and a value"));
                    };
                    let row = str_to_bits(bits).ok_or_else(|| err(lineno, "bad row bits"))?;
                    let value = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(err(lineno, "row value must be 0 or 1")),
                    };
                    rows.push((BitVec::from_bools(row), value));
                }
                "seed" => {
                    let [bits] = rest[..] else {
                        return Err(err(lineno, "seed wants one bit string"));
                    };
                    seed = Some(BitVec::from_bools(
                        str_to_bits(bits).ok_or_else(|| err(lineno, "bad seed bits"))?,
                    ));
                }
                "rank" => {
                    let [k] = rest[..] else {
                        return Err(err(lineno, "rank wants one number"));
                    };
                    rank = Some(k.parse().map_err(|_| err(lineno, "bad rank"))?);
                }
                "end" => {
                    if rest != ["duckpt"] {
                        return Err(err(lineno, "bad end marker"));
                    }
                    ended = true;
                }
                _ => return Err(err(lineno, "unknown tag")),
            }
        }
        if !ended {
            return Err(err(text.lines().count().max(1), "missing end marker"));
        }
        let need = |line: usize, what: &str| err(line, &format!("missing {what} section"));
        let instance = instance.ok_or_else(|| need(1, "instance"))?;
        let (width, cells, captures) = shape.ok_or_else(|| need(1, "shape"))?;
        let (oracle_queries, retries, repaired_bits, exhaustions) =
            counters.ok_or_else(|| need(1, "counters"))?;
        let num_vars = num_vars.ok_or_else(|| need(1, "vars"))?;
        let phase = match phase.ok_or_else(|| need(1, "phase"))? {
            CkptPhase::Running => CkptPhase::Running,
            CkptPhase::Converged { .. } => {
                let seed = seed.ok_or_else(|| need(1, "seed"))?;
                let rank = rank.ok_or_else(|| need(1, "rank"))?;
                if seed.len() != width || rank > width {
                    return Err(err(1, "seed/rank inconsistent with width"));
                }
                CkptPhase::Converged { seed, rank, rows }
            }
        };
        Ok(Checkpoint {
            instance,
            width,
            cells,
            captures,
            oracle_queries,
            retries,
            repaired_bits,
            exhaustions,
            num_vars,
            dips,
            learnts,
            phase,
        })
    }
}

impl AttackState<'_> {
    /// Snapshots the machine into a serializable [`Checkpoint`]: the DIP
    /// set, the warm solver's learnt clauses (exported via
    /// [`satsolver::Solver::learnt_clauses`]), the recovery-matrix rows
    /// when converged, and the run counters — keyed by the instance hash.
    /// Call between steps (the solver must be at decision level 0, which
    /// it always is there).
    pub fn checkpoint(&self) -> Checkpoint {
        let phase = match &self.phase {
            Phase::Converged(conv) => CkptPhase::Converged {
                seed: conv.seed.clone(),
                rank: conv.rank,
                rows: conv.rows.clone(),
            },
            // A degraded machine checkpoints as running: resuming it
            // elsewhere (bigger budget, healthier oracle) is the point.
            Phase::Running | Phase::Degraded(_) => CkptPhase::Running,
        };
        Checkpoint {
            instance: instance_hash(self.circuit, self.chain, self.spec, self.cfg.base.captures),
            width: self.spec.width(),
            cells: self.chain.len(),
            captures: self.cfg.base.captures,
            oracle_queries: self.oracle_queries,
            retries: self.faults.retries,
            repaired_bits: self.faults.repaired_bits,
            exhaustions: self.exhaustions,
            num_vars: self.enc.solver().num_vars(),
            dips: self.dips.clone(),
            learnts: self.enc.solver().learnt_clauses(),
            phase,
        }
    }
}

impl<'a> AttackState<'a> {
    /// Rebuilds a machine from a checkpoint, re-validating it against the
    /// live oracle before continuing.
    ///
    /// The encoder and miter are reconstructed deterministically (same
    /// construction order → same variable numbering), every recorded DIP
    /// is re-queried against `oracle` and compared to its recorded
    /// response, the DIP constraints are replayed, and the exported
    /// learnt clauses are injected (sound: CDCL learnts are implied by
    /// the formula alone, never by assumptions). A converged checkpoint
    /// additionally restores the linear-phase result after cross-checking
    /// the recorded recovery rows against the rebuilt mask forms.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InstanceMismatch`] when the checkpoint belongs
    /// to a different instance, [`CheckpointError::OracleMismatch`] when
    /// the live oracle contradicts a recorded DIP,
    /// [`CheckpointError::OracleUnavailable`] when re-validation queries
    /// keep faulting, [`CheckpointError::Inconsistent`] when the recorded
    /// sizes do not fit the instance or the recorded data contradicts the
    /// rebuilt model.
    pub fn resume<O: FallibleScanAccess>(
        circuit: &'a Circuit,
        chain: &'a ScanChain,
        spec: &'a LockSpec,
        cfg: RobustConfig,
        ckpt: &Checkpoint,
        oracle: &mut O,
    ) -> Result<AttackState<'a>, CheckpointError> {
        let got = instance_hash(circuit, chain, spec, cfg.base.captures);
        if got != ckpt.instance {
            return Err(CheckpointError::InstanceMismatch {
                expected: ckpt.instance,
                got,
            });
        }
        // Every recorded size must fit this instance before any record
        // reaches the oracle, which panics on a mis-sized session.
        let (cells, pis, pos) = (chain.len(), circuit.inputs().len(), circuit.outputs().len());
        if ckpt.cells != cells
            || ckpt.width != spec.width()
            || ckpt.dips.iter().any(|d| {
                d.pattern.len() != cells
                    || d.pis.len() != pis
                    || d.response.scan_out.len() != cells
                    || d.response.po.len() != pos
            })
        {
            return Err(CheckpointError::Inconsistent);
        }
        let mut state = AttackState::new(circuit, chain, spec, cfg);

        // Re-validate against the live bench: every recorded DIP must
        // reproduce (modulo the vote repairing fresh noise).
        for (i, record) in ckpt.dips.iter().enumerate() {
            let live = state
                .query_voted(oracle, &record.pattern, &record.pis)
                .map_err(|_| CheckpointError::OracleUnavailable)?;
            if live != record.response {
                return Err(CheckpointError::OracleMismatch { dip: i });
            }
        }

        // Replay the DIP constraints in order — deterministic encoding,
        // so the variable space ends up exactly where the checkpoint
        // left it.
        for record in &ckpt.dips {
            if !state.constrain(record) {
                return Err(CheckpointError::Inconsistent);
            }
        }
        if state.enc.solver().num_vars() != ckpt.num_vars {
            return Err(CheckpointError::Inconsistent);
        }

        // Warm-start: inject the exported learnt clauses. Sound because
        // CDCL learnts are implied by the formula alone; a clause the
        // rebuilt model refutes marks a corrupt checkpoint.
        for clause in &ckpt.learnts {
            if clause.iter().any(|l| l.var().index() >= ckpt.num_vars) {
                return Err(CheckpointError::Inconsistent);
            }
            if !state.enc.solver_mut().add_clause(clause) {
                return Err(CheckpointError::Inconsistent);
            }
        }

        state.dips = ckpt.dips.clone();
        state.oracle_queries += ckpt.oracle_queries;
        state.faults.retries += ckpt.retries;
        state.faults.repaired_bits += ckpt.repaired_bits;
        state.exhaustions = ckpt.exhaustions;

        if let CkptPhase::Converged { seed, rank, rows } = &ckpt.phase {
            // Cross-check the recorded recovery rows against the rebuilt
            // mask forms before trusting the recorded linear phase.
            let mask_rows: Vec<&BitVec> =
                state.masks.alpha.iter().chain(&state.masks.beta).collect();
            if rows.len() != mask_rows.len()
                || rows
                    .iter()
                    .zip(&mask_rows)
                    .any(|((row, _), mask)| row != *mask)
            {
                return Err(CheckpointError::Inconsistent);
            }
            let mut rec = SeedRecovery::new(spec.taps().clone());
            for (row, value) in rows {
                if rec.observe_form(row.clone(), *value).is_err() {
                    return Err(CheckpointError::Inconsistent);
                }
            }
            if rec.rank() != *rank {
                return Err(CheckpointError::Inconsistent);
            }
            state.phase = Phase::Converged(Converged {
                seed: seed.clone(),
                rank: *rank,
                rows: rows.clone(),
            });
        }
        Ok(state)
    }
}

/// Runs the fault-tolerant attack end to end: build, loop, verify or
/// degrade. Convenience wrapper over [`AttackState::new`] +
/// [`AttackState::run`] for callers who don't need stepwise control or
/// checkpoints.
///
/// # Panics
///
/// Panics if dimensions disagree (chain vs. circuit flops,
/// `captures == 0`).
pub fn unlock_robust<O: FallibleScanAccess>(
    circuit: &Circuit,
    chain: &ScanChain,
    spec: &LockSpec,
    oracle: &mut O,
    cfg: &RobustConfig,
) -> RobustOutcome {
    AttackState::new(circuit, chain, spec, cfg.clone()).run(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::Xoshiro256;
    use lfsr::TapSet;
    use netlist::generator::s208_like;
    use sim::{FaultSpec, FaultyOracle, Reliable};

    struct Fixture {
        circuit: Circuit,
        chain: ScanChain,
        spec: LockSpec,
        secret: BitVec,
    }

    fn fixture(width: usize, gates: usize, seed: u64) -> Fixture {
        let circuit = s208_like();
        let chain = ScanChain::natural(8);
        let mut rng = Xoshiro256::new(seed);
        let taps = TapSet::maximal(width).unwrap();
        let spec = LockSpec::random(taps, chain.len(), gates, &mut rng);
        let secret = spec.random_seed(&mut rng);
        Fixture {
            circuit,
            chain,
            spec,
            secret,
        }
    }

    impl Fixture {
        fn oracle(&self) -> LockedScanChip<'_> {
            LockedScanChip::new(
                &self.circuit,
                self.chain.clone(),
                self.spec.clone(),
                self.secret.clone(),
            )
        }
    }

    #[test]
    fn strict_run_matches_legacy_unlock() {
        let f = fixture(12, 6, 0xAB);
        let cfg = RobustConfig::strict(AttackConfig::default());
        let outcome = unlock_robust(
            &f.circuit,
            &f.chain,
            &f.spec,
            &mut Reliable(f.oracle()),
            &cfg,
        );
        let RobustOutcome::Unlocked { unlock, faults } = outcome else {
            panic!("reliable oracle must unlock");
        };
        let legacy = crate::attack::unlock(
            &f.circuit,
            &f.chain,
            &f.spec,
            &mut f.oracle(),
            &AttackConfig::default(),
        )
        .unwrap();
        assert_eq!(unlock.seed, legacy.seed);
        assert_eq!(unlock.dip_iterations, legacy.dip_iterations);
        assert_eq!(unlock.oracle_queries, legacy.oracle_queries);
        assert_eq!(faults, FaultStats::default());
    }

    #[test]
    fn recovers_exact_seed_through_noise_and_transients() {
        let f = fixture(16, 8, 0xC1);
        let cfg = RobustConfig {
            replication: 3,
            ..RobustConfig::default()
        };
        let mut faulty = FaultyOracle::new(
            f.oracle(),
            FaultSpec::new(0xB0_15E5)
                .with_bit_flips(8_000)
                .with_transients(60_000),
        );
        let outcome = unlock_robust(&f.circuit, &f.chain, &f.spec, &mut faulty, &cfg);
        let RobustOutcome::Unlocked { unlock, faults } = outcome else {
            panic!("vote + retry must repair this schedule");
        };
        if unlock.nullity == 0 {
            assert_eq!(unlock.seed, f.secret);
        }
        assert!(faults.retries > 0 || faulty.stats().faults() == 0);
    }

    #[test]
    fn oracle_that_never_answers_degrades_gracefully() {
        let f = fixture(12, 6, 0xD2);
        let cfg = RobustConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..RobustConfig::default()
        };
        // 100% transient: every query fails, retries exhaust.
        let mut dead = FaultyOracle::new(f.oracle(), FaultSpec::new(9).with_transients(1_000_000));
        let outcome = unlock_robust(&f.circuit, &f.chain, &f.spec, &mut dead, &cfg);
        let RobustOutcome::Partial(report) = outcome else {
            panic!("a dead oracle cannot unlock");
        };
        assert_eq!(
            report.reason,
            DegradeReason::OracleUnavailable { retries: 2 }
        );
        assert_eq!(report.nullity, f.spec.width() - report.rank);
        assert_eq!(report.bit_confidence.len(), f.spec.width());
        assert!(report.faults.retries > 0);
        assert!(report.faults.backoff > Duration::ZERO);
    }

    #[test]
    fn budget_exhaustion_degrades_with_partial_report() {
        let f = fixture(16, 8, 0xE3);
        let cfg = RobustConfig {
            solve_budget: Budget::new().with_propagations(1),
            max_budget_exhaustions: 2,
            ..RobustConfig::default()
        };
        let outcome = unlock_robust(
            &f.circuit,
            &f.chain,
            &f.spec,
            &mut Reliable(f.oracle()),
            &cfg,
        );
        let RobustOutcome::Partial(report) = outcome else {
            panic!("a 1-propagation budget cannot converge");
        };
        assert!(matches!(
            report.reason,
            DegradeReason::BudgetExhausted { exhaustions: 3 }
        ));
        assert!(report.solver_stats.budget_exhaustions >= 3);
        // Confidence grades every seed bit, and never overstates.
        assert!(report
            .bit_confidence
            .iter()
            .all(|&c| (0.5..=1.0).contains(&c)));
    }

    #[test]
    fn stepwise_drive_with_mid_loop_checkpoint() {
        let f = fixture(16, 8, 0xF4);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());

        // Run two DIP rounds, checkpoint, then abandon this machine.
        let mut steps = 0;
        while state.dip_count() < 2 {
            match state.step(&mut oracle) {
                Step::Dip => {}
                Step::Converged => break, // tiny instance converged early
                other => panic!("unexpected step outcome: {other:?}"),
            }
            steps += 1;
            assert!(steps < 100);
        }
        let bytes = state.checkpoint().to_bytes();
        drop(state);

        // A different process: parse, resume, finish.
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let resumed = AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut oracle)
            .expect("same instance, same oracle");
        let RobustOutcome::Unlocked { unlock, .. } = resumed.run(&mut oracle) else {
            panic!("resumed attack must converge");
        };
        if unlock.nullity == 0 {
            assert_eq!(unlock.seed, f.secret);
        }
    }

    #[test]
    fn converged_checkpoint_resumes_without_resolving() {
        let f = fixture(12, 6, 0x1A);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        while !matches!(state.step(&mut oracle), Step::Converged) {}
        let bytes = state.checkpoint().to_bytes();
        let seed_before = match &state.phase {
            Phase::Converged(c) => c.seed.clone(),
            _ => unreachable!(),
        };

        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let resumed =
            AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut oracle).unwrap();
        assert!(resumed.is_terminal());
        let RobustOutcome::Unlocked { unlock, .. } = resumed.finish(&mut oracle) else {
            panic!("converged checkpoint must verify");
        };
        assert_eq!(unlock.seed, seed_before);
    }

    #[test]
    fn checkpoint_rejects_wrong_instance() {
        let f = fixture(12, 6, 0x2B);
        let other = fixture(12, 6, 0x3C); // different spec → different hash
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();
        let err = AttackState::resume(
            &other.circuit,
            &other.chain,
            &other.spec,
            cfg,
            &ckpt,
            &mut oracle,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::InstanceMismatch { .. }));
    }

    #[test]
    fn checkpoint_rejects_wrong_oracle() {
        let f = fixture(12, 6, 0x4D);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        // Gather at least one DIP so re-validation has something to check.
        while state.dip_count() < 1 {
            if matches!(state.step(&mut oracle), Step::Converged) {
                return; // degenerate instance; nothing to test
            }
        }
        let ckpt = Checkpoint::from_bytes(&state.checkpoint().to_bytes()).unwrap();
        // Same spec, different secret: the live oracle answers DIPs
        // differently (almost surely) and re-validation must notice.
        let mut rng = Xoshiro256::new(0x5E);
        let wrong_secret = f.spec.random_seed(&mut rng);
        assert_ne!(wrong_secret, f.secret);
        let mut wrong = Reliable(LockedScanChip::new(
            &f.circuit,
            f.chain.clone(),
            f.spec.clone(),
            wrong_secret,
        ));
        let res = AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut wrong);
        assert!(matches!(res, Err(CheckpointError::OracleMismatch { .. })));
    }

    #[test]
    fn checkpoint_rejects_misshapen_dip_record() {
        let f = fixture(12, 6, 0x4D);
        let cfg = RobustConfig::default();
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, cfg.clone());
        while state.dip_count() < 1 {
            assert!(
                !matches!(state.step(&mut oracle), Step::Converged),
                "fixture must need at least one DIP"
            );
        }
        // Drop one bit from the first DIP's scan-in pattern: still a
        // well-formed document, but the record no longer fits the chain.
        let text = String::from_utf8(state.checkpoint().to_bytes()).unwrap();
        let line = text.lines().find(|l| l.starts_with("dip ")).unwrap();
        let truncated = format!("dip {}", &line["dip ".len() + 1..]);
        let corrupt = text.replacen(line, &truncated, 1);
        let ckpt = Checkpoint::from_bytes(corrupt.as_bytes()).expect("parser accepts it");
        let res = AttackState::resume(&f.circuit, &f.chain, &f.spec, cfg, &ckpt, &mut oracle);
        assert!(matches!(res, Err(CheckpointError::Inconsistent)));
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let f = fixture(16, 8, 0x6E);
        let mut oracle = Reliable(f.oracle());
        let mut state = AttackState::new(&f.circuit, &f.chain, &f.spec, RobustConfig::default());
        for _ in 0..3 {
            if matches!(state.step(&mut oracle), Step::Converged) {
                break;
            }
        }
        let ckpt = state.checkpoint();
        let reparsed = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, reparsed);
    }

    #[test]
    fn malformed_checkpoints_are_rejected_with_line_numbers() {
        for (doc, _why) in [
            ("", "empty"),
            ("duckpt 2\nend duckpt\n", "bad version"),
            ("duckpt 1\ninstance zz\nend duckpt\n", "bad hash"),
            ("duckpt 1\nfrobnicate\nend duckpt\n", "unknown tag"),
            ("duckpt 1\ninstance 00\n", "missing end"),
            ("duckpt 1\nend duckpt\ntrailing\n", "content after end"),
        ] {
            assert!(
                matches!(
                    Checkpoint::from_bytes(doc.as_bytes()),
                    Err(CheckpointError::Malformed { .. })
                ),
                "doc {doc:?} must be rejected"
            );
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter_ppm: 0,
            sleep: false,
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(1));
        assert_eq!(policy.backoff(2, &mut rng), Duration::from_millis(2));
        assert_eq!(policy.backoff(5, &mut rng), Duration::from_millis(16));
        assert_eq!(policy.backoff(20, &mut rng), Duration::from_millis(100));
        // Jitter stays within its ppm bound.
        let jittered = RetryPolicy {
            jitter_ppm: 500_000,
            ..policy
        };
        for attempt in 1..8 {
            let plain = policy.backoff(attempt, &mut rng);
            let j = jittered.backoff(attempt, &mut rng);
            assert!(j >= plain && j <= plain + plain / 2 + Duration::from_nanos(1));
        }
    }
}

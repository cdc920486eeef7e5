//! Driving one attack, untraced or traced, and checking its result from
//! the outside.
//!
//! Both drivers run the same sequence of public calls: `AttackState::new`,
//! `step` until the machine leaves the running phase, then `finish` on
//! convergence or `report` on degradation (what `AttackState::run` does).
//! On hostile-bench every DIP is followed by a checkpoint round trip
//! (`to_bytes`, `from_bytes`, `resume`), a simulated process death. A
//! panic anywhere in the attack is caught and recorded as a failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dynunlock::{
    session_masks, AttackState, Checkpoint, DegradeReason, RobustConfig, RobustOutcome, Step,
};
use gf2::{BitVec, Rng64, SplitMix64};
use satsolver::SolverStats;
use scanlock::LockedScanChip;
use sim::{FallibleScanAccess, FaultyOracle, Reliable, ScanAccess};

use crate::trace::{SpanId, TimedOracle, Tracer};
use crate::workload::{mix, Instance, Workload};

/// Outside-in probe sessions per recovered seed.
const PROBES: usize = 32;

/// How an attack ended, as the benchmark accounts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Verified by the attack and confirmed by the outside-in check.
    Unlocked,
    /// Ran out of the scale-ladder conflict cap: a budgeted result.
    CapExhausted,
    /// Degraded for any other reason.
    Degraded(String),
    /// The attack claimed a verified seed that the outside-in check or
    /// the certificate re-check refuted.
    Mismatch(String),
    /// A checkpoint could not be resumed.
    ResumeFailed(String),
    /// The attack panicked.
    Panicked(String),
}

impl Verdict {
    pub fn label(&self) -> String {
        match self {
            Verdict::Unlocked => "unlocked".into(),
            Verdict::CapExhausted => "cap-exhausted".into(),
            Verdict::Degraded(r) => format!("degraded({r})"),
            Verdict::Mismatch(r) => format!("MISMATCH({r})"),
            Verdict::ResumeFailed(r) => format!("resume-failed({r})"),
            Verdict::Panicked(r) => format!("panicked({r})"),
        }
    }

    /// An unexpected failure: anything but an unlock or a budgeted
    /// cap exhaustion.
    pub fn is_error(&self) -> bool {
        !matches!(self, Verdict::Unlocked | Verdict::CapExhausted)
    }
}

/// The exact, deterministic part of an attack's result. Two runs of one
/// instance must produce equal fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub verdict: Verdict,
    pub dips: usize,
    pub oracle_queries: usize,
    pub stats: [u64; 10],
    pub proof_steps: u64,
    pub seed: Option<Vec<bool>>,
}

fn stats_array(s: &SolverStats) -> [u64; 10] {
    [
        s.decisions,
        s.propagations,
        s.conflicts,
        s.restarts,
        s.learnt_clauses,
        s.minimized_literals,
        s.deleted_clauses,
        s.xor_propagations,
        s.xor_conflicts,
        s.budget_exhaustions,
    ]
}

/// One attack's result in either pass.
#[derive(Debug, Clone)]
pub struct AttackResult {
    pub instance: usize,
    /// Host seconds from `AttackState::new` to the outcome.
    pub attack_s: f64,
    pub fingerprint: Fingerprint,
    pub rank: Option<usize>,
    pub nullity: Option<usize>,
    pub retries: u64,
    pub repaired_bits: u64,
    pub proof_bytes: usize,
}

/// What the attack itself returned, before the outside-in check.
enum Raw {
    Outcome(Box<RobustOutcome>),
    ResumeFailed(String),
    Panicked(String),
}

/// Counters only the traced driver collects, summed over its attacks.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub conflicts_dip: u64,
    pub conflicts_converge: u64,
    pub conflicts_exhausted: u64,
    pub conflicts_report: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub xor_propagations: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    pub cap_exhaustions: u64,
    pub oracle_calls: u64,
    pub oracle_faults: u64,
    pub checkpoint_bytes: u64,
    pub dip_solve_max_s: f64,
}

impl LayerCounts {
    fn add_solver(&mut self, before: &SolverStats, after: &SolverStats) -> u64 {
        self.decisions += after.decisions.saturating_sub(before.decisions);
        self.propagations += after.propagations.saturating_sub(before.propagations);
        self.xor_propagations += after
            .xor_propagations
            .saturating_sub(before.xor_propagations);
        self.restarts += after.restarts.saturating_sub(before.restarts);
        self.learnt_clauses += after.learnt_clauses.saturating_sub(before.learnt_clauses);
        self.cap_exhaustions += after
            .budget_exhaustions
            .saturating_sub(before.budget_exhaustions);
        after.conflicts.saturating_sub(before.conflicts)
    }
}

/// Everything one attack needs besides its instance.
pub struct Attacker<'w> {
    pub workload: &'w Workload,
    pub seed: u64,
    pub cfg: RobustConfig,
}

impl Attacker<'_> {
    /// Runs one untraced attack: the end-to-end measurement.
    pub fn run(&self, inst: &Instance) -> AttackResult {
        let chip = secret_chip(inst);
        let t0 = Instant::now();
        let raw = if self.workload.hostile {
            let mut oracle = FaultyOracle::new(chip, self.workload.fault_spec(self.seed, inst.id));
            guarded(|| drive(inst, &self.cfg, true, &mut oracle, &mut NoTrace))
        } else {
            let mut oracle = Reliable(chip);
            guarded(|| {
                Ok(
                    AttackState::new(&inst.circuit, &inst.chain, &inst.spec, self.cfg.clone())
                        .run(&mut oracle),
                )
            })
        };
        let attack_s = t0.elapsed().as_secs_f64();
        self.judge(inst, raw, attack_s, None)
    }

    /// Runs one traced attack, recording its spans into `tracer` under a
    /// root span of layer `attack` and adding its counters to `counts`.
    pub fn run_traced(
        &self,
        inst: &Instance,
        tracer: &mut Tracer,
        counts: &mut LayerCounts,
    ) -> AttackResult {
        // A standalone replica of the session-mask derivation that
        // `AttackState::new` performs first, outside the attack span: the
        // program exposes no finer boundary inside `new`.
        let t0 = Instant::now();
        std::hint::black_box(session_masks(
            &inst.spec,
            inst.chain.len(),
            self.cfg.base.captures,
        ));
        tracer.record(
            None,
            inst.id,
            "dynunlock.model.session_masks",
            t0,
            Instant::now(),
        );

        let chip = secret_chip(inst);
        let root = tracer.reserve();
        let mut rec = Recorder {
            tracer,
            root,
            instance: inst.id,
            counts,
            converge_span: None,
        };
        let t0 = Instant::now();
        let raw = if self.workload.hostile {
            let mut oracle = TimedOracle::new(FaultyOracle::new(
                chip,
                self.workload.fault_spec(self.seed, inst.id),
            ));
            guarded(|| drive(inst, &self.cfg, true, &mut oracle, &mut rec))
        } else {
            let mut oracle = TimedOracle::new(Reliable(chip));
            guarded(|| drive(inst, &self.cfg, false, &mut oracle, &mut rec))
        };
        let t1 = Instant::now();
        let Recorder {
            tracer,
            converge_span,
            ..
        } = rec;
        tracer.record_as(root, None, inst.id, "attack", t0, t1);
        // Certification runs first inside the convergence step; the
        // program reports only its duration, so the child span is placed
        // at the start of that step.
        if let (Raw::Outcome(out), Some((parent, start))) = (&raw, converge_span) {
            if let RobustOutcome::Unlocked { unlock, .. } = out.as_ref() {
                if !unlock.certify_time.is_zero() {
                    let end = start + unlock.certify_time;
                    tracer.record(Some(parent), inst.id, "proofcheck.certify", start, end);
                }
            }
        }
        self.judge(inst, raw, (t1 - t0).as_secs_f64(), Some(tracer))
    }

    /// Classifies the outcome and, for a claimed unlock, checks it from
    /// the outside: re-lock a fresh chip with the recovered seed and
    /// compare it with the secret chip on probe sessions drawn from the
    /// benchmark seed; on hostile-bench also re-check the certificate.
    fn judge(
        &self,
        inst: &Instance,
        raw: Raw,
        attack_s: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> AttackResult {
        let mut result = AttackResult {
            instance: inst.id,
            attack_s,
            fingerprint: Fingerprint {
                verdict: Verdict::Unlocked,
                dips: 0,
                oracle_queries: 0,
                stats: [0; 10],
                proof_steps: 0,
                seed: None,
            },
            rank: None,
            nullity: None,
            retries: 0,
            repaired_bits: 0,
            proof_bytes: 0,
        };
        let fp = &mut result.fingerprint;
        match raw {
            Raw::Panicked(msg) => fp.verdict = Verdict::Panicked(msg),
            Raw::ResumeFailed(msg) => fp.verdict = Verdict::ResumeFailed(msg),
            Raw::Outcome(out) => match *out {
                RobustOutcome::Partial(report) => {
                    fp.verdict = match report.reason {
                        DegradeReason::BudgetExhausted { .. }
                            if self.workload.conflict_cap.is_some() =>
                        {
                            Verdict::CapExhausted
                        }
                        reason => Verdict::Degraded(reason.to_string()),
                    };
                    fp.dips = report.dip_iterations;
                    fp.oracle_queries = report.oracle_queries;
                    fp.stats = stats_array(&report.solver_stats);
                    result.rank = Some(report.rank);
                    result.nullity = Some(report.nullity);
                    result.retries = report.faults.retries;
                    result.repaired_bits = report.faults.repaired_bits;
                }
                RobustOutcome::Unlocked { unlock, faults } => {
                    fp.dips = unlock.dip_iterations;
                    fp.oracle_queries = unlock.oracle_queries;
                    fp.stats = stats_array(&unlock.solver_stats);
                    fp.seed = Some(unlock.seed.to_bools());
                    result.rank = Some(unlock.rank);
                    result.nullity = Some(unlock.nullity);
                    result.retries = faults.retries;
                    result.repaired_bits = faults.repaired_bits;
                    let t0 = Instant::now();
                    let probes_ok = self.probe_check(inst, &unlock.seed);
                    if let Some(tr) = tracer.as_deref_mut() {
                        tr.record(None, inst.id, "bench.check", t0, Instant::now());
                    }
                    if !unlock.verified {
                        fp.verdict = Verdict::Mismatch("attack did not verify".into());
                    } else if !probes_ok {
                        fp.verdict = Verdict::Mismatch("outside-in probe".into());
                    }
                    if let Some(cert) = &unlock.certificate {
                        fp.proof_steps = cert.stats.steps();
                        result.proof_bytes = cert.proof.len();
                    }
                    if self.cfg.base.certify {
                        let t0 = Instant::now();
                        let recheck = unlock.certificate.as_ref().map(|cert| {
                            proofcheck::check_text(&cert.formula, &cert.proof)
                                .is_ok_and(|r| r == cert.report)
                        });
                        if let Some(tr) = tracer {
                            tr.record(None, inst.id, "proofcheck.recheck", t0, Instant::now());
                        }
                        match recheck {
                            None => {
                                fp.verdict = Verdict::Mismatch("no certificate".into());
                            }
                            Some(false) => {
                                fp.verdict = Verdict::Mismatch("certificate re-check".into());
                            }
                            Some(true) => {}
                        }
                    }
                }
            },
        }
        result
    }

    fn probe_check(&self, inst: &Instance, seed: &BitVec) -> bool {
        if seed.len() != inst.spec.width() {
            return false;
        }
        let mut secret = secret_chip(inst);
        let mut relocked = LockedScanChip::new(
            &inst.circuit,
            inst.chain.clone(),
            inst.spec.clone(),
            seed.clone(),
        );
        let mut rng = SplitMix64::new(mix(self.seed ^ 0x0B5E_C7ED, inst.id as u64));
        let n = inst.chain.len();
        let pis = inst.circuit.inputs().len();
        (0..PROBES).all(|_| {
            let pattern: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
            let inputs: Vec<bool> = (0..pis).map(|_| rng.gen_bool()).collect();
            secret.query(&pattern, &inputs) == relocked.query(&pattern, &inputs)
        })
    }
}

fn secret_chip(inst: &Instance) -> LockedScanChip<'_> {
    LockedScanChip::new(
        &inst.circuit,
        inst.chain.clone(),
        inst.spec.clone(),
        inst.secret.clone(),
    )
}

fn guarded(f: impl FnOnce() -> Result<RobustOutcome, String>) -> Raw {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(out)) => Raw::Outcome(Box::new(out)),
        Ok(Err(msg)) => Raw::ResumeFailed(msg),
        Err(payload) => Raw::Panicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into()),
        ),
    }
}

/// A layer call in progress: its reserved span id, start, and the solver
/// counters before it.
struct Open {
    id: SpanId,
    start: Instant,
    before: SolverStats,
}

/// What the driver reports at each layer boundary. The untraced pass uses
/// [`NoTrace`], whose hooks do nothing.
trait Hooks<O> {
    /// Marks the start of a layer call.
    fn enter(&mut self, _before: SolverStats) -> Option<Open> {
        None
    }

    /// Files the call `open` started as a span of `layer`. `after` holds
    /// the solver counters after a call that solves.
    fn leave(
        &mut self,
        _open: Option<Open>,
        _layer: &'static str,
        _oracle: &mut O,
        _after: Option<SolverStats>,
    ) {
    }

    fn checkpoint_bytes(&mut self, _bytes: usize) {}
}

struct NoTrace;

impl<O> Hooks<O> for NoTrace {}

struct Recorder<'t> {
    tracer: &'t mut Tracer,
    root: SpanId,
    instance: usize,
    counts: &'t mut LayerCounts,
    /// The convergence step's span, parent of the certification inside it.
    converge_span: Option<(SpanId, Instant)>,
}

impl<O> Hooks<TimedOracle<O>> for Recorder<'_> {
    fn enter(&mut self, before: SolverStats) -> Option<Open> {
        Some(Open {
            id: self.tracer.reserve(),
            start: Instant::now(),
            before,
        })
    }

    fn leave(
        &mut self,
        open: Option<Open>,
        layer: &'static str,
        oracle: &mut TimedOracle<O>,
        after: Option<SolverStats>,
    ) {
        let end = Instant::now();
        let Some(Open { id, start, before }) = open else {
            return;
        };
        let calls = oracle.drain();
        self.counts.oracle_calls += calls.len() as u64;
        self.counts.oracle_faults += calls.iter().filter(|c| c.fault).count() as u64;
        self.tracer.record_oracle_calls(id, self.instance, &calls);
        self.tracer
            .record_as(id, Some(self.root), self.instance, layer, start, end);
        if let Some(after) = after {
            let conflicts = self.counts.add_solver(&before, &after);
            match layer {
                "sat.dip_solve" => {
                    self.counts.conflicts_dip += conflicts;
                    let oracle_s: Duration = calls.iter().map(|c| c.end - c.start).sum();
                    let solve = (end - start).saturating_sub(oracle_s).as_secs_f64();
                    self.counts.dip_solve_max_s = self.counts.dip_solve_max_s.max(solve);
                }
                "sat.converge" => {
                    self.counts.conflicts_converge += conflicts;
                    self.converge_span = Some((id, start));
                }
                "dynunlock.report" => self.counts.conflicts_report += conflicts,
                _ => self.counts.conflicts_exhausted += conflicts,
            }
        }
    }

    fn checkpoint_bytes(&mut self, bytes: usize) {
        self.counts.checkpoint_bytes += bytes as u64;
    }
}

/// Steps one attack to its outcome, exactly as `AttackState::run` does,
/// with a checkpoint round trip after every DIP when `round_trip` is set.
fn drive<O: FallibleScanAccess, H: Hooks<O>>(
    inst: &Instance,
    cfg: &RobustConfig,
    round_trip: bool,
    oracle: &mut O,
    hooks: &mut H,
) -> Result<RobustOutcome, String> {
    let (circuit, chain, spec) = (&inst.circuit, &inst.chain, &inst.spec);
    let open = hooks.enter(SolverStats::default());
    let mut state = AttackState::new(circuit, chain, spec, cfg.clone());
    hooks.leave(open, "cnf.encode", oracle, None);
    loop {
        let open = hooks.enter(state.solver_stats());
        let step = state.step(oracle);
        let layer = match &step {
            Step::Dip => "sat.dip_solve",
            Step::Converged => "sat.converge",
            Step::OutOfBudget | Step::Degraded(DegradeReason::BudgetExhausted { .. }) => {
                "sat.exhausted"
            }
            Step::Degraded(_) => "sat.dip_solve",
        };
        hooks.leave(open, layer, oracle, Some(state.solver_stats()));
        match step {
            Step::Dip if round_trip => {
                let open = hooks.enter(state.solver_stats());
                let bytes = state.checkpoint().to_bytes();
                hooks.leave(open, "dynunlock.checkpoint", oracle, None);
                hooks.checkpoint_bytes(bytes.len());
                drop(state);
                let open = hooks.enter(SolverStats::default());
                let resumed = Checkpoint::from_bytes(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|ckpt| {
                        AttackState::resume(circuit, chain, spec, cfg.clone(), &ckpt, oracle)
                            .map_err(|e| e.to_string())
                    });
                hooks.leave(open, "dynunlock.resume", oracle, None);
                state = resumed?;
            }
            Step::Dip | Step::OutOfBudget => {}
            Step::Converged => {
                let open = hooks.enter(state.solver_stats());
                let out = state.finish(oracle);
                hooks.leave(open, "dynunlock.verify", oracle, None);
                return Ok(out);
            }
            Step::Degraded(_) => {
                let open = hooks.enter(state.solver_stats());
                let report = state.report();
                hooks.leave(open, "dynunlock.report", oracle, Some(report.solver_stats));
                return Ok(RobustOutcome::Partial(report));
            }
        }
    }
}

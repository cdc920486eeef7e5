//! The DIP loop and seed recovery.

use std::fmt;
use std::time::Duration;

use cnf::{Encoder, XorMode};
use gf2::BitVec;
use netlist::Circuit;
use satsolver::{Lit, SolverStats};
use scanlock::LockSpec;
use sim::{Reliable, ScanAccess, ScanChain};

use crate::model::SessionMasks;
use crate::robust::{AttackState, RobustConfig, RobustOutcome};

/// Attack tuning knobs.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Capture cycles per session (the paper's standard session uses 1).
    pub captures: usize,
    /// Abort after this many DIP iterations.
    pub max_dips: usize,
    /// Random probe queries used to verify the recovered seed against the
    /// oracle after the loop converges.
    pub verify_queries: usize,
    /// RNG seed for the verification probes.
    pub rng_seed: u64,
    /// How the encoder lowers parities (session-mask linear forms, miter
    /// xors). [`XorMode::Native`] hands each one to the solver's GF(2)
    /// engine as a single xor constraint — this is what makes wide keys
    /// (64+ bits) tractable. [`XorMode::Tseitin`] keeps the classical
    /// clause expansion as a differential reference.
    pub xor_mode: XorMode,
    /// Certify the final UNSAT answer: re-derive it from a fresh
    /// proof-logging solver over the exported problem plus the activation
    /// unit, and verify the emitted DRAT+xor certificate with the
    /// independent `proofcheck` checker before trusting convergence
    /// (DESIGN.md §7).
    pub certify: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            captures: 1,
            max_dips: 512,
            verify_queries: 16,
            rng_seed: 0xD15C0,
            xor_mode: XorMode::Native,
            certify: false,
        }
    }
}

/// A successful unlock.
#[derive(Debug, Clone)]
pub struct Unlock {
    /// The recovered seed. When the session masks span the full seed space
    /// this is *the* secret; otherwise it is a canonical member of the
    /// functionally equivalent class (verified against the oracle either
    /// way).
    pub seed: BitVec,
    /// DIP iterations until the miter went UNSAT.
    pub dip_iterations: usize,
    /// Total oracle sessions consumed (DIP queries + verification probes).
    pub oracle_queries: usize,
    /// Time spent inside SAT solver calls.
    pub solve_time: Duration,
    /// Wall-clock time of the whole attack.
    pub total_time: Duration,
    /// Rank of the linear system the masks gave over the seed bits.
    pub rank: usize,
    /// `width - rank`: log2 of the functionally equivalent seed class.
    pub nullity: usize,
    /// Whether the recovered seed survived the verification probes.
    pub verified: bool,
    /// The checked UNSAT certificate for the final convergence answer,
    /// when [`AttackConfig::certify`] was set.
    pub certificate: Option<proofcheck::Certificate>,
    /// Time spent producing and checking the certificate (zero when
    /// certification was off).
    pub certify_time: Duration,
    /// The SAT solver's lifetime work counters at the end of the attack
    /// (restarts, decisions, conflicts, budget exhaustions, ...).
    pub solver_stats: SolverStats,
}

/// Why an attack run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// The DIP loop did not converge within [`AttackConfig::max_dips`].
    DipLimit {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// Oracle responses contradicted the model — the spec, chain, or
    /// session convention does not describe the oracle.
    Inconsistent,
    /// The converged seed failed a verification probe (should be
    /// impossible against an oracle the model describes).
    VerificationFailed {
        /// Probes checked before the mismatch.
        probes_passed: usize,
    },
    /// Certification was requested and the final UNSAT answer could not
    /// be certified — either the re-solve found a model (the incremental
    /// solver's answer was wrong) or the emitted proof failed the
    /// independent check. Both mean a solver soundness bug.
    Certification {
        /// Why the certificate could not be produced or checked.
        reason: String,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::DipLimit { limit } => {
                write!(f, "DIP loop did not converge within {limit} iterations")
            }
            AttackError::Inconsistent => {
                write!(f, "oracle responses contradict the lock model")
            }
            AttackError::VerificationFailed { probes_passed } => {
                write!(
                    f,
                    "recovered seed failed verification after {probes_passed} probes"
                )
            }
            AttackError::Certification { reason } => {
                write!(f, "final UNSAT answer failed certification: {reason}")
            }
        }
    }
}

impl std::error::Error for AttackError {}

/// One symbolic seed hypothesis: its seed variables and its per-position
/// mask literals (each a parity of seed variables).
#[derive(Debug)]
pub(crate) struct SeedCopy {
    pub(crate) vars: Vec<Lit>,
    pub(crate) alpha: Vec<Lit>,
    pub(crate) beta: Vec<Lit>,
}

pub(crate) fn seed_copy(enc: &mut Encoder, width: usize, masks: &SessionMasks) -> SeedCopy {
    let vars = enc.fresh_many(width);
    let alpha = masks
        .alpha
        .iter()
        .map(|row| enc.linear_form(&vars, row))
        .collect();
    let beta = masks
        .beta
        .iter()
        .map(|row| enc.linear_form(&vars, row))
        .collect();
    SeedCopy { vars, alpha, beta }
}

/// Encodes one locked session under a seed hypothesis: XOR the load mask
/// into the pattern, scatter into flop order, unroll the capture frames,
/// gather back to chain order, XOR the unload mask. Returns
/// `(scan_out, po)` literals.
pub(crate) fn locked_cone(
    enc: &mut Encoder,
    circuit: &Circuit,
    chain: &ScanChain,
    copy: &SeedCopy,
    pattern: &[Lit],
    pis: &[Lit],
    captures: usize,
) -> (Vec<Lit>, Vec<Lit>) {
    let n = chain.len();
    let loaded: Vec<Lit> = (0..n)
        .map(|p| enc.xor2(pattern[p], copy.alpha[p]))
        .collect();
    let mut state: Vec<Option<Lit>> = vec![None; n];
    for (pos, &lit) in loaded.iter().enumerate() {
        state[chain.dff_at(pos)] = Some(lit);
    }
    let mut state: Vec<Lit> = state
        .into_iter()
        .map(|l| l.expect("chain is a permutation of the flops"))
        .collect();
    let mut po = Vec::new();
    for _ in 0..captures {
        let cone = enc.comb(circuit, pis, &state);
        po = cone.po;
        state = cone.next_state;
    }
    let scan_out = (0..n)
        .map(|pos| {
            let captured = state[chain.dff_at(pos)];
            enc.xor2(captured, copy.beta[pos])
        })
        .collect();
    (scan_out, po)
}

/// Runs the DynUnlock attack against a scan oracle.
///
/// The attacker knows the netlist, the chain order, and the lock structure
/// ([`LockSpec`] — taps and key-gate placement, from reverse engineering);
/// only the LFSR seed is secret, and the only access to the oracle is
/// [`ScanAccess`].
///
/// The run has three phases:
///
/// 1. **DIP loop** (the SAT attack): two symbolic seed hypotheses drive
///    two copies of the affine session model over a shared symbolic
///    stimulus; while the solver can find a stimulus on which the copies
///    disagree, query the oracle there and constrain both copies to the
///    observed response. The solver instance stays warm throughout —
///    every iteration only appends constraints. Under the default
///    [`XorMode::Native`] the session-mask linear forms land in the
///    solver's GF(2) engine as single wide xor rows instead of Tseitin
///    chains, which is what keeps 64+-bit keys tractable.
/// 2. **Linear phase**: once no distinguishing input exists, read the
///    session masks off the final model and hand them, as explicit linear
///    forms of the seed, to [`lfsr::recover::SeedRecovery`]. Full rank
///    pins the seed exactly; otherwise every seed in the affine class is
///    functionally equivalent and a canonical member is returned.
/// 3. **Verification**: random probe sessions compare a re-locked chip
///    under the recovered seed against the oracle bit-for-bit.
///
/// # Errors
///
/// [`AttackError::DipLimit`] if the loop does not converge,
/// [`AttackError::Inconsistent`] if the oracle contradicts the model
/// (wrong spec/chain/convention), [`AttackError::VerificationFailed`] if
/// the converged seed fails a probe.
///
/// # Panics
///
/// Panics if dimensions disagree (chain vs. circuit flops, oracle port
/// counts, `captures == 0`).
pub fn unlock<O: ScanAccess>(
    circuit: &Circuit,
    chain: &ScanChain,
    spec: &LockSpec,
    oracle: &mut O,
    cfg: &AttackConfig,
) -> Result<Unlock, AttackError> {
    let state = AttackState::new(circuit, chain, spec, RobustConfig::strict(cfg.clone()));
    match state.run(&mut Reliable(&mut *oracle)) {
        RobustOutcome::Unlocked { unlock, .. } => Ok(unlock),
        RobustOutcome::Partial(report) => Err(report.reason.into_attack_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::Xoshiro256;
    use lfsr::TapSet;
    use netlist::generator::{s208_like, GeneratorConfig};
    use scanlock::LockedScanChip;

    /// One end-to-end lock-and-attack exercise. A builder instead of a
    /// positional argument list: the defaulted knobs (captures, xor mode,
    /// certification) read at the call site instead of as bare numbers.
    struct RoundTrip<'a> {
        circuit: &'a Circuit,
        chain: ScanChain,
        width: usize,
        num_gates: usize,
        captures: usize,
        seed: u64,
        xor_mode: XorMode,
        certify: bool,
    }

    impl<'a> RoundTrip<'a> {
        fn new(
            circuit: &'a Circuit,
            chain: ScanChain,
            width: usize,
            num_gates: usize,
            seed: u64,
        ) -> Self {
            RoundTrip {
                circuit,
                chain,
                width,
                num_gates,
                captures: 1,
                seed,
                xor_mode: XorMode::Native,
                certify: false,
            }
        }

        fn captures(mut self, captures: usize) -> Self {
            self.captures = captures;
            self
        }

        fn mode(mut self, xor_mode: XorMode) -> Self {
            self.xor_mode = xor_mode;
            self
        }

        fn certify(mut self) -> Self {
            self.certify = true;
            self
        }

        fn run(self) -> Unlock {
            let mut rng = Xoshiro256::new(self.seed);
            let taps = TapSet::maximal(self.width).unwrap();
            let spec = LockSpec::random(taps, self.chain.len(), self.num_gates, &mut rng);
            let secret = spec.random_seed(&mut rng);
            let mut oracle = LockedScanChip::new(
                self.circuit,
                self.chain.clone(),
                spec.clone(),
                secret.clone(),
            );
            let cfg = AttackConfig {
                captures: self.captures,
                xor_mode: self.xor_mode,
                certify: self.certify,
                ..AttackConfig::default()
            };
            let unlock = unlock(self.circuit, &self.chain, &spec, &mut oracle, &cfg)
                .expect("attack converges");
            assert!(unlock.verified);
            assert_eq!(
                unlock.certificate.is_some(),
                self.certify,
                "certificate present exactly when requested"
            );
            // On these dense instances every mask bit reaches an output, so a
            // full-rank system lands on the secret itself. (In general, full
            // rank only pins the solver's functionally equivalent model seed —
            // see tests/lock_roundtrip.rs.)
            if unlock.nullity == 0 {
                assert_eq!(unlock.seed, secret, "full-rank recovery is exact here");
            }
            unlock
        }
    }

    #[test]
    fn unlocks_s208_natural_chain() {
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 8, 5, 0xA0).run();
        assert!(u.dip_iterations <= 64, "tiny instance, few DIPs");
    }

    #[test]
    fn unlocks_s208_shuffled_chain() {
        let c = s208_like();
        let mut rng = Xoshiro256::new(99);
        let chain = ScanChain::shuffled(8, &mut rng);
        RoundTrip::new(&c, chain, 12, 6, 0xB1).run();
    }

    #[test]
    fn unlocks_generated_circuit_with_multiple_captures() {
        let c = GeneratorConfig::new("atk", 5, 3, 6, 50)
            .with_seed(7)
            .generate();
        RoundTrip::new(&c, ScanChain::natural(6), 8, 4, 0xC2)
            .captures(2)
            .run();
    }

    #[test]
    fn unlocks_wide_key_with_sparse_gates() {
        // Fewer gates than key bits: rank may be deficient, but the
        // recovered seed must still be functionally equivalent (verified
        // inside the round trip by probe).
        let c = s208_like();
        RoundTrip::new(&c, ScanChain::natural(8), 16, 3, 0xD3).run();
    }

    #[test]
    fn native_and_tseitin_modes_recover_the_same_lock() {
        // Same lock attacked under both lowering modes: both must verify,
        // and on a full-rank instance both must land on the same seed.
        let c = s208_like();
        let native = RoundTrip::new(&c, ScanChain::natural(8), 12, 6, 0xE4).run();
        let tseitin = RoundTrip::new(&c, ScanChain::natural(8), 12, 6, 0xE4)
            .mode(XorMode::Tseitin)
            .run();
        assert!(native.verified && tseitin.verified);
        assert_eq!(native.rank, tseitin.rank, "rank is a property of the lock");
        if native.nullity == 0 {
            assert_eq!(native.seed, tseitin.seed);
        }
    }

    #[test]
    fn unlocks_64_bit_key_natively() {
        // The headline width from the refactor: a 64-bit LFSR seed. Native
        // xor keeps each mask bit a single solver row, so this stays fast.
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 64, 6, 0xF5).run();
        assert!(u.verified);
    }

    #[test]
    fn certified_unlock_smoke() {
        // Certification re-derives the convergence UNSAT with a logged
        // solver and checks the emitted proof; a small instance keeps
        // this fast enough for every test run (the 64-bit certified
        // attack lives in tests/certified_attack.rs).
        let c = s208_like();
        let u = RoundTrip::new(&c, ScanChain::natural(8), 8, 5, 0xA0)
            .certify()
            .run();
        let cert = u.certificate.expect("certificate requested");
        assert!(cert.stats.steps() > 0, "a real refutation was logged");
        assert!(u.certify_time > Duration::ZERO);
    }

    #[test]
    fn gate_free_lock_converges_immediately() {
        let c = s208_like();
        let spec = LockSpec::new(TapSet::maximal(8).unwrap(), vec![]).unwrap();
        let secret = BitVec::from_u64(8, 0x3C);
        let chain = ScanChain::natural(8);
        let mut oracle = LockedScanChip::new(&c, chain.clone(), spec.clone(), secret);
        let u = unlock(&c, &chain, &spec, &mut oracle, &AttackConfig::default()).unwrap();
        assert_eq!(u.dip_iterations, 0, "no key gates, no DIPs needed");
        assert_eq!(u.rank, 0);
        assert!(u.verified);
    }

    #[test]
    fn wrong_spec_is_reported_inconsistent() {
        // Attack a chip whose real gate placement differs from the spec the
        // attacker assumes: either the loop detects the contradiction or
        // verification catches the bad seed — it must not silently succeed.
        let c = s208_like();
        let chain = ScanChain::natural(8);
        let taps = TapSet::maximal(8).unwrap();
        let mut rng = Xoshiro256::new(5);
        let real = LockSpec::random(taps.clone(), 8, 5, &mut rng);
        let assumed = LockSpec::random(taps, 8, 5, &mut rng);
        assert_ne!(real, assumed);
        let secret = real.random_seed(&mut rng);
        let mut oracle = LockedScanChip::new(&c, chain.clone(), real, secret);
        let err = unlock(&c, &chain, &assumed, &mut oracle, &AttackConfig::default());
        assert!(err.is_err(), "mismatched model must not verify");
    }
}

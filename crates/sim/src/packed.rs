//! Word-parallel combinational evaluation, generic over lane width.
//!
//! The scalar [`Evaluator`](crate::Evaluator) stores one `bool` per net
//! and walks the circuit once per pattern. [`WidePackedEvaluator`] stores
//! one [`LaneWord`] per net — bit `l` of every word belongs to *lane* `l`
//! — so a single sweep evaluates `W::LANES` independent patterns: every
//! gate becomes one or two bitwise instructions per fanin instead of a
//! per-pattern branch. [`PackedEvaluator`] is the 64-lane (`u64`)
//! instantiation, [`PackedEvaluator256`] the 256-lane ([`W256`]) one.
//! All widths implement identical semantics; the scalar evaluator is the
//! differential-test reference (DESIGN.md §5).
//!
//! Gate visits follow the circuit's precomputed
//! [`EvalSchedule`](netlist::EvalSchedule): levelized order with a
//! flattened fanin index, so the inner loop is a linear walk over two
//! dense arrays with no per-gate allocation or pointer chasing.

use std::fmt;

use netlist::{Circuit, GateKind, NetId};

use crate::lane::{LaneWord, W256};

/// Why a set of patterns cannot be packed into lane words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PackError {
    /// More patterns than the lane word has lanes.
    TooManyPatterns {
        /// Number of patterns given.
        got: usize,
        /// Lane capacity of the word type.
        lanes: usize,
    },
    /// A pattern's length differs from the first pattern's.
    RaggedPattern {
        /// Index of the offending pattern.
        index: usize,
        /// Its length.
        len: usize,
        /// The length of pattern 0, which every pattern must match.
        expected: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::TooManyPatterns { got, lanes } => {
                write!(f, "{got} patterns exceed the {lanes}-lane word capacity")
            }
            PackError::RaggedPattern {
                index,
                len,
                expected,
            } => write!(
                f,
                "pattern {index} has length {len}, expected {expected} (all patterns must share one length)"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// Packs up to `W::LANES` per-pattern `bool` vectors into lane words.
///
/// `patterns[l]` becomes lane `l`: the returned vector has one word per
/// position, with lane `l` of word `i` equal to `patterns[l][i]`. Unused
/// lanes (when fewer than `W::LANES` patterns are given) are zero.
///
/// # Errors
///
/// [`PackError::TooManyPatterns`] if more than `W::LANES` patterns are
/// given, [`PackError::RaggedPattern`] if lengths differ — never a
/// silent truncation or out-of-bounds lane shift.
pub fn try_pack_lanes_wide<W: LaneWord>(patterns: &[Vec<bool>]) -> Result<Vec<W>, PackError> {
    if patterns.len() > W::LANES {
        return Err(PackError::TooManyPatterns {
            got: patterns.len(),
            lanes: W::LANES,
        });
    }
    let len = patterns.first().map_or(0, Vec::len);
    for (index, p) in patterns.iter().enumerate() {
        if p.len() != len {
            return Err(PackError::RaggedPattern {
                index,
                len: p.len(),
                expected: len,
            });
        }
    }
    let mut words = vec![W::zeros(); len];
    for (lane, pattern) in patterns.iter().enumerate() {
        for (i, &bit) in pattern.iter().enumerate() {
            if bit {
                words[i].set_lane(lane, true);
            }
        }
    }
    Ok(words)
}

/// [`try_pack_lanes_wide`] that panics on invalid input.
///
/// # Panics
///
/// Panics if more than `W::LANES` patterns are given or lengths differ
/// (guard-tested; see `PackError` for the typed alternative).
pub fn pack_lanes_wide<W: LaneWord>(patterns: &[Vec<bool>]) -> Vec<W> {
    try_pack_lanes_wide(patterns).unwrap_or_else(|e| panic!("pack_lanes: {e}"))
}

/// Extracts one lane from packed words: the inverse of
/// [`pack_lanes_wide`].
///
/// # Panics
///
/// Panics if `lane >= W::LANES`.
pub fn unpack_lane_wide<W: LaneWord>(words: &[W], lane: usize) -> Vec<bool> {
    assert!(
        lane < W::LANES,
        "lane {lane} out of range for a {}-lane word",
        W::LANES
    );
    words.iter().map(|w| w.lane(lane)).collect()
}

/// 64-lane [`try_pack_lanes_wide`]: packs up to 64 patterns into `u64`
/// lane words, returning a typed error on invalid input.
///
/// # Errors
///
/// See [`try_pack_lanes_wide`].
pub fn try_pack_lanes(patterns: &[Vec<bool>]) -> Result<Vec<u64>, PackError> {
    try_pack_lanes_wide(patterns)
}

/// Packs up to 64 per-pattern `bool` vectors into `u64` lane words.
///
/// # Panics
///
/// Panics if more than 64 patterns are given or lengths differ; use
/// [`try_pack_lanes`] for the typed-error variant.
pub fn pack_lanes(patterns: &[Vec<bool>]) -> Vec<u64> {
    pack_lanes_wide(patterns)
}

/// Extracts one lane from packed `u64` words: the inverse of
/// [`pack_lanes`].
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn unpack_lane(words: &[u64], lane: usize) -> Vec<bool> {
    unpack_lane_wide(words, lane)
}

/// Reusable lane-parallel combinational evaluator, generic over the lane
/// word `W`.
///
/// # Example
///
/// ```
/// use netlist::{CircuitBuilder, GateKind};
/// use sim::PackedEvaluator;
///
/// let mut b = CircuitBuilder::new("xor");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate(GateKind::Xor, &[x, y], "z");
/// b.output(z);
/// let c = b.finish().unwrap();
///
/// let mut ev = PackedEvaluator::new(&c);
/// // lane l of each input word is that lane's pattern bit
/// ev.eval(&[0b01, 0b11], &[]);
/// assert_eq!(ev.output_values(), vec![0b10]); // 0^1=1 in lane 1 only
/// ```
#[derive(Debug, Clone)]
pub struct WidePackedEvaluator<'c, W: LaneWord> {
    circuit: &'c Circuit,
    values: Vec<W>,
}

/// The 64-lane (`u64`) packed evaluator — one machine word per net.
pub type PackedEvaluator<'c> = WidePackedEvaluator<'c, u64>;

/// The 256-lane ([`W256`]) packed evaluator — a `[u64; 4]` block per
/// net, amortizing the schedule walk over four words.
pub type PackedEvaluator256<'c> = WidePackedEvaluator<'c, W256>;

impl<'c, W: LaneWord> WidePackedEvaluator<'c, W> {
    /// Creates an evaluator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        WidePackedEvaluator {
            circuit,
            values: vec![W::zeros(); circuit.num_nets()],
        }
    }

    /// The circuit being evaluated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Evaluates all nets for `W::LANES` lanes at once from packed
    /// primary-input words and packed flop-output words (`state[i]` is
    /// the Q word of `circuit.dffs()[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `pis` or `state` have the wrong length.
    pub fn eval(&mut self, pis: &[W], state: &[W]) {
        let c = self.circuit;
        assert_eq!(pis.len(), c.inputs().len(), "PI count mismatch");
        assert_eq!(state.len(), c.dffs().len(), "state length mismatch");
        for (i, &net) in c.inputs().iter().enumerate() {
            self.values[net.index()] = pis[i];
        }
        for (i, dff) in c.dffs().iter().enumerate() {
            self.values[dff.q.index()] = state[i];
        }
        let sched = c.schedule();
        let fanins = sched.fanins();
        let values = &mut self.values;
        for op in sched.ops() {
            let ins = &fanins[op.fanin_start as usize..op.fanin_end as usize];
            let word = match op.kind {
                GateKind::Buf => values[ins[0] as usize],
                GateKind::Not => values[ins[0] as usize].not(),
                GateKind::And => ins
                    .iter()
                    .fold(W::ones(), |acc, &f| acc.and(values[f as usize])),
                GateKind::Nand => ins
                    .iter()
                    .fold(W::ones(), |acc, &f| acc.and(values[f as usize]))
                    .not(),
                GateKind::Or => ins
                    .iter()
                    .fold(W::zeros(), |acc, &f| acc.or(values[f as usize])),
                GateKind::Nor => ins
                    .iter()
                    .fold(W::zeros(), |acc, &f| acc.or(values[f as usize]))
                    .not(),
                GateKind::Xor => ins
                    .iter()
                    .fold(W::zeros(), |acc, &f| acc.xor(values[f as usize])),
                GateKind::Xnor => ins
                    .iter()
                    .fold(W::zeros(), |acc, &f| acc.xor(values[f as usize]))
                    .not(),
                GateKind::Const0 => W::zeros(),
                GateKind::Const1 => W::ones(),
            };
            values[op.output as usize] = word;
        }
    }

    /// Packed value of a net after the last eval.
    pub fn value(&self, net: NetId) -> W {
        self.values[net.index()]
    }

    /// Value of a net in one lane after the last eval.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn lane_value(&self, net: NetId, lane: usize) -> bool {
        assert!(
            lane < W::LANES,
            "lane {lane} out of range for a {}-lane word",
            W::LANES
        );
        self.values[net.index()].lane(lane)
    }

    /// Packed values of the primary outputs after the last eval.
    pub fn output_values(&self) -> Vec<W> {
        self.circuit
            .outputs()
            .iter()
            .map(|&n| self.value(n))
            .collect()
    }

    /// Packed next-state vector (each flop's D word) after the last eval.
    pub fn next_state(&self) -> Vec<W> {
        self.circuit
            .dffs()
            .iter()
            .map(|dff| self.value(dff.d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use gf2::{Rng64, SplitMix64};
    use netlist::generator::GeneratorConfig;
    use netlist::CircuitBuilder;

    #[test]
    fn pack_unpack_roundtrip() {
        let mut rng = SplitMix64::new(3);
        let patterns: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..17).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let words = pack_lanes(&patterns);
        assert_eq!(words.len(), 17);
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(&unpack_lane(&words, lane), pattern, "lane {lane}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip_256_lanes() {
        let mut rng = SplitMix64::new(5);
        let patterns: Vec<Vec<bool>> = (0..200)
            .map(|_| (0..9).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let words: Vec<W256> = pack_lanes_wide(&patterns);
        assert_eq!(words.len(), 9);
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(&unpack_lane_wide(&words, lane), pattern, "lane {lane}");
        }
        // unused lanes stay zero
        assert_eq!(unpack_lane_wide(&words, 255), vec![false; 9]);
    }

    #[test]
    fn pack_fewer_than_64_lanes_zero_fills() {
        let words = pack_lanes(&[vec![true, false]]);
        assert_eq!(words, vec![1, 0]);
        assert_eq!(unpack_lane(&words, 63), vec![false, false]);
    }

    #[test]
    fn too_many_patterns_is_a_typed_error() {
        let patterns: Vec<Vec<bool>> = (0..65).map(|_| vec![true]).collect();
        assert_eq!(
            try_pack_lanes(&patterns),
            Err(PackError::TooManyPatterns { got: 65, lanes: 64 })
        );
        // ...but 65 patterns fit a 256-lane block
        assert!(try_pack_lanes_wide::<W256>(&patterns).is_ok());
        let wide: Vec<Vec<bool>> = (0..257).map(|_| vec![true]).collect();
        assert_eq!(
            try_pack_lanes_wide::<W256>(&wide),
            Err(PackError::TooManyPatterns {
                got: 257,
                lanes: 256
            })
        );
    }

    #[test]
    fn ragged_patterns_are_a_typed_error() {
        let patterns = vec![vec![true, false], vec![true], vec![false, true]];
        assert_eq!(
            try_pack_lanes(&patterns),
            Err(PackError::RaggedPattern {
                index: 1,
                len: 1,
                expected: 2
            })
        );
        let msg = try_pack_lanes(&patterns).unwrap_err().to_string();
        assert!(
            msg.contains("pattern 1"),
            "message names the pattern: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "65 patterns exceed the 64-lane word capacity")]
    fn pack_lanes_panics_on_too_many_patterns() {
        let patterns: Vec<Vec<bool>> = (0..65).map(|_| vec![true]).collect();
        let _ = pack_lanes(&patterns);
    }

    #[test]
    #[should_panic(expected = "all patterns must share one length")]
    fn pack_lanes_panics_on_ragged_patterns() {
        let _ = pack_lanes(&[vec![true, false], vec![true]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unpack_lane_bounds_are_checked() {
        let _ = unpack_lane(&[0u64], 64);
    }

    fn kinds_circuit() -> (Circuit, Vec<NetId>) {
        // A circuit exercising every gate kind.
        let mut b = CircuitBuilder::new("kinds");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g0 = b.gate(GateKind::Buf, &[x], "g0");
        let g1 = b.gate(GateKind::Not, &[y], "g1");
        let g2 = b.gate(GateKind::And, &[x, y, z], "g2");
        let g3 = b.gate(GateKind::Nand, &[g0, g1], "g3");
        let g4 = b.gate(GateKind::Or, &[g2, g3, z], "g4");
        let g5 = b.gate(GateKind::Nor, &[x, g4], "g5");
        let g6 = b.gate(GateKind::Xor, &[g4, g5, y], "g6");
        let g7 = b.gate(GateKind::Xnor, &[g6, z], "g7");
        let c0 = b.gate(GateKind::Const0, &[], "c0");
        let c1 = b.gate(GateKind::Const1, &[], "c1");
        let g8 = b.gate(GateKind::Or, &[g7, c0, c1], "g8");
        b.output(g8);
        b.output(g6);
        let probes = vec![g0, g1, g2, g3, g4, g5, g6, g7, g8];
        (b.finish().unwrap(), probes)
    }

    #[test]
    fn every_gate_kind_matches_scalar_on_all_lane_patterns() {
        let (c, probes) = kinds_circuit();
        let mut rng = SplitMix64::new(9);
        let pi_words: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut packed = PackedEvaluator::new(&c);
        packed.eval(&pi_words, &[]);
        let mut scalar = Evaluator::new(&c);
        for lane in 0..64 {
            let pis = unpack_lane(&pi_words, lane);
            scalar.eval(&pis, &[]);
            for &net in &probes {
                assert_eq!(
                    packed.lane_value(net, lane),
                    scalar.value(net),
                    "net {net} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn every_gate_kind_matches_scalar_on_256_lanes() {
        let (c, probes) = kinds_circuit();
        let mut rng = SplitMix64::new(11);
        let pi_words: Vec<W256> = (0..3)
            .map(|_| {
                W256([
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                ])
            })
            .collect();
        let mut packed = PackedEvaluator256::new(&c);
        packed.eval(&pi_words, &[]);
        let mut scalar = Evaluator::new(&c);
        for lane in (0..256).step_by(7) {
            let pis = unpack_lane_wide(&pi_words, lane);
            scalar.eval(&pis, &[]);
            for &net in &probes {
                assert_eq!(
                    packed.lane_value(net, lane),
                    scalar.value(net),
                    "net {net} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn random_circuit_all_lanes_match_scalar() {
        let cfg = GeneratorConfig::new("packed-diff", 8, 6, 12, 120).with_seed(42);
        let c = cfg.generate();
        let mut rng = SplitMix64::new(77);
        let pis: Vec<u64> = (0..c.inputs().len()).map(|_| rng.next_u64()).collect();
        let state: Vec<u64> = (0..c.num_dffs()).map(|_| rng.next_u64()).collect();

        let mut packed = PackedEvaluator::new(&c);
        packed.eval(&pis, &state);
        let packed_po = packed.output_values();
        let packed_ns = packed.next_state();

        let mut scalar = Evaluator::new(&c);
        for lane in 0..64 {
            scalar.eval(&unpack_lane(&pis, lane), &unpack_lane(&state, lane));
            assert_eq!(
                unpack_lane(&packed_po, lane),
                scalar.output_values(),
                "PO lane {lane}"
            );
            assert_eq!(
                unpack_lane(&packed_ns, lane),
                scalar.next_state(),
                "next-state lane {lane}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "PI count mismatch")]
    fn wrong_pi_count_panics() {
        let cfg = GeneratorConfig::new("p", 4, 2, 3, 20).with_seed(1);
        let c = cfg.generate();
        PackedEvaluator::new(&c).eval(&[0], &[0, 0, 0]);
    }
}

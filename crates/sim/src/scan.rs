//! Scan-chain structure and unobfuscated scan test access — scalar and
//! lane-word-parallel (64 lanes as `u64`, 256 lanes as `W256`, or any
//! [`LaneWord`]).

use netlist::Circuit;

use crate::lane::{LaneWord, W256};
use crate::packed::WidePackedEvaluator;
use crate::{Evaluator, ScanAccess, ScanResponse};

/// The order in which flops are stitched into a single scan chain.
///
/// Position 0 is the cell nearest the scan-in port; position `len-1` is
/// nearest scan-out. `order[pos]` is the index into `circuit.dffs()` of
/// the flop at chain position `pos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChain {
    order: Vec<usize>,
}

impl ScanChain {
    /// The natural chain: flop `i` at position `i`.
    pub fn natural(num_dffs: usize) -> Self {
        ScanChain {
            order: (0..num_dffs).collect(),
        }
    }

    /// A chain with an explicit flop order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.len()];
        for &i in &order {
            assert!(i < order.len() && !seen[i], "order must be a permutation");
            seen[i] = true;
        }
        ScanChain { order }
    }

    /// A pseudo-random chain order (deterministic in the generator).
    pub fn shuffled<R: gf2::Rng64>(num_dffs: usize, rng: &mut R) -> Self {
        let mut order: Vec<usize> = (0..num_dffs).collect();
        rng.shuffle(&mut order);
        ScanChain { order }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Flop index at chain position `pos`.
    pub fn dff_at(&self, pos: usize) -> usize {
        self.order[pos]
    }

    /// Chain position of flop `dff`.
    pub fn position_of(&self, dff: usize) -> usize {
        self.order
            .iter()
            .position(|&d| d == dff)
            .expect("flop not in chain")
    }

    /// Converts a pattern indexed by chain position into a state vector
    /// indexed by flop index.
    pub fn pattern_to_state(&self, pattern: &[bool]) -> Vec<bool> {
        self.scatter(pattern)
    }

    /// Converts a state vector (by flop index) into a response indexed by
    /// chain position.
    pub fn state_to_pattern(&self, state: &[bool]) -> Vec<bool> {
        self.gather(state)
    }

    /// Packed variant of [`ScanChain::pattern_to_state`]: each lane word
    /// holds `W::LANES` lanes of one chain position.
    pub fn pattern_to_state_packed<W: Copy + Default>(&self, pattern: &[W]) -> Vec<W> {
        self.scatter(pattern)
    }

    /// Packed variant of [`ScanChain::state_to_pattern`].
    pub fn state_to_pattern_packed<W: Copy>(&self, state: &[W]) -> Vec<W> {
        self.gather(state)
    }

    /// `out[order[pos]] = input[pos]` — the permutation is lane-agnostic,
    /// so one implementation serves `bool` and packed `u64` values.
    fn scatter<T: Copy + Default>(&self, pattern: &[T]) -> Vec<T> {
        assert_eq!(pattern.len(), self.len(), "pattern length mismatch");
        let mut state = vec![T::default(); self.len()];
        for (pos, &dff) in self.order.iter().enumerate() {
            state[dff] = pattern[pos];
        }
        state
    }

    /// `out[pos] = input[order[pos]]`.
    fn gather<T: Copy>(&self, state: &[T]) -> Vec<T> {
        assert_eq!(state.len(), self.len(), "state length mismatch");
        self.order.iter().map(|&dff| state[dff]).collect()
    }
}

/// An *unlocked* scan-testable chip: plain load / capture / unload with no
/// obfuscation. This is the ground truth the attack's verification step
/// compares against, and the base the locked chip builds on.
///
/// # Example
///
/// ```
/// use netlist::generator::s208_like;
/// use sim::{ScanAccess, ScanChain, ScanChip};
///
/// let c = s208_like();
/// let chain = ScanChain::natural(c.num_dffs());
/// let mut chip = ScanChip::new(&c, chain);
/// let pattern = vec![true; 8];
/// let pis = vec![false; 10];
/// let resp = chip.query(&pattern, &pis);
/// assert_eq!(resp.scan_out.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ScanChip<'c> {
    evaluator: Evaluator<'c>,
    chain: ScanChain,
    state: Vec<bool>,
}

impl<'c> ScanChip<'c> {
    /// Creates a chip with the given chain; flops reset to zero.
    ///
    /// # Panics
    ///
    /// Panics if the chain length differs from the circuit's flop count.
    pub fn new(circuit: &'c Circuit, chain: ScanChain) -> Self {
        assert_eq!(
            chain.len(),
            circuit.num_dffs(),
            "chain must cover all flops"
        );
        ScanChip {
            evaluator: Evaluator::new(circuit),
            chain,
            state: vec![false; circuit.num_dffs()],
        }
    }

    /// The circuit inside the chip.
    pub fn circuit(&self) -> &'c Circuit {
        self.evaluator.circuit()
    }

    /// The scan chain structure.
    pub fn chain(&self) -> &ScanChain {
        &self.chain
    }

    /// Shift-in: after `len` shift cycles the cell at position `pos` holds
    /// `pattern[pos]`.
    pub fn load(&mut self, pattern: &[bool]) {
        self.state = self.chain.pattern_to_state(pattern);
    }

    /// One capture cycle: flops load their D values; returns the primary
    /// outputs observed during the capture.
    pub fn capture(&mut self, pis: &[bool]) -> Vec<bool> {
        self.evaluator.eval(pis, &self.state);
        let po = self.evaluator.output_values();
        self.state = self.evaluator.next_state();
        po
    }

    /// Shift-out: returns the captured values indexed by chain position.
    pub fn unload(&self) -> Vec<bool> {
        self.chain.state_to_pattern(&self.state)
    }
}

/// What comes back from one packed scan session: `W::LANES` lanes per
/// word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidePackedScanResponse<W> {
    /// Packed values shifted out of the chain, indexed by chain position.
    pub scan_out: Vec<W>,
    /// Packed primary-output words observed during the (last) capture.
    pub po: Vec<W>,
}

/// The 64-lane packed scan response (`u64` words).
pub type PackedScanResponse = WidePackedScanResponse<u64>;

/// The lane-parallel counterpart of [`ScanChip`]: one load / capture /
/// unload session answers `W::LANES` independent scan queries at once.
/// This is the throughput path for attack phases that sweep many patterns
/// (signature collection, hypothesis filtering); the scalar [`ScanChip`]
/// remains the differential-test reference.
///
/// # Example
///
/// ```
/// use netlist::generator::s208_like;
/// use sim::{PackedScanChip, ScanChain};
///
/// let c = s208_like();
/// let chain = ScanChain::natural(c.num_dffs());
/// let mut chip = PackedScanChip::new(&c, chain);
/// let patterns = vec![!0u64; 8]; // all 64 lanes load all-ones
/// let pis = vec![0u64; 10];
/// let resp = chip.query(&patterns, &pis);
/// assert_eq!(resp.scan_out.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct WidePackedScanChip<'c, W: LaneWord = u64> {
    evaluator: WidePackedEvaluator<'c, W>,
    chain: ScanChain,
    state: Vec<W>,
}

/// The 64-lane (`u64`) packed scan chip.
pub type PackedScanChip<'c> = WidePackedScanChip<'c, u64>;

/// The 256-lane ([`W256`]) packed scan chip.
pub type PackedScanChip256<'c> = WidePackedScanChip<'c, W256>;

impl<'c, W: LaneWord> WidePackedScanChip<'c, W> {
    /// Creates a packed chip with the given chain; flops reset to zero in
    /// every lane.
    ///
    /// # Panics
    ///
    /// Panics if the chain length differs from the circuit's flop count.
    pub fn new(circuit: &'c Circuit, chain: ScanChain) -> Self {
        assert_eq!(
            chain.len(),
            circuit.num_dffs(),
            "chain must cover all flops"
        );
        WidePackedScanChip {
            evaluator: WidePackedEvaluator::new(circuit),
            chain,
            state: vec![W::zeros(); circuit.num_dffs()],
        }
    }

    /// The circuit inside the chip.
    pub fn circuit(&self) -> &'c Circuit {
        self.evaluator.circuit()
    }

    /// The scan chain structure.
    pub fn chain(&self) -> &ScanChain {
        &self.chain
    }

    /// Shift-in of `W::LANES` patterns at once: `pattern[pos]` packs the
    /// bit each lane loads into the cell at chain position `pos`.
    pub fn load(&mut self, pattern: &[W]) {
        self.state = self.chain.pattern_to_state_packed(pattern);
    }

    /// One capture cycle across all lanes; returns the packed primary
    /// outputs observed during the capture.
    pub fn capture(&mut self, pis: &[W]) -> Vec<W> {
        self.evaluator.eval(pis, &self.state);
        let po = self.evaluator.output_values();
        self.state = self.evaluator.next_state();
        po
    }

    /// Shift-out: packed captured values indexed by chain position.
    pub fn unload(&self) -> Vec<W> {
        self.chain.state_to_pattern_packed(&self.state)
    }

    /// A full session with `captures` capture cycles, `W::LANES` lanes
    /// at once.
    ///
    /// # Panics
    ///
    /// Panics if `captures == 0` or vector lengths are wrong.
    pub fn query_captures(
        &mut self,
        pattern: &[W],
        pis: &[W],
        captures: usize,
    ) -> WidePackedScanResponse<W> {
        assert!(captures >= 1, "at least one capture cycle");
        self.load(pattern);
        let mut po = Vec::new();
        for _ in 0..captures {
            po = self.capture(pis);
        }
        WidePackedScanResponse {
            scan_out: self.unload(),
            po,
        }
    }

    /// A standard single-capture session, `W::LANES` lanes at once.
    pub fn query(&mut self, pattern: &[W], pis: &[W]) -> WidePackedScanResponse<W> {
        self.query_captures(pattern, pis, 1)
    }
}

impl ScanAccess for ScanChip<'_> {
    fn num_cells(&self) -> usize {
        self.chain.len()
    }

    fn num_pis(&self) -> usize {
        self.circuit().inputs().len()
    }

    fn num_pos(&self) -> usize {
        self.circuit().outputs().len()
    }

    fn query_captures(&mut self, pattern: &[bool], pis: &[bool], captures: usize) -> ScanResponse {
        assert!(captures >= 1, "at least one capture cycle");
        self.load(pattern);
        let mut po = Vec::new();
        for _ in 0..captures {
            po = self.capture(pis);
        }
        ScanResponse {
            scan_out: self.unload(),
            po,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::generator::{s208_like, GeneratorConfig};
    use netlist::{CircuitBuilder, GateKind};

    #[test]
    fn natural_chain_is_identity() {
        let chain = ScanChain::natural(4);
        let pattern = vec![true, false, true, true];
        assert_eq!(chain.pattern_to_state(&pattern), pattern);
        assert_eq!(chain.state_to_pattern(&pattern), pattern);
    }

    #[test]
    fn permuted_chain_roundtrip() {
        let chain = ScanChain::from_order(vec![2, 0, 1]);
        let pattern = vec![true, false, true];
        let state = chain.pattern_to_state(&pattern);
        assert_eq!(chain.state_to_pattern(&state), pattern);
        // position 0 holds flop 2
        assert_eq!(chain.dff_at(0), 2);
        assert_eq!(chain.position_of(2), 0);
        assert!(state[2]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_panics() {
        ScanChain::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn load_capture_unload_matches_seq_sim() {
        let c = s208_like();
        let mut chip = ScanChip::new(&c, ScanChain::natural(8));
        let pattern: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let pis: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        chip.load(&pattern);
        let po = chip.capture(&pis);
        let resp = chip.unload();

        let mut s = crate::SeqSim::new(&c);
        s.set_state(&pattern); // natural chain: pattern == state
        let po2 = s.step(&pis);
        assert_eq!(po, po2);
        assert_eq!(resp, s.state());
    }

    #[test]
    fn query_is_one_full_session() {
        let c = s208_like();
        let mut chip = ScanChip::new(&c, ScanChain::natural(8));
        let pattern = vec![false; 8];
        let pis = vec![true; 10];
        let r1 = chip.query(&pattern, &pis);
        let r2 = chip.query(&pattern, &pis);
        assert_eq!(r1, r2, "queries are stateless sessions");
    }

    #[test]
    fn multi_capture_advances_state_twice() {
        let c = s208_like();
        let mut chip = ScanChip::new(&c, ScanChain::natural(8));
        let pattern: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let pis = vec![false; 10];
        let two = chip.query_captures(&pattern, &pis, 2);

        let mut s = crate::SeqSim::new(&c);
        s.set_state(&pattern);
        s.step(&pis);
        s.step(&pis);
        assert_eq!(two.scan_out, s.state());
    }

    #[test]
    fn shuffled_chain_applies_permutation() {
        let c = GeneratorConfig::new("sc", 4, 2, 6, 30)
            .with_seed(1)
            .generate();
        let mut rng = gf2::SplitMix64::new(5);
        let chain = ScanChain::shuffled(6, &mut rng);
        let mut chip = ScanChip::new(&c, chain.clone());
        let mut pattern = vec![false; 6];
        pattern[0] = true;
        chip.load(&pattern);
        // The single 1 landed in the flop at chain position 0.
        let resp = chip.unload();
        assert_eq!(resp, pattern);
    }

    #[test]
    fn packed_query_matches_scalar_chip_lane_by_lane() {
        use crate::packed::{pack_lanes, unpack_lane};
        use gf2::{Rng64, SplitMix64};

        let c = GeneratorConfig::new("pk", 6, 4, 10, 80)
            .with_seed(3)
            .generate();
        let mut rng = SplitMix64::new(21);
        let chain = ScanChain::shuffled(10, &mut rng);

        let patterns: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..10).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let pis: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..6).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let packed_pattern = pack_lanes(&patterns);
        let packed_pis = pack_lanes(&pis);

        let mut packed = PackedScanChip::new(&c, chain.clone());
        let resp = packed.query_captures(&packed_pattern, &packed_pis, 2);

        let mut scalar = ScanChip::new(&c, chain);
        for lane in 0..64 {
            let sresp = scalar.query_captures(&patterns[lane], &pis[lane], 2);
            assert_eq!(
                unpack_lane(&resp.scan_out, lane),
                sresp.scan_out,
                "scan_out lane {lane}"
            );
            assert_eq!(unpack_lane(&resp.po, lane), sresp.po, "po lane {lane}");
        }
    }

    #[test]
    fn packed_256_query_matches_scalar_chip_lane_by_lane() {
        use crate::packed::{pack_lanes_wide, unpack_lane_wide};
        use gf2::{Rng64, SplitMix64};

        let c = GeneratorConfig::new("pk256", 5, 3, 8, 60)
            .with_seed(9)
            .generate();
        let mut rng = SplitMix64::new(31);
        let chain = ScanChain::shuffled(8, &mut rng);

        let patterns: Vec<Vec<bool>> = (0..256)
            .map(|_| (0..8).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let pis: Vec<Vec<bool>> = (0..256)
            .map(|_| (0..5).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let packed_pattern: Vec<W256> = pack_lanes_wide(&patterns);
        let packed_pis: Vec<W256> = pack_lanes_wide(&pis);

        let mut packed = PackedScanChip256::new(&c, chain.clone());
        let resp = packed.query_captures(&packed_pattern, &packed_pis, 2);

        let mut scalar = ScanChip::new(&c, chain);
        for lane in (0..256).step_by(17) {
            let sresp = scalar.query_captures(&patterns[lane], &pis[lane], 2);
            assert_eq!(
                unpack_lane_wide(&resp.scan_out, lane),
                sresp.scan_out,
                "scan_out lane {lane}"
            );
            assert_eq!(unpack_lane_wide(&resp.po, lane), sresp.po, "po lane {lane}");
        }
    }

    #[test]
    fn packed_chain_permutes_match_scalar() {
        let chain = ScanChain::from_order(vec![2, 0, 1]);
        let words = vec![0xAAu64, 0xBB, 0xCC];
        let state = chain.pattern_to_state_packed(&words);
        assert_eq!(state, vec![0xBB, 0xCC, 0xAA]);
        assert_eq!(chain.state_to_pattern_packed(&state), words);
    }

    #[test]
    fn po_observed_during_capture() {
        let mut b = CircuitBuilder::new("po");
        let x = b.input("x");
        let q = b.dff("q", x);
        let y = b.gate(GateKind::Buf, &[q], "y");
        b.output(y);
        let c = b.finish().unwrap();
        let mut chip = ScanChip::new(&c, ScanChain::natural(1));
        let resp = chip.query(&[true], &[false]);
        assert!(resp.po[0], "PO reads the loaded state during capture");
        assert!(!resp.scan_out[0], "flop captured x=false");
    }
}

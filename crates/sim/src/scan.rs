//! Scan-chain structure and unobfuscated scan test access.

use netlist::Circuit;

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
    /// indexed by flop index: `state[order[pos]] = pattern[pos]`.
    pub fn pattern_to_state(&self, pattern: &[bool]) -> Vec<bool> {
        assert_eq!(pattern.len(), self.len(), "pattern length mismatch");
        let mut state = vec![false; self.len()];
        for (pos, &dff) in self.order.iter().enumerate() {
            state[dff] = pattern[pos];
        }
        state
    }

    /// Converts a state vector (by flop index) into a response indexed by
    /// chain position: `pattern[pos] = state[order[pos]]`.
    pub fn state_to_pattern(&self, state: &[bool]) -> Vec<bool> {
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

//! Differential property tests for the word-parallel simulator:
//! `PackedEvaluator` / `WidePackedEvaluator` / `PackedScanChip` against
//! the scalar `Evaluator` / `ScanChip` on random netlist profiles and
//! random scan-chain orders — every lane must match bit-for-bit.
//!
//! The scalar paths are the semantic references (DESIGN.md §5); any
//! divergence here is a bug in the packed paths.

use dynunlock_repro::gf2::{Rng64, Xoshiro256};
use dynunlock_repro::netlist::generator::GeneratorConfig;
use dynunlock_repro::netlist::profiles::PAPER_BENCHMARKS;
use dynunlock_repro::sim::{
    pack_lanes, pack_lanes_wide, try_pack_lanes, try_pack_lanes_wide, unpack_lane,
    unpack_lane_wide, Evaluator, LaneWord, PackError, PackedEvaluator, PackedScanChip, ScanAccess,
    ScanChain, ScanChip, WidePackedEvaluator, W256,
};

/// Random generator profiles spanning interface shapes: (pis, pos, dffs,
/// gates, seed).
const RANDOM_PROFILES: [(usize, usize, usize, usize, u64); 5] = [
    (4, 3, 5, 40, 11),
    (12, 9, 20, 300, 22),
    (30, 18, 64, 900, 33),
    (7, 7, 130, 500, 44),
    (20, 40, 33, 1200, 55),
];

#[test]
fn packed_evaluator_matches_scalar_on_random_profiles() {
    for &(pis, pos, dffs, gates, seed) in &RANDOM_PROFILES {
        let cfg =
            GeneratorConfig::new(format!("diff{seed}"), pis, pos, dffs, gates).with_seed(seed);
        let c = cfg.generate();
        let mut rng = Xoshiro256::new(seed ^ 0xD1FF);
        for round in 0..3 {
            let pi_words: Vec<u64> = (0..c.inputs().len()).map(|_| rng.next_u64()).collect();
            let st_words: Vec<u64> = (0..c.num_dffs()).map(|_| rng.next_u64()).collect();

            let mut packed = PackedEvaluator::new(&c);
            packed.eval(&pi_words, &st_words);
            let po = packed.output_values();
            let ns = packed.next_state();

            let mut scalar = Evaluator::new(&c);
            for lane in 0..64 {
                scalar.eval(&unpack_lane(&pi_words, lane), &unpack_lane(&st_words, lane));
                assert_eq!(
                    unpack_lane(&po, lane),
                    scalar.output_values(),
                    "PO mismatch: profile seed {seed}, round {round}, lane {lane}"
                );
                assert_eq!(
                    unpack_lane(&ns, lane),
                    scalar.next_state(),
                    "next-state mismatch: profile seed {seed}, round {round}, lane {lane}"
                );
            }
        }
    }
}

#[test]
fn packed_evaluator_matches_scalar_on_paper_profile() {
    // One shrunken paper benchmark keeps the cross-check on realistic
    // circuit shape without slowing the suite.
    let c = PAPER_BENCHMARKS[0].scaled(0.25).build(0);
    let mut rng = Xoshiro256::new(0xBEEF);
    let pi_words: Vec<u64> = (0..c.inputs().len()).map(|_| rng.next_u64()).collect();
    let st_words: Vec<u64> = (0..c.num_dffs()).map(|_| rng.next_u64()).collect();
    let mut packed = PackedEvaluator::new(&c);
    packed.eval(&pi_words, &st_words);
    let mut scalar = Evaluator::new(&c);
    for lane in 0..64 {
        scalar.eval(&unpack_lane(&pi_words, lane), &unpack_lane(&st_words, lane));
        for &out in c.outputs() {
            assert_eq!(
                packed.lane_value(out, lane),
                scalar.value(out),
                "lane {lane}"
            );
        }
    }
}

#[test]
fn packed_scan_chip_matches_scalar_on_random_chain_orders() {
    for &(pis, pos, dffs, gates, seed) in &RANDOM_PROFILES[..3] {
        let cfg =
            GeneratorConfig::new(format!("scan{seed}"), pis, pos, dffs, gates).with_seed(seed);
        let c = cfg.generate();
        let mut rng = Xoshiro256::new(seed ^ 0x5CA2);
        for round in 0..3 {
            let chain = ScanChain::shuffled(c.num_dffs(), &mut rng);
            let patterns: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..c.num_dffs()).map(|_| rng.next_u64() & 1 == 1).collect())
                .collect();
            let pi_lanes: Vec<Vec<bool>> = (0..64)
                .map(|_| {
                    (0..c.inputs().len())
                        .map(|_| rng.next_u64() & 1 == 1)
                        .collect()
                })
                .collect();
            let captures = 1 + (round % 3);

            let mut packed = PackedScanChip::new(&c, chain.clone());
            let resp =
                packed.query_captures(&pack_lanes(&patterns), &pack_lanes(&pi_lanes), captures);

            let mut scalar = ScanChip::new(&c, chain);
            for lane in 0..64 {
                let sresp = scalar.query_captures(&patterns[lane], &pi_lanes[lane], captures);
                assert_eq!(
                    unpack_lane(&resp.scan_out, lane),
                    sresp.scan_out,
                    "scan_out: seed {seed}, round {round}, lane {lane}"
                );
                assert_eq!(
                    unpack_lane(&resp.po, lane),
                    sresp.po,
                    "po: seed {seed}, round {round}, lane {lane}"
                );
            }
        }
    }
}

/// Random scalar `(pis, state)` stimuli for a circuit.
fn random_stimuli(
    num_inputs: usize,
    num_dffs: usize,
    count: usize,
    rng: &mut Xoshiro256,
) -> Vec<(Vec<bool>, Vec<bool>)> {
    (0..count)
        .map(|_| {
            (
                (0..num_inputs).map(|_| rng.next_u64() & 1 == 1).collect(),
                (0..num_dffs).map(|_| rng.next_u64() & 1 == 1).collect(),
            )
        })
        .collect()
}

/// Reference answers from the scalar evaluator.
fn scalar_answers(
    c: &dynunlock_repro::netlist::Circuit,
    stimuli: &[(Vec<bool>, Vec<bool>)],
) -> Vec<(Vec<bool>, Vec<bool>)> {
    let mut scalar = Evaluator::new(c);
    stimuli
        .iter()
        .map(|(pis, state)| {
            scalar.eval(pis, state);
            (scalar.output_values(), scalar.next_state())
        })
        .collect()
}

#[test]
fn wide_256_evaluator_matches_scalar_on_randomized_profiles() {
    let mut rng = Xoshiro256::new(0x256D1FF);
    for &(pis, pos, dffs, gates, seed) in &RANDOM_PROFILES[..4] {
        let cfg =
            GeneratorConfig::new(format!("w256-{seed}"), pis, pos, dffs, gates).with_seed(seed);
        let c = cfg.generate();
        // Randomized pattern count in 1..=256 each trial (proptest-style:
        // the sizes themselves are drawn, not fixed).
        let count = 1 + rng.gen_index(256);
        let stimuli = random_stimuli(c.inputs().len(), c.num_dffs(), count, &mut rng);
        let expect = scalar_answers(&c, &stimuli);

        let pi_lanes: Vec<Vec<bool>> = stimuli.iter().map(|(p, _)| p.clone()).collect();
        let st_lanes: Vec<Vec<bool>> = stimuli.iter().map(|(_, s)| s.clone()).collect();
        let mut pi_words: Vec<W256> = pack_lanes_wide(&pi_lanes[..count.min(256)]);
        let mut st_words: Vec<W256> = pack_lanes_wide(&st_lanes[..count.min(256)]);
        pi_words.resize(c.inputs().len(), W256::zeros());
        st_words.resize(c.num_dffs(), W256::zeros());

        let mut wide = WidePackedEvaluator::<W256>::new(&c);
        wide.eval(&pi_words, &st_words);
        let po = wide.output_values();
        let ns = wide.next_state();
        for (lane, (epo, ens)) in expect.iter().enumerate() {
            assert_eq!(
                &unpack_lane_wide(&po, lane),
                epo,
                "PO seed {seed} lane {lane}"
            );
            assert_eq!(
                &unpack_lane_wide(&ns, lane),
                ens,
                "NS seed {seed} lane {lane}"
            );
        }
    }
}

#[test]
fn pack_lanes_reports_typed_errors_for_bad_batches() {
    // Too many patterns for the lane width.
    let too_many: Vec<Vec<bool>> = (0..65).map(|i| vec![i % 2 == 0]).collect();
    assert!(matches!(
        try_pack_lanes(&too_many),
        Err(PackError::TooManyPatterns { got: 65, lanes: 64 })
    ));
    // The same batch fits a 256-lane word.
    assert!(try_pack_lanes_wide::<W256>(&too_many).is_ok());
    let way_too_many: Vec<Vec<bool>> = (0..257).map(|_| vec![true]).collect();
    assert!(matches!(
        try_pack_lanes_wide::<W256>(&way_too_many),
        Err(PackError::TooManyPatterns {
            got: 257,
            lanes: 256
        })
    ));
    // Ragged lengths.
    let ragged = vec![vec![true, false], vec![true]];
    match try_pack_lanes(&ragged) {
        Err(PackError::RaggedPattern {
            index,
            len,
            expected,
        }) => {
            assert_eq!((index, len, expected), (1, 1, 2));
        }
        other => panic!("expected RaggedPattern, got {other:?}"),
    }
    // Errors render as actionable messages.
    let msg = try_pack_lanes(&too_many).unwrap_err().to_string();
    assert!(msg.contains("65"), "message names the count: {msg}");
}

//! Gate-level simulation: combinational evaluation, sequential stepping,
//! and scan-chain test access for *unlocked* circuits.
//!
//! This crate is the ground-truth substrate of the reproduction: the
//! locked-chip oracle in `scanlock` layers obfuscation on top of the
//! primitives here, and the attack's final verification compares
//! reconstructed responses against the honest [`ScanChip`].
//!
//! * [`Evaluator`] — reusable levelized evaluation of the combinational core;
//! * [`WidePackedEvaluator`] — the lane-word-parallel counterpart,
//!   generic over [`LaneWord`]: [`PackedEvaluator`] packs 64 patterns
//!   per `u64`, [`PackedEvaluator256`] packs 256 per [`W256`] block;
//! * [`SeqSim`] / [`PackedSeqSim`] — clock-by-clock functional simulation,
//!   scalar and 64 lanes at once;
//! * [`ScanChain`] — the order in which flops are stitched into the chain;
//! * [`ScanChip`] / [`WidePackedScanChip`] — load / capture / unload test
//!   access, no obfuscation, scalar and lane-parallel;
//! * [`ScanAccess`] — the oracle interface shared by unlocked and locked
//!   chips (the attack only ever talks to this trait);
//! * [`FaultyOracle`] / [`FallibleScanAccess`] — seeded fault injection
//!   (bit flips, transient errors, dropped sessions, latency) over any
//!   honest oracle, and the fallible interface fault-tolerant attack
//!   code consumes ([`Reliable`] lifts a trustworthy oracle into it).
//!
//! The attack path uses only the scalar types; the packed ones are a
//! single-threaded batch simulator, and the scalar paths are their
//! differential-test references (DESIGN.md §5).
//!
//! # Example
//!
//! ```
//! use netlist::generator::counter;
//! use sim::SeqSim;
//!
//! let c = counter(3);
//! let mut simulator = SeqSim::new(&c);
//! for _ in 0..4 {
//!     simulator.step(&[true]); // enable high: count up
//! }
//! assert_eq!(simulator.state(), &[false, false, true]); // 4 = 0b100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod faulty;
mod lane;
mod oracle;
mod packed;
mod scan;
mod seq;

pub use comb::Evaluator;
pub use faulty::{FallibleScanAccess, FaultSpec, FaultyOracle, FaultyStats, OracleFault, Reliable};
pub use lane::{LaneWord, W256};
pub use oracle::{check_session_freshness, FreshnessViolation, ScanAccess, ScanResponse};
pub use packed::{
    pack_lanes, pack_lanes_wide, try_pack_lanes, try_pack_lanes_wide, unpack_lane,
    unpack_lane_wide, PackError, PackedEvaluator, PackedEvaluator256, WidePackedEvaluator,
};
pub use scan::{
    PackedScanChip, PackedScanChip256, PackedScanResponse, ScanChain, ScanChip, WidePackedScanChip,
    WidePackedScanResponse,
};
pub use seq::{PackedSeqSim, SeqSim};

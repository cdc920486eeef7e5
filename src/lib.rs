//! Umbrella crate for the DynUnlock reproduction workspace.
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories; it re-exports every member crate so examples and
//! integration tests can reach the whole stack through one dependency.
//!
//! See the individual crates for the real functionality:
//!
//! * [`netlist`], [`sim`], [`lfsr`], [`satsolver`], [`gf2`] — substrates
//! * [`scanlock`] — the EFF-Dyn defense and the locked scan-chip oracle
//! * [`cnf`] — Tseitin encoding of circuits onto the SAT solver
//! * [`dynunlock`] — the attack: DIP loop plus GF(2) seed recovery
//! * [`proofcheck`] — standalone DRAT+xor proof checker for certified
//!   solving

pub use cnf;
pub use dynunlock;
pub use gf2;
pub use lfsr;
pub use netlist;
pub use proofcheck;
pub use satsolver;
pub use scanlock;
pub use sim;

//! The three workloads and the instances they attack.
//!
//! Every instance is built the way the paper-table harness builds its
//! locks (`duharness`'s private `LockedInstance::build`), through public
//! APIs only: a scaled paper profile is synthesized, a shuffled scan chain
//! is stitched, and an EFF-Dyn lock (key LFSR taps, key-gate placement) is
//! drawn from a fixed design seed; the workload seed draws the secret key.

use std::time::Instant;

use dynunlock::{AttackConfig, RetryPolicy, RobustConfig};
use gf2::{BitVec, Rng64, SplitMix64, Xoshiro256};
use lfsr::TapSet;
use netlist::profiles::by_name;
use netlist::Circuit;
use satsolver::Budget;
use scanlock::LockSpec;
use sim::{FaultSpec, ScanChain};

use crate::trace::Tracer;

/// Key gates per chain, as a fraction of the flop count (the harness
/// default).
const GATE_FRACTION: f64 = 0.5;

/// Capture cycles per scan session.
const CAPTURES: usize = 1;

/// Per-SAT-call conflict cap of the scale-ladder workload. It bounds every
/// attack's time, so the heavy tail of the miter calls cannot swing a run:
/// under a 20k cap single attacks took 0.01 to 3.5 s and `attack_s.p50`,
/// `attack_s.p75` and `unlocks_per_s` spread 0.15 to 0.3 between seeds.
const LADDER_CONFLICT_CAP: u64 = 5_000;

/// Draws every design (netlist, scan stitching, key-gate placement) of
/// the workloads. Fixed, so that each seed attacks the same designs.
const DESIGN_SEED: u64 = 0x5EED_D351_6000_0001;

/// What one instance is: a paper profile scaled to a flop count and
/// locked with a key width. `design` draws the netlist, the scan
/// stitching and the key-gate placement; `secret_seed`, drawn from the
/// workload seed, draws the chip's secret key.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    pub profile: &'static str,
    pub flops: usize,
    pub key_width: usize,
    pub design: u64,
    pub secret_seed: u64,
}

/// A named workload: its instances and how each is attacked.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub instances: Vec<InstanceSpec>,
    /// Scale-ladder only: every SAT call runs under this conflict cap and
    /// the first exhaustion ends the attack.
    pub conflict_cap: Option<u64>,
    /// Hostile-bench only: faulty oracle, replicated reads, a checkpoint
    /// round trip after every DIP, and certified convergence.
    pub hostile: bool,
}

pub const NAMES: [&str; 3] = ["table-sweep", "scale-ladder", "hostile-bench"];

/// Deterministic 64-bit mix of the workload seed and an index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

/// The four paper profiles of Tables II/III that the table workloads use.
const TABLE_PROFILES: [&str; 4] = ["s5378", "s13207", "s15850", "b20"];

/// The paper's key widths around its 64-bit headline.
const TABLE_WIDTHS: [usize; 3] = [32, 64, 80];

/// Flop counts of the table workloads: every profile is scaled to each
/// of these in turn, so that each seed attacks the same size mix.
const TABLE_FLOPS: std::ops::RangeInclusive<usize> = 10..=18;

/// `variants` rounds of every (key width, profile) pair, each at the
/// next flop count of [`TABLE_FLOPS`].
fn table_instances(variants: usize) -> Vec<(&'static str, usize, usize)> {
    let sizes: Vec<usize> = TABLE_FLOPS.collect();
    let mut out = Vec::new();
    for _ in 0..variants {
        for width in TABLE_WIDTHS {
            for profile in TABLE_PROFILES {
                out.push((profile, sizes[out.len() % sizes.len()], width));
            }
        }
    }
    out
}

/// Scale-ladder rungs: (flop count, variants per profile). Under the cap
/// about three in four 24-flop attacks unlock and none at 40 flops, so 24
/// is the frontier and 40 the rung above it. 28 and 32 flops are left out:
/// close to half of their attacks unlock, so the frontier would flip from
/// seed to seed. Most attacks sit on the cheap rungs, so a 25-second round
/// holds over 200 of them and its percentiles move little between seeds.
const LADDER_RUNGS: [(usize, usize); 5] = [(12, 19), (16, 38), (20, 12), (24, 38), (40, 2)];

/// The two profiles the scale ladder climbs.
const LADDER_PROFILES: [&str; 2] = ["s5378", "s13207"];

/// Key width of the scale ladder (the paper's headline width).
const LADDER_WIDTH: usize = 64;

impl Workload {
    /// The named workload for `seed`, or `None` for an unknown name. The
    /// designs are fixed; the seed draws each chip's secret key (the
    /// paper's protocol of random LFSR seeds on fixed netlists) and, on
    /// hostile-bench, each oracle's fault schedule.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, shape, conflict_cap, hostile) = match name {
            // Paper Tables II/III shape: four profiles, three key widths,
            // many variants. Short attacks.
            "table-sweep" => ("table-sweep", table_instances(60), None, false),
            // Rising flop counts under one fixed per-call conflict cap.
            "scale-ladder" => {
                let mut shape = Vec::new();
                for (flops, variants) in LADDER_RUNGS {
                    for _ in 0..variants {
                        for profile in LADDER_PROFILES {
                            shape.push((profile, flops, LADDER_WIDTH));
                        }
                    }
                }
                ("scale-ladder", shape, Some(LADDER_CONFLICT_CAP), false)
            }
            // Table-sweep sizes with every correctness rail on.
            "hostile-bench" => ("hostile-bench", table_instances(20), None, true),
            _ => return None,
        };
        let instances = shape
            .into_iter()
            .enumerate()
            .map(|(i, (profile, flops, key_width))| InstanceSpec {
                profile,
                flops,
                key_width,
                design: mix(DESIGN_SEED, i as u64),
                secret_seed: mix(seed, i as u64),
            })
            .collect();
        Some(Workload {
            name,
            instances,
            conflict_cap,
            hostile,
        })
    }

    /// The attack configuration every instance of this workload runs
    /// under.
    pub fn robust_config(&self) -> RobustConfig {
        if self.hostile {
            return RobustConfig {
                base: AttackConfig {
                    captures: CAPTURES,
                    certify: true,
                    ..AttackConfig::default()
                },
                replication: 3,
                retry: RetryPolicy::default(),
                solve_budget: Budget::new(),
                max_budget_exhaustions: 0,
            };
        }
        let mut cfg = RobustConfig::strict(AttackConfig {
            captures: CAPTURES,
            ..AttackConfig::default()
        });
        if let Some(cap) = self.conflict_cap {
            cfg.solve_budget = Budget::new().with_conflicts(cap);
            cfg.max_budget_exhaustions = 0;
        }
        cfg
    }

    /// The fault schedule of instance `id`'s oracle on hostile-bench. With
    /// three replicas a read bit is wrong only when two replicas flip it;
    /// at 300 ppm that sent about one run in fifty into a failed
    /// verification, at 50 ppm it is 36 times rarer, while every run still
    /// repairs flipped bits.
    pub fn fault_spec(&self, seed: u64, id: usize) -> FaultSpec {
        FaultSpec::new(mix(seed ^ 0xFA07_FA07, id as u64))
            .with_bit_flips(50)
            .with_transients(20_000)
    }
}

/// One built instance: the circuit, its scan chain, the lock and the
/// secret seed the attack must recover.
#[derive(Debug)]
pub struct Instance {
    pub id: usize,
    pub profile: &'static str,
    pub circuit: Circuit,
    pub chain: ScanChain,
    pub spec: LockSpec,
    pub secret: BitVec,
}

impl Instance {
    /// Synthesizes and locks one instance. With a tracer, the two set-up
    /// layers are recorded as spans.
    pub fn build(id: usize, spec: &InstanceSpec, tracer: Option<&mut Tracer>) -> Instance {
        let profile = by_name(spec.profile).expect("workload profiles exist in the paper table");
        let t0 = Instant::now();
        let circuit = profile
            .scaled(spec.flops as f64 / profile.scan_flops as f64)
            .build(spec.design);
        let t1 = Instant::now();
        let n = circuit.num_dffs();
        let mut rng = Xoshiro256::new(spec.design.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64);
        let chain = ScanChain::shuffled(n, &mut rng);
        // A session is 2n + c edges; the key schedule must not wrap inside it.
        let taps = TapSet::for_width(spec.key_width, (2 * n + CAPTURES) as u64, &mut rng)
            .expect("a usable tap set exists for every workload key width");
        let num_gates = ((n as f64 * GATE_FRACTION) as usize).clamp(2, n);
        let lock = LockSpec::random(taps, n, num_gates, &mut rng);
        let secret = lock.random_seed(&mut Xoshiro256::new(spec.secret_seed));
        let t2 = Instant::now();
        if let Some(tr) = tracer {
            tr.record(None, id, "netlist.generate", t0, t1);
            tr.record(None, id, "scanlock.lock", t1, t2);
        }
        Instance {
            id,
            profile: spec.profile,
            circuit,
            chain,
            spec: lock,
            secret,
        }
    }
}

/// Builds every instance of `workload`.
pub fn build_all(workload: &Workload, mut tracer: Option<&mut Tracer>) -> Vec<Instance> {
    workload
        .instances
        .iter()
        .enumerate()
        .map(|(id, spec)| Instance::build(id, spec, tracer.as_deref_mut()))
        .collect()
}

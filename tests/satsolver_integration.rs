//! End-to-end tests of the `satsolver` crate against the rest of the
//! stack: canonical UNSAT/SAT instance families, model verification
//! through the DIMACS layer, and a Tseitin encoding of real and generated
//! netlists cross-checked against `sim::Evaluator`.

use bench::{pigeonhole, planted_3sat};
use dynunlock_repro::netlist::generator::{s208_like, GeneratorConfig};
use dynunlock_repro::netlist::profiles::PAPER_BENCHMARKS;
use dynunlock_repro::netlist::{Circuit, CircuitBuilder, GateKind};
use dynunlock_repro::satsolver::dimacs::Cnf;
use dynunlock_repro::satsolver::{Lit, SolveResult, Solver, Var};
use dynunlock_repro::sim::Evaluator;
use gf2::{Rng64, SplitMix64};

/// Extracts the model as a plain bool vector (all variables are defaulted
/// on a `Sat` answer).
fn model_of(s: &Solver, vars: &[Var]) -> Vec<bool> {
    vars.iter()
        .map(|&v| s.value(v).expect("model is total after Sat"))
        .collect()
}

#[test]
fn pigeonhole_is_unsat_with_real_search() {
    let cnf = pigeonhole(7, 6);
    let (mut s, _) = cnf.to_solver();
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = *s.stats();
    assert!(st.conflicts > 0, "PHP(7,6) must require learning: {st:?}");
    assert!(st.learnt_clauses > 0);
}

#[test]
fn pigeonhole_boundary_is_sat_and_model_checks() {
    let cnf = pigeonhole(6, 6);
    let (mut s, vars) = cnf.to_solver();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(cnf.eval(&model_of(&s, &vars)), "model violates a clause");
}

#[test]
fn planted_3sat_is_sat_and_model_checks() {
    for seed in 0..5 {
        let cnf = planted_3sat(120, 480, seed);
        let (mut s, vars) = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat, "planted instance, seed {seed}");
        assert!(
            cnf.eval(&model_of(&s, &vars)),
            "model violates a clause (seed {seed})"
        );
    }
}

#[test]
fn dimacs_round_trip_preserves_solver_answers() {
    let cnf = planted_3sat(40, 160, 9);
    let reparsed = Cnf::parse(&cnf.to_dimacs()).expect("own output parses");
    let (mut s, vars) = reparsed.to_solver();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(cnf.eval(&model_of(&s, &vars)));
}

// ---------------------------------------------------------------------
// Circuit-derived CNF vs the gate-level simulator
// ---------------------------------------------------------------------

/// Tseitin-encodes `circuit` into `solver`, one variable per net.
/// Flip-flop outputs (state) and primary inputs are left unconstrained.
fn tseitin(circuit: &Circuit, solver: &mut Solver) -> Vec<Var> {
    let vars: Vec<Var> = (0..circuit.num_nets()).map(|_| solver.new_var()).collect();
    let pos = |n: dynunlock_repro::netlist::NetId| Lit::positive(vars[n.index()]);
    let neg = |n: dynunlock_repro::netlist::NetId| Lit::negative(vars[n.index()]);

    for g in circuit.gates() {
        let o = g.output;
        let ins = &g.inputs;
        match g.kind {
            GateKind::Buf => {
                solver.add_clause(&[neg(o), pos(ins[0])]);
                solver.add_clause(&[pos(o), neg(ins[0])]);
            }
            GateKind::Not => {
                solver.add_clause(&[neg(o), neg(ins[0])]);
                solver.add_clause(&[pos(o), pos(ins[0])]);
            }
            GateKind::And | GateKind::Nand => {
                // aux ≡ AND(ins); for NAND the output literal is inverted.
                let (o_true, o_false) = if g.kind == GateKind::And {
                    (pos(o), neg(o))
                } else {
                    (neg(o), pos(o))
                };
                let mut long: Vec<Lit> = vec![o_true];
                for &i in ins {
                    solver.add_clause(&[o_false, pos(i)]);
                    long.push(neg(i));
                }
                solver.add_clause(&long);
            }
            GateKind::Or | GateKind::Nor => {
                let (o_true, o_false) = if g.kind == GateKind::Or {
                    (pos(o), neg(o))
                } else {
                    (neg(o), pos(o))
                };
                let mut long: Vec<Lit> = vec![o_false];
                for &i in ins {
                    solver.add_clause(&[o_true, neg(i)]);
                    long.push(pos(i));
                }
                solver.add_clause(&long);
            }
            GateKind::Xor | GateKind::Xnor => {
                // Chain binary XORs through aux variables, then tie the
                // output (inverted for XNOR) to the final parity.
                let mut acc = if g.kind == GateKind::Xor {
                    pos(ins[0])
                } else {
                    neg(ins[0])
                };
                for &i in &ins[1..] {
                    let t = Lit::positive(solver.new_var());
                    let b = pos(i);
                    // t ≡ acc ⊕ b
                    solver.add_clause(&[!t, acc, b]);
                    solver.add_clause(&[!t, !acc, !b]);
                    solver.add_clause(&[t, !acc, b]);
                    solver.add_clause(&[t, acc, !b]);
                    acc = t;
                }
                solver.add_clause(&[neg(o), acc]);
                solver.add_clause(&[pos(o), !acc]);
            }
            GateKind::Const0 => {
                solver.add_clause(&[neg(o)]);
            }
            GateKind::Const1 => {
                solver.add_clause(&[pos(o)]);
            }
        }
    }
    vars
}

/// Assumption literals pinning every primary input and state net.
fn pin_inputs(circuit: &Circuit, vars: &[Var], pis: &[bool], state: &[bool]) -> Vec<Lit> {
    let mut assumptions = Vec::new();
    for (net, &val) in circuit.inputs().iter().zip(pis) {
        assumptions.push(Lit::new(vars[net.index()], val));
    }
    for (dff, &val) in circuit.dffs().iter().zip(state) {
        assumptions.push(Lit::new(vars[dff.q.index()], val));
    }
    assumptions
}

/// A small combinational circuit covering every gate kind.
fn all_kinds_circuit() -> Circuit {
    let mut b = CircuitBuilder::new("allkinds");
    let a = b.input("a");
    let c = b.input("c");
    let d = b.input("d");
    let e = b.input("e");
    let and = b.gate(GateKind::And, &[a, c, d], "and");
    let nand = b.gate(GateKind::Nand, &[c, d, e], "nand");
    let or = b.gate(GateKind::Or, &[and, nand], "or");
    let nor = b.gate(GateKind::Nor, &[a, e, and], "nor");
    let xor = b.gate(GateKind::Xor, &[or, nor, d], "xor");
    let xnor = b.gate(GateKind::Xnor, &[xor, a], "xnor");
    let not = b.gate(GateKind::Not, &[xnor], "not");
    let buf = b.gate(GateKind::Buf, &[nor], "buf");
    let one = b.gate(GateKind::Const1, &[], "one");
    let zero = b.gate(GateKind::Const0, &[], "zero");
    let mix = b.gate(GateKind::And, &[not, one], "mix");
    let mix2 = b.gate(GateKind::Or, &[buf, zero, mix], "mix2");
    b.output(xor);
    b.output(mix2);
    b.finish().expect("valid circuit")
}

#[test]
fn circuit_cnf_matches_evaluator_exhaustively() {
    let circuit = all_kinds_circuit();
    let mut solver = Solver::new();
    let vars = tseitin(&circuit, &mut solver);
    let mut ev = Evaluator::new(&circuit);

    let n = circuit.inputs().len();
    for stimulus in 0..1u32 << n {
        let pis: Vec<bool> = (0..n).map(|i| stimulus >> i & 1 == 1).collect();
        ev.eval(&pis, &[]);
        let assumptions = pin_inputs(&circuit, &vars, &pis, &[]);
        assert_eq!(
            solver.solve_assuming(&assumptions),
            SolveResult::Sat,
            "circuit CNF must be satisfiable once inputs are pinned"
        );
        // Every gate output — not just the primary outputs — must agree
        // with the simulator.
        for g in circuit.gates() {
            assert_eq!(
                solver.value(vars[g.output.index()]),
                Some(ev.value(g.output)),
                "net {} disagrees under stimulus {stimulus:04b}",
                circuit.net_name(g.output)
            );
        }
    }
}

#[test]
fn circuit_cnf_forcing_wrong_output_is_unsat() {
    let circuit = all_kinds_circuit();
    let mut solver = Solver::new();
    let vars = tseitin(&circuit, &mut solver);
    let mut ev = Evaluator::new(&circuit);

    let n = circuit.inputs().len();
    for stimulus in [0u32, 3, 7, 11, 15] {
        let pis: Vec<bool> = (0..n).map(|i| stimulus >> i & 1 == 1).collect();
        ev.eval(&pis, &[]);
        for &out in circuit.outputs() {
            let mut assumptions = pin_inputs(&circuit, &vars, &pis, &[]);
            assumptions.push(Lit::new(vars[out.index()], !ev.value(out)));
            assert_eq!(
                solver.solve_assuming(&assumptions),
                SolveResult::Unsat,
                "output {} cannot take the wrong value",
                circuit.net_name(out)
            );
        }
    }
}

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
fn sequential_circuit_cnf_matches_evaluator_on_samples() {
    // The test-local Tseitin encoding and the scalar evaluator are
    // independent; they must agree on every primary output and next-state
    // bit, on a hand-shaped circuit, on random generator profiles and on
    // one shrunken paper benchmark.
    let mut circuits = vec![s208_like()];
    for &(pis, pos, dffs, gates, seed) in &RANDOM_PROFILES {
        let cfg = GeneratorConfig::new(format!("diff{seed}"), pis, pos, dffs, gates);
        circuits.push(cfg.with_seed(seed).generate());
    }
    circuits.push(PAPER_BENCHMARKS[0].scaled(0.25).build(0));

    for circuit in &circuits {
        let mut solver = Solver::new();
        let vars = tseitin(circuit, &mut solver);
        let mut ev = Evaluator::new(circuit);
        let mut rng = SplitMix64::new(0x5EED);

        for _ in 0..32 {
            let pis: Vec<bool> = (0..circuit.inputs().len())
                .map(|_| rng.next_u64() & 1 == 1)
                .collect();
            let state: Vec<bool> = (0..circuit.num_dffs())
                .map(|_| rng.next_u64() & 1 == 1)
                .collect();
            ev.eval(&pis, &state);
            let assumptions = pin_inputs(circuit, &vars, &pis, &state);
            assert_eq!(solver.solve_assuming(&assumptions), SolveResult::Sat);
            for (net, expected) in circuit.outputs().iter().zip(ev.output_values()) {
                assert_eq!(
                    solver.value(vars[net.index()]),
                    Some(expected),
                    "{}: primary output {} disagrees",
                    circuit.name(),
                    circuit.net_name(*net)
                );
            }
            // Next-state (D inputs) must agree too.
            for (dff, expected) in circuit.dffs().iter().zip(ev.next_state()) {
                assert_eq!(
                    solver.value(vars[dff.d.index()]),
                    Some(expected),
                    "{}: next state of {} disagrees",
                    circuit.name(),
                    circuit.net_name(dff.q)
                );
            }
        }
    }
}

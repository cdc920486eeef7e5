//! Precomputed levelized evaluation schedule with a flattened fanin index.
//!
//! A simulator walks the combinational core once per pattern, so the
//! order of gate visits and the location of each gate's fanin net
//! indices are *loop-invariant* across evaluations. This module computes
//! them once, at circuit construction:
//!
//! * gates are sorted by logic level (a valid topological order in which
//!   every gate of level `l` depends only on levels `< l`);
//! * every gate's fanin [`NetId`]s are flattened into one contiguous
//!   `u32` array, replacing the per-gate `Vec<NetId>` pointer chase with a
//!   single cache-friendly slice walk.
//!
//! The schedule is stored inside [`Circuit`] and is strictly read-only
//! after construction. The lane-packed evaluators in `sim` walk it; the
//! scalar `sim::Evaluator` walks [`Circuit::topo_gates`] instead, so the
//! two stay independent differential references for each other.

use crate::{Circuit, GateKind};

/// One gate occurrence in evaluation order.
///
/// `output` and the fanin entries are dense net indices
/// ([`NetId::index`](crate::NetId::index)), ready to index a per-net value
/// array without going through `NetId` wrappers in the inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Boolean function of the gate.
    pub kind: GateKind,
    /// Dense net index of the gate output.
    pub output: u32,
    /// Start of this gate's fanins in [`EvalSchedule::fanins`].
    pub fanin_start: u32,
    /// End (exclusive) of this gate's fanins in [`EvalSchedule::fanins`].
    pub fanin_end: u32,
}

/// The flattened, levelized gate schedule of one circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalSchedule {
    ops: Vec<ScheduledOp>,
    fanins: Vec<u32>,
    /// `level_starts[l]..level_starts[l+1]` indexes the ops of level `l+1`
    /// (gate levels start at 1; sources are level 0). Last entry is
    /// `ops.len()`.
    level_starts: Vec<u32>,
}

impl EvalSchedule {
    /// Builds the schedule for a validated circuit (called once from
    /// `CircuitBuilder::finish`).
    pub(crate) fn build(circuit: &Circuit) -> EvalSchedule {
        let levels = crate::topo::levelize(circuit);
        let mut order: Vec<usize> = (0..circuit.gates.len()).collect();
        // Stable sort by level keeps declaration order inside a level, so
        // the schedule is deterministic for a given circuit.
        order.sort_by_key(|&gi| levels[circuit.gates[gi].output.index()]);

        let total_fanins: usize = circuit.gates.iter().map(|g| g.inputs.len()).sum();
        let mut ops = Vec::with_capacity(order.len());
        let mut fanins = Vec::with_capacity(total_fanins);
        let mut level_starts = Vec::new();
        let mut current_level = 0usize;
        for &gi in &order {
            let gate = &circuit.gates[gi];
            let level = levels[gate.output.index()];
            while current_level < level {
                level_starts.push(ops.len() as u32);
                current_level += 1;
            }
            let fanin_start = fanins.len() as u32;
            fanins.extend(gate.inputs.iter().map(|n| n.index() as u32));
            ops.push(ScheduledOp {
                kind: gate.kind,
                output: gate.output.index() as u32,
                fanin_start,
                fanin_end: fanins.len() as u32,
            });
        }
        level_starts.push(ops.len() as u32);
        EvalSchedule {
            ops,
            fanins,
            level_starts,
        }
    }

    /// All gates in evaluation (level) order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// The flattened fanin net-index array; sliced per gate via
    /// [`EvalSchedule::fanins_of`].
    pub fn fanins(&self) -> &[u32] {
        &self.fanins
    }

    /// Fanin net indices of one scheduled gate.
    pub fn fanins_of(&self, op: &ScheduledOp) -> &[u32] {
        &self.fanins[op.fanin_start as usize..op.fanin_end as usize]
    }

    /// Number of combinational levels (0 for a gate-free circuit).
    pub fn num_levels(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }

    /// The ops of level `level` (1-based: sources are level 0 and have no
    /// ops).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or greater than [`EvalSchedule::num_levels`].
    pub fn level_ops(&self, level: usize) -> &[ScheduledOp] {
        assert!(
            level >= 1 && level <= self.num_levels(),
            "level {level} out of range 1..={}",
            self.num_levels()
        );
        let start = self.level_starts[level - 1] as usize;
        let end = self.level_starts[level] as usize;
        &self.ops[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, GateKind};

    fn diamond() -> Circuit {
        // level 1: a = NOT x, b = NOT y; level 2: z = AND(a, b)
        let mut b = CircuitBuilder::new("diamond");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.gate(GateKind::Not, &[x], "a");
        let bb = b.gate(GateKind::Not, &[y], "b");
        let z = b.gate(GateKind::And, &[a, bb], "z");
        b.output(z);
        b.finish().unwrap()
    }

    #[test]
    fn ops_cover_every_gate_once_in_level_order() {
        let c = diamond();
        let sched = c.schedule();
        assert_eq!(sched.ops().len(), c.num_gates());
        assert_eq!(sched.num_levels(), 2);
        assert_eq!(sched.level_ops(1).len(), 2);
        assert_eq!(sched.level_ops(2).len(), 1);
        // every fanin of a level-l gate was computed at a lower level
        let levels = crate::topo::levelize(&c);
        for op in sched.ops() {
            for &f in sched.fanins_of(op) {
                assert!(levels[f as usize] < levels[op.output as usize]);
            }
        }
    }

    #[test]
    fn fanins_match_gate_inputs() {
        let c = diamond();
        let sched = c.schedule();
        for op in sched.ops() {
            let gate = c
                .gates()
                .iter()
                .find(|g| g.output.index() == op.output as usize)
                .expect("op maps to a gate");
            let expect: Vec<u32> = gate.inputs.iter().map(|n| n.index() as u32).collect();
            assert_eq!(sched.fanins_of(op), expect.as_slice());
            assert_eq!(op.kind, gate.kind);
        }
    }

    #[test]
    fn gate_free_circuit_has_empty_schedule() {
        let mut b = CircuitBuilder::new("wire");
        let x = b.input("x");
        b.output(x);
        let c = b.finish().unwrap();
        assert!(c.schedule().ops().is_empty());
        assert_eq!(c.schedule().num_levels(), 0);
    }

    #[test]
    fn sparse_levels_are_handled() {
        // A chain creates one op per level; check level_starts bookkeeping.
        let mut b = CircuitBuilder::new("chain");
        let x = b.input("x");
        let mut prev = x;
        for i in 0..5 {
            prev = b.gate(GateKind::Not, &[prev], format!("n{i}"));
        }
        b.output(prev);
        let c = b.finish().unwrap();
        let sched = c.schedule();
        assert_eq!(sched.num_levels(), 5);
        for l in 1..=5 {
            assert_eq!(sched.level_ops(l).len(), 1, "level {l}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_has_no_ops() {
        let c = diamond();
        let _ = c.schedule().level_ops(0);
    }

    #[test]
    fn schedule_and_circuit_are_shareable_across_threads() {
        // A built circuit is immutable and may be read from several
        // threads at once; adding interior mutability (Cell, Rc, lazy
        // caches) to either type would break that at a distance.
        fn shareable<T: Send + Sync>() {}
        shareable::<EvalSchedule>();
        shareable::<Circuit>();
        shareable::<ScheduledOp>();
    }
}

//! Gate-level co-simulation: driving the pipeline netlist with
//! architecturally computed values, one retired instruction per cycle.
//!
//! This produces the paper's Algorithm 1 inputs (Figure 1): the per-cycle
//! activation sets `VCD(t)` plus the stage-occupancy map that Algorithm 2
//! needs (the instruction fed at cycle `t` occupies stage `s` at cycle
//! `t + s` on the ideal in-order pipeline).
//!
//! The stage input banks are forced from architectural state each cycle —
//! instruction words, decoded fields, operand values, results, load data —
//! so the combinational clouds compute on *real program values* and the
//! activation sets genuinely reflect instruction sequence and operands.
//! Banks that only feed measurement endpoints (fetch/decode control clouds)
//! are left to capture naturally.
//!
//! Model training co-simulates many short independent streams, each from a
//! flushed pipeline; [`run_streams`] runs them 64 at a time, one per lane
//! of a [`PackedSimulator`].

use crate::machine::{Machine, Retired};
use crate::Result;
use std::collections::VecDeque;
use terse_isa::{Opcode, Program};
use terse_netlist::packed::LANES;
use terse_netlist::pipeline::{PipelineNetlist, STAGE_COUNT};
use terse_netlist::{ActivityTrace, GateId, PackedSimulator, SimStrategy, Simulator};

/// EX-stage control word for an opcode, matching the pipeline netlist's
/// `b3.ex_ctl` bit assignments:
/// bit0 `use_imm`, bit1 `sub_en`, bits2–3 logic-unit op, bit4 shift-right,
/// bit5 shift-arith, bits6–7 result select (00 add/sub, 01 logic, 10 shift,
/// 11 mul), bits 8–11 an opcode hash (drives the EX control cloud).
pub fn ex_control_word(op: Opcode) -> u64 {
    let mut w: u64 = 0;
    let set = |w: &mut u64, bit: usize| *w |= 1 << bit;
    match op {
        Opcode::Sub | Opcode::Slt | Opcode::Sltu | Opcode::Slti => set(&mut w, 1),
        _ => {}
    }
    if op.is_branch() {
        set(&mut w, 1); // compare via subtraction
    }
    // Logic-unit op encoding: 00 AND, 01 OR, 10 XOR, 11 pass-B.
    let (sel, lu) = match op {
        Opcode::And | Opcode::Andi => (0b01u64, 0b00u64),
        Opcode::Or | Opcode::Ori => (0b01, 0b01),
        Opcode::Xor | Opcode::Xori => (0b01, 0b10),
        Opcode::Lui => (0b01, 0b11),
        Opcode::Sll | Opcode::Slli => (0b10, 0b00),
        Opcode::Srl | Opcode::Srli => (0b10, 0b00),
        Opcode::Sra | Opcode::Srai => (0b10, 0b00),
        Opcode::Mul => (0b11, 0b00),
        _ => (0b00, 0b00),
    };
    w |= lu << 2;
    match op {
        Opcode::Srl | Opcode::Srli => w |= 1 << 4,
        Opcode::Sra | Opcode::Srai => w |= (1 << 4) | (1 << 5),
        _ => {}
    }
    w |= sel << 6;
    w |= ((op.code() as u64).wrapping_mul(0x9E) & 0xF) << 8;
    w
}

/// ID-stage control word (drives the `b2.op_ctl` bank: bit0 selects the
/// immediate operand in RA; upper bits exercise the decode qualifier fan).
pub fn id_control_word(op: Opcode) -> u64 {
    let mut w = 0u64;
    if op.is_itype() || matches!(op, Opcode::Ld | Opcode::St) {
        w |= 1;
    }
    w |= (op.code() as u64) << 8;
    w |= ((op.code() as u64).wrapping_mul(0x3B) & 0x7F) << 1;
    w
}

/// ME-stage control word (drives the `b4.mctl` bank: bit0 is the load
/// select for the write-back mux; upper bits exercise the ME cloud).
pub fn me_control_word(op: Opcode) -> u64 {
    u64::from(op == Opcode::Ld) | (((op.code() as u64).wrapping_mul(0x5D) & 0x7E) & !1)
}

/// WB-stage control word (drives the `b5.wctl` bank: bit0 is the commit
/// qualifier gating the result bus).
pub fn wb_control_word(op: Opcode) -> u64 {
    1 | (((op.code() as u64) << 1) & 0x3E)
}

/// The co-simulation trace: activation sets plus the feed schedule.
#[derive(Debug, Clone)]
pub struct CoSimTrace {
    /// Per-cycle activation sets (`VCD(t)`).
    pub activity: ActivityTrace,
    /// The static instruction index fed into IF at each cycle (None during
    /// drain).
    pub fed: Vec<Option<u32>>,
    /// The retired-instruction records, in feed order.
    pub retired: Vec<Retired>,
}

impl CoSimTrace {
    /// The trace of a stream fed from a flushed pipeline and followed by
    /// `STAGE_COUNT` drain bubbles.
    fn of_stream(activity: ActivityTrace, retired: Vec<Retired>) -> Self {
        let fed = retired
            .iter()
            .map(|r| Some(r.index))
            .chain([None; STAGE_COUNT])
            .collect();
        CoSimTrace {
            activity,
            fed,
            retired,
        }
    }

    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.fed.len()
    }

    /// The cycle at which instruction number `k` (k-th fed) occupies
    /// pipeline stage `s`.
    pub fn cycle_of(&self, k: usize, stage: usize) -> usize {
        k + stage
    }
}

/// Gate ids of every bus [`force_banks`] drives, resolved from their names
/// once per co-simulator instead of once per cycle.
#[derive(Debug, Clone, Copy)]
struct Banks<'n> {
    b0_pc: &'n [GateId],
    imem_instr: &'n [GateId],
    redirect_taken: &'n [GateId],
    redirect_target: &'n [GateId],
    b1_instr: &'n [GateId],
    b1_pc: &'n [GateId],
    b2_rs1: &'n [GateId],
    b2_rs2: &'n [GateId],
    b2_rd: &'n [GateId],
    b2_imm: &'n [GateId],
    b2_op_ctl: &'n [GateId],
    b2_pc: &'n [GateId],
    rf_rs1_data: &'n [GateId],
    rf_rs2_data: &'n [GateId],
    bypass_ex: &'n [GateId],
    bypass_me: &'n [GateId],
    fwd_ex_rd: &'n [GateId],
    fwd_me_rd: &'n [GateId],
    b3_op_a: &'n [GateId],
    b3_op_b: &'n [GateId],
    b3_store: &'n [GateId],
    b3_ex_ctl: &'n [GateId],
    b4_alu: &'n [GateId],
    b4_addr: &'n [GateId],
    b4_store: &'n [GateId],
    b4_mctl: &'n [GateId],
    dmem_rdata: &'n [GateId],
    b5_wb: &'n [GateId],
    b5_wctl: &'n [GateId],
}

impl<'n> Banks<'n> {
    fn resolve(pipeline: &'n PipelineNetlist) -> Result<Self> {
        let nl = pipeline.netlist();
        let bus = |name: &str| nl.bus(name).map_err(crate::SimError::from);
        let taken = bus("redirect.taken")?;
        Ok(Banks {
            b0_pc: bus("b0.pc")?,
            imem_instr: bus("imem.instr")?,
            // Only the first wire carries the redirect flag.
            redirect_taken: &taken[..taken.len().min(1)],
            redirect_target: bus("redirect.target")?,
            b1_instr: bus("b1.instr")?,
            b1_pc: bus("b1.pc")?,
            b2_rs1: bus("b2.rs1")?,
            b2_rs2: bus("b2.rs2")?,
            b2_rd: bus("b2.rd")?,
            b2_imm: bus("b2.imm")?,
            b2_op_ctl: bus("b2.op_ctl")?,
            b2_pc: bus("b2.pc")?,
            rf_rs1_data: bus("rf.rs1_data")?,
            rf_rs2_data: bus("rf.rs2_data")?,
            bypass_ex: bus("bypass.ex")?,
            bypass_me: bus("bypass.me")?,
            fwd_ex_rd: bus("fwd.ex_rd")?,
            fwd_me_rd: bus("fwd.me_rd")?,
            b3_op_a: bus("b3.op_a")?,
            b3_op_b: bus("b3.op_b")?,
            b3_store: bus("b3.store")?,
            b3_ex_ctl: bus("b3.ex_ctl")?,
            b4_alu: bus("b4.alu")?,
            b4_addr: bus("b4.addr")?,
            b4_store: bus("b4.store")?,
            b4_mctl: bus("b4.mctl")?,
            dmem_rdata: bus("dmem.rdata")?,
            b5_wb: bus("b5.wb")?,
            b5_wctl: bus("b5.wctl")?,
        })
    }
}

/// Where [`force_banks`] writes one cycle's stimulus: a scalar
/// [`Simulator`], or one lane of a [`PackedSimulator`].
trait BankSink {
    fn force_ff(&mut self, ids: &[GateId], value: u64);
    fn set_input(&mut self, ids: &[GateId], value: u64);
}

impl BankSink for Simulator<'_> {
    fn force_ff(&mut self, ids: &[GateId], value: u64) {
        self.force_ff_ids(ids, value);
    }
    fn set_input(&mut self, ids: &[GateId], value: u64) {
        self.set_input_ids(ids, value);
    }
}

/// One lane of a packed simulator.
struct Lane<'a, 'n>(&'a mut PackedSimulator<'n>, usize);

impl BankSink for Lane<'_, '_> {
    fn force_ff(&mut self, ids: &[GateId], value: u64) {
        self.0.force_ff_ids(ids, self.1, value);
    }
    fn set_input(&mut self, ids: &[GateId], value: u64) {
        self.0.set_input_ids(ids, self.1, value);
    }
}

/// Forces the stage input banks and drives the input ports from the
/// pipeline occupancy `stages` (`stages[s]` is the instruction in stage
/// `s`, IF = 0 … WB = 5).
fn force_banks(
    banks: &Banks<'_>,
    stages: [Option<&Retired>; STAGE_COUNT],
    d: &mut impl BankSink,
) {
    let enc = |r: &Retired| r.inst.encode().unwrap_or(0) as u64;
    // Stage 0 inputs: the instruction entering IF.
    if let Some(i0) = stages[0] {
        d.force_ff(banks.b0_pc, (i0.index as u64) << 2);
        d.set_input(banks.imem_instr, enc(i0));
    }
    // Redirect: if the instruction in ID is a taken branch, IF sees a
    // redirect to its target.
    let id = stages[1];
    let taken = id.and_then(|r| r.taken).unwrap_or(false)
        || id.is_some_and(|r| matches!(r.inst.opcode, Opcode::Jal | Opcode::Jr));
    d.set_input(banks.redirect_taken, u64::from(taken));
    d.set_input(
        banks.redirect_target,
        id.map(|r| (r.next_pc as u64) << 2).unwrap_or(0),
    );
    // Stage 1 inputs (ID): the fetched instruction.
    if let Some(i1) = id {
        d.force_ff(banks.b1_instr, enc(i1));
        d.force_ff(banks.b1_pc, (i1.index as u64) << 2);
    }
    // Stage 2 inputs (RA): decoded fields.
    if let Some(i2) = stages[2] {
        d.force_ff(banks.b2_rs1, i2.inst.rs1 as u64);
        d.force_ff(banks.b2_rs2, i2.inst.rs2 as u64);
        d.force_ff(banks.b2_rd, i2.inst.rd as u64);
        d.force_ff(banks.b2_imm, u64::from(i2.inst.imm.cast_unsigned()));
        d.force_ff(banks.b2_op_ctl, id_control_word(i2.inst.opcode));
        d.force_ff(banks.b2_pc, (i2.index as u64) << 2);
        // Register-file read data and forwarding sources.
        d.set_input(banks.rf_rs1_data, i2.rs1_val as u64);
        d.set_input(banks.rf_rs2_data, i2.rs2_val as u64);
    }
    let ex = stages[3];
    let me = stages[4];
    d.set_input(banks.bypass_ex, ex.map(|r| r.result as u64).unwrap_or(0));
    d.set_input(banks.bypass_me, me.map(|r| r.result as u64).unwrap_or(0));
    d.set_input(banks.fwd_ex_rd, ex.map(|r| r.inst.rd as u64).unwrap_or(0));
    d.set_input(banks.fwd_me_rd, me.map(|r| r.inst.rd as u64).unwrap_or(0));
    // Stage 3 inputs (EX): operand values and control.
    if let Some(i3) = ex {
        let use_imm = i3.inst.opcode.is_itype() || i3.inst.opcode.is_memory();
        let op_b = if use_imm {
            i3.inst.imm.cast_unsigned()
        } else {
            i3.rs2_val
        };
        d.force_ff(banks.b3_op_a, i3.rs1_val as u64);
        d.force_ff(banks.b3_op_b, op_b as u64);
        d.force_ff(banks.b3_store, i3.rs2_val as u64);
        d.force_ff(banks.b3_ex_ctl, ex_control_word(i3.inst.opcode));
    }
    // Stage 4 inputs (ME): results and memory interface.
    if let Some(i4) = me {
        d.force_ff(banks.b4_alu, i4.result as u64);
        d.force_ff(banks.b4_addr, i4.mem_addr.unwrap_or(0) as u64);
        d.force_ff(banks.b4_store, i4.rs2_val as u64);
        d.force_ff(banks.b4_mctl, me_control_word(i4.inst.opcode));
        d.set_input(banks.dmem_rdata, i4.loaded.unwrap_or(0) as u64);
    }
    // Stage 5 inputs (WB).
    if let Some(i5) = stages[5] {
        d.force_ff(banks.b5_wb, i5.result as u64);
        d.force_ff(banks.b5_wctl, wb_control_word(i5.inst.opcode));
    }
}

/// Drives a [`PipelineNetlist`] from retired-instruction streams.
#[derive(Debug)]
pub struct CoSim<'n> {
    pipeline: &'n PipelineNetlist,
    sim: Simulator<'n>,
    /// Bus gate ids, resolved at the first [`CoSim::feed`].
    banks: Option<Banks<'n>>,
    /// Stage occupancy window: `window[s]` is the instruction currently in
    /// stage `s` (IF = 0 … WB = 5).
    window: VecDeque<Option<Retired>>,
}

impl<'n> CoSim<'n> {
    /// Creates a co-simulator over a pipeline netlist (with the default
    /// event-driven gate-evaluation strategy).
    pub fn new(pipeline: &'n PipelineNetlist) -> Self {
        CoSim::with_strategy(pipeline, SimStrategy::default())
    }

    /// Creates a co-simulator with an explicit gate-evaluation strategy.
    /// Strategies never change the produced activation sets — only how many
    /// gates are (re-)evaluated per cycle (see [`CoSim::gates_evaluated`]).
    pub fn with_strategy(pipeline: &'n PipelineNetlist, strategy: SimStrategy) -> Self {
        let mut window = VecDeque::with_capacity(STAGE_COUNT);
        for _ in 0..STAGE_COUNT {
            window.push_back(None);
        }
        CoSim {
            pipeline,
            sim: Simulator::with_strategy(pipeline.netlist(), strategy),
            banks: None,
            window,
        }
    }

    /// The gate-evaluation strategy in use.
    pub fn strategy(&self) -> SimStrategy {
        self.sim.strategy()
    }

    /// Total combinational gate evaluations performed so far — the work
    /// metric the event-driven strategy reduces.
    pub fn gates_evaluated(&self) -> u64 {
        self.sim.gates_evaluated()
    }

    /// Total compiled-tape ops skipped by the dirty-span bitmap — nonzero
    /// only under [`SimStrategy::Packed`].
    pub fn tape_ops_skipped(&self) -> u64 {
        self.sim.tape_ops_skipped()
    }

    /// Cycles simulated so far.
    pub fn cycles_simulated(&self) -> u64 {
        self.sim.cycle()
    }

    /// Feeds one instruction (or a drain bubble) into IF and advances one
    /// clock cycle, returning the cycle's activation set.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::Netlist`] on bank mismatches (impossible
    /// for pipelines built by `PipelineNetlist::build`).
    pub fn feed(&mut self, r: Option<Retired>) -> Result<terse_netlist::BitSet> {
        cosim_fail_point()?;
        let banks = match self.banks {
            Some(b) => b,
            None => *self.banks.insert(Banks::resolve(self.pipeline)?),
        };
        self.window.pop_back();
        self.window.push_front(r);
        let stages = std::array::from_fn(|s| self.window[s].as_ref());
        force_banks(&banks, stages, &mut self.sim);
        Ok(self.sim.step())
    }

    /// Runs a whole program through the machine and the pipeline netlist,
    /// collecting the activity trace. Feeds `STAGE_COUNT` drain cycles after
    /// the final instruction so every instruction traverses all stages.
    ///
    /// # Errors
    ///
    /// Propagates machine errors and [`crate::SimError::Netlist`].
    pub fn run_program(
        pipeline: &'n PipelineNetlist,
        program: &Program,
        machine: &mut Machine,
        budget: u64,
    ) -> Result<CoSimTrace> {
        CoSim::run_program_with(pipeline, program, machine, budget, SimStrategy::default())
    }

    /// [`CoSim::run_program`] with an explicit gate-evaluation strategy.
    /// The trace is identical for every strategy; only the simulation cost
    /// differs.
    ///
    /// # Errors
    ///
    /// Propagates machine errors and [`crate::SimError::Netlist`].
    pub fn run_program_with(
        pipeline: &'n PipelineNetlist,
        program: &Program,
        machine: &mut Machine,
        budget: u64,
        strategy: SimStrategy,
    ) -> Result<CoSimTrace> {
        let mut cosim = CoSim::with_strategy(pipeline, strategy);
        let mut activity = ActivityTrace::new(pipeline.netlist().gate_count());
        let mut fed = Vec::new();
        let mut retired = Vec::new();
        let mut count = 0u64;
        while !machine.halted() {
            if count >= budget {
                return Err(crate::SimError::InstructionBudgetExhausted { budget });
            }
            let r = machine.step(program)?;
            count += 1;
            fed.push(Some(r.index));
            retired.push(r);
            let act = cosim.feed(Some(r))?;
            activity.push(act);
        }
        for _ in 0..STAGE_COUNT {
            fed.push(None);
            let act = cosim.feed(None)?;
            activity.push(act);
        }
        Ok(CoSimTrace {
            activity,
            fed,
            retired,
        })
    }
}

/// The injected-fault hook of every co-simulation entry point.
fn cosim_fail_point() -> Result<()> {
    failpoints::fail_point!("sim::cosim", |_| Err(crate::SimError::Netlist(
        "injected co-simulation fault".into()
    )));
    Ok(())
}

/// Co-simulates independent retired-instruction streams — each from a
/// flushed pipeline, followed by `STAGE_COUNT` drain cycles — and hands
/// `visit(k, trace)` the trace of stream `k`, in stream order. Streams are
/// pulled from the iterator only as they are simulated. Every
/// trace is bitwise identical to feeding its stream through a fresh
/// [`CoSim`] of any strategy.
///
/// Under [`SimStrategy::Packed`] the streams run 64 at a time, one per
/// lane of a single [`PackedSimulator`]: the tape is compiled once per
/// call, a lane whose stream is shorter than its batch's longest is fed
/// drain bubbles whose cycles are dropped, and at most one batch of
/// traces is alive at a time. The other strategies run the streams one
/// [`CoSim`] at a time, as the reference.
///
/// The work counters go into `stats`: `cycles` counts each stream's own
/// cycles (the same for every strategy), `gates_evaluated` the gate or
/// tape-op evaluations actually performed — under `Packed` one tape op
/// covers all 64 lanes.
///
/// # Errors
///
/// Returns [`crate::SimError::Netlist`] on bank mismatches (impossible
/// for pipelines built by `PipelineNetlist::build`) and the first error
/// `visit` returns.
pub fn run_streams<E: From<crate::SimError>>(
    pipeline: &PipelineNetlist,
    streams: impl IntoIterator<Item = Vec<Retired>>,
    strategy: SimStrategy,
    stats: &mut CosimStats,
    mut visit: impl FnMut(usize, CoSimTrace) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let gates = pipeline.netlist().gate_count();
    if strategy != SimStrategy::Packed {
        for (k, retired) in streams.into_iter().enumerate() {
            let mut cosim = CoSim::with_strategy(pipeline, strategy);
            let mut activity = ActivityTrace::new(gates);
            for r in retired.iter().copied().map(Some).chain([None; STAGE_COUNT]) {
                activity.push(cosim.feed(r)?);
            }
            stats.absorb(&cosim);
            visit(k, CoSimTrace::of_stream(activity, retired))?;
        }
        return Ok(());
    }
    let banks = Banks::resolve(pipeline)?;
    let mut sim = PackedSimulator::new(pipeline.netlist(), LANES);
    let mut streams = streams.into_iter();
    let mut next = 0;
    loop {
        let batch: Vec<Vec<Retired>> = streams.by_ref().take(LANES).collect();
        if batch.is_empty() {
            break;
        }
        cosim_fail_point()?;
        sim.reset(batch.len());
        let lens: Vec<usize> = batch.iter().map(|r| r.len() + STAGE_COUNT).collect();
        let cycles = lens.iter().copied().max().unwrap_or(0);
        let mut activity: Vec<ActivityTrace> =
            lens.iter().map(|_| ActivityTrace::new(gates)).collect();
        for t in 0..cycles {
            let mut alive = 0u64;
            for (lane, retired) in batch.iter().enumerate() {
                // Stage `s` holds the instruction fed `s` cycles ago.
                let stages = std::array::from_fn(|s| t.checked_sub(s).and_then(|k| retired.get(k)));
                force_banks(&banks, stages, &mut Lane(&mut sim, lane));
                if t < lens[lane] {
                    alive |= 1 << lane;
                }
            }
            sim.step();
            for (lane, act) in sim.lane_activations(alive).into_iter().enumerate() {
                if alive >> lane & 1 == 1 {
                    activity[lane].push(act);
                }
            }
        }
        for (retired, activity) in batch.into_iter().zip(activity) {
            stats.cycles += activity.len() as u64;
            visit(next, CoSimTrace::of_stream(activity, retired))?;
            next += 1;
        }
    }
    stats.gates_evaluated += sim.ops_executed();
    stats.tape_ops_skipped += sim.ops_skipped();
    Ok(())
}

/// Aggregated co-simulation work counters, accumulated across many
/// [`CoSim`] instances (model training spins up one per characterized
/// edge). Cheap to copy; sums are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CosimStats {
    /// Netlist clock cycles simulated.
    pub cycles: u64,
    /// Combinational gate (or tape-op) evaluations performed.
    pub gates_evaluated: u64,
    /// Compiled-tape ops skipped by the dirty-span bitmap (nonzero only
    /// under [`SimStrategy::Packed`]).
    pub tape_ops_skipped: u64,
}

impl CosimStats {
    /// Folds a finished co-simulator's counters into the totals.
    pub fn absorb(&mut self, cosim: &CoSim<'_>) {
        self.cycles += cosim.cycles_simulated();
        self.gates_evaluated += cosim.gates_evaluated();
        self.tape_ops_skipped += cosim.tape_ops_skipped();
    }

    /// Sums two counter sets.
    pub fn merge(&mut self, other: CosimStats) {
        self.cycles += other.cycles;
        self.gates_evaluated += other.gates_evaluated;
        self.tape_ops_skipped += other.tape_ops_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::PipelineConfig;

    fn pipeline() -> PipelineNetlist {
        PipelineNetlist::build(PipelineConfig::default()).unwrap()
    }

    #[test]
    fn control_words_distinguish_units() {
        let add = ex_control_word(Opcode::Add);
        let sub = ex_control_word(Opcode::Sub);
        let mul = ex_control_word(Opcode::Mul);
        let srl = ex_control_word(Opcode::Srl);
        assert_eq!(add & 0b10, 0);
        assert_eq!(sub & 0b10, 0b10);
        assert_eq!((mul >> 6) & 0b11, 0b11);
        assert_eq!((srl >> 6) & 0b11, 0b10);
        assert_eq!(srl >> 4 & 1, 1);
        // Immediate selection in ID.
        assert_eq!(id_control_word(Opcode::Addi) & 1, 1);
        assert_eq!(id_control_word(Opcode::Add) & 1, 0);
    }

    #[test]
    fn run_program_produces_full_trace() {
        let p = pipeline();
        let prog = assemble(
            r"
                addi r1, r0, 100
                addi r2, r0, 55
                add  r3, r1, r2
                mul  r4, r1, r2
                halt
        ",
        )
        .unwrap();
        let mut m = Machine::new(&prog, 64);
        let trace = CoSim::run_program(&p, &prog, &mut m, 1000).unwrap();
        assert_eq!(trace.retired.len(), 5);
        assert_eq!(trace.cycles(), 5 + STAGE_COUNT);
        // Instruction k occupies stage s at cycle k+s.
        assert_eq!(trace.cycle_of(2, 3), 5);
        // Activity exists: some gates toggle in EX cycles.
        assert!(trace.activity.mean_activity_factor() > 0.0);
    }

    #[test]
    fn activity_depends_on_operand_values() {
        let p = pipeline();
        // Same instruction sequence, different operand values: the long
        // carry case must activate more adder gates in the EX window.
        let run = |a: i64, b: i64| {
            let prog =
                assemble(&format!("li r1, {a}\nli r2, {b}\nadd r3, r1, r2\nhalt\n")).unwrap();
            let mut m = Machine::new(&prog, 16);
            let trace = CoSim::run_program(&p, &prog, &mut m, 100).unwrap();
            // The add is fed at cycle 4 (after 2×2 li instructions) and is
            // in EX at cycle 4+3.
            trace.activity.cycle(4 + 3).count()
        };
        let long_carry = run(0x0FFF_FFFF, 1);
        let short_carry = run(0, 0);
        assert!(
            long_carry > short_carry,
            "long {long_carry} vs short {short_carry}"
        );
    }

    #[test]
    fn strategies_produce_identical_traces() {
        let p = pipeline();
        let prog = assemble(
            r"
                addi r1, r0, 9
                li   r2, 0x5A5A
            loop:
                add  r3, r3, r2
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let run = |strategy| {
            let mut m = Machine::new(&prog, 64);
            let mut cosim = CoSim::with_strategy(&p, strategy);
            assert_eq!(cosim.strategy(), strategy);
            let mut activity = ActivityTrace::new(p.netlist().gate_count());
            while !m.halted() {
                let r = m.step(&prog).unwrap();
                activity.push(cosim.feed(Some(r)).unwrap());
            }
            for _ in 0..STAGE_COUNT {
                activity.push(cosim.feed(None).unwrap());
            }
            (activity, cosim.gates_evaluated())
        };
        let (full_trace, full_work) = run(SimStrategy::FullScan);
        let (event_trace, event_work) = run(SimStrategy::EventDriven);
        assert_eq!(full_trace, event_trace);
        // The loop repeats state, so delta propagation re-evaluates fewer
        // gates than the exhaustive per-cycle scan.
        assert!(
            event_work < full_work,
            "event {event_work} vs full {full_work}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = pipeline();
        let prog = assemble("addi r1, r0, 42\nadd r2, r1, r1\nhalt\n").unwrap();
        let t1 = {
            let mut m = Machine::new(&prog, 16);
            CoSim::run_program(&p, &prog, &mut m, 100).unwrap()
        };
        let t2 = {
            let mut m = Machine::new(&prog, 16);
            CoSim::run_program(&p, &prog, &mut m, 100).unwrap()
        };
        assert_eq!(t1.activity, t2.activity);
    }
}

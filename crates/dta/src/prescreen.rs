//! Static error-immunity pre-screening of `(instruction, stage)` pairs.
//!
//! The per-instruction error model pays full dynamic timing analysis
//! for every `(instruction, stage)` pair, even when the values that can
//! reach a stage only exercise short paths. This module proves — before
//! the simulator runs — that some pairs can *never* violate the clock
//! period at the operating point, so [`crate::engine::DtsEngine`] can
//! skip them.
//!
//! # The certificate
//!
//! Every gate delay in the variation model is Gaussian with standard
//! deviation `σ_rel · nominal` ([`VariationConfig::sigma_rel`]), and
//! correlations never exceed 1, so the delay of any path `p` has
//! `sd(p) ≤ σ_rel · nominal(p)`. If `A` upper-bounds the nominal data
//! arrival of every *activatable* path into an endpoint, then every
//! activated-path slack at clock period `T` satisfies
//!
//! ```text
//! mean(slack) = T − nominal(p) ≥ T − A
//! sd(slack)   ≤ σ_rel · nominal(p) ≤ σ_rel · A
//! ```
//!
//! so `(1 + k·σ_rel) · A ≤ T` certifies `mean(slack) ≥ k · sd(slack)`
//! for every such path — a `k`-sigma guarantee that the endpoint cannot
//! violate the clock (default `k = 8`, i.e. a one-sided tail below
//! `10⁻¹⁵`). An endpoint with `A = −∞` (no transition can ever reach
//! it) is immune unconditionally.
//!
//! The arrival bound `A` comes from [`Sta::masked_arrival`] under a
//! sound three-valued abstraction of the values the co-simulation can
//! drive ([`terse_netlist::consts`]), at three nested precision levels:
//!
//! 1. **Unconditional** — no value assumptions beyond the netlist's own
//!    `Tie` constants. Sound for every trace, including the synthetic
//!    datapath-training streams.
//! 2. **Program** — value sets mirroring what
//!    `terse_sim::cosim`'s `force_banks` can force when the driven
//!    streams come from *this* program: instruction encodings, decoded
//!    control words, immediates, and interval-analysis value hulls for
//!    the operand buses (from `terse-analyze`'s dataflow framework).
//!    Program-counter banks are pinned to their arithmetic bound
//!    (`4·(len + stages + 1)`): forced PC values are `index·4`, and
//!    unforced IF cycles occur only during the trailing drain, each
//!    advancing the PC by 4 — a bound the bit-level abstraction cannot
//!    derive itself because of abstract carry ripple.
//! 3. **Per-instruction (EX)** — for an instruction with known stream
//!    predecessors, the EX input banks across the two relevant cycles
//!    are confined to the known bits of both instructions' operand
//!    intervals and exact EX control words; a single combinational
//!    re-evaluation then masks e.g. the whole multiplier for an
//!    `add`/`add` pair.
//!
//! Levels 2–3 require [`call_return_discipline`] (otherwise the
//! interval facts flowing through indirect jumps are not proofs) and
//! apply only to traces tagged with a program index
//! ([`crate::engine::DtsEngine::inst_dts_for`]); untagged traces use
//! level 1 alone.
//!
//! Pruned stages are *excluded* from the instruction-DTS statistical
//! min in both [`PrescreenMode::Prune`] and [`PrescreenMode::Oracle`],
//! so the two modes produce bitwise-identical results while Oracle
//! still computes every pruned pair and asserts its immunity.

use crate::engine::EndpointFilter;
use crate::{DtaError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use terse_analyze::dataflow::{
    augmented_edges, call_return_discipline, operand_bounds, reachable_blocks, Interval,
};
use terse_isa::{Cfg, Program};
use terse_netlist::{eval_with, stable_values_with, EndpointClass, Netlist, Tri, ValueConstraints};
use terse_sim::cosim::{ex_control_word, id_control_word, me_control_word, wb_control_word};
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::variation::VariationConfig;

/// The EX stage index in the reference pipeline (IF=0, ID=1, RA=2,
/// EX=3, ME=4, WB=5) — the only stage with per-instruction refinement.
pub const EX_STAGE: usize = 3;

/// How the engine consults a [`PrunePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrescreenMode {
    /// No pre-screening: every pair is computed (exact current
    /// behavior).
    #[default]
    Off,
    /// Skip proven-immune pairs.
    Prune,
    /// Compute proven-immune pairs anyway, assert their immunity
    /// empirically, then exclude them exactly as `Prune` does — the
    /// soundness oracle. Bitwise-identical results to `Prune`.
    Oracle,
}

/// Pre-screen knobs.
#[derive(Debug, Clone, Copy)]
pub struct PrescreenConfig {
    /// Mode the resulting plan runs in.
    pub mode: PrescreenMode,
    /// Certificate margin in gate-delay sigmas.
    pub k_sigma: f64,
}

impl Default for PrescreenConfig {
    fn default() -> Self {
        PrescreenConfig {
            mode: PrescreenMode::Off,
            k_sigma: 8.0,
        }
    }
}

impl PrescreenConfig {
    /// A plan-building config for the given mode at the default margin.
    pub fn with_mode(mode: PrescreenMode) -> Self {
        PrescreenConfig {
            mode,
            ..PrescreenConfig::default()
        }
    }
}

/// Pair counters observed while a plan was consulted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrescreenStats {
    /// `(instruction, stage)` pairs the plan was consulted for.
    pub pairs_total: u64,
    /// Pairs proven immune (skipped in `Prune`, asserted in `Oracle`).
    pub pairs_pruned: u64,
}

impl PrescreenStats {
    /// Fraction of pairs pruned (0 when nothing was consulted).
    pub fn ratio(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            // terse-analyze: allow(AZ005): u64→f64 for a ratio readout.
            self.pairs_pruned as f64 / self.pairs_total as f64
        }
    }
}

/// Filter slots: All / Control / Data.
fn slot(filter: EndpointFilter) -> usize {
    match filter {
        EndpointFilter::All => 0,
        EndpointFilter::Control => 1,
        EndpointFilter::Data => 2,
    }
}

/// A static immunity proof set for one (netlist, program, operating
/// point) triple, consumed by the engine's Algorithm 2 loop.
#[derive(Debug)]
pub struct PrunePlan {
    mode: PrescreenMode,
    k_sigma: f64,
    t_clk: f64,
    /// Per stage × filter: immune with no value assumptions.
    base_uncond: Vec<[bool; 3]>,
    /// Per stage × filter: immune for program-derived streams.
    base_program: Vec<[bool; 3]>,
    /// Per program instruction × filter: EX-stage refinement.
    per_inst: Vec<[bool; 3]>,
    pairs_total: AtomicU64,
    pairs_pruned: AtomicU64,
}

impl PrunePlan {
    /// The mode the plan was built for.
    pub fn mode(&self) -> PrescreenMode {
        self.mode
    }

    /// The certificate margin in sigmas.
    pub fn k_sigma(&self) -> f64 {
        self.k_sigma
    }

    /// The clock period the certificates were proven at.
    pub fn t_clk(&self) -> f64 {
        self.t_clk
    }

    /// Whether the certificates carry over to an engine clocked at
    /// `t_clk`: immunity at a period extends to any slower clock.
    pub fn applies_at(&self, t_clk: f64) -> bool {
        t_clk >= self.t_clk
    }

    /// Whether the pair `(program_index, stage)` is proven immune for
    /// the endpoint class selection `filter`. `program_index` is `None`
    /// for traces not derived from the plan's program (synthetic
    /// datapath training), which restricts the proof to the
    /// unconditional level.
    pub fn immune(&self, stage: usize, filter: EndpointFilter, program_index: Option<u32>) -> bool {
        let f = slot(filter);
        if self.base_uncond.get(stage).is_some_and(|m| m[f]) {
            return true;
        }
        let Some(idx) = program_index else {
            return false;
        };
        if self.base_program.get(stage).is_some_and(|m| m[f]) {
            return true;
        }
        stage == EX_STAGE && self.per_inst.get(idx as usize).is_some_and(|m| m[f])
    }

    /// Records one consulted pair.
    pub fn record(&self, pruned: bool) {
        self.pairs_total.fetch_add(1, Ordering::Relaxed);
        if pruned {
            self.pairs_pruned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrescreenStats {
        PrescreenStats {
            pairs_total: self.pairs_total.load(Ordering::Relaxed),
            pairs_pruned: self.pairs_pruned.load(Ordering::Relaxed),
        }
    }

    /// Stage indices unconditionally immune for `filter` (diagnostics).
    pub fn immune_stages(&self, filter: EndpointFilter) -> Vec<usize> {
        (0..self.base_uncond.len())
            .filter(|&s| self.base_uncond[s][slot(filter)])
            .collect()
    }
}

/// The flip-flop banks `terse_sim::cosim`'s `force_banks` forces from
/// architectural state. These must never default to "never forced" in
/// the abstraction — an absent entry would let the fixpoint claim
/// reset-zero stability for a bank the testbench actually drives.
const FORCED_FF_BANKS: &[&str] = &[
    "b0.pc",
    "b1.instr",
    "b1.pc",
    "b2.rs1",
    "b2.rs2",
    "b2.rd",
    "b2.imm",
    "b2.op_ctl",
    "b2.pc",
    "b3.op_a",
    "b3.op_b",
    "b3.store",
    "b3.ex_ctl",
    "b4.alu",
    "b4.addr",
    "b4.store",
    "b4.mctl",
    "b5.wb",
    "b5.wctl",
];

/// Sets `cover` for every bit of a named bus from a little-endian
/// constant/varying bit mask: mask bit 1 → may vary, 0 → constant zero.
fn cover_or_mask(c: &mut ValueConstraints, netlist: &Netlist, name: &str, mask: u64) {
    if let Ok(bus) = netlist.bus(name) {
        for (j, g) in bus.iter().enumerate() {
            let varies = j < 64 && (mask >> j) & 1 == 1;
            c.cover[g.index()] = Some(if varies { Tri::Unknown } else { Tri::Zero });
        }
    }
}

/// The per-bit abstraction of an interval: bits shared by every value
/// in the range are constants, the rest vary.
fn interval_tri(iv: Interval, bit: usize) -> Tri {
    if bit >= 32 {
        return Tri::Zero; // values are u32; wider buses are zero-padded
    }
    let (mask, value) = iv.known_bits();
    if (mask >> bit) & 1 == 1 {
        Tri::of((value >> bit) & 1 == 1)
    } else {
        Tri::Unknown
    }
}

/// Sets `cover` for a named bus from an interval's known bits.
fn cover_interval(c: &mut ValueConstraints, netlist: &Netlist, name: &str, iv: Interval) {
    if let Ok(bus) = netlist.bus(name) {
        for (j, g) in bus.iter().enumerate() {
            c.cover[g.index()] = Some(interval_tri(iv, j));
        }
    }
}

/// Pins a named bus to "value < 2^bits": low bits vary, high bits are
/// asserted constant zero on every cycle (caller-proven invariant).
fn pin_upper_zero(c: &mut ValueConstraints, netlist: &Netlist, name: &str, bits: usize) {
    if let Ok(bus) = netlist.bus(name) {
        for (j, g) in bus.iter().enumerate() {
            c.pinned[g.index()] = Some(if j < bits { Tri::Unknown } else { Tri::Zero });
        }
    }
}

/// Overrides `assumptions` for a named bus with per-bit tris produced
/// by `tri(bit)`.
fn override_bus(
    assumptions: &mut [Tri],
    netlist: &Netlist,
    name: &str,
    tri: impl Fn(usize) -> Tri,
) {
    if let Ok(bus) = netlist.bus(name) {
        for (j, g) in bus.iter().enumerate() {
            assumptions[g.index()] = tri(j);
        }
    }
}

/// Per-stage × per-filter certificate evaluation: a slot is immune iff
/// *every* admitted endpoint of the stage satisfies the scaled arrival
/// bound (vacuously immune when the stage has no such endpoint).
fn certify(
    sta: &Sta<'_>,
    netlist: &Netlist,
    vals: &[Tri],
    factor: f64,
    t_clk: f64,
) -> Result<Vec<[bool; 3]>> {
    let arr = sta.masked_arrival(vals);
    let mut out = Vec::with_capacity(netlist.stage_count());
    for s in 0..netlist.stage_count() {
        let mut ok = [true; 3];
        let endpoints = netlist
            .endpoints(s)
            .map_err(|e| DtaError::Sim(e.to_string()))?;
        for &e in endpoints {
            let class = netlist.endpoint_class(e).ok_or_else(|| {
                DtaError::Sim(format!("stage endpoint {} is not a flip-flop", e.index()))
            })?;
            let a = sta.masked_endpoint_arrival(e, &arr)?;
            if a == f64::NEG_INFINITY || factor * a <= t_clk {
                continue;
            }
            ok[0] = false;
            match class {
                EndpointClass::Control => ok[1] = false,
                EndpointClass::Data => ok[2] = false,
            }
        }
        out.push(ok);
    }
    Ok(out)
}

/// The stream predecessors an instruction can have in the EX pairing:
/// the previous instruction of its block, or — for a block leader —
/// the terminator of every (augmented) CFG predecessor block. `None`
/// means the pairing can include a pipeline bubble with uncontrolled
/// captured values (program entry), which defeats refinement.
fn stream_preds(program: &Program, cfg: &Cfg) -> Vec<Option<Vec<usize>>> {
    let insts = program.instructions();
    let mut out: Vec<Option<Vec<usize>>> = vec![None; insts.len()];
    if insts.is_empty() {
        return out;
    }
    let (_, preds) = augmented_edges(program, cfg);
    let entry = cfg.block_containing(0).index();
    for (bidx, blk) in cfg.blocks().iter().enumerate() {
        if blk.end as usize > insts.len() {
            continue;
        }
        for i in blk.range() {
            if i > blk.start as usize {
                out[i] = Some(vec![i - 1]);
            } else if bidx != entry {
                let terms: Vec<usize> = preds
                    .get(bidx)
                    .into_iter()
                    .flatten()
                    .filter_map(|&p| {
                        let pb = &cfg.blocks()[p];
                        (!pb.is_empty() && pb.end as usize <= insts.len())
                            .then(|| pb.end as usize - 1)
                    })
                    .collect();
                if !terms.is_empty() {
                    out[i] = Some(terms);
                }
            }
            // The entry-block leader keeps None: it is characterized
            // behind a bubble whose EX banks hold captured values.
        }
    }
    out
}

/// Builds a [`PrunePlan`] for a pipeline netlist, a program, and an
/// operating point.
///
/// The plan's program-conditional levels assume characterization
/// streams built from this program with operand hints drawn from real
/// executions (profile observations), which the interval facts
/// over-approximate. Traces not satisfying that contract must be
/// analyzed with `program_index = None`.
///
/// # Errors
///
/// Rejects non-positive `t_clk`/`k_sigma` and propagates netlist/STA
/// errors.
pub fn build_plan(
    netlist: &Netlist,
    lib: &DelayLibrary,
    variation: &VariationConfig,
    t_clk: f64,
    program: &Program,
    cfg: &Cfg,
    config: PrescreenConfig,
) -> Result<PrunePlan> {
    if !(t_clk > 0.0) {
        return Err(DtaError::InvalidParameter {
            name: "t_clk",
            value: t_clk,
        });
    }
    if !(config.k_sigma > 0.0) {
        return Err(DtaError::InvalidParameter {
            name: "k_sigma",
            value: config.k_sigma,
        });
    }
    let sta = Sta::new(netlist, lib);
    let factor = 1.0 + config.k_sigma * variation.sigma_rel;
    let n_gates = netlist.gate_count();
    let insts = program.instructions();

    // Level 1: no value assumptions. Forced banks are explicitly
    // unknown; everything else defaults (inputs unknown, unforced
    // flip-flops iterate reset + capture).
    let mut c_uncond = ValueConstraints::new(n_gates);
    for name in FORCED_FF_BANKS {
        if let Ok(bus) = netlist.bus(name) {
            for g in bus {
                c_uncond.cover[g.index()] = Some(Tri::Unknown);
            }
        }
    }
    let base_uncond = certify(
        &sta,
        netlist,
        &stable_values_with(netlist, &c_uncond),
        factor,
        t_clk,
    )?;

    let program_ok = !insts.is_empty() && call_return_discipline(program);
    let mut base_program = base_uncond.clone();
    let mut per_inst = vec![[false; 3]; insts.len()];

    if program_ok && config.mode != PrescreenMode::Off {
        let reachable = reachable_blocks(program, cfg);
        let bounds = operand_bounds(program, cfg);
        // Aggregate program facts over reachable instructions only.
        let mut enc_or = 0u64;
        let (mut rs1_or, mut rs2_or, mut rd_or, mut imm_or) = (0u64, 0u64, 0u64, 0u64);
        let (mut idc_or, mut exc_or, mut mec_or, mut wbc_or) = (0u64, 0u64, 0u64, 0u64);
        // Value hulls include 0: registers reset to zero and undriven
        // banks default to zero.
        let mut hull_a = Interval::point(0);
        let mut hull_b = Interval::point(0);
        let mut hull_s = Interval::point(0);
        let mut reachable_inst = vec![false; insts.len()];
        for (bidx, blk) in cfg.blocks().iter().enumerate() {
            if !reachable.get(bidx).copied().unwrap_or(false) || blk.end as usize > insts.len() {
                continue;
            }
            for i in blk.range() {
                reachable_inst[i] = true;
                let inst = &insts[i];
                enc_or |= inst.encode().map(u64::from).unwrap_or(u64::MAX);
                rs1_or |= u64::from(inst.rs1);
                rs2_or |= u64::from(inst.rs2);
                rd_or |= u64::from(inst.rd);
                imm_or |= u64::from(inst.imm.cast_unsigned());
                idc_or |= id_control_word(inst.opcode);
                exc_or |= ex_control_word(inst.opcode);
                mec_or |= me_control_word(inst.opcode);
                wbc_or |= wb_control_word(inst.opcode);
                hull_a = hull_a.join(bounds[i].a);
                hull_b = hull_b.join(bounds[i].b);
                hull_s = hull_s.join(bounds[i].s);
            }
        }

        let mut c_prog = c_uncond.clone();
        cover_or_mask(&mut c_prog, netlist, "imem.instr", enc_or);
        cover_or_mask(&mut c_prog, netlist, "b1.instr", enc_or);
        cover_or_mask(&mut c_prog, netlist, "b2.rs1", rs1_or);
        cover_or_mask(&mut c_prog, netlist, "b2.rs2", rs2_or);
        cover_or_mask(&mut c_prog, netlist, "b2.rd", rd_or);
        cover_or_mask(&mut c_prog, netlist, "fwd.ex_rd", rd_or);
        cover_or_mask(&mut c_prog, netlist, "fwd.me_rd", rd_or);
        cover_or_mask(&mut c_prog, netlist, "b2.imm", imm_or);
        cover_or_mask(&mut c_prog, netlist, "b2.op_ctl", idc_or);
        cover_or_mask(&mut c_prog, netlist, "b3.ex_ctl", exc_or);
        cover_or_mask(&mut c_prog, netlist, "b4.mctl", mec_or);
        cover_or_mask(&mut c_prog, netlist, "b5.wctl", wbc_or);
        cover_interval(&mut c_prog, netlist, "b3.op_a", hull_a);
        cover_interval(&mut c_prog, netlist, "b3.op_b", hull_b);
        cover_interval(&mut c_prog, netlist, "b3.store", hull_s);
        cover_interval(&mut c_prog, netlist, "rf.rs1_data", hull_a);
        cover_interval(&mut c_prog, netlist, "rf.rs2_data", hull_s);
        // Program-counter banks: forced values are `index·4 < 4·len`,
        // and unforced IF cycles occur only during the ≤ stage_count
        // trailing drain cycles of a run, each advancing the PC by 4
        // (see module docs). The bit-level fixpoint cannot carry this
        // bound through the incrementer, so it is pinned.
        let pc_bound = 4 * (insts.len() as u64 + netlist.stage_count() as u64 + 1);
        let pc_bits = (u64::BITS - pc_bound.leading_zeros()) as usize;
        pin_upper_zero(&mut c_prog, netlist, "b0.pc", pc_bits);
        pin_upper_zero(&mut c_prog, netlist, "b1.pc", pc_bits);
        pin_upper_zero(&mut c_prog, netlist, "b2.pc", pc_bits);
        pin_upper_zero(&mut c_prog, netlist, "redirect.target", pc_bits);

        let vals_prog = stable_values_with(netlist, &c_prog);
        base_program = certify(&sta, netlist, &vals_prog, factor, t_clk)?;

        // Level 3: per-instruction EX refinement. Skip when the whole
        // EX stage is already immune at level 2.
        let ex_done = base_program
            .get(EX_STAGE)
            .is_some_and(|m| m[0] && m[1] && m[2]);
        if EX_STAGE < netlist.stage_count() && !ex_done {
            let preds = stream_preds(program, cfg);
            for i in 0..insts.len() {
                if !reachable_inst[i] {
                    continue;
                }
                let Some(pred_list) = &preds[i] else { continue };
                let pair: Vec<usize> = std::iter::once(i)
                    .chain(pred_list.iter().copied())
                    .collect();
                let join_iv = |pick: &dyn Fn(usize) -> Interval, bit: usize| -> Tri {
                    let mut t: Option<Tri> = None;
                    for &k in &pair {
                        let next = interval_tri(pick(k), bit);
                        t = Some(t.map_or(next, |t| t.join(next)));
                    }
                    t.unwrap_or(Tri::Unknown)
                };
                let join_word = |word: &dyn Fn(usize) -> u64, bit: usize| -> Tri {
                    let mut t: Option<Tri> = None;
                    for &k in &pair {
                        let next = Tri::of(bit < 64 && (word(k) >> bit) & 1 == 1);
                        t = Some(t.map_or(next, |t| t.join(next)));
                    }
                    t.unwrap_or(Tri::Unknown)
                };
                let mut assumptions = vals_prog.clone();
                override_bus(&mut assumptions, netlist, "b3.op_a", |j| {
                    join_iv(&|k| bounds[k].a, j)
                });
                override_bus(&mut assumptions, netlist, "b3.op_b", |j| {
                    join_iv(&|k| bounds[k].b, j)
                });
                override_bus(&mut assumptions, netlist, "b3.store", |j| {
                    join_iv(&|k| bounds[k].s, j)
                });
                override_bus(&mut assumptions, netlist, "b3.ex_ctl", |j| {
                    join_word(&|k| ex_control_word(insts[k].opcode), j)
                });
                let vals_pair = eval_with(netlist, &assumptions);
                let cert = certify(&sta, netlist, &vals_pair, factor, t_clk)?;
                if let Some(m) = cert.get(EX_STAGE) {
                    per_inst[i] = *m;
                }
            }
        }
    }

    Ok(PrunePlan {
        mode: config.mode,
        k_sigma: config.k_sigma,
        t_clk,
        base_uncond,
        base_program,
        per_inst,
        pairs_total: AtomicU64::new(0),
        pairs_pruned: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};

    fn setup() -> (PipelineNetlist, Program, Cfg) {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let prog = assemble(
            r"
                addi r1, r0, 4
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&prog);
        (p, prog, cfg)
    }

    #[test]
    fn plan_levels_are_nested() {
        let (p, prog, cfg) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let t = sta.min_period() / 1.15;
        let plan = build_plan(
            p.netlist(),
            &lib,
            &VariationConfig::default(),
            t,
            &prog,
            &cfg,
            PrescreenConfig::with_mode(PrescreenMode::Prune),
        )
        .unwrap();
        // Anything immune unconditionally stays immune with program
        // facts (the abstraction only tightens).
        for s in 0..p.netlist().stage_count() {
            for f in [
                EndpointFilter::All,
                EndpointFilter::Control,
                EndpointFilter::Data,
            ] {
                if plan.immune(s, f, None) {
                    assert!(plan.immune(s, f, Some(0)), "stage {s} {f:?}");
                }
            }
        }
        // All-filter immunity implies both class filters.
        for s in 0..p.netlist().stage_count() {
            if plan.immune(s, EndpointFilter::All, Some(1)) {
                assert!(plan.immune(s, EndpointFilter::Control, Some(1)));
                assert!(plan.immune(s, EndpointFilter::Data, Some(1)));
            }
        }
    }

    #[test]
    fn relaxed_clock_proves_everything_overclocked_does_not_prove_ex() {
        let (p, prog, cfg) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let cfg_pre = PrescreenConfig::with_mode(PrescreenMode::Prune);
        // At 2× the sign-off period every stage satisfies the
        // certificate with the default 8-sigma margin.
        let relaxed = build_plan(
            p.netlist(),
            &lib,
            &VariationConfig::default(),
            sta.min_period() * 2.0,
            &prog,
            &cfg,
            cfg_pre,
        )
        .unwrap();
        for s in 0..p.netlist().stage_count() {
            assert!(
                relaxed.immune(s, EndpointFilter::All, Some(0)),
                "stage {s} at relaxed clock"
            );
        }
        // Overclocked beyond sign-off, the critical stage cannot be
        // proven immune (its nominal arrival alone exceeds the period).
        let tight = build_plan(
            p.netlist(),
            &lib,
            &VariationConfig::default(),
            sta.min_period() / 1.15,
            &prog,
            &cfg,
            cfg_pre,
        )
        .unwrap();
        let crit = sta.critical_stage();
        assert!(!tight.immune(crit, EndpointFilter::All, Some(0)));
        assert!(tight.applies_at(sta.min_period()));
        assert!(!tight.applies_at(sta.min_period() / 2.0));
    }

    #[test]
    fn counters_accumulate() {
        let (p, prog, cfg) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let plan = build_plan(
            p.netlist(),
            &lib,
            &VariationConfig::default(),
            100.0,
            &prog,
            &cfg,
            PrescreenConfig::with_mode(PrescreenMode::Oracle),
        )
        .unwrap();
        plan.record(true);
        plan.record(false);
        plan.record(true);
        let s = plan.stats();
        assert_eq!((s.pairs_total, s.pairs_pruned), (3, 2));
        assert!((s.ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(plan.mode(), PrescreenMode::Oracle);
    }

    #[test]
    fn rejects_bad_parameters() {
        let (p, prog, cfg) = setup();
        let lib = DelayLibrary::normalized_45nm();
        let v = VariationConfig::default();
        assert!(build_plan(
            p.netlist(),
            &lib,
            &v,
            -1.0,
            &prog,
            &cfg,
            PrescreenConfig::default()
        )
        .is_err());
        let bad = PrescreenConfig {
            mode: PrescreenMode::Prune,
            k_sigma: 0.0,
        };
        assert!(build_plan(p.netlist(), &lib, &v, 100.0, &prog, &cfg, bad).is_err());
    }
}

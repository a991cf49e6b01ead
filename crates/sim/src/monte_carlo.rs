//! Monte Carlo error-injection baseline.
//!
//! The paper *cannot* verify its Poisson/Normal approximations by Monte
//! Carlo ("our baseline simulator is too slow to handle large input
//! datasets") and falls back on Stein-method bounds. Our simulator is fast
//! enough on scaled-down programs, so this module provides the ground
//! truth the analytic estimator is validated against in tests and in the
//! `ablation_mc` experiment: sample manufactured chips × program inputs,
//! execute, draw per-instruction timing errors from the instruction error
//! model, apply the correction scheme's dynamic effect, and count.

//! # Parallel execution & determinism
//!
//! The `(chip, input)` grid is embarrassingly parallel, so both entry points
//! fan out over it with `rayon`. Each cell draws its Bernoulli variates from
//! a private counter-based RNG stream derived from `(cfg.seed, chip index,
//! input index)` via [`Xoshiro256::seed_stream`], so the count matrix is
//! **bitwise identical for every thread count** (including 1) and for
//! repeated runs — the schedule never touches the random stream. The
//! thread count is whatever `rayon` pool is installed by the caller
//! (`FrameworkBuilder::threads` upstream, or the machine default).
//!
//! # Bit-parallel lane groups
//!
//! On top of the thread-level fan-out, [`error_counts`] batches the chip
//! axis into **lane groups** of [`LANE_GROUP`] = 64 chips evaluated by a
//! single program execution. This is exact, not approximate, because a
//! timing-error draw never feeds back into architectural state: the
//! [`Machine`] trajectory, and hence the retired-instruction sequence, is
//! identical in every lane. Only two per-instruction states can differ
//! between lanes — whether the *previous* instruction erred (bus flushed by
//! the correction scheme) or not (bus advanced normally) — so one machine
//! step serves all 64 lanes with one feature extraction (plus a toggle-only
//! [`InstFeatures::rebased`] copy for lanes whose previous instruction
//! erred), one batched per-chip probability evaluation
//! ([`InstErrorModel::error_probabilities_batch`], memoized per recurring
//! feature vector), and one Bernoulli draw per lane from that lane's own
//! `(cfg.seed, chip, input)` stream. Lane `l` of group `g` draws exactly
//! the sequence chip `64·g + l` would draw in a scalar run, so the count
//! matrix stays bitwise identical to [`error_counts_scalar`] at any thread
//! count, any lane occupancy (ragged final group included), and across
//! checkpoint resumes that cut through a lane group.

use crate::correction::CorrectionScheme;
use crate::features::{extract, BusState, InstFeatures};
use crate::machine::Machine;
use crate::Result;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::rc::Rc;
use terse_isa::Program;
use terse_netlist::packed::lane_mask;
use terse_sta::variation::ChipSample;
use terse_stats::rng::Xoshiro256;

/// Chips evaluated per packed lane group (one program execution serves one
/// group; see the module docs).
pub const LANE_GROUP: usize = terse_netlist::packed::LANES;

/// An instruction error model queried by the Monte Carlo engine.
///
/// Implemented by the DTA crate's trained model; the probability is
/// conditional on the manufactured chip (shared process-variation draw) and
/// on the previous-instruction state (encoded in the features' toggle
/// components).
pub trait InstErrorModel {
    /// Probability that the dynamic instance of static instruction `index`
    /// (previously retired instruction `prev_index`, if any) with these
    /// features fails on this chip.
    fn error_probability(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
        chip: &ChipSample,
    ) -> f64;

    /// Probability with process variation marginalized out per instruction
    /// — the independence treatment the paper's analytic pipeline uses
    /// (each indicator is Bernoulli with the *unconditional* probability,
    /// ignoring that one chip's variation draw is shared by every
    /// instruction it executes).
    fn marginal_probability(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
    ) -> f64;

    /// [`InstErrorModel::error_probability`] for a whole lane group of
    /// chips at once, written into `out` (cleared first, then one entry per
    /// chip in order). The default delegates chip by chip; models whose
    /// per-instance work is dominated by a chip-independent part (slack-RV
    /// assembly in the trained model) override this to hoist that part out
    /// of the chip loop. Implementations **must** produce bitwise the same
    /// `f64`s as per-chip [`InstErrorModel::error_probability`] calls — the
    /// packed Monte Carlo grid's equivalence to the scalar grid depends on
    /// it.
    fn error_probabilities_batch(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
        chips: &[ChipSample],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(
            chips
                .iter()
                .map(|c| self.error_probability(prev_index, index, features, c)),
        );
    }
}

/// Configuration of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Dynamic instruction budget per execution.
    pub budget: u64,
    /// Data memory words.
    pub dmem_words: usize,
    /// Bernoulli-draw seed.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            budget: 10_000_000,
            dmem_words: 1 << 16,
            seed: 0x4D43, // "MC"
        }
    }
}

/// Encodes a grid cell as an RNG stream index (chip-major, stable across
/// grid shapes that share a chip count).
fn cell_stream(chip: usize, input: usize) -> u64 {
    ((chip as u64) << 32) | input as u64
}

/// Executes the program once, drawing per-instruction error indicators from
/// `prob` with `rng` — the inner loop shared by both grid variants.
fn run_cell<F, P>(
    program: &Program,
    cfg: MonteCarloConfig,
    scheme: CorrectionScheme,
    input: usize,
    init: &F,
    rng: &mut Xoshiro256,
    prob: P,
) -> Result<u64>
where
    F: Fn(usize, &mut Machine),
    P: Fn(Option<u32>, u32, &InstFeatures) -> f64,
{
    failpoints::fail_point!("sim::mc_cell", |_| Err(
        crate::SimError::InstructionBudgetExhausted { budget: 0 }
    ));
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    let mut errors = 0u64;
    // Program starts from a flushed processor state (the paper's
    // `p^in = 1` convention).
    let mut bus = BusState::flushed();
    let mut executed = 0u64;
    let mut prev_index: Option<u32> = None;
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(crate::SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        let f = extract(&r, bus);
        let p = prob(prev_index, r.index, &f);
        prev_index = Some(r.index);
        if rng.next_f64() < p {
            errors += 1;
            bus = scheme.post_error_bus_state();
        } else {
            bus.advance(&r);
        }
    }
    Ok(errors)
}

/// Per-group probability memo: `(prev retired index, retired index,
/// features)` → the batched per-chip error probabilities for that triple.
type ProbMemo = HashMap<(Option<u32>, u32, InstFeatures), Rc<[f64]>>;

/// Memoized batched probability lookup: recurring `(prev, index, features)`
/// triples (loop bodies) hit the cache and skip the model entirely. Exact —
/// the cached `f64`s are the model's own outputs.
fn batch_probs<M: InstErrorModel>(
    memo: &mut ProbMemo,
    model: &M,
    prev: Option<u32>,
    index: u32,
    f: InstFeatures,
    chips: &[ChipSample],
) -> Rc<[f64]> {
    if let Some(p) = memo.get(&(prev, index, f)) {
        return Rc::clone(p);
    }
    // Bound the memo so adversarial feature churn cannot grow it without
    // limit; dropping entries only costs recomputation, never exactness.
    if memo.len() >= 1 << 16 {
        memo.clear();
    }
    let mut out = Vec::with_capacity(chips.len());
    model.error_probabilities_batch(prev, index, &f, chips, &mut out);
    let rc: Rc<[f64]> = out.into();
    memo.insert((prev, index, f), Rc::clone(&rc));
    rc
}

/// Executes the program once for a whole lane group: up to [`LANE_GROUP`]
/// chips (`group_chips`, chip indices `chip_base..`) share one machine
/// trajectory; `live` selects the lanes actually computed (bit `l` = chip
/// `chip_base + l`). Returns per-lane error counts (entries of dead lanes
/// are zero).
///
/// Bitwise-exact replay of [`run_cell`] per lane: each live lane draws once
/// per retired instruction from its own `(cfg.seed, chip, input)` stream,
/// and its features differ from the shared bus state only through the
/// did-the-previous-instruction-err bit (see the module docs).
#[allow(clippy::too_many_arguments)]
fn run_lane_group<M, F>(
    program: &Program,
    cfg: MonteCarloConfig,
    scheme: CorrectionScheme,
    input: usize,
    init: &F,
    model: &M,
    group_chips: &[ChipSample],
    chip_base: usize,
    live: u64,
) -> Result<Vec<u64>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    failpoints::fail_point!("sim::mc_cell", |_| Err(
        crate::SimError::InstructionBudgetExhausted { budget: 0 }
    ));
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    let mut rngs: Vec<(usize, Xoshiro256)> = (0..group_chips.len())
        .filter(|&l| live >> l & 1 == 1)
        .map(|l| {
            (
                l,
                Xoshiro256::seed_stream(cfg.seed, cell_stream(chip_base + l, input)),
            )
        })
        .collect();
    let mut errors = vec![0u64; group_chips.len()];
    let mut memo = ProbMemo::new();
    // Every lane starts from the flushed processor state (`p^in = 1`).
    let mut bus = BusState::flushed();
    // The bus state a correction event leaves behind — per-scheme constant,
    // so the lanes' bus states form a two-point set at every instruction:
    // `bus.advance` is memoryless in the prior state, hence non-erred lanes
    // all share `advance(r_prev)` and erred lanes all share this one.
    let err_bus = scheme.post_error_bus_state();
    // Lanes whose previous instruction erred: their feature toggles are
    // measured against the post-correction bus instead.
    let mut err_mask = 0u64;
    let mut executed = 0u64;
    let mut prev_index: Option<u32> = None;
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(crate::SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        let f_n = extract(&r, bus);
        let p_n = batch_probs(&mut memo, model, prev_index, r.index, f_n, group_chips);
        let p_e = if err_mask != 0 {
            let f_e = f_n.rebased(&r, err_bus);
            if f_e == f_n {
                Rc::clone(&p_n)
            } else {
                batch_probs(&mut memo, model, prev_index, r.index, f_e, group_chips)
            }
        } else {
            Rc::clone(&p_n)
        };
        let mut new_mask = 0u64;
        for (l, rng) in &mut rngs {
            let p = if err_mask >> *l & 1 == 1 {
                p_e[*l]
            } else {
                p_n[*l]
            };
            if rng.next_f64() < p {
                new_mask |= 1 << *l;
                errors[*l] += 1;
            }
        }
        err_mask = new_mask;
        prev_index = Some(r.index);
        bus.advance(&r);
    }
    Ok(errors)
}

/// Mean live-lane occupancy of the packed grid for a given chip count: 1.0
/// when `chips` is a multiple of [`LANE_GROUP`], lower when the final
/// ragged group leaves lanes idle.
pub fn lane_occupancy(chips: usize) -> f64 {
    if chips == 0 {
        1.0
    } else {
        chips as f64 / (chips.div_ceil(LANE_GROUP) * LANE_GROUP) as f64
    }
}

/// Runs the program once per `(lane group, input)` pair — in parallel
/// across that coarser grid, 64 chips per group evaluated bit-parallel by a
/// single execution — and returns the error count matrix
/// `counts[chip][input]`, bitwise identical to [`error_counts_scalar`] (see
/// the module docs for why the lane packing is exact).
///
/// `init(input_index, machine)` prepares the input dataset; it must be
/// callable concurrently (`Fn + Sync`), which every pure dataset writer is.
/// Cell `(c, i)` draws from the RNG stream `(cfg.seed, c, i)`, so the result
/// is bitwise identical regardless of thread count (see the module docs).
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing lane group wins,
/// deterministically).
pub fn error_counts<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<Vec<u64>>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(vec![Vec::new(); chips.len()]);
    }
    let groups = chips.len().div_ceil(LANE_GROUP);
    let per_group: Vec<Vec<u64>> = (0..groups * inputs)
        .into_par_iter()
        .map(|cell| {
            let (g, i) = (cell / inputs, cell % inputs);
            let base = g * LANE_GROUP;
            let group_chips = &chips[base..(base + LANE_GROUP).min(chips.len())];
            run_lane_group(
                program,
                cfg,
                scheme,
                i,
                &init,
                model,
                group_chips,
                base,
                lane_mask(group_chips.len()),
            )
        })
        .collect::<Result<_>>()?;
    let mut counts = vec![vec![0u64; inputs]; chips.len()];
    for (cell, lane_counts) in per_group.iter().enumerate() {
        let (g, i) = (cell / inputs, cell % inputs);
        for (lane, &e) in lane_counts.iter().enumerate() {
            counts[g * LANE_GROUP + lane][i] = e;
        }
    }
    Ok(counts)
}

/// The scalar reference grid: one program execution per `(chip, input)`
/// cell, exactly as [`error_counts`] computed it before lane packing. Kept
/// as the ground truth the packed grid is differentially tested (and
/// benchmarked) against.
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing cell wins,
/// deterministically).
pub fn error_counts_scalar<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<Vec<u64>>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(vec![Vec::new(); chips.len()]);
    }
    let flat: Vec<u64> = (0..chips.len() * inputs)
        .into_par_iter()
        .map(|cell| {
            let (c, i) = (cell / inputs, cell % inputs);
            let mut rng = Xoshiro256::seed_stream(cfg.seed, cell_stream(c, i));
            run_cell(program, cfg, scheme, i, &init, &mut rng, |prev, idx, f| {
                model.error_probability(prev, idx, f, &chips[c])
            })
        })
        .collect::<Result<_>>()?;
    Ok(flat.chunks(inputs).map(<[u64]>::to_vec).collect())
}

/// Like [`error_counts`] but with process variation *marginalized* per
/// instruction (the analytic pipeline's independence assumption): no chips
/// are drawn; each dynamic instruction errs independently with its
/// unconditional probability. Comparing this against the per-chip variant
/// isolates the effect of chip-shared variation, which the paper's
/// dependency-neighborhood bounds do not cover.
///
/// Returns `reps × inputs` error counts.
///
/// # Errors
///
/// Propagates machine errors.
pub fn error_counts_marginalized<M, F>(
    program: &Program,
    model: &M,
    reps: usize,
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<u64>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(Vec::new());
    }
    // A distinct master seed keeps the marginalized streams disjoint from
    // the per-chip grid's even when rep/input indices coincide.
    let master = cfg.seed ^ 0x4D41_5247;
    (0..reps * inputs)
        .into_par_iter()
        .map(|cell| {
            let (r, i) = (cell / inputs, cell % inputs);
            let mut rng = Xoshiro256::seed_stream(master, cell_stream(r, i));
            run_cell(program, cfg, scheme, i, &init, &mut rng, |prev, idx, f| {
                model.marginal_probability(prev, idx, f)
            })
        })
        .collect()
}

/// Summarizes a count matrix into the empirical error-count distribution
/// (all chip×input cells pooled, equal weights).
pub fn pooled_counts(counts: &[Vec<u64>]) -> Vec<u64> {
    counts.iter().flatten().copied().collect()
}

// ---------------------------------------------------------------------------
// Checkpoint / resume for the (chip, input) grid
// ---------------------------------------------------------------------------

/// Periodic checkpointing of the Monte Carlo grid.
///
/// Because every cell draws from its own counter-based RNG stream (see the
/// module docs), a cell's count depends only on `(cfg.seed, chip, input)` —
/// never on which cells ran before it or on the thread schedule. A resumed
/// run therefore reproduces the uninterrupted count matrix **bitwise**: it
/// simply skips the cells already on disk and recomputes the rest from
/// their own streams.
///
/// The on-disk format is a small hand-rolled binary file (the build is
/// offline — no serde): a magic tag, a context fingerprint binding the file
/// to one `(seed, grid shape, program)` combination, and `(cell, count)`
/// pairs, all little-endian `u64`s. Writes go to a sibling `.tmp` file and
/// are renamed into place, so a kill mid-flush leaves the previous
/// checkpoint intact.
#[derive(Debug, Clone)]
pub struct McCheckpoint {
    path: std::path::PathBuf,
    every_n: usize,
    cell_budget: Option<usize>,
}

impl McCheckpoint {
    /// Checkpoint to `path`, flushing after every `every_n` newly computed
    /// cells (`every_n == 0` is treated as 1).
    pub fn new(path: impl Into<std::path::PathBuf>, every_n: usize) -> Self {
        McCheckpoint {
            path: path.into(),
            every_n: every_n.max(1),
            cell_budget: None,
        }
    }

    /// Caps the number of new cells one [`error_counts_checkpointed`] call
    /// may compute (`0` is treated as 1). When the cap is hit mid-grid the
    /// completed cells are flushed and the call returns
    /// [`crate::SimError::Interrupted`] — the supported way to exercise and
    /// test kill/resume behaviour deterministically, and a job server's
    /// time-slicing knob.
    pub fn with_cell_budget(mut self, n: usize) -> Self {
        self.cell_budget = Some(n.max(1));
        self
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Cells per checkpoint flush.
    pub fn every_n(&self) -> usize {
        self.every_n
    }

    /// The per-call cell budget, if any.
    pub fn cell_budget(&self) -> Option<usize> {
        self.cell_budget
    }
}

const MC_MAGIC: &[u8; 8] = b"TERSEMC1";

/// A byte-wise hash over the run parameters that determine every cell
/// count. A resumed checkpoint must match, or the stored counts belong to a
/// different run.
///
/// It has FNV-1a's shape and offset basis, but multiplies by
/// `0x1000_0000_01b3`, not the FNV prime `0x0100_0000_01b3` the other
/// hashes in the workspace use. The constant stays: changing it would
/// change every context hash and orphan existing TERSEMC1 checkpoints
/// (`mc_context_hash_is_pinned` holds the value).
fn mc_context_hash(cfg: MonteCarloConfig, chips: usize, inputs: usize, program_len: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        cfg.seed,
        cfg.budget,
        cfg.dmem_words as u64,
        chips as u64,
        inputs as u64,
        program_len as u64,
    ] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn ck_err(e: impl std::fmt::Display) -> crate::SimError {
    crate::SimError::Checkpoint(e.to_string())
}

/// `path` with `suffix` appended to the full file name (`mc-0.ckpt` +
/// `.bak` → `mc-0.ckpt.bak`).
fn ck_sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    std::path::PathBuf::from(name)
}

/// Loads a checkpoint: `done[cell] = Some(count)` for stored cells.
///
/// A missing file is a fresh start. A CRC-damaged or torn `TERSEFR1`
/// image (see `terse_analyze::integrity`) is set aside as `.corrupt`
/// evidence and the previous good generation (`.bak`) is served instead —
/// or a fresh start; either way the resumed run recomputes the missing
/// cells from their own RNG streams, bitwise identically. A *verified*
/// file with the wrong magic, context hash, or cell range is an error
/// (silently mixing two runs' counts would corrupt the statistics).
fn mc_load(ckpt: &McCheckpoint, context: u64, total: usize) -> Result<Vec<Option<u64>>> {
    let bytes = match std::fs::read(&ckpt.path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![None; total]),
        Err(e) => return Err(ck_err(e)),
    };
    match terse_analyze::unframe(&bytes) {
        Ok(payload) => mc_parse(payload, context, total),
        // Pre-framing image: its own magic still guards against foreign
        // files. Bytes with neither frame nor magic (zero-length files
        // from ENOSPC, torn non-atomic writes) are damage, not legacy.
        Err(terse_analyze::FrameError::NotFramed)
            if bytes.len() >= MC_MAGIC.len() && &bytes[..MC_MAGIC.len()] == MC_MAGIC =>
        {
            mc_parse(&bytes, context, total)
        }
        Err(_damage) => {
            let _ = std::fs::rename(&ckpt.path, ck_sibling(&ckpt.path, ".corrupt"));
            let bak = ck_sibling(&ckpt.path, ".bak");
            if let Ok(bak_bytes) = std::fs::read(&bak) {
                if let Ok(payload) = terse_analyze::unframe(&bak_bytes) {
                    if let Ok(done) = mc_parse(payload, context, total) {
                        return Ok(done);
                    }
                }
            }
            Ok(vec![None; total])
        }
    }
}

/// Parses a verified (or legacy bare) `TERSEMC1` image.
fn mc_parse(bytes: &[u8], context: u64, total: usize) -> Result<Vec<Option<u64>>> {
    let mut done = vec![None; total];
    let word = |i: usize| -> Result<u64> {
        let at = 8 + 8 * i;
        bytes
            .get(at..at + 8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .map(u64::from_le_bytes)
            .ok_or_else(|| ck_err("truncated checkpoint file"))
    };
    if bytes.len() < 8 || &bytes[..8] != MC_MAGIC {
        return Err(ck_err("bad checkpoint magic"));
    }
    if word(0)? != context {
        return Err(ck_err("checkpoint belongs to a different run"));
    }
    if word(1)? != total as u64 {
        return Err(ck_err("checkpoint grid size mismatch"));
    }
    let entries = word(2)? as usize;
    for k in 0..entries {
        let cell = word(3 + 2 * k)? as usize;
        let count = word(4 + 2 * k)?;
        if cell >= total {
            return Err(ck_err("checkpoint cell index out of range"));
        }
        done[cell] = Some(count);
    }
    Ok(done)
}

/// Atomically writes the checkpoint (tmp + rename), wrapped in the
/// `TERSEFR1` integrity envelope. The previous image is preserved as
/// `.bak` so a later load can fall back past a damaged primary.
fn mc_store(ckpt: &McCheckpoint, context: u64, done: &[Option<u64>]) -> Result<()> {
    let mut buf = Vec::with_capacity(32 + 16 * done.len());
    buf.extend_from_slice(MC_MAGIC);
    buf.extend_from_slice(&context.to_le_bytes());
    buf.extend_from_slice(&(done.len() as u64).to_le_bytes());
    let entries = done.iter().filter(|d| d.is_some()).count() as u64;
    buf.extend_from_slice(&entries.to_le_bytes());
    for (cell, d) in done.iter().enumerate() {
        if let Some(count) = d {
            buf.extend_from_slice(&(cell as u64).to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
    let image = terse_analyze::frame(&buf);
    let tmp = ckpt.path.with_extension("tmp");
    std::fs::write(&tmp, &image).map_err(ck_err)?;
    // Best-effort backup of the outgoing generation: a failed or torn
    // copy only narrows fallback (its CRC is checked before use).
    if ckpt.path.exists() {
        let _ = std::fs::copy(&ckpt.path, ck_sibling(&ckpt.path, ".bak"));
    }
    std::fs::rename(&tmp, &ckpt.path).map_err(ck_err)
}

/// [`error_counts`] with periodic checkpointing: cells already present in
/// the checkpoint file are skipped, the rest are computed (in parallel,
/// batch by batch) with a flush after every `every_n` new cells, and the
/// file is removed once the full grid is done.
///
/// The returned matrix is bitwise identical to an uninterrupted
/// [`error_counts`] call with the same arguments (see [`McCheckpoint`]).
///
/// # Errors
///
/// Propagates machine errors and [`crate::SimError::Checkpoint`] for
/// unreadable or mismatched checkpoint files.
// Mirrors `error_counts`' signature exactly, plus the checkpoint handle —
// splitting a config struct out here would break the side-by-side symmetry
// the determinism tests rely on.
#[allow(clippy::too_many_arguments)]
pub fn error_counts_checkpointed<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
    ckpt: &McCheckpoint,
) -> Result<Vec<Vec<u64>>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(vec![Vec::new(); chips.len()]);
    }
    let total = chips.len() * inputs;
    let context = mc_context_hash(cfg, chips.len(), inputs, program.len());
    let mut done = mc_load(ckpt, context, total)?;
    let pending: Vec<usize> = (0..total).filter(|&c| done[c].is_none()).collect();
    // Honour the per-call cell budget: compute at most `budget` new cells
    // (flushing per batch as usual), then report a typed interruption so the
    // caller can resume from the checkpoint later.
    let budget = ckpt.cell_budget.unwrap_or(usize::MAX);
    let capped = pending.len().min(budget);
    for batch in pending[..capped].chunks(ckpt.every_n) {
        // Pack the pending cells of this batch into lane groups: a resumed
        // checkpoint may cut through a group, leaving a partial live mask —
        // exactness is unaffected because every lane draws from its own
        // absolute `(chip, input)` stream.
        let mut groups: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for &cell in batch {
            let (c, i) = (cell / inputs, cell % inputs);
            *groups.entry((c / LANE_GROUP, i)).or_insert(0) |= 1u64 << (c % LANE_GROUP);
        }
        let tasks: Vec<((usize, usize), u64)> = groups.into_iter().collect();
        let results: Vec<Vec<u64>> = tasks
            .par_iter()
            .map(|&((g, i), live)| {
                let base = g * LANE_GROUP;
                let group_chips = &chips[base..(base + LANE_GROUP).min(chips.len())];
                run_lane_group(
                    program,
                    cfg,
                    scheme,
                    i,
                    &init,
                    model,
                    group_chips,
                    base,
                    live,
                )
            })
            .collect::<Result<_>>()?;
        for (&((g, i), live), lane_counts) in tasks.iter().zip(&results) {
            for (lane, &e) in lane_counts.iter().enumerate() {
                if live >> lane & 1 == 1 {
                    done[(g * LANE_GROUP + lane) * inputs + i] = Some(e);
                }
            }
        }
        mc_store(ckpt, context, &done)?;
    }
    if capped < pending.len() {
        return Err(crate::SimError::Interrupted {
            completed: total - (pending.len() - capped),
            total,
        });
    }
    let counts: Vec<Vec<u64>> = done
        .chunks(inputs)
        .map(|row| row.iter().map(|d| d.unwrap_or(0)).collect())
        .collect();
    // The grid is complete — the checkpoint (and its backup generation)
    // has served its purpose. `.corrupt` evidence is left for diagnosis.
    let _ = std::fs::remove_file(ck_sibling(&ckpt.path, ".bak"));
    if let Err(e) = std::fs::remove_file(&ckpt.path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(ck_err(e));
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_sta::delay::DelayLibrary;
    use terse_sta::variation::{VariationConfig, VariationModel};

    /// The TERSEMC1 context hash of a fixed configuration. Existing Monte
    /// Carlo checkpoints are keyed by this value, so it must not move.
    #[test]
    fn mc_context_hash_is_pinned() {
        let cfg = MonteCarloConfig {
            budget: 10_000,
            dmem_words: 256,
            seed: 0x4D43,
        };
        let h = mc_context_hash(cfg, 64, 3, 17);
        assert_eq!(h, 0xd40f_7b3f_4ce5_4661);
    }

    /// A toy model: adds fail with probability proportional to carry chain,
    /// everything else never fails.
    struct ToyModel;
    impl InstErrorModel for ToyModel {
        fn error_probability(
            &self,
            _prev: Option<u32>,
            _index: u32,
            f: &InstFeatures,
            _chip: &ChipSample,
        ) -> f64 {
            f.carry_chain as f64 / 64.0
        }
        fn marginal_probability(&self, _prev: Option<u32>, _index: u32, f: &InstFeatures) -> f64 {
            f.carry_chain as f64 / 64.0
        }
    }

    fn chips(n: usize) -> Vec<ChipSample> {
        // Any netlist works for drawing chip samples; use a minimal one.
        let mut b = terse_netlist::NetlistBuilder::new(1);
        let x = b.input("x", 0).unwrap();
        let g = b.gate(terse_netlist::GateKind::Not, &[x], 0).unwrap();
        let ff = b
            .flip_flop("q", terse_netlist::EndpointClass::Data, 0)
            .unwrap();
        b.connect_ff_input(ff, g).unwrap();
        let n_ = b.finish().unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let model = VariationModel::new(&n_, &lib, VariationConfig::default()).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(77);
        (0..n).map(|_| model.sample_chip(&mut rng)).collect()
    }

    #[test]
    fn zero_probability_model_counts_zero() {
        struct Never;
        impl InstErrorModel for Never {
            fn error_probability(
                &self,
                _: Option<u32>,
                _: u32,
                _: &InstFeatures,
                _: &ChipSample,
            ) -> f64 {
                0.0
            }
            fn marginal_probability(&self, _: Option<u32>, _: u32, _: &InstFeatures) -> f64 {
                0.0
            }
        }
        let p = assemble("addi r1, r0, 3\nadd r2, r1, r1\nhalt\n").unwrap();
        let counts = error_counts(
            &p,
            &Never,
            &chips(2),
            3,
            CorrectionScheme::paper_default(),
            |_, _| {},
            MonteCarloConfig::default(),
        )
        .unwrap();
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().flatten().all(|&c| c == 0));
    }

    #[test]
    fn error_rate_tracks_model_probability() {
        // A loop of adds with full carries: p = carry_chain/64 per add.
        let p = assemble(
            r"
                li   r1, 0xFFFF
                addi r2, r0, 200
            loop:
                add  r3, r1, r1      # carry chain > 0
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
        ",
        )
        .unwrap();
        let counts = error_counts(
            &p,
            &ToyModel,
            &chips(8),
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            MonteCarloConfig::default(),
        )
        .unwrap();
        let pooled = pooled_counts(&counts);
        assert_eq!(pooled.len(), 32);
        let mean = pooled.iter().sum::<u64>() as f64 / pooled.len() as f64;
        // Errors happen (the adds carry) but not on every instruction.
        assert!(mean > 1.0, "mean = {mean}");
        assert!(mean < 600.0);
    }

    /// Unique checkpoint path per test (avoids collisions under the
    /// parallel test harness).
    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_mc_ckpt_{tag}_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_matches_plain_and_cleans_up() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r1\nhalt\n").unwrap();
        let cs = chips(3);
        let cfg = MonteCarloConfig::default();
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let ck = McCheckpoint::new(ckpt_path("fresh"), 5);
        let resumed = error_counts_checkpointed(
            &p,
            &ToyModel,
            &cs,
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            &ck,
        )
        .unwrap();
        assert_eq!(plain, resumed, "checkpointed run must be bitwise identical");
        assert!(!ck.path().exists(), "finished run removes its checkpoint");
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bitwise_identical() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(4);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        // Simulate a killed run: persist only the first half of the grid.
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        let mut done: Vec<Option<u64>> = vec![None; total];
        for cell in 0..total / 2 {
            done[cell] = Some(plain[cell / inputs][cell % inputs]);
        }
        let ck = McCheckpoint::new(ckpt_path("partial"), 2);
        mc_store(&ck, context, &done).unwrap();
        let resumed = error_counts_checkpointed(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            &ck,
        )
        .unwrap();
        assert_eq!(plain, resumed, "resume must reproduce the full run");
        assert!(!ck.path().exists());
    }

    #[test]
    fn cell_budget_interrupts_and_resumes_bitwise_identical() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(4);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let total = cs.len() * inputs;
        let path = ckpt_path("budget");
        // Slice the grid into budget-limited calls: each one must stop with
        // a typed interruption, leave its progress in the checkpoint, and
        // the final call must finish and clean up.
        let budget = 5;
        let mut completed = 0;
        loop {
            let ck = McCheckpoint::new(&path, 2).with_cell_budget(budget);
            assert_eq!(ck.cell_budget(), Some(budget));
            match error_counts_checkpointed(
                &p,
                &ToyModel,
                &cs,
                inputs,
                CorrectionScheme::paper_default(),
                |_, _| {},
                cfg,
                &ck,
            ) {
                Ok(counts) => {
                    assert_eq!(plain, counts, "sliced run must equal the plain run");
                    assert!(!ck.path().exists(), "finished run removes its checkpoint");
                    break;
                }
                Err(crate::SimError::Interrupted {
                    completed: c,
                    total: t,
                }) => {
                    assert_eq!(t, total);
                    assert!(c > completed, "each slice must make progress");
                    assert!(c < total, "an interrupted slice cannot be the full grid");
                    completed = c;
                    assert!(
                        ck.path().exists(),
                        "interrupted slice persists its checkpoint"
                    );
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            completed > 0,
            "at least one slice must have been interrupted"
        );
    }

    /// A bus-sensitive model: the probability depends on the toggle
    /// features, so the post-error (flushed-bus) feature path of the lane
    /// group runner is genuinely exercised — a lane that erred draws from a
    /// different probability than its neighbours on the next instruction.
    struct ToggleModel;
    impl InstErrorModel for ToggleModel {
        fn error_probability(
            &self,
            _prev: Option<u32>,
            _index: u32,
            f: &InstFeatures,
            chip: &ChipSample,
        ) -> f64 {
            let toggles = (f.toggle_a as f64 + f.toggle_b as f64) / 160.0;
            let carry = f.carry_chain as f64 / 256.0;
            // A per-chip wobble so lanes disagree even on equal features.
            let wobble = chip.shared_draw().first().copied().unwrap_or(0.0).abs() / 50.0;
            (toggles + carry + wobble).min(1.0)
        }
        fn marginal_probability(&self, _prev: Option<u32>, _index: u32, f: &InstFeatures) -> f64 {
            (f.toggle_a as f64 + f.toggle_b as f64) / 160.0
        }
    }

    #[test]
    fn packed_grid_matches_scalar_grid_bitwise() {
        // 70 chips: one full lane group plus a ragged 6-lane tail.
        let p = assemble(
            r"
                li   r1, 0xFFFF
                addi r2, r0, 60
            loop:
                add  r3, r1, r1
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
        ",
        )
        .unwrap();
        let cs = chips(70);
        let cfg = MonteCarloConfig::default();
        let scheme = CorrectionScheme::paper_default();
        let scalar = error_counts_scalar(&p, &ToggleModel, &cs, 2, scheme, |_, _| {}, cfg).unwrap();
        let packed = error_counts(&p, &ToggleModel, &cs, 2, scheme, |_, _| {}, cfg).unwrap();
        assert_eq!(scalar, packed, "lane packing must be bitwise exact");
        // The run is long enough that errors actually occur.
        assert!(packed.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn lane_occupancy_reflects_ragged_tail() {
        assert_eq!(lane_occupancy(0), 1.0);
        assert_eq!(lane_occupancy(LANE_GROUP), 1.0);
        assert_eq!(lane_occupancy(2 * LANE_GROUP), 1.0);
        assert!((lane_occupancy(LANE_GROUP / 2) - 0.5).abs() < 1e-12);
        let o = lane_occupancy(70);
        assert!((o - 70.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn resume_mid_lane_group_is_bitwise_identical() {
        // A checkpoint that cuts *through* a lane group: scattered cells of
        // group 0 are already done, so the resumed run executes the group
        // with a non-contiguous live mask — and must still reproduce the
        // uninterrupted packed run exactly.
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r2\nhalt\n").unwrap();
        let cs = chips(7);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let scheme = CorrectionScheme::paper_default();
        let plain = error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        let mut done: Vec<Option<u64>> = vec![None; total];
        for cell in [0usize, 2, 5, 9, 11, 16] {
            done[cell] = Some(plain[cell / inputs][cell % inputs]);
        }
        let ck = McCheckpoint::new(ckpt_path("midgroup"), 4);
        mc_store(&ck, context, &done).unwrap();
        let resumed =
            error_counts_checkpointed(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg, &ck)
                .unwrap();
        assert_eq!(plain, resumed, "mid-group resume must be bitwise exact");
        assert!(!ck.path().exists());
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let p = assemble("li r1, 1\nhalt\n").unwrap();
        let cs = chips(2);
        let cfg = MonteCarloConfig::default();
        let ck = McCheckpoint::new(ckpt_path("mismatch"), 4);
        // A checkpoint written under a different seed must be rejected.
        let other = MonteCarloConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        let context = mc_context_hash(other, cs.len(), 2, p.len());
        mc_store(&ck, context, &[None; 4]).unwrap();
        let err = error_counts_checkpointed(
            &p,
            &ToyModel,
            &cs,
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            &ck,
        )
        .unwrap_err();
        assert!(matches!(err, crate::SimError::Checkpoint(_)), "{err}");
        let _ = std::fs::remove_file(ck.path());
        // Bytes with neither frame nor magic (garbage, zero-length) are
        // indistinguishable from a torn write: set aside as `.corrupt`
        // and recomputed from scratch — never deserialized into
        // nonsense, never a hard error.
        let reference = error_counts(
            &p,
            &ToyModel,
            &cs,
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        for garbage in [b"not a checkpoint".as_slice(), b"".as_slice()] {
            let ck2 = McCheckpoint::new(ckpt_path("garbage"), 4);
            std::fs::write(ck2.path(), garbage).unwrap();
            let counts = error_counts_checkpointed(
                &p,
                &ToyModel,
                &cs,
                2,
                CorrectionScheme::paper_default(),
                |_, _| {},
                cfg,
                &ck2,
            )
            .unwrap();
            assert_eq!(counts, reference, "fallback recompute must be bitwise");
            assert!(
                ck_sibling(ck2.path(), ".corrupt").exists(),
                "evidence preserved"
            );
            let _ = std::fs::remove_file(ck2.path());
            let _ = std::fs::remove_file(ck_sibling(ck2.path(), ".corrupt"));
        }
    }

    #[test]
    fn corrupt_checkpoint_is_never_loaded_and_resume_stays_bitwise() {
        let p = assemble("li r1, 0xFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(3);
        let inputs = 2;
        let cfg = MonteCarloConfig::default();
        let scheme = CorrectionScheme::paper_default();
        let plain = error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        // Two generations on disk: a half-done image, then a fuller one.
        let mut done: Vec<Option<u64>> = vec![None; total];
        done[0] = Some(plain[0][0]);
        let ck = McCheckpoint::new(ckpt_path("corrupt"), 4);
        mc_store(&ck, context, &done).unwrap();
        done[1] = Some(plain[0][1]);
        mc_store(&ck, context, &done).unwrap();
        assert!(ck_sibling(ck.path(), ".bak").exists());
        // Flip a payload bit in the primary: the CRC must catch it, the
        // loader must fall back to the .bak generation — never parse the
        // damaged image — and the final counts must still be bitwise
        // identical to the uninterrupted run.
        let mut bytes = std::fs::read(ck.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        std::fs::write(ck.path(), &bytes).unwrap();
        let resumed =
            error_counts_checkpointed(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg, &ck)
                .unwrap();
        assert_eq!(plain, resumed, "fallback resume must be bitwise exact");
        let evidence = ck_sibling(ck.path(), ".corrupt");
        assert!(evidence.exists(), "evidence of the damaged image is kept");
        assert!(!ck.path().exists() && !ck_sibling(ck.path(), ".bak").exists());
        std::fs::remove_file(&evidence).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let p = assemble("li r1, 0xFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cfg = MonteCarloConfig {
            seed: 5,
            ..MonteCarloConfig::default()
        };
        let c1 = error_counts(
            &p,
            &ToyModel,
            &chips(3),
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let c2 = error_counts(
            &p,
            &ToyModel,
            &chips(3),
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        assert_eq!(c1, c2);
    }
}

//! SimPoint-style phase sampling: window the trace, fingerprint windows,
//! cluster, and pay full feature extraction only for each cluster's
//! representative window.
//!
//! Full-trace profiling is O(cycles): every retired instruction is stepped
//! and pays reservoir maintenance (plus an [`extract`] call whenever the
//! reservoir keeps it). Real programs, however, move through a small number of
//! *phases* — stretches of execution with near-identical per-block mixes and
//! toggle behavior — so the feature distributions the error model needs can
//! be measured on one representative window per phase and weighted by phase
//! population, exactly the SimPoint argument transplanted from CPI to
//! timing-error estimation.
//!
//! The pipeline here:
//!
//! 1. **Windowing pass** — a single cheap sweep of the trace (architectural
//!    [`Machine::step`] only, no feature extraction) slices execution into
//!    fixed-size windows and records, per window: exact block-entry counts
//!    (the basic-block vector), a hashed histogram of *cone-masked toggle
//!    signatures* (the [`terse_netlist::signature`] helpers shared with the
//!    stage-DTS memo cache, applied to per-instruction architectural toggle
//!    sets masked by the four stage-proxy cones below), and the replay
//!    anchors: a register/PC/bus snapshot at window entry plus a log of every
//!    store. Global block/edge counts and operand representatives are
//!    collected exactly, as in [`Profiler::profile`] — sampling never touches
//!    the `e_i` weights or edge probabilities, only the feature samples.
//! 2. **Clustering** — a hand-rolled, seeded k-means over the window
//!    vectors: counter-based RNG streams ([`Xoshiro256::seed_stream`]),
//!    k-means++ initialization by deterministic prefix-sum sampling,
//!    index-ordered tie-breaking everywhere, parallel assignment that is a
//!    pure per-window map (so any thread count produces bit-identical
//!    clusterings).
//! 3. **Representative replay** — data memory at a representative window's
//!    entry is reconstructed incrementally from the store log (windows are
//!    replayed in ascending order, so each store is applied at most once),
//!    registers/PC/bus state come from the snapshot, and the expensive
//!    feature extraction runs only inside representative windows, into
//!    per-(instruction, cluster) reservoirs.
//!
//! The result plugs into the existing estimation flow: block and edge counts
//! are exact, features carry cluster-population weights, and the per-cluster
//! feature groups let the estimator report an explicit sampling-error term
//! next to the paper's Chen–Stein/Stein bounds.

use crate::features::{extract, operand_values, BusState, InstFeatures};
use crate::machine::Machine;
use crate::profile::{reservoir_slot, ProfileResult, Profiler};
use crate::Result;
use rayon::prelude::*;
use std::collections::HashMap;
use terse_isa::{BlockId, Cfg, Opcode, Program};
use terse_netlist::signature;
use terse_netlist::BitSet;
use terse_stats::rng::Xoshiro256;

/// Bits in the per-instruction architectural toggle set.
pub const TOGGLE_BITS: usize = 128;
/// Stage-proxy cones the window fingerprints are masked by.
pub const CONE_COUNT: usize = 4;
/// Histogram buckets per cone in the window signature vector.
pub const SIG_BUCKETS: usize = 16;

/// Phase-sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConfig {
    /// Instructions per trace window.
    pub window_size: u64,
    /// Upper bound on the number of clusters (phases). The effective count
    /// is `min(max_clusters, windows)`.
    pub max_clusters: usize,
    /// Maximum Lloyd iterations of the k-means loop (it usually converges
    /// much earlier; the cap keeps worst-case cost bounded).
    pub kmeans_iters: usize,
    /// Seed of the clustering RNG streams.
    pub seed: u64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            window_size: 256,
            max_clusters: 8,
            kmeans_iters: 16,
            seed: 0x9A5E_D7A1,
        }
    }
}

/// The architectural stage-proxy cones: what each pipeline-stage family can
/// observe of the 128-bit toggle set (operand-A toggles in bits 0..32,
/// operand-B in 32..64, result toggles in 64..96, opcode/control in
/// 96..128). These play the role of the netlist stage fan-in cones the DTS
/// memo cache masks with — computed over architectural values because the
/// windowing pass deliberately never runs the gate-level netlist.
pub fn window_cones() -> Vec<BitSet> {
    let ranges: [(usize, usize); CONE_COUNT] = [(0, 32), (32, 64), (64, 96), (96, 128)];
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let mut m = BitSet::new(TOGGLE_BITS);
            for i in lo..hi {
                m.insert(i);
            }
            m
        })
        .collect()
}

/// A deterministic clustering of trace windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster of each window. Cluster ids are compact (`0..clusters()`),
    /// numbered by ascending first-member window index.
    pub assignment: Vec<u32>,
    /// Representative window of each cluster: the member closest to the
    /// final centroid (lowest window index on ties).
    pub representatives: Vec<u32>,
    /// Member windows per cluster.
    pub populations: Vec<u64>,
}

impl Clustering {
    /// Number of (non-empty) clusters.
    pub fn clusters(&self) -> usize {
        self.representatives.len()
    }
}

/// Squared euclidean distance, summed in fixed index order (bitwise
/// deterministic for a given pair).
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..a.len().min(b.len()) {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// Index of the nearest center (strict `<`, so ties keep the lowest center
/// index).
fn nearest(v: &[f64], centers: &[Vec<f64>]) -> u32 {
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = dist2(v, center);
        if d < best_d {
            best_d = d;
            // terse-analyze: allow(AZ005): cluster index < k, far below 2^32.
            best = c as u32;
        }
    }
    best
}

/// Clusters window vectors with a seeded, bitwise-deterministic k-means.
///
/// Determinism discipline (the PR-1 rules): the RNG is a counter-based
/// stream of `seed`, the k-means++ pick walks an index-ordered prefix sum,
/// assignment is a pure per-window map (parallelized, but each window's
/// answer depends only on the shared centers), centroid accumulation runs
/// serially in window-index order, and every tie breaks toward the lowest
/// index. Any thread count yields the identical [`Clustering`].
pub fn cluster_windows(vectors: &[Vec<f64>], k: usize, iters: usize, seed: u64) -> Clustering {
    let n = vectors.len();
    if n == 0 {
        return Clustering {
            assignment: Vec::new(),
            representatives: Vec::new(),
            populations: Vec::new(),
        };
    }
    let k = k.clamp(1, n);
    let dims = vectors[0].len();
    let mut rng = Xoshiro256::seed_stream(seed, 0);

    // k-means++ initialization.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(vectors[rng.next_below(n as u64) as usize].clone());
    let mut d2: Vec<f64> = vectors.iter().map(|v| dist2(v, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            let target = rng.next_f64() * total;
            let mut acc = 0.0;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                acc += d;
                if acc > target {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            // Every window coincides with an existing center; any pick is a
            // duplicate, so take the lowest index for determinism.
            0
        };
        let center = vectors[next].clone();
        for (i, v) in vectors.iter().enumerate() {
            let d = dist2(v, &center);
            if d < d2[i] {
                d2[i] = d;
            }
        }
        centers.push(center);
    }

    // Lloyd iterations: parallel pure assignment, serial centroid update.
    let assign = |centers: &[Vec<f64>]| -> Vec<u32> {
        vectors.par_iter().map(|v| nearest(v, centers)).collect()
    };
    let update = |assignment: &[u32], centers: &mut [Vec<f64>]| {
        let mut sums = vec![vec![0.0f64; dims]; centers.len()];
        let mut counts = vec![0u64; centers.len()];
        for (i, &c) in assignment.iter().enumerate() {
            let c = c as usize;
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(&vectors[i]) {
                *s += x;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (dst, &s) in center.iter_mut().zip(&sums[c]) {
                    *dst = s / counts[c] as f64;
                }
            } // empty clusters keep their previous centroid
        }
    };
    let mut assignment = assign(&centers);
    for _ in 1..iters.max(1) {
        update(&assignment, &mut centers);
        let next = assign(&centers);
        if next == assignment {
            break;
        }
        assignment = next;
    }
    update(&assignment, &mut centers);

    // Compact cluster ids (drop empties, renumber by first-member order).
    let mut remap = vec![u32::MAX; k];
    let mut compact = 0u32;
    for &c in &assignment {
        if remap[c as usize] == u32::MAX {
            remap[c as usize] = compact;
            compact += 1;
        }
    }
    let old_of_new: Vec<usize> = {
        let mut v = vec![0usize; compact as usize];
        for (old, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                v[new as usize] = old;
            }
        }
        v
    };
    let assignment: Vec<u32> = assignment.iter().map(|&c| remap[c as usize]).collect();

    // Representatives: member closest to the final centroid, lowest window
    // index on ties (strict `<` walking ascending indices).
    let mut representatives = vec![0u32; compact as usize];
    let mut best = vec![f64::INFINITY; compact as usize];
    let mut populations = vec![0u64; compact as usize];
    for (i, &c) in assignment.iter().enumerate() {
        let c = c as usize;
        populations[c] += 1;
        let d = dist2(&vectors[i], &centers[old_of_new[c]]);
        if d < best[c] {
            best[c] = d;
            // terse-analyze: allow(AZ005): window index < window count, fits u32.
            representatives[c] = i as u32;
        }
    }
    Clustering {
        assignment,
        representatives,
        populations,
    }
}

/// Everything the windowing pass records about one run.
struct WindowTrace {
    /// Retired instructions per window.
    instructions: Vec<u64>,
    /// Block-entry counts per window (dense over CFG blocks).
    block_entries: Vec<Vec<u64>>,
    /// Per-window signature histograms (`CONE_COUNT * SIG_BUCKETS` bins).
    sig_hist: Vec<Vec<u32>>,
    /// Register-file snapshot at each window's entry.
    regs: Vec<[u32; 32]>,
    /// PC at each window's entry.
    pcs: Vec<u32>,
    /// Operand-bus state at each window's entry.
    buses: Vec<BusState>,
    /// Store-log offset at each window's entry.
    store_offsets: Vec<usize>,
    /// Every store of the run: `(word address, value)` in retirement order.
    store_log: Vec<(u32, u32)>,
    /// Exact whole-run block counts.
    block_counts: Vec<u64>,
    /// Exact whole-run edge counts.
    edge_counts: HashMap<(BlockId, BlockId), u64>,
    /// First-occurrence operand representatives.
    operand_reps: Vec<Option<(u32, u32)>>,
    /// Total retired instructions.
    total: u64,
}

/// A phase-sampled profile: exact counts, cluster-weighted features, and the
/// bookkeeping the estimator needs to report coverage and a sampling bound.
#[derive(Debug, Clone)]
pub struct PhasedProfile {
    /// The profile consumed by the existing training/estimation flow.
    /// `block_counts`, `edge_counts`, `total_instructions` and
    /// `operand_reps` are **exact** (identical to a full
    /// [`Profiler::profile`] run); `features_normal`/`features_corrected`
    /// hold only the representative-window samples, grouped by ascending
    /// cluster id.
    pub profile: ProfileResult,
    /// Per static instruction: the cluster-population weight of each
    /// feature sample (parallel to `profile.features_normal`). The weight of
    /// a sample from cluster `c` is `E(b, c) / n_samples(inst, c)` — block
    /// executions over *all* of `c`'s windows, spread over the samples that
    /// represent them — so a weighted mean over the feature list is the
    /// cluster-population-weighted phase aggregate.
    pub feature_weights: Vec<Vec<f64>>,
    /// Per static instruction: the cluster each feature sample came from
    /// (parallel to `profile.features_normal`; ascending).
    pub feature_clusters: Vec<Vec<u32>>,
    /// Per block: executions inside representative windows (the directly
    /// simulated part of `profile.block_counts`).
    pub block_rep_counts: Vec<u64>,
    /// Total windows in the trace.
    pub windows_total: u64,
    /// Windows actually replayed with full feature extraction (= clusters).
    pub windows_simulated: u64,
    /// The window size the trace was sliced with.
    pub window_size: u64,
    /// Instructions inside representative windows.
    pub covered_instructions: u64,
    /// The window clustering itself (exposed for diagnostics and tests).
    pub clustering: Clustering,
    /// Digest of the sampling decisions (window size, clustering,
    /// representatives) — folded into checkpoint context hashes so an
    /// exact-run checkpoint can never resume a sampled run or vice versa.
    pub context_digest: u64,
}

impl PhasedProfile {
    /// Fraction of trace instructions inside representative windows.
    pub fn coverage(&self) -> f64 {
        if self.profile.total_instructions == 0 {
            return 1.0;
        }
        self.covered_instructions as f64 / self.profile.total_instructions as f64
    }
}

/// FNV-1a-style fold of a `u64` into a digest.
fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Profiler {
    /// Phase-sampled counterpart of [`Profiler::profile`]: identical exact
    /// block/edge counts, but feature extraction only inside one
    /// representative window per phase. `init` may be called twice (window
    /// pass + replay) and must reproduce the same initial machine state.
    ///
    /// # Errors
    ///
    /// Propagates machine errors ([`crate::SimError`]).
    pub fn profile_phased(
        &self,
        program: &Program,
        cfg: &Cfg,
        phase: &PhaseConfig,
        init: impl Fn(&mut Machine),
    ) -> Result<PhasedProfile> {
        let trace = self.window_pass(program, cfg, phase, &init)?;
        let windows = trace.instructions.len();
        let vectors = window_vectors(&trace, cfg.len());
        let clustering =
            cluster_windows(&vectors, phase.max_clusters, phase.kmeans_iters, phase.seed);
        self.replay_representatives(program, cfg, phase, &init, trace, clustering, windows)
    }

    /// Pass 1: the cheap windowing sweep (no feature extraction).
    fn window_pass(
        &self,
        program: &Program,
        cfg: &Cfg,
        phase: &PhaseConfig,
        init: &impl Fn(&mut Machine),
    ) -> Result<WindowTrace> {
        let w_size = phase.window_size.max(1);
        let n_static = program.len();
        let n_blocks = cfg.len();
        // Static index -> (block, is-entry-instruction): one array lookup
        // per retired instruction instead of a block search.
        let block_of: Vec<(u32, bool)> = (0..n_static)
            .map(|idx| {
                let b = cfg.block_containing(idx);
                let start = cfg.blocks()[b.index()].start as usize == idx;
                (b.index() as u32, start)
            })
            .collect();
        let cones = window_cones();
        let mut toggles = BitSet::new(TOGGLE_BITS);

        let mut machine = Machine::new(program, self.dmem_words);
        init(&mut machine);
        let mut t = WindowTrace {
            instructions: Vec::new(),
            block_entries: Vec::new(),
            sig_hist: Vec::new(),
            regs: Vec::new(),
            pcs: Vec::new(),
            buses: Vec::new(),
            store_offsets: Vec::new(),
            store_log: Vec::new(),
            block_counts: vec![0u64; n_blocks],
            edge_counts: HashMap::new(),
            operand_reps: vec![None; n_static],
            total: 0,
        };
        let mut bus = BusState::flushed();
        let mut prev_result = 0u32;
        let mut prev_block: Option<BlockId> = None;
        while !machine.halted() {
            if t.total >= self.budget {
                return Err(crate::SimError::InstructionBudgetExhausted {
                    budget: self.budget,
                });
            }
            if t.total.is_multiple_of(w_size) {
                t.regs.push(machine.regs_snapshot());
                t.pcs.push(machine.pc());
                t.buses.push(bus);
                t.store_offsets.push(t.store_log.len());
                t.instructions.push(0);
                t.block_entries.push(vec![0u64; n_blocks]);
                t.sig_hist.push(vec![0u32; CONE_COUNT * SIG_BUCKETS]);
            }
            let r = machine.step(program)?;
            let w = (t.total / w_size) as usize;
            t.total += 1;
            t.instructions[w] += 1;
            let idx = r.index as usize;
            let (b, is_entry) = block_of[idx];
            let block = cfg.block_containing(idx);
            if is_entry {
                t.block_counts[b as usize] += 1;
                t.block_entries[w][b as usize] += 1;
                if let Some(pb) = prev_block {
                    *t.edge_counts.entry((pb, block)).or_insert(0) += 1;
                }
            }
            prev_block = Some(block);
            if t.operand_reps[idx].is_none() {
                t.operand_reps[idx] = Some((r.rs1_val, r.rs2_val));
            }
            if r.inst.opcode == Opcode::St {
                if let Some(addr) = r.mem_addr {
                    t.store_log.push((addr, r.result));
                }
            }
            // Cone-masked toggle signatures of this instruction, into the
            // window histogram (the shared DTS-cache signature definition
            // over the architectural toggle set).
            let (a, b_op) = operand_values(&r);
            let words = [
                u64::from(a ^ bus.a) | u64::from(b_op ^ bus.b) << 32,
                u64::from(r.result ^ prev_result) | 1u64 << (32 + (r.inst.opcode as usize & 31)),
            ];
            toggles.copy_from_words(&words);
            for (ci, cone) in cones.iter().enumerate() {
                let sig = signature::masked_toggle_signature(&toggles, cone);
                t.sig_hist[w][ci * SIG_BUCKETS + signature::bucket(sig, SIG_BUCKETS)] += 1;
            }
            prev_result = r.result;
            bus.advance(&r);
        }
        Ok(t)
    }

    /// Pass 2: replay representative windows (ascending), reconstructing
    /// data memory from the store log, and extract features into
    /// per-(instruction, cluster) reservoirs.
    #[allow(clippy::too_many_arguments)]
    fn replay_representatives(
        &self,
        program: &Program,
        cfg: &Cfg,
        phase: &PhaseConfig,
        init: &impl Fn(&mut Machine),
        trace: WindowTrace,
        clustering: Clustering,
        windows: usize,
    ) -> Result<PhasedProfile> {
        let n_static = program.len();
        let n_blocks = cfg.len();
        let k = clustering.clusters();

        // Executions of each block over each cluster's member windows — the
        // population weights.
        let mut cluster_block = vec![vec![0u64; n_blocks]; k];
        for (w, &c) in clustering.assignment.iter().enumerate() {
            for (b, &e) in trace.block_entries[w].iter().enumerate() {
                cluster_block[c as usize][b] += e;
            }
        }
        let mut block_rep_counts = vec![0u64; n_blocks];
        let mut covered_instructions = 0u64;
        for &rep in &clustering.representatives {
            covered_instructions += trace.instructions[rep as usize];
            for (b, &e) in trace.block_entries[rep as usize].iter().enumerate() {
                block_rep_counts[b] += e;
            }
        }

        // Replay, ascending by window index so the store log is applied
        // incrementally (each store at most once).
        let mut reps: Vec<(u32, u32)> = clustering
            .representatives
            .iter()
            .enumerate()
            // terse-analyze: allow(AZ005): cluster index < k, far below 2^32.
            .map(|(c, &w)| (w, c as u32))
            .collect();
        reps.sort_unstable();
        let mut machine = Machine::new(program, self.dmem_words);
        init(&mut machine);
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let cap = self.max_feature_samples;
        let mut feat_n: HashMap<(usize, u32), Vec<InstFeatures>> = HashMap::new();
        let mut feat_c: HashMap<(usize, u32), Vec<InstFeatures>> = HashMap::new();
        let mut seen: HashMap<(usize, u32), u64> = HashMap::new();
        let mut cursor = 0usize;
        for &(w, c) in &reps {
            let w = w as usize;
            while cursor < trace.store_offsets[w] {
                let (addr, val) = trace.store_log[cursor];
                machine.store(addr, val)?;
                cursor += 1;
            }
            machine.restore_window(&trace.regs[w], trace.pcs[w]);
            let mut bus = trace.buses[w];
            for _ in 0..trace.instructions[w] {
                let r = machine.step(program)?;
                let idx = r.index as usize;
                let key = (idx, c);
                let s = seen.entry(key).or_insert(0);
                *s += 1;
                // As in `Profiler::profile`: extract only what the
                // reservoir keeps.
                let vn = feat_n.entry(key).or_default();
                let kept = vn.len();
                if let Some(j) = reservoir_slot(kept, cap, *s, &mut rng) {
                    let fn_ = extract(&r, bus);
                    let fc = fn_.rebased(&r, BusState::flushed());
                    let vc = feat_c.entry(key).or_default();
                    if j == kept {
                        vn.push(fn_);
                        vc.push(fc);
                    } else {
                        vn[j] = fn_;
                        vc[j] = fc;
                    }
                }
                bus.advance(&r);
            }
            // The replayed window re-executed its own stores; skip their log
            // entries.
            cursor = trace
                .store_offsets
                .get(w + 1)
                .copied()
                .unwrap_or(trace.store_log.len());
        }

        // Assemble per-instruction feature lists grouped by ascending
        // cluster id, with cluster-population weights.
        let mut features_normal: Vec<Vec<InstFeatures>> = vec![Vec::new(); n_static];
        let mut features_corrected: Vec<Vec<InstFeatures>> = vec![Vec::new(); n_static];
        let mut feature_weights: Vec<Vec<f64>> = vec![Vec::new(); n_static];
        let mut feature_clusters: Vec<Vec<u32>> = vec![Vec::new(); n_static];
        for idx in 0..n_static {
            let b = cfg.block_containing(idx).index();
            // terse-analyze: allow(AZ005): k is a small cluster count.
            for c in 0..k as u32 {
                let key = (idx, c);
                let Some(vn) = feat_n.get(&key) else { continue };
                let Some(vc) = feat_c.get(&key) else { continue };
                // Block executions over the cluster's windows; a window
                // boundary can split a block, so fall back to the observed
                // replay count if entry counting attributed them elsewhere.
                let execs = cluster_block[c as usize][b].max(seen.get(&key).copied().unwrap_or(0));
                let weight = execs as f64 / vn.len() as f64;
                features_normal[idx].extend_from_slice(vn);
                features_corrected[idx].extend_from_slice(vc);
                feature_weights[idx].extend(std::iter::repeat_n(weight, vn.len()));
                feature_clusters[idx].extend(std::iter::repeat_n(c, vn.len()));
            }
        }

        // Sampling-context digest: anything that changes which instructions
        // were actually simulated must change checkpoint contexts.
        let mut digest = fold(0xcbf2_9ce4_8422_2325, phase.window_size);
        digest = fold(digest, windows as u64);
        digest = fold(digest, k as u64);
        for &c in &clustering.assignment {
            digest = fold(digest, u64::from(c));
        }
        for &r in &clustering.representatives {
            digest = fold(digest, u64::from(r));
        }

        Ok(PhasedProfile {
            profile: ProfileResult {
                block_counts: trace.block_counts,
                edge_counts: trace.edge_counts,
                total_instructions: trace.total,
                features_normal,
                features_corrected,
                operand_reps: trace.operand_reps,
            },
            feature_weights,
            feature_clusters,
            block_rep_counts,
            windows_total: windows as u64,
            windows_simulated: k as u64,
            window_size: phase.window_size.max(1),
            covered_instructions,
            clustering,
            context_digest: digest,
        })
    }
}

/// Builds the k-means feature vector of each window: the L1-normalized
/// basic-block vector concatenated with the L1-normalized signature
/// histogram.
fn window_vectors(trace: &WindowTrace, n_blocks: usize) -> Vec<Vec<f64>> {
    let dims = n_blocks + CONE_COUNT * SIG_BUCKETS;
    trace
        .block_entries
        .iter()
        .zip(&trace.sig_hist)
        .map(|(bbv, hist)| {
            let mut v = Vec::with_capacity(dims);
            let bbv_total: u64 = bbv.iter().sum();
            for &e in bbv {
                v.push(if bbv_total > 0 {
                    e as f64 / bbv_total as f64
                } else {
                    0.0
                });
            }
            let hist_total: u64 = hist.iter().map(|&h| u64::from(h)).sum();
            for &h in hist {
                v.push(if hist_total > 0 {
                    f64::from(h) / hist_total as f64
                } else {
                    0.0
                });
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;

    fn memory_program() -> (Program, Cfg) {
        // A two-phase program touching memory: phase A sums an array, phase
        // B xors a register pattern; the array is re-read after mutation so
        // store-log replay must be faithful.
        let p = assemble(
            r"
            .data
            arr: .word 3, 1, 4, 1, 5, 9, 2, 6
            .text
                la   r1, arr
                addi r2, r0, 8
            suma:
                ld   r3, r1, 0
                add  r10, r10, r3
                st   r10, r1, 0
                addi r1, r1, 1
                addi r2, r2, -1
                bne  r2, r0, suma
                la   r1, arr
                addi r2, r0, 8
            sumb:
                ld   r3, r1, 0
                xor  r11, r11, r3
                slli r4, r11, 1
                or   r12, r12, r4
                addi r1, r1, 1
                addi r2, r2, -1
                bne  r2, r0, sumb
                st   r12, r0, 100
                halt
        ",
        )
        .unwrap();
        let cfg = Cfg::from_program(&p);
        (p, cfg)
    }

    #[test]
    fn exact_counts_survive_sampling() {
        let (p, cfg) = memory_program();
        let prof = Profiler::default();
        let exact = prof.profile(&p, &cfg, |_| {}).unwrap();
        let phased = prof
            .profile_phased(
                &p,
                &cfg,
                &PhaseConfig {
                    window_size: 8,
                    max_clusters: 3,
                    ..PhaseConfig::default()
                },
                |_| {},
            )
            .unwrap();
        assert_eq!(phased.profile.block_counts, exact.block_counts);
        assert_eq!(phased.profile.edge_counts, exact.edge_counts);
        assert_eq!(phased.profile.total_instructions, exact.total_instructions);
        assert_eq!(phased.profile.operand_reps, exact.operand_reps);
        assert!(phased.windows_simulated <= 3);
        assert!(phased.windows_total >= phased.windows_simulated);
        assert!(phased.covered_instructions <= phased.profile.total_instructions);
    }

    #[test]
    fn full_coverage_replay_is_bitwise_faithful() {
        // With every window its own cluster, replay walks the entire trace
        // in order: the reconstructed features must equal the exact
        // profiler's bit for bit (this exercises store-log reconstruction,
        // register snapshots and bus-state continuity across windows).
        let (p, cfg) = memory_program();
        let prof = Profiler {
            max_feature_samples: 1 << 20, // no reservoir eviction
            ..Profiler::default()
        };
        let exact = prof.profile(&p, &cfg, |_| {}).unwrap();
        let phased = prof
            .profile_phased(
                &p,
                &cfg,
                &PhaseConfig {
                    window_size: 5,
                    max_clusters: usize::MAX,
                    ..PhaseConfig::default()
                },
                |_| {},
            )
            .unwrap();
        assert_eq!(phased.windows_simulated, phased.windows_total);
        assert_eq!(phased.covered_instructions, exact.total_instructions);
        // Every window is a singleton cluster replayed in ascending order,
        // so per-instruction features line up in dynamic order too — but
        // grouped-by-cluster ordering only matches when clusters are
        // singletons in window order, which compaction guarantees here.
        for idx in 0..p.len() {
            let mut got_n = phased.profile.features_normal[idx].clone();
            let mut want_n = exact.features_normal[idx].clone();
            let sort_key = |f: &InstFeatures| {
                (
                    f.opcode as u8,
                    f.carry_chain,
                    f.shift_amount,
                    f.mul_width,
                    f.toggle_a,
                    f.toggle_b,
                )
            };
            got_n.sort_by_key(sort_key);
            want_n.sort_by_key(sort_key);
            assert_eq!(got_n, want_n, "features_normal at {idx}");
            let mut got_c = phased.profile.features_corrected[idx].clone();
            let mut want_c = exact.features_corrected[idx].clone();
            got_c.sort_by_key(sort_key);
            want_c.sort_by_key(sort_key);
            assert_eq!(got_c, want_c, "features_corrected at {idx}");
        }
    }

    #[test]
    fn weights_cover_cluster_populations() {
        let (p, cfg) = memory_program();
        let prof = Profiler::default();
        let phased = prof
            .profile_phased(
                &p,
                &cfg,
                &PhaseConfig {
                    window_size: 8,
                    max_clusters: 2,
                    ..PhaseConfig::default()
                },
                |_| {},
            )
            .unwrap();
        for idx in 0..p.len() {
            let w = &phased.feature_weights[idx];
            assert_eq!(w.len(), phased.profile.features_normal[idx].len());
            assert_eq!(w.len(), phased.feature_clusters[idx].len());
            assert!(w.iter().all(|&x| x > 0.0), "weights positive at {idx}");
            // Clusters ascend.
            let c = &phased.feature_clusters[idx];
            assert!(c.windows(2).all(|p| p[0] <= p[1]));
        }
        // Population bookkeeping is conserved.
        let total_windows: u64 = phased.clustering.populations.iter().sum();
        assert_eq!(total_windows, phased.windows_total);
        for (b, &rep) in phased.block_rep_counts.iter().enumerate() {
            assert!(rep <= phased.profile.block_counts[b]);
        }
    }

    #[test]
    fn kmeans_is_deterministic_across_thread_counts() {
        // Two well-separated families of vectors + noise dimensions.
        let vectors: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                let base = if i % 3 == 0 { 10.0 } else { 0.0 };
                (0..12)
                    .map(|d| base + ((i * 7 + d * 13) % 5) as f64 * 0.01)
                    .collect()
            })
            .collect();
        let reference = cluster_windows(&vectors, 2, 16, 42);
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| cluster_windows(&vectors, 2, 16, 42));
            assert_eq!(got, reference, "threads = {threads}");
        }
        // Separated families end up in different clusters.
        let c0 = reference.assignment[0];
        let c1 = reference.assignment[1];
        assert_ne!(c0, c1);
        for (i, &c) in reference.assignment.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(c, c0, "window {i}");
            } else {
                assert_eq!(c, c1, "window {i}");
            }
        }
    }

    #[test]
    fn representatives_are_members() {
        let vectors: Vec<Vec<f64>> = (0..33)
            .map(|i| vec![(i % 5) as f64, (i % 7) as f64])
            .collect();
        let c = cluster_windows(&vectors, 6, 16, 7);
        assert_eq!(c.assignment.len(), 33);
        assert_eq!(c.representatives.len(), c.populations.len());
        for (cl, &rep) in c.representatives.iter().enumerate() {
            assert_eq!(
                c.assignment[rep as usize] as usize, cl,
                "representative of cluster {cl} is not a member"
            );
            assert!(c.populations[cl] > 0);
        }
        let total: u64 = c.populations.iter().sum();
        assert_eq!(total, 33);
    }

    #[test]
    fn degenerate_inputs() {
        // Zero windows.
        let empty = cluster_windows(&[], 4, 8, 1);
        assert_eq!(empty.clusters(), 0);
        // More clusters than windows.
        let few = cluster_windows(&[vec![1.0], vec![2.0]], 10, 8, 1);
        assert!(few.clusters() <= 2);
        // All-identical windows collapse to one cluster's worth of content.
        let same = cluster_windows(&vec![vec![3.0, 1.0]; 9], 4, 8, 1);
        let total: u64 = same.populations.iter().sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn short_trace_single_window() {
        let p = assemble("addi r1, r0, 3\nadd r2, r1, r1\nhalt\n").unwrap();
        let cfg = Cfg::from_program(&p);
        let phased = Profiler::default()
            .profile_phased(&p, &cfg, &PhaseConfig::default(), |_| {})
            .unwrap();
        assert_eq!(phased.windows_total, 1);
        assert_eq!(phased.windows_simulated, 1);
        assert!((phased.coverage() - 1.0).abs() < 1e-15);
    }
}

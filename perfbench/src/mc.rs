//! `mc_grid`: the `ablation_mc` experiment at 1,024 chips. One profile,
//! train and estimate of `typeset` on Small inputs, then the packed
//! per-chip grid and the marginalized grid, and the Eq. 14 envelope
//! coverage of the marginalized counts.
//!
//! One op is one chip × input cell of either grid. A marginalized cell is
//! one program execution; per-chip cells run 64 at a time, one execution
//! per (lane group, input). Op latencies are taken per execution, so a
//! lane group's 64 cells give one sample. The output check compares one
//! digest per (lane group, input) of each grid, and a mismatch fails every
//! cell of the group.

use crate::check::Digest;
use crate::{Counters, Ctx, PassOut};
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;
use terse::{ErrorRateEstimate, Framework, Workload};
use terse_isa::{Cfg, Program};
use terse_sim::monte_carlo::{self, MonteCarloConfig, LANE_GROUP};
use terse_workloads::{BenchmarkSpec, DatasetSize};

/// Manufactured chips (and marginalized repetitions) per grid.
pub const CHIPS: usize = 1024;
/// Input draws per chip.
const INPUTS: usize = 4;

/// Set-up state of an `mc_grid` pass.
pub struct McState {
    framework: Framework,
    workload: Workload,
    spec: &'static BenchmarkSpec,
    program: Program,
}

/// Input `idx`'s dataset seed. The datasets are the same for every
/// workload seed, as in `ablation_mc`: a Small `typeset` input's length
/// is drawn from its seed, and the grid's work would follow it. The
/// workload seed draws the chips and the Monte Carlo streams.
fn input_seed(idx: usize) -> u64 {
    1000 + idx as u64
}

pub fn setup(ctx: &mut Ctx, counters: &mut Counters) -> Result<McState, String> {
    let framework = ctx
        .tracer
        .time("core.build", || {
            Framework::builder()
                .samples(INPUTS)
                .threads(crate::THREADS)
                .build()
        })
        .map_err(|e| format!("framework build: {e}"))?;
    crate::sweep::probe_build_layers(ctx, counters, Some(&framework))?;
    let (spec, program, workload) = ctx.tracer.time("isa.assemble", || {
        let spec = terse_workloads::by_name("typeset").expect("typeset is registered");
        let program = spec.program().map_err(|e| format!("assembly: {e}"))?;
        let mut w = Workload::new("typeset-mc", program.clone());
        for idx in 0..INPUTS {
            let (p, fill) = (program.clone(), spec.fill);
            w.push_input(move |m| fill(m, &p, input_seed(idx), DatasetSize::Small));
        }
        Ok::<_, String>((spec, program, w))
    })?;
    Ok(McState {
        framework,
        workload,
        spec,
        program,
    })
}

/// Digest of one (lane group, input) column slice of a count matrix.
fn group_digest(rows: &[Vec<u64>], input: usize) -> Digest {
    let mut d = Digest::new();
    for row in rows {
        d.word(row[input]);
    }
    d
}

/// Durations of the program executions whose starts were logged, in ms,
/// draining the log: each lasts until the next start on its thread. A
/// thread's last execution has no observed end and is left out.
fn execution_ms(starts: &mut Vec<(ThreadId, Instant)>) -> Vec<f64> {
    let mut by_thread: HashMap<ThreadId, Vec<Instant>> = HashMap::new();
    for (thread, at) in starts.drain(..) {
        by_thread.entry(thread).or_default().push(at);
    }
    let mut out = Vec::new();
    for mut t in by_thread.into_values() {
        t.sort();
        out.extend(t.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
    }
    out
}

/// Fraction of marginalized-MC CDF probe points inside the Eq. 14
/// envelope (with `ablation_mc`'s ±0.08 Monte Carlo slack).
fn envelope_coverage(est: &ErrorRateEstimate, marg: &[u64]) -> Result<f64, String> {
    let max_k = marg.iter().copied().max().unwrap_or(0).max(4);
    let (mut inside, mut total) = (0usize, 0usize);
    for k in (0..=max_k).step_by((max_k as usize / 12).max(1)) {
        let cdf = marg.iter().filter(|&&c| c <= k).count() as f64 / marg.len() as f64;
        let b = est
            .rate_cdf(k as f64 / est.total_instructions)
            .map_err(|e| format!("cdf: {e}"))?;
        inside += usize::from(b.lower - 0.08 <= cdf && cdf <= b.upper + 0.08);
        total += 1;
    }
    Ok(inside as f64 / total as f64)
}

pub fn run(st: McState, ctx: &mut Ctx, counters: Counters) -> Result<PassOut, String> {
    let mut out = PassOut::new(counters);
    let (fw, w) = (&st.framework, &st.workload);
    let (fill, program, seed) = (st.spec.fill, &st.program, ctx.seed);
    // The grids call `init` as each program execution starts; the starts
    // on one worker thread bracket that thread's executions.
    let starts: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
    let init = |idx: usize, m: &mut terse_sim::machine::Machine| {
        let now = Instant::now();
        starts
            .lock()
            .expect("start log lock is never held across a panic")
            .push((std::thread::current().id(), now));
        fill(m, program, input_seed(idx), DatasetSize::Small)
    };
    let mc_cfg = MonteCarloConfig {
        seed: seed ^ 0x4D43,
        ..MonteCarloConfig::default()
    };
    let t = Instant::now();
    let tr = &mut *ctx.tracer;
    tr.set_op(1);
    let cfg = tr.time("isa.cfg", || Cfg::from_program(w.program()));
    let profiles = tr
        .time("sim.profile", || fw.profile_workload(w, &cfg))
        .map_err(|e| format!("profile: {e}"))?;
    let model = tr
        .time("dta.train_cold", || fw.train_model(w, &cfg, &profiles))
        .map_err(|e| format!("train: {e}"))?;
    let est = tr
        .time("errmodel.estimate", || {
            fw.estimate(w, &cfg, &profiles, &model)
        })
        .map_err(|e| format!("estimate: {e}"))?;
    let chips = tr
        .time("mc.sample_chips", || fw.sample_chips(CHIPS, seed ^ 0xC41B))
        .map_err(|e| format!("chips: {e}"))?;
    tr.set_op(2);
    let counts = tr
        .time("mc.grid", || {
            monte_carlo::error_counts(
                w.program(),
                &model,
                &chips,
                INPUTS,
                fw.correction(),
                init,
                mc_cfg,
            )
        })
        .map_err(|e| format!("grid: {e}"))?;
    let mut op_ms = execution_ms(&mut starts.lock().expect("grid call returned"));
    tr.set_op(3);
    let marg = tr
        .time("mc.marginalized", || {
            monte_carlo::error_counts_marginalized(
                w.program(),
                &model,
                CHIPS,
                INPUTS,
                fw.correction(),
                init,
                mc_cfg,
            )
        })
        .map_err(|e| format!("marginalized grid: {e}"))?;
    op_ms.extend(execution_ms(
        &mut starts.lock().expect("grid call returned"),
    ));
    let coverage = tr.time("core.cdf", || envelope_coverage(&est, &marg))?;
    out.wall_s = t.elapsed().as_secs_f64();

    out.ops = 2 * (CHIPS * INPUTS) as u64;
    out.op_ms = op_ms;

    let mut d = Digest::new();
    for &x in est.lambda.samples() {
        d.f64(x);
    }
    d.f64(est.dk_lambda).f64(est.dk_count).f64(coverage);
    ctx.check.check("estimate", &d, 1);
    let marg_rows: Vec<Vec<u64>> = marg.chunks(INPUTS).map(<[u64]>::to_vec).collect();
    for (name, rows) in [("grid", &counts), ("marg", &marg_rows)] {
        for (g, group) in rows.chunks(LANE_GROUP).enumerate() {
            for input in 0..INPUTS {
                let key = format!("{name}/{g}/{input}");
                ctx.check
                    .check(&key, &group_digest(group, input), group.len() as u64);
            }
        }
    }
    crate::sweep::add_dta_counters(&mut out.counters, fw);
    let c = &mut out.counters;
    c.set("mc.cells", out.ops as f64);
    c.set("mc.lane_occupancy", monte_carlo::lane_occupancy(CHIPS));
    c.set("mc.envelope_coverage", coverage);
    c.set("isa.blocks", cfg.len() as f64);
    let instructions: u64 = profiles.iter().map(|p| p.total_instructions).sum();
    c.set("sim.profiled_instructions", instructions as f64);
    Ok(out)
}

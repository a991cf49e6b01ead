//! The two paper sweeps: `table2_large` (the Table 2 sweep plus the
//! Figure 3 CDF series on one shared framework) and `variation_ablation`
//! (the `ablation_spatial` shape, a fresh framework for every run).
//!
//! One op is one estimate: preflight, CFG, profile, train, estimate and
//! the Figure 3 CDF series of one program, called through `Framework`'s
//! public functions one by one so each layer gets its own span.

use crate::check::Digest;
use crate::{Counters, Ctx, PassOut};
use std::time::Instant;
use terse::{
    DegradationPolicy, Framework, OperatingConfig, OperatingPoint, PipelineConfig,
    TsPerformanceModel, VariationConfig, Workload,
};
use terse_isa::Cfg;
use terse_netlist::pipeline::PipelineNetlist;
use terse_sta::delay::DelayLibrary;
use terse_workloads::DatasetSize;

/// Data-variation samples of the Table 2 sweep (`HarnessConfig`'s).
const TABLE2_SAMPLES: usize = 4;
/// Data-variation samples of `ablation_spatial`.
const ABLATION_SAMPLES: usize = 3;

/// The three variation models of `ablation_spatial`, in its column order.
fn variation_models() -> [(&'static str, VariationConfig); 3] {
    [
        ("full", VariationConfig::default()),
        (
            "no_spatial",
            VariationConfig::default().without_spatial_correlation(),
        ),
        ("disabled", VariationConfig::disabled()),
    ]
}

/// Set-up state of a sweep pass.
pub struct Sweep {
    programs: Vec<Workload>,
    /// The shared framework (`table2_large` only).
    framework: Option<Framework>,
}

fn assemble(ctx: &mut Ctx, samples: usize) -> Result<Vec<Workload>, String> {
    let seed = ctx.seed;
    ctx.tracer.time("isa.assemble", || {
        terse_workloads::all()
            .iter()
            .map(|spec| spec.workload(DatasetSize::Large, samples, seed))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("workload assembly: {e}"))
    })
}

fn build_framework(
    ctx: &mut Ctx,
    samples: usize,
    variation: VariationConfig,
) -> Result<Framework, String> {
    ctx.tracer.time("core.build", || {
        Framework::builder()
            .samples(samples)
            .variation(variation)
            .threads(crate::THREADS)
            .build()
            .map_err(|e| format!("framework build: {e}"))
    })
}

/// Traced set-ups re-run, on their own, the two steps `Framework::build`
/// performs (netlist generation, then SSTA and the operating point) so
/// each gets its own span, and time a DTA engine's construction on the
/// set-up's framework, if it has one.
pub fn probe_build_layers(
    ctx: &mut Ctx,
    counters: &mut Counters,
    framework: Option<&Framework>,
) -> Result<(), String> {
    if !ctx.tracer.enabled() {
        return Ok(());
    }
    let pipeline = ctx
        .tracer
        .time("netlist.build", || {
            PipelineNetlist::build(PipelineConfig::default())
        })
        .map_err(|e| format!("netlist: {e}"))?;
    counters.set("netlist.gates", pipeline.netlist().gate_count() as f64);
    ctx.tracer
        .time("sta.operating", || {
            OperatingPoint::derive(
                pipeline.netlist(),
                &DelayLibrary::normalized_45nm(),
                VariationConfig::default(),
                OperatingConfig::default(),
            )
        })
        .map_err(|e| format!("operating point: {e}"))?;
    if let Some(fw) = framework {
        ctx.tracer
            .time("sta.engine", || fw.engine().map(drop))
            .map_err(|e| format!("engine: {e}"))?;
    }
    Ok(())
}

pub fn setup_table2(ctx: &mut Ctx, counters: &mut Counters) -> Result<Sweep, String> {
    let framework = build_framework(ctx, TABLE2_SAMPLES, VariationConfig::default())?;
    probe_build_layers(ctx, counters, Some(&framework))?;
    let programs = assemble(ctx, TABLE2_SAMPLES)?;
    Ok(Sweep {
        programs,
        framework: Some(framework),
    })
}

pub fn setup_ablation(ctx: &mut Ctx, counters: &mut Counters) -> Result<Sweep, String> {
    probe_build_layers(ctx, counters, None)?;
    let programs = assemble(ctx, ABLATION_SAMPLES)?;
    Ok(Sweep {
        programs,
        framework: None,
    })
}

/// One estimate through the layers, returning the digest of its outputs:
/// the bits of every λ sample, `dk_lambda`, `dk_count` and the Figure 3
/// CDF series.
fn estimate_op(
    ctx: &mut Ctx,
    counters: &mut Counters,
    fw: &Framework,
    w: &Workload,
    cold: bool,
) -> Result<Digest, String> {
    let t = &mut *ctx.tracer;
    let pre = t
        .time("analyze.preflight", || fw.preflight(w))
        .map_err(|e| format!("preflight: {e}"))?;
    counters.add("analyze.diagnostics", pre.diagnostics().len() as f64);
    if fw.degradation() == DegradationPolicy::Strict && pre.has_errors() {
        return Err(format!("preflight refused: {}", pre.render_text()));
    }
    let cfg = t.time("isa.cfg", || Cfg::from_program(w.program()));
    counters.add("isa.blocks", cfg.len() as f64);
    let profiles = t
        .time("sim.profile", || fw.profile_workload(w, &cfg))
        .map_err(|e| format!("profile: {e}"))?;
    let instructions: u64 = profiles.iter().map(|p| p.total_instructions).sum();
    counters.add("sim.profiled_instructions", instructions as f64);
    let train = if cold { "dta.train_cold" } else { "dta.train" };
    let model = t
        .time(train, || fw.train_model(w, &cfg, &profiles))
        .map_err(|e| format!("train: {e}"))?;
    let est = t
        .time("errmodel.estimate", || {
            fw.estimate(w, &cfg, &profiles, &model)
        })
        .map_err(|e| format!("estimate: {e}"))?;
    let series = t
        .time("core.cdf", || {
            est.rate_cdf_series(33, 4.0, TsPerformanceModel::paper_default())
        })
        .map_err(|e| format!("cdf series: {e}"))?;
    let mut d = Digest::new();
    for &x in est.lambda.samples() {
        d.f64(x);
    }
    d.f64(est.dk_lambda).f64(est.dk_count);
    for p in &series {
        d.f64(p.rate).f64(p.lower).f64(p.nominal).f64(p.upper);
    }
    Ok(d)
}

/// Adds a framework's accumulated DTA counters to the pass counters.
pub fn add_dta_counters(counters: &mut Counters, fw: &Framework) {
    let c = fw.cosim_stats();
    counters.add("dta.cosim_cycles", c.cycles as f64);
    counters.add("dta.gates_evaluated", c.gates_evaluated as f64);
    counters.add("dta.tape_ops_skipped", c.tape_ops_skipped as f64);
    if let Some(s) = fw.dta_cache_stats() {
        counters.add("dta.cache_hits", s.hits as f64);
        counters.add("dta.cache_misses", s.misses as f64);
        counters.add("dta.cache_evictions", s.evictions as f64);
        counters.add("dta.interner_hits", s.interner_hits as f64);
    }
    if let Some(s) = fw.prescreen_stats() {
        counters.add("dta.prescreen_pairs_total", s.pairs_total as f64);
        counters.add("dta.prescreen_pairs_pruned", s.pairs_pruned as f64);
    }
}

/// Runs one op under its own root span, times it and checks its output.
fn timed_op(
    ctx: &mut Ctx,
    out: &mut PassOut,
    key: &str,
    op: impl FnOnce(&mut Ctx, &mut Counters) -> Result<Digest, String>,
) {
    ctx.tracer.set_op(out.op_ms.len() as u64 + 1);
    let span = ctx.tracer.enter("op");
    let t = Instant::now();
    let result = op(ctx, &mut out.counters);
    out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    ctx.tracer.exit(span);
    match result {
        Ok(d) => ctx.check.check(key, &d, 1),
        Err(e) => ctx.check.error(key, &e, 1),
    }
    out.ops += 1;
}

pub fn run_table2(sweep: Sweep, ctx: &mut Ctx, counters: Counters) -> Result<PassOut, String> {
    let fw = sweep.framework.expect("table2 set-up builds the framework");
    let mut out = PassOut::new(counters);
    let t = Instant::now();
    for (i, w) in sweep.programs.iter().enumerate() {
        timed_op(ctx, &mut out, w.name(), |ctx, c| {
            estimate_op(ctx, c, &fw, w, i == 0)
        });
    }
    out.wall_s = t.elapsed().as_secs_f64();
    add_dta_counters(&mut out.counters, &fw);
    Ok(out)
}

pub fn run_ablation(sweep: Sweep, ctx: &mut Ctx, counters: Counters) -> Result<PassOut, String> {
    let mut out = PassOut::new(counters);
    let t = Instant::now();
    for w in &sweep.programs {
        for (model, variation) in variation_models() {
            let key = format!("{}/{model}", w.name());
            let mut fw = None;
            timed_op(ctx, &mut out, &key, |ctx, c| {
                let f = fw.insert(build_framework(ctx, ABLATION_SAMPLES, variation)?);
                estimate_op(ctx, c, f, w, true)
            });
            if let Some(f) = &fw {
                add_dta_counters(&mut out.counters, f);
            }
        }
    }
    out.wall_s = t.elapsed().as_secs_f64();
    Ok(out)
}

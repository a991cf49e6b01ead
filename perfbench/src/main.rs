//! End-to-end benchmark of TERSE. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a host record, one line per metric, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--held-out` swaps the seed pool for the held-out input
//! seed; `--record` rewrites the workload's output reference.

mod check;
mod jobs;
mod mc;
mod sweep;
mod trace;

use check::Checker;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use terse_serve::json::Value;
use trace::Tracer;

/// Input seed without `--seed`: `HarnessConfig`'s default.
const DEFAULT_SEED: u64 = 0xDAC19;
/// Input seeds `--seed n` draws from: `SEED_POOL[n % 8]`. A Large
/// dataset's size is drawn from its seed, and over the seeds
/// `0xDAC19..0xDB001` a sweep's dynamic instruction count spans
/// 2.08–3.56 M. These are the eight seeds of that range whose datasets
/// come closest to the range's median in four counts: all programs and
/// `basicmath` alone (the slowest op), under 4 samples (`table2_large`)
/// and under 3 (`variation_ablation`); each is within 1.7% of it. So
/// every seed measures the same amount of work.
const SEED_POOL: [u64; 8] = [
    0xDACDD, 0xDAE95, 0xDADA4, 0xDAF15, 0xDAD92, 0xDAF2F, 0xDAFF3, 0xDAF2A,
];
/// Input seed kept out of the pool (the ninth closest by the same
/// measure): a gain claimed on the pool is rechecked on it with
/// `--held-out`.
const HELD_OUT_SEED: u64 = 0xDAC39;

/// The workloads, each with the fewest passes a run makes. A run starts
/// passes until `--seconds` have elapsed and it has made that many;
/// `table2_large` needs eleven so that eleven samples of its slowest op
/// always hold its latency tail. `variation_ablation` and `job_queue` are
/// not in `BENCHMARK.json` (see the README) but run the same way.
const WORKLOADS: [(&str, usize); 4] = [
    ("table2_large", 11),
    ("variation_ablation", 2),
    ("mc_grid", 3),
    ("job_queue", 3),
];

/// Set-ups timed per run, at least (extra ones are dropped unused).
const MIN_SETUPS: usize = 7;

/// Worker threads of every framework and Monte Carlo grid. One: a pass
/// then times the program's own work and not how the host schedules a
/// fan-out across cores shared with other tenants; a single thread ran
/// steadier from run to run than one per core. Outputs are the same for
/// any thread count.
pub const THREADS: usize = 1;

/// End-to-end metrics (`--trace 0`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_ms", "ms"),
    ("op_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`); a layer a workload does not call
/// reads 0. Names ending in `_ms` are span self times.
const PER_LAYER: [(&str, &str); 35] = [
    ("netlist.build_ms", "ms"),
    ("netlist.gates", "count"),
    ("sta.operating_ms", "ms"),
    ("sta.engine_ms", "ms"),
    ("core.build_ms", "ms"),
    ("analyze.preflight_ms", "ms"),
    ("analyze.diagnostics", "count"),
    ("isa.cfg_ms", "ms"),
    ("isa.blocks", "count"),
    ("sim.profile_ms", "ms"),
    ("sim.profiled_instructions", "count"),
    ("sim.profile_minst_per_s", "Minst/s"),
    ("dta.train_ms", "ms"),
    ("dta.train_cold_ms", "ms"),
    ("dta.cosim_cycles", "count"),
    ("dta.gates_evaluated", "count"),
    ("dta.tape_ops_skipped", "count"),
    ("dta.cache_hits", "count"),
    ("dta.cache_misses", "count"),
    ("dta.cache_evictions", "count"),
    ("dta.cache_hit_rate", "ratio"),
    ("dta.interner_hits", "count"),
    ("dta.prescreen_pairs_total", "count"),
    ("dta.prescreen_pairs_pruned", "count"),
    ("errmodel.estimate_ms", "ms"),
    ("core.cdf_ms", "ms"),
    ("mc.sample_chips_ms", "ms"),
    ("mc.grid_ms", "ms"),
    ("mc.marginalized_ms", "ms"),
    ("mc.cells", "count"),
    ("mc.lane_occupancy", "ratio"),
    ("mc.envelope_coverage", "ratio"),
    ("bench.op_self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Per-layer metrics of the job server, printed by `job_queue` only.
const SERVE_LAYER: [(&str, &str); 7] = [
    ("serve.submit_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.attempts", "count"),
    ("serve.requeues", "count"),
    ("serve.failed", "count"),
    ("serve.claim_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
];

/// A pass with at least this many op latencies gets its own p50 and tail,
/// and the run reports their medians over passes, so one stalled pass
/// cannot set the tail; smaller passes are pooled.
const PER_PASS_LATENCY_OPS: usize = 1000;

/// Everything a set-up or pass needs from the run.
pub struct Ctx<'a> {
    pub workload: &'static str,
    pub tracer: &'a mut Tracer,
    pub check: &'a mut Checker,
    /// Workers of the job server: one per core.
    pub workers: usize,
    /// Input seed of this run.
    pub seed: u64,
    /// Scratch directory inside the benchmark's own directory.
    pub work_dir: PathBuf,
}

/// Named per-pass counters.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

/// What one timed pass produced.
pub struct PassOut {
    pub wall_s: f64,
    /// Latency of every op, in ms.
    pub op_ms: Vec<f64>,
    /// Ops completed (the unit of `ops_per_s`).
    pub ops: u64,
    pub counters: Counters,
}

impl PassOut {
    pub fn new(counters: Counters) -> Self {
        PassOut {
            wall_s: 0.0,
            op_ms: Vec::new(),
            ops: 0,
            counters,
        }
    }
}

/// Median (mean of the middle two for an even count); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at the highest percentile with at least ten samples beyond
/// it, with that percentile; `None` below eleven samples.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = WORKLOADS
                    .iter()
                    .map(|w| w.0)
                    .find(|w| *w == name)
                    .ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                        format!("--workload must be one of {}", names.join(", "))
                    })?;
            }
            "--seed" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.seed = SEED_POOL[(n % SEED_POOL.len() as u64) as usize];
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--held-out" => args.seed = HELD_OUT_SEED,
            "--record" => args.record = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One workload's set-up and pass, generic over its set-up state.
type SetupFn<S> = fn(&mut Ctx, &mut Counters) -> Result<S, String>;
type PassFn<S> = fn(S, &mut Ctx, Counters) -> Result<PassOut, String>;

/// How many passes a run makes.
struct Plan {
    seconds: f64,
    min_passes: usize,
    trace: bool,
}

/// A measured run: per-pass results and set-up times.
struct Run {
    setup_s: Vec<f64>,
    passes: Vec<PassOut>,
    traced: Vec<bool>,
}

fn measure<S>(
    ctx: &mut Ctx,
    plan: &Plan,
    setup: SetupFn<S>,
    pass: PassFn<S>,
) -> Result<Run, String> {
    let mut run = Run {
        setup_s: Vec::new(),
        passes: Vec::new(),
        traced: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0;
    loop {
        let more_passes =
            run.passes.len() < plan.min_passes || start.elapsed().as_secs_f64() < plan.seconds;
        if !more_passes && run.setup_s.len() >= MIN_SETUPS {
            break;
        }
        // A traced run alternates traced and untraced passes, so the
        // tracing overhead is measured inside one process.
        let traced = plan.trace && more_passes && run.passes.len() % 2 == 1;
        ctx.tracer.begin_pass(i, traced);
        let mut counters = Counters::default();
        let t = Instant::now();
        let state = setup(ctx, &mut counters)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        if more_passes {
            let out = pass(state, ctx, counters)?;
            eprintln!(
                "pass {}: set-up {:.4} s, wall {:.4} s{}",
                run.passes.len(),
                run.setup_s[i],
                out.wall_s,
                if traced { " (traced)" } else { "" }
            );
            run.passes.push(out);
            run.traced.push(traced);
        }
        i += 1;
    }
    Ok(run)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from the checkout's own `.git` (the
/// benchmark may also run from an exported tree, which has none).
fn git_revision() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(name)
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {name}")))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// The end-to-end metrics, with a note on how the latency tail was taken.
fn end_to_end(run: &Run) -> (Vec<(&'static str, f64)>, String) {
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = run.passes.iter().map(|p| p.ops as f64 / p.wall_s).collect();
    let per_pass = run
        .passes
        .iter()
        .all(|p| p.op_ms.len() >= PER_PASS_LATENCY_OPS);
    let groups: Vec<Vec<f64>> = if per_pass {
        run.passes.iter().map(|p| p.op_ms.clone()).collect()
    } else {
        vec![run.passes.iter().flat_map(|p| p.op_ms.clone()).collect()]
    };
    let p50s: Vec<f64> = groups.iter().map(|g| median(g)).collect();
    let tails: Vec<(f64, f64)> = groups.iter().filter_map(|g| tail(g)).collect();
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pct = tails.first().map_or(f64::NAN, |t| t.1);
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let note = if per_pass {
        format!(
            "op latencies: p50 and tail (p{pct:.2}) per pass of {}..{} ops, median over {} passes",
            sizes.iter().min().unwrap_or(&0),
            sizes.iter().max().unwrap_or(&0),
            groups.len()
        )
    } else {
        format!("op latencies: tail is p{pct:.2} of {} ops", sizes[0])
    };
    (
        vec![
            ("setup_s", median(&run.setup_s)),
            ("wall_s", median(&walls)),
            ("ops_per_s", median(&rates)),
            ("op_latency_p50_ms", median(&p50s)),
            ("op_latency_tail_ms", median(&tail_ms)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        note,
    )
}

fn per_layer(
    run: &Run,
    tracer: &Tracer,
    names: &[(&'static str, &str)],
) -> Vec<(&'static str, f64)> {
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut walls = (Vec::new(), Vec::new());
    for (i, (p, &on)) in run.passes.iter().zip(&run.traced).enumerate() {
        if !on {
            walls.0.push(p.wall_s);
            continue;
        }
        walls.1.push(p.wall_s);
        let mut m: BTreeMap<String, f64> = p
            .counters
            .0
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        let own = tracer.self_ms(i);
        for (name, ms) in &own {
            let key = if *name == "op" {
                "bench.op_self_ms".to_owned()
            } else {
                format!("{name}_ms")
            };
            m.insert(key, *ms);
        }
        let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let instr = get(&m, "sim.profiled_instructions");
        let prof_ms = get(&m, "sim.profile_ms");
        if prof_ms > 0.0 {
            m.insert("sim.profile_minst_per_s".into(), instr / prof_ms / 1e3);
        }
        let (hits, misses) = (get(&m, "dta.cache_hits"), get(&m, "dta.cache_misses"));
        if hits + misses > 0.0 {
            m.insert("dta.cache_hit_rate".into(), hits / (hits + misses));
        }
        m.insert("trace.spans".into(), tracer.span_count(i) as f64);
        traced.push(m);
    }
    let overhead_ms = (median(&walls.1) - median(&walls.0)) * 1e3;
    names
        .iter()
        .map(|&(name, _)| {
            if name == "trace.overhead_ms" {
                return (name, overhead_ms);
            }
            let v: Vec<f64> = traced
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&v))
        })
        .collect()
}

fn metrics_value(metrics: &[(&'static str, f64)], units: &[(&str, &str)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, v)| {
                let unit = units.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
                (
                    name.to_owned(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn run_workload(ctx: &mut Ctx, plan: &Plan) -> Result<Run, String> {
    match ctx.workload {
        "table2_large" => measure(ctx, plan, sweep::setup_table2, sweep::run_table2),
        "variation_ablation" => measure(ctx, plan, sweep::setup_ablation, sweep::run_ablation),
        "mc_grid" => measure(ctx, plan, mc::setup, mc::run),
        "job_queue" => measure(ctx, plan, jobs::setup, jobs::run),
        w => Err(format!("unknown workload `{w}`")),
    }
}

/// Rewrites the workload's reference from one pass per input seed: the
/// default, the pool and the held-out seed.
fn record(ctx: &mut Ctx) -> Result<(), String> {
    let seeds: Vec<u64> = [DEFAULT_SEED, HELD_OUT_SEED]
        .into_iter()
        .chain(SEED_POOL)
        .collect();
    for &seed in &seeds {
        ctx.seed = seed;
        ctx.check.set_seed(seed);
        let plan = Plan {
            seconds: 0.0,
            min_passes: 1,
            trace: false,
        };
        run_workload(ctx, &plan)?;
    }
    let path = ctx
        .check
        .save()
        .map_err(|e| format!("writing reference: {e}"))?;
    eprintln!(
        "recorded {} ops over {} seeds into {}",
        ctx.check.attempted,
        seeds.len(),
        path.display()
    );
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let mut tracer = Tracer::new();
    let mut check = Checker::open(args.workload, args.record)?;
    check.set_seed(args.seed);
    let mut ctx = Ctx {
        workload: args.workload,
        tracer: &mut tracer,
        check: &mut check,
        workers: cores,
        seed: args.seed,
        work_dir: work_dir.clone(),
    };
    // Parallel calls made outside a framework (the Monte Carlo grids, the
    // traced set-up probes) take their thread count from this pool.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    if args.record {
        return pool.install(|| record(&mut ctx));
    }
    let min_passes = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or(1, |w| w.1);
    let plan = Plan {
        seconds: args.seconds,
        // A traced run needs an untraced and a traced pass.
        min_passes: if args.trace {
            min_passes.max(2)
        } else {
            min_passes
        },
        trace: args.trace,
    };
    let run = pool.install(|| run_workload(&mut ctx, &plan))?;

    let mut units = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    if args.trace && args.workload == "job_queue" {
        units.extend(SERVE_LAYER);
    }
    let metrics = if args.trace {
        let path = work_dir.join(format!("trace-{}-{:x}.jsonl", args.workload, args.seed));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        per_layer(&run, &tracer, &units)
    } else {
        let (m, note) = end_to_end(&run);
        println!("# {note}");
        m
    };
    let host = format!(
        r#"{{"workload":"{}","input_seed":"{:#x}","available_parallelism":{cores},"threads":{THREADS},"workers":{cores},"revision":"{}","passes":{},"setups":{},"traced":{}}}"#,
        args.workload,
        args.seed,
        git_revision(),
        run.passes.len(),
        run.setup_s.len(),
        args.trace
    );
    println!("# host {host}");
    for &(name, v) in &metrics {
        let unit = units.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
        println!("# {name} = {v} {unit}");
    }
    for m in check.mismatches() {
        eprintln!("output mismatch: {m}");
    }
    let correct = check.failed == 0;
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
        check.attempted,
        check.failed,
        metrics_value(&metrics, &units).render()
    );
    if !correct {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((10.0, 50.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}

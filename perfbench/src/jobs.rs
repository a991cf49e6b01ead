//! `job_queue`: a mixed batch of estimation jobs submitted to a fresh
//! `JobStore` and drained by `serve` with one worker per core.
//!
//! The batch mixes `job_throughput`'s shapes: plain jobs, jobs whose
//! `block_budget` forces TERSECP1 requeues, and Monte Carlo jobs with and
//! without a cell budget (TERSEMC1 requeues). One op is one job. Every job
//! is submitted before the server starts, so a job's latency, and its wait
//! for a worker, count from the moment the server starts.

use crate::check::Digest;
use crate::{median, Counters, Ctx, PassOut};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;
use terse_serve::{deterministic_section, serve, ExecutorConfig, JobSpec, JobStore};

/// Jobs per batch.
pub const JOBS: usize = 48;

const KERNELS: [&str; 3] = [
    r"li r1, 3\nli r2, 0xF0F0\nloop: add r3, r3, r2\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
    r"li r1, 4\nli r2, 0x0F0F\nloop: xor r3, r3, r2\nadd r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nadd r5, r4, r2\nhalt\n",
    r"li r1, 2\nli r2, 0x00FF\nloop: slli r3, r2, 1\nor r4, r4, r3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
];

fn job_id(i: usize) -> String {
    format!("job-{i:04}")
}

/// Job `i` of the batch; its input draws and Monte Carlo streams follow
/// the workload seed.
fn batch_spec(i: usize, seed: u64) -> Result<JobSpec, String> {
    let kernel = KERNELS[i % KERNELS.len()];
    let grid = if i.is_multiple_of(2) {
        "[1.4]"
    } else {
        "[1.3,1.5]"
    };
    let extra = match i % 4 {
        0 => "",
        1 => r#","block_budget":1"#,
        2 => r#","chips":2,"mc_inputs":2"#,
        _ => r#","chips":2,"mc_inputs":2,"mc_cell_budget":3"#,
    };
    // JSON numbers are read as f64: keep the seed exactly representable.
    let job_seed = (seed ^ i as u64) & ((1 << 53) - 1);
    JobSpec::from_json(&format!(
        r#"{{"id":"{}","workload":{{"asm":"{kernel}","name":"bench-k{}"}},"samples":1,"seed":{job_seed},"threads":1,"grid":{grid},"checkpoint_every":2{extra}}}"#,
        job_id(i),
        i % KERNELS.len()
    ))
    .map_err(|e| format!("job spec {i}: {e}"))
}

/// Set-up state: a store holding the submitted, not yet served batch.
pub struct Queue {
    store: JobStore,
    root: PathBuf,
}

impl Drop for Queue {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn setup(ctx: &mut Ctx, _counters: &mut Counters) -> Result<Queue, String> {
    let root = ctx.work_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ctx
        .tracer
        .time("serve.open", || JobStore::open(&root))
        .map_err(|e| format!("store open: {e}"))?;
    let queue = Queue { store, root };
    let seed = ctx.seed;
    ctx.tracer.time("serve.submit", || {
        (0..JOBS).try_for_each(|i| {
            queue
                .store
                .submit(&batch_spec(i, seed)?)
                .map_err(|e| format!("submit {i}: {e}"))
        })
    })?;
    Ok(queue)
}

pub fn run(queue: Queue, ctx: &mut Ctx, counters: Counters) -> Result<PassOut, String> {
    let mut out = PassOut::new(counters);
    let events: Mutex<Vec<(Instant, String)>> = Mutex::new(Vec::new());
    let cfg = ExecutorConfig {
        workers: ctx.workers,
        drain: true,
        poll_ms: 2,
        ..ExecutorConfig::default()
    };
    let t = Instant::now();
    let stats = ctx
        .tracer
        .time("serve.drain", || {
            serve(&queue.store, &cfg, &AtomicBool::new(false), |line| {
                let now = Instant::now();
                events
                    .lock()
                    .expect("event log lock is never held across a panic")
                    .push((now, line.to_owned()));
            })
        })
        .map_err(|e| format!("serve: {e}"))?;
    out.wall_s = t.elapsed().as_secs_f64();

    // Event lines read `w<k> <job id> <what>`; keep each job's first start
    // and its completion.
    let mut started: BTreeMap<String, Instant> = BTreeMap::new();
    let mut done: BTreeMap<String, Instant> = BTreeMap::new();
    let events = events.into_inner().expect("event log lock is free");
    for (at, line) in &events {
        let mut f = line.split_whitespace().skip(1);
        match (f.next(), f.next()) {
            (Some(id), Some("running")) => {
                started.entry(id.to_owned()).or_insert(*at);
            }
            (Some(id), Some("done")) => {
                done.insert(id.to_owned(), *at);
            }
            _ => {}
        }
    }
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let (mut waits, mut services) = (Vec::new(), Vec::new());
    for i in 0..JOBS {
        let id = job_id(i);
        let checked = match (started.get(&id), done.get(&id)) {
            (Some(&s), Some(&d)) => {
                out.op_ms.push(ms(t, d));
                waits.push(ms(t, s));
                services.push(ms(s, d));
                queue
                    .store
                    .read_report(&id)
                    .and_then(|r| deterministic_section(&r))
                    .map_err(|e| e.to_string())
            }
            _ => Err("job did not complete".to_owned()),
        };
        match checked {
            Ok(section) => ctx
                .check
                .check(&id, Digest::new().bytes(section.as_bytes()), 1),
            Err(e) => ctx.check.error(&id, &e, 1),
        }
    }
    out.ops = JOBS as u64;
    let c = &mut out.counters;
    c.set("serve.attempts", stats.attempts as f64);
    c.set("serve.requeues", stats.requeued as f64);
    c.set("serve.failed", stats.failed as f64);
    c.set("serve.claim_wait_ms", median(&waits));
    c.set("serve.service_ms", median(&services));
    Ok(out)
}

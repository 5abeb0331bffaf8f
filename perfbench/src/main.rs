//! Repository benchmark for the UniVSA stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <infer-single|retrain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark drives the library through
//! its public calls only, makes every input from `--seed`, checks every
//! answer, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A line before it records the run's provenance: seed, `nproc`, pool
//! width, kernel tier, git commit, operation counts and `error_rate`.
//! With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
//! the run measures half its time untraced and half traced (the
//! benchmark's own spans around each call plus the pool and allocator
//! counters) and reports the per-layer metrics; the spans, with their self
//! times, go to `perfbench/out/trace-<workload>.jsonl`.
//!
//! Every workload runs from one process with one client, on a worker pool
//! as wide as the machine (`available_parallelism`). Setup generates the
//! six Table I tasks, trains each paper configuration on a short budget,
//! compiles, saves, loads and schedules it, then warms both serving paths.
//!
//! The end-to-end metrics come from the raw times of the calls a run
//! makes: `latency_p50_us` and `latency_p99_us` are percentiles of the
//! serving calls' durations, `infer_sps` is the samples served over the
//! serving loop's wall time, `retrain_s` the median wall time of the
//! run's fit → compile → save → load → schedule cycles, and `setup_s` the
//! median wall time of `SETUPS` setups. Checks stay outside every time.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::Duration;

use univsa::json::{self, Json};
use univsa_par::StageStats;

use workload::{Ctx, Phase, Requests, Stack};

/// The workloads and why each exists.
const WORKLOADS: [(&str, &str); 2] = [
    (
        "infer-single",
        "closed loop of single PackedModel::infer calls over a seeded uniform six-task mix: \
         isolates the packed forward pass and the bits kernels with no pool involved, the bypass \
         workload for any univsa-par change",
    ),
    (
        "retrain",
        "fit, compile, save, load and schedule each of the six tasks in turn, serving held-out \
         samples between swaps: the write side of the univsa layer the infer workloads read, and \
         the heaviest user of univsa-nn, univsa-tensor and the train.* pool regions",
    ),
];

/// Setups per untraced run; `setup_s` is the median of their wall times.
const SETUPS: usize = 5;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .find(|name| *name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples classified per second of the serving loop's wall time.
fn infer_sps(phase: &Phase) -> f64 {
    phase.calls.len() as f64 / (phase.serve_ns as f64 / 1e9)
}

fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile of sorted values, with the count beyond it.
fn percentile(sorted: &[u64], q: f64) -> (u64, usize) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Process peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the start of the workload's seeded stream (its first
/// requests, or the first retrain fit seeds), so two seeds can be told
/// apart from the output.
fn request_digest(workload: &str, seed: u64) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01B3);
    if workload == "retrain" {
        (0..16).for_each(|c| mix(workload::fit_seed(seed, c)));
    } else {
        let mut requests = Requests::new(seed);
        for _ in 0..1000 {
            let r = requests.next();
            mix(r.task as u64);
            mix(r.sample as u64);
        }
    }
    format!("{h:016x}")
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Runs the workload's timed phase for `dur`.
fn timed(
    ctx: &mut Ctx,
    args: &Args,
    stack: &mut Stack,
    first_cycle: usize,
    dur: Duration,
) -> Result<Phase, String> {
    let seed = args.seed;
    match args.workload {
        "infer-single" => workload::serve(ctx, stack, seed, Requests::new(seed), dur),
        _ => Ok(workload::retrain(ctx, stack, seed, first_cycle, dur)),
    }
}

/// `cycles` are the write-path cycles of one budget: the setup and hot-swap
/// cycles of a serving workload, the timed cycles of `retrain`.
fn end_to_end(phase: &Phase, setups: &[u64], cycles: &[u64]) -> Result<Metrics, String> {
    let mut calls: Vec<u64> = phase.calls.iter().map(|c| c.1).collect();
    calls.sort_unstable();
    let (p50, _) = percentile(&calls, 0.50);
    let (p99, beyond) = percentile(&calls, 0.99);
    eprintln!(
        "serving calls: {}, {beyond} beyond p99{}",
        calls.len(),
        if beyond < 10 {
            " (fewer than 10: run longer)"
        } else {
            ""
        }
    );
    Ok(vec![
        ("setup_s".into(), median_ns(setups) / 1e9, "s"),
        ("infer_sps".into(), infer_sps(phase), "samples/s"),
        ("latency_p50_us".into(), p50 as f64 / 1e3, "us"),
        ("latency_p99_us".into(), p99 as f64 / 1e3, "us"),
        ("retrain_s".into(), median_ns(cycles) / 1e9, "s"),
        ("peak_rss_mb".into(), peak_rss_mib()?, "MiB"),
    ])
}

/// The figure tracing could slow: serving time per sample on
/// `infer-single`, the median cycle time on `retrain`.
fn primary(workload: &str, phase: &Phase) -> f64 {
    if workload == "retrain" {
        median_ns(&phase.cycles)
    } else {
        1.0 / infer_sps(phase)
    }
}

const TRAIN_STAGES: [&str; 5] = [
    "value_maps",
    "conv_fwd",
    "conv_bwd",
    "encode_fwd",
    "encode_bwd",
];

/// The pool's per-stage counters of one phase.
type PoolStats = BTreeMap<&'static str, StageStats>;

/// Per-layer metrics from the traced run's spans and pool counters, taken
/// per phase (the traced setup, then the traced half of the timed phase),
/// and from the served models.
///
/// Each layer metric and the end-to-end metric it should move; on the
/// bypass workload the prediction is no change:
///
/// | layer | metrics | should move | bypass |
/// |---|---|---|---|
/// | univsa read path | `core.infer_us.<TASK>`, `core.infer_allocs` | `latency_p50_us`, `latency_p99_us`, `infer_sps` on infer-single | retrain (`retrain_s`) |
/// | univsa-bits | `bits.plane_bytes.<TASK>` (computed from `storage_bits`) | `infer_sps` on infer-single | retrain (`retrain_s`) |
/// | univsa-par | `par.train.{regions,dispatch_ms}` | `retrain_s` on retrain | infer-single (serving metrics) |
/// | univsa-nn, univsa-tensor | `nn.*_ms`, `core.fit_s.<TASK>`, `core.fit_allocs` | `retrain_s` on retrain | infer-single (serving metrics) |
/// | univsa write path | `core.{compile,save_packed,load_packed}_ms` | `retrain_s`; `setup_s` on the serving workloads | — |
/// | univsa-hw | `hw.schedule_ms`, `hw.makespan_cycles.<TASK>` (simulated, repeats exactly) | `retrain_s` | serving metrics |
/// | univsa-data | `data.generate_ms` | `setup_s` | — |
/// | benchmark | `client.overhead_frac`, `trace.overhead_frac` | — | — |
///
/// A figure comes from the timed phase when the workload's timed phase
/// makes that call, else from the traced setup.
///
/// `core.infer_us.<TASK>` is a mean, so that on infer-single the
/// mix-weighted figure plus the client's own time is exactly the mean call
/// latency; the other per-call times are medians.
fn per_layer(
    workload: &str,
    ctx: &Ctx,
    stack: &Stack,
    split: usize,
    pools: [&PoolStats; 2],
    untraced: &Phase,
    traced: &Phase,
) -> Metrics {
    let (setup, timed) = ctx.tracer.spans().split_at(split);
    let spans_of = |name: &str| {
        if timed.iter().any(|s| s.name == name) {
            timed
        } else {
            setup
        }
    };
    let durations = |name: &str, task| trace::durations(spans_of(name), name, task);
    let ms = |name: &str| median_ns(&durations(name, None)) / 1e6;
    let mean_allocs = |name: &str| {
        let spans: Vec<_> = spans_of(name).iter().filter(|s| s.name == name).collect();
        spans.iter().map(|s| s.allocs).sum::<u64>() as f64 / spans.len().max(1) as f64
    };
    let stage = |name: &str| {
        let [setup, timed] = pools;
        timed
            .get(name)
            .or_else(|| setup.get(name))
            .copied()
            .unwrap_or_default()
    };
    let names: Vec<&String> = stack.data.tasks.iter().map(|t| &t.spec.name).collect();
    let mut m: Metrics = Vec::new();

    // univsa read path
    for (t, name) in names.iter().enumerate() {
        let d = durations("infer", Some(t));
        let mean = d.iter().sum::<u64>() as f64 / d.len().max(1) as f64;
        m.push((format!("core.infer_us.{name}"), mean / 1e3, "us"));
    }
    m.push(("core.infer_allocs".into(), mean_allocs("infer"), "count"));
    // univsa-bits: every packed plane is read once per inference
    for (t, name) in names.iter().enumerate() {
        let bytes = stack.models[t].loaded.storage_bits() as f64 / 8.0;
        m.push((format!("bits.plane_bytes.{name}"), bytes, "bytes"));
    }
    // univsa-par
    let dispatch_ns =
        |s: &StageStats| s.wall_ns as f64 - s.busy_ns as f64 / s.max_workers.max(1) as f64;
    let cycles = durations("cycle", None).len().max(1) as f64;
    let train: Vec<StageStats> = TRAIN_STAGES
        .iter()
        .map(|st| stage(&format!("train.{st}")))
        .collect();
    m.push((
        "par.train.regions".into(),
        train.iter().map(|s| s.regions).sum::<u64>() as f64 / cycles,
        "count",
    ));
    m.push((
        "par.train.dispatch_ms".into(),
        train.iter().map(dispatch_ns).sum::<f64>() / cycles / 1e6,
        "ms",
    ));
    // univsa-nn / univsa-tensor: busy time of the matching train.* stage
    for (st, stats) in TRAIN_STAGES.iter().zip(&train) {
        m.push((
            format!("nn.{st}_ms"),
            stats.busy_ns as f64 / cycles / 1e6,
            "ms",
        ));
    }
    for (t, name) in names.iter().enumerate() {
        let fit = median_ns(&durations("fit", Some(t))) / 1e9;
        m.push((format!("core.fit_s.{name}"), fit, "s"));
    }
    m.push(("core.fit_allocs".into(), mean_allocs("fit"), "count"));
    // univsa write path
    m.push(("core.compile_ms".into(), ms("compile"), "ms"));
    m.push(("core.save_packed_ms".into(), ms("save_packed"), "ms"));
    m.push(("core.load_packed_ms".into(), ms("load_packed"), "ms"));
    // univsa-hw
    m.push(("hw.schedule_ms".into(), ms("schedule"), "ms"));
    for (t, name) in names.iter().enumerate() {
        let cycles = stack.models[t].makespan as f64;
        m.push((format!("hw.makespan_cycles.{name}"), cycles, "cycles"));
    }
    // univsa-data
    m.push(("data.generate_ms".into(), ms("data.generate"), "ms"));
    // the benchmark itself: the serving loops' self time, and what tracing
    // cost the figure each workload is about
    let self_ns = ctx.tracer.self_times_ns();
    let (mut own, mut wall) = (0u64, 0u64);
    for (s, own_ns) in ctx.tracer.spans().iter().zip(&self_ns) {
        if s.name == "serve" {
            own += own_ns;
            wall += s.duration_ns();
        }
    }
    m.push((
        "client.overhead_frac".into(),
        own as f64 / wall.max(1) as f64,
        "fraction",
    ));
    m.push((
        "trace.overhead_frac".into(),
        primary(workload, traced) / primary(workload, untraced) - 1.0,
        "fraction",
    ));
    m
}

/// Self time summed per span name, for the stderr summary.
fn self_time_table(ctx: &Ctx) -> BTreeMap<&'static str, (usize, u64)> {
    let mut table: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
    for (s, own) in ctx.tracer.spans().iter().zip(ctx.tracer.self_times_ns()) {
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    table
}

fn write_trace(ctx: &Ctx, stack: &Stack, workload: &str) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{workload}.jsonl");
    let names: Vec<String> = stack
        .data
        .tasks
        .iter()
        .map(|t| t.spec.name.clone())
        .collect();
    std::fs::write(&path, ctx.tracer.to_jsonl(&names)).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn run(args: &Args, ctx: &mut Ctx) -> Result<Metrics, String> {
    let dur = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (mut setups, mut setup_cycles, mut stack) = (Vec::new(), Vec::new(), None);
        for _ in 0..SETUPS {
            let (s, setup_ns, cycle_ns) = workload::setup(ctx, args.seed)?;
            setups.push(setup_ns);
            setup_cycles.push(cycle_ns);
            stack = Some(s);
        }
        let mut stack = stack.expect("at least one setup");
        let phase = timed(ctx, args, &mut stack, 0, dur)?;
        let mut cycles = if args.workload == "retrain" {
            Vec::new()
        } else {
            setup_cycles
        };
        cycles.extend(&phase.cycles);
        return end_to_end(&phase, &setups, &cycles);
    }

    // traced run: untraced half first (allocation counting, once on,
    // stays on), then a traced setup and the traced half, with the pool
    // counters read per phase
    let (mut stack, _, _) = workload::setup(ctx, args.seed)?;
    let untraced = timed(ctx, args, &mut stack, 0, dur / 2)?;
    ctx.tracer.enable();
    univsa_par::reset_stats();
    let (mut stack, _, _) = workload::setup(ctx, args.seed)?;
    let setup_pool: PoolStats = univsa_par::stats().into_iter().collect();
    univsa_par::reset_stats();
    let split = ctx.tracer.spans().len();
    let traced = timed(ctx, args, &mut stack, untraced.cycles.len(), dur / 2)?;
    let timed_pool: PoolStats = univsa_par::stats().into_iter().collect();

    let metrics = per_layer(
        args.workload,
        ctx,
        &stack,
        split,
        [&setup_pool, &timed_pool],
        &untraced,
        &traced,
    );
    if args.workload == "infer-single" {
        let weighted: f64 = metrics
            .iter()
            .filter(|(name, _, _)| name.starts_with("core.infer_us."))
            .zip(0..)
            .map(|((_, us, _), t)| {
                let calls = traced.calls.iter().filter(|(r, _)| r.task == t).count();
                *us * calls as f64 / traced.calls.len() as f64
            })
            .sum();
        let mean = traced.serve_ns as f64 / traced.calls.len() as f64 / 1e3;
        eprintln!(
            "mix-weighted core.infer_us {weighted:.2} us = {:.4} of the mean call {mean:.2} us",
            weighted / mean
        );
    }
    for (name, (count, own)) in self_time_table(ctx) {
        eprintln!(
            "self time {name:18} {count:8} span(s) {:12.3} ms",
            own as f64 / 1e6
        );
    }
    eprintln!("trace: wrote {}", write_trace(ctx, &stack, args.workload)?);
    Ok(metrics)
}

fn result_line(correct: bool, ctx: &Ctx, metrics: &Metrics) -> String {
    let fields = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value, None)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(ctx.attempted as f64, Some(ctx.attempted)),
        ),
        (
            "failed".into(),
            Json::Num(ctx.failed as f64, Some(ctx.failed)),
        ),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    let mut out = String::new();
    json::write(&doc, &mut out);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <infer-single|retrain> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    univsa_par::set_threads(nproc);
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, w)| *w);

    let mut ctx = Ctx::new();
    let outcome = run(&args, &mut ctx);
    let error_rate = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    let provenance = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.into())),
        ("why".into(), Json::Str(why.unwrap_or_default().into())),
        ("seed".into(), Json::Num(args.seed as f64, Some(args.seed))),
        ("seconds".into(), Json::Num(args.seconds, None)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Num(nproc as f64, Some(nproc as u64))),
        (
            "pool_width".into(),
            Json::Num(univsa_par::threads() as f64, None),
        ),
        (
            "kernel_tier".into(),
            Json::Str(univsa_bits::kernels::active().name().into()),
        ),
        ("git_commit".into(), Json::Str(git_commit())),
        (
            "request_digest".into(),
            Json::Str(request_digest(args.workload, args.seed)),
        ),
        (
            "attempted".into(),
            Json::Num(ctx.attempted as f64, Some(ctx.attempted)),
        ),
        (
            "failed".into(),
            Json::Num(ctx.failed as f64, Some(ctx.failed)),
        ),
        ("error_rate".into(), Json::Num(error_rate, None)),
    ]);
    let mut line = String::new();
    json::write(
        &Json::Obj(vec![("provenance".into(), provenance)]),
        &mut line,
    );
    println!("{line}");

    match outcome {
        Ok(metrics) => {
            for (name, value, unit) in &metrics {
                eprintln!("{name:32} {value:>16.4} {unit}");
            }
            eprintln!(
                "{:32} {error_rate:>16.4} fraction ({} of {} ops failed)",
                "error_rate", ctx.failed, ctx.attempted
            );
            println!("{}", result_line(ctx.failed == 0, &ctx, &metrics));
        }
        Err(e) => {
            eprintln!("error: {e}");
            println!("{}", result_line(false, &ctx, &Vec::new()));
            std::process::exit(1);
        }
    }
}

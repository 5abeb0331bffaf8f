//! Setup, the two timed phases and the correctness gate.
//!
//! Everything here reaches the library through its public calls only:
//! `UniVsaTrainer::fit`, `PackedModel::{compile, infer, infer_batch}`,
//! `save_packed`/`load_packed`, `UniVsaModel::infer` (the reference
//! oracle), `Pipeline::schedule` and the `univsa_data::tasks` generators.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use univsa::{
    load_packed, save_packed, PackedModel, TrainOptions, UniVsaConfig, UniVsaModel, UniVsaTrainer,
};
use univsa_data::{tasks, Dataset, Sample, Task};
use univsa_hw::{HwConfig, Pipeline};

use crate::trace::Tracer;

/// Requests per task pool: drift-free `drift_stream` samples the serving
/// workloads draw from. The six pools (about 340 KB) stay in a core's
/// cache, as a request just received would, and every sample recurs many
/// times a run.
pub const POOL: usize = 64;

/// Samples streamed through `Pipeline::schedule` per task.
const HW_STREAM: usize = 64;

/// `Pipeline::schedule(HW_STREAM).makespan` of each Table I paper
/// configuration, in `tasks::all` order. The simulator is cycle-exact and
/// depends on the configuration only, so every run must repeat these.
pub const EXPECTED_MAKESPAN: [u64; 6] = [591_911, 55_502, 850_866, 2_358_194, 370_185, 332_987];

/// Pool samples per task whose `compiled` and `loaded` predictions are
/// compared after every fit → compile → save → load cycle.
const ROUND_TRIP_CHECKS: usize = 16;

/// Served samples per task re-classified by the reference
/// `UniVsaModel::infer`: the first distinct ones an `infer-single` phase
/// requested, and per `retrain` cycle the first of each held-out slice.
const REFERENCE_CHECKS: usize = 16;

/// Sizes of the two setup warm-up batches.
const WARM_SMALL: usize = 8;
const WARM_LARGE: usize = 256;

/// A fixed training budget for one fit per task.
pub struct Budget {
    /// Training samples per task (taken at an even stride through the
    /// split, so every class is represented); `None` is the full split.
    samples: Option<usize>,
    epochs: usize,
}

/// Setup trains only enough to have models to serve: per-inference cost
/// depends on the configuration, not on how well the weights are trained.
pub const SETUP_BUDGET: Budget = Budget {
    samples: Some(32),
    epochs: 1,
};

/// The retrain workload's budget: one epoch over each full training split.
pub const RETRAIN_BUDGET: Budget = Budget {
    samples: None,
    epochs: 1,
};

/// Outcome counters of one run: every timed call and every check is an
/// attempted operation; an error, a wrong prediction or a failed check is
/// a failed one.
pub struct Ctx {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx {
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts one call whose failure leaves nothing to continue with.
    fn must<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }
}

/// Small seeded generator for request streams and fit seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The six Table I tasks and their request pools.
pub struct Data {
    pub tasks: Vec<Task>,
    pub pools: Vec<Vec<Sample>>,
}

/// One task's model in its three forms.
pub struct Deployed {
    /// The trained model: the reference oracle.
    pub reference: UniVsaModel,
    /// `PackedModel::compile(reference)`.
    pub compiled: PackedModel,
    /// `load_packed(save_packed(compiled))`: the hot-swapped model that
    /// serves.
    pub loaded: PackedModel,
    pub makespan: u64,
}

pub struct Stack {
    pub data: Data,
    pub models: Vec<Deployed>,
}

/// What a timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Every serving call: its request and duration in nanoseconds.
    pub calls: Vec<(Request, u64)>,
    /// Wall time of the serving loops, client work included.
    pub serve_ns: u64,
    /// Wall time of every fit → compile → save → load → schedule cycle over
    /// the six tasks, serving and checks excluded.
    pub cycles: Vec<u64>,
}

fn paper_config(task: &Task) -> Result<UniVsaConfig, String> {
    let (d_h, d_l, d_k, o, theta) = tasks::paper_config_tuple(&task.spec.name)
        .ok_or_else(|| format!("no paper config for {}", task.spec.name))?;
    UniVsaConfig::for_task(&task.spec)
        .d_h(d_h)
        .d_l(d_l)
        .d_k(d_k)
        .out_channels(o)
        .voters(theta)
        .build()
        .map_err(|e| e.to_string())
}

impl Budget {
    fn split<'a>(&self, task: &'a Task) -> Result<Cow<'a, Dataset>, String> {
        let full = &task.train;
        match self.samples {
            Some(k) if k < full.len() => {
                let picked = (0..k)
                    .map(|i| full.samples()[i * full.len() / k].clone())
                    .collect();
                Dataset::new(task.spec.clone(), picked).map(Cow::Owned)
            }
            _ => Ok(Cow::Borrowed(full)),
        }
    }
}

/// Generates the six tasks and their request pools from `seed`.
fn generate(ctx: &mut Ctx, seed: u64) -> Result<Data, String> {
    let (data, _) = ctx.tracer.call("data.generate", None, || {
        let tasks = tasks::all(seed);
        let pools = tasks
            .iter()
            .map(|t| tasks::drift_stream(&t.spec.name, seed, POOL, None))
            .collect::<Option<Vec<_>>>();
        pools.map(|pools| Data { tasks, pools })
    });
    ctx.must(data.ok_or("unknown task name"), "data generation")
}

/// One task's fit → compile → save_packed → load_packed → schedule pass.
/// Returns the model and the pass's wall time in nanoseconds; checks are
/// left to [`check_cycle`] so they stay outside the time.
fn deploy(
    ctx: &mut Ctx,
    task: &Task,
    t: usize,
    budget: &Budget,
    fit_seed: u64,
) -> Result<(Deployed, u64), String> {
    let start = Instant::now();
    let options = TrainOptions {
        epochs: budget.epochs,
        ..TrainOptions::default()
    };
    let trainer = UniVsaTrainer::new(paper_config(task)?, options);
    let train = budget.split(task)?;
    let (fit, _) = ctx
        .tracer
        .call("fit", Some(t), || trainer.fit(&train, fit_seed));
    let reference = ctx.must(fit, "fit")?.model;
    let (compiled, _) = ctx
        .tracer
        .call("compile", Some(t), || PackedModel::compile(&reference));
    ctx.attempted += 1;
    let (bytes, _) = ctx
        .tracer
        .call("save_packed", Some(t), || save_packed(&compiled));
    let bytes = ctx.must(bytes, "save_packed")?;
    let (loaded, _) = ctx
        .tracer
        .call("load_packed", Some(t), || load_packed(&bytes));
    let loaded = ctx.must(loaded, "load_packed")?;
    let (schedule, _) = ctx.tracer.call("schedule", Some(t), || {
        Pipeline::new(HwConfig::new(reference.config())).schedule(HW_STREAM)
    });
    ctx.attempted += 1;
    let deployed = Deployed {
        reference,
        compiled,
        loaded,
        makespan: schedule.makespan,
    };
    Ok((deployed, start.elapsed().as_nanos() as u64))
}

/// One [`deploy`] pass over all six tasks. Returns the models and the sum
/// of the passes' wall times in nanoseconds.
fn cycle(
    ctx: &mut Ctx,
    data: &Data,
    budget: &Budget,
    fit_seed: u64,
) -> Result<(Vec<Deployed>, u64), String> {
    ctx.tracer.open("cycle", None);
    let mut models = Vec::with_capacity(data.tasks.len());
    let mut total_ns = 0;
    for (t, task) in data.tasks.iter().enumerate() {
        let (model, ns) = deploy(ctx, task, t, budget, fit_seed)?;
        models.push(model);
        total_ns += ns;
    }
    ctx.tracer.close();
    Ok((models, total_ns))
}

/// The cycle's checks: the simulated makespan repeats the recorded value,
/// and the hot-swapped artifact predicts like the model it was saved from.
pub fn check_cycle(ctx: &mut Ctx, data: &Data, models: &[Deployed]) {
    for (t, m) in models.iter().enumerate() {
        let name = &data.tasks[t].spec.name;
        ctx.check(m.makespan == EXPECTED_MAKESPAN[t], || {
            format!(
                "{name}: makespan {} cycles, recorded {}",
                m.makespan, EXPECTED_MAKESPAN[t]
            )
        });
        for sample in &data.pools[t][..ROUND_TRIP_CHECKS] {
            let a = m.compiled.infer(&sample.values).ok();
            let b = m.loaded.infer(&sample.values).ok();
            ctx.check(a.is_some() && a == b, || {
                format!("{name}: save/load round trip predicts {b:?}, compiled model {a:?}")
            });
        }
    }
}

/// One task's warm-up answers: each pool sample served alone, then the
/// small and the large warm-up batch.
struct WarmUp {
    singles: Vec<Option<usize>>,
    batches: [(&'static str, Option<Vec<usize>>); 2],
}

/// Serves each task's pool once per sample and in one small and one large
/// batch, so lazy set-up (kernel dispatch, first pool spawn, first touch
/// of the planes) finishes before timing.
fn warm_up(ctx: &mut Ctx, data: &Data, models: &[Deployed]) -> Vec<WarmUp> {
    let mut out = Vec::with_capacity(models.len());
    for (t, m) in models.iter().enumerate() {
        let pool: Vec<&[u8]> = data.pools[t].iter().map(|s| s.values.as_slice()).collect();
        let large: Vec<&[u8]> = (0..WARM_LARGE).map(|k| pool[k % POOL]).collect();
        let mut singles = Vec::with_capacity(POOL);
        for values in &pool {
            let (r, _) = ctx.tracer.call("infer", Some(t), || m.loaded.infer(values));
            ctx.attempted += 1;
            singles.push(r.ok());
        }
        let (small, _) = ctx.tracer.call("infer_batch", Some(t), || {
            m.loaded.infer_batch(&pool[..WARM_SMALL])
        });
        let (large, _) = ctx
            .tracer
            .call("infer_batch", Some(t), || m.loaded.infer_batch(&large));
        ctx.attempted += 2;
        out.push(WarmUp {
            singles,
            batches: [("small", small.ok()), ("large", large.ok())],
        });
    }
    out
}

/// Every warm-up batch label equals the single-sample answer for the same
/// sample.
fn check_warm_up(ctx: &mut Ctx, data: &Data, warm: &[WarmUp]) {
    for (t, w) in warm.iter().enumerate() {
        let name = &data.tasks[t].spec.name;
        for (what, batch) in &w.batches {
            let agrees = batch.as_ref().is_some_and(|b| {
                b.iter()
                    .enumerate()
                    .all(|(k, x)| w.singles[k % POOL] == Some(*x))
            });
            ctx.check(agrees, || {
                format!("{name}: {what} warm-up batch disagrees with single-sample calls")
            });
        }
    }
}

/// Builds the serving stack: data, a setup-budget cycle and the warm-up.
/// Returns it with the wall time of the whole setup and that of its cycle,
/// both in nanoseconds and with the checks excluded.
pub fn setup(ctx: &mut Ctx, seed: u64) -> Result<(Stack, u64, u64), String> {
    let start = Instant::now();
    ctx.tracer.open("setup", None);
    let data = generate(ctx, seed)?;
    let (models, cycle_ns) = cycle(ctx, &data, &SETUP_BUDGET, seed)?;
    let warm = warm_up(ctx, &data, &models);
    ctx.tracer.close();
    let setup_ns = start.elapsed().as_nanos() as u64;
    check_cycle(ctx, &data, &models);
    check_warm_up(ctx, &data, &warm);
    Ok((Stack { data, models }, setup_ns, cycle_ns))
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

const SINGLE_SALT: u64 = 0x5153_494E_474C_4531;

/// One request: a task and the index of the sample it classifies, in the
/// task's request pool (serving) or held-out split (retrain).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Request {
    pub task: usize,
    pub sample: usize,
}

/// The seeded request stream of `infer-single`: every request picks a task
/// and a pool sample uniformly at random.
pub struct Requests(SplitMix);

impl Requests {
    pub fn new(seed: u64) -> Self {
        Self(SplitMix::new(seed ^ SINGLE_SALT))
    }

    pub fn next(&mut self) -> Request {
        Request {
            task: self.0.below(6),
            sample: self.0.below(POOL),
        }
    }
}

/// Time between hot swaps in the serving loop.
const SWAP_EVERY: Duration = Duration::from_secs(5);

/// The closed serving loop of `infer-single`: one client sends its next
/// request when the previous one returns, for `dur`. Every `SWAP_EVERY` the
/// client refits the setup budget and hot-swaps the loaded artifacts in:
/// the same seed gives the same models, and the cycles, spread over the
/// run, time the write path as `retrain_s`.
pub fn serve(
    ctx: &mut Ctx,
    stack: &mut Stack,
    seed: u64,
    mut requests: Requests,
    dur: Duration,
) -> Result<Phase, String> {
    let Stack { data, models } = stack;
    let mut phase = Phase::default();
    let mut labels = Vec::new();
    ctx.tracer.open("serve", None);
    let start = Instant::now();
    let mut segment = start;
    loop {
        let now = Instant::now();
        if now - start >= dur {
            break;
        }
        if now - segment >= SWAP_EVERY {
            phase.serve_ns += (now - segment).as_nanos() as u64;
            ctx.tracer.close();
            let (fresh, ns) = cycle(ctx, data, &SETUP_BUDGET, seed)?;
            check_cycle(ctx, data, &fresh);
            *models = fresh;
            phase.cycles.push(ns);
            ctx.tracer.open("serve", None);
            segment = Instant::now();
        }
        let req = requests.next();
        let model = &models[req.task].loaded;
        let values = &data.pools[req.task][req.sample].values;
        let (r, ns) = ctx
            .tracer
            .call("infer", Some(req.task), || model.infer(values));
        phase.calls.push((req, ns));
        labels.push(r.ok());
    }
    phase.serve_ns += segment.elapsed().as_nanos() as u64;
    ctx.tracer.close();
    check_served(ctx, stack, &phase.calls, &labels);
    Ok(phase)
}

/// Every request's label agrees with every other request for the same
/// sample, and a seeded subset (the first distinct samples each task's
/// stream asked for) agrees with the reference `UniVsaModel::infer`.
fn check_served(ctx: &mut Ctx, stack: &Stack, calls: &[(Request, u64)], labels: &[Option<usize>]) {
    let tasks = stack.models.len();
    let mut table: Vec<Vec<Option<usize>>> = vec![vec![None; POOL]; tasks];
    let mut first_seen: Vec<Vec<usize>> = vec![Vec::new(); tasks];
    for ((req, _), label) in calls.iter().zip(labels) {
        ctx.attempted += 1;
        let Some(label) = *label else {
            ctx.failed += 1;
            continue;
        };
        let seen = &mut table[req.task][req.sample];
        match *seen {
            Some(prev) if prev != label => {
                ctx.failed += 1;
                eprintln!("request {req:?}: label {label}, earlier answer {prev}");
            }
            Some(_) => {}
            None => {
                *seen = Some(label);
                if first_seen[req.task].len() < REFERENCE_CHECKS {
                    first_seen[req.task].push(req.sample);
                }
            }
        }
    }
    for (t, picked) in first_seen.iter().enumerate() {
        let m = &stack.models[t];
        for &idx in picked {
            let truth = m.reference.infer(&stack.data.pools[t][idx].values).ok();
            let got = table[t][idx];
            ctx.check(truth.is_some() && truth == got, || {
                format!(
                    "{} pool sample {idx}: packed {got:?}, reference {truth:?}",
                    stack.data.tasks[t].spec.name
                )
            });
        }
    }
}

/// Mixes a cycle number into the run seed so every retrain fits afresh.
pub fn fit_seed(seed: u64, cycle: usize) -> u64 {
    SplitMix::new(seed ^ (cycle as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The `retrain` loop: each iteration is one cycle over the six tasks. The
/// service keeps answering held-out traffic while it retrains: after each
/// task's artifact is hot-swapped in, the client serves one slice of every
/// task's held-out split (sample `i` is in slice `i % 6`), one sample per
/// call, with the models loaded at that moment, so over a cycle every
/// held-out sample is served once and the serving calls of every task
/// spread over the whole run. A cycle's time is the sum of its six deploy
/// passes, serving and checks excluded. A new iteration starts only if the
/// last one would still fit in `dur` (at least one always runs).
pub fn retrain(
    ctx: &mut Ctx,
    stack: &mut Stack,
    seed: u64,
    first_cycle: usize,
    dur: Duration,
) -> Phase {
    let tasks = stack.models.len();
    // the setup's models, trained on the setup budget, serve until their
    // task is first retrained and stay out of the accuracy gate
    let mut retrained = vec![false; tasks];
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut n = first_cycle;
    'cycles: while n == first_cycle || start.elapsed() + last <= dur {
        let iter_start = Instant::now();
        let mut gate = Accuracy::default();
        let mut cycle_ns = 0;
        ctx.tracer.open("cycle", None);
        for t in 0..tasks {
            let task = &stack.data.tasks[t];
            match deploy(ctx, task, t, &RETRAIN_BUDGET, fit_seed(seed, n)) {
                Ok((model, ns)) => {
                    stack.models[t] = model;
                    retrained[t] = true;
                    cycle_ns += ns;
                }
                Err(e) => {
                    eprintln!("retrain cycle {n}: {e}");
                    ctx.tracer.close();
                    break 'cycles;
                }
            }
            let served = serve_slice(ctx, stack, t, &mut phase);
            check_slice(ctx, stack, t, &served, &retrained, &mut gate);
        }
        ctx.tracer.close();
        phase.cycles.push(cycle_ns);
        check_cycle(ctx, &stack.data, &stack.models);
        gate.check(ctx);
        last = iter_start.elapsed();
        n += 1;
    }
    phase
}

/// Held-out samples of one task in slice `slice`, with their indices.
fn slice_of(test: &Dataset, slice: usize, slices: usize) -> impl Iterator<Item = (usize, &Sample)> {
    test.samples()
        .iter()
        .enumerate()
        .skip(slice)
        .step_by(slices)
}

/// Serves slice `slice` of every task's held-out split with the models
/// loaded now; returns each task's labels in slice order.
fn serve_slice(
    ctx: &mut Ctx,
    stack: &Stack,
    slice: usize,
    phase: &mut Phase,
) -> Vec<Vec<Option<usize>>> {
    let tasks = stack.models.len();
    ctx.tracer.open("serve", None);
    let start = Instant::now();
    let mut out = Vec::with_capacity(tasks);
    for (t, m) in stack.models.iter().enumerate() {
        let mut labels = Vec::new();
        for (i, sample) in slice_of(&stack.data.tasks[t].test, slice, tasks) {
            let (r, ns) = ctx
                .tracer
                .call("infer", Some(t), || m.loaded.infer(&sample.values));
            phase.calls.push((Request { task: t, sample: i }, ns));
            labels.push(r.ok());
        }
        out.push(labels);
    }
    phase.serve_ns += start.elapsed().as_nanos() as u64;
    ctx.tracer.close();
    out
}

/// Held-out accuracy of one retrain cycle against the class-prior chance
/// rate (the accuracy of guessing each label with its class's held-out
/// frequency), pooled over the six tasks: one epoch leaves some tasks,
/// EEGMMI among them, at chance on their own.
#[derive(Default)]
struct Accuracy {
    correct: usize,
    chance: f64,
    total: usize,
}

impl Accuracy {
    fn check(&self, ctx: &mut Ctx) {
        if self.total == 0 {
            return;
        }
        let accuracy = self.correct as f64 / self.total as f64;
        let chance = self.chance / self.total as f64;
        ctx.check(accuracy > chance, || {
            format!(
                "pooled held-out accuracy {accuracy:.4} not above class-prior chance {chance:.4}"
            )
        });
    }
}

/// Checks of one served slice: every call answered, the first samples of
/// each task agree with the reference oracle of the model that served
/// them, and the labels of retrained models count toward the cycle's
/// accuracy gate.
fn check_slice(
    ctx: &mut Ctx,
    stack: &Stack,
    slice: usize,
    served: &[Vec<Option<usize>>],
    retrained: &[bool],
    gate: &mut Accuracy,
) {
    let tasks = stack.models.len();
    for (t, labels) in served.iter().enumerate() {
        let test = &stack.data.tasks[t].test;
        let name = &stack.data.tasks[t].spec.name;
        let samples = slice_of(test, slice, tasks).map(|(_, s)| s);
        for (k, (sample, got)) in samples.zip(labels).enumerate() {
            ctx.attempted += 1;
            let Some(label) = *got else {
                ctx.failed += 1;
                continue;
            };
            if k < REFERENCE_CHECKS.div_ceil(tasks) {
                let truth = stack.models[t].reference.infer(&sample.values).ok();
                ctx.check(truth == Some(label), || {
                    format!("{name} held-out sample: packed {label}, reference {truth:?}")
                });
            }
            if retrained[t] {
                gate.correct += usize::from(label == sample.label);
                gate.total += 1;
            }
        }
        if retrained[t] {
            let n = test.len() as f64;
            let chance: f64 = test
                .class_counts()
                .iter()
                .map(|&c| (c as f64 / n).powi(2))
                .sum();
            gate.chance += chance * labels.len() as f64;
        }
    }
}

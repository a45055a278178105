//! Per-layer probes: the benchmark rebuilds a workload's representative
//! statement from the engine's public pieces — model, plan cache, pilot,
//! estimator, sequential/batched/parallel driver — and times each call.
//! The model is wrapped in [`Timed`], which meters the kernel
//! (`step`/`step_batch`) from outside the engine.

use crate::check::Answer;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use mlss_core::estimator::{run_sequential, run_sequential_batched, Estimator, Ledger};
use mlss_core::gmlss::GMlssConfig;
use mlss_core::model::{SimulationModel, Time};
use mlss_core::parallel::{run_parallel, ParallelConfig};
use mlss_core::partition::balanced_plan;
use mlss_core::plan_cache::PlanCache;
use mlss_core::query::{Problem, RatioValue, StateScore};
use mlss_core::rng::{SimRng, StreamFactory};
use mlss_core::spec::{target_control, BALANCED_PLAN_KEY, DEFAULT_PLAN_LEVELS, PILOT_PATHS};
use mlss_core::srs::SrsEstimator;
use mlss_models::{position_score, surplus_score, CompoundPoisson, JumpDistribution, RandomWalk};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Kernel calls are timed one in [`SAMPLE`] and the sampled time is
/// scaled back up; counts accumulate per thread and reach the shared
/// counters every [`FLUSH`] calls, when the thread exits, and when the
/// meter is read. At the default width the engine steps one lane per
/// call, so timing or an atomic add on every call would cost as much as
/// the step itself and distort the frontier time it is subtracted from.
const SAMPLE: u64 = 16;
const FLUSH: u64 = 1024;

/// Kernel counters of every thread, read and reset by [`Timed::take`].
/// One probe runs at a time, so one set serves every wrapped model.
static KERNEL_NS: AtomicU64 = AtomicU64::new(0);
static ALIVE: AtomicU64 = AtomicU64::new(0);
static LANES: AtomicU64 = AtomicU64::new(0);

/// Per-thread kernel counters not yet flushed, and the sampling stream.
struct Local {
    rng: u64,
    calls: u64,
    ns: u64,
    alive: u64,
    lanes: u64,
}

impl Local {
    fn flush(&mut self) {
        KERNEL_NS.fetch_add(std::mem::take(&mut self.ns), Ordering::Relaxed);
        ALIVE.fetch_add(std::mem::take(&mut self.alive), Ordering::Relaxed);
        LANES.fetch_add(std::mem::take(&mut self.lanes), Ordering::Relaxed);
    }
}

/// A worker thread of the parallel driver exits before the driver
/// returns; its last counts reach the shared counters here.
impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { rng: 0x9E37_79B9_7F4A_7C15, calls: 0, ns: 0, alive: 0, lanes: 0 })
    };
}

/// Cost of one `Instant::now()` + `elapsed()` pair, subtracted from every
/// timed call.
fn timer_ns() -> u64 {
    static NS: OnceLock<u64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut v: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// A model wrapper that meters kernel time and lane occupancy.
pub struct Timed<M> {
    inner: M,
}

impl<M: SimulationModel> Timed<M> {
    pub fn new(inner: M) -> Self {
        Timed { inner }
    }

    /// Run one kernel call of `alive` of `lanes` lanes, timing it when
    /// its turn in the sample comes.
    fn meter<T>(&self, alive: usize, lanes: usize, f: impl FnOnce() -> T) -> T {
        let timed = LOCAL.with_borrow_mut(|l| {
            l.calls += 1;
            l.alive += alive as u64;
            l.lanes += lanes as u64;
            // A xorshift draw, not a fixed stride, picks the timed calls:
            // the samplers' loops are periodic, and a stride could alias
            // with them.
            l.rng ^= l.rng << 13;
            l.rng ^= l.rng >> 7;
            l.rng ^= l.rng << 17;
            l.rng.is_multiple_of(SAMPLE)
        });
        let t = timed.then(Instant::now);
        let out = f();
        LOCAL.with_borrow_mut(|l| {
            if let Some(t) = t {
                l.ns += (t.elapsed().as_nanos() as u64).saturating_sub(timer_ns()) * SAMPLE;
            }
            if l.calls.is_multiple_of(FLUSH) {
                l.flush();
            }
        });
        out
    }

    /// The kernel counters since the last call, this thread's unflushed
    /// counts included.
    fn take(&self) -> KernelMeter {
        LOCAL.with_borrow_mut(Local::flush);
        KernelMeter {
            kernel_ns: KERNEL_NS.swap(0, Ordering::Relaxed),
            alive: ALIVE.swap(0, Ordering::Relaxed),
            lanes: LANES.swap(0, Ordering::Relaxed),
        }
    }
}

impl<M: SimulationModel> SimulationModel for Timed<M> {
    type State = M::State;

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &Self::State, t: Time, rng: &mut SimRng) -> Self::State {
        self.meter(1, 1, || self.inner.step(state, t, rng))
    }

    fn step_batch(
        &self,
        lanes: &mut [Self::State],
        ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let width = lanes.len();
        self.meter(alive.len(), width, || {
            self.inner.step_batch(lanes, ts, rngs, alive)
        });
    }

    fn kernel_class(&self) -> mlss_core::width::KernelClass {
        self.inner.kernel_class()
    }
}

/// Kernel counters read at the end of one driver call.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelMeter {
    pub kernel_ns: u64,
    pub alive: u64,
    pub lanes: u64,
}

/// The models a probe can rebuild, with the registry's defaults.
#[derive(Debug, Clone, Copy)]
pub enum ModelKind {
    /// `cpp` with its schema defaults.
    Cpp,
    /// `walk` with `up` overridden (down 0.3, start 0, reflected).
    Walk { up: f64 },
}

/// Which estimator a probe drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodKind {
    Srs,
    GMlss,
}

/// One statement shape to rebuild from public parts.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub model: ModelKind,
    pub method: MethodKind,
    pub beta: f64,
    pub horizon: u64,
    pub target_re: f64,
    /// The width `batch_width=auto` resolved to for this shape in the
    /// session (read from `EXPLAIN ESTIMATE`).
    pub auto_width: usize,
}

/// One driver call's measurements.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriverRun {
    pub wall: Duration,
    pub sim: Duration,
    pub estimate: Duration,
    pub steps: u64,
    pub roots: u64,
    pub skip_events: u64,
    pub kernel: KernelMeter,
    pub merges: u64,
    pub contended: u64,
    /// Width-policy ledger deltas (launched, discarded).
    pub launched: u64,
    pub discarded: u64,
}

impl DriverRun {
    pub fn msteps_per_s(&self) -> f64 {
        self.steps as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }
}

/// Everything one shape's probe measured.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub pilot: Duration,
    /// The default-width (scalar) sequential run.
    pub scalar: DriverRun,
    /// The sequential run at the `auto` width.
    pub batched: DriverRun,
    /// `run_parallel` at one and two threads.
    pub par1: DriverRun,
    pub par2: DriverRun,
}

/// Rebuild `shape` and run the pilot plus four driver calls on a stream
/// derived from `seed`, recording a span per call.
pub fn probe(shape: &Shape, seed: u64, tracer: &Tracer, req: u64) -> Probe {
    match shape.model {
        ModelKind::Cpp => probe_model(
            CompoundPoisson::new(
                15.0,
                4.5,
                0.8,
                JumpDistribution::Uniform { lo: 5.0, hi: 10.0 },
            ),
            surplus_score,
            shape,
            seed,
            tracer,
            req,
        ),
        ModelKind::Walk { up } => probe_model(
            RandomWalk::new(up, 0.3, 0).reflected(),
            position_score,
            shape,
            seed,
            tracer,
            req,
        ),
    }
}

fn probe_model<M, Z>(
    model: M,
    score: Z,
    shape: &Shape,
    seed: u64,
    tracer: &Tracer,
    req: u64,
) -> Probe
where
    M: SimulationModel + Sync,
    M::State: Send,
    Z: StateScore<M::State> + Copy + Sync,
{
    let model = Timed::new(model);
    let vf = RatioValue::new(score, shape.beta);
    let problem = Problem::new(&model, &vf, shape.horizon as Time);
    let control = target_control(shape.target_re);
    let mut out = Probe::default();
    let streams = StreamFactory::new(seed);

    let plan = if shape.method == MethodKind::Srs {
        None
    } else {
        let cache = PlanCache::new();
        let mut rng = streams.stream(1);
        let t = Instant::now();
        let lookup = tracer.span("plan_cache.get_or_build_traced", req, None, |_| {
            cache.get_or_build_traced(seed, BALANCED_PLAN_KEY, DEFAULT_PLAN_LEVELS, || {
                balanced_plan(problem, DEFAULT_PLAN_LEVELS, PILOT_PATHS, &mut rng)
            })
        });
        out.pilot = t.elapsed();
        model.take();
        Some(lookup.plan)
    };

    match (shape.method, plan) {
        (MethodKind::Srs, _) => drive(
            &SrsEstimator,
            problem,
            &model,
            shape,
            seed,
            tracer,
            req,
            &mut out,
        ),
        (MethodKind::GMlss, Some(plan)) => drive(
            &GMlssConfig::new(plan, control),
            problem,
            &model,
            shape,
            seed,
            tracer,
            req,
            &mut out,
        ),
        _ => unreachable!("MLSS shapes always derive a plan"),
    }
    out
}

/// The four driver calls for one estimator.
#[allow(clippy::too_many_arguments)]
fn drive<M, V, E>(
    est: &E,
    problem: Problem<'_, Timed<M>, V>,
    model: &Timed<M>,
    shape: &Shape,
    seed: u64,
    tracer: &Tracer,
    req: u64,
    out: &mut Probe,
) where
    M: SimulationModel + Sync,
    M::State: Send,
    V: mlss_core::query::ValueFunction<M::State> + Sync,
    E: Estimator<Timed<M>, V> + Sync,
    E::Shard: Send,
{
    let control = target_control(shape.target_re);
    let streams = StreamFactory::new(seed);

    let sequential = |width: usize, name: &'static str| -> DriverRun {
        let mut rng = streams.stream(0);
        let before = mlss_core::width::snapshot();
        let t = Instant::now();
        let run = tracer.span(name, req, None, |_| {
            if width == 0 {
                run_sequential(est, problem, control, &mut rng)
            } else {
                run_sequential_batched(est, problem, control, &mut rng, width)
            }
        });
        let wall = t.elapsed();
        let after = mlss_core::width::snapshot();
        DriverRun {
            wall,
            sim: run.sim_elapsed,
            estimate: run.estimate_elapsed,
            steps: run.shard.steps(),
            roots: run.shard.n_roots(),
            skip_events: est.diagnostics(&run.shard).skip_events,
            kernel: model.take(),
            merges: 0,
            contended: 0,
            launched: after.launched.saturating_sub(before.launched),
            discarded: after.discarded().saturating_sub(before.discarded()),
        }
    };
    out.scalar = sequential(0, "driver.run_sequential");
    out.batched = sequential(shape.auto_width.max(1), "driver.run_sequential_batched");

    let parallel = |threads: usize| -> DriverRun {
        let cfg = ParallelConfig {
            threads,
            seed,
            batch_width: 0,
            ..Default::default()
        };
        let t = Instant::now();
        let run = tracer.span("driver.run_parallel", req, None, |_| {
            run_parallel(problem, est, control, &cfg)
        });
        DriverRun {
            wall: t.elapsed(),
            sim: run.elapsed,
            estimate: Duration::ZERO,
            steps: run.shard.steps(),
            roots: run.shard.n_roots(),
            skip_events: est.diagnostics(&run.shard).skip_events,
            kernel: model.take(),
            merges: run.merges,
            contended: run.contended_merges,
            launched: 0,
            discarded: 0,
        }
    };
    out.par1 = parallel(1);
    out.par2 = parallel(2);
}

/// Per-layer metrics derived from a set of probes (all shapes of a
/// workload, pooled).
pub struct LayerMetrics {
    pub kernel_msteps_per_s: f64,
    pub kernel_busy_frac: f64,
    pub lane_occupancy: f64,
    pub frontier_self_ns_per_step: f64,
    pub frontier_discarded_frac: f64,
    pub check_ms_per_answer: f64,
    pub roots_per_answer: f64,
    pub steps_per_root: f64,
    pub skip_frac: f64,
    pub parallel_efficiency: f64,
    pub width_gain: f64,
    pub contended_merge_frac: f64,
    pub pilot_ms: f64,
}

pub fn summarize(probes: &[Probe]) -> LayerMetrics {
    let n = probes.len().max(1) as f64;
    let all = || {
        probes
            .iter()
            .flat_map(|p| [p.scalar, p.batched, p.par1, p.par2])
    };
    let steps: u64 = all().map(|r| r.steps).sum();
    let kernel_ns: u64 = all().map(|r| r.kernel.kernel_ns).sum();
    let seq = || probes.iter().flat_map(|p| [p.scalar, p.batched]);
    let seq_wall: f64 = seq().map(|r| r.wall.as_secs_f64()).sum();
    let seq_kernel: u64 = seq().map(|r| r.kernel.kernel_ns).sum();
    let batched_alive: u64 = probes.iter().map(|p| p.batched.kernel.alive).sum();
    let batched_lanes: u64 = probes.iter().map(|p| p.batched.kernel.lanes).sum();
    let scalar = || probes.iter().map(|p| p.scalar);
    let scalar_sim_ns: f64 = scalar().map(|r| r.sim.as_nanos() as f64).sum();
    let scalar_kernel_ns: f64 = scalar().map(|r| r.kernel.kernel_ns as f64).sum();
    let scalar_steps: f64 = scalar().map(|r| r.steps as f64).sum();
    let launched: u64 = probes.iter().map(|p| p.batched.launched).sum();
    let discarded: u64 = probes.iter().map(|p| p.batched.discarded).sum();
    let rate = |f: &dyn Fn(&Probe) -> DriverRun| -> f64 {
        probes.iter().map(|p| f(p).msteps_per_s()).sum::<f64>() / n
    };
    let merges: u64 = probes.iter().map(|p| p.par2.merges).sum();
    let contended: u64 = probes.iter().map(|p| p.par2.contended).sum();
    let roots: f64 = scalar().map(|r| r.roots as f64).sum();
    LayerMetrics {
        kernel_msteps_per_s: steps as f64 / (kernel_ns as f64 / 1e9).max(1e-9) / 1e6,
        kernel_busy_frac: seq_kernel as f64 / 1e9 / seq_wall.max(1e-9),
        lane_occupancy: ratio(batched_alive as f64, batched_lanes as f64),
        frontier_self_ns_per_step: ((scalar_sim_ns - scalar_kernel_ns) / scalar_steps.max(1.0))
            .max(0.0),
        frontier_discarded_frac: ratio(discarded as f64, launched as f64),
        check_ms_per_answer: scalar()
            .map(|r| r.estimate.as_secs_f64() * 1e3)
            .sum::<f64>()
            / n,
        roots_per_answer: roots / n,
        steps_per_root: scalar_steps / roots.max(1.0),
        skip_frac: scalar().map(|r| r.skip_events as f64).sum::<f64>() / roots.max(1.0),
        parallel_efficiency: ratio(rate(&|p| p.par2), 2.0 * rate(&|p| p.par1)),
        width_gain: ratio(rate(&|p| p.batched), rate(&|p| p.scalar)),
        contended_merge_frac: ratio(contended as f64, (merges + contended) as f64),
        pilot_ms: probes
            .iter()
            .map(|p| p.pilot.as_secs_f64() * 1e3)
            .sum::<f64>()
            / n,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Record the model/frontier/estimator/driver/pilot metrics of `probes`.
pub fn record(report: &mut Report, probes: &[Probe]) {
    let m = summarize(probes);
    report.metric(
        "models.kernel_msteps_per_s",
        m.kernel_msteps_per_s,
        "steps / kernel time, all probe runs",
    );
    report.metric(
        "models.kernel_busy_frac",
        m.kernel_busy_frac,
        "kernel time / sequential run wall",
    );
    report.metric(
        "models.lane_occupancy",
        m.lane_occupancy,
        "alive lanes / width per step_batch, auto-width run",
    );
    report.metric(
        "frontier.self_ns_per_step",
        m.frontier_self_ns_per_step,
        "(sim - kernel) / steps, default width",
    );
    report.metric(
        "frontier.discarded_frac",
        m.frontier_discarded_frac,
        "speculation_discarded / roots_launched, auto-width run",
    );
    report.metric(
        "estimator.check_ms_per_answer",
        m.check_ms_per_answer,
        "EstimatorRun::estimate_elapsed",
    );
    report.metric(
        "estimator.roots_per_answer",
        m.roots_per_answer,
        "default-width run",
    );
    report.metric(
        "estimator.steps_per_root",
        m.steps_per_root,
        "default-width run",
    );
    report.metric(
        "estimator.skip_frac",
        m.skip_frac,
        "level-skip events / roots",
    );
    report.metric(
        "driver.parallel_efficiency",
        m.parallel_efficiency,
        "run_parallel 2 threads / (2 x 1 thread)",
    );
    report.metric(
        "driver.width_gain",
        m.width_gain,
        "auto width / default width throughput",
    );
    report.metric(
        "driver.contended_merge_frac",
        m.contended_merge_frac,
        "ParallelRun contended / (merges + contended)",
    );
    report.metric(
        "plan_cache.pilot_ms",
        m.pilot_ms,
        "PlanCache::get_or_build_traced on a cold cache",
    );
}

/// The plan-cache and shard-store metrics of a traced run. `delta` gives
/// a `SHOW DIAGNOSTICS` counter's change over the run; `stored` and
/// `warm` are the shares of `results.shard_reuse` answers served so.
pub fn cache_metrics(report: &mut Report, delta: &dyn Fn(&str) -> f64, stored: f64, warm: f64) {
    let (ph, pm) = (
        delta("plan_cache.plan_cache_hits"),
        delta("plan_cache.plan_cache_misses"),
    );
    report.metric(
        "plan_cache.hit_frac",
        ratio(ph, ph + pm),
        format!("{ph} hits, {pm} misses"),
    );
    let (sh, sm) = (
        delta("shard_store.shard_store_hits"),
        delta("shard_store.shard_store_misses"),
    );
    report.metric(
        "shard_store.hit_frac",
        ratio(sh, sh + sm),
        format!("{sh} hits, {sm} misses"),
    );
    report.metric("shard_store.stored_frac", stored, "results.shard_reuse");
    report.metric("shard_store.warm_frac", warm, "results.shard_reuse");
    report.metric(
        "shard_store.evictions",
        delta("shard_store.shard_store_evictions"),
        "",
    );
}

/// Session overhead: the median of `execute_as` wall minus
/// `results.millis` over 50 exact repeats of `sql`, which the shard store
/// answers without simulating once `sql` has run.
pub fn stored_repeat_overhead_us(
    session: &mlss_db::Session,
    sql: &str,
    tracer: &Tracer,
    req: u64,
) -> f64 {
    let _ = session.execute_as(Some("alpha"), sql);
    let mut v = Vec::new();
    for i in 0..50 {
        let t = Instant::now();
        let res = tracer.span("session.execute_as", req + i, None, |_| {
            session.execute_as(Some("alpha"), sql)
        });
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(a) = res.ok().as_ref().and_then(Answer::from_exec) {
            if a.shard_reuse == "stored" {
                v.push(wall_us - a.millis as f64 * 1e3);
            }
        }
    }
    median(&v)
}

/// `SHOW DIAGNOSTICS` counters by name.
pub fn counters(session: &mlss_db::Session) -> std::collections::BTreeMap<String, f64> {
    session
        .diagnostics()
        .into_iter()
        .flat_map(|d| {
            d.details
                .into_iter()
                .map(move |(k, v)| (format!("{}.{k}", d.estimator), v))
        })
        .collect()
}

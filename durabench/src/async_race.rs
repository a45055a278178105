//! `async_race`: bursts against an embedded `Session` with two scheduler
//! workers. Each burst submits `ASYNC` marathons ahead of a stream of
//! `ASYNC` sprinters plus two `RANK BY TOP 2` races, so the
//! least-attained-service scheduler, slicing, deferred pilots and
//! ranking carry the load — the layers the other workloads bypass.

use crate::check;
use crate::layers::{self, MethodKind, ModelKind, Shape};
use crate::report::{Report, SERVE_METRICS, WAL_METRICS};
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use crate::{host, Ctx};
use mlss_core::scheduler::{QueryId, QueryStatus};
use mlss_db::{ExecResult, Session, SessionConfig};
use std::time::{Duration, Instant};

const MARATHON: &str = "ESTIMATE DURABILITY OF cpp(beta=100) WITHIN 500 USING gmlss TARGET RE 10%";
const MARATHONS: usize = 2;
const SPRINTER: &str = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 25%";
const SPRINTERS: u32 = 24;
const SPRINTER_GAP: Duration = Duration::from_millis(20);

/// The g-MLSS race. Its horizon changes every burst, so its arms' plans
/// are always cold and their pilots run deferred, as first slices.
const GMLSS_RACE: &str = "ESTIMATE DURABILITY OF walk(beta=20) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 WITHIN {h} USING gmlss TARGET RE 0.5 RANK BY TOP 2 (confidence=0.999)";

/// The SRS race that returns an inverted top 2: with 4000 steps per arm
/// no root reaches the threshold and every arm freezes `definitive` at
/// τ = 0 (ROADMAP item 2). Kept on purpose; it counts in `failed` until
/// the defect is fixed.
const SRS_RACE: &str = "ESTIMATE DURABILITY OF walk(beta=20) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 WITHIN 50 USING srs TARGET RE 0.5 RANK BY TOP 2 (rounds=5, round_budget=4000) WITH (seed=7)";

/// Tail percentile cap. A 30 s run holds ~50 bursts of 24 sprinters,
/// enough for p99, but p99 would rest on a dozen samples; p95 rests on
/// sixty.
const TAIL_CAP: f64 = 0.95;
const SETUPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Marathon,
    Sprinter,
    Race { horizon: u64, known_defect: bool },
}

/// One submission and what became of it.
struct Job {
    role: Role,
    id: QueryId,
    submit_us: f64,
    lag_ms: f64,
    submitted: Instant,
    first_slice_ms: Option<f64>,
    done: Option<Instant>,
}

struct Burst {
    makespan: Duration,
    jobs: Vec<Job>,
    results: Vec<Finished>,
}

/// A terminal job's checked answer.
struct Finished {
    role: Role,
    latency_ms: f64,
    ok: bool,
    steps: u64,
    /// What was answered, for the failure line.
    what: String,
}

fn setup() -> Result<(Session, Duration), String> {
    let t = Instant::now();
    let session = Session::new(SessionConfig {
        workers: 2,
        ..SessionConfig::default()
    })
    .map_err(|e| format!("session open: {e}"))?;
    session
        .execute(&format!("EXPLAIN {MARATHON} ASYNC"))
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok((session, t.elapsed()))
}

fn submit(session: &Session, sql: &str) -> Result<QueryId, String> {
    match session.execute(sql) {
        Ok(ExecResult::Rows { columns, rows }) if columns == ["query_id"] => rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64())
            .map(|id| id as QueryId)
            .ok_or_else(|| "no query id".to_string()),
        other => Err(format!("{sql}: {other:?}")),
    }
}

/// One burst: marathons, both races, then the sprinter stream on its
/// schedule, polling every outstanding job until all are terminal.
fn burst(ctx: &Ctx, session: &Session, k: u64, tracer: &Tracer) -> Result<Burst, String> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let req = k << 20;
    let push =
        |role: Role, sql: String, due: Duration, jobs: &mut Vec<Job>| -> Result<(), String> {
            let lag_ms = start.elapsed().saturating_sub(due).as_secs_f64() * 1e3;
            let t = Instant::now();
            let id = tracer.span("session.execute_as", req + jobs.len() as u64, None, |_| {
                submit(session, &sql)
            })?;
            jobs.push(Job {
                role,
                id,
                submit_us: t.elapsed().as_secs_f64() * 1e6,
                lag_ms,
                submitted: t,
                first_slice_ms: None,
                done: None,
            });
            Ok(())
        };
    for m in 0..MARATHONS as u64 {
        let seed = ctx.derive(20, k * 16 + m);
        push(
            Role::Marathon,
            format!("{MARATHON} WITH (seed={seed}) ASYNC"),
            Duration::ZERO,
            &mut jobs,
        )?;
    }
    let horizon = 50 + k % 64;
    push(
        Role::Race {
            horizon,
            known_defect: false,
        },
        format!(
            "{} WITH (seed={}) ASYNC",
            GMLSS_RACE.replace("{h}", &horizon.to_string()),
            ctx.derive(21, k)
        ),
        Duration::ZERO,
        &mut jobs,
    )?;
    push(
        Role::Race {
            horizon: 50,
            known_defect: true,
        },
        format!("{SRS_RACE} ASYNC"),
        Duration::ZERO,
        &mut jobs,
    )?;
    let mut next = 0u32;
    loop {
        let now = start.elapsed();
        if next < SPRINTERS && now >= SPRINTER_GAP * next {
            let seed = ctx.derive(22, k * 64 + next as u64);
            push(
                Role::Sprinter,
                format!("{SPRINTER} WITH (seed={seed}) ASYNC"),
                SPRINTER_GAP * next,
                &mut jobs,
            )?;
            next += 1;
            continue;
        }
        let mut open = 0;
        for j in jobs.iter_mut().filter(|j| j.done.is_none()) {
            match session.poll(j.id) {
                Some(QueryStatus::Queued) => open += 1,
                Some(s) => {
                    if j.first_slice_ms.is_none() {
                        j.first_slice_ms = Some(j.submitted.elapsed().as_secs_f64() * 1e3);
                    }
                    if s.is_terminal() {
                        j.done = Some(Instant::now());
                    } else {
                        open += 1;
                    }
                }
                None => return Err(format!("query {} vanished", j.id)),
            }
        }
        if open == 0 && next == SPRINTERS {
            break;
        }
        if start.elapsed() > Duration::from_secs(120) {
            return Err(format!("burst {k} did not finish within 120 s"));
        }
        std::thread::sleep(Duration::from_micros(if tracer.enabled() {
            100
        } else {
            500
        }));
    }
    let makespan = start.elapsed();
    let mut results = Vec::new();
    for j in &jobs {
        results.push(finish(session, j)?);
    }
    session.prune().map_err(|e| format!("prune: {e}"))?;
    Ok(Burst {
        makespan,
        jobs,
        results,
    })
}

/// Read a terminal job's answer and check it. Latency is the submit call
/// plus the scheduler's own submission-to-terminal time.
fn finish(session: &Session, j: &Job) -> Result<Finished, String> {
    let progress = session.scheduler().progress(j.id).ok_or("progress lost")?;
    let latency = j.submit_us / 1e3 + progress.elapsed.as_secs_f64() * 1e3;
    let status = session.wait(j.id).map_err(|e| e.to_string())?;
    let (ok, steps, what) = match (j.role, status) {
        (Role::Race { horizon, .. }, _) => {
            match session.rank_standings(j.id).map_err(|e| e.to_string())? {
                Some(outcome) => {
                    let top: Vec<String> = outcome.top(2).into_iter().map(String::from).collect();
                    let truth = |label: &str| -> f64 {
                        let up = label
                            .split("up=")
                            .nth(1)
                            .and_then(|s| s.trim_end_matches(')').parse().ok())
                            .unwrap_or(0.0);
                        check::walk_truth(up, 20, horizon)
                    };
                    let mut all: Vec<f64> =
                        outcome.standings.iter().map(|s| truth(&s.label)).collect();
                    all.sort_by(|a, b| b.total_cmp(a));
                    let ok = top.len() == 2 && truth(&top[0]) == all[0] && truth(&top[1]) == all[1];
                    (ok, outcome.total_steps, format!("top 2 {top:?}"))
                }
                None => (false, 0, "no standings".into()),
            }
        }
        (role, Some(QueryStatus::Done(est))) => {
            let (truth, var) = if role == Role::Marathon {
                check::reference("cpp(beta=100) WITHIN 500").expect("committed cpp reference")
            } else {
                (check::walk_truth(0.3, 6, 50), 0.0)
            };
            let ok = if role == Role::Marathon {
                check::agrees(est.tau, est.variance, truth, var)
            } else {
                check::agrees_srs(est.tau, est.variance, est.n_roots, truth, var)
            };
            (
                ok,
                est.steps,
                format!("tau {} (var {}) vs {truth}", est.tau, est.variance),
            )
        }
        (_, other) => (false, 0, format!("ended {other:?}")),
    };
    Ok(Finished {
        role: j.role,
        latency_ms: latency,
        ok,
        steps,
        what,
    })
}

fn check_all(bursts: &[Burst], report: &mut Report) -> (u64, u64) {
    let (mut ok, mut steps) = (0, 0);
    for (k, b) in bursts.iter().enumerate() {
        for f in &b.results {
            report.attempted += 1;
            steps += f.steps;
            if f.ok {
                ok += 1;
            } else {
                let known = matches!(
                    f.role,
                    Role::Race {
                        known_defect: true,
                        ..
                    }
                );
                report.wrong(format!("burst {k} {:?}: {}", f.role, f.what), known);
            }
        }
    }
    (ok, steps)
}

fn run_bursts(
    ctx: &Ctx,
    session: &Session,
    budget: Duration,
    count: Option<u64>,
    tracer: &Tracer,
) -> Result<(Vec<Burst>, Duration), String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut k = 0;
    while count.map_or(start.elapsed() < budget, |n| k < n) {
        out.push(tracer.span("burst", k << 20, None, |_| burst(ctx, session, k, tracer))?);
        k += 1;
    }
    Ok((out, start.elapsed()))
}

fn sprinter_latency(bursts: &[Burst]) -> Latency {
    let v: Vec<f64> = bursts
        .iter()
        .flat_map(|b| b.results.iter())
        .filter(|f| f.role == Role::Sprinter && f.ok)
        .map(|f| f.latency_ms)
        .collect();
    Latency::of(&v, TAIL_CAP)
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let session = report.setups(
        SETUPS,
        "session open (2 workers) + marathon plan pilot via EXPLAIN",
        |_| setup(),
    )?;
    report.line(format!(
        "burst: {MARATHONS} marathons ({MARATHON}), a g-MLSS race and the known-defect SRS race, then {SPRINTERS} sprinters ({SPRINTER}) every {} ms",
        SPRINTER_GAP.as_millis()
    ));

    let budget = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let (bursts, wall) = run_bursts(ctx, &session, budget, None, &Tracer::new(false))?;
    let (ok, steps) = check_all(&bursts, &mut report);
    let lat = sprinter_latency(&bursts);
    let makespans: Vec<f64> = bursts.iter().map(|b| b.makespan.as_secs_f64()).collect();
    report.line(format!(
        "measured {} bursts in {:.3} s",
        bursts.len(),
        wall.as_secs_f64()
    ));
    report.metric(
        "latency_p50_ms",
        lat.p50,
        format!(
            "sprinter submit to terminal status, answers that passed their check, n={}",
            lat.n
        ),
    );
    report.metric("latency_tail_ms", lat.tail, lat.tail_note());
    report.metric(
        "answers_per_s",
        ok as f64 / wall.as_secs_f64(),
        format!("{ok} correct answers"),
    );
    report.metric(
        "msteps_per_s",
        steps as f64 / wall.as_secs_f64() / 1e6,
        format!("{steps} g-calls"),
    );
    report.metric(
        "makespan_s",
        median(&makespans),
        format!(
            "median of {} bursts, burst start to last terminal status",
            makespans.len()
        ),
    );
    report.metric(
        "failed_frac",
        report.failed_frac(),
        format!("{} of {}", report.failed, report.attempted),
    );
    report.metric(
        "peak_rss_mb",
        host::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
        "VmHWM of the bench process",
    );
    if ctx.trace {
        drop(session);
        traced(ctx, tracer, &mut report, bursts.len() as u64, lat.p50)?;
    }
    Ok(report)
}

fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
    count: u64,
    untraced_p50: f64,
) -> Result<(), String> {
    let (session, _) = setup()?;
    let before = layers::counters(&session);
    let (bursts, _) = run_bursts(ctx, &session, Duration::ZERO, Some(count), tracer)?;
    let after = layers::counters(&session);
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let mut replay = Report::default();
    check_all(&bursts, &mut replay);
    report.absorb(replay);
    report.trace_overhead(sprinter_latency(&bursts).p50, untraced_p50);
    let jobs = || bursts.iter().flat_map(|b| b.jobs.iter());
    let lag = Latency::of(
        &jobs()
            .filter(|j| j.role == Role::Sprinter)
            .map(|j| j.lag_ms)
            .collect::<Vec<_>>(),
        TAIL_CAP,
    );
    report.metric(
        "bench.gen_lag_ms_tail",
        lag.tail,
        format!("sprinter submissions, {}", lag.tail_note()),
    );
    let waits: Vec<f64> = jobs()
        .filter(|j| j.role == Role::Sprinter)
        .filter_map(|j| j.first_slice_ms)
        .collect();
    report.metric(
        "scheduler.first_slice_wait_ms",
        median(&waits),
        "sprinter submit to first non-queued poll (100 us polls)",
    );
    report.metric(
        "scheduler.slices_per_query",
        layers::ratio(d("scheduler.slices"), d("scheduler.submitted")),
        format!(
            "{} slices, {} queries",
            d("scheduler.slices"),
            d("scheduler.submitted")
        ),
    );
    report.metric(
        "ranking.steps_per_race",
        layers::ratio(d("ranking.steps"), d("ranking.races")),
        format!("{} races", d("ranking.races")),
    );
    let (stored, warm) = shard_reuse_mix(&session);
    layers::cache_metrics(report, &d, stored, warm);
    let submits: Vec<f64> = jobs().map(|j| j.submit_us).collect();
    report.metric(
        "session.overhead_us",
        median(&submits),
        "execute_as wall of an ASYNC submission (no estimation inside the call)",
    );
    let registry = mlss_db::ModelRegistry::with_builtins();
    let schemas = registry.schemas();
    for (i, sql) in [MARATHON, SPRINTER, SRS_RACE].iter().enumerate() {
        for r in 0..50 {
            tracer.span(
                "sql.parse_dialect",
                8_000_000 + (i * 100 + r) as u64,
                None,
                |_| mlss_db::parse_dialect(sql, Some(&schemas)).is_ok(),
            );
        }
    }
    report.metric(
        "sql.parse_us",
        tracer.mean_self_us("sql.parse_dialect"),
        "bench-side parse_dialect per statement",
    );
    report.not_applicable(&WAL_METRICS, "WAL off");
    report.not_applicable(&SERVE_METRICS, "embedded session");
    report.not_applicable(
        &["bench.identity_rows"],
        "scheduled runs are checked statistically",
    );
    drop(session);
    let probes = vec![layers::probe(
        &Shape {
            model: ModelKind::Cpp,
            method: MethodKind::GMlss,
            beta: 100.0,
            horizon: 500,
            target_re: 0.10,
            auto_width: 64,
        },
        ctx.derive(2, 0),
        tracer,
        9_000_000,
    )];
    layers::record(report, &probes);
    Ok(())
}

/// Shares of `stored` and `warm` answers among the `results` rows.
fn shard_reuse_mix(session: &Session) -> (f64, f64) {
    let Ok(ExecResult::Rows { rows, .. }) = session.execute("SELECT shard_reuse FROM results")
    else {
        return (0.0, 0.0);
    };
    let n = rows.len().max(1) as f64;
    let count = |k: &str| rows.iter().filter(|r| r[0].as_str() == Some(k)).count() as f64 / n;
    (count("stored"), count("warm"))
}

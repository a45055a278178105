//! `serve_mix`: an open loop at fixed offered rates over two connections
//! to a separate `mlss_serve --wal` process. Every statement is cheap —
//! cold estimates of about 10 ms, store hits, `EXPLAIN`, `SELECT`,
//! `INSERT` — and every answer is journaled, so parse, dispatch,
//! plan-cache and shard-store lookups, WAL appends and fsyncs, and the
//! wire carry the load. Reads sit beside writes and store hits beside
//! cold runs, so a gain for one use that costs another shows up.

use crate::check::{self, Answer};
use crate::layers::{self, MethodKind, ModelKind, Shape};
use crate::report::{Report, ASYNC_METRICS};
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use crate::{host, splitmix, Ctx};
use mlss_db::{ModelRegistry, Session, SessionConfig, WalSessionConfig};
use mlss_serve::{Client, Response};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates (statements per second over both connections), one
/// rung after another. Committed: results are compared across runs at
/// these rates.
pub const LADDER: [f64; 4] = [25.0, 50.0, 100.0, 200.0];

/// One block at one offered rate. The rates take turns block by block,
/// lowest first, so every rate samples the whole run and a host stall
/// lands on all of them alike; the highest rate's backlog drains into a
/// block of the lowest. The blocks are short because a shared host's
/// speed swings on a scale of seconds: each rate returns every 0.8 s and
/// sees the run's average host.
const BLOCK: Duration = Duration::from_millis(200);

/// The rung whose latency is reported as `latency_p50_ms` and
/// `latency_tail_ms`: 50 statements/s, 40 ms apart on each connection
/// against ~10 ms for a cold estimate, so the figure is service time
/// rather than queueing.
const REFERENCE_RUNG: usize = 1;

/// A rung meets the limit when its tail latency is at most this.
const LATENCY_LIMIT_MS: f64 = 25.0;

/// Tail percentile cap. The reference rung sends ~375 requests per run,
/// enough for p95, but on a shared host the top tenth can be host stalls
/// whose rate changes from run to run: in one run with 11.6% of vCPU
/// time stolen, p90 rose 75% over a quiet run and p50 19%. p75 needs a
/// quarter of the requests stalled before it moves that way.
const TAIL_CAP: f64 = 0.75;

/// A request still unsent this long after its due time is given up and
/// counted as a timeout, which bounds the run when the server falls far
/// behind the ladder.
const GIVE_UP: Duration = Duration::from_secs(20);

const CONNECTIONS: usize = 2;
const TENANTS: [&str; CONNECTIONS] = ["alpha", "beta"];
/// A set-up takes ~15 ms, so many fit; their median is steadier than a
/// few.
const SETUPS: usize = 15;

/// Exact repeats the store answers (`stored`) after set-up ran them once.
const STORED: [&str; 4] = [
    "ESTIMATE DURABILITY OF walk(beta=8) WITHIN 100 USING srs TARGET RE 20% WITH (seed=71)",
    "ESTIMATE DURABILITY OF walk(beta=9) WITHIN 100 USING srs TARGET RE 20% WITH (seed=72)",
    "ESTIMATE DURABILITY OF walk(beta=10) WITHIN 100 USING srs TARGET RE 20% WITH (seed=73)",
    "ESTIMATE DURABILITY OF walk(beta=11) WITHIN 100 USING srs TARGET RE 20% WITH (seed=74)",
];
const STORED_BETA: [i64; 4] = [8, 9, 10, 11];

/// An `EXPLAIN` whose plan set-up already derived (a plan-cache hit).
const EXPLAIN: &str =
    "EXPLAIN ESTIMATE DURABILITY OF walk(beta=12) WITHIN 100 USING gmlss TARGET RE 20%";

/// Tightening-ladder rungs (percent RE): each rung of a family runs warm
/// from the previous rung's stored shard. The family (τ ≈ 0.01–0.07) is
/// rare enough that every rung needs more roots than the one before.
const RUNGS: [u32; 3] = [30, 25, 20];

/// Cold estimates: `walk(beta, up)` and `markov(beta, p_up)` with `up`
/// and `p_up` drawn from `start + width · U[0, 1]`, run by SRS to this
/// target RE. The ranges are narrow and the target tight, so every cold
/// estimate costs about the same (the stopping rule's spread is about
/// the RE itself) and both models cost alike: τ ≈ 0.07–0.08, about
/// 200 000 g-calls and 10 ms each on a 2-vCPU AVX-512 host.
const COLD_BETA: i64 = 16;
const COLD_WALK_UP: (f64, f64) = (0.30, 0.01);
const COLD_MARKOV_P: (f64, f64) = (0.295, 0.01);
const COLD_RE: u32 = 8;

/// What a request is, with what its answer must be.
#[derive(Debug, Clone)]
enum Kind {
    /// A fresh walk or markov family: runs cold.
    Cold {
        truth: f64,
    },
    /// An exact repeat of a set-up statement.
    Stored {
        truth: f64,
    },
    /// Rung `rung` of a tightening ladder.
    Warm {
        truth: f64,
        family: u64,
    },
    Explain,
    Select,
    Insert,
}

#[derive(Debug, Clone)]
struct Request {
    due: Duration,
    rung: usize,
    /// Due in the last tenth of its block.
    block_end: bool,
    sql: String,
    kind: Kind,
}

/// One request's outcome.
#[derive(Debug, Clone)]
struct Outcome {
    rung: usize,
    block_end: bool,
    kind: Kind,
    lag_ms: f64,
    latency_ms: f64,
    response: Result<Response, String>,
    /// The response passed its check.
    ok: bool,
    /// g-calls this answer simulated: 0 for a `stored` answer, the
    /// marginal steps for a `warm` one.
    steps: u64,
}

impl Outcome {
    /// Send to last response line: the server's service time plus the
    /// wire.
    fn service_ms(&self) -> f64 {
        self.latency_ms - self.lag_ms
    }
}

/// The generated schedule of one connection: the same seed gives the same
/// statements at the same due times. Cold estimates are 70% of the mix
/// and cost about 10 ms each, so both the median and the p75 request are
/// one of them. Shorter requests were tried: at 2 ms a request is as long
/// as one of the shared host's scheduling gaps, and whether it was hit by
/// one moved the median by up to 2x between runs.
fn schedule(ctx: &Ctx, conn: usize, span: Duration) -> Vec<Request> {
    let mut out = Vec::new();
    let mut n = 0u64;
    let mut family = (conn as u64) << 32;
    let mut rung_of_family = RUNGS.len();
    let mut family_up = 0.3;
    let blocks = ((span.as_secs_f64() / BLOCK.as_secs_f64()) as u32).max(LADDER.len() as u32);
    for block in 0..blocks {
        let rung = block as usize % LADDER.len();
        let per_conn = LADDER[rung] / CONNECTIONS as f64;
        let count = (per_conn * BLOCK.as_secs_f64()).round() as u64;
        let base = BLOCK * block;
        for i in 0..count {
            n += 1;
            let r = ctx.derive(10 + conn as u64, n);
            let pick = r % 100;
            let u = |k: u32| ((r >> k) & 0xFF) as f64 / 255.0;
            let (sql, kind) = if pick < 70 {
                let seed = splitmix(r);
                // Five decimals over a range of 0.01: families seldom
                // repeat, and a repeat still runs cold, since the store
                // answers a pinned run only under the same seed.
                let x = ((r >> 16) & 0xFFFF) as f64 / 65535.0;
                if pick.is_multiple_of(2) {
                    let up = ((COLD_WALK_UP.0 + COLD_WALK_UP.1 * x) * 1e5).round() / 1e5;
                    (
                        format!("ESTIMATE DURABILITY OF walk(beta={COLD_BETA}, up={up}) WITHIN 100 USING srs TARGET RE {COLD_RE}% WITH (seed={seed})"),
                        Kind::Cold { truth: check::walk_truth(up, COLD_BETA, 100) },
                    )
                } else {
                    let p = ((COLD_MARKOV_P.0 + COLD_MARKOV_P.1 * x) * 1e5).round() / 1e5;
                    (
                        format!("ESTIMATE DURABILITY OF markov(beta={COLD_BETA}, p_up={p}) WITHIN 100 USING srs TARGET RE {COLD_RE}% WITH (seed={seed})"),
                        Kind::Cold { truth: check::markov_truth(32, p, COLD_BETA as usize, 100) },
                    )
                }
            } else if pick < 80 {
                let k = ((r >> 8) % STORED.len() as u64) as usize;
                (
                    STORED[k].to_string(),
                    Kind::Stored {
                        truth: check::walk_truth(0.3, STORED_BETA[k], 100),
                    },
                )
            } else if pick < 85 {
                if rung_of_family + 1 >= RUNGS.len() {
                    family += 1;
                    rung_of_family = 0;
                    family_up = ((0.27 + 0.06 * u(16)) * 1000.0).round() / 1000.0;
                } else {
                    rung_of_family += 1;
                }
                let seed = splitmix(family ^ ctx.seed);
                (
                    format!(
                        "ESTIMATE DURABILITY OF walk(beta=16, up={family_up}) WITHIN 80 USING srs TARGET RE {}% WITH (seed={seed})",
                        RUNGS[rung_of_family]
                    ),
                    Kind::Warm {
                        truth: check::walk_truth(family_up, 16, 80),
                        family,
                    },
                )
            } else if pick < 90 {
                (EXPLAIN.to_string(), Kind::Explain)
            } else if pick < 95 {
                (
                    "SELECT model, tau FROM results WHERE model = 'walk' LIMIT 5".to_string(),
                    Kind::Select,
                )
            } else {
                (
                    format!(
                        "INSERT INTO bench_kv VALUES ({}, {:.6})",
                        (conn as u64) << 40 | n,
                        u(8)
                    ),
                    Kind::Insert,
                )
            };
            out.push(Request {
                due: base + Duration::from_secs_f64(i as f64 / per_conn),
                rung,
                block_end: i + (count / 10).max(1) >= count,
                sql,
                kind,
            });
        }
    }
    out
}

/// Threads that keep every vCPU from halting while the workload runs.
///
/// On a virtual machine an idle vCPU halts, and waking it for the next
/// request waits on the hypervisor's scheduler; on a busy shared host
/// that wait is stolen time of milliseconds. Measured on a 2-vCPU VM
/// under host load, alternating runs without and with these threads:
/// 8.6–17.2% against 0.8–4.4% of vCPU time stolen, `latency_p50_ms`
/// 12.8–15.4 against 10.6–13.2 ms, p75 17.3–24.2 against 12.9–16.7 ms.
/// Each thread runs under `SCHED_IDLE`, so any thread of the server or
/// the client preempts it at once; where that policy cannot be set no
/// thread spins, and the output says how many run. Stopped and joined
/// on drop.
struct Awake {
    stop: Arc<AtomicBool>,
    /// Spinners that got `SCHED_IDLE` and run.
    running: Arc<AtomicUsize>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// `SCHED_IDLE` from `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

impl Awake {
    fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        let threads = (0..host::nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                let running = Arc::clone(&running);
                std::thread::spawn(move || {
                    // SAFETY: pid 0 names the calling thread, and the
                    // parameter outlives the call.
                    let idle = unsafe {
                        sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 })
                    };
                    if idle != 0 {
                        return;
                    }
                    running.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Awake {
            stop,
            running,
            threads,
        }
    }

    fn running(&self) -> usize {
        self.running.load(Ordering::Relaxed)
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A running `mlss_serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    wal: std::path::PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.wal);
    }
}

/// Start a server on a fresh WAL directory and warm it up: answer `PING`,
/// derive the `EXPLAIN` plan, run each stored statement once, and create
/// the insert table. Returns the server, a control client, and the
/// set-up time.
fn setup(ctx: &Ctx, n: usize) -> Result<(Server, Client, Duration), String> {
    let wal = ctx.tmp.join(format!("wal-{n}"));
    std::fs::create_dir_all(&wal).map_err(|e| format!("create {}: {e}", wal.display()))?;
    let t = Instant::now();
    let mut child = Command::new(&ctx.serve_bin)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            &ctx.seed.to_string(),
            "--wal",
        ])
        .arg(&wal)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ctx.serve_bin.display()))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut server = Server {
        child,
        addr: String::new(),
        wal,
    };
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read server banner: {e}"))?;
    server.addr = line
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected server banner {line:?}"))?
        .to_string();
    let mut control =
        Client::connect(&server.addr, "control").map_err(|e| format!("connect: {e}"))?;
    if !control.ping().map_err(|e| format!("ping: {e}"))? {
        return Err("server did not answer PING".into());
    }
    let mut warm = |sql: &str| -> Result<(), String> {
        match control.request(sql) {
            Ok(r) if r.is_ok() => Ok(()),
            other => Err(format!("warm-up {sql:?}: {other:?}")),
        }
    };
    warm(EXPLAIN)?;
    for s in STORED {
        warm(s)?;
    }
    warm("CREATE TABLE bench_kv (k INT, v FLOAT)")?;
    Ok((server, control, t.elapsed()))
}

/// Drive both connections through their schedules; returns every outcome
/// and the wall time of the ladder.
fn drive(
    ctx: &Ctx,
    addr: &str,
    span: Duration,
    tracer: &Tracer,
) -> Result<(Vec<Outcome>, Duration), String> {
    let schedules: Vec<Vec<Request>> = (0..CONNECTIONS).map(|c| schedule(ctx, c, span)).collect();
    let mut clients = Vec::new();
    for t in TENANTS {
        clients.push(Client::connect(addr, t).map_err(|e| format!("connect {t}: {e}"))?);
    }
    let start = Instant::now();
    let results: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (mut client, sched))| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(sched.len());
                    for (i, req) in sched.iter().enumerate() {
                        let now = start.elapsed();
                        if req.due > now {
                            std::thread::sleep(req.due - now);
                        }
                        let sent = start.elapsed();
                        let id = ((c as u64) << 32) | i as u64;
                        let response = if sent > req.due + GIVE_UP {
                            Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "given up before sending",
                            ))
                        } else {
                            tracer.span("request", id, None, |p| {
                                tracer.span("serve.client_request", id, p, |_| {
                                    client.request(&req.sql)
                                })
                            })
                        };
                        let done = start.elapsed();
                        out.push(Outcome {
                            rung: req.rung,
                            block_end: req.block_end,
                            kind: req.kind.clone(),
                            lag_ms: (sent.saturating_sub(req.due)).as_secs_f64() * 1e3,
                            latency_ms: (done.saturating_sub(req.due)).as_secs_f64() * 1e3,
                            response: response.map_err(|e| e.to_string()),
                            ok: false,
                            steps: 0,
                        });
                    }
                    let _ = client.quit();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    Ok((results.into_iter().flatten().collect(), start.elapsed()))
}

/// Check every outcome and mark those that passed, with the g-calls each
/// simulated.
fn check_all(outcomes: &mut [Outcome], report: &mut Report) {
    // Steps already paid by each ladder family's previous rung.
    let mut paid: std::collections::BTreeMap<u64, u64> = Default::default();
    for o in outcomes {
        report.attempted += 1;
        let what = format!("{:?} at rung {}", o.kind, o.rung);
        let resp = match &o.response {
            Ok(Response::Shed { .. }) => {
                report.fail(format!("{what}: shed"));
                continue;
            }
            Ok(Response::Err(e)) => {
                report.fail(format!("{what}: ERR {e}"));
                continue;
            }
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                continue;
            }
            Ok(r) => r,
        };
        let good = match (&o.kind, resp) {
            (
                Kind::Cold { truth } | Kind::Stored { truth } | Kind::Warm { truth, .. },
                Response::Rows { columns, rows },
            ) => match Answer::from_cells(columns, rows) {
                Some(a) if check::answer_agrees(&a, *truth, 0.0) => {
                    o.steps = match (&o.kind, a.shard_reuse.as_str()) {
                        (_, "stored") => 0,
                        (Kind::Warm { family, .. }, _) => {
                            let before = paid.insert(*family, a.steps).unwrap_or(0);
                            a.steps.saturating_sub(before)
                        }
                        _ => a.steps,
                    };
                    true
                }
                _ => false,
            },
            (Kind::Explain, Response::Rows { rows, .. }) => rows
                .iter()
                .any(|r| r.len() == 2 && r[0] == "resolved_method" && r[1] == "gmlss"),
            (Kind::Select, Response::Rows { columns, rows }) => {
                columns.len() == 2 && !rows.is_empty() && rows.iter().all(|r| r[0] == "walk")
            }
            (Kind::Insert, Response::Ok(s)) => s == "affected 1",
            _ => false,
        };
        if good {
            o.ok = true;
        } else {
            report.wrong(format!("{what}: {resp:?}"), false);
        }
    }
}

/// Latency of the requests at rung `k` whose response passed its check.
fn answered_latency(outcomes: &[Outcome], k: usize) -> Latency {
    let v: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.rung == k && o.ok)
        .map(|o| o.latency_ms)
        .collect();
    Latency::of(&v, TAIL_CAP)
}

/// Per-rung latency summaries and the highest rung meeting the limit.
fn rungs(outcomes: &[Outcome], report: &mut Report) -> (Latency, f64, f64) {
    let mut max_rate = 0.0;
    let mut reference = None;
    let mut lag_tail = 0.0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let in_rung: Vec<&Outcome> = outcomes.iter().filter(|o| o.rung == k).collect();
        let lat = answered_latency(outcomes, k);
        let lag = Latency::of(
            &in_rung.iter().map(|o| o.lag_ms).collect::<Vec<_>>(),
            TAIL_CAP,
        );
        // The backlog grows when the last tenth of the rate's blocks was
        // sent later than the latency limit allows.
        let last: Vec<f64> = in_rung
            .iter()
            .filter(|o| o.block_end)
            .map(|o| o.lag_ms)
            .collect();
        let backlog = median(&last);
        // A request that failed misses the limit.
        let limit_tail = Latency::of(
            &in_rung
                .iter()
                .map(|o| if o.ok { o.latency_ms } else { f64::INFINITY })
                .collect::<Vec<_>>(),
            TAIL_CAP,
        )
        .tail;
        let meets = limit_tail <= LATENCY_LIMIT_MS && backlog <= LATENCY_LIMIT_MS;
        // Every rung up to this one must meet the limit.
        if meets && (k == 0 || max_rate == LADDER[k - 1]) {
            max_rate = rate;
        }
        report.line(format!(
            "rung {rate:>5} qps: p50 {:.3} ms, tail {:.3} ms {}, p95 {:.3} ms, generator lag tail {:.3} ms, end-of-block lag {backlog:.3} ms -> {}",
            lat.p50,
            lat.tail,
            lat.tail_note(),
            Latency::of(&in_rung.iter().filter(|o| o.ok).map(|o| o.latency_ms).collect::<Vec<_>>(), 0.95).tail,
            lag.tail,
            if meets { "meets limit" } else { "misses limit" }
        ));
        if k == REFERENCE_RUNG {
            let by_kind = |f: fn(&Kind) -> bool| {
                median(
                    &in_rung
                        .iter()
                        .filter(|o| o.ok && f(&o.kind))
                        .map(|o| o.latency_ms)
                        .collect::<Vec<_>>(),
                )
            };
            report.line(format!(
                "rung {rate:>5} qps service (send to done) p50 {:.3} ms",
                median(&in_rung.iter().map(|o| o.service_ms()).collect::<Vec<_>>())
            ));
            report.line(format!(
                "rung {rate:>5} qps p50 by kind: cold {:.3}, stored {:.3}, warm {:.3}, explain {:.3}, select {:.3}, insert {:.3} ms",
                by_kind(|k| matches!(k, Kind::Cold { .. })),
                by_kind(|k| matches!(k, Kind::Stored { .. })),
                by_kind(|k| matches!(k, Kind::Warm { .. })),
                by_kind(|k| matches!(k, Kind::Explain)),
                by_kind(|k| matches!(k, Kind::Select)),
                by_kind(|k| matches!(k, Kind::Insert)),
            ));
            reference = Some(lat);
            lag_tail = lag.tail;
        }
    }
    (
        reference.expect("reference rung exists"),
        max_rate,
        lag_tail,
    )
}

/// `SHOW DIAGNOSTICS` over the wire, as `component.counter → value`.
fn diag(client: &mut Client) -> std::collections::BTreeMap<String, f64> {
    match client.request("SHOW DIAGNOSTICS") {
        Ok(Response::Rows { rows, .. }) => rows
            .into_iter()
            .filter(|r| r.len() == 3)
            .filter_map(|r| Some((format!("{}.{}", r[0], r[1]), r[2].parse().ok()?)))
            .collect(),
        _ => Default::default(),
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let awake = Awake::start();
    let mut report = Report::default();
    let (server, control) = report.setups(
        SETUPS,
        &format!(
            "spawn + PING + plan warm-up + {} stored statements + CREATE TABLE",
            STORED.len()
        ),
        |n| setup(ctx, n).map(|(server, control, t)| ((server, control), t)),
    )?;
    report.line(format!(
        "awake: {} of {} vCPUs kept from halting by SCHED_IDLE spinners",
        awake.running(),
        host::nproc()
    ));
    let fsync = format!("{:?}", WalSessionConfig::new(&ctx.tmp).fsync);
    report.line(format!(
        "server: mlss_serve --wal (fsync policy {fsync}), 2 workers, {CONNECTIONS} connections; offered-rate ladder {LADDER:?} qps, reference rung {} qps, latency limit {LATENCY_LIMIT_MS} ms",
        LADDER[REFERENCE_RUNG]
    ));

    let span = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let cpu_before = host::cpu_seconds(server.child.id());
    let (mut outcomes, wall) = drive(ctx, &server.addr, span, &Tracer::new(false))?;
    let cpu_s = match (cpu_before, host::cpu_seconds(server.child.id())) {
        (Some(a), Some(b)) => b - a,
        _ => return Err("cannot read the server's CPU time".into()),
    };
    check_all(&mut outcomes, &mut report);
    let (lat, max_rate, lag_tail) = rungs(&outcomes, &mut report);
    let mix = |f: fn(&Kind) -> bool| outcomes.iter().filter(|o| f(&o.kind)).count();
    report.line(format!(
        "mix: {} cold, {} stored, {} warm, {} explain, {} select, {} insert",
        mix(|k| matches!(k, Kind::Cold { .. })),
        mix(|k| matches!(k, Kind::Stored { .. })),
        mix(|k| matches!(k, Kind::Warm { .. })),
        mix(|k| matches!(k, Kind::Explain)),
        mix(|k| matches!(k, Kind::Select)),
        mix(|k| matches!(k, Kind::Insert)),
    ));
    report.metric(
        "latency_p50_ms",
        lat.p50,
        format!(
            "due time to last response line at {} qps, n={}",
            LADDER[REFERENCE_RUNG], lat.n
        ),
    );
    report.metric("latency_tail_ms", lat.tail, lat.tail_note());
    // The open-loop schedule fixes how many answers and steps a run
    // holds and how long it lasts, so throughput here is per second of
    // the server's CPU time, which the server sets. Unlike wall or
    // send-to-done time it leaves out what the hypervisor stole and the
    // stalls that follow from it on a shared host.
    let ok = outcomes.iter().filter(|o| o.ok).count();
    let steps: u64 = outcomes.iter().map(|o| o.steps).sum();
    report.line(format!(
        "ladder wall {:.3} s ({:.2} answers/s, set by the schedule); server CPU time {cpu_s:.3} s",
        wall.as_secs_f64(),
        ok as f64 / wall.as_secs_f64()
    ));
    report.metric(
        "answers_per_s",
        ok as f64 / cpu_s,
        format!("{ok} correct answers per second of server CPU time"),
    );
    report.metric(
        "msteps_per_s",
        steps as f64 / cpu_s / 1e6,
        format!(
            "{steps} g-calls simulated (stored answers count 0, warm ones their marginal steps) per second of server CPU time"
        ),
    );
    report.metric(
        "max_rate_qps",
        max_rate,
        format!("highest rung with tail <= {LATENCY_LIMIT_MS} ms and no growing backlog"),
    );
    report.metric(
        "failed_frac",
        report.failed_frac(),
        format!("{} of {}", report.failed, report.attempted),
    );
    report.metric(
        "peak_rss_mb",
        host::peak_rss_mb(server.child.id()).unwrap_or(f64::NAN),
        "VmHWM of the mlss_serve process",
    );

    if ctx.trace {
        report.metric(
            "bench.gen_lag_ms_tail",
            lag_tail,
            format!("reference rung, {}", lat.tail_note()),
        );
        drop(control);
        drop(server);
        traced(ctx, tracer, &mut report, span, lat.p50)?;
    } else {
        let _ = control.quit();
    }
    Ok(report)
}

/// The traced run: the same schedule against a fresh server with spans
/// on and counters read around it, then embedded replications for the
/// session, WAL and parser costs and the layer probes.
fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
    span: Duration,
    untraced_p50: f64,
) -> Result<(), String> {
    let (server, mut control, _) = setup(ctx, SETUPS)?;
    let before = diag(&mut control);
    let (mut outcomes, _) = drive(ctx, &server.addr, span, tracer)?;
    let after = diag(&mut control);
    let d = |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let mut replay = Report::default();
    check_all(&mut outcomes, &mut replay);
    report.absorb(replay);
    report.trace_overhead(
        answered_latency(&outcomes, REFERENCE_RUNG).p50,
        untraced_p50,
    );
    let n = outcomes.len() as f64;
    let reuse = |k: &str| {
        outcomes
            .iter()
            .filter(|o| matches!(&o.response, Ok(Response::Rows { columns, rows }) if Answer::from_cells(columns, rows).is_some_and(|a| a.shard_reuse == k)))
            .count() as f64
            / n
    };
    layers::cache_metrics(report, &d, reuse("stored"), reuse("warm"));
    report.metric(
        "scheduler.slices_per_query",
        d("scheduler.slices"),
        "sync statements bypass the scheduler",
    );
    report.not_applicable(&ASYNC_METRICS, "no ASYNC statements or races");
    report.metric(
        "wal.bytes_per_stmt",
        d("wal.wal_bytes") / n,
        format!("{} bytes", d("wal.wal_bytes")),
    );
    report.metric(
        "wal.fsyncs_per_stmt",
        d("wal.wal_fsyncs") / n,
        format!("{} fsyncs", d("wal.wal_fsyncs")),
    );
    report.metric(
        "wal.records_per_stmt",
        d("wal.wal_records") / n,
        format!("{} records", d("wal.wal_records")),
    );
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o.response, Ok(Response::Shed { .. })))
        .count() as f64;
    report.metric(
        "serve.shed_frac",
        shed / n,
        format!("admission global.shed delta {}", d("admission.global.shed")),
    );
    let mut rtt = Vec::new();
    for i in 0..200 {
        let t = Instant::now();
        let ok = tracer.span("serve.ping", 3_000_000 + i, None, |_| control.ping());
        if matches!(ok, Ok(true)) {
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.metric(
        "serve.ping_rtt_us",
        median(&rtt),
        format!("median of {} PINGs", rtt.len()),
    );
    let _ = control.quit();
    drop(server);

    // Parser cost of every statement the schedule sends.
    let registry = ModelRegistry::with_builtins();
    let schemas = registry.schemas();
    let sched = schedule(ctx, 0, span);
    for (i, r) in sched.iter().enumerate() {
        tracer.span("sql.parse", 4_000_000 + i as u64, None, |_| {
            if mlss_db::is_dialect(&r.sql) {
                mlss_db::parse_dialect(&r.sql, Some(&schemas)).is_ok()
            } else {
                mlss_db::sql::parse(&r.sql).is_ok()
            }
        });
    }
    report.metric(
        "sql.parse_us",
        tracer.mean_self_us("sql.parse"),
        "bench-side parse_dialect / plain parse per statement",
    );
    embedded(ctx, tracer, report)?;

    let probes = vec![layers::probe(
        &Shape {
            model: ModelKind::Walk { up: 0.3 },
            method: MethodKind::GMlss,
            beta: 12.0,
            horizon: 100,
            target_re: 0.20,
            auto_width: 64,
        },
        ctx.derive(2, 0),
        tracer,
        5_000_000,
    )];
    layers::record(report, &probes);
    report.not_applicable(&["bench.identity_rows"], "no threads=1 pinned replay here");
    Ok(())
}

/// Session overhead and WAL write overhead from embedded sessions: the
/// same statements through `Session::execute_as` with the WAL on and off.
fn embedded(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let dir = ctx.tmp.join("embedded-wal");
    let on = Session::open(
        &dir,
        SessionConfig {
            workers: 2,
            ..SessionConfig::default()
        },
    )
    .map_err(|e| format!("open WAL session: {e}"))?;
    let off = Session::new(SessionConfig {
        workers: 2,
        ..SessionConfig::default()
    })
    .map_err(|e| format!("open session: {e}"))?;
    let mut times = [Vec::new(), Vec::new()];
    for (s, session) in [&on, &off].into_iter().enumerate() {
        session
            .execute_as(Some("alpha"), "CREATE TABLE bench_kv (k INT, v FLOAT)")
            .map_err(|e| e.to_string())?;
        for i in 0..200u64 {
            let sql = format!("INSERT INTO bench_kv VALUES ({i}, 0.5)");
            let t = Instant::now();
            let r = tracer.span("session.execute_as", 6_000_000 + i, None, |_| {
                session.execute_as(Some("alpha"), &sql)
            });
            if r.is_ok() {
                times[s].push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let (w_on, w_off) = (median(&times[0]), median(&times[1]));
    report.metric(
        "wal.write_overhead_us",
        w_on - w_off,
        format!("INSERT execute_as median WAL on {w_on:.1} us - off {w_off:.1} us"),
    );
    report.metric(
        "session.overhead_us",
        layers::stored_repeat_overhead_us(&on, STORED[0], tracer, 7_000_000),
        "execute_as wall - results.millis on store-served repeats, WAL on",
    );
    drop(on);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

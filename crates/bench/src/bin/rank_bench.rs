//! `rank_bench` — raced top-k selection vs exhaustive per-candidate
//! estimation, end-to-end through the SQL dialect.
//!
//! The workload is the ranking question the subsystem exists for: *which
//! of these candidates is the most durable?* Two ways to answer it:
//!
//! * **exhaustive** — estimate every candidate to the relative-error
//!   target (one sync `ESTIMATE` per arm), then sort. Every arm pays
//!   full price, including the obvious losers.
//! * **raced** — one `ESTIMATE … RANK BY TOP 1` statement: the arms
//!   advance in rounds and confidence-bound boundary elimination freezes
//!   arms as soon as their interval cannot cross the top-k boundary, so
//!   losers stop sampling after a round or two.
//!
//! The harness runs both over the same spread walk field with pinned
//! seeds, reports total `g` invocations and wall clock for each, and
//! **gates**: the raced winner must match the exhaustive argmax-τ̂
//! winner, and raced steps must be at most half the exhaustive steps
//! (the ≥2x saving the racing machinery claims).
//!
//! Usage: `cargo run --release -p mlss-bench --bin rank_bench [--smoke]`

use mlss_db::{ExecResult, Session, SessionConfig, Statement, Value};
use std::time::Instant;

struct Shape {
    /// Sweep endpoints and step for the walk `up` parameter.
    from: f64,
    to: f64,
    step: f64,
    /// Relative-error target both paths run under.
    re: f64,
    /// Race round cap and per-arm round budget.
    rounds: usize,
    round_budget: u64,
    seed: u64,
}

fn session() -> Session {
    Session::new(SessionConfig {
        workers: 1,
        seed: 4242,
        // No cross-query reuse on either path: both pay full price, so
        // the comparison isolates the racing machinery.
        shard_store_capacity: 0,
        ..SessionConfig::default()
    })
    .expect("bench session")
}

fn rows_of(res: ExecResult) -> Vec<Vec<Value>> {
    match res {
        ExecResult::Rows { rows, .. } => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn as_text(v: &Value) -> &str {
    match v {
        Value::Text(s) => s,
        other => panic!("expected text, got {other:?}"),
    }
}

/// The race statement both paths answer.
fn race_sql(shape: &Shape) -> String {
    format!(
        "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM {} TO {} STEP {} \
         WITHIN 50 USING srs TARGET RE {} \
         RANK BY TOP 1 (rounds={}, round_budget={}) WITH (seed={})",
        shape.from, shape.to, shape.step, shape.re, shape.rounds, shape.round_budget, shape.seed
    )
}

/// The raced path: one RANK BY statement. Returns (winner label, total
/// steps across all arms, wall seconds, standings row count).
fn run_raced(shape: &Shape) -> (String, u64, f64, usize) {
    let s = session();
    let sql = race_sql(shape);
    let start = Instant::now();
    let rows = rows_of(s.execute(&sql).expect("raced statement"));
    let wall = start.elapsed().as_secs_f64();
    let winner = as_text(&rows[0][1]).to_string();
    let steps: u64 = rows.iter().map(|r| as_f64(&r[7]) as u64).sum();
    for row in &rows {
        println!(
            "rank_bench raced_standing rank={} arm=\"{}\" tau={:.6} frozen_round={} reason={} steps={}",
            as_f64(&row[0]) as i64,
            as_text(&row[1]),
            as_f64(&row[2]),
            as_f64(&row[5]) as i64,
            as_text(&row[6]),
            as_f64(&row[7]) as u64,
        );
    }
    (winner, steps, wall, rows.len())
}

/// The exhaustive path: every candidate estimated to the same target,
/// one sync `ESTIMATE` each. Returns (argmax-τ̂ up value, total steps,
/// wall seconds).
fn run_exhaustive(shape: &Shape) -> (f64, u64, f64) {
    let s = session();
    let mut best: (f64, f64) = (f64::NEG_INFINITY, shape.from);
    let mut steps: u64 = 0;
    let start = Instant::now();
    // The race's own arms, as the parser expanded its SWEEP, so the
    // swept values (and their rendered labels) match bit for bit.
    let Ok(Statement::Rank(race)) = mlss_db::sql::parse(&race_sql(shape)) else {
        panic!("race statement must parse to a ranking");
    };
    for (i, arm) in race.arms.iter().enumerate() {
        let up = arm.params["up"];
        let sql = format!(
            "ESTIMATE DURABILITY OF {} WITHIN 50 USING srs TARGET RE {} WITH (seed={})",
            arm.model_ref(),
            shape.re,
            mlss_db::arm_seed(shape.seed, i),
        );
        let rows = rows_of(s.execute(&sql).expect("exhaustive statement"));
        // Sync estimate row: model, method, tau, variance, steps, …
        let tau = as_f64(&rows[0][2]);
        let arm_steps = as_f64(&rows[0][4]) as u64;
        steps += arm_steps;
        println!("rank_bench exhaustive_arm up={up} tau={tau:.6} steps={arm_steps}");
        if tau > best.0 {
            best = (tau, up);
        }
    }
    (best.1, steps, start.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke {
        Shape {
            from: 0.36,
            to: 0.48,
            step: 0.04,
            re: 0.03,
            rounds: 20,
            round_budget: 5_000,
            seed: 7,
        }
    } else {
        Shape {
            from: 0.36,
            to: 0.56,
            step: 0.04,
            re: 0.01,
            rounds: 60,
            round_budget: 5_000,
            seed: 7,
        }
    };

    let (raced_winner, raced_steps, raced_wall, arms) = run_raced(&shape);
    let (exhaustive_up, exhaustive_steps, exhaustive_wall) = run_exhaustive(&shape);

    let saving = exhaustive_steps as f64 / raced_steps.max(1) as f64;
    // `up` is the ref's last parameter, so anchoring on the closing
    // paren keeps `up=0.4` from matching a `up=0.48` label.
    let winner_tag = format!("up={exhaustive_up})");
    let agree = raced_winner.contains(&winner_tag);
    println!(
        "rank_bench summary arms={arms} raced_steps={raced_steps} exhaustive_steps={exhaustive_steps} \
         saving={saving:.2}x raced_wall={raced_wall:.3}s exhaustive_wall={exhaustive_wall:.3}s \
         raced_winner=\"{raced_winner}\" exhaustive_winner={winner_tag} agree={agree}"
    );

    // The gates: same top-1, at least a 2x budget saving.
    if !agree {
        eprintln!("rank_bench FAIL: raced winner disagrees with exhaustive argmax");
        std::process::exit(1);
    }
    if saving < 2.0 {
        eprintln!("rank_bench FAIL: saving {saving:.2}x is below the 2x gate");
        std::process::exit(1);
    }
    println!("rank_bench PASS");
}

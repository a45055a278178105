//! Parallel-driver scaling: the sharded-merge driver
//! (`mlss_core::parallel::run_parallel`) on one thread vs `threads`
//! threads, on the same query to the same relative-error target.
//!
//! Workers deposit into per-worker slots and a single try-lock winner
//! reduces and evaluates the stopping rule at a coarse stride, so merge
//! cost stays off the workers' critical path; the throughput ratio is
//! the driver's scaling on this host.
//!
//! Usage: `cargo run --release -p mlss-bench --bin parallel_speedup
//! [threads] [target_re]` (defaults: 8 threads, 1% RE, compound-Poisson
//! surplus model — the CHANGES.md benchmark configuration).

use mlss_bench::balanced_for;
use mlss_core::parallel::{run_parallel, ParallelConfig};
use mlss_core::prelude::*;
use mlss_models::{surplus_score, CompoundPoisson};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let target_re: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(0.01);

    // The CHANGES.md configuration: compound-Poisson surplus model,
    // moderate-probability query, run to a 1% relative-error target.
    let model = CompoundPoisson::paper_default();
    let vf = RatioValue::new(surplus_score, 50.0);
    let problem = Problem::new(&model, &vf, 500);
    let plan = balanced_for(problem, 5, 4242);
    let base = GMlssConfig::new(plan, RunControl::budget(1));
    let control = RunControl::Target {
        target: QualityTarget::RelativeError {
            target: target_re,
            reference: None,
        },
        check_every: 256,
        max_steps: 20_000_000_000,
    };
    let sync_every = 65_536;

    println!(
        "parallel_speedup: CPP surplus β=50 s=500, {threads} threads, RE target {:.2}%",
        target_re * 100.0
    );

    let run = |threads: usize| {
        let cfg = ParallelConfig {
            threads,
            sync_every,
            seed: 7,
            bootstrap_resamples: 200,
            batch_width: 0,
        };
        let run = run_parallel(problem, &base, control, &cfg);
        let rate = run.estimate.steps as f64 / run.elapsed.as_secs_f64();
        println!(
            "{threads:>3} thread(s)       : τ̂={:.5}  steps={:>12}  wall={:>7.2}s  throughput={:>6.1} Msteps/s  (merges={}, contended={})",
            run.estimate.tau,
            run.estimate.steps,
            run.elapsed.as_secs_f64(),
            rate / 1e6,
            run.merges,
            run.contended_merges
        );
        (rate, run.elapsed.as_secs_f64())
    };
    let (one_rate, one_wall) = run(1);
    let (many_rate, many_wall) = run(threads);
    println!(
        "throughput speedup : {:.2}x  (wall-clock {:.2}x)",
        many_rate / one_rate,
        one_wall / many_wall
    );
}

//! `durabench` — one benchmark for the durability-query engine.
//!
//! ```text
//! durabench --workload solve_rare|serve_mix|async_race --seed N \
//!     --seconds S --trace 0|1
//! ```
//!
//! Drives the engine only through its front doors (`Session::execute*`
//! and the `mlss_serve` socket), checks every answer, and prints a
//! provenance block, one `metric` line per metric, and a final JSON line.
//! `--trace 1` adds in-memory spans around each layer call made from this
//! package and reports the per-layer metrics instead. See `README.md`.

mod async_race;
mod check;
mod host;
mod layers;
mod report;
mod serve_mix;
mod solve_rare;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// Settings of one run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `mlss_serve` binary, built beside this one.
    pub serve_bin: PathBuf,
    /// Scratch directory for WAL files; removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    /// A per-run seed for request `i` of `stream`, derived from the
    /// workload seed.
    pub fn derive(&self, stream: u64, i: u64) -> u64 {
        splitmix(self.seed ^ splitmix(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
    }
}

/// SplitMix64 finaliser.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage() -> ! {
    eprintln!(
        "usage: durabench --workload solve_rare|serve_mix|async_race --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|s| (1..=120).contains(s)),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !["solve_rare", "serve_mix", "async_race"].contains(&workload.as_str()) {
        usage();
    }
    let serve_bin = std::env::current_exe()
        .expect("the benchmark knows its own path")
        .with_file_name("mlss_serve");
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        serve_bin,
        tmp,
    }
}

fn main() {
    let ctx = parse_args();
    println!(
        "durabench workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.trace)
    );
    println!(
        "host nproc={} simd={} rev={}",
        host::nproc(),
        host::simd(),
        host::rev()
    );
    let tracer = trace::Tracer::new(ctx.trace);
    let jiffies = host::cpu_jiffies();
    let report = match ctx.workload.as_str() {
        "solve_rare" => solve_rare::run(&ctx, &tracer),
        "serve_mix" => serve_mix::run(&ctx, &tracer),
        _ => async_race::run(&ctx, &tracer),
    };
    // A shared host's load moves every figure; the share of vCPU time the
    // hypervisor took for others during the run is printed beside them.
    if let (Some((t0, s0)), Some((t1, s1))) = (jiffies, host::cpu_jiffies()) {
        println!(
            "host steal {:.1}% of vCPU time during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("durabench: {e}");
            std::process::exit(1);
        }
    };
    if ctx.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.tsv", ctx.workload, ctx.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("durabench: could not write spans: {e}"),
        }
        let mut spans = 0;
        for (name, (n, ms)) in tracer.self_ms() {
            println!("span {name}: {n} calls, self {ms:.3} ms");
            spans += n;
        }
        report.metric("bench.spans", spans as f64, "");
    }
    if !report.emit(ctx.trace) {
        std::process::exit(1);
    }
}

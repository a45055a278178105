//! The metric catalogue, the result of one run, and its output.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics every workload reports with tracing off. These are
/// the ones `BENCHMARK.json` gates.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("msteps_per_s", "Msteps/s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed only on the workloads they describe.
pub const WORKLOAD_ONLY: [(&str, &str); 5] = [
    ("g_calls_per_answer", "steps"),
    ("mlss_cost_x", "x"),
    ("max_rate_qps", "1/s"),
    ("makespan_s", "s"),
    ("failed_frac", "frac"),
];

/// The WAL metrics, which do not apply where the WAL is off.
pub const WAL_METRICS: [&str; 4] = [
    "wal.bytes_per_stmt",
    "wal.fsyncs_per_stmt",
    "wal.records_per_stmt",
    "wal.write_overhead_us",
];

/// The scheduler and ranking metrics, which do not apply to synchronous
/// statements.
pub const ASYNC_METRICS: [&str; 2] = ["scheduler.first_slice_wait_ms", "ranking.steps_per_race"];

/// The socket metrics, which do not apply to an embedded session.
pub const SERVE_METRICS: [&str; 2] = ["serve.ping_rtt_us", "serve.shed_frac"];

/// Per-layer metrics of the traced run: name, unit, and the end-to-end
/// metric (and workload) each should move.
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    (
        "models.kernel_msteps_per_s",
        "Msteps/s",
        "msteps_per_s, latency_p50_ms on solve_rare; nothing on serve_mix",
    ),
    (
        "models.kernel_busy_frac",
        "frac",
        "ceiling on any kernel gain on solve_rare",
    ),
    (
        "models.lane_occupancy",
        "frac",
        "msteps_per_s on solve_rare",
    ),
    (
        "frontier.self_ns_per_step",
        "ns",
        "msteps_per_s on solve_rare",
    ),
    (
        "frontier.discarded_frac",
        "frac",
        "msteps_per_s on solve_rare",
    ),
    (
        "estimator.check_ms_per_answer",
        "ms",
        "latency_tail_ms on solve_rare",
    ),
    (
        "estimator.roots_per_answer",
        "count",
        "g_calls_per_answer, mlss_cost_x on solve_rare",
    ),
    (
        "estimator.steps_per_root",
        "steps",
        "g_calls_per_answer, mlss_cost_x on solve_rare",
    ),
    (
        "estimator.skip_frac",
        "frac",
        "g_calls_per_answer, mlss_cost_x on solve_rare",
    ),
    (
        "driver.parallel_efficiency",
        "frac",
        "latency_p50_ms, msteps_per_s on solve_rare; makespan_s on async_race",
    ),
    (
        "driver.width_gain",
        "x",
        "latency_p50_ms, msteps_per_s on solve_rare; makespan_s on async_race",
    ),
    (
        "driver.contended_merge_frac",
        "frac",
        "latency_p50_ms, msteps_per_s on solve_rare; makespan_s on async_race",
    ),
    ("plan_cache.pilot_ms", "ms", "setup_s on every workload"),
    ("plan_cache.hit_frac", "frac", "latency_p50_ms on serve_mix"),
    (
        "shard_store.hit_frac",
        "frac",
        "latency_p50_ms, answers_per_s on serve_mix; ~0 on solve_rare",
    ),
    (
        "shard_store.stored_frac",
        "frac",
        "latency_p50_ms, answers_per_s on serve_mix; ~0 on solve_rare",
    ),
    (
        "shard_store.warm_frac",
        "frac",
        "latency_p50_ms, answers_per_s on serve_mix; ~0 on solve_rare",
    ),
    (
        "shard_store.evictions",
        "count",
        "latency_p50_ms, answers_per_s on serve_mix; ~0 on solve_rare",
    ),
    (
        "scheduler.slices_per_query",
        "count",
        "latency_tail_ms, makespan_s on async_race",
    ),
    (
        "scheduler.first_slice_wait_ms",
        "ms",
        "latency_tail_ms, makespan_s on async_race",
    ),
    (
        "ranking.steps_per_race",
        "steps",
        "makespan_s on async_race",
    ),
    (
        "sql.parse_us",
        "us",
        "latency_p50_ms, max_rate_qps on serve_mix; negligible on solve_rare",
    ),
    (
        "session.overhead_us",
        "us",
        "latency_p50_ms, max_rate_qps on serve_mix; negligible on solve_rare",
    ),
    (
        "wal.bytes_per_stmt",
        "bytes",
        "latency_tail_ms, max_rate_qps on serve_mix",
    ),
    (
        "wal.fsyncs_per_stmt",
        "count",
        "latency_tail_ms, max_rate_qps on serve_mix",
    ),
    (
        "wal.records_per_stmt",
        "count",
        "latency_tail_ms, max_rate_qps on serve_mix",
    ),
    (
        "wal.write_overhead_us",
        "us",
        "latency_tail_ms, max_rate_qps on serve_mix",
    ),
    (
        "serve.ping_rtt_us",
        "us",
        "latency_p50_ms on serve_mix (the wire floor)",
    ),
    (
        "serve.shed_frac",
        "frac",
        "failed_frac, max_rate_qps on serve_mix",
    ),
    (
        "bench.gen_lag_ms_tail",
        "ms",
        "validity: how late the open-loop generator sent",
    ),
    (
        "bench.trace_overhead_frac",
        "frac",
        "validity: traced vs untraced latency_p50_ms",
    ),
    (
        "bench.identity_rows",
        "count",
        "validity: rows checked bit-identical traced vs untraced",
    ),
    (
        "bench.spans",
        "count",
        "validity: spans recorded in the traced run",
    ),
];

/// The result of one run.
#[derive(Default)]
pub struct Report {
    /// Requests sent (statements, submissions, races).
    pub attempted: u64,
    /// Errors, sheds, timeouts, and answers that failed their check.
    pub failed: u64,
    /// Failures that are not the committed known defect: any entry here
    /// makes the run incorrect.
    pub broken: Vec<String>,
    /// Answers that reproduced the committed known defect.
    pub known_defects: u64,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Record a metric with a note printed beside it.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.insert(name, (value, note.into()));
    }

    /// Per-layer metrics that do not apply to this workload: reported as
    /// 0 and marked so.
    pub fn not_applicable(&mut self, names: &[&'static str], why: &str) {
        for name in names {
            self.metric(name, 0.0, format!("n/a: {why}"));
        }
    }

    /// Set up `n` times with `setup`, which returns what it built and how
    /// long that took; records the median as `setup_s` and returns the
    /// last thing built.
    pub fn setups<T>(
        &mut self,
        n: usize,
        what: &str,
        mut setup: impl FnMut(usize) -> Result<(T, Duration), String>,
    ) -> Result<T, String> {
        let mut times = Vec::with_capacity(n);
        let mut last = None;
        for i in 0..n {
            let (built, t) = setup(i)?;
            times.push(t.as_secs_f64());
            last = Some(built);
        }
        self.line(format!("setup: {what}, x{n}: {times:?} s"));
        self.metric("setup_s", median(&times), format!("median of {n}"));
        Ok(last.expect("at least one set-up"))
    }

    /// `bench.trace_overhead_frac` from the traced and untraced
    /// `latency_p50_ms`.
    pub fn trace_overhead(&mut self, traced_p50: f64, untraced_p50: f64) {
        self.metric(
            "bench.trace_overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            format!("latency_p50_ms traced {traced_p50:.4} vs untraced {untraced_p50:.4}"),
        );
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Count one request that got no answer — an error, a shed, a
    /// timeout, a missing row — and mark the run incorrect.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.line(format!("FAILED: {what}"));
        self.broken.push(what);
    }

    /// Count one answer that failed its check and, unless it is the
    /// committed known defect, mark the run incorrect.
    pub fn wrong(&mut self, what: String, known_defect: bool) {
        self.failed += 1;
        if known_defect {
            self.known_defects += 1;
            if self.known_defects == 1 {
                self.line(format!("known defect reproduced: {what}"));
            }
        } else {
            self.line(format!("WRONG: {what}"));
            self.broken.push(what);
        }
    }

    /// Add the requests and failures of a second pass (the traced run) to
    /// this report.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.known_defects += other.known_defects;
        self.broken.extend(other.broken);
        self.lines.extend(
            other
                .lines
                .into_iter()
                .filter(|l| !l.starts_with("known defect")),
        );
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print the human-readable block and the final JSON line; returns
    /// false (and prints no JSON) when a metric the mode needs is missing
    /// or not finite.
    pub fn emit(&self, trace: bool) -> bool {
        for l in &self.lines {
            println!("{l}");
        }
        if self.known_defects > 0 {
            println!(
                "known defect reproduced {} times; counted in failed and failed_frac",
                self.known_defects
            );
        }
        let unit_of = |name: &str| -> (&'static str, &'static str) {
            END_TO_END
                .iter()
                .map(|(n, u)| (*n, *u, ""))
                .chain(WORKLOAD_ONLY.iter().map(|(n, u)| (*n, *u, "")))
                .chain(PER_LAYER.iter().copied())
                .find(|(n, _, _)| *n == name)
                .map(|(_, u, m)| (u, m))
                .unwrap_or(("", ""))
        };
        for (name, (value, note)) in &self.metrics {
            let (unit, moves) = unit_of(name);
            let mut line = format!("metric {name} = {value} {unit}");
            if !note.is_empty() {
                let _ = write!(line, "  [{note}]");
            }
            if trace && !moves.is_empty() {
                let _ = write!(line, "  -> {moves}");
            }
            println!("{line}");
        }
        let wanted: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut json = String::new();
        for (name, unit) in wanted {
            match self.metrics.get(name) {
                Some((v, _)) if v.is_finite() => {
                    if !json.is_empty() {
                        json.push_str(", ");
                    }
                    let _ = write!(
                        json,
                        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    );
                }
                other => {
                    eprintln!("durabench: metric {name} missing or not finite: {other:?}");
                    return false;
                }
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.broken.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(WORKLOAD_ONLY.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn every_failure_but_the_known_defect_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.wrong("inverted top 2".into(), true);
        assert!(r.broken.is_empty());
        r.fail("ERR unknown model".into());
        r.wrong("tau off by 6 SE".into(), false);
        assert_eq!((r.failed, r.known_defects, r.broken.len()), (3, 1, 2));
    }

    #[test]
    fn the_benchmark_file_names_exactly_these_metrics() {
        let file = include_str!("../../BENCHMARK.json");
        for (n, u) in END_TO_END {
            assert!(
                file.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}"
            );
        }
        for (n, u, _) in PER_LAYER {
            assert!(
                file.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}"
            );
        }
        assert_eq!(
            file.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads plus every metric"
        );
    }
}

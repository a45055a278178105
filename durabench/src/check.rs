//! Correctness checks. `walk` and `markov` answers are compared with
//! exact hitting probabilities; `cpp` and `queue` answers with the
//! reference τ committed in `reference_tau.tsv`. An answer passes when
//! it lies within [`Z`] standard errors of the reference, using the
//! answer's own reported variance plus the reference's.

use mlss_analytic::{hitting_probability, walk_hitting_probability, WalkSpec};
use mlss_models::MarkovChain;

/// Standard errors an answer may sit from its reference. At five, a
/// correct estimator with an honest variance misses about once in 1.7
/// million answers.
pub const Z: f64 = 5.0;

const REFERENCE: &str = include_str!("../reference_tau.tsv");

/// The committed reference `(τ, variance)` of a statement shape, keyed
/// as `model(beta=…) WITHIN h`.
pub fn reference(shape: &str) -> Option<(f64, f64)> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            if cols.len() < 3 || cols[0] != shape {
                return None;
            }
            let tau: f64 = cols[1].parse().ok()?;
            let se: f64 = cols[2].parse().ok()?;
            Some((tau, se * se))
        })
}

/// Exact τ of the registry's default `walk` (up 0.3 unless overridden,
/// down 0.3, start 0, reflected at 0) reaching `beta` within `horizon`.
pub fn walk_truth(up: f64, beta: i64, horizon: u64) -> f64 {
    walk_hitting_probability(
        WalkSpec {
            up,
            down: 0.3,
            start: 0,
            floor: Some(0),
        },
        beta,
        horizon,
    )
}

/// Exact τ of the registry's birth–death `markov` chain (starting in
/// state 0, down probability 0.3) reaching state `beta` within `horizon`.
pub fn markov_truth(states: usize, p_up: f64, beta: usize, horizon: u64) -> f64 {
    let chain = MarkovChain::birth_death(states, p_up, 0.3, 0);
    hitting_probability(chain.rows(), |j| j >= beta, 0, horizon)
}

/// Does `(tau, variance)` agree with `(truth, truth_var)`?
pub fn agrees(tau: f64, variance: f64, truth: f64, truth_var: f64) -> bool {
    if !tau.is_finite() || variance.is_nan() || variance < 0.0 {
        return false;
    }
    let se = (variance + truth_var).sqrt();
    (tau - truth).abs() <= Z * se
}

/// [`agrees`] for an answer from `roots` independent root paths (SRS),
/// whose variance is at least the binomial `τ(1 − τ)/roots` at the true
/// τ. A target-mode SRS run stops after about `1/RE²` hits, and the
/// reported variance `τ̂(1 − τ̂)/n` shrinks with τ̂ itself, so a run that
/// drew few hits looks far more certain than it is: judged by its own
/// variance alone, a correct estimator at 25% RE misses 5 standard errors
/// about once in a few thousand answers.
pub fn agrees_srs(tau: f64, variance: f64, roots: u64, truth: f64, truth_var: f64) -> bool {
    let binomial = truth * (1.0 - truth) / roots.max(1) as f64;
    agrees(tau, variance.max(binomial), truth, truth_var)
}

/// Does an estimate row agree with the truth? SRS rows use
/// [`agrees_srs`].
pub fn answer_agrees(a: &Answer, truth: f64, truth_var: f64) -> bool {
    if a.method == "srs" {
        agrees_srs(a.tau, a.variance, a.roots, truth, truth_var)
    } else {
        agrees(a.tau, a.variance, truth, truth_var)
    }
}

/// Do two answers to the same question agree statistically?
pub fn agree_pair(a: (f64, f64), b: (f64, f64)) -> bool {
    agrees(a.0, a.1, b.0, b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_references_parse() {
        for shape in ["cpp(beta=100) WITHIN 500", "queue(beta=45) WITHIN 500"] {
            let (tau, var) = reference(shape).expect(shape);
            assert!(tau > 0.0 && tau < 0.1 && var > 0.0, "{shape}: {tau} {var}");
        }
        assert!(reference("cpp(beta=1) WITHIN 1").is_none());
    }

    #[test]
    fn exact_references_are_in_the_rare_regime() {
        let walk = walk_truth(0.3, 30, 200);
        assert!(walk > 1e-3 && walk < 0.05, "{walk}");
        // The race arms are ordered by their up probability.
        let arms: Vec<f64> = [0.30, 0.34, 0.38, 0.42]
            .iter()
            .map(|&u| walk_truth(u, 20, 50))
            .collect();
        assert!(arms.windows(2).all(|w| w[0] < w[1]), "{arms:?}");
        let m = markov_truth(32, 0.3, 10, 100);
        assert!(m > 0.0 && m < 0.5, "{m}");
    }

    #[test]
    fn agreement_uses_both_variances() {
        assert!(agrees(1.0, 0.04, 1.9, 0.0)); // 0.9 ≤ 5 × 0.2
        assert!(!agrees(1.0, 0.0001, 1.9, 0.0));
        assert!(agrees(1.0, 0.0001, 1.9, 0.04));
        assert!(!agrees(f64::NAN, 1.0, 0.0, 0.0));
        assert!(!agrees(0.0, 0.0, 1e-3, 0.0)); // a zero answer to a rare event
    }

    #[test]
    fn srs_answers_are_judged_at_the_true_binomial_variance() {
        // 16 hits in 514 roots against τ = 0.0697: 5.04 of its own
        // standard errors low, 3.4 binomial ones.
        let (tau, n) = (16.0 / 514.0, 514);
        let own = tau * (1.0 - tau) / n as f64;
        assert!(!agrees(tau, own, 0.0697, 0.0));
        assert!(agrees_srs(tau, own, n, 0.0697, 0.0));
        // A wrong answer still fails: half the true τ from 5000 roots.
        let n = 5000;
        assert!(!agrees_srs(0.035, 0.035 * 0.965 / n as f64, n, 0.0697, 0.0));
        // The known zero-hit answer fails however it is judged.
        assert!(!agrees_srs(0.0, 0.0, 20_000, 0.0697, 0.0));
    }
}

/// One estimate row, from an embedded [`mlss_db::ExecResult`] or the
/// wire's tab-separated cells.
#[derive(Debug, Clone)]
pub struct Answer {
    pub method: String,
    pub tau: f64,
    pub variance: f64,
    pub steps: u64,
    pub roots: u64,
    pub millis: i64,
    pub shard_reuse: String,
}

const ESTIMATE_COLUMNS: [&str; 9] = [
    "model",
    "method",
    "tau",
    "variance",
    "steps",
    "n_roots",
    "millis",
    "plan_cache",
    "shard_reuse",
];

impl Answer {
    pub fn from_exec(res: &mlss_db::ExecResult) -> Option<Answer> {
        let mlss_db::ExecResult::Rows { columns, rows } = res else {
            return None;
        };
        if columns.as_slice() != ESTIMATE_COLUMNS || rows.len() != 1 {
            return None;
        }
        let r = &rows[0];
        Some(Answer {
            method: r[1].as_str()?.to_string(),
            tau: r[2].as_f64()?,
            variance: r[3].as_f64()?,
            steps: u64::try_from(r[4].as_i64()?).ok()?,
            roots: u64::try_from(r[5].as_i64()?).ok()?,
            millis: r[6].as_i64()?,
            shard_reuse: r[8].as_str()?.to_string(),
        })
    }

    pub fn from_cells(columns: &[String], rows: &[Vec<String>]) -> Option<Answer> {
        if columns != ESTIMATE_COLUMNS || rows.len() != 1 || rows[0].len() != 9 {
            return None;
        }
        let r = &rows[0];
        Some(Answer {
            method: r[1].clone(),
            tau: r[2].parse().ok()?,
            variance: r[3].parse().ok()?,
            steps: r[4].parse().ok()?,
            roots: r[5].parse().ok()?,
            millis: r[6].parse().ok()?,
            shard_reuse: r[8].clone(),
        })
    }
}

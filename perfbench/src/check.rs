//! Statistical output checks: drained estimates against the analytic
//! 5σ bands around the population's true marginals, as the repository's
//! conformance suite checks them.

use ldp_core::solutions::{DynSolution, RsFdProtocol};
use ldp_datasets::Dataset;
use ldp_protocols::FrequencyOracle;

const Z: f64 = 5.0;
/// Slack for count discreteness.
const SLACK: f64 = 0.002;

/// Standard deviation of the estimate of a value with true frequency `f`
/// of attribute `j`, from `n` reports of `solution`.
fn sigma(solution: &DynSolution, j: usize, f: f64, n: u64) -> f64 {
    let n = n as f64;
    match solution {
        // Every report carries every attribute at ε/d.
        DynSolution::Spl(spl) => spl.oracle(j).variance(f, n as usize).sqrt(),
        // The sampled attribute is sanitized by GRR(p, q), the other d − 1
        // are uniform fakes, so a value is supported with probability
        // γ = (q + f(p − q) + (d − 1)/k) / d and the estimator scales by d.
        DynSolution::RsFd(rsfd) if rsfd.protocol() == RsFdProtocol::Grr => {
            let d = solution.d() as f64;
            let k = solution.ks()[j] as f64;
            let (p, q) = rsfd.pq(j);
            let gamma = (q + f * (p - q) + (d - 1.0) / k) / d;
            d * (gamma * (1.0 - gamma) / n).sqrt() / (p - q)
        }
        other => unreachable!("no band for {}", other.name()),
    }
}

/// The first cell of `estimates` outside its band, described; `None` when
/// every cell is inside.
pub fn band_violation(
    solution: &DynSolution,
    dataset: &Dataset,
    estimates: &[Vec<f64>],
    n: u64,
) -> Option<String> {
    let truth = dataset.marginals();
    if estimates.len() != truth.len() {
        return Some(format!(
            "{} attributes estimated, {} expected",
            estimates.len(),
            truth.len()
        ));
    }
    for (j, (est, tru)) in estimates.iter().zip(&truth).enumerate() {
        for (v, (&e, &f)) in est.iter().zip(tru).enumerate() {
            let tol = Z * sigma(solution, j, f, n) + SLACK;
            // Written so that a NaN estimate fails too.
            let within = (e - f).abs() <= tol;
            if !within {
                return Some(format!(
                    "attribute {j} value {v}: estimate {e:.5} vs true {f:.5}, tolerance {tol:.5}"
                ));
            }
        }
    }
    None
}

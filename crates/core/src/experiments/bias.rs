//! E2 — §II-D: the sampling-bias worked example.
//!
//! "If an account with 100K genuine followers buys 10K fake followers, the
//! application could show a 100% of fake, while the right percentage should
//! be around 9%." This driver reproduces the example exactly: the bought
//! followers are the newest, the commercial tools sample the head of the
//! list, FC samples uniformly. It also measures the empirical coverage of
//! the 95% Wald interval under both samplers — the paper's point that the
//! estimator's guarantees hold only for unbiased samples.

use fakeaudit_stats::bias::{burst_population, measure_estimator_error, EstimatorTrial};
use fakeaudit_stats::estimator::{ConfidenceLevel, ProportionEstimate};
use fakeaudit_stats::rng::{rng_for, Rng};
use fakeaudit_stats::sampling::SamplingScheme;
use std::fmt::Write as _;

/// Parameters for the bias experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiasParams {
    /// Genuine (older) followers.
    pub genuine: usize,
    /// Bought (newest) fake followers.
    pub bought: usize,
    /// The prefix window the commercial tool samples.
    pub window: usize,
    /// Sample size per repetition.
    pub sample_size: usize,
    /// Repetitions for the empirical trials.
    pub repetitions: usize,
}

impl Default for BiasParams {
    /// The paper's numbers: 100K genuine + 10K bought, a 1000-record tool
    /// window, FC's 9604 sample.
    fn default() -> Self {
        Self {
            genuine: 100_000,
            bought: 10_000,
            window: 1_000,
            sample_size: 1_000,
            repetitions: 50,
        }
    }
}

impl BiasParams {
    /// The quick-scale run: a fifth of the paper's population, a
    /// 500-record window.
    pub const QUICK: Self = Self {
        genuine: 20_000,
        bought: 2_000,
        window: 500,
        sample_size: 500,
        repetitions: 30,
    };
}

/// Outcome of the bias experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasResult {
    /// Parameters used.
    pub params: BiasParams,
    /// True population fake share.
    pub truth: f64,
    /// Prefix-sampler trial (the commercial tools).
    pub prefix: EstimatorTrial,
    /// Uniform-sampler trial (FC).
    pub uniform: EstimatorTrial,
    /// Empirical 95% Wald coverage under prefix sampling.
    pub prefix_coverage: f64,
    /// Empirical 95% Wald coverage under uniform sampling.
    pub uniform_coverage: f64,
}

fn coverage<R: Rng + ?Sized>(
    rng: &mut R,
    labels: &[bool],
    scheme: SamplingScheme,
    sample_size: usize,
    repetitions: usize,
    truth: f64,
) -> f64 {
    let mut covered = 0usize;
    for _ in 0..repetitions {
        let idx = scheme.draw_indices(rng, labels.len(), sample_size);
        let positives = idx.iter().filter(|&&i| labels[i]).count() as u64;
        let est = ProportionEstimate::new(positives, idx.len() as u64).expect("non-empty sample");
        if est.wald(ConfidenceLevel::P95).contains(truth) {
            covered += 1;
        }
    }
    covered as f64 / repetitions as f64
}

/// Runs the bias experiment.
///
/// # Panics
///
/// Panics if `params` describe an empty population or zero samples.
pub fn run_bias(params: BiasParams, seed: u64) -> BiasResult {
    let labels = burst_population(params.bought, params.genuine);
    let truth = params.bought as f64 / (params.bought + params.genuine) as f64;
    let mut rng = rng_for(seed, "e2");
    let prefix_scheme = SamplingScheme::Prefix {
        window: params.window,
    };
    let prefix = measure_estimator_error(
        &mut rng,
        &labels,
        prefix_scheme,
        params.sample_size,
        params.repetitions,
    );
    let uniform = measure_estimator_error(
        &mut rng,
        &labels,
        SamplingScheme::Uniform,
        params.sample_size,
        params.repetitions,
    );
    let prefix_coverage = coverage(
        &mut rng,
        &labels,
        prefix_scheme,
        params.sample_size,
        params.repetitions,
        truth,
    );
    let uniform_coverage = coverage(
        &mut rng,
        &labels,
        SamplingScheme::Uniform,
        params.sample_size,
        params.repetitions,
        truth,
    );
    BiasResult {
        params,
        truth,
        prefix,
        uniform,
        prefix_coverage,
        uniform_coverage,
    }
}

/// Renders the worked example.
pub fn render(r: &BiasResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E2: sampling bias (§II-D worked example)\n\
         population: {} genuine + {} bought (truth: {:.1}% fake)",
        r.params.genuine,
        r.params.bought,
        r.truth * 100.0
    );
    let _ = writeln!(
        out,
        "prefix sampler (window {}):  mean estimate {:.1}% fake, mean |error| {:.1} pts, 95% CI coverage {:.0}%",
        r.params.window,
        r.prefix.mean_estimate * 100.0,
        r.prefix.mean_abs_error * 100.0,
        r.prefix_coverage * 100.0
    );
    let _ = writeln!(
        out,
        "uniform sampler (FC):        mean estimate {:.1}% fake, mean |error| {:.1} pts, 95% CI coverage {:.0}%",
        r.uniform.mean_estimate * 100.0,
        r.uniform.mean_abs_error * 100.0,
        r.uniform_coverage * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BiasParams {
        BiasParams {
            genuine: 10_000,
            bought: 1_000,
            window: 100,
            sample_size: 100,
            repetitions: 30,
        }
    }

    #[test]
    fn paper_example_reproduces() {
        let r = run_bias(quick(), 1);
        // Truth ≈ 9.1%; the tool says ~100%.
        assert!((r.truth - 1.0 / 11.0).abs() < 1e-9);
        assert!(r.prefix.mean_estimate > 0.99, "{:?}", r.prefix);
        // FC stays close.
        assert!(
            (r.uniform.mean_estimate - r.truth).abs() < 0.03,
            "{:?}",
            r.uniform
        );
    }

    #[test]
    fn coverage_collapses_under_prefix_sampling() {
        let r = run_bias(quick(), 2);
        assert_eq!(r.prefix_coverage, 0.0, "biased CI should never cover truth");
        assert!(
            r.uniform_coverage > 0.8,
            "uniform coverage {:.2}",
            r.uniform_coverage
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_bias(quick(), 3), run_bias(quick(), 3));
    }

    #[test]
    fn render_has_both_samplers() {
        let s = render(&run_bias(quick(), 4));
        assert!(s.contains("prefix sampler"));
        assert!(s.contains("uniform sampler"));
    }

    #[test]
    fn default_params_match_paper() {
        let p = BiasParams::default();
        assert_eq!(p.genuine, 100_000);
        assert_eq!(p.bought, 10_000);
    }
}

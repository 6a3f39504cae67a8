//! A1 — ablation: how much of the commercial tools' error is *sampling*?
//!
//! DESIGN.md §4 asks: if the same tools drew their samples uniformly from
//! the full follower list (instead of the newest-`k` prefix), how far would
//! their fake percentages move towards the truth? The answer separates the
//! two failure modes the paper identifies — biased sampling and opaque
//! criteria.

use fakeaudit_detectors::data::{fetch_profiles, fetch_profiles_with_indexed_timelines};
use fakeaudit_detectors::{Socialbakers, StatusPeople, Twitteraudit, Verdict, VerdictCounts};
use fakeaudit_population::{BuiltTarget, ClassMix, TargetScenario};
use fakeaudit_stats::rng::{derive_seed, rng_for};
use fakeaudit_stats::sampling::{Sampler, UniformSampler};
use fakeaudit_twitter_api::{ApiConfig, ApiSession};
use fakeaudit_twittersim::Platform;
use std::fmt::Write as _;

/// One tool's fake percentage under both samplers.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Tool name.
    pub tool: String,
    /// Fake % with the tool's own prefix sampling.
    pub prefix_fake_pct: f64,
    /// Fake % with uniform sampling over the full list (same sample size,
    /// same criteria).
    pub uniform_fake_pct: f64,
}

/// Outcome of the sampling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Ground-truth fake percentage of the population.
    pub truth_fake_pct: f64,
    /// Per-tool rows (TA, SP, SB).
    pub rows: Vec<AblationRow>,
}

/// Parameters for the ablation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationParams {
    /// Materialised followers.
    pub followers: usize,
    /// Ground-truth fake fraction (placed with a strong recency burst).
    pub fake_fraction: f64,
    /// Recency bias of the burst.
    pub recency_bias: f64,
}

impl Default for AblationParams {
    fn default() -> Self {
        Self {
            followers: 20_000,
            fake_fraction: 0.10,
            recency_bias: 30.0,
        }
    }
}

impl AblationParams {
    /// The quick-scale run: the default burst over 6 000 followers.
    pub const QUICK: Self = Self {
        followers: 6_000,
        fake_fraction: 0.10,
        recency_bias: 30.0,
    };
}

/// Runs the sampling ablation.
///
/// # Panics
///
/// Panics if `params.fake_fraction` is not in `[0, 0.8]`.
pub fn run_ablation(params: AblationParams, seed: u64) -> AblationResult {
    assert!(
        (0.0..=0.8).contains(&params.fake_fraction),
        "fake fraction out of range"
    );
    let mix =
        ClassMix::new(0.2, params.fake_fraction, 0.8 - params.fake_fraction).expect("valid mix");
    let mut platform = Platform::new();
    let built: BuiltTarget = TargetScenario::new("ablation", params.followers, mix)
        .fake_recency_bias(params.recency_bias)
        .build(&mut platform, derive_seed(seed, "a1-build"))
        .expect("scenario builds");
    let now = platform.now();

    let ta = Twitteraudit::new();
    let sp = StatusPeople::new();
    let sb = Socialbakers::new();

    let mut rows = Vec::new();

    // Twitteraudit.
    {
        let mut s = ApiSession::new(&platform, ApiConfig::default());
        let prefix = {
            use fakeaudit_detectors::engine::FollowerAuditor;
            ta.audit(&mut s, built.target, derive_seed(seed, "a1-ta"))
                .expect("audit runs")
                .fake_pct()
        };
        let uniform = {
            let mut s = ApiSession::new(&platform, ApiConfig::default());
            let all = s.followers_ids(built.target).expect("target exists");
            let mut rng = rng_for(seed, "a1-ta-uni");
            let sample = UniformSampler::new().draw(&mut rng, &all, ta.frame().assess);
            let data = fetch_profiles(&mut s, &sample).expect("fault-free fetch");
            let counts: VerdictCounts = data.iter().map(|d| ta.classify(d, now)).collect();
            counts.percentage(Verdict::Fake)
        };
        rows.push(AblationRow {
            tool: "Twitteraudit".into(),
            prefix_fake_pct: prefix,
            uniform_fake_pct: uniform,
        });
    }

    // StatusPeople.
    {
        use fakeaudit_detectors::engine::FollowerAuditor;
        let mut s = ApiSession::new(&platform, ApiConfig::default());
        let prefix = sp
            .audit(&mut s, built.target, derive_seed(seed, "a1-sp"))
            .expect("audit runs")
            .fake_pct();
        let uniform = {
            let mut s = ApiSession::new(&platform, ApiConfig::default());
            let all = s.followers_ids(built.target).expect("target exists");
            let mut rng = rng_for(seed, "a1-sp-uni");
            let sample = UniformSampler::new().draw(&mut rng, &all, sp.frame().assess);
            let data = fetch_profiles(&mut s, &sample).expect("fault-free fetch");
            let counts: VerdictCounts = data.iter().map(|d| sp.classify(d, now)).collect();
            counts.percentage(Verdict::Fake)
        };
        rows.push(AblationRow {
            tool: "StatusPeople".into(),
            prefix_fake_pct: prefix,
            uniform_fake_pct: uniform,
        });
    }

    // Socialbakers.
    {
        use fakeaudit_detectors::engine::FollowerAuditor;
        let mut s = ApiSession::new(&platform, ApiConfig::default());
        let prefix = sb
            .audit(&mut s, built.target, derive_seed(seed, "a1-sb"))
            .expect("audit runs")
            .fake_pct();
        let uniform = {
            let mut s = ApiSession::new(&platform, ApiConfig::default());
            let all = s.followers_ids(built.target).expect("target exists");
            let mut rng = rng_for(seed, "a1-sb-uni");
            let sample = UniformSampler::new().draw(&mut rng, &all, sb.frame().assess);
            let data = fetch_profiles_with_indexed_timelines(&mut s, &sample, 200)
                .expect("fault-free fetch");
            let counts: VerdictCounts = data.iter().map(|d| sb.classify(d, now)).collect();
            counts.percentage(Verdict::Fake)
        };
        rows.push(AblationRow {
            tool: "Socialbakers".into(),
            prefix_fake_pct: prefix,
            uniform_fake_pct: uniform,
        });
    }

    AblationResult {
        truth_fake_pct: params.fake_fraction * 100.0,
        rows,
    }
}

/// Renders the ablation comparison.
pub fn render(r: &AblationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A1: prefix vs uniform sampling inside the commercial tools\n\
         (ground truth: {:.1}% fake, bought recently)\n\
         {:<16}{:>14}{:>16}",
        r.truth_fake_pct, "tool", "prefix fake%", "uniform fake%"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<16}{:>14.1}{:>16.1}",
            row.tool, row.prefix_fake_pct, row.uniform_fake_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_stats::summary::Summary;

    /// The fixed seed set the claims are checked over, and how many of
    /// its seeds each claim must hold at.
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=16;
    const MIN_HOLDS: usize = 15;

    #[test]
    fn sampling_claims_hold_over_sixteen_seeds() {
        // Socialbakers keeps a separate inactive bucket and reads a narrow
        // prefix window: under a recency burst it over-reports the truth
        // from that prefix, and drawing the same sample uniformly moves its
        // fake share down. Twitteraudit folds dormant accounts into its
        // fake bucket, so even a uniform sample (which reaches the stale
        // tail) keeps it above the truth: sampling alone cannot fix a tool
        // whose criteria conflate classes.
        //
        // StatusPeople is printed, not asserted. Its prefix share beats
        // its uniform share at only 9 of these 16 seeds (the gap runs from
        // -2.1 to +3.9 points): under this model its error is not a
        // sampling effect.
        let runs: Vec<AblationResult> = SEEDS
            .map(|seed| run_ablation(AblationParams::QUICK, seed))
            .collect();
        fn row<'a>(r: &'a AblationResult, tool: &str) -> &'a AblationRow {
            r.rows.iter().find(|x| x.tool == tool).unwrap()
        }
        fn gap(row: &AblationRow) -> f64 {
            row.prefix_fake_pct - row.uniform_fake_pct
        }
        type Effect = fn(&AblationResult) -> f64;
        let claims: [(&str, Effect, bool); 4] = [
            (
                "Socialbakers prefix - uniform",
                |r| gap(row(r, "Socialbakers")),
                true,
            ),
            (
                "Socialbakers prefix - truth",
                |r| row(r, "Socialbakers").prefix_fake_pct - r.truth_fake_pct,
                true,
            ),
            (
                "Twitteraudit uniform - truth",
                |r| row(r, "Twitteraudit").uniform_fake_pct - r.truth_fake_pct,
                true,
            ),
            (
                "StatusPeople prefix - uniform",
                |r| gap(row(r, "StatusPeople")),
                false,
            ),
        ];
        for (name, effect, asserted) in claims {
            let effects: Vec<f64> = runs.iter().map(effect).collect();
            let holds = effects.iter().filter(|&&e| e > 0.0).count();
            let s = Summary::of(&effects).expect("finite effects");
            println!(
                "{name}: > 0 at {holds}/{} seeds, median {:+.1}, range {:+.1} to {:+.1} points",
                effects.len(),
                s.median,
                s.min,
                s.max
            );
            if asserted {
                assert!(
                    holds >= MIN_HOLDS,
                    "{name} > 0 at only {holds} of {} seeds: {effects:.1?}",
                    effects.len()
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            run_ablation(AblationParams::QUICK, 3),
            run_ablation(AblationParams::QUICK, 3)
        );
    }

    #[test]
    fn render_has_three_tools() {
        let s = render(&run_ablation(AblationParams::QUICK, 4));
        assert!(s.contains("Twitteraudit"));
        assert!(s.contains("StatusPeople"));
        assert!(s.contains("Socialbakers"));
    }

    #[test]
    #[should_panic(expected = "fake fraction out of range")]
    fn rejects_bad_fraction() {
        run_ablation(
            AblationParams {
                fake_fraction: 0.9,
                ..AblationParams::QUICK
            },
            1,
        );
    }
}

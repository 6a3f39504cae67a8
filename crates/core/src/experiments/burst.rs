//! E7 — the Romney scenario as a time series (extension; §I motivates the
//! paper with the 2012 "sudden jump in the number of followers").
//!
//! A target buys a batch of fakes; we then track every tool's fake share
//! day by day as organic growth slowly buries the burst below each tool's
//! sampling window. The series quantifies two things the paper only
//! narrates: (i) right after a burst the prefix tools over-report by large
//! factors while FC stays at the truth, and (ii) the over-reporting decays
//! as the burst ages out of the head of the list.

use fakeaudit_detectors::engine::FollowerAuditor;
use fakeaudit_detectors::{FakeProjectEngine, Socialbakers, StatusPeople, Twitteraudit};
use fakeaudit_population::archetype::{self, TrueClass};
use fakeaudit_population::scenario::grow_organic_daily;
use fakeaudit_population::{BuiltTarget, ClassMix, TargetScenario};
use fakeaudit_stats::rng::{derive_seed, rng_for_indexed};
use fakeaudit_twitter_api::{ApiConfig, ApiSession};
use fakeaudit_twittersim::{AccountId, Platform};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parameters for the burst timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstParams {
    /// Organic follower base before the purchase.
    pub organic_followers: usize,
    /// Fakes purchased on day 0.
    pub bought: usize,
    /// Organic arrivals per day after the purchase.
    pub organic_per_day: u32,
    /// Days at which to audit (day 0 = right after the purchase).
    pub audit_days: [u32; 4],
    /// FC sample size.
    pub fc_sample: u64,
}

impl Default for BurstParams {
    fn default() -> Self {
        Self {
            organic_followers: 15_000,
            bought: 1_500,
            organic_per_day: 120,
            audit_days: [0, 7, 14, 28],
            fc_sample: 4_000,
        }
    }
}

impl BurstParams {
    /// The quick-scale run: a fifth of the default base and burst.
    pub const QUICK: Self = Self {
        organic_followers: 3_000,
        bought: 300,
        organic_per_day: 120,
        audit_days: [0, 7, 14, 28],
        fc_sample: 1_000,
    };
}

/// One audited day.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstPoint {
    /// Days since the purchase.
    pub day: u32,
    /// Ground-truth fake share at that day, %.
    pub truth_fake_pct: f64,
    /// Fake share reported per tool, % (FC, TA, SP, SB).
    pub fc: f64,
    /// Twitteraudit.
    pub ta: f64,
    /// StatusPeople.
    pub sp: f64,
    /// Socialbakers.
    pub sb: f64,
}

/// The burst time series.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstResult {
    /// Parameters used.
    pub params: BurstParams,
    /// One point per audited day.
    pub points: Vec<BurstPoint>,
}

fn buy_fakes(
    platform: &mut Platform,
    built: &BuiltTarget,
    truth: &mut HashMap<AccountId, bool>,
    count: usize,
    seed: u64,
) {
    for i in 0..count {
        let mut rng = rng_for_indexed(seed, "e7-bought", i as u64);
        let now = platform.now();
        let mut acc = archetype::generate(&mut rng, TrueClass::Fake, format!("e7_bought_{i}"), now);
        if acc.profile.created_at > now {
            acc.profile.created_at = now;
        }
        let id = platform
            .register(acc.profile, acc.timeline)
            .expect("unique names");
        platform.follow(id, built.target).expect("valid follow");
        truth.insert(id, true);
    }
}

/// Runs the burst timeline.
///
/// # Panics
///
/// Panics if `audit_days` is not strictly increasing.
pub fn run_burst(params: BurstParams, seed: u64) -> BurstResult {
    assert!(
        params.audit_days.windows(2).all(|w| w[0] < w[1]),
        "audit days must be strictly increasing"
    );
    let mut platform = Platform::new();
    // Organic base: almost no fakes.
    let built = TargetScenario::new(
        "e7_politician",
        params.organic_followers,
        ClassMix::new(0.25, 0.01, 0.74).expect("valid mix"),
    )
    .build(&mut platform, derive_seed(seed, "e7-base"))
    .expect("scenario builds");

    // Track fake ground truth across the burst and organic growth.
    let mut is_fake: HashMap<AccountId, bool> = built
        .followers_oldest_first
        .iter()
        .map(|&(id, c)| (id, c == TrueClass::Fake))
        .collect();

    buy_fakes(&mut platform, &built, &mut is_fake, params.bought, seed);

    let fc = FakeProjectEngine::with_default_model(derive_seed(seed, "e7-model"))
        .with_sample_size(params.fc_sample);
    let ta = Twitteraudit::new();
    let sp = StatusPeople::new();
    let sb = Socialbakers::new();

    let mut points = Vec::new();
    let mut day_cursor = 0u32;
    for &day in &params.audit_days {
        if day > day_cursor {
            let grown = grow_organic_daily(
                &mut platform,
                built.target,
                day - day_cursor,
                params.organic_per_day,
                derive_seed(seed, &format!("e7-grow-{day}")),
            )
            .expect("organic growth");
            for id in grown.into_iter().flatten() {
                is_fake.insert(id, false);
            }
            day_cursor = day;
        }
        let truth_fake_pct = {
            let total = platform.materialized_follower_count(built.target) as f64;
            let fakes = is_fake.values().filter(|&&f| f).count() as f64;
            fakes / total * 100.0
        };
        let audit = |engine: &dyn FollowerAuditor, tag: &str| {
            let mut session = ApiSession::new(&platform, ApiConfig::default());
            engine
                .audit(
                    &mut session,
                    built.target,
                    derive_seed(seed, &format!("e7-{tag}-{day}")),
                )
                .expect("audit runs")
                .fake_pct()
        };
        points.push(BurstPoint {
            day,
            truth_fake_pct,
            fc: audit(&fc, "fc"),
            ta: audit(&ta, "ta"),
            sp: audit(&sp, "sp"),
            sb: audit(&sb, "sb"),
        });
    }
    BurstResult { params, points }
}

/// Renders the series.
pub fn render(r: &BurstResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7: fake share reported after buying {} fakes onto {} organic followers\n\
         {:>5}{:>9}{:>8}{:>8}{:>8}{:>8}",
        r.params.bought, r.params.organic_followers, "day", "truth%", "FC", "TA", "SP", "SB"
    );
    for p in &r.points {
        let _ = writeln!(
            out,
            "{:>5}{:>9.1}{:>8.1}{:>8.1}{:>8.1}{:>8.1}",
            p.day, p.truth_fake_pct, p.fc, p.ta, p.sp, p.sb
        );
    }
    let _ = writeln!(
        out,
        "the prefix tools spike right after the burst and decay as organic\n\
         arrivals push the bought batch out of their windows; FC tracks the\n\
         truth throughout."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BurstParams {
        BurstParams {
            organic_followers: 3_000,
            bought: 300,
            organic_per_day: 120,
            audit_days: [0, 4, 8, 16],
            fc_sample: 1_000,
        }
    }

    #[test]
    fn prefix_tools_spike_then_decay() {
        let r = run_burst(quick(), 1);
        assert_eq!(r.points.len(), 4);
        let first = &r.points[0];
        let last = &r.points[3];
        // Right after the burst the bought batch fills SB's newest-2000
        // window; 16 days of organic arrivals push it out entirely, so the
        // reported fake share collapses — the spike-then-decay signature.
        assert!(
            first.sb > last.sb + 3.0,
            "SB day0 {:.1} should spike above day16 {:.1}",
            first.sb,
            last.sb
        );
        // And the day-0 spike exceeds what SB's criteria find once the
        // window no longer over-samples the burst.
        assert!(
            first.sb - first.truth_fake_pct > last.sb - last.truth_fake_pct,
            "overshoot must decay: day0 {:.1}/{:.1} vs day16 {:.1}/{:.1}",
            first.sb,
            first.truth_fake_pct,
            last.sb,
            last.truth_fake_pct
        );
    }

    #[test]
    fn fc_tracks_truth_throughout() {
        let r = run_burst(quick(), 2);
        for p in &r.points {
            // FC's inactive bucket absorbs dormant fakes, so its fake share
            // sits at or below the ground-truth share — never at the
            // inflated prefix level.
            assert!(
                p.fc <= p.truth_fake_pct + 3.0,
                "day {}: FC {:.1} vs truth {:.1}",
                p.day,
                p.fc,
                p.truth_fake_pct
            );
        }
    }

    #[test]
    fn truth_dilutes_with_organic_growth() {
        let r = run_burst(quick(), 3);
        for w in r.points.windows(2) {
            assert!(w[1].truth_fake_pct <= w[0].truth_fake_pct + 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_burst(quick(), 4), run_burst(quick(), 4));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_days() {
        run_burst(
            BurstParams {
                audit_days: [0, 5, 5, 10],
                ..quick()
            },
            1,
        );
    }

    #[test]
    fn render_has_all_days() {
        let r = run_burst(quick(), 5);
        let s = render(&r);
        for p in &r.points {
            assert!(s.contains(&format!("\n{:>5}", p.day)));
        }
    }
}

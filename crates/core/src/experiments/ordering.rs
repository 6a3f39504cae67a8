//! E1 — §IV-B: does `GET followers/ids` order followers by follow time?
//!
//! The paper saved each target's full follower list once per day and
//! compared the lists day by day: "all the new entries in all the lists of
//! followers were always added at the end", confirming that a size-n prefix
//! of the API response is exactly the n newest followers. This driver
//! replays that methodology against the simulated API.

use fakeaudit_population::scenario::{grow_organic_daily, TargetScenario};
use fakeaudit_population::ClassMix;
use fakeaudit_stats::rng::{derive_seed, rng_for, SliceRandom};
use fakeaudit_twitter_api::{ApiConfig, ApiSession};
use fakeaudit_twittersim::snapshot::SnapshotSeries;
use fakeaudit_twittersim::Platform;
use std::fmt::Write as _;

/// Parameters for the ordering experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingParams {
    /// Initial follower base.
    pub initial_followers: usize,
    /// Days of daily snapshots.
    pub days: u32,
    /// Organic arrivals per day.
    pub arrivals_per_day: u32,
    /// Random unfollows per day (churn; the paper's targets saw little,
    /// but the methodology must be robust to it).
    pub unfollows_per_day: u32,
}

impl Default for OrderingParams {
    fn default() -> Self {
        Self {
            initial_followers: 2_000,
            days: 30,
            arrivals_per_day: 25,
            unfollows_per_day: 3,
        }
    }
}

impl OrderingParams {
    /// The quick-scale run: 500 followers over ten days.
    pub const QUICK: Self = Self {
        initial_followers: 500,
        days: 10,
        arrivals_per_day: 15,
        unfollows_per_day: 2,
    };
}

/// The experiment's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingResult {
    /// Parameters used.
    pub params: OrderingParams,
    /// Snapshots taken (days + 1: one before growth starts).
    pub snapshots: usize,
    /// New followers observed across all diffs.
    pub total_added: usize,
    /// Unfollows performed across the run.
    pub total_removed: usize,
    /// Diffs in which every addition sat at the head of the list.
    pub diffs_with_additions_at_head: usize,
    /// Total diffs compared.
    pub diffs: usize,
    /// The paper's thesis: every diff placed additions at the head.
    pub confirms_follow_time_ordering: bool,
}

/// Runs the ordering experiment.
///
/// # Panics
///
/// Panics only on internal inconsistencies (snapshot bookkeeping).
pub fn run_ordering(params: OrderingParams, seed: u64) -> OrderingResult {
    let mut platform = Platform::new();
    let built = TargetScenario::new(
        "ordering_target",
        params.initial_followers,
        ClassMix::new(0.3, 0.1, 0.6).expect("valid mix"),
    )
    .build(&mut platform, derive_seed(seed, "e1-build"))
    .expect("scenario builds");

    let mut series = SnapshotSeries::new();
    let snapshot = |platform: &Platform, series: &mut SnapshotSeries| {
        let mut session = ApiSession::new(platform, ApiConfig::default());
        let list = session.followers_ids(built.target).expect("target exists");
        series
            .push(platform.now(), list)
            .expect("snapshots are chronological");
    };

    snapshot(&platform, &mut series);
    let mut total_added = 0usize;
    let mut total_removed = 0usize;
    let mut churn_rng = rng_for(seed, "e1-churn");
    for day in 0..params.days {
        let added = grow_organic_daily(
            &mut platform,
            built.target,
            1,
            params.arrivals_per_day,
            derive_seed(seed, &format!("e1-day-{day}")),
        )
        .expect("organic growth");
        total_added += added[0].len();
        // Churn: a few random existing followers leave each day.
        for _ in 0..params.unfollows_per_day {
            let list = platform.followers_newest_first(built.target);
            if let Some(&victim) = list.choose(&mut churn_rng) {
                platform
                    .unfollow(victim, built.target)
                    .expect("victim follows the target");
                total_removed += 1;
            }
        }
        snapshot(&platform, &mut series);
    }

    let diffs = series.diffs().expect("at least two snapshots");
    let at_head = diffs.iter().filter(|d| d.additions_at_head).count();
    OrderingResult {
        params,
        snapshots: series.len(),
        total_added,
        total_removed,
        diffs_with_additions_at_head: at_head,
        diffs: diffs.len(),
        confirms_follow_time_ordering: series
            .confirms_follow_time_ordering()
            .expect("at least two snapshots"),
    }
}

/// Renders the experiment's verdict.
pub fn render(r: &OrderingResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E1: follower-list ordering (§IV-B)\n\
         {} snapshots over {} days, {} organic arrivals, {} unfollows",
        r.snapshots, r.params.days, r.total_added, r.total_removed
    );
    let _ = writeln!(
        out,
        "diffs with all new followers at the head of the list: {}/{}",
        r.diffs_with_additions_at_head, r.diffs
    );
    let _ = writeln!(
        out,
        "thesis confirmed: {} (the API returns followers in reverse follow order)",
        r.confirms_follow_time_ordering
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> OrderingParams {
        OrderingParams {
            initial_followers: 300,
            days: 6,
            arrivals_per_day: 10,
            unfollows_per_day: 0,
        }
    }

    #[test]
    fn thesis_is_confirmed() {
        let r = run_ordering(quick_params(), 1);
        assert!(r.confirms_follow_time_ordering);
        assert_eq!(r.diffs, 6);
        assert_eq!(r.diffs_with_additions_at_head, 6);
        assert_eq!(r.total_added, 60);
        assert_eq!(r.snapshots, 7);
        assert_eq!(r.total_removed, 0);
    }

    #[test]
    fn thesis_survives_churn() {
        // Unfollows remove entries without reordering the survivors, so
        // the additions-at-head property must still hold.
        let r = run_ordering(
            OrderingParams {
                unfollows_per_day: 5,
                ..quick_params()
            },
            2,
        );
        assert!(r.confirms_follow_time_ordering);
        assert_eq!(r.total_removed, 30);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            run_ordering(quick_params(), 2),
            run_ordering(quick_params(), 2)
        );
    }

    #[test]
    fn render_mentions_verdict() {
        let s = render(&run_ordering(quick_params(), 3));
        assert!(s.contains("thesis confirmed: true"));
        assert!(s.contains("6/6"));
    }
}

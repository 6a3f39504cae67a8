//! Every experiment in the registry, run at its defaults (full scale,
//! seed 2014), must reproduce its committed artifact byte for byte, and
//! run twice in one process at quick scale and seed 7, it must give the
//! same bytes both times. A failure names every row that moved.
//!
//! Regenerate a row that moved on purpose with
//! `fakeaudit exp <name> --out <artifact>` from the repository root.

use fakeaudit_core::experiments::{Experiment, Scale, EXPERIMENTS};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The seed every committed artifact was generated at.
const SEED: u64 = 2014;

/// `None` when the row reproduces its artifact, else what moved.
fn moved(exp: &Experiment) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(exp.artifact);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", exp.name, path.display()));
    let output = match exp.run(Scale::full(), SEED, None) {
        Ok(output) => output.artifact,
        Err(e) => return Some(format!("{} ({}): refused: {e}", exp.name, exp.id)),
    };
    if output == committed {
        return None;
    }
    let line = output
        .lines()
        .zip(committed.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| output.lines().count().min(committed.lines().count()));
    Some(format!(
        "{} ({}): differs from {} at line {}",
        exp.name,
        exp.id,
        exp.artifact,
        line + 1
    ))
}

/// `None` when two runs of the row at quick scale and seed 7 give the
/// same bytes, else what differed. Rows that read no scale (T1, E3 and
/// A2, which reject `--quick`) run as at their defaults; T1 and E3 read
/// no seed either.
fn unstable(exp: &Experiment) -> Option<String> {
    let run = || exp.run(Scale::quick(), 7, None);
    match (run(), run()) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some(format!("{} ({}): two runs differ", exp.name, exp.id)),
        (Err(e), _) | (_, Err(e)) => Some(format!("{} ({}): refused: {e}", exp.name, exp.id)),
    }
}

/// Runs `check` on every row, one worker per core, each taking the next
/// row until none is left, and returns what it found, sorted.
fn each_row(check: impl Fn(&Experiment) -> Option<String> + Sync) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut found: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(EXPERIMENTS.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut found = Vec::new();
                    while let Some(exp) = EXPERIMENTS.get(next.fetch_add(1, Ordering::Relaxed)) {
                        found.extend(check(exp));
                    }
                    found
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an experiment panicked"))
            .collect()
    });
    found.sort();
    found
}

#[test]
fn every_experiment_reproduces_its_committed_artifact() {
    let moved = each_row(moved);
    assert!(
        moved.is_empty(),
        "{} of {} experiments moved:\n{}",
        moved.len(),
        EXPERIMENTS.len(),
        moved.join("\n")
    );
}

#[test]
fn every_experiment_gives_the_same_bytes_twice_at_quick_scale() {
    let unstable = each_row(unstable);
    assert!(
        unstable.is_empty(),
        "{} of {} experiments are not seed-stable:\n{}",
        unstable.len(),
        EXPERIMENTS.len(),
        unstable.join("\n")
    );
}

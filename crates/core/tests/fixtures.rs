//! Every experiment in the registry, run at its defaults (full scale,
//! seed 2014), must reproduce its committed artifact byte for byte. A
//! failure names every row that moved.
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

#[test]
fn every_experiment_reproduces_its_committed_artifact() {
    // One worker per core, each taking the next row until none is left.
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut moved: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(EXPERIMENTS.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut found = Vec::new();
                    while let Some(exp) = EXPERIMENTS.get(next.fetch_add(1, Ordering::Relaxed)) {
                        found.extend(moved(exp));
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
    moved.sort();
    assert!(
        moved.is_empty(),
        "{} of {} experiments moved:\n{}",
        moved.len(),
        EXPERIMENTS.len(),
        moved.join("\n")
    );
}

//! The wall-clock benchmarks `exp_http_load` (E11, the gateway under
//! HTTP load) and `exp_query_load` (E13, queries over a persisted
//! history). Both accept `--quick` and `--seed <n>`, print a table, and
//! write their `BENCH_*.json` only where `--out PATH` says. Their numbers
//! depend on the machine, so they stay out of `fakeaudit exp`.
//!
//! [`ledger`] holds the bench ledger: the committed
//! `results/ledger.jsonl` history of headline numbers and the
//! regression comparator behind `fakeaudit bench record|compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;

use fakeaudit_core::experiments::Scale;

/// Parsed command-line options shared by both bench binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scale: Scale::full(),
            seed: 2014, // the paper's year
        }
    }
}

/// Parses `--quick` and `--seed <n>` from arbitrary argument iterators.
///
/// Unknown arguments are rejected with an error message so typos do not
/// silently run the wrong configuration.
///
/// # Errors
///
/// Returns a human-readable message on unknown flags or malformed seeds.
///
/// ```
/// use fakeaudit_bench::{parse_args, RunOptions};
/// let opts = parse_args(["--quick", "--seed", "7"].iter().map(|s| s.to_string()))?;
/// assert_eq!(opts.seed, 7);
/// assert_ne!(opts.scale, RunOptions::default().scale);
/// # Ok::<(), String>(())
/// ```
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.scale = Scale::quick(),
            "--seed" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--seed needs a value".to_string())?;
                opts.seed = v.parse().map_err(|e| format!("invalid seed {v:?}: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (try --quick, --seed N)"
                ))
            }
        }
    }
    Ok(opts)
}

/// Prints `msg` and exits with status 2: a run that cannot go on.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(v: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        v.iter().map(|s| s.to_string())
    }

    #[test]
    fn defaults() {
        let o = parse_args(args(&[])).unwrap();
        assert_eq!(o, RunOptions::default());
        assert_eq!(o.seed, 2014);
        assert_eq!(o.scale, Scale::full());
    }

    #[test]
    fn quick_and_seed() {
        let o = parse_args(args(&["--quick", "--seed", "99"])).unwrap();
        assert_eq!(o.scale, Scale::quick());
        assert_eq!(o.seed, 99);
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse_args(args(&["--fast"])).is_err());
    }

    #[test]
    fn rejects_missing_seed_value() {
        assert!(parse_args(args(&["--seed"])).is_err());
    }

    #[test]
    fn rejects_bad_seed() {
        assert!(parse_args(args(&["--seed", "abc"])).is_err());
    }
}

//! One driver per table/figure/experiment of the paper.
//!
//! Every driver takes a [`Scale`] and a seed and returns a structured
//! result plus a rendered text table. [`EXPERIMENTS`] holds one row per
//! driver: its name, its id and paper section, the committed artifact it
//! reproduces at full scale and seed 2014, and a run that returns the
//! artifact's bytes. `fakeaudit exp <name>` prints them,
//! `crates/core/tests/fixtures.rs` checks every row against its committed
//! file, and EXPERIMENTS.md archives them next to the paper's numbers.

pub mod ablation;
pub mod bias;
pub mod burst;
pub mod cache_ablation;
pub mod chaos;
pub mod crash_recovery;
pub mod crawl;
pub mod deep_dive;
pub mod detect_time;
pub mod disagreement;
pub mod fc_training;
pub mod latency_attribution;
pub mod ordering;
pub mod service_load;
pub mod table1;
pub mod table2;
pub mod table3;

use fakeaudit_store::SharedWriter;

/// How much of each target to materialise — the knob between fast checks
/// and full reproduction runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Maximum materialised followers per target (the nominal count is
    /// pinned above this; percentages are scale-invariant).
    pub materialize_cap: usize,
    /// FC sample size (the paper's 9 604, or smaller for quick runs).
    pub fc_sample: u64,
    /// Gold-standard accounts per class for FC model training.
    pub gold_per_class: usize,
}

impl Scale {
    /// The full reproduction scale used for EXPERIMENTS.md.
    pub fn full() -> Self {
        Self {
            materialize_cap: 50_000,
            fc_sample: 9_604,
            gold_per_class: 400,
        }
    }

    /// A reduced scale for debug-mode tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            materialize_cap: 2_500,
            fc_sample: 1_200,
            gold_per_class: 120,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::full()
    }
}

/// What one run of an experiment produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The artifact's bytes, as committed at [`Experiment::artifact`].
    pub artifact: String,
    /// The text table E14 and E15 print beside their JSON artifact;
    /// empty where the artifact is the table.
    pub table: String,
}

/// How an experiment runs, by what it reads: `fakeaudit exp` accepts
/// `--seed`, `--quick` and `--persist` only where the run takes them.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Reads neither scale nor seed.
    Fixed(fn() -> String),
    /// Reads the seed only.
    Seeded(fn(u64) -> String),
    /// Reads scale and seed, and may refuse to produce an artifact.
    Scaled(fn(Scale, u64) -> Result<Output, String>),
    /// Reads scale and seed, and appends every answered audit to the
    /// history writer it is given.
    Persisting(fn(Scale, u64, Option<SharedWriter>) -> String),
}

/// One deterministic experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The command name, `fakeaudit exp <name>`.
    pub name: &'static str,
    /// Its id in EXPERIMENTS.md (T1–T3, E1–E15, A1, A2).
    pub id: &'static str,
    /// The paper artefact or extension it reproduces.
    pub section: &'static str,
    /// The committed artifact, relative to the repository root, that a
    /// full-scale run at seed 2014 reproduces byte for byte.
    pub artifact: &'static str,
    /// The run.
    pub run: Run,
}

impl Experiment {
    /// Runs the experiment; a `writer` reaches only a
    /// [`Run::Persisting`] run.
    ///
    /// # Errors
    ///
    /// The run's refusal: a failed build, or a check that fired.
    pub fn run(
        &self,
        scale: Scale,
        seed: u64,
        writer: Option<SharedWriter>,
    ) -> Result<Output, String> {
        match self.run {
            Run::Fixed(run) => text(run()),
            Run::Seeded(run) => text(run(seed)),
            Run::Scaled(run) => run(scale, seed),
            Run::Persisting(run) => text(run(scale, seed, writer)),
        }
    }
}

/// `quick` at quick scale, the driver's default otherwise.
fn at<P: Default>(scale: Scale, quick: P) -> P {
    if scale == Scale::quick() {
        quick
    } else {
        P::default()
    }
}

/// A table printed with a trailing newline, as the artifact holds it.
fn text(table: String) -> Result<Output, String> {
    Ok(Output {
        artifact: table + "\n",
        table: String::new(),
    })
}

/// Every deterministic experiment, in EXPERIMENTS.md's order.
pub static EXPERIMENTS: [Experiment; 17] = [
    Experiment {
        name: "table1",
        id: "T1",
        section: "Table I (API limits)",
        artifact: "results/table1.txt",
        run: Run::Fixed(table1::render),
    },
    Experiment {
        name: "table2",
        id: "T2",
        section: "Table II (response times)",
        artifact: "results/table2.txt",
        run: Run::Scaled(|scale, seed| {
            let table = table2::run_table2(scale, seed).map_err(|e| e.to_string())?;
            text(table2::render(&table))
        }),
    },
    Experiment {
        name: "table3",
        id: "T3",
        section: "Table III (analysis results + scoring annex)",
        artifact: "results/table3.txt",
        run: Run::Scaled(|scale, seed| {
            let table = table3::run_table3(scale, seed).map_err(|e| e.to_string())?;
            text(format!(
                "{}\n{}",
                table3::render(&table),
                table3::render_scores(&table)
            ))
        }),
    },
    Experiment {
        name: "exp_ordering",
        id: "E1",
        section: "§IV-B follower ordering",
        artifact: "results/exp_ordering.txt",
        run: Run::Scaled(|scale, seed| {
            let params = at(scale, ordering::OrderingParams::QUICK);
            text(ordering::render(&ordering::run_ordering(params, seed)))
        }),
    },
    Experiment {
        name: "exp_bias",
        id: "E2",
        section: "§II-D sampling-bias example",
        artifact: "results/exp_bias.txt",
        run: Run::Scaled(|scale, seed| {
            let params = at(scale, bias::BiasParams::QUICK);
            text(bias::render(&bias::run_bias(params, seed)))
        }),
    },
    Experiment {
        name: "exp_crawl_budget",
        id: "E3",
        section: "§IV-B crawl budgets",
        artifact: "results/exp_crawl_budget.txt",
        run: Run::Fixed(|| crawl::render(&crawl::run_crawl_budgets())),
    },
    Experiment {
        name: "exp_fc_training",
        id: "E4",
        section: "§III FC construction (rules vs learner)",
        artifact: "results/exp_fc_training.txt",
        run: Run::Scaled(|scale, seed| {
            let result = fc_training::run_fc_training(scale.gold_per_class, seed);
            text(fc_training::render(&result))
        }),
    },
    Experiment {
        name: "exp_disagreement",
        id: "E5",
        section: "§IV-D disagreement vs follower count",
        artifact: "results/exp_disagreement.txt",
        run: Run::Scaled(|scale, seed| {
            let table = table3::run_table3(scale, seed).map_err(|e| e.to_string())?;
            text(disagreement::render(&disagreement::run_disagreement(
                &table,
            )))
        }),
    },
    Experiment {
        name: "exp_deep_dive",
        id: "E6",
        section: "§II-A Fakers vs Deep Dive",
        artifact: "results/exp_deep_dive.txt",
        run: Run::Scaled(|scale, seed| {
            text(deep_dive::render(&deep_dive::run_deep_dive(scale, seed)))
        }),
    },
    Experiment {
        name: "exp_burst_timeline",
        id: "E7",
        section: "post-burst reporting timeline (extension)",
        artifact: "results/exp_burst_timeline.txt",
        run: Run::Scaled(|scale, seed| {
            let params = at(scale, burst::BurstParams::QUICK);
            text(burst::render(&burst::run_burst(params, seed)))
        }),
    },
    Experiment {
        name: "exp_ablation_sampling",
        id: "A1",
        section: "ablation: prefix vs uniform sampling",
        artifact: "results/exp_ablation_sampling.txt",
        run: Run::Scaled(|scale, seed| {
            let params = at(scale, ablation::AblationParams::QUICK);
            text(ablation::render(&ablation::run_ablation(params, seed)))
        }),
    },
    Experiment {
        name: "exp_cache_ablation",
        id: "A2",
        section: "ablation: cache policy (latency vs staleness)",
        artifact: "results/exp_cache_ablation.txt",
        run: Run::Seeded(|seed| cache_ablation::render(&cache_ablation::run_cache_ablation(seed))),
    },
    Experiment {
        name: "exp_service_load",
        id: "E8",
        section: "service under offered load (extension)",
        artifact: "results/exp_service_load.txt",
        run: Run::Persisting(|scale, seed, writer| {
            service_load::render(&service_load::run_service_load_persisted(
                scale, seed, writer,
            ))
        }),
    },
    Experiment {
        name: "exp_latency_attribution",
        id: "E9",
        section: "latency attribution under load (extension)",
        artifact: "results/exp_latency_attribution.txt",
        run: Run::Scaled(|scale, seed| {
            let result = latency_attribution::run_latency_attribution(scale, seed);
            text(latency_attribution::render(&result))
        }),
    },
    Experiment {
        name: "exp_chaos",
        id: "E10",
        section: "audit under an unreliable API (extension)",
        artifact: "results/exp_chaos.txt",
        run: Run::Persisting(|scale, seed, writer| {
            chaos::render(&chaos::run_chaos_persisted(scale, seed, writer))
        }),
    },
    Experiment {
        name: "exp_detect_time",
        id: "E14",
        section: "fault-burst detection time (extension)",
        artifact: "results/BENCH_monitor.json",
        run: Run::Scaled(|scale, seed| {
            let result = detect_time::run_detect_time(scale, seed);
            detect_time::check(&result)?;
            Ok(Output {
                artifact: detect_time::render_json(seed, &result),
                table: detect_time::render(&result),
            })
        }),
    },
    Experiment {
        name: "exp_crash_recovery",
        id: "E15",
        section: "crash recovery under fault injection (extension)",
        artifact: "results/BENCH_recovery.json",
        run: Run::Scaled(|scale, seed| {
            let result = crash_recovery::run_crash_recovery(scale, seed);
            crash_recovery::check(&result)?;
            Ok(Output {
                artifact: crash_recovery::render_json(seed, &result),
                table: crash_recovery::render(&result),
            })
        }),
    },
];

/// Formats a `(inactive, fake, genuine)` row as Table III prints it.
pub(crate) fn fmt_row3(row: (f64, f64, f64)) -> String {
    format!("{:>5.1} {:>5.1} {:>5.1}", row.0, row.1, row.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.materialize_cap < f.materialize_cap);
        assert!(q.fc_sample < f.fc_sample);
        assert_eq!(f.fc_sample, 9_604);
        assert_eq!(Scale::default(), f);
    }

    #[test]
    fn registry_names_each_artifact_once() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        for e in &EXPERIMENTS {
            let table = format!("results/{}.txt", e.name);
            let json = matches!(e.id, "E14" | "E15");
            assert_eq!(e.artifact == table, !json, "{}: {}", e.name, e.artifact);
        }
    }

    #[test]
    fn row_formatting() {
        assert_eq!(fmt_row3((25.0, 1.4, 73.6)), " 25.0   1.4  73.6");
    }
}

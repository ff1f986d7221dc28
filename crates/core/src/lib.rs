//! ConfErr — a tool for assessing resilience to human configuration
//! errors (reproduction of Keller, Upadhyaya & Candea, DSN 2008).
//!
//! ConfErr takes a system's configuration files, mutates them with
//! psychologically grounded human-error models, feeds the mutated
//! configurations to the system-under-test (SUT), and classifies what
//! happens:
//!
//! * the SUT **failed to start** — it detected the error;
//! * the SUT started but **functional tests failed** — it missed the
//!   error and an administrator's smoke test caught the damage;
//! * everything **passed** — the error was silently absorbed;
//! * the fault was **inexpressible** in the SUT's configuration
//!   language (paper §5.4) and nothing could be injected.
//!
//! The result is a [`ResilienceProfile`] that can be aggregated per
//! error class (Table 1), compared across systems (§5.5, Figure 3)
//! and rendered as text reports.
//!
//! # Architecture
//!
//! This crate is the *campaign layer* of the reproduction (paper
//! §3.1, Figure 1): in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! it orchestrates every other layer — generators produce fault
//! loads, the engine applies them copy-on-write, serializes only
//! mutated files (memoizing the preparation per edit list), and
//! drives the simulators' cached startup parsing through
//! [`conferr_sut::ConfigPayload`]. [`Campaign`] is the borrowed-SUT
//! serial reference; everything else runs on the persistent
//! [`CampaignExecutor`], which schedules [`ExecutorCampaign`] fault
//! loads — including whole [`CampaignBatch`]es of campaigns across
//! systems — over a reusable worker pool. Both produce byte-identical
//! profiles. See `docs/ARCHITECTURE.md` at the repository root for
//! the full paper-section-to-crate map and an injection data-flow
//! walkthrough.
//!
//! # Quickstart
//!
//! ```
//! use conferr::Campaign;
//! use conferr_keyboard::Keyboard;
//! use conferr_plugins::{TokenClass, TypoPlugin};
//! use conferr_sut::PostgresSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sut = PostgresSim::new();
//! let mut campaign = Campaign::new(&mut sut)?;
//! campaign.add_generator(Box::new(TypoPlugin::new(
//!     Keyboard::qwerty_us(),
//!     TokenClass::DirectiveValues,
//! )));
//! let profile = campaign.run()?;
//! assert!(profile.len() > 0);
//! println!("{}", profile.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod campaign;
mod checkpoint;
mod compare;
mod executor;
mod export;
mod outcome;
mod plan;
mod profile;
pub mod report;
mod sink;
mod tiered;

pub use campaign::{Campaign, CampaignError};
pub use checkpoint::{Checkpoint, CheckpointSink};
pub use compare::{
    task_resilience, value_typo_resilience, ComparisonReport, DetectionBand, DirectiveResilience,
    SystemResilience,
};
pub use conferr_analysis::{FaultLinter, Lint, LintedSource, StaticVerdict, ValidationClass};
pub use conferr_sut::Tier;
pub use executor::{
    default_threads, sut_factory, CampaignBatch, CampaignExecutor, ExecutorCampaign, RetryPolicy,
    StreamStats, SutFactory, DEFAULT_CHUNK_SIZE,
};
pub use export::{
    outcome_to_csv_row, outcome_to_json, outcome_to_jsonl, profile_to_csv, profile_to_json,
    CSV_HEADER,
};
pub use outcome::{InjectionOutcome, InjectionResult};
pub use plan::{PlanTrace, PlanTraceSink, StepRecord};
pub use profile::{ProfileSummary, ResilienceProfile};
pub use sink::{CollectingSink, CountingSink, CsvSink, JsonlSink, OutcomeSink};
pub use tiered::{confirmation_candidate, TieredRunReport};

// Parallel-vs-serial identity: a load run on a `CampaignExecutor` at any
// thread count yields exactly the profile of the borrowed-SUT `Campaign`.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::{sut_factory, Campaign, CampaignExecutor, ExecutorCampaign};
        use conferr_keyboard::Keyboard;
        use conferr_model::{ErrorGenerator, TypoKind};
        use conferr_plugins::{TokenClass, TypoPlugin};
        use conferr_sut::{MySqlSim, PostgresSim};

        fn plugin() -> Box<TypoPlugin> {
            Box::new(
                TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
                    .with_kinds([TypoKind::Omission, TypoKind::Transposition]),
            )
        }

        #[test]
        fn parallel_profile_is_byte_identical_to_serial() {
            let serial = {
                let mut sut = PostgresSim::new();
                let mut campaign = Campaign::new(&mut sut).unwrap();
                campaign.add_generator(plugin());
                campaign.run().unwrap()
            };
            let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
            let faults = plugin().generate(campaign.baseline()).unwrap();
            for threads in [1, 2, 5] {
                let executor = CampaignExecutor::new(threads);
                let profile = executor.run_faults(&campaign, faults.clone()).unwrap();
                assert_eq!(profile.system(), serial.system());
                assert_eq!(profile.outcomes(), serial.outcomes(), "threads = {threads}");
            }
        }

        #[test]
        fn run_faults_parallel_matches_serial_run_faults() {
            let mut scout = MySqlSim::new();
            let mut campaign = Campaign::new(&mut scout).unwrap();
            let faults = plugin().generate(campaign.baseline()).unwrap();
            let serial = campaign.run_faults(faults.clone()).unwrap();
            let shared = ExecutorCampaign::new(sut_factory(MySqlSim::new)).unwrap();
            let parallel = CampaignExecutor::new(4)
                .run_faults(&shared, faults)
                .unwrap();
            assert_eq!(serial.outcomes(), parallel.outcomes());
        }

        #[test]
        fn repeated_runs_reuse_the_pool_and_stay_identical() {
            let executor = CampaignExecutor::new(3);
            let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
            let faults = plugin().generate(campaign.baseline()).unwrap();
            let first = executor.run_faults(&campaign, faults.clone()).unwrap();
            let second = executor.run_faults(&campaign, faults).unwrap();
            assert_eq!(first.outcomes(), second.outcomes());
        }

        #[test]
        fn empty_fault_load_yields_empty_profile() {
            let executor = CampaignExecutor::with_default_threads();
            let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).unwrap();
            let profile = executor.run_faults(&campaign, Vec::new()).unwrap();
            assert!(profile.is_empty());
            assert_eq!(profile.system(), "postgres-sim");
        }

        #[test]
        fn thread_count_is_clamped() {
            assert_eq!(CampaignExecutor::new(0).threads(), 1);
        }
    }
}

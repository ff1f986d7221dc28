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
//! [`conferr_sut::ConfigPayload`]. [`Campaign`] is the serial driver;
//! [`ParallelCampaign`] and the persistent
//! [`CampaignExecutor`]/[`CampaignBatch`] pair schedule fault loads —
//! including whole batches of campaigns across systems — over a
//! reusable worker pool; every driver produces byte-identical
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
mod parallel;
mod plan;
mod profile;
pub mod report;
mod sink;
mod tiered;

pub use campaign::{Campaign, CampaignError};
pub use checkpoint::{Checkpoint, CheckpointSink};
pub use compare::{
    compare_value_typo_resilience, parallel_value_typo_resilience, task_resilience,
    value_typo_resilience, ComparisonReport, DetectionBand, DirectiveResilience, SystemResilience,
};
pub use conferr_analysis::{FaultLinter, Lint, LintedSource, StaticVerdict, ValidationClass};
pub use conferr_sut::Tier;
pub use executor::{
    sut_factory, CampaignBatch, CampaignExecutor, ExecutorCampaign, RetryPolicy, StreamStats,
    SutFactory, DEFAULT_CHUNK_SIZE, DEFAULT_COMPLETION_BATCH,
};
pub use export::{
    outcome_to_csv_row, outcome_to_json, outcome_to_jsonl, profile_to_csv, profile_to_json,
    CSV_HEADER,
};
pub use outcome::{InjectionOutcome, InjectionResult};
pub use parallel::{default_threads, ParallelCampaign};
pub use plan::{PlanTrace, PlanTraceSink, StepRecord};
pub use profile::{ProfileSummary, ResilienceProfile};
pub use sink::{CollectingSink, CountingSink, CsvSink, JsonlSink, OutcomeSink};
pub use tiered::{confirmation_candidate, TieredRunReport};

//! The ConfErr reproduction's benchmark.
//!
//! One binary runs one named workload against the engine at default
//! knobs and prints its metrics (see `BENCHMARK.json` at the repository
//! root). The engine gets only the generated faults; everything is
//! timed from outside it, by calls into its public API.
//!
//! # Workloads
//!
//! * **novel** — what a real campaign pays: Table 1 faults from many
//!   seeds, deduplicated, each system a single-entry submission on a
//!   fresh executor. Fault memo, linter memo and parse cache all miss,
//!   so lint, format parsing and SUT start dominate.
//! * **memo** — the memo-hit regime behind the legacy `bench_campaign`
//!   ×20 numbers: one seed's load resubmitted warm as a 3-entry batch.
//!   Per-fault work is memo and cache lookups, so the executor's
//!   claim/drain/reorder path and per-outcome overhead dominate. Its
//!   working set stays below the engine's memo capacities. Run on
//!   demand (`--workload memo`); `BENCHMARK.json` does not list it,
//!   because a few microseconds of cross-core work per fault make its
//!   run-to-run spread on a shared host wider than any allowed bound.
//! * **stream** — the same layers used differently: a lazily generated
//!   two-edit product load, drained through the bounded reorder window
//!   into JSONL plus checkpoint-journal sinks.
//!
//! # Layers and what they should move
//!
//! | Layer metric | End-to-end metric it moves | Workloads |
//! |---|---|---|
//! | `analysis.lint.us`, `formats.parse.mb_per_s.*`, `sut.start.us.*`, `model.apply.us`, `tree.diff.us`, `formats.serialize.us` | `faults_per_s`, `<system>.us_per_fault` | novel; stream except lint (compound faults lint as `Unknown` in a few µs); not memo (all hits) |
//! | `core.engine.us` (minus lint and prepare), `sink.accept.us` | `faults_per_s` | memo, stream |
//! | baseline parse, linter build | `setup_s` | all |
//!
//! `sut.*`, `sink.*` and `model.source.us` come from spans around the
//! engine's pluggable traits in a traced run; `core.engine.us` is the
//! traced run's process CPU per fault minus those spans; the
//! engine-internal layers are priced by a serial replay of the same
//! faults through their public functions.

pub mod procfs;
pub mod replay;
pub mod report;
pub mod systems;
pub mod trace;
pub mod workloads;

pub use report::{Metric, Report};
pub use workloads::{run, Config, Scale, Workload};

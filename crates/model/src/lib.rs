//! Fault scenarios, error templates and template combinators.
//!
//! # Architecture
//!
//! This crate is the *error-model layer* of the reproduction (paper
//! §3.3): in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! it sits between the tree foundation and the concrete generator
//! plugins, defining the [`FaultScenario`]/[`Template`] vocabulary the
//! campaign engine in `conferr` (core) replays.
//!
//! This crate is the middle layer of ConfErr (paper §3.3): it turns
//! *error models* into concrete, replayable mutations of configuration
//! trees.
//!
//! * [`ConfigSet`] — the unit of injection: a named set of parsed
//!   configuration files. Mutating the whole set at once is what
//!   enables *cross-file* errors (paper §3.1).
//! * [`FaultScenario`] — one realistic mistake, expressed as a list of
//!   declarative [`TreeEdit`]s plus taxonomy metadata ([`ErrorClass`],
//!   [`CognitiveLevel`]) tracing the mistake to the GEMS cognitive
//!   level it models (paper §2).
//! * [`Template`] — a parameterised generator of fault scenarios; the
//!   base templates ([`DeleteTemplate`], [`DuplicateTemplate`],
//!   [`MoveTemplate`], [`ModifyTemplate`], [`InsertTemplate`],
//!   [`SwapTemplate`]) mirror the paper's node-mutation templates, and
//!   the combinators ([`Union`], [`Sample`], [`Limit`], [`Filter`])
//!   mirror its "complex templates" for composing and subsetting
//!   fault-scenario sets.
//! * [`FaultSource`] — the streaming counterpart of a generated fault
//!   load: a pull-based, chunked producer with lazy combinators
//!   ([`FaultSourceExt`]), so fault spaces far larger than memory
//!   (cartesian products, sampled sweeps) can feed a campaign without
//!   ever being materialized.
//! * [`FaultPlan`] — a seeded multi-step *operator session* (inject,
//!   revert, restart, re-test, observe) that compiles to a stateful
//!   [`FaultSource`] emitting one cumulative-edit fault per
//!   SUT-touching step, so the campaign layer can execute sequenced
//!   mistakes against one live system.
//!
//! # Examples
//!
//! Generate one deletion scenario per directive and apply the first:
//!
//! ```
//! use conferr_model::{ConfigSet, DeleteTemplate, ErrorClass, StructuralKind, Template};
//! use conferr_tree::{ConfTree, Node};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut set = ConfigSet::new();
//! set.insert(
//!     "app.conf",
//!     ConfTree::new(
//!         Node::new("config")
//!             .with_child(Node::new("directive").with_attr("name", "port").with_text("80"))
//!             .with_child(Node::new("directive").with_attr("name", "host").with_text("a")),
//!     ),
//! );
//!
//! let template = DeleteTemplate::new(
//!     "//directive".parse()?,
//!     ErrorClass::Structural(StructuralKind::DirectiveOmission),
//! );
//! let scenarios = template.generate(&set);
//! assert_eq!(scenarios.len(), 2);
//!
//! let mutated = scenarios[0].apply(&set)?;
//! assert_eq!(mutated.get("app.conf").unwrap().root().children().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod combine;
mod error;
mod generator;
mod plan;
mod scenario;
mod set;
mod source;
mod template;

pub use combine::{Filter, Limit, Sample, Union};
pub use error::ModelError;
pub use generator::{ErrorGenerator, GenerateError, GeneratedFault, TemplateGenerator};
pub use plan::{FaultPlan, PlanAction, PlanSource, PlanStep, StepKind};
pub use scenario::{
    edit_sites, CognitiveLevel, ErrorClass, FaultScenario, StructuralKind, TreeEdit, TypoKind,
};
pub use set::ConfigSet;
pub use source::{
    combine_faults, product_eager, sample_keeps, BoxFaultSource, ChainSource, EagerSource,
    FaultSource, FaultSourceExt, GeneratorSource, IntoFaultSource, ProductSource, SampleSource,
    SkipSource, TakeSource,
};
pub use template::{
    DeleteTemplate, DuplicateTemplate, FileSelector, InsertTemplate, ModifyMutator, ModifyTarget,
    ModifyTemplate, MoveTemplate, SwapTemplate, Template,
};

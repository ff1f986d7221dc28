//! The three systems of the paper's Table 1 and the ways the benchmark
//! builds campaigns against them.

use conferr::{CampaignError, ExecutorCampaign, SutFactory};
use conferr_sut::{ApacheSim, MySqlSim, PostgresSim, SystemUnderTest};

use crate::trace::{Recorder, TimedSut};

/// One Table 1 system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum System {
    /// `mysql-sim` (`my.cnf`, ini format).
    MySql,
    /// `postgres-sim` (`postgresql.conf`, key-value format).
    Postgres,
    /// `apache-sim` (`httpd.conf`, apache format).
    Apache,
}

/// Table 1's column order; every per-system array is indexed by it.
pub const SYSTEMS: [System; 3] = [System::MySql, System::Postgres, System::Apache];

impl System {
    /// The metric-name prefix, e.g. `apache` in `apache.us_per_fault`.
    pub fn label(self) -> &'static str {
        match self {
            System::MySql => "mysql",
            System::Postgres => "postgres",
            System::Apache => "apache",
        }
    }

    /// Position in [`SYSTEMS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// A fresh simulator with default knobs.
    pub fn create(self) -> Box<dyn SystemUnderTest + Send> {
        match self {
            System::MySql => Box::new(MySqlSim::new()),
            System::Postgres => Box::new(PostgresSim::new()),
            System::Apache => Box::new(ApacheSim::new()),
        }
    }
}

/// How a campaign is built.
#[derive(Debug, Clone)]
pub enum Harness {
    /// Default knobs: what a user runs, and what is timed.
    Plain,
    /// The uncached reference every output is checked against: fault
    /// memo and SUT parse cache off.
    Reference,
    /// Default knobs with the SUT wrapped in a [`TimedSut`], for the
    /// traced run.
    Traced(Recorder),
}

impl Harness {
    /// The span recorder of a traced harness.
    pub fn recorder(&self) -> Option<&Recorder> {
        match self {
            Harness::Traced(recorder) => Some(recorder),
            _ => None,
        }
    }
}

/// The SUT factory `harness` builds campaigns of `system` from.
pub fn factory(system: System, harness: &Harness) -> SutFactory {
    match harness {
        Harness::Plain => SutFactory::from_boxed(move || system.create()),
        Harness::Reference => SutFactory::from_boxed(move || {
            let mut sut = system.create();
            sut.set_parse_caching(false);
            sut
        }),
        Harness::Traced(recorder) => {
            let recorder = recorder.clone();
            SutFactory::from_boxed(move || {
                Box::new(TimedSut::new(system.create(), recorder.clone(), system))
            })
        }
    }
}

/// A campaign of `system` under `harness`: baseline parse, scout start
/// and linter build all happen here.
///
/// # Errors
///
/// Propagates the engine's construction failure.
pub fn campaign(system: System, harness: &Harness) -> Result<ExecutorCampaign, CampaignError> {
    let campaign = ExecutorCampaign::new(factory(system, harness))?;
    if matches!(harness, Harness::Reference) {
        campaign.set_fault_memoization(false);
    }
    Ok(campaign)
}

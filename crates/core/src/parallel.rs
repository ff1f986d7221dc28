//! The parallel campaign driver: the same inject → serialize → start →
//! test → classify cycle as [`Campaign`](crate::Campaign), sharded across worker
//! threads.
//!
//! ConfErr's value is running *large* fault loads unattended (paper
//! §3.1), and every injection is independent: it starts from the
//! pristine baseline, drives a deterministic SUT, and tears the SUT
//! back down. [`ParallelCampaign`] exploits that independence. It is
//! a thin, generator-aware veneer over the persistent
//! [`CampaignExecutor`](crate::CampaignExecutor): the first `run_faults` call builds (and
//! every later call reuses) a worker pool whose threads each own a
//! private SUT instance cached by [`SutFactory`](crate::SutFactory) identity, and faults
//! are stolen off a shared cursor with outcomes merged back in fault
//! order. The resulting profile is **byte-identical** to a serial
//! [`Campaign::run_faults`](crate::Campaign::run_faults) over the same fault load — scheduling
//! affects wall-clock time, never results. For scheduling *several*
//! campaigns across systems through one queue, use
//! [`CampaignBatch`](crate::CampaignBatch) on a shared executor directly.

use std::collections::BTreeMap;

use conferr_model::{ConfigSet, ErrorGenerator, GeneratedFault};
use conferr_sut::ConfigPayload;
use parking_lot::Mutex;

use crate::executor::{CampaignExecutor, ExecutorCampaign, SutFactory};
use crate::{CampaignError, ResilienceProfile};

/// Default worker count for parallel drivers: every core the machine
/// offers (1 when the parallelism cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A multi-threaded injection campaign against one *kind* of
/// system-under-test.
///
/// Because a campaign needs exclusive access to a SUT for the
/// duration of each injection, parallel execution requires one SUT
/// instance per worker; the campaign is therefore built from a
/// [`SutFactory`](crate::SutFactory) rather than a borrowed instance. The factory must
/// produce identically-configured SUTs (the built-in simulators
/// qualify: they are deterministic state machines fully reset by
/// `stop`). The underlying worker pool is created on first use and
/// persists across `run`/`run_faults` calls, SUT instances included.
///
/// # Examples
///
/// ```
/// use conferr::{sut_factory, ParallelCampaign};
/// use conferr_keyboard::Keyboard;
/// use conferr_plugins::{TokenClass, TypoPlugin};
/// use conferr_sut::PostgresSim;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut campaign = ParallelCampaign::new(sut_factory(PostgresSim::new))?;
/// campaign.add_generator(Box::new(TypoPlugin::new(
///     Keyboard::qwerty_us(),
///     TokenClass::DirectiveNames,
/// )));
/// let profile = campaign.run()?;
/// assert!(profile.len() > 0);
/// # Ok(())
/// # }
/// ```
pub struct ParallelCampaign {
    campaign: ExecutorCampaign,
    generators: Vec<Box<dyn ErrorGenerator>>,
    threads: usize,
    /// Built lazily at the first run with the configured thread
    /// count, then reused (with its worker threads and their SUT
    /// caches) by every later run. Reset by [`Self::with_threads`].
    executor: Mutex<Option<CampaignExecutor>>,
}

impl std::fmt::Debug for ParallelCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelCampaign")
            .field("system", &self.campaign.system())
            .field("generators", &self.generators.len())
            .field("threads", &self.threads)
            .finish()
    }
}

impl ParallelCampaign {
    /// Creates a parallel campaign from the SUT's default
    /// configuration files, probing one scout instance from the
    /// factory. Worker count defaults to the machine's available
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Campaign::new`](crate::Campaign::new).
    pub fn new(factory: SutFactory) -> Result<Self, CampaignError> {
        Ok(Self::from_campaign(ExecutorCampaign::new(factory)?))
    }

    /// Creates a parallel campaign from explicit configuration text,
    /// mirroring [`Campaign::with_configs`](crate::Campaign::with_configs) (overridden files are
    /// parsed once, from the override text).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Campaign::with_configs`](crate::Campaign::with_configs).
    pub fn with_configs(
        factory: SutFactory,
        configs: &BTreeMap<String, String>,
    ) -> Result<Self, CampaignError> {
        Ok(Self::from_campaign(ExecutorCampaign::with_configs(
            factory, configs,
        )?))
    }

    /// Creates a parallel campaign from explicit configuration
    /// payloads, mirroring [`Campaign::with_payload`](crate::Campaign::with_payload).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Campaign::with_payload`](crate::Campaign::with_payload).
    pub fn with_payload(
        factory: SutFactory,
        configs: &ConfigPayload,
    ) -> Result<Self, CampaignError> {
        Ok(Self::from_campaign(ExecutorCampaign::with_payload(
            factory, configs,
        )?))
    }

    /// Wraps an already-built [`ExecutorCampaign`](crate::ExecutorCampaign).
    pub fn from_campaign(campaign: ExecutorCampaign) -> Self {
        ParallelCampaign {
            campaign,
            generators: Vec::new(),
            threads: default_threads(),
            executor: Mutex::new(None),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1),
    /// discarding any previously built pool.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        *self.executor.get_mut() = None;
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Adds an error-generator plugin.
    pub fn add_generator(&mut self, generator: Box<dyn ErrorGenerator>) -> &mut Self {
        self.generators.push(generator);
        self
    }

    /// Enables or disables the engine's fault memo (default: on) —
    /// see [`Campaign::set_fault_memoization`](crate::Campaign::set_fault_memoization).
    /// The memo is internally synchronized; workers share it.
    pub fn set_fault_memoization(&mut self, enabled: bool) -> &mut Self {
        self.campaign.set_fault_memoization(enabled);
        self
    }

    /// Enables or disables test-impact pruning (default: on) — see
    /// [`Campaign::set_impact_pruning`](crate::Campaign::set_impact_pruning).
    /// The setting is shared by every worker.
    pub fn set_impact_pruning(&mut self, enabled: bool) -> &mut Self {
        self.campaign.set_impact_pruning(enabled);
        self
    }

    /// The parsed baseline configuration set.
    pub fn baseline(&self) -> &ConfigSet {
        self.campaign.baseline()
    }

    /// The underlying [`ExecutorCampaign`](crate::ExecutorCampaign) (cheap to clone into a
    /// [`CampaignBatch`](crate::CampaignBatch)).
    pub fn campaign(&self) -> &ExecutorCampaign {
        &self.campaign
    }

    /// Runs every generator's full fault load, sharded across the
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Fails only when a generator fails outright; per-fault problems
    /// are recorded in the profile.
    pub fn run(&self) -> Result<ResilienceProfile, CampaignError> {
        let mut faults = Vec::new();
        for generator in &self.generators {
            faults.extend(generator.generate(self.campaign.baseline())?);
        }
        self.run_faults(faults)
    }

    /// Runs an explicit fault load across the (persistent) worker
    /// threads and merges the outcomes back in fault order.
    ///
    /// # Errors
    ///
    /// Currently infallible (kept fallible for symmetry with
    /// [`Campaign::run_faults`](crate::Campaign::run_faults)): injection problems are per-fault
    /// outcomes.
    pub fn run_faults(
        &self,
        faults: Vec<GeneratedFault>,
    ) -> Result<ResilienceProfile, CampaignError> {
        let mut guard = self.executor.lock();
        let executor = guard.get_or_insert_with(|| CampaignExecutor::new(self.threads));
        executor.run_faults(&self.campaign, faults)
    }

    /// Streams faults from a live source across the (persistent)
    /// worker pool, delivering outcomes to `sink` in fault order as
    /// they complete — the bounded-memory path for fault spaces too
    /// large to materialize (see
    /// [`CampaignExecutor::run_source`](crate::CampaignExecutor::run_source)).
    ///
    /// # Errors
    ///
    /// Propagates the source's first production failure; outcomes
    /// completed before the failure are still delivered.
    pub fn run_source(
        &self,
        source: conferr_model::BoxFaultSource,
        sink: &mut dyn crate::OutcomeSink,
    ) -> Result<crate::StreamStats, CampaignError> {
        let mut guard = self.executor.lock();
        let executor = guard.get_or_insert_with(|| CampaignExecutor::new(self.threads));
        executor.run_source(&self.campaign, source, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sut_factory, Campaign};
    use conferr_keyboard::Keyboard;
    use conferr_model::TypoKind;
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
        for threads in [1, 2, 5] {
            let mut parallel = ParallelCampaign::new(sut_factory(PostgresSim::new))
                .unwrap()
                .with_threads(threads);
            parallel.add_generator(plugin());
            let profile = parallel.run().unwrap();
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
        let parallel =
            Campaign::run_faults_parallel(sut_factory(MySqlSim::new), faults, 4).unwrap();
        assert_eq!(serial.outcomes(), parallel.outcomes());
    }

    #[test]
    fn repeated_runs_reuse_the_pool_and_stay_identical() {
        let mut campaign = ParallelCampaign::new(sut_factory(PostgresSim::new))
            .unwrap()
            .with_threads(3);
        campaign.add_generator(plugin());
        let first = campaign.run().unwrap();
        let second = campaign.run().unwrap();
        assert_eq!(first.outcomes(), second.outcomes());
    }

    #[test]
    fn empty_fault_load_yields_empty_profile() {
        let campaign = ParallelCampaign::new(sut_factory(PostgresSim::new)).unwrap();
        let profile = campaign.run_faults(Vec::new()).unwrap();
        assert!(profile.is_empty());
        assert_eq!(profile.system(), "postgres-sim");
    }

    #[test]
    fn more_threads_than_faults_is_fine() {
        let mut campaign = ParallelCampaign::new(sut_factory(PostgresSim::new))
            .unwrap()
            .with_threads(64);
        campaign.add_generator(plugin());
        assert!(!campaign.run().unwrap().is_empty());
    }

    #[test]
    fn thread_count_is_clamped() {
        let campaign = ParallelCampaign::new(sut_factory(PostgresSim::new))
            .unwrap()
            .with_threads(0);
        assert_eq!(campaign.threads(), 1);
    }
}

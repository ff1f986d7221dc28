//! The three workloads and the measurement loop around them.
//!
//! Every workload runs MySQL, Postgres and Apache — the systems of the
//! paper's Table 1 — through the persistent executor at default knobs
//! and `available_parallelism` threads, and times only calls into the
//! executor. Each *round* repeats the same submissions, so one uncached
//! reference computed after the measured rounds checks every round's
//! output.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use conferr::{
    profile_to_json, CampaignBatch, CampaignExecutor, CheckpointSink, CollectingSink,
    ExecutorCampaign, JsonlSink, OutcomeSink, ProfileSummary, StreamStats,
};
use conferr_bench::table1_faultload;
use conferr_keyboard::Keyboard;
use conferr_model::{
    BoxFaultSource, EagerSource, FaultSource, FaultSourceExt, GeneratedFault, TreeEdit,
};

use crate::procfs;
use crate::replay;
use crate::report::{median, share, Metric, Report};
use crate::systems::{campaign, Harness, System, SYSTEMS};
use crate::trace::{Layer, Recorder, TimedSink, TimedSource};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct Table 1 faults over many seeds, each system a
    /// single-entry submission on a fresh executor: every memo and
    /// cache misses.
    Novel,
    /// One seed's Table 1 load as a 3-entry batch, resubmitted warm to
    /// one persistent executor: every memo and cache hits. Run on
    /// demand only — `BENCHMARK.json` leaves it out because its
    /// run-to-run spread on a shared 2-vCPU host exceeds any allowed
    /// bound (see `CHANGES.md`).
    Memo,
    /// Each system's load crossed with itself and sampled, generated
    /// lazily inside a 3-entry streaming batch that drains into JSONL
    /// plus checkpoint-journal sinks.
    Stream,
}

impl Workload {
    /// Every workload `--workload` accepts.
    pub const ALL: [Workload; 3] = [Workload::Novel, Workload::Memo, Workload::Stream];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Novel => "novel",
            Workload::Memo => "memo",
            Workload::Stream => "stream",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Table 1 seeds (from the workload seed up) merged into the novel
    /// load.
    pub novel_seeds: u64,
    /// Bernoulli sampling rate over each system's load × load product.
    pub stream_rate: f64,
    /// Bursts of [`SETUP_BURST`] timed set-ups, spread evenly over the
    /// measured time, for the set-up median.
    pub setup_bursts: usize,
    /// Measured rounds run at least, however short the time budget.
    pub min_rounds: usize,
    /// Minimum length of one timed parser batch.
    pub parse_batch: Duration,
    /// Timed parser batches per format.
    pub parse_batches: usize,
}

impl Scale {
    /// The sizes `BENCHMARK.json`'s runs use.
    pub const FULL: Scale = Scale {
        novel_seeds: 50,
        stream_rate: 0.1,
        setup_bursts: 10,
        min_rounds: 3,
        parse_batch: Duration::from_millis(20),
        parse_batches: 5,
    };

    /// Smallest sizes that still exercise every path, for tests.
    pub const TINY: Scale = Scale {
        novel_seeds: 1,
        stream_rate: 0.002,
        setup_bursts: 1,
        min_rounds: 1,
        parse_batch: Duration::ZERO,
        parse_batches: 1,
    };
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds the fault load.
    pub seed: u64,
    /// Wall-clock budget for the measured rounds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Set-ups timed back to back in one burst. Set-up right after a
/// round's teardown also pays for the allocator and caches that
/// teardown disturbed (several times the steady cost); the later
/// samples of a burst outvote that first one in the median. The fresh
/// engines novel and stream build inside their rounds are not timed,
/// for the same reason.
pub const SETUP_BURST: usize = 4;

/// Checkpoint-journal interval of the stream workload's sinks.
const JOURNAL_INTERVAL: usize = 256;

/// Untimed warm-up submissions before the memo workload measures: with
/// several threads a fault may land on a different worker (and so a
/// different SUT parse cache) on each pass.
const MEMO_WARM_PASSES: usize = 3;

/// One timed executor call.
#[derive(Debug, Clone, Copy)]
struct Call {
    /// Faults per system in the call.
    counts: [usize; 3],
    wall: Duration,
    cpu_ns: u64,
    /// Counts towards `faults_per_s` and `cpu_us_per_fault`.
    headline: bool,
}

impl Call {
    fn faults(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The only system in the call, if it has one.
    fn single_system(&self) -> Option<usize> {
        let mut present = (0..3).filter(|&i| self.counts[i] > 0);
        let first = present.next()?;
        present.next().is_none().then_some(first)
    }
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    calls: Vec<Call>,
    peak_buffered: usize,
    retries: usize,
    /// `(dynamic, synthesized)` SUT starts of the round's campaigns.
    triage: (usize, usize),
}

impl Round {
    fn headline(&self) -> (usize, f64, u64) {
        self.calls
            .iter()
            .filter(|c| c.headline)
            .fold((0, 0.0, 0), |(n, w, c), call| {
                (
                    n + call.faults(),
                    w + call.wall.as_secs_f64(),
                    c + call.cpu_ns,
                )
            })
    }

    fn faults_per_s(&self) -> f64 {
        let (faults, wall, _) = self.headline();
        share(faults as f64, wall)
    }

    /// Wall µs per fault of system `i` over its single-system calls.
    fn system_us(&self, i: usize) -> f64 {
        let (faults, wall) = self
            .calls
            .iter()
            .filter(|c| c.single_system() == Some(i))
            .fold((0, 0.0), |(n, w), c| {
                (n + c.counts[i], w + c.wall.as_secs_f64())
            });
        share(wall * 1e6, faults as f64)
    }

    fn add_triage(&mut self, (dynamic, synthesized): (usize, usize)) {
        self.triage.0 += dynamic;
        self.triage.1 += synthesized;
    }
}

/// `(dynamic, synthesized)` SUT starts the campaigns' engines have
/// counted since construction.
fn triage(campaigns: &[ExecutorCampaign]) -> (usize, usize) {
    campaigns.iter().fold((0, 0), |(d, s), c| {
        let (dynamic, synthesized) = c.triage_stats();
        (d + dynamic, s + synthesized)
    })
}

/// The reference output of one system: what every measured run of it
/// must reproduce.
#[derive(Debug, Clone, Copy)]
struct Expected {
    digest: u64,
    summary: ProfileSummary,
}

/// Output checks and failure counts across a run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// `(system, output digest, traced)` of every measured output,
    /// checked once the reference exists.
    observed: Vec<(System, u64, bool)>,
    /// Each failed check, with how often it failed.
    problems: BTreeMap<String, usize>,
}

impl Ledger {
    fn problem(&mut self, problem: String) {
        *self.problems.entry(problem).or_default() += 1;
    }

    fn outcomes(&mut self, system: System, digest: u64, summary: &ProfileSummary, traced: bool) {
        self.attempted += summary.total as u64;
        self.failed += (summary.harness_failures + summary.timed_out) as u64;
        self.observed.push((system, digest, traced));
    }

    /// Checks one executor call's stream statistics and collects its
    /// quarantine.
    fn executor_call(
        &mut self,
        executor: &CampaignExecutor,
        stats: &StreamStats,
        entries: usize,
        faults: usize,
    ) {
        if stats.outcomes != faults {
            self.problem(format!(
                "executor reported {} outcomes for {faults} faults",
                stats.outcomes
            ));
        }
        // The executor bounds its reorder window per batch entry.
        let bound = executor.chunk_size() * executor.threads() * entries;
        if stats.peak_buffered > bound {
            self.problem(format!(
                "peak_buffered {} exceeds chunk_size x threads x entries = {bound}",
                stats.peak_buffered
            ));
        }
        self.failed += executor.quarantined().len() as u64;
        executor.clear_quarantine();
    }

    /// Compares every observed output with the reference; returns
    /// `(correct, failed)`. Any failed check makes every attempted
    /// fault count as failed.
    fn settle(&mut self, expected: &[Expected; 3]) -> (bool, u64) {
        for (system, digest, traced) in std::mem::take(&mut self.observed) {
            if digest != expected[system.index()].digest {
                self.problem(format!(
                    "{} {} output differs from the uncached reference",
                    if traced { "traced" } else { "untraced" },
                    system.label()
                ));
            }
        }
        if self.problems.is_empty() {
            (true, self.failed)
        } else {
            (false, self.attempted)
        }
    }
}

fn digest(parts: &[&[u8]]) -> u64 {
    let mut hasher = DefaultHasher::new();
    parts.hash(&mut hasher);
    hasher.finish()
}

/// Runs `f`, returning its result with the wall and process CPU time
/// it took.
fn timed<T>(f: impl FnOnce() -> T) -> Result<(T, Duration, u64), String> {
    let cpu = procfs::cpu_ns()?;
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed();
    let cpu = procfs::cpu_ns()?.saturating_sub(cpu);
    Ok((out, wall, cpu))
}

/// Submits `batch` (whose entries serve `systems`) with one sink per
/// entry and times the call. A traced harness wraps each sink in a
/// [`TimedSink`] and arms its recorder for the call's duration.
fn submit<S: OutcomeSink>(
    executor: &CampaignExecutor,
    batch: CampaignBatch,
    systems: &[System],
    sinks: &mut [S],
    harness: &Harness,
) -> Result<(StreamStats, Duration, u64), String> {
    let (result, wall, cpu) = match harness.recorder() {
        None => {
            let mut refs: Vec<&mut dyn OutcomeSink> = sinks
                .iter_mut()
                .map(|s| s as &mut dyn OutcomeSink)
                .collect();
            timed(|| executor.run_batch_with_sinks(batch, &mut refs))?
        }
        Some(recorder) => {
            let mut wrapped: Vec<TimedSink<&mut S>> = sinks
                .iter_mut()
                .zip(systems)
                .map(|(sink, &system)| TimedSink::new(sink, recorder.clone(), system))
                .collect();
            let mut refs: Vec<&mut dyn OutcomeSink> = wrapped
                .iter_mut()
                .map(|s| s as &mut dyn OutcomeSink)
                .collect();
            recorder.set_armed(true);
            let call = timed(|| executor.run_batch_with_sinks(batch, &mut refs));
            recorder.set_armed(false);
            call?
        }
    };
    Ok((result.map_err(|e| e.to_string())?, wall, cpu))
}

/// Runs eager per-system loads into collecting sinks as one batch and
/// records the call, its checks and its outputs.
fn submit_eager(
    executor: &CampaignExecutor,
    entries: &[(System, &ExecutorCampaign, &[GeneratedFault])],
    harness: &Harness,
    headline: bool,
    round: &mut Round,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let mut batch = CampaignBatch::new();
    let mut sinks = Vec::with_capacity(entries.len());
    let mut counts = [0; 3];
    let mut systems = Vec::with_capacity(entries.len());
    for &(system, campaign, faults) in entries {
        batch.push(campaign, faults.to_vec());
        sinks.push(CollectingSink::with_capacity(faults.len()));
        counts[system.index()] += faults.len();
        systems.push(system);
    }
    let (stats, wall, cpu_ns) = submit(executor, batch, &systems, &mut sinks, harness)?;
    round.calls.push(Call {
        counts,
        wall,
        cpu_ns,
        headline,
    });
    round.peak_buffered = round.peak_buffered.max(stats.peak_buffered);
    round.retries += stats.retries;
    ledger.executor_call(executor, &stats, entries.len(), counts.iter().sum());
    for (&(system, campaign, _), sink) in entries.iter().zip(sinks) {
        let profile = sink.into_profile(campaign.system());
        let json = profile_to_json(&profile);
        ledger.outcomes(
            system,
            digest(&[json.as_bytes()]),
            &profile.summary(),
            harness.recorder().is_some(),
        );
    }
    Ok(())
}

/// The uncached reference of eager per-system loads: serial executor,
/// fault memo and parse cache off.
fn eager_reference(loads: &[Vec<GeneratedFault>; 3]) -> Result<[Expected; 3], String> {
    let executor = CampaignExecutor::new(1);
    let mut expected = Vec::with_capacity(3);
    for system in SYSTEMS {
        let campaign = campaign(system, &Harness::Reference).map_err(|e| e.to_string())?;
        let profile = executor
            .run_faults(&campaign, loads[system.index()].clone())
            .map_err(|e| e.to_string())?;
        expected.push(Expected {
            digest: digest(&[profile_to_json(&profile).as_bytes()]),
            summary: profile.summary(),
        });
    }
    Ok(expected.try_into().expect("one reference per system"))
}

/// Each system's Table 1 load for one seed.
fn table1_loads(seed: u64) -> Result<[Vec<GeneratedFault>; 3], String> {
    let keyboard = Keyboard::qwerty_us();
    let mut loads = Vec::with_capacity(3);
    for system in SYSTEMS {
        let campaign = campaign(system, &Harness::Plain).map_err(|e| e.to_string())?;
        loads.push(table1_faultload(campaign.baseline(), &keyboard, seed));
    }
    Ok(loads.try_into().expect("one load per system"))
}

/// The edit list that identifies a fault to the engine's memo.
fn edits(fault: &GeneratedFault) -> Option<&[TreeEdit]> {
    fault.scenario().map(|s| s.edits.as_slice())
}

/// One workload's inputs and rounds.
trait Rounds {
    /// Runs one measured round under `harness`.
    fn round(&mut self, harness: &Harness, ledger: &mut Ledger) -> Result<Round, String>;

    /// The uncached reference output of each system.
    fn reference(&self) -> Result<[Expected; 3], String>;

    /// The faults one round submits per system, for the serial replay
    /// and the workload properties.
    fn faults(&self, system: System) -> Result<Vec<GeneratedFault>, String>;

    /// How many times each engine has been given its load (1 when
    /// every round builds fresh engines).
    fn engine_passes(&self) -> usize {
        1
    }

    /// Builds the executors and campaigns a round starts from, returns
    /// the time that took, and drops them.
    fn set_up(&self) -> Result<Duration, String>;
}

/// See [`Workload::Novel`].
struct Novel {
    loads: [Vec<GeneratedFault>; 3],
}

impl Novel {
    fn new(seed: u64, seeds: u64) -> Result<Self, String> {
        let keyboard = Keyboard::qwerty_us();
        let mut loads = Vec::with_capacity(3);
        for system in SYSTEMS {
            let campaign = campaign(system, &Harness::Plain).map_err(|e| e.to_string())?;
            let mut seen: HashSet<Vec<TreeEdit>> = HashSet::new();
            let mut load = Vec::new();
            for s in seed..seed.saturating_add(seeds.max(1)) {
                for fault in table1_faultload(campaign.baseline(), &keyboard, s) {
                    if edits(&fault).is_none_or(|e| seen.insert(e.to_vec())) {
                        load.push(fault);
                    }
                }
            }
            loads.push(load);
        }
        Ok(Novel {
            loads: loads.try_into().expect("one load per system"),
        })
    }
}

impl Rounds for Novel {
    fn round(&mut self, harness: &Harness, ledger: &mut Ledger) -> Result<Round, String> {
        let mut round = Round::default();
        for system in SYSTEMS {
            let campaign = campaign(system, harness).map_err(|e| e.to_string())?;
            let executor = CampaignExecutor::with_default_threads();
            let load = &self.loads[system.index()];
            submit_eager(
                &executor,
                &[(system, &campaign, load)],
                harness,
                true,
                &mut round,
                ledger,
            )?;
            round.add_triage(triage(&[campaign]));
        }
        Ok(round)
    }

    fn reference(&self) -> Result<[Expected; 3], String> {
        eager_reference(&self.loads)
    }

    fn faults(&self, system: System) -> Result<Vec<GeneratedFault>, String> {
        Ok(self.loads[system.index()].clone())
    }

    fn set_up(&self) -> Result<Duration, String> {
        let t = Instant::now();
        let engines = SYSTEMS
            .into_iter()
            .map(|system| {
                let campaign = campaign(system, &Harness::Plain).map_err(|e| e.to_string())?;
                Ok((campaign, CampaignExecutor::with_default_threads()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let elapsed = t.elapsed();
        drop(engines);
        Ok(elapsed)
    }
}

/// A persistent executor with one campaign per system.
struct Rig {
    executor: CampaignExecutor,
    campaigns: Vec<ExecutorCampaign>,
}

impl Rig {
    fn new(harness: &Harness) -> Result<Self, String> {
        let campaigns = SYSTEMS
            .into_iter()
            .map(|system| campaign(system, harness).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            executor: CampaignExecutor::with_default_threads(),
            campaigns,
        })
    }
}

/// Times building a [`Rig`] of default-knob campaigns, then drops it.
fn rig_set_up() -> Result<Duration, String> {
    let t = Instant::now();
    let rig = Rig::new(&Harness::Plain)?;
    let elapsed = t.elapsed();
    drop(rig);
    Ok(elapsed)
}

/// See [`Workload::Memo`].
struct Memo {
    loads: [Vec<GeneratedFault>; 3],
    /// Built and warmed before the first untraced round.
    plain: Option<Rig>,
    traced: Option<Rig>,
    /// Loads given to each plain engine so far.
    plain_passes: usize,
}

impl Memo {
    fn new(seed: u64) -> Result<Self, String> {
        Ok(Memo {
            loads: table1_loads(seed)?,
            plain: None,
            traced: None,
            plain_passes: 0,
        })
    }

    /// Fills the memos and parse caches of the harness's rig; returns
    /// the passes made.
    fn warm(&self, harness: &Harness) -> Result<usize, String> {
        let rig = self.rig(harness);
        for _ in 0..MEMO_WARM_PASSES {
            let mut batch = CampaignBatch::new();
            for (campaign, load) in rig.campaigns.iter().zip(&self.loads) {
                batch.push(campaign, load.clone());
            }
            rig.executor.run_batch(batch).map_err(|e| e.to_string())?;
        }
        Ok(MEMO_WARM_PASSES)
    }

    fn rig(&self, harness: &Harness) -> &Rig {
        match harness {
            Harness::Traced(_) => self.traced.as_ref(),
            _ => self.plain.as_ref(),
        }
        .expect("rig built before its first round")
    }
}

impl Rounds for Memo {
    fn round(&mut self, harness: &Harness, ledger: &mut Ledger) -> Result<Round, String> {
        if harness.recorder().is_some() && self.traced.is_none() {
            self.traced = Some(Rig::new(harness)?);
            self.warm(harness)?;
        }
        if harness.recorder().is_none() && self.plain.is_none() {
            self.plain = Some(Rig::new(harness)?);
            self.plain_passes += self.warm(harness)?;
        }
        let rig = self.rig(harness);
        // One warm submission is a round: a few milliseconds, so the
        // median over rounds shrugs off host preemptions that a longer
        // timed window would absorb.
        let mut round = Round::default();
        let before = triage(&rig.campaigns);
        let entries: Vec<(System, &ExecutorCampaign, &[GeneratedFault])> = SYSTEMS
            .into_iter()
            .map(|s| {
                (
                    s,
                    &rig.campaigns[s.index()],
                    self.loads[s.index()].as_slice(),
                )
            })
            .collect();
        submit_eager(&rig.executor, &entries, harness, true, &mut round, ledger)?;
        for entry in entries {
            submit_eager(&rig.executor, &[entry], harness, false, &mut round, ledger)?;
        }
        let after = triage(&rig.campaigns);
        round.add_triage((after.0 - before.0, after.1 - before.1));
        if harness.recorder().is_none() {
            self.plain_passes += 2;
        }
        Ok(round)
    }

    fn reference(&self) -> Result<[Expected; 3], String> {
        eager_reference(&self.loads)
    }

    fn faults(&self, system: System) -> Result<Vec<GeneratedFault>, String> {
        Ok(self.loads[system.index()].clone())
    }

    fn engine_passes(&self) -> usize {
        self.plain_passes
    }

    fn set_up(&self) -> Result<Duration, String> {
        rig_set_up()
    }
}

/// The stream workload's sink: JSONL export plus checkpoint journal,
/// both in memory.
type StreamSink = CheckpointSink<JsonlSink<Vec<u8>>, Vec<u8>>;

fn stream_sink(campaign: &ExecutorCampaign) -> StreamSink {
    CheckpointSink::new(
        JsonlSink::new(campaign.system(), Vec::new()),
        Vec::new(),
        JOURNAL_INTERVAL,
    )
}

/// Finishes a stream sink: the digest of its JSONL bytes and journal,
/// and the summary of what it received.
fn finish_stream_sink(sink: StreamSink) -> Result<(u64, ProfileSummary), String> {
    let summary = sink.checkpoint().summary;
    let (jsonl, journal) = sink.finish().map_err(|e| e.to_string())?;
    let jsonl = jsonl.finish().map_err(|e| e.to_string())?;
    Ok((digest(&[&jsonl, &journal]), summary))
}

/// See [`Workload::Stream`].
struct Stream {
    bases: [Vec<GeneratedFault>; 3],
    seed: u64,
    rate: f64,
}

impl Stream {
    fn new(seed: u64, rate: f64) -> Result<Self, String> {
        Ok(Stream {
            bases: table1_loads(seed)?,
            seed,
            rate,
        })
    }

    /// The lazy fault source of one system: its load crossed with
    /// itself, thinned by a seeded sample.
    fn source(&self, system: System) -> impl FaultSource + Send {
        let base = &self.bases[system.index()];
        EagerSource::new(base.clone())
            .product(EagerSource::new(base.clone()))
            .sample(self.seed, self.rate)
    }

    fn boxed_source(&self, system: System, harness: &Harness) -> BoxFaultSource {
        match harness.recorder() {
            Some(recorder) => Box::new(TimedSource::new(
                self.source(system),
                recorder.clone(),
                system,
            )),
            None => Box::new(self.source(system)),
        }
    }

    /// Streams `systems` as one batch on `executor` and records the
    /// call, its checks and its outputs.
    fn submit_stream(
        &self,
        executor: &CampaignExecutor,
        campaigns: &[(System, &ExecutorCampaign)],
        harness: &Harness,
        headline: bool,
        round: &mut Round,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let mut batch = CampaignBatch::new();
        let mut sinks = Vec::with_capacity(campaigns.len());
        let mut systems = Vec::with_capacity(campaigns.len());
        for &(system, campaign) in campaigns {
            batch.push_source(campaign, self.boxed_source(system, harness));
            sinks.push(stream_sink(campaign));
            systems.push(system);
        }
        let (stats, wall, cpu_ns) = submit(executor, batch, &systems, &mut sinks, harness)?;
        let mut counts = [0; 3];
        for (&system, sink) in systems.iter().zip(sinks) {
            let (digest, summary) = finish_stream_sink(sink)?;
            counts[system.index()] = summary.total;
            ledger.outcomes(system, digest, &summary, harness.recorder().is_some());
        }
        ledger.executor_call(executor, &stats, campaigns.len(), counts.iter().sum());
        round.calls.push(Call {
            counts,
            wall,
            cpu_ns,
            headline,
        });
        round.peak_buffered = round.peak_buffered.max(stats.peak_buffered);
        round.retries += stats.retries;
        Ok(())
    }
}

impl Rounds for Stream {
    fn round(&mut self, harness: &Harness, ledger: &mut Ledger) -> Result<Round, String> {
        let mut round = Round::default();
        let rig = Rig::new(harness)?;
        let entries: Vec<(System, &ExecutorCampaign)> = SYSTEMS
            .into_iter()
            .map(|s| (s, &rig.campaigns[s.index()]))
            .collect();
        self.submit_stream(&rig.executor, &entries, harness, true, &mut round, ledger)?;
        round.add_triage(triage(&rig.campaigns));
        drop(rig);
        // Each system alone, on fresh engines, for its µs per fault.
        for system in SYSTEMS {
            let campaign = campaign(system, harness).map_err(|e| e.to_string())?;
            let executor = CampaignExecutor::with_default_threads();
            self.submit_stream(
                &executor,
                &[(system, &campaign)],
                harness,
                false,
                &mut round,
                ledger,
            )?;
            round.add_triage(triage(&[campaign]));
        }
        Ok(round)
    }

    fn reference(&self) -> Result<[Expected; 3], String> {
        let executor = CampaignExecutor::new(1);
        let mut expected = Vec::with_capacity(3);
        for system in SYSTEMS {
            let campaign = campaign(system, &Harness::Reference).map_err(|e| e.to_string())?;
            let mut sink = stream_sink(&campaign);
            executor
                .run_source(&campaign, Box::new(self.source(system)), &mut sink)
                .map_err(|e| e.to_string())?;
            let (digest, summary) = finish_stream_sink(sink)?;
            expected.push(Expected { digest, summary });
        }
        Ok(expected.try_into().expect("one reference per system"))
    }

    fn faults(&self, system: System) -> Result<Vec<GeneratedFault>, String> {
        let mut source = self.source(system);
        let mut out = Vec::new();
        while source
            .next_chunk(1024, &mut out)
            .map_err(|e| e.to_string())?
            > 0
        {}
        Ok(out)
    }

    fn set_up(&self) -> Result<Duration, String> {
        rig_set_up()
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs one benchmark: the workload's inputs, its measured rounds for
/// `seconds`, the output check against the uncached reference, and
/// the metrics — end-to-end ones, or per-layer ones from a traced run
/// when `trace` is set.
///
/// # Errors
///
/// Fails when a campaign cannot be built, an executor call fails, or
/// `/proc` cannot be read; no result is reported then.
pub fn run(config: &Config) -> Result<Report, String> {
    let scale = &config.scale;
    let mut workload: Box<dyn Rounds> = match config.workload {
        Workload::Novel => Box::new(Novel::new(config.seed, scale.novel_seeds)?),
        Workload::Memo => Box::new(Memo::new(config.seed)?),
        Workload::Stream => Box::new(Stream::new(config.seed, scale.stream_rate)?),
    };
    let recorder = Recorder::new();
    let traced = Harness::Traced(recorder.clone());
    let mut ledger = Ledger::default();
    let mut setups = Vec::with_capacity(scale.setup_bursts * SETUP_BURST);
    let burst_every = config.seconds / scale.setup_bursts.max(1) as f64;
    let mut plain_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut spans: BTreeMap<(Layer, System), u64> = BTreeMap::new();
    // A traced run alternates untraced and traced rounds, so the
    // tracing overhead is measured under the same conditions.
    let min_rounds = scale.min_rounds.max(1) * if config.trace { 2 } else { 1 };
    let start = Instant::now();
    loop {
        // Set-up bursts spread over the run see the same machine as the
        // rounds do, not just its state at start-up.
        let elapsed = start.elapsed().as_secs_f64();
        let bursts = setups.len() / SETUP_BURST;
        if bursts < scale.setup_bursts.max(1) && elapsed >= bursts as f64 * burst_every {
            for _ in 0..SETUP_BURST {
                setups.push(workload.set_up()?.as_secs_f64());
            }
            continue;
        }
        let done = plain_rounds.len() + traced_rounds.len();
        if done >= min_rounds && elapsed >= config.seconds {
            break;
        }
        if config.trace && done % 2 == 1 {
            traced_rounds.push(workload.round(&traced, &mut ledger)?);
            for span in recorder.take_spans() {
                *spans.entry((span.layer, span.system)).or_default() += span.duration_ns();
            }
        } else {
            plain_rounds.push(workload.round(&Harness::Plain, &mut ledger)?);
        }
    }
    let peak_rss_mib = procfs::peak_rss_mib()?;
    let expected = workload.reference()?;
    let (correct, failed) = ledger.settle(&expected);

    let metrics = if config.trace {
        let traced = TracedFigures {
            plain_rounds: &plain_rounds,
            traced_rounds: &traced_rounds,
            spans: &spans,
            recorder: &recorder,
            expected: &expected,
            failed_share: share(failed as f64, ledger.attempted as f64),
        };
        per_layer(&traced, workload.as_ref(), scale)?
    } else {
        end_to_end(&plain_rounds, &setups, peak_rss_mib)
    };
    Ok(Report {
        correct,
        attempted: ledger.attempted,
        failed,
        metrics,
        problems: ledger
            .problems
            .into_iter()
            .map(|(problem, n)| format!("{problem} ({n} times)"))
            .collect(),
    })
}

fn end_to_end(rounds: &[Round], setups: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // CPU time comes in 10 ms ticks: summed over every round, not a
    // median of per-round values a tick would distort.
    let (faults, cpu_ns) = rounds.iter().fold((0, 0), |(n, c), r| {
        let (faults, _, cpu_ns) = r.headline();
        (n + faults, c + cpu_ns)
    });
    let mut metrics = vec![
        metric("faults_per_s", per_round(&Round::faults_per_s), "1/s"),
        metric(
            "cpu_us_per_fault",
            share(cpu_ns as f64 / 1e3, faults as f64),
            "us",
        ),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    for system in SYSTEMS {
        metrics.push(metric(
            format!("{}.us_per_fault", system.label()),
            per_round(&|r: &Round| r.system_us(system.index())),
            "us",
        ));
    }
    metrics
}

/// What the traced run measured.
struct TracedFigures<'a> {
    plain_rounds: &'a [Round],
    traced_rounds: &'a [Round],
    /// Nanoseconds spent per layer and system in traced calls.
    spans: &'a BTreeMap<(Layer, System), u64>,
    recorder: &'a Recorder,
    expected: &'a [Expected; 3],
    failed_share: f64,
}

fn per_layer(
    traced: &TracedFigures<'_>,
    workload: &dyn Rounds,
    scale: &Scale,
) -> Result<Vec<Metric>, String> {
    let rounds = traced.traced_rounds;
    let calls = || rounds.iter().flat_map(|r| r.calls.iter());
    let mut system_faults = [0u64; 3];
    for call in calls() {
        for (total, n) in system_faults.iter_mut().zip(call.counts) {
            *total += n as u64;
        }
    }
    let faults: u64 = system_faults.iter().sum();
    let cpu_ns: u64 = calls().map(|c| c.cpu_ns).sum();
    let layer_ns = |layer: Layer| -> u64 {
        traced
            .spans
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    };
    let us_per_fault = |ns: u64, n: u64| share(ns as f64 / 1e3, n as f64);

    let mut metrics = Vec::new();
    for (layer, name) in [
        (Layer::SutStart, "sut.start.us"),
        (Layer::SutTest, "sut.test.us"),
        (Layer::SutStop, "sut.stop.us"),
    ] {
        for system in SYSTEMS {
            let ns = traced.spans.get(&(layer, system)).copied().unwrap_or(0);
            metrics.push(metric(
                format!("{name}.{}", system.label()),
                us_per_fault(ns, system_faults[system.index()]),
                "us",
            ));
        }
    }
    let sink_ns = layer_ns(Layer::SinkAccept);
    let source_ns = layer_ns(Layer::SourceNext);
    let all_spans_ns: u64 = traced.spans.values().sum();
    metrics.push(metric(
        "sink.accept.us",
        us_per_fault(sink_ns, faults),
        "us",
    ));
    metrics.push(metric(
        "model.source.us",
        us_per_fault(source_ns, faults),
        "us",
    ));
    metrics.push(metric(
        "core.engine.us",
        us_per_fault(cpu_ns.saturating_sub(all_spans_ns), faults),
        "us",
    ));

    // Serial replay of the engine-internal layers.
    let mut total = replay::LayerTimes::default();
    let mut per_system = Vec::with_capacity(3);
    let mut two_edit = 0usize;
    let mut replayed_faults = 0usize;
    let mut repeated = 0usize;
    let mut submitted = 0usize;
    for system in SYSTEMS {
        let faults = workload.faults(system)?;
        let times = replay::layer_times(system, &faults)?;
        total.add(&times);
        per_system.push((system, times));
        two_edit += faults
            .iter()
            .filter(|f| edits(f).is_some_and(|e| e.len() == 2))
            .count();
        replayed_faults += faults.len();
        let distinct: HashSet<&[TreeEdit]> = faults.iter().filter_map(edits).collect();
        let passes = workload.engine_passes().max(1);
        submitted += faults.len() * passes;
        repeated += faults.len() * passes - distinct.len();
    }
    for (layer, (name, ns)) in total.layers().into_iter().enumerate() {
        metrics.push(metric(name, us_per_fault(ns, total.faults), "us"));
        for (system, times) in &per_system {
            metrics.push(metric(
                format!("{name}.{}", system.label()),
                us_per_fault(times.layers()[layer].1, times.faults),
                "us",
            ));
        }
    }
    for (format, mb_per_s) in replay::parse_mb_per_s(scale.parse_batch, scale.parse_batches)? {
        metrics.push(metric(
            format!("formats.parse.mb_per_s.{format}"),
            mb_per_s,
            "MB/s",
        ));
    }

    let (hits, misses) = traced.recorder.parse_cache_totals();
    metrics.push(metric(
        "sut.parse_cache.hit_rate",
        share(hits as f64, (hits + misses) as f64),
        "share",
    ));
    metrics.push(metric(
        "core.executor.peak_buffered",
        rounds.iter().map(|r| r.peak_buffered).max().unwrap_or(0) as f64,
        "count",
    ));
    metrics.push(metric(
        "core.executor.retries",
        rounds.iter().map(|r| r.retries).sum::<usize>() as f64,
        "count",
    ));
    let (dynamic, synthesized) = rounds
        .iter()
        .fold((0, 0), |(d, s), r| (d + r.triage.0, s + r.triage.1));
    metrics.push(metric(
        "core.triage.synthesized_share",
        share(synthesized as f64, (dynamic + synthesized) as f64),
        "share",
    ));

    // Workload properties a cache or triage claim must name.
    metrics.push(metric(
        "workload.repeated_share",
        share(repeated as f64, submitted as f64),
        "share",
    ));
    metrics.push(metric(
        "workload.two_edit_share",
        share(two_edit as f64, replayed_faults as f64),
        "share",
    ));
    let mix = traced
        .expected
        .iter()
        .fold(ProfileSummary::default(), |mut acc, e| {
            let s = e.summary;
            acc.total += s.total;
            acc.detected_at_startup += s.detected_at_startup;
            acc.detected_by_tests += s.detected_by_tests;
            acc.undetected += s.undetected;
            acc.inexpressible += s.inexpressible;
            acc.skipped += s.skipped;
            acc.timed_out += s.timed_out;
            acc.harness_failures += s.harness_failures;
            acc
        });
    for (class, count) in [
        ("detected_at_startup", mix.detected_at_startup),
        ("detected_by_tests", mix.detected_by_tests),
        ("undetected", mix.undetected),
        ("inexpressible", mix.inexpressible),
        ("skipped", mix.skipped),
        ("timed_out", mix.timed_out),
        ("harness_failure", mix.harness_failures),
    ] {
        metrics.push(metric(
            format!("workload.outcome.{class}_share"),
            share(count as f64, mix.total as f64),
            "share",
        ));
    }

    let rate =
        |rounds: &[Round]| median(&rounds.iter().map(Round::faults_per_s).collect::<Vec<_>>());
    let traced_rate = rate(rounds);
    let untraced_rate = rate(traced.plain_rounds);
    metrics.push(metric("trace.faults_per_s", traced_rate, "1/s"));
    metrics.push(metric("trace.untraced_faults_per_s", untraced_rate, "1/s"));
    metrics.push(metric(
        "trace.overhead_share",
        share(untraced_rate, traced_rate) - 1.0,
        "share",
    ));
    metrics.push(metric("failed_share", traced.failed_share, "share"));
    Ok(metrics)
}

//! Spans around the engine's pluggable layers, for the traced run.
//!
//! The engine is never edited: the traced run hands the executor a SUT
//! factory whose instances are [`TimedSut`]s, sinks wrapped in
//! [`TimedSink`] and (for streaming entries) sources wrapped in
//! [`TimedSource`]. Each wrapper forwards every trait method to the
//! wrapped value and records one [`Span`] per timed call while the
//! shared [`Recorder`] is armed. Each wrapper appends to a log of its
//! own — a SUT instance, sink or source is only ever driven by one
//! thread at a time, so recording never contends — and spans stay in
//! memory until the benchmark drains every log.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use conferr::{InjectionOutcome, OutcomeSink};
use conferr_model::{FaultSource, GenerateError, GeneratedFault};
use conferr_sut::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, DirectiveSchema, StartOutcome,
    SystemUnderTest, TestOutcome, Tier,
};

use crate::systems::System;

/// The layer boundary a span was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// `SystemUnderTest::start` — the SUT's parse + validate.
    SutStart,
    /// `SystemUnderTest::test_names` and `run_test`.
    SutTest,
    /// `SystemUnderTest::stop`.
    SutStop,
    /// `OutcomeSink::accept`.
    SinkAccept,
    /// `FaultSource::next_chunk` — lazy fault generation.
    SourceNext,
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Where the call was made.
    pub layer: Layer,
    /// The system the call served.
    pub system: System,
    /// Groups the spans of one injection: SUT spans carry the SUT
    /// instance and its start count, sink spans the outcome's index
    /// in its entry, source spans the index of the chunk's first
    /// fault.
    pub fault: u64,
    /// Small per-process thread number.
    pub thread: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The call's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// What one wrapper recorded.
#[derive(Debug, Default)]
struct WrapperLog {
    spans: Vec<Span>,
    /// The wrapped SUT's parse-cache counters at its latest armed stop.
    cache: Option<CacheStats>,
}

/// One wrapper's log, shared with the recorder that drains it.
type SpanLog = Arc<Mutex<WrapperLog>>;

/// The span logs of every wrapper of one traced run. Cloning shares
/// them.
#[derive(Clone)]
pub struct Recorder(Arc<RecorderState>);

struct RecorderState {
    epoch: Instant,
    /// Spans are recorded only while armed — around the timed
    /// executor calls, not during campaign set-up.
    armed: AtomicBool,
    logs: Mutex<Vec<SpanLog>>,
    next_instance: AtomicU64,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("armed", &self.is_armed())
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty, disarmed recorder.
    pub fn new() -> Self {
        Recorder(Arc::new(RecorderState {
            epoch: Instant::now(),
            armed: AtomicBool::new(false),
            logs: Mutex::new(Vec::new()),
            next_instance: AtomicU64::new(0),
        }))
    }

    /// Starts or stops recording. The flag publishes no other data;
    /// spans themselves go through the log's mutex.
    pub fn set_armed(&self, armed: bool) {
        self.0.armed.store(armed, Ordering::Relaxed);
    }

    fn is_armed(&self) -> bool {
        self.0.armed.load(Ordering::Relaxed)
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.0.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A new, empty log for one wrapper.
    fn new_log(&self) -> SpanLog {
        let log = SpanLog::default();
        self.logs().push(Arc::clone(&log));
        log
    }

    /// Appends a span from `start` to now to `log`, if armed.
    fn span(&self, log: &SpanLog, layer: Layer, system: System, fault: u64, start: Instant) {
        let end = Instant::now();
        if !self.is_armed() {
            return;
        }
        let span = Span {
            layer,
            system,
            fault,
            thread: THREAD.with(|t| *t),
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        Self::open(log).spans.push(span);
    }

    /// Removes and returns every span recorded so far, ordered by
    /// start time.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .logs()
            .iter()
            .flat_map(|log| std::mem::take(&mut Self::open(log).spans))
            .collect();
        spans.sort_by_key(|s| s.start_ns);
        spans
    }

    /// `(hits, misses)` summed over the latest parse-cache counters of
    /// every SUT instance that stopped while the recorder was armed.
    pub fn parse_cache_totals(&self) -> (u64, u64) {
        self.logs()
            .iter()
            .filter_map(|log| Self::open(log).cache)
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }

    fn logs(&self) -> std::sync::MutexGuard<'_, Vec<SpanLog>> {
        self.0
            .logs
            .lock()
            .expect("a thread panicked while registering a span log")
    }

    fn open(log: &SpanLog) -> std::sync::MutexGuard<'_, WrapperLog> {
        log.lock()
            .expect("a thread panicked while recording a span")
    }
}

/// A [`SystemUnderTest`] that times `start`, the tests and `stop` of
/// the SUT it wraps and forwards every other method unchanged —
/// `schema`, `tier`, `set_parse_caching` and `parse_cache_stats`
/// included, so linting, test pruning and the parse cache behave
/// exactly as without the wrapper.
pub struct TimedSut {
    inner: Box<dyn SystemUnderTest + Send>,
    recorder: Recorder,
    log: SpanLog,
    system: System,
    instance: u64,
    starts: u64,
}

impl TimedSut {
    /// Wraps `inner`, recording into `recorder` as `system`.
    pub fn new(inner: Box<dyn SystemUnderTest + Send>, recorder: Recorder, system: System) -> Self {
        let instance = recorder.0.next_instance.fetch_add(1, Ordering::Relaxed);
        TimedSut {
            inner,
            log: recorder.new_log(),
            recorder,
            system,
            instance,
            starts: 0,
        }
    }

    /// The id shared by the spans of the current injection.
    fn fault(&self) -> u64 {
        (self.instance << 32) | self.starts
    }
}

impl fmt::Debug for TimedSut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedSut")
            .field("inner", &self.inner)
            .field("instance", &self.instance)
            .finish_non_exhaustive()
    }
}

impl SystemUnderTest for TimedSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        self.inner.config_files()
    }

    fn start(&mut self, configs: &ConfigPayload, deadline: &Deadline) -> StartOutcome {
        self.starts += 1;
        let t = Instant::now();
        let outcome = self.inner.start(configs, deadline);
        self.recorder
            .span(&self.log, Layer::SutStart, self.system, self.fault(), t);
        outcome
    }

    fn test_names(&self) -> Vec<String> {
        let t = Instant::now();
        let names = self.inner.test_names();
        self.recorder
            .span(&self.log, Layer::SutTest, self.system, self.fault(), t);
        names
    }

    fn run_test(&mut self, test: &str, deadline: &Deadline) -> TestOutcome {
        let t = Instant::now();
        let outcome = self.inner.run_test(test, deadline);
        self.recorder
            .span(&self.log, Layer::SutTest, self.system, self.fault(), t);
        outcome
    }

    fn stop(&mut self) {
        let t = Instant::now();
        self.inner.stop();
        self.recorder
            .span(&self.log, Layer::SutStop, self.system, self.fault(), t);
        if self.recorder.is_armed() {
            if let Some(stats) = self.inner.parse_cache_stats() {
                Recorder::open(&self.log).cache = Some(stats);
            }
        }
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.inner.set_parse_caching(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        self.inner.parse_cache_stats()
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        self.inner.schema()
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }
}

/// An [`OutcomeSink`] that times `accept` on the sink it wraps.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    recorder: Recorder,
    log: SpanLog,
    system: System,
    accepted: u64,
}

impl<S: OutcomeSink> TimedSink<S> {
    /// Wraps `inner`, recording into `recorder` as `system`.
    pub fn new(inner: S, recorder: Recorder, system: System) -> Self {
        TimedSink {
            inner,
            log: recorder.new_log(),
            recorder,
            system,
            accepted: 0,
        }
    }
}

impl<S: OutcomeSink> OutcomeSink for TimedSink<S> {
    fn accept(&mut self, outcome: InjectionOutcome) {
        let t = Instant::now();
        self.inner.accept(outcome);
        self.recorder
            .span(&self.log, Layer::SinkAccept, self.system, self.accepted, t);
        self.accepted += 1;
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        self.inner.take_error()
    }
}

/// A [`FaultSource`] that times `next_chunk` on the source it wraps.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    recorder: Recorder,
    log: SpanLog,
    system: System,
    pulled: u64,
}

impl<S: FaultSource> TimedSource<S> {
    /// Wraps `inner`, recording into `recorder` as `system`.
    pub fn new(inner: S, recorder: Recorder, system: System) -> Self {
        TimedSource {
            inner,
            log: recorder.new_log(),
            recorder,
            system,
            pulled: 0,
        }
    }
}

impl<S: FaultSource> FaultSource for TimedSource<S> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<GeneratedFault>,
    ) -> Result<usize, GenerateError> {
        let t = Instant::now();
        let pulled = self.inner.next_chunk(max, out);
        self.recorder
            .span(&self.log, Layer::SourceNext, self.system, self.pulled, t);
        if let Ok(n) = pulled {
            self.pulled += n as u64;
        }
        pulled
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_sut::default_payload;

    #[test]
    fn timed_sut_forwards_every_capability() {
        let plain = System::MySql.create();
        let recorder = Recorder::new();
        let mut timed = TimedSut::new(System::MySql.create(), recorder.clone(), System::MySql);
        assert_eq!(timed.name(), plain.name());
        assert_eq!(timed.tier(), plain.tier());
        assert!(timed.schema().is_some());
        assert_eq!(
            timed.schema().map(|s| s as *const DirectiveSchema),
            plain.schema().map(|s| s as *const DirectiveSchema)
        );

        let payload = default_payload(&*plain);
        let unlimited = Deadline::unlimited();
        recorder.set_armed(true);
        timed.set_parse_caching(false);
        for _ in 0..2 {
            assert!(timed.start(&payload, &unlimited).is_running());
            for test in timed.test_names() {
                assert!(timed.run_test(&test, &unlimited).passed());
            }
            timed.stop();
        }
        recorder.set_armed(false);
        let stats = timed
            .parse_cache_stats()
            .expect("mysql-sim has a parse cache");
        assert_eq!(
            stats.hits, 0,
            "caching was switched off through the wrapper"
        );
        assert!(stats.bypassed > 0);

        let spans = recorder.take_spans();
        let starts = spans.iter().filter(|s| s.layer == Layer::SutStart).count();
        assert_eq!(starts, 2);
        assert!(spans.iter().all(|s| s.system == System::MySql));
        assert!(
            recorder.take_spans().is_empty(),
            "draining empties the logs"
        );
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let recorder = Recorder::new();
        let mut timed = TimedSut::new(
            System::Postgres.create(),
            recorder.clone(),
            System::Postgres,
        );
        let payload = default_payload(&*System::Postgres.create());
        assert!(timed.start(&payload, &Deadline::unlimited()).is_running());
        timed.stop();
        assert!(recorder.take_spans().is_empty());
        assert_eq!(recorder.parse_cache_totals(), (0, 0));
    }
}

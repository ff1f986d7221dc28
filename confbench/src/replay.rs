//! Serial prices of the engine's internal layers, taken from outside
//! the engine by calling each layer's public function on the same
//! faults, in the order the engine calls them: lint, apply, diff,
//! serialize. Also the parsers' throughput on the systems' default
//! configurations.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use conferr_analysis::FaultLinter;
use conferr_formats::{format_by_name, ConfigFormat};
use conferr_model::{ConfigSet, GeneratedFault};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim, SystemUnderTest,
};

use crate::report::median;
use crate::systems::System;

/// Time spent in each engine-internal layer over one system's faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Faults replayed (scenarios only; inexpressible faults never
    /// reach these layers).
    pub faults: u64,
    /// `FaultLinter::lint`, on a fresh linter (every lint a miss,
    /// as for a novel fault).
    pub lint_ns: u64,
    /// `FaultScenario::apply` against the parsed baseline.
    pub apply_ns: u64,
    /// `conferr_tree::diff` of every file the edit touched.
    pub diff_ns: u64,
    /// `ConfigFormat::serialize` of every file the edit touched.
    pub serialize_ns: u64,
}

impl LayerTimes {
    /// `(metric name, nanoseconds)` of each layer, in engine order.
    pub fn layers(&self) -> [(&'static str, u64); 4] {
        [
            ("analysis.lint.us", self.lint_ns),
            ("model.apply.us", self.apply_ns),
            ("tree.diff.us", self.diff_ns),
            ("formats.serialize.us", self.serialize_ns),
        ]
    }

    /// Adds `other`'s faults and times to these.
    pub fn add(&mut self, other: &LayerTimes) {
        self.faults += other.faults;
        self.lint_ns += other.lint_ns;
        self.apply_ns += other.apply_ns;
        self.diff_ns += other.diff_ns;
        self.serialize_ns += other.serialize_ns;
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays `faults` of `system` serially through the public layer
/// calls and returns the time each layer took.
///
/// # Errors
///
/// Fails when the system's defaults do not parse or it publishes no
/// schema for the linter.
pub fn layer_times(system: System, faults: &[GeneratedFault]) -> Result<LayerTimes, String> {
    let sut = system.create();
    let schema = sut
        .schema()
        .ok_or_else(|| format!("{} publishes no directive schema", system.label()))?;
    let mut formats: BTreeMap<String, Box<dyn ConfigFormat>> = BTreeMap::new();
    let mut baseline = ConfigSet::new();
    for spec in sut.config_files() {
        let format = format_by_name(&spec.format)
            .ok_or_else(|| format!("unknown format {:?}", spec.format))?;
        let tree = format
            .parse(&spec.default_contents)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        baseline.insert(spec.name.clone(), tree);
        formats.insert(spec.name, format);
    }
    let linter = FaultLinter::new(schema, baseline.clone())?;
    let mut times = LayerTimes::default();
    for fault in faults {
        let GeneratedFault::Scenario(scenario) = fault else {
            continue;
        };
        times.faults += 1;
        let t = Instant::now();
        black_box(linter.lint(&scenario.edits));
        times.lint_ns += elapsed_ns(t);

        let t = Instant::now();
        let mutated = scenario.apply(&baseline);
        times.apply_ns += elapsed_ns(t);
        let Ok(mutated) = mutated else {
            continue;
        };
        let touched: Vec<(&str, &Arc<conferr_tree::ConfTree>)> = mutated
            .iter_arcs()
            .filter(|(file, tree)| {
                baseline
                    .get_arc(file)
                    .is_none_or(|original| !Arc::ptr_eq(original, tree))
            })
            .collect();
        for (file, tree) in &touched {
            if let Some(original) = baseline.get_arc(file) {
                let t = Instant::now();
                black_box(conferr_tree::diff(original, tree));
                times.diff_ns += elapsed_ns(t);
            }
        }
        for (file, tree) in &touched {
            if let Some(format) = formats.get(*file) {
                let t = Instant::now();
                let _ = black_box(format.serialize(tree));
                times.serialize_ns += elapsed_ns(t);
            }
        }
    }
    Ok(times)
}

/// The six configuration formats, each with the default files of the
/// system that reads it.
fn format_corpus() -> BTreeMap<String, Vec<String>> {
    let suts: [Box<dyn SystemUnderTest>; 6] = [
        Box::new(MySqlSim::new()),
        Box::new(PostgresSim::new()),
        Box::new(ApacheSim::new()),
        Box::new(BindSim::new()),
        Box::new(DjbdnsSim::new()),
        Box::new(AppServerSim::new()),
    ];
    let mut corpus: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for sut in &suts {
        for spec in sut.config_files() {
            corpus
                .entry(spec.format)
                .or_default()
                .push(spec.default_contents);
        }
    }
    corpus
}

/// Parser throughput in MB/s per format name: the median of `batches`
/// timed batches, each parsing the format's default files repeatedly
/// for at least `min_batch`.
///
/// # Errors
///
/// Fails when a format is unknown or a default file does not parse.
pub fn parse_mb_per_s(min_batch: Duration, batches: usize) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (name, texts) in format_corpus() {
        let format = format_by_name(&name).ok_or_else(|| format!("unknown format {name:?}"))?;
        let bytes: usize = texts.iter().map(String::len).sum();
        for text in &texts {
            format.parse(text).map_err(|e| format!("{name}: {e}"))?;
        }
        let mut rates = Vec::with_capacity(batches);
        for _ in 0..batches.max(1) {
            let t = Instant::now();
            let mut passes = 0u64;
            while passes == 0 || t.elapsed() < min_batch {
                for text in &texts {
                    let _ = black_box(format.parse(black_box(text)));
                }
                passes += 1;
            }
            let secs = t.elapsed().as_secs_f64();
            rates.push(bytes as f64 * passes as f64 / secs / 1e6);
        }
        out.push((name, median(&rates)));
    }
    Ok(out)
}

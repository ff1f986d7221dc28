//! The streaming fault pipeline (source → chunked queue → sink) must
//! be a pure memory/overlap optimisation: a campaign fed from a live
//! `FaultSource` and drained into an `OutcomeSink` must produce
//! byte-identical results to the eager, fully-materialized path —
//! every id, diff line and diagnostic included — at every thread
//! count and chunk size, while never buffering more than the
//! streaming window.

use conferr::{
    profile_to_csv, profile_to_json, sut_factory, Campaign, CampaignBatch, CampaignError,
    CampaignExecutor, CollectingSink, CountingSink, CsvSink, ExecutorCampaign, JsonlSink,
    ResilienceProfile,
};
use conferr_bench::{table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{EagerSource, ErrorGenerator, FaultSourceExt, GeneratedFault, IntoFaultSource};
use conferr_plugins::{
    double_fault_source, plugin_source, StructuralPlugin, TokenClass, TypoPlugin, VariationClass,
    VariationPlugin,
};
use conferr_sut::{ApacheSim, MySqlSim, PostgresSim, SystemUnderTest};

fn serial_profile(
    mut sut: Box<dyn SystemUnderTest>,
    faults: Vec<GeneratedFault>,
) -> ResilienceProfile {
    let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
    campaign.run_faults(faults).expect("serial run")
}

/// The full Table 1 protocol per system, streamed from a source into
/// a collecting sink at 1/2/4 threads, must match the eager serial
/// profile byte for byte.
#[test]
fn table1_streaming_is_byte_identical_to_eager_across_threads() {
    type FreshSut = fn() -> Box<dyn SystemUnderTest>;
    let keyboard = Keyboard::qwerty_us();
    let systems: [(FreshSut, conferr::SutFactory); 3] = [
        (|| Box::new(MySqlSim::new()), sut_factory(MySqlSim::new)),
        (
            || Box::new(PostgresSim::new()),
            sut_factory(PostgresSim::new),
        ),
        (|| Box::new(ApacheSim::new()), sut_factory(ApacheSim::new)),
    ];
    for (fresh_sut, factory) in systems {
        let campaign = ExecutorCampaign::new(factory).expect("campaign");
        let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
        let reference = serial_profile(fresh_sut(), faults.clone());
        for threads in [1, 2, 4] {
            let executor = CampaignExecutor::new(threads);
            let mut sink = CollectingSink::new();
            let stats = executor
                .run_source(
                    &campaign,
                    Box::new(EagerSource::new(faults.clone())),
                    &mut sink,
                )
                .expect("streamed run");
            assert_eq!(stats.outcomes, faults.len());
            assert!(
                stats.peak_buffered <= executor.chunk_size() * threads,
                "{}: peak {} exceeds window at {threads} threads",
                campaign.system(),
                stats.peak_buffered
            );
            let streamed = sink.into_profile(campaign.system());
            assert_eq!(
                profile_to_json(&streamed),
                profile_to_json(&reference),
                "{} diverged at {threads} threads",
                campaign.system()
            );
        }
    }
}

/// The full Table 2 cell load — 14 small campaigns across three
/// systems — scheduled as one batch of *sources* must match per-cell
/// serial runs at 1/2/4 threads.
#[test]
fn table2_source_batch_is_byte_identical_to_per_cell_serial_runs() {
    let factories = [
        ("MySQL", sut_factory(MySqlSim::new)),
        ("Postgres", sut_factory(PostgresSim::new)),
        ("Apache", sut_factory(ApacheSim::new)),
    ];
    let mut cells: Vec<(ExecutorCampaign, Vec<GeneratedFault>)> = Vec::new();
    for class in VariationClass::ALL {
        for (name, factory) in &factories {
            if *name == "Apache" && class == VariationClass::SectionOrder {
                continue;
            }
            let campaign = ExecutorCampaign::new(factory.clone()).expect("campaign");
            let plugin = VariationPlugin::new(class, 10, DEFAULT_SEED);
            let faults = plugin.generate(campaign.baseline()).expect("generate");
            if faults.is_empty() {
                continue;
            }
            cells.push((campaign, faults));
        }
    }
    assert!(cells.len() >= 10);

    let serial: Vec<ResilienceProfile> = cells
        .iter()
        .map(|(campaign, faults)| {
            let sut: Box<dyn SystemUnderTest> = match campaign.system() {
                "mysql-sim" => Box::new(MySqlSim::new()),
                "postgres-sim" => Box::new(PostgresSim::new()),
                _ => Box::new(ApacheSim::new()),
            };
            serial_profile(sut, faults.clone())
        })
        .collect();

    for threads in [1, 2, 4] {
        let executor = CampaignExecutor::new(threads);
        let mut batch = CampaignBatch::new();
        for (campaign, faults) in &cells {
            batch.push_source(campaign, Box::new(EagerSource::new(faults.clone())));
        }
        let profiles = executor.run_batch(batch).expect("source batch");
        assert_eq!(profiles.len(), serial.len());
        for (i, (streamed, reference)) in profiles.iter().zip(&serial).enumerate() {
            assert_eq!(
                profile_to_json(streamed),
                profile_to_json(reference),
                "cell {i} ({}) diverged at threads = {threads}",
                reference.system()
            );
        }
    }
}

/// A streamed CSV export equals exporting the collected profile, byte
/// for byte, even when outcomes complete out of order on a pool.
#[test]
fn csv_sink_streams_byte_identically_through_the_executor() {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let reference = serial_profile(Box::new(MySqlSim::new()), faults.clone());
    for threads in [1, 3] {
        let executor = CampaignExecutor::new(threads);
        let mut sink = CsvSink::new(campaign.system(), Vec::new());
        executor
            .run_source(
                &campaign,
                Box::new(EagerSource::new(faults.clone())),
                &mut sink,
            )
            .expect("streamed run");
        let streamed = String::from_utf8(sink.finish().expect("no io errors")).unwrap();
        assert_eq!(streamed, profile_to_csv(&reference), "threads = {threads}");
    }
}

/// JSONL streaming: one self-describing object per outcome, in fault
/// order, with the object bodies matching the profile JSON encoding.
#[test]
fn jsonl_sink_streams_outcome_objects_in_fault_order() {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let reference = serial_profile(Box::new(PostgresSim::new()), faults.clone());
    let executor = CampaignExecutor::new(2);
    let mut sink = JsonlSink::new(campaign.system(), Vec::new());
    executor
        .run_source(&campaign, Box::new(EagerSource::new(faults)), &mut sink)
        .expect("streamed run");
    let text = String::from_utf8(sink.finish().expect("no io errors")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), reference.len());
    for (line, outcome) in lines.iter().zip(reference.outcomes()) {
        assert_eq!(
            *line,
            conferr::outcome_to_jsonl(reference.system(), outcome)
        );
    }
}

/// A counting sink over a streamed run reproduces the eager profile's
/// summary without storing a single outcome.
#[test]
fn counting_sink_matches_eager_summary() {
    let keyboard = Keyboard::qwerty_us();
    let campaign = ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let reference = serial_profile(Box::new(ApacheSim::new()), faults.clone());
    let executor = CampaignExecutor::new(2);
    let mut sink = CountingSink::new();
    executor
        .run_source(&campaign, Box::new(EagerSource::new(faults)), &mut sink)
        .expect("streamed run");
    assert_eq!(sink.summary(), reference.summary());
}

/// Lazily chained plugin sources through the executor match the
/// eagerly generated load on the same pool and the serial
/// generator-driven `Campaign::run`.
#[test]
fn plugin_source_stream_matches_parallel_campaign_run() {
    let make_plugin = || {
        Box::new(TypoPlugin::new(
            Keyboard::qwerty_us(),
            TokenClass::DirectiveNames,
        )) as Box<dyn ErrorGenerator + Send>
    };
    let structural = || Box::new(StructuralPlugin::new()) as Box<dyn ErrorGenerator + Send>;

    let mut sut = MySqlSim::new();
    let mut serial = Campaign::new(&mut sut).expect("campaign");
    serial.add_generator(make_plugin());
    serial.add_generator(structural());
    let reference = serial.run().expect("serial run");

    let executor = CampaignExecutor::new(3);
    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    let mut faults = make_plugin()
        .generate(campaign.baseline())
        .expect("generate");
    faults.extend(
        structural()
            .generate(campaign.baseline())
            .expect("generate"),
    );
    let eager = executor.run_faults(&campaign, faults).expect("eager run");
    assert_eq!(profile_to_json(&eager), profile_to_json(&reference));

    let source = plugin_source(vec![make_plugin(), structural()], campaign.baseline());
    let mut sink = CollectingSink::new();
    executor
        .run_source(&campaign, source, &mut sink)
        .expect("streamed run");
    let streamed = sink.into_profile(reference.system());
    assert_eq!(profile_to_json(&streamed), profile_to_json(&reference));
}

/// A lazy double-fault cross-product streamed through the executor
/// matches eagerly materializing the product and running it — the
/// product space itself never exists in memory on the streaming side.
#[test]
fn double_fault_product_stream_matches_eager_product_run() {
    let omission =
        || StructuralPlugin::new().with_kinds([conferr_model::StructuralKind::DirectiveOmission]);
    let typo = || {
        TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveValues)
            .with_kinds([conferr_model::TypoKind::Transposition])
    };
    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    let eager_product = conferr_model::product_eager(
        &omission().generate(campaign.baseline()).expect("generate"),
        &typo().generate(campaign.baseline()).expect("generate"),
    );
    assert!(eager_product.len() > 100, "a real cross-product");
    let reference = serial_profile(Box::new(MySqlSim::new()), eager_product);

    for threads in [1, 4] {
        let executor = CampaignExecutor::new(threads);
        let mut sink = CollectingSink::new();
        let source = double_fault_source(omission(), typo(), campaign.baseline());
        executor
            .run_source(&campaign, Box::new(source), &mut sink)
            .expect("streamed run");
        let streamed = sink.into_profile(campaign.system());
        assert_eq!(
            profile_to_json(&streamed),
            profile_to_json(&reference),
            "threads = {threads}"
        );
    }
}

/// `Campaign::run_source` (the serial streaming path) is
/// byte-identical to `run_faults` and composes with combinators.
#[test]
fn serial_run_source_matches_run_faults() {
    let keyboard = Keyboard::qwerty_us();
    let mut sut = PostgresSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
    let reference = campaign.run_faults(faults.clone()).expect("eager");

    let mut sink = CollectingSink::new();
    campaign
        .run_source(
            &mut EagerSource::new(faults.clone()).take(faults.len()),
            &mut sink,
        )
        .expect("streamed");
    let streamed = sink.into_profile(reference.system());
    assert_eq!(profile_to_json(&streamed), profile_to_json(&reference));
}

/// Generator failures on the producer path surface as
/// `CampaignError::Generate`, exactly like the eager drivers.
#[test]
fn failing_generator_source_propagates_campaign_error() {
    use conferr_model::{ConfigSet, GenerateError};

    #[derive(Debug)]
    struct Failing;
    impl ErrorGenerator for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn generate(&self, _set: &ConfigSet) -> Result<Vec<GeneratedFault>, GenerateError> {
            Err(GenerateError::new("failing", "no zone files in set"))
        }
    }

    let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
    for threads in [1, 2] {
        let executor = CampaignExecutor::new(threads);
        let mut sink = CountingSink::new();
        let err = executor
            .run_source(
                &campaign,
                Box::new(Failing.into_source(campaign.baseline())),
                &mut sink,
            )
            .expect_err("must fail");
        assert!(matches!(err, CampaignError::Generate(_)), "{err}");
    }
}

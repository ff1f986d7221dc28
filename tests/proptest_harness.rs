//! Cross-crate property tests: arbitrary injections must never break
//! the pipeline's invariants.

use std::sync::OnceLock;

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, CollectingSink, ExecutorCampaign,
    InjectionResult,
};
use conferr_keyboard::Keyboard;
use conferr_model::{
    EagerSource, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, TreeEdit, TypoKind,
};
use conferr_plugins::{TokenClass, TypoPlugin};
use conferr_sut::{MySqlSim, PostgresSim};
use conferr_tree::NodeQuery;
use proptest::prelude::*;

/// Arbitrary printable-ASCII value strings, including empty and
/// whitespace-bearing ones.
fn arb_value() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

/// A small shared workload for the scheduler properties: one
/// Postgres campaign, a modest typo load, and its serial reference
/// profile — built once, reused by every proptest case.
struct SchedulerFixture {
    campaign: ExecutorCampaign,
    faults: Vec<GeneratedFault>,
    reference: String,
}

fn scheduler_fixture() -> &'static SchedulerFixture {
    static FIXTURE: OnceLock<SchedulerFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
        let plugin = TypoPlugin::new(Keyboard::qwerty_us(), TokenClass::DirectiveNames)
            .with_kinds([TypoKind::Omission, TypoKind::Transposition]);
        let faults: Vec<GeneratedFault> = plugin
            .generate(campaign.baseline())
            .expect("generate")
            .into_iter()
            .take(48)
            .collect();
        let reference = {
            let mut sut = PostgresSim::new();
            let mut serial = Campaign::new(&mut sut).expect("campaign");
            profile_to_json(&serial.run_faults(faults.clone()).expect("serial run"))
        };
        SchedulerFixture {
            campaign,
            faults,
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever value string lands in a Postgres directive, the
    /// campaign must classify it without panicking, and the outcome
    /// is never "skipped" (the scenario always applies).
    #[test]
    fn postgres_classifies_arbitrary_values(value in arb_value(), idx in 0usize..8) {
        let mut sut = PostgresSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//directive".parse().unwrap();
        let tree = campaign.baseline().get("postgresql.conf").unwrap();
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop".into(),
            description: "arbitrary value".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "postgresql.conf".into(),
                path,
                text: Some(value),
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        prop_assert_eq!(profile.len(), 1);
        let skipped = matches!(
            profile.outcomes()[0].result,
            InjectionResult::Skipped { .. }
        );
        prop_assert!(!skipped);
    }

    /// Same for MySQL, whose leniency must never turn into a crash,
    /// and whose silently-absorbed values must leave the server in a
    /// startable state.
    #[test]
    fn mysql_classifies_arbitrary_values(value in arb_value(), idx in 0usize..8) {
        let mut sut = MySqlSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//section[@name='mysqld']/directive".parse().unwrap();
        let tree = campaign.baseline().get("my.cnf").unwrap();
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop".into(),
            description: "arbitrary value".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetText {
                file: "my.cnf".into(),
                path,
                text: Some(value),
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        prop_assert_eq!(profile.len(), 1);
    }

    /// Arbitrary *name* corruption is always either detected at
    /// startup or absorbed — never a functional-test surprise for
    /// Postgres (names are checked before the server comes up).
    #[test]
    fn postgres_name_corruption_never_reaches_functional_tests(
        name in "[a-zA-Z_]{1,20}",
    ) {
        let mut sut = PostgresSim::new();
        let mut campaign = Campaign::new(&mut sut).unwrap();
        let query: NodeQuery = "//directive[@name='port']".parse().unwrap();
        let tree = campaign.baseline().get("postgresql.conf").unwrap();
        let path = query.select(tree).into_iter().next().unwrap();
        let faults = vec![GeneratedFault::Scenario(FaultScenario {
            id: "prop-name".into(),
            description: "arbitrary name".into(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: vec![TreeEdit::SetAttr {
                file: "postgresql.conf".into(),
                path,
                key: "name".into(),
                value: name,
            }],
        })];
        let profile = campaign.run_faults(faults).unwrap();
        let functional = matches!(
            profile.outcomes()[0].result,
            InjectionResult::DetectedByFunctionalTest { .. }
        );
        prop_assert!(!functional);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At ANY chunk size and thread count, a streamed run delivers
    /// its outcomes to the sink in fault order, byte-identical to the
    /// serial campaign — and the reorder buffer never exceeds the
    /// per-entry `chunk × threads` window.
    #[test]
    fn streamed_runs_preserve_sink_order_and_window_bound(
        chunk in 1usize..=32,
        threads in 2usize..=4,
    ) {
        let fixture = scheduler_fixture();
        let executor = CampaignExecutor::new(threads);
        executor.set_chunk_size(chunk);
        let mut sink = CollectingSink::new();
        let stats = executor
            .run_source(
                &fixture.campaign,
                Box::new(EagerSource::new(fixture.faults.clone())),
                &mut sink,
            )
            .expect("streamed run");
        prop_assert_eq!(stats.outcomes, fixture.faults.len());
        prop_assert!(
            stats.peak_buffered <= chunk * threads,
            "peak {} exceeds window {} (chunk = {}, threads = {})",
            stats.peak_buffered, chunk * threads, chunk, threads
        );
        let streamed = sink.into_profile(fixture.campaign.system());
        prop_assert_eq!(
            &profile_to_json(&streamed),
            &fixture.reference,
            "diverged at chunk = {}, threads = {}",
            chunk, threads
        );
    }
}

//! The static analysis layer's two hard promises, checked against the
//! dynamic pipeline over the paper's full fault loads:
//!
//! * **Verdict soundness** (precision gate): a non-`Unknown`
//!   [`StaticVerdict`] on an injection outcome is a guarantee, not a
//!   guess. `WillFailParse` / `WillFailValidate` must coincide with
//!   `DetectedAtStartup`; `SemanticallySilent` must coincide with a
//!   warning-free `Undetected`. Zero unsound predictions over the full
//!   §5.2 (Table 1) load for every schema-publishing system.
//! * **Pruning transparency**: test-impact pruning (skipping
//!   functional tests whose schema-declared read-set is provably
//!   disjoint from a fault's touch map) must be a pure wall-clock
//!   optimisation — profiles byte-identical to the unpruned reference,
//!   serially and at every thread count.
//!
//! Plus the supporting contracts: `LintedSource` transparency inside a
//! real campaign, and the `examples/configs/` drift guard that keeps
//! the CI lint gate's inputs honest.

use std::path::Path;

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, CollectingSink, ExecutorCampaign,
    FaultLinter, InjectionResult, LintedSource, ResilienceProfile, StaticVerdict,
};
use conferr_bench::{appserver_faultload, djbdns_faultload, table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{
    EagerSource, ErrorClass, ErrorGenerator, FaultScenario, GeneratedFault, TreeEdit, TypoKind,
};
use conferr_plugins::{VariationClass, VariationPlugin};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, DjbdnsSim, MySqlSim, PostgresSim, SystemUnderTest,
};
use conferr_tree::NodeQuery;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Precision gate: every non-Unknown verdict must agree with the
// dynamic outcome.
// ---------------------------------------------------------------------------

/// Checks every outcome's verdict against its dynamic result and
/// returns `(predicted_failures, predicted_silent)` so callers can
/// also assert the linter actually commits to claims.
fn assert_verdicts_sound(profile: &ResilienceProfile) -> (usize, usize) {
    let mut predicted_failures = 0usize;
    let mut predicted_silent = 0usize;
    for o in profile.outcomes() {
        match &o.verdict {
            StaticVerdict::WillFailParse | StaticVerdict::WillFailValidate { .. } => {
                predicted_failures += 1;
                assert!(
                    matches!(o.result, InjectionResult::DetectedAtStartup { .. }),
                    "unsound verdict on {}: static {} vs dynamic {}",
                    o.id,
                    o.verdict,
                    o.result
                );
            }
            StaticVerdict::SemanticallySilent => {
                predicted_silent += 1;
                assert!(
                    matches!(&o.result, InjectionResult::Undetected { warnings } if warnings.is_empty()),
                    "unsound verdict on {}: static {} vs dynamic {}",
                    o.id,
                    o.verdict,
                    o.result
                );
            }
            StaticVerdict::Unknown => {}
        }
    }
    (predicted_failures, predicted_silent)
}

/// Runs the full Table 1 load against one system and gates every
/// verdict; `expect_claims` additionally requires the linter to have
/// predicted at least one startup failure (a vacuously-sound
/// all-Unknown linter must not pass for fully-modeled dialects).
fn table1_precision_gate(sut: &mut dyn SystemUnderTest, expect_claims: bool) {
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let total = faults.len();
    let profile = campaign.run_faults(faults).expect("run");
    assert_eq!(profile.len(), total);
    let (failures, _) = assert_verdicts_sound(&profile);
    if expect_claims {
        assert!(
            failures > 0,
            "a modeled dialect must commit to startup-failure predictions"
        );
    }
}

#[test]
fn table1_verdicts_are_sound_mysql() {
    table1_precision_gate(&mut MySqlSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_postgres() {
    table1_precision_gate(&mut PostgresSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_apache() {
    table1_precision_gate(&mut ApacheSim::new(), true);
}

#[test]
fn table1_verdicts_are_sound_bind_and_appserver() {
    // Unmodeled dialects: the schema exists (for test read-sets) but
    // the linter has no round-trip model, so every verdict must be
    // Unknown — vacuously sound, and checked so a future partial
    // model cannot ship unsound claims unnoticed.
    table1_precision_gate(&mut BindSim::new(), false);
    table1_precision_gate(&mut AppServerSim::new(), false);
}

#[test]
fn djbdns_line_edit_verdicts_are_sound() {
    let mut sut = DjbdnsSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = djbdns_faultload(campaign.baseline());
    assert!(faults.len() > 30, "the data file must yield a real load");
    let profile = campaign.run_faults(faults).expect("run");
    let (failures, _) = assert_verdicts_sound(&profile);
    assert!(
        failures > 0,
        "corrupted prefixes and payloads must yield WillFail predictions"
    );
}

#[test]
fn appserver_element_edit_verdicts_are_sound() {
    // `table1_faultload` yields no faults for `server.xml` (it has no
    // `//directive` nodes), so this element-level load is what gates
    // the appserver verdicts.
    let mut sut = AppServerSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = appserver_faultload(campaign.baseline(), &Keyboard::qwerty_us());
    assert!(faults.len() > 30, "server.xml must yield a real load");
    let profile = campaign.run_faults(faults).expect("run");
    assert_verdicts_sound(&profile);
    let summary = profile.summary();
    assert!(
        summary.detected_at_startup > 0 && summary.undetected + summary.detected_by_tests > 0,
        "the load must reach both startup failures and running servers: {summary:?}"
    );
}

// ---------------------------------------------------------------------------
// Lint-path equivalence: the engine's shared parse decides exactly as
// the self-contained linter.
// ---------------------------------------------------------------------------

/// Runs `faults` through a fresh campaign, whose engine lints each
/// novel single-edit fault from its own prepared parse, then checks
/// that the lint it recorded for every fault equals
/// `FaultLinter::lint` on a fresh linter: verdict, diagnostic and
/// touch map.
fn assert_shared_parse_lints_match_standalone(
    sut: &mut dyn SystemUnderTest,
    load: impl Fn(&conferr_model::ConfigSet) -> Vec<GeneratedFault>,
) {
    let schema = sut.schema().expect("schema-publishing system");
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = load(campaign.baseline());
    let standalone = FaultLinter::new(schema, campaign.baseline().clone()).expect("linter");
    let recorded = campaign.linter().expect("engine linter");
    let total = faults.len();
    campaign.run_faults(faults.clone()).expect("run");
    let mut single_edit = 0usize;
    for fault in &faults {
        let GeneratedFault::Scenario(scenario) = fault else {
            continue;
        };
        single_edit += usize::from(scenario.edits.len() == 1);
        // A memo hit: the lint the engine recorded during the run.
        let engine = recorded.lint(&scenario.edits);
        let reference = standalone.lint(&scenario.edits);
        assert_eq!(engine.verdict, reference.verdict, "{}", scenario.id);
        assert_eq!(engine.diagnostic, reference.diagnostic, "{}", scenario.id);
        assert_eq!(*engine.touch, *reference.touch, "{}", scenario.id);
    }
    assert!(
        total > 30 && single_edit == total,
        "a real single-edit load: {single_edit} of {total}"
    );
}

#[test]
fn shared_parse_lints_match_standalone_table1() {
    let table1 = |set: &conferr_model::ConfigSet| {
        table1_faultload(set, &Keyboard::qwerty_us(), DEFAULT_SEED)
    };
    assert_shared_parse_lints_match_standalone(&mut MySqlSim::new(), table1);
    assert_shared_parse_lints_match_standalone(&mut PostgresSim::new(), table1);
    assert_shared_parse_lints_match_standalone(&mut ApacheSim::new(), table1);
    assert_shared_parse_lints_match_standalone(&mut BindSim::new(), table1);
}

#[test]
fn shared_parse_lints_match_standalone_djbdns_and_appserver() {
    assert_shared_parse_lints_match_standalone(&mut DjbdnsSim::new(), djbdns_faultload);
    assert_shared_parse_lints_match_standalone(&mut AppServerSim::new(), |set| {
        appserver_faultload(set, &Keyboard::qwerty_us())
    });
}

// ---------------------------------------------------------------------------
// Proptest: soundness holds for arbitrary values, not just the
// keyboard model's typos.
// ---------------------------------------------------------------------------

/// Arbitrary printable-ASCII value strings, including empty and
/// whitespace-bearing ones.
fn arb_value() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
}

fn assert_single_edit_sound(sut: &mut dyn SystemUnderTest, file: &str, edit: TreeEdit, id: &str) {
    let mut campaign = Campaign::new(sut).expect("campaign");
    let faults = vec![GeneratedFault::Scenario(FaultScenario {
        id: id.to_string(),
        description: format!("arbitrary edit in {file}"),
        class: ErrorClass::Typo(TypoKind::Substitution),
        edits: vec![edit],
    })];
    let profile = campaign.run_faults(faults).expect("run");
    assert_verdicts_sound(&profile);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever string lands in a MySQL directive value, a WillFail*
    /// verdict must coincide with a failing start and a
    /// SemanticallySilent verdict with a clean pass.
    #[test]
    fn mysql_arbitrary_value_verdicts_are_sound(value in arb_value(), idx in 0usize..16) {
        let mut sut = MySqlSim::new();
        let campaign = Campaign::new(&mut sut).expect("campaign");
        let query: NodeQuery = "//directive".parse().expect("query");
        let tree = campaign.baseline().get("my.cnf").expect("baseline file");
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        drop(campaign);
        assert_single_edit_sound(
            &mut sut,
            "my.cnf",
            TreeEdit::SetText { file: "my.cnf".into(), path, text: Some(value) },
            "prop-mysql-value",
        );
    }

    /// Same for arbitrary directive *names* in Postgres, where the
    /// registry lookup (not the value check) decides.
    #[test]
    fn postgres_arbitrary_name_verdicts_are_sound(name in arb_value(), idx in 0usize..16) {
        let mut sut = PostgresSim::new();
        let campaign = Campaign::new(&mut sut).expect("campaign");
        let query: NodeQuery = "//directive".parse().expect("query");
        let tree = campaign.baseline().get("postgresql.conf").expect("baseline file");
        let paths = query.select(tree);
        let path = paths[idx % paths.len()].clone();
        drop(campaign);
        assert_single_edit_sound(
            &mut sut,
            "postgresql.conf",
            TreeEdit::SetAttr {
                file: "postgresql.conf".into(),
                path,
                key: "name".into(),
                value: name,
            },
            "prop-postgres-name",
        );
    }
}

// ---------------------------------------------------------------------------
// Pruning transparency: byte-identical profiles, serial and parallel.
// ---------------------------------------------------------------------------

fn pruned_equals_unpruned_table1(make_sut: impl Fn() -> Box<dyn SystemUnderTest>) {
    let mut reference_sut = make_sut();
    let mut reference = Campaign::new(reference_sut.as_mut()).expect("campaign");
    reference.set_impact_pruning(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let unpruned = reference.run_faults(faults.clone()).expect("run");

    let mut pruned_sut = make_sut();
    let mut pruned = Campaign::new(pruned_sut.as_mut()).expect("campaign");
    pruned.set_impact_pruning(true);
    let pruned = pruned.run_faults(faults).expect("run");

    assert_eq!(profile_to_json(&unpruned), profile_to_json(&pruned));
}

#[test]
fn pruned_profile_is_byte_identical_mysql() {
    pruned_equals_unpruned_table1(|| Box::new(MySqlSim::new()));
}

#[test]
fn pruned_profile_is_byte_identical_postgres() {
    pruned_equals_unpruned_table1(|| Box::new(PostgresSim::new()));
}

#[test]
fn pruned_profile_is_byte_identical_apache() {
    pruned_equals_unpruned_table1(|| Box::new(ApacheSim::new()));
}

#[test]
fn pruned_parallel_profile_is_byte_identical_at_every_thread_count() {
    // The serial unpruned run is the single source of truth; pruned
    // parallel runs at 1, 2 and 4 threads must reproduce it exactly.
    let mut sut = MySqlSim::new();
    let mut reference = Campaign::new(&mut sut).expect("campaign");
    reference.set_impact_pruning(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let unpruned = reference.run_faults(faults.clone()).expect("run");

    let campaign = ExecutorCampaign::new(sut_factory(MySqlSim::new)).expect("campaign");
    campaign.set_impact_pruning(true);
    for threads in [1, 2, 4] {
        let pruned = CampaignExecutor::new(threads)
            .run_faults(&campaign, faults.clone())
            .expect("run");
        assert_eq!(
            profile_to_json(&unpruned),
            profile_to_json(&pruned),
            "threads = {threads}"
        );
    }
}

#[test]
fn pruned_profile_is_byte_identical_over_table2_variations() {
    // The §5.3 neutral-variation load reorders and reformats whole
    // files — the touch maps are wide, so pruning rarely fires; the
    // point is that it stays invisible even on loads it cannot help.
    for class in VariationClass::ALL {
        let mut reference_sut = ApacheSim::new();
        let mut reference = Campaign::new(&mut reference_sut).expect("campaign");
        reference.set_impact_pruning(false);
        let plugin = VariationPlugin::new(class, 10, DEFAULT_SEED);
        let faults = plugin.generate(reference.baseline()).expect("generate");
        if faults.is_empty() {
            continue;
        }
        let unpruned = reference.run_faults(faults.clone()).expect("run");

        let mut pruned_sut = ApacheSim::new();
        let mut pruned = Campaign::new(&mut pruned_sut).expect("campaign");
        pruned.set_impact_pruning(true);
        let pruned = pruned.run_faults(faults).expect("run");
        assert_eq!(
            profile_to_json(&unpruned),
            profile_to_json(&pruned),
            "class = {}",
            class.label()
        );
    }
}

// ---------------------------------------------------------------------------
// LintedSource inside a real campaign.
// ---------------------------------------------------------------------------

#[test]
fn linted_source_observes_every_fault_and_stays_transparent() {
    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let total = faults.len();
    let reference = campaign.run_faults(faults.clone()).expect("run");

    let mut sut = MySqlSim::new();
    let mut campaign = Campaign::new(&mut sut).expect("campaign");
    let linter = campaign.linter().expect("mysql publishes a schema");
    let mut observed = Vec::new();
    let mut source = LintedSource::new(EagerSource::new(faults), linter, |fault, lint| {
        let id = match fault {
            GeneratedFault::Scenario(s) => s.id.clone(),
            GeneratedFault::Inexpressible { id, .. } => id.clone(),
        };
        observed.push((id, lint.verdict.clone()));
    });
    let mut sink = CollectingSink::with_capacity(total);
    campaign
        .run_source(&mut source, &mut sink)
        .expect("streamed run");
    let streamed = sink.into_profile("mysql-sim");
    drop(source);

    // Transparent: the streamed profile is byte-identical to the plain
    // run over the same faults.
    assert_eq!(profile_to_json(&reference), profile_to_json(&streamed));
    // Exhaustive: one observation per fault, in order, and each
    // observed verdict matches the annotated outcome (the serial
    // campaign applies no downgrades beyond the engine's own).
    assert_eq!(observed.len(), total);
    for ((id, verdict), outcome) in observed.iter().zip(streamed.outcomes()) {
        assert_eq!(id, &outcome.id);
        match verdict {
            // The engine may downgrade SemanticallySilent to Unknown
            // when the scout could not certify a clean baseline;
            // every other verdict must round-trip exactly.
            StaticVerdict::SemanticallySilent => assert!(
                matches!(
                    outcome.verdict,
                    StaticVerdict::SemanticallySilent | StaticVerdict::Unknown
                ),
                "{id}: {} became {}",
                verdict,
                outcome.verdict
            ),
            v => assert_eq!(v, &outcome.verdict, "{id}"),
        }
    }
}

// ---------------------------------------------------------------------------
// examples/configs drift guard.
// ---------------------------------------------------------------------------

#[test]
fn example_configs_match_simulator_defaults() {
    // CI lints `examples/configs/` as the schema-coverage gate; the
    // files must stay byte-identical to the simulators' defaults.
    // Regenerate with `conferr-lint --write-defaults examples/configs`.
    let sims: Vec<Box<dyn SystemUnderTest>> = vec![
        Box::new(MySqlSim::new()),
        Box::new(PostgresSim::new()),
        Box::new(ApacheSim::new()),
        Box::new(BindSim::new()),
        Box::new(DjbdnsSim::new()),
        Box::new(AppServerSim::new()),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/configs");
    for sim in sims {
        let short = sim.name().strip_suffix("-sim").unwrap_or(sim.name());
        for spec in sim.config_files() {
            let path = root.join(short).join(&spec.name);
            let on_disk = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            assert_eq!(
                on_disk,
                spec.default_contents,
                "{} drifted from the {} default",
                path.display(),
                sim.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Static triage: synthesized startup outcomes, byte-identical.
// ---------------------------------------------------------------------------

/// Runs Table 1 twice — triage explicitly off (the reference knob)
/// and on — asserts byte-identity, and returns the triaged run's
/// `(dynamic, synthesized)` start counts.
fn triaged_equals_dynamic_table1(
    make_sut: impl Fn() -> Box<dyn SystemUnderTest>,
) -> (usize, usize) {
    let mut reference_sut = make_sut();
    let mut reference = Campaign::new(reference_sut.as_mut()).expect("campaign");
    reference.set_static_triage(false);
    let faults = table1_faultload(reference.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    let dynamic = reference.run_faults(faults.clone()).expect("run");
    let (reference_dynamic, reference_synthesized) = reference.triage_stats();
    assert!(reference_dynamic > 0);
    assert_eq!(reference_synthesized, 0, "triage off = every start dynamic");

    let mut triaged_sut = make_sut();
    let mut triaged = Campaign::new(triaged_sut.as_mut()).expect("campaign");
    triaged.set_static_triage(true);
    let profile = triaged.run_faults(faults).expect("run");
    assert_eq!(profile_to_json(&dynamic), profile_to_json(&profile));
    triaged.triage_stats()
}

#[test]
fn triaged_profile_is_byte_identical_mysql() {
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(MySqlSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_profile_is_byte_identical_postgres() {
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(PostgresSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_profile_is_byte_identical_apache() {
    // Apache's Table 1 load is almost entirely statically decidable:
    // strict validation makes the name typos provably fatal
    // (`WillFail*` → `DetectedAtStartup`) and the rest is provably
    // inert (`SemanticallySilent` → warning-free `Undetected`).
    // Triage must replace at least half the starts (the §4 claim the
    // bench gates as `triage_speedup`).
    let (dynamic, synthesized) = triaged_equals_dynamic_table1(|| Box::new(ApacheSim::new()));
    assert!(
        synthesized >= dynamic,
        "triage replaced {synthesized} of {} starts",
        dynamic + synthesized
    );
}

#[test]
fn triaged_executor_batch_is_byte_identical_across_threads() {
    // The same contract through the pooled executor: a triaged Table 1
    // run at 1/2/4 threads matches the untriaged serial reference, and
    // the engine's counters show the shared knob took effect.
    let reference_campaign =
        conferr::ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("campaign");
    reference_campaign.set_static_triage(false);
    let faults = table1_faultload(
        reference_campaign.baseline(),
        &Keyboard::qwerty_us(),
        DEFAULT_SEED,
    );
    let reference = {
        let executor = conferr::CampaignExecutor::new(1);
        executor
            .run_faults(&reference_campaign, faults.clone())
            .expect("reference run")
    };

    let triaged_campaign =
        conferr::ExecutorCampaign::new(sut_factory(ApacheSim::new)).expect("campaign");
    triaged_campaign.set_static_triage(true);
    for threads in [1, 2, 4] {
        let executor = conferr::CampaignExecutor::new(threads);
        let profile = executor
            .run_faults(&triaged_campaign, faults.clone())
            .expect("triaged run");
        assert_eq!(
            profile_to_json(&reference),
            profile_to_json(&profile),
            "threads = {threads}"
        );
    }
    let (_, synthesized) = triaged_campaign.triage_stats();
    assert!(synthesized > 0, "the shared engine synthesized outcomes");
}

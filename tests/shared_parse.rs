//! Shared-parse identity: a simulator start that reuses the campaign
//! engine's parse of a fault's mutated file (see
//! `conferr_sut::FileText::with_parse` and `with_edit_parse`) must be
//! indistinguishable from a start that parses the text itself.
//!
//! * Fault by fault, over each of the six systems' loads, a start
//!   handed the parse equals an uncached (`set_parse_caching(false)`)
//!   start from text: the start outcome and every functional test.
//! * A parse made by a different format is ignored.
//! * Executor profiles at 1/2/4 threads, where the engine hands the
//!   parse over, are byte-identical to the serial reference with the
//!   fault memo and the parse cache both off.
//! * The same holds for a load built to defeat the edit-local re-parse
//!   (`ConfigFormat::reparse_edited`): directives turned into section
//!   tags, values turned into broken or real ini section headers, and
//!   text with line breaks.
//! * And for two-edit loads, whose parse is spliced from several
//!   sites (`conferr_model::edit_sites`): the Table 1 load crossed
//!   with itself and sampled as the stream benchmark samples it, and
//!   the fallback load crossed with the Table 1 load.
//! * On the Table 1 loads of seeds 0..50, at least 99 % of the
//!   single-node faults of mysql, postgres and apache are re-parsed
//!   locally, and on the sampled pair loads of seeds 7 and 3 at least
//!   95 % (apache) and 85 % (mysql, postgres) of the same-file
//!   two-edit faults, so the fast path cannot silently stop being
//!   taken.

use std::collections::BTreeMap;
use std::sync::Arc;

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, ExecutorCampaign, SutFactory,
};
use conferr_bench::{appserver_faultload, djbdns_faultload, table1_faultload, DEFAULT_SEED};
use conferr_formats::{builtin_formats, format_by_name, reparse_sites, ConfigFormat};
use conferr_keyboard::Keyboard;
use conferr_model::{
    edit_sites, ConfigSet, EagerSource, ErrorClass, FaultScenario, FaultSourceExt, GeneratedFault,
    TreeEdit, TypoKind,
};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, ConfigPayload, Deadline, DjbdnsSim, FileText, MySqlSim,
    PostgresSim, StartOutcome, SystemUnderTest, TestOutcome,
};
use conferr_tree::NodeQuery;

type Load = fn(&ConfigSet) -> Vec<GeneratedFault>;

fn table1(set: &ConfigSet) -> Vec<GeneratedFault> {
    table1_faultload(set, &Keyboard::qwerty_us(), DEFAULT_SEED)
}

fn appserver(set: &ConfigSet) -> Vec<GeneratedFault> {
    appserver_faultload(set, &Keyboard::qwerty_us())
}

/// The stream benchmark's sampling rate over a load × load product.
const STREAM_RATE: f64 = 0.1;

/// Every `left` × `right` pair as one two-edit fault, thinned by the
/// stream benchmark's seeded sample at `rate`.
fn pairs(
    left: Vec<GeneratedFault>,
    right: Vec<GeneratedFault>,
    seed: u64,
    rate: f64,
) -> Vec<GeneratedFault> {
    EagerSource::new(left)
        .product(EagerSource::new(right))
        .sample(seed, rate)
        .collect_all()
        .expect("eager sources do not fail")
}

/// The Table 1 load crossed with itself, sampled like stream.
fn table1_pairs(set: &ConfigSet) -> Vec<GeneratedFault> {
    pairs(table1(set), table1(set), DEFAULT_SEED, STREAM_RATE)
}

/// The fallback load crossed with the Table 1 load: two-edit faults
/// whose first site defeats the edit-local re-parse. Sampled more
/// thinly than stream, since the fallback load is several times
/// larger.
fn fallback_pairs(set: &ConfigSet) -> Vec<GeneratedFault> {
    pairs(
        fallbacks(set),
        table1(set),
        DEFAULT_SEED,
        STREAM_RATE / 10.0,
    )
}

/// Single-node edits of every directive that the edit-local re-parse
/// must hand to a full parse (a section tag, a broken or a real ini
/// header where it would take over the following lines), plus text
/// with a line break that it splices as several nodes.
fn fallbacks(set: &ConfigSet) -> Vec<GeneratedFault> {
    let query: NodeQuery = "//directive".parse().expect("static query");
    let mut out = Vec::new();
    for (file, tree) in set.iter() {
        for (path, _) in query.select_nodes(tree) {
            let name = |value: &str| TreeEdit::SetAttr {
                file: file.to_string(),
                path: path.clone(),
                key: "name".to_string(),
                value: value.to_string(),
            };
            let text = |value: &str| TreeEdit::SetText {
                file: file.to_string(),
                path: path.clone(),
                text: Some(value.to_string()),
            };
            let edits = [
                name("</VirtualHost>"),
                name("<Foo>"),
                name("[mysqld"),
                text("[mysqld"),
                text("1\n[mysqld"),
                text("1\n[mysqld]"),
                text("80\nListen 8080"),
            ];
            for (i, edit) in edits.into_iter().enumerate() {
                out.push(GeneratedFault::Scenario(FaultScenario {
                    id: format!("fallback:{file}:{path}#{i}"),
                    description: format!("{edit:?}"),
                    class: ErrorClass::Typo(TypoKind::Substitution),
                    edits: vec![edit],
                }));
            }
        }
    }
    out
}

/// The engine-shaped pieces, built by hand: parsed baseline, per-file
/// formats and baseline payload.
struct Replayer {
    baseline: ConfigSet,
    formats: BTreeMap<String, Box<dyn ConfigFormat>>,
    baseline_payload: ConfigPayload,
}

impl Replayer {
    fn new(sut: &dyn SystemUnderTest) -> Self {
        let mut baseline = ConfigSet::new();
        let mut formats = BTreeMap::new();
        let mut baseline_payload = ConfigPayload::new();
        for spec in sut.config_files() {
            let format = format_by_name(&spec.format).expect("known format");
            let tree = format
                .parse(&spec.default_contents)
                .expect("baseline parses");
            let text = format.serialize(&tree).expect("baseline serializes");
            baseline.insert(spec.name.clone(), tree);
            baseline_payload.insert(spec.name.clone(), FileText::baseline(text));
            formats.insert(spec.name, format);
        }
        Replayer {
            baseline,
            formats,
            baseline_payload,
        }
    }

    /// The payload one fault's injection hands to `start`, built as
    /// the campaign engine builds it, with every mutated file carrying
    /// a parse by the format `parse_with` picks for it. `None` when
    /// the fault is inexpressible or inapplicable.
    fn payload_for(
        &self,
        fault: &GeneratedFault,
        parse_with: impl Fn(&dyn ConfigFormat) -> Box<dyn ConfigFormat>,
    ) -> Option<ConfigPayload> {
        let GeneratedFault::Scenario(scenario) = fault else {
            return None;
        };
        let mutated = scenario.apply(&self.baseline).ok()?;
        let mut payload = ConfigPayload::new();
        for (file, tree) in mutated.iter_arcs() {
            if self
                .baseline
                .get_arc(file)
                .is_some_and(|b| Arc::ptr_eq(b, tree))
            {
                payload.insert(file.to_string(), self.baseline_payload.get(file)?.clone());
            } else {
                let format = self.formats.get(file)?;
                let text = FileText::mutated(format.serialize(tree).ok()?);
                let parser = parse_with(format.as_ref());
                // A file whose sites are known takes the engine's
                // edit-local path, whatever the number of edits.
                let text = match edit_sites(&scenario.edits, file) {
                    Some(sites) => text.with_edit_parse(parser.as_ref(), (**tree).clone(), &sites),
                    None => text.with_parse(parser.as_ref()),
                };
                payload.insert(file.to_string(), text);
            }
        }
        Some(payload)
    }
}

/// Starts `sut` on `payload` and runs every functional test.
fn start_and_test(
    sut: &mut dyn SystemUnderTest,
    payload: &ConfigPayload,
) -> (StartOutcome, Vec<TestOutcome>) {
    let deadline = Deadline::unlimited();
    let start = sut.start(payload, &deadline);
    let tests = if start.is_running() {
        sut.test_names()
            .iter()
            .map(|test| sut.run_test(test, &deadline))
            .collect()
    } else {
        Vec::new()
    };
    sut.stop();
    (start, tests)
}

/// Replays `load` fault by fault: a fresh simulator (so the mutated
/// file misses its parse cache and the carried parse is used) started
/// on a payload carrying `parse_with`'s parse must behave exactly like
/// an uncached simulator started from the text alone.
fn assert_carried_parse_start_equals_uncached(
    factory: &SutFactory,
    load: Load,
    parse_with: impl Fn(&dyn ConfigFormat) -> Box<dyn ConfigFormat>,
) {
    let mut cold = factory.create();
    cold.set_parse_caching(false);
    let replayer = Replayer::new(cold.as_ref());
    let faults = load(&replayer.baseline);
    let mut replayed = 0usize;
    for fault in &faults {
        let Some(payload) = replayer.payload_for(fault, &parse_with) else {
            continue;
        };
        let mut handed = factory.create();
        let shared = start_and_test(handed.as_mut(), &payload);
        let reference = start_and_test(cold.as_mut(), &payload);
        assert_eq!(shared, reference, "fault {}", fault.id());
        replayed += 1;
    }
    assert!(
        replayed > 30,
        "{}: a real load, {replayed} starts",
        cold.name()
    );
    let stats = cold.parse_cache_stats().expect("simulators have caches");
    assert_eq!(stats.hits + stats.entries as u64, 0);
}

/// The same format the engine would parse with.
fn same_format(format: &dyn ConfigFormat) -> Box<dyn ConfigFormat> {
    format_by_name(format.name()).expect("registered")
}

/// A registered format with a different name.
fn other_format(format: &dyn ConfigFormat) -> Box<dyn ConfigFormat> {
    builtin_formats()
        .into_iter()
        .find(|f| f.name() != format.name())
        .expect("several formats")
}

/// Executor runs at 1/2/4 threads under default knobs — fault memo,
/// linter memo and parse cache on, the parse handed over — against a
/// serial run with the fault memo and the parse cache off.
fn assert_executor_equals_uncached_serial(factory: &SutFactory, load: Load) {
    let mut reference_sut = factory.create();
    reference_sut.set_parse_caching(false);
    let mut reference = Campaign::new(reference_sut.as_mut()).expect("campaign");
    reference.set_fault_memoization(false);
    let faults = load(reference.baseline());
    assert!(faults.len() > 30, "a real load");
    let expected = profile_to_json(&reference.run_faults(faults.clone()).expect("run"));
    drop(reference);
    for threads in [1, 2, 4] {
        let campaign = ExecutorCampaign::new(factory.clone()).expect("campaign");
        let profile = CampaignExecutor::new(threads)
            .run_faults(&campaign, faults.clone())
            .expect("run");
        assert_eq!(
            expected,
            profile_to_json(&profile),
            "{} at {threads} threads",
            campaign.system()
        );
    }
}

fn check_system(factory: SutFactory, load: Load) {
    assert_carried_parse_start_equals_uncached(&factory, load, same_format);
    assert_carried_parse_start_equals_uncached(&factory, load, other_format);
    assert_executor_equals_uncached_serial(&factory, load);
}

#[test]
fn shared_parse_is_invisible_mysql() {
    check_system(sut_factory(MySqlSim::new), table1);
}

#[test]
fn shared_parse_is_invisible_postgres() {
    check_system(sut_factory(PostgresSim::new), table1);
}

#[test]
fn shared_parse_is_invisible_apache() {
    check_system(sut_factory(ApacheSim::new), table1);
}

#[test]
fn shared_parse_is_invisible_bind() {
    check_system(sut_factory(BindSim::new), table1);
}

#[test]
fn shared_parse_is_invisible_djbdns() {
    check_system(sut_factory(DjbdnsSim::new), djbdns_faultload);
}

#[test]
fn shared_parse_is_invisible_appserver() {
    check_system(sut_factory(AppServerSim::new), appserver);
}

#[test]
fn shared_parse_is_invisible_under_fallbacks() {
    for factory in [
        sut_factory(MySqlSim::new),
        sut_factory(PostgresSim::new),
        sut_factory(ApacheSim::new),
    ] {
        check_system(factory, fallbacks);
    }
}

#[test]
fn shared_parse_is_invisible_under_table1_pairs() {
    for factory in [
        sut_factory(MySqlSim::new),
        sut_factory(PostgresSim::new),
        sut_factory(ApacheSim::new),
    ] {
        check_system(factory, table1_pairs);
    }
}

#[test]
fn shared_parse_is_invisible_under_fallback_pairs() {
    for factory in [
        sut_factory(MySqlSim::new),
        sut_factory(PostgresSim::new),
        sut_factory(ApacheSim::new),
    ] {
        check_system(factory, fallback_pairs);
    }
}

#[test]
fn edit_local_parse_covers_table1_loads() {
    for factory in [
        sut_factory(MySqlSim::new),
        sut_factory(PostgresSim::new),
        sut_factory(ApacheSim::new),
    ] {
        let sut = factory.create();
        let replayer = Replayer::new(sut.as_ref());
        let (mut single, mut local) = (0usize, 0usize);
        for seed in 0..50 {
            for fault in table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), seed) {
                let GeneratedFault::Scenario(scenario) = fault else {
                    continue;
                };
                let [edit] = scenario.edits.as_slice() else {
                    continue;
                };
                let Some(site) = edit.site() else { continue };
                let Ok(mut edited) = scenario.apply(&replayer.baseline) else {
                    continue;
                };
                let format = &replayer.formats[edit.file()];
                let tree = edited.remove(edit.file()).expect("edited file");
                if format.serialize(&tree).is_err() {
                    continue;
                }
                single += 1;
                if format
                    .reparse_edited(Arc::unwrap_or_clone(tree), &site)
                    .is_some()
                {
                    local += 1;
                }
            }
        }
        assert!(single > 1000, "{}: {single} single-node faults", sut.name());
        assert!(
            local * 100 >= single * 99,
            "{}: {local} of {single} single-node faults re-parsed locally",
            sut.name()
        );
    }
}

#[test]
fn edit_local_parse_covers_stream_loads() {
    // (system, least share in percent of applied same-file two-edit
    // faults that re-parse locally)
    for (factory, floor) in [
        (sut_factory(MySqlSim::new), 85),
        (sut_factory(PostgresSim::new), 85),
        (sut_factory(ApacheSim::new), 95),
    ] {
        let sut = factory.create();
        let replayer = Replayer::new(sut.as_ref());
        let (mut compound, mut local) = (0usize, 0usize);
        for seed in [7, 3] {
            let load = table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), seed);
            for fault in pairs(load.clone(), load, seed, STREAM_RATE) {
                let GeneratedFault::Scenario(scenario) = fault else {
                    continue;
                };
                let [first, second] = scenario.edits.as_slice() else {
                    continue;
                };
                let file = first.file();
                if second.file() != file {
                    continue;
                }
                let Ok(mut edited) = scenario.apply(&replayer.baseline) else {
                    continue;
                };
                let format = &replayer.formats[file];
                let tree = edited.remove(file).expect("edited file");
                if format.serialize(&tree).is_err() {
                    continue;
                }
                compound += 1;
                let Some(sites) = edit_sites(&scenario.edits, file) else {
                    continue;
                };
                if reparse_sites(format.as_ref(), Arc::unwrap_or_clone(tree), &sites).is_some() {
                    local += 1;
                }
            }
        }
        assert!(
            compound > 1000,
            "{}: {compound} two-edit faults",
            sut.name()
        );
        assert!(
            local * 100 >= compound * floor,
            "{}: {local} of {compound} two-edit faults re-parsed locally",
            sut.name()
        );
    }
}

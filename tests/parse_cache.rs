//! Parse-cache correctness: memoized startup parsing must be
//! observationally invisible.
//!
//! The simulators memoize their parse-and-validate startup path in a
//! content-addressed `ParseCache` (see `conferr_sut::payload`). These
//! tests pin the soundness argument end to end over the full §5.2
//! (Table 1) fault load:
//!
//! * a campaign run with caching enabled produces a profile
//!   **byte-identical** (exported JSON, every diagnostic and diff
//!   line) to a run with caching disabled;
//! * a `start` served from a cache hit yields a `StartOutcome`
//!   identical to a cold parse of the same payload, fault by fault;
//! * repeated fault loads actually hit the cache (the speedup is
//!   real, not a no-op flag).

use std::collections::BTreeMap;
use std::sync::Arc;

use conferr::{profile_to_json, Campaign, ResilienceProfile};
use conferr_bench::{appserver_faultload, table1_faultload, DEFAULT_SEED};
use conferr_formats::{format_by_name, ConfigFormat};
use conferr_keyboard::Keyboard;
use conferr_model::{ConfigSet, GeneratedFault};
use conferr_sut::{
    ApacheSim, AppServerSim, BindSim, ConfigPayload, Deadline, DjbdnsSim, FileText, MySqlSim,
    PostgresSim, SystemUnderTest,
};

/// Runs the full Table 1 fault load through a serial campaign with
/// every cache layer (SUT parse cache + engine fault memo) on or off.
fn table1_profile(sut: &mut dyn SystemUnderTest, caching: bool) -> ResilienceProfile {
    sut.set_parse_caching(caching);
    let mut campaign = Campaign::new(sut).expect("campaign");
    campaign.set_fault_memoization(caching);
    let faults = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
    campaign.run_faults(faults).expect("run")
}

fn assert_cached_equals_uncached(make_sut: impl Fn() -> Box<dyn SystemUnderTest>) {
    let mut cold_sut = make_sut();
    let uncached = table1_profile(cold_sut.as_mut(), false);
    let stats = cold_sut
        .parse_cache_stats()
        .expect("simulators have caches");
    assert_eq!(stats.hits, 0, "disabled cache must never hit");
    assert_eq!(stats.entries, 0, "disabled cache must store nothing");

    let mut warm_sut = make_sut();
    let cached = table1_profile(warm_sut.as_mut(), true);
    let stats = warm_sut
        .parse_cache_stats()
        .expect("simulators have caches");
    assert!(stats.misses > 0, "first sighting always parses in full");

    // Byte-identical, not merely equal: every id, description, diff
    // line and diagnostic in the exported JSON matches exactly.
    assert_eq!(profile_to_json(&uncached), profile_to_json(&cached));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_mysql() {
    assert_cached_equals_uncached(|| Box::new(MySqlSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_postgres() {
    assert_cached_equals_uncached(|| Box::new(PostgresSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_apache() {
    assert_cached_equals_uncached(|| Box::new(ApacheSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_bind() {
    assert_cached_equals_uncached(|| Box::new(BindSim::new()));
}

#[test]
fn cached_profile_is_byte_identical_to_uncached_appserver() {
    // `table1_faultload` yields no faults for `server.xml`; the
    // element-level load exercises the appserver's cache instead.
    let run = |caching: bool| {
        let mut sut = AppServerSim::new();
        sut.set_parse_caching(caching);
        let mut campaign = Campaign::new(&mut sut).expect("campaign");
        campaign.set_fault_memoization(caching);
        let faults = appserver_faultload(campaign.baseline(), &Keyboard::qwerty_us());
        assert!(faults.len() > 30, "server.xml must yield a real load");
        let profile = campaign.run_faults(faults).expect("run");
        drop(campaign);
        (profile, sut.parse_cache_stats().expect("cache"))
    };
    let (uncached, cold) = run(false);
    assert_eq!(cold.hits, 0, "disabled cache must never hit");
    assert_eq!(cold.entries, 0, "disabled cache must store nothing");
    let (cached, warm) = run(true);
    assert!(warm.misses > 0, "first sighting always parses in full");
    assert_eq!(profile_to_json(&uncached), profile_to_json(&cached));
}

#[test]
fn cached_start_is_identical_to_uncached_djbdns() {
    // The Table 1 protocol does not target tinydns data lines, so
    // djbdns is exercised with direct starts: the default data plus
    // hand-made mutations covering clean loads, syntax errors and
    // semantic loader errors.
    let mut warm = DjbdnsSim::new();
    let mut cold = DjbdnsSim::new();
    cold.set_parse_caching(false);
    let default_data = conferr_sut::default_configs(&warm)["data"].clone();
    let mutations = [
        default_data.clone(),
        default_data.replace("=www.example.com", "=www.examplecom"),
        default_data.replace("=www", "?www"),
        default_data.replace("192.0.2.10", "192.0.2.999"),
        default_data.replace(":86400", ":"),
    ];
    for text in &mutations {
        let mut payload = ConfigPayload::new();
        payload.insert("data", FileText::mutated(text.as_str()));
        let first = warm.start(&payload, &Deadline::unlimited());
        let hit = warm.start(&payload, &Deadline::unlimited());
        let reference = cold.start(&payload, &Deadline::unlimited());
        assert_eq!(first, reference);
        assert_eq!(hit, reference);
    }
    let stats = warm.parse_cache_stats().expect("cache");
    assert_eq!(stats.misses, mutations.len() as u64);
    assert_eq!(stats.hits, mutations.len() as u64);
}

#[test]
fn repeated_fault_load_hits_the_cache_and_stays_identical() {
    // The bench protocol: the same fault load injected repeatedly.
    // Repeat 2..n present texts the cache has already parsed — every
    // one must hit, and the merged profile must stay byte-identical
    // to the uncached reference.
    let run = |caching: bool| {
        let mut sut = ApacheSim::new();
        sut.set_parse_caching(caching);
        let mut campaign = Campaign::new(&mut sut).expect("campaign");
        campaign.set_fault_memoization(caching);
        let one = table1_faultload(campaign.baseline(), &Keyboard::qwerty_us(), DEFAULT_SEED);
        let mut faults = one.clone();
        faults.extend(one.iter().cloned());
        faults.extend(one);
        let profile = campaign.run_faults(faults).expect("run");
        let stats = sut.parse_cache_stats().expect("cache");
        (profile, stats)
    };
    let (uncached, _) = run(false);
    let (cached, stats) = run(true);
    assert_eq!(profile_to_json(&uncached), profile_to_json(&cached));
    // The engine's construction-time baseline scout contributes the
    // pinned baseline misses; the fault load itself must still serve
    // at least 2/3 from the cache.
    assert!(
        stats.hits >= 2 * (stats.misses - stats.pinned as u64),
        "3x the same load must serve at least 2/3 from the cache: {stats:?}"
    );
}

/// Builds the engine-shaped pieces by hand — parsed baseline,
/// per-file formats, baseline payload — so each fault's exact startup
/// payload can be replayed against multiple SUT instances.
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

    /// The payload one fault's injection would hand to `start`, built
    /// exactly as the campaign engine builds it: baseline entries for
    /// pointer-shared files, fresh mutated entries otherwise. `None`
    /// when the fault is inexpressible or inapplicable.
    fn payload_for(&self, fault: &GeneratedFault) -> Option<ConfigPayload> {
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
                let text = self.formats.get(file)?.serialize(tree).ok()?;
                payload.insert(file.to_string(), FileText::mutated(text));
            }
        }
        Some(payload)
    }
}

fn assert_hit_equals_cold(make_sut: impl Fn() -> Box<dyn SystemUnderTest>) {
    let mut warm = make_sut();
    let mut cold = make_sut();
    cold.set_parse_caching(false);
    let replayer = Replayer::new(warm.as_ref());
    let faults = table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), DEFAULT_SEED);

    let mut replayed = 0usize;
    for fault in &faults {
        let Some(payload) = replayer.payload_for(fault) else {
            continue;
        };
        let first = warm.start(&payload, &Deadline::unlimited()); // cold or hit, depending on history
        let hit = warm.start(&payload, &Deadline::unlimited()); // guaranteed byte-identical content
        let reference = cold.start(&payload, &Deadline::unlimited()); // full parse, no memoization
        assert_eq!(first, reference, "fault {}", fault.id());
        assert_eq!(hit, reference, "fault {} (cache hit)", fault.id());
        warm.stop();
        cold.stop();
        replayed += 1;
    }
    assert!(replayed > 50, "the Table 1 load must exercise many faults");
    let stats = warm.parse_cache_stats().expect("cache");
    assert!(
        stats.hits as usize >= replayed,
        "every replayed fault must hit at least once: {stats:?}"
    );
    let cold_stats = cold.parse_cache_stats().expect("cache");
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.entries, 0);
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_mysql() {
    assert_hit_equals_cold(|| Box::new(MySqlSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_postgres() {
    assert_hit_equals_cold(|| Box::new(PostgresSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_apache() {
    assert_hit_equals_cold(|| Box::new(ApacheSim::new()));
}

#[test]
fn cache_hit_start_equals_cold_start_over_table1_bind() {
    assert_hit_equals_cold(|| Box::new(BindSim::new()));
}

#[test]
fn unchanged_files_of_multi_file_suts_parse_once() {
    // BIND reads two zone files; a fault load that only ever mutates
    // one of them must leave the other's single pinned parse as the
    // only work done for it.
    let mut sut = BindSim::new();
    let replayer = Replayer::new(&sut);
    let faults = table1_faultload(&replayer.baseline, &Keyboard::qwerty_us(), DEFAULT_SEED);
    let mut starts = 0u64;
    for fault in &faults {
        let Some(payload) = replayer.payload_for(fault) else {
            continue;
        };
        sut.start(&payload, &Deadline::unlimited());
        sut.stop();
        starts += 1;
    }
    let stats = sut.parse_cache_stats().expect("cache");
    // Uncached, this would be up to 2 * starts full parses (a failing
    // first zone still short-circuits the second). With the cache,
    // misses cover each *distinct* mutated text once plus the two
    // pinned baselines — per start, at most the one mutated file is
    // parsed.
    assert!(stats.hits + stats.misses <= 2 * starts);
    assert!(
        stats.misses <= starts + 2,
        "only the mutated file may parse per start: {stats:?} over {starts} starts"
    );
    assert!(stats.hits > starts / 2, "untouched zones must mostly hit");
    assert_eq!(stats.pinned, 2, "both baseline zone files are pinned");
}

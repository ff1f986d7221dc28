//! Per-injection end-to-end latency, the analogue of the paper's §5.2
//! timing claim ("each error injection experiment took on the order of
//! seconds: 2.2 s for MySQL, 6 s for Postgres and 1.1 s for Apache").
//! Our systems are simulated in-process, so the absolute numbers are
//! microseconds; the bench demonstrates the same end-to-end cycle:
//! mutate → serialize → start → functional tests → classify.

use conferr::Campaign;
use conferr_bench::{deep_copy_tree, httpd_apply_fixture, table1_faultload, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_sut::{default_payload, ApacheSim, MySqlSim, PostgresSim, SystemUnderTest};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_single_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_injection");
    let keyboard = Keyboard::qwerty_us();

    let cases: Vec<(&str, Box<dyn SystemUnderTest>)> = vec![
        ("mysql", Box::new(MySqlSim::new())),
        ("postgres", Box::new(PostgresSim::new())),
        ("apache", Box::new(ApacheSim::new())),
    ];
    for (name, mut sut) in cases {
        let mut campaign = Campaign::new(sut.as_mut()).expect("campaign");
        let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
        // One representative value-typo injection, run end to end.
        let one = vec![faults
            .iter()
            .find(|f| f.id().starts_with("t1-value"))
            .expect("value typo exists")
            .clone()];
        group.bench_function(name, |b| {
            b.iter(|| {
                let profile = campaign.run_faults(black_box(one.clone())).expect("run");
                black_box(profile.summary());
            });
        });
    }
    group.finish();
}

fn bench_startup_only(c: &mut Criterion) {
    // Cached: repeated starts from the same payload hit the parse
    // cache after the first iteration — the campaign steady state for
    // unchanged files. Uncached: the reference cold path, a full
    // parse-and-validate per start.
    for (suffix, caching) in [("cached", true), ("uncached", false)] {
        let mut group = c.benchmark_group(format!("sut_startup_{suffix}"));
        let cases: Vec<(&str, Box<dyn SystemUnderTest>)> = vec![
            ("mysql", Box::new(MySqlSim::new())),
            ("postgres", Box::new(PostgresSim::new())),
            ("apache", Box::new(ApacheSim::new())),
        ];
        for (name, mut sut) in cases {
            sut.set_parse_caching(caching);
            let payload = default_payload(sut.as_ref());
            let deadline = conferr_sut::Deadline::unlimited();
            group.bench_function(name, |b| {
                b.iter(|| black_box(sut.start(&payload, &deadline)));
            });
        }
        group.finish();
    }
}

fn bench_apply_path_vs_deep_copy(c: &mut Criterion) {
    // The injection front half on the largest configuration
    // (httpd.conf): applying one value-typo scenario copies only the
    // root-to-edit path of the Arc-backed tree. The deep-copy
    // function reproduces what every apply paid per edited file
    // before the structural sharing — the reference the >=5x
    // acceptance gate in BENCH_campaign.json compares against.
    let (baseline, scenario) = httpd_apply_fixture();
    let tree = baseline.get("httpd.conf").expect("httpd.conf parsed");

    let mut group = c.benchmark_group("apply_httpd");
    group.bench_function("path_copy_apply", |b| {
        b.iter(|| black_box(scenario.apply(black_box(&baseline)).expect("apply")));
    });
    group.bench_function("whole_tree_deep_copy", |b| {
        b.iter(|| black_box(deep_copy_tree(black_box(tree))));
    });
    group.finish();
}

fn bench_full_campaign(c: &mut Criterion) {
    // The paper's headline: "testing each SUT took less than one
    // hour". The whole Table 1 column runs in milliseconds here.
    let mut group = c.benchmark_group("full_table1");
    group.sample_size(10);
    let keyboard = Keyboard::qwerty_us();
    group.bench_function("postgres", |b| {
        b.iter(|| {
            let mut sut = PostgresSim::new();
            let mut campaign = Campaign::new(&mut sut).expect("campaign");
            let faults = table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED);
            let profile = campaign.run_faults(faults).expect("run");
            black_box(profile.summary())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_injection,
    bench_startup_only,
    bench_apply_path_vs_deep_copy,
    bench_full_campaign
);
criterion_main!(benches);

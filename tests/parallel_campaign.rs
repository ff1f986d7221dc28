//! The executor must be a pure wall-clock optimisation: over the
//! full §5.2 fault load, its profile — including every diagnostic
//! string, diff line and warning — must be byte-identical to the
//! serial `Campaign` reference's, at any thread count; and every
//! paper artifact must come out the same at any thread count.

use conferr::{
    profile_to_json, sut_factory, Campaign, CampaignExecutor, ExecutorCampaign, ResilienceProfile,
    SutFactory,
};
use conferr_bench::{figure3, table1, table1_faultload, table2, table3, DEFAULT_SEED};
use conferr_keyboard::Keyboard;
use conferr_model::{ErrorGenerator, GeneratedFault};
use conferr_sut::{MySqlSim, PostgresSim, SystemUnderTest};

/// The full §5.2 (Table 1) fault load for one system: deletion of
/// every directive plus sampled name/value typos.
fn full_faultload(sut: &mut dyn SystemUnderTest) -> Vec<GeneratedFault> {
    let keyboard = Keyboard::qwerty_us();
    let campaign = Campaign::new(sut).expect("campaign");
    table1_faultload(campaign.baseline(), &keyboard, DEFAULT_SEED)
}

fn serial_profile(sut: &mut dyn SystemUnderTest, faults: Vec<GeneratedFault>) -> ResilienceProfile {
    let mut campaign = Campaign::new(sut).expect("campaign");
    campaign.run_faults(faults).expect("serial run")
}

fn executor_profile(
    factory: SutFactory,
    faults: Vec<GeneratedFault>,
    threads: usize,
) -> ResilienceProfile {
    let campaign = ExecutorCampaign::new(factory).expect("campaign");
    CampaignExecutor::new(threads)
        .run_faults(&campaign, faults)
        .expect("parallel run")
}

#[test]
fn parallel_equals_serial_for_mysql_full_faultload() {
    let mut sut = MySqlSim::new();
    let faults = full_faultload(&mut sut);
    let serial = serial_profile(&mut sut, faults.clone());
    for threads in [1, 2, 5] {
        let parallel = executor_profile(sut_factory(MySqlSim::new), faults.clone(), threads);
        assert_eq!(
            serial.outcomes(),
            parallel.outcomes(),
            "threads = {threads}"
        );
        // Byte-identical, not merely equal: the exported JSON (every
        // id, description, diff line and diagnostic) matches exactly.
        assert_eq!(
            profile_to_json(&serial),
            profile_to_json(&parallel),
            "threads = {threads}"
        );
    }
}

#[test]
fn parallel_equals_serial_for_postgres_full_faultload() {
    let mut sut = PostgresSim::new();
    let faults = full_faultload(&mut sut);
    let serial = serial_profile(&mut sut, faults.clone());
    for threads in [2, 8] {
        let parallel = executor_profile(sut_factory(PostgresSim::new), faults.clone(), threads);
        assert_eq!(
            profile_to_json(&serial),
            profile_to_json(&parallel),
            "threads = {threads}"
        );
    }
}

#[test]
fn parallel_campaign_generators_match_serial() {
    // A generator's load, generated against the executor campaign's
    // baseline, matches the serial generator-driven `Campaign::run`.
    let campaign = ExecutorCampaign::new(sut_factory(PostgresSim::new)).expect("campaign");
    let faults = conferr_plugins::StructuralPlugin::new()
        .generate(campaign.baseline())
        .expect("generate");
    let parallel = CampaignExecutor::new(3)
        .run_faults(&campaign, faults)
        .expect("parallel run");

    let mut sut = PostgresSim::new();
    let mut serial = Campaign::new(&mut sut).expect("campaign");
    serial.add_generator(Box::new(conferr_plugins::StructuralPlugin::new()));
    let serial = serial.run().expect("serial run");

    assert_eq!(profile_to_json(&serial), profile_to_json(&parallel));
}

#[test]
fn parallel_paper_artifacts_match_serial() {
    // Every paper artifact on the 1-thread serial fast path and on a
    // 4-thread pool. One persistent pool drives all four artifacts —
    // the cross-artifact reuse `paper_all` performs, with its SUT
    // caches warmed by earlier tables when later ones run.
    let serial = CampaignExecutor::new(1);
    let parallel = CampaignExecutor::new(4);

    // Table 1 summaries (one cross-system batch).
    assert_eq!(
        table1(&serial, DEFAULT_SEED).expect("table1 serial"),
        table1(&parallel, DEFAULT_SEED).expect("table1 parallel")
    );

    // Table 2 verdict matrix (14 cell campaigns in one batch).
    let t2_serial = table2(&serial, DEFAULT_SEED).expect("table2 serial");
    let t2_parallel = table2(&parallel, DEFAULT_SEED).expect("table2 parallel");
    assert_eq!(t2_serial.systems, t2_parallel.systems);
    assert_eq!(t2_serial.rows, t2_parallel.rows);

    // Table 3 verdicts (includes inexpressible faults on djbdns).
    assert_eq!(
        table3(&serial).expect("table3 serial").rows,
        table3(&parallel).expect("table3 parallel").rows
    );

    // Figure 3 (one batch entry per directive, both systems).
    assert_eq!(
        figure3(&serial, DEFAULT_SEED).expect("figure3 serial"),
        figure3(&parallel, DEFAULT_SEED).expect("figure3 parallel")
    );
}

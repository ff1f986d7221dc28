//! The batched §5.5 comparison runner must produce bit-identical
//! results at any thread count: per-directive seeding depends only on
//! the directive index, never on scheduling.

use conferr::{sut_factory, value_typo_resilience, CampaignExecutor};
use conferr_keyboard::Keyboard;
use conferr_model::TypoKind;
use conferr_plugins::typos_of_kind;
use conferr_sut::{ConfigPayload, FileText, PostgresSim};

fn mutator(keyboard: &Keyboard) -> impl Fn(&str) -> Vec<(String, String)> + Sync + '_ {
    move |value: &str| {
        let mut out = Vec::new();
        for kind in [
            TypoKind::Omission,
            TypoKind::Insertion,
            TypoKind::Substitution,
            TypoKind::Transposition,
        ] {
            out.extend(typos_of_kind(keyboard, kind, value));
        }
        out
    }
}

#[test]
fn parallel_equals_sequential() {
    let keyboard = Keyboard::qwerty_us();
    let m = mutator(&keyboard);
    let mut configs = ConfigPayload::new();
    configs.insert(
        "postgresql.conf",
        FileText::mutated(PostgresSim::full_coverage_config()),
    );
    let skip = PostgresSim::boolean_directive_names();

    let run = |threads: usize| {
        value_typo_resilience(
            sut_factory(PostgresSim::new),
            &configs,
            &m,
            8,
            42,
            &skip,
            &CampaignExecutor::new(threads),
        )
        .expect("value typo resilience")
    };
    let sequential = run(1);
    for threads in [3, 8] {
        assert_eq!(run(threads), sequential, "threads = {threads}");
    }
}

#[test]
fn repeated_runs_on_one_executor_stay_identical() {
    // The §5.5 runner reuses a persistent pool (warm SUT caches and
    // all) without drifting: the second run over the same payload is
    // bit-identical to the first.
    let keyboard = Keyboard::qwerty_us();
    let m = mutator(&keyboard);
    let mut configs = ConfigPayload::new();
    configs.insert(
        "postgresql.conf",
        FileText::mutated("port = 5432\nmax_connections = 20\nshared_buffers = 100\n"),
    );
    let executor = CampaignExecutor::new(3);
    let run = || {
        value_typo_resilience(
            sut_factory(PostgresSim::new),
            &configs,
            &m,
            5,
            7,
            &[],
            &executor,
        )
        .expect("parallel")
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_handles_more_threads_than_targets() {
    let keyboard = Keyboard::qwerty_us();
    let m = mutator(&keyboard);
    let mut configs = ConfigPayload::new();
    configs.insert(
        "postgresql.conf",
        FileText::mutated("port = 5432\nmax_connections = 20\nshared_buffers = 100\n"),
    );
    let executor = CampaignExecutor::new(64);
    let result = value_typo_resilience(
        sut_factory(PostgresSim::new),
        &configs,
        &m,
        5,
        7,
        &[],
        &executor,
    )
    .expect("parallel");
    assert_eq!(result.directives.len(), 3);
}

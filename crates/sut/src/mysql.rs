//! The MySQL 5.1 simulator.
//!
//! Reproduces the configuration-handling behaviour the paper measured
//! (§5.2), including every documented flaw:
//!
//! * **Out-of-bounds values are silently ignored** and replaced by the
//!   default (`key_buffer_size=1` is accepted although the minimum is
//!   8 KiB).
//! * **Multiplier-suffix parsing stops at the first symbol**: `1M0`
//!   is accepted as 1 MiB; values *starting* with a suffix (`M10`)
//!   are silently replaced by the default.
//! * **Directives without a value are accepted** and the default is
//!   used.
//! * **The shared configuration file is only partially parsed at
//!   startup**: only the `[mysqld]` section is validated; errors in
//!   tool sections (`[mysqldump]`, `[client]`, ...) stay latent until
//!   the corresponding tool runs (exposed here via the optional
//!   `mysqldump-tool` test).
//! * Directive names are **case-sensitive** (Table 2: mixed-case
//!   names rejected) but may be **truncated to unambiguous prefixes**
//!   (Table 2: truncation accepted); `-` and `_` are interchangeable.
//!
//! Typos in directive *names* inside `[mysqld]` are therefore caught
//! at startup ("unknown variable"), while most typos in numeric
//! *values* are silently absorbed — the asymmetry behind MySQL's
//! Table 1 row and its poor Figure 3 profile.

use std::sync::Arc;

use conferr_analysis::mysql::{
    check_dump_config, validate_server_config, DEFAULT_PORT, SERVER_REGISTRY,
};
use conferr_analysis::value::ResolvedVars;
use conferr_analysis::{Dialect, DirectiveSchema, MYSQL_SCHEMA};
use conferr_formats::{ConfigFormat, IniFormat, ParseError};
use conferr_tree::ConfTree;

use crate::directive::ValueType;
use crate::minidb::{Engine, EngineLimits};
use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, ParseCache, StartOutcome, SystemUnderTest,
    TestOutcome,
};

const DEFAULT_MY_CNF: &str = "\
# Example MySQL config file (my.cnf).
# The following options will be passed to all MySQL clients.
[client]
port=3306
socket=/var/run/mysqld/mysqld.sock

# The MySQL server
[mysqld]
port=3306
socket=/var/run/mysqld/mysqld.sock
datadir=/var/lib/mysql
key_buffer_size=16M
max_allowed_packet=1M
table_open_cache=64
sort_buffer_size=512K
net_buffer_length=8K
read_buffer_size=256K
skip-external-locking

[mysqldump]
quick
max_allowed_packet=16M
";

#[derive(Debug)]
struct Running {
    vars: Arc<ResolvedVars>,
    engine: Engine,
    port: String,
    raw_config: Arc<str>,
}

/// Deterministic result of parsing and validating one `my.cnf` text:
/// the resolved server variables and derived engine limits, or the
/// fatal startup diagnostic. This is what the parse cache memoizes;
/// the mutable query engine is built fresh on every start.
#[derive(Debug)]
struct Blueprint {
    vars: Arc<ResolvedVars>,
    port: String,
    limits: EngineLimits,
}

type MySqlStartup = Result<Blueprint, String>;

/// The MySQL 5.1 simulator. See the module docs for the flaw
/// inventory it reproduces.
#[derive(Debug, Default)]
pub struct MySqlSim {
    running: Option<Running>,
    cache: ParseCache<MySqlStartup>,
}

impl MySqlSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        MySqlSim::default()
    }

    /// A full-coverage `my.cnf` for the §5.5 comparison benchmark:
    /// every registry variable with a default value, booleans and
    /// defaultless variables excluded (as the paper did). Size values
    /// are written in the suffix notation administrators actually use
    /// (`16M`, `512K`), which is exactly where MySQL's parser flaws
    /// live.
    pub fn full_coverage_config() -> String {
        let mut out = String::from("[mysqld]\n");
        for spec in SERVER_REGISTRY {
            if matches!(spec.vtype, ValueType::Bool) || spec.default.is_empty() {
                continue;
            }
            let value = match spec.vtype {
                ValueType::Size { .. } => {
                    let v: u64 = spec.default.parse().expect("size defaults are numeric");
                    if v > 0 && v.is_multiple_of(1 << 20) {
                        format!("{}M", v >> 20)
                    } else if v > 0 && v.is_multiple_of(1024) {
                        format!("{}K", v >> 10)
                    } else {
                        spec.default.to_string()
                    }
                }
                _ => spec.default.to_string(),
            };
            out.push_str(&format!("{}={value}\n", spec.name));
        }
        out
    }

    /// Names of boolean server variables (excluded from the §5.5
    /// benchmark because both databases detect boolean typos).
    pub fn boolean_directive_names() -> Vec<&'static str> {
        SERVER_REGISTRY
            .iter()
            .filter(|s| matches!(s.vtype, ValueType::Bool))
            .map(|s| s.name)
            .collect()
    }

    /// The value of a server variable in the running instance (useful
    /// for asserting the silent-default flaws in tests).
    pub fn server_var(&self, name: &str) -> Option<&str> {
        self.running
            .as_ref()
            .and_then(|r| r.vars.get(name).map(|v| &**v))
    }

    /// The full startup path from `my.cnf`'s parse: absorb the
    /// `[mysqld]` group with MySQL's lenient value discipline, check
    /// path-valued directives. Pure in the configuration text the
    /// parse was made from.
    fn parse_and_validate(parsed: Result<&ConfTree, &ParseError>) -> MySqlStartup {
        let tree =
            parsed.map_err(|e| Dialect::MySqlIni.parse_failure_diagnostic(&e.to_string()))?;
        // The lenient value discipline, section skipping and path
        // checks live in `conferr_analysis::mysql` — shared verbatim
        // with the static linter, so its verdicts cannot drift from
        // this startup path.
        let vars = validate_server_config(tree.root()).map_err(|v| v.message)?;
        let limits = EngineLimits {
            max_connections: vars
                .get("max_connections")
                .and_then(|v| v.parse().ok())
                .unwrap_or(151),
            max_statement_bytes: vars
                .get("max_allowed_packet")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1 << 20),
        };
        let port = vars.get("port").map_or(DEFAULT_PORT, |v| &**v).to_string();
        Ok(Blueprint {
            vars: Arc::new(vars),
            port,
            limits,
        })
    }
}

impl SystemUnderTest for MySqlSim {
    fn name(&self) -> &str {
        "mysql-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![ConfigFileSpec {
            name: "my.cnf".to_string(),
            format: "ini".to_string(),
            default_contents: DEFAULT_MY_CNF.to_string(),
        }]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let Some(file) = configs.get("my.cnf") else {
            return StartOutcome::FailedToStart {
                diagnostic: "could not open required defaults file: my.cnf".to_string(),
            };
        };
        let startup =
            self.cache
                .get_or_build("my.cnf", file, &IniFormat::new(), Self::parse_and_validate);
        match startup.as_ref() {
            Ok(blueprint) => {
                self.running = Some(Running {
                    vars: Arc::clone(&blueprint.vars),
                    engine: Engine::new(blueprint.limits.clone()),
                    port: blueprint.port.clone(),
                    raw_config: file.shared_text(),
                });
                StartOutcome::Started
            }
            Err(diagnostic) => StartOutcome::FailedToStart {
                diagnostic: diagnostic.clone(),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        vec!["connect-and-query".to_string()]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_mut() else {
            return TestOutcome::failed("server is not running");
        };
        match test {
            // The administrator's smoke script: `mysql -h 127.0.0.1`
            // on the default port, then create/populate/query a table
            // (paper §5.1).
            "connect-and-query" => {
                if running.port != DEFAULT_PORT {
                    return TestOutcome::failed(format!(
                        "can't connect to MySQL server on '127.0.0.1:{DEFAULT_PORT}' \
                         (server is listening on port {})",
                        running.port
                    ));
                }
                let mut conn = match running.engine.connect() {
                    Ok(c) => c,
                    Err(e) => return TestOutcome::failed(format!("connect failed: {e}")),
                };
                let steps = [
                    "CREATE DATABASE conferr_probe;",
                    "CREATE TABLE t (id INT, name TEXT);",
                    "INSERT INTO t VALUES (1, 'alpha');",
                    "INSERT INTO t VALUES (2, 'beta');",
                    "SELECT name FROM t WHERE id = 2;",
                    "DROP DATABASE conferr_probe;",
                ];
                for (i, sql) in steps.iter().enumerate() {
                    if i == 1 {
                        if let Err(e) = conn.use_database("conferr_probe") {
                            return TestOutcome::failed(format!("USE failed: {e}"));
                        }
                    }
                    if let Err(e) = conn.execute(sql) {
                        return TestOutcome::failed(format!("step {i} ({sql}) failed: {e}"));
                    }
                }
                TestOutcome::Passed
            }
            // Optional: running the backup tool parses its section of
            // the shared file *now*, surfacing latent errors (§5.2's
            // "dangerous because some of these auxiliary tools run
            // unattended").
            "mysqldump-tool" => {
                let tree = match IniFormat::new().parse(&running.raw_config) {
                    Ok(t) => t,
                    Err(e) => return TestOutcome::failed(format!("cannot re-read my.cnf: {e}")),
                };
                match check_dump_config(tree.root()) {
                    Ok(()) => TestOutcome::Passed,
                    Err(v) => TestOutcome::failed(v.message),
                }
            }
            other => TestOutcome::failed(format!("unknown test {other:?}")),
        }
    }

    fn stop(&mut self) {
        self.running = None;
    }

    fn set_parse_caching(&mut self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    fn parse_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn schema(&self) -> Option<&'static DirectiveSchema> {
        Some(&MYSQL_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;

    fn start_with(patch: impl Fn(&mut String)) -> (MySqlSim, StartOutcome) {
        let mut sut = MySqlSim::new();
        let mut configs = default_configs(&sut);
        let text = configs.get_mut("my.cnf").unwrap();
        patch(text);
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_config_starts_and_passes_tests() {
        let (mut sut, outcome) = start_with(|_| {});
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
        assert!(sut
            .run_test("mysqldump-tool", &Deadline::unlimited())
            .passed());
        sut.stop();
        assert!(!sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn unknown_variable_in_mysqld_fails_startup() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("table_open_cache=64", "table_open_cahce=64");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("unknown variable"), "{diagnostic}");
            }
            other => panic!("expected failure, got {other}"),
        }
    }

    #[test]
    fn flaw_out_of_bounds_silently_uses_default() {
        // key_buffer_size=1 is below the minimum of 8192 but accepted.
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("key_buffer_size=16M", "key_buffer_size=1");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("key_buffer_size"), Some("8388608"));
    }

    #[test]
    fn flaw_multiplier_suffix_parsing_stops_early() {
        // "1M0" is accepted as 1 MiB although the operator likely
        // meant 10M.
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("max_allowed_packet=1M", "max_allowed_packet=1M0");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("max_allowed_packet"), Some("1048576"));
    }

    #[test]
    fn flaw_suffix_leading_value_silently_ignored() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("max_allowed_packet=1M", "max_allowed_packet=M1");
        });
        assert_eq!(outcome, StartOutcome::Started);
        // Default restored.
        assert_eq!(sut.server_var("max_allowed_packet"), Some("1048576"));
    }

    #[test]
    fn flaw_valueless_directive_accepted() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("table_open_cache=64", "table_open_cache");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("table_open_cache"), Some("64"));
    }

    #[test]
    fn flaw_tool_section_errors_are_latent() {
        // A typo in [mysqldump] does not stop the server ...
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace("quick", "qiuck");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
        // ... but surfaces when the backup tool finally runs.
        let result = sut.run_test("mysqldump-tool", &Deadline::unlimited());
        match result {
            TestOutcome::Failed { diagnostic } => {
                assert!(diagnostic.contains("unknown option"), "{diagnostic}");
            }
            TestOutcome::Passed => panic!("latent error must surface in the tool"),
        }
    }

    #[test]
    fn mixed_case_names_are_rejected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
                "Port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
            );
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn truncated_names_resolve_to_unique_prefixes() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("key_buffer_size=16M", "key_buffer=16M");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("key_buffer_size"), Some("16777216"));
    }

    #[test]
    fn dash_and_underscore_are_interchangeable() {
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("max_allowed_packet=1M", "max-allowed-packet=2M");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("max_allowed_packet"), Some("2097152"));
    }

    #[test]
    fn boolean_typos_are_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("skip-external-locking", "skip-external-locking=VES");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn enum_typos_are_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "read_buffer_size=256K",
                "default_storage_engine=InnoDV\nread_buffer_size=256K",
            );
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn datadir_typo_is_caught_at_startup() {
        // A one-character omission in a path: the directory does not
        // exist, so the daemon aborts like the real server would.
        let (_, outcome) = start_with(|t| {
            *t = t.replace("datadir=/var/lib/mysql", "datadir=/var/lib/mysq");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("Can't read dir"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn socket_file_rename_in_existing_dir_is_absorbed() {
        // The parent directory still exists; the TCP-based smoke test
        // does not notice a moved socket file.
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace(
                "port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
                "port=3306\nsocket=/var/run/mysqld/mysql.sock\ndatadir",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn port_value_typo_is_caught_by_functional_test() {
        // A digit omission keeps the value a valid port, so startup
        // succeeds; only the admin's `mysql -h 127.0.0.1` notices —
        // the paper's single functional-test detection for MySQL.
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace(
                "port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
                "port=336\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
        let result = sut.run_test("connect-and-query", &Deadline::unlimited());
        assert!(!result.passed(), "client must fail to reach port 3306");
    }

    #[test]
    fn non_numeric_port_is_caught_at_startup() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
                "port=33o6\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
            );
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn out_of_bounds_port_silently_uses_default() {
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace(
                "port=3306\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
                "port=99999999\nsocket=/var/run/mysqld/mysqld.sock\ndatadir",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("port"), Some("3306"));
        assert!(sut
            .run_test("connect-and-query", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn unknown_size_suffix_is_caught_at_startup() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("key_buffer_size=16M", "key_buffer_size=16Q");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn syntax_error_fails_startup() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("[mysqld]", "[mysqld");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn misspelled_section_name_is_silently_ignored() {
        // The whole [mysqld] section disappears; the server starts on
        // pure defaults with no complaint (latent).
        let (sut, outcome) = start_with(|t| {
            *t = t.replace("[mysqld]", "[mysqdl]");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert_eq!(sut.server_var("key_buffer_size"), Some("8388608"));
    }
}

//! The djbdns (tinydns) 1.05 simulator.
//!
//! djbdns takes the opposite stance from BIND (§5.4): its *format*
//! prevents whole classes of errors — the `=` directive defines an A
//! record and its matching PTR in one stroke, so "missing PTR" cannot
//! even be written — but its loader performs **no cross-record
//! consistency checks**: a name with both NS and CNAME data, or an MX
//! pointing at an alias, loads without complaint (Table 3: "not
//! found" for errors 3 and 4).
//!
//! The data-file syntax itself is checked (unknown record-type
//! prefixes and malformed IPv4 addresses abort startup, as
//! `tinydns-data` would).

use std::sync::Arc;

use conferr_analysis::tinydns::check_line;
use conferr_analysis::{Dialect, DirectiveSchema, DJBDNS_SCHEMA};
use conferr_formats::{tinydns_fields, ParseError, TinyDnsFormat};
use conferr_tree::ConfTree;

use crate::minidns::{QType, ZoneStore};
use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, ParseCache, StartOutcome, SystemUnderTest,
    TestOutcome,
};

const DEFAULT_DATA: &str = "\
# tinydns-data for example.com
.example.com:192.0.2.1:ns1.example.com:259200
.2.0.192.in-addr.arpa:192.0.2.1:ns1.example.com:259200
=www.example.com:192.0.2.10:86400
=mail.example.com:192.0.2.20:86400
=shell.example.com:192.0.2.30:86400
@example.com::mail.example.com:10:86400
Cftp.example.com:www.example.com:86400
Cwebmail.example.com:www.example.com:86400
'example.com:v=spf1 mx -all:300
";

#[derive(Debug)]
struct Running {
    store: Arc<ZoneStore>,
}

/// Deterministic result of parsing one `data` file's text: the loaded
/// record store (read-only while running), or the `tinydns-data`
/// diagnostic. This is what the parse cache memoizes.
type DataParse = Result<Arc<ZoneStore>, String>;

/// The djbdns/tinydns simulator. See the module docs for what its
/// loader does — and deliberately does not — check.
#[derive(Debug, Default)]
pub struct DjbdnsSim {
    running: Option<Running>,
    cache: ParseCache<DataParse>,
}

impl DjbdnsSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        DjbdnsSim::default()
    }

    /// Shared access to the loaded record store (for assertions).
    pub fn store(&self) -> Option<&ZoneStore> {
        self.running.as_ref().map(|r| r.store.as_ref())
    }

    /// The full startup path from the tinydns data file's parse: run
    /// the shared syntax check (the same `conferr_analysis::tinydns`
    /// model the static linter uses), then load every line. Pure in
    /// the text the parse was made from.
    fn parse_data(parsed: Result<&ConfTree, &ParseError>) -> DataParse {
        let tree = parsed.map_err(|e| Dialect::TinyDns.parse_failure_diagnostic(&e.to_string()))?;
        let mut store = ZoneStore::new();
        for (i, node) in tree.root().children().iter().enumerate() {
            if node.kind() != "line" {
                continue;
            }
            let ty = node.attr("type").unwrap_or("");
            let payload = node.text().unwrap_or("");
            check_line(ty, payload, i + 1).map_err(|v| v.message)?;
            Self::load_line(&mut store, ty, payload);
        }
        Ok(Arc::new(store))
    }

    fn reverse(ip: &str) -> String {
        let mut o: Vec<&str> = ip.split('.').collect();
        o.reverse();
        format!("{}.in-addr.arpa.", o.join("."))
    }

    fn dot(name: &str) -> String {
        let lower = name.to_ascii_lowercase();
        if lower.ends_with('.') {
            lower
        } else {
            format!("{lower}.")
        }
    }

    /// Expands one checked data line into the store. No consistency
    /// checks — that is the point.
    fn load_line(store: &mut ZoneStore, ty: &str, payload: &str) {
        let fields = tinydns_fields(payload);
        let f = |i: usize| fields.get(i).copied().unwrap_or("");
        match ty {
            "=" => {
                store.add_record(&Self::dot(f(0)), QType::A, vec![f(1).to_string()]);
                store.add_record(&Self::reverse(f(1)), QType::Ptr, vec![Self::dot(f(0))]);
            }
            "+" => {
                store.add_record(&Self::dot(f(0)), QType::A, vec![f(1).to_string()]);
            }
            "^" => {
                store.add_record(&Self::dot(f(0)), QType::Ptr, vec![Self::dot(f(1))]);
            }
            "C" => {
                store.add_record(&Self::dot(f(0)), QType::Cname, vec![Self::dot(f(1))]);
            }
            "@" => {
                let dist = if f(3).is_empty() { "0" } else { f(3) };
                store.add_record(
                    &Self::dot(f(0)),
                    QType::Mx,
                    vec![dist.to_string(), Self::dot(f(2))],
                );
                if !f(1).is_empty() {
                    store.add_record(&Self::dot(f(2)), QType::A, vec![f(1).to_string()]);
                }
            }
            "." | "&" => {
                let apex = Self::dot(f(0));
                store.add_record(&apex, QType::Ns, vec![Self::dot(f(2))]);
                if ty == "." {
                    store.add_zone(&apex);
                    store.add_record(
                        &apex,
                        QType::Soa,
                        vec![
                            Self::dot(f(2)),
                            format!("hostmaster.{apex}"),
                            "1".to_string(),
                        ],
                    );
                }
                if !f(1).is_empty() {
                    store.add_record(&Self::dot(f(2)), QType::A, vec![f(1).to_string()]);
                }
            }
            "'" => {
                store.add_record(&Self::dot(f(0)), QType::Txt, vec![f(1).to_string()]);
            }
            "Z" => {
                let apex = Self::dot(f(0));
                store.add_zone(&apex);
                store.add_record(
                    &apex,
                    QType::Soa,
                    vec![Self::dot(f(1)), Self::dot(f(2)), f(3).to_string()],
                );
            }
            _ => {
                // Location lines, disabled lines and generic/AAAA
                // records are accepted and ignored by this simulator;
                // unknown prefixes were already rejected by
                // `check_line`.
            }
        }
    }
}

impl SystemUnderTest for DjbdnsSim {
    fn name(&self) -> &str {
        "djbdns-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![ConfigFileSpec {
            name: "data".to_string(),
            format: "tinydns".to_string(),
            default_contents: DEFAULT_DATA.to_string(),
        }]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let Some(file) = configs.get("data") else {
            return StartOutcome::FailedToStart {
                diagnostic: "tinydns-data: fatal: unable to open data".to_string(),
            };
        };
        let parsed = self
            .cache
            .get_or_build("data", file, &TinyDnsFormat::new(), Self::parse_data);
        match parsed.as_ref() {
            Ok(store) => {
                self.running = Some(Running {
                    store: Arc::clone(store),
                });
                StartOutcome::Started
            }
            Err(diagnostic) => StartOutcome::FailedToStart {
                diagnostic: diagnostic.clone(),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        vec![
            "forward-zone-alive".to_string(),
            "reverse-zone-alive".to_string(),
        ]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_ref() else {
            return TestOutcome::failed("tinydns is not running");
        };
        let check = |apex: &str| -> TestOutcome {
            if running.store.zone_alive(apex) {
                TestOutcome::Passed
            } else {
                TestOutcome::failed(format!("SOA query for {apex} got no answer"))
            }
        };
        match test {
            "forward-zone-alive" => check("example.com."),
            "reverse-zone-alive" => check("2.0.192.in-addr.arpa."),
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
        Some(&DJBDNS_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;

    fn start_with(patch: impl Fn(&mut String)) -> (DjbdnsSim, StartOutcome) {
        let mut sut = DjbdnsSim::new();
        let mut configs = default_configs(&sut);
        patch(configs.get_mut("data").unwrap());
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_data_loads_and_answers() {
        let (mut sut, outcome) = start_with(|_| {});
        assert_eq!(outcome, StartOutcome::Started, "{outcome}");
        assert!(sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
        assert!(sut
            .run_test("reverse-zone-alive", &Deadline::unlimited())
            .passed());
        let store = sut.store().unwrap();
        assert!(store.query("www.example.com.", QType::A).found());
        assert!(store.reverse_lookup("192.0.2.10").found());
        assert!(store.query("example.com.", QType::Mx).found());
    }

    #[test]
    fn combined_directive_defines_both_a_and_ptr() {
        let (sut, _) = start_with(|_| {});
        let store = sut.store().unwrap();
        // One '=' line, two records.
        assert!(store.query("shell.example.com.", QType::A).found());
        assert!(store.reverse_lookup("192.0.2.30").found());
    }

    #[test]
    fn no_consistency_check_for_ns_and_cname_duplicate() {
        // Table 3 error 3: djbdns loads it without complaint.
        let (mut sut, outcome) = start_with(|t| {
            t.push_str("Cexample.com:www.example.com:86400\n");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn no_consistency_check_for_mx_to_cname() {
        // Table 3 error 4.
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace(
                "@example.com::mail.example.com:10:86400",
                "@example.com::ftp.example.com:10:86400",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn bad_ip_address_is_fatal() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "=www.example.com:192.0.2.10:86400",
                "=www.example.com:192.O.2.10:86400",
            );
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("bad IP address"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn unknown_prefix_is_fatal() {
        let (_, outcome) = start_with(|t| {
            t.push_str("!bogus:line\n");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn deleting_the_reverse_delegation_fails_the_functional_test() {
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace(
                ".2.0.192.in-addr.arpa:192.0.2.1:ns1.example.com:259200\n",
                "",
            );
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
        assert!(!sut
            .run_test("reverse-zone-alive", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn stopped_server_fails_tests() {
        let (mut sut, _) = start_with(|_| {});
        sut.stop();
        assert!(!sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
    }
}

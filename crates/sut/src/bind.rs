//! The ISC BIND 9.4 simulator.
//!
//! BIND's zone loader enforces cross-record consistency: a name
//! carrying both CNAME and other data (Table 3 error 3), an MX
//! exchanger that is an alias (error 4), or an NS target that is an
//! alias all abort the zone load with a diagnostic — "it stops loading
//! the zone and signals the operator the reason" (§5.4). What it does
//! *not* check is referential completeness across zones: a missing PTR
//! (error 1) or a PTR redirected at an alias (error 2) load silently,
//! which is why those rows read "not found" for BIND.
//!
//! The functional tests mirror the paper's diagnosis script: "the
//! server is answering to requests both for the forward and the
//! reverse zone" — zone-liveness SOA probes, not per-record audits.

use conferr_analysis::{Dialect, DirectiveSchema, BIND_SCHEMA};
use conferr_formats::{ParseError, ZoneFormat};
use conferr_tree::ConfTree;

use crate::minidns::{QType, ZoneStore};
use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, ParseCache, StartOutcome, SystemUnderTest,
    TestOutcome,
};

const DEFAULT_FORWARD_ZONE: &str = "\
$TTL 86400
$ORIGIN example.com.
@\tIN SOA ns1.example.com. admin.example.com. 2024010101 7200 3600 1209600 86400
@\tIN NS ns1.example.com.
@\tIN MX 10 mail.example.com.
@\tIN TXT \"v=spf1 mx -all\"
@\tIN RP admin.example.com. admin-info.example.com.
ns1\tIN A 192.0.2.1
www\tIN A 192.0.2.10
mail\tIN A 192.0.2.20
shell\tIN A 192.0.2.30
shell\tIN HINFO \"x86_64\" \"Linux\"
ftp\tIN CNAME www.example.com.
webmail\tIN CNAME www.example.com.
admin-info\tIN TXT \"Contact the admin\"
";

const DEFAULT_REVERSE_ZONE: &str = "\
$TTL 86400
$ORIGIN 2.0.192.in-addr.arpa.
@\tIN SOA ns1.example.com. admin.example.com. 2024010101 7200 3600 1209600 86400
@\tIN NS ns1.example.com.
1\tIN PTR ns1.example.com.
10\tIN PTR www.example.com.
20\tIN PTR mail.example.com.
30\tIN PTR shell.example.com.
";

#[derive(Debug)]
struct Running {
    store: ZoneStore,
}

/// Deterministic result of parsing and sanity-checking one zone
/// file's text: the zone apex and its loaded records, or the loader
/// diagnostic. Memoized per file, so an injection that mutates
/// `forward.zone` re-parses only that file while `reverse.zone` is
/// served from the cache.
type ZoneParse = Result<(String, Vec<LoadedRecord>), String>;

/// The BIND 9.4 simulator. See the module docs for which RFC-1912
/// faults its loader detects.
#[derive(Debug, Default)]
pub struct BindSim {
    running: Option<Running>,
    cache: ParseCache<ZoneParse>,
}

#[derive(Debug, Clone)]
struct LoadedRecord {
    owner: String,
    rtype: QType,
    rdata: Vec<String>,
}

impl BindSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        BindSim::default()
    }

    /// The full per-zone startup path from the master file's parse:
    /// BIND's zone sanity checks. Pure in `file` and the text the
    /// parse was made from.
    fn parse_zone(file: &str, parsed: Result<&ConfTree, &ParseError>) -> ZoneParse {
        let tree =
            parsed.map_err(|e| Dialect::BindZone.parse_failure_diagnostic(&e.to_string()))?;
        Self::load_zone(file, tree)
    }

    /// Shared access to the loaded zone store (for assertions).
    pub fn store(&self) -> Option<&ZoneStore> {
        self.running.as_ref().map(|r| &r.store)
    }

    /// Loads one zone file into records, applying BIND's per-zone
    /// sanity checks. Returns the zone apex and its records.
    fn load_zone(file: &str, tree: &ConfTree) -> Result<(String, Vec<LoadedRecord>), String> {
        let mut origin: Option<String> = None;
        let mut last_owner: Option<String> = None;
        let mut records = Vec::new();
        for node in tree.root().children() {
            match node.kind() {
                "directive" if node.attr("name") == Some("$ORIGIN") => {
                    origin = Some(normalize_abs(node.text().unwrap_or("")));
                }
                "record" => {
                    let origin_ref = origin
                        .as_deref()
                        .ok_or_else(|| format!("{file}: no $ORIGIN before first record"))?;
                    let owner_raw = node.attr("owner").unwrap_or("");
                    let owner = if owner_raw.is_empty() {
                        last_owner
                            .clone()
                            .ok_or_else(|| format!("{file}: first record lacks an owner"))?
                    } else {
                        absolutize(owner_raw, origin_ref)
                    };
                    last_owner = Some(owner.clone());
                    let rtype: QType = node
                        .attr("rtype")
                        .unwrap_or("")
                        .parse()
                        .map_err(|e: String| format!("{file}: {e}"))?;
                    let mut rdata: Vec<String> = split_ws_quoted(node.text().unwrap_or(""));
                    // Absolutize name-bearing rdata positions.
                    let positions: &[usize] = match rtype {
                        QType::Ns | QType::Cname | QType::Ptr => &[0],
                        QType::Mx => &[1],
                        QType::Soa | QType::Rp => &[0, 1],
                        _ => &[],
                    };
                    for &p in positions {
                        if let Some(tok) = rdata.get_mut(p) {
                            *tok = absolutize(tok, origin_ref);
                        }
                    }
                    records.push(LoadedRecord {
                        owner,
                        rtype,
                        rdata,
                    });
                }
                _ => {}
            }
        }
        let apex = origin.ok_or_else(|| format!("{file}: zone has no $ORIGIN"))?;
        Self::check_zone(file, &apex, &records)?;
        Ok((apex, records))
    }

    /// BIND's zone sanity checks — the detection behaviour behind
    /// Table 3's "found" rows.
    fn check_zone(file: &str, apex: &str, records: &[LoadedRecord]) -> Result<(), String> {
        let soa_count = records
            .iter()
            .filter(|r| r.rtype == QType::Soa && r.owner == *apex)
            .count();
        if soa_count == 0 {
            return Err(format!(
                "zone {apex}: loading from '{file}' failed: no SOA record"
            ));
        }
        if soa_count > 1 {
            return Err(format!("zone {apex}: has {soa_count} SOA records"));
        }
        if !records
            .iter()
            .any(|r| r.rtype == QType::Ns && r.owner == *apex)
        {
            return Err(format!("zone {apex}: has no NS records"));
        }
        let cname_owner = |name: &str| {
            records
                .iter()
                .any(|r| r.rtype == QType::Cname && r.owner == name)
        };
        for r in records {
            // CNAME and other data (covers the NS+CNAME duplicate of
            // Table 3 error 3).
            if r.rtype != QType::Cname && cname_owner(&r.owner) {
                return Err(format!(
                    "zone {apex}: {}: CNAME and other data",
                    r.owner.trim_end_matches('.')
                ));
            }
            // MX pointing at an alias (Table 3 error 4).
            if r.rtype == QType::Mx {
                if let Some(exchanger) = r.rdata.get(1) {
                    if cname_owner(exchanger) {
                        return Err(format!(
                            "zone {apex}: {}/MX '{exchanger}' is a CNAME (illegal)",
                            r.owner.trim_end_matches('.')
                        ));
                    }
                }
            }
            // NS pointing at an alias.
            if r.rtype == QType::Ns {
                if let Some(target) = r.rdata.first() {
                    if cname_owner(target) {
                        return Err(format!(
                            "zone {apex}: {}/NS '{target}' is a CNAME (illegal)",
                            r.owner.trim_end_matches('.')
                        ));
                    }
                }
            }
            // Duplicate CNAMEs at one owner.
            if r.rtype == QType::Cname {
                let n = records
                    .iter()
                    .filter(|o| o.rtype == QType::Cname && o.owner == r.owner)
                    .count();
                if n > 1 {
                    return Err(format!(
                        "zone {apex}: {}: multiple CNAME records",
                        r.owner.trim_end_matches('.')
                    ));
                }
            }
        }
        Ok(())
    }
}

fn normalize_abs(name: &str) -> String {
    let lower = name.trim().to_ascii_lowercase();
    if lower.ends_with('.') {
        lower
    } else {
        format!("{lower}.")
    }
}

fn absolutize(name: &str, origin: &str) -> String {
    let lower = name.trim().to_ascii_lowercase();
    if lower == "@" || lower.is_empty() {
        origin.to_string()
    } else if lower.ends_with('.') {
        lower
    } else {
        format!("{lower}.{origin}")
    }
}

fn split_ws_quoted(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            c if c.is_whitespace() && !in_quote => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl SystemUnderTest for BindSim {
    fn name(&self) -> &str {
        "bind-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![
            ConfigFileSpec {
                name: "forward.zone".to_string(),
                format: "zone".to_string(),
                default_contents: DEFAULT_FORWARD_ZONE.to_string(),
            },
            ConfigFileSpec {
                name: "reverse.zone".to_string(),
                format: "zone".to_string(),
                default_contents: DEFAULT_REVERSE_ZONE.to_string(),
            },
        ]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let mut store = ZoneStore::new();
        for file in ["forward.zone", "reverse.zone"] {
            let Some(file_text) = configs.get(file) else {
                return StartOutcome::FailedToStart {
                    diagnostic: format!("could not open zone file '{file}'"),
                };
            };
            let parsed = self
                .cache
                .get_or_build(file, file_text, &ZoneFormat::new(), |parsed| {
                    Self::parse_zone(file, parsed)
                });
            match parsed.as_ref() {
                Ok((apex, records)) => {
                    store.add_zone(apex);
                    for r in records {
                        store.add_record(&r.owner, r.rtype, r.rdata.clone());
                    }
                }
                Err(diagnostic) => {
                    return StartOutcome::FailedToStart {
                        diagnostic: diagnostic.clone(),
                    }
                }
            }
        }
        self.running = Some(Running { store });
        StartOutcome::Started
    }

    fn test_names(&self) -> Vec<String> {
        vec![
            "forward-zone-alive".to_string(),
            "reverse-zone-alive".to_string(),
        ]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_ref() else {
            return TestOutcome::failed("named is not running");
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
        Some(&BIND_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;
    use crate::minidns::QType;
    use std::collections::BTreeMap;

    fn start_with(patch: impl Fn(&mut BTreeMap<String, String>)) -> (BindSim, StartOutcome) {
        let mut sut = BindSim::new();
        let mut configs = default_configs(&sut);
        patch(&mut configs);
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_zones_load_and_answer() {
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
        // CNAME chasing through the alias.
        assert!(store.query("ftp.example.com.", QType::A).found());
    }

    #[test]
    fn missing_ptr_is_not_detected() {
        // Table 3 row 1: BIND loads fine and the zone-liveness tests
        // pass; only the specific reverse query would notice.
        let (mut sut, outcome) = start_with(|c| {
            let z = c.get_mut("reverse.zone").unwrap();
            *z = z.replace("10\tIN PTR www.example.com.\n", "");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("forward-zone-alive", &Deadline::unlimited())
            .passed());
        assert!(sut
            .run_test("reverse-zone-alive", &Deadline::unlimited())
            .passed());
        assert!(!sut.store().unwrap().reverse_lookup("192.0.2.10").found());
    }

    #[test]
    fn ptr_to_cname_is_not_detected() {
        // Table 3 row 2.
        let (mut sut, outcome) = start_with(|c| {
            let z = c.get_mut("reverse.zone").unwrap();
            *z = z.replace("10\tIN PTR www.example.com.", "10\tIN PTR ftp.example.com.");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(sut
            .run_test("reverse-zone-alive", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn ns_and_cname_duplicate_is_detected() {
        // Table 3 row 3: "it stops loading the zone".
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            z.push_str("@\tIN CNAME www.example.com.\n");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("CNAME and other data"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn mx_to_cname_is_detected() {
        // Table 3 row 4.
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            *z = z.replace(
                "@\tIN MX 10 mail.example.com.",
                "@\tIN MX 10 ftp.example.com.",
            );
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("is a CNAME"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn ns_to_cname_is_detected() {
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            *z = z.replace("@\tIN NS ns1.example.com.", "@\tIN NS ftp.example.com.");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn missing_soa_is_detected() {
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            *z = z
                .lines()
                .filter(|l| !l.contains("SOA"))
                .collect::<Vec<_>>()
                .join("\n")
                + "\n";
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("no SOA"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn duplicate_cname_is_detected() {
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            z.push_str("ftp\tIN CNAME mail.example.com.\n");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn zone_syntax_error_is_detected() {
        let (_, outcome) = start_with(|c| {
            let z = c.get_mut("forward.zone").unwrap();
            *z = z.replace("IN MX 10", "IN MXX 10");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn deleting_the_whole_reverse_zone_file_fails() {
        let (_, outcome) = start_with(|c| {
            c.remove("reverse.zone");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }
}

//! An XML-configured application server (extension beyond the paper's
//! five case studies).
//!
//! The paper's ConfErr "currently supports … generic XML configuration
//! files" as input (§3.2) but never evaluates an XML-configured
//! system. This simulator closes that gap: a Tomcat-style server
//! whose `server.xml` nests connectors, engines, hosts and contexts.
//! Its validation discipline sits between Postgres and Apache:
//!
//! * unknown elements and malformed attribute syntax abort startup;
//! * connector ports are strictly parsed, range-checked and must be
//!   unique;
//! * the engine's `default-host` must name a declared host — a
//!   cross-element constraint;
//! * context paths must be absolute (`/shop`);
//! * everything else (application base paths, display names) is
//!   accepted free-form.

use std::sync::Arc;

use conferr_analysis::{Dialect, DirectiveSchema, APPSERVER_SCHEMA};
use conferr_formats::{xml_parse_attrs, ParseError, XmlFormat};
use conferr_tree::{ConfTree, Node};

use crate::{
    CacheStats, ConfigFileSpec, ConfigPayload, Deadline, ParseCache, StartOutcome, SystemUnderTest,
    TestOutcome,
};

const DEFAULT_SERVER_XML: &str = r#"<?xml version="1.0"?>
<server port="8005" shutdown="SHUTDOWN">
  <service name="main">
    <connector port="8080" protocol="HTTP/1.1" timeout="20000"/>
    <connector port="8443" protocol="HTTPS/1.1" timeout="20000"/>
    <engine name="standalone" default-host="localhost">
      <host name="localhost" app-base="/srv/webapps">
        <context path="/shop" doc-base="shop"/>
        <context path="/api" doc-base="api"/>
      </host>
    </engine>
  </service>
</server>
"#;

/// Elements the server understands, with their allowed parents.
const SCHEMA: &[(&str, &str)] = &[
    ("server", ""),
    ("service", "server"),
    ("connector", "service"),
    ("engine", "service"),
    ("host", "engine"),
    ("context", "host"),
];

const PROTOCOLS: &[&str] = &["HTTP/1.1", "HTTPS/1.1", "AJP/1.3"];

/// The port the admin smoke test probes.
const PROBE_PORT: u16 = 8080;
const PROBE_CONTEXT: &str = "/shop";

#[derive(Debug, Default)]
struct Running {
    connector_ports: Vec<u16>,
    contexts: Vec<String>,
}

/// Deterministic result of parsing and validating one `server.xml`
/// text: the validated deployment state (read-only while running), or
/// the startup diagnostic. This is what the parse cache memoizes.
type ServerStartup = Result<Arc<Running>, String>;

/// The XML-configured application-server simulator.
#[derive(Debug, Default)]
pub struct AppServerSim {
    running: Option<Arc<Running>>,
    cache: ParseCache<ServerStartup>,
}

impl AppServerSim {
    /// Creates a stopped simulator.
    pub fn new() -> Self {
        AppServerSim::default()
    }

    /// The full startup path from `server.xml`'s parse: validate every
    /// element against the schema, enforce the cross-element
    /// constraints. Pure in the configuration text the parse was made
    /// from.
    fn parse_and_validate(parsed: Result<&ConfTree, &ParseError>) -> ServerStartup {
        let tree =
            parsed.map_err(|e| Dialect::AppServerXml.parse_failure_diagnostic(&e.to_string()))?;
        let mut state = Running::default();
        let mut hosts = Vec::new();
        let mut default_hosts = Vec::new();
        for child in tree.root().children() {
            Self::validate_element(child, "", &mut state, &mut hosts, &mut default_hosts)?;
        }
        if state.connector_ports.is_empty() {
            return Err("no <connector> elements: nothing to listen on".to_string());
        }
        // Cross-element constraint: the engine's default host must be
        // declared.
        for dh in &default_hosts {
            if !hosts.iter().any(|h| h.eq_ignore_ascii_case(dh)) {
                return Err(format!(
                    "<engine default-host=\"{dh}\"> does not match any declared <host>"
                ));
            }
        }
        Ok(Arc::new(state))
    }

    fn attrs_of(node: &Node) -> Result<Vec<(String, String)>, String> {
        xml_parse_attrs(node.attr("raw_attrs").unwrap_or("")).map_err(|e| {
            format!(
                "attribute syntax error in <{}>: {e}",
                node.attr("tag").unwrap_or("?")
            )
        })
    }

    fn attr<'a>(attrs: &'a [(String, String)], key: &str) -> Option<&'a str> {
        attrs
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    fn parse_port(value: &str, element: &str) -> Result<u16, String> {
        value
            .trim()
            .parse::<u16>()
            .ok()
            .filter(|p| *p > 0)
            .ok_or_else(|| format!("<{element}>: invalid port \"{value}\""))
    }

    fn validate_element(
        node: &Node,
        parent_tag: &str,
        state: &mut Running,
        hosts: &mut Vec<String>,
        default_hosts: &mut Vec<String>,
    ) -> Result<(), String> {
        if node.kind() != "element" {
            return Ok(());
        }
        let tag = node.attr("tag").unwrap_or("").to_ascii_lowercase();
        let Some((_, expected_parent)) = SCHEMA.iter().find(|(t, _)| *t == tag) else {
            return Err(format!("unknown element <{tag}>"));
        };
        if *expected_parent != parent_tag {
            return Err(format!(
                "element <{tag}> is not allowed inside <{parent_tag}>"
            ));
        }
        let attrs = Self::attrs_of(node)?;
        match tag.as_str() {
            "server" => {
                let port = Self::attr(&attrs, "port")
                    .ok_or_else(|| "<server> requires a port attribute".to_string())?;
                Self::parse_port(port, "server")?;
            }
            "connector" => {
                let port = Self::attr(&attrs, "port")
                    .ok_or_else(|| "<connector> requires a port attribute".to_string())?;
                let port = Self::parse_port(port, "connector")?;
                if state.connector_ports.contains(&port) {
                    return Err(format!("duplicate connector port {port}"));
                }
                if let Some(proto) = Self::attr(&attrs, "protocol") {
                    if !PROTOCOLS.iter().any(|p| p.eq_ignore_ascii_case(proto)) {
                        return Err(format!("<connector>: unknown protocol \"{proto}\""));
                    }
                }
                if let Some(timeout) = Self::attr(&attrs, "timeout") {
                    if timeout.trim().parse::<u64>().is_err() {
                        return Err(format!("<connector>: invalid timeout \"{timeout}\""));
                    }
                }
                state.connector_ports.push(port);
            }
            "engine" => {
                if let Some(dh) = Self::attr(&attrs, "default-host") {
                    default_hosts.push(dh.to_string());
                }
            }
            "host" => {
                let name = Self::attr(&attrs, "name")
                    .ok_or_else(|| "<host> requires a name attribute".to_string())?;
                hosts.push(name.to_string());
            }
            "context" => {
                let path = Self::attr(&attrs, "path")
                    .ok_or_else(|| "<context> requires a path attribute".to_string())?;
                if !path.starts_with('/') {
                    return Err(format!("<context>: path \"{path}\" must start with '/'"));
                }
                state.contexts.push(path.to_string());
            }
            _ => {}
        }
        for child in node.children() {
            Self::validate_element(child, &tag, state, hosts, default_hosts)?;
        }
        Ok(())
    }
}

impl SystemUnderTest for AppServerSim {
    fn name(&self) -> &str {
        "appserver-sim"
    }

    fn config_files(&self) -> Vec<ConfigFileSpec> {
        vec![ConfigFileSpec {
            name: "server.xml".to_string(),
            format: "xml".to_string(),
            default_contents: DEFAULT_SERVER_XML.to_string(),
        }]
    }

    fn start(&mut self, configs: &ConfigPayload, _deadline: &Deadline) -> StartOutcome {
        self.running = None;
        let Some(file) = configs.get("server.xml") else {
            return StartOutcome::FailedToStart {
                diagnostic: "cannot open server.xml".to_string(),
            };
        };
        let startup = self.cache.get_or_build(
            "server.xml",
            file,
            &XmlFormat::new(),
            Self::parse_and_validate,
        );
        match startup.as_ref() {
            Ok(state) => {
                self.running = Some(Arc::clone(state));
                StartOutcome::Started
            }
            Err(diagnostic) => StartOutcome::FailedToStart {
                diagnostic: diagnostic.clone(),
            },
        }
    }

    fn test_names(&self) -> Vec<String> {
        vec!["deploy-check".to_string()]
    }

    fn run_test(&mut self, test: &str, _deadline: &Deadline) -> TestOutcome {
        let Some(running) = self.running.as_ref() else {
            return TestOutcome::failed("server is not running");
        };
        match test {
            "deploy-check" => {
                if !running.connector_ports.contains(&PROBE_PORT) {
                    return TestOutcome::failed(format!(
                        "connection refused on port {PROBE_PORT} (connectors: {:?})",
                        running.connector_ports
                    ));
                }
                if !running.contexts.iter().any(|c| c == PROBE_CONTEXT) {
                    return TestOutcome::failed(format!(
                        "GET {PROBE_CONTEXT} returned 404 (contexts: {:?})",
                        running.contexts
                    ));
                }
                TestOutcome::Passed
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
        Some(&APPSERVER_SCHEMA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_configs;

    fn start_with(patch: impl Fn(&mut String)) -> (AppServerSim, StartOutcome) {
        let mut sut = AppServerSim::new();
        let mut configs = default_configs(&sut);
        patch(configs.get_mut("server.xml").unwrap());
        let outcome = sut.start(&ConfigPayload::from_texts(&configs), &Deadline::unlimited());
        (sut, outcome)
    }

    #[test]
    fn default_config_starts_and_deploys() {
        let (mut sut, outcome) = start_with(|_| {});
        assert_eq!(outcome, StartOutcome::Started, "{outcome}");
        assert!(sut
            .run_test("deploy-check", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn unknown_element_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("<connector ", "<conector ");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn misplaced_element_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace(
                "<context path=\"/api\" doc-base=\"api\"/>\n      </host>",
                "</host>\n      <context path=\"/api\" doc-base=\"api\"/>",
            );
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(diagnostic.contains("not allowed inside"), "{diagnostic}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn port_garbage_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("port=\"8080\"", "port=\"8o80\"");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn valid_but_wrong_port_caught_by_functional_test() {
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace("port=\"8080\"", "port=\"8081\"");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(!sut
            .run_test("deploy-check", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn duplicate_connector_ports_are_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("port=\"8443\"", "port=\"8080\"");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(
                    diagnostic.contains("duplicate connector port"),
                    "{diagnostic}"
                );
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn default_host_cross_reference_is_checked() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("default-host=\"localhost\"", "default-host=\"localhots\"");
        });
        match outcome {
            StartOutcome::FailedToStart { diagnostic } => {
                assert!(
                    diagnostic.contains("does not match any declared"),
                    "{diagnostic}"
                );
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn relative_context_path_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("path=\"/shop\"", "path=\"shop\"");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn context_typo_caught_by_functional_test() {
        let (mut sut, outcome) = start_with(|t| {
            *t = t.replace("path=\"/shop\"", "path=\"/shpo\"");
        });
        assert_eq!(outcome, StartOutcome::Started);
        assert!(!sut
            .run_test("deploy-check", &Deadline::unlimited())
            .passed());
    }

    #[test]
    fn unknown_protocol_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("HTTP/1.1", "HTPT/1.1");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }

    #[test]
    fn freeform_attributes_are_absorbed() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("app-base=\"/srv/webapps\"", "app-base=\"srv/webapps!!\"");
        });
        assert_eq!(outcome, StartOutcome::Started);
    }

    #[test]
    fn malformed_xml_is_detected() {
        let (_, outcome) = start_with(|t| {
            *t = t.replace("</server>", "</servre>");
        });
        assert!(matches!(outcome, StartOutcome::FailedToStart { .. }));
    }
}

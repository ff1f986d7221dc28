//! Apache httpd 2.2 dialect model, extracted from the simulator.
//!
//! Apache is the paper's laxest parser, and the registry encodes the
//! asymmetry faithfully: unknown directive names, bad integers, bad
//! keywords, bad `Listen` ports, duplicate listeners and `Order`
//! grammar errors are startup failures, while `AddType`,
//! `ServerAdmin`, `ServerName` and friends accept free-form strings.
//! The decision functions are shared verbatim with `conferr-sut`'s
//! `ApacheSim`; [`startup_model`] additionally replays the service
//! construction (listen sockets, document roots, virtual hosts) to
//! predict startup *warnings* and give the linter a semantic
//! fingerprint of everything the `http-get` probe can observe.

use std::collections::BTreeMap;

use conferr_tree::Node;

use crate::value::parse_int_strict;
use crate::verdict::{ValidationClass, Violation};

/// How a directive's arguments are validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgRule {
    /// Any argument string is accepted (the paper's lax cases).
    Lax,
    /// Single strictly parsed integer.
    Int,
    /// First argument must be one of these keywords
    /// (case-insensitive).
    Keyword(&'static [&'static str]),
    /// `Listen`: `port` or `address:port` with a numeric port.
    Listen,
    /// `Allow`/`Deny`: first argument must be `from`.
    FromList,
    /// `Order`: one of the fixed orderings.
    Order,
}

const ON_OFF: &[&str] = &["On", "Off"];

/// Directive registry: name (canonical case) → argument rule.
pub const REGISTRY: &[(&str, ArgRule)] = &[
    ("ServerRoot", ArgRule::Lax),
    ("PidFile", ArgRule::Lax),
    ("Timeout", ArgRule::Int),
    ("KeepAlive", ArgRule::Keyword(ON_OFF)),
    ("MaxKeepAliveRequests", ArgRule::Int),
    ("KeepAliveTimeout", ArgRule::Int),
    ("StartServers", ArgRule::Int),
    ("MinSpareServers", ArgRule::Int),
    ("MaxSpareServers", ArgRule::Int),
    ("ServerLimit", ArgRule::Int),
    ("MaxClients", ArgRule::Int),
    ("MaxRequestsPerChild", ArgRule::Int),
    ("Listen", ArgRule::Listen),
    ("NameVirtualHost", ArgRule::Lax),
    ("User", ArgRule::Lax),
    ("Group", ArgRule::Lax),
    // Paper §5.2: ServerAdmin should take a URL/email but accepts
    // free-form strings.
    ("ServerAdmin", ArgRule::Lax),
    // Paper §5.2: ServerName should take a DNS name but accepts
    // anything.
    ("ServerName", ArgRule::Lax),
    ("UseCanonicalName", ArgRule::Keyword(&["On", "Off", "DNS"])),
    ("DocumentRoot", ArgRule::Lax),
    ("DirectoryIndex", ArgRule::Lax),
    ("AccessFileName", ArgRule::Lax),
    ("TypesConfig", ArgRule::Lax),
    // Paper §5.2: DefaultType/AddType should validate RFC-2045
    // type/subtype but accept free-form strings.
    ("DefaultType", ArgRule::Lax),
    ("AddType", ArgRule::Lax),
    (
        "HostnameLookups",
        ArgRule::Keyword(&["On", "Off", "Double"]),
    ),
    ("ErrorLog", ArgRule::Lax),
    (
        "LogLevel",
        ArgRule::Keyword(&[
            "debug", "info", "notice", "warn", "error", "crit", "alert", "emerg",
        ]),
    ),
    ("LogFormat", ArgRule::Lax),
    ("CustomLog", ArgRule::Lax),
    ("ServerSignature", ArgRule::Keyword(&["On", "Off", "EMail"])),
    (
        "ServerTokens",
        ArgRule::Keyword(&[
            "Full",
            "OS",
            "Minimal",
            "Minor",
            "Major",
            "Prod",
            "ProductOnly",
        ]),
    ),
    ("Alias", ArgRule::Lax),
    ("ScriptAlias", ArgRule::Lax),
    ("IndexOptions", ArgRule::Lax),
    ("AddIconByEncoding", ArgRule::Lax),
    ("AddIconByType", ArgRule::Lax),
    ("AddIcon", ArgRule::Lax),
    ("DefaultIcon", ArgRule::Lax),
    ("ReadmeName", ArgRule::Lax),
    ("HeaderName", ArgRule::Lax),
    ("IndexIgnore", ArgRule::Lax),
    ("AddLanguage", ArgRule::Lax),
    ("LanguagePriority", ArgRule::Lax),
    ("ForceLanguagePriority", ArgRule::Lax),
    ("AddDefaultCharset", ArgRule::Lax),
    ("AddHandler", ArgRule::Lax),
    ("AddOutputFilter", ArgRule::Lax),
    ("EnableMMAP", ArgRule::Keyword(ON_OFF)),
    ("EnableSendfile", ArgRule::Keyword(ON_OFF)),
    ("ExtendedStatus", ArgRule::Keyword(ON_OFF)),
    ("ContentDigest", ArgRule::Keyword(ON_OFF)),
    ("BrowserMatch", ArgRule::Lax),
    ("SetEnvIf", ArgRule::Lax),
    ("ErrorDocument", ArgRule::Lax),
    ("FileETag", ArgRule::Lax),
    ("Options", ArgRule::Lax),
    ("AllowOverride", ArgRule::Lax),
    ("Order", ArgRule::Order),
    ("Allow", ArgRule::FromList),
    ("Deny", ArgRule::FromList),
    ("UserDir", ArgRule::Lax),
];

/// Section (container) names Apache accepts.
pub const SECTIONS: &[&str] = &[
    "Directory",
    "DirectoryMatch",
    "Files",
    "FilesMatch",
    "Location",
    "LocationMatch",
    "VirtualHost",
    "IfModule",
    "IfDefine",
    "LimitExcept",
];

/// The files baked into the simulated host's filesystem — the model
/// behind the `DocumentRoot ... does not exist` startup warning.
pub const FS_FILES: &[&str] = &[
    "/var/www/html/index.html",
    "/var/www/html/logo.png",
    "/var/www/docs/index.html",
    "/var/www/docs/manual/intro.html",
    "/var/www/icons/unknown.gif",
    "/var/www/cgi-bin/status",
];

/// Replays `VirtualFs::dir_exists` over [`FS_FILES`]: some file lives
/// under `dir` (with or without its trailing `/`).
pub fn fs_dir_exists(dir: &str) -> bool {
    FS_FILES.iter().any(|p| {
        p.strip_prefix(dir)
            .is_some_and(|rest| dir.ends_with('/') || rest.starts_with('/'))
    })
}

/// Apache name resolution: case-insensitive, exact (no truncation).
/// Returns the lowercase canonical spelling.
pub fn canonical_name(raw: &str) -> String {
    raw.to_ascii_lowercase()
}

/// Looks up the argument rule for a directive name.
pub fn rule_for(name: &str) -> Option<&'static ArgRule> {
    REGISTRY
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, r)| r)
}

/// Validates one directive node against the registry.
///
/// # Errors
///
/// A [`Violation`] carrying the verbatim `httpd` startup diagnostic.
pub fn check_directive(node: &Node) -> Result<(), Violation> {
    let name = node.attr("name").unwrap_or("");
    let args = node.text().unwrap_or("");
    let Some(rule) = rule_for(name) else {
        return Err(Violation::new(
            canonical_name(name),
            ValidationClass::UnknownDirective,
            format!(
                "Invalid command '{name}', perhaps misspelled or defined by a module not \
                 included in the server configuration"
            ),
        ));
    };
    let first = args.split_whitespace().next().unwrap_or("");
    let invalid = |message: String| {
        Err(Violation::new(
            canonical_name(name),
            ValidationClass::InvalidValue,
            message,
        ))
    };
    match rule {
        ArgRule::Lax => Ok(()),
        ArgRule::Int => match parse_int_strict(args) {
            Some(v) if v >= 0 => Ok(()),
            _ => invalid(format!(
                "{name} requires a non-negative integer, got \"{args}\""
            )),
        },
        ArgRule::Keyword(options) => {
            if options.iter().any(|o| o.eq_ignore_ascii_case(first)) {
                Ok(())
            } else {
                invalid(format!("{name} must be one of {options:?}, got \"{args}\""))
            }
        }
        ArgRule::Listen => {
            let port_part = first.rsplit(':').next().unwrap_or("");
            match parse_int_strict(port_part) {
                Some(p) if (1..=65535).contains(&p) => Ok(()),
                _ => invalid(format!(
                    "Listen requires a port number or address:port, got \"{args}\""
                )),
            }
        }
        ArgRule::FromList => {
            if first.eq_ignore_ascii_case("from") {
                Ok(())
            } else {
                invalid(format!(
                    "{name} takes 'from' followed by hosts, got \"{args}\""
                ))
            }
        }
        ArgRule::Order => {
            let ok = ["allow,deny", "deny,allow", "mutual-failure"]
                .iter()
                .any(|o| o.eq_ignore_ascii_case(first));
            if ok {
                Ok(())
            } else {
                invalid(format!("unknown order \"{args}\""))
            }
        }
    }
}

/// Recursively validates every directive and section name.
///
/// # Errors
///
/// The first [`Violation`], in document order — the same order the
/// simulator reports.
pub fn validate_tree(node: &Node) -> Result<(), Violation> {
    for child in node.children() {
        match child.kind() {
            "directive" => check_directive(child)?,
            "section" => {
                let name = child.attr("name").unwrap_or("");
                if !SECTIONS.iter().any(|s| s.eq_ignore_ascii_case(name)) {
                    return Err(Violation::new(
                        canonical_name(name),
                        ValidationClass::UnknownDirective,
                        format!(
                            "Invalid command '<{name}', perhaps misspelled or defined by a \
                             module not included in the server configuration"
                        ),
                    ));
                }
                validate_tree(child)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// One `<VirtualHost>` in the startup model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VHostModel {
    /// `ServerName`, when declared.
    pub server_name: Option<String>,
    /// Effective document root (falls back to the main server's).
    pub doc_root: String,
    /// URL-prefix → filesystem-prefix aliases declared inside.
    pub aliases: Vec<(String, String)>,
    /// The `address:port` pattern from the section header.
    pub addr_pattern: String,
}

/// Everything `httpd` derives from the configuration at startup: the
/// service shape the `http-get` probe observes, plus the warnings it
/// logs on the way. Field order mirrors the simulator's construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartupModel {
    /// Warnings logged during startup, in order.
    pub warnings: Vec<String>,
    /// Ports the server listens on, in configuration order.
    pub listen_ports: Vec<u16>,
    /// Main-server document root.
    pub main_doc_root: String,
    /// Directory index file name.
    pub directory_index: String,
    /// `DefaultType` fallback.
    pub default_type: String,
    /// Extension (without dot) → MIME type.
    pub mime_types: BTreeMap<String, String>,
    /// Main-server aliases.
    pub main_aliases: Vec<(String, String)>,
    /// Virtual hosts, in configuration order.
    pub vhosts: Vec<VHostModel>,
}

fn directive_args<'n>(node: &'n Node, name: &str) -> Option<&'n str> {
    node.children_of_kind("directive")
        .find(|d| d.attr("name").is_some_and(|n| n.eq_ignore_ascii_case(name)))
        .and_then(|d| d.text())
}

fn collect_aliases(node: &Node) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for d in node.children_of_kind("directive") {
        let name = d.attr("name").unwrap_or("");
        if name.eq_ignore_ascii_case("Alias") || name.eq_ignore_ascii_case("ScriptAlias") {
            let mut args = d.text().unwrap_or("").split_whitespace();
            if let (Some(url), Some(path), None) = (args.next(), args.next(), args.next()) {
                out.push((url.to_string(), path.to_string()));
            }
        }
    }
    out
}

/// Replays `httpd`'s service construction over a *validated* tree:
/// fatal checks (bad listen port, duplicate listeners, no listeners)
/// and warnings (VirtualHost without ServerName, missing main
/// DocumentRoot) in exactly the simulator's order.
///
/// # Errors
///
/// The first fatal [`Violation`], byte-identical to the simulator's
/// startup diagnostic.
pub fn startup_model(root: &Node) -> Result<StartupModel, Violation> {
    let mut warnings = Vec::new();
    let mut listen_ports: Vec<u16> = Vec::new();
    let mut mime_types = BTreeMap::new();
    let mut main_doc_root = "/var/www/html".to_string();
    let mut directory_index = "index.html".to_string();
    let mut default_type = "text/plain".to_string();
    for d in root.children_of_kind("directive") {
        let name = d.attr("name").unwrap_or("");
        let args = d.text().unwrap_or("");
        if name.eq_ignore_ascii_case("Listen") {
            let port_part = args
                .split_whitespace()
                .next()
                .unwrap_or("")
                .rsplit(':')
                .next()
                .unwrap_or("");
            let port: u16 = port_part.parse().map_err(|_| {
                Violation::new(
                    "listen",
                    ValidationClass::InvalidValue,
                    format!("Listen port \"{port_part}\" is not a valid port"),
                )
            })?;
            if listen_ports.contains(&port) {
                return Err(Violation::new(
                    "listen",
                    ValidationClass::DuplicateListen,
                    format!(
                        "(98)Address already in use: make_sock: could not bind to \
                         address [::]:{port}"
                    ),
                ));
            }
            listen_ports.push(port);
        } else if name.eq_ignore_ascii_case("DocumentRoot") {
            main_doc_root = args.trim().trim_matches('"').to_string();
        } else if name.eq_ignore_ascii_case("DirectoryIndex") {
            if let Some(first) = args.split_whitespace().next() {
                directory_index = first.to_string();
            }
        } else if name.eq_ignore_ascii_case("DefaultType") {
            default_type = args.trim().to_string();
        } else if name.eq_ignore_ascii_case("AddType") {
            let mut toks = args.split_whitespace();
            if let Some(mime) = toks.next() {
                for ext in toks {
                    mime_types.insert(ext.trim_start_matches('.').to_string(), mime.to_string());
                }
            }
        }
    }
    let main_aliases = collect_aliases(root);
    let mut vhosts = Vec::new();
    for section in root.children_of_kind("section") {
        if !section
            .attr("name")
            .is_some_and(|n| n.eq_ignore_ascii_case("VirtualHost"))
        {
            continue;
        }
        let server_name = directive_args(section, "ServerName").map(|s| s.trim().to_string());
        if server_name.is_none() {
            // The common mistake called out in §2.2: a VirtualHost
            // without its ServerName.
            warnings.push(format!(
                "NameVirtualHost {}: VirtualHost has no ServerName; requests may be \
                 misrouted",
                section.attr("args").unwrap_or("*:80")
            ));
        }
        let doc_root = directive_args(section, "DocumentRoot").map_or_else(
            || main_doc_root.clone(),
            |s| s.trim().trim_matches('"').to_string(),
        );
        vhosts.push(VHostModel {
            server_name,
            doc_root,
            aliases: collect_aliases(section),
            addr_pattern: section.attr("args").unwrap_or("*:80").to_string(),
        });
    }
    if listen_ports.is_empty() {
        return Err(Violation::new(
            "listen",
            ValidationClass::NoListenSockets,
            "no listening sockets available, shutting down",
        ));
    }
    if !fs_dir_exists(&main_doc_root) {
        warnings.push(format!(
            "Warning: DocumentRoot [{main_doc_root}] does not exist"
        ));
    }
    Ok(StartupModel {
        warnings,
        listen_ports,
        main_doc_root,
        directory_index,
        default_type,
        mime_types,
        main_aliases,
        vhosts,
    })
}

/// The semantic fingerprint the linter compares against the baseline:
/// the full startup model (service shape *and* warnings) determines
/// both the start outcome and the `http-get` probe's response.
///
/// # Errors
///
/// The first fatal [`Violation`], when validation fails.
pub fn fingerprint(root: &Node) -> Result<StartupModel, Violation> {
    validate_tree(root)?;
    startup_model(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_formats::{ApacheFormat, ConfigFormat};
    use conferr_tree::ConfTree;

    fn parse(text: &str) -> ConfTree {
        ApacheFormat::new().parse(text).expect("fixture parses")
    }

    #[test]
    fn unknown_directive_is_invalid_command() {
        let tree = parse("KeepAlvie On\nListen 80\n");
        let err = validate_tree(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::UnknownDirective);
        assert!(err.message.starts_with("Invalid command 'KeepAlvie'"));
    }

    #[test]
    fn duplicate_listen_is_fatal_in_the_model() {
        let tree = parse("Listen 80\nListen 80\n");
        assert!(validate_tree(tree.root()).is_ok());
        let err = startup_model(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::DuplicateListen);
        assert!(err.message.contains("Address already in use"));
    }

    #[test]
    fn missing_listen_is_fatal_in_the_model() {
        let tree = parse("Timeout 120\n");
        let err = startup_model(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::NoListenSockets);
    }

    #[test]
    fn missing_docroot_warns() {
        let tree = parse("Listen 80\nDocumentRoot /var/www/htm\n");
        let model = startup_model(tree.root()).expect("starts");
        assert_eq!(
            model.warnings,
            vec!["Warning: DocumentRoot [/var/www/htm] does not exist".to_string()]
        );
        assert!(fs_dir_exists("/var/www/html"));
        assert!(!fs_dir_exists("/var/www/htm"));
    }

    #[test]
    fn vhost_without_servername_warns() {
        let tree =
            parse("Listen 80\n<VirtualHost *:80>\nDocumentRoot /var/www/html\n</VirtualHost>\n");
        let model = startup_model(tree.root()).expect("starts");
        assert!(model.warnings[0].contains("no ServerName"));
        assert_eq!(model.vhosts.len(), 1);
    }

    #[test]
    fn fingerprint_ignores_comment_churn_but_sees_listen_changes() {
        let a = parse("# a\nListen 80\nServerName www.example.com\n");
        let b = parse("# b\nListen 80\nServerName www.example.com\n");
        assert_eq!(
            fingerprint(a.root()).unwrap(),
            fingerprint(b.root()).unwrap()
        );
        let c = parse("Listen 81\nServerName www.example.com\n");
        assert_ne!(
            fingerprint(a.root()).unwrap(),
            fingerprint(c.root()).unwrap()
        );
    }
}

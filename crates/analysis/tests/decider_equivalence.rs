//! The dialect deciders against the deciders they replaced.
//!
//! `reference` below is a copy of the earlier mysql, postgres and
//! apache deciders: resolved variables as `BTreeMap<String, String>`,
//! fingerprints as `Debug` strings, and the value parsers and prefix
//! lookup they used. For the mysql, postgres and apache default
//! configurations under random typo, delete and value mutations, and
//! under the Table 1 fault classes (every directive deleted, every
//! keyboard typo of every directive's name and value), the current
//! deciders must agree with the reference:
//!
//! - both return `Ok` or both `Err`, and on `Err` the same
//!   [`Violation`];
//! - every registry name resolves to the same value;
//! - the typed fingerprint equals the default configuration's exactly
//!   when the reference fingerprint string equals the default's.

use std::path::Path;

use conferr_analysis::value::{self, ResolvedVars};
use conferr_analysis::{apache, mysql, postgres, Violation};
use conferr_formats::{ApacheFormat, ConfigFormat, IniFormat, KvFormat};
use conferr_keyboard::Keyboard;
use conferr_plugins::{typos_of_kind, ALL_TYPO_KINDS};
use conferr_tree::{ConfTree, Node, TreePath};
use proptest::prelude::*;

mod reference {
    use std::collections::BTreeMap;

    use conferr_analysis::apache::{validate_tree, StartupModel, VHostModel, FS_FILES};
    use conferr_analysis::mysql::{path_is_valid, DUMP_REGISTRY, PATH_DIRECTIVES, SERVER_REGISTRY};
    use conferr_analysis::postgres::REGISTRY;
    use conferr_analysis::value::{DirectiveSpec, MySqlParse, PrefixError, ValueType};
    use conferr_analysis::{ValidationClass, Violation};
    use conferr_tree::Node;

    pub fn parse_int_strict(s: &str) -> Option<i64> {
        let t = s.trim();
        if t.is_empty() {
            return None;
        }
        t.parse::<i64>().ok()
    }

    pub fn parse_int_prefix(s: &str) -> Option<i64> {
        let t = s.trim();
        let (sign, rest) = match t.strip_prefix('-') {
            Some(r) => (-1i64, r),
            None => (1, t.strip_prefix('+').unwrap_or(t)),
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return None;
        }
        digits.parse::<i64>().ok().map(|v| sign * v)
    }

    pub fn parse_size_strict(s: &str) -> Option<u64> {
        let t = s.trim();
        let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return None;
        }
        let value: u64 = digits.parse().ok()?;
        let suffix = &t[digits.len()..];
        let multiplier = match suffix.to_ascii_lowercase().as_str() {
            "" => 1,
            "k" | "kb" => 1024,
            "m" | "mb" => 1024 * 1024,
            "g" | "gb" => 1024 * 1024 * 1024,
            _ => return None,
        };
        value.checked_mul(multiplier)
    }

    pub fn parse_size_mysql(s: &str) -> MySqlParse {
        let t = s.trim();
        let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return match t.chars().next().map(|c| c.to_ascii_lowercase()) {
                Some('k' | 'm' | 'g') => MySqlParse::SilentDefault,
                _ => MySqlParse::Invalid,
            };
        }
        let Ok(value) = digits.parse::<u64>() else {
            return MySqlParse::Invalid;
        };
        let mul = |m: u64| match value.checked_mul(m) {
            Some(v) => MySqlParse::Value(v),
            None => MySqlParse::Invalid,
        };
        match t[digits.len()..].chars().next() {
            None => MySqlParse::Value(value),
            Some(c) => match c.to_ascii_lowercase() {
                'k' => mul(1024),
                'm' => mul(1024 * 1024),
                'g' => mul(1024 * 1024 * 1024),
                _ => MySqlParse::Invalid,
            },
        }
    }

    pub fn parse_bool_mysql(s: &str) -> Option<bool> {
        match s.trim().to_ascii_uppercase().as_str() {
            "1" | "ON" | "TRUE" | "YES" => Some(true),
            "0" | "OFF" | "FALSE" | "NO" => Some(false),
            _ => None,
        }
    }

    pub fn parse_bool_pg(s: &str) -> Option<bool> {
        let t = s.trim().trim_matches('\'');
        match t.to_ascii_lowercase().as_str() {
            "on" | "true" | "yes" | "1" => Some(true),
            "off" | "false" | "no" | "0" => Some(false),
            _ => None,
        }
    }

    pub fn resolve_prefix<'a>(
        registry: impl Iterator<Item = &'a str>,
        name: &str,
    ) -> Result<&'a str, PrefixError> {
        let mut exact: Option<&'a str> = None;
        let mut matches: Vec<&'a str> = Vec::new();
        for candidate in registry {
            if candidate == name {
                exact = Some(candidate);
            }
            if candidate.starts_with(name) {
                matches.push(candidate);
            }
        }
        if let Some(e) = exact {
            return Ok(e);
        }
        match matches.len() {
            0 => Err(PrefixError::Unknown),
            1 => Ok(matches[0]),
            _ => Err(PrefixError::Ambiguous {
                candidates: matches
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect(),
            }),
        }
    }

    pub fn normalize_name(name: &str) -> String {
        name.replace('-', "_")
    }

    // ---- mysql ------------------------------------------------------

    fn absorb_server_directive(
        vars: &mut BTreeMap<String, String>,
        node: &Node,
    ) -> Result<(), Violation> {
        let raw_name = node.attr("name").unwrap_or("");
        let name = normalize_name(raw_name);
        let spec_name = match resolve_prefix(SERVER_REGISTRY.iter().map(|s| s.name), &name) {
            Ok(n) => n,
            Err(PrefixError::Unknown) => {
                return Err(Violation::new(
                    name,
                    ValidationClass::UnknownDirective,
                    format!("unknown variable '{raw_name}'"),
                ));
            }
            Err(PrefixError::Ambiguous { candidates }) => {
                return Err(Violation::new(
                    name,
                    ValidationClass::AmbiguousDirective,
                    format!(
                        "ambiguous option '{raw_name}' (could be {})",
                        candidates.join(", ")
                    ),
                ));
            }
        };
        let spec = SERVER_REGISTRY
            .iter()
            .find(|s| s.name == spec_name)
            .expect("resolved name is in the registry");
        let bare = node.attr("bare") == Some("yes");
        let raw_value = node.text().unwrap_or("");
        let value = if bare {
            match spec.vtype {
                ValueType::Bool => "1".to_string(),
                _ => spec.default.to_string(),
            }
        } else if raw_value.is_empty() && !matches!(spec.vtype, ValueType::Bool) {
            spec.default.to_string()
        } else {
            match spec.vtype {
                ValueType::Int { min, max } => match parse_int_strict(raw_value) {
                    Some(v) if v >= min && v <= max => v.to_string(),
                    Some(_) => spec.default.to_string(),
                    None => {
                        return Err(Violation::new(
                            spec_name,
                            ValidationClass::InvalidValue,
                            format!(
                                "option '{spec_name}' requires an integer argument, got \
                                 '{raw_value}'"
                            ),
                        ))
                    }
                },
                ValueType::Size { min, max } => match parse_size_mysql(raw_value) {
                    MySqlParse::Value(v) if v >= min && v <= max => v.to_string(),
                    MySqlParse::Value(_) | MySqlParse::SilentDefault => spec.default.to_string(),
                    MySqlParse::Invalid => {
                        return Err(Violation::new(
                            spec_name,
                            ValidationClass::InvalidValue,
                            format!(
                                "option '{spec_name}' got an invalid size argument '{raw_value}'"
                            ),
                        ))
                    }
                },
                ValueType::Bool => match parse_bool_mysql(raw_value) {
                    Some(v) => u8::from(v).to_string(),
                    None => {
                        return Err(Violation::new(
                            spec_name,
                            ValidationClass::InvalidValue,
                            format!(
                                "variable '{spec_name}' can't be set to the value of \
                                 '{raw_value}'"
                            ),
                        ))
                    }
                },
                ValueType::Enum(options) => {
                    match options.iter().find(|o| o.eq_ignore_ascii_case(raw_value)) {
                        Some(o) => o.to_string(),
                        None => {
                            return Err(Violation::new(
                                spec_name,
                                ValidationClass::InvalidValue,
                                format!(
                                    "variable '{spec_name}' can't be set to the value of \
                                     '{raw_value}'"
                                ),
                            ))
                        }
                    }
                }
                ValueType::Float { .. } | ValueType::Text => raw_value.to_string(),
            }
        };
        vars.insert(spec_name.to_string(), value);
        Ok(())
    }

    pub fn mysql_validate(root: &Node) -> Result<BTreeMap<String, String>, Violation> {
        let mut vars: BTreeMap<String, String> = SERVER_REGISTRY
            .iter()
            .map(|s| (s.name.to_string(), s.default.to_string()))
            .collect();
        for section in root.children_of_kind("section") {
            if section.attr("name") != Some("mysqld") {
                continue;
            }
            for node in section.children_of_kind("directive") {
                absorb_server_directive(&mut vars, node)?;
            }
        }
        for path_var in PATH_DIRECTIVES {
            if let Some(path) = vars.get(*path_var) {
                if !path_is_valid(path) {
                    return Err(Violation::new(
                        *path_var,
                        ValidationClass::InvalidPath,
                        format!("[ERROR] {path_var}: Can't read dir of '{path}' (Errcode: 2)"),
                    ));
                }
            }
        }
        Ok(vars)
    }

    pub fn mysql_check_dump(root: &Node) -> Result<(), Violation> {
        for section in root.children_of_kind("section") {
            if section.attr("name") != Some("mysqldump") {
                continue;
            }
            for node in section.children_of_kind("directive") {
                let name = normalize_name(node.attr("name").unwrap_or(""));
                if resolve_prefix(DUMP_REGISTRY.iter().map(|s| s.name), &name).is_err() {
                    return Err(Violation::new(
                        name.clone(),
                        ValidationClass::UnknownDirective,
                        format!("mysqldump: unknown option '--{name}'"),
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn mysql_fingerprint(root: &Node) -> Result<String, Violation> {
        let vars = mysql_validate(root)?;
        let dump = mysql_check_dump(root).err().map(|v| v.message);
        Ok(format!("{vars:?}|dump-error:{dump:?}"))
    }

    // ---- postgres ---------------------------------------------------

    pub fn pg_validate_value(spec: &DirectiveSpec, raw: &str) -> Result<String, String> {
        let unquoted = raw.trim().trim_matches('\'');
        match spec.vtype {
            ValueType::Int { min, max } => match parse_int_strict(unquoted) {
                Some(v) if v >= min && v <= max => Ok(v.to_string()),
                Some(v) => Err(format!(
                    "{} = {v} is outside the valid range ({min} .. {max})",
                    spec.name
                )),
                None => Err(format!(
                    "parameter \"{}\" requires an integer value, got \"{raw}\"",
                    spec.name
                )),
            },
            ValueType::Size { min, max } => match parse_size_strict(unquoted) {
                Some(v) if v >= min && v <= max => Ok(v.to_string()),
                Some(v) => Err(format!(
                    "{} = {v}B is outside the valid range ({min}B .. {max}B)",
                    spec.name
                )),
                None => Err(format!(
                    "parameter \"{}\" requires a size value (kB/MB/GB), got \"{raw}\"",
                    spec.name
                )),
            },
            ValueType::Float { min, max } => match unquoted.parse::<f64>() {
                Ok(v) if v >= min && v <= max => Ok(v.to_string()),
                Ok(v) => Err(format!(
                    "{} = {v} is outside the valid range ({min} .. {max})",
                    spec.name
                )),
                Err(_) => Err(format!(
                    "parameter \"{}\" requires a numeric value, got \"{raw}\"",
                    spec.name
                )),
            },
            ValueType::Bool => match parse_bool_pg(unquoted) {
                Some(v) => Ok(if v { "on" } else { "off" }.to_string()),
                None => Err(format!(
                    "parameter \"{}\" requires a Boolean value, got \"{raw}\"",
                    spec.name
                )),
            },
            ValueType::Enum(options) => {
                match options.iter().find(|o| o.eq_ignore_ascii_case(unquoted)) {
                    Some(o) => Ok(o.to_string()),
                    None => Err(format!(
                        "invalid value for parameter \"{}\": \"{raw}\"",
                        spec.name
                    )),
                }
            }
            ValueType::Text => Ok(unquoted.to_string()),
        }
    }

    fn pg_check_cross_constraints(vars: &BTreeMap<String, String>) -> Result<(), String> {
        let get_i64 =
            |name: &str| -> i64 { vars.get(name).and_then(|v| v.parse().ok()).unwrap_or(0) };
        let max_fsm_pages = get_i64("max_fsm_pages");
        let max_fsm_relations = get_i64("max_fsm_relations");
        if max_fsm_pages < 16 * max_fsm_relations {
            return Err(format!(
                "max_fsm_pages must be at least 16 * max_fsm_relations \
                 ({max_fsm_pages} < 16 * {max_fsm_relations})"
            ));
        }
        let max_connections = get_i64("max_connections");
        let superuser_reserved = get_i64("superuser_reserved_connections");
        if superuser_reserved >= max_connections {
            return Err(format!(
                "superuser_reserved_connections ({superuser_reserved}) must be less than \
                 max_connections ({max_connections})"
            ));
        }
        let shared_buffers = get_i64("shared_buffers");
        if shared_buffers < 2 * max_connections {
            return Err(format!(
                "shared_buffers ({shared_buffers}) must be at least twice \
                 max_connections ({max_connections})"
            ));
        }
        Ok(())
    }

    pub fn pg_validate(root: &Node) -> Result<BTreeMap<String, String>, Violation> {
        let mut vars: BTreeMap<String, String> = REGISTRY
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    pg_validate_value(s, s.default).expect("registry defaults are valid"),
                )
            })
            .collect();
        for node in root.children_of_kind("directive") {
            let raw_name = node.attr("name").unwrap_or("");
            let lower = raw_name.to_ascii_lowercase();
            let Some(spec) = REGISTRY.iter().find(|s| s.name == lower) else {
                return Err(Violation::new(
                    lower,
                    ValidationClass::UnknownDirective,
                    format!("FATAL: unrecognized configuration parameter \"{raw_name}\""),
                ));
            };
            let raw_value = node.text().unwrap_or("");
            if raw_value.is_empty() {
                return Err(Violation::new(
                    spec.name,
                    ValidationClass::MissingValue,
                    format!("FATAL: parameter \"{raw_name}\" requires a value"),
                ));
            }
            if raw_value.matches('\'').count() % 2 == 1 {
                return Err(Violation::new(
                    spec.name,
                    ValidationClass::UnterminatedString,
                    format!(
                        "FATAL: syntax error in configuration near \"{raw_value}\" \
                         (unterminated quoted string)"
                    ),
                ));
            }
            match pg_validate_value(spec, raw_value) {
                Ok(v) => {
                    vars.insert(spec.name.to_string(), v);
                }
                Err(msg) => {
                    return Err(Violation::new(
                        spec.name,
                        ValidationClass::InvalidValue,
                        format!("FATAL: {msg}"),
                    ))
                }
            }
        }
        if let Err(msg) = pg_check_cross_constraints(&vars) {
            let directive = msg
                .split_whitespace()
                .next()
                .unwrap_or("max_fsm_pages")
                .to_string();
            return Err(Violation::new(
                directive,
                ValidationClass::ConstraintViolation,
                format!("FATAL: {msg}"),
            ));
        }
        Ok(vars)
    }

    pub fn pg_fingerprint(root: &Node) -> Result<String, Violation> {
        let vars = pg_validate(root)?;
        Ok(format!("{vars:?}"))
    }

    // ---- apache -----------------------------------------------------

    fn fs_dir_exists(dir: &str) -> bool {
        let prefix = if dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        FS_FILES.iter().any(|p| p.starts_with(&prefix))
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
                let args: Vec<&str> = d.text().unwrap_or("").split_whitespace().collect();
                if args.len() == 2 {
                    out.push((args[0].to_string(), args[1].to_string()));
                }
            }
        }
        out
    }

    pub fn apache_startup_model(root: &Node) -> Result<StartupModel, Violation> {
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
                        mime_types
                            .insert(ext.trim_start_matches('.').to_string(), mime.to_string());
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

    /// `validate_tree` is the unchanged shared directive check.
    pub fn apache_fingerprint(root: &Node) -> Result<String, Violation> {
        validate_tree(root)?;
        let model = apache_startup_model(root)?;
        Ok(format!("{model:?}"))
    }
}

/// The three dialects under test.
#[derive(Debug, Clone, Copy)]
enum System {
    MySql,
    Postgres,
    Apache,
}

impl System {
    fn format(self) -> Box<dyn ConfigFormat> {
        match self {
            System::MySql => Box::new(IniFormat::new()),
            System::Postgres => Box::new(KvFormat::new()),
            System::Apache => Box::new(ApacheFormat::new()),
        }
    }

    /// The simulator's default configuration, as `examples/configs`
    /// keeps it.
    fn default_tree(self) -> ConfTree {
        let file = match self {
            System::MySql => "mysql/my.cnf",
            System::Postgres => "postgres/postgresql.conf",
            System::Apache => "apache/httpd.conf",
        };
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/configs")
            .join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        self.format().parse(&text).expect("defaults parse")
    }

    /// Asserts the current deciders agree with the reference on `root`,
    /// given both fingerprints of the default configuration.
    fn check(self, root: &Node, baselines: &Baselines, what: &str) {
        match self {
            System::MySql => {
                let new = mysql::validate_server_config(root);
                let old = reference::mysql_validate(root);
                same_vars(new, old, mysql::SERVER_REGISTRY, what);
                same_fingerprint(
                    self,
                    mysql::fingerprint(root),
                    reference::mysql_fingerprint(root),
                    baselines,
                    |fp, b| b.mysql.as_ref().is_some_and(|base| *base == *fp),
                    what,
                );
            }
            System::Postgres => {
                let new = postgres::validate_config(root);
                let old = reference::pg_validate(root);
                same_vars(new, old, postgres::REGISTRY, what);
                same_fingerprint(
                    self,
                    postgres::fingerprint(root),
                    reference::pg_fingerprint(root),
                    baselines,
                    |fp, b| b.postgres.as_ref().is_some_and(|base| base == fp),
                    what,
                );
            }
            System::Apache => same_fingerprint(
                self,
                apache::fingerprint(root),
                reference::apache_fingerprint(root),
                baselines,
                |fp, b| b.apache.as_ref().is_some_and(|base| base == fp),
                what,
            ),
        }
    }
}

/// Both fingerprints of each default configuration.
struct Baselines {
    mysql: Option<(ResolvedVars, Option<String>)>,
    postgres: Option<ResolvedVars>,
    apache: Option<apache::StartupModel>,
    strings: [String; 3],
}

impl Baselines {
    fn new() -> Self {
        let my = System::MySql.default_tree();
        let pg = System::Postgres.default_tree();
        let ap = System::Apache.default_tree();
        Baselines {
            mysql: mysql::fingerprint(my.root()).ok(),
            postgres: postgres::fingerprint(pg.root()).ok(),
            apache: apache::fingerprint(ap.root()).ok(),
            strings: [
                reference::mysql_fingerprint(my.root()).expect("default starts"),
                reference::pg_fingerprint(pg.root()).expect("default starts"),
                reference::apache_fingerprint(ap.root()).expect("default starts"),
            ],
        }
    }

    /// Whether `fp` is the reference fingerprint of `system`'s
    /// default configuration.
    fn is_old(&self, system: System, fp: &str) -> bool {
        self.strings[system as usize] == fp
    }
}

fn same_vars(
    new: Result<ResolvedVars, Violation>,
    old: Result<std::collections::BTreeMap<String, String>, Violation>,
    registry: &[value::DirectiveSpec],
    what: &str,
) {
    match (new, old) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.len(), old.len(), "{what}");
            for spec in registry {
                assert_eq!(
                    new.get(spec.name).map(|v| &**v),
                    old.get(spec.name).map(String::as_str),
                    "{what}: {}",
                    spec.name
                );
            }
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}"),
        (new, old) => panic!("{what}: {new:?} vs {old:?}"),
    }
}

fn same_fingerprint<T>(
    system: System,
    new: Result<T, Violation>,
    old: Result<String, Violation>,
    baselines: &Baselines,
    equals_baseline: impl Fn(&T, &Baselines) -> bool,
    what: &str,
) {
    match (new, old) {
        (Ok(new), Ok(old)) => assert_eq!(
            equals_baseline(&new, baselines),
            baselines.is_old(system, &old),
            "{what}"
        ),
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}"),
        (new, old) => panic!("{what}: {:?} vs {old:?}", new.err()),
    }
}

/// Paths of every directive, in document order.
fn directives(tree: &ConfTree) -> Vec<TreePath> {
    tree.iter()
        .filter(|(_, n)| n.kind() == "directive")
        .map(|(path, _)| path)
        .collect()
}

/// Characters typos and values are drawn from: digits, multiplier
/// suffixes, separators, quotes, case pairs of registry words.
const ALPHABET: &[char] = &[
    '0', '1', '3', '5', '6', '9', 'k', 'K', 'm', 'M', 'g', 'G', 'b', 'B', '-', '_', '\'', ' ', '.',
    '/', ':', 'a', 'e', 'o', 'n', 'f', 'x', 'O', 'N', 'T', 'y', 's', 'r', 'c',
];

/// Values the deciders treat specially.
const VALUES: &[&str] = &[
    "",
    "on",
    "OFF",
    "Yes",
    "tRuE",
    "1M0",
    "M10",
    "16Q",
    "8kB",
    "2gb",
    "99999999999999999999",
    "-5",
    "+7",
    "4.0",
    "1e3",
    "'stderr'",
    "'iso",
    "InnoDB",
    "utf8",
    "/var/lib/mysq",
    "/var/www/htm",
    "/var/www/docs/",
    "*:81",
    "80",
    "80 81",
    "allow,deny",
    "from all",
    "/icons/ /var/www/icons/ extra",
    "text/html .html .HTM",
];

/// One random mutation: an operation, a directive pick, a position, a
/// character pick and a replacement value.
type Op = (u8, usize, usize, usize, String);

fn op() -> impl Strategy<Value = Op> {
    let value = prop_oneof![
        prop::sample::select(VALUES.to_vec()).prop_map(str::to_string),
        "[0-9kKmMgG'. a-z/_-]{0,10}",
    ];
    (0u8..6, 0..1000usize, 0..64usize, 0..ALPHABET.len(), value)
}

/// Applies one typo (omission, insertion, substitution, case flip or
/// transposition, picked by `pos`) to `word`.
fn typo(word: &str, pos: usize, c: char) -> String {
    let mut chars: Vec<char> = word.chars().collect();
    let at = if chars.is_empty() {
        0
    } else {
        pos % chars.len()
    };
    match (pos / 8) % 5 {
        0 if !chars.is_empty() => {
            chars.remove(at);
        }
        1 | 0 => chars.insert(at, c),
        2 if !chars.is_empty() => chars[at] = c,
        3 if !chars.is_empty() => {
            let flipped = if chars[at].is_ascii_lowercase() {
                chars[at].to_ascii_uppercase()
            } else {
                chars[at].to_ascii_lowercase()
            };
            chars[at] = flipped;
        }
        _ if chars.len() > 1 => {
            let next = (at + 1) % chars.len();
            chars.swap(at, next);
        }
        _ => chars.push(c),
    }
    chars.into_iter().collect()
}

fn mutate(tree: &mut ConfTree, (kind, pick, pos, c, value): &Op) {
    let paths = directives(tree);
    if paths.is_empty() {
        return;
    }
    let path = &paths[pick % paths.len()];
    let c = ALPHABET[*c];
    match kind {
        0 => {
            tree.delete(path).expect("directive exists");
        }
        1 => {
            let node = tree.node_at_mut(path).expect("directive exists");
            let name = typo(node.attr("name").unwrap_or(""), *pos, c);
            node.set_attr("name", name);
        }
        2 => {
            let node = tree.node_at_mut(path).expect("directive exists");
            let text = typo(node.text().unwrap_or(""), *pos, c);
            node.set_text(Some(text));
        }
        3 => {
            let node = tree.node_at_mut(path).expect("directive exists");
            node.set_text(Some(value.clone()));
        }
        4 => {
            // MySQL's valueless directive.
            let node = tree.node_at_mut(path).expect("directive exists");
            node.set_attr("bare", "yes");
        }
        _ => {
            let node = tree.node_at_mut(path).expect("directive exists");
            let name = node.attr("name").unwrap_or("");
            // A registry word near the name: a prefix, or the other
            // separator.
            let renamed = if pos % 2 == 0 {
                name.chars().take(pos % 9 + 1).collect()
            } else {
                name.replace('_', "-")
            };
            node.set_attr("name", renamed);
        }
    }
}

fn check_mutations(system: System, ops: &[Op]) {
    static BASELINES: std::sync::LazyLock<Baselines> = std::sync::LazyLock::new(Baselines::new);
    let mut tree = system.default_tree();
    for op in ops {
        mutate(&mut tree, op);
    }
    system.check(
        tree.root(),
        &BASELINES,
        &format!("{system:?} after {ops:?}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mysql_deciders_match_the_reference(ops in prop::collection::vec(op(), 1..4)) {
        check_mutations(System::MySql, &ops);
    }

    #[test]
    fn postgres_deciders_match_the_reference(ops in prop::collection::vec(op(), 1..4)) {
        check_mutations(System::Postgres, &ops);
    }

    #[test]
    fn apache_deciders_match_the_reference(ops in prop::collection::vec(op(), 1..4)) {
        check_mutations(System::Apache, &ops);
    }

    #[test]
    fn value_parsers_match_the_reference(
        s in prop_oneof![
            prop::sample::select(VALUES.to_vec()).prop_map(str::to_string),
            "[0-9kKmMgGbB'. +a-zA-Z-]{0,8}",
        ],
    ) {
        prop_assert_eq!(value::parse_int_strict(&s), reference::parse_int_strict(&s));
        prop_assert_eq!(value::parse_int_prefix(&s), reference::parse_int_prefix(&s));
        prop_assert_eq!(value::parse_size_strict(&s), reference::parse_size_strict(&s));
        prop_assert_eq!(value::parse_size_mysql(&s), reference::parse_size_mysql(&s));
        prop_assert_eq!(value::parse_bool_mysql(&s), reference::parse_bool_mysql(&s));
        prop_assert_eq!(value::parse_bool_pg(&s), reference::parse_bool_pg(&s));
        prop_assert_eq!(
            mysql::normalize_name(&s).into_owned(),
            reference::normalize_name(&s)
        );
        for registry in [mysql::SERVER_REGISTRY, mysql::DUMP_REGISTRY, postgres::REGISTRY] {
            let names = || registry.iter().map(|spec| spec.name);
            prop_assert_eq!(
                value::resolve_prefix(names(), &s),
                reference::resolve_prefix(names(), &s)
            );
        }
    }
}

/// The Table 1 fault classes, exhaustively: every directive deleted,
/// and every keyboard typo of every directive's name and value.
#[test]
fn table1_fault_classes_match_the_reference() {
    let baselines = Baselines::new();
    let keyboard = Keyboard::qwerty_us();
    for system in [System::MySql, System::Postgres, System::Apache] {
        let baseline = system.default_tree();
        let mut checked = 0usize;
        for path in directives(&baseline) {
            let mut deleted = baseline.clone();
            deleted.delete(&path).expect("directive exists");
            system.check(
                deleted.root(),
                &baselines,
                &format!("{system:?} delete {path}"),
            );
            let node = baseline.node_at(&path).expect("directive exists");
            let name = node.attr("name").unwrap_or("").to_string();
            let text = node.text().unwrap_or("").to_string();
            for kind in ALL_TYPO_KINDS {
                for (typo, label) in typos_of_kind(&keyboard, kind, &name) {
                    let mut edited = baseline.clone();
                    edited.node_at_mut(&path).unwrap().set_attr("name", typo);
                    system.check(edited.root(), &baselines, &format!("{system:?} {label}"));
                    checked += 1;
                }
                for (typo, label) in typos_of_kind(&keyboard, kind, &text) {
                    let mut edited = baseline.clone();
                    edited.node_at_mut(&path).unwrap().set_text(Some(typo));
                    system.check(edited.root(), &baselines, &format!("{system:?} {label}"));
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "{system:?}: {checked} typos");
    }
}

//! Postgres 8.2 dialect model, extracted from the simulator.
//!
//! Postgres is the disciplined counterpoint to MySQL: unknown
//! directives, out-of-range values, bad units, boolean/enum typos and
//! cross-directive constraint violations are all FATAL at startup.
//! The decision functions here are shared verbatim with
//! `conferr-sut`'s `PostgresSim`, so every FATAL diagnostic the
//! linter predicts is the byte-identical string the simulator emits.
//!
//! The resolved parameters ([`ResolvedVars`]) borrow their names from
//! [`REGISTRY`] and their defaults from a table of the defaults'
//! canonical stored forms, computed once by [`validate_value`];
//! validation starts from a copy of that table, and only the values a
//! directive sets are owned.

use std::borrow::Cow;
use std::sync::LazyLock;

use conferr_tree::Node;

use crate::value::{
    parse_bool_pg, parse_int_strict, parse_size_strict, DirectiveSpec, ResolvedVars, ValueType,
};
use crate::verdict::{ValidationClass, Violation};

/// Registry of configuration parameters (a representative subset of
/// Postgres 8.2's ~200 GUC variables; bounds follow the 8.2 docs).
pub const REGISTRY: &[DirectiveSpec] = &[
    DirectiveSpec::new("port", ValueType::Int { min: 1, max: 65535 }, "5432"),
    DirectiveSpec::new("listen_addresses", ValueType::Text, "'localhost'"),
    DirectiveSpec::new(
        "max_connections",
        ValueType::Int { min: 1, max: 10000 },
        "100",
    ),
    DirectiveSpec::new(
        "superuser_reserved_connections",
        ValueType::Int { min: 0, max: 100 },
        "3",
    ),
    DirectiveSpec::new(
        "shared_buffers",
        ValueType::Int {
            min: 16,
            max: 1073741823,
        },
        "1000",
    ),
    DirectiveSpec::new(
        "temp_buffers",
        ValueType::Int {
            min: 100,
            max: 1073741823,
        },
        "1000",
    ),
    DirectiveSpec::new(
        "work_mem",
        ValueType::Size {
            min: 64 * 1024,
            max: 2_147_483_647,
        },
        "1MB",
    ),
    DirectiveSpec::new(
        "maintenance_work_mem",
        ValueType::Size {
            min: 1024 * 1024,
            max: 2_147_483_647,
        },
        "16MB",
    ),
    DirectiveSpec::new(
        "max_fsm_pages",
        ValueType::Int {
            min: 1000,
            max: 2_147_483_647,
        },
        "153600",
    ),
    DirectiveSpec::new(
        "max_fsm_relations",
        ValueType::Int {
            min: 100,
            max: 2_147_483_647,
        },
        "1000",
    ),
    DirectiveSpec::new("wal_buffers", ValueType::Int { min: 4, max: 65536 }, "8"),
    DirectiveSpec::new(
        "checkpoint_segments",
        ValueType::Int { min: 1, max: 65536 },
        "3",
    ),
    DirectiveSpec::new(
        "checkpoint_timeout",
        ValueType::Int { min: 30, max: 3600 },
        "300",
    ),
    DirectiveSpec::new(
        "effective_cache_size",
        ValueType::Int {
            min: 1,
            max: 2_147_483_647,
        },
        "16384",
    ),
    DirectiveSpec::new(
        "random_page_cost",
        ValueType::Float {
            min: 0.0,
            max: 1.0e10,
        },
        "4.0",
    ),
    DirectiveSpec::new(
        "cpu_tuple_cost",
        ValueType::Float {
            min: 0.0,
            max: 1.0e10,
        },
        "0.01",
    ),
    DirectiveSpec::new(
        "vacuum_cost_delay",
        ValueType::Int { min: 0, max: 1000 },
        "0",
    ),
    DirectiveSpec::new(
        "deadlock_timeout",
        ValueType::Int {
            min: 1,
            max: 2_147_483_647,
        },
        "1000",
    ),
    DirectiveSpec::new("fsync", ValueType::Bool, "on"),
    DirectiveSpec::new("ssl", ValueType::Bool, "off"),
    DirectiveSpec::new("autovacuum", ValueType::Bool, "off"),
    DirectiveSpec::new("stats_start_collector", ValueType::Bool, "on"),
    DirectiveSpec::new(
        "log_destination",
        ValueType::Enum(&["stderr", "syslog", "eventlog", "csvlog"]),
        "'stderr'",
    ),
    DirectiveSpec::new(
        "log_min_messages",
        ValueType::Enum(&[
            "debug5", "debug4", "debug3", "debug2", "debug1", "info", "notice", "warning", "error",
            "log", "fatal", "panic",
        ]),
        "notice",
    ),
    DirectiveSpec::new(
        "client_min_messages",
        ValueType::Enum(&[
            "debug5", "debug4", "debug3", "debug2", "debug1", "log", "notice", "warning", "error",
        ]),
        "notice",
    ),
    DirectiveSpec::new("datestyle", ValueType::Text, "'iso, mdy'"),
    DirectiveSpec::new("timezone", ValueType::Text, "unknown"),
    DirectiveSpec::new("lc_messages", ValueType::Text, "'C'"),
    DirectiveSpec::new("search_path", ValueType::Text, "'\"$user\",public'"),
    DirectiveSpec::new("default_with_oids", ValueType::Bool, "off"),
];

/// The canonical stored form of every registry default, in registry
/// order: what [`validate_value`] makes of it.
static CANONICAL_DEFAULTS: LazyLock<Vec<Cow<'static, str>>> = LazyLock::new(|| {
    REGISTRY
        .iter()
        .map(|s| validate_value(s, s.default).expect("registry defaults are valid"))
        .collect()
});

/// Every parameter at its canonical default, built once.
static DEFAULTS: LazyLock<ResolvedVars> = LazyLock::new(|| {
    REGISTRY
        .iter()
        .zip(CANONICAL_DEFAULTS.iter())
        .map(|(s, v)| (s.name, Cow::Borrowed(&**v)))
        .collect()
});

/// Postgres name resolution: case-insensitive, exact (no truncation).
/// Returns the canonical lowercase spelling — the unique directive an
/// edit on `raw` can bind to.
pub fn canonical_name(raw: &str) -> String {
    raw.to_ascii_lowercase()
}

/// Strictly validates one value against its spec, returning the
/// canonical stored form (borrowed when it is a fixed keyword) or the
/// diagnostic (without `FATAL: ` prefix).
///
/// # Errors
///
/// The verbatim range/type complaint the server logs.
pub fn validate_value(spec: &DirectiveSpec, raw: &str) -> Result<Cow<'static, str>, String> {
    let unquoted = raw.trim().trim_matches('\'');
    match spec.vtype {
        ValueType::Int { min, max } => match parse_int_strict(unquoted) {
            Some(v) if v >= min && v <= max => Ok(Cow::Owned(v.to_string())),
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
            Some(v) if v >= min && v <= max => Ok(Cow::Owned(v.to_string())),
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
            Ok(v) if v >= min && v <= max => Ok(Cow::Owned(v.to_string())),
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
            Some(v) => Ok(Cow::Borrowed(if v { "on" } else { "off" })),
            None => Err(format!(
                "parameter \"{}\" requires a Boolean value, got \"{raw}\"",
                spec.name
            )),
        },
        ValueType::Enum(options) => {
            match options.iter().find(|o| o.eq_ignore_ascii_case(unquoted)) {
                Some(o) => Ok(Cow::Borrowed(*o)),
                None => Err(format!(
                    "invalid value for parameter \"{}\": \"{raw}\"",
                    spec.name
                )),
            }
        }
        ValueType::Text => Ok(Cow::Owned(unquoted.to_string())),
    }
}

/// The paper's flagship Postgres feature: constraints *across*
/// directives, checked after all values parse individually.
///
/// # Errors
///
/// The verbatim constraint complaint (without `FATAL: ` prefix).
pub fn check_cross_constraints(vars: &ResolvedVars) -> Result<(), String> {
    let get_i64 = |name: &str| -> i64 { vars.get(name).and_then(|v| v.parse().ok()).unwrap_or(0) };
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

/// The full startup validation over a parsed `postgresql.conf` tree:
/// strict per-parameter validation then cross-directive constraints.
/// Returns the resolved parameter map, every name and unset default
/// borrowed.
///
/// # Errors
///
/// The first fatal [`Violation`]; its `message` carries the verbatim
/// `FATAL: ...` diagnostic.
pub fn validate_config(root: &Node) -> Result<ResolvedVars, Violation> {
    // Defaults passed through the same validator, so the stored form
    // is canonical.
    let mut vars = DEFAULTS.clone();
    for node in root.children_of_kind("directive") {
        let raw_name = node.attr("name").unwrap_or("");
        // Case-insensitive, *exact* (no truncation) lookup; registry
        // names are lowercase.
        let Some(spec) = REGISTRY
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(raw_name))
        else {
            return Err(Violation::new(
                canonical_name(raw_name),
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
        // Unbalanced quoting is a syntax error, exactly as the
        // real guc-file lexer reports it.
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
        match validate_value(spec, raw_value) {
            Ok(v) => {
                vars.insert(spec.name, v);
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
    if let Err(msg) = check_cross_constraints(&vars) {
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

/// The semantic fingerprint the linter compares against the baseline:
/// the resolved parameter map determines everything the
/// `connect-and-query` test can observe (the engine limits derive
/// from `max_connections`; the statement cap is fixed).
///
/// # Errors
///
/// The fatal startup [`Violation`], when validation fails.
pub fn fingerprint(root: &Node) -> Result<ResolvedVars, Violation> {
    validate_config(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conferr_formats::{ConfigFormat, KvFormat};
    use conferr_tree::ConfTree;

    fn parse(text: &str) -> ConfTree {
        KvFormat::new().parse(text).expect("fixture parses")
    }

    #[test]
    fn valid_config_resolves() {
        let tree = parse("max_connections = 90\nshared_buffers = 1000\n");
        let vars = validate_config(tree.root()).expect("valid");
        assert_eq!(vars.get("max_connections").map(|v| &**v), Some("90"));
        assert_eq!(vars.get("port").map(|v| &**v), Some("5432"));
    }

    #[test]
    fn defaults_are_canonical_and_borrowed() {
        let vars = validate_config(parse("port = 5432\n").root()).expect("valid");
        assert_eq!(vars.len(), REGISTRY.len());
        for spec in REGISTRY {
            assert_eq!(spec.name, canonical_name(spec.name), "lowercase name");
            if spec.name == "port" {
                continue;
            }
            let canonical = validate_value(spec, spec.default).unwrap();
            assert!(
                matches!(vars.get(spec.name), Some(Cow::Borrowed(v)) if **v == *canonical),
                "{}",
                spec.name
            );
        }
        // A size default is stored in bytes, a float in its shortest
        // form.
        assert_eq!(vars.get("work_mem").map(|v| &**v), Some("1048576"));
        assert_eq!(vars.get("random_page_cost").map(|v| &**v), Some("4"));
    }

    #[test]
    fn unknown_parameter_is_fatal() {
        let tree = parse("max_connektions = 100\n");
        let err = validate_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::UnknownDirective);
        assert_eq!(
            err.message,
            "FATAL: unrecognized configuration parameter \"max_connektions\""
        );
    }

    #[test]
    fn missing_value_and_unterminated_string_are_fatal() {
        let err = validate_config(parse("port\n").root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::MissingValue);
        let err = validate_config(parse("datestyle = 'iso\n").root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::UnterminatedString);
        assert!(err.message.contains("unterminated quoted string"));
    }

    #[test]
    fn fsm_cross_constraint_is_fatal() {
        let tree = parse("max_fsm_pages = 15600\n");
        let err = validate_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::ConstraintViolation);
        assert_eq!(err.directive, "max_fsm_pages");
        assert!(err.message.contains("16 * max_fsm_relations"));
    }

    #[test]
    fn out_of_range_is_invalid_value() {
        let tree = parse("max_connections = 0\n");
        let err = validate_config(tree.root()).unwrap_err();
        assert_eq!(err.class, ValidationClass::InvalidValue);
        assert!(err.message.contains("valid range"));
    }

    #[test]
    fn fingerprint_ignores_comment_churn() {
        let a = parse("# one\nport = 5432\n");
        let b = parse("# two\nport = 5432\n");
        assert_eq!(
            fingerprint(a.root()).unwrap(),
            fingerprint(b.root()).unwrap()
        );
        let c = parse("port = 5433\n");
        assert_ne!(
            fingerprint(a.root()).unwrap(),
            fingerprint(c.root()).unwrap()
        );
    }
}

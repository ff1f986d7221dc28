//! Shared directive-registry machinery and value parsers.
//!
//! Each simulated server owns a registry of [`DirectiveSpec`]s (name,
//! value type, default) but applies its *own* parsing and validation
//! discipline on top — that per-system discipline is precisely what
//! ConfErr measures, so the lenient and strict parsing helpers both
//! live here, clearly labelled. The simulators in `conferr-sut` and
//! the static linter in this crate call the very same functions,
//! which is what makes static verdicts sound by construction.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A server's resolved variables: canonical name → stored value. Names
/// are the registry's own `&'static str`s and unset variables borrow
/// their registry default, so only values a configuration sets are
/// owned.
pub type ResolvedVars = BTreeMap<&'static str, Cow<'static, str>>;

/// The value domain of a directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueType {
    /// Integer with inclusive bounds.
    Int {
        /// Minimum accepted value.
        min: i64,
        /// Maximum accepted value.
        max: i64,
    },
    /// Byte size with `K`/`M`/`G` multiplier suffixes and inclusive
    /// bounds (in bytes).
    Size {
        /// Minimum accepted size in bytes.
        min: u64,
        /// Maximum accepted size in bytes.
        max: u64,
    },
    /// Floating-point with inclusive bounds.
    Float {
        /// Minimum accepted value.
        min: f64,
        /// Maximum accepted value.
        max: f64,
    },
    /// Boolean.
    Bool,
    /// One of a fixed set of keywords (case-insensitive).
    Enum(&'static [&'static str]),
    /// Free-form text (paths, host names, quoted strings, ...).
    Text,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int { min, max } => write!(f, "integer [{min}, {max}]"),
            ValueType::Size { min, max } => write!(f, "size [{min}B, {max}B]"),
            ValueType::Float { min, max } => write!(f, "float [{min}, {max}]"),
            ValueType::Bool => f.write_str("boolean"),
            ValueType::Enum(options) => write!(f, "one of {options:?}"),
            ValueType::Text => f.write_str("text"),
        }
    }
}

/// One directive a server understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectiveSpec {
    /// Canonical directive name.
    pub name: &'static str,
    /// Value domain.
    pub vtype: ValueType,
    /// Default value used when the directive is absent (or, for
    /// lenient servers, when the supplied value is unusable).
    pub default: &'static str,
}

impl DirectiveSpec {
    /// Shorthand constructor.
    pub const fn new(name: &'static str, vtype: ValueType, default: &'static str) -> Self {
        DirectiveSpec {
            name,
            vtype,
            default,
        }
    }
}

/// Strict full-string integer parse (sign allowed).
pub fn parse_int_strict(s: &str) -> Option<i64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<i64>().ok()
}

/// C-`strtol`-style *prefix* integer parse: consumes leading digits
/// (after an optional sign) and ignores the rest. `"33o6"` parses to
/// `33` — the lenient discipline behind several MySQL findings.
pub fn parse_int_prefix(s: &str) -> Option<i64> {
    let t = s.trim();
    let (sign, rest) = match t.strip_prefix('-') {
        Some(r) => (-1i64, r),
        None => (1, t.strip_prefix('+').unwrap_or(t)),
    };
    let digits = leading_digits(rest);
    if digits.is_empty() {
        return None;
    }
    digits.parse::<i64>().ok().map(|v| sign * v)
}

/// The longest prefix of `s` made of ASCII digits.
fn leading_digits(s: &str) -> &str {
    let end = s
        .bytes()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(s.len());
    &s[..end]
}

/// Strict size parse: an integer followed by *exactly* one optional
/// multiplier suffix consuming the whole string (Postgres-style, with
/// `kB`/`MB`/`GB` spellings accepted case-insensitively alongside
/// bare `K`/`M`/`G`).
pub fn parse_size_strict(s: &str) -> Option<u64> {
    let t = s.trim();
    let digits = leading_digits(t);
    if digits.is_empty() {
        return None;
    }
    let value: u64 = digits.parse().ok()?;
    let suffix = &t[digits.len()..];
    let multiplier = [
        ("", 1),
        ("k", 1024),
        ("kb", 1024),
        ("m", 1024 * 1024),
        ("mb", 1024 * 1024),
        ("g", 1024 * 1024 * 1024),
        ("gb", 1024 * 1024 * 1024),
    ]
    .into_iter()
    .find_map(|(unit, m)| suffix.eq_ignore_ascii_case(unit).then_some(m))?;
    value.checked_mul(multiplier)
}

/// Result of MySQL's quirky size parsing — see [`parse_size_mysql`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MySqlParse {
    /// A value was produced (possibly ignoring trailing junk).
    Value(u64),
    /// The value is invalid in a way MySQL *silently* absorbs,
    /// substituting the default (the paper's flaw cases).
    SilentDefault,
    /// The value is invalid in a way MySQL reports at startup.
    Invalid,
}

/// MySQL's lenient size parse (paper §5.2): consume leading digits,
/// then **stop at the first multiplier symbol**, ignoring anything
/// after it — `"1M0"` parses as one megabyte. Values that *start*
/// with a multiplier are "silently ignored and defaults are used
/// instead"; any other malformed value (unknown suffix, no digits) is
/// rejected with a startup error, as the real option parser does.
pub fn parse_size_mysql(s: &str) -> MySqlParse {
    let t = s.trim();
    let digits = leading_digits(t);
    if digits.is_empty() {
        // The documented flaw: a value *starting* with a multiplier
        // suffix is silently replaced by the default.
        return match t.chars().next().map(|c| c.to_ascii_lowercase()) {
            Some('k' | 'm' | 'g') => MySqlParse::SilentDefault,
            _ => MySqlParse::Invalid,
        };
    }
    let Ok(value) = digits.parse::<u64>() else {
        return MySqlParse::Invalid;
    };
    match t[digits.len()..].chars().next() {
        // Plain number.
        None => MySqlParse::Value(value),
        Some(c) => match c.to_ascii_lowercase() {
            // The documented flaw: parsing stops after the first
            // multiplier symbol, accepting values like "1M0".
            'k' => mul(value, 1024),
            'm' => mul(value, 1024 * 1024),
            'g' => mul(value, 1024 * 1024 * 1024),
            _ => MySqlParse::Invalid,
        },
    }
}

fn mul(value: u64, multiplier: u64) -> MySqlParse {
    match value.checked_mul(multiplier) {
        Some(v) => MySqlParse::Value(v),
        None => MySqlParse::Invalid,
    }
}

/// MySQL boolean spellings.
pub fn parse_bool_mysql(s: &str) -> Option<bool> {
    parse_bool_spelling(s.trim())
}

/// Postgres boolean spellings.
pub fn parse_bool_pg(s: &str) -> Option<bool> {
    parse_bool_spelling(s.trim().trim_matches('\''))
}

/// The boolean spellings both servers accept, case-insensitively.
fn parse_bool_spelling(t: &str) -> Option<bool> {
    let is_any = |words: &[&str]| words.iter().any(|w| t.eq_ignore_ascii_case(w));
    if is_any(&["1", "on", "true", "yes"]) {
        Some(true)
    } else if is_any(&["0", "off", "false", "no"]) {
        Some(false)
    } else {
        None
    }
}

/// Resolves `name` against a registry accepting unambiguous
/// *prefixes* (MySQL's truncatable option names, Table 2). Returns
/// the canonical name, or an error describing why resolution failed.
///
/// # Errors
///
/// [`PrefixError::Unknown`] when nothing matches,
/// [`PrefixError::Ambiguous`] when several entries share the prefix
/// (candidates in registry order).
pub fn resolve_prefix<'a>(
    registry: impl Iterator<Item = &'a str> + Clone,
    name: &str,
) -> Result<&'a str, PrefixError> {
    let mut first: Option<&'a str> = None;
    let mut ambiguous = false;
    for candidate in registry.clone() {
        if candidate == name {
            return Ok(candidate);
        }
        if candidate.starts_with(name) {
            ambiguous |= first.is_some();
            first.get_or_insert(candidate);
        }
    }
    match first {
        None => Err(PrefixError::Unknown),
        Some(only) if !ambiguous => Ok(only),
        // Only a failing lookup pays for the candidate list.
        Some(_) => Err(PrefixError::Ambiguous {
            candidates: registry
                .filter(|c| c.starts_with(name))
                .map(str::to_string)
                .collect(),
        }),
    }
}

/// Why prefix resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// No registry entry starts with the name.
    Unknown,
    /// More than one registry entry starts with the name.
    Ambiguous {
        /// The colliding candidates.
        candidates: Vec<String>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_int_rejects_garbage() {
        assert_eq!(parse_int_strict("100"), Some(100));
        assert_eq!(parse_int_strict(" -5 "), Some(-5));
        assert_eq!(parse_int_strict("33o6"), None);
        assert_eq!(parse_int_strict(""), None);
    }

    #[test]
    fn prefix_int_is_lenient() {
        assert_eq!(parse_int_prefix("33o6"), Some(33));
        assert_eq!(parse_int_prefix("100"), Some(100));
        assert_eq!(parse_int_prefix("-12x"), Some(-12));
        assert_eq!(parse_int_prefix("x12"), None);
    }

    #[test]
    fn strict_size_requires_full_match() {
        assert_eq!(parse_size_strict("16M"), Some(16 << 20));
        assert_eq!(parse_size_strict("8kB"), Some(8 * 1024));
        assert_eq!(parse_size_strict("2GB"), Some(2 << 30));
        assert_eq!(parse_size_strict("1M0"), None, "trailing junk must fail");
        assert_eq!(parse_size_strict("M10"), None);
    }

    #[test]
    fn mysql_size_reproduces_the_paper_flaw() {
        // "a value like 1M0 is accepted as valid" (§5.2).
        assert_eq!(parse_size_mysql("1M0"), MySqlParse::Value(1 << 20));
        // "values that start with one of the mentioned suffixes ...
        // are silently ignored" — the default is substituted.
        assert_eq!(parse_size_mysql("M10"), MySqlParse::SilentDefault);
        assert_eq!(parse_size_mysql("16M"), MySqlParse::Value(16 << 20));
        // Other malformations are reported at startup.
        assert_eq!(parse_size_mysql("16Q"), MySqlParse::Invalid);
        assert_eq!(parse_size_mysql("abc"), MySqlParse::Invalid);
        assert_eq!(parse_size_mysql(""), MySqlParse::Invalid);
    }

    #[test]
    fn bool_spellings() {
        assert_eq!(parse_bool_mysql("ON"), Some(true));
        assert_eq!(parse_bool_mysql("0"), Some(false));
        assert_eq!(parse_bool_mysql("o"), None);
        assert_eq!(parse_bool_pg("off"), Some(false));
        assert_eq!(parse_bool_pg("'on'"), Some(true));
        assert_eq!(parse_bool_pg("of"), None);
    }

    #[test]
    fn prefix_resolution() {
        let names = ["max_connections", "max_allowed_packet", "port"];
        assert_eq!(resolve_prefix(names.into_iter(), "port"), Ok("port"));
        assert_eq!(
            resolve_prefix(names.into_iter(), "max_connect"),
            Ok("max_connections")
        );
        assert_eq!(
            resolve_prefix(names.into_iter(), "nope"),
            Err(PrefixError::Unknown)
        );
        assert!(matches!(
            resolve_prefix(names.into_iter(), "max_"),
            Err(PrefixError::Ambiguous { .. })
        ));
    }

    #[test]
    fn exact_match_beats_prefix_ambiguity() {
        let names = ["port", "port_open_timeout"];
        assert_eq!(resolve_prefix(names.into_iter(), "port"), Ok("port"));
    }

    #[test]
    fn value_type_display() {
        assert_eq!(ValueType::Bool.to_string(), "boolean");
        assert!(ValueType::Int { min: 0, max: 9 }
            .to_string()
            .contains("[0, 9]"));
    }
}

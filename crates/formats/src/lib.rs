//! Round-trip-faithful configuration parsers and serializers.
//!
//! # Architecture
//!
//! This crate is the *format layer* of the reproduction (paper §3.2):
//! in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! it bridges between on-disk text and [`conferr_tree::ConfTree`],
//! serving both the campaign engine (which serializes mutated trees)
//! and the simulators in `conferr-sut` (which re-parse that text at
//! startup, exactly as the real systems would).
//!
//! ConfErr performs all mutations on abstract tree representations of
//! configuration files (paper §3.2). This crate supplies the
//! system-specific parsing/serialization plugins that bridge between
//! on-disk text and [`conferr_tree::ConfTree`]:
//!
//! | Format | Type | Used by |
//! |--------|------|---------|
//! | [`KvFormat`] | line-oriented `name = value` | Postgres-style configs |
//! | [`IniFormat`] | `[section]` + directives | MySQL-style configs |
//! | [`ApacheFormat`] | directives + nested `<Section>` blocks | Apache httpd |
//! | [`XmlFormat`] | generic XML subset | XML-configured systems |
//! | [`ZoneFormat`] | DNS master (zone) files | BIND |
//! | [`TinyDnsFormat`] | tinydns-data lines | djbdns |
//!
//! Every parser preserves comments, blank lines and whitespace as tree
//! nodes/attributes, so `serialize(parse(text)) == text` for
//! well-formed inputs (the one documented exception: parenthesised
//! multi-line records in zone files are normalised to one line). This
//! fidelity matters for error injection: a mutated configuration file
//! differs from the original *only* by the injected error, exactly as
//! if a human had made the mistake while editing.
//!
//! # Examples
//!
//! ```
//! use conferr_formats::{ConfigFormat, IniFormat};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "[mysqld]\nport=3306\nkey_buffer_size=16M\n";
//! let fmt = IniFormat::new();
//! let tree = fmt.parse(text)?;
//! assert_eq!(fmt.serialize(&tree)?, text);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod apache;
mod error;
mod ini;
mod kv;
mod local;
mod tinydns;
mod xml;
mod zone;

pub use apache::ApacheFormat;
pub use error::{ParseError, SerializeError};
pub use ini::IniFormat;
pub use kv::KvFormat;
pub use tinydns::{fields as tinydns_fields, TinyDnsFormat, KNOWN_PREFIXES};
pub use xml::{parse_attrs as xml_parse_attrs, XmlFormat};
pub use zone::{ZoneFormat, KNOWN_RTYPES};

use conferr_tree::{ConfTree, EditSite};

/// A system-specific configuration parser/serializer pair.
///
/// Implementations must be *round-trip faithful*: parsing a well-formed
/// document and serializing the unmodified tree reproduces the input
/// byte-for-byte (documented *normalisations* excepted). This is what
/// lets ConfErr inject errors that look like genuine human edits.
pub trait ConfigFormat: std::fmt::Debug + Send + Sync {
    /// Short identifier, e.g. `"ini"`.
    fn name(&self) -> &str;

    /// Parses a configuration document into its tree representation.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] with the line number and a description
    /// when the input is not well-formed in this format.
    fn parse(&self, input: &str) -> Result<ConfTree, ParseError>;

    /// Serializes a tree back to configuration text.
    ///
    /// # Errors
    ///
    /// Returns [`SerializeError`] when the tree contains nodes this
    /// format cannot express — the paper's "differences in the
    /// expressiveness of the two representations" (§3.2), which
    /// ConfErr reports as an inexpressible fault rather than a bug.
    fn serialize(&self, tree: &ConfTree) -> Result<String, SerializeError>;

    /// `parse(serialize(&edited))`, computed from the edited node's own
    /// lines instead of the whole text — or `None`, which means "parse
    /// the full text".
    ///
    /// # Contract
    ///
    /// `edited` is a tree this format parsed in which exactly one node
    /// was changed, at `site`: replaced in place (its text, attributes
    /// or subtree) or removed. Every other node is still the parser's
    /// own output. `Some(tree)` must then equal
    /// `self.parse(&self.serialize(&edited)?)` exactly. `None` is always
    /// a correct answer; it is the default, and what `xml`, `zone` and
    /// `tinydns` return.
    ///
    /// [`ApacheFormat`], [`IniFormat`] and [`KvFormat`] compute it
    /// locally. They serialize the replaced node on its own, parse that
    /// fragment on its own, and put the fragment's nodes where the
    /// node was; a removed node leaves nothing to parse. The rest of
    /// `edited` is kept as is, so it stays shared with the tree the
    /// edit was applied to. This is sound because all three parsers
    /// read one line at a time, and a line's node depends only on the
    /// line and on where the parser is putting nodes at that point
    /// (the open section). Each implementation returns `None` unless
    /// it can prove the surrounding text does not change either:
    ///
    /// * The root must be the bare `config` node a parse of
    ///   newline-terminated text produces (only the `format`
    ///   attribute), with at least one child. A file without a final
    ///   newline, or an empty file, is parsed in full.
    /// * The fragment must parse on its own, to a root with no
    ///   attribute besides `format`. A fragment that does not parse is
    ///   left to the full parse, which reports the error with the
    ///   file's own line numbers.
    /// * `kv` is flat: the site must be a root child, and any fragment
    ///   fits there.
    /// * `apache` sections nest, but a fragment that parses on its own
    ///   opens and closes its own sections, so it leaves the parser's
    ///   stack of open sections as it found it. Any site fits.
    /// * An `ini` section header takes over every line after it, up to
    ///   the next header. Inside a section the fragment must hold no
    ///   header. At the root, lines before the fragment's first header
    ///   land in whatever section is open, so they are only allowed
    ///   when no section precedes the site; and a fragment that opens
    ///   a section (or leaves a preceding one open) must be followed
    ///   by a header or the end of the file.
    ///
    /// # Several sites
    ///
    /// A fault of several edits changes several disjoint nodes.
    /// [`reparse_sites`] calls this method once per site, in reverse
    /// document order, on a tree whose later sites are already
    /// re-parsed and whose earlier sites are not yet. The checks above
    /// stay sound there. `kv` and `apache` read nothing outside the
    /// site. An `ini` site reads the node after it, which is final,
    /// since every later site is already re-parsed; and the nodes
    /// before it, to see whether a section is open. An earlier site
    /// that is still unparsed may hide a header there. But a fragment
    /// that opens a section takes over the lines that follow it, and
    /// so fails its own "must be followed by a header or the end of
    /// the file" check when its turn comes: the whole text is parsed
    /// then.
    ///
    /// Callers do not use this directly: [`TextParse::of_edit`] takes
    /// the local result when there is one and parses the text
    /// otherwise.
    fn reparse_edited(&self, edited: ConfTree, site: &EditSite) -> Option<ConfTree> {
        let _ = (edited, site);
        None
    }
}

/// One format's parse of one text: the tree, or the parser's error,
/// tagged with the format's [`ConfigFormat::name`].
///
/// The campaign engine parses a fault's mutated file once and hands
/// the same `TextParse` to the static linter and to the simulator's
/// startup path, so neither parses those bytes again.
///
/// # Examples
///
/// ```
/// use conferr_formats::{KvFormat, TextParse};
///
/// let parse = TextParse::new(&KvFormat::new(), "port = 5432\n");
/// assert_eq!(parse.format(), "kv");
/// assert!(parse.result().is_ok());
/// ```
#[derive(Debug)]
pub struct TextParse {
    format: String,
    result: Result<ConfTree, ParseError>,
}

impl TextParse {
    /// Parses `text` with `format`.
    pub fn new(format: &dyn ConfigFormat, text: &str) -> Self {
        TextParse {
            format: format.name().to_string(),
            result: format.parse(text),
        }
    }

    /// `format`'s parse of `text`, the text `format` serialized from
    /// `edited`, where `edited` is a tree `format` parsed with disjoint
    /// nodes changed at `sites`.
    ///
    /// Takes the edit-local re-parse ([`reparse_sites`]) when the
    /// format offers one at every site and parses `text` otherwise, so
    /// the result is always that of [`TextParse::new`]. Builds with
    /// debug assertions check this on every local result.
    ///
    /// `sites` must not nest or share a path and must be sorted in
    /// reverse document order, as `conferr_model::edit_sites` returns
    /// them. Each site's local re-parse then sees the sites after it
    /// already re-parsed, so what follows the site is final; see
    /// "Several sites" under [`ConfigFormat::reparse_edited`] for why
    /// this is sound for `ini`, whose checks also read what precedes a
    /// site.
    ///
    /// # Examples
    ///
    /// ```
    /// use conferr_formats::{ConfigFormat, KvFormat, TextParse};
    /// use conferr_tree::{EditSite, TreePath};
    ///
    /// let kv = KvFormat::new();
    /// let mut edited = kv.parse("port = 5432\nmax_connections = 10\nfsync = on\n").unwrap();
    /// let (first, last) = (TreePath::from(vec![0]), TreePath::from(vec![2]));
    /// edited.set_text_at(&first, Some("1\nwork_mem = 4MB".into())).unwrap();
    /// edited.delete(&last).unwrap();
    /// let text = kv.serialize(&edited).unwrap();
    /// let sites = [EditSite::Removed(last), EditSite::Replaced(first)];
    /// let parse = TextParse::of_edit(&kv, &text, edited, &sites);
    /// assert_eq!(parse.result(), kv.parse(&text).as_ref());
    /// assert_eq!(parse.result().unwrap().root().children().len(), 3);
    /// ```
    pub fn of_edit(
        format: &dyn ConfigFormat,
        text: &str,
        edited: ConfTree,
        sites: &[EditSite],
    ) -> Self {
        let Some(tree) = reparse_sites(format, edited, sites) else {
            return Self::new(format, text);
        };
        debug_assert_eq!(
            format.parse(text).as_ref(),
            Ok(&tree),
            "{} edit-local re-parse at {sites:?} differs from a full parse of {text:?}",
            format.name(),
        );
        TextParse {
            format: format.name().to_string(),
            result: Ok(tree),
        }
    }

    /// The name of the format that parsed the text.
    pub fn format(&self) -> &str {
        &self.format
    }

    /// The parsed tree, or the parser's error.
    pub fn result(&self) -> Result<&ConfTree, &ParseError> {
        self.result.as_ref()
    }
}

/// [`ConfigFormat::reparse_edited`] at each of `sites` in turn, or
/// `None` as soon as one site has no local re-parse (or when there is
/// no site).
///
/// `sites` must be disjoint and in reverse document order (see
/// [`TextParse::of_edit`], which is how callers use this). `Some(tree)`
/// then equals `format.parse(&format.serialize(&edited)?)`.
pub fn reparse_sites(
    format: &dyn ConfigFormat,
    edited: ConfTree,
    sites: &[EditSite],
) -> Option<ConfTree> {
    debug_assert!(
        sites.windows(2).all(|pair| pair[0].path() > pair[1].path()),
        "sites out of reverse document order: {sites:?}"
    );
    if sites.is_empty() {
        return None;
    }
    sites
        .iter()
        .try_fold(edited, |tree, site| format.reparse_edited(tree, site))
}

/// All built-in formats, for registry-style lookup.
pub fn builtin_formats() -> Vec<Box<dyn ConfigFormat>> {
    vec![
        Box::new(KvFormat::new()),
        Box::new(IniFormat::new()),
        Box::new(ApacheFormat::new()),
        Box::new(XmlFormat::new()),
        Box::new(ZoneFormat::new()),
        Box::new(TinyDnsFormat::new()),
    ]
}

/// Looks up a built-in format by [`ConfigFormat::name`].
pub fn format_by_name(name: &str) -> Option<Box<dyn ConfigFormat>> {
    builtin_formats().into_iter().find(|f| f.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_formats() {
        let names: Vec<String> = builtin_formats()
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        assert_eq!(names, ["kv", "ini", "apache", "xml", "zone", "tinydns"]);
    }

    #[test]
    fn format_by_name_finds_and_misses() {
        assert!(format_by_name("zone").is_some());
        assert!(format_by_name("toml").is_none());
    }

    #[test]
    fn text_parse_keeps_the_tree_or_the_error() {
        let ini = IniFormat::new();
        let ok = TextParse::new(&ini, "[mysqld]\nport=3306\n");
        assert_eq!(ok.format(), "ini");
        assert_eq!(
            ini.serialize(ok.result().unwrap()).unwrap(),
            "[mysqld]\nport=3306\n"
        );
        let err = TextParse::new(&ini, "[mysqld\n");
        assert_eq!(
            err.result().unwrap_err(),
            &ini.parse("[mysqld\n").unwrap_err()
        );
    }
}

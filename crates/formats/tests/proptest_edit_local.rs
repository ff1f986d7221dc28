//! Property tests: the edit-local re-parse
//! (`ConfigFormat::reparse_edited`) of the apache, ini and kv formats
//! equals a full parse of the edited file's text.
//!
//! Each case applies random single-node edits — `SetText`, `SetAttr`
//! and `Delete` — with adversarial text (line breaks, section
//! brackets, comment and separator characters, quotes, edge
//! whitespace, the empty string) to the example configurations and to
//! small hand-written variants, with and without a final newline.
//! Every `Some(tree)` must equal `parse(serialize(edited))`; `None` is
//! always allowed, but a case over newline-terminated text must take
//! the local path at least once.

use conferr_formats::{ApacheFormat, ConfigFormat, IniFormat, KvFormat};
use conferr_tree::{ConfTree, EditSite, TreePath};
use proptest::prelude::*;

const HTTPD_CONF: &str = include_str!("../../../examples/configs/apache/httpd.conf");
const MY_CNF: &str = include_str!("../../../examples/configs/mysql/my.cnf");
const POSTGRESQL_CONF: &str = include_str!("../../../examples/configs/postgres/postgresql.conf");

const APACHE_VARIANT: &str = "\
Listen 80
<VirtualHost *:80>
    ServerName www.example.com
    <Directory /var/www>
        Options None
    </Directory>
    # note
</VirtualHost>
ClearModuleList
";

const INI_VARIANT: &str = "\
global=1
; prologue

[a]
  x =  1  # inline
bare
[b]
y='q#r'
";

const KV_VARIANT: &str = "\
# header

port = 5432   # the port
  indented=1
bare
";

/// Pieces adversarial text is glued from.
const PIECES: &[&str] = &[
    "\n",
    "\r",
    "\r\n",
    "<",
    ">",
    "</X>",
    "</VirtualHost>",
    "<Foo>",
    "</Foo>",
    "[",
    "]",
    "[mysqld",
    "[s]",
    "#",
    ";",
    "=",
    "'",
    "\"",
    " ",
    "\t",
    "x",
    "80",
    "",
];

/// Attribute keys the three formats' nodes carry.
const KEYS: &[&str] = &[
    "name",
    "indent",
    "sep",
    "trailing",
    "args",
    "arg_sep",
    "close_name",
    "close_indent",
    "close_trailing",
    "bare",
];

fn adversarial() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..5)
        .prop_map(|pieces| pieces.concat())
}

/// One single-node edit: which node (an index into the non-root
/// nodes, wrapped), which operation, which attribute key, and the new
/// text.
fn edit() -> impl Strategy<Value = (usize, u8, usize, String)> {
    (0usize..1000, 0u8..4, 0..KEYS.len(), adversarial())
}

/// The bases a format is edited from: each text as given, without its
/// final newline, and with CRLF line ends.
fn bases(texts: &[&str]) -> Vec<String> {
    texts
        .iter()
        .flat_map(|text| {
            [
                (*text).to_string(),
                text.trim_end_matches('\n').to_string(),
                text.replace('\n', "\r\n"),
            ]
        })
        .collect()
}

/// Applies `edit` to `base`, returning the edited tree and its site.
fn apply(
    base: &ConfTree,
    (pick, op, key, text): &(usize, u8, usize, String),
) -> Option<(ConfTree, EditSite)> {
    let paths: Vec<TreePath> = base.iter().map(|(path, _)| path).skip(1).collect();
    let path = paths.get(pick % paths.len().max(1))?.clone();
    let mut edited = base.clone();
    let site = match op {
        0 => {
            edited.set_text_at(&path, Some(text.clone())).ok()?;
            EditSite::Replaced(path)
        }
        1 => {
            edited.set_text_at(&path, None).ok()?;
            EditSite::Replaced(path)
        }
        2 => {
            edited.set_attr_at(&path, KEYS[*key], text).ok()?;
            EditSite::Replaced(path)
        }
        _ => {
            edited.delete(&path).ok()?;
            EditSite::Removed(path)
        }
    };
    Some((edited, site))
}

/// Checks every edit of one case; returns how many took the local
/// path.
fn check(
    format: &dyn ConfigFormat,
    base_text: &str,
    edits: &[(usize, u8, usize, String)],
) -> Result<usize, String> {
    let base = format.parse(base_text).map_err(|e| e.to_string())?;
    let mut local = 0;
    for edit in edits {
        let Some((edited, site)) = apply(&base, edit) else {
            continue;
        };
        let Ok(text) = format.serialize(&edited) else {
            continue;
        };
        if let Some(tree) = format.reparse_edited(edited, &site) {
            let full = format.parse(&text);
            if full.as_ref() != Ok(&tree) {
                return Err(format!(
                    "{} edit {edit:?} at {}: local {tree:?} != full {full:?} of {text:?}",
                    format.name(),
                    site.path()
                ));
            }
            local += 1;
        }
    }
    Ok(local)
}

fn assert_local_equals_full(
    format: &dyn ConfigFormat,
    texts: &[&str],
    base: usize,
    edits: &[(usize, u8, usize, String)],
) {
    let bases = bases(texts);
    let base_text = &bases[base % bases.len()];
    let local = check(format, base_text, edits).unwrap_or_else(|e| panic!("{e}"));
    if base_text.ends_with('\n') {
        assert!(
            local > 0,
            "{}: no edit of {base_text:?} took the local path",
            format.name()
        );
    }
}

proptest! {
    #[test]
    fn apache_local_reparse_equals_full_parse(
        base in 0usize..6,
        edits in prop::collection::vec(edit(), 32..33),
    ) {
        assert_local_equals_full(&ApacheFormat::new(), &[HTTPD_CONF, APACHE_VARIANT], base, &edits);
    }

    #[test]
    fn ini_local_reparse_equals_full_parse(
        base in 0usize..6,
        edits in prop::collection::vec(edit(), 32..33),
    ) {
        assert_local_equals_full(&IniFormat::new(), &[MY_CNF, INI_VARIANT], base, &edits);
    }

    #[test]
    fn kv_local_reparse_equals_full_parse(
        base in 0usize..6,
        edits in prop::collection::vec(edit(), 32..33),
    ) {
        assert_local_equals_full(&KvFormat::new(), &[POSTGRESQL_CONF, KV_VARIANT], base, &edits);
    }
}

#[test]
fn formats_without_a_local_path_return_none() {
    use conferr_formats::{TinyDnsFormat, XmlFormat, ZoneFormat};
    let cases: [(&dyn ConfigFormat, &str); 3] = [
        (&XmlFormat::new(), "<a>\n  <b>x</b>\n</a>\n"),
        (&ZoneFormat::new(), "$TTL 60\nwww IN A 192.0.2.1\n"),
        (&TinyDnsFormat::new(), "=www.example.com:192.0.2.1:86400\n"),
    ];
    for (format, text) in cases {
        let tree = format.parse(text).unwrap();
        let site = EditSite::Removed(TreePath::from(vec![0]));
        assert!(
            format.reparse_edited(tree, &site).is_none(),
            "{}",
            format.name()
        );
    }
}

#[test]
fn fallbacks_the_contract_names() {
    let apache = ApacheFormat::new();
    let ini = IniFormat::new();
    let kv = KvFormat::new();
    let replaced = |path: &[usize]| EditSite::Replaced(TreePath::from(path.to_vec()));
    let set_text = |format: &dyn ConfigFormat, text: &str, path: &[usize], new: &str| {
        let mut tree = format.parse(text).unwrap();
        tree.set_text_at(&TreePath::from(path.to_vec()), Some(new.to_string()))
            .unwrap();
        format.reparse_edited(tree, &replaced(path))
    };
    // No final newline.
    assert!(set_text(&kv, "a = 1\nb = 2", &[0], "3").is_none());
    // The fragment does not parse on its own.
    assert!(set_text(&apache, "Listen 80\n", &[0], "80\n</VirtualHost>").is_none());
    assert!(set_text(&apache, "Listen 80\n", &[0], "80\n<Foo>").is_none());
    assert!(set_text(&ini, "[s]\nx=1\n", &[0, 0], "1\n[mysqld").is_none());
    // A header inside a section would take over the lines after it.
    assert!(set_text(&ini, "[s]\nx=1\ny=2\n", &[0, 0], "1\n[t]").is_none());
    // The empty file.
    let mut tree = kv.parse("a = 1\n").unwrap();
    tree.delete(&TreePath::from(vec![0])).unwrap();
    assert!(kv
        .reparse_edited(tree, &EditSite::Removed(TreePath::from(vec![0])))
        .is_none());
    // The root is not a site.
    assert!(set_text(&kv, "a = 1\n", &[], "x").is_none());
    // And the local path is taken for a plain value edit.
    assert!(set_text(&apache, "<V>\nListen 80\n</V>\n", &[0, 0], "8080").is_some());
    assert!(set_text(&ini, "[s]\nx=1\n", &[0, 0], "2").is_some());
    assert!(set_text(&kv, "a = 1\n", &[0], "2\nb = 3").is_some());
}

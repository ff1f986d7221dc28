//! Property tests: the edit-local re-parse
//! (`ConfigFormat::reparse_edited`, applied at each site of a fault by
//! `reparse_sites`) of the apache, ini and kv formats equals a full
//! parse of the edited file's text.
//!
//! Each case applies faults of one to three random node edits —
//! `SetText`, `SetAttr` and `Delete` — with adversarial text (line
//! breaks, section brackets, comment and separator characters, quotes,
//! edge whitespace, the empty string) to the example configurations
//! and to small hand-written variants, with and without a final
//! newline. The sites come from `conferr_model::edit_sites`, as the
//! campaign engine computes them. Every `Some(tree)` must equal
//! `parse(serialize(edited))`; `None` is always allowed, but a case
//! over newline-terminated text must take the local path at least
//! once for a fault with several sites.

use conferr_formats::{reparse_sites, ApacheFormat, ConfigFormat, IniFormat, KvFormat};
use conferr_model::{edit_sites, TreeEdit};
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

/// One node edit: which node (an index into the non-root nodes,
/// wrapped), which operation, which attribute key, and the new text.
type Edit = (usize, u8, usize, String);

fn edit() -> impl Strategy<Value = Edit> {
    (0usize..1000, 0u8..4, 0..KEYS.len(), adversarial())
}

/// One fault: one to three node edits, applied in order.
fn fault() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(edit(), 1..4)
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

/// Applies `edit` to `tree`, picking its node among `tree`'s own,
/// and returns the edit as the model states it.
fn apply(tree: &mut ConfTree, (pick, op, key, text): &Edit) -> Option<TreeEdit> {
    let paths: Vec<TreePath> = tree.iter().map(|(path, _)| path).skip(1).collect();
    let path = paths.get(pick % paths.len().max(1))?.clone();
    let file = "f".to_string();
    let edit = match op {
        0 => TreeEdit::SetText {
            file,
            path,
            text: Some(text.clone()),
        },
        1 => TreeEdit::SetText {
            file,
            path,
            text: None,
        },
        2 => TreeEdit::SetAttr {
            file,
            path,
            key: KEYS[*key].to_string(),
            value: text.clone(),
        },
        _ => TreeEdit::Delete { file, path },
    };
    match &edit {
        TreeEdit::SetText { path, text, .. } => tree.set_text_at(path, text.clone()).map(|_| ()),
        TreeEdit::SetAttr {
            path, key, value, ..
        } => tree.set_attr_at(path, key, value).map(|_| ()),
        TreeEdit::Delete { path, .. } => tree.delete(path).map(|_| ()),
        _ => unreachable!("only node edits are drawn"),
    }
    .ok()?;
    Some(edit)
}

/// Checks every fault of one case; returns how many took the local
/// path, and how many of those had more than one site.
fn check(
    format: &dyn ConfigFormat,
    base_text: &str,
    faults: &[Vec<Edit>],
) -> Result<(usize, usize), String> {
    let base = format.parse(base_text).map_err(|e| e.to_string())?;
    let (mut local, mut multi) = (0, 0);
    for fault in faults {
        let mut edited = base.clone();
        let edits: Vec<TreeEdit> = fault
            .iter()
            .filter_map(|edit| apply(&mut edited, edit))
            .collect();
        let Some(sites) = edit_sites(&edits, "f") else {
            continue;
        };
        let Ok(text) = format.serialize(&edited) else {
            continue;
        };
        if let Some(tree) = reparse_sites(format, edited, &sites) {
            let full = format.parse(&text);
            if full.as_ref() != Ok(&tree) {
                return Err(format!(
                    "{} edits {edits:?} at {sites:?}: local {tree:?} != full {full:?} of {text:?}",
                    format.name(),
                ));
            }
            local += 1;
            multi += usize::from(sites.len() > 1);
        }
    }
    Ok((local, multi))
}

fn assert_local_equals_full(
    format: &dyn ConfigFormat,
    texts: &[&str],
    base: usize,
    faults: &[Vec<Edit>],
) {
    let bases = bases(texts);
    let base_text = &bases[base % bases.len()];
    let (local, multi) = check(format, base_text, faults).unwrap_or_else(|e| panic!("{e}"));
    if base_text.ends_with('\n') {
        assert!(
            local > 0 && multi > 0,
            "{}: {local} faults of {base_text:?} took the local path, {multi} with several sites",
            format.name()
        );
    }
}

proptest! {
    #[test]
    fn apache_local_reparse_equals_full_parse(
        base in 0usize..6,
        faults in prop::collection::vec(fault(), 32..33),
    ) {
        assert_local_equals_full(&ApacheFormat::new(), &[HTTPD_CONF, APACHE_VARIANT], base, &faults);
    }

    #[test]
    fn ini_local_reparse_equals_full_parse(
        base in 0usize..6,
        faults in prop::collection::vec(fault(), 32..33),
    ) {
        assert_local_equals_full(&IniFormat::new(), &[MY_CNF, INI_VARIANT], base, &faults);
    }

    #[test]
    fn kv_local_reparse_equals_full_parse(
        base in 0usize..6,
        faults in prop::collection::vec(fault(), 32..33),
    ) {
        assert_local_equals_full(&KvFormat::new(), &[POSTGRESQL_CONF, KV_VARIANT], base, &faults);
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

#[test]
fn an_earlier_ini_site_that_takes_over_later_lines_falls_back() {
    let ini = IniFormat::new();
    let text = "g=1\nh=2\n[s]\nx=1\n";
    let sites = [
        EditSite::Replaced(TreePath::from(vec![1])),
        EditSite::Replaced(TreePath::from(vec![0])),
    ];
    let edit = |first: &str| {
        let mut tree = ini.parse(text).unwrap();
        tree.set_text_at(&TreePath::from(vec![0]), Some(first.to_string()))
            .unwrap();
        tree.set_text_at(&TreePath::from(vec![1]), Some("3".to_string()))
            .unwrap();
        let edited = ini.serialize(&tree).unwrap();
        (
            reparse_sites(&ini, tree, &sites),
            ini.parse(&edited).unwrap(),
        )
    };
    // The later site is re-parsed first, while the earlier one still
    // reads as a plain directive; the earlier one's header would take
    // `h` into its section, which its own check refuses.
    let (local, full) = edit("1\n[t]");
    assert!(local.is_none());
    assert_eq!(full.root().children()[1].attr("name"), Some("t"));
    let (local, full) = edit("2");
    assert_eq!(local, Some(full));
}

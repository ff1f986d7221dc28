//! Property tests: `conferr_tree::diff` over random edits of the six
//! example configurations reports exactly the ops of a plain reference
//! differ kept in this file.
//!
//! A fault's tree shares every untouched subtree with the original, and
//! `diff` skips shared children without reading their signatures. The
//! reference reads every signature, recurses into every aligned pair,
//! and checks that each child alignment is as long as a full
//! longest-common-subsequence match over the whole child lists. Both
//! sides of each edit are also compared as independently parsed trees,
//! where no node is shared.

use conferr_formats::{
    ApacheFormat, ConfigFormat, IniFormat, KvFormat, TinyDnsFormat, XmlFormat, ZoneFormat,
};
use conferr_tree::{diff, ConfTree, DiffOp, Node, TreePath};
use proptest::prelude::*;

const HTTPD_CONF: &str = include_str!("../../../examples/configs/apache/httpd.conf");
const MY_CNF: &str = include_str!("../../../examples/configs/mysql/my.cnf");
const POSTGRESQL_CONF: &str = include_str!("../../../examples/configs/postgres/postgresql.conf");
const SERVER_XML: &str = include_str!("../../../examples/configs/appserver/server.xml");
const FORWARD_ZONE: &str = include_str!("../../../examples/configs/bind/forward.zone");
const TINYDNS_DATA: &str = include_str!("../../../examples/configs/djbdns/data");

/// The six example configurations with their formats.
fn configs() -> Vec<(Box<dyn ConfigFormat>, &'static str)> {
    vec![
        (Box::new(ApacheFormat::new()), HTTPD_CONF),
        (Box::new(IniFormat::new()), MY_CNF),
        (Box::new(KvFormat::new()), POSTGRESQL_CONF),
        (Box::new(XmlFormat::new()), SERVER_XML),
        (Box::new(ZoneFormat::new()), FORWARD_ZONE),
        (Box::new(TinyDnsFormat::new()), TINYDNS_DATA),
    ]
}

fn signature(n: &Node) -> (&str, Option<&str>) {
    (n.kind(), n.attr("name"))
}

/// Length of a longest common subsequence of the two child lists'
/// signatures, by the textbook quadratic table.
fn full_lcs_len(a: &[Node], b: &[Node]) -> usize {
    let mut table = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            table[i][j] = if signature(&a[i]) == signature(&b[j]) {
                table[i + 1][j + 1] + 1
            } else {
                table[i + 1][j].max(table[i][j + 1])
            };
        }
    }
    table[0][0]
}

/// The child alignment `diff` promises: equal-signature heads, then
/// equal-signature tails, are paired directly; the window between them
/// is aligned by an LCS table, preferring to skip an old child on ties.
/// The result must be as long as a full LCS over the whole lists.
fn reference_pairs(a: &[Node], b: &[Node]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    let mut prefix = 0;
    while prefix < n && prefix < m && signature(&a[prefix]) == signature(&b[prefix]) {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < n - prefix
        && suffix < m - prefix
        && signature(&a[n - 1 - suffix]) == signature(&b[m - 1 - suffix])
    {
        suffix += 1;
    }
    let wa = &a[prefix..n - suffix];
    let wb = &b[prefix..m - suffix];
    let mut table = vec![vec![0usize; wb.len() + 1]; wa.len() + 1];
    for i in (0..wa.len()).rev() {
        for j in (0..wb.len()).rev() {
            table[i][j] = if signature(&wa[i]) == signature(&wb[j]) {
                table[i + 1][j + 1] + 1
            } else {
                table[i + 1][j].max(table[i][j + 1])
            };
        }
    }
    let mut pairs: Vec<(usize, usize)> = (0..prefix).map(|i| (i, i)).collect();
    let (mut i, mut j) = (0, 0);
    while i < wa.len() && j < wb.len() {
        if signature(&wa[i]) == signature(&wb[j]) {
            pairs.push((prefix + i, prefix + j));
            i += 1;
            j += 1;
        } else if table[i + 1][j] >= table[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    pairs.extend((0..suffix).map(|k| (n - suffix + k, m - suffix + k)));
    assert_eq!(
        pairs.len(),
        full_lcs_len(a, b),
        "alignment is not a longest match"
    );
    pairs
}

fn shallow_equal(a: &Node, b: &Node) -> bool {
    a.kind() == b.kind() && a.text() == b.text() && a.attrs().eq(b.attrs())
}

fn reference_nodes(
    old: &Node,
    new: &Node,
    old_path: &[usize],
    new_path: &[usize],
    ops: &mut Vec<DiffOp>,
) {
    let at = |stack: &[usize], index: usize| {
        let mut segments = stack.to_vec();
        segments.push(index);
        TreePath::from(segments)
    };
    if !shallow_equal(old, new) {
        ops.push(DiffOp::Changed {
            path: TreePath::from(new_path.to_vec()),
            before: old.describe(),
            after: new.describe(),
        });
    }
    let (a, b) = (old.children(), new.children());
    let (mut ai, mut bi) = (0, 0);
    let mut pairs = reference_pairs(a, b);
    pairs.push((a.len(), b.len()));
    for (pa, pb) in pairs {
        for (i, gone) in a.iter().enumerate().take(pa).skip(ai) {
            ops.push(DiffOp::Deleted {
                path: at(old_path, i),
                node: gone.describe(),
            });
        }
        for (j, added) in b.iter().enumerate().take(pb).skip(bi) {
            ops.push(DiffOp::Inserted {
                path: at(new_path, j),
                node: added.describe(),
            });
        }
        if pa < a.len() {
            let (old_child, new_child) = (at(old_path, pa), at(new_path, pb));
            reference_nodes(
                &a[pa],
                &b[pb],
                old_child.indices(),
                new_child.indices(),
                ops,
            );
        }
        ai = pa + 1;
        bi = pb + 1;
    }
}

fn reference_diff(old: &ConfTree, new: &ConfTree) -> Vec<DiffOp> {
    let mut ops = Vec::new();
    reference_nodes(old.root(), new.root(), &[], &[], &mut ops);
    ops
}

/// One random edit: which node (an index into the non-root nodes,
/// wrapped), which operation, a second index, and a text.
type Edit = (usize, u8, usize, String);

fn edit() -> impl Strategy<Value = Edit> {
    (0usize..1000, 0u8..8, 0usize..1000, "[a-zA-Z0-9 ]{0,6}")
}

/// Applies `edit` to `tree` in place; edits that do not fit the tree
/// (for example moving a node into itself) are skipped.
fn apply(tree: &mut ConfTree, (pick, op, other, text): &Edit) {
    let paths: Vec<TreePath> = tree.iter().map(|(path, _)| path).skip(1).collect();
    if paths.is_empty() {
        return;
    }
    let path = &paths[pick % paths.len()];
    let target = &paths[other % paths.len()];
    let parent = path.parent().expect("non-root path");
    let index = path.last_index().expect("non-root path");
    let _ = match op {
        0 => tree.delete(path).map(drop),
        1 => tree.duplicate(path).map(drop),
        2 => tree.set_text_at(path, Some(text.clone())).map(drop),
        3 => tree.set_attr_at(path, "name", text).map(drop),
        4 => {
            let siblings = tree.node_at(&parent).map_or(1, |p| p.children().len());
            tree.move_node(path, &parent, other % siblings).map(drop)
        }
        5 => {
            let siblings = tree.node_at(&parent).map_or(1, |p| p.children().len());
            tree.swap_children(&parent, index, other % siblings)
        }
        6 => {
            let copy = tree.node_at(target).cloned();
            copy.and_then(|node| tree.insert(&parent, index, node).map(drop))
        }
        _ => tree
            .replace(
                path,
                Node::new("directive").with_attr("name", text.as_str()),
            )
            .map(drop),
    };
}

fn check(format: &dyn ConfigFormat, text: &str, edits: &[Edit]) {
    let base = format.parse(text).expect("example config parses");
    let mut edited = base.clone();
    for e in edits {
        apply(&mut edited, e);
    }
    for (old, new) in [(&base, &edited), (&edited, &base)] {
        assert_eq!(
            diff(old, new),
            reference_diff(old, new),
            "{} edits {edits:?}",
            format.name()
        );
    }
    // The same trees rebuilt from text share no node.
    if let Ok(edited_text) = format.serialize(&edited) {
        if let Ok(reparsed) = format.parse(&edited_text) {
            let fresh = format.parse(text).expect("example config parses");
            assert_eq!(
                diff(&fresh, &reparsed),
                reference_diff(&fresh, &reparsed),
                "{} reparsed edits {edits:?}",
                format.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn diff_matches_the_reference_over_random_edits(
        config in 0usize..6,
        edits in prop::collection::vec(edit(), 1..5),
    ) {
        let configs = configs();
        let (format, text) = &configs[config];
        check(format.as_ref(), text, &edits);
    }
}

#[test]
fn diff_of_an_unedited_copy_is_empty() {
    for (format, text) in configs() {
        let base = format.parse(text).unwrap();
        assert!(diff(&base, &base.clone()).is_empty());
        assert!(reference_diff(&base, &base.clone()).is_empty());
    }
}

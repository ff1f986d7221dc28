//! The bodies the line-oriented formats (apache, ini, kv) share: the
//! full serializer and the edit-local re-parse
//! ([`ConfigFormat::reparse_edited`]).

use conferr_tree::{ConfTree, EditSite, Node};

use crate::{ConfigFormat, SerializeError};

/// Bytes reserved per line of serialized output: above the example
/// configurations' 20–25 bytes per line, so their text is written
/// into one allocation.
const LINE_ESTIMATE: usize = 32;

/// Serializes the root's children with `serialize_node`, dropping the
/// last newline when the root says the file had none.
///
/// The output is reserved up front from a line count (each root child
/// and each of its children is about one line), so a file of a few
/// kilobytes no longer grows its buffer about ten times.
pub(crate) fn serialize(
    tree: &ConfTree,
    serialize_node: fn(&Node, &mut String) -> Result<(), SerializeError>,
) -> Result<String, SerializeError> {
    let root = tree.root();
    let lines: usize = root.children().iter().map(|c| 1 + c.children().len()).sum();
    let mut out = String::with_capacity(lines * LINE_ESTIMATE);
    for child in root.children() {
        serialize_node(child, &mut out)?;
    }
    if root.attr("final_newline") == Some("no") && out.ends_with('\n') {
        out.pop();
    }
    Ok(out)
}

/// Re-parses `edited` from the lines of its one changed node.
///
/// `serialize_node` writes one node's lines exactly as the format's
/// full serializer writes them. `fits` sees the site's parent (in
/// `edited`), the site and the fragment's nodes, and says whether the
/// fragment parses the same in place as on its own; the checks common
/// to every format (bare root, fragment parses, bare fragment root)
/// are made here.
pub(crate) fn reparse_edited(
    format: &dyn ConfigFormat,
    mut edited: ConfTree,
    site: &EditSite,
    serialize_node: fn(&Node, &mut String) -> Result<(), SerializeError>,
    fits: impl FnOnce(&Node, &EditSite, &[Node]) -> bool,
) -> Option<ConfTree> {
    if edited.root().children().is_empty() || !is_bare_root(edited.root(), format.name()) {
        return None;
    }
    let path = site.path();
    let parent_path = path.parent()?;
    let index = path.last_index()?;
    let fragment = match site {
        EditSite::Replaced(_) => {
            let mut text = String::new();
            serialize_node(edited.node_at(path).ok()?, &mut text).ok()?;
            let parsed = format.parse(&text).ok()?;
            if !is_bare_root(parsed.root(), format.name()) {
                return None;
            }
            std::mem::take(parsed.into_root().children_mut())
        }
        EditSite::Removed(_) => Vec::new(),
    };
    let parent = edited.node_at(&parent_path).ok()?;
    if index > parent.children().len() || !fits(parent, site, &fragment) {
        return None;
    }
    if let EditSite::Replaced(_) = site {
        // `edited` is already a copy of this path, so this detaches
        // nothing that is still shared.
        edited
            .node_at_mut(&parent_path)
            .ok()?
            .children_mut()
            .splice(index..=index, fragment);
    }
    Some(edited)
}

/// The root a parse of non-empty, newline-terminated text produces:
/// a `config` node with no text and no attribute but `format`.
fn is_bare_root(root: &Node, format: &str) -> bool {
    root.kind() == "config"
        && root.text().is_none()
        && root.attr_count() == 1
        && root.attr("format") == Some(format)
}

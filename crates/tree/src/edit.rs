//! Editing operations on [`ConfTree`].
//!
//! These are the primitive mutations from which ConfErr error templates
//! are built: delete, insert, replace, duplicate, move, swap, and
//! text/attribute modification. All operations address nodes by
//! [`TreePath`] and fail loudly (never panic) when a path does not
//! resolve or an edit is structurally impossible.

use crate::{ConfTree, Node, TreeError, TreePath};

/// The result of a structural edit, reporting where affected nodes
/// ended up. Paths of *other* nodes in the tree may have been
/// invalidated by the edit; callers that chain edits should re-query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditOutcome {
    /// Path of the node the edit produced or acted on, where
    /// meaningful (e.g. the copy produced by `duplicate`, the new
    /// location after `move_node`).
    pub path: Option<TreePath>,
}

/// Where one edit changed a tree: a single node replaced in place, or
/// removed.
///
/// A format can re-parse an edited tree from the site's own lines
/// instead of the whole document (see `conferr_formats::ConfigFormat`);
/// the site is all it needs to find them. A fault of several edits
/// leaves one site per disjoint change (see
/// `conferr_model::edit_sites`).
///
/// ```
/// use conferr_tree::{EditSite, TreePath};
///
/// let site = EditSite::Removed(TreePath::from(vec![0, 2]));
/// assert_eq!(site.path().to_string(), "/0/2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditSite {
    /// The node at this path was changed in place: its text, its
    /// attributes, or anything in its subtree.
    Replaced(TreePath),
    /// The node that was at this path was removed; its later siblings
    /// moved down by one.
    Removed(TreePath),
}

impl EditSite {
    /// The path of the replaced or removed node.
    pub fn path(&self) -> &TreePath {
        match self {
            EditSite::Replaced(path) | EditSite::Removed(path) => path,
        }
    }
}

impl ConfTree {
    /// Deletes the node at `path` and returns it.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::InvalidEdit`] when asked to delete the
    /// root, or [`TreeError::PathNotFound`] when the path does not
    /// resolve.
    pub fn delete(&mut self, path: &TreePath) -> Result<Node, TreeError> {
        let parent_path = path.parent().ok_or(TreeError::InvalidEdit {
            reason: "cannot delete the root node".to_string(),
        })?;
        let idx = path.last_index().expect("non-root path has a last index");
        let parent = self.node_at_mut(&parent_path)?;
        if idx >= parent.children().len() {
            return Err(TreeError::PathNotFound {
                path: path.clone(),
                depth: path.depth() - 1,
            });
        }
        Ok(parent.children_mut().remove(idx))
    }

    /// Inserts `node` as the `index`-th child of the node at `parent`.
    /// `index == len` appends.
    ///
    /// # Errors
    ///
    /// Fails if `parent` does not resolve or `index > len`.
    pub fn insert(
        &mut self,
        parent: &TreePath,
        index: usize,
        node: Node,
    ) -> Result<EditOutcome, TreeError> {
        let parent_node = self.node_at_mut(parent)?;
        let len = parent_node.children().len();
        if index > len {
            return Err(TreeError::IndexOutOfBounds {
                parent: parent.clone(),
                index,
                len,
            });
        }
        parent_node.children_mut().insert(index, node);
        Ok(EditOutcome {
            path: Some(parent.child(index)),
        })
    }

    /// Replaces the node at `path` with `node`, returning the old node.
    ///
    /// # Errors
    ///
    /// Fails if `path` does not resolve. Replacing the root is allowed.
    pub fn replace(&mut self, path: &TreePath, node: Node) -> Result<Node, TreeError> {
        let target = self.node_at_mut(path)?;
        Ok(std::mem::replace(target, node))
    }

    /// Duplicates the node at `path`, inserting the copy immediately
    /// after the original. Returns the copy's path.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::InvalidEdit`] for the root, or
    /// [`TreeError::PathNotFound`] for unresolvable paths.
    pub fn duplicate(&mut self, path: &TreePath) -> Result<EditOutcome, TreeError> {
        let copy = self.node_at(path)?.clone();
        let parent_path = path.parent().ok_or(TreeError::InvalidEdit {
            reason: "cannot duplicate the root node".to_string(),
        })?;
        let idx = path.last_index().expect("non-root path");
        self.insert(&parent_path, idx + 1, copy)
    }

    /// Moves the node at `from` to become the `index`-th child of
    /// `to_parent`. Returns the node's new path.
    ///
    /// The insertion index is interpreted against the destination's
    /// child list *after* the node has been removed from its old
    /// position (relevant when moving within the same parent).
    ///
    /// # Errors
    ///
    /// Fails when `from` is the root, when `to_parent` lies inside the
    /// subtree being moved, when either path does not resolve, or when
    /// `index` is out of bounds.
    pub fn move_node(
        &mut self,
        from: &TreePath,
        to_parent: &TreePath,
        index: usize,
    ) -> Result<EditOutcome, TreeError> {
        if from.is_ancestor_of(to_parent) || from == to_parent {
            return Err(TreeError::InvalidEdit {
                reason: format!("cannot move {from} into its own subtree ({to_parent})"),
            });
        }
        // Validate everything up front so a failed move leaves the
        // tree untouched: both paths must resolve, and `index` must be
        // in bounds for the destination *after* the node's removal.
        self.node_at(from)?;
        let dest_len = self.node_at(to_parent)?.children().len();
        let expected_len = if from.parent().as_ref() == Some(to_parent) {
            dest_len - 1
        } else {
            dest_len
        };
        if index > expected_len {
            return Err(TreeError::IndexOutOfBounds {
                parent: to_parent.clone(),
                index,
                len: expected_len,
            });
        }

        let node = self.delete(from)?;

        // Removing `from` may have shifted the destination parent's
        // path: if both share a parent prefix and `from` sorts before
        // the destination at the divergence point, decrement that step.
        let adjusted_parent = adjust_path_after_removal(to_parent, from);
        let outcome = self
            .insert(&adjusted_parent, index, node)
            .expect("destination and index were validated before the removal");
        Ok(outcome)
    }

    /// Swaps children `i` and `j` of the node at `parent`.
    ///
    /// # Errors
    ///
    /// Fails if `parent` does not resolve or either index is out of
    /// bounds.
    pub fn swap_children(
        &mut self,
        parent: &TreePath,
        i: usize,
        j: usize,
    ) -> Result<(), TreeError> {
        let node = self.node_at_mut(parent)?;
        let len = node.children().len();
        for idx in [i, j] {
            if idx >= len {
                return Err(TreeError::IndexOutOfBounds {
                    parent: parent.clone(),
                    index: idx,
                    len,
                });
            }
        }
        node.children_mut().swap(i, j);
        Ok(())
    }

    /// Sets the text of the node at `path`, returning the previous
    /// text.
    ///
    /// # Errors
    ///
    /// Fails if `path` does not resolve.
    pub fn set_text_at(
        &mut self,
        path: &TreePath,
        text: Option<String>,
    ) -> Result<Option<String>, TreeError> {
        Ok(self.node_at_mut(path)?.set_text(text))
    }

    /// Sets an attribute of the node at `path`, returning the previous
    /// value.
    ///
    /// # Errors
    ///
    /// Fails if `path` does not resolve.
    pub fn set_attr_at(
        &mut self,
        path: &TreePath,
        key: &str,
        value: &str,
    ) -> Result<Option<String>, TreeError> {
        Ok(self.node_at_mut(path)?.set_attr(key, value))
    }
}

/// After removing the node at `removed`, rewrites `path` so it still
/// addresses the same node. `path` must not be inside the removed
/// subtree (callers guarantee this).
fn adjust_path_after_removal(path: &TreePath, removed: &TreePath) -> TreePath {
    let r = removed.indices();
    let p = path.indices();
    if r.is_empty() || p.len() < r.len() {
        return path.clone();
    }
    let prefix_len = r.len() - 1;
    if p[..prefix_len] == r[..prefix_len] && p.len() >= r.len() && p[prefix_len] > r[prefix_len] {
        let mut v = p.to_vec();
        v[prefix_len] -= 1;
        TreePath::from(v)
    } else {
        path.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> ConfTree {
        // config
        //   sec-a [d1 d2]
        //   sec-b [d3]
        ConfTree::new(
            Node::new("config")
                .with_child(
                    Node::new("section")
                        .with_attr("name", "a")
                        .with_child(Node::new("directive").with_attr("name", "d1"))
                        .with_child(Node::new("directive").with_attr("name", "d2")),
                )
                .with_child(
                    Node::new("section")
                        .with_attr("name", "b")
                        .with_child(Node::new("directive").with_attr("name", "d3")),
                ),
        )
    }

    #[test]
    fn delete_returns_removed_node() {
        let mut t = tree();
        let removed = t.delete(&TreePath::from(vec![0, 1])).unwrap();
        assert_eq!(removed.attr("name"), Some("d2"));
        assert_eq!(
            t.node_at(&TreePath::from(vec![0]))
                .unwrap()
                .children()
                .len(),
            1
        );
    }

    #[test]
    fn delete_root_is_rejected() {
        let mut t = tree();
        assert!(matches!(
            t.delete(&TreePath::root()),
            Err(TreeError::InvalidEdit { .. })
        ));
    }

    #[test]
    fn insert_appends_and_errors_past_end() {
        let mut t = tree();
        let parent = TreePath::from(vec![1]);
        t.insert(&parent, 1, Node::new("directive").with_attr("name", "d4"))
            .unwrap();
        assert_eq!(t.node_at(&parent).unwrap().children().len(), 2);
        assert!(matches!(
            t.insert(&parent, 5, Node::new("x")),
            Err(TreeError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn duplicate_places_copy_after_original() {
        let mut t = tree();
        let out = t.duplicate(&TreePath::from(vec![0, 0])).unwrap();
        assert_eq!(out.path, Some(TreePath::from(vec![0, 1])));
        let sec = t.node_at(&TreePath::from(vec![0])).unwrap();
        assert_eq!(sec.children().len(), 3);
        assert_eq!(sec.children()[0].attr("name"), Some("d1"));
        assert_eq!(sec.children()[1].attr("name"), Some("d1"));
    }

    #[test]
    fn move_between_sections() {
        let mut t = tree();
        let out = t
            .move_node(&TreePath::from(vec![0, 0]), &TreePath::from(vec![1]), 0)
            .unwrap();
        assert_eq!(out.path, Some(TreePath::from(vec![1, 0])));
        assert_eq!(
            t.node_at(&TreePath::from(vec![1, 0])).unwrap().attr("name"),
            Some("d1")
        );
        assert_eq!(
            t.node_at(&TreePath::from(vec![0]))
                .unwrap()
                .children()
                .len(),
            1
        );
    }

    #[test]
    fn move_into_own_subtree_is_rejected() {
        let mut t = tree();
        let err = t
            .move_node(&TreePath::from(vec![0]), &TreePath::from(vec![0, 0]), 0)
            .unwrap_err();
        assert!(matches!(err, TreeError::InvalidEdit { .. }));
    }

    #[test]
    fn failed_move_leaves_tree_untouched() {
        let mut t = tree();
        let before = t.clone();
        // Destination index out of bounds: sec-b has 1 child.
        let err = t
            .move_node(&TreePath::from(vec![0, 0]), &TreePath::from(vec![1]), 5)
            .unwrap_err();
        assert!(matches!(err, TreeError::IndexOutOfBounds { .. }));
        assert_eq!(t, before, "no node may be lost on a failed move");
    }

    #[test]
    fn move_within_same_parent_counts_index_after_removal() {
        let mut t = tree();
        // sec-a has two children; moving d1 to index 1 (the last slot
        // after removal) puts it after d2.
        let out = t
            .move_node(&TreePath::from(vec![0, 0]), &TreePath::from(vec![0]), 1)
            .unwrap();
        assert_eq!(out.path, Some(TreePath::from(vec![0, 1])));
        let sec = t.node_at(&TreePath::from(vec![0])).unwrap();
        assert_eq!(sec.children()[0].attr("name"), Some("d2"));
        assert_eq!(sec.children()[1].attr("name"), Some("d1"));
        // Index 2 would be out of bounds post-removal.
        let mut t2 = tree();
        assert!(t2
            .move_node(&TreePath::from(vec![0, 0]), &TreePath::from(vec![0]), 2)
            .is_err());
    }

    #[test]
    fn move_earlier_sibling_adjusts_destination_path() {
        // Moving sec-a's child into sec-b where sec-b's path shifts
        // because sec-a itself was removed: move the whole sec-a (path
        // /0) into sec-b (path /1): destination becomes /0 after
        // removal.
        let mut t = tree();
        let out = t
            .move_node(&TreePath::from(vec![0]), &TreePath::from(vec![1]), 1)
            .unwrap();
        assert_eq!(out.path, Some(TreePath::from(vec![0, 1])));
        let root = t.root();
        assert_eq!(root.children().len(), 1);
        let sec_b = &root.children()[0];
        assert_eq!(sec_b.attr("name"), Some("b"));
        assert_eq!(sec_b.children()[1].attr("name"), Some("a"));
    }

    #[test]
    fn swap_children_swaps_and_validates() {
        let mut t = tree();
        t.swap_children(&TreePath::from(vec![0]), 0, 1).unwrap();
        let sec = t.node_at(&TreePath::from(vec![0])).unwrap();
        assert_eq!(sec.children()[0].attr("name"), Some("d2"));
        assert!(t.swap_children(&TreePath::from(vec![0]), 0, 9).is_err());
    }

    #[test]
    fn set_text_and_attr_at_paths() {
        let mut t = tree();
        let p = TreePath::from(vec![0, 0]);
        t.set_text_at(&p, Some("v".into())).unwrap();
        assert_eq!(t.node_at(&p).unwrap().text(), Some("v"));
        t.set_attr_at(&p, "name", "renamed").unwrap();
        assert_eq!(t.node_at(&p).unwrap().attr("name"), Some("renamed"));
    }
}

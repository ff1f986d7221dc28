//! Abstract configuration-tree representation for ConfErr.
//!
//! # Architecture
//!
//! This crate is the *foundation layer* of the reproduction (paper
//! §3.2): in the workspace DAG
//! `tree → {keyboard, formats, model} → {plugins, sut} → core → bench`
//! every other crate builds on these trees — formats parse text into
//! them, the model edits them, plugins select injection targets in
//! them, and the campaign engine diffs them.
//!
//! The DSN 2008 ConfErr paper models configuration files as XML
//! information sets: trees of *information items* with attached
//! properties. This crate provides the native Rust equivalent:
//!
//! * [`Node`] — a tree node with a *kind* (element name), string
//!   attributes, optional text content and ordered children;
//! * [`ConfTree`] — a whole configuration document (a root node plus
//!   editing operations that address nodes by [`TreePath`]);
//! * [`NodeQuery`] — a small XPath-like query language used by error
//!   templates to select injection targets declaratively;
//! * [`diff`] — a structural differ used by resilience reports to
//!   describe the injected error as a human-readable edit.
//!
//! # Examples
//!
//! ```
//! use conferr_tree::{ConfTree, Node, NodeQuery};
//!
//! # fn main() -> Result<(), conferr_tree::TreeError> {
//! let tree = ConfTree::new(
//!     Node::new("config")
//!         .with_child(
//!             Node::new("section").with_attr("name", "mysqld").with_child(
//!                 Node::new("directive")
//!                     .with_attr("name", "port")
//!                     .with_text("3306"),
//!             ),
//!         ),
//! );
//!
//! let q: NodeQuery = "/section[@name='mysqld']/directive[@name='port']".parse()?;
//! let hits = q.select(&tree);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(tree.node_at(&hits[0])?.text(), Some("3306"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod diff_impl;
mod edit;
mod error;
mod node;
mod path;
mod query;

pub use diff_impl::{diff, DiffOp};
pub use edit::{EditOutcome, EditSite};
pub use error::TreeError;
pub use node::{Node, NodeIter};
pub use path::TreePath;
pub use query::{NodeQuery, Predicate, Step};

use serde::{Deserialize, Serialize};

/// A whole configuration document: a named root [`Node`] plus editing
/// operations addressed by [`TreePath`].
///
/// `ConfTree` is the unit that parsers produce, error templates mutate,
/// and serializers consume. Because [`Node`] is an `Arc`-backed
/// copy-on-write handle, cloning a tree is a reference-count bump and
/// editing a clone copies only the root-to-edit path
/// ([`ConfTree::node_at_mut`] detaches one node per level as it
/// descends); untouched subtrees stay shared with the original, which
/// [`Node::ptr_eq`] can observe.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConfTree {
    root: Node,
}

impl ConfTree {
    /// Creates a tree from its root node.
    pub fn new(root: Node) -> Self {
        ConfTree { root }
    }

    /// Shared access to the root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Exclusive access to the root node.
    pub fn root_mut(&mut self) -> &mut Node {
        &mut self.root
    }

    /// Consumes the tree and returns the root node.
    pub fn into_root(self) -> Node {
        self.root
    }

    /// Resolves `path` to a shared node reference.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::PathNotFound`] if any index along the path
    /// is out of bounds.
    pub fn node_at(&self, path: &TreePath) -> Result<&Node, TreeError> {
        let mut cur = &self.root;
        for (depth, &idx) in path.indices().iter().enumerate() {
            cur = cur
                .children()
                .get(idx)
                .ok_or_else(|| TreeError::PathNotFound {
                    path: path.clone(),
                    depth,
                })?;
        }
        Ok(cur)
    }

    /// Resolves `path` to an exclusive node reference, detaching (at
    /// most) one shared node per level on the way down — the
    /// path-proportional copy that makes editing a clone of a shared
    /// tree cheap.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::PathNotFound`] if any index along the path
    /// is out of bounds.
    pub fn node_at_mut(&mut self, path: &TreePath) -> Result<&mut Node, TreeError> {
        let mut cur = &mut self.root;
        for (depth, &idx) in path.indices().iter().enumerate() {
            cur = cur
                .children_mut()
                .get_mut(idx)
                .ok_or(TreeError::PathNotFound {
                    path: path.clone(),
                    depth,
                })?;
        }
        Ok(cur)
    }

    /// Depth-first iterator over `(path, node)` pairs, root included.
    pub fn iter(&self) -> NodeIter<'_> {
        NodeIter::new(&self.root)
    }

    /// Total number of nodes in the tree, root included.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` iff the tree consists of the root node only.
    pub fn is_empty(&self) -> bool {
        self.root.children().is_empty()
    }
}

impl From<Node> for ConfTree {
    fn from(root: Node) -> Self {
        ConfTree::new(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfTree {
        ConfTree::new(
            Node::new("config")
                .with_child(
                    Node::new("section")
                        .with_attr("name", "main")
                        .with_child(Node::new("directive").with_attr("name", "a").with_text("1"))
                        .with_child(Node::new("directive").with_attr("name", "b").with_text("2")),
                )
                .with_child(Node::new("comment").with_text("# hi")),
        )
    }

    #[test]
    fn node_at_resolves_nested_paths() {
        let t = sample();
        let n = t.node_at(&TreePath::from(vec![0, 1])).unwrap();
        assert_eq!(n.attr("name"), Some("b"));
    }

    #[test]
    fn node_at_rejects_out_of_bounds() {
        let t = sample();
        let err = t.node_at(&TreePath::from(vec![0, 9])).unwrap_err();
        match err {
            TreeError::PathNotFound { depth, .. } => assert_eq!(depth, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn iter_visits_all_nodes_depth_first() {
        let t = sample();
        let kinds: Vec<&str> = t.iter().map(|(_, n)| n.kind()).collect();
        assert_eq!(
            kinds,
            ["config", "section", "directive", "directive", "comment"]
        );
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn empty_checks_root_children() {
        assert!(ConfTree::new(Node::new("x")).is_empty());
        assert!(!sample().is_empty());
    }
}

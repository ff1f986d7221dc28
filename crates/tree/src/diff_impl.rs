//! Structural diffing between two configuration trees.
//!
//! Resilience reports describe each injected error as the edit it
//! performed on the original configuration. [`diff`] recovers that
//! description by comparing the pristine and mutated trees.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ConfTree, Node, TreePath};

/// One observed difference between two trees.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffOp {
    /// A node present in the old tree is missing from the new one.
    Deleted {
        /// Path in the *old* tree.
        path: TreePath,
        /// Description of the deleted node.
        node: String,
    },
    /// A node present in the new tree has no counterpart in the old
    /// one.
    Inserted {
        /// Path in the *new* tree.
        path: TreePath,
        /// Description of the inserted node.
        node: String,
    },
    /// Kind, attributes or text changed in place.
    Changed {
        /// Path (valid in both trees).
        path: TreePath,
        /// Description of the node before.
        before: String,
        /// Description of the node after.
        after: String,
    },
}

impl fmt::Display for DiffOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffOp::Deleted { path, node } => write!(f, "- {path} {node}"),
            DiffOp::Inserted { path, node } => write!(f, "+ {path} {node}"),
            DiffOp::Changed {
                path,
                before,
                after,
            } => {
                write!(f, "~ {path} {before} -> {after}")
            }
        }
    }
}

/// Computes the differences between `old` and `new`.
///
/// Children are aligned with a longest-common-subsequence match on
/// node *signatures* (kind plus `name` attribute), so a single
/// insertion or deletion in a long child list is reported as exactly
/// one op rather than a cascade of changes. Unaligned nodes are
/// reported as deleted/inserted; aligned nodes with differing
/// kind/attrs/text are reported as changed and their children compared
/// recursively.
pub fn diff(old: &ConfTree, new: &ConfTree) -> Vec<DiffOp> {
    let mut ops = Vec::new();
    let mut old_path = Vec::new();
    let mut new_path = Vec::new();
    diff_nodes(
        old.root(),
        new.root(),
        &mut old_path,
        &mut new_path,
        &mut ops,
    );
    ops
}

/// Materializes a path stack plus a final child index into a
/// [`TreePath`] — only called when an op is actually emitted, so the
/// all-equal hot path allocates nothing per node.
fn path_at(stack: &[usize], index: usize) -> TreePath {
    let mut segments = Vec::with_capacity(stack.len() + 1);
    segments.extend_from_slice(stack);
    segments.push(index);
    TreePath::from(segments)
}

fn signature(n: &Node) -> (&str, Option<&str>) {
    (n.kind(), n.attr("name"))
}

fn shallow_equal(a: &Node, b: &Node) -> bool {
    a.kind() == b.kind() && a.text() == b.text() && a.attrs().eq(b.attrs())
}

fn diff_nodes(
    old: &Node,
    new: &Node,
    old_path: &mut Vec<usize>,
    new_path: &mut Vec<usize>,
    ops: &mut Vec<DiffOp>,
) {
    if !shallow_equal(old, new) {
        ops.push(DiffOp::Changed {
            path: TreePath::from(new_path.clone()),
            before: old.describe(),
            after: new.describe(),
        });
    }
    let a = old.children();
    let b = new.children();
    let pairs = lcs_pairs(a, b);
    let mut ai = 0;
    let mut bi = 0;
    for &(pa, pb) in &pairs {
        while ai < pa {
            ops.push(DiffOp::Deleted {
                path: path_at(old_path, ai),
                node: a[ai].describe(),
            });
            ai += 1;
        }
        while bi < pb {
            ops.push(DiffOp::Inserted {
                path: path_at(new_path, bi),
                node: b[bi].describe(),
            });
            bi += 1;
        }
        // Equal subtrees need no recursion; the compare is shallow-
        // first and cheap, and single-point edits leave almost every
        // paired subtree untouched.
        if a[pa] != b[pb] {
            old_path.push(pa);
            new_path.push(pb);
            diff_nodes(&a[pa], &b[pb], old_path, new_path, ops);
            old_path.pop();
            new_path.pop();
        }
        ai = pa + 1;
        bi = pb + 1;
    }
    while ai < a.len() {
        ops.push(DiffOp::Deleted {
            path: path_at(old_path, ai),
            node: a[ai].describe(),
        });
        ai += 1;
    }
    while bi < b.len() {
        ops.push(DiffOp::Inserted {
            path: path_at(new_path, bi),
            node: b[bi].describe(),
        });
        bi += 1;
    }
}

/// Longest common subsequence over child signatures; returns matched
/// index pairs in increasing order.
///
/// Fault scenarios are single-point edits, so the two child lists
/// almost always share a long common prefix and suffix. Equal-
/// signature heads (and, symmetrically, tails) are always part of an
/// optimal matching, so they are paired directly and the quadratic
/// DP runs only on the usually tiny middle window — this is what
/// keeps the per-injection diff cost proportional to the edit, not
/// to the configuration size. A fault's tree shares every untouched
/// child with the original, and a shared child has the same
/// signature by construction, so the trim checks [`Node::ptr_eq`]
/// before it reads any signature.
fn lcs_pairs(a: &[Node], b: &[Node]) -> Vec<(usize, usize)> {
    let same = |x: &Node, y: &Node| Node::ptr_eq(x, y) || signature(x) == signature(y);
    let n = a.len();
    let m = b.len();
    let mut prefix = 0;
    while prefix < n && prefix < m && same(&a[prefix], &b[prefix]) {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < n - prefix && suffix < m - prefix && same(&a[n - 1 - suffix], &b[m - 1 - suffix])
    {
        suffix += 1;
    }
    let an = n - prefix - suffix;
    let bm = m - prefix - suffix;

    let mut pairs: Vec<(usize, usize)> = (0..prefix).map(|i| (i, i)).collect();
    if an > 0 && bm > 0 {
        let sig_a: Vec<_> = a[prefix..prefix + an].iter().map(signature).collect();
        let sig_b: Vec<_> = b[prefix..prefix + bm].iter().map(signature).collect();
        // dp[i * (bm + 1) + j] = LCS length of the windows'
        // suffixes a[i..], b[j..] (one flat buffer, no per-row
        // allocations).
        let width = bm + 1;
        let mut dp = vec![0usize; (an + 1) * width];
        for i in (0..an).rev() {
            for j in (0..bm).rev() {
                dp[i * width + j] = if sig_a[i] == sig_b[j] {
                    dp[(i + 1) * width + j + 1] + 1
                } else {
                    dp[(i + 1) * width + j].max(dp[i * width + j + 1])
                };
            }
        }
        let (mut i, mut j) = (0, 0);
        while i < an && j < bm {
            if sig_a[i] == sig_b[j] {
                pairs.push((prefix + i, prefix + j));
                i += 1;
                j += 1;
            } else if dp[(i + 1) * width + j] >= dp[i * width + j + 1] {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    pairs.extend((0..suffix).map(|k| (n - suffix + k, m - suffix + k)));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ConfTree {
        ConfTree::new(
            Node::new("config")
                .with_child(Node::new("directive").with_attr("name", "a").with_text("1"))
                .with_child(Node::new("directive").with_attr("name", "b").with_text("2"))
                .with_child(Node::new("directive").with_attr("name", "c").with_text("3")),
        )
    }

    #[test]
    fn identical_trees_have_no_diff() {
        assert!(diff(&base(), &base()).is_empty());
    }

    #[test]
    fn single_deletion_is_one_op() {
        let mut new = base();
        new.delete(&TreePath::from(vec![1])).unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            DiffOp::Deleted { path, node } => {
                assert_eq!(*path, TreePath::from(vec![1]));
                assert!(node.contains("name=b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_insertion_is_one_op() {
        let mut new = base();
        new.insert(
            &TreePath::root(),
            1,
            Node::new("directive").with_attr("name", "x").with_text("9"),
        )
        .unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        assert!(
            matches!(&ops[0], DiffOp::Inserted { path, .. } if *path == TreePath::from(vec![1]))
        );
    }

    #[test]
    fn text_change_is_reported_as_changed() {
        let mut new = base();
        new.set_text_at(&TreePath::from(vec![2]), Some("30".into()))
            .unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            DiffOp::Changed { before, after, .. } => {
                assert!(before.contains("\"3\""));
                assert!(after.contains("\"30\""));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplication_shows_as_insertion() {
        let mut new = base();
        new.duplicate(&TreePath::from(vec![0])).unwrap();
        let ops = diff(&base(), &new);
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], DiffOp::Inserted { .. }));
    }

    #[test]
    fn display_renders_ops() {
        let mut new = base();
        new.delete(&TreePath::from(vec![0])).unwrap();
        let ops = diff(&base(), &new);
        let s = ops[0].to_string();
        assert!(s.starts_with("- /0"), "{s}");
    }
}

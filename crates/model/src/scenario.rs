//! Fault scenarios: declarative, replayable configuration mistakes.

use std::fmt;

use conferr_tree::{ConfTree, EditSite, Node, TreePath};
use serde::{Deserialize, Serialize};

use crate::{ConfigSet, ModelError};

/// The GEMS cognitive level a mistake originates from (paper §2).
///
/// Reason's Generic Error-Modeling System attributes ~60% of human
/// errors to skill-based slips, ~30% to rule-based mistakes and ~10%
/// to knowledge-based mistakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CognitiveLevel {
    /// Slips and lapses in routine actions (typos, skipped lines).
    SkillBased,
    /// Misapplied patterns from familiar situations (borrowing another
    /// system's configuration idioms).
    RuleBased,
    /// First-principles reasoning gone wrong (misunderstanding what a
    /// parameter means).
    KnowledgeBased,
}

impl CognitiveLevel {
    /// Approximate share of general human errors attributed to this
    /// level by GEMS (paper §2).
    pub fn gems_share(self) -> f64 {
        match self {
            CognitiveLevel::SkillBased => 0.6,
            CognitiveLevel::RuleBased => 0.3,
            CognitiveLevel::KnowledgeBased => 0.1,
        }
    }
}

impl fmt::Display for CognitiveLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CognitiveLevel::SkillBased => "skill-based",
            CognitiveLevel::RuleBased => "rule-based",
            CognitiveLevel::KnowledgeBased => "knowledge-based",
        })
    }
}

/// The five one-letter typo categories of the paper's spelling-mistake
/// model (§2.1), after van Berkel & De Smedt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TypoKind {
    /// One character missing.
    Omission,
    /// One spurious character introduced.
    Insertion,
    /// One character replaced by a keyboard neighbour.
    Substitution,
    /// Case of a letter swapped by Shift miscoordination.
    CaseAlteration,
    /// Two adjacent characters swapped.
    Transposition,
}

impl fmt::Display for TypoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypoKind::Omission => "omission",
            TypoKind::Insertion => "insertion",
            TypoKind::Substitution => "substitution",
            TypoKind::CaseAlteration => "case-alteration",
            TypoKind::Transposition => "transposition",
        })
    }
}

/// Structural error categories (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StructuralKind {
    /// A directive forgotten while editing.
    DirectiveOmission,
    /// A whole section forgotten.
    SectionOmission,
    /// A directive (or section) repeated, e.g. via copy-paste.
    Duplication,
    /// A directive moved into the wrong section.
    Misplacement,
    /// A directive borrowed from a *different* program's configuration
    /// (rule-based reuse of the wrong mental model).
    ForeignDirective,
    /// An accepted-variation probe (paper §5.3, Table 2): a rewrite
    /// that should be semantically neutral, such as reordering or case
    /// changes.
    Variation,
}

impl fmt::Display for StructuralKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StructuralKind::DirectiveOmission => "directive-omission",
            StructuralKind::SectionOmission => "section-omission",
            StructuralKind::Duplication => "duplication",
            StructuralKind::Misplacement => "misplacement",
            StructuralKind::ForeignDirective => "foreign-directive",
            StructuralKind::Variation => "variation",
        })
    }
}

/// Classification of a fault scenario, used for aggregation in
/// resilience profiles.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorClass {
    /// A spelling mistake (§2.1).
    Typo(TypoKind),
    /// A structural error (§2.2).
    Structural(StructuralKind),
    /// A domain-specific semantic error (§2.3), e.g. an RFC-1912 DNS
    /// misconfiguration.
    Semantic {
        /// Error domain, e.g. `"dns"`.
        domain: String,
        /// Rule identifier, e.g. `"missing-ptr"`.
        rule: String,
    },
}

impl ErrorClass {
    /// The GEMS cognitive level this class of error models.
    pub fn cognitive_level(&self) -> CognitiveLevel {
        match self {
            ErrorClass::Typo(_) => CognitiveLevel::SkillBased,
            ErrorClass::Structural(kind) => match kind {
                StructuralKind::ForeignDirective | StructuralKind::Variation => {
                    CognitiveLevel::RuleBased
                }
                _ => CognitiveLevel::SkillBased,
            },
            ErrorClass::Semantic { .. } => CognitiveLevel::KnowledgeBased,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorClass::Typo(k) => write!(f, "typo/{k}"),
            ErrorClass::Structural(k) => write!(f, "structural/{k}"),
            ErrorClass::Semantic { domain, rule } => write!(f, "semantic/{domain}/{rule}"),
        }
    }
}

/// One declarative edit against one file of a [`ConfigSet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeEdit {
    /// Delete the node at `path`.
    Delete {
        /// Target file name.
        file: String,
        /// Node to delete.
        path: TreePath,
    },
    /// Duplicate the node at `path`, placing the copy right after it.
    DuplicateAfter {
        /// Target file name.
        file: String,
        /// Node to duplicate.
        path: TreePath,
    },
    /// Move a node to become the `index`-th child of `to_parent`.
    Move {
        /// Target file name.
        file: String,
        /// Node to move.
        from: TreePath,
        /// Destination parent.
        to_parent: TreePath,
        /// Insertion index within the destination.
        index: usize,
    },
    /// Replace the text content of the node at `path`.
    SetText {
        /// Target file name.
        file: String,
        /// Node whose text changes.
        path: TreePath,
        /// New text (`None` clears it).
        text: Option<String>,
    },
    /// Set an attribute of the node at `path`.
    SetAttr {
        /// Target file name.
        file: String,
        /// Node whose attribute changes.
        path: TreePath,
        /// Attribute key.
        key: String,
        /// New attribute value.
        value: String,
    },
    /// Insert a new node as the `index`-th child of `parent`.
    Insert {
        /// Target file name.
        file: String,
        /// Parent node.
        parent: TreePath,
        /// Insertion index.
        index: usize,
        /// The node to insert.
        node: Node,
    },
    /// Swap children `i` and `j` of `parent`.
    SwapChildren {
        /// Target file name.
        file: String,
        /// Parent node.
        parent: TreePath,
        /// First child index.
        i: usize,
        /// Second child index.
        j: usize,
    },
    /// Replace a file's entire tree (used by view-based plugins that
    /// reconstruct the system representation from a mutated
    /// plugin-specific representation).
    ReplaceTree {
        /// Target file name.
        file: String,
        /// The replacement tree.
        tree: ConfTree,
    },
}

impl TreeEdit {
    /// The file this edit targets.
    pub fn file(&self) -> &str {
        match self {
            TreeEdit::Delete { file, .. }
            | TreeEdit::DuplicateAfter { file, .. }
            | TreeEdit::Move { file, .. }
            | TreeEdit::SetText { file, .. }
            | TreeEdit::SetAttr { file, .. }
            | TreeEdit::Insert { file, .. }
            | TreeEdit::SwapChildren { file, .. }
            | TreeEdit::ReplaceTree { file, .. } => file,
        }
    }

    /// The one node this edit replaces or removes in its file, when it
    /// changes a single node: `Delete` removes the node at its path,
    /// `SetText` and `SetAttr` replace it. Every other edit adds,
    /// moves or rewrites more than one node and has no site.
    pub fn site(&self) -> Option<EditSite> {
        match self {
            TreeEdit::Delete { path, .. } => Some(EditSite::Removed(path.clone())),
            TreeEdit::SetText { path, .. } | TreeEdit::SetAttr { path, .. } => {
                Some(EditSite::Replaced(path.clone()))
            }
            TreeEdit::DuplicateAfter { .. }
            | TreeEdit::Move { .. }
            | TreeEdit::Insert { .. }
            | TreeEdit::SwapChildren { .. }
            | TreeEdit::ReplaceTree { .. } => None,
        }
    }

    fn apply_to(&self, tree: &mut ConfTree) -> Result<(), conferr_tree::TreeError> {
        match self {
            TreeEdit::Delete { path, .. } => tree.delete(path).map(|_| ()),
            TreeEdit::DuplicateAfter { path, .. } => tree.duplicate(path).map(|_| ()),
            TreeEdit::Move {
                from,
                to_parent,
                index,
                ..
            } => tree.move_node(from, to_parent, *index).map(|_| ()),
            TreeEdit::SetText { path, text, .. } => {
                tree.set_text_at(path, text.clone()).map(|_| ())
            }
            TreeEdit::SetAttr {
                path, key, value, ..
            } => tree.set_attr_at(path, key, value).map(|_| ()),
            TreeEdit::Insert {
                parent,
                index,
                node,
                ..
            } => tree.insert(parent, *index, node.clone()).map(|_| ()),
            TreeEdit::SwapChildren { parent, i, j, .. } => tree.swap_children(parent, *i, *j),
            TreeEdit::ReplaceTree { tree: new_tree, .. } => {
                *tree = new_tree.clone();
                Ok(())
            }
        }
    }
}

/// Where `edits` change `file`: one [`EditSite`] per disjoint change,
/// in the coordinates of the tree after the last edit, sorted in
/// reverse document order (the order in which a format can re-parse
/// them one by one, see `conferr_formats::TextParse::of_edit`).
///
/// The edits are walked in order:
///
/// * An edit without a [`TreeEdit::site`] (a structural edit) gives
///   `None`.
/// * A `Delete` at `q` drops the earlier sites at or under `q` (that
///   subtree is gone) and shifts the earlier sites among `q`'s later
///   siblings, and under them, down by one.
/// * A replaced node inside another replaced node is absorbed into the
///   outer one, whichever came first: the outer node's lines hold it.
///
/// The result is `None` when two of the remaining sites share a path
/// or nest: two removals at one path, a removal and the replaced node
/// right after it (the removal's neighbour), or a removal inside a
/// replaced node. Each site's neighbours then are nodes the format
/// parsed, or sites it re-parsed before. It is also `None` when no
/// edit targets `file`.
///
/// # Examples
///
/// ```
/// use conferr_model::{edit_sites, TreeEdit};
/// use conferr_tree::{EditSite, TreePath};
///
/// let set_text = |path: Vec<usize>| TreeEdit::SetText {
///     file: "f".into(),
///     path: TreePath::from(path),
///     text: Some("x".into()),
/// };
/// let delete = TreeEdit::Delete { file: "f".into(), path: TreePath::from(vec![1]) };
/// // The node edited at /3 is at /2 once /1 is deleted.
/// let sites = edit_sites(&[set_text(vec![3]), delete.clone()], "f").unwrap();
/// assert_eq!(
///     sites,
///     [EditSite::Replaced(TreePath::from(vec![2])), EditSite::Removed(TreePath::from(vec![1]))]
/// );
/// // A structural edit has no site.
/// let duplicate = TreeEdit::DuplicateAfter { file: "f".into(), path: TreePath::from(vec![0]) };
/// assert!(edit_sites(&[delete, duplicate], "f").is_none());
/// ```
pub fn edit_sites(edits: &[TreeEdit], file: &str) -> Option<Vec<EditSite>> {
    let covers = |outer: &TreePath, inner: &TreePath| outer == inner || outer.is_ancestor_of(inner);
    let mut sites: Vec<EditSite> = Vec::new();
    for edit in edits.iter().filter(|edit| edit.file() == file) {
        match edit.site()? {
            EditSite::Removed(removed) => {
                let parent = removed.parent()?;
                let index = removed.last_index()?;
                if sites
                    .iter()
                    .any(|site| matches!(site, EditSite::Removed(path) if *path == removed))
                {
                    return None;
                }
                sites.retain(|site| !covers(&removed, site.path()));
                let level = parent.depth();
                for site in &mut sites {
                    let indices = site.path().indices();
                    if parent.is_ancestor_of(site.path()) && indices[level] > index {
                        let mut shifted = indices.to_vec();
                        shifted[level] -= 1;
                        *site = match site {
                            EditSite::Replaced(_) => EditSite::Replaced(shifted.into()),
                            EditSite::Removed(_) => EditSite::Removed(shifted.into()),
                        };
                    }
                }
                sites.push(EditSite::Removed(removed));
            }
            EditSite::Replaced(replaced) => {
                let absorbed = sites.iter().any(
                    |site| matches!(site, EditSite::Replaced(outer) if covers(outer, &replaced)),
                );
                if !absorbed {
                    sites.retain(
                        |site| !matches!(site, EditSite::Replaced(inner) if covers(&replaced, inner)),
                    );
                    sites.push(EditSite::Replaced(replaced));
                }
            }
        }
    }
    sites.sort_by(|a, b| b.path().cmp(a.path()));
    // Sorted, a site's descendants follow it (here: precede it), so
    // comparing neighbours in the order finds every shared or nested
    // path.
    let disjoint = sites.windows(2).all(|pair| {
        let (later, earlier) = (pair[0].path(), pair[1].path());
        later != earlier && !earlier.is_ancestor_of(later)
    });
    (disjoint && !sites.is_empty()).then_some(sites)
}

/// One realistic configuration mistake: an identifier, a human-readable
/// description, a taxonomy class, and the edits that realise it.
///
/// Scenarios are *values*: applying one never mutates the original
/// set, so a campaign can replay thousands of scenarios from the same
/// pristine configuration. Two scenarios with identical `edits` are
/// interchangeable against a fixed baseline — the campaign engine's
/// fault memo exploits exactly that.
///
/// # Examples
///
/// ```
/// use conferr_model::{ConfigSet, ErrorClass, FaultScenario, StructuralKind, TreeEdit};
/// use conferr_tree::{ConfTree, Node, TreePath};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut set = ConfigSet::new();
/// set.insert(
///     "app.conf",
///     ConfTree::new(
///         Node::new("config")
///             .with_child(Node::new("directive").with_attr("name", "port").with_text("80")),
///     ),
/// );
/// let scenario = FaultScenario {
///     id: "delete:port".into(),
///     description: "drop the port directive".into(),
///     class: ErrorClass::Structural(StructuralKind::DirectiveOmission),
///     edits: vec![TreeEdit::Delete {
///         file: "app.conf".into(),
///         path: TreePath::from(vec![0]),
///     }],
/// };
/// let mutated = scenario.apply(&set)?;
/// assert_eq!(mutated.get("app.conf").unwrap().root().children().len(), 0);
/// // The original set is untouched.
/// assert_eq!(set.get("app.conf").unwrap().root().children().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Stable identifier, unique within one generation run.
    pub id: String,
    /// Human-readable description of the mistake.
    pub description: String,
    /// Taxonomy class.
    pub class: ErrorClass,
    /// The edits to apply, in order.
    pub edits: Vec<TreeEdit>,
}

impl FaultScenario {
    /// Applies the scenario to a copy-on-write clone of `set`,
    /// returning the mutated set.
    ///
    /// The clone shares every tree with `set` (cheap `Arc` bumps);
    /// only the file(s) the edits actually touch are deep-copied
    /// before mutation. Untouched files stay pointer-identical to
    /// `set`'s, which downstream consumers exploit to skip
    /// re-serialization and diffing ([`ConfigSet::shares_tree`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if an edit references an unknown file or
    /// a stale path.
    pub fn apply(&self, set: &ConfigSet) -> Result<ConfigSet, ModelError> {
        let mut out = set.clone();
        for edit in &self.edits {
            let file = edit.file().to_string();
            if let TreeEdit::ReplaceTree { tree, .. } = edit {
                // A whole-file replacement needn't copy-on-write the
                // outgoing tree just to overwrite it.
                if out.get(&file).is_none() {
                    return Err(ModelError::UnknownFile { file });
                }
                out.insert(file, tree.clone());
                continue;
            }
            let tree = out
                .get_mut(&file)
                .ok_or_else(|| ModelError::UnknownFile { file: file.clone() })?;
            edit.apply_to(tree)
                .map_err(|source| ModelError::Tree { file, source })?;
        }
        Ok(out)
    }

    /// The GEMS cognitive level of this scenario's class.
    pub fn cognitive_level(&self) -> CognitiveLevel {
        self.class.cognitive_level()
    }
}

impl fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({})", self.id, self.description, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> ConfigSet {
        let mut s = ConfigSet::new();
        s.insert(
            "app.conf",
            ConfTree::new(
                Node::new("config")
                    .with_child(Node::new("directive").with_attr("name", "a").with_text("1"))
                    .with_child(Node::new("directive").with_attr("name", "b").with_text("2")),
            ),
        );
        s
    }

    fn scenario(edits: Vec<TreeEdit>) -> FaultScenario {
        FaultScenario {
            id: "t1".into(),
            description: "test".into(),
            class: ErrorClass::Typo(TypoKind::Omission),
            edits,
        }
    }

    #[test]
    fn apply_leaves_original_untouched() {
        let s = set();
        let sc = scenario(vec![TreeEdit::Delete {
            file: "app.conf".into(),
            path: TreePath::from(vec![0]),
        }]);
        let out = sc.apply(&s).unwrap();
        assert_eq!(out.get("app.conf").unwrap().root().children().len(), 1);
        assert_eq!(s.get("app.conf").unwrap().root().children().len(), 2);
    }

    #[test]
    fn unknown_file_is_reported() {
        let sc = scenario(vec![TreeEdit::Delete {
            file: "nope.conf".into(),
            path: TreePath::root().child(0),
        }]);
        assert!(matches!(
            sc.apply(&set()),
            Err(ModelError::UnknownFile { .. })
        ));
    }

    #[test]
    fn stale_path_is_reported() {
        let sc = scenario(vec![TreeEdit::Delete {
            file: "app.conf".into(),
            path: TreePath::from(vec![9]),
        }]);
        assert!(matches!(sc.apply(&set()), Err(ModelError::Tree { .. })));
    }

    #[test]
    fn multi_edit_scenarios_apply_in_order() {
        let sc = scenario(vec![
            TreeEdit::SetText {
                file: "app.conf".into(),
                path: TreePath::from(vec![0]),
                text: Some("9".into()),
            },
            TreeEdit::DuplicateAfter {
                file: "app.conf".into(),
                path: TreePath::from(vec![0]),
            },
        ]);
        let out = sc.apply(&set()).unwrap();
        let root = out.get("app.conf").unwrap().root();
        assert_eq!(root.children().len(), 3);
        assert_eq!(root.children()[1].text(), Some("9"));
    }

    #[test]
    fn replace_tree_swaps_whole_file() {
        let sc = scenario(vec![TreeEdit::ReplaceTree {
            file: "app.conf".into(),
            tree: ConfTree::new(Node::new("config")),
        }]);
        let out = sc.apply(&set()).unwrap();
        assert!(out.get("app.conf").unwrap().is_empty());
    }

    fn set_text(file: &str, path: &[usize]) -> TreeEdit {
        TreeEdit::SetText {
            file: file.into(),
            path: TreePath::from(path.to_vec()),
            text: Some("x".into()),
        }
    }

    fn delete(file: &str, path: &[usize]) -> TreeEdit {
        TreeEdit::Delete {
            file: file.into(),
            path: TreePath::from(path.to_vec()),
        }
    }

    fn replaced(path: &[usize]) -> EditSite {
        EditSite::Replaced(TreePath::from(path.to_vec()))
    }

    fn removed(path: &[usize]) -> EditSite {
        EditSite::Removed(TreePath::from(path.to_vec()))
    }

    #[test]
    fn edit_sites_shift_through_a_delete() {
        // Later siblings of the deleted node, and the nodes under
        // them, move down by one; earlier siblings and other parents
        // stay where they are.
        let edits = [
            set_text("f", &[0, 4]),
            set_text("f", &[0, 5, 2]),
            set_text("f", &[0, 1]),
            set_text("f", &[1, 5]),
            set_text("g", &[0, 3]),
            delete("f", &[0, 2]),
        ];
        assert_eq!(
            edit_sites(&edits, "f").unwrap(),
            [
                replaced(&[1, 5]),
                replaced(&[0, 4, 2]),
                replaced(&[0, 3]),
                removed(&[0, 2]),
                replaced(&[0, 1]),
            ]
        );
        // A site under the deleted node goes with it.
        let edits = [
            set_text("f", &[2, 1]),
            delete("f", &[1, 0]),
            delete("f", &[2]),
        ];
        assert_eq!(
            edit_sites(&edits, "f").unwrap(),
            [removed(&[2]), removed(&[1, 0])]
        );
        assert_eq!(edit_sites(&edits[1..], "g"), None, "no edit of g");
    }

    #[test]
    fn edit_sites_absorb_into_a_replaced_ancestor() {
        for edits in [
            [set_text("f", &[2, 1]), set_text("f", &[2])],
            [set_text("f", &[2]), set_text("f", &[2, 0, 1])],
            [set_text("f", &[2]), set_text("f", &[2])],
        ] {
            assert_eq!(edit_sites(&edits, "f").unwrap(), [replaced(&[2])]);
        }
    }

    #[test]
    fn edit_sites_reject_shared_and_nested_paths() {
        for edits in [
            // Two removals at one path, before or after a shift.
            vec![delete("f", &[1]), delete("f", &[1])],
            vec![delete("f", &[2]), delete("f", &[1])],
            // A removal inside the node now at a removed path.
            vec![delete("f", &[2, 0]), delete("f", &[1])],
            // A replaced node over an earlier removal: around it, or
            // right after it.
            vec![delete("f", &[1, 0]), set_text("f", &[1])],
            vec![delete("f", &[1]), set_text("f", &[1])],
            // A removal inside a replaced node.
            vec![set_text("f", &[1]), delete("f", &[1, 0])],
            // The root is never a removal site.
            vec![delete("f", &[])],
        ] {
            assert_eq!(edit_sites(&edits, "f"), None, "{edits:?}");
        }
    }

    #[test]
    fn edit_sites_of_a_structural_edit_are_unknown() {
        let structural = [
            TreeEdit::DuplicateAfter {
                file: "f".into(),
                path: TreePath::from(vec![0]),
            },
            TreeEdit::ReplaceTree {
                file: "f".into(),
                tree: ConfTree::new(Node::new("config")),
            },
        ];
        for edit in structural {
            let edits = [set_text("f", &[3]), edit.clone()];
            assert_eq!(edit_sites(&edits, "f"), None, "{edit:?}");
            // Another file's structural edit does not matter.
            assert_eq!(edit_sites(&edits, "g"), None, "g has no edit of its own");
            let edits = [set_text("g", &[3]), edit];
            assert_eq!(edit_sites(&edits, "g").unwrap(), [replaced(&[3])]);
        }
    }

    #[test]
    fn cognitive_levels_follow_gems() {
        assert_eq!(
            ErrorClass::Typo(TypoKind::Insertion).cognitive_level(),
            CognitiveLevel::SkillBased
        );
        assert_eq!(
            ErrorClass::Structural(StructuralKind::ForeignDirective).cognitive_level(),
            CognitiveLevel::RuleBased
        );
        assert_eq!(
            ErrorClass::Semantic {
                domain: "dns".into(),
                rule: "missing-ptr".into()
            }
            .cognitive_level(),
            CognitiveLevel::KnowledgeBased
        );
        let total: f64 = [
            CognitiveLevel::SkillBased,
            CognitiveLevel::RuleBased,
            CognitiveLevel::KnowledgeBased,
        ]
        .iter()
        .map(|l| l.gems_share())
        .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        let sc = scenario(vec![]);
        assert_eq!(sc.to_string(), "[t1] test (typo/omission)");
        assert_eq!(CognitiveLevel::RuleBased.to_string(), "rule-based");
        assert_eq!(
            ErrorClass::Semantic {
                domain: "dns".into(),
                rule: "x".into()
            }
            .to_string(),
            "semantic/dns/x"
        );
    }
}

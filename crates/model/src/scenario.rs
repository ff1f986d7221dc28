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

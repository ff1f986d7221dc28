//! The [`Node`] type: one information item of a configuration tree.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::TreePath;

/// Expands to `fn vocabulary`, which maps each listed word to its
/// `&'static str` and every other string to `None`.
macro_rules! vocabulary {
    ($($word:literal)*) => {
        fn vocabulary(s: &str) -> Option<&'static str> {
            match s {
                $($word => Some($word),)*
                _ => None,
            }
        }
    };
}

// Every node kind and attribute key the six built-in formats write.
vocabulary! {
    // Kinds.
    "config" "section" "directive" "comment" "blank" "zone" "record"
    "data" "line" "document" "decl" "element" "text" "cdata"
    // Attribute keys.
    "name" "indent" "sep" "trailing" "format" "final_newline" "args"
    "arg_sep" "close_name" "close_indent" "close_trailing" "bare"
    "owner" "ttl" "class" "rtype" "g1" "g2" "g3" "g4" "normalized"
    "type" "tag" "raw_attrs" "self_closing"
}

/// Interns a node kind or attribute key: a word of the fixed
/// [`vocabulary`] is borrowed and costs no allocation, any other
/// string (xml tags, kinds made up by tests and plugins) is copied.
/// `Cow` compares, orders and hashes by the string alone, so which
/// variant holds a string is invisible.
fn intern(s: &str) -> Cow<'static, str> {
    vocabulary(s).map_or_else(|| Cow::Owned(s.to_owned()), Cow::Borrowed)
}

/// The owned payload of one node. Kept behind an [`Arc`] inside
/// [`Node`] so that cloning a node — and therefore a whole subtree —
/// is a reference-count bump. `Clone` here is *shallow* in the
/// children: the clone gets a new child `Vec` of refcount-bumped
/// `Arc` handles, so detaching one node from a shared tree costs that
/// node's own fields plus one refcount bump per direct child.
///
/// The kind and the attribute keys are [`intern`]ed, and the attributes
/// are one `Vec` kept sorted by key with unique keys, so a node built
/// by a parser allocates its `Arc`, one attribute vector, and one
/// string per non-empty value and text — kinds and vocabulary keys
/// allocate nothing.
#[derive(Clone, PartialEq, Eq)]
struct NodeData {
    kind: Cow<'static, str>,
    attrs: Vec<(Cow<'static, str>, String)>,
    text: Option<String>,
    children: Vec<Node>,
}

impl NodeData {
    /// Where `key` is in the sorted attribute vector: `Ok(index)` if
    /// present, else `Err(index)` it would be inserted at. A node has
    /// a handful of attributes, so a linear scan beats a binary
    /// search.
    fn position(&self, key: &str) -> Result<usize, usize> {
        for (i, (k, _)) in self.attrs.iter().enumerate() {
            match (**k).cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
            }
        }
        Err(self.attrs.len())
    }

    fn insert_attr(&mut self, key: &str, value: String) -> Option<String> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.attrs[i].1, value)),
            Err(i) => {
                self.attrs.insert(i, (intern(key), value));
                None
            }
        }
    }
}

/// One node of a configuration tree.
///
/// A node mirrors an XML-infoset *information item*: it has a `kind`
/// (the element name, e.g. `"directive"`, `"section"`, `"comment"`),
/// string attributes with unique keys, read back in key order,
/// optional text content, and an ordered list of children.
///
/// # Structural sharing
///
/// `Node` is a copy-on-write handle: the payload lives behind an
/// [`Arc`], so `clone` shares the entire subtree instead of deep
/// copying it, and the first mutation through any `&mut` accessor
/// detaches only the node being mutated (its children stay shared
/// with the original). Walking [`crate::ConfTree::node_at_mut`] down
/// to an edit site therefore copies exactly the root-to-edit path —
/// the cost of [applying a fault scenario] is proportional to the
/// *depth* of the edit, not the size of the configuration. Use
/// [`Node::ptr_eq`] to observe sharing.
///
/// [applying a fault scenario]: crate::ConfTree
///
/// Construction follows a lightweight builder style:
///
/// ```
/// use conferr_tree::Node;
///
/// let n = Node::new("directive")
///     .with_attr("name", "Listen")
///     .with_text("80");
/// assert_eq!(n.kind(), "directive");
/// assert_eq!(n.attr("name"), Some("Listen"));
/// assert_eq!(n.text(), Some("80"));
///
/// // Clones share the subtree until one side is mutated.
/// let copy = n.clone();
/// assert!(Node::ptr_eq(&n, &copy));
/// let mut edited = copy.clone();
/// edited.set_attr("name", "Port");
/// assert!(!Node::ptr_eq(&n, &edited));
/// assert_eq!(n.attr("name"), Some("Listen"));
/// ```
#[derive(Clone)]
pub struct Node {
    data: Arc<NodeData>,
}

impl Node {
    /// Creates a node of the given kind with no attributes, text or
    /// children. Kinds and attribute keys the built-in formats use
    /// are interned and cost no allocation; any other string is
    /// copied.
    pub fn new(kind: impl AsRef<str>) -> Self {
        Node {
            data: Arc::new(NodeData {
                kind: intern(kind.as_ref()),
                attrs: Vec::new(),
                text: None,
                children: Vec::new(),
            }),
        }
    }

    /// Copy-on-write access to the payload: detaches this node from
    /// any sharers (cloning its own fields, refcount-bumping its
    /// children) exactly once.
    fn make_mut(&mut self) -> &mut NodeData {
        Arc::make_mut(&mut self.data)
    }

    /// `true` iff `a` and `b` are handles on *the same* node payload
    /// (pointer equality, not structural equality). A `true` result
    /// proves neither subtree has been mutated since the handles
    /// diverged; `false` says nothing — structurally equal nodes in
    /// distinct allocations also return `false`.
    pub fn ptr_eq(a: &Node, b: &Node) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// The node kind (element name).
    pub fn kind(&self) -> &str {
        &self.data.kind
    }

    /// Replaces the node kind.
    pub fn set_kind(&mut self, kind: impl AsRef<str>) {
        self.make_mut().kind = intern(kind.as_ref());
    }

    /// Builder-style: sets an attribute and returns `self`.
    #[must_use]
    pub fn with_attr(mut self, key: impl AsRef<str>, value: impl Into<String>) -> Self {
        self.make_mut().insert_attr(key.as_ref(), value.into());
        self
    }

    /// Builder-style: sets the text content and returns `self`.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.make_mut().text = Some(text.into());
        self
    }

    /// Builder-style: appends a child and returns `self`.
    #[must_use]
    pub fn with_child(mut self, child: Node) -> Self {
        self.make_mut().children.push(child);
        self
    }

    /// Builder-style: appends every child from the iterator.
    #[must_use]
    pub fn with_children(mut self, children: impl IntoIterator<Item = Node>) -> Self {
        self.make_mut().children.extend(children);
        self
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        // An equality scan, not `position`: comparing lengths first
        // rejects most keys without reading their bytes.
        self.data
            .attrs
            .iter()
            .find(|(k, _)| &**k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set_attr(&mut self, key: impl AsRef<str>, value: impl Into<String>) -> Option<String> {
        self.make_mut().insert_attr(key.as_ref(), value.into())
    }

    /// Removes an attribute, returning its value if it was present.
    pub fn remove_attr(&mut self, key: &str) -> Option<String> {
        let data = self.make_mut();
        let i = data.position(key).ok()?;
        Some(data.attrs.remove(i).1)
    }

    /// All attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.data.attrs.iter().map(|(k, v)| (&**k, v.as_str()))
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.data.attrs.len()
    }

    /// The text content, if any.
    pub fn text(&self) -> Option<&str> {
        self.data.text.as_deref()
    }

    /// Sets (or clears, with `None`) the text content, returning the
    /// previous value.
    pub fn set_text(&mut self, text: Option<String>) -> Option<String> {
        std::mem::replace(&mut self.make_mut().text, text)
    }

    /// Shared access to the children.
    pub fn children(&self) -> &[Node] {
        &self.data.children
    }

    /// Exclusive access to the children. Detaches this node (one
    /// level only — the children themselves stay shared until they
    /// are mutated in turn).
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.make_mut().children
    }

    /// Appends a child.
    pub fn push_child(&mut self, child: Node) {
        self.make_mut().children.push(child);
    }

    /// First child of the given kind, if any.
    pub fn first_child_of_kind(&self, kind: &str) -> Option<&Node> {
        self.data.children.iter().find(|c| c.kind() == kind)
    }

    /// All direct children of the given kind.
    pub fn children_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.data.children.iter().filter(move |c| c.kind() == kind)
    }

    /// Depth-first count of all nodes in this subtree, including
    /// `self`.
    pub fn subtree_len(&self) -> usize {
        1 + self
            .data
            .children
            .iter()
            .map(Node::subtree_len)
            .sum::<usize>()
    }

    /// A compact single-line description used in diagnostics, e.g.
    /// `directive(name=Listen)="80"`.
    pub fn describe(&self) -> String {
        let data = &*self.data;
        let mut s = String::from(&*data.kind);
        for (i, (k, v)) in data.attrs.iter().enumerate() {
            s.push(if i == 0 { '(' } else { ',' });
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        if !data.attrs.is_empty() {
            s.push(')');
        }
        if let Some(t) = &data.text {
            let shown = t
                .char_indices()
                .nth(40)
                .map_or(t.as_str(), |(end, _)| &t[..end]);
            // Writing into a `String` cannot fail.
            let _ = write!(s, "={shown:?}");
        }
        s
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        // Shared handles are equal without a walk; the deep comparison
        // only runs for detached (or independently built) subtrees.
        Arc::ptr_eq(&self.data, &other.data) || self.data == other.data
    }
}

impl Eq for Node {}

impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Feeds the hasher what a `BTreeMap<String, String>` of the
        // attributes would: a length prefix, then each key and value.
        let data = &*self.data;
        data.kind.hash(state);
        state.write_usize(data.attrs.len());
        for (k, v) in &data.attrs {
            k.hash(state);
            v.hash(state);
        }
        data.text.hash(state);
        data.children.hash(state);
    }
}

/// Formats the attributes as a map in key order, the way a
/// `BTreeMap<String, String>` would.
struct AttrsDebug<'a>(&'a [(Cow<'static, str>, String)]);

impl fmt::Debug for AttrsDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.data.kind)
            .field("attrs", &AttrsDebug(&self.data.attrs))
            .field("text", &self.data.text)
            .field("children", &self.data.children)
            .finish()
    }
}

// The workspace's offline `serde` shim only declares marker traits;
// these impls keep `Node` usable inside derived containers
// (`TreeEdit`, `ConfTree`, …). Restoring the real serde crates would
// replace them with impls delegating to the payload fields.
impl serde::Serialize for Node {}
impl<'de> serde::Deserialize<'de> for Node {}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Depth-first iterator over `(path, node)` pairs of a subtree.
///
/// Produced by [`crate::ConfTree::iter`]. The root is yielded first
/// with the empty path.
#[derive(Debug)]
pub struct NodeIter<'a> {
    stack: Vec<(TreePath, &'a Node)>,
}

impl<'a> NodeIter<'a> {
    pub(crate) fn new(root: &'a Node) -> Self {
        NodeIter {
            stack: vec![(TreePath::root(), root)],
        }
    }
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = (TreePath, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let (path, node) = self.stack.pop()?;
        for (i, child) in node.children().iter().enumerate().rev() {
            self.stack.push((path.child(i), child));
        }
        Some((path, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors_round_trip() {
        let mut n = Node::new("directive")
            .with_attr("name", "port")
            .with_text("80");
        assert_eq!(n.attr("name"), Some("port"));
        assert_eq!(n.set_attr("name", "Port"), Some("port".to_string()));
        assert_eq!(n.remove_attr("name"), Some("Port".to_string()));
        assert_eq!(n.attr("name"), None);
        assert_eq!(n.set_text(None), Some("80".to_string()));
        assert_eq!(n.text(), None);
    }

    #[test]
    fn children_of_kind_filters() {
        let n = Node::new("section")
            .with_child(Node::new("directive"))
            .with_child(Node::new("comment"))
            .with_child(Node::new("directive"));
        assert_eq!(n.children_of_kind("directive").count(), 2);
        assert_eq!(n.first_child_of_kind("comment").unwrap().kind(), "comment");
        assert!(n.first_child_of_kind("blank").is_none());
    }

    #[test]
    fn subtree_len_counts_recursively() {
        let n = Node::new("a")
            .with_child(Node::new("b").with_child(Node::new("c")))
            .with_child(Node::new("d"));
        assert_eq!(n.subtree_len(), 4);
    }

    #[test]
    fn describe_is_compact_and_nonempty() {
        let n = Node::new("directive").with_attr("name", "x").with_text("y");
        assert_eq!(n.describe(), "directive(name=x)=\"y\"");
        assert_eq!(Node::new("blank").describe(), "blank");
        assert_eq!(format!("{n}"), n.describe());
    }

    #[test]
    fn clone_shares_until_mutated() {
        let original = Node::new("section")
            .with_child(Node::new("directive").with_attr("name", "a"))
            .with_child(Node::new("directive").with_attr("name", "b"));
        let copy = original.clone();
        assert!(Node::ptr_eq(&original, &copy));

        // Mutating the copy detaches only the copy's own payload; the
        // *untouched* child is still the very same allocation.
        let mut copy = copy;
        copy.children_mut()[1].set_attr("name", "c");
        assert!(!Node::ptr_eq(&original, &copy));
        assert!(Node::ptr_eq(&original.children()[0], &copy.children()[0]));
        assert!(!Node::ptr_eq(&original.children()[1], &copy.children()[1]));
        assert_eq!(original.children()[1].attr("name"), Some("b"));
        assert_eq!(copy.children()[1].attr("name"), Some("c"));
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::hash_map::DefaultHasher;
        let a = Node::new("directive").with_attr("name", "x").with_text("1");
        let b = Node::new("directive").with_attr("name", "x").with_text("1");
        assert_eq!(a, b);
        assert!(!Node::ptr_eq(&a, &b));
        let hash = |n: &Node| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let c = b.clone().with_text("2");
        assert_ne!(a, c);
    }
}

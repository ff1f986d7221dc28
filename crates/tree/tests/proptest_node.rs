//! Property tests: a [`Node`] behaves like a plain `BTreeMap`-backed
//! node under random sequences of attribute, text and kind edits.
//!
//! The model below is the node payload as an ordinary struct of a
//! `String` kind, a `BTreeMap<String, String>` of attributes and an
//! optional text. Its derived `Debug` and `Hash` are the contract: a
//! node's `Debug` output, `describe()` and hasher input must match the
//! model's byte for byte, because diff ops and profiles embed them.
//! Keys mix the formats' own words with arbitrary strings.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use conferr_tree::Node;
use proptest::prelude::*;

mod model {
    use std::collections::BTreeMap;

    /// A childless node as a plain struct. The name and field order
    /// make its derived `Debug` read like a `Node`'s.
    #[derive(Debug, Clone, Hash)]
    pub struct Node {
        pub kind: String,
        pub attrs: BTreeMap<String, String>,
        pub text: Option<String>,
        pub children: Vec<Node>,
    }

    impl Node {
        pub fn new(kind: &str) -> Self {
            Node {
                kind: kind.to_string(),
                attrs: BTreeMap::new(),
                text: None,
                children: Vec::new(),
            }
        }

        /// The one-line description, spelled out the long way.
        pub fn describe(&self) -> String {
            let mut s = self.kind.clone();
            if !self.attrs.is_empty() {
                let attrs: Vec<String> =
                    self.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                s.push('(');
                s.push_str(&attrs.join(","));
                s.push(')');
            }
            if let Some(t) = &self.text {
                let shown: String = t.chars().take(40).collect();
                s.push_str(&format!("={shown:?}"));
            }
            s
        }
    }
}

/// Keys: words every format uses, and strings no format uses,
/// including near misses of the words.
const KEYS: &[&str] = &[
    "name",
    "indent",
    "sep",
    "trailing",
    "format",
    "type",
    "close_name",
    "zeta",
    "Alpha",
    "é",
    "nam",
    "names",
    "name ",
    "",
    "g5",
];

const KINDS: &[&str] = &[
    "directive",
    "section",
    "config",
    "element",
    "xml:Ünïcode",
    "Directive",
    "",
];

/// Pieces texts are glued from: multi-byte characters, quotes and line
/// breaks exercise the escaping and the 40-character cut of
/// `describe()`.
const PIECES: &[&str] = &["a", "é", "—", "\"", "\n", "\t", "xyz", " ", "=", ","];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..30).prop_map(|p| p.concat())
}

/// One edit: an operation code, a key index, a value, and an optional
/// text.
type Op = (u8, usize, String, Option<String>);

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..5,
        0..KEYS.len(),
        "[a-zA-Z0-9 =,()]{0,8}",
        prop::option::of(text()),
    )
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Every observable of `node` agrees with `model`.
fn assert_matches(node: &Node, model: &model::Node) {
    assert_eq!(node.kind(), model.kind);
    assert_eq!(node.text(), model.text.as_deref());
    assert_eq!(node.attr_count(), model.attrs.len());
    let attrs: Vec<(&str, &str)> = node.attrs().collect();
    let expected: Vec<(&str, &str)> = model
        .attrs
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    assert_eq!(attrs, expected);
    for key in KEYS {
        assert_eq!(
            node.attr(key),
            model.attrs.get(*key).map(String::as_str),
            "key {key:?}"
        );
    }
    assert_eq!(node.describe(), model.describe());
    assert_eq!(node.to_string(), model.describe());
    assert_eq!(format!("{node:?}"), format!("{model:?}"));
    assert_eq!(format!("{node:#?}"), format!("{model:#?}"));
    assert_eq!(hash_of(node), hash_of(model));
}

/// Applies `op` to both sides and checks they return the same thing.
fn apply(node: Node, model: &mut model::Node, (code, index, value, text): &Op) -> Node {
    let key = KEYS[*index];
    match code {
        0 => {
            model.attrs.insert(key.to_string(), value.clone());
            node.with_attr(key, value.as_str())
        }
        1 => {
            let mut node = node;
            let expected = model.attrs.insert(key.to_string(), value.clone());
            assert_eq!(node.set_attr(key, value.clone()), expected);
            node
        }
        2 => {
            let mut node = node;
            assert_eq!(node.remove_attr(key), model.attrs.remove(key));
            node
        }
        3 => {
            let mut node = node;
            let expected = std::mem::replace(&mut model.text, text.clone());
            assert_eq!(node.set_text(text.clone()), expected);
            node
        }
        _ => {
            let mut node = node;
            let kind = KINDS[index % KINDS.len()];
            model.kind = kind.to_string();
            node.set_kind(kind);
            node
        }
    }
}

/// Builds a node with `model`'s attributes inserted in the given key
/// order.
fn build(model: &model::Node, keys: &[&String]) -> Node {
    let mut node = Node::new(&model.kind);
    for key in keys {
        node = node.with_attr(key.as_str(), model.attrs[*key].as_str());
    }
    if let Some(t) = &model.text {
        node = node.with_text(t.as_str());
    }
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn node_matches_the_btreemap_model(kind in 0..KINDS.len(), ops in prop::collection::vec(op(), 0..24)) {
        let mut model = model::Node::new(KINDS[kind]);
        let mut node = Node::new(KINDS[kind]);
        assert_matches(&node, &model);
        for op in &ops {
            // Copy-on-write: a clone taken before the edit keeps the
            // old state.
            let before = model.clone();
            let shared = node.clone();
            node = apply(node, &mut model, op);
            assert_matches(&node, &model);
            assert_matches(&shared, &before);
        }
    }

    #[test]
    fn insertion_order_does_not_matter(kind in 0..KINDS.len(), ops in prop::collection::vec(op(), 0..24), rotate in 0usize..24) {
        let mut model = model::Node::new(KINDS[kind]);
        let mut node = Node::new(KINDS[kind]);
        for op in &ops {
            node = apply(node, &mut model, op);
        }
        let mut keys: Vec<&String> = model.attrs.keys().collect();
        let sorted = build(&model, &keys);
        keys.reverse();
        let reversed = build(&model, &keys);
        if !keys.is_empty() {
            let k = rotate % keys.len();
            keys.rotate_left(k);
        }
        let rotated = build(&model, &keys);
        for other in [&sorted, &reversed, &rotated] {
            prop_assert_eq!(other, &node);
            prop_assert_eq!(hash_of(other), hash_of(&node));
            assert_matches(other, &model);
        }
    }
}

/// Fixture nodes whose `describe()` and `Debug` output are pinned
/// below, as the `BTreeMap`-backed node printed them.
fn fixtures() -> Vec<Node> {
    vec![
        Node::new("blank"),
        Node::new("directive")
            .with_attr("trailing", "")
            .with_attr("sep", " ")
            .with_attr("name", "Listen")
            .with_attr("indent", "  ")
            .with_text("80"),
        Node::new("xml:Ünïcode")
            .with_attr("zeta", "z=1,2")
            .with_attr("Alpha", "\"quoted\"\ttab")
            .with_attr("é", "")
            .with_attr("name", "n")
            .with_text("line one\nline two — a long text that runs well past forty characters"),
        Node::new("section")
            .with_attr("name", "VirtualHost")
            .with_attr("args", "*:80")
            .with_child(Node::new("comment").with_text("# c"))
            .with_child(
                Node::new("directive")
                    .with_attr("name", "ServerName")
                    .with_text(""),
            ),
    ]
}

const DESCRIBE: &[&str] = &[
    "blank",
    "directive(indent=  ,name=Listen,sep= ,trailing=)=\"80\"",
    "xml:Ünïcode(Alpha=\"quoted\"\ttab,name=n,zeta=z=1,2,é=)=\"line one\\nline two — a long text that run\"",
    "section(args=*:80,name=VirtualHost)",
];

const DEBUG: &[&str] = &[
    "Node { kind: \"blank\", attrs: {}, text: None, children: [] }",
    "Node { kind: \"directive\", attrs: {\"indent\": \"  \", \"name\": \"Listen\", \"sep\": \" \", \"trailing\": \"\"}, text: Some(\"80\"), children: [] }",
    "Node { kind: \"xml:Ünïcode\", attrs: {\"Alpha\": \"\\\"quoted\\\"\\ttab\", \"name\": \"n\", \"zeta\": \"z=1,2\", \"é\": \"\"}, text: Some(\"line one\\nline two — a long text that runs well past forty characters\"), children: [] }",
    "Node { kind: \"section\", attrs: {\"args\": \"*:80\", \"name\": \"VirtualHost\"}, text: None, children: [Node { kind: \"comment\", attrs: {}, text: Some(\"# c\"), children: [] }, Node { kind: \"directive\", attrs: {\"name\": \"ServerName\"}, text: Some(\"\"), children: [] }] }",
];

const PRETTY_DEBUG: &str = "Node {\n    kind: \"section\",\n    attrs: {\n        \"args\": \"*:80\",\n        \"name\": \"VirtualHost\",\n    },\n    text: None,\n    children: [\n        Node {\n            kind: \"comment\",\n            attrs: {},\n            text: Some(\n                \"# c\",\n            ),\n            children: [],\n        },\n        Node {\n            kind: \"directive\",\n            attrs: {\n                \"name\": \"ServerName\",\n            },\n            text: Some(\n                \"\",\n            ),\n            children: [],\n        },\n    ],\n}";

#[test]
fn describe_and_debug_match_the_pinned_fixture() {
    let nodes = fixtures();
    for ((node, describe), debug) in nodes.iter().zip(DESCRIBE).zip(DEBUG) {
        assert_eq!(node.describe(), *describe);
        assert_eq!(format!("{node:?}"), *debug);
    }
    assert_eq!(format!("{:#?}", nodes[3]), PRETTY_DEBUG);
}

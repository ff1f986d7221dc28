//! The fault linter: static verdicts and touch maps for prepared
//! faults, plus whole-file surveys for the `conferr-lint` CLI.
//!
//! [`FaultLinter::lint`] runs the *round-trip* pipeline on a fault's
//! edit list: apply to the baseline, serialize the edited file with
//! the real format, re-parse with the real parser (through
//! [`TextParse::of_edit`] at the sites [`edit_sites`] finds, which
//! re-parses only the edited node's lines when the format can prove
//! that equal to a full parse), then
//! evaluate the extracted dialect model against the baseline
//! fingerprint. Because every stage reuses the exact code the
//! simulator runs at startup, `WillFailParse`/`WillFailValidate`
//! verdicts are sound by construction — the dynamic start cannot
//! disagree.
//!
//! [`FaultLinter::lint_with`] is the same lint for a caller that has
//! already applied, serialized and parsed the fault: the campaign
//! engine parses its prepared text of each edited file once, the
//! linter decides from that parse, and the simulator's startup reuses
//! it.
//! Both entries share one decision function and one memo, so they
//! return identical lints; `lint` stays the self-contained path for
//! the CLI, benchmarks and tests.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, LazyLock, Mutex};

use conferr_formats::{format_by_name, ConfigFormat, ParseError, TextParse};
use conferr_model::{edit_sites, ConfigSet, ErrorClass, FaultScenario, TreeEdit, TypoKind};
use conferr_tree::{ConfTree, Node};

use crate::apache::StartupModel;
use crate::schema::{Dialect, DirectiveSchema, FileSchema};
use crate::touch::{touch_of_edits, FileTouch, TouchMap};
use crate::value::ResolvedVars;
use crate::verdict::StaticVerdict;

/// Memo entries are dropped wholesale past this size to bound memory
/// on unbounded streaming loads.
const MEMO_CAP: usize = 8192;

static EMPTY_TOUCH: LazyLock<Arc<TouchMap>> = LazyLock::new(|| Arc::new(TouchMap::new()));

/// The linter's answer for one fault: a verdict about the start
/// outcome and a touch map bounding what the edit can affect.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Predicted start behaviour.
    pub verdict: StaticVerdict,
    /// Files/directives the fault can affect (shared: many callers
    /// hold the same lint).
    pub touch: Arc<TouchMap>,
    /// For the two `WillFail*` verdicts: the *exact* startup
    /// diagnostic the simulator would emit, captured from the shared
    /// deciders so a static-triage campaign can synthesize the
    /// `DetectedAtStartup` outcome without paying for the start.
    /// `None` whenever the verdict makes no start-failure claim.
    pub diagnostic: Option<Arc<str>>,
}

impl Lint {
    /// The maximally-conservative lint: no prediction, everything in
    /// `schema` potentially touched.
    pub fn unknown(schema: &DirectiveSchema) -> Lint {
        Lint {
            verdict: StaticVerdict::Unknown,
            touch: Arc::new(crate::touch::whole_config_touch(schema)),
            diagnostic: None,
        }
    }

    /// The lint of an empty edit list: byte-identical to the
    /// baseline, touching nothing.
    pub fn identity() -> Lint {
        Lint {
            verdict: StaticVerdict::SemanticallySilent,
            touch: Arc::clone(&EMPTY_TOUCH),
            diagnostic: None,
        }
    }
}

/// Pre-flight linter for one system's fault space.
///
/// Construction captures the baseline [`ConfigSet`] and computes each
/// modeled file's baseline fingerprint through the same
/// serialize→re-parse round trip later applied to edited trees, so
/// fingerprint comparisons never see formatting noise. The linter is
/// `Sync`; campaigns share one across worker threads.
pub struct FaultLinter {
    schema: &'static DirectiveSchema,
    baseline: ConfigSet,
    formats: BTreeMap<&'static str, Box<dyn ConfigFormat>>,
    baseline_fps: BTreeMap<&'static str, Option<Fingerprint>>,
    memo: Mutex<HashMap<Vec<TreeEdit>, Lint>>,
}

impl std::fmt::Debug for FaultLinter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultLinter")
            .field("system", &self.schema.system)
            .finish_non_exhaustive()
    }
}

impl FaultLinter {
    /// Builds a linter for `schema` over the given baseline.
    ///
    /// # Errors
    ///
    /// When a schema file names a format the registry does not
    /// provide (a schema bug, not a user error).
    pub fn new(schema: &'static DirectiveSchema, baseline: ConfigSet) -> Result<Self, String> {
        let mut formats = BTreeMap::new();
        for fs in schema.files {
            let format = format_by_name(fs.format)
                .ok_or_else(|| format!("{}: unknown format '{}'", schema.system, fs.format))?;
            formats.insert(fs.file, format);
        }
        let mut baseline_fps = BTreeMap::new();
        for fs in schema.files {
            let fp = baseline.get(fs.file).and_then(|tree| {
                let format = formats.get(fs.file)?;
                let text = format.serialize(tree).ok()?;
                let reparsed = format.parse(&text).ok()?;
                dialect_fingerprint(fs.dialect, reparsed.root())
            });
            baseline_fps.insert(fs.file, fp);
        }
        Ok(FaultLinter {
            schema,
            baseline,
            formats,
            baseline_fps,
            memo: Mutex::new(HashMap::new()),
        })
    }

    /// The schema this linter enforces.
    pub fn schema(&self) -> &'static DirectiveSchema {
        self.schema
    }

    /// Lints a fault's edit list. Memoized: repeated loads (chunk
    /// replays, multi-thread identity checks) hit the cache.
    pub fn lint(&self, edits: &[TreeEdit]) -> Lint {
        self.lint_with(edits, |_, _| None)
    }

    /// Lints a fault's edit list like [`lint`](Self::lint), for a
    /// caller that already holds the serialized edited file.
    ///
    /// On a memo miss for a single-edit fault on a schema file, the
    /// linter calls `parse` with the edited file's name and its format
    /// for that file. The caller returns that format's parse of the
    /// file exactly as it would be started — apply, then serialize
    /// with the same format, then parse — and the linter decides from
    /// it instead of re-applying, re-serializing and re-parsing. A
    /// compound fault's verdict is `Unknown` without a parse, so
    /// `parse` is not called for it. `None` (no such
    /// text: the edit did not apply or is inexpressible) falls back to
    /// the self-contained path. Either way the memo is consulted once,
    /// and only the lint is kept, never the parse.
    pub fn lint_with<F>(&self, edits: &[TreeEdit], parse: F) -> Lint
    where
        F: FnOnce(&str, &dyn ConfigFormat) -> Option<Arc<TextParse>>,
    {
        if edits.is_empty() {
            return Lint::identity();
        }
        if let Some(hit) = self.memo.lock().expect("linter memo poisoned").get(edits) {
            return hit.clone();
        }
        let lint = self.lint_uncached(edits, parse);
        let mut memo = self.memo.lock().expect("linter memo poisoned");
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(edits.to_vec(), lint.clone());
        lint
    }

    fn lint_uncached<F>(&self, edits: &[TreeEdit], parse: F) -> Lint
    where
        F: FnOnce(&str, &dyn ConfigFormat) -> Option<Arc<TextParse>>,
    {
        if edits.len() > 1 {
            // Compound faults: per-edit path refinement against the
            // baseline is unsound (later edits see shifted paths), so
            // bound them by their edited files only.
            let touch: TouchMap = edits
                .iter()
                .map(|e| (e.file().to_string(), FileTouch::WholeFile))
                .collect();
            return Lint {
                verdict: StaticVerdict::Unknown,
                touch: Arc::new(touch),
                diagnostic: None,
            };
        }

        let file = edits[0].file();
        let schema_file = self.schema.file(file).zip(self.formats.get(file));
        if let Some((fs, format)) = schema_file {
            if let Some(parsed) = parse(file, format.as_ref()) {
                return self.decide(edits, fs, parsed.result());
            }
        }

        let probe = FaultScenario {
            id: String::new(),
            description: String::new(),
            class: ErrorClass::Typo(TypoKind::Substitution),
            edits: edits.to_vec(),
        };
        let Ok(mut edited) = probe.apply(&self.baseline) else {
            // Inapplicable edits never reach injection; stay silent
            // about them but bound the files they name.
            let touch: TouchMap = edits
                .iter()
                .map(|e| (e.file().to_string(), FileTouch::WholeFile))
                .collect();
            return Lint {
                verdict: StaticVerdict::Unknown,
                touch: Arc::new(touch),
                diagnostic: None,
            };
        };

        let unknown = || Lint {
            verdict: StaticVerdict::Unknown,
            touch: Arc::new(touch_of_edits(self.schema, &self.baseline, edits)),
            diagnostic: None,
        };
        let Some((fs, format)) = schema_file else {
            return unknown();
        };
        let Some(tree) = edited.remove(file) else {
            return unknown();
        };

        // Round trip: the simulator starts from serialized bytes, so
        // the verdict must be computed on what those bytes re-parse
        // to, not on the in-memory edited tree.
        let Ok(text) = format.serialize(&tree) else {
            // Inexpressible under the format; the campaign reports it
            // without starting the SUT.
            return unknown();
        };
        let parsed = match edit_sites(edits, file) {
            Some(sites) => {
                TextParse::of_edit(format.as_ref(), &text, Arc::unwrap_or_clone(tree), &sites)
            }
            None => TextParse::new(format.as_ref(), &text),
        };
        self.decide(edits, fs, parsed.result())
    }

    /// The decision both entries share: the verdict for a single-edit
    /// fault on schema file `fs`, from the format's parse of the
    /// edited file's serialized text.
    fn decide(
        &self,
        edits: &[TreeEdit],
        fs: &FileSchema,
        parsed: Result<&ConfTree, &ParseError>,
    ) -> Lint {
        let file = fs.file;
        let refined = || Arc::new(touch_of_edits(self.schema, &self.baseline, edits));
        let reparsed = match parsed {
            Ok(tree) => tree,
            Err(e) => {
                // The simulator will hit the same parser on the same
                // bytes; its wrapper comes from the shared dialect
                // formatter, so this diagnostic is the dynamic one.
                let diagnostic = fs.dialect.parse_failure_diagnostic(&e.to_string());
                return Lint {
                    verdict: StaticVerdict::WillFailParse,
                    touch: Arc::new(whole_file_touch(file)),
                    diagnostic: Some(diagnostic.into()),
                };
            }
        };

        if !fs.dialect.is_fully_modeled() {
            return Lint {
                verdict: StaticVerdict::Unknown,
                touch: refined(),
                diagnostic: None,
            };
        }
        match dialect_check(fs.dialect, reparsed.root()) {
            Err(violation) => {
                // The shared decider's message *is* the simulator's
                // startup diagnostic, verbatim.
                let diagnostic = Some(Arc::from(violation.message.as_str()));
                Lint {
                    verdict: violation.into_verdict(),
                    touch: Arc::new(whole_file_touch(file)),
                    diagnostic,
                }
            }
            Ok(fp) => {
                let silent = self
                    .baseline_fps
                    .get(file)
                    .and_then(Option::as_ref)
                    .is_some_and(|base| *base == fp);
                Lint {
                    verdict: if silent {
                        StaticVerdict::SemanticallySilent
                    } else {
                        StaticVerdict::Unknown
                    },
                    touch: refined(),
                    diagnostic: None,
                }
            }
        }
    }
}

fn whole_file_touch(file: &str) -> TouchMap {
    let mut map = TouchMap::new();
    map.insert(file.to_string(), FileTouch::WholeFile);
    map
}

/// A file's semantic fingerprint: everything the functional tests can
/// observe of the started system, as the dialect's own typed value.
///
/// The linter compares fingerprints with `==`. Earlier the linter
/// compared their `Debug` renderings, and the two comparisons agree:
/// every field is a string, an integer, or an `Option`, `Vec`, tuple
/// or `BTreeMap` of those, whose derived `Debug` output quotes and
/// escapes each string and delimits each collection, so it is
/// injective, and two values render equally exactly when they are
/// equal. The mysql and postgres maps are seeded with every name of
/// their fixed registry, so their key sets never differ; a borrowed
/// and an owned value compare (and render) by their text.
#[derive(PartialEq)]
enum Fingerprint {
    /// The resolved server variables and the `mysqldump` check's
    /// diagnostic, if any.
    MySql(ResolvedVars, Option<String>),
    /// The resolved parameters.
    Postgres(ResolvedVars),
    /// The startup model, warnings included.
    Apache(StartupModel),
    /// The rendered `(type, payload)` data-line sequence.
    TinyDns(String),
    /// A dialect without a model.
    Unmodeled,
}

/// Runs the dialect's validator and returns the semantic fingerprint.
fn dialect_check(dialect: Dialect, root: &Node) -> Result<Fingerprint, crate::verdict::Violation> {
    Ok(match dialect {
        Dialect::MySqlIni => {
            let (vars, dump_error) = crate::mysql::fingerprint(root)?;
            Fingerprint::MySql(vars, dump_error)
        }
        Dialect::PostgresKv => Fingerprint::Postgres(crate::postgres::fingerprint(root)?),
        Dialect::ApacheHttpd => Fingerprint::Apache(crate::apache::fingerprint(root)?),
        Dialect::TinyDns => Fingerprint::TinyDns(crate::tinydns::fingerprint(root)?),
        Dialect::BindZone | Dialect::AppServerXml => Fingerprint::Unmodeled,
    })
}

fn dialect_fingerprint(dialect: Dialect, root: &Node) -> Option<Fingerprint> {
    if !dialect.is_fully_modeled() {
        return None;
    }
    dialect_check(dialect, root).ok()
}

/// Per-file node statistics for the `conferr-lint` CLI: how much of a
/// real configuration the dialect model understands, and any outright
/// violations it detects.
#[derive(Debug, Clone)]
pub struct FileSurvey {
    /// File name the survey ran over.
    pub file: String,
    /// Nodes surveyed (directives, records, data lines).
    pub total: usize,
    /// Nodes whose semantics the dialect model captures.
    pub known: usize,
    /// Violations the static model detects in the file as-is.
    pub violations: Vec<crate::verdict::Violation>,
}

impl FileSurvey {
    /// Fraction of surveyed nodes the model cannot classify.
    pub fn unknown_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                (self.total - self.known) as f64 / self.total as f64
            }
        }
    }
}

/// Surveys one configuration file against a system's schema.
///
/// # Errors
///
/// When the schema does not declare `file_name`, the format registry
/// lacks the declared format, or the file does not parse.
pub fn survey(
    schema: &DirectiveSchema,
    file_name: &str,
    contents: &str,
) -> Result<FileSurvey, String> {
    let fs = schema
        .file(file_name)
        .ok_or_else(|| format!("{}: schema declares no file '{file_name}'", schema.system))?;
    let format = format_by_name(fs.format)
        .ok_or_else(|| format!("{}: unknown format '{}'", schema.system, fs.format))?;
    let tree = format
        .parse(contents)
        .map_err(|e| format!("{file_name}: parse error: {e}"))?;

    let mut total = 0usize;
    let mut known = 0usize;
    let mut violations = Vec::new();
    match fs.dialect {
        Dialect::MySqlIni => {
            for section in tree.root().children() {
                if section.kind() != "section" {
                    continue;
                }
                let in_server = section.attr("name") == Some("mysqld");
                for node in section.children() {
                    if node.kind() != "directive" {
                        continue;
                    }
                    total += 1;
                    if !in_server {
                        // Non-[mysqld] sections are inert to the
                        // server: fully understood by the model.
                        known += 1;
                        continue;
                    }
                    let raw = node.attr("name").unwrap_or("");
                    let name = crate::mysql::normalize_name(raw);
                    if crate::value::resolve_prefix(
                        crate::mysql::SERVER_REGISTRY.iter().map(|s| s.name),
                        &name,
                    )
                    .is_ok()
                    {
                        known += 1;
                    }
                }
            }
            if let Err(v) = crate::mysql::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::PostgresKv => {
            for node in tree.root().children() {
                if node.kind() != "directive" {
                    continue;
                }
                total += 1;
                let name = crate::postgres::canonical_name(node.attr("name").unwrap_or(""));
                if crate::postgres::REGISTRY.iter().any(|s| s.name == name) {
                    known += 1;
                }
            }
            if let Err(v) = crate::postgres::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::ApacheHttpd => {
            survey_apache_nodes(tree.root(), &mut total, &mut known);
            if let Err(v) = crate::apache::fingerprint(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::TinyDns => {
            for node in tree.root().children() {
                if node.kind() != "line" {
                    continue;
                }
                total += 1;
                let ty = node.attr("type").unwrap_or("");
                if crate::tinydns::IP_CHECKED_TYPES.contains(&ty)
                    || crate::tinydns::UNCHECKED_TYPES.contains(&ty)
                {
                    known += 1;
                }
            }
            if let Err(v) = crate::tinydns::check_file(tree.root()) {
                violations.push(v);
            }
        }
        Dialect::BindZone | Dialect::AppServerXml => {
            // No dialect model: every substantive node is unknown.
            total = count_substantive(tree.root());
        }
    }
    Ok(FileSurvey {
        file: file_name.to_string(),
        total,
        known,
        violations,
    })
}

fn survey_apache_nodes(node: &Node, total: &mut usize, known: &mut usize) {
    for child in node.children() {
        match child.kind() {
            "directive" => {
                *total += 1;
                let name = crate::apache::canonical_name(child.attr("name").unwrap_or(""));
                if crate::apache::rule_for(&name).is_some() {
                    *known += 1;
                }
            }
            "section" => {
                *total += 1;
                let name = child.attr("name").unwrap_or("");
                if crate::apache::SECTIONS
                    .iter()
                    .any(|s| s.eq_ignore_ascii_case(name))
                {
                    *known += 1;
                }
                survey_apache_nodes(child, total, known);
            }
            _ => {}
        }
    }
}

fn count_substantive(node: &Node) -> usize {
    node.children()
        .iter()
        .map(|c| {
            let own = usize::from(!matches!(c.kind(), "comment" | "blank"));
            own + count_substantive(c)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{schema_for, MYSQL_SCHEMA};
    use conferr_formats::IniFormat;
    use conferr_tree::TreePath;

    fn mysql_baseline() -> ConfigSet {
        let text = "[mysqld]\nport=3306\nsort_buffer_size=2097152\n# notes\n";
        let tree = IniFormat::new().parse(text).expect("fixture parses");
        let mut set = ConfigSet::new();
        set.insert("my.cnf", tree);
        set
    }

    fn linter() -> FaultLinter {
        FaultLinter::new(&MYSQL_SCHEMA, mysql_baseline()).expect("formats resolve")
    }

    #[test]
    fn unknown_variable_is_will_fail_validate() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            key: "name".into(),
            value: "prot".into(),
        }]);
        assert!(matches!(
            lint.verdict,
            StaticVerdict::WillFailValidate { ref directive, .. } if directive == "prot"
        ));
        assert_eq!(lint.touch.get("my.cnf"), Some(&FileTouch::WholeFile));
    }

    #[test]
    fn comment_churn_is_semantically_silent() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
            text: Some("# different notes".into()),
        }]);
        assert_eq!(lint.verdict, StaticVerdict::SemanticallySilent);
    }

    #[test]
    fn value_change_within_registry_is_unknown_with_refined_touch() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(1),
            text: Some("4194304".into()),
        }]);
        assert_eq!(lint.verdict, StaticVerdict::Unknown);
        let FileTouch::Directives(touched) = lint.touch.get("my.cnf").expect("touched") else {
            panic!("expected refined touch");
        };
        assert!(touched.contains("sort_buffer_size"));
    }

    #[test]
    fn empty_and_compound_edit_lists_take_the_cheap_paths() {
        let l = linter();
        let lint = l.lint(&[]);
        assert_eq!(lint.verdict, StaticVerdict::SemanticallySilent);
        assert!(lint.touch.is_empty());

        let e = TreeEdit::Delete {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
        };
        let lint = l.lint(&[e.clone(), e]);
        assert_eq!(lint.verdict, StaticVerdict::Unknown);
        assert_eq!(lint.touch.get("my.cnf"), Some(&FileTouch::WholeFile));
    }

    #[test]
    fn will_fail_verdicts_capture_the_startup_diagnostic() {
        let l = linter();
        let lint = l.lint(&[TreeEdit::SetAttr {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(0),
            key: "name".into(),
            value: "prot".into(),
        }]);
        let diag = lint
            .diagnostic
            .expect("validate failures carry the simulator diagnostic");
        assert!(
            diag.contains("prot"),
            "diagnostic names the directive: {diag}"
        );
        // Verdicts that make no start-failure claim carry none.
        assert!(l.lint(&[]).diagnostic.is_none());
        let silent = l.lint(&[TreeEdit::SetText {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
            text: Some("# other notes".into()),
        }]);
        assert!(silent.diagnostic.is_none());
    }

    #[test]
    fn lint_results_are_memoized() {
        let l = linter();
        let edits = vec![TreeEdit::Delete {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
        }];
        let a = l.lint(&edits);
        let b = l.lint(&edits);
        assert!(
            Arc::ptr_eq(&a.touch, &b.touch),
            "second call must hit the memo"
        );
    }

    #[test]
    fn lint_with_a_handed_parse_equals_the_self_contained_lint() {
        let edits = [
            TreeEdit::SetAttr {
                file: "my.cnf".into(),
                path: TreePath::root().child(0).child(0),
                key: "name".into(),
                value: "prot".into(),
            },
            TreeEdit::SetText {
                file: "my.cnf".into(),
                path: TreePath::root().child(0).child(2),
                text: Some("# other notes".into()),
            },
            TreeEdit::SetText {
                file: "my.cnf".into(),
                path: TreePath::root().child(0).child(1),
                text: Some("4194304".into()),
            },
        ];
        let baseline = mysql_baseline();
        for edit in edits {
            let edits = [edit];
            let reference = linter().lint(&edits);
            // The caller's text: apply, then serialize with the format.
            let probe = FaultScenario {
                id: String::new(),
                description: String::new(),
                class: ErrorClass::Typo(TypoKind::Substitution),
                edits: edits.to_vec(),
            };
            let edited = probe.apply(&baseline).unwrap();
            let ini = IniFormat::new();
            let text = ini.serialize(edited.get("my.cnf").unwrap()).unwrap();
            let mut asked = None;
            let shared = linter().lint_with(&edits, |file, format| {
                asked = Some((file.to_string(), format.name().to_string()));
                Some(Arc::new(TextParse::new(format, &text)))
            });
            assert_eq!(asked, Some(("my.cnf".into(), "ini".into())));
            assert_eq!(shared.verdict, reference.verdict);
            assert_eq!(shared.diagnostic, reference.diagnostic);
            assert_eq!(shared.touch, reference.touch);
        }
    }

    #[test]
    fn lint_with_asks_for_a_parse_only_on_a_single_edit_miss() {
        let l = linter();
        let edit = TreeEdit::Delete {
            file: "my.cnf".into(),
            path: TreePath::root().child(0).child(2),
        };
        let never =
            |_: &str, _: &dyn ConfigFormat| -> Option<Arc<TextParse>> { panic!("no parse needed") };
        l.lint_with(&[], never);
        l.lint_with(&[edit.clone(), edit.clone()], never);
        // A miss without a handed parse falls back to the round trip,
        // and the lint it memoizes serves the next call.
        let first = l.lint_with(std::slice::from_ref(&edit), |_, _| None);
        let hit = l.lint_with(std::slice::from_ref(&edit), never);
        assert!(Arc::ptr_eq(&first.touch, &hit.touch));
    }

    #[test]
    fn survey_rates_default_like_configs() {
        let schema = schema_for("mysql").unwrap();
        let s = survey(
            schema,
            "my.cnf",
            "[client]\nport=3306\n[mysqld]\nport=3306\n",
        )
        .unwrap();
        assert_eq!((s.total, s.known), (2, 2));
        assert!(s.violations.is_empty());
        assert!(s.unknown_rate().abs() < f64::EPSILON);

        let s = survey(schema, "my.cnf", "[mysqld]\nnot_a_variable=1\n").unwrap();
        assert_eq!((s.total, s.known), (1, 0));
        assert_eq!(s.violations.len(), 1);
        assert!((s.unknown_rate() - 1.0).abs() < f64::EPSILON);
    }
}

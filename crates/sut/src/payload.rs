//! Configuration payloads and the startup parse cache.
//!
//! A campaign's hot loop is inject → serialize → **start** → test, and
//! the paper-faithful `start` re-parses configuration text exactly as
//! the real system's startup path would. Re-parsing is also where the
//! campaign's wall-clock goes: most injections mutate one file and
//! leave every other file byte-identical to the baseline, and repeated
//! fault loads (bench reruns, Table 2 variation probes) present the
//! very same mutated text over and over.
//!
//! Two types remove that redundancy without changing a single
//! outcome:
//!
//! * [`ConfigPayload`] — what [`SystemUnderTest::start`] now consumes
//!   instead of a fresh `BTreeMap<String, String>`: per-file shared
//!   text (`Arc<str>`, no clone per injection) plus a stable
//!   [`ContentId`] identity and a [`TextOrigin`] tag. The campaign
//!   engine derives the tag from its baseline pointer-equality check:
//!   a file whose tree is still `Arc`-shared with the baseline
//!   provably carries no edit and is handed out as
//!   [`TextOrigin::Baseline`]; everything else is serialized fresh and
//!   tagged [`TextOrigin::Mutated`].
//! * [`ParseCache`] — a content-addressed memo table each simulator
//!   keeps from `(file name, ContentId)` to its parsed/validated
//!   startup representation. A hit requires **byte-identical text**
//!   (verified by comparison, never by hash alone), so a memoized
//!   start is provably indistinguishable from a cold parse; the first
//!   sighting of any mutated text always runs the full
//!   parse-and-validate path, keeping failure semantics unchanged.
//!   Baseline-origin entries are pinned for the simulator's lifetime;
//!   mutated-origin entries live in a FIFO-bounded window so unbounded
//!   campaigns cannot grow the cache without limit.
//!
//! A novel fault misses the cache, but its text need not be parsed
//! in full: the campaign engine already parsed it once, from the
//! edited nodes' lines where it could, and the static linter decided
//! from that parse. A [`FileText`] can carry that parse
//! ([`FileText::with_parse`] and [`FileText::with_edit_parse`] are the
//! only ways to attach one, and both produce the format's parse of the
//! `FileText`'s own bytes), tagged with the format's name.
//! [`ParseCache::get_or_build`] starts a simulator's
//! parse-and-validate path from a carried parse of the simulator's own
//! format instead of parsing the text again. The engine attaches the
//! parse to a per-fault copy only, so nothing that outlives the fault
//! (the engine's fault memo, the parse cache's entries) holds it.
//!
//! [`SystemUnderTest::start`]: crate::SystemUnderTest::start

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use conferr_formats::{ConfigFormat, ParseError, TextParse};
use conferr_tree::{ConfTree, EditSite};

/// Stable identity of one exact configuration text: the 64-bit
/// FNV-1a hash of its bytes.
///
/// Identities index the [`ParseCache`]; equality of identities is
/// necessary but *not* sufficient for a cache hit — the cache always
/// confirms byte equality of the underlying text, so a hash collision
/// degrades to a cold parse instead of a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(u64);

impl ContentId {
    /// Computes the identity of `text`.
    pub fn of(text: &str) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in text.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        ContentId(hash)
    }
}

/// Where a payload file's text came from, which decides its cache
/// retention class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextOrigin {
    /// The campaign's pristine baseline text for this file — the
    /// engine proved (by baseline pointer equality) that the injection
    /// did not touch it. Parsed representations are pinned in the
    /// cache for the simulator's lifetime.
    Baseline,
    /// Freshly serialized, potentially fault-carrying text. Its first
    /// sighting always takes the full parse-and-validate path; the
    /// memoized result lives in the FIFO-bounded transient window.
    Mutated,
}

/// One configuration file's text, shared by `Arc` and carrying its
/// [`ContentId`] identity.
///
/// # Examples
///
/// ```
/// use conferr_sut::{ContentId, FileText, TextOrigin};
///
/// let file = FileText::mutated("port = 5432\n");
/// assert_eq!(file.text(), "port = 5432\n");
/// assert_eq!(file.origin(), TextOrigin::Mutated);
/// assert_eq!(file.content_id(), ContentId::of("port = 5432\n"));
/// ```
#[derive(Debug, Clone)]
pub struct FileText {
    text: Arc<str>,
    id: ContentId,
    origin: TextOrigin,
    /// A parse of exactly `text`, when one was attached with
    /// [`FileText::with_parse`].
    parse: Option<Arc<TextParse>>,
}

impl FileText {
    fn new(text: impl Into<Arc<str>>, origin: TextOrigin) -> Self {
        let text = text.into();
        let id = ContentId::of(&text);
        FileText {
            text,
            id,
            origin,
            parse: None,
        }
    }

    /// Wraps baseline text (pinned when cached).
    pub fn baseline(text: impl Into<Arc<str>>) -> Self {
        Self::new(text, TextOrigin::Baseline)
    }

    /// Wraps freshly serialized, potentially mutated text.
    pub fn mutated(text: impl Into<Arc<str>>) -> Self {
        Self::new(text, TextOrigin::Mutated)
    }

    /// The file's text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A shared handle on the text (a reference-count bump, never a
    /// copy of the bytes).
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// The text's stable content identity.
    pub fn content_id(&self) -> ContentId {
        self.id
    }

    /// The retention class this text was tagged with.
    pub fn origin(&self) -> TextOrigin {
        self.origin
    }

    /// A copy of this file (same shared text, identity and origin)
    /// carrying `format`'s parse of its own text.
    ///
    /// # Examples
    ///
    /// ```
    /// use conferr_formats::KvFormat;
    /// use conferr_sut::FileText;
    ///
    /// let file = FileText::mutated("port = 5432\n");
    /// assert!(file.carried_parse().is_none());
    /// let parsed = file.with_parse(&KvFormat::new());
    /// assert_eq!(parsed.text(), file.text());
    /// assert!(parsed.parsed_by("kv").is_some_and(|p| p.is_ok()));
    /// // Tagged with the format's name: no other format can use it.
    /// assert!(parsed.parsed_by("ini").is_none());
    /// ```
    pub fn with_parse(&self, format: &dyn ConfigFormat) -> FileText {
        FileText {
            parse: Some(Arc::new(TextParse::new(format, &self.text))),
            ..self.clone()
        }
    }

    /// [`with_parse`](Self::with_parse) for text serialized with
    /// `format` from `edited`, a tree `format` parsed with disjoint
    /// nodes changed at `sites` (in reverse document order, as
    /// `conferr_model::edit_sites` returns them): the parse is built by
    /// [`TextParse::of_edit`], which re-parses only the changed nodes'
    /// lines when the format can, and this file's text otherwise.
    pub fn with_edit_parse(
        &self,
        format: &dyn ConfigFormat,
        edited: ConfTree,
        sites: &[EditSite],
    ) -> FileText {
        FileText {
            parse: Some(Arc::new(TextParse::of_edit(
                format, &self.text, edited, sites,
            ))),
            ..self.clone()
        }
    }

    /// The parse this copy carries, if any.
    pub fn carried_parse(&self) -> Option<&Arc<TextParse>> {
        self.parse.as_ref()
    }

    /// The carried parse's result, when the format named `format`
    /// made it.
    pub fn parsed_by(&self, format: &str) -> Option<Result<&ConfTree, &ParseError>> {
        self.parse
            .as_deref()
            .filter(|p| p.format() == format)
            .map(TextParse::result)
    }
}

/// The serialized configuration set handed to
/// [`SystemUnderTest::start`]: file name → [`FileText`].
///
/// The campaign engine builds one payload per injection; files the
/// fault did not touch reuse the engine's cached baseline `Arc<str>`
/// (and its precomputed [`ContentId`]) instead of cloning `String`s.
///
/// # Examples
///
/// ```
/// use conferr_sut::{default_payload, ConfigPayload, Deadline, FileText, PostgresSim, SystemUnderTest};
///
/// // Defaults, as the engine would hand them out (baseline origin):
/// let mut sut = PostgresSim::new();
/// let payload = default_payload(&sut);
/// let deadline = Deadline::unlimited();
/// assert!(sut.start(&payload, &deadline).is_running());
///
/// // Hand-built text, e.g. in a test (mutated origin):
/// let mut payload = ConfigPayload::new();
/// payload.insert("postgresql.conf", FileText::mutated("bogus = 1\n"));
/// assert!(!sut.start(&payload, &deadline).is_running());
/// ```
///
/// [`SystemUnderTest::start`]: crate::SystemUnderTest::start
#[derive(Debug, Clone, Default)]
pub struct ConfigPayload {
    files: BTreeMap<String, FileText>,
}

impl ConfigPayload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        ConfigPayload::default()
    }

    /// Builds a payload from plain per-file text, tagging every file
    /// [`TextOrigin::Mutated`] (no baseline identity is known). This
    /// is the drop-in bridge for callers that assemble configuration
    /// maps by hand.
    pub fn from_texts(texts: &BTreeMap<String, String>) -> Self {
        texts
            .iter()
            .map(|(name, text)| (name.clone(), FileText::mutated(text.as_str())))
            .collect()
    }

    /// Inserts (or replaces) one file.
    pub fn insert(&mut self, name: impl Into<String>, file: FileText) {
        self.files.insert(name.into(), file);
    }

    /// The named file, when present.
    pub fn get(&self, name: &str) -> Option<&FileText> {
        self.files.get(name)
    }

    /// The named file's text, when present.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(FileText::text)
    }

    /// Iterates files in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileText)> {
        self.files.iter().map(|(name, file)| (name.as_str(), file))
    }

    /// Number of files in the payload.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` iff the payload holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl FromIterator<(String, FileText)> for ConfigPayload {
    fn from_iter<I: IntoIterator<Item = (String, FileText)>>(iter: I) -> Self {
        ConfigPayload {
            files: iter.into_iter().collect(),
        }
    }
}

/// Aggregate [`ParseCache`] counters, exposed through
/// [`SystemUnderTest::parse_cache_stats`].
///
/// [`SystemUnderTest::parse_cache_stats`]: crate::SystemUnderTest::parse_cache_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a memoized representation (byte-identical
    /// text, verified).
    pub hits: u64,
    /// Lookups that ran the full parse-and-validate path.
    pub misses: u64,
    /// Parses performed while the cache was disabled
    /// ([`ParseCache::set_enabled`]); these never touch the memo
    /// table.
    pub bypassed: u64,
    /// Memoized representations currently held (pinned + transient).
    pub entries: usize,
    /// Pinned (baseline-origin) representations currently held.
    pub pinned: usize,
}

struct Entry<T> {
    text: Arc<str>,
    value: Arc<T>,
}

impl<T> Clone for Entry<T> {
    fn clone(&self) -> Self {
        Entry {
            text: Arc::clone(&self.text),
            value: Arc::clone(&self.value),
        }
    }
}

/// Per-file memo table: pinned baseline entries plus a FIFO-bounded
/// window of mutated-text entries.
struct FileCache<T> {
    pinned: HashMap<ContentId, Entry<T>>,
    recent: HashMap<ContentId, Entry<T>>,
    order: VecDeque<ContentId>,
}

impl<T> Default for FileCache<T> {
    fn default() -> Self {
        FileCache {
            pinned: HashMap::new(),
            recent: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<T> FileCache<T> {
    fn lookup(&self, file: &FileText) -> Option<Arc<T>> {
        let id = file.content_id();
        let entry = self.pinned.get(&id).or_else(|| self.recent.get(&id))?;
        // Identity is an index, not a proof: a hit requires the exact
        // bytes, so a hash collision costs a re-parse, never a wrong
        // outcome.
        (*entry.text == *file.text()).then(|| Arc::clone(&entry.value))
    }

    fn store(&mut self, file: &FileText, value: Arc<T>, capacity: usize) {
        let id = file.content_id();
        let entry = Entry {
            text: file.shared_text(),
            value,
        };
        match file.origin() {
            TextOrigin::Baseline => {
                self.pinned.insert(id, entry);
            }
            TextOrigin::Mutated => {
                if capacity == 0 || self.recent.contains_key(&id) || self.pinned.contains_key(&id) {
                    // A collision under the same id keeps the older
                    // entry; the newer text simply stays uncached (a
                    // pinned-id collision in particular must not park
                    // an unreachable entry in the FIFO window —
                    // lookups check `pinned` first).
                    return;
                }
                while self.recent.len() >= capacity {
                    let Some(oldest) = self.order.pop_front() else {
                        break;
                    };
                    self.recent.remove(&oldest);
                }
                self.recent.insert(id, entry);
                self.order.push_back(id);
            }
        }
    }

    fn len(&self) -> usize {
        self.pinned.len() + self.recent.len()
    }
}

/// Content-addressed memoization of a simulator's startup
/// parse-and-validate path.
///
/// `T` is whatever deterministic representation the simulator derives
/// from one file's text — typically a `Result<Blueprint, String>`
/// capturing either the validated startup state or the exact
/// startup diagnostic. Because simulators are deterministic functions
/// of their configuration text, memoizing by byte-identical content is
/// observationally invisible: a cache hit returns precisely what the
/// full parse would have produced (asserted end-to-end by
/// `tests/parse_cache.rs`).
///
/// # Examples
///
/// ```
/// use conferr_sut::{FileText, ParseCache};
///
/// let mut cache: ParseCache<usize> = ParseCache::new();
/// let conf = FileText::baseline("listen 80\n");
///
/// let parsed = cache.get_or_parse("app.conf", &conf, |text| text.len());
/// assert_eq!(*parsed, 10);
///
/// // Same content: memoized, the closure does not run again.
/// let memoized = cache.get_or_parse("app.conf", &conf, |_| unreachable!());
/// assert_eq!(parsed, memoized);
/// assert_eq!(cache.stats().hits, 1);
///
/// // Different content under the same name: full parse.
/// let edited = FileText::mutated("listen 8080\n");
/// assert_eq!(*cache.get_or_parse("app.conf", &edited, |text| text.len()), 12);
/// assert_eq!(cache.stats().misses, 2);
/// ```
pub struct ParseCache<T> {
    files: HashMap<String, FileCache<T>>,
    capacity_per_file: usize,
    enabled: bool,
    hits: u64,
    misses: u64,
    bypassed: u64,
}

/// Transient (mutated-origin) entries retained per file. Sized to
/// hold several full Table 1 fault loads' worth of distinct texts;
/// beyond that, the oldest entries are evicted first.
const DEFAULT_CAPACITY_PER_FILE: usize = 1024;

impl<T> Default for ParseCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for ParseCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseCache")
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> ParseCache<T> {
    /// Creates an enabled cache with the default per-file transient
    /// capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY_PER_FILE)
    }

    /// Creates an enabled cache retaining at most `capacity_per_file`
    /// mutated-origin entries per file (baseline-origin entries are
    /// always pinned and not counted against the capacity). A capacity
    /// of 0 memoizes baseline text only.
    pub fn with_capacity(capacity_per_file: usize) -> Self {
        ParseCache {
            files: HashMap::new(),
            capacity_per_file,
            enabled: true,
            hits: 0,
            misses: 0,
            bypassed: 0,
        }
    }

    /// Enables or disables memoization. While disabled every lookup
    /// runs `parse` and nothing is stored — the reference cold path
    /// used by benches and equivalence tests.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// `true` iff memoization is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the memoized representation of `file`'s exact text
    /// under `file_name`, running `parse` (the full paper-faithful
    /// parse-and-validate path) when no byte-identical entry exists.
    pub fn get_or_parse<F>(&mut self, file_name: &str, file: &FileText, parse: F) -> Arc<T>
    where
        F: FnOnce(&str) -> T,
    {
        if !self.enabled {
            self.bypassed += 1;
            return Arc::new(parse(file.text()));
        }
        if let Some(hit) = self.files.get(file_name).and_then(|fc| fc.lookup(file)) {
            self.hits += 1;
            return hit;
        }
        self.misses += 1;
        let value = Arc::new(parse(file.text()));
        self.files.entry(file_name.to_string()).or_default().store(
            file,
            Arc::clone(&value),
            self.capacity_per_file,
        );
        value
    }

    /// [`get_or_parse`](Self::get_or_parse) for a startup path that
    /// begins with `format`'s parse of the text: `build` turns that
    /// parse (the tree, or the parser's error) into the memoized
    /// representation.
    ///
    /// On a miss, a parse `file` carries from the same format (see
    /// [`FileText::with_parse`]) stands in for parsing the text again.
    /// It is the same parser's result on the same bytes, so the
    /// outcome cannot differ; the lookup still counts as a miss. While
    /// the cache is disabled the carried parse is ignored and the text
    /// is parsed afresh, so the uncached reference path never depends
    /// on the hand-over.
    pub fn get_or_build<F>(
        &mut self,
        file_name: &str,
        file: &FileText,
        format: &dyn ConfigFormat,
        build: F,
    ) -> Arc<T>
    where
        F: FnOnce(Result<&ConfTree, &ParseError>) -> T,
    {
        let carried = if self.enabled {
            file.parsed_by(format.name())
        } else {
            None
        };
        self.get_or_parse(file_name, file, |text| match carried {
            Some(parsed) => build(parsed),
            None => build(format.parse(text).as_ref()),
        })
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypassed: self.bypassed,
            entries: self.files.values().map(FileCache::len).sum(),
            pinned: self.files.values().map(|fc| fc.pinned.len()).sum(),
        }
    }

    /// Drops every memoized representation (counters are kept).
    pub fn clear(&mut self) {
        self.files.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn content_id_is_stable_and_discriminating() {
        assert_eq!(ContentId::of("a"), ContentId::of("a"));
        assert_ne!(ContentId::of("a"), ContentId::of("b"));
        assert_ne!(ContentId::of(""), ContentId::of("\0"));
    }

    #[test]
    fn payload_from_texts_round_trips() {
        let mut texts = BTreeMap::new();
        texts.insert("a.conf".to_string(), "x = 1\n".to_string());
        let payload = ConfigPayload::from_texts(&texts);
        assert_eq!(payload.len(), 1);
        assert!(!payload.is_empty());
        assert_eq!(payload.text("a.conf"), Some("x = 1\n"));
        assert_eq!(payload.get("a.conf").unwrap().origin(), TextOrigin::Mutated);
        assert_eq!(payload.iter().count(), 1);
    }

    #[test]
    fn identical_content_is_parsed_once() {
        let mut cache: ParseCache<String> = ParseCache::new();
        let runs = Cell::new(0);
        let parse = |text: &str| {
            runs.set(runs.get() + 1);
            text.to_uppercase()
        };
        let file = FileText::mutated("abc");
        let a = cache.get_or_parse("f", &file, parse);
        let b = cache.get_or_parse("f", &file, parse);
        // Same content under a *fresh* FileText (new Arc) still hits.
        let c = cache.get_or_parse("f", &FileText::mutated("abc"), parse);
        assert_eq!(runs.get(), 1);
        assert_eq!(*a, "ABC");
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&b, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn same_content_under_different_names_is_parsed_per_name() {
        // Diagnostics may embed the file name, so the memo key
        // includes it.
        let mut cache: ParseCache<usize> = ParseCache::new();
        let file = FileText::baseline("x");
        cache.get_or_parse("a.conf", &file, |_| 1);
        let b = cache.get_or_parse("b.conf", &file, |_| 2);
        assert_eq!(*b, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_always_parses_and_stores_nothing() {
        let mut cache: ParseCache<usize> = ParseCache::new();
        cache.set_enabled(false);
        assert!(!cache.enabled());
        let file = FileText::baseline("x");
        cache.get_or_parse("f", &file, |_| 1);
        cache.get_or_parse("f", &file, |_| 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.bypassed), (0, 0, 2));
        assert_eq!(stats.entries, 0);
        // Re-enabling starts cold.
        cache.set_enabled(true);
        cache.get_or_parse("f", &file, |_| 3);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn mutated_entries_are_evicted_fifo_and_pinned_entries_are_not() {
        let mut cache: ParseCache<usize> = ParseCache::with_capacity(2);
        let base = FileText::baseline("base");
        cache.get_or_parse("f", &base, |_| 0);
        for (i, text) in ["m1", "m2", "m3"].iter().enumerate() {
            cache.get_or_parse("f", &FileText::mutated(*text), move |_| i + 1);
        }
        let stats = cache.stats();
        assert_eq!(stats.pinned, 1);
        assert_eq!(stats.entries, 3, "2 transient + 1 pinned");
        // m1 (oldest) was evicted, base and m3 still hit.
        cache.get_or_parse("f", &base, |_| unreachable!());
        cache.get_or_parse("f", &FileText::mutated("m3"), |_| unreachable!());
        let evicted = cache.get_or_parse("f", &FileText::mutated("m1"), |_| 9);
        assert_eq!(*evicted, 9);
    }

    #[test]
    fn zero_capacity_memoizes_baseline_only() {
        let mut cache: ParseCache<usize> = ParseCache::with_capacity(0);
        let mutated = FileText::mutated("m");
        cache.get_or_parse("f", &mutated, |_| 1);
        cache.get_or_parse("f", &mutated, |_| 2);
        assert_eq!(cache.stats().misses, 2);
        let base = FileText::baseline("b");
        cache.get_or_parse("f", &base, |_| 3);
        cache.get_or_parse("f", &base, |_| unreachable!());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn carried_parse_stands_in_for_a_miss_only_while_enabled() {
        use conferr_formats::{IniFormat, KvFormat};
        // What `build` saw: the number of top-level nodes, which
        // differs between the kv and ini parses of this text.
        let text = "[s]\nport = 1\n";
        let kv_nodes = KvFormat::new().parse(text).unwrap().root().children().len();
        let ini_nodes = IniFormat::new()
            .parse(text)
            .unwrap()
            .root()
            .children()
            .len();
        assert_ne!(kv_nodes, ini_nodes);
        let carried = FileText::mutated(text).with_parse(&KvFormat::new());
        let nodes = |p: Result<&ConfTree, &ParseError>| p.unwrap().root().children().len();

        // A parse by another format is ignored: the text is parsed.
        let mut cache: ParseCache<usize> = ParseCache::new();
        assert_eq!(
            *cache.get_or_build("f", &carried, &IniFormat::new(), nodes),
            ini_nodes
        );

        // The matching format uses the carried parse; a miss, not a hit.
        let mut cache: ParseCache<usize> = ParseCache::new();
        assert_eq!(
            *cache.get_or_build("f", &carried, &KvFormat::new(), nodes),
            kv_nodes
        );
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
        // The entry keeps the built value, never the parse.
        assert_eq!(Arc::strong_count(carried.carried_parse().unwrap()), 1);

        // Disabled: parsed from text, the carried parse unused.
        cache.set_enabled(false);
        let unused = |_: Result<&ConfTree, &ParseError>| 7;
        assert_eq!(
            *cache.get_or_build("f", &carried, &KvFormat::new(), unused),
            7
        );
        assert_eq!(cache.stats().bypassed, 1);
    }

    #[test]
    fn clear_drops_entries() {
        let mut cache: ParseCache<usize> = ParseCache::new();
        cache.get_or_parse("f", &FileText::baseline("x"), |_| 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        cache.get_or_parse("f", &FileText::baseline("x"), |_| 2);
        assert_eq!(cache.stats().misses, 2);
    }
}

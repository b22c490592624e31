//! Workspace source scanning: which `#[test]` functions and item
//! identifiers actually exist.
//!
//! The scanner is textual: it walks every `.rs` file under the workspace's
//! source roots (`src/`, `tests/`, `crates/`), skipping build output, and
//! records
//!
//! * every function defined after a `#[test]` attribute (attributes,
//!   doc comments and blank lines may sit between the attribute and the
//!   `fn`), keyed by bare name, and
//! * every top-level-ish item identifier (`fn`/`struct`/`enum`/`trait`/
//!   `const`/`static`/`type`/`mod` definitions), used to verify `impl =`
//!   paths point at real code.
//!
//! A textual scan can in principle be fooled by pathological formatting
//! (a `#[test]` inside a string literal); in exchange it needs no compiler
//! and cannot miss a test because of cfg gating — exactly the trade-off we
//! want for a citation checker, which must err on the side of "exists".

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Every `#[test]` function found in the workspace, name → defining files.
#[derive(Debug, Default, Clone)]
pub struct TestIndex {
    /// Bare test-function name → files that define one with that name.
    pub tests: BTreeMap<String, Vec<PathBuf>>,
}

impl TestIndex {
    /// Whether a test with this bare name exists anywhere.
    pub fn contains(&self, name: &str) -> bool {
        self.tests.contains_key(name)
    }

    /// Total number of distinct test names.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the index is empty (no tests found at all).
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }
}

/// Every item identifier defined in the workspace sources.
#[derive(Debug, Default, Clone)]
pub struct SourceIndex {
    /// Identifiers that appear as item definitions.
    pub items: BTreeSet<String>,
}

impl SourceIndex {
    /// Whether an item with this identifier is defined anywhere.
    pub fn contains(&self, ident: &str) -> bool {
        self.items.contains(ident)
    }
}

/// Both indexes, built in one walk.
#[derive(Debug, Default, Clone)]
pub struct WorkspaceScan {
    /// The `#[test]` function index.
    pub tests: TestIndex,
    /// The item-definition index.
    pub items: SourceIndex,
}

/// Walk the workspace rooted at `root` and index its sources.
///
/// Scans `<root>/src`, `<root>/tests` and `<root>/crates` (each optional),
/// skipping any directory named `target`.
pub fn scan_workspace(root: &Path) -> std::io::Result<WorkspaceScan> {
    let mut scan = WorkspaceScan::default();
    for sub in ["src", "tests", "crates"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut scan)?;
        }
    }
    Ok(scan)
}

fn walk(dir: &Path, scan: &mut WorkspaceScan) -> std::io::Result<()> {
    // Sorted traversal keeps duplicate-definition lists deterministic.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, scan)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)?;
            scan_file(&path, &text, scan);
        }
    }
    Ok(())
}

/// Extract the identifier following `keyword ` in `line`, if any.
fn ident_after<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.split_once(keyword)?.1;
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    let ident = &rest[..end];
    (!ident.is_empty() && !ident.chars().next().unwrap().is_ascii_digit()).then_some(ident)
}

/// Scan one file's text into the indexes. Public for tests.
pub(crate) fn scan_file(path: &Path, text: &str, scan: &mut WorkspaceScan) {
    // Lines still "under" a pending #[test] attribute.
    let mut pending_test = false;
    for raw in text.lines() {
        let line = raw.trim_start();
        if line.starts_with("#[test]") || line.starts_with("#[test ") {
            pending_test = true;
            continue;
        }
        // Comments never define items and never cancel a pending #[test].
        if line.starts_with("//") {
            continue;
        }
        // Attributes, doc comments and blank lines may separate the
        // attribute from its fn; anything else cancels the pending state
        // below once we know the line is not the fn itself.
        let is_fn_line = line.starts_with("fn ")
            || line.starts_with("pub fn ")
            || line.starts_with("pub(crate) fn ")
            || line.starts_with("async fn ")
            || line.contains(" fn ");
        if is_fn_line {
            if let Some(name) = ident_after(line, "fn ") {
                scan.items.items.insert(name.to_string());
                if pending_test {
                    scan.tests
                        .tests
                        .entry(name.to_string())
                        .or_default()
                        .push(path.to_path_buf());
                }
            }
            pending_test = false;
            continue;
        }
        if pending_test
            && !(line.is_empty()
                || line.starts_with("#[")
                || line.starts_with("//")
                || line.starts_with("#!["))
        {
            pending_test = false;
        }
        // Item identifiers for impl-path verification.
        for kw in [
            "struct ", "enum ", "trait ", "const ", "static ", "type ", "mod ", "union ",
        ] {
            // Only count definitions, i.e. the keyword at the start of the
            // declaration (possibly behind visibility modifiers).
            let decl = line
                .strip_prefix("pub ")
                .or_else(|| line.strip_prefix("pub(crate) "))
                .or_else(|| line.strip_prefix("pub(super) "))
                .unwrap_or(line);
            if decl.starts_with(kw) {
                if let Some(name) = ident_after(decl, kw) {
                    scan.items.items.insert(name.to_string());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_text(text: &str) -> WorkspaceScan {
        let mut s = WorkspaceScan::default();
        scan_file(Path::new("x.rs"), text, &mut s);
        s
    }

    #[test]
    fn finds_plain_test_fn() {
        let s = scan_text("#[test]\nfn my_test() {}\n");
        assert!(s.tests.contains("my_test"));
        assert_eq!(s.tests.len(), 1);
    }

    #[test]
    fn attributes_and_comments_between_attr_and_fn() {
        let s = scan_text(
            "#[test]\n#[should_panic(expected = \"boom\")]\n// why this panics\n\nfn panics() {}\n",
        );
        assert!(s.tests.contains("panics"));
    }

    #[test]
    fn non_test_fns_are_items_not_tests() {
        let s = scan_text("pub fn helper() {}\n#[test]\nfn t() {}\nfn later() {}\n");
        assert!(!s.tests.contains("helper"));
        assert!(
            !s.tests.contains("later"),
            "pending must not leak past the first fn"
        );
        assert!(s.tests.contains("t"));
        assert!(s.items.contains("helper"));
        assert!(s.items.contains("later"));
    }

    #[test]
    fn statement_between_attr_and_fn_cancels_pending() {
        let s = scan_text("#[test]\nlet x = 1;\nfn not_a_test() {}\n");
        assert!(!s.tests.contains("not_a_test"));
    }

    #[test]
    fn indexes_item_definitions() {
        let s = scan_text(
            "pub struct MpSender<C> {}\nenum EcnState { A }\npub const MIN_CWND: f64 = 2.0;\npub(crate) mod inner {}\npub trait CongestionControl {}\n",
        );
        for ident in [
            "MpSender",
            "EcnState",
            "MIN_CWND",
            "inner",
            "CongestionControl",
        ] {
            assert!(s.items.contains(ident), "{ident}");
        }
    }

    #[test]
    fn impl_method_names_are_indexed() {
        let s = scan_text("impl Foo {\n    pub fn on_rto(&mut self) {}\n}\n");
        assert!(s.items.contains("on_rto"));
    }

    #[test]
    fn real_workspace_scan_finds_known_tests() {
        // The crate lives at <root>/crates/conformance.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scan = scan_workspace(&root).unwrap();
        // A unit test from this very file:
        assert!(scan.tests.contains("finds_plain_test_fn"));
        assert!(scan.items.contains("SpecFile"));
        assert!(scan.tests.len() > 100, "workspace has hundreds of tests");
    }
}

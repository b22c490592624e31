//! The spec-file format and its parser.
//!
//! A spec file pins one RFC section (or one paper algorithm) to the code.
//! The format is a TOML subset read by [`crate::text`], the reader `.scn`
//! scenarios share, so errors carry exact line numbers:
//!
//! ```text
//! target = "https://www.rfc-editor.org/rfc/rfc5681#section-3.1"
//!
//! # Free-form commentary: the section's surrounding prose, usually the
//! # non-normative sentences that give the quoted clauses context.
//!
//! [[spec]]
//! level = "MUST"
//! quote = '''
//! ssthresh = max (FlightSize / 2, 2*SMSS)
//! '''
//! impl = "xmp_transport::sender::MpSender::on_rto"
//! test = "rfc5681_s3_1_rto_ssthresh_max_half_flightsize_two_smss"
//! note = "FlightSize is measured in packets here; SMSS = 1 packet."
//! ```
//!
//! Per entry: `level` and `quote` are mandatory; `impl` names the
//! implementing item (verified to exist by [`crate::scan`]); `test` names
//! the citation `#[test]` (mandatory for MUST-level entries, verified to
//! exist); `note` is free text, typically recording how a clause maps onto
//! the simulator's modelling (e.g. windows counted in packets, the CWR bit
//! modelled as `cwr_seq`). Every value is a string, each key appears at
//! most once per entry, and only `target` (once) may precede the first
//! `[[spec]]`.

use crate::text::{self, Field, Table, TextError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Requirement level of a quoted clause, RFC 2119 vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Absolute requirement (also used for MUST NOT / SHALL quotes).
    Must,
    /// Recommended (also SHOULD NOT / RECOMMENDED quotes).
    Should,
    /// Truly optional behaviour.
    May,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s {
            "MUST" => Some(Level::Must),
            "SHOULD" => Some(Level::Should),
            "MAY" => Some(Level::May),
            _ => None,
        }
    }

    /// The RFC 2119 keyword, as written in spec files.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Must => "MUST",
            Level::Should => "SHOULD",
            Level::May => "MAY",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One `[[spec]]` entry: a quoted clause and what implements/tests it.
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// 1-based line of the `[[spec]]` header in the file.
    pub line: usize,
    /// Requirement level.
    pub level: Level,
    /// The quoted clause, verbatim (leading/trailing blank lines trimmed).
    pub quote: String,
    /// Item path implementing the clause, e.g.
    /// `xmp_core::bos::RoundState::on_ce`.
    pub impl_path: Option<String>,
    /// Name of the `#[test]` asserting the clause's observable behaviour.
    pub test: Option<String>,
    /// Free-form mapping note.
    pub note: Option<String>,
}

impl SpecEntry {
    /// First line of the quote, for compact report listings.
    pub fn quote_head(&self) -> &str {
        self.quote.lines().next().unwrap_or("").trim()
    }
}

/// One parsed spec file.
#[derive(Debug, Clone)]
pub struct SpecFile {
    /// Path the file was loaded from (as given to [`SpecFile::load`]).
    pub path: PathBuf,
    /// The `target` URL naming the RFC section (or paper anchor).
    pub target: String,
    /// The `[[spec]]` entries, in file order.
    pub entries: Vec<SpecEntry>,
}

/// A parse or validation failure, pointing at the offending line.
#[derive(Debug, Clone)]
pub struct SpecError {
    /// File the error occurred in.
    pub path: PathBuf,
    /// 1-based line number (0 for whole-file errors, e.g. I/O).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "{}: {}", self.path.display(), self.msg),
            n => write!(f, "{}:{n}: {}", self.path.display(), self.msg),
        }
    }
}

impl std::error::Error for SpecError {}

/// Whether `s` is a valid Rust identifier (test names, path segments).
fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl SpecFile {
    /// Load and parse one spec file from disk.
    pub fn load(path: &Path) -> Result<SpecFile, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| SpecError {
            path: path.to_path_buf(),
            line: 0,
            msg: format!("cannot read: {e}"),
        })?;
        Self::parse(path, &text)
    }

    /// Parse spec-file text. `path` is used only for error reporting.
    pub fn parse(path: &Path, text: &str) -> Result<SpecFile, SpecError> {
        let (target, entries) = parse_text(text).map_err(|e| SpecError {
            path: path.to_path_buf(),
            line: e.line,
            msg: e.msg,
        })?;
        Ok(SpecFile {
            path: path.to_path_buf(),
            target,
            entries,
        })
    }
}

/// The `target` and the entries: only `target` (once) before the first
/// `[[spec]]`, and at least one entry.
fn parse_text(text: &str) -> Result<(String, Vec<SpecEntry>), TextError> {
    let doc = text::parse(text)?;
    doc.top.only(&["target"])?;
    let target = doc.top.once("target")?.map(Field::string).transpose()?;
    let entries = doc
        .tables
        .iter()
        .map(entry)
        .collect::<Result<Vec<_>, _>>()?;
    let target = target.ok_or_else(|| TextError::at(0, "file is missing `target = \"...\"`"))?;
    if entries.is_empty() {
        return Err(TextError::at(0, "file has no [[spec]] entries"));
    }
    Ok((target.to_string(), entries))
}

/// One `[[spec]]` table as an entry: string values only, each key at most
/// once, `level` and a non-empty `quote` required, and a `test` required
/// at MUST level.
fn entry(t: &Table<'_>) -> Result<SpecEntry, TextError> {
    if !(t.array && t.name == "spec") {
        return Err(t.err(format!("unknown section `{}`", t.header())));
    }
    t.only(&["level", "quote", "impl", "test", "note"])?;
    let get = |key: &str| -> Result<Option<(&Field<'_>, &str)>, TextError> {
        t.once(key)?.map(|f| Ok((f, f.string()?))).transpose()
    };
    let (f, v) = get("level")?.ok_or_else(|| t.err("entry is missing `level`"))?;
    let level =
        Level::parse(v).ok_or_else(|| f.err(format!("bad level `{v}` (want MUST/SHOULD/MAY)")))?;
    let (_, quote) = get("quote")?.ok_or_else(|| t.err("entry is missing `quote`"))?;
    let quote = quote.trim_matches('\n').to_string();
    if quote.trim().is_empty() {
        return Err(t.err("entry has an empty `quote`"));
    }
    let checked = |key: &str, what: &str, ok: fn(&str) -> bool| match get(key)? {
        Some((f, v)) if !ok(v) => Err(f.err(format!("bad {what} `{v}`"))),
        hit => Ok(hit.map(|(_, v)| v.to_string())),
    };
    let impl_path = checked("impl", "impl path", |v| v.split("::").all(is_ident))?;
    let test = checked("test", "test name", is_ident)?;
    if level == Level::Must && test.is_none() {
        return Err(t.err("MUST-level entry must cite a test (`test = \"...\"`)"));
    }
    Ok(SpecEntry {
        line: t.line,
        level,
        quote,
        impl_path,
        test,
        note: get("note")?.map(|(_, v)| v.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<SpecFile, SpecError> {
        SpecFile::parse(Path::new("test.toml"), text)
    }

    const GOOD: &str = r#"
target = "https://www.rfc-editor.org/rfc/rfc5681#section-3.1"

# commentary

[[spec]]
level = "MUST"
quote = '''
ssthresh = max (FlightSize / 2, 2*SMSS)
'''
impl = "xmp_transport::sender::MpSender::on_rto"
test = "rto_ssthresh"

[[spec]]
level = "MAY"
quote = "the sender may use either slow start or congestion avoidance"
"#;

    #[test]
    fn parses_entries_and_fields() {
        let f = parse(GOOD).unwrap();
        assert_eq!(
            f.target,
            "https://www.rfc-editor.org/rfc/rfc5681#section-3.1"
        );
        assert_eq!(f.entries.len(), 2);
        let e = &f.entries[0];
        assert_eq!(e.level, Level::Must);
        assert_eq!(e.quote, "ssthresh = max (FlightSize / 2, 2*SMSS)");
        assert_eq!(
            e.impl_path.as_deref(),
            Some("xmp_transport::sender::MpSender::on_rto")
        );
        assert_eq!(e.test.as_deref(), Some("rto_ssthresh"));
        assert_eq!(e.line, 6);
        assert_eq!(f.entries[1].level, Level::May);
        assert!(f.entries[1].test.is_none());
    }

    #[test]
    fn must_without_test_is_rejected_with_entry_line() {
        let bad = "target = \"x\"\n\n[[spec]]\nlevel = \"MUST\"\nquote = \"q\"\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("MUST-level"), "{e}");
    }

    #[test]
    fn should_without_test_is_allowed() {
        let ok = "target = \"x\"\n\n[[spec]]\nlevel = \"SHOULD\"\nquote = \"q\"\n";
        assert_eq!(parse(ok).unwrap().entries.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "target = \"x\"\n[[spec]]\nlevel = \"MUSTY\"\nquote = \"q\"\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("MUSTY"));
        assert!(e.to_string().starts_with("test.toml:3:"), "{e}");
    }

    #[test]
    fn unterminated_block_points_at_opener() {
        let bad = "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nquote = '''\nnever closed\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("unterminated"));
    }

    #[test]
    fn missing_target_and_empty_file_rejected() {
        let e = parse("[[spec]]\nlevel = \"MAY\"\nquote = \"q\"\n").unwrap_err();
        assert!(e.msg.contains("target"), "{e}");
        let e = parse("target = \"x\"\n").unwrap_err();
        assert!(e.msg.contains("no [[spec]]"), "{e}");
    }

    #[test]
    fn bad_test_name_and_impl_path_rejected() {
        let bad =
            "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nquote = \"q\"\ntest = \"has space\"\n";
        assert!(parse(bad).unwrap_err().msg.contains("bad test name"));
        let bad = "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nquote = \"q\"\nimpl = \"a::b c\"\n";
        assert!(parse(bad).unwrap_err().msg.contains("bad impl path"));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let bad = "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nlevel = \"MAY\"\nquote = \"q\"\n";
        assert!(parse(bad).unwrap_err().msg.contains("duplicate `level`"));
    }

    #[test]
    fn unknown_key_rejected() {
        let bad = "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nquote = \"q\"\nbogus = \"v\"\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.msg.contains("unknown key"));
    }

    #[test]
    fn multiline_quote_preserves_inner_lines() {
        let text =
            "target = \"x\"\n[[spec]]\nlevel = \"MAY\"\nquote = '''\nline one\n  line two\n'''\n";
        let f = parse(text).unwrap();
        assert_eq!(f.entries[0].quote, "line one\n  line two");
        assert_eq!(f.entries[0].quote_head(), "line one");
    }
}
